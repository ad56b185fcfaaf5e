import math
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from aerial3d.errors import DuplicateKey, EmptyTable, NotFound, ParseError
from aerial3d.vehicles import (
    VehicleRecord,
    VehicleTable,
    load_table,
    lookup,
    match_dimensions,
    min_pairwise_gap,
    packaged_table_path,
)


def record(brand, model, length, width, height, **kw):
    defaults = dict(powertrain="ICE", price=100000.0, doors=4, seats=5)
    defaults.update(kw)
    return VehicleRecord(brand, model, length, width, height, **defaults)


@pytest.fixture(scope="module")
def table():
    return load_table(packaged_table_path())


class TestVehicleRecord:
    def test_dims_properties(self):
        rec = record("Tesla", "Model 3", 4694, 1850, 1443)
        assert rec.dims_mm == (4694, 1850, 1443)
        assert rec.dims_m == (4.694, 1.850, 1.443)
        assert rec.key == ("tesla", "model 3")

    @pytest.mark.parametrize(
        "kw",
        [
            {"length": 0},
            {"width": -1},
            {"height": 0},
            {"length": 1700, "width": 1800},  # wider than long
        ],
    )
    def test_bad_dimensions_rejected(self, kw):
        base = dict(length=4500, width=1800, height=1500)
        base.update(kw)
        with pytest.raises(ValueError):
            record("A", "B", base["length"], base["width"], base["height"])

    def test_bad_powertrain_rejected(self):
        with pytest.raises(ValueError):
            record("A", "B", 4500, 1800, 1500, powertrain="steam")


class TestPackagedTable:
    def test_loads_and_is_reasonably_sized(self, table):
        assert len(table) >= 30

    def test_all_dimension_triples_unique(self, table):
        dims = [rec.dims_mm for rec in table]
        assert len(set(dims)) == len(dims)

    def test_sorted_by_key(self, table):
        keys = [rec.key for rec in table]
        assert keys == sorted(keys)

    def test_positive_minimum_gap(self, table):
        assert min_pairwise_gap(table) > 10.0  # meaningfully separated, in mm


class TestLoadTable:
    def test_missing_column_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("brand,model,length_mm\nA,B,4500\n")
        with pytest.raises(ParseError):
            load_table(path)

    def test_bad_row_reports_line(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text(
            "brand,model,length_mm,width_mm,height_mm,powertrain,price,doors,seats\n"
            "A,B,notanumber,1800,1500,ICE,100,4,5\n"
        )
        with pytest.raises(ParseError, match="row 2"):
            load_table(path)

    @pytest.mark.parametrize(
        "row, message",
        [
            # An unquoted thousands separator: price 239, doors 800, seats 5.
            ("BYD,Tang,4870,1950,1725,PHEV,239,800,5,7", "more than 9 fields"),
            ("BYD,Tang,4870,1950,1725,PHEV,nan,5,7", "price must be finite and >= 0, got nan"),
            ("BYD,Tang,4870,1950,1725,PHEV,inf,5,7", "price must be finite and >= 0, got inf"),
            ("BYD,Tang,inf,1950,1725,PHEV,239800,5,7", "dimensions must be positive and finite"),
        ],
        ids=["long-row", "nan-price", "inf-price", "inf-length"],
    )
    def test_row_that_is_not_nine_finite_fields_names_its_row(self, tmp_path, row, message):
        path = tmp_path / "bad.csv"
        path.write_text(
            "brand,model,length_mm,width_mm,height_mm,powertrain,price,doors,seats\n"
            "Tesla,Model 3,4694,1850,1443,BEV,231900,4,5\n" + row + "\n"
        )
        with pytest.raises(ParseError, match=f"^{re.escape(str(path))}: row 3: {message}"):
            load_table(path)

    def test_repeated_header_column_rejected(self, tmp_path):
        # Same column set as the schema, but "price" twice: csv.DictReader
        # would keep the last value (price 1.0).
        path = tmp_path / "repeat.csv"
        path.write_text(
            "brand,model,length_mm,width_mm,height_mm,powertrain,price,doors,seats,price\n"
            "Tesla,Model 3,4694,1850,1443,BEV,231900,4,5,1\n"
        )
        with pytest.raises(ParseError, match="header repeats column 'price'"):
            load_table(path)

    @pytest.mark.parametrize(
        "lines, row",
        [
            (["{big}"], 1),
            (["{header}", "A,{big},4500,1800,1500,ICE,100,4,5"], 2),
            # A quoted newline inside row 2 does not shift the row count.
            (["{header}", 'A,"B\nC",4500,1800,1500,ICE,100,4,5', "{big},B"], 3),
        ],
        ids=["header", "row-2", "row-3-after-quoted-newline"],
    )
    def test_oversized_quoted_field_names_its_row(self, tmp_path, lines, row):
        header = "brand,model,length_mm,width_mm,height_mm,powertrain,price,doors,seats"
        big = '"' + "x" * 131_073 + '"'  # past csv's default field size limit
        path = tmp_path / "big.csv"
        path.write_text("\n".join(lines).format(header=header, big=big) + "\n")
        with pytest.raises(ParseError, match=f"^{re.escape(str(path))}: row {row}: field larger"):
            load_table(path)

    def test_empty_table_rejected(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text(
            "brand,model,length_mm,width_mm,height_mm,powertrain,price,doors,seats\n"
        )
        with pytest.raises(EmptyTable):
            load_table(path)

    def test_duplicate_brand_model_rejected(self):
        with pytest.raises(DuplicateKey):
            VehicleTable.from_records(
                [
                    record("Tesla", "Model 3", 4694, 1850, 1443),
                    record("TESLA", "model 3", 4700, 1850, 1443),
                ]
            )


class TestMatchDimensions:
    def test_exact_dims_return_their_record(self, table):
        rec = match_dimensions(table, 4694, 1850, 1443)
        assert rec.key == ("tesla", "model 3")

    def test_small_perturbation_keeps_match(self, table):
        rec = match_dimensions(table, 4690, 1848, 1440)
        assert rec.key == ("tesla", "model 3")

    def test_tie_broken_lexicographically(self):
        tbl = VehicleTable.from_records(
            [
                record("Bravo", "X", 1200, 500, 500),
                record("Alpha", "X", 1000, 500, 500),
            ]
        )
        # Query equidistant from both rows.
        rec = match_dimensions(tbl, 1100, 500, 500)
        assert rec.brand == "Alpha"

    def test_empty_table(self):
        with pytest.raises(EmptyTable):
            match_dimensions(VehicleTable(()), 4500, 1800, 1500)

    def test_nonpositive_query_rejected(self, table):
        with pytest.raises(ValueError):
            match_dimensions(table, 0, 1800, 1500)

    @pytest.mark.parametrize(
        "dims, message",
        [
            ((math.inf, 1800, 1500), "must be positive and finite"),
            ((4500, math.nan, 1500), "must be positive and finite"),
            ((1e200, 1800, 1500), "too large to compare"),  # ** 2 overflows
            ((1e154, 1e154, 1e154), "too large to compare"),  # the sum overflows to inf
        ],
    )
    def test_unmatchable_query_rejected(self, table, dims, message):
        with pytest.raises(ValueError, match=message):
            match_dimensions(table, *dims)

    @given(
        index=st.integers(0, 30),
        direction=st.tuples(st.floats(-1, 1), st.floats(-1, 1), st.floats(-1, 1)),
        radius=st.floats(0.0, 0.49),
    )
    @settings(max_examples=100)
    def test_perturbation_under_half_gap_never_changes_match(
        self, index, direction, radius
    ):
        tbl = load_table(packaged_table_path())
        rec = tbl.records[index % len(tbl)]
        norm = math.sqrt(sum(d * d for d in direction))
        if norm == 0.0:
            offset = (0.0, 0.0, 0.0)
        else:
            scale = radius * min_pairwise_gap(tbl) / norm
            offset = tuple(d * scale for d in direction)
        matched = match_dimensions(
            tbl,
            rec.length_mm + offset[0],
            rec.width_mm + offset[1],
            rec.height_mm + offset[2],
        )
        assert matched.key == rec.key


class TestLookup:
    def test_case_and_whitespace_insensitive(self, table):
        rec = lookup(table, "  tesla ", "MODEL 3")
        assert rec.brand == "Tesla"

    def test_unknown_vehicle(self, table):
        with pytest.raises(NotFound):
            lookup(table, "Acme", "Roadster")

    def test_one_lookup_reads_no_record_key(self, table, monkeypatch):
        # The keys are casefolded once, when the table is built.
        target = table.records[27]
        calls = []
        key = VehicleRecord.key
        monkeypatch.setattr(VehicleRecord, "key", property(lambda r: calls.append(r) or key.fget(r)))
        assert lookup(table, target.brand, target.model) is target
        assert calls == []

    def test_matches_a_linear_scan(self, table):
        def scan(tbl, brand, model):
            key = (brand.strip().casefold(), model.strip().casefold())
            for rec in tbl.records:
                if rec.key == key:
                    return rec
            raise NotFound(f"no table entry for {brand.strip()!r} {model.strip()!r}")

        def outcome(fn, *args):
            try:
                return fn(*args)
            except NotFound as exc:
                return str(exc)

        # Built directly, so repeated keys stay: the first in table order wins.
        repeats = VehicleTable((
            record("BYD", "Tang", 4870, 1950, 1725),
            record("byd", "TANG", 4000, 1800, 1500),
            record("Maße", "Straße", 4100, 1700, 1500),
            record("MASSE", "STRASSE", 4200, 1750, 1500),
            record("Kia", "EV6", 4680, 1880, 1550),
        ))
        for tbl in (table, repeats):
            names = [(r.brand, r.model) for r in tbl.records]
            names += [("Acme", "Roadster"), ("", ""), (" ", "Tang"), ("Tang", "BYD")]
            for brand, model in names:
                for b, m in (
                    (brand, model), (brand.upper(), model.lower()), (brand.swapcase(), model),
                    (f" \t{brand}\n", f"  {model} "), (brand.casefold(), model.casefold()),
                    (brand + "x", model), (brand, model.replace(" ", "")),
                ):
                    want = outcome(scan, tbl, b, m)
                    got = outcome(lookup, tbl, b, m)
                    assert got is want if isinstance(want, VehicleRecord) else got == want
        assert lookup(repeats, "BYD", "tang") is repeats.records[0]
        assert lookup(repeats, "masse", "strasse") is repeats.records[2]
