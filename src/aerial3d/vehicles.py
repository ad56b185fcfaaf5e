"""Vehicle attribute table: CSV loading, dimension matching, exact lookup.

The table is the knowledge base behind zero-shot recognition (measure a
vehicle's metric dimensions, find the closest catalog entry) and retrieval
(look a model up by name to obtain the dimensions to search for).

CSV schema, header required, UTF-8, no embedded commas in text fields:

    brand,model,length_mm,width_mm,height_mm,powertrain,price,doors,seats

Every data row has exactly these nine fields, and every number is finite.
"""

from __future__ import annotations

import csv
import io
import math
from pathlib import Path
from typing import Iterable, Iterator, NamedTuple

from ._fsio import DATA_DIR, read_utf8
from .boxes import BoxDims, dims_from_mm
from .errors import DuplicateKey, EmptyTable, NotFound, ParseError

POWERTRAINS = ("ICE", "BEV", "PHEV", "HEV", "other")

_COLUMNS = (
    "brand",
    "model",
    "length_mm",
    "width_mm",
    "height_mm",
    "powertrain",
    "price",
    "doors",
    "seats",
)


# A record with checks, in the form the comment above `boxes.OrientedBox2D` gives.
class _VehicleRecordFields(NamedTuple):
    brand: str
    model: str
    length_mm: float
    width_mm: float
    height_mm: float
    powertrain: str
    price: float
    doors: int
    seats: int


class VehicleRecord(_VehicleRecordFields):
    __slots__ = ()

    def __new__(
        cls, brand: str, model: str, length_mm: float, width_mm: float, height_mm: float,
        powertrain: str, price: float, doors: int, seats: int,
    ) -> "VehicleRecord":
        if not brand.strip() or not model.strip():
            raise ValueError("brand and model must be non-empty")
        if not (
            0 < length_mm < math.inf and 0 < width_mm < math.inf and 0 < height_mm < math.inf
        ):
            raise ValueError(
                f"dimensions must be positive and finite, got "
                f"({length_mm}, {width_mm}, {height_mm})"
            )
        if length_mm < width_mm:
            raise ValueError(f"length_mm ({length_mm}) must be >= width_mm ({width_mm})")
        if powertrain not in POWERTRAINS:
            raise ValueError(f"powertrain must be one of {POWERTRAINS}, got {powertrain!r}")
        if not 0 <= price < math.inf:
            raise ValueError(f"price must be finite and >= 0, got {price}")
        if doors < 1 or seats < 1:
            raise ValueError(f"doors and seats must be >= 1, got {doors}/{seats}")
        return tuple.__new__(
            cls, (brand, model, length_mm, width_mm, height_mm, powertrain, price, doors, seats)
        )

    @property
    def dims_mm(self) -> tuple[float, float, float]:
        return (self.length_mm, self.width_mm, self.height_mm)

    @property
    def dims_m(self) -> BoxDims:
        return dims_from_mm(self.length_mm, self.width_mm, self.height_mm)

    @property
    def key(self) -> tuple[str, str]:
        return (self.brand.casefold(), self.model.casefold())


class VehicleTable:
    """Immutable collection of records, sorted by (brand, model)."""

    __slots__ = ("records", "_by_key", "_dims")

    def __init__(self, records: tuple[VehicleRecord, ...]) -> None:
        # Each record by its casefolded key, for `lookup`; the first of a
        # repeated key wins, as a scan in table order finds it.
        by_key: dict[tuple[str, str], VehicleRecord] = {}
        for record in records:
            by_key.setdefault(record.key, record)
        object.__setattr__(self, "records", records)
        object.__setattr__(self, "_by_key", by_key)
        # Each record behind its dimensions, for `match_dimensions`.
        object.__setattr__(
            self, "_dims", tuple((r.length_mm, r.width_mm, r.height_mm, r) for r in records)
        )

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __repr__(self) -> str:
        return f"VehicleTable(records={self.records!r})"

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.records == other.records

    def __hash__(self) -> int:
        return hash(self.records)

    @classmethod
    def from_records(cls, records: Iterable[VehicleRecord]) -> "VehicleTable":
        ordered = sorted(records, key=lambda r: (*r.key, r.brand, r.model))
        seen: set[tuple[str, str]] = set()
        for record in ordered:
            if record.key in seen:
                raise DuplicateKey(f"duplicate brand+model: {record.brand} {record.model}")
            seen.add(record.key)
        return cls(tuple(ordered))

    def __len__(self) -> int:
        return len(self.records)

    def __iter__(self) -> Iterator[VehicleRecord]:
        return iter(self.records)


def _normalize_powertrain(raw: str) -> str:
    value = raw.strip()
    if value.upper() in POWERTRAINS:
        return value.upper()
    if value.lower() == "other":
        return "other"
    raise ValueError(f"unknown powertrain {raw!r}")


def packaged_table_path() -> Path:
    """Path of the vehicle catalog shipped with the package."""
    return DATA_DIR / "vehicles.csv"


def load_table(path: str | Path) -> VehicleTable:
    """Load and validate a vehicle CSV; see module docstring for the schema.

    Raises ParseError (naming the file, and the 1-based row for a bad
    row), DuplicateKey, or EmptyTable.
    """
    path = Path(path)
    reader = csv.DictReader(io.StringIO(read_utf8(path), newline=""))
    records = []
    row_num = 1  # the row being read: the header, then each data row
    try:
        if reader.fieldnames is None:
            raise EmptyTable(f"{path}: no header row")
        if set(reader.fieldnames) != set(_COLUMNS):
            raise ParseError(
                f"{path}: header must be {','.join(_COLUMNS)}, "
                f"got {','.join(reader.fieldnames)}"
            )
        if len(reader.fieldnames) != len(_COLUMNS):  # DictReader keeps the last
            repeated = next(
                name for i, name in enumerate(reader.fieldnames)
                if name in reader.fieldnames[:i]
            )
            raise ParseError(f"{path}: header repeats column {repeated!r}")
        row_num = 2
        for row in reader:
            if None in row.values():  # DictReader pads a short row with None
                raise ParseError(f"{path}: row {row_num}: fewer than {len(_COLUMNS)} fields")
            if None in row:  # and files a long row's extra fields under None
                raise ParseError(f"{path}: row {row_num}: more than {len(_COLUMNS)} fields")
            try:
                records.append(
                    VehicleRecord(
                        brand=row["brand"].strip(),
                        model=row["model"].strip(),
                        length_mm=float(row["length_mm"]),
                        width_mm=float(row["width_mm"]),
                        height_mm=float(row["height_mm"]),
                        powertrain=_normalize_powertrain(row["powertrain"]),
                        price=float(row["price"]),
                        doors=int(row["doors"]),
                        seats=int(row["seats"]),
                    )
                )
            except ValueError as exc:
                raise ParseError(f"{path}: row {row_num}: {exc}") from None
            row_num += 1
    except csv.Error as exc:  # e.g. a quoted field over csv.field_size_limit()
        raise ParseError(f"{path}: row {row_num}: {exc}") from None
    if not records:
        raise EmptyTable(f"{path}: no data rows")
    return VehicleTable.from_records(records)


def match_dimensions(
    table: VehicleTable, length_mm: float, width_mm: float, height_mm: float
) -> VehicleRecord:
    """Record with the closest dimensions, Euclidean in millimeter space.

    Exact distance ties resolve to the (brand, model)-lexicographically
    first record; the table's sort order makes that the first minimum seen.
    Raises ValueError unless each query dimension is finite and positive
    and the squared distances to the table stay finite.
    """
    if not table.records:
        raise EmptyTable("cannot match against an empty table")
    query = (length_mm, width_mm, height_mm)
    if not (0 < length_mm < math.inf and 0 < width_mm < math.inf and 0 < height_mm < math.inf):
        raise ValueError(f"query dims must be positive and finite, got {query}")
    best: VehicleRecord | None = None
    best_d2 = inf = math.inf
    for length, width, height, record in table._dims:
        dl, dw, dh = length - length_mm, width - width_mm, height - height_mm
        d2 = dl * dl + dw * dw + dh * dh
        if d2 < best_d2:
            best, best_d2 = record, d2
        elif d2 == inf:  # a square or the sum overflowed, which `**` would raise
            best = None
            break
    if best is None:
        raise ValueError(f"query dims {query} are too large to compare with the table")
    return best


def lookup(table: VehicleTable, brand: str, model: str) -> VehicleRecord:
    """Exact brand+model lookup, case-insensitive with whitespace trimming."""
    record = table._by_key.get((brand.strip().casefold(), model.strip().casefold()))
    if record is not None:
        return record
    raise NotFound(f"no table entry for {brand.strip()!r} {model.strip()!r}")


def min_pairwise_gap(table: VehicleTable) -> float:
    """Smallest Euclidean distance (mm) between any two records' dimensions.

    Queries within half this gap of a record's dims always match that
    record; infinity for single-record tables.
    """
    if not table.records:
        raise EmptyTable("empty table has no dimension gaps")
    gap = math.inf
    dims = [r.dims_mm for r in table.records]
    for i in range(len(dims)):
        for j in range(i + 1, len(dims)):
            d = math.dist(dims[i], dims[j])
            gap = min(gap, d)
    return gap
