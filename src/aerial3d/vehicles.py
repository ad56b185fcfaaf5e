"""Vehicle attribute table: CSV loading, dimension matching, exact lookup.

The table is the knowledge base behind zero-shot recognition (measure a
vehicle's metric dimensions, find the closest catalog entry) and retrieval
(look a model up by name to obtain the dimensions to search for).

CSV schema, header required, UTF-8, no embedded commas in text fields:

    brand,model,length_mm,width_mm,height_mm,powertrain,price,doors,seats
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Iterator

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


@dataclass(frozen=True)
class VehicleRecord:
    brand: str
    model: str
    length_mm: float
    width_mm: float
    height_mm: float
    powertrain: str
    price: float
    doors: int
    seats: int

    def __post_init__(self) -> None:
        if not self.brand.strip() or not self.model.strip():
            raise ValueError("brand and model must be non-empty")
        if not (self.length_mm > 0 and self.width_mm > 0 and self.height_mm > 0):
            raise ValueError(
                f"dimensions must be positive, got "
                f"({self.length_mm}, {self.width_mm}, {self.height_mm})"
            )
        if self.length_mm < self.width_mm:
            raise ValueError(
                f"length_mm ({self.length_mm}) must be >= width_mm ({self.width_mm})"
            )
        if self.powertrain not in POWERTRAINS:
            raise ValueError(
                f"powertrain must be one of {POWERTRAINS}, got {self.powertrain!r}"
            )
        if self.price < 0:
            raise ValueError(f"price must be >= 0, got {self.price}")
        if self.doors < 1 or self.seats < 1:
            raise ValueError(
                f"doors and seats must be >= 1, got {self.doors}/{self.seats}"
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


@dataclass(frozen=True)
class VehicleTable:
    """Immutable collection of records, sorted by (brand, model)."""

    records: tuple[VehicleRecord, ...]

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
    """
    if not table.records:
        raise EmptyTable("cannot match against an empty table")
    if not (length_mm > 0 and width_mm > 0 and height_mm > 0):
        raise ValueError(
            f"query dims must be positive, got ({length_mm}, {width_mm}, {height_mm})"
        )
    best: VehicleRecord | None = None
    best_d2 = math.inf
    for record in table.records:
        d2 = (
            (record.length_mm - length_mm) ** 2
            + (record.width_mm - width_mm) ** 2
            + (record.height_mm - height_mm) ** 2
        )
        if d2 < best_d2:
            best, best_d2 = record, d2
    assert best is not None
    return best


def lookup(table: VehicleTable, brand: str, model: str) -> VehicleRecord:
    """Exact brand+model lookup, case-insensitive with whitespace trimming."""
    key = (brand.strip().casefold(), model.strip().casefold())
    for record in table.records:
        if record.key == key:
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
