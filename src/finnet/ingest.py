"""Bilateral asset and GDP panel ingestion.

Input files are UTF-8 CSV, with or without a byte-order mark, under the
headers ``year,holder,issuer,value_musd`` and ``year,country,gdp_musd``.
All monetary values are millions of current USD; GDP given in raw USD must
be pre-converted by the caller. Missing (holder, issuer) pairs are treated
as zero holdings (the reporting floor left-censors small positions to zero).
A panel holds numpy columns in file order, each country code an int32 index
into one sorted code table. Tables are split and converted BLOCK_LINES rows
at a time; when a check fails, the rows are read again one by one to name
the first bad line.
"""

from __future__ import annotations

import csv
import io
import math
import sys
from dataclasses import dataclass
from typing import IO

import numpy as np

ASSET_HEADER = ("year", "holder", "issuer", "value_musd")
GDP_HEADER = ("year", "country", "gdp_musd")
_CSV_SPECIAL = frozenset(',"\r\n')
# Rows split and converted at a time; splitting the whole file at once holds every field.
BLOCK_LINES = 4096


class DataError(ValueError):
    """Malformed or inconsistent input data."""


def _freeze(record, labels: str, **dtypes) -> None:
    """Store a frozen record's ``labels`` field as a tuple and each named
    array as a read-only copy of the given dtype."""
    object.__setattr__(record, labels, tuple(getattr(record, labels)))
    for name, dtype in dtypes.items():
        array = np.array(getattr(record, name), dtype=dtype)
        array.flags.writeable = False
        object.__setattr__(record, name, array)


def _validate(codes, years, indices, amount, rules) -> None:
    """Raise DataError unless the columns have one length, the indices point
    into a sorted table of distinct nonempty codes, none beginning with '#'
    or holding a comma, a double quote or a line break, no rule's mask flags
    a row and no (year, *codes) key repeats; a message names the first row at fault."""
    if list(codes) != sorted(set(codes)) or "" in codes:
        raise DataError("panel codes must be nonempty, sorted and distinct")
    if any(code.startswith("#") or not _CSV_SPECIAL.isdisjoint(code) for code in codes):
        raise DataError("panel codes must not begin with '#' or hold a comma, a double quote or a line break")
    if any(len(column) != len(years) for column in (*indices, amount)):
        raise DataError("panel columns differ in length")
    if any(np.any((column < 0) | (column >= len(codes))) for column in indices):
        raise DataError("panel code index out of range")

    def record(k: int) -> str:
        return f"({','.join([str(years[k]), *(codes[column[k]] for column in indices)])})"

    for mask, message in rules:
        if mask.any():
            k = int(np.argmax(mask))
            raise DataError(message.format(value=float(amount[k]), record=record(k)))
    order = np.lexsort((*indices[::-1], years))
    repeat = np.ones(max(len(years) - 1, 0), dtype=bool)
    for column in (years, *indices):
        repeat &= np.diff(column[order]) == 0
    if repeat.any():
        raise DataError(f"repeated record {record(order[np.argmax(repeat)])}")


@dataclass(frozen=True)
class AssetPanel:
    """Bilateral asset holdings in file order, in millions of USD: row k is
    ``codes[holder[k]]``'s position issued by ``codes[issuer[k]]`` in
    ``years[k]``, worth ``values[k]``."""

    codes: tuple[str, ...]
    years: np.ndarray
    holder: np.ndarray
    issuer: np.ndarray
    values: np.ndarray

    def __post_init__(self) -> None:
        _freeze(self, "codes", years=np.int64, holder=np.int32, issuer=np.int32, values=np.float64)
        v = self.values
        _validate(self.codes, self.years, (self.holder, self.issuer), v,
                  [(self.holder == self.issuer, "self-holding record {record}"),
                   ((v < 0) | ~np.isfinite(v), "bad value {value!r} for {record}")])

    def __len__(self) -> int:
        return len(self.years)


@dataclass(frozen=True)
class GdpPanel:
    """GDP in file order, in millions of USD: row k is ``codes[country[k]]``'s
    GDP ``gdp[k]`` in ``years[k]``."""

    codes: tuple[str, ...]
    years: np.ndarray
    country: np.ndarray
    gdp: np.ndarray

    def __post_init__(self) -> None:
        _freeze(self, "codes", years=np.int64, country=np.int32, gdp=np.float64)
        g = self.gdp
        _validate(self.codes, self.years, (self.country,), g,
                  [(~(g > 0) | ~np.isfinite(g), "nonpositive gdp {value!r} for {record}")])


@dataclass(frozen=True)
class AssetSlice:
    """One year's self-contained core network.

    ``assets[i, j]`` is holder ``countries[i]``'s position issued by
    ``countries[j]``. ``coverage`` is the share of the holders' total
    reported external assets captured inside the core subset; it is
    reported, never enforced.
    """

    year: int
    countries: tuple[str, ...]
    assets: np.ndarray
    gdp: np.ndarray
    coverage: float

    def __post_init__(self) -> None:
        _freeze(self, "countries", assets=np.float64, gdp=np.float64)
        n = len(self.countries)
        if n < 2:
            raise DataError("a slice needs at least 2 countries")
        if self.assets.shape != (n, n):
            raise DataError(f"asset matrix shape {self.assets.shape} does not match {n} countries")
        if self.gdp.shape != (n,):
            raise DataError(f"gdp vector shape {self.gdp.shape} does not match {n} countries")
        if np.any(np.diagonal(self.assets) != 0.0):
            raise DataError("asset matrix has nonzero diagonal")
        if np.any(self.assets < 0) or not np.all(np.isfinite(self.assets)):
            raise DataError("asset values must be finite and nonnegative")
        if np.any(self.gdp <= 0) or not np.all(np.isfinite(self.gdp)):
            raise DataError("gdp values must be finite and positive")
        if not 0.0 <= self.coverage <= 1.0:
            raise DataError(f"coverage {self.coverage} outside [0, 1]")

    @property
    def n(self) -> int:
        return len(self.countries)

    def index(self, code: str) -> int:
        try:
            return self.countries.index(code)
        except ValueError:
            raise KeyError(f"unknown country code {code!r}") from None


def _read_text(stream: IO[bytes] | IO[str] | bytes | str) -> str:
    data = stream if isinstance(stream, (bytes, str)) else stream.read()
    if isinstance(data, bytes):
        try:
            data = data.decode("utf-8")
        except UnicodeDecodeError as exc:
            line = data.count(b"\n", 0, exc.start) + 1
            raise DataError(f"line {line}: byte {data[exc.start]:#04x} is not UTF-8") from None
    return data.removeprefix("\ufeff")


def _columns(lines: list[str], header: tuple[str, ...]) -> tuple:
    """A table's sorted code table, year column, one index column per code
    field and amount column, from its lines, BLOCK_LINES rows at a time.
    Raises ValueError or OverflowError when some check fails."""
    width, stride = len(header), len(header) + 1
    if tuple(field.strip() for field in lines[0].split(",")) != header:
        raise ValueError("unknown or missing header")
    lines = list(filter(None, lines))
    # Years and codes are interned as read; each distinct one is converted once.
    seen: tuple[dict[str, int], dict[str, int]] = ({}, {})
    parts = [[np.empty(0, np.int32)] for _ in range(width - 1)] + [[np.empty(0)]]
    for start in range(1, len(lines), BLOCK_LINES):
        rows = lines[start:start + BLOCK_LINES]
        block = ",\n,".join(rows)
        fields = block.split(",")
        fields.append("\n")
        # A row with the wrong field count changes the block's count or moves
        # some row's "\n" field into a column, where it is no year or amount
        # and strips to an empty code, which a panel rejects.
        if len(fields) != stride * len(rows):
            raise ValueError("a row has the wrong field count")
        for k in range(width - 1):
            table, column = seen[k > 0], fields[k::stride]
            for raw in set(column).difference(table):
                table[raw] = len(table)
            parts[k].append(np.fromiter(map(table.__getitem__, column), np.int32))
        amounts = fields[width - 1::stride]
        # float() skips the whitespace str.strip() does, except \x1c-\x1f.
        if any(c in block for c in "\x1c\x1d\x1e\x1f"):
            amounts = map(str.strip, amounts)
        parts[-1].append(np.fromiter(map(float, amounts), np.float64))
    year_of = np.array([int(raw.strip()) for raw in seen[0]], dtype=np.int64)
    stripped = [code.strip() for code in seen[1]]
    codes = sorted(set(stripped))
    rank = {code: k for k, code in enumerate(codes)}
    code_of = np.array([rank[code] for code in stripped], dtype=np.int32)
    years, *indices, amount = (np.concatenate(part) for part in parts)
    return tuple(codes), year_of[years], *(code_of[column] for column in indices), amount


def _row_key(lineno: int, row: list[str]) -> tuple:
    """The key of one stripped data row, or the DataError of its first fault."""
    year_s, *codes, amount_s = row
    try:
        year = int(year_s)
    except ValueError:
        raise DataError(f"line {lineno}: malformed year {year_s!r}") from None
    if not -2**63 <= year < 2**63:
        raise DataError(f"line {lineno}: year {year_s!r} out of range")
    if not all(codes):
        raise DataError(f"line {lineno}: empty country code")
    for code in codes:
        # The outputs write their metadata as lines that begin with '#'.
        if code.startswith("#"):
            raise DataError(f"line {lineno}: country code {code!r} begins with '#'")
    if len(codes) == 2 and codes[0] == codes[1]:
        raise DataError(f"line {lineno}: self-holding {codes[0]}->{codes[1]} not allowed")
    what, fault = ("value", "negative") if len(codes) == 2 else ("gdp", "nonpositive")
    try:
        amount = float(amount_s)
    except ValueError:
        raise DataError(f"line {lineno}: malformed {what} {amount_s!r}") from None
    if not math.isfinite(amount):
        raise DataError(f"line {lineno}: non-finite {what} {amount_s!r}")
    if amount < 0 or (amount == 0 and what == "gdp"):
        raise DataError(f"line {lineno}: {fault} {what} {amount_s!r}")
    return (year, *codes)


def _checked_lines(text: str, header: tuple[str, ...]) -> list[str]:
    """Read the rows one by one as csv.reader does and raise the DataError of
    the first bad line, counting blank lines; else return the rows as plain
    comma-joined lines."""
    reader = csv.reader(io.StringIO(text))
    seen: set[tuple] = set()
    lineno = 0
    try:
        first = next(reader, None)
        if first is None:
            raise DataError(f"missing header; expected {','.join(header)}")
        if tuple(field.strip() for field in first) != header:
            raise DataError(f"unknown column header {','.join(first)!r}; expected {','.join(header)}")
        lines = [",".join(first)]
        lineno = 1
        for lineno, row in enumerate(reader, start=2):
            lines.append(",".join(row))
            if not row:
                continue
            if len(row) != len(header):
                raise DataError(f"line {lineno}: expected {len(header)} fields, got {len(row)}")
            # The outputs write codes as bare CSV fields; only a quoted field can hold these.
            for field in row:
                if not _CSV_SPECIAL.isdisjoint(field):
                    raise DataError(f"line {lineno}: field {field!r} holds a comma, a double quote or a line break")
            key = _row_key(lineno, [field.strip() for field in row])
            if key in seen:
                raise DataError(f"line {lineno}: duplicate record for ({','.join(map(str, key))})")
            seen.add(key)
    except csv.Error as exc:
        raise DataError(f"line {lineno + 1}: {exc}") from None
    return lines


def _parse(stream: IO[bytes] | IO[str] | bytes | str, header: tuple[str, ...], panel: type):
    text = _read_text(stream)
    plain = text.replace("\r\n", "\n") if "\r" in text else text
    # Quoted fields and stray carriage returns follow the csv module's rules.
    lines = _checked_lines(text, header) if '"' in text or "\r" in plain else plain.split("\n")
    try:
        return panel(*_columns(lines, header))
    except (ValueError, OverflowError):  # DataError is a ValueError
        _checked_lines(text, header)
        raise RuntimeError("the block checks reject a table that every row check accepts") from None


def parse_asset_table(stream: IO[bytes] | IO[str] | bytes | str) -> AssetPanel:
    """Parse a bilateral asset CSV (``year,holder,issuer,value_musd``)."""
    return _parse(stream, ASSET_HEADER, AssetPanel)


def parse_gdp_table(stream: IO[bytes] | IO[str] | bytes | str) -> GdpPanel:
    """Parse a GDP CSV (``year,country,gdp_musd``); GDP must be positive."""
    return _parse(stream, GDP_HEADER, GdpPanel)


def _read_file(path: str, parse):
    if path == "-":
        return parse(sys.stdin.buffer)
    with open(path, "rb") as fh:
        return parse(fh)


def read_asset_file(path: str) -> AssetPanel:
    """Read an asset CSV from a path, or standard input when path is ``-``."""
    return _read_file(path, parse_asset_table)


def read_gdp_file(path: str) -> GdpPanel:
    """Read a GDP CSV from a path, or standard input when path is ``-``."""
    return _read_file(path, parse_gdp_table)


def core_slice(assets: AssetPanel, gdp: GdpPanel, year: int) -> AssetSlice:
    """Restrict one year to reporting holders with GDP data.

    Countries are the year's asset holders that also have a GDP entry,
    sorted lexicographically. Coverage is the in-subset asset total divided
    by those holders' full reported assets for the year (1.0 when the
    holders report nothing at all).
    """
    rows = assets.years == year
    if not rows.any():
        raise DataError(f"year {year} absent from asset panel")
    gdp_rows = np.flatnonzero(gdp.years == year)
    year_gdp = dict(zip([gdp.codes[k] for k in gdp.country[gdp_rows]], gdp.gdp[gdp_rows].tolist()))
    holder, issuer, values = assets.holder[rows], assets.issuer[rows], assets.values[rows]
    # The code table is sorted, so the members come out sorted too.
    reporting = np.flatnonzero(np.bincount(holder, minlength=len(assets.codes))).tolist()
    members = [k for k in reporting if assets.codes[k] in year_gdp]
    if not members and not gdp_rows.size:
        raise DataError(f"year {year} absent from gdp panel")
    if len(members) < 2:
        raise DataError(f"year {year}: fewer than 2 countries with both assets and gdp")
    n = len(members)
    position = np.full(len(assets.codes), -1)
    position[members] = np.arange(n)
    mine = position[holder] >= 0
    i, j, values = position[holder[mine]], position[issuer[mine]], values[mine]
    inside = j >= 0
    matrix = np.zeros((n, n))
    matrix[i[inside], j[inside]] = values[inside]
    # cumsum adds left to right in file order, where np.sum adds pairwise;
    # the order fixes the last bit of coverage.
    holders_total = float(np.cumsum(values)[-1])
    # With nothing outside the core the ratio is exactly 1, whatever the last bits of the two sums.
    coverage = float(matrix.sum()) / holders_total if (values[~inside] > 0).any() else 1.0
    countries = tuple(assets.codes[k] for k in members)
    return AssetSlice(year, countries, matrix, np.array([year_gdp[c] for c in countries]), coverage)
