"""Bilateral asset and GDP panel ingestion.

Input files are CSV with headers ``year,holder,issuer,value_musd`` and
``year,country,gdp_musd``. All monetary values are millions of current USD;
GDP given in raw USD must be pre-converted by the caller. Missing
(holder, issuer) pairs are treated as zero holdings (the reporting floor
left-censors small positions to zero).
"""

from __future__ import annotations

import csv
import io
import math
import sys
from dataclasses import dataclass
from typing import IO, Iterable

import numpy as np

ASSET_HEADER = ("year", "holder", "issuer", "value_musd")
GDP_HEADER = ("year", "country", "gdp_musd")
_CSV_SPECIAL = frozenset(',"\r\n')


class DataError(ValueError):
    """Malformed or inconsistent input data."""


@dataclass(frozen=True)
class AssetPanel:
    """Bilateral asset holdings keyed by (year, holder, issuer), in millions of USD."""

    records: dict[tuple[int, str, str], float]

    def __post_init__(self) -> None:
        for (year, holder, issuer), value in self.records.items():
            if holder == issuer:
                raise DataError(f"self-holding record ({year},{holder},{issuer})")
            if value < 0 or not math.isfinite(value):
                raise DataError(f"bad value {value!r} for ({year},{holder},{issuer})")

    def __len__(self) -> int:
        return len(self.records)


@dataclass(frozen=True)
class GdpPanel:
    """GDP by (year, country), in millions of USD."""

    records: dict[tuple[int, str], float]

    def __post_init__(self) -> None:
        for (year, country), gdp in self.records.items():
            if gdp <= 0 or not math.isfinite(gdp):
                raise DataError(f"nonpositive gdp {gdp!r} for ({year},{country})")


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
        assets = np.array(self.assets, dtype=float)
        gdp = np.array(self.gdp, dtype=float)
        n = len(self.countries)
        if n < 2:
            raise DataError("a slice needs at least 2 countries")
        if assets.shape != (n, n):
            raise DataError(f"asset matrix shape {assets.shape} does not match {n} countries")
        if gdp.shape != (n,):
            raise DataError(f"gdp vector shape {gdp.shape} does not match {n} countries")
        if np.any(np.diagonal(assets) != 0.0):
            raise DataError("asset matrix has nonzero diagonal")
        if np.any(assets < 0) or not np.all(np.isfinite(assets)):
            raise DataError("asset values must be finite and nonnegative")
        if np.any(gdp <= 0) or not np.all(np.isfinite(gdp)):
            raise DataError("gdp values must be finite and positive")
        if not 0.0 <= self.coverage <= 1.0:
            raise DataError(f"coverage {self.coverage} outside [0, 1]")
        assets.flags.writeable = False
        gdp.flags.writeable = False
        object.__setattr__(self, "countries", tuple(self.countries))
        object.__setattr__(self, "assets", assets)
        object.__setattr__(self, "gdp", gdp)

    @property
    def n(self) -> int:
        return len(self.countries)

    def index(self, code: str) -> int:
        try:
            return self.countries.index(code)
        except ValueError:
            raise KeyError(f"unknown country code {code!r}") from None


def _read_text(stream: IO[bytes] | IO[str] | bytes | str) -> str:
    if isinstance(stream, bytes):
        return stream.decode("utf-8")
    if isinstance(stream, str):
        return stream
    data = stream.read()
    if isinstance(data, bytes):
        return data.decode("utf-8")
    return data


def _parse_float(text: str, lineno: int, what: str) -> float:
    try:
        value = float(text)
    except ValueError:
        raise DataError(f"line {lineno}: malformed {what} {text!r}") from None
    if not math.isfinite(value):
        raise DataError(f"line {lineno}: non-finite {what} {text!r}")
    return value


def _parse_year(text: str, lineno: int) -> int:
    try:
        return int(text)
    except ValueError:
        raise DataError(f"line {lineno}: malformed year {text!r}") from None


def _iter_rows(text: str, header: tuple[str, ...]) -> Iterable[tuple[int, list[str]]]:
    reader = csv.reader(io.StringIO(text))
    try:
        first = next(reader)
    except StopIteration:
        raise DataError(f"missing header; expected {','.join(header)}") from None
    if tuple(field.strip() for field in first) != header:
        raise DataError(f"unknown column header {','.join(first)!r}; expected {','.join(header)}")
    # The outputs write codes as bare CSV fields, so no field may hold a
    # comma, a double quote or a line break. Only a quoted field can hold
    # one (the reader rejects a bare line break), so only a text with a
    # double quote needs the field check.
    quoted = '"' in text
    lineno = 1
    try:
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != len(header):
                raise DataError(f"line {lineno}: expected {len(header)} fields, got {len(row)}")
            if quoted:
                for field in row:
                    if not _CSV_SPECIAL.isdisjoint(field):
                        raise DataError(f"line {lineno}: field {field!r} holds a comma, a double quote or a line break")
            yield lineno, [field.strip() for field in row]
    except csv.Error as exc:
        raise DataError(f"line {lineno + 1}: {exc}") from None


def parse_asset_table(stream: IO[bytes] | IO[str] | bytes | str) -> AssetPanel:
    """Parse a bilateral asset CSV (``year,holder,issuer,value_musd``)."""
    records: dict[tuple[int, str, str], float] = {}
    for lineno, (year_s, holder, issuer, value_s) in _iter_rows(_read_text(stream), ASSET_HEADER):
        year = _parse_year(year_s, lineno)
        if not holder or not issuer:
            raise DataError(f"line {lineno}: empty country code")
        if holder == issuer:
            raise DataError(f"line {lineno}: self-holding {holder}->{issuer} not allowed")
        value = _parse_float(value_s, lineno, "value")
        if value < 0:
            raise DataError(f"line {lineno}: negative value {value_s!r}")
        key = (year, holder, issuer)
        if key in records:
            raise DataError(f"line {lineno}: duplicate record for ({year},{holder},{issuer})")
        records[key] = value
    return AssetPanel(records)


def parse_gdp_table(stream: IO[bytes] | IO[str] | bytes | str) -> GdpPanel:
    """Parse a GDP CSV (``year,country,gdp_musd``); GDP must be positive."""
    records: dict[tuple[int, str], float] = {}
    for lineno, (year_s, country, gdp_s) in _iter_rows(_read_text(stream), GDP_HEADER):
        year = _parse_year(year_s, lineno)
        if not country:
            raise DataError(f"line {lineno}: empty country code")
        gdp = _parse_float(gdp_s, lineno, "gdp")
        if gdp <= 0:
            raise DataError(f"line {lineno}: nonpositive gdp {gdp_s!r}")
        key = (year, country)
        if key in records:
            raise DataError(f"line {lineno}: duplicate record for ({year},{country})")
        records[key] = gdp
    return GdpPanel(records)


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
    rows = [(holder, issuer, value) for (y, holder, issuer), value in assets.records.items() if y == year]
    if not rows:
        raise DataError(f"year {year} absent from asset panel")
    countries = sorted({holder for holder, _, _ in rows if (year, holder) in gdp.records})
    if not countries and all(y != year for y, _ in gdp.records):
        raise DataError(f"year {year} absent from gdp panel")
    if len(countries) < 2:
        raise DataError(f"year {year}: fewer than 2 countries with both assets and gdp")
    index = {code: i for i, code in enumerate(countries)}
    n = len(countries)
    matrix = np.zeros((n, n))
    # A sequential sum in record order, which fixes the last bit of coverage.
    holders_total = 0.0
    outside = False
    for holder, issuer, value in rows:
        i = index.get(holder)
        if i is None:
            continue
        holders_total += value
        j = index.get(issuer)
        if j is None:
            outside |= value > 0
        else:
            matrix[i, j] = value
    # With nothing outside the core the ratio is exactly 1, whatever the last bits of the two sums.
    coverage = float(matrix.sum()) / holders_total if outside else 1.0
    gdp_vec = np.array([gdp.records[(year, c)] for c in countries])
    return AssetSlice(year, tuple(countries), matrix, gdp_vec, coverage)
