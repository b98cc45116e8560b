"""Binary directed networks derived from asset slices.

Two thresholding rules are supported. Rule A links holder i to issuer j
when the position s_ij strictly exceeds i's average per-counterparty
exposure, sum_k s_ik / (n - 1). Rule B links i to j when s_ij / gdp_i
strictly exceeds a fraction t. Ties never produce an edge.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .ingest import AssetSlice

# Cross-year average GDP-normalized exposure; the stock rule-B threshold.
DEFAULT_GDP_THRESHOLD = 0.0417

# Exposure-to-row-average ratios that bump an exported edge one class up.
WEIGHT_CLASS_BOUNDS = (2.0, 4.0, 8.0, 16.0)

RULE_NAMES = ("A", "B")


@dataclass(frozen=True)
class BinaryNetwork:
    """Unweighted directed graph over labelled countries.

    ``adj[i, j]`` is True exactly when there is an edge from
    ``countries[i]`` to ``countries[j]``. The diagonal is always False.
    """

    countries: tuple[str, ...]
    adj: np.ndarray
    rule: str
    source_year: int | None = None

    def __post_init__(self) -> None:
        adj = np.array(self.adj, dtype=bool)
        n = len(self.countries)
        if adj.shape != (n, n):
            raise ValueError(f"adjacency shape {adj.shape} does not match {n} countries")
        if np.any(np.diagonal(adj)):
            raise ValueError("adjacency has self-loops")
        adj.flags.writeable = False
        object.__setattr__(self, "countries", tuple(self.countries))
        object.__setattr__(self, "adj", adj)

    @property
    def n(self) -> int:
        return len(self.countries)

    @property
    def num_edges(self) -> int:
        return int(self.adj.sum())

    def out_degrees(self) -> np.ndarray:
        return self.adj.sum(axis=1).astype(int)

    def in_degrees(self) -> np.ndarray:
        return self.adj.sum(axis=0).astype(int)

    def edges(self) -> list[tuple[str, str]]:
        """Edges as (source, target) code pairs, lexicographically sorted."""
        rows, cols = np.nonzero(self.adj)
        return sorted((self.countries[i], self.countries[j]) for i, j in zip(rows, cols))


@dataclass(frozen=True)
class ThresholdRule:
    """Network construction rule ``A`` or ``B``; ``t`` is rule B's GDP fraction."""

    name: str
    t: float = DEFAULT_GDP_THRESHOLD

    def __post_init__(self) -> None:
        if self.name not in RULE_NAMES:
            raise ValueError(f"unknown rule name {self.name!r}; expected A or B")
        if self.name == "B" and not 0 < self.t < math.inf:
            raise ValueError("rule B needs a finite threshold t > 0")

    @property
    def label(self) -> str:
        if self.name == "A":
            return "A"
        return f"B(t={self.t:g})"

    @classmethod
    def from_name(cls, name: str, t: float = DEFAULT_GDP_THRESHOLD) -> "ThresholdRule":
        """``ThresholdRule(name, t)``, kept under the name that perfbench/record.py calls."""
        return cls(name, t)

    def apply(self, slice_: AssetSlice) -> BinaryNetwork:
        """Rule A: edge i->j when s_ij strictly exceeds row i's mean exposure.
        Rule B: edge i->j when s_ij / gdp_i strictly exceeds t."""
        if self.name == "A":
            row_mean = slice_.assets.sum(axis=1) / (slice_.n - 1)
            adj = slice_.assets > row_mean[:, None]
        else:
            adj = slice_.assets / slice_.gdp[:, None] > self.t
        np.fill_diagonal(adj, False)
        return BinaryNetwork(slice_.countries, adj, self.label, slice_.year)


def average_gdp_exposure(slice_: AssetSlice) -> float:
    """Mean of s_ij / gdp_i over ordered pairs i != j, zero positions
    included; averaged across years it gives the stock rule-B threshold."""
    ratios = slice_.assets / slice_.gdp[:, None]
    off = ~np.eye(slice_.n, dtype=bool)
    return float(ratios[off].mean())


def weight_class(exposure: float, row_average: float) -> int:
    """Exposure class 1..5 relative to the holder's average exposure.

    Class k covers ratios in [2^(k-1), 2^k) for k in 1..4 and class 5 is
    everything from 16x upward; ratios below 1 (possible under rule B)
    fall into class 1.
    """
    if row_average <= 0:
        return 1
    ratio = exposure / row_average
    return 1 + sum(ratio >= bound for bound in WEIGHT_CLASS_BOUNDS)


def weighted_edges(net: BinaryNetwork, slice_: AssetSlice) -> list[tuple[str, str, int]]:
    """The network's edges as (holder, issuer, weight class) rows, sorted
    lexicographically by (holder, issuer) code.

    Each edge's class is its exposure relative to the holder's average
    per-counterparty exposure sum_k s_ik / (n - 1), the same average as
    rule A; see ``weight_class`` for the class bounds.
    """
    if net.countries != slice_.countries:
        raise ValueError("network and slice country lists differ")
    row_avg = slice_.assets.sum(axis=1) / (slice_.n - 1)
    index = {code: i for i, code in enumerate(net.countries)}
    return [
        (holder, issuer, weight_class(slice_.assets[index[holder], index[issuer]], row_avg[index[holder]]))
        for holder, issuer in net.edges()
    ]
