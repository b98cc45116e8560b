"""Directed-graph statistics for thresholded asset networks.

Shortest-path convention: the summary measures cap every length above
three, and every unreachable pair, at four. Degenerate statistics (zero
variance, no qualifying triples) come back as NaN so downstream
Monte-Carlo code can skip and count them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .netbuild import BinaryNetwork

SPL_CAP = 4.0

MEASURE_NAMES = (
    "frac_spl_le2",
    "frac_spl_le3",
    "modified_aspl",
    "assortativity",
    "avg_clustering",
    "edge_transitivity",
)


@dataclass(frozen=True)
class MeasureVector:
    """The six per-network statistics tracked by the comparison pipeline."""

    frac_spl_le2: float
    frac_spl_le3: float
    modified_aspl: float
    assortativity: float
    avg_clustering: float
    edge_transitivity: float

    def as_array(self) -> np.ndarray:
        return np.array([getattr(self, name) for name in MEASURE_NAMES])


def _distance_counts(adj: np.ndarray) -> tuple[int, int, int, int]:
    """Ordered-pair counts at distance exactly 1, 2 and 3, plus the pair total.

    A pair is within distance k exactly when a walk of length <= k exists,
    so three boolean walk-count products suffice for the capped measures.
    """
    n = adj.shape[0]
    a = adj.astype(float)
    w2 = a @ a
    w3 = w2 @ a
    off = ~np.eye(n, dtype=bool)
    le1 = adj & off
    le2 = (le1 | (w2 > 0)) & off
    le3 = (le2 | (w3 > 0)) & off
    c1 = int(le1.sum())
    c2 = int(le2.sum()) - c1
    c3 = int(le3.sum()) - c1 - c2
    return c1, c2, c3, n * (n - 1)


def _capped_measures(adj: np.ndarray) -> tuple[float, float, float]:
    """Fractions of ordered pairs within distance 2 and 3, and the capped ASPL."""
    c1, c2, c3, pairs = _distance_counts(adj)
    aspl = (c1 + 2 * c2 + 3 * c3 + SPL_CAP * (pairs - c1 - c2 - c3)) / pairs
    return (c1 + c2) / pairs, (c1 + c2 + c3) / pairs, aspl


def modified_aspl_adj(adj: np.ndarray) -> float:
    """Capped mean shortest path length on a raw adjacency matrix.

    Graphs with fewer than two nodes have no ordered pairs and return the
    cap value, the convention knockout simulations rely on.
    """
    if adj.shape[0] <= 1:
        return SPL_CAP
    return _capped_measures(adj)[2]


def modified_aspl(net: BinaryNetwork) -> float:
    """Mean over ordered pairs of SPL with lengths > 3 and unreachable pairs as 4."""
    return modified_aspl_adj(net.adj)


def fraction_spl_le(net: BinaryNetwork, k: int) -> float:
    """Fraction of ordered pairs i != j at finite distance <= k, k in {2, 3}."""
    if k not in (2, 3):
        raise ValueError(f"k must be 2 or 3, got {k!r}")
    return _capped_measures(net.adj)[k - 2]


def assortativity(net: BinaryNetwork) -> float:
    """Degree correlation over directed edges: the source's out-degree
    against the target's in-degree. Returns NaN when either endpoint
    sequence has zero variance (or there are no edges).
    """
    srcs, dsts = np.nonzero(net.adj)
    if srcs.size == 0:
        return math.nan
    out_deg = net.adj.sum(axis=1)
    in_deg = net.adj.sum(axis=0)
    x = out_deg[srcs].astype(float)
    y = in_deg[dsts].astype(float)
    if np.ptp(x) == 0 or np.ptp(y) == 0:
        return math.nan
    xc = x - x.mean()
    yc = y - y.mean()
    return float((xc * yc).sum() / math.sqrt((xc * xc).sum() * (yc * yc).sum()))


def avg_clustering(net: BinaryNetwork) -> float:
    """Mean directed clustering coefficient.

    Per node, triangles over every edge-direction pattern (half the
    closed three-walks of the symmetrized graph) normalized by
    d_tot*(d_tot-1) - 2*d_bidir; nodes with no admissible pair of
    neighbours contribute 0.
    """
    if net.n < 3:
        raise ValueError("clustering needs at least 3 nodes")
    a = net.adj.astype(float)
    sym = a + a.T
    triangles = np.diagonal(sym @ sym @ sym) / 2.0
    d_total = a.sum(axis=0) + a.sum(axis=1)
    d_bidir = np.diagonal(a @ a)
    denom = d_total * (d_total - 1.0) - 2.0 * d_bidir
    coeffs = np.divide(triangles, denom, out=np.zeros(net.n), where=denom > 0)
    return float(coeffs.mean())


def edge_transitivity(net: BinaryNetwork) -> float:
    """Pr(i->k | i->j and j->k) over ordered distinct triples.

    Counted on direct edges: the number of two-step triples that close
    with a direct edge divided by all two-step triples. NaN when no
    two-step triple exists.
    """
    a = net.adj.astype(float)
    w2 = a @ a
    two_paths = float(w2.sum() - np.trace(w2))
    if two_paths == 0:
        return math.nan
    closed = float((w2 * a).sum())
    return closed / two_paths


def measure_vector(net: BinaryNetwork) -> MeasureVector:
    """All six statistics for one network."""
    return MeasureVector(
        *_capped_measures(net.adj),
        assortativity(net),
        avg_clustering(net),
        edge_transitivity(net),
    )
