"""Directed-graph statistics for thresholded asset networks.

Shortest-path convention: the summary measures cap every length above
three, and every unreachable pair, at four. Degenerate statistics (zero
variance, no qualifying triples) come back as NaN so downstream
Monte-Carlo code can skip and count them.

Every statistic takes its walk counts from `_walk_counts`: one float32
cast ``a`` of the adjacency and ``w2 = a @ a``, which `measure_vector`
shares among the distance counts, the reciprocal-edge counts and
transitivity. float32 changes no bit. A reach mask only asks whether a
sum of nonnegative integer products is positive, which float32 answers
exactly, and every count read as a value is an integer of at most
8(n - 1), exact for any n below 2**21, summed in a float64 accumulator.
Distances are counted with ``np.count_nonzero`` on reachability masks
built in place, and assortativity lists the edges once, with ``nonzero``.
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
    """The six per-network statistics tracked by the comparison pipeline.

    - ``frac_spl_le2``, ``frac_spl_le3``: the fraction of ordered pairs
      i != j at distance <= 2 and <= 3.
    - ``modified_aspl``: the mean over ordered pairs of the shortest path
      length, with lengths above 3 and unreachable pairs counted as 4.
    - ``assortativity``: the Pearson correlation over directed edges of
      the source's out-degree and the target's in-degree; NaN when there
      is no edge or either endpoint sequence has zero variance.
    - ``avg_clustering``: the mean directed clustering coefficient. Per
      node, the triangles over every edge-direction pattern (half the
      closed three-walks of the symmetrized graph a + a.T) over
      d_tot*(d_tot-1) - 2*d_bidir, where d_bidir counts reciprocated
      edges; a node with no admissible pair of neighbours contributes 0.
    - ``edge_transitivity``: Pr(i->k | i->j and j->k) over ordered
      distinct triples, counted on direct edges: the two-step triples
      closed by a direct edge over all two-step triples; NaN when there
      is none.
    """

    frac_spl_le2: float
    frac_spl_le3: float
    modified_aspl: float
    assortativity: float
    avg_clustering: float
    edge_transitivity: float

    def as_array(self) -> np.ndarray:
        return np.array([getattr(self, name) for name in MEASURE_NAMES])


def _walk_counts(adj: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``adj`` as float32 ``a``, and its 2-walk counts ``a @ a``."""
    a = adj.astype(np.float32)
    return a, a @ a


def _capped_measures(adj: np.ndarray, a: np.ndarray, w2: np.ndarray) -> tuple[float, float, float]:
    """Fractions of ordered pairs within distance 2 and 3, and the capped ASPL.

    ``a, w2`` are the `_walk_counts` of ``adj`` (False diagonal). A pair is
    within distance k exactly when a walk of length <= k exists, so walk
    counts of lengths 1 to 3 give the pairs at each distance; a node on a
    2- or 3-cycle reaches itself, and that diagonal cell is taken off. A
    graph of fewer than two nodes has no ordered pair: both fractions are
    0.0 and the ASPL is the cap, the convention knockout traces rely on.
    """
    n = adj.shape[0]
    if n <= 1:
        return 0.0, 0.0, SPL_CAP
    le2 = w2 > 0
    le2 |= adj
    le3 = w2 @ a > 0
    le3 |= le2
    c1 = np.count_nonzero(adj)
    c2 = np.count_nonzero(le2) - np.count_nonzero(le2.diagonal()) - c1
    c3 = np.count_nonzero(le3) - np.count_nonzero(le3.diagonal()) - c1 - c2
    pairs = n * (n - 1)
    aspl = (c1 + 2 * c2 + 3 * c3 + SPL_CAP * (pairs - c1 - c2 - c3)) / pairs
    return (c1 + c2) / pairs, (c1 + c2 + c3) / pairs, aspl


def modified_aspl_adj(adj: np.ndarray) -> float:
    """Capped mean shortest path length on a boolean adjacency matrix
    with a False diagonal, as every ``BinaryNetwork`` has."""
    return _capped_measures(adj, *_walk_counts(adj))[2]


def modified_aspl(net: BinaryNetwork) -> float:
    """Mean over ordered pairs of SPL with lengths > 3 and unreachable pairs as 4."""
    return modified_aspl_adj(net.adj)


def fraction_spl_le(net: BinaryNetwork, k: int) -> float:
    """Fraction of ordered pairs i != j at finite distance <= k, k in {2, 3}."""
    if k not in (2, 3):
        raise ValueError(f"k must be 2 or 3, got {k!r}")
    return _capped_measures(net.adj, *_walk_counts(net.adj))[k - 2]


def measure_vector(net: BinaryNetwork) -> MeasureVector:
    """All six statistics for one network of at least 3 nodes.

    Every sum of walk counts runs in a float64 accumulator (``dtype=float``).
    Sums and means call ``np.add.reduce`` and the array methods directly,
    skipping numpy's Python-level wrappers: the same reductions in the same
    order, so the same bits.
    """
    if net.n < 3:
        raise ValueError("clustering needs at least 3 nodes")
    adj = net.adj
    a, w2 = _walk_counts(adj)
    out_deg = np.add.reduce(a, axis=1, dtype=float)
    in_deg = np.add.reduce(a, axis=0, dtype=float)

    srcs, dsts = adj.nonzero()
    x, y = out_deg[srcs], in_deg[dsts]
    assortativity = math.nan
    if x.size:
        xc = x - np.add.reduce(x) / x.size
        yc = y - np.add.reduce(y) / y.size
        if xc.any() and yc.any():
            assortativity = float(np.add.reduce(xc * yc) / math.sqrt(np.add.reduce(xc * xc) * np.add.reduce(yc * yc)))

    sym = a + a.T
    triangles = np.add.reduce((sym @ sym) * sym, axis=1, dtype=float) / 2.0
    d_total = in_deg + out_deg
    denom = d_total * (d_total - 1.0) - 2.0 * w2.diagonal()
    clustering = float(np.add.reduce(np.divide(triangles, denom, out=np.zeros(net.n), where=denom > 0)) / net.n)

    two_paths = float(np.add.reduce(w2, axis=None, dtype=float) - w2.trace(dtype=float))
    transitivity = float(np.add.reduce(w2 * a, axis=None, dtype=float)) / two_paths if two_paths else math.nan

    return MeasureVector(*_capped_measures(adj, a, w2), assortativity, clustering, transitivity)
