"""Directed-graph statistics for thresholded asset networks.

Shortest-path convention: the summary measures cap every length above
three, and every unreachable pair, at four. Degenerate statistics (zero
variance, no qualifying triples) come back as NaN so downstream
Monte-Carlo code can skip and count them.

One kernel, `measure_vector`, computes all six statistics from one float
cast of the adjacency and one walk-count product ``w2 = a @ a``, which
the distance counts, the reciprocal-edge counts and transitivity share.
Products and sums of 0/1 matrices hold exact integers in float64, so
sharing or reordering them changes no bit of any statistic. Distances
are counted with ``np.count_nonzero`` on reachability masks, built in
place, and assortativity reads the endpoint degrees without listing the
edges. The capped measures on their own (``modified_aspl_adj``, which
knockout traces call once per surviving set, and ``fraction_spl_le``)
cast to float32 instead: a reach mask only asks whether a walk count is
positive, and a sum of nonnegative integer products is positive exactly
when one of its terms is, while float32 rounding never turns a sum >= 1
into 0. So every mask, count and result is the same as in float64.
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


def _capped_measures(adj: np.ndarray, a: np.ndarray | None = None,
                     w2: np.ndarray | None = None) -> tuple[float, float, float]:
    """Fractions of ordered pairs within distance 2 and 3, and the capped ASPL.

    ``a`` is ``adj`` (False diagonal) as float, float32 when not given,
    and ``w2`` is ``a @ a``. A pair is within distance k exactly when a
    walk of length <= k exists, so the walk counts of lengths 1 to 3 give
    the pairs at each distance. A node on a 2- or 3-cycle reaches itself;
    that diagonal cell is taken off. A graph of fewer than two nodes has
    no ordered pair: nothing is within reach, so both fractions are 0.0
    and the ASPL is the cap, the convention knockout simulations rely on.
    """
    n = adj.shape[0]
    if n <= 1:
        return 0.0, 0.0, SPL_CAP
    if a is None:
        a = adj.astype(np.float32)
        w2 = a @ a
    le2 = w2 > 0
    le2 |= adj
    le3 = w2 @ a > 0
    le3 |= le2
    c1 = np.count_nonzero(adj)
    c2 = np.count_nonzero(le2) - np.count_nonzero(np.diagonal(le2)) - c1
    c3 = np.count_nonzero(le3) - np.count_nonzero(np.diagonal(le3)) - c1 - c2
    pairs = n * (n - 1)
    aspl = (c1 + 2 * c2 + 3 * c3 + SPL_CAP * (pairs - c1 - c2 - c3)) / pairs
    return (c1 + c2) / pairs, (c1 + c2 + c3) / pairs, aspl


def modified_aspl_adj(adj: np.ndarray) -> float:
    """Capped mean shortest path length on a boolean adjacency matrix
    with a False diagonal, as every ``BinaryNetwork`` has."""
    return _capped_measures(adj)[2]


def modified_aspl(net: BinaryNetwork) -> float:
    """Mean over ordered pairs of SPL with lengths > 3 and unreachable pairs as 4."""
    return modified_aspl_adj(net.adj)


def fraction_spl_le(net: BinaryNetwork, k: int) -> float:
    """Fraction of ordered pairs i != j at finite distance <= k, k in {2, 3}."""
    if k not in (2, 3):
        raise ValueError(f"k must be 2 or 3, got {k!r}")
    return _capped_measures(net.adj)[k - 2]


def measure_vector(net: BinaryNetwork) -> MeasureVector:
    """All six statistics for one network of at least 3 nodes."""
    if net.n < 3:
        raise ValueError("clustering needs at least 3 nodes")
    adj = net.adj
    a = adj.astype(float)
    w2 = a @ a
    out_deg = a.sum(axis=1)
    in_deg = a.sum(axis=0)

    # Endpoint degrees of the edges in row-major order, as np.nonzero lists them.
    x = np.repeat(out_deg, out_deg.astype(np.intp))
    y = np.broadcast_to(in_deg, adj.shape)[adj]
    assortativity = math.nan
    if x.size and np.ptp(x) > 0 and np.ptp(y) > 0:
        xc = x - x.mean()
        yc = y - y.mean()
        assortativity = float((xc * yc).sum() / math.sqrt((xc * xc).sum() * (yc * yc).sum()))

    sym = a + a.T
    triangles = ((sym @ sym) * sym).sum(axis=1) / 2.0
    d_total = in_deg + out_deg
    denom = d_total * (d_total - 1.0) - 2.0 * np.diagonal(w2)
    clustering = float(np.divide(triangles, denom, out=np.zeros(net.n), where=denom > 0).mean())

    two_paths = float(w2.sum() - np.trace(w2))
    transitivity = float((w2 * a).sum()) / two_paths if two_paths else math.nan

    return MeasureVector(*_capped_measures(adj, a, w2), assortativity, clustering, transitivity)
