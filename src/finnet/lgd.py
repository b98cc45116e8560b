"""Loss-given-default cascades over the weighted asset network.

A surviving country defaults when its (haircut-scaled) exposure to the
defaulted set strictly exceeds both a fraction d1 of its total external
investment and a fraction d2 of its GDP. Rounds update synchronously;
the portfolio denominator stays fixed at its initial value. Both
inequalities are strict, so at d1 = d2 = 0 any positive exposure to the
defaulted set triggers default.

One batched kernel, `cascade_rounds`, runs every cascade; it recomputes
losses from the full defaulted set each round, so its fixed point is that
of any sequential update order.

Tie contract: a country's loss is the haircut times the correctly
rounded sum (``math.fsum``) of its exposures to the defaulted set, so no
decision depends on a summation order or on which rows share a kernel
call. On a whole-valued panel whose assets sum below 2**53 (CPIS reports
whole $M) every partial sum is exact in any order, so the kernel's
matmul already gives that sum and it does no further work. On any other
panel it re-decides, with ``math.fsum``, each loss within
(n + 4) * 2**-52 of its threshold, relative: that bounds the rounding
error of any order of summing n nonnegative terms, and of the haircut
product, with room to spare.

`enumerate_impacts` starts each k-combination from the union of its
(k-1)-subsets' final sets. A row's loss never falls as its defaulted set
grows (assets >= 0, haircut > 0, and a correctly rounded sum is monotone
in its exact value), so the final set is the least fixed point above the
initial set, and every start between the two reaches it. A combination
S holding a member x that falls in the cascade of S - {x} has that
cascade as its final set and skips the kernel. This holds exactly on
every panel, whichever rows and specs share a batch.
"""

from __future__ import annotations

import math
from collections import Counter
from collections.abc import Iterable
from dataclasses import dataclass, replace
from itertools import chain, combinations, repeat

import numpy as np

from .ingest import AssetSlice

COARSE_THRESHOLDS = (0.0, 0.1, 0.25, 0.5, 0.75)

FINE_D1_MAX, FINE_D1_POINTS = 0.2, 51
FINE_D2_MAX, FINE_D2_POINTS = 0.5, 51
FINE_MAX_SUBSET = 3

# Cascades per kernel block. Bounded blocks keep the kernel's (B, n)
# temporaries small however many cascades a caller hands it.
# On a 60-country slice, 512 ran a 2- and a 24-spec sweep faster than 256
# and the 51 x 51 fine grid no slower; 1024 ran the fine grid slower.
BLOCK_ROWS = 512


@dataclass(frozen=True)
class LgdSpec:
    """Cascade thresholds: d1 on the portfolio share, d2 on GDP, and the
    haircut scaling losses before the comparison."""

    d1: float
    d2: float
    haircut: float = 1.0

    def __post_init__(self) -> None:
        if not 0.0 <= self.d1 <= 1.0:
            raise ValueError(f"d1 must lie in [0, 1], got {self.d1}")
        if not 0.0 <= self.d2 < math.inf:
            raise ValueError(f"d2 must be finite and >= 0, got {self.d2}")
        if not 0.0 < self.haircut <= 1.0:
            raise ValueError(f"haircut must lie in (0, 1], got {self.haircut}")


@dataclass(frozen=True)
class CascadeResult:
    """Initial defaults, the newly defaulting set per round, and the
    fraction of countries (initial set included) that end up in default."""

    initial: frozenset[str]
    rounds: tuple[frozenset[str], ...]
    defaulted: frozenset[str]
    impact: float

    @property
    def num_rounds(self) -> int:
        return len(self.rounds)


def cascade_rounds(
    slice_: AssetSlice,
    initial: np.ndarray,
    d1: np.ndarray,
    d2: np.ndarray,
    haircut: float,
) -> np.ndarray:
    """Batched cascade kernel: one cascade per row of the (B, n) boolean
    initial-default matrix, with per-row d1 and d2, for any B (0 included).

    Returns the (B, n) int16 round matrix: the round in which each country
    defaulted, 0 for the initial set and -1 for survivors. The rows run
    BLOCK_ROWS at a time. Each synchronous round computes
    ``haircut * (defaulted @ assets.T)`` afresh for the rows of a block that
    still move; losses are never added incrementally. Off whole-valued
    panels, the losses near a threshold are re-decided on their correctly
    rounded sums (the module docstring's tie contract).
    """
    assets = slice_.assets
    totals = assets.sum(axis=1)
    exact = assets.sum() < 2.0**53 and np.array_equal(assets, np.rint(assets))
    tie = (slice_.n + 4) * 2.0**-52
    initial, d1, d2 = np.asarray(initial, dtype=bool), np.asarray(d1, dtype=float), np.asarray(d2, dtype=float)
    rounds = np.full(initial.shape, -1, dtype=np.int16)
    for lo in range(0, len(initial), BLOCK_ROWS):
        rows = slice(lo, lo + BLOCK_ROWS)
        # Exceeding both thresholds is exceeding the larger one.
        bar = np.maximum(d1[rows, None] * totals, d2[rows, None] * slice_.gdp)
        held, out = initial[rows].copy(), rounds[rows]
        out[held] = 0
        moving = np.arange(len(held))
        round_no = 0
        while moving.size:
            round_no += 1
            loss = haircut * (held.astype(float) @ assets.T)
            newly = (loss > bar[moving]) & ~held
            if not exact:
                limit = bar[moving]
                near = (np.abs(loss - limit) < tie * limit) & ~held
                for r, i in zip(*np.nonzero(near)):
                    newly[r, i] = haircut * math.fsum(assets[i, held[r]]) > limit[r, i]
            moved = newly.any(axis=1)
            moving, newly, held = moving[moved], newly[moved], held[moved]
            marks = out[moving]
            marks[newly] = round_no
            out[moving] = marks
            held |= newly
    return rounds


def cascade(slice_: AssetSlice, initial: set[str] | frozenset[str], spec: LgdSpec) -> CascadeResult:
    """Run one cascade from an initial default set: the kernel's batch of one."""
    if not initial:
        raise ValueError("initial default set must be nonempty")
    mask = np.zeros((1, slice_.n), dtype=bool)
    for code in initial:
        mask[0, slice_.index(code)] = True
    (rounds,) = cascade_rounds(slice_, mask, np.array([spec.d1]), np.array([spec.d2]), spec.haircut)

    def codes(selected: np.ndarray) -> frozenset[str]:
        return frozenset(slice_.countries[i] for i in np.flatnonzero(selected))

    return CascadeResult(
        initial=frozenset(initial),
        rounds=tuple(codes(rounds == r) for r in range(1, int(rounds.max()) + 1)),
        defaulted=codes(rounds >= 0),
        impact=int(np.count_nonzero(rounds >= 0)) / slice_.n,
    )


@dataclass(frozen=True)
class ImpactSummary:
    """Impact distribution over all initial-default combinations of size k."""

    year: int
    spec: LgdSpec
    k: int
    n_combos: int
    mean: float
    worst5_mean: float
    worst: float
    argmax: tuple[tuple[str, ...], ...]


def enumerate_impacts(slice_: AssetSlice, specs: Iterable[LgdSpec], k_max: int = 3) -> list[ImpactSummary]:
    """Cascade impacts for every initial combination of 1..k_max countries
    under each of the specs, which must share one haircut.

    Per spec and k, reports the mean impact, the mean of the
    ceil(0.05 * m) worst impacts, the worst case, and every combination
    attaining it. The summaries run spec by spec, and by k within a spec.

    Works level by level over (combination, spec) rows, combination-major:
    it seeds 8 x BLOCK_ROWS rows at a time and hands those still moving to
    the kernel in one call, which runs them BLOCK_ROWS at a time, so a
    block mixes specs. It holds only the previous level's final default
    masks, specs x C(n, k_max - 1) x n bytes (about 2.5 MB for 24 specs at
    n = 60): a k-combination starts from the union of its (k-1)-subsets'
    final sets under the same spec, and skips the kernel when a member
    already falls in the final set of the others. The module docstring
    says why this equals running each combination from scratch.
    """
    specs = list(specs)
    if not specs:
        raise ValueError("need at least one spec")
    if len({spec.haircut for spec in specs}) > 1:
        raise ValueError("the specs must share one haircut")
    if k_max not in (1, 2, 3):
        raise ValueError("k_max must be 1, 2 or 3")
    n, s, haircut = slice_.n, len(specs), specs[0].haircut
    if k_max > n:
        raise ValueError(f"k_max={k_max} exceeds the {n} countries of the slice")
    d1_specs, d2_specs = np.array([(spec.d1, spec.d2) for spec in specs]).T
    levels = []
    rank = final = None
    for k in range(1, k_max + 1):
        m = math.comb(n, k)
        sets = np.fromiter(chain.from_iterable(combinations(range(n), k)), np.intp, m * k).reshape(m, k)
        # subsets[x][c] is the rank of combination c without its member x.
        subsets = [rank[tuple(np.delete(sets, x, axis=1).T)] for x in range(k)] if k > 1 else []
        counts = np.empty(m * s, dtype=np.intp)
        subset_finals, keep = final, k < k_max
        # final[rank[combo] * s + j] is the final default mask of combo under specs[j].
        if keep:
            rank = np.zeros((n,) * k, dtype=np.intp)
            rank[tuple(sets.T)] = np.arange(m)
            final = np.empty((m * s, n), dtype=bool)
        # A seeded row's bool mask takes an eighth of the bytes of a float64 kernel row.
        for start in range(0, m * s, 8 * BLOCK_ROWS):
            stop = min(start + 8 * BLOCK_ROWS, m * s)
            combo, which = np.divmod(np.arange(start, stop), s)
            members = sets[combo]
            rows = np.arange(stop - start)
            held = np.zeros((stop - start, n), dtype=bool)
            held[rows[:, None], members] = True
            settled = np.zeros(stop - start, dtype=bool)
            for x, subset in enumerate(subsets):
                subset_final = subset_finals[subset[combo] * s + which]
                settled |= subset_final[rows, members[:, x]]
                held |= subset_final
            moving = np.flatnonzero(~settled)
            d1, d2 = d1_specs[which[moving]], d2_specs[which[moving]]
            held[moving] = cascade_rounds(slice_, held[moving], d1, d2, haircut) >= 0
            counts[start:stop] = np.count_nonzero(held, axis=1)
            if keep:
                final[start:stop] = held
        names = list(combinations(slice_.countries, k))
        levels.append((k, names, np.ascontiguousarray(counts.reshape(m, s).T) / n))
    summaries = []
    for j, spec in enumerate(specs):
        for k, names, level_impacts in levels:
            impacts = level_impacts[j]
            worst, top = float(impacts.max()), max(1, math.ceil(0.05 * impacts.size))
            argmax = tuple(names[i] for i in np.flatnonzero(impacts == worst).tolist())
            worst5 = float(np.sort(impacts)[-top:].mean())
            mean = float(impacts.mean())
            summaries.append(ImpactSummary(slice_.year, spec, k, impacts.size, mean, worst5, worst, argmax))
    return summaries


def grid_axis(values: Iterable[float], field: str) -> tuple[float, ...]:
    """One threshold-grid axis as floats: nonempty, no value twice, and
    each value one that LgdSpec accepts as `field` (d1, d2 or haircut)."""
    axis = tuple(map(float, values))
    if not axis:
        raise ValueError(f"the {field} grid must be nonempty")
    for value in axis:
        replace(LgdSpec(0.0, 0.0), **{field: value})
    if len(set(axis)) < len(axis):
        raise ValueError(f"the {field} grid repeats a value")
    return axis


def sweep_specs(d1_values: Iterable[float], d2_values: Iterable[float], haircut: float = 1.0) -> list[LgdSpec]:
    """The spec of every (d1, d2) grid point but the skipped d1 = d2 = 0,
    in d1-major order, after checking both axes."""
    d1_axis, d2_axis = grid_axis(d1_values, "d1"), grid_axis(d2_values, "d2")
    specs = [LgdSpec(d1, d2, haircut) for d1 in d1_axis for d2 in d2_axis if d1 or d2]
    if not specs:
        raise ValueError("the threshold grids hold no point besides d1 = d2 = 0, which is skipped")
    return specs


def sweep_grid(
    slice_: AssetSlice,
    d1_values: Iterable[float] = COARSE_THRESHOLDS,
    d2_values: Iterable[float] = COARSE_THRESHOLDS,
    k_max: int = 3,
    haircut: float = 1.0,
) -> list[ImpactSummary]:
    """Impact summaries over the (d1, d2) grid, excluding the trivial
    all-defaulting point d1 = d2 = 0. The grid is checked before the
    first enumeration."""
    return enumerate_impacts(slice_, sweep_specs(d1_values, d2_values, haircut), k_max)


def severity_sorted(summaries: list[ImpactSummary]) -> list[ImpactSummary]:
    """Order summaries within each (year, k) by decreasing severity."""
    return sorted(
        summaries,
        key=lambda s: (s.year, s.k, -s.worst, -s.worst5_mean, -s.mean, s.spec.d1, s.spec.d2),
    )


@dataclass(frozen=True)
class FineGridCell:
    """One (initial subset, d1, d2) cascade outcome on the fine grid."""

    subset: tuple[str, ...]
    d1: float
    d2: float
    impact: float
    rounds: int


def fine_grid(
    slice_: AssetSlice,
    group: tuple[str, ...],
    d1_values: Iterable[float] | None = None,
    d2_values: Iterable[float] | None = None,
    haircut: float = 1.0,
) -> list[FineGridCell]:
    """Cascade impact for every nonempty subset (size <= FINE_MAX_SUBSET) of a
    country group over a fine (d1, d2) grid.

    Defaults scan d1 in [0, 0.2] at 51 points and d2 in [0, 0.5] at 51
    points. Each axis must pass grid_axis.
    """
    if not group or len(set(group)) < len(group):
        raise ValueError("group must be nonempty with distinct members")
    d1_values = np.linspace(0.0, FINE_D1_MAX, FINE_D1_POINTS) if d1_values is None else d1_values
    d2_values = np.linspace(0.0, FINE_D2_MAX, FINE_D2_POINTS) if d2_values is None else d2_values
    d1_values, d2_values = np.array(grid_axis(d1_values, "d1")), np.array(grid_axis(d2_values, "d2"))
    LgdSpec(0.0, 0.0, haircut)
    d1_cells, d2_cells = np.repeat(d1_values, d2_values.size), np.tile(d2_values, d1_values.size)
    d1_list, d2_list = d1_cells.tolist(), d2_cells.tolist()
    members = sorted(group)
    indices = [slice_.index(code) for code in members]
    cells = []
    for size in range(1, min(FINE_MAX_SUBSET, len(members)) + 1):
        for combo in combinations(range(len(members)), size):
            initial = np.zeros(slice_.n, dtype=bool)
            initial[[indices[i] for i in combo]] = True
            initial = np.broadcast_to(initial, (d1_cells.size, slice_.n))
            rounds = cascade_rounds(slice_, initial, d1_cells, d2_cells, haircut)
            impacts = (np.count_nonzero(rounds >= 0, axis=1) / slice_.n).tolist()
            n_rounds = rounds.max(axis=1).tolist()
            subset = tuple(members[i] for i in combo)
            cells.extend(map(FineGridCell, repeat(subset), d1_list, d2_list, impacts, n_rounds))
    return cells


def influence_ranking(
    summaries: list[ImpactSummary],
    top_n: int = 10,
) -> dict[int, list[tuple[tuple[str, ...], int]]]:
    """Rank initial combinations by how many (year, spec) cells they won.

    Every combination tied for a cell's worst-case impact is counted.
    Returns, per k, the top_n (combination, count) pairs sorted by count
    descending, lexicographic on the combination for equal counts.
    """
    if not summaries:
        raise ValueError("need at least one impact summary")
    counters: dict[int, Counter] = {}
    for summary in summaries:
        counter = counters.setdefault(summary.k, Counter())
        for combo in summary.argmax:
            counter[combo] += 1
    return {
        k: sorted(counter.items(), key=lambda item: (-item[1], item[0]))[:top_n]
        for k, counter in sorted(counters.items())
    }
