"""Node-removal robustness simulations and Monte-Carlo interval comparison.

An ``error`` knockout removes a uniformly random surviving node each
step; an ``attack`` removes a node with maximal in+out degree, recomputed
on the surviving graph, with ties broken uniformly at random. The capped
mean shortest path length is recorded after every removal down to a
single node (whose value is the cap, 4.0, by convention). The attack
trials of one network share each surviving set's ASPL and candidates,
held as a float and a tuple rather than arrays, so repeated sets are
computed once; a trace does not depend on which trials shared them. Error trials seldom revisit
a set and share nothing, so an ensemble cuts them into ranges like a
null spec's draws. Once the survivors have no edge, neither has any
smaller set: every value left is the cap and every survivor ties at
degree 0, so the trace ends in closed form and such a set never reaches
the ASPL kernel.

Victims that do not depend on the graph, an error trace's whole order
and an attack trace's edgeless tail, are drawn in one call: with t
survivors, ``rng.integers(np.arange(t, 1, -1))`` gives the values of
``integers(t), ..., integers(2)`` and leaves the generator in the same
state. That rests on numpy drawing an array of bounds from the same
bounded-integer stream as scalar calls, which the oracle tests, drawing
one victim per call, pin.
"""

from __future__ import annotations

import math
import os
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

from .metrics import MEASURE_NAMES, SPL_CAP, MeasureVector, measure_vector, modified_aspl_adj
from .netbuild import BinaryNetwork
from .nullmodels import NullModelSpec
from .seeding import child_seed

STRATEGIES = ("error", "attack")
POSITIONS = ("below", "within", "above", "undefined")
MIN_SAMPLES = 100
DEFAULT_SAMPLES = 10000  # null draws per (year, rule, model) cell
DEFAULT_ALPHA = 0.05  # the interval is the central 1 - alpha of the null draws
SPEC_BLOCK = 500  # most draws of one null-model spec in one worker task
STAGES = 10  # equal stages in which run_tasks draws under a stop rule, dropping stopped sources between them
# The CPUs this process may run on, and so the most workers an ensemble starts.
USABLE_CPUS = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1

# Alignment grid for ensembles over networks of different sizes: the
# fraction of nodes removed, 0% to 100% in 1% steps.
CURVE_GRID = np.linspace(0.0, 1.0, 101)


@dataclass(frozen=True)
class KnockoutTrace:
    """One removal sequence and the ASPL after 0, 1, 2, ... removals."""

    strategy: str
    removal_order: tuple[str, ...]
    aspl_series: np.ndarray
    seed: int


@dataclass(frozen=True)
class CurveSummary:
    """Pointwise mean and standard deviation of aligned knockout curves."""

    strategy: str
    grid: np.ndarray
    mean: np.ndarray
    std: np.ndarray
    n_traces: int


def run_knockout(net: BinaryNetwork, strategy: str, seed: int, *, cache: dict | None = None) -> KnockoutTrace:
    """Remove nodes one at a time until a single node remains.

    The trace is fully determined by (network, strategy, seed); the seed
    drives both error selection and attack tie-breaking. ``cache`` maps a
    surviving set (a bitmask over the network's nodes) to its ASPL and,
    for attack, the tuple of its max-degree nodes' positions among the
    survivors (empty for error), or to None when the set has no edge.
    Trials of one network and one strategy may share it; the trace does
    not depend on what it already holds.

    An edgeless survivor set ends the walk: it and every smaller set score
    ``SPL_CAP`` without reaching the kernel, and each remaining victim is
    one uniform draw over the survivors, the draw both strategies make
    when every survivor ties. Error draws its whole order up front.
    """
    if strategy not in STRATEGIES:
        raise ValueError(f"unknown strategy {strategy!r}; expected one of {STRATEGIES}")
    if net.n < 2:
        raise ValueError("knockout needs at least 2 nodes")
    cache = {} if cache is None else cache
    rng = np.random.default_rng(seed)
    attack = strategy == "attack"
    draws = None if attack else iter(rng.integers(np.arange(net.n, 1, -1)).tolist())
    nodes = list(range(net.n))
    mask = (1 << net.n) - 1
    series, order = [], []
    while True:
        if mask not in cache:
            index = np.fromiter(nodes, np.intp, len(nodes))
            adj = net.adj.take(index, 0).take(index, 1)
            if attack:
                sums = adj.sum(axis=0) + adj.sum(axis=1)
                top = sums.max()
                cache[mask] = (modified_aspl_adj(adj), tuple(np.flatnonzero(sums == top).tolist())) if top else None
            else:
                cache[mask] = (modified_aspl_adj(adj), ()) if adj.any() else None
        entry = cache[mask]
        if entry is None:
            break
        aspl, best = entry
        series.append(aspl)
        if attack:
            victim = best[0] if len(best) == 1 else best[int(rng.integers(len(best)))]
        else:
            victim = next(draws)
        node = nodes.pop(victim)
        order.append(node)
        mask ^= 1 << node
    series += [SPL_CAP] * len(nodes)
    if attack:
        draws = rng.integers(np.arange(len(nodes), 1, -1)).tolist()
    order += [nodes.pop(victim) for victim in draws]
    return KnockoutTrace(strategy, tuple([net.countries[node] for node in order]), np.array(series), seed)


def _interp_curve(series: np.ndarray) -> np.ndarray:
    """Align one trace on the common grid of fraction-of-nodes-removed."""
    n = series.size
    removed_fraction = np.arange(n) / n
    return np.interp(CURVE_GRID, removed_fraction, series)


@contextmanager
def _workers(jobs: int):
    """Yield the builtin ``map``, or one pool's over ``jobs`` workers."""
    if jobs <= 1:
        yield map
        return
    # Imported here, so that serial runs do not pay for the pool modules at start-up.
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    ctx = multiprocessing.get_context("fork") if "fork" in multiprocessing.get_all_start_methods() else None
    with ProcessPoolExecutor(max_workers=jobs, mp_context=ctx) as pool:
        yield pool.map


def run_tasks(kernel, sources: list, count: int, jobs: int, *args, shared: list[bool] | None = None,
              stop=None) -> list[np.ndarray]:
    """Each source's stacked kernel rows for items 0..count-1, in item order.

    ``kernel((source, i, items, *args))`` returns one row per item of the
    range ``items`` of source ``i``, and must be picklable (module-level)
    when jobs > 1. A source whose items share a cache (``shared[i]``; none
    do by default) is one task a stage. Any other source's items share
    nothing, so it goes out in equal ranges of at most ``SPEC_BLOCK``
    items, and sources of uneven cost spread over the workers. Either is
    cut further where a worker would idle. Those task lists are the only
    split of the work; one pool of at most ``jobs`` workers (capped at
    ``USABLE_CPUS``), sized by the first stage, runs them all.

    Without ``stop`` there is one stage. With it, items go out in
    ``STAGES`` equal stages (an empty one is skipped), and source i draws
    no further once ``stop(i, rows)`` holds for its rows so far, which
    are then its result.
    """
    shared, jobs, stages = shared or [False] * len(sources), min(jobs, USABLE_CPUS), STAGES if stop else 1
    bounds = sorted({count * k // stages for k in range(stages + 1)})
    rows, drawn, live = [None] * len(sources), [0] * len(sources), list(range(len(sources)))
    with _workers(min(jobs, len(sources) * bounds[1])) as workers:
        for start, end in zip(bounds, bounds[1:]):
            size, idle = end - start, -(-jobs // max(1, len(live)))
            splits = [min(size, max(idle, 1 if shared[i] else -(-size // SPEC_BLOCK))) for i in live]
            tasks = [(sources[i], i, range(start + size * k // n, start + size * (k + 1) // n), *args)
                     for i, n in zip(live, splits) for k in range(n)]
            for (_, i, items, *_), block in zip(tasks, workers(kernel, tasks)):
                if rows[i] is None:  # the first block gives the row shape; pages are touched as filled
                    rows[i] = np.empty((count, *block.shape[1:]), block.dtype)
                rows[i][items.start:items.stop], drawn[i] = block, items.stop
            live = [i for i in live if stop and not stop(i, rows[i][:end])]
            if not live:
                break
    return [stack[:n] for stack, n in zip(rows, drawn)]


def _shares_cache(source: BinaryNetwork | NullModelSpec, strategy: str) -> bool:
    """Whether the trials of one source share a cache: a network's attack
    trials do; error trials, which seldom revisit a surviving set, and a
    spec's trials, each on its own draw, share nothing."""
    return strategy == "attack" and not isinstance(source, NullModelSpec)


def _trace_curves(task: tuple[BinaryNetwork | NullModelSpec, int, range, str, int]) -> np.ndarray:
    """Stacked curves of trials ``js`` of source ``i``, trial j traced with
    seed ``child_seed(master_seed, i, j)``, with one cache for the range
    when the source's trials share one."""
    source, i, js, strategy, master_seed = task
    spec = isinstance(source, NullModelSpec)
    cache = {} if _shares_cache(source, strategy) else None
    traces = (run_knockout(source.sample(j) if spec else source, strategy, child_seed(master_seed, i, j), cache=cache)
              for j in js)
    return np.vstack([_interp_curve(trace.aspl_series) for trace in traces])


def ensemble_knockout(
    sources: list[BinaryNetwork | NullModelSpec],
    strategy: str,
    trials: int,
    master_seed: int,
    jobs: int = 1,
) -> CurveSummary:
    """Run ``trials`` knockouts per source and pool the aligned curves.

    A source is a network, knocked out as is in every trial, or a
    null-model spec, whose trial j knocks out ``spec.sample(j)``. Trace
    seeds derive from (master_seed, source index, trial index), so the
    summary does not depend on scheduling or worker count.
    """
    if not sources:
        raise ValueError("need at least one source")
    if trials < 1:
        raise ValueError("trials must be >= 1")
    shared = [_shares_cache(source, strategy) for source in sources]
    stack = np.vstack(run_tasks(_trace_curves, sources, trials, jobs, strategy, master_seed, shared=shared))
    return CurveSummary(strategy, CURVE_GRID.copy(), stack.mean(axis=0), stack.std(axis=0), stack.shape[0])


def classify_position(value: float, samples: np.ndarray, alpha: float = DEFAULT_ALPHA) -> tuple[float, float, str]:
    """Central order-statistic interval of the samples and where the value sits.

    Bounds are the empirical alpha/2 and 1-alpha/2 quantiles with midpoint
    interpolation; NaN samples are ignored. Returns (lower, upper,
    position) with position one of below/within/above/undefined.
    """
    if not 0 < alpha < 1:
        raise ValueError("alpha must lie in (0, 1)")
    samples = np.asarray(samples, dtype=float)
    finite = samples[~np.isnan(samples)]
    if finite.size == 0 or math.isnan(value):
        return math.nan, math.nan, "undefined"
    lower, upper = np.quantile(finite, [alpha / 2.0, 1.0 - alpha / 2.0], method="midpoint")
    if value < lower:
        position = "below"
    elif value > upper:
        position = "above"
    else:
        position = "within"
    return float(lower), float(upper), position


@dataclass(frozen=True)
class CiEntry:
    """Interval comparison of one measure against one null family."""

    measure: str
    lower: float
    upper: float
    empirical: float
    position: str
    n_undefined: int


@dataclass(frozen=True)
class CiReport:
    """Per-measure interval comparisons for one (year, rule, model) cell."""

    model: str
    rule: str
    year: int | None
    alpha: float
    samples: int
    entries: tuple[CiEntry, ...]

    def entry(self, measure: str) -> CiEntry:
        for e in self.entries:
            if e.measure == measure:
                return e
        raise KeyError(measure)


def _measure_rows(task: tuple[NullModelSpec, int, range]) -> np.ndarray:
    """Stacked measure vectors of samples ``js`` of one spec."""
    spec, _, js = task
    return np.vstack([measure_vector(spec.sample(j)).as_array() for j in js])


def _settled(value: float, seen: np.ndarray, samples: int, alpha: float) -> bool:
    """Whether ``value`` is "within" (or "undefined", if NaN) among all ``samples``
    draws, however those after ``seen`` fall. Each tail needs one sample more
    than the midpoint quantile of the most finite draws possible reads, so a
    rounded quantile index only delays settling; "below" and "above" never settle."""
    if math.isnan(value):
        return True
    finite = samples - int(np.isnan(seen).sum())
    return (int((seen <= value).sum()) >= math.floor((finite - 1) * alpha / 2) + 2
            and int((seen >= value).sum()) >= finite - math.ceil((finite - 1) * (1 - alpha / 2)) + 1)


def ci_compare(
    cells: list[tuple[MeasureVector, NullModelSpec]],
    samples: int = DEFAULT_SAMPLES,
    alpha: float = DEFAULT_ALPHA,
    jobs: int = 1,
) -> list[CiReport]:
    """Classify each cell's empirical measures against its spec's sampled
    null ensemble; one report per (empirical, spec) cell, in cell order.

    Cells draw in ``STAGES`` equal stages, sample j always being
    ``spec.sample(j)``, and after each stage a cell stops once all six of
    its positions are settled (``_settled``): curtailed sampling, the exact
    case of a sequential Monte Carlo test (Besag & Clifford 1991). So each
    position is the one all ``samples`` draws give, while a report's
    ``samples``, bounds and ``n_undefined`` cover the prefix its cell drew.
    Undefined (NaN) null samples are excluded per measure; a measure with
    no defined samples is itself undefined. A report's rule and year are
    those of its ``spec.base``. One ``run_tasks`` call makes every stage's
    task list and pool. A cell's samples x 6 matrix of 8-byte values is
    resident as far as it is drawn: 43 MB at most for 90 cells of 10,000.
    """
    if not cells:
        raise ValueError("need at least one cell")
    if samples < MIN_SAMPLES:
        raise ValueError(f"need at least {MIN_SAMPLES} samples")
    if not 0 < alpha < 1:
        raise ValueError("alpha must lie in (0, 1)")
    values = [empirical.as_array().tolist() for empirical, _ in cells]
    matrices = run_tasks(_measure_rows, [spec for _, spec in cells], samples, jobs, stop=lambda i, rows: all(
        _settled(value, column, samples, alpha) for value, column in zip(values[i], rows.T)))
    reports = []
    for (_, spec), matrix, row in zip(cells, matrices, values):
        entries = []
        for name, value, column in zip(MEASURE_NAMES, row, matrix.T):
            lower, upper, position = classify_position(value, column, alpha)
            entries.append(CiEntry(name, lower, upper, value, position, int(np.isnan(column).sum())))
        reports.append(CiReport(spec.kind, spec.base.rule, spec.base.source_year, alpha, len(matrix), tuple(entries)))
    return reports


def ci_table(reports: list[CiReport]) -> list[dict]:
    """Aggregate yearly reports into per-(measure, model, rule) scores.

    Each row's keys, in order, are the table's columns. The score is
    (years above - years below) / years on the -1..1 convention; undefined
    years are counted separately and contribute nothing to the numerator.
    """
    groups: dict[tuple[str, str], list[CiReport]] = {}
    for report in reports:
        groups.setdefault((report.model, report.rule), []).append(report)
    rows = []
    for (model, rule), group in sorted(groups.items()):
        for name in MEASURE_NAMES:
            counts = {p: 0 for p in POSITIONS}
            for report in group:
                counts[report.entry(name).position] += 1
            years = len(group)
            score = (counts["above"] - counts["below"]) / years
            rows.append({"measure": name, "model": model, "rule": rule, "score": score, **counts, "years": years})
    return rows
