"""Node-removal robustness simulations and Monte-Carlo interval comparison.

An ``error`` knockout removes a uniformly random surviving node each
step; an ``attack`` removes a node with maximal in+out degree, recomputed
on the surviving graph, with ties broken uniformly at random. The capped
mean shortest path length is recorded after every removal down to a
single node (whose value is the cap, 4.0, by convention). The attack
trials of one network share each surviving set's ASPL and candidates, so
repeated sets are computed once; a trace does not depend on which
trials shared them. Error trials seldom revisit a set and share nothing.
Once the survivors have no edge, neither has any smaller set: every
value left is the cap and every survivor ties at degree 0, so the trace
ends in closed form and such a set never reaches the ASPL kernel.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .metrics import MEASURE_NAMES, SPL_CAP, MeasureVector, measure_vector, modified_aspl_adj
from .netbuild import BinaryNetwork
from .nullmodels import NullModelSpec
from .seeding import child_seed

STRATEGIES = ("error", "attack")
POSITIONS = ("below", "within", "above", "undefined")
MIN_SAMPLES = 100
SPEC_BLOCK = 500  # most draws of one null-model spec in one worker task

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
    for attack, the positions of its max-degree nodes among the
    survivors, or to None when the set has no edge. Trials of one network
    and one strategy may share it; the trace does not depend on what it
    already holds.

    An edgeless survivor set ends the walk: it and every smaller set score
    ``SPL_CAP`` without reaching the kernel, and each remaining victim is
    one uniform draw over the survivors, the draw both strategies make
    when every survivor ties.
    """
    if strategy not in STRATEGIES:
        raise ValueError(f"unknown strategy {strategy!r}; expected one of {STRATEGIES}")
    if net.n < 2:
        raise ValueError("knockout needs at least 2 nodes")
    cache = {} if cache is None else cache
    rng = np.random.default_rng(seed)
    nodes = list(range(net.n))
    mask = (1 << net.n) - 1
    adj = net.adj  # the survivors' adjacency; dropped on a hit, rebuilt on the next miss
    series, order = [], []
    while True:
        if mask in cache:
            adj = None
        else:
            if adj is None:
                index = np.array(nodes)
                adj = net.adj[index][:, index]
            if adj.any():
                sums = adj.sum(axis=0) + adj.sum(axis=1) if strategy == "attack" else None
                cache[mask] = modified_aspl_adj(adj), None if sums is None else np.flatnonzero(sums == sums.max())
            else:
                cache[mask] = None
        entry = cache[mask]
        if entry is None:
            break
        aspl, best = entry
        series.append(aspl)
        if strategy == "error":
            victim = int(rng.integers(len(nodes)))
        else:
            victim = int(best[0] if best.size == 1 else best[rng.integers(best.size)])
        node = nodes.pop(victim)
        order.append(net.countries[node])
        mask ^= 1 << node
        if adj is not None:
            adj = np.concatenate((adj[:victim], adj[victim + 1:]))
            adj = np.concatenate((adj[:, :victim], adj[:, victim + 1:]), axis=1)
    series += [SPL_CAP] * len(nodes)
    while len(nodes) > 1:
        order.append(net.countries[nodes.pop(int(rng.integers(len(nodes))))])
    return KnockoutTrace(strategy, tuple(order), np.array(series), seed)


def _interp_curve(series: np.ndarray) -> np.ndarray:
    """Align one trace on the common grid of fraction-of-nodes-removed."""
    n = series.size
    removed_fraction = np.arange(n) / n
    return np.interp(CURVE_GRID, removed_fraction, series)


def run_tasks(fn, tasks: list, jobs: int = 1) -> list:
    """``[fn(task) for task in tasks]`` on at most ``jobs`` worker processes,
    each taking one task at a time, so the task list is the only split of
    the work. ``fn`` must be picklable (module-level) when jobs > 1."""
    if jobs <= 1 or len(tasks) <= 1:
        return [fn(task) for task in tasks]
    # Imported here, so that serial runs do not pay for the pool modules at start-up.
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    ctx = multiprocessing.get_context("fork") if "fork" in multiprocessing.get_all_start_methods() else None
    with ProcessPoolExecutor(max_workers=min(jobs, len(tasks)), mp_context=ctx) as pool:
        return list(pool.map(fn, tasks))


def _run_ensemble(kernel, sources: list, count: int, jobs: int, *args) -> list[np.ndarray]:
    """Each source's stacked kernel rows for items 0..count-1, in item order.

    ``kernel((source, i, items, *args))`` returns one row per item of the
    range ``items`` of source ``i``. A network is one task, so its items
    can share a cache; a spec, whose draws share nothing, goes out in
    equal ranges of at most ``SPEC_BLOCK`` items, so that sources of
    uneven cost spread over the workers. Either is cut further where a
    worker would idle. One ``run_tasks`` call runs every task, and every
    source's rows are held at once until it returns.
    """
    idle = -(-max(1, jobs) // max(1, len(sources)))
    splits = [min(count, max(idle, -(-count // SPEC_BLOCK) if isinstance(s, NullModelSpec) else 1)) for s in sources]
    tasks = [(source, i, range(count * k // n, count * (k + 1) // n), *args)
             for i, (source, n) in enumerate(zip(sources, splits)) for k in range(n)]
    blocks = iter(run_tasks(kernel, tasks, jobs))
    return [np.vstack([next(blocks) for _ in range(n)]) for n in splits]


def _trace_curves(task: tuple[BinaryNetwork | NullModelSpec, int, range, str, int]) -> np.ndarray:
    """Stacked curves of trials ``js`` of source ``i``, trial j traced with
    seed ``child_seed(master_seed, i, j)``. A network's attack trials share
    one cache; error trials, which seldom revisit a surviving set, and a
    spec's trials share nothing."""
    source, i, js, strategy, master_seed = task
    spec = isinstance(source, NullModelSpec)
    cache = None if spec or strategy == "error" else {}
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
    if trials < 1:
        raise ValueError("trials must be >= 1")
    stack = np.vstack(_run_ensemble(_trace_curves, sources, trials, jobs, strategy, master_seed))
    return CurveSummary(strategy, CURVE_GRID.copy(), stack.mean(axis=0), stack.std(axis=0), stack.shape[0])


def classify_position(value: float, samples: np.ndarray, alpha: float = 0.05) -> tuple[float, float, str]:
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


def ci_compare(
    cells: list[tuple[MeasureVector, NullModelSpec]],
    samples: int = 10000,
    alpha: float = 0.05,
    jobs: int = 1,
) -> list[CiReport]:
    """Classify each cell's empirical measures against its spec's sampled
    null ensemble; one report per (empirical, spec) cell, in cell order.

    Undefined (NaN) null samples are excluded per measure and counted in
    the report; a measure with no defined samples is itself undefined.
    A report's rule and year are those of its ``spec.base``. All cells
    share one task list, and every cell's samples x 6 matrix is held at
    once: 8 bytes per value, so 43 MB for 90 cells of 10,000 samples.
    """
    if samples < MIN_SAMPLES:
        raise ValueError(f"need at least {MIN_SAMPLES} samples")
    if not 0 < alpha < 1:
        raise ValueError("alpha must lie in (0, 1)")
    matrices = _run_ensemble(_measure_rows, [spec for _, spec in cells], samples, jobs)
    reports = []
    for (empirical, spec), matrix in zip(cells, matrices):
        entries = []
        for m, (name, value) in enumerate(zip(MEASURE_NAMES, empirical.as_array().tolist())):
            column = matrix[:, m]
            lower, upper, position = classify_position(value, column, alpha)
            entries.append(CiEntry(name, lower, upper, value, position, int(np.isnan(column).sum())))
        reports.append(CiReport(spec.kind, spec.base.rule, spec.base.source_year, alpha, samples, tuple(entries)))
    return reports


def ci_table(reports: list[CiReport]) -> list[dict]:
    """Aggregate yearly reports into per-(measure, model, rule) scores.

    The score is (years above - years below) / years on the -1..1
    convention; undefined years are counted separately and contribute
    nothing to the numerator.
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
