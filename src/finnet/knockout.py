"""Node-removal robustness simulations and Monte-Carlo interval comparison.

An ``error`` knockout removes a uniformly random surviving node each
step; an ``attack`` removes a node with maximal in+out degree, recomputed
on the surviving graph, with ties broken uniformly at random. The capped
mean shortest path length is recorded after every removal down to a
single node (whose value is the cap, 4.0, by convention).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .metrics import MEASURE_NAMES, MeasureVector, measure_vector, modified_aspl_adj
from .netbuild import BinaryNetwork
from .nullmodels import NullModelSpec
from .parallel import run_tasks
from .seeding import child_seed

STRATEGIES = ("error", "attack")
POSITIONS = ("below", "within", "above", "undefined")
MIN_SAMPLES = 100

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


def _attack_index(adj: np.ndarray, rng: np.random.Generator) -> int:
    """Node with maximal in+out degree; ties resolved uniformly at random."""
    sums = adj.sum(axis=0) + adj.sum(axis=1)
    best = np.flatnonzero(sums == sums.max())
    if best.size == 1:
        return int(best[0])
    return int(best[rng.integers(best.size)])


def run_knockout(net: BinaryNetwork, strategy: str, seed: int) -> KnockoutTrace:
    """Remove nodes one at a time until a single node remains.

    The trace is fully determined by (network, strategy, seed); the seed
    drives both error selection and attack tie-breaking.
    """
    if strategy not in STRATEGIES:
        raise ValueError(f"unknown strategy {strategy!r}; expected one of {STRATEGIES}")
    if net.n < 2:
        raise ValueError("knockout needs at least 2 nodes")
    rng = np.random.default_rng(seed)
    adj = net.adj
    labels = list(net.countries)
    series = [modified_aspl_adj(adj)]
    order: list[str] = []
    while len(labels) > 1:
        if strategy == "error":
            victim = int(rng.integers(len(labels)))
        else:
            victim = _attack_index(adj, rng)
        order.append(labels.pop(victim))
        keep = np.ones(adj.shape[0], dtype=bool)
        keep[victim] = False
        adj = adj[keep][:, keep]
        series.append(modified_aspl_adj(adj))
    return KnockoutTrace(strategy, tuple(order), np.array(series), seed)


def _interp_curve(series: np.ndarray) -> np.ndarray:
    """Align one trace on the common grid of fraction-of-nodes-removed."""
    n = series.size
    removed_fraction = np.arange(n) / n
    return np.interp(CURVE_GRID, removed_fraction, series)


def _trace_curve(task: tuple[BinaryNetwork | NullModelSpec, str, int, int]) -> np.ndarray:
    source, strategy, index, seed = task
    net = source.sample(index) if isinstance(source, NullModelSpec) else source
    return _interp_curve(run_knockout(net, strategy, seed).aspl_series)


def _summarize(curves: list[np.ndarray], strategy: str) -> CurveSummary:
    stack = np.vstack(curves)
    return CurveSummary(
        strategy=strategy,
        grid=CURVE_GRID.copy(),
        mean=stack.mean(axis=0),
        std=stack.std(axis=0),
        n_traces=stack.shape[0],
    )


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
    tasks = [
        (source, strategy, j, child_seed(master_seed, i, j))
        for i, source in enumerate(sources)
        for j in range(trials)
    ]
    return _summarize(run_tasks(_trace_curve, tasks, jobs), strategy)


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
    rule: str | None
    year: int | None
    alpha: float
    samples: int
    entries: tuple[CiEntry, ...]

    def entry(self, measure: str) -> CiEntry:
        for e in self.entries:
            if e.measure == measure:
                return e
        raise KeyError(measure)


def _measure_chunk(task: tuple[NullModelSpec, int, int]) -> np.ndarray:
    spec, start, stop = task
    return np.vstack([measure_vector(spec.sample(i)).as_array() for i in range(start, stop)])


def ci_compare(
    empirical: MeasureVector,
    spec: NullModelSpec,
    samples: int = 10000,
    alpha: float = 0.05,
    rule: str | None = None,
    year: int | None = None,
    jobs: int = 1,
) -> CiReport:
    """Classify each empirical measure against a sampled null ensemble.

    Undefined (NaN) null samples are excluded per measure and counted in
    the report; a measure with no defined samples is itself undefined.
    """
    if samples < MIN_SAMPLES:
        raise ValueError(f"need at least {MIN_SAMPLES} samples")
    if not 0 < alpha < 1:
        raise ValueError("alpha must lie in (0, 1)")
    chunk = max(50, samples // 64)
    bounds = list(range(0, samples, chunk)) + [samples]
    tasks = [(spec, lo, hi) for lo, hi in zip(bounds[:-1], bounds[1:]) if lo < hi]
    matrix = np.vstack(run_tasks(_measure_chunk, tasks, jobs))
    empirical_values = empirical.as_array()
    entries = []
    for m, name in enumerate(MEASURE_NAMES):
        column = matrix[:, m]
        n_undefined = int(np.isnan(column).sum())
        lower, upper, position = classify_position(float(empirical_values[m]), column, alpha)
        entries.append(CiEntry(name, lower, upper, float(empirical_values[m]), position, n_undefined))
    return CiReport(spec.kind, rule, year, alpha, samples, tuple(entries))


def ci_table(reports: list[CiReport]) -> list[dict]:
    """Aggregate yearly reports into per-(measure, model, rule) scores.

    The score is (years above - years below) / years on the -1..1
    convention; undefined years are counted separately and contribute
    nothing to the numerator.
    """
    groups: dict[tuple[str, str | None], list[CiReport]] = {}
    for report in reports:
        groups.setdefault((report.model, report.rule), []).append(report)
    rows = []
    for (model, rule), group in sorted(groups.items(), key=lambda kv: (kv[0][0], kv[0][1] or "")):
        for name in MEASURE_NAMES:
            counts = {p: 0 for p in POSITIONS}
            for report in group:
                counts[report.entry(name).position] += 1
            years = len(group)
            rows.append(
                {
                    "measure": name,
                    "model": model,
                    "rule": rule,
                    "score": (counts["above"] - counts["below"]) / years,
                    "below": counts["below"],
                    "within": counts["within"],
                    "above": counts["above"],
                    "undefined": counts["undefined"],
                    "years": years,
                }
            )
    return rows
