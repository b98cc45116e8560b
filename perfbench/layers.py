"""Per-layer metrics from the spans and counts of traced runs.

Run ids say where a span came from: ``main:<i>`` is the workload's own
command (``--jobs 1`` on knockout), ``jobs2:<i>`` the same knockout
command with ``--jobs 2``, and ``probe:<command>`` a small run of another
workload's command. A layer metric comes from the main runs when the
workload's command reaches that layer, and otherwise from the probe runs,
so every workload reports every layer.
"""

from __future__ import annotations

import math
import statistics
from collections import defaultdict

NULL_KINDS = ("er", "out-degree", "in-degree", "rewiring", "log-normal")
TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)


def merge(spans: list, counts: dict, trace: dict) -> None:
    """Append one traced process's spans (re-indexing parents) and counts."""
    offset = len(spans)
    for name, start, end, parent, run in trace["spans"]:
        spans.append([name, start, end, parent + offset if parent >= 0 else -1, run])
    counts.update(trace["counts"])


def tail(values: list[float]) -> float:
    """The highest of TAIL_PERCENTILES with at least ten samples beyond it (nearest rank);
    the maximum when there are fewer than twenty samples."""
    ordered = sorted(values)
    n = len(ordered)
    for pct in TAIL_PERCENTILES:
        if n * (100.0 - pct) / 100.0 >= 10:
            return ordered[max(0, math.ceil(pct / 100.0 * n) - 1)]
    return ordered[-1]


class Spans:
    def __init__(self, spans: list, counts: dict) -> None:
        self.spans, self.counts = spans, counts
        self.by_run: dict[str, dict[str, list[float]]] = defaultdict(lambda: defaultdict(list))
        child_time = defaultdict(float)
        for name, start, end, parent, run in spans:
            self.by_run[run][name].append(end - start)
            if parent >= 0:
                child_time[parent] += end - start
        # Self time: a span's duration minus the time its child spans cover.
        self.own = [end - start - child_time[i] for i, (_, start, end, _, _) in enumerate(spans)]
        self.main = sorted(r for r in self.by_run if r.startswith("main:"))
        self.probes = sorted(r for r in self.by_run if r.startswith("probe:"))

    def source(self, span: str) -> list[str]:
        """Main runs that reach the span's layer, else the probe runs that do."""
        main = [r for r in self.main if span in self.by_run[r]]
        return main or [r for r in self.probes if span in self.by_run[r]]

    def durations(self, span: str) -> list[float]:
        values = [d for r in self.source(span) for d in self.by_run[r].get(span, [])]
        if not values:
            raise ValueError(f"no span {span!r} in any traced run")
        return values

    def per_run_total(self, span: str, runs: list[str] | None = None) -> float:
        runs = self.source(span) if runs is None else runs
        return statistics.median(sum(self.by_run[r].get(span, [])) for r in runs)

    def self_times(self, runs: list[str]) -> dict[str, float]:
        """Total self time per span name over the given runs, largest first."""
        total = defaultdict(float)
        for (name, _, _, _, run), own in zip(self.spans, self.own):
            if run in runs:
                total[name] += own
        return dict(sorted(total.items(), key=lambda item: -item[1]))

    def count(self, key: str, span: str) -> float:
        return self.counts.get(self.source(span)[0], {}).get(key, 0.0)


def _timing(metrics: dict, key: str, values: list[float], scale: float, unit: str) -> None:
    scaled = [v * scale for v in values]
    metrics[f"{key}.p50"] = (statistics.median(scaled), unit)
    metrics[f"{key}.tail"] = (tail(scaled), unit)
    metrics[f"{key}.n"] = (len(scaled), "count")


def per_layer(name: str, spans: list, counts: dict, pairs: list[tuple[float, float, int]]):
    """Per-layer metrics and a document of every span and the main runs' self times.

    ``pairs`` holds, per traced repetition, (untraced wall, traced wall,
    output bytes).
    """
    s = Spans(spans, counts)
    m: dict[str, tuple[float, str]] = {}
    m["ingest.parse_s"] = (s.per_run_total("ingest.parse"), "s")
    m["ingest.rows"] = (s.count("ingest.rows", "ingest.parse"), "count")
    _timing(m, "ingest.core_slice_s", s.durations("ingest.core_slice"), 1.0, "s")
    m["ingest.coverage_min"] = (s.count("ingest.coverage_min", "ingest.core_slice"), "ratio")

    _timing(m, "netbuild.apply_ms", s.durations("netbuild.apply"), 1e3, "ms")
    for rule in ("A", "B"):
        prefix = f"netbuild.edges.{rule}."
        runs = [r for r in s.main + s.probes if any(k.startswith(prefix) for k in counts.get(r, {}))]
        total = sum(v for k, v in counts[runs[0]].items() if k.startswith(prefix))
        m[f"netbuild.edges.{rule}"] = (total, "count")

    _timing(m, "seeding.child_rng_us", s.durations("seeding.child_rng"), 1e6, "us")
    for kind in NULL_KINDS:
        _timing(m, f"nullmodels.sample_ms.{kind}", s.durations(f"nullmodels.sample.{kind}"), 1e3, "ms")
    _timing(m, "nullmodels.fit_lognormal_ms", s.durations("nullmodels.fit_lognormal"), 1e3, "ms")
    rewiring = "nullmodels.sample.rewiring"
    m["nullmodels.swap_attempts"] = (s.count("nullmodels.swap_attempts", rewiring), "count")
    moved = s.count("nullmodels.rewiring.moved_share", rewiring)
    m["nullmodels.rewiring.edges_moved"] = (moved / s.count("nullmodels.rewiring.samples", rewiring), "ratio")

    _timing(m, "metrics.measure_vector_ms", s.durations("metrics.measure_vector"), 1e3, "ms")
    _timing(m, "metrics.modified_aspl_us", s.durations("metrics.modified_aspl"), 1e6, "us")
    for key, value in counts[s.source(rewiring)[0]].items():
        if key.startswith("metrics.nan."):
            m[key] = (value, "count")

    _timing(m, "knockout.trace_ms.attack", s.durations("knockout.trace.attack"), 1e3, "ms")
    m["knockout.removals"] = (s.count("knockout.removals", "knockout.trace.attack"), "count")
    _timing(m, "knockout.classify_ms", s.durations("knockout.classify"), 1e3, "ms")

    ko_main = name == "knockout"
    jobs1 = s.main if ko_main else ["probe:knockout"]
    jobs2 = sorted(r for r in s.by_run if r.startswith("jobs2:")) if ko_main else ["probe:knockout:jobs2"]
    t1 = s.per_run_total("parallel.run_tasks", jobs1)
    t2 = s.per_run_total("parallel.run_tasks", jobs2)
    m["parallel.run_tasks_s.jobs1"] = (t1, "s")
    m["parallel.run_tasks_s.jobs2"] = (t2, "s")
    m["parallel.speedup"] = (t1 / t2, "ratio")

    _timing(m, "lgd.enumerate_impacts_s", s.durations("lgd.enumerate_impacts"), 1.0, "s")
    main_cascades = [r for r in s.main if {"lgd.enumerate_impacts", "lgd.fine_grid"} & set(s.by_run[r])]
    cascade_runs = main_cascades or s.source("lgd.enumerate_impacts")
    cascades = counts[cascade_runs[0]]["lgd.cascades"]
    kernel = (s.per_run_total("lgd.enumerate_impacts", cascade_runs)
              + s.per_run_total("lgd.fine_grid", cascade_runs))
    m["lgd.cascades"] = (cascades, "count")
    m["lgd.cascade_ms"] = (kernel / cascades * 1e3, "ms")
    m["lgd.fine_grid_s"] = (s.per_run_total("lgd.fine_grid"), "s")
    m["lgd.rounds_total"] = (s.count("lgd.rounds_total", "lgd.fine_grid"), "count")

    # The CLI's own time: argparse, glue between layers, output formatting and
    # writing, i.e. the part of each main run's cli.main span no layer span covers.
    m["cli.self_s"] = (statistics.median(
        own for (span, _, _, _, run), own in zip(spans, s.own) if span == "cli.main" and run in s.main), "s")
    m["cli.output_bytes"] = (pairs[0][2], "count")
    m["trace.overhead_s"] = (statistics.median(traced - plain for plain, traced, _ in pairs), "s")

    document = {
        "self_time_s": s.self_times(s.main),
        "counts": counts,
        "spans": spans,
    }
    return m, document
