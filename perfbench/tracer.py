"""Traced finnet runs: spans and counts at each layer boundary, recorded from outside.

Run as a child process, ``python3 tracer.py JOB.json``: it imports finnet,
wraps the public functions each command calls (in the namespaces the
command looks them up in), runs ``finnet.cli.main`` once per job entry,
and writes every span and count to the job's output file when it ends.
Spans stay in memory until then. Nothing inside finnet changes: a
wrapper only opens a span around the original call and counts its
result after the span closes.

A span is ``[name, start, end, parent, run]``: perf_counter seconds, the
index of the enclosing span (-1 at the root) and the run id of the
``cli.main`` call it belongs to.
"""

from __future__ import annotations

import functools
import json
import math
import sys
import time
from collections import defaultdict
from contextlib import contextmanager

# A knockout trace calls modified_aspl_adj once per removal; only calls
# on graphs of at least this many nodes are spanned, so the metric is the
# cost at the paper's n of about 60 rather than an average over shrinking graphs.
ASPL_SPAN_MIN_N = 50


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.run = ""
        self.counts: dict[str, dict[str, float]] = defaultdict(lambda: defaultdict(float))

    @contextmanager
    def span(self, name: str):
        index = len(self.spans)
        record = [name, 0.0, 0.0, self.stack[-1] if self.stack else -1, self.run]
        self.spans.append(record)
        self.stack.append(index)
        record[1] = time.perf_counter()
        try:
            yield
        finally:
            record[2] = time.perf_counter()
            self.stack.pop()

    def inside(self, prefix: str) -> bool:
        return any(self.spans[i][0].startswith(prefix) for i in self.stack)

    def add(self, key: str, value: float = 1.0) -> None:
        self.counts[self.run][key] += value

    def put(self, key: str, value: float) -> None:
        self.counts[self.run][key] = value

    def low(self, key: str, value: float) -> None:
        counts = self.counts[self.run]
        counts[key] = min(counts.get(key, math.inf), value)


def _wrap(tracer: Tracer, owner, attr: str, name, after=None) -> None:
    fn = getattr(owner, attr)

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        with tracer.span(name(args) if callable(name) else name):
            result = fn(*args, **kwargs)
        if after is not None:
            after(args, result)
        return result

    setattr(owner, attr, traced)


def install(tracer: Tracer):
    """Wrap finnet's layer entry points; returns the finnet.cli module."""
    import finnet.cli as cli
    import finnet.knockout as knockout
    import finnet.lgd as lgd
    import finnet.nullmodels as nullmodels
    from finnet.metrics import MEASURE_NAMES
    from finnet.netbuild import ThresholdRule

    def rows_read(args, panel):
        tracer.add("ingest.rows", len(panel))

    def coverage(args, slice_):
        tracer.low("ingest.coverage_min", slice_.coverage)

    def edges(args, net):
        # The command builds each (year, rule) network several times; count it once.
        if not tracer.inside("nullmodels."):
            tracer.put(f"netbuild.edges.{args[0].label[0]}.{net.source_year}", net.num_edges)

    def undefined(args, vector):
        for name, value in zip(MEASURE_NAMES, vector.as_array()):
            tracer.add(f"metrics.nan.{name}", float(math.isnan(value)))

    def rewired(args, net):
        spec = args[0]
        if spec.kind != "rewiring":
            return
        base = spec.base.adj
        tracer.add("nullmodels.swap_attempts", spec.swap_factor * int(base.sum()))
        tracer.add("nullmodels.rewiring.samples")
        tracer.add("nullmodels.rewiring.moved_share", float((base & ~net.adj).sum() / max(1, base.sum())))

    def removals(args, trace):
        tracer.add("knockout.removals", len(trace.removal_order))

    def impacts(args, summaries):
        tracer.add("lgd.cascades", sum(s.n_combos for s in summaries))

    def cells(args, grid):
        tracer.add("lgd.cascades", len(grid))
        tracer.add("lgd.rounds_total", sum(c.rounds for c in grid))

    _wrap(tracer, cli, "read_asset_file", "ingest.parse", rows_read)
    _wrap(tracer, cli, "read_gdp_file", "ingest.parse")
    _wrap(tracer, cli, "core_slice", "ingest.core_slice", coverage)
    _wrap(tracer, ThresholdRule, "apply", "netbuild.apply", edges)
    _wrap(tracer, cli, "child_seed", "seeding.child_seed")
    _wrap(tracer, knockout, "child_seed", "seeding.child_seed")
    _wrap(tracer, nullmodels, "child_rng", "seeding.child_rng")
    _wrap(tracer, cli, "fit_lognormal", "nullmodels.fit_lognormal")
    _wrap(tracer, nullmodels.NullModelSpec, "sample", lambda args: f"nullmodels.sample.{args[0].kind}", rewired)
    _wrap(tracer, cli, "measure_vector", "metrics.measure_vector")
    _wrap(tracer, knockout, "measure_vector", "metrics.measure_vector", undefined)
    _wrap(tracer, cli, "ci_compare", "knockout.ci_compare")
    _wrap(tracer, knockout, "classify_position", "knockout.classify")
    _wrap(tracer, cli, "ci_table", "knockout.ci_table")
    _wrap(tracer, cli, "ensemble_knockout", "knockout.ensemble")
    _wrap(tracer, knockout, "run_knockout", lambda args: f"knockout.trace.{args[1]}", removals)
    _wrap(tracer, knockout, "run_tasks", "parallel.run_tasks")
    _wrap(tracer, cli, "sweep_grid", "lgd.sweep_grid")
    _wrap(tracer, lgd, "enumerate_impacts", "lgd.enumerate_impacts", impacts)
    _wrap(tracer, cli, "severity_sorted", "lgd.severity_sorted")
    _wrap(tracer, cli, "fine_grid", "lgd.fine_grid", cells)

    aspl = knockout.modified_aspl_adj

    @functools.wraps(aspl)
    def traced_aspl(adj):
        if adj.shape[0] < ASPL_SPAN_MIN_N:
            return aspl(adj)
        with tracer.span("metrics.modified_aspl"):
            return aspl(adj)

    knockout.modified_aspl_adj = traced_aspl
    return cli


def main(job_path: str) -> int:
    with open(job_path) as fh:
        job = json.load(fh)
    tracer = Tracer()
    cli = install(tracer)
    codes = {}
    for entry in job["runs"]:
        tracer.run = entry["id"]
        with tracer.span("cli.main"):
            codes[entry["id"]] = cli.main(entry["argv"])
    with open(job["out"], "w") as fh:
        json.dump({"spans": tracer.spans, "counts": tracer.counts, "codes": codes}, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
