"""finnet benchmark: four paper workloads, end-to-end metrics untraced, per-layer metrics traced.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload ci-table --seed 1 --seconds 22 --trace 0

The benchmark writes a seeded synthetic panel, then runs the workload's
finnet command as a fresh process again and again (a closed loop with
one client) until ``--seconds`` have passed, and checks every output.
Times are scaled to a reference machine speed (see spawn).
With ``--trace 1`` it instead alternates untraced and traced runs of the
same command and reports per-layer metrics (see tracer.py). The last
line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import random
import select
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from collections import Counter
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import layers
import panel
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
BASELINE = HERE / "baseline.json"

SETUP_REPS = 7
MIN_REPS = 3
CHILD_TIMEOUT_S = 150
ALL_CPUS = sorted(os.sched_getaffinity(0))
# How often a gauged process is paused to time gauge_seconds(), in seconds of its running time.
GAUGE_PERIOD_S = 0.1
# Seconds gauge_seconds() takes on an idle machine of the kind baseline.json records.
REFERENCE_S = 0.007

SETUP_CODE = """
import json, sys
import finnet.cli
from finnet.ingest import core_slice, read_asset_file, read_gdp_file
assets, gdp = read_asset_file(sys.argv[1]), read_gdp_file(sys.argv[2])
sizes = {year: core_slice(assets, gdp, int(year)).n for year in sys.argv[3].split(",")}
print(json.dumps({"module": finnet.cli.__file__, "n": sizes}))
"""


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    # One BLAS/OpenMP thread per process: no workload uses more busy threads than nproc.
    env["OPENBLAS_NUM_THREADS"] = "1"
    env["OMP_NUM_THREADS"] = "1"
    return env


@dataclass
class Proc:
    rc: int
    wall_s: float
    cpu_s: float
    rss_mb: float
    stdout: bytes
    speed: float = 1.0


def gauge_seconds() -> float:
    """Time one short fixed task that does not involve finnet.

    It mixes the two kinds of work finnet's kernels do: edge swaps on a
    Python set (as in rewiring) and small numpy masked sums (as in a
    cascade round).
    """
    start = time.perf_counter()
    rng = random.Random(0)
    edges = [(rng.randrange(60), rng.randrange(60)) for _ in range(700)]
    present = set(edges)
    for _ in range(3000):
        i, j = rng.randrange(700), rng.randrange(700)
        (a, b), (c, d) = edges[i], edges[j]
        if a == d or c == b or (a, d) in present or (c, b) in present:
            continue
        present -= {(a, b), (c, d)}
        present |= {(a, d), (c, b)}
        edges[i], edges[j] = (a, d), (c, b)
    weights = np.random.default_rng(0).random((60, 60))
    mask = np.zeros(60, dtype=bool)
    for k in range(150):
        mask[k % 60] = True
        mask |= weights[:, mask].sum(axis=1) > 5.0
    return time.perf_counter() - start


def _signal_group(pgid: int, sig: int) -> None:
    try:
        os.killpg(pgid, sig)
    except ProcessLookupError:
        pass


def cpus(workers: int) -> set[int]:
    """The CPUs a command with this many busy processes is pinned to: the last ``workers`` of ours."""
    return set(ALL_CPUS[-min(workers, len(ALL_CPUS)):])


def machine_speed(on: set[int]) -> float:
    """REFERENCE_S / gauge_seconds(), averaged over the given CPUs (the gauge runs on each in turn).

    The CPUs of this machine do not slow down together: a gauge timed on
    one CPU said nothing about a command running on the other.
    """
    speeds = []
    try:
        for cpu in sorted(on):
            os.sched_setaffinity(0, {cpu})
            speeds.append(REFERENCE_S / gauge_seconds())
    finally:
        os.sched_setaffinity(0, ALL_CPUS)
    return statistics.mean(speeds)


def spawn(cmd: list[str], work: Path, gauge: bool = False, workers: int = 1) -> Proc:
    """Run one process (in a process group of its own) to completion.

    Wall time runs from spawn to exit; CPU time and peak RSS are the
    rusage of its tree. With ``gauge``, the process is pinned to
    cpus(workers), and every GAUGE_PERIOD_S of its running time the
    whole group is stopped, machine_speed() is taken on those CPUs while
    nothing else of the benchmark runs, and the group continues: the
    paused time is left out of the wall time, and ``speed`` is the mean
    of those speeds, the machine's speed during the run relative to an
    idle one.
    """
    pinned = cpus(workers)
    with open(work / "stdout", "wb") as out, open(work / "stderr", "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, env=child_env(), stdout=out, stderr=err, cwd=work,
                                start_new_session=True)
        if gauge:
            try:
                os.sched_setaffinity(proc.pid, pinned)
            except ProcessLookupError:
                pass
        pidfd = os.pidfd_open(proc.pid)
        paused, speeds, status = 0.0, [], None
        try:
            while not select.select([pidfd], [], [], GAUGE_PERIOD_S if gauge else CHILD_TIMEOUT_S)[0]:
                if not gauge or time.perf_counter() - start > CHILD_TIMEOUT_S:
                    _signal_group(proc.pid, signal.SIGKILL)
                    break
                pause = time.perf_counter()
                _signal_group(proc.pid, signal.SIGSTOP)
                try:
                    speeds.append(machine_speed(pinned))
                finally:
                    _signal_group(proc.pid, signal.SIGCONT)
                paused += time.perf_counter() - pause
            wall = time.perf_counter() - start - paused
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            os.close(pidfd)
            if status is None:
                _signal_group(proc.pid, signal.SIGKILL)
                _signal_group(proc.pid, signal.SIGCONT)
                proc.wait()
    proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.returncode != 0:
        sys.stderr.write((work / "stderr").read_text(errors="replace")[-2000:])
    if gauge and not speeds:
        speeds.append(machine_speed(pinned))
    return Proc(proc.returncode, wall, usage.ru_utime + usage.ru_stime,
                usage.ru_maxrss / 1024.0, (work / "stdout").read_bytes(),
                statistics.mean(speeds) if speeds else 1.0)


def finnet_cmd(args: list[str]) -> list[str]:
    return [sys.executable, "-m", "finnet.cli", *args]


def sha256(payload: bytes) -> str:
    return hashlib.sha256(payload).hexdigest()


def load_baseline() -> dict:
    return json.loads(BASELINE.read_text()) if BASELINE.is_file() else {}


class Ledger:
    """Every process the benchmark starts, and whether it failed; nothing is dropped or retried."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def record(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.problems.append(what)

    def note(self, problem: str) -> None:
        self.problems.append(problem)


def judge_outputs(name: str, sizes: workloads.Sizes, runs: list[tuple[int, bytes]],
                  references: dict[str, str]) -> list[str | None]:
    """Per run, None when it passed or the reason it failed.

    A run fails when it exited non-zero, when its bytes differ from a
    reference digest or from the bytes most of the other runs produced,
    or when the output breaks the command's invariants.
    """
    digests = [sha256(payload) for _, payload in runs]
    consensus = Counter(d for (rc, _), d in zip(runs, digests) if rc == 0).most_common(1)
    shape_ok: dict[str, str | None] = {}
    verdicts: list[str | None] = []
    for (rc, payload), digest in zip(runs, digests):
        if rc != 0:
            verdicts.append(f"exit code {rc}")
            continue
        if digest not in shape_ok:
            try:
                workloads.check_output(name, sizes, payload)
                shape_ok[digest] = None
            except (ValueError, IndexError, UnicodeDecodeError) as exc:
                shape_ok[digest] = f"output check: {exc}"
        mismatch = [label for label, ref in references.items() if ref != digest]
        if shape_ok[digest]:
            verdicts.append(shape_ok[digest])
        elif mismatch:
            verdicts.append(f"bytes differ from {', '.join(mismatch)}")
        elif consensus and digest != consensus[0][0]:
            verdicts.append("bytes differ from the other repetitions")
        else:
            verdicts.append(None)
    return verdicts


class Bench:
    """One benchmark invocation: a workload, a seed, a work directory and its ledger."""

    def __init__(self, name: str, seed: int, sizes: workloads.Sizes, work: Path) -> None:
        self.name, self.seed, self.sizes, self.work = name, seed, sizes, work
        self.ledger = Ledger()
        self.assets, self.gdp = panel.write(seed, work)
        self.out = work / "out.csv"
        baseline = load_baseline()
        self.references = {}
        recorded = baseline.get("digests", {}).get(name, {}).get(str(seed))
        if sizes == workloads.FULL and recorded:
            self.references["recorded digest"] = recorded
        panel_digest = baseline.get("panel", {}).get("sha256", {}).get(str(seed))
        if panel_digest and panel_digest != sha256(self.assets.read_bytes() + self.gdp.read_bytes()):
            self.ledger.note(f"panel for seed {seed} differs from the recorded panel")

    def argv(self, jobs: int | None = None, out: Path | None = None) -> list[str]:
        return workloads.argv(self.name, self.sizes, str(self.assets), str(self.gdp),
                              str(out or self.out), jobs)

    def workers(self, jobs: int | None) -> int:
        """Busy processes of the command: knockout's --jobs, one for the serial commands."""
        if self.name != "knockout":
            return 1
        return self.sizes.ko_jobs if jobs is None else jobs

    def command(self, jobs: int | None = None, gauge: bool = False) -> tuple[Proc, bytes]:
        if self.out.exists():
            self.out.unlink()
        proc = spawn(finnet_cmd(self.argv(jobs)), self.work, gauge, self.workers(jobs))
        return proc, self.out.read_bytes() if self.out.exists() else b""

    def setup_seconds(self) -> list[float]:
        """Fresh-process set-up: interpreter, import finnet, parse both CSVs, build the core slices."""
        years = workloads.years(self.name, self.sizes)
        walls = []
        for _ in range(SETUP_REPS):
            proc = spawn([sys.executable, "-c", SETUP_CODE, str(self.assets), str(self.gdp),
                          ",".join(str(y) for y in years)], self.work, gauge=True)
            proc.wall_s *= proc.speed
            ok = proc.rc == 0
            if ok:
                info = json.loads(proc.stdout)
                ok = Path(info["module"]).resolve().is_relative_to(SRC) and all(
                    info["n"][str(y)] == panel.core_size(y) for y in years)
            self.ledger.record(ok, "set-up probe failed or imported finnet from outside the checkout")
            walls.append(proc.wall_s)
        return walls

    def judge(self, runs: list[tuple[int, bytes]], references: dict[str, str]) -> None:
        for verdict in judge_outputs(self.name, self.sizes, runs, references):
            self.ledger.record(verdict is None, f"{self.name}: {verdict}")

    def jobs1_reference(self) -> dict[str, str]:
        """On knockout, the bytes of a --jobs 1 run every --jobs 2 run must reproduce."""
        if self.name != "knockout":
            return {}
        proc, payload = self.command(jobs=1)
        self.judge([(proc.rc, payload)], self.references)
        return {"the --jobs 1 output": sha256(payload)}

    def end_to_end(self, seconds: float) -> dict[str, tuple[float, str]]:
        references = {**self.references, **self.jobs1_reference()}
        setup = self.setup_seconds()
        procs, runs, raw_walls = [], [], []
        start = time.perf_counter()
        while len(procs) < MIN_REPS or time.perf_counter() - start < seconds:
            proc, payload = self.command(gauge=True)
            raw_walls.append(proc.wall_s)
            proc.wall_s *= proc.speed
            proc.cpu_s *= proc.speed
            procs.append(proc)
            runs.append((proc.rc, payload))
        self.judge(runs, references)
        print(f"{len(procs)} runs, unscaled median wall {statistics.median(raw_walls):.4f} s, median speed "
              f"{statistics.median(p.speed for p in procs):.4f}", file=sys.stderr)
        items = workloads.items(self.name, self.sizes)
        return {
            "wall_s": (statistics.median(p.wall_s for p in procs), "s"),
            "items_per_s": (statistics.median(items / p.wall_s for p in procs), "1/s"),
            "cpu_s": (statistics.median(p.cpu_s for p in procs), "s"),
            "setup_s": (statistics.median(setup), "s"),
            "peak_rss_mb": (statistics.median(p.rss_mb for p in procs), "MB"),
        }

    def traced(self, runs: list[tuple[str, list[str]]]) -> dict:
        """Run finnet commands in one traced child process; its spans, counts and exit codes."""
        tag = runs[0][0].replace(":", "-")
        job, result = self.work / f"job-{tag}.json", self.work / f"trace-{tag}.json"
        job.write_text(json.dumps({"out": str(result), "runs": [{"id": i, "argv": a} for i, a in runs]}))
        proc = spawn([sys.executable, str(HERE / "tracer.py"), str(job)], self.work)
        trace = json.loads(result.read_text()) if proc.rc == 0 and result.exists() else {"spans": [], "counts": {}}
        trace["codes"] = {i: trace.get("codes", {}).get(i, proc.rc or 1) for i, _ in runs}
        trace["wall_s"] = proc.wall_s
        return trace

    def traced_command(self, run_id: str, jobs: int | None) -> tuple[dict, bytes]:
        out = self.work / "traced.csv"
        if out.exists():
            out.unlink()
        trace = self.traced([(run_id, self.argv(jobs, out))])
        return trace, out.read_bytes() if out.exists() else b""

    def trace(self, seconds: float) -> tuple[dict[str, tuple[float, str]], dict]:
        """Alternate untraced and traced runs of the command, then probe the layers it never reaches."""
        jobs = 1 if self.name == "knockout" else None
        spans: list = []
        counts: dict = {}
        pairs: list[tuple[float, float, int]] = []
        start = time.perf_counter()
        while not pairs or time.perf_counter() - start < seconds:
            i = len(pairs)
            plain, plain_bytes = self.command(jobs)
            trace, traced_bytes = self.traced_command(f"main:{i}", jobs)
            runs = [(plain.rc, plain_bytes), (trace["codes"][f"main:{i}"], traced_bytes)]
            layers.merge(spans, counts, trace)
            if self.name == "knockout":
                # --jobs 2, untraced and traced (for the parallel layer): both must give the --jobs 1 bytes.
                jobs2, jobs2_bytes = self.command(2)
                trace2, traced2_bytes = self.traced_command(f"jobs2:{i}", 2)
                runs += [(jobs2.rc, jobs2_bytes), (trace2["codes"][f"jobs2:{i}"], traced2_bytes)]
                layers.merge(spans, counts, trace2)
            self.judge(runs, {**self.references, "the traced run": sha256(traced_bytes)})
            pairs.append((plain.wall_s, trace["wall_s"], len(plain_bytes)))
        probes = []
        for other in workloads.NAMES:
            if other == self.name:
                continue
            for probe_jobs in (1, 2) if other == "knockout" else (1,):
                run_id = f"probe:{other}" + (":jobs2" if probe_jobs == 2 else "")
                out = self.work / f"{run_id.replace(':', '-')}.csv"
                probes.append((run_id, workloads.argv(other, workloads.PROBE, str(self.assets),
                                                      str(self.gdp), str(out), probe_jobs)))
        probe_trace = self.traced(probes)
        for run_id, _ in probes:
            self.ledger.record(probe_trace["codes"][run_id] == 0, f"{run_id} exited non-zero")
        layers.merge(spans, counts, probe_trace)
        return layers.per_layer(self.name, spans, counts, pairs)


def check_checkout() -> None:
    if not (SRC / "finnet" / "cli.py").is_file():
        sys.exit(f"error: {SRC / 'finnet' / 'cli.py'} not found; run from the root of a finnet checkout")


def run(name: str, seed: int, seconds: float, trace: bool, sizes: workloads.Sizes = workloads.FULL) -> dict:
    check_checkout()
    OUT.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{name}-{seed}-", dir=OUT))
    try:
        bench = Bench(name, seed, sizes, work)
        if trace:
            metrics, spans_doc = bench.trace(seconds)
            (OUT / f"trace-{name}-seed{seed}.json").write_text(json.dumps(spans_doc))
            top = list(spans_doc["self_time_s"].items())[:5]
            print("self time: " + ", ".join(f"{span} {secs:.3f}s" for span, secs in top), file=sys.stderr)
        else:
            metrics = bench.end_to_end(seconds)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    for problem in bench.ledger.problems:
        print(f"problem: {problem}", file=sys.stderr)
    return {
        "correct": not bench.ledger.problems,
        "attempted": bench.ledger.attempted,
        "failed": bench.ledger.failed,
        "metrics": {key: {"value": value, "unit": unit} for key, (value, unit) in metrics.items()},
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    # Exit through the finally blocks on SIGTERM, so no child is left running or stopped.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
