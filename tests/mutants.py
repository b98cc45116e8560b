"""Mutation gate: every hand-made fault below must fail its test selection.

Run from anywhere, with numpy, pytest and hypothesis installed:

    python tests/mutants.py            # every row
    python tests/mutants.py NAME ...   # the named rows only

Each row of ``MUTANTS`` names a src file, an exact old text, the new text
that breaks it, and the narrowest test selection that should catch the
fault (node ids under ``tests/``). For each row the script copies
``src``, ``tests``, ``perfbench``, ``pyproject.toml`` and ``README.md``
(which ``test_readme.py`` reads) to a temporary directory, replaces the
old text, which must occur exactly once, and runs pytest on the selection
there under a fixed Hypothesis seed. A row is caught when pytest reports
a failed test. The script exits 1 if any row is not caught: a survivor
means a test is missing, and an old text that is gone or repeated means
the table must follow a refactor. It first runs the chosen rows'
selections on an unchanged copy, and they must pass there. The file
sits outside pytest's ``test_*.py`` collection, so tier-1 does not run it.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent
COPIED = ("src", "tests", "perfbench", "pyproject.toml", "README.md")
TIMEOUT_S = 300


class Mutant(NamedTuple):
    name: str
    path: str
    old: str
    new: str
    selection: tuple[str, ...]


MUTANTS = (
    # The first ten were checked by hand before this gate existed.
    Mutant("cascade-threshold-inclusive", "src/finnet/lgd.py",
           "newly = (loss > bar[moving]) & ~held", "newly = (loss >= bar[moving]) & ~held",
           ("test_lgd.py::test_cascade_zero_thresholds_spare_unexposed",
            "test_lgd.py::test_kernel_rows_match_oracle_and_single_runs")),
    Mutant("worst5-count-floored", "src/finnet/lgd.py",
           "top = float(impacts.max()), max(1, math.ceil(0.05 * impacts.size))",
           "top = float(impacts.max()), max(1, int(0.05 * impacts.size))",
           ("test_lgd.py::test_enumerate_impacts_matches_unseeded_oracle",)),
    Mutant("rewiring-occupancy-without-diagonal", "src/finnet/nullmodels.py",
           "tuple(map(tuple, (self.base.adj | np.eye(n, dtype=bool)).tolist()))",
           "tuple(map(tuple, self.base.adj.tolist()))",
           ("test_nullmodels.py::test_rewired_directed_three_cycle_unchanged",
            "test_nullmodels.py::test_rewired_matches_oracle_exactly")),
    Mutant("rewiring-vacated-cell-left-occupied", "src/finnet/nullmodels.py",
           "            row1[b] = False\n", "",
           ("test_nullmodels.py::test_rewired_two_edge_graph_reaches_both_configurations",
            "test_nullmodels.py::test_rewired_matches_oracle_exactly")),
    Mutant("capped-counts-keep-diagonal", "src/finnet/metrics.py",
           "c2 = np.count_nonzero(le2) - np.count_nonzero(le2.diagonal()) - c1",
           "c2 = np.count_nonzero(le2) - c1",
           ("test_metrics.py::test_capped_measures_small_graphs_against_enumeration",)),
    Mutant("assortativity-target-out-degree", "src/finnet/metrics.py",
           "x, y = out_deg[srcs], in_deg[dsts]", "x, y = out_deg[srcs], out_deg[dsts]",
           ("test_metrics.py::test_assortativity_against_pearson_oracle",)),
    Mutant("attack-ties-take-first", "src/finnet/knockout.py",
           "victim = best[0] if len(best) == 1 else best[int(rng.integers(len(best)))]", "victim = best[0]",
           ("test_knockout.py::test_attack_target_tie_frequency",
            "test_knockout.py::test_shared_cache_traces_match_shrinking_matrix_oracle")),
    Mutant("classify-below-inclusive", "src/finnet/knockout.py",
           "    if value < lower:", "    if value <= lower:",
           ("test_knockout.py::test_ci_compare_deterministic_null_within",)),
    Mutant("coverage-summed-pairwise", "src/finnet/ingest.py",
           "holders_total = float(np.cumsum(values)[-1])", "holders_total = float(values.sum())",
           ("test_ingest.py::test_coverage_sums_the_holders_in_file_order",)),
    Mutant("ci-table-score-over-two-years-at-least", "src/finnet/knockout.py",
           'score = (counts["above"] - counts["below"]) / years',
           'score = (counts["above"] - counts["below"]) / max(years, 2)',
           ("test_knockout.py::test_ci_table_all_below_scores_minus_one",)),
    # The CLI's flag checks.
    Mutant("cli-checked-ignores-ok", "src/finnet/cli.py",
           "            if ok is not None and not ok(value):", "            if False:",
           ("test_cli.py::test_swap_factor_runs_at_its_bound_and_exits_2_above",
            "test_cli.py::test_bad_cascade_and_year_flags_exit_2")),
    Mutant("cli-command-drops-check", "src/finnet/cli.py",
           "parser.set_defaults(func=func, check=check)", "parser.set_defaults(func=func, check=None)",
           ("test_cli.py::test_grid_flags_exit_2_exactly_when_sweep_grid_raises",
            "test_cli.py::test_bad_cascade_and_year_flags_exit_2")),
    # ci_compare's settle rule.
    Mutant("settled-lower-tail-one-short", "src/finnet/knockout.py",
           "math.floor((finite - 1) * alpha / 2) + 2", "math.floor((finite - 1) * alpha / 2) + 1",
           ("test_knockout.py::test_settled_positions_hold_for_every_completion",)),
    Mutant("settled-upper-tail-one-short", "src/finnet/knockout.py",
           "finite - math.ceil((finite - 1) * (1 - alpha / 2)) + 1",
           "finite - math.ceil((finite - 1) * (1 - alpha / 2))",
           ("test_knockout.py::test_settled_positions_hold_for_every_completion",)),
    Mutant("settled-ignores-unseen-draws", "src/finnet/knockout.py",
           "finite = samples - int(np.isnan(seen).sum())", "finite = len(seen) - int(np.isnan(seen).sum())",
           ("test_knockout.py::test_settled_positions_hold_for_every_completion",)),
    # The ensemble runner.
    Mutant("runner-stop-sees-only-the-stage", "src/finnet/knockout.py",
           "stop(i, rows[i][:end])", "stop(i, rows[i][start:end])",
           ("test_knockout.py::test_run_tasks_rows_are_serial_prefixes_cut_into_balanced_tasks",)),
    Mutant("runner-drops-stage-offset", "src/finnet/knockout.py",
           "range(start + size * k // n, start + size * (k + 1) // n)", "range(size * k // n, size * (k + 1) // n)",
           ("test_knockout.py::test_run_tasks_rows_are_serial_prefixes_cut_into_balanced_tasks",)),
    Mutant("runner-ignores-shared", "src/finnet/knockout.py",
           "max(idle, 1 if shared[i] else -(-size // SPEC_BLOCK))", "max(idle, -(-size // SPEC_BLOCK))",
           ("test_knockout.py::test_run_tasks_rows_are_serial_prefixes_cut_into_balanced_tasks",)),
    # The log-normal generator that the null model and the sigma correction share.
    Mutant("censor-floor-inclusive", "src/finnet/nullmodels.py",
           "s = np.where(s < censor_floor, 0.0, s)", "s = np.where(s <= censor_floor, 0.0, s)",
           ("test_nullmodels.py::test_censor_floor_keeps_a_draw_equal_to_it",)),
    Mutant("draw-skips-rounding", "src/finnet/nullmodels.py",
           "    if rounding:\n        s = np.rint(s)\n", "",
           ("test_nullmodels.py::test_sample_lognormal_nonnegative",
            "test_nullmodels.py::test_sigma_correction_matches_per_trial_refits")),
    # Checks that refuse a spec or a flag pair when it is made.
    Mutant("lognormal-spec-accepts-another-rule", "src/finnet/nullmodels.py",
           'if self.kind == "log-normal" and (self.rule.label', "if False and (self.rule.label",
           ("test_nullmodels.py::test_null_spec_refuses_a_rule_or_fit_that_does_not_describe_base",)),
    Mutant("ranking-out-may-name-the-out-file", "src/finnet/cli.py",
           'raise ValueError(f"--ranking-out {args.ranking_out} names the --out file")', "pass",
           ("test_cli.py::test_ranking_out_naming_the_out_file_exits_2",)),
    Mutant("block-field-count-unchecked", "src/finnet/ingest.py",
           'raise ValueError("a row has the wrong field count")', "pass",
           ("test_ingest.py::test_rows_whose_field_counts_cancel_are_rejected",)),
    # Fast paths and the referees that pin them.
    Mutant("cascade-skips-tie-pass", "src/finnet/lgd.py",
           "exact = assets.sum() < 2.0**53 and np.array_equal(assets, np.rint(assets))", "exact = True",
           ("test_lgd.py::test_cascade_decides_float_ties_on_the_correctly_rounded_sum",)),
    Mutant("enumerate-seeds-from-spec-0", "src/finnet/lgd.py",
           "subset_finals[subset[combo] * s + which]", "subset_finals[subset[combo] * s]",
           ("test_lgd.py::test_enumerate_impacts_of_many_specs_matches_oracle_per_spec",)),
    Mutant("rule-a-inclusive", "src/finnet/netbuild.py",
           "adj = slice_.assets > row_mean[:, None]", "adj = slice_.assets >= row_mean[:, None]",
           ("test_netbuild.py::test_rule_a_tie_produces_no_edge",
            "test_netbuild.py::test_threshold_rule_matches_the_cell_loop_oracle")),
    Mutant("edges-in-index-order", "src/finnet/netbuild.py",
           "return sorted((self.countries[i], self.countries[j]) for i, j in zip(rows, cols))",
           "return [(self.countries[i], self.countries[j]) for i, j in zip(rows, cols)]",
           ("test_netbuild.py::test_export_rows_sorted_by_holder_and_issuer",)),
    Mutant("out-degree-prob-as-row", "src/finnet/nullmodels.py",
           "(self.base.out_degrees() / (n - 1))[:, None]", "(self.base.out_degrees() / (n - 1))[None, :]",
           ("test_nullmodels.py::test_outdegree_degenerate_and_moments",
            "test_nullmodels.py::test_null_spec_sample_is_the_family_sampler_on_child_rng")),
    Mutant("sigma-refit-over-num-obs", "src/finnet/nullmodels.py",
           "np.sqrt(rss / (num_obs - (2 * n - 1)))", "np.sqrt(rss / num_obs)",
           ("test_nullmodels.py::test_sigma_correction_no_censoring_is_unity",
            "test_nullmodels.py::test_sigma_correction_matches_per_trial_refits")),
    Mutant("issuer-pin-on-country-1", "src/finnet/nullmodels.py",
           "beta=np.insert(theta[n:], 0, 0.0)", "beta=np.insert(theta[n:], 1, 0.0)",
           ("test_nullmodels.py::test_fit_lognormal_keeps_unsorted_slice_order",)),
    Mutant("clustering-reciprocity-halved", "src/finnet/metrics.py",
           "(d_total - 1.0) - 2.0 * w2.diagonal()", "(d_total - 1.0) - w2.diagonal()",
           ("test_metrics.py::test_clustering_hand_values", "test_metrics.py::test_clustering_against_oracle")),
)


def pytest_exit(selection: tuple[str, ...], mutant: Mutant | None = None) -> tuple[int, str]:
    """pytest's exit code and last line for ``selection`` on a fresh copy,
    with ``mutant`` applied if given; exit -1 when it could not run."""
    with tempfile.TemporaryDirectory(prefix="finnet-mutant-") as tmp:
        for name in COPIED:
            source, target = ROOT / name, Path(tmp) / name
            if source.is_dir():
                shutil.copytree(source, target, ignore=shutil.ignore_patterns("__pycache__", ".hypothesis", "out"))
            else:
                shutil.copy2(source, target)
        if mutant is not None:
            path = Path(tmp) / mutant.path
            text = path.read_text()
            if text.count(mutant.old) != 1:
                return -1, f"old text found {text.count(mutant.old)} times in {mutant.path}"
            path.write_text(text.replace(mutant.old, mutant.new))
        env = {**os.environ, "PYTHONPATH": str(Path(tmp) / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
        command = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", "--hypothesis-seed=1",
                   *(f"tests/{test}" for test in selection)]
        try:
            done = subprocess.run(command, cwd=tmp, env=env, capture_output=True, text=True, timeout=TIMEOUT_S)
        except subprocess.TimeoutExpired:
            return -1, f"ran over {TIMEOUT_S} s"
        return done.returncode, (done.stdout.strip().splitlines() or ["no output"])[-1]


def main(names: list[str]) -> int:
    unknown = set(names) - {m.name for m in MUTANTS}
    if unknown:
        print(f"unknown mutants: {', '.join(sorted(unknown))}", file=sys.stderr)
        return 2
    rows = [m for m in MUTANTS if not names or m.name in names]
    # A selection that fails on the unchanged code would make every mutant look caught.
    code, last = pytest_exit(tuple(dict.fromkeys(test for m in rows for test in m.selection)))
    print(f"unmutated selections: {last}", flush=True)
    if code != 0:
        return 1
    failures = 0
    for mutant in rows:
        start = time.perf_counter()
        code, last = pytest_exit(mutant.selection, mutant)
        failures += code != 1
        print(f"{'caught' if code == 1 else 'FAIL  '} {mutant.name} ({time.perf_counter() - start:.1f} s)"
              + ("" if code == 1 else f": pytest exit {code}, {last}"), flush=True)
    print(f"{failures} of {len(rows)} mutants not caught")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
