import dataclasses
import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from finnet import lgd
from finnet.ingest import AssetSlice
from finnet.lgd import (
    BLOCK_ROWS,
    COARSE_THRESHOLDS,
    LgdSpec,
    cascade,
    cascade_rounds,
    enumerate_impacts,
    fine_grid,
    influence_ranking,
    severity_sorted,
    sweep_grid,
)

from conftest import (
    hand_slice,
    oracle_enumerate_impacts,
    oracle_sequential_cascade,
    oracle_synchronous_rounds,
    random_slice,
)


def test_cascade_hand_example():
    result = cascade(hand_slice(), {"A"}, LgdSpec(0.1, 0.1))
    assert result.defaulted == {"A", "B"}
    assert result.rounds == (frozenset({"B"}),)
    assert result.impact == pytest.approx(2.0 / 3.0)


def test_cascade_thresholds_of_one_stop_everything():
    rng = np.random.default_rng(0)
    for _ in range(20):
        slice_ = random_slice(6, rng)
        result = cascade(slice_, {slice_.countries[0]}, LgdSpec(1.0, 1.0))
        assert result.defaulted == {slice_.countries[0]}
        assert result.impact == pytest.approx(1.0 / 6.0)


def test_cascade_zero_thresholds_default_all_exposed():
    slice_ = hand_slice()
    result = cascade(slice_, {"A"}, LgdSpec(0.0, 0.0))
    # both B and C hold positive positions in A
    assert result.rounds[0] == {"B", "C"}
    assert result.impact == 1.0


def test_cascade_zero_thresholds_spare_unexposed():
    assets = np.zeros((4, 4))
    assets[1, 0] = 5.0  # B holds A; C and D hold nothing in the defaulted set
    assets[2, 3] = 5.0
    slice_ = AssetSlice(2007, ("A", "B", "C", "D"), assets, np.full(4, 100.0), 1.0)
    result = cascade(slice_, {"A"}, LgdSpec(0.0, 0.0))
    assert result.rounds == (frozenset({"B"}),)
    assert result.defaulted == {"A", "B"}


def test_cascade_validates_inputs():
    with pytest.raises(ValueError, match="nonempty"):
        cascade(hand_slice(), set(), LgdSpec(0.1, 0.1))
    with pytest.raises(KeyError, match="ZZ"):
        cascade(hand_slice(), {"ZZ"}, LgdSpec(0.1, 0.1))
    with pytest.raises(ValueError):
        LgdSpec(-0.1, 0.0)
    with pytest.raises(ValueError):
        LgdSpec(0.1, -1.0)
    with pytest.raises(ValueError):
        LgdSpec(0.1, 0.1, 0.0)
    for bad in (float("nan"), float("inf")):
        with pytest.raises(ValueError, match="d2"):
            LgdSpec(0.1, bad)
        with pytest.raises(ValueError, match="d1"):
            LgdSpec(bad, 0.1)


@given(seed=st.integers(0, 10_000))
@settings(max_examples=50, deadline=None)
def test_cascade_monotone_in_initial_set(seed):
    rng = np.random.default_rng(seed)
    slice_ = random_slice(7, rng)
    spec = LgdSpec(float(rng.uniform(0, 0.4)), float(rng.uniform(0, 0.4)))
    base = set(rng.choice(slice_.countries, size=2, replace=False))
    larger = base | {slice_.countries[int(rng.integers(7))]}
    assert cascade(slice_, base, spec).defaulted <= cascade(slice_, larger, spec).defaulted


@given(seed=st.integers(0, 10_000))
@settings(max_examples=50, deadline=None)
def test_cascade_relabeling_equivariance(seed):
    rng = np.random.default_rng(seed)
    slice_ = random_slice(6, rng)
    spec = LgdSpec(float(rng.uniform(0, 0.3)), float(rng.uniform(0, 0.3)))
    perm = rng.permutation(6)
    relabeled = AssetSlice(
        slice_.year,
        tuple(slice_.countries[p] for p in perm),
        slice_.assets[np.ix_(perm, perm)],
        slice_.gdp[perm],
        slice_.coverage,
    )
    initial = {slice_.countries[int(rng.integers(6))]}
    assert cascade(slice_, initial, spec).defaulted == cascade(relabeled, initial, spec).defaulted


@given(seed=st.integers(0, 10_000))
@settings(max_examples=50, deadline=None)
def test_cascade_terminates_within_bound(seed):
    rng = np.random.default_rng(seed)
    slice_ = random_slice(8, rng)
    initial = {slice_.countries[0]}
    result = cascade(slice_, initial, LgdSpec(0.05, 0.05))
    assert result.num_rounds <= slice_.n - len(initial)
    if result.rounds:
        assert all(r for r in result.rounds)  # no empty rounds recorded


def test_cascade_rounds_partition_defaulted():
    rng = np.random.default_rng(1)
    for _ in range(30):
        slice_ = random_slice(7, rng)
        initial = {slice_.countries[0], slice_.countries[3]}
        result = cascade(slice_, initial, LgdSpec(0.1, 0.05))
        union = set(result.initial)
        for round_set in result.rounds:
            assert not (round_set & union)
            union |= round_set
        assert union == result.defaulted
        assert result.impact == pytest.approx(len(result.defaulted) / slice_.n)


def test_cascade_matches_sequential_oracle():
    rng = np.random.default_rng(2)
    for _ in range(200):
        slice_ = random_slice(int(rng.integers(3, 9)), rng)
        d1 = float(rng.uniform(0, 0.5))
        d2 = float(rng.uniform(0, 0.5))
        haircut = float(rng.choice([1.0, 0.5]))
        size = int(rng.integers(1, 3))
        initial = set(rng.choice(slice_.countries, size=size, replace=False))
        synchronous = cascade(slice_, initial, LgdSpec(d1, d2, haircut)).defaulted
        sequential = oracle_sequential_cascade(slice_, initial, d1, d2, haircut, rng)
        assert synchronous == sequential


def test_haircut_equivalence_exact():
    rng = np.random.default_rng(3)
    for haircut in (0.5, 0.25):
        for _ in range(50):
            slice_ = random_slice(6, rng)
            d1 = float(rng.uniform(0, 0.2))
            d2 = float(rng.uniform(0, 0.2))
            initial = {slice_.countries[int(rng.integers(6))]}
            scaled = cascade(slice_, initial, LgdSpec(d1, d2, haircut))
            rescaled = cascade(slice_, initial, LgdSpec(d1 / haircut, d2 / haircut, 1.0))
            assert scaled.defaulted == rescaled.defaulted
            assert scaled.rounds == rescaled.rounds


def codes_of(slice_, selected):
    return frozenset(slice_.countries[i] for i in np.flatnonzero(selected))


@given(
    seed=st.integers(0, 2**32 - 1),
    haircut=st.sampled_from([1.0, 0.5, 0.3]),
    batch=st.sampled_from([BLOCK_ROWS - 1, BLOCK_ROWS, BLOCK_ROWS + 1]),
)
@settings(max_examples=25, deadline=None)
def test_kernel_rows_match_oracle_and_single_runs(seed, haircut, batch):
    rng = np.random.default_rng(seed)
    slice_ = random_slice(int(rng.integers(3, 9)), rng, zero_frac=float(rng.choice([0.3, 0.7])))
    n = slice_.n
    initial = rng.random((batch, n)) < 0.3
    initial[np.arange(batch), rng.integers(n, size=batch)] = True
    d1 = np.where(rng.random(batch) < 0.3, 0.0, rng.uniform(0, 0.5, batch))
    d2 = np.where(rng.random(batch) < 0.3, 0.0, rng.uniform(0, 0.5, batch))
    rounds = cascade_rounds(slice_, initial, d1, d2, haircut)
    assert rounds.shape == (batch, n)
    assert np.array_equal(rounds == 0, initial)
    for b, row in enumerate(rounds):
        start = set(codes_of(slice_, initial[b]))
        single = cascade(slice_, start, LgdSpec(float(d1[b]), float(d2[b]), haircut))
        final = codes_of(slice_, row >= 0)
        assert final == oracle_sequential_cascade(slice_, start, d1[b], d2[b], haircut, rng)
        assert row.max() == single.num_rounds
        trace = tuple(codes_of(slice_, row == r) for r in range(1, row.max() + 1))
        assert trace == single.rounds
        assert list(trace) == oracle_synchronous_rounds(slice_, start, d1[b], d2[b], haircut)
        assert final == single.defaulted


def test_enumerate_impacts_matches_single_cascades_across_blocks():
    slice_ = random_slice(31, np.random.default_rng(11))
    assert 31 * 30 * 29 // 6 > 8 * BLOCK_ROWS  # k = 3 spans two seeding blocks
    spec = LgdSpec(0.05, 0.02, 0.5)
    for summary in enumerate_impacts(slice_, [spec], 3):
        combos = list(itertools.combinations(slice_.countries, summary.k))
        impacts = np.array([cascade(slice_, set(c), spec).impact for c in combos])
        worst = impacts.max()
        top = int(np.ceil(0.05 * len(combos)))
        assert summary.n_combos == len(combos)
        assert summary.mean == impacts.mean()
        assert summary.worst == worst
        assert summary.worst5_mean == np.sort(impacts)[-top:].mean()
        assert summary.argmax == tuple(c for c, v in zip(combos, impacts) if v == worst)


def tie_slice():
    """Six countries with tenth-valued assets: C0's exposure to {C3, C4, C5}
    is 2.9 + 5.7 + 5.9, which a float sum can round to either side of its
    GDP of 14.5 depending on the order of the terms."""
    assets = np.array([
        [0, 5, 0.5, 2.9, 5.7, 5.9],
        [3.2, 0, 8.2, 2.7, 3.5, 7.6],
        [5, 4.4, 0, 5.5, 4, 9.6],
        [2, 7.3, 0.2, 0, 4.8, 7.3],
        [1.8, 7.6, 1.7, 3.4, 0, 6.3],
        [3.1, 1.8, 1.1, 1.1, 1.1, 0],
    ])
    gdp = np.array([14.5, 28.1, 22.1, 10.5, 27, 44.6])
    return AssetSlice(2007, tuple(f"C{i}" for i in range(6)), assets, gdp, 1.0)


def test_cascade_decides_float_ties_on_the_correctly_rounded_sum():
    """At d1 = 0, d2 = 1 the cascade of {C4, C5} meets an exact tie. It ends
    the same way alone, in a batch of all 1-3-member sets and in the
    summing oracles, and enumerate_impacts gives the same summaries at
    every block size."""
    slice_ = tie_slice()
    spec = LgdSpec(0.0, 1.0)
    combos = [c for k in (1, 2, 3) for c in itertools.combinations(slice_.countries, k)]
    assert len(combos) == 41
    initial = np.array([[code in combo for code in slice_.countries] for combo in combos])
    rounds = cascade_rounds(slice_, initial, np.zeros(41), np.ones(41), 1.0)
    rng = np.random.default_rng(0)
    for combo, row in zip(combos, rounds):
        single = cascade(slice_, set(combo), spec)
        assert codes_of(slice_, row >= 0) == single.defaulted
        assert tuple(codes_of(slice_, row == r) for r in range(1, row.max() + 1)) == single.rounds
        assert single.defaulted == oracle_sequential_cascade(slice_, set(combo), 0.0, 1.0, 1.0, rng)
        assert list(single.rounds) == oracle_synchronous_rounds(slice_, set(combo), 0.0, 1.0, 1.0)
    assert cascade(slice_, {"C4", "C5"}, spec).defaulted == {"C3", "C4", "C5"}
    expected = oracle_enumerate_impacts(slice_, spec, 3)
    for block in (1, 3, BLOCK_ROWS):
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(lgd, "BLOCK_ROWS", block)
            assert enumerate_impacts(slice_, [spec], 3) == expected


@st.composite
def whole_or_tenth_slices(draw):
    """Slices of 3-9 countries with whole or one-decimal values and a
    sparse-to-dense zero pattern."""
    n = draw(st.integers(3, 9))
    scale = draw(st.sampled_from([1.0, 10.0]))
    zero_frac = draw(st.sampled_from([0.0, 0.3, 0.6, 0.85]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    assets = rng.integers(1, 100, size=(n, n)) / scale
    assets[rng.random((n, n)) < zero_frac] = 0.0
    np.fill_diagonal(assets, 0.0)
    gdp = rng.integers(10, 500, size=n) / scale
    return AssetSlice(2007, tuple(f"C{i}" for i in range(n)), assets, gdp, 1.0)


@given(
    slice_=whole_or_tenth_slices(),
    d1=st.floats(0.0, 1.0),
    d2=st.floats(0.0, 2.0),
    haircut=st.floats(0.0, 1.0, exclude_min=True),
    k_max=st.integers(1, 3),
)
@settings(max_examples=150, deadline=None)
def test_enumerate_impacts_matches_unseeded_oracle(slice_, d1, d2, haircut, k_max):
    # Blocks of 4 put C(n, k) on both sides of a block boundary, and at low
    # thresholds whole blocks skip the kernel.
    spec = LgdSpec(d1, d2, haircut)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(lgd, "BLOCK_ROWS", 4)
        seeded = enumerate_impacts(slice_, [spec], k_max)
        unseeded = oracle_enumerate_impacts(slice_, spec, k_max)
    assert [s.k for s in seeded] == list(range(1, k_max + 1))
    for got, want in zip(seeded, unseeded, strict=True):
        for field in dataclasses.fields(got):
            assert getattr(got, field.name) == getattr(want, field.name), field.name


@st.composite
def shared_haircut_specs(draw):
    """1-5 specs with one haircut, often holding a repeated spec and a
    spec componentwise above another."""
    haircut = draw(st.floats(0.0, 1.0, exclude_min=True))
    d1 = st.one_of(st.sampled_from([0.0, 0.05, 0.1, 0.25]), st.floats(0.0, 1.0))
    d2 = st.one_of(st.sampled_from([0.0, 0.05, 0.1, 0.25]), st.floats(0.0, 2.0))
    points = draw(st.lists(st.tuples(d1, d2), min_size=1, max_size=3))
    if draw(st.booleans()):
        points.append(draw(st.sampled_from(points)))
    if draw(st.booleans()):
        low1, low2 = draw(st.sampled_from(points))
        points.append((draw(st.floats(low1, 1.0)), draw(st.floats(low2, 2.0))))
    return [LgdSpec(a, b, haircut) for a, b in draw(st.permutations(points))]


@given(
    slice_=whole_or_tenth_slices(),
    specs=shared_haircut_specs(),
    block=st.integers(1, 7),
    k_max=st.integers(1, 3),
)
@settings(max_examples=100, deadline=None)
def test_enumerate_impacts_of_many_specs_matches_oracle_per_spec(slice_, specs, block, k_max):
    # Kernel calls of 1-7 rows, seeded 8-56 rows at a time, split levels and a
    # combination's specs across calls.
    calls = []

    def counting(slice_, initial, d1, d2, haircut):
        calls.append(len(initial))
        return cascade_rounds(slice_, initial, d1, d2, haircut)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(lgd, "BLOCK_ROWS", block)
        patch.setattr(lgd, "cascade_rounds", counting)
        batched = enumerate_impacts(slice_, specs, k_max)
    assert max(calls) <= block
    expected = [s for spec in specs for s in oracle_enumerate_impacts(slice_, spec, k_max)]
    assert [(s.spec, s.k) for s in batched] == [(spec, k) for spec in specs for k in range(1, k_max + 1)]
    for got, want in zip(batched, expected, strict=True):
        for field in dataclasses.fields(got):
            assert getattr(got, field.name) == getattr(want, field.name), field.name


def test_enumerate_impacts_needs_a_spec():
    with pytest.raises(ValueError, match="at least one spec"):
        enumerate_impacts(hand_slice(), [], 1)
    with pytest.raises(ValueError, match="at least one spec"):
        enumerate_impacts(hand_slice(), iter(()), 1)


def test_enumerate_impacts_needs_one_haircut():
    # The kernel scales every row of a call by one haircut.
    specs = [LgdSpec(0.1, 0.1, 0.5), LgdSpec(0.2, 0.1, 0.5), LgdSpec(0.1, 0.1, 1.0)]
    with pytest.raises(ValueError, match="one haircut"):
        enumerate_impacts(hand_slice(), specs, 1)
    assert len(enumerate_impacts(hand_slice(), specs[:2], 1)) == 2


def test_enumerate_impacts_skips_rows_inside_a_subset_cascade(monkeypatch):
    # A pulls B down, and C pulls B down; nothing pulls A or C down.
    slice_ = hand_slice()
    spec = LgdSpec(0.1, 0.1)
    assert cascade(slice_, {"A"}, spec).defaulted == {"A", "B"}
    assert cascade(slice_, {"C"}, spec).defaulted == {"B", "C"}
    batches = []

    def counting(slice_, initial, d1, d2, haircut):
        batches.append(initial.copy())
        return cascade_rounds(slice_, initial, d1, d2, haircut)

    expected = oracle_enumerate_impacts(slice_, spec, 3)
    monkeypatch.setattr(lgd, "cascade_rounds", counting)
    assert enumerate_impacts(slice_, [spec], 3) == expected
    # {A, B} and {B, C} lie in a member's cascade; only {A, C} starts from
    # its subsets' union. {A, B, C} skips too, so the last batch is empty.
    assert [len(b) for b in batches] == [3, 1, 0]
    assert batches[1].tolist() == [[True, True, True]]
    assert batches[2].shape == (0, 3)


def test_cascade_rounds_takes_an_empty_batch():
    rounds = cascade_rounds(hand_slice(), np.zeros((0, 3), dtype=bool), np.empty(0), np.empty(0), 1.0)
    assert rounds.shape == (0, 3)
    assert rounds.dtype == np.int16


def test_enumerate_impacts_rejects_k_above_n():
    slice_ = random_slice(2, np.random.default_rng(12))
    with pytest.raises(ValueError, match="exceeds"):
        enumerate_impacts(slice_, [LgdSpec(0.1, 0.1)], 3)
    with pytest.raises(ValueError, match="k_max must be 1, 2 or 3"):
        enumerate_impacts(random_slice(5, np.random.default_rng(12)), [LgdSpec(0.1, 0.1)], 4)


def test_enumerate_impacts_no_propagation():
    assets = np.zeros((3, 3))
    slice_ = AssetSlice(2007, ("A", "B", "C"), assets, np.ones(3), 1.0)
    (summary,) = enumerate_impacts(slice_, [LgdSpec(0.5, 0.5)], k_max=1)
    assert summary.n_combos == 3
    assert summary.mean == summary.worst5_mean == summary.worst == pytest.approx(1.0 / 3.0)
    assert len(summary.argmax) == 3  # all combinations tie


def test_enumerate_impacts_identifies_trigger_pair():
    # D defaults only when both A and B are gone; everyone else is inert.
    assets = np.zeros((4, 4))
    assets[3, 0] = 6.0
    assets[3, 1] = 6.0
    assets[3, 2] = 0.0
    slice_ = AssetSlice(2007, ("A", "B", "C", "D"), assets, np.array([10.0, 10.0, 10.0, 100.0]), 1.0)
    spec = LgdSpec(0.5, 0.1)  # needs loss > 6 (portfolio 12) and > 10 (gdp)
    summaries = enumerate_impacts(slice_, [spec], k_max=2)
    by_k = {s.k: s for s in summaries}
    assert by_k[1].worst == pytest.approx(0.25)
    assert by_k[2].worst == pytest.approx(0.75)  # {A, B} drags D down
    assert by_k[2].argmax == (("A", "B"),)


def test_enumerate_impacts_deterministic():
    slice_ = random_slice(6, np.random.default_rng(4))
    spec = LgdSpec(0.1, 0.1)
    assert enumerate_impacts(slice_, [spec], 3) == enumerate_impacts(slice_, [spec], 3)


def test_enumerate_impacts_ordering_invariant():
    rng = np.random.default_rng(5)
    for _ in range(10):
        slice_ = random_slice(6, rng)
        for summary in enumerate_impacts(slice_, [LgdSpec(0.2, 0.1)], 3):
            assert summary.mean <= summary.worst5_mean + 1e-12
            assert summary.worst5_mean <= summary.worst + 1e-12


def test_sweep_grid_default_has_24_specs():
    slice_ = random_slice(5, np.random.default_rng(6))
    summaries = sweep_grid(slice_, k_max=1)
    specs = {(s.spec.d1, s.spec.d2) for s in summaries}
    assert len(specs) == len(COARSE_THRESHOLDS) ** 2 - 1 == 24
    assert (0.0, 0.0) not in specs


def test_sweep_grid_monotone_in_thresholds():
    slice_ = random_slice(6, np.random.default_rng(7))
    values = sorted({0.0, 0.1, 0.25, 0.5})
    mean_by_spec = {
        (s.spec.d1, s.spec.d2): s.mean
        for s in sweep_grid(slice_, tuple(values), tuple(values), k_max=2)
    }
    for (d1a, d2a), (d1b, d2b) in itertools.product(mean_by_spec, repeat=2):
        if d1a <= d1b and d2a <= d2b:
            assert mean_by_spec[(d1b, d2b)] <= mean_by_spec[(d1a, d2a)] + 1e-12


def test_severity_sorted_orders_by_worst():
    slice_ = random_slice(6, np.random.default_rng(8))
    ordered = severity_sorted(sweep_grid(slice_, k_max=2))
    for a, b in zip(ordered, ordered[1:]):
        if (a.year, a.k) == (b.year, b.k):
            assert a.worst >= b.worst


def test_fine_grid_subset_count():
    slice_ = random_slice(6, np.random.default_rng(9))
    group = slice_.countries[:4]
    d1s = np.linspace(0.0, 0.2, 3)
    d2s = np.linspace(0.0, 0.5, 4)
    cells = fine_grid(slice_, group, d1s, d2s)
    subsets = {c.subset for c in cells}
    assert len(subsets) == 4 + 6 + 4  # sizes 1..3 of a 4-country group
    assert len(cells) == 14 * 3 * 4


def test_fine_grid_zero_thresholds_cascade_immediately():
    slice_ = hand_slice()
    cells = fine_grid(slice_, ("A",), np.array([0.0]), np.array([0.0]))
    (cell,) = cells
    assert cell.impact == 1.0
    assert cell.rounds == 1  # both exposed countries fall in one round


def test_fine_grid_default_dimensions():
    slice_ = random_slice(4, np.random.default_rng(10))
    cells = fine_grid(slice_, (slice_.countries[0],))
    assert len(cells) == 51 * 51
    d1s = sorted({c.d1 for c in cells})
    d2s = sorted({c.d2 for c in cells})
    assert len(d1s) == 51 and d1s[0] == 0.0 and d1s[-1] == pytest.approx(0.2)
    assert len(d2s) == 51 and d2s[0] == 0.0 and d2s[-1] == pytest.approx(0.5)
    assert d1s[1] == pytest.approx(0.004)
    assert d2s[1] == pytest.approx(0.01)


@pytest.mark.parametrize("delta", [-1, 0, 1])
@pytest.mark.parametrize("along_d1", [True, False])
def test_fine_grid_matches_single_cascades_across_blocks(delta, along_d1):
    slice_ = random_slice(7, np.random.default_rng(13))
    points = (BLOCK_ROWS + delta, 1) if along_d1 else (1, BLOCK_ROWS + delta)
    d1s = np.linspace(0.0, 0.3, points[0])
    d2s = np.linspace(0.0, 0.3, points[1])
    cells = fine_grid(slice_, slice_.countries[:2], d1s, d2s, haircut=0.5)
    expected = [
        (subset, d1, d2)
        for subset in [slice_.countries[:1], slice_.countries[1:2], slice_.countries[:2]]
        for d1 in d1s.tolist()
        for d2 in d2s.tolist()
    ]
    assert [(c.subset, c.d1, c.d2) for c in cells] == expected
    for cell in cells:
        single = cascade(slice_, set(cell.subset), LgdSpec(cell.d1, cell.d2, 0.5))
        assert (cell.impact, cell.rounds) == (single.impact, single.num_rounds)


def test_fine_grid_rejects_invalid_grids():
    slice_ = hand_slice()
    with pytest.raises(ValueError, match="d1"):
        fine_grid(slice_, ("A",), np.array([0.0, 5.0]), np.array([0.0]))
    with pytest.raises(ValueError, match="d2"):
        fine_grid(slice_, ("A",), np.array([0.0]), np.array([np.nan]))
    with pytest.raises(ValueError, match="haircut"):
        fine_grid(slice_, ("A",), np.array([0.0]), np.array([0.0]), haircut=0.0)
    with pytest.raises(ValueError, match="nonempty"):
        fine_grid(slice_, ("A",), np.array([]), np.array([0.0]))
    with pytest.raises(ValueError, match="d1 grid repeats"):
        fine_grid(slice_, ("A",), np.array([0.1, 0.2, 0.1]), np.array([0.0]))
    with pytest.raises(ValueError, match="d2 grid repeats"):
        fine_grid(slice_, ("A",), np.array([0.0]), np.array([0.0, -0.0]))
    with pytest.raises(ValueError, match="nonempty"):
        fine_grid(slice_, ())
    with pytest.raises(ValueError, match="distinct"):
        fine_grid(slice_, ("A", "B", "A"))


def test_sweep_grid_rejects_origin_only_grid():
    with pytest.raises(ValueError, match="d1 = d2 = 0"):
        sweep_grid(hand_slice(), (0.0,), (0.0,), k_max=1)
    with pytest.raises(ValueError, match="d1 grid repeats"):
        sweep_grid(hand_slice(), (0.1, 0.1), (0.2,), k_max=1)
    with pytest.raises(ValueError, match="d2 grid repeats"):
        sweep_grid(hand_slice(), (0.1,), (0.25, 0.5, 0.250), k_max=1)


def test_sweep_grid_checks_every_point_before_enumerating(monkeypatch):
    calls = []
    monkeypatch.setattr(lgd, "enumerate_impacts", lambda slice_, specs, k_max: calls.append(list(specs)) or [])
    with pytest.raises(ValueError, match="d1"):
        sweep_grid(hand_slice(), (0.1, 2.0), (0.1,))
    assert calls == []
    sweep_grid(hand_slice(), (0.0, 0.1), (0.0, 0.2), haircut=0.5)
    assert calls == [[LgdSpec(0.0, 0.2, 0.5), LgdSpec(0.1, 0.0, 0.5), LgdSpec(0.1, 0.2, 0.5)]]


def test_grids_accept_arrays_and_one_shot_iterables():
    slice_ = hand_slice()
    d1s, d2s = (0.1, 0.25), (0.1, 0.5)
    expected = sweep_grid(slice_, d1s, d2s, k_max=1)
    assert len(expected) == 4
    assert sweep_grid(slice_, np.array(d1s), np.array(d2s), k_max=1) == expected
    assert sweep_grid(slice_, iter(d1s), (v for v in d2s), k_max=1) == expected
    cells = fine_grid(slice_, ("A", "B"), d1s, d2s)
    assert len(cells) == 3 * 4
    assert fine_grid(slice_, ("A", "B"), list(d1s), (v for v in d2s)) == cells


def make_summary(year, d1, d2, k, argmax):
    from finnet.lgd import ImpactSummary

    return ImpactSummary(year, LgdSpec(d1, d2), k, 10, 0.1, 0.2, 0.3, argmax)


def test_influence_ranking_single_cell():
    ranking = influence_ranking([make_summary(2007, 0.1, 0.1, 1, (("US",),))])
    assert ranking == {1: [(("US",), 1)]}


def test_influence_ranking_counts_ties():
    summaries = [
        make_summary(2006, 0.1, 0.1, 1, (("US",),)),
        make_summary(2007, 0.1, 0.1, 1, (("US",), ("UK",))),
    ]
    ranking = influence_ranking(summaries)
    assert ranking[1] == [(("US",), 2), (("UK",), 1)]


def test_influence_ranking_lexicographic_tie_break_and_top_n():
    summaries = [
        make_summary(2006, 0.1, 0.1, 2, (("B", "C"), ("A", "D"))),
        make_summary(2007, 0.1, 0.1, 2, (("A", "D"), ("B", "C"))),
    ]
    ranking = influence_ranking(summaries, top_n=1)
    assert ranking[2] == [(("A", "D"), 2)]
    with pytest.raises(ValueError):
        influence_ranking([])
