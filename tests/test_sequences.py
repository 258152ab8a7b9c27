"""Function sequences, bump index sets, and the bundled benchmark families."""
import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import ifnlab
from ifnlab import (BumpIndexSet, EXAMPLE_IDS, FunctionSequence, GridMismatchError,
                    build_constant_family, build_example, build_example_pointwise,
                    build_example_uniform, build_reciprocal_shift, combine_linear,
                    lambda_family, lambda_from_table, window)
from ifnlab.algebra import DomainError
from ifnlab.sequences import _BUILD_CHUNK


def budget_violations(lam, n_max: int) -> list[int]:
    """Brute recount: windows where the bump set exceeds ceil(sqrt(lambda_n))."""
    bumps = BumpIndexSet(lam)
    mask = bumps.mask(n_max)
    bad = []
    for n in range(1, n_max + 1):
        w = window(lam, n)
        inside = int(mask[w.lo:n + 1].sum())  # mask is indexed by k directly
        if inside > math.ceil(math.sqrt(lam.at(n))):
            bad.append(n)
    return bad


def reference_bump_mask(lam, n_max: int) -> np.ndarray:
    """The greedy walked one stage at a time: admit n while I_n holds < ceil(sqrt(lambda_n))."""
    flags = np.zeros(n_max + 1, dtype=bool)
    members, head = [], 0
    for n in range(1, n_max + 1):
        width = math.ceil(lam.at(n))
        while head < len(members) and members[head] < max(1, n - width + 1):
            head += 1
        if len(members) - head < math.ceil(math.sqrt(lam.at(n))):
            members.append(n)
            flags[n] = True
    return flags


# ------------------------------------------------------------ bump sets
@pytest.mark.parametrize("name", ["identity", "sqrt", "log"])
def test_bump_budget_never_exceeded(name):
    assert budget_violations(lambda_family(name), 2_000) == []


@given(st.lists(st.integers(min_value=0, max_value=1), min_size=20, max_size=80))
@settings(max_examples=25, deadline=None)
def test_bump_budget_on_random_ladders(increments):
    values = [1.0]
    for step in increments:
        values.append(values[-1] + step)
    lam = lambda_from_table(values)
    assert budget_violations(lam, len(values)) == []


# Admissible ladders as lambda moves from lambda_1 = 1.  A move in [0, 1]
# raises lambda by that much.  A move -f dips it the fraction f of the way
# down to (b - 1)^2, b = ceil(sqrt(lambda)): the budget b stays, ceil(lambda)
# falls and the window low jumps by more than one stage.  A dip is deep only
# where a budget level is wide, so dipping ladders are long.
RISES = st.lists(st.sampled_from([0.0, 0.0, 0.25, 0.5, 1.0, 1.0]), min_size=1, max_size=300)
DIPS = st.lists(st.sampled_from([0.0, 0.25, 0.5, 1.0, 1.0, -0.5, -0.9]),
                min_size=100, max_size=300)


@given(st.one_of(RISES, DIPS), st.lists(st.integers(min_value=1, max_value=400),
                                        min_size=1, max_size=6))
@settings(max_examples=100, deadline=None)
def test_bump_set_matches_reference_greedy(moves, horizons):
    # past the table lambda grows by 1
    values = [1.0]
    for move in moves:
        v = values[-1]
        values.append(v + move if move >= 0 else
                      v + move * (v - (math.ceil(math.sqrt(v)) - 1) ** 2))
    lam = lambda_from_table(values)
    bumps = BumpIndexSet(lam)
    for n in sorted(horizons):  # built in pieces, as the detectors grow it
        bumps.ensure(n)
    n_max = max(horizons)
    assert np.array_equal(bumps.mask(n_max), reference_bump_mask(lam, n_max))


@pytest.mark.parametrize("values, what", [
    ([1.0, 1.0, 1.0, 5.0], "window low"),   # I_4 = [1, 4] starts below I_3 = [3, 3]
    ([1.0, 4.0, 1.0], "budget"),            # ceil(sqrt(lambda)) goes 1, 2, 1
])
@pytest.mark.parametrize("split", [False, True])  # the drop inside one build, or across two
def test_bump_set_rejects_decreasing_ladders(values, what, split):
    bumps = BumpIndexSet(lambda_from_table(values))
    if split:
        bumps.ensure(len(values) - 1)
    with pytest.raises(DomainError, match=what):
        bumps.ensure(len(values))


@pytest.mark.parametrize("split", [False, True])
def test_bump_set_rejects_a_budget_drop_while_ceil_lambda_holds(split):
    # ceil(lambda) stays 5 from stage 4 to 5, so the window low holds, while
    # sqrt(4 + 2**-50) rounds to 2: the budget falls from 3 to 2 at stage 5
    values = [1.0, 2.0, 3.0, 4.5, math.nextafter(4.0, 5.0)]
    assert math.ceil(values[3]) == math.ceil(values[4])
    bumps = BumpIndexSet(lambda_from_table(values))
    if split:
        bumps.ensure(len(values) - 1)
    with pytest.raises(DomainError, match="budget .* at stage 5"):
        bumps.ensure(len(values))


def test_bump_set_keeps_the_budget_of_a_lambda_just_past_a_square():
    # sqrt(4 + 2**-50) rounds to 2, so the run of budget 2 reaches past lambda = 4
    values = [1.0, 2.0, 3.0, 4.0, math.nextafter(4.0, 5.0), 5.0, 6.0]
    lam = lambda_from_table(values)
    bumps = BumpIndexSet(lam)
    bumps.ensure(40)
    assert np.array_equal(bumps.mask(40), reference_bump_mask(lam, 40))


@pytest.mark.parametrize("past, what", [(1.0, "budget"), (400.0, "window low")])
def test_bump_set_builds_ahead_only_within_the_admissible_stages(past, what):
    # admissible up to n_max, not at n_max + 1: building ahead in whole chunks
    # must not raise for a stage that was not asked for
    n_max = 300
    values = [1.0 + 0.5 * i for i in range(n_max)] + [past]
    lam = lambda_from_table(values)
    bumps = BumpIndexSet(lam)
    bumps.ensure(n_max)
    assert np.array_equal(bumps.mask(n_max), reference_bump_mask(lam, n_max))
    with pytest.raises(DomainError, match=what):
        bumps.ensure(n_max + 1)


def test_identity_bump_set_is_shifted_squares():
    # windows are [1, n], so the budget ceil(sqrt(n)) admits a new index
    # exactly when n passes a perfect square: W = {1, 2, 5, 10, 17, ...}
    bumps = BumpIndexSet(lambda_family("identity"))
    members = [k for k in range(1, 200) if bumps.contains(k)]
    assert members == [m * m + 1 for m in range(15)]


def test_bump_mask_matches_contains():
    bumps = BumpIndexSet(lambda_family("sqrt"))
    mask = bumps.mask(500)
    assert mask.shape == (501,)
    assert not mask[0]
    for k in (1, 2, 3, 17, 100, 499, 500):
        assert bool(mask[k]) == bumps.contains(k)
    ks = np.array([3, 499, 8, 1])
    assert np.array_equal(mask[ks], np.array([bumps.contains(int(k)) for k in ks]))


def test_bump_hits_find_the_members_in_any_index_order():
    # a bundled family's evaluate looks up its indices' members, in blocks or in any order
    bumps = BumpIndexSet(lambda_family("sqrt"))
    mask = BumpIndexSet(lambda_family("sqrt")).mask(5_000)
    rng = np.random.default_rng(25)
    for ks in (np.arange(1, 5_001), np.arange(1_200, 1_300), np.arange(5_000, 0, -1),
               np.arange(3, 5_001, 7), rng.integers(1, 5_001, 2_000), np.array([4, 4, 1, 4])):
        assert bumps._hits(ks).tolist() == np.flatnonzero(mask[ks]).tolist()
    assert bumps._hits(np.zeros(0, dtype=np.int64)).size == 0
    with pytest.raises(DomainError, match=">= 1"):
        bumps._hits(np.array([3, 0]))


def test_bump_mask_grown_in_steps_matches_one_build():
    # the detectors sweep k in blocks, so the mask cache grows by many small steps
    lam = lambda_family("sqrt")
    stepped, whole = BumpIndexSet(lam), BumpIndexSet(lam)
    for n in (5, 64, 65, 1_000, 999, 4_097, 12_345, 20_000):
        stepped.mask(n)
        stepped.contains(n + 500)  # decides stages past the cache
    assert np.array_equal(stepped.mask(20_000), whole.mask(20_000))
    ks = np.arange(1, 20_001)
    assert np.array_equal(stepped.mask(20_000)[ks], [whole.contains(int(k)) for k in ks])


def test_bump_set_is_sparse_but_infinite():
    bumps = BumpIndexSet(lambda_family("identity"))
    mask = bumps.mask(1_000_000)
    count = int(mask.sum())
    assert count == 1000  # ceil(sqrt(n)) members up to n = 10**6
    assert 1.0 * count / 1_000_000 <= 1.1e-3


def test_bump_set_growth_holds_two_arrays_at_most():
    # the doubling past 2**16 members holds the old array and the new one,
    # not a third of zeros; the old one is built before tracing starts
    bumps = BumpIndexSet(lambda_family("sqrt"))
    while bumps._count + 2000 < 1 << 16:
        bumps.ensure(bumps._built + 1)  # one build chunk at a time
    old = bumps._members.nbytes
    tracemalloc.start()
    try:
        bumps.ensure(bumps._built + 1)
        scratch = tracemalloc.get_traced_memory()[1]  # one chunk's build scratch
        assert bumps._members.nbytes == old
        tracemalloc.reset_peak()
        while bumps._members.nbytes == old:
            bumps.ensure(bumps._built + 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    final = bumps._members.nbytes
    assert final == 2 * old
    assert old + peak <= 1.5 * final + scratch, (old, peak, scratch, final)


@pytest.mark.parametrize("freed, ladder", [(0, "identity"), (1 << 20, "identity"),
                                           (_BUILD_CHUNK * 8, "identity"), (0, "sqrt")])
def test_bump_set_build_takes_few_page_faults(freed, ladder):
    # build scratch near glibc's mmap threshold was mapped, trimmed and
    # faulted in again every chunk, or not, by the process's allocation
    # history (a freed block raises the threshold); the set's own scratch is
    # faulted in once, and a chunk's one fresh array, the ladder's values,
    # comes from the heap after the first
    pytest.importorskip("resource")
    script = ("import resource; import numpy as np; "
              "from ifnlab import BumpIndexSet, lambda_family; "
              f"np.ones({freed}, dtype=np.uint8); "  # freed at once
              f"bumps = BumpIndexSet(lambda_family({ladder!r})); "
              "before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt; "
              "bumps.ensure(3_000_000); "
              "print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)")
    src = str(Path(ifnlab.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    run = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                         env=env, check=True)
    assert int(run.stdout) < 1_000, run.stdout


# ------------------------------------------------------------ sequences
def test_function_sequence_validates_grid():
    with pytest.raises(DomainError):
        FunctionSequence(lambda k, x: 0.0, np.array([[0.0, 1.0]]), "bad shape")
    with pytest.raises(DomainError):
        FunctionSequence(lambda k, x: 0.0, np.array([0.0, np.nan]), "bad value")


def test_an_array_only_evaluate_is_kept_as_given():
    # len() of the numpy-scalar probe raises, so construction reads the width as 1
    def evaluate(ks, x):
        return np.ones(len(ks)) * x / ks

    grid = np.linspace(0.0, 1.0, 5)
    fs = FunctionSequence(evaluate, grid, "x / k, index arrays only")
    assert fs.broadcasts
    assert fs.per_point is evaluate
    ks = np.arange(1, 8)
    terms = fs.terms(ks, grid)
    assert terms.shape == (5, 7, 1)
    assert np.allclose(terms[..., 0], grid[:, None] / ks, rtol=0, atol=1e-15)


def test_terms_match_scalar_evaluate(unit_grid):
    fs, _ = build_reciprocal_shift(unit_grid)
    vals = fs.terms(np.arange(1, 51), np.array([0.3]))[0, :, 0]
    assert vals.shape == (50,)
    for k in (1, 2, 25, 50):
        assert vals[k - 1] == pytest.approx(fs.evaluate(k, 0.3), abs=1e-15)


def test_combine_linear_is_pointwise_linear(unit_grid):
    f1, _ = build_reciprocal_shift(unit_grid)
    f2, _ = build_constant_family(unit_grid, 2.0)
    combo = combine_linear(f1, f2, 2.0, -3.0)
    for k in (1, 7, 40):
        for x in (0.0, 0.5, 1.0):
            assert combo.evaluate(k, x) == pytest.approx(
                2.0 * f1.evaluate(k, x) - 3.0 * f2.evaluate(k, x), abs=1e-15)
    ks, xs = np.arange(1, 21), np.array([0.5])
    many = combo.terms(ks, xs)
    direct = 2.0 * f1.terms(ks, xs) - 3.0 * f2.terms(ks, xs)
    assert np.allclose(many, direct, atol=1e-15)


def one_point_shift(grid):
    """x + 1/k, batched over indices but taking one point at a time."""
    def evaluate(ks, x):
        return float(x) + 1.0 / np.asarray(ks, dtype=float)

    return FunctionSequence(evaluate, grid, "identity shifted by 1/k, one point at a time")


@pytest.mark.parametrize("second", ["paper-example-2", "one-point-shift"])
def test_combine_linear_grid_form_matches_each_point(unit_grid, second):
    lam = lambda_family("sqrt")
    f1, _, _ = build_example("paper-example-1", lam, unit_grid)
    f2 = (build_example(second, lam, unit_grid)[0] if second.startswith("paper")
          else one_point_shift(unit_grid))
    combo = combine_linear(f1, f2, 0.5, -3.0)
    assert combo.broadcasts == f2.broadcasts
    ks = np.arange(1, 5000)
    by_point = np.stack([combo.per_point(ks, x) for x in unit_grid], axis=0)
    assert np.array_equal(combo.terms(ks, unit_grid)[..., 0], by_point)


def test_combine_linear_rejects_mismatched_grids(unit_grid):
    f1, _ = build_reciprocal_shift(unit_grid)
    f2, _ = build_constant_family(np.linspace(0, 2, 11), 0.0)
    with pytest.raises(GridMismatchError):
        combine_linear(f1, f2, 1.0, 1.0)


# ------------------------------------------------------------ benchmark families
def test_pointwise_family_branches(unit_grid):
    lam = lambda_family("identity")
    fs, limit = build_example_pointwise(lam, unit_grid)
    bumps = BumpIndexSet(lam)
    k_in = 5        # in W
    k_out = 6       # not in W
    assert bumps.contains(k_in) and not bumps.contains(k_out)

    # below one half: bump branch x^k + 1, base branch 0
    assert fs.evaluate(k_in, 0.2) == pytest.approx(0.2 ** k_in + 1.0)
    assert fs.evaluate(k_out, 0.2) == 0.0
    # at and above one half: bump branch x^k + 1/2, base branch 1
    assert fs.evaluate(k_in, 0.7) == pytest.approx(0.7 ** k_in + 0.5)
    assert fs.evaluate(k_out, 0.7) == 1.0
    # x = 1 is pinned to 2 on every index
    assert fs.evaluate(k_in, 1.0) == 2.0
    assert fs.evaluate(k_out, 1.0) == 2.0

    assert limit(0.2) == 0.0
    assert limit(0.5) == 1.0
    assert limit(0.7) == 1.0
    assert limit(1.0) == 2.0


def test_uniform_family_branches(unit_grid):
    lam = lambda_family("identity")
    fs, limit = build_example_uniform(lam, unit_grid)
    assert fs.evaluate(5, 0.3) == pytest.approx(0.3 ** 5 + 1.0)   # 5 in W
    assert fs.evaluate(6, 0.3) == 0.0
    assert fs.evaluate(6, 0.9) == 0.0
    ks, xs = np.array([5, 6]), np.array([0.3, 0.9])  # a column of points against a row of indices
    assert np.allclose(fs.evaluate(ks[None, :], xs[:, None]), [[0.3 ** 5 + 1.0, 0.0],
                                                               [0.9 ** 5 + 1.0, 0.0]])
    with pytest.raises(ValueError, match="points' axes must come before"):
        fs.evaluate(ks[:, None], xs[None, :])
    assert limit(0.3) == 0.0 and limit(0.9) == 0.0


def test_power_evaluation_handles_edges(unit_grid):
    lam = lambda_family("identity")
    fs, _ = build_example_uniform(lam, unit_grid)
    assert fs.evaluate(5, 0.0) == 1.0        # 0**5 + 1 on the bump branch
    assert fs.evaluate(5, 1.0) == 2.0        # 1**5 + 1
    big = fs.terms(np.arange(1, 100_001), np.array([0.999]))     # no overflow/underflow surprises
    assert np.all(np.isfinite(big))


def test_build_example_dispatch(unit_grid):
    lam = lambda_family("identity")
    fs1, lim1, mode1 = build_example("paper-example-1", lam, unit_grid)
    fs2, lim2, mode2 = build_example("paper-example-2", lam, unit_grid)
    assert mode1 == "pointwise-lambda-stat"
    assert mode2 == "uniform-lambda-stat"
    assert lim1(0.2) == 0.0 and lim2(0.2) == 0.0
    assert set(EXAMPLE_IDS) == {"paper-example-1", "paper-example-2"}
    with pytest.raises(DomainError):
        build_example("paper-example-3", lam, unit_grid)
