"""Convergence and Cauchy detection across all modes."""
import dataclasses
import itertools
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ifnlab import (MODES, ConvergenceQuery, FunctionSequence, build_example,
                    build_reciprocal_shift, combine_linear, density_trace, detect,
                    detect_cauchy, exceptional_set, lambda_family,
                    lemma_equivalence_check, builtin_norm, standard_ifn, tconorm,
                    tnorm, window)
from ifnlab.algebra import DomainError
from ifnlab.cli import ExperimentConfig, _resolve_sequence
from ifnlab import convergence
from ifnlab.convergence import ANCHOR_POOL, CAUCHY_MODES, GUARD, PROBE_SHARE, WITNESS_CAP, _union
from ifnlab.density import BLOCK_ELEMENTS, Capture, WindowCounter, _stages
from ifnlab.space import BOUND_MARGIN, RADIUS_SLACK, SUBADDITIVE_NORMS

EPS, T = 0.1, 1.0
# for the standard construction, "exceptional" unwinds to |f_k - f| >= eps*t/(1-eps)
GAP = EPS * T / (1.0 - EPS)


def query(mode, n_max, lam=None):
    return ConvergenceQuery(mode=mode, epsilon=EPS, time=T,
                            lam=lam or lambda_family("identity"), n_max=n_max)


def block_oscillator(grid):
    """f_k = 2 on blocks [100m, 100m+99] for odd m, else 0: density never settles."""
    def evaluate(ks, x):  # one row of indices: a grid of points gets the wrong size
        return 2.0 * ((np.asarray(ks) // 100) % 2).astype(float)

    return per_point_only(FunctionSequence(evaluate, grid, "block oscillator"))


def alternating_sign(grid):
    def evaluate(ks, x):
        return np.where(np.asarray(ks) % 2 == 0, 1.0, -1.0)

    return per_point_only(FunctionSequence(evaluate, grid, "alternating sign"))


def sine_family(grid):
    def evaluate(ks, x):
        return np.sin(np.asarray(ks, dtype=float)) * float(x)

    return per_point_only(FunctionSequence(evaluate, grid, "sin(k) * x"))


def per_point_only(fs):
    """fs, checked to be read one point at a time through its own ``evaluate``."""
    assert fs.per_point is fs.evaluate and not fs.broadcasts, fs.description
    return fs


# ---------------------------------------------------------------- exceptional set
def test_exceptional_set_closed_form(std_space, unit_grid):
    # x + 1/k vs limit x: exceptional iff 1/k >= GAP = 1/9, i.e. k <= 9
    fs, limit = build_reciprocal_shift(unit_grid)
    member = exceptional_set(fs, limit, std_space, 0.4, EPS, T)
    assert [k for k in range(1, 30) if member(k)] == list(range(1, 10))


def test_exceptional_set_respects_epsilon(std_space, unit_grid):
    fs, limit = build_reciprocal_shift(unit_grid)
    member = exceptional_set(fs, limit, std_space, 0.4, 0.5, T)  # gap = 1.0
    assert [k for k in range(1, 10) if member(k)] == [1]


# ------------------------------------------------- radius test against mu and nu
def diffs_sequence(diffs):
    """f_k = diffs[k - 1] at every point, so exceptional_set against 0 tests each diff."""
    values = np.asarray(diffs, dtype=float)

    def evaluate(ks, x):  # float(x): one point at a time, even on a one-point grid
        return values[np.asarray(ks) - 1] + 0.0 * float(x)

    return per_point_only(FunctionSequence(evaluate, np.array([0.0]), "diffs"))


def oracle(std_space, diffs, epsilon, t):
    """exceptional_set's mu/nu answer for each diff."""
    member = exceptional_set(diffs_sequence(diffs), lambda x: 0.0, std_space, 0.0, epsilon, t)
    return np.array([member(k) for k in range(1, len(diffs) + 1)])


@pytest.mark.parametrize("epsilon, t", [(0.1, 1.0), (0.5, 2.0), (0.9, 0.25), (0.3, 7.0),
                                        (1e-6, 1.0), (0.999999, 3.0)])
def test_radius_calls_the_exact_boundary_exceptional(std_space, epsilon, t):
    gap = epsilon * t / (1.0 - epsilon)
    diffs = np.array([gap, -gap])
    assert std_space.exceptional(diffs[:, None], epsilon, t, GUARD).all()
    assert oracle(std_space, diffs, epsilon, t).all()


@settings(max_examples=200, deadline=None)
@given(epsilon=st.floats(1e-9, 1.0 - 1e-9), t=st.floats(1e-6, 1e6),
       scale=st.lists(st.floats(0.0, 3.0), min_size=1, max_size=20),
       ulps=st.integers(1, 4))
def test_radius_test_matches_mu_nu_near_the_radius(std_space, epsilon, t, scale, ulps):
    # The kernel compares the norm with t(eps - GUARD)/(1 - eps + GUARD);
    # rounding moves the mu/nu boundary off it by some ulps, where the
    # kernel must still give exceptional_set's answer.
    radius = t * (epsilon - GUARD) / (1.0 - epsilon + GUARD)
    gap = epsilon * t / (1.0 - epsilon)
    near = []
    for centre in (radius, gap):
        below = above = centre
        for _ in range(ulps):
            below, above = np.nextafter(below, 0.0), np.nextafter(above, np.inf)
        near += [below, centre, above]
    diffs = np.array(near + [radius * s for s in scale])
    diffs = np.concatenate([diffs, -diffs])
    kernel = std_space.exceptional(diffs[:, None], epsilon, t, GUARD)
    assert np.array_equal(kernel, oracle(std_space, diffs, epsilon, t))


@pytest.mark.parametrize("epsilon, t", [(0.1, 1.0), (0.9, 0.25)])
@pytest.mark.parametrize("block", ["random", "near-radius", "one-point"])
@pytest.mark.parametrize("space_id", ["abs", "norm-less", "euclidean"])
def test_union_form_is_the_any_over_points(std_space, space_id, block, epsilon, t):
    # union=True must OR the per-element answer over the first (points)
    # axis, also where a column's largest norm falls in the RADIUS_SLACK band
    space, dim = {"abs": (std_space, 1),
                  "norm-less": (dataclasses.replace(std_space, norm=None), 1),
                  "euclidean": (standard_ifn(builtin_norm("euclidean"), tnorm("product"),
                                             tconorm("bounded-sum")), 2)}[space_id]
    rng = np.random.default_rng(15)
    radius = t * (epsilon - GUARD) / (1.0 - epsilon + GUARD)
    slack = RADIUS_SLACK * t / (1.0 - epsilon + GUARD) ** 2
    points = 1 if block == "one-point" else 5
    if block == "random":
        lengths = rng.uniform(0.0, 1.5 * radius, size=(points, 400))
    else:  # mostly zeros; the rest at the radius, the exact boundary gap and the band's edges
        near = [radius, epsilon * t / (1.0 - epsilon), radius - slack, radius + slack,
                np.nextafter(radius - slack, 0.0), np.nextafter(radius + slack, np.inf),
                radius - 4 * slack, radius + 4 * slack, 0.5 * radius]
        lengths = rng.choice(near, size=(points, 400)) * (rng.random((points, 400)) < 0.3)
        assert (np.abs(lengths.max(axis=0) - radius) <= slack).any()
    angles = rng.uniform(0.0, 2 * np.pi, size=lengths.shape)
    d = (lengths * np.sign(np.cos(angles)))[..., None] if dim == 1 else (
        lengths[..., None] * np.stack([np.cos(angles), np.sin(angles)], axis=-1))
    by_mu_nu = space.exceptional(d, epsilon, t, GUARD, split=True)
    assert np.array_equal(space.exceptional(d, epsilon, t, GUARD), by_mu_nu.any(axis=0))
    for split in (False, True):
        expect = space.exceptional(d, epsilon, t, GUARD, split).any(axis=-2)
        assert np.array_equal(space.exceptional(d, epsilon, t, GUARD, split, union=True), expect)


# ------------------------------------------- a batch of centres bounded by the first
def table_sequence(table):
    """f_k(x) = table[k - 1, x] on the grid 0, 1, ..., points - 1, in grid form."""
    terms = table[..., 0] if table.shape[-1] == 1 else table  # a number per term on the line

    def evaluate(ks, xs):
        return terms[np.asarray(ks) - 1, np.asarray(xs).astype(int)]

    fs = FunctionSequence(evaluate, np.arange(table.shape[1], dtype=float), "table")
    assert fs.broadcasts
    return fs


def unit_vectors(rng, shape, dim):
    v = rng.normal(size=shape + (dim,))
    return v / np.sqrt(np.sum(v * v, axis=-1, keepdims=True))


def placed_batch(rng, points, dim, n_max, count, radius, slack):
    """Centres near the first and columns whose top norm against it sits on the radius,
    on its band's edges, or at T_0 -+ a_n on those edges (a_n: a later centre's distance)."""
    c0 = rng.uniform(-radius, radius, (points, dim))
    shifts = rng.choice([0.0, 1e-9 * radius, slack, 0.5 * radius, radius, 3 * radius], count - 1)
    star = rng.integers(points, size=count - 1)  # where each later centre is farthest from c0
    weights = rng.uniform(0.0, 1.0, (count - 1, points))
    weights[np.arange(count - 1), star] = 1.0
    u = unit_vectors(rng, (count - 1, points), dim)
    centres = np.concatenate([c0[None], c0 + (shifts[:, None] * weights)[..., None] * u])
    edges = [radius, radius - slack, radius + slack, np.nextafter(radius - slack, 0.0),
             np.nextafter(radius + slack, np.inf), radius * (1 + 2.0 ** -45),
             radius * (1 - 2.0 ** -45), 0.5 * radius, 2.0 * radius]
    tops, at = rng.choice(edges, n_max), rng.integers(points, size=n_max)
    dirs = unit_vectors(rng, (n_max, points), dim)
    n, sign = rng.integers(count - 1, size=n_max), rng.choice([-1.0, 1.0], n_max)
    around = (rng.random(n_max) < 0.5) & (radius - slack - sign * shifts[n] >= 0)
    # f - c0 = (radius -+ slack + a_n) u: f - c_n lands on radius -+ slack
    tops[around] = rng.choice([radius - slack, radius + slack], around.sum()) + (
        sign * shifts[n])[around]
    at[around] = star[n[around]]
    dirs[around, at[around]] = sign[around, None] * u[n[around], star[n[around]]]
    lengths = rng.uniform(0.0, 1.0, (n_max, points)) * tops[:, None]
    lengths[np.arange(n_max), at] = tops
    return c0 + lengths[..., None] * dirs, centres


BOUND_CASES = ("random", "placed", "offset", "euclidean", "huge", "tiny-radius", "huge-radius",
               "square")


def bound_batch(case, rng):
    """(space, table (n_max, points, dim), centres (count, points, dim), epsilon, t)."""
    product, bounded = tnorm("product"), tconorm("bounded-sum")
    dim = 2 if case in ("euclidean", "tiny-radius", "huge-radius") else 1
    space = standard_ifn(builtin_norm("euclidean" if dim == 2 else "abs"), product, bounded)
    points, count, n_max = int(rng.integers(2, 41)), int(rng.integers(2, 11)), 300
    epsilon = float(rng.choice([1e-4, 0.1, 0.5, 0.9, 0.9999]))
    t = float(10.0 ** rng.uniform(-2, 2))
    if case.endswith("radius"):  # euclidean lengths whose squares are subnormal or overflow
        t = 10.0 ** rng.uniform(-165, -155) if case == "tiny-radius" else 1e160
    radius = t * (epsilon - GUARD) / (1.0 - epsilon + GUARD)
    slack = RADIUS_SLACK * t / (1.0 - epsilon + GUARD) ** 2
    if case == "square":  # |x|**2 with its mu and nu: kept, but not subadditive
        space = standard_ifn(lambda v: np.asarray(v)[..., 0] ** 2, product, bounded)
        radius = np.sqrt(radius)
    if case in ("placed", "euclidean", "square"):
        table, centres = placed_batch(rng, points, dim, n_max, count, radius, slack)
        return space, table, centres, epsilon, t
    scale = {"random": radius, "huge": 8e307, "huge-radius": 4.7e153, "offset": radius,
             "tiny-radius": radius}[case]
    table = scale * rng.uniform(-2, 2, (n_max, points, dim))
    centres = scale * rng.uniform(-2, 2, (count, points, dim))
    if case == "huge-radius":  # lengths from c_0 = 0 finite, some between the others not
        centres[0] = 0.0
    if case == "tiny-radius":  # centres apart, each f_k about a radius from one of them
        centres = radius * 10.0 ** rng.uniform(0, 6) * rng.uniform(-1, 1, centres.shape)
        table = centres[rng.integers(count, size=n_max)] + radius * rng.uniform(-1.5, 1.5,
                                                                                table.shape)
    if case == "offset":  # f_k within a radius of a later centre, and c_0 so far off at some
        # points that T_0 and a_n round by about a radius there
        table = centres[rng.integers(1, count, n_max)] + rng.uniform(-radius, radius, table.shape)
        far = rng.random(points) < 0.3
        centres[0, far] = rng.choice([-radius, radius], (far.sum(), dim)) * 2.0 ** rng.uniform(
            52, 55, (far.sum(), dim))
    return space, table, centres, epsilon, t


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # overflow at the 1e308 scale
@pytest.mark.parametrize("case", BOUND_CASES)
def test_a_batch_of_centres_matches_mu_and_nu(case):
    # A batch's later centres are tested only where the first centre's top norm,
    # give or take their distance from it, leaves an index open.  Every test must
    # be mu's and nu's, point by point, as must the grid pass's counts and captures.
    rng = np.random.default_rng(BOUND_CASES.index(case))
    for _ in range(12):
        space, table, centres, epsilon, t = bound_batch(case, rng)
        assert (space.norm in SUBADDITIVE_NORMS) == (case != "square")
        expect = np.array([[space.exceptional(table[:, p] - c[p], epsilon, t, GUARD, split=True)
                            .any(axis=0) for p in range(table.shape[1])] for c in centres])
        expect = expect.any(axis=1)  # (centres, indices): ORed over mu, nu and the points
        vals = np.ascontiguousarray(table.swapaxes(0, 1))
        got = space.exceptional_batch(vals, centres[:, :, None], epsilon, t, GUARD, False,
                                      np.empty(vals.size))
        assert np.array_equal(got, expect)
        # known exceptional pairs skip the gather, which a larger buffer takes in fewer chunks
        known = expect & (rng.random(expect.shape) < 0.5)
        for size in (vals.size, 3 * vals.size + 1):
            got = space.exceptional_batch(vals, centres[:, :, None], epsilon, t, GUARD, False,
                                          np.empty(size), known)
            assert np.array_equal(got, expect)
        n_max, lam = len(table), lambda_family("identity")
        stages = _stages(lam, n_max, None)
        captures = (Capture(WITNESS_CAP, int(stages[2][-1]), last=True),
                    Capture(ANCHOR_POOL, misses=True))
        q = ConvergenceQuery("uniform-lambda-cauchy", epsilon, t, lam, n_max)
        counter = _union(table_sequence(table), space, q, np.arange(table.shape[1], dtype=float),
                         [lambda x, c=c: c[int(x)] for c in centres], stages, captures)
        reference = WindowCounter(len(centres), stages[0], stages[2], captures)
        reference.feed(expect.shape[1], np.flatnonzero(expect))
        assert np.array_equal(counter.counts(), reference.counts())
        assert all(np.array_equal(a, b) for a, b in zip(counter.kept, reference.kept))


PROBE_CASES = ("dense", "placed", "planar", "sin-kx", "undecided", "nudged")
# How far high a "nudged" table answers a one-point call, relative to its terms of
# 256 radii: past the RADIUS_SLACK band, and a sixteenth of clears_band's margin.
NUDGE = 2.0 ** -34


def probe_batch(case, rng, epsilon, t):
    """(grid-form sequence, space, later anchors, n_max) for a checked pass of 3+ blocks."""
    radius = t * (epsilon - GUARD) / (1.0 - epsilon + GUARD)
    slack = RADIUS_SLACK * t / (1.0 - epsilon + GUARD) ** 2
    points = int(rng.integers(2, 25))
    step = BLOCK_ELEMENTS // points
    n_max = 2 * step + int(rng.integers(10, step))
    space = standard_ifn(builtin_norm("euclidean" if case == "planar" else "abs"),
                         tnorm("product"), tconorm("bounded-sum"))
    anchors = np.sort(rng.choice(np.arange(1, n_max + 1), int(rng.integers(2, 10)), False))
    amp, w = radius * rng.uniform(0.5, 10.0), rng.uniform(0.5, 3.0)
    if case in ("dense", "planar", "sin-kx"):
        def evaluate(ks, x):
            k, x = np.asarray(ks, dtype=float), np.asarray(x, dtype=float)
            if case == "dense":  # sin(k) * x, its peak at the grid's end
                return amp * np.sin(k + w) * (x + 0.1)
            if case == "sin-kx":  # its peak point moves with k
                return amp * np.sin(k * x * w)
            return amp * np.stack([np.sin(k) * x, np.cos(w * k) * x * x], axis=-1)

        grid = np.linspace(0.0, 1.0, points)
        return FunctionSequence(evaluate, grid, case), space, anchors.tolist(), n_max
    table = radius * rng.uniform(-3.0, 3.0, (n_max, points, 1))
    if case == "placed":  # each term at every point a band edge, or a probe bound, off a centre
        bound = (radius + slack) * (1.0 + BOUND_MARGIN)
        edges = np.array([radius, radius - slack, radius + slack, bound, 0.5 * radius])
        past = bound * (1.0 + 2.0 ** -29) + np.array([0.0, 4 * bound * 2.0 ** -52])
        edges = np.concatenate([edges, *(np.nextafter(edges, d) for d in (0.0, np.inf)), past])
        offsets = rng.choice([-1.0, 1.0], (n_max, points)) * rng.choice(edges, (n_max, points))
        placed = table[rng.choice(anchors, (n_max, points)) - 1, np.arange(points), 0] + offsets
        placed[anchors - 1] = table[anchors - 1, :, 0]  # the centres stay as they were
        table[..., 0] = placed
    elif case == "undecided":  # the first block peaks at the probe point, where later terms are 0
        probe = int(rng.integers(points))
        table[:step, probe], table[step:, probe] = 10.0 * radius, 0.0
        anchors = np.sort(rng.choice(np.arange(step + 1, n_max + 1), anchors.size, False))
    else:  # "nudged": every centre is 256 radii; a quarter of later terms sit under the
        # radius at the probe point, where a one-point call lifts them past radius + slack
        probe, big = int(rng.integers(points)), 256.0 * radius
        table[...] = big + radius * rng.uniform(-0.5, 0.5, table.shape)
        table[:step, probe] = big + 10.0 * radius
        table[step:, probe, 0] = big + radius * np.where(
            rng.random(n_max - step) < 0.25, 1.0 - 2.0 ** -28, 3.0)
        anchors = np.sort(rng.choice(np.arange(step + 1, n_max + 1), anchors.size, False))
        table[anchors - 1] = big
        grid_form = table_sequence(table)

        def nudged(ks, xs):
            vals = grid_form.evaluate(ks, xs)
            return vals * (1.0 + NUDGE) if np.size(xs) == 1 else vals

        return (FunctionSequence(nudged, grid_form.domain_grid, case), space, anchors.tolist(),
                n_max)
    return table_sequence(table), space, anchors.tolist(), n_max


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("case", PROBE_CASES)
@pytest.mark.parametrize("share", [0.0, PROBE_SHARE], ids=["every-block", "cutoff"])
@settings(max_examples=12, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), epsilon=st.floats(0.01, 0.99), t=st.floats(0.01, 100.0))
def test_probe_pass_equals_the_full_pass(case, share, seed, epsilon, t):
    # A checked pass reads the grid only where one probe point leaves a
    # (centre, index) pair open; its counts and captures must be the full pass's.
    # With share 0 the probe reads every block after the first, however little it
    # decides, so each case's decisions are put to the test.
    fs, space, anchors, n_max = probe_batch(case, np.random.default_rng(seed), epsilon, t)
    lam, calls = lambda_family("identity"), []
    q = ConvergenceQuery("uniform-lambda-cauchy", epsilon, t, lam, n_max)
    stages = _stages(lam, n_max, None)
    captures = (Capture(WITNESS_CAP, int(stages[2][-1]), last=True),
                Capture(ANCHOR_POOL, misses=True))
    with mock.patch.object(convergence, "PROBE_SHARE", share):
        full, probed = (_union(counted(fs, calls) if checked else fs, space, q, fs.domain_grid,
                               anchors, stages, captures, checked=checked)
                        for checked in (False, True))
    assert np.array_equal(probed.counts(), full.counts())
    assert all(np.array_equal(a, b) for a, b in zip(probed.kept, full.kept))
    probes = sum(1 for _, xs in calls if xs.size == 1)
    later_blocks = -(-n_max // (BLOCK_ELEMENTS // len(fs.domain_grid))) - 1
    assert probes  # the probe ran
    if case == "undecided":  # and decided nothing: every index was read across the grid
        read = np.concatenate([ks.ravel() for ks, xs in calls if xs.size > 1])
        assert np.array_equal(np.unique(read), np.arange(1, n_max + 1))
        assert probes == (1 if share else later_blocks)  # the cutoff stops it after one block
    if case == "nudged":  # three quarters decided: the probe read every block after the first
        assert probes == later_blocks


@pytest.mark.parametrize("norm", [lambda v: abs(v[0]), lambda v: np.linalg.norm(v)],
                         ids=["first-row", "one-number"])
def test_scalar_only_norm_matches_exceptional_set(std_space, unit_grid, norm):
    # Each norm takes one vector.  On a batch the first answers for its first
    # row and the second gives one number for the whole batch; the probe
    # adapts both, so the radius test keeps exceptional_set's mu/nu answer.
    space = standard_ifn(norm, std_space.tnorm, std_space.tconorm)
    assert isinstance(space.norm, np.vectorize)
    n_max, lam, zero = 300, lambda_family("identity"), (lambda x: 0.0)
    fs = _resolve_sequence(ExperimentConfig(expression="sin(k) * x"), lam, unit_grid)[0]
    masks = [np.array([exceptional_set(fs, zero, space, x, EPS, T)(k) for k in range(1, n_max + 1)])
             for x in unit_grid]
    v = detect(fs, zero, space, query("pointwise-lambda-stat", n_max, lam))
    for x, m in zip(unit_grid, masks):
        assert np.array_equal(v.traces[float(x)].counts, density_trace(m, lam, n_max).counts)
    v = detect(fs, zero, space, query("uniform-lambda-stat", n_max, lam))
    assert np.array_equal(v.traces.counts, density_trace(np.any(masks, axis=0), lam, n_max).counts)
    for mode in CAUCHY_MODES:
        q = query(mode, n_max, lam)
        assert (detect_cauchy(fs, space, q).to_json_dict()
                == detect_cauchy(fs, std_space, q).to_json_dict())


# ---------------------------------------------------------------- fault order
def late_faults(grid, grid_form):
    """Terms 0, but infinite from k = 70,000 at x = 0 and from k = 5 at x = 1."""
    def one_point(ks, x):
        start = {0.0: 70_000, 1.0: 5}.get(float(x), np.inf)
        return np.where(np.asarray(ks) >= start, np.inf, 0.0)

    def evaluate(ks, xs):
        start = np.select([xs == 0.0, xs == 1.0], [70_000, 5], np.inf)
        return np.where(np.asarray(ks) >= start, np.inf, 0.0)

    fs = FunctionSequence(evaluate if grid_form else one_point, grid, "late faults")
    assert fs.per_point is fs.evaluate and fs.broadcasts == grid_form
    return fs


@pytest.mark.parametrize("grid_form", [True, False], ids=["grid-form", "per-point"])
@pytest.mark.parametrize("grid, mode, limit, fault", [
    # the anchor f_{n_max} is infinite, but the first bad term lies past the first block
    ([0.0, 0.5, 1.0], "pointwise-lambda-cauchy", None, "sequence value not finite at (k=70000, x=0.0)"),
    ([0.0, 0.5, 1.0], "uniform-lambda-cauchy", None, "sequence value not finite at (k=70000, x=0.0)"),
    # a bad limit at an earlier point comes before a bad term at a later one
    ([0.5, 1.0], "uniform-lambda-stat", 0.5, "limit value not finite at x=0.5"),
    # at one point a bad term comes before a bad limit
    ([0.5, 1.0], "pointwise-lambda-stat", 1.0, "sequence value not finite at (k=5, x=1.0)"),
])
def test_faults_come_in_point_by_point_order(std_space, grid_form, grid, mode, limit, fault):
    fs = late_faults(np.array(grid), grid_form)
    q = query(mode, 80_000)
    with pytest.raises(ValueError) as info:
        if limit is None:
            detect_cauchy(fs, std_space, q)
        else:
            detect(fs, lambda x: np.inf if x == limit else 0.0, std_space, q)
    assert str(info.value) == fault


# ---------------------------------------------------------------- sweep counts
def counted(fs, calls):
    """fs with its ``evaluate`` recording (indices, points) per call."""
    def record(ks, xs):
        calls.append((np.array(ks), np.atleast_1d(np.array(xs, dtype=float))))
        return fs.evaluate(ks, xs)

    copy = dataclasses.replace(fs, evaluate=record)
    calls.clear()  # construction probes the copy; keep the detector's calls only
    return copy


def sweeps_per_point(calls, grid, k):
    """How many calls evaluated index k at each grid point."""
    return [sum(1 for ks, xs in calls if k in ks and x in xs) for x in grid]


def test_pointwise_cauchy_sweeps_each_point_at_most_three_times(std_space, unit_grid):
    # Under sqrt no anchor of example 1 settles at 2e4, so every point tries
    # the whole pool: the reference, the first candidate, then the rest.
    n_max, lam, calls = 20_000, lambda_family("sqrt"), []
    fs, _, _ = build_example("paper-example-1", lam, unit_grid)
    v = detect_cauchy(counted(fs, calls), std_space, query("pointwise-lambda-cauchy", n_max, lam))
    assert v.verdict == "inconclusive" and v.witnesses
    # a point whose first candidate converges (x = 1, where every term is 2) stops at two
    expected = [3 if v.details["anchors"][x] is None else 2 for x in unit_grid]
    assert 2 in expected and 3 in expected
    assert sweeps_per_point(calls, unit_grid, n_max // 2) == expected
    for x in unit_grid:  # three sweeps, the anchors, and the witness pass
        terms = sum(ks.size for ks, xs in calls if x in xs)
        assert terms <= 3 * n_max + 2 * ANCHOR_POOL + WITNESS_CAP + 2, x


def test_a_full_anchor_pool_ends_its_sweep(std_space):
    # Each point finds its ten anchors in its first block of 2**16 indices,
    # so only the anchor sweeps reach the second block: the first candidate,
    # then the rest.
    grid, n_max, lam, calls = np.array([0.0, 0.3, 0.7]), 150_000, lambda_family("sqrt"), []
    fs, _, _ = build_example("paper-example-1", lam, grid)
    v = detect_cauchy(counted(fs, calls), std_space, query("pointwise-lambda-cauchy", n_max, lam))
    sweeps = sweeps_per_point(calls, grid, (1 << 16) + 1)
    assert max(sweeps) == 2 and v.verdict == "inconclusive", (sweeps, v.details)


@pytest.mark.parametrize("form", ["grid", "per-point"])
def test_uniform_cauchy_sweeps_the_grid_at_most_three_times(std_space, unit_grid, form):
    # The config expression evaluates a block across the grid in one call;
    # a sequence without that form is evaluated point by point, in the same
    # three sweeps.  The pool sweep stops at the block where its tenth
    # anchor turns up: a grid block of 65,536 // 11 indices ends before
    # n_max // 2, while a per-point block of 65,536 covers the horizon.
    # Past its first block, the grid form's rest-of-pool sweep reads the grid
    # only where its probe point leaves a pair open.
    n_max, lam, calls = 20_000, lambda_family("identity"), []
    fs = (_resolve_sequence(ExperimentConfig(expression="sin(k) * x"), lam, unit_grid)[0]
          if form == "grid" else sine_family(unit_grid))
    v = detect_cauchy(counted(fs, calls), std_space, query("uniform-lambda-cauchy", n_max, lam))
    assert v.verdict == "fails" and v.details["anchor"] is None
    if form == "per-point":
        assert sweeps_per_point(calls, unit_grid, n_max // 2) == [3] * unit_grid.size
        return
    assert max(sweeps_per_point(calls, unit_grid, n_max // 2)) <= 2
    # each sweep opens with a full block from k = 1: the pool's, the first anchor's, the rest's
    starts = [i for i, (ks, _) in enumerate(calls) if ks.ravel()[0] == 1 and ks.size > 1]
    assert len(starts) == 3 and calls[starts[2]][1].size == unit_grid.size
    edge = calls[starts[2]][0].max()  # the rest's first block, tested in full, picks the probe
    first, rest = (sum(np.count_nonzero(ks > edge) * xs.size for ks, xs in calls[a:b])
                   for a, b in zip(starts[1:], starts[2:] + [len(calls)]))
    assert rest <= 0.3 * first, (rest, first)


# ---------------------------------------------------------------- grid form
def planar_family(grid):
    """f_k(x) = (x / k, sin(k) * x / sqrt(k)), broadcasting to (points, indices, 2)."""
    def evaluate(ks, x):
        k, x = np.asarray(ks, dtype=float), np.asarray(x, dtype=float)
        return np.stack([x / k, np.sin(k) * x / np.sqrt(k)], axis=-1)

    return FunctionSequence(evaluate, grid, "planar")


def same_traces(a, b) -> bool:
    """Whether two verdicts hold the same traces, point for point and row for row."""
    ta, tb = a._point_traces(), b._point_traces()
    return [p for p, _ in ta] == [p for p, _ in tb] and all(
        x.verdict == y.verdict and x.estimate == y.estimate
        and all(np.array_equal(getattr(x, f), getattr(y, f))
                for f in ("ns", "lows", "highs", "counts", "ratios"))
        for (_, x), (_, y) in zip(ta, tb))


@pytest.mark.parametrize("family", ["paper-example-1", "paper-example-2", "sin(k) * x", "planar"])
def test_grid_form_and_per_point_form_agree_in_every_mode(std_space, unit_grid, family):
    lam, n_max, space = lambda_family("sqrt"), 20_000, std_space
    if family.startswith("paper"):
        fs, limit, _ = build_example(family, lam, unit_grid)
    elif family == "planar":
        fs, limit = planar_family(unit_grid), lambda x: np.zeros(2)
        space = standard_ifn(builtin_norm("euclidean"), tnorm("product"), tconorm("bounded-sum"))
    else:
        fs = _resolve_sequence(ExperimentConfig(expression=family), lam, unit_grid)[0]
        limit = lambda x: 0.0  # noqa: E731
    per_point = dataclasses.replace(fs, evaluate=lambda k, x: fs.evaluate(k, float(x)))
    assert fs.broadcasts and not per_point.broadcasts
    for mode in MODES:
        q = query(mode, n_max, lam)
        grid_v, point_v = ((detect_cauchy(s, space, q) if mode in CAUCHY_MODES
                            else detect(s, limit, space, q)) for s in (fs, per_point))
        assert grid_v.to_json_dict() == point_v.to_json_dict(), mode
        assert same_traces(grid_v, point_v), mode
    for mode in ("pointwise-lambda-stat", "uniform-lambda-stat"):
        q = query(mode, n_max, lam)
        assert (lemma_equivalence_check(fs, limit, space, q)
                == lemma_equivalence_check(per_point, limit, space, q)), mode


@pytest.mark.parametrize("family", ["paper-example-2", "sin(k) * x"])
def test_a_replaced_evaluate_is_the_one_swept(std_space, unit_grid, family):
    # dataclasses.replace probes the copy again, so the original's grid form
    # does not outlive a new evaluate
    lam, n_max, limit, calls = lambda_family("sqrt"), 20_000, (lambda x: 0.0), []
    fs = (build_example(family, lam, unit_grid)[0] if family.startswith("paper")
          else _resolve_sequence(ExperimentConfig(expression=family), lam, unit_grid)[0])
    q = query("uniform-lambda-stat", n_max, lam)
    v = detect(counted(fs, calls), limit, std_space, q)
    swept = {int(k) for ks, xs in calls if xs.size == unit_grid.size for k in ks.ravel()}
    assert swept == set(range(1, n_max + 1))
    one_point = dataclasses.replace(fs, evaluate=lambda k, x: fs.evaluate(k, float(x)))
    assert fs.broadcasts and one_point.broadcasts is False
    assert detect(one_point, limit, std_space, q).to_json_dict() == v.to_json_dict()


# ---------------------------------------------------------------- classical mode
def test_classical_accepts_plain_convergence(std_space, unit_grid):
    fs, limit = build_reciprocal_shift(unit_grid)
    v = detect(fs, limit, std_space, query("ifn-classical", 10_000))
    assert v.verdict == "converges"
    assert set(v.details["last_exceptional"].values()) == {9}


def test_classical_rejects_recurring_bumps(std_space, unit_grid):
    lam = lambda_family("identity")
    fs, limit, _ = build_example("paper-example-1", lam, unit_grid)
    v = detect(fs, limit, std_space, query("ifn-classical", 10_000, lam))
    assert v.verdict == "fails"
    assert v.witnesses


def test_classical_inconclusive_between_thresholds(std_space, unit_grid):
    # last exceptional index at 70% of the horizon: too late to clear,
    # too early to condemn
    def evaluate(ks, x):
        return np.where(np.asarray(ks) == 7_000, 5.0, 0.0)

    fs = per_point_only(FunctionSequence(evaluate, unit_grid, "late lone spike"))
    v = detect(fs, lambda x: 0.0, std_space, query("ifn-classical", 10_000))
    assert v.verdict == "inconclusive"


# ---------------------------------------------------------------- stat modes
def test_example_1_pointwise_stat_converges(std_space, unit_grid):
    lam = lambda_family("identity")
    fs, limit, mode = build_example("paper-example-1", lam, unit_grid)
    v = detect(fs, limit, std_space, query(mode, 100_000, lam))
    assert v.verdict == "converges"
    assert all(t.verdict == "limit-zero" for t in v.traces.values())


def test_example_2_uniform_stat_converges(std_space, unit_grid):
    lam = lambda_family("identity")
    fs, limit, mode = build_example("paper-example-2", lam, unit_grid)
    v = detect(fs, limit, std_space, query(mode, 100_000, lam))
    assert v.verdict == "converges"
    assert v.traces.verdict == "limit-zero"


def test_plain_stat_equals_lambda_stat_under_identity(std_space, unit_grid):
    # with lambda_n = n the window is [1, n] and the two modes coincide
    lam = lambda_family("identity")
    fs, limit, _ = build_example("paper-example-1", lam, unit_grid)
    v_plain = detect(fs, limit, std_space, query("pointwise-stat", 50_000, lam))
    v_lam = detect(fs, limit, std_space, query("pointwise-lambda-stat", 50_000, lam))
    assert v_plain.verdict == v_lam.verdict == "converges"
    for x in v_lam.traces:
        assert np.array_equal(v_plain.traces[x].ratios, v_lam.traces[x].ratios)


def test_plain_stat_ignores_configured_lambda(std_space, unit_grid):
    # pointwise-stat must use full windows even when handed a sqrt ladder
    lam = lambda_family("sqrt")
    fs, limit, _ = build_example("paper-example-1", lambda_family("identity"), unit_grid)
    v = detect(fs, limit, std_space, query("pointwise-stat", 50_000, lam))
    assert v.lambda_name == "identity"
    trace = v.traces[0.0]
    assert trace.lows[-1] == 1  # full window, not a sqrt-sized one


def test_classical_convergence_implies_stat(std_space, unit_grid, decay_factory):
    for seed in range(5):
        fs, limit = decay_factory(seed)
        v_cl = detect(fs, limit, std_space, query("ifn-classical", 10_000))
        v_st = detect(fs, limit, std_space, query("pointwise-lambda-stat", 10_000))
        assert v_cl.verdict == "converges"
        assert v_st.verdict == "converges"


def test_uniform_implies_pointwise(std_space, unit_grid, decay_factory):
    lam = lambda_family("identity")
    cases = [build_example(e, lam, unit_grid)[:2] for e in
             ("paper-example-1", "paper-example-2")]
    cases += [decay_factory(100 + s) for s in range(10)]
    for fs, limit in cases:
        v_u = detect(fs, limit, std_space, query("uniform-lambda-stat", 100_000, lam))
        if v_u.verdict == "converges":
            v_p = detect(fs, limit, std_space, query("pointwise-lambda-stat", 100_000, lam))
            assert v_p.verdict == "converges", fs.description


def test_uniform_union_mask_on_fine_grid(std_space):
    # all per-point exceptional sets of the first family sit inside the same
    # sparse bump set, so their union still has vanishing windowed density
    # and the uniform detector agrees with the pointwise one
    lam = lambda_family("identity")
    grid = np.linspace(0.0, 1.0, 201)
    fs, limit, _ = build_example("paper-example-1", lam, grid)
    v_u = detect(fs, limit, std_space, query("uniform-lambda-stat", 50_000, lam))
    v_p = detect(fs, limit, std_space, query("pointwise-lambda-stat", 50_000, lam))
    assert v_p.verdict == "converges"
    assert v_u.verdict == "converges"


def test_wrong_limit_fails_with_witnesses(std_space, unit_grid):
    lam = lambda_family("identity")
    fs, _, _ = build_example("paper-example-1", lam, unit_grid)
    v = detect(fs, lambda x: 0.0, std_space, query("pointwise-lambda-stat", 20_000, lam))
    assert v.verdict == "fails"
    assert v.witnesses
    # the zero guess is only wrong on [0.5, 1], where the base branch sits at 1 or 2
    assert all(x >= 0.5 for _, x in v.witnesses)
    for x, trace in v.traces.items():
        expected = "limit-zero" if x < 0.5 else "limit-one"
        assert trace.verdict == expected, x


def test_uniform_wrong_limit_attributes_witnesses(std_space, unit_grid):
    lam = lambda_family("identity")
    fs, _, _ = build_example("paper-example-1", lam, unit_grid)
    wrong = lambda x: 0.0
    v = detect(fs, wrong, std_space, query("uniform-lambda-stat", 20_000, lam))
    assert v.verdict == "fails"
    assert v.witnesses
    # every reported pair must actually satisfy the exceptional condition,
    # at the first grid point (in grid order) where index k is exceptional
    for k, x in v.witnesses:
        assert exceptional_set(fs, wrong, std_space, x, EPS, T)(k), (k, x)
        for earlier in unit_grid[unit_grid < x]:
            assert not exceptional_set(fs, wrong, std_space, earlier, EPS, T)(k), (k, earlier)


@pytest.mark.parametrize("mode", MODES)
def test_grid_pass_matches_exceptional_set(std_space, unit_grid, mode):
    # Rebuild each mode's masks from the public per-index predicate.  Against
    # the limit 0, sin(k) * x fails in every mode, so every witness path runs.
    n_max, lam = 2_000, lambda_family("identity")
    fs, zero = sine_family(unit_grid), (lambda x: 0.0)
    q = query(mode, n_max, lam)
    final = window(lam, n_max)

    def mask(f, x):
        member = exceptional_set(fs, f, std_space, x, EPS, T)
        return np.array([member(k) for k in range(1, n_max + 1)])

    def anchored(xs, anchor):
        """Masks at xs against f_anchor; None means the last candidate tried."""
        if anchor is None:
            ref = np.any([mask(lambda y: fs.evaluate(n_max, y), x) for x in xs], axis=0)
            anchor = (np.flatnonzero(~ref) + 1)[:ANCHOR_POOL][-1]
        return {float(x): mask(lambda y: fs.evaluate(anchor, y), x) for x in xs}

    def same_counts(trace, m):
        return np.array_equal(trace.counts, density_trace(m, lam, n_max).counts)

    def tail(m):
        return list(np.flatnonzero(m[final.lo - 1:]) + final.lo)[-WITNESS_CAP:]

    if mode == "uniform-lambda-cauchy":
        v = detect_cauchy(fs, std_space, q)
        masks = anchored(unit_grid, v.details["anchor"])
    elif mode.endswith("cauchy"):
        v = detect_cauchy(fs, std_space, q)
        masks = {}
        for x, anchor in v.details["anchors"].items():
            masks.update(anchored([x], anchor))
    else:
        v = detect(fs, zero, std_space, q)
        masks = {float(x): mask(zero, x) for x in unit_grid}
    assert v.verdict == "fails" and v.witnesses

    if mode == "ifn-classical":
        for x, m in masks.items():
            hits = np.flatnonzero(m) + 1
            assert v.details["last_exceptional"][x] == (hits[-1] if hits.size else 0)
        assert all(masks[x][k - 1] and k > 0.9 * n_max for k, x in v.witnesses)
    elif mode.startswith("uniform"):
        # one witness rule: the union's tail, each k at the first point where
        # it is exceptional against the same centre (the last anchor tried)
        shared = np.any(list(masks.values()), axis=0)
        assert same_counts(v.traces, shared)
        first = {k: next(x for x, m in masks.items() if m[k - 1]) for k in tail(shared)}
        assert v.witnesses == list(first.items())
    else:
        assert all(same_counts(v.traces[x], m) for x, m in masks.items())
        assert all(masks[x][k - 1] and k >= final.lo for k, x in v.witnesses)


@pytest.mark.parametrize("mode", CAUCHY_MODES)
def test_inconclusive_cauchy_run_reports_witnesses(std_space, unit_grid, mode):
    # Under sqrt the bump density of example 1 still falls like
    # sqrt(lambda)/lambda at 2e4, so no anchor settles; the run is
    # inconclusive and still names its evidence against the last anchor tried.
    n_max, lam = 20_000, lambda_family("sqrt")
    fs, _, _ = build_example("paper-example-1", lam, unit_grid)
    v = detect_cauchy(fs, std_space, query(mode, n_max, lam))
    assert v.verdict == "inconclusive" and v.witnesses

    def member(anchor, x):
        return exceptional_set(fs, lambda y: fs.evaluate(anchor, y), std_space, x, EPS, T)

    def last_anchor(xs):
        pool = (k for k in itertools.count(1) if not any(member(n_max, x)(k) for x in xs))
        return list(itertools.islice(pool, ANCHOR_POOL))[-1]

    uniform = mode.startswith("uniform")
    for k, x in v.witnesses:
        anchor = last_anchor(unit_grid if uniform else [x])
        assert k >= window(lam, n_max).lo and member(anchor, x)(k), (k, x)
        earlier = unit_grid[unit_grid < x] if uniform else []
        assert not any(member(anchor, y)(k) for y in earlier), (k, x)


def test_oscillating_density_is_inconclusive(std_space, unit_grid):
    fs = block_oscillator(unit_grid)
    v = detect(fs, lambda x: 0.0, std_space, query("pointwise-lambda-stat", 10_000))
    assert v.verdict == "inconclusive"
    assert v.traces[0.0].verdict == "inconclusive"


def test_linearity_of_stat_limits(std_space, unit_grid, decay_factory):
    lam = lambda_family("identity")
    f1, l1 = decay_factory(41)
    f2, l2 = decay_factory(42)
    for alpha, beta in ((1.0, 1.0), (2.0, -3.0), (0.5, 0.5)):
        combo = combine_linear(f1, f2, alpha, beta)
        target = lambda x: alpha * l1(x) + beta * l2(x)
        v = detect(combo, target, std_space, query("pointwise-lambda-stat", 10_000, lam))
        assert v.verdict == "converges", (alpha, beta)


def test_rejects_mismatched_modes(std_space, unit_grid):
    fs, limit = build_reciprocal_shift(unit_grid)
    with pytest.raises(DomainError):
        detect(fs, limit, std_space, query("pointwise-lambda-cauchy", 1_000))
    with pytest.raises(DomainError):
        detect_cauchy(fs, std_space, query("pointwise-lambda-stat", 1_000))
    with pytest.raises(DomainError):
        ConvergenceQuery(mode="sideways", epsilon=EPS, time=T,
                         lam=lambda_family("identity"), n_max=1_000)


def test_query_validates_parameters():
    lam = lambda_family("identity")
    with pytest.raises(DomainError):
        ConvergenceQuery(mode="pointwise-stat", epsilon=0.0, time=T, lam=lam, n_max=1000)
    with pytest.raises(DomainError):
        ConvergenceQuery(mode="pointwise-stat", epsilon=1.0, time=T, lam=lam, n_max=1000)
    with pytest.raises(DomainError):
        ConvergenceQuery(mode="pointwise-stat", epsilon=EPS, time=0.0, lam=lam, n_max=1000)
    with pytest.raises(DomainError):
        ConvergenceQuery(mode="pointwise-stat", epsilon=EPS, time=T, lam=lam, n_max=5)


@pytest.mark.parametrize("n_max, stride", [(1e4, None), (1000.0, None), (1000, 2.5),
                                           (1000, 2.0), (1000, True)])
def test_horizon_and_stride_must_be_integers(std_space, unit_grid, n_max, stride):
    # a float n_max made range() raise TypeError mid-detection, stride 2.5
    # traced stages past the horizon and out of order, and stride True ran as 1
    lam = lambda_family("identity")
    with pytest.raises(DomainError, match="integer"):
        ConvergenceQuery("uniform-lambda-stat", EPS, T, lam, n_max, stride)
    with pytest.raises(DomainError, match="integer"):
        density_trace(lambda k: k % 2 == 0, lam, n_max, stride)
    fs, limit = build_reciprocal_shift(unit_grid)  # numpy integers are integers
    q = ConvergenceQuery("uniform-lambda-stat", EPS, T, lam, np.int64(1000), np.int32(7))
    assert detect(fs, limit, std_space, q).traces.ns[-2:].tolist() == [994, 1000]


@pytest.mark.parametrize("time", [np.nan, np.inf])
def test_non_finite_time_is_rejected(std_space, unit_grid, time):
    # under a nan time every test is false: no index would read as exceptional
    fs, limit = build_reciprocal_shift(unit_grid)
    with pytest.raises(DomainError, match="finite"):
        ConvergenceQuery(mode="uniform-lambda-cauchy", epsilon=EPS, time=time,
                         lam=lambda_family("identity"), n_max=1000)
    with pytest.raises(DomainError, match="finite"):
        exceptional_set(fs, limit, std_space, 0.5, EPS, time)


def test_rejects_non_finite_sequence_values(std_space, unit_grid):
    def evaluate(ks, x):
        out = np.zeros(np.asarray(ks).shape)
        out[np.asarray(ks) == 37] = np.nan
        return out

    fs = per_point_only(FunctionSequence(evaluate, unit_grid, "poisoned"))
    with pytest.raises(ValueError, match="37"):
        detect(fs, lambda x: 0.0, std_space, query("pointwise-lambda-stat", 1_000))


# ---------------------------------------------------------------- cauchy modes
def test_examples_are_lambda_cauchy(std_space, unit_grid):
    lam = lambda_family("identity")
    for example in ("paper-example-1", "paper-example-2"):
        fs, _, _ = build_example(example, lam, unit_grid)
        for mode in ("pointwise-lambda-cauchy", "uniform-lambda-cauchy"):
            v = detect_cauchy(fs, std_space, query(mode, 100_000, lam))
            assert v.verdict == "converges", (example, mode)


def test_alternating_sign_is_not_cauchy(std_space, unit_grid):
    # |f_j - f_k| is 2 between opposite parities; against the reference
    # f_{n_max} (even) the exceptional set is the odd indices, density 1/2
    fs = alternating_sign(unit_grid)
    v = detect_cauchy(fs, std_space, query("pointwise-lambda-cauchy", 10_000))
    assert v.verdict == "fails"
    trace = v.traces[0.0]
    assert trace.verdict == "limit-value"
    assert trace.estimate == pytest.approx(0.5, abs=1e-2)


def test_cauchy_uniform_mode_on_decay_families(std_space, decay_factory):
    for seed in (7, 8):
        fs, _ = decay_factory(seed)
        v = detect_cauchy(fs, std_space, query("uniform-lambda-cauchy", 10_000))
        assert v.verdict == "converges"


# ---------------------------------------------------------------- the lemma
def test_lemma_equivalences_on_examples(std_space, unit_grid):
    lam = lambda_family("identity")
    for example in ("paper-example-1", "paper-example-2"):
        fs, limit, mode = build_example(example, lam, unit_grid)
        q = ConvergenceQuery(mode=mode, epsilon=EPS, time=T, lam=lam, n_max=100_000)
        assert lemma_equivalence_check(fs, limit, std_space, q) is True


def test_lemma_equivalences_on_random_families(std_space, decay_factory):
    for seed in range(10):
        fs, limit = decay_factory(200 + seed)
        q = query("pointwise-lambda-stat", 10_000)
        assert lemma_equivalence_check(fs, limit, std_space, q) is True


def test_lemma_holds_even_when_all_statements_fail(std_space, unit_grid):
    # against a wrong limit all five statements are false together, which
    # still satisfies the equivalence
    lam = lambda_family("identity")
    fs, _, _ = build_example("paper-example-1", lam, unit_grid)
    q = query("pointwise-lambda-stat", 20_000, lam)
    assert lemma_equivalence_check(fs, lambda x: 0.0, std_space, q) is True


def test_lemma_requires_lambda_stat_mode(std_space, unit_grid):
    fs, limit = build_reciprocal_shift(unit_grid)
    with pytest.raises(DomainError):
        lemma_equivalence_check(fs, limit, std_space, query("ifn-classical", 1_000))
