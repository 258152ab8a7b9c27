"""Graded norms: the standard construction and its 13-axiom certification."""
import warnings

import numpy as np
import pytest
from hypothesis import given, strategies as st

from ifnlab import (DomainError, IFNorm, OpenBall, abs_norm, ball_contains,
                    builtin_norm, certify_ifn, default_samples, default_times,
                    euclidean_norm, standard_ifn, tconorm, tnorm)
from ifnlab.space import BOUND_RADII

AXIOM_NAMES = {
    "mu-nu-sum-bound", "mu-positive", "mu-zero-characterization", "mu-scaling",
    "mu-triangle", "mu-time-continuity", "mu-limits", "nu-below-one",
    "nu-zero-characterization", "nu-scaling", "nu-triangle",
    "nu-time-continuity", "nu-limits",
}

finite = st.floats(min_value=-50.0, max_value=50.0, allow_nan=False)
positive_t = st.floats(min_value=1e-3, max_value=1e3, allow_nan=False)


# ---------------------------------------------------------------- oracles
def test_standard_closed_form_on_the_line(std_space):
    # mu = t/(t+|x|), nu = |x|/(t+|x|), so mu + nu = 1 exactly
    assert float(std_space.mu(2.0, 1.0)) == pytest.approx(1.0 / 3.0, abs=1e-15)
    assert float(std_space.nu(2.0, 1.0)) == pytest.approx(2.0 / 3.0, abs=1e-15)
    assert float(std_space.mu(0.0, 5.0)) == 1.0
    assert float(std_space.nu(0.0, 5.0)) == 0.0


@given(finite, positive_t)
def test_standard_mu_plus_nu_is_one(std_space, x, t):
    assert float(std_space.mu(x, t)) + float(std_space.nu(x, t)) == pytest.approx(1.0, abs=1e-12)


@given(finite, positive_t)
def test_scaling_invariance_closed_form(std_space, x, t):
    # mu(2x, t) = mu(x, t/2) for the standard construction
    assert float(std_space.mu(2.0 * x, t)) == pytest.approx(float(std_space.mu(x, t / 2.0)),
                                                            abs=1e-12)


def test_norm_lookup_and_shapes():
    assert float(abs_norm(np.array([-3.0]))) == 3.0
    assert float(euclidean_norm(np.array([3.0, 4.0]))) == pytest.approx(5.0)
    with pytest.raises(DomainError):
        builtin_norm("manhattan")


# ---------------------------------------------------------------- certify
def certified(ifn, dim):
    return certify_ifn(ifn, default_samples(dim), default_times())


def test_certify_standard_line(std_space):
    reports = certified(std_space, 1)
    assert {r.axiom for r in reports} == AXIOM_NAMES
    assert len(reports) == 13
    for r in reports:
        assert r.passed, f"{r.axiom}: worst {r.worst_violation}"


def test_certify_standard_plane():
    ifn = standard_ifn(builtin_norm("euclidean"), tnorm("min"), tconorm("max"))
    for r in certified(ifn, 2):
        assert r.passed, f"{r.axiom}: worst {r.worst_violation}"


def test_certify_catches_sum_bound_break(std_space):
    # nu := mu makes mu + nu = 2t/(t+|x|) > 1 whenever |x| < t
    broken = IFNorm(std_space.mu, std_space.mu, std_space.tnorm, std_space.tconorm)
    samples = default_samples(1)
    times = default_times()
    reports = certify_ifn(broken, samples, times)
    rep = {r.axiom: r for r in reports}["mu-nu-sum-bound"]
    assert not rep.passed

    # independent worst-case recount straight from the closed form
    worst = 0.0
    for v in samples:
        for t in times:
            excess = 2.0 * float(std_space.mu(v, float(t))) - 1.0
            worst = max(worst, excess)
    assert rep.worst_violation == pytest.approx(worst, abs=1e-12)


def test_certify_catches_wrong_limit_orientation(std_space):
    # swapping mu and nu flips both t -> infinity limits
    flipped = IFNorm(std_space.nu, std_space.mu, std_space.tnorm, std_space.tconorm)
    reports = certified(flipped, 1)
    by = {r.axiom: r for r in reports}
    assert not by["mu-limits"].passed
    assert not by["nu-limits"].passed


def test_certify_drops_repeated_times(std_space):
    samples = default_samples(1)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        repeated = certify_ifn(std_space, samples, [1.0, 1.0, 2.0])
    assert repeated == certify_ifn(std_space, samples, [1.0, 2.0])
    assert all(r.passed for r in repeated)


def test_certify_requires_nonempty_inputs(std_space):
    with pytest.raises(DomainError):
        certify_ifn(std_space, [], default_times())


def test_certify_rejects_mixed_dimensions(std_space):
    with pytest.raises(DomainError, match="expected dimension 2, got 1"):
        certify_ifn(std_space, [[1.0, 2.0], [1.0]], default_times())


def nan_where(std_space, far):
    """The standard space's mu and nu, nan where ``far(x, t)`` holds."""
    def degree(f):
        return lambda x, t: np.where(far(x, t), np.nan, f(x, t))

    return IFNorm(degree(std_space.mu), degree(std_space.nu), std_space.tnorm, std_space.tconorm)


def test_a_nan_gap_fails_its_report(std_space):
    # nan only past |x| = 5: the samples (|x| <= 3) stay inside, the scaled
    # vectors and the triangle's sums reach out; a nan gap is no pass
    ifn = nan_where(std_space, lambda x, t: np.abs(x[..., 0]) > 5.0)
    by = {r.axiom: r for r in certified(ifn, 1)}
    failed = {"mu-scaling", "nu-scaling", "mu-triangle", "nu-triangle"}
    assert {name for name, r in by.items() if not r.passed} == failed
    for degree in ("mu", "nu"):
        assert np.isnan(by[f"{degree}-scaling"].worst_violation)
        (v,), a, _ = by[f"{degree}-scaling"].witness
        assert abs(a * v) > 5.0
        assert np.isnan(by[f"{degree}-triangle"].worst_violation)
        (x,), (y,), _, _ = by[f"{degree}-triangle"].witness
        assert abs(x + y) > 5.0
    # nan only below t = 1e-6: the limit probe at t = 1e-9 alone meets it
    ifn = nan_where(std_space, lambda x, t: np.asarray(t) < 1e-6)
    by = {r.axiom: r for r in certified(ifn, 1)}
    assert {name for name, r in by.items() if not r.passed} == {"mu-limits", "nu-limits"}
    assert all(np.isnan(by[f"{d}-limits"].worst_violation) for d in ("mu", "nu"))
    assert by["mu-limits"].witness[1] == 1e-9


@pytest.mark.parametrize("bad", [0.0, -1.0, np.nan, np.inf])
def test_times_must_be_positive_and_finite(std_space, bad):
    # a nan or inf time made 4-5 axioms of the standard space fail with
    # violation nan, and mu/nu answered nan
    with pytest.raises(DomainError, match="positive and finite"):
        certify_ifn(std_space, default_samples(1), [1.0, 2.0, bad])
    for degree in (std_space.mu, std_space.nu):
        with pytest.raises(DomainError, match="positive and finite"):
            degree([1.0], bad)
        with pytest.raises(DomainError, match="positive and finite"):
            degree([1.0], np.array([1.0, bad]))


# ---------------------------------------------------------------- balls
def test_ball_membership_is_strict(std_space):
    # center 0, radius r, time t: y is inside iff mu > 1-r and nu < r;
    # on the line that means |y| < r*t/(1-r)
    ball = OpenBall(center=np.array([0.0]), radius=0.25, time=3.0)
    boundary = 0.25 * 3.0 / 0.75  # exactly 1.0
    assert ball_contains(ball, std_space, np.array([boundary - 1e-9]))
    assert not ball_contains(ball, std_space, np.array([boundary]))
    assert not ball_contains(ball, std_space, np.array([boundary + 1e-9]))


@given(finite, st.floats(min_value=0.05, max_value=0.95), positive_t, finite)
def test_ball_translation_invariance(std_space, center, radius, t, offset):
    ball0 = OpenBall(center=np.array([0.0]), radius=radius, time=t)
    ball1 = OpenBall(center=np.array([center]), radius=radius, time=t)
    # stay away from the boundary, where a float shift could flip strictness
    boundary = radius * t / (1.0 - radius)
    if abs(abs(offset) - boundary) < 1e-6:
        return
    assert ball_contains(ball0, std_space, np.array([offset])) == \
        ball_contains(ball1, std_space, np.array([center + offset]))


def test_ball_rejects_bad_parameters():
    with pytest.raises(DomainError):
        OpenBall(center=np.array([0.0]), radius=0.0, time=1.0)
    with pytest.raises(DomainError):
        OpenBall(center=np.array([0.0]), radius=1.0, time=1.0)
    for time in (0.0, np.nan, np.inf):
        with pytest.raises(DomainError):
            OpenBall(center=np.array([0.0]), radius=0.5, time=time)


def test_in_ball_tests_every_radius_against_one_batch(std_space):
    # on the line at time t, |d| < r t / (1 - r); d sits on the boundary of r = 0.25
    d = np.array([[0.0], [-0.2], [1.0 / 3.0], [5.0]])
    radii = np.array([0.1, 0.25, 0.5, 0.9])
    inside = std_space.in_ball(d, radii[:, None], 1.0)
    assert inside.shape == (4, 4)
    expect = np.abs(d[:, 0])[None, :] < radii[:, None] / (1.0 - radii[:, None])
    expect[1, 2] = False  # the boundary is outside: mu = 1 - r exactly
    assert inside.tolist() == expect.tolist()
    for r, row in zip(radii, inside):
        ball = OpenBall(center=np.array([0.0]), radius=r, time=1.0)
        assert row.tolist() == [ball_contains(ball, std_space, -v) for v in d]


def test_a_norm_that_raises_on_the_probe_is_dropped(std_space):
    def norm(v):
        raise ValueError("no length for this vector")

    space = IFNorm(std_space.mu, std_space.nu, std_space.tnorm, std_space.tconorm, norm=norm)
    assert space.norm is None
    gap = 0.1 / 0.9  # the radius at epsilon 0.1, t 1: exceptional by GUARD
    d = np.array([[gap], [-gap], [0.5 * gap], [0.0], [3.0]])
    assert space.exceptional(d, 0.1, 1.0).tolist() == [True, True, False, False, True]
    assert space.exceptional(d, 0.1, 1.0).tolist() == std_space.exceptional(d, 0.1, 1.0).tolist()


@pytest.mark.parametrize("epsilon, t", [(1e-160, 1.0), (0.5, 1e300)])
def test_clears_band_decides_nothing_outside_the_bound_radii(std_space, epsilon, t):
    radius = t * epsilon / (1.0 - epsilon)
    assert not BOUND_RADII[0] <= radius <= BOUND_RADII[1]
    vals = np.array([[0.0], [4.0 * radius], [1e5 * radius]])
    centres = np.zeros((2, 1))
    assert not std_space.clears_band(vals, centres, epsilon, t).any()
    # the same gaps in units of the radius, at radius 1, are decided
    decided = std_space.clears_band(vals / radius, centres, 0.5, 1.0)
    assert decided.tolist() == [[False, True, True]] * 2


def test_a_split_batch_answers_mu_nu_and_their_union(std_space):
    # rows per centre: mu, nu and "mu or nu", each the union over the points
    vals = np.array([[[0.0], [0.05], [0.2]], [[0.2], [0.0], [0.0]]])  # (points, indices, 1)
    centres = np.array([[[0.0]], [[0.1]]])[:, :, None].repeat(2, axis=1)  # (centres, points, 1, 1)
    out = std_space.exceptional_batch(vals, centres, 0.1, 1.0, np.empty(vals.size), split=True)
    assert out.shape == (2, 3, 3)
    for c, rows in zip(centres, out):
        mu_nu = std_space.exceptional(vals - c, 0.1, 1.0, split=True, union=True)
        assert rows.tolist() == [*mu_nu.tolist(), (mu_nu[0] | mu_nu[1]).tolist()]
        assert rows[2].tolist() == std_space.exceptional(vals - c, 0.1, 1.0, union=True).tolist()
