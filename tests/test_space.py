"""Graded norms: the standard construction and its 13-axiom certification."""
import warnings

import numpy as np
import pytest
from hypothesis import given, strategies as st

from ifnlab import (DomainError, IFNorm, OpenBall, abs_norm, ball_contains,
                    builtin_norm, certify_ifn, default_samples, default_times,
                    euclidean_norm, standard_ifn, tconorm, tnorm)

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
