"""Unit-interval operations and their axiom certification."""
import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from ifnlab import (EXAMPLE_IDS, LAMBDA_IDS, MODES, NORM_IDS, ConvergenceQuery, DomainError,
                    TCONORM_IDS, TNORM_IDS, build_example, builtin_norm, builtin_op, certify,
                    lambda_family, standard_ifn, tconorm, tnorm)
from ifnlab.algebra import check_level, check_time

unit = st.floats(min_value=0.0, max_value=1.0, allow_nan=False)


# ---------------------------------------------------------------- oracles
# Closed forms, checked directly so certify() has something independent
# to agree with.

def test_product_matches_closed_form():
    op = tnorm("product")
    assert op(0.25, 0.5) == 0.125
    assert op(1.0, 0.37) == 0.37


def test_lukasiewicz_matches_closed_form():
    op = tnorm("lukasiewicz")
    assert op(0.7, 0.5) == pytest.approx(0.2)
    assert op(0.3, 0.5) == 0.0
    assert op(1.0, 0.3) == pytest.approx(0.3)


def test_prob_sum_matches_closed_form():
    op = tconorm("prob-sum")
    assert op(0.5, 0.5) == 0.75
    assert op(0.0, 0.37) == 0.37


def test_bounded_sum_matches_closed_form():
    op = tconorm("bounded-sum")
    assert op(0.7, 0.5) == 1.0
    assert op(0.25, 0.5) == 0.75


@given(unit, unit)
def test_all_ops_stay_inside_unit_interval(a, b):
    for name in TNORM_IDS:
        assert 0.0 <= tnorm(name)(a, b) <= 1.0
    for name in TCONORM_IDS:
        assert 0.0 <= tconorm(name)(a, b) <= 1.0


@given(unit, unit)
def test_commutativity_property(a, b):
    for name in TNORM_IDS + TCONORM_IDS:
        op = builtin_op(name)
        assert op(a, b) == pytest.approx(op(b, a), abs=1e-15)


@given(unit, unit)
def test_tnorm_below_min_and_tconorm_above_max(a, b):
    for name in TNORM_IDS:
        assert tnorm(name)(a, b) <= min(a, b) + 1e-15
    for name in TCONORM_IDS:
        assert tconorm(name)(a, b) >= max(a, b) - 1e-15


@given(unit, unit)
def test_product_and_prob_sum_are_dual(a, b):
    # s(a, b) = 1 - t(1-a, 1-b) for the product / probabilistic-sum pair
    t, s = tnorm("product"), tconorm("prob-sum")
    assert s(a, b) == pytest.approx(1.0 - t(1.0 - a, 1.0 - b), abs=1e-12)


def test_identity_elements():
    for name in TNORM_IDS:
        assert tnorm(name).identity_element == 1.0
    for name in TCONORM_IDS:
        assert tconorm(name).identity_element == 0.0


# ---------------------------------------------------------------- domain
def test_rejects_out_of_range_arguments():
    op = tnorm("product")
    with pytest.raises(DomainError):
        op(1.5, 0.5)
    with pytest.raises(DomainError):
        op(0.5, -0.1)
    with pytest.raises(DomainError):
        op(math.nan, 0.5)


def test_unknown_names_rejected():
    with pytest.raises(DomainError):
        tnorm("nope")
    with pytest.raises(DomainError):
        tconorm("product")  # wrong kind
    with pytest.raises(DomainError):
        builtin_op("nope")


# ---------------------------------------------------------------- certify
@pytest.mark.parametrize("name", TNORM_IDS + TCONORM_IDS)
def test_certify_passes_for_all_builtins(name):
    reports = certify(builtin_op(name), grid_resolution=101, tolerance=1e-12)
    assert len(reports) == 5
    for r in reports:
        assert r.passed, f"{name} failed {r.axiom}: worst {r.worst_violation}"


@pytest.mark.parametrize("resolution", [2.5, True, np.float64(11.0), 1])
def test_grid_resolution_must_be_an_integer(resolution):
    # 2.5 raised TypeError from np.linspace, and True ran as 1
    with pytest.raises(DomainError, match="grid_resolution must be an integer >= 2"):
        certify(tnorm("min"), grid_resolution=resolution)
    assert all(r.passed for r in certify(tnorm("min"), grid_resolution=np.int64(11)))


def test_certify_report_fields_are_populated():
    reports = certify(tnorm("min"))
    by_name = {r.axiom: r for r in reports}
    assert set(by_name) == {"commutativity", "associativity", "identity",
                            "monotonicity", "continuity"}
    for r in reports:
        assert r.tolerance == 1e-12
        assert r.worst_violation >= 0.0
        assert isinstance(r.worst_violation, float)


def test_product_idempotency_witness():
    # |a*a - a| is maximal at a = 0.5 with value exactly 0.25
    reports = certify(tnorm("product"), check_idempotency=True)
    rep = {r.axiom: r for r in reports}["idempotency"]
    assert not rep.passed
    assert rep.worst_violation == pytest.approx(0.25, abs=1e-12)
    assert tuple(float(w) for w in rep.witness) == (0.5, 0.5)


def test_min_and_max_are_idempotent():
    for op in (tnorm("min"), tconorm("max")):
        rep = {r.axiom: r for r in certify(op, check_idempotency=True)}["idempotency"]
        assert rep.passed


def test_certify_catches_broken_commutativity():
    from ifnlab.algebra import UnitIntervalOp

    def lopsided(a, b):
        return np.minimum(np.asarray(a, dtype=float) * 0.9, np.asarray(b, dtype=float))

    bad = UnitIntervalOp("lopsided", "tnorm", lopsided)
    rep = {r.axiom: r for r in certify(bad)}["commutativity"]
    assert not rep.passed
    assert rep.worst_violation > 1e-3


def test_certify_catches_broken_identity():
    from ifnlab.algebra import UnitIntervalOp

    def shifted(a, b):
        return np.clip(np.asarray(a, dtype=float) * np.asarray(b, dtype=float) - 0.05,
                       0.0, 1.0)

    bad = UnitIntervalOp("shifted", "tnorm", shifted)
    rep = {r.axiom: r for r in certify(bad)}["identity"]
    assert not rep.passed
    assert rep.worst_violation == pytest.approx(0.05, abs=1e-12)


# ---------------------------------------------------------------- built-in names and times
# Every lookup of a built-in by id, as a call on the id, with its noun and ids.
LOOKUPS = {
    "t-norm": (tnorm, TNORM_IDS),
    "t-conorm": (tconorm, TCONORM_IDS),
    "operation": (builtin_op, TNORM_IDS + TCONORM_IDS),
    "norm": (builtin_norm, NORM_IDS),
    "lambda family": (lambda_family, LAMBDA_IDS),
    "example": (lambda name: build_example(name, lambda_family("identity"), [0.0, 1.0]),
                EXAMPLE_IDS),
    "mode": (lambda name: ConvergenceQuery(mode=name, epsilon=0.1, time=1.0,
                                           lam=lambda_family("identity"), n_max=100), MODES),
}


@pytest.mark.parametrize("noun", LOOKUPS)
@pytest.mark.parametrize("value", ["nope", None, ["product"], np.array(["min", "max"])])
def test_every_lookup_names_an_unknown_id_alike(noun, value):
    # a list raised TypeError (unhashable) from a dict lookup, and a mode array
    # raised ValueError from the truth value of its comparison with each mode
    lookup, ids = LOOKUPS[noun]
    with pytest.raises(DomainError) as err:
        lookup(value)
    assert str(err.value) == f"unknown {noun} {value!r}; choose from {ids}"


@pytest.mark.parametrize("t", [0, -1.5, 0.0, float("nan"), float("inf"), -float("inf")])
def test_one_time_check_says_the_same_for_a_number(t):
    space = standard_ifn(builtin_norm("abs"), tnorm("product"), tconorm("bounded-sum"))
    message = f"time must be positive and finite, got {t!r}"
    for check in (check_time, lambda t: check_level(0.5, t), lambda t: space.mu(1.0, t),
                  lambda t: space.nu(1.0, t)):
        with pytest.raises(DomainError) as err:
            check(t)
        assert str(err.value) == message


def test_check_time_reads_arrays_as_floats():
    assert check_time(2).dtype == float and float(check_time(2)) == 2.0
    assert check_time([0.5, 3]).tolist() == [0.5, 3.0]
    for bad in ([1.0, 0.0], np.array([[1.0], [np.nan]])):
        with pytest.raises(DomainError, match="positive and finite"):
            check_time(bad)
