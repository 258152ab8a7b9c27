"""Modulus-of-continuity searches for families and single functions."""
import numpy as np
import pytest

from ifnlab import (ContinuityQuery, ContinuityResult, FunctionSequence,
                    build_example, build_reciprocal_shift, check_equicontinuity,
                    check_limit_continuity, lambda_family, split_triangle_check)
from ifnlab.algebra import DomainError

# Closed forms behind the frozen expectations below, for the standard
# construction on the line at time t = 1:
#   the delta-ball at x0 is |y - x0| < delta / (1 - delta)
#   the epsilon gap test is |gap| < eps / (1 - eps)
# The probe radii are powers of two, so the largest certifiable grid delta
# for the family f_k(x) = x + 1/k (gap = |y - x0| independent of k) at
# eps = 0.3 is 0.25: delta 0.5 admits probes out to 0.5 > 3/7, delta 0.25
# only admits probes within 1/3, all below the 3/7 threshold.


def make_query(point=0.5, epsilon=0.3):
    return ContinuityQuery(point=point, epsilon=epsilon, time=1.0)


def linear_blowup(grid):
    def evaluate(ks, x):  # an index array at one point
        return np.asarray(ks, dtype=float) * float(x)

    fs = FunctionSequence(evaluate, grid, "steepening lines")
    assert fs.per_point is evaluate and not fs.broadcasts
    return fs


def test_shared_shift_family_is_equicontinuous(std_space, unit_grid):
    fs, _ = build_reciprocal_shift(unit_grid)
    res = check_equicontinuity(fs, std_space, std_space, make_query())
    assert res == ContinuityResult(True, 0.25, None, False)


def test_certified_delta_grows_with_epsilon(std_space, unit_grid):
    fs, _ = build_reciprocal_shift(unit_grid)
    tight = check_equicontinuity(fs, std_space, std_space, make_query(epsilon=0.1))
    loose = check_equicontinuity(fs, std_space, std_space, make_query(epsilon=0.3))
    assert tight.holds and loose.holds
    # eps = 0.1 gap threshold is 1/9; delta 0.125 reaches probes at 0.125
    # which overshoot it, delta 0.0625 keeps them at 1/16
    assert tight.delta == 0.0625
    assert tight.delta <= loose.delta


def test_steepening_lines_fail_equicontinuity(std_space, unit_grid):
    fs = linear_blowup(unit_grid)
    res = check_equicontinuity(fs, std_space, std_space,
                               make_query(point=0.5, epsilon=1e-5))
    assert not res.holds
    assert not res.exhausted
    assert res.delta is None
    k, y = res.witness
    assert k >= 1
    assert 0.0 < abs(y - 0.5) < 1e-5  # refuted by a probe hugging the point


def test_single_term_of_blowup_family_is_continuous(std_space, unit_grid):
    # each individual line IS continuous; only the family fails jointly
    fs = linear_blowup(unit_grid)
    res = check_equicontinuity(fs, std_space, std_space,
                               make_query(point=0.5, epsilon=1e-5), k_max=1)
    assert res.holds


@pytest.mark.parametrize("k_max", [2.5, True, np.float64(3.0), 0])
def test_k_max_must_be_an_integer(std_space, unit_grid, k_max):
    # k_max 2.5 evaluated f_1 .. f_3, and True ran as 1
    fs = linear_blowup(unit_grid)
    with pytest.raises(DomainError, match="k_max must be an integer >= 1"):
        check_equicontinuity(fs, std_space, std_space, make_query(), k_max=k_max)
    assert (check_equicontinuity(fs, std_space, std_space, make_query(), k_max=np.int64(3))
            == check_equicontinuity(fs, std_space, std_space, make_query(), k_max=3))


def test_limit_continuity_of_identity(std_space, unit_grid):
    _, limit = build_reciprocal_shift(unit_grid)
    res = check_limit_continuity(limit, std_space, std_space, make_query())
    assert res.holds and res.delta == 0.25


def test_limit_continuity_at_domain_edges(std_space, unit_grid):
    _, limit = build_reciprocal_shift(unit_grid)
    for point in (0.0, 1.0):
        res = check_limit_continuity(limit, std_space, std_space, make_query(point=point))
        assert res.holds, point


def test_step_limit_fails_at_the_jump(std_space, unit_grid):
    lam = lambda_family("identity")
    _, limit, _ = build_example("paper-example-1", lam, unit_grid)
    res = check_limit_continuity(limit, std_space, std_space, make_query(point=0.5))
    assert not res.holds
    assert not res.exhausted
    k, y = res.witness
    assert k == 0
    assert y < 0.5  # the violation is on the low side of the jump
    assert abs(y - 0.5) < 1e-5


def test_step_limit_is_continuous_away_from_jump(std_space, unit_grid):
    lam = lambda_family("identity")
    _, limit, _ = build_example("paper-example-1", lam, unit_grid)
    for point in (0.25, 0.75):
        res = check_limit_continuity(limit, std_space, std_space, make_query(point=point))
        assert res.holds, point


def test_probe_points_must_exist(std_space):
    with pytest.raises(DomainError):
        check_limit_continuity(lambda x: x, std_space, std_space,
                               ContinuityQuery(point=0.5, epsilon=0.3, time=1.0,
                                               domain=(0.5, 0.5)))


def test_query_validation():
    with pytest.raises(DomainError):
        ContinuityQuery(point=0.5, epsilon=0.0, time=1.0)
    for time in (-1.0, np.nan, np.inf):
        with pytest.raises(DomainError):
            ContinuityQuery(point=0.5, epsilon=0.3, time=time)


def test_split_triangle_on_standard_space(std_space):
    # mu(s, t) >= product of thirds; closed form on the line:
    #   1/(1+|s|) >= prod_i 1/(1 + 3|p_i|)  whenever s = sum p_i
    for parts in ((0.2, 0.35, 0.15), (1.0, 0.0, 0.0), (-0.5, 0.2, 0.4)):
        mu_ok, nu_ok = split_triangle_check(std_space, parts, 1.0)
        s = sum(parts)
        lhs = 1.0 / (1.0 + abs(s))
        rhs = np.prod([1.0 / (1.0 + 3.0 * abs(p)) for p in parts])
        assert lhs >= rhs - 1e-12
        assert mu_ok and nu_ok


def test_split_triangle_rejects_bad_parts(std_space):
    with pytest.raises(DomainError):
        split_triangle_check(std_space, (0.1, 0.2), 1.0)
    with pytest.raises(DomainError):
        split_triangle_check(std_space, (0.1, 0.2, 0.3), 0.0)
    with pytest.raises(DomainError, match="expected dimension 2, got 1"):
        split_triangle_check(std_space, [[0.1, 0.2], [0.1], [0.3, 0.1]], 1.0)


def test_a_delta_grid_that_captures_no_probe_is_exhausted(std_space):
    # the one delta's ball holds |y - 0.5| < 2**-20 / (1 - 2**-20); the one probe pair sits at 0.25
    fs, _ = build_reciprocal_shift(np.linspace(0.0, 1.0, 11))
    q = ContinuityQuery(point=0.5, epsilon=0.3, time=1.0, delta_grid=(2 ** -20,),
                        probe_radii=(0.25,))
    assert check_equicontinuity(fs, std_space, std_space, q) == ContinuityResult(
        holds=False, delta=None, witness=None, exhausted=True)
    assert check_limit_continuity(lambda x: x, std_space, std_space, q).exhausted
