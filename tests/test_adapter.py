"""Scalar-only callables, adapted once at construction, match their built-in twins."""
import numpy as np
import pytest

from ifnlab import (BumpIndexSet, ContinuityQuery, ConvergenceQuery, FunctionSequence,
                    IFNorm, LambdaSequence, UnitIntervalOp, build_example, builtin_norm,
                    certify, certify_ifn, check_equicontinuity, default_samples,
                    default_times, density_trace, detect, lambda_family, standard_ifn,
                    tconorm, tnorm)
from ifnlab.algebra import _TNORM_FNS

GRID = np.linspace(0.0, 1.0, 11)


def euclidean_space():
    return standard_ifn(builtin_norm("euclidean"), tnorm("product"), tconorm("bounded-sum"))


def run_detect(fs, limit, ifn):
    q = ConvergenceQuery(mode="pointwise-lambda-stat", epsilon=0.1, time=1.0,
                         lam=lambda_family("sqrt"), n_max=1000)
    v = detect(fs, limit, ifn, q)
    return v.to_json_dict(), [t.ratios.tolist() for t in v.traces.values()]


def sequence_case():
    fs, limit, _ = build_example("paper-example-1", lambda_family("sqrt"), GRID)
    scalar = FunctionSequence(fs.evaluate, GRID, fs.description)
    space = euclidean_space()

    def run(seq):
        equi = [check_equicontinuity(seq, space, space,
                                     ContinuityQuery(point=x, epsilon=0.3, time=1.0), k_max=50)
                for x in (0.25, 0.5, 0.75)]
        return run_detect(seq, limit, space), equi

    return run(fs), run(scalar)


def lambda_case():
    lam = lambda_family("sqrt")
    scalar = LambdaSequence("sqrt", lam.values)
    mask = np.arange(1, 5001) % 7 == 0

    def run(ladder):
        trace = density_trace(mask, ladder, 5000)
        return (trace.ratios.tolist(), trace.verdict, trace.estimate,
                BumpIndexSet(ladder).mask(5000).tolist())

    return run(lam), run(scalar)


def degree_case():
    space = euclidean_space()

    # One vector, one float time.  Called on a batch it answers with the right
    # shape but wrong values, so only an element-by-element probe unmasks it.
    def mu(v, t):
        return t / (t + float(np.sqrt(np.sum(v * v))))

    def nu(v, t):
        r = float(np.sqrt(np.sum(v * v)))
        return r / (t + r)

    scalar = IFNorm(mu, nu, space.tnorm, space.tconorm)
    assert scalar.mu is not mu and scalar.nu is not nu
    fs, limit, _ = build_example("paper-example-1", lambda_family("sqrt"), GRID)

    def run(ifn):
        return (certify_ifn(ifn, default_samples(2, count=10), default_times(count=8)),
                run_detect(fs, limit, ifn))

    return run(space), run(scalar)


def plane_degree_case():
    # written for the plane: the one-coordinate probe vectors make it raise
    # IndexError, which must still leave it adapted, not rejected
    space = euclidean_space()

    def radius(v):
        return np.sqrt(v[0] * v[0] + v[1] * v[1])

    plane = IFNorm(lambda v, t: t / (t + radius(v)), lambda v, t: radius(v) / (t + radius(v)),
                   space.tnorm, space.tconorm)
    samples, times = default_samples(2, count=10), default_times(count=8)
    return certify_ifn(space, samples, times), certify_ifn(plane, samples, times)


def op_case():
    scalar = UnitIntervalOp("product", "tnorm", lambda a, b: float(a) * float(b))
    return certify(tnorm("product")), certify(scalar)


@pytest.mark.parametrize("case", [sequence_case, lambda_case, degree_case,
                                  plane_degree_case, op_case],
                         ids=["sequence", "lambda", "mu-nu", "mu-nu-plane", "op"])
def test_scalar_forms_match_builtin_twins(case):
    builtin, scalar = case()
    assert builtin == scalar


def test_broadcasting_callables_stay_unwrapped():
    space = euclidean_space()
    assert not isinstance(space.mu, np.vectorize)
    assert not isinstance(space.nu, np.vectorize)
    assert tnorm("product").fn is _TNORM_FNS["product"]
