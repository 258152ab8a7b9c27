"""The probe rule: scalar-only callables are adapted once at construction and
match their built-in twins; callables that broadcast are kept as given."""
import dataclasses

import numpy as np
import pytest

from ifnlab import (LAMBDA_IDS, BumpIndexSet, ContinuityQuery, ConvergenceQuery,
                    FunctionSequence, IFNorm, LambdaSequence, UnitIntervalOp,
                    build_constant_family, build_example, build_reciprocal_shift,
                    builtin_norm, certify, certify_ifn, check_equicontinuity,
                    combine_linear, default_samples, default_times, density_trace, detect,
                    lambda_family, lambda_from_table, standard_ifn, tconorm, tnorm)
from ifnlab.algebra import _TNORM_FNS
from ifnlab.cli import ExperimentConfig, _resolve_sequence

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
    scalar = FunctionSequence(lambda k, x: float(fs.evaluate_many(np.array([int(k)]), x)[0]),
                              GRID, fs.description)
    assert isinstance(scalar.evaluate_many, np.vectorize)
    space = euclidean_space()

    def run(seq):
        equi = [check_equicontinuity(seq, space, space,
                                     ContinuityQuery(point=x, epsilon=0.3, time=1.0), k_max=50)
                for x in (0.25, 0.5, 0.75)]
        return run_detect(seq, limit, space), equi

    return run(fs), run(scalar)


def lambda_case():
    lam = lambda_family("sqrt")
    scalar = LambdaSequence("sqrt", lambda n: float(lam.values_many(np.array([int(n)]))[0]))
    assert isinstance(scalar.values_many, np.vectorize)
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


def test_batched_builtins_stay_unwrapped():
    lam = lambda_family("sqrt")
    sequences = [build_example(example, lam, GRID)[0]
                 for example in ("paper-example-1", "paper-example-2")]
    sequences += [build_reciprocal_shift(GRID)[0], build_constant_family(GRID, 0.5)[0]]
    sequences.append(combine_linear(sequences[0], sequences[2], 2.0, -3.0))
    config = ExperimentConfig(expression="sin(k) * x", limit="0 * x")
    sequences.append(_resolve_sequence(config, lam, GRID)[0])
    for fs in sequences:
        assert fs.evaluate_many is fs.evaluate, fs.description
        assert fs.broadcasts, fs.description
    for ladder in [lambda_family(name) for name in LAMBDA_IDS] + [lambda_from_table([1, 2, 2])]:
        assert ladder.values_many is ladder.values, ladder.name


def test_functionals_see_a_flat_list_of_vectors():
    # np.abs(*x.T) answers one vector and a list of vectors alike, so the
    # probe keeps it as given, but on (indices, points, coordinates) it
    # would answer transposed.  The detectors pass batches as a flat list.
    space = standard_ifn(builtin_norm("abs"), tnorm("product"), tconorm("bounded-sum"))
    flat = standard_ifn(lambda x: np.abs(*x.T), space.tnorm, space.tconorm)
    assert not isinstance(flat.norm, np.vectorize)
    fs, limit, _ = build_example("paper-example-1", lambda_family("sqrt"), GRID)
    q = ConvergenceQuery(mode="uniform-lambda-stat", epsilon=0.1, time=1.0,
                         lam=lambda_family("sqrt"), n_max=1000)
    for ifn in (flat, dataclasses.replace(flat, norm=None)):  # by the norm, then by mu and nu
        assert detect(fs, limit, ifn, q).to_json_dict() == detect(fs, limit, space, q).to_json_dict()


def test_batched_predicate_is_called_once_on_the_range():
    calls = []

    def every_third(ks):
        calls.append(np.size(ks))
        return ks % 3 == 0

    trace = density_trace(every_third, lambda_family("identity"), 10_000)
    assert calls.count(10_000) == 1 and len(calls) < 10
    assert trace.counts[-1] == 3333


def test_nan_at_the_probe_keeps_the_batched_form():
    # sqrt(x - 0.5) is NaN at the probe point x = 0 on both sides of the probe
    def evaluate(ks, x):
        with np.errstate(invalid="ignore"):
            return np.sqrt(np.asarray(x, dtype=float) - 0.5) + 0.0 * np.asarray(ks)

    fs = FunctionSequence(evaluate, GRID, "sqrt(x - 0.5)")
    assert GRID[0] == 0.0 and fs.evaluate_many is evaluate
    assert np.isnan(fs.evaluate_many(np.arange(1, 4), 0.0)).all()


def test_at_reads_the_batched_form():
    def ramp(ns):
        return ns.astype(float)  # arrays only: a Python int has no astype

    lam = LambdaSequence("ramp", ramp, ramp)
    assert lam.at(5) == 5.0 and lam.at(1) == 1.0
