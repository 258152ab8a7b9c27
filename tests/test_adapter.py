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
                    detect_cauchy, lambda_family, lambda_from_table, split_triangle_check,
                    standard_ifn, tconorm, tnorm)
from ifnlab.algebra import _TNORM_FNS
from ifnlab.density import _window_lows
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
    scalar = FunctionSequence(lambda k, x: float(fs.per_point(np.array([int(k)]), x)[0]),
                              GRID, fs.description)
    assert isinstance(scalar.per_point, np.vectorize)
    space = euclidean_space()

    def run(seq):
        equi = [check_equicontinuity(seq, space, space,
                                     ContinuityQuery(point=x, epsilon=0.3, time=1.0), k_max=50)
                for x in (0.25, 0.5, 0.75)]
        return run_detect(seq, limit, space), equi

    return run(fs), run(scalar)


def lambda_case():
    lam = lambda_family("sqrt")
    scalar = LambdaSequence("sqrt", lambda n: float(lam.values(np.array([int(n)]))[0]))
    assert isinstance(scalar.values, np.vectorize)
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


# Callables that take arrays only: called on one element they raise, so the
# probe keeps them as given.  Each is run against its scalar twin.
def array_predicate_case():
    def run(member):
        trace = density_trace(member, lambda_family("sqrt"), 5000)
        return trace.counts.tolist(), trace.ratios.tolist(), trace.verdict

    return run(lambda ks: ks.astype(float) % 7 == 0), run(lambda k: k % 7 == 0)


def array_lambda_case():
    mask = np.arange(1, 5001) % 7 == 0

    def run(ladder):
        trace = density_trace(mask, ladder, 5000)
        return (trace.ratios.tolist(), trace.lows.tolist(), ladder.at(77),
                BumpIndexSet(ladder).mask(5000).tolist())

    return (run(LambdaSequence("ramp", lambda ns: ns.astype(float))),
            run(LambdaSequence("ramp", lambda n: float(n))))


# Vector-valued sequences: one callable each, read by the width of a term.
def scalar_planar(k, x):  # numbers in, one row out
    return np.array([x / k, np.sin(k) * x])


def broadcasting_planar(ks, xs):
    k, x = np.asarray(ks, dtype=float), np.asarray(xs, dtype=float)
    return np.stack([x / k, np.sin(k) * x], axis=-1)


def scalar_spatial(k, x):
    return np.array([x / k, np.cos(k) * x, x * x])


def run_planar(seq):
    space = euclidean_space()
    equi = check_equicontinuity(seq, space, space,
                                ContinuityQuery(point=0.5, epsilon=0.3, time=1.0), k_max=50)
    return (seq.terms(np.arange(1, 200), GRID).tolist(), equi,
            run_detect(seq, lambda x: np.zeros(2), space))


def array_planar_case():
    def evaluate(ks, x):  # indices batched, one point at a time
        k = ks.astype(float)
        return np.column_stack([x / k, np.sin(k) * x])

    array_only = FunctionSequence(evaluate, GRID, "planar")
    assert array_only.per_point is evaluate and not array_only.broadcasts
    return run_planar(array_only), run_planar(FunctionSequence(scalar_planar, GRID, "planar"))


def broadcasting_planar_case():
    fs = FunctionSequence(broadcasting_planar, GRID, "planar")
    assert fs.per_point is broadcasting_planar and fs.broadcasts
    return run_planar(fs), run_planar(FunctionSequence(scalar_planar, GRID, "planar"))


@pytest.mark.parametrize("case", [sequence_case, lambda_case, degree_case,
                                  plane_degree_case, op_case, array_predicate_case,
                                  array_lambda_case, array_planar_case,
                                  broadcasting_planar_case],
                         ids=["sequence", "lambda", "mu-nu", "mu-nu-plane", "op",
                              "array-predicate", "array-lambda", "array-planar",
                              "broadcasting-planar"])
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
        assert fs.per_point is fs.evaluate, fs.description
        assert fs.broadcasts, fs.description
    for ladder in [lambda_family(name) for name in LAMBDA_IDS] + [lambda_from_table([1, 2, 2])]:
        assert not isinstance(ladder.values, np.vectorize), ladder.name


def test_functionals_see_a_flat_list_of_vectors():
    # np.abs(*x.T) and x.T[0] answer one vector and a list of vectors alike,
    # so the probe keeps them as given, but on (indices, points, coordinates)
    # they would answer transposed.  Every call passes its batch as a flat
    # list.  (A pair reading x[:, 0] raises on one vector, so the probe keeps
    # its per-element form instead.)
    space = standard_ifn(builtin_norm("abs"), tnorm("product"), tconorm("bounded-sum"))
    flat = standard_ifn(lambda x: np.abs(*x.T), space.tnorm, space.tconorm)
    column = IFNorm(lambda x, t: t / (t + np.abs(x.T[0])),
                    lambda x, t: np.abs(x.T[0]) / (t + np.abs(x.T[0])), space.tnorm, space.tconorm)
    assert not isinstance(flat.norm, np.vectorize) and not isinstance(column.mu, np.vectorize)
    lam = lambda_family("sqrt")
    fs, limit, _ = build_example("paper-example-1", lam, GRID)
    shift, _ = build_reciprocal_shift(GRID)
    config = ExperimentConfig(expression="sin(k) * x", limit="0 * x")
    wide = _resolve_sequence(config, lam, np.linspace(0.0, 1.0, 101))[0]  # the rest pass probes
    queries = [ConvergenceQuery(mode=mode, epsilon=0.1, time=1.0, lam=lam, n_max=n_max)
               for mode, n_max in (("uniform-lambda-stat", 1000),
                                   ("uniform-lambda-cauchy", 20_000),
                                   ("pointwise-lambda-cauchy", 2000))]

    def run(ifn):
        return (detect(fs, limit, ifn, queries[0]).to_json_dict(),
                detect_cauchy(wide, ifn, queries[1]).to_json_dict(),
                detect_cauchy(_resolve_sequence(config, lam, GRID)[0], ifn,
                              queries[2]).to_json_dict(),
                certify_ifn(ifn, default_samples(1), default_times()),
                check_equicontinuity(shift, ifn, ifn,
                                     ContinuityQuery(point=0.5, epsilon=0.3, time=1.0)),
                split_triangle_check(ifn, [0.1, -0.3, 0.2], 1.0))

    expected = run(space)
    # by the norm, by mu and nu, by a mu and nu that only read columns
    for ifn in (flat, dataclasses.replace(flat, norm=None), column):
        assert run(ifn) == expected


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
    assert GRID[0] == 0.0 and fs.per_point is evaluate
    assert np.isnan(fs.per_point(np.arange(1, 4), 0.0)).all()


def test_at_reads_the_batched_form():
    def ramp(ns):
        return ns.astype(float)  # arrays only: a Python int has no astype

    lam = LambdaSequence("ramp", ramp)
    assert lam.at(5) == 5.0 and lam.at(1) == 1.0


@pytest.mark.parametrize("evaluate, width, broadcasts", [
    (scalar_planar, 2, False), (scalar_spatial, 3, False), (broadcasting_planar, 2, True),
], ids=["scalar-2", "scalar-3", "broadcasting-2"])
def test_a_vector_valued_evaluate_reads_rows(evaluate, width, broadcasts):
    # A scalar form's array call puts the coordinates first; it is read through
    # its per-element rows instead, as the width probe tells it apart.
    fs = FunctionSequence(evaluate, GRID, "vector")
    assert fs.broadcasts == broadcasts
    assert isinstance(fs.per_point, np.vectorize) != broadcasts
    ks = np.arange(1, 200)
    twin = np.array([[evaluate(float(k), float(x)) for k in ks] for x in GRID])
    assert twin.shape == (GRID.size, ks.size, width)
    assert np.array_equal(fs.terms(ks, GRID), twin)
    assert np.array_equal(fs.per_point(ks, GRID[4]), twin[4])


def test_a_pole_at_the_first_point_keeps_the_grid_form():
    # 1 / x is a ZeroDivisionError on the Python float 0.0, so the width is read
    # on numpy scalars, where it is inf
    def evaluate(ks, x):
        return 1.0 / x + ks

    with np.errstate(divide="ignore"):
        fs = FunctionSequence(evaluate, GRID, "1 / x + k")
        assert GRID[0] == 0.0 and fs.per_point is evaluate and fs.broadcasts
        terms = fs.terms(np.arange(1, 4), GRID[:2])
    assert np.isinf(terms[0]).all() and np.array_equal(terms[1, :, 0], 10.0 + np.arange(1, 4))


def test_evaluate_many_is_not_an_input():
    fs, _ = build_reciprocal_shift(GRID)
    with pytest.raises(TypeError, match="one evaluate"):
        FunctionSequence(fs.evaluate, GRID, "shift", fs.evaluate)
    with pytest.raises(TypeError, match="one evaluate"):
        dataclasses.replace(fs, evaluate_many=fs.evaluate)
    assert dataclasses.replace(fs, evaluate_many=None).broadcasts


# ---------------------------------------------------------------- dataclasses.replace
# Every form construction derives is derived again by ``replace``.
def test_a_replaced_ladder_answers_its_new_values():
    identity, ns = lambda_family("identity"), np.arange(1, 3001)
    lam = dataclasses.replace(lambda_family("sqrt"), values=lambda ns: np.asarray(ns, float))
    assert lam.at(100) == 100.0
    assert all(np.array_equal(a, b) for a, b in zip(_window_lows(lam, ns),
                                                    _window_lows(identity, ns)))
    assert np.array_equal(BumpIndexSet(lam).mask(3000), BumpIndexSet(identity).mask(3000))


def test_a_replaced_evaluate_is_probed_again():
    fs, _ = _resolve_sequence(ExperimentConfig(expression="sin(k) * x"), None, GRID)
    doubled = dataclasses.replace(fs, evaluate=lambda k, x: 2 * fs.evaluate(k, x))
    assert doubled.broadcasts
    ks = np.arange(1, 200)
    expected = 2 * np.sin(ks) * GRID[:, None]
    assert np.array_equal(doubled.terms(ks, GRID)[..., 0], expected)
    assert np.array_equal(doubled.per_point(ks, GRID[3]), expected[3])


def test_a_replaced_vector_evaluate_is_read_by_its_width():
    fs, _ = build_reciprocal_shift(GRID)
    ks = np.arange(1, 50)
    assert fs.terms(ks, GRID).shape == (GRID.size, ks.size, 1)
    for evaluate, broadcasts in ((scalar_planar, False), (broadcasting_planar, True)):
        planar = dataclasses.replace(fs, evaluate=evaluate)
        assert planar.broadcasts == broadcasts
        assert np.array_equal(planar.terms(ks, GRID),
                              FunctionSequence(scalar_planar, GRID, "planar").terms(ks, GRID))
    assert dataclasses.replace(planar, evaluate=fs.evaluate).terms(ks, GRID).shape[-1] == 1


def test_replaced_mu_and_nu_drop_the_norm():
    std = standard_ifn(builtin_norm("abs"), tnorm("product"), tconorm("bounded-sum"))

    def mu(x, t):
        return t / (t + np.abs(x[..., 0]) / 2)

    def nu(x, t):
        r = np.abs(x[..., 0]) / 2
        return r / (t + r)

    halved, plain = dataclasses.replace(std, mu=mu, nu=nu), IFNorm(mu, nu, std.tnorm, std.tconorm)
    assert std.norm is not None and halved.norm is None
    assert std.exceptional(np.array([[0.15]]), 0.1, 1.0)
    assert not halved.exceptional(np.array([[0.15]]), 0.1, 1.0)
    fs, limit = build_reciprocal_shift(GRID)
    q = ConvergenceQuery(mode="pointwise-lambda-stat", epsilon=0.1, time=1.0,
                         lam=lambda_family("identity"), n_max=1000)
    verdicts = [detect(fs, limit, ifn, q).to_json_dict() for ifn in (std, halved, plain)]
    assert verdicts[1] == verdicts[2] != verdicts[0]
