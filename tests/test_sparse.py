"""The sparse sweep of the bundled families against their dense twins.

A bundled family's ``evaluate`` carries the sparse form ``(bumps, base,
bump)``, and ``convergence._union`` then evaluates the bump set's members
only.  A twin that calls the same ``evaluate`` through a lambda has no sparse
form and is swept densely, so every output must match it exactly.
"""
import dataclasses

import numpy as np
import pytest

from ifnlab import (BumpIndexSet, ConvergenceQuery, build_example, detect, detect_cauchy,
                    lambda_family, lemma_equivalence_check)
from ifnlab.convergence import BLOCK_ELEMENTS, CAUCHY_MODES, MODES, _stages, _union
from ifnlab.sequences import FunctionSequence, _bump_family

GRID = np.linspace(0.0, 1.0, 11)
EXAMPLES = ("paper-example-1", "paper-example-2")
LADDERS = ("identity", "sqrt", "log")
# (epsilon, t): r = 0.111 sits below every lift; r = 1 is met exactly at x = 0
EPS_T = ((0.1, 1.0), (0.5, 1.0))
PARTIAL = 140_001  # ends in a partial block and a partial feed of every sweep


def dense_twin(fs: FunctionSequence) -> FunctionSequence:
    return FunctionSequence(lambda k, x: fs.evaluate(k, x), fs.domain_grid, fs.description)


def last_member(ladder: str, below: int) -> int:
    """The largest member of the ladder's bump set up to ``below``."""
    members = BumpIndexSet(lambda_family(ladder)).members_in(1, below)
    return int(members[-1])


def run(fs, limit, space, q):
    return detect_cauchy(fs, space, q) if q.mode in CAUCHY_MODES else detect(fs, limit, space, q)


def trace_counts(v) -> list:
    return [trace.counts.tolist() for _, trace in v._point_traces()]


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("ladder", LADDERS)
@pytest.mark.parametrize("example", EXAMPLES)
def test_sparse_sweep_equals_the_dense_twin(std_space, example, ladder, mode):
    lam = lambda_family(ladder)
    fs, limit, _ = build_example(example, lam, GRID)
    twin = dense_twin(fs)
    assert fs.evaluate.sparse and not hasattr(twin.evaluate, "sparse")
    # the second horizon is a member of W: the Cauchy reference f_{n_max} is a
    # bump term, so against it every index off W is exceptional
    member = last_member(ladder, 99_000)
    assert member % (BLOCK_ELEMENTS // GRID.size) and member in fs.evaluate.sparse[0]
    for n_max in (PARTIAL, member):
        for eps, t in EPS_T:
            q = ConvergenceQuery(mode, eps, t, lam, n_max)
            sparse, dense = run(fs, limit, std_space, q), run(twin, limit, std_space, q)
            assert sparse.to_json_dict() == dense.to_json_dict()
            assert trace_counts(sparse) == trace_counts(dense)
            assert sparse.witnesses == dense.witnesses


@pytest.mark.parametrize("ladder", LADDERS)
def test_sparse_lemma_equals_the_dense_twin(std_space, ladder):
    lam = lambda_family(ladder)
    for example in EXAMPLES:
        fs, limit, _ = build_example(example, lam, GRID)
        twin = dense_twin(fs)
        for mode in ("pointwise-lambda-stat", "uniform-lambda-stat"):
            q = ConvergenceQuery(mode, 0.5, 1.0, lam, PARTIAL)
            assert (lemma_equivalence_check(fs, limit, std_space, q)
                    == lemma_equivalence_check(twin, limit, std_space, q))
        # the lemma's rows, mu, nu and their union, over the whole grid
        q = ConvergenceQuery("uniform-lambda-stat", 0.5, 1.0, lam, PARTIAL)
        stages = _stages(lam, PARTIAL, None)
        split = [_union(s, std_space, q, GRID, [limit], stages, split=True).counts()
                 for s in (fs, twin)]
        assert np.array_equal(*split)


def counted_bump(fs: FunctionSequence) -> list:
    """Swap the sparse form's bump branch for one that logs its (members, points) sizes."""
    bumps, base, bump = fs.evaluate.sparse
    sizes = []

    def logged(ks, xs):
        sizes.append((ks.size, xs.size))
        return bump(ks, xs)

    fs.evaluate.sparse = (bumps, base, logged)
    return sizes


def test_a_replaced_evaluate_takes_the_dense_path(std_space):
    lam = lambda_family("identity")
    fs, limit, _ = build_example("paper-example-2", lam, GRID)
    sizes = counted_bump(fs)
    q = ConvergenceQuery("uniform-lambda-stat", 0.1, 1.0, lam, PARTIAL)
    replaced = dataclasses.replace(fs, evaluate=lambda k, x: fs.evaluate(k, x))
    dense = detect(replaced, limit, std_space, q)
    assert sizes == []
    sparse = detect(fs, limit, std_space, q)
    assert sizes and sparse.to_json_dict() == dense.to_json_dict()


def test_one_bump_evaluation_holds_at_most_a_block_of_terms(std_space):
    lam = lambda_family("sqrt")
    grid = np.linspace(0.0, 1.0, 101)
    fs, limit, _ = build_example("paper-example-2", lam, grid)
    sizes = counted_bump(fs)
    v = detect(fs, limit, std_space, ConvergenceQuery("uniform-lambda-stat", 0.1, 1.0, lam,
                                                      1_000_000))
    assert v.verdict == "inconclusive"
    terms = [m * points for m, points in sizes]
    # a feed holds about BLOCK_ELEMENTS // 101 * 101 indices and some 2,000 members
    assert max(terms) <= BLOCK_ELEMENTS
    assert sum(terms) == 101 * fs.evaluate.sparse[0].members_in(1, 1_000_000).size


def faulty_family(lam, bad_k: int):
    """Example 2's branches with a NaN bump term at index ``bad_k`` (a member) and x >= 0.5."""

    def bump(ks, xs):
        out = xs[:, None] ** ks + 1.0
        out[:, ks == bad_k] = np.where(xs >= 0.5, np.nan, 1.0)[:, None]
        return out

    return _bump_family(BumpIndexSet(lam), lambda xs: np.zeros(xs.shape), bump, GRID, "faulty")


@pytest.mark.parametrize("mode", MODES)
def test_faults_are_reported_as_by_the_dense_twin(std_space, mode):
    # a NaN bump term is met in the sparse sweep; a NaN limit sends it to the dense one
    lam = lambda_family("sqrt")
    bad_k = last_member("sqrt", 70_000)
    q = ConvergenceQuery(mode, 0.1, 1.0, lam, PARTIAL)
    cases = [(faulty_family(lam, bad_k), lambda x: 0.0,
              rf"sequence value not finite at \(k={bad_k}, x=0.5\)")]
    if mode not in CAUCHY_MODES:
        cases.append((build_example("paper-example-2", lam, GRID)[0],
                      lambda x: np.nan if x == 0.5 else 0.0, "limit value not finite at x=0.5"))
    for fs, limit, message in cases:
        assert fs.evaluate.sparse
        for form in (fs, dense_twin(fs)):
            with pytest.raises(ValueError, match=message):
                run(form, limit, std_space, q)
