"""The detectors on the bundled families, against their exceptional sets built in closed form.

Off the bump set W a bundled family sits on its limit; on W its term is
x**k + lift(x), against a limit base(x).  In the standard space an index is
exceptional exactly when |f_k(x) - f(x)| >= r = t*eps/(1 - eps), so the
exceptional set at x is the members k of W with |x**k + lift(x) - base(x)| >= r,
and every windowed count follows from it by two searchsorted calls.
"""
import numpy as np
import pytest

from ifnlab import (BumpIndexSet, ConvergenceQuery, build_example, detect, lambda_family)
from ifnlab.convergence import (CLASSICAL_CLEAN_FRACTION, CLASSICAL_DIRTY_FRACTION,
                                WITNESS_CAP)

GRID = np.linspace(0.0, 1.0, 11)
MODES = ("pointwise-lambda-stat", "uniform-lambda-stat", "ifn-classical")
# r = 0.111 sits below every lift; r = 1 is met exactly at x = 0 (0**k + 1);
# r = 1.37 lies above the lift of example 2, so only large x**k are exceptional;
# r = 2.5 lies above every term, so no index is.
EPS_T = [(0.1, 1.0), (0.5, 1.0), (0.5, 1.37), (0.5, 2.5)]


def shift(example: str, x: float) -> float:
    """lift(x) - base(x): the gap of a bump term x**k + lift(x) from the limit."""
    if example == "paper-example-2":
        return 1.0
    if x == 1.0:
        return None  # example 1 pins every term at x = 1 to its limit 2
    return 1.0 if x < 0.5 else -0.5


def oracle_sets(example: str, lam, n_max: int, eps: float, t: float) -> list[np.ndarray]:
    """Per grid point, the sorted exceptional indices up to n_max."""
    members = np.flatnonzero(BumpIndexSet(lam).mask(n_max))
    r = t * eps / (1.0 - eps)
    sets = []
    for x in GRID:
        gap = shift(example, x)
        sets.append(members[:0] if gap is None
                    else members[np.abs(x ** members.astype(float) + gap) >= r])
    return sets


def oracle_counts(hits: np.ndarray, ns: np.ndarray, lows: np.ndarray) -> np.ndarray:
    return np.searchsorted(hits, ns, "right") - np.searchsorted(hits, lows - 1, "right")


def oracle_witnesses(sets, keys, ends, cap=WITNESS_CAP) -> list:
    """The last indices of each failing group's set in its final window, in grid order.

    ``keys`` are the groups' point indices, ``ends`` their final windows (or
    None for a converging group); each k goes to the first point of the group
    where it is exceptional.
    """
    witnesses = []
    for points, end in zip(keys, ends):
        if end is None or len(witnesses) >= cap:
            continue
        union = np.unique(np.concatenate([sets[j] for j in points]))
        tail = union[(union >= end[0]) & (union <= end[1])][-(cap - len(witnesses)):]
        witnesses += [(int(k), float(GRID[next(j for j in points if k in sets[j])]))
                      for k in tail]
    return witnesses


def check_against_oracle(std_space, example, lam, mode, n_max, eps, t):
    fs, limit, _ = build_example(example, lam, GRID)
    v = detect(fs, limit, std_space, ConvergenceQuery(mode, eps, t, lam, n_max))
    sets = oracle_sets(example, lam, n_max, eps, t)
    if mode == "ifn-classical":
        last = {float(x): int(s[-1]) if s.size else 0 for x, s in zip(GRID, sets)}
        assert v.details["last_exceptional"] == last
        cut = int(n_max * CLASSICAL_DIRTY_FRACTION)
        dirty = [(int(k), float(x)) for x, s in zip(GRID, sets) for k in s[s > cut]]
        assert v.witnesses == dirty[:WITNESS_CAP]
        clean = all(k <= int(n_max * CLASSICAL_CLEAN_FRACTION) for k in last.values())
        assert (v.verdict == "converges") == clean
        return v
    traces = [v.traces] if mode.startswith("uniform") else [v.traces[float(x)] for x in GRID]
    keys = [range(GRID.size)] if mode.startswith("uniform") else [[j] for j in range(GRID.size)]
    ends = []
    for points, trace in zip(keys, traces):
        hits = np.unique(np.concatenate([sets[j] for j in points]))
        assert np.array_equal(trace.counts, oracle_counts(hits, trace.ns, trace.lows))
        lam_vals = lam.values(trace.ns)
        assert np.array_equal(trace.lows, np.maximum(1, trace.ns - np.ceil(lam_vals) + 1))
        assert np.array_equal(trace.ratios, trace.counts / lam_vals)
        ends.append(None if trace.verdict == "limit-zero" else (trace.lows[-1], trace.ns[-1]))
    assert v.witnesses == oracle_witnesses(sets, keys, ends)
    return v


@pytest.mark.parametrize("eps, t", EPS_T)
@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("ladder", ["identity", "sqrt", "log"])
@pytest.mark.parametrize("example", ["paper-example-1", "paper-example-2"])
def test_kernel_matches_the_closed_form_sets(std_space, example, ladder, mode, eps, t):
    check_against_oracle(std_space, example, lambda_family(ladder), mode, 100_000, eps, t)


def test_kernel_matches_the_closed_form_set_over_a_long_horizon(std_space):
    v = check_against_oracle(std_space, "paper-example-2", lambda_family("identity"),
                             "uniform-lambda-stat", 3_000_000, 0.1, 1.0)
    assert v.verdict == "converges"


def test_the_bumps_never_die_out_yet_the_family_converges_windowed(std_space):
    """The paper's separation on example 2: fails classically, converges lambda-statistically."""
    lam = lambda_family("identity")
    fs, limit, _ = build_example("paper-example-2", lam, GRID)
    verdicts = {mode: detect(fs, limit, std_space,
                             ConvergenceQuery(mode, 0.1, 1.0, lam, 10_000_000)).verdict
                for mode in ("ifn-classical", "uniform-lambda-stat")}
    assert verdicts == {"ifn-classical": "fails", "uniform-lambda-stat": "converges"}
