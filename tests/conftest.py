"""Shared fixtures: the default graded-norm space and randomized decay families."""
import numpy as np
import pytest

from ifnlab import (FunctionSequence, builtin_norm, standard_ifn, tconorm, tnorm)

# Filled by tests/test_acceptance.py; echoed verbatim at the end of the run so
# the gate shows one PASS/FAIL line per criterion whatever else pytest prints.
ACCEPTANCE_RESULTS: list[tuple[str, bool, str]] = []


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not ACCEPTANCE_RESULTS:
        return
    terminalreporter.section("acceptance criteria")
    for label, ok, description in ACCEPTANCE_RESULTS:
        status = "PASS" if ok else "FAIL"
        terminalreporter.write_line(f"ACCEPTANCE {label} {status} - {description}")


@pytest.fixture(scope="session")
def std_space():
    """Standard graded norm on the line: mu = t/(t+|x|), product / bounded-sum."""
    return standard_ifn(builtin_norm("abs"), tnorm("product"), tconorm("bounded-sum"))


@pytest.fixture(scope="session")
def unit_grid():
    return np.linspace(0.0, 1.0, 11)


def make_decay_family(rng: np.random.Generator, grid: np.ndarray):
    """Random family f_k(x) = limit(x) + c * r**k * shape(x).

    The deviation decays geometrically, so only finitely many indices are
    exceptional at any tolerance; the family converges in every windowed
    mode and classically.  Returns (sequence, limit).
    """
    c = float(rng.uniform(0.5, 2.0))
    r = float(rng.uniform(0.3, 0.9))
    a = float(rng.uniform(-1.0, 1.0))
    b = float(rng.uniform(-1.0, 1.0))

    def limit(x):
        return a * float(x) + b

    def evaluate(ks, x):  # an index array at one point
        ks = np.asarray(ks, dtype=float)
        return limit(x) + c * np.exp(ks * np.log(r)) * (1.0 + float(x))

    fs = FunctionSequence(evaluate, grid, f"decay c={c:.3f} r={r:.3f}")
    assert fs.per_point is evaluate and not fs.broadcasts
    return fs, limit


@pytest.fixture
def decay_factory(unit_grid):
    def make(seed: int):
        return make_decay_family(np.random.default_rng(seed), unit_grid)

    return make
