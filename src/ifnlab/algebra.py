"""Binary operations on the unit interval and sampled axiom certification.

A t-norm is an associative, commutative, monotone operation on [0, 1] with
identity 1; a t-conorm is its dual with identity 0.  Certification here is
numerical: each axiom is checked on a finite grid and reported with the worst
observed violation, so a report is evidence at a resolution, not a proof.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

# Tolerance for sampled equality/inequality checks.
EQUALITY_TOL = 1e-12

# A continuous operation may vary by at most this many cell widths across one
# grid cell.  All shipped operations are 1-Lipschitz in each argument, so the
# true cell variation is at most 2 cells; the factor 4 leaves slack for
# rounding without letting a jump discontinuity through.
CONTINUITY_SLACK = 4.0


class DomainError(ValueError):
    """Input outside the mathematical domain of an operation."""


def check_integer(name: str, value, low: int) -> None:
    """Raise DomainError unless ``value`` is an int or numpy integer (not a bool), >= ``low``."""
    if not isinstance(value, (int, np.integer)) or isinstance(value, bool) or value < low:
        raise DomainError(f"{name} must be an integer >= {low}, got {value!r}")


def check_choice(noun: str, value, ids: tuple) -> None:
    """Raise DomainError, naming the ``noun``, unless ``value`` is a string in ``ids``."""
    if not (isinstance(value, str) and value in ids):
        raise DomainError(f"unknown {noun} {value!r}; choose from {ids}")


def check_time(t) -> np.ndarray:
    """The time ``t``, a number or an array, as floats; DomainError unless positive and finite."""
    times = np.asarray(t, dtype=float)
    if not np.all((0.0 < times) & (times < np.inf)):
        raise DomainError(f"time must be positive and finite, got {t!r}")
    return times


# The smallest level: ``IFNorm.exceptional`` widens its boundary by ``space.GUARD``
# (1e-12), so a level at or below GUARD would call a zero difference exceptional.
LEVEL_MIN = 1e-10


def check_level(epsilon, time, name: str = "epsilon") -> None:
    """Raise DomainError unless ``epsilon`` lies in [LEVEL_MIN, 1) and ``time`` passes
    ``check_time``."""
    if not LEVEL_MIN <= epsilon < 1.0:
        raise DomainError(f"{name} must lie in [{LEVEL_MIN!r}, 1), got {epsilon}")
    check_time(time)


def _check_unit(value, label: str):
    arr = np.asarray(value, dtype=float)
    if arr.size and not (np.all(arr >= 0.0) and np.all(arr <= 1.0)):
        raise DomainError(f"{label} must lie in [0, 1], got {value!r}")
    return arr if arr.ndim else float(arr)


# How a scalar-only callable fails on arrays; IndexError also comes from a short probe vector.
PROBE_ERRORS = (TypeError, ValueError, IndexError, AttributeError)


def agrees(out: np.ndarray, ref: np.ndarray) -> bool:
    """Whether two probe answers match in shape and value up to rtol 1e-9, NaN matching NaN."""
    return out.shape == ref.shape and np.allclose(out, ref, rtol=1e-9, atol=0.0, equal_nan=True)


def vectorize_scalar(fn: Callable, *probe, signature: str | None = None) -> Callable:
    """``fn`` if it broadcasts over the ``probe`` arguments, else its per-element form.

    The one place where a user callable is checked for arrays.  ``fn`` is kept
    when its answer on the probe arrays ``agrees`` with its per-element form
    (``np.vectorize``, returning floats), or when it answers the arrays but
    raises on the first probe elements as Python numbers and has no core
    dimensions (a numpy ``signature`` such as ``"(d),()->()"``, for which an
    element may be shorter than ``fn`` expects): it takes arrays only.
    """
    batched = np.vectorize(fn, otypes=[float], signature=signature)
    try:
        out = np.asarray(fn(*probe), dtype=float)
    except PROBE_ERRORS:
        return batched
    try:
        return fn if agrees(out, batched(*probe)) else batched
    except PROBE_ERRORS:
        if signature is not None:
            return batched
    try:
        fn(*(np.asarray(p).flat[0].item() for p in probe))
    except PROBE_ERRORS:
        return fn
    return batched


@dataclass(frozen=True)
class UnitIntervalOp:
    """A named binary operation on [0, 1] claiming t-norm or t-conorm behaviour.

    ``fn(a, b)`` broadcasts over numpy arrays, as the shipped operations do.
    A callable that only takes two floats is accepted too: construction probes
    it once and, if it does not broadcast, stores its ``vectorize_scalar``
    form in ``fn``.
    """

    name: str
    kind: str  # "tnorm" | "tconorm"
    fn: Callable

    def __post_init__(self):
        if self.kind not in ("tnorm", "tconorm"):
            raise DomainError(f"kind must be 'tnorm' or 'tconorm', got {self.kind!r}")
        probe = (np.array([[0.25], [0.75]]), np.array([0.5, 1.0]))  # column against row
        object.__setattr__(self, "fn", vectorize_scalar(self.fn, *probe))

    @property
    def identity_element(self) -> float:
        """1 for t-norms, 0 for t-conorms."""
        return 1.0 if self.kind == "tnorm" else 0.0

    def evaluate(self, a, b):
        """Apply the operation after checking both arguments lie in [0, 1]."""
        a = _check_unit(a, "a")
        b = _check_unit(b, "b")
        return self.fn(a, b)

    def __call__(self, a, b):
        return self.evaluate(a, b)


_TNORM_FNS = {
    "product": lambda a, b: a * b,
    "min": np.minimum,
    "lukasiewicz": lambda a, b: np.maximum(a + b - 1.0, 0.0),
}

_TCONORM_FNS = {
    "prob-sum": lambda a, b: a + b - a * b,
    "max": np.maximum,
    "bounded-sum": lambda a, b: np.minimum(a + b, 1.0),
}

TNORM_IDS = tuple(_TNORM_FNS)
TCONORM_IDS = tuple(_TCONORM_FNS)


def tnorm(name: str) -> UnitIntervalOp:
    """Look up a built-in t-norm: product, min, or lukasiewicz."""
    check_choice("t-norm", name, TNORM_IDS)
    return UnitIntervalOp(name, "tnorm", _TNORM_FNS[name])


def tconorm(name: str) -> UnitIntervalOp:
    """Look up a built-in t-conorm: prob-sum, max, or bounded-sum."""
    check_choice("t-conorm", name, TCONORM_IDS)
    return UnitIntervalOp(name, "tconorm", _TCONORM_FNS[name])


def builtin_op(name: str) -> UnitIntervalOp:
    """Look up any built-in operation by id string."""
    check_choice("operation", name, TNORM_IDS + TCONORM_IDS)
    return tnorm(name) if name in _TNORM_FNS else tconorm(name)


@dataclass(frozen=True)
class AxiomReport:
    """Outcome of one sampled axiom check.

    ``passed`` holds exactly when ``worst_violation <= tolerance``.  The
    witness is the input tuple achieving the worst violation (grid values).
    """

    axiom: str
    passed: bool
    worst_violation: float
    witness: tuple
    tolerance: float


def _report(axiom: str, violation: float, witness: tuple, tolerance: float) -> AxiomReport:
    violation = float(violation)
    return AxiomReport(axiom, violation <= tolerance, violation, witness, tolerance)


def certify(
    op: UnitIntervalOp,
    grid_resolution: int = 101,
    check_idempotency: bool = False,
    tolerance: float = EQUALITY_TOL,
) -> list[AxiomReport]:
    """Check the t-norm/t-conorm axioms for ``op`` on a uniform grid.

    Reports cover commutativity, associativity, the identity law (a * 1 = a
    for t-norms, a + 0 = a for t-conorms), joint monotonicity, and sampled
    continuity.  Idempotency (a op a = a) is not part of the core axioms and
    is only checked on request; the product t-norm fails it, which is the
    expected behaviour, not a bug.
    """
    check_integer("grid_resolution", grid_resolution, 2)
    grid = np.linspace(0.0, 1.0, grid_resolution)
    cell = grid[1] - grid[0]
    fn = op.fn
    table = fn(grid[:, None], grid[None, :])  # table[i, j] = op(grid[i], grid[j])

    reports = []

    diff = np.abs(table - table.T)
    i, j = np.unravel_index(np.argmax(diff), diff.shape)
    reports.append(_report("commutativity", diff[i, j], (grid[i], grid[j]), tolerance))

    left = fn(table[:, :, None], grid[None, None, :])   # (a op b) op c
    right = fn(grid[:, None, None], table[None, :, :])  # a op (b op c)
    diff = np.abs(left - right)
    i, j, k = np.unravel_index(np.argmax(diff), diff.shape)
    reports.append(_report("associativity", diff[i, j, k], (grid[i], grid[j], grid[k]), tolerance))

    with_identity = fn(grid, op.identity_element)
    diff = np.abs(with_identity - grid)
    i = int(np.argmax(diff))
    reports.append(_report("identity", diff[i], (grid[i], op.identity_element), tolerance))

    # Monotone in each argument (with commutativity this gives joint
    # monotonicity: a<=b, c<=d implies op(a,c) <= op(b,c) <= op(b,d)).
    worst, witness = 0.0, (grid[0], grid[0])
    for drops in (table[:-1, :] - table[1:, :], table[:, :-1] - table[:, 1:]):  # rows, columns
        i, j = np.unravel_index(np.argmax(drops), drops.shape)
        if drops[i, j] > worst:
            worst, witness = drops[i, j], (grid[i], grid[j])
    reports.append(_report("monotonicity", max(worst, 0.0), witness, tolerance))

    # Sampled continuity: variation across any grid cell stays within
    # CONTINUITY_SLACK cell widths.  A jump discontinuity keeps a fixed
    # variation as the grid refines, so it cannot hide under this bound.
    corners = np.stack(
        [table[:-1, :-1], table[1:, :-1], table[:-1, 1:], table[1:, 1:]]
    )
    variation = corners.max(axis=0) - corners.min(axis=0)
    excess = variation - CONTINUITY_SLACK * cell
    i, j = np.unravel_index(np.argmax(excess), excess.shape)
    reports.append(_report("continuity", max(float(excess[i, j]), 0.0), (grid[i], grid[j]), tolerance))

    if check_idempotency:
        on_diagonal = np.abs(np.diagonal(table) - grid)
        i = int(np.argmax(on_diagonal))
        reports.append(_report("idempotency", on_diagonal[i], (grid[i], grid[i]), tolerance))

    return reports
