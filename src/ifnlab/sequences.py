"""Function sequences on a sampled domain, and the bundled benchmark families.

The two bundled families are piecewise power sequences whose terms take a
"bump" branch on a sparse index set W and a base branch elsewhere.  W is
built greedily against the window ladder of the chosen lambda sequence so
that every window I_n holds at most ceil(sqrt(lambda_n)) bump indices; the
windowed density of W is therefore about sqrt(lambda_n)/lambda_n -> 0, which
is exactly what makes the families converge in the windowed-statistical
sense while every bump term stays far from the limit.
"""
from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Callable

import numpy as np

from .algebra import (PROBE_ERRORS, DomainError, agrees, check_choice, check_integer,
                      vectorize_scalar)
from .density import BLOCK_ELEMENTS, LambdaSequence, _window_lows


class GridMismatchError(ValueError):
    """Two sequences with different domain grids cannot be combined."""


@dataclass(frozen=True)
class FunctionSequence:
    """A sequence of functions sampled on a fixed domain grid.

    ``evaluate(k, x)`` gives the k-th term at point x (k >= 1): a number, or a
    row of d coordinates for a vector-valued sequence.  The library reads
    terms through ``terms`` and two forms derived at construction, so
    ``dataclasses.replace`` derives them again.  Construction calls
    ``evaluate`` once on index 1 and the first grid point as numpy scalars and
    reads the width d of the answer (1 if that call raises a probe error: the
    callable takes arrays only).  ``per_point(ks, x)`` answers an index array
    at one point, one row per index: ``evaluate`` through ``vectorize_scalar``
    (with the signature ``"(),()->(d)"`` when d > 1), probed at indices
    1..d+1 and the first grid point, so an index-batched answer of shape
    (d+1, d) is never mistaken for a coordinates-first one of shape (d, d+1).
    ``broadcasts`` says whether ``evaluate`` is also the grid form (see
    ``terms``): whether ``evaluate(ks[None, :], xs[:, None])`` at the same
    indices and the first two grid points matches the per-point rows in size
    and, reshaped, ``agrees``.  ``evaluate_many`` must be None; it is a field
    only for callers that still pass it to ``dataclasses.replace``.
    """

    evaluate: Callable
    domain_grid: np.ndarray
    description: str
    evaluate_many: None = None
    per_point: Callable = field(init=False, repr=False, compare=False)
    broadcasts: bool = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.evaluate_many is not None:
            raise TypeError("evaluate_many is no longer an input: pass one evaluate(k, x), "
                            "which may answer index arrays and rows of coordinates")
        grid = np.asarray(self.domain_grid, dtype=float)
        if grid.ndim != 1 or grid.size == 0:
            raise DomainError("domain_grid must be a non-empty 1-D array")
        if not np.all(np.isfinite(grid)):
            raise DomainError("domain_grid has non-finite points")
        object.__setattr__(self, "domain_grid", grid)
        try:  # numpy scalars, as np.vectorize with a signature passes them
            width = np.size(self.evaluate(np.int64(1), grid[0]))
        except PROBE_ERRORS:  # takes arrays only
            width = 1
        ks, xs = np.arange(1, width + 2), grid[:2]
        object.__setattr__(self, "per_point", vectorize_scalar(
            self.evaluate, ks, xs[0], signature="(),()->(d)" if width > 1 else None))
        object.__setattr__(self, "broadcasts", False)  # so ``terms`` gives the per-point rows
        try:
            out = np.asarray(self.evaluate(ks[None, :], xs[:, None]), dtype=float)
            ref = self.terms(ks, xs)
            broadcasts = out.size == ref.size and agrees(out.reshape(ref.shape), ref)
        except PROBE_ERRORS:  # a truth value of an array raises ValueError
            broadcasts = False
        object.__setattr__(self, "broadcasts", broadcasts)

    def terms(self, ks: np.ndarray, xs: np.ndarray) -> np.ndarray:
        """Terms f_k(x) for an index array across points, shaped (points, ks, coordinates).

        One ``evaluate`` call on a row of indices against a column of points
        when the sequence ``broadcasts``, else one ``per_point`` call per
        point, each giving one row.
        """
        if self.broadcasts:
            vals = np.asarray(self.evaluate(ks[None, :], xs[:, None]), dtype=float)
        else:
            vals = np.stack([np.asarray(self.per_point(ks, x), dtype=float)
                             .reshape(ks.size, -1) for x in xs])
        return vals.reshape(len(xs), ks.size, -1)


def combine_linear(fs1: FunctionSequence, fs2: FunctionSequence,
                   alpha: float, beta: float) -> FunctionSequence:
    """Pointwise alpha*fs1 + beta*fs2 on a shared grid; broadcasts if both ``per_point`` do."""
    if not np.array_equal(fs1.domain_grid, fs2.domain_grid):
        raise GridMismatchError("sequences live on different domain grids")

    def evaluate(ks, x):
        return alpha * np.asarray(fs1.per_point(ks, x)) + beta * np.asarray(fs2.per_point(ks, x))

    description = f"{alpha!r}*({fs1.description}) + {beta!r}*({fs2.description})"
    return FunctionSequence(evaluate, fs1.domain_grid, description)


# Stages per build step.  A set allocates its build scratch once, 17 bytes a
# stage (the stages, their window lows and a flag each, 272 KiB here), and
# writes every chunk into it; only the ladder's values are allocated per
# chunk.  A chunk twice as long builds about as fast and holds 0.3 MB more;
# one half as long builds a third slower.
_BUILD_CHUNK = BLOCK_ELEMENTS // 4


def _budget(lam: float) -> int:
    """The window budget ceil(sqrt(lambda)), rounded as numpy rounds it."""
    return math.ceil(math.sqrt(lam))


def _first_fall(seq: np.ndarray, before: float, flags: np.ndarray) -> int:
    """Index of the first entry of ``seq`` below the one before it, or -1.

    ``before`` stands before the first entry; ``flags`` is scratch of seq's size.
    """
    flags[0] = seq[0] < before
    np.less(seq[1:], seq[:-1], out=flags[1:])
    at = int(flags.argmax())
    return at if flags[at] else -1


class BumpIndexSet:
    """Sparse index set filled greedily against a window ladder.

    Walking n = 1, 2, 3, ... the set admits n whenever the current window
    I_n = [n - ceil(lambda_n) + 1, n] holds fewer than ceil(sqrt(lambda_n))
    members.  By induction every window then holds at most
    ceil(sqrt(lambda_n)) members (admission is gated on the bound, windows
    slide forward, and the budget never shrinks), while the set itself is
    infinite because the budget diverges.  Membership is exposed as an
    explicit predicate so the per-window bound is directly testable.

    The ladder must be admissible: the window lows and the budgets
    b_n = ceil(sqrt(lambda_n)) may never decrease, and ``ensure`` raises
    ``DomainError`` when they do.  The build runs in chunks of
    ``_BUILD_CHUNK`` stages on scratch the set holds.  Each chunk checks
    its window lows at every stage, and its budgets too where lambda falls:
    where it does not, sqrt and ceil keep the budgets from falling.  The
    build is then event-driven.  The budget b holds over a run of stages,
    found by bisecting lambda against b * b.  With c members so far, stage n
    is admitted iff b > c or low_n exceeds m, the b-th newest member.  After
    a refusal, a run whose last low is at most m has every window full, and
    the build moves to the next run; otherwise the next admission is the
    first stage whose low exceeds m: one jump when the lows rise by one a
    stage, else a bisection of the lows.  The members are kept as one sorted
    int64 array, and membership is read from it alone.
    """

    def __init__(self, lam: LambdaSequence):
        self.lam = lam
        self._built = 0        # stages 1.._built are decided
        self._members = np.zeros(64, dtype=np.int64)  # sorted; first _count valid
        self._count = 0
        self._last = (1, 0.0)  # window low and lambda at stage _built
        self._ns = np.arange(1, _BUILD_CHUNK + 1, dtype=np.int64)  # a chunk's stages
        self._lows = np.empty(_BUILD_CHUNK, dtype=np.int64)  # their window lows
        self._flags = np.empty(_BUILD_CHUNK, dtype=bool)

    def ensure(self, n_max: int) -> None:
        # Whole chunks, which may run past n_max: one inadmissible past it is
        # retried up to n_max, as ``_extend`` raises before it changes anything.
        while self._built < n_max:
            stop = self._built + _BUILD_CHUNK
            try:
                self._extend(stop)
            except DomainError:
                if stop <= n_max:
                    raise
                self._extend(n_max)

    def _extend(self, stop: int) -> None:
        """Decide stages _built+1 .. stop."""
        start = self._built + 1
        size = stop - start + 1
        self._ns += start - self._ns[0]
        ns, flags = self._ns[:size], self._flags[:size]
        lam_vals, lows = _window_lows(self.lam, ns, self._lows[:size])
        low_before, lam_before = self._last
        what, fall = "window low", _first_fall(lows, low_before, flags)
        if fall < 0 and _first_fall(lam_vals, lam_before, flags) >= 0:
            what = "budget ceil(sqrt(lambda_n))"
            fall = _first_fall(np.ceil(np.sqrt(lam_vals)), _budget(lam_before), flags)
        if fall >= 0:
            raise DomainError(f"inadmissible ladder {self.lam.name!r}: the {what} "
                              f"decreases at stage {start + fall}")

        low, lam = memoryview(lows), memoryview(lam_vals)
        members, c = memoryview(self._members), self._count
        i, run_end, capacity = 0, 0, len(members)
        while i < size:
            if i == run_end:  # the budget b holds on stages i .. run_end - 1
                b = _budget(lam[i])
                run_end = bisect_right(lam, b * b, i, size)
                while run_end < size and _budget(lam[run_end]) == b:  # sqrt rounded to b
                    run_end += 1
            if b <= c:
                m, lo = members[c - b], low[i]
                if m >= lo:  # refused: I_n holds b members
                    if low[run_end - 1] <= m:  # and so does every window of the run
                        i = run_end
                        continue
                    j = i + m + 1 - lo  # exact when the lows rise by one a stage
                    if not (j < run_end and low[j - 1] <= m < low[j]):
                        j = bisect_right(low, m, i + 1, run_end)
                    i = j
            if c == capacity:
                members.release()
                grown = np.empty(2 * capacity, dtype=np.int64)  # two arrays held, not three
                grown[:c] = self._members
                self._members, members, capacity = grown, memoryview(grown), 2 * capacity
            members[c] = start + i
            c += 1
            i += 1
        members.release()

        self._count = c
        self._built = stop
        self._last = (low[size - 1], lam[size - 1])

    def contains(self, k: int) -> bool:
        check_integer("index", k, 1)
        return self.members_in(k, k).size == 1

    __contains__ = contains

    def mask(self, n_max: int) -> np.ndarray:
        """Boolean array m with m[k] = (k in set) for k = 0..n_max (m[0] unused)."""
        m = np.zeros(n_max + 1, dtype=bool)
        m[self.members_in(1, n_max)] = True
        return m

    def members_in(self, lo: int, hi: int) -> np.ndarray:
        """The members k with lo <= k <= hi, ascending: a searchsorted slice of the set."""
        self.ensure(hi)
        members = self._members[: self._count]
        return members[np.searchsorted(members, lo):np.searchsorted(members, hi, "right")]

    def _hits(self, ks: np.ndarray) -> np.ndarray:
        """Positions in the 1-D index array ``ks`` of the set's members (one searchsorted)."""
        if ks.size == 0:
            return np.zeros(0, dtype=np.int64)
        if np.min(ks) < 1:
            raise DomainError("indices must be >= 1")
        self.ensure(int(np.max(ks)))
        members = self._members[: self._count]
        at = np.minimum(np.searchsorted(members, ks), members.size - 1)
        return np.flatnonzero(members[at] == ks)


@lru_cache(maxsize=256)
def _logs(points: bytes) -> np.ndarray:
    """``math.log`` of each float64 point, -inf at 0; cached, so a sweep takes each once."""
    logs = np.array([math.log(x) if x != 0.0 else -math.inf for x in np.frombuffer(points)])
    logs.flags.writeable = False  # shared by every caller
    return logs


def _powers(ks: np.ndarray, xs: np.ndarray) -> np.ndarray:
    """x**k for an index array against the points, shaped (points, ks).

    Computed as exp(k*log x), with the points' logs from ``_logs``, to
    avoid pow denormal churn; log 0 is -inf, so the row of x = 0 is exactly 0.
    """
    logs = _logs(np.ascontiguousarray(xs, dtype=float).tobytes())
    return np.exp(logs[:, None] * ks.astype(float))


def _on_unit_interval(grid) -> np.ndarray:
    """The grid of a bundled family, which is defined on [0, 1] only."""
    grid = np.asarray(grid, dtype=float)
    if np.any(grid < 0.0) or np.any(grid > 1.0):
        raise DomainError(f"the bundled examples are defined on [0, 1]; the grid "
                          f"spans [{grid.min()!r}, {grid.max()!r}]")
    return grid


def _bump_family(bumps: BumpIndexSet, base: Callable, bump: Callable, grid,
                 description: str) -> FunctionSequence:
    """A bundled family from its two branches: ``base`` off the bump set, ``bump`` on it.

    ``base(xs)`` gives one value per point and ``bump(ks, xs)`` the terms of
    members ks, shaped (points, ks).  ``evaluate(ks, x)`` flattens both,
    fills the base and writes the members' columns, and shapes the answer as
    they broadcast, so the points' axes must come before the indices'.
    ``evaluate.sparse`` is the triple ``(bumps, base, bump)``: off the set
    every index has the same term, so ``convergence._union`` tests the base
    once per centre and evaluates only the members.  It lives on the
    callable, so a replaced or wrapped ``evaluate`` has none and is read
    densely.
    """

    def evaluate(ks, x):
        ks, x = np.asarray(ks), np.asarray(x, dtype=float)
        shape = np.broadcast(ks, x).shape
        lead = len(shape) - ks.ndim + next((i for i, d in enumerate(ks.shape) if d > 1), ks.ndim)
        if x.size != math.prod(shape[:lead]):  # a point axis at or after an index axis
            raise ValueError("the points' axes must come before the indices'")
        flat, xs = ks.astype(np.int64).ravel(), x.ravel()
        at = bumps._hits(flat)
        out = np.empty((xs.size, flat.size))
        out[...] = base(xs)[:, None]
        out[:, at] = bump(flat[at], xs)
        return out.reshape(shape)

    evaluate.sparse = (bumps, base, bump)
    return FunctionSequence(evaluate, _on_unit_interval(grid), description)


def build_example_pointwise(lam: LambdaSequence, grid) -> tuple[FunctionSequence, Callable]:
    """Piecewise power family with a three-level limit.

    On the bump set W: x^k + 1 below 1/2, x^k + 1/2 on [1/2, 1); off W the
    terms sit at the limit already.  The value at x = 1 is pinned to 2.
    Limit: 0 on [0, 1/2), 1 on [1/2, 1), 2 at x = 1.
    """

    def base(xs):
        return np.where(xs == 1.0, 2.0, np.where(xs >= 0.5, 1.0, 0.0))

    def bump(ks, xs):
        out = _powers(ks, xs) + np.where(xs >= 0.5, 0.5, 1.0)[:, None]
        out[xs == 1.0] = 2.0
        return out

    def limit(x):
        x = float(x)
        if x == 1.0:
            return 2.0
        return 1.0 if x >= 0.5 else 0.0

    return _bump_family(BumpIndexSet(lam), base, bump, grid,
                        "piecewise power family, three-level limit"), limit


def build_example_uniform(lam: LambdaSequence, grid) -> tuple[FunctionSequence, Callable]:
    """Power-bump family vanishing identically off the bump set; limit 0."""

    def base(xs):
        return np.zeros(xs.shape)

    def bump(ks, xs):
        return _powers(ks, xs) + 1.0

    def limit(x):
        return 0.0

    return _bump_family(BumpIndexSet(lam), base, bump, grid,
                        "power-bump family, zero limit"), limit


def build_constant_family(grid, value: float = 0.0) -> tuple[FunctionSequence, Callable]:
    """Every term is the constant ``value``; trivially equicontinuous."""

    def evaluate(ks, x):
        return np.full(np.broadcast(ks, x).shape, float(value))

    return (FunctionSequence(evaluate, grid, f"constant {value!r} family"),
            lambda x: value)


def build_reciprocal_shift(grid) -> tuple[FunctionSequence, Callable]:
    """f_k(x) = x + 1/k; an equicontinuous family converging to x."""

    def evaluate(ks, x):
        return np.asarray(x, dtype=float) + 1.0 / np.asarray(ks, dtype=float)

    return (FunctionSequence(evaluate, grid, "identity shifted by 1/k"),
            lambda x: float(x))


# The bundled examples: id -> (builder, preferred detection mode).
_EXAMPLES = {
    "paper-example-1": (build_example_pointwise, "pointwise-lambda-stat"),
    "paper-example-2": (build_example_uniform, "uniform-lambda-stat"),
}

EXAMPLE_IDS = tuple(_EXAMPLES)


def build_example(example_id: str, lam: LambdaSequence, grid):
    """Resolve a bundled example id to (sequence, limit, preferred mode)."""
    check_choice("example", example_id, EXAMPLE_IDS)
    build, mode = _EXAMPLES[example_id]
    return (*build(lam, grid), mode)
