"""Windowed index densities driven by a slowly growing window-length sequence.

A window-length sequence lambda assigns each stage n a window
I_n = [n - ceil(lambda_n) + 1, n] of the most recent indices.  The windowed
density of an index set K is the limit of |K intersect I_n| / lambda_n.  With
lambda_n = n the window is all of [1, n] and this reduces to natural density.

Admissible sequences start at lambda_1 = 1, never decrease, grow by at most 1
per stage (hence lambda_n <= n), and tend to infinity.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .algebra import (AxiomReport, DomainError, _report, check_choice, check_integer,
                      vectorize_scalar)

# Verdict heuristic knobs.  The tail is the last fifth of the trace points
# (``_tail_start``); the early reference point sits at the 20% horizon.
ZERO_TAIL_MAX = 1e-2      # a vanishing ratio must sit below this over the tail
DECAY_FACTOR = 0.5        # ... and the last point must be <= half the 20%-horizon value
VALUE_STD_TOL = 1e-3      # a settled ratio must have tail standard deviation below this
LADDER_GROWTH_MIN = 2.0   # ... lambda must grow by this factor from the 20% horizon to the end
SLOPE_MIN = -0.1          # ... and the log-log slope of ratio against lambda must be >= this

# Indices per block of a streamed pass (k-block times grid points in the detectors).
BLOCK_ELEMENTS = 1 << 16


@dataclass(frozen=True)
class LambdaSequence:
    """Window-length sequence: lambda_n for the stages n >= 1.

    ``values(ns)`` maps an integer array of stages to their lambda values.  A
    callable of one stage is accepted too: construction probes ``values`` at
    stages 1..3 and stores its ``vectorize_scalar`` form in its place.
    """

    name: str
    values: Callable

    def __post_init__(self):
        object.__setattr__(self, "values", vectorize_scalar(self.values, np.arange(1, 4)))

    def table(self, n_max: int) -> np.ndarray:
        """lambda_1 .. lambda_n_max as a float array."""
        return np.asarray(self.values(np.arange(1, n_max + 1)), dtype=float)

    def at(self, n: int) -> float:
        check_integer("stage", n, 1)
        return float(self.values(np.array([n]))[0])


# The families work in place on one fresh array, so a bump-set build chunk
# allocates nothing but its ladder values.
def _ceil_sqrt(ns):
    vals = np.array(ns, dtype=float)
    return np.ceil(np.sqrt(vals, out=vals), out=vals)


def _ceil_log2(ns):
    vals = np.array(ns, dtype=float)
    vals += 1.0
    return np.ceil(np.log2(vals, out=vals), out=vals)


_FAMILIES = {
    "identity": lambda ns: np.asarray(ns, dtype=float),
    "sqrt": _ceil_sqrt,
    "log": _ceil_log2,
}

LAMBDA_IDS = tuple(_FAMILIES)


def lambda_family(name: str) -> LambdaSequence:
    """Built-in window-length families: identity, sqrt (ceil), log (ceil of log2)."""
    check_choice("lambda family", name, LAMBDA_IDS)
    return LambdaSequence(name, _FAMILIES[name])


def lambda_from_table(values, name: str = "table") -> LambdaSequence:
    """Explicit lambda values; past the table the sequence keeps growing by 1."""
    tab = np.asarray(values, dtype=float)
    if tab.size == 0:
        raise DomainError("lambda table must be non-empty")

    def lookup(ns):
        ns = np.asarray(ns)
        out = np.where(ns <= tab.size,
                       tab[np.minimum(ns, tab.size) - 1],
                       tab[-1] + (ns - tab.size))
        return out.astype(float)

    return LambdaSequence(name, lookup)


@dataclass(frozen=True)
class IndexWindow:
    """The window I_n = [lo, hi] of the ceil(lambda_n) most recent indices."""

    n: int
    lo: int
    hi: int

    @property
    def size(self) -> int:
        return self.hi - self.lo + 1


def _window_lows(lam: LambdaSequence, ns: np.ndarray, out: np.ndarray | None = None) -> tuple:
    """lambda values and window lower ends (clamped at 1) at the stages ``ns``.

    The lows are written into ``out``, an int64 buffer of ns.size, if given.
    A value that is not positive and finite raises DomainError: a NaN would
    cast to an arbitrary low.
    """
    lam_vals = np.asarray(lam.values(ns), dtype=float)
    if not (np.min(lam_vals) > 0 and np.max(lam_vals) < np.inf):
        raise DomainError("lambda values must be positive and finite")
    lows = np.ceil(lam_vals, out=np.empty(ns.shape, np.int64) if out is None else out,
                   casting="unsafe")
    np.subtract(ns, lows, out=lows)
    lows += 1
    if lows.min() < 1:  # a window wider than its stage; a min is the cheaper pass
        np.maximum(lows, 1, out=lows)
    return lam_vals, lows


def window(lam: LambdaSequence, n: int) -> IndexWindow:
    """Window at stage n; the lower end is clamped at 1."""
    check_integer("stage", n, 1)
    _, lows = _window_lows(lam, np.array([n], dtype=np.int64))
    return IndexWindow(n=n, lo=int(lows[0]), hi=n)


@dataclass
class DensityTrace:
    """Windowed counts and ratios of an index set at a ladder of stages.

    ``ratios[i] = counts[i] / lambda(ns[i])``; the denominator is the real
    lambda value while the count uses the integer window, so a ratio may
    slightly exceed 1 for fractional lambda.
    """

    ns: np.ndarray
    lows: np.ndarray
    highs: np.ndarray
    counts: np.ndarray
    ratios: np.ndarray
    n_max: int
    verdict: str          # limit-zero | limit-one | limit-value | inconclusive
    estimate: float | None

    @property
    def final_ratio(self) -> float:
        return float(self.ratios[-1])

    def tail(self) -> np.ndarray:
        return self.ratios[_tail_start(len(self.ratios)):]

    @property
    def tail_max(self) -> float:
        return float(np.max(self.tail()))

    def to_csv(self, path) -> None:
        rows = zip(self.ns.tolist(), self.lows.tolist(), self.highs.tolist(),
                   self.counts.tolist(), self.ratios.tolist())
        with open(path, "w", newline="") as fh:
            fh.write("n,window_lo,window_hi,count,ratio\n"
                     + "".join(f"{n},{lo},{hi},{c},{r!r}\n" for n, lo, hi, c, r in rows))


def _tail_start(points: int) -> int:
    """First index of the tail, the last fifth of ``points`` trace points."""
    return (points * 4) // 5


def _classify(ratios: np.ndarray, lam_vals: np.ndarray) -> tuple[str, float | None]:
    """Heuristic verdict on the trace tail; the knobs are the constants above.

    ``lam_vals`` are the lambda values at the trace's stages.  limit-zero
    needs the tail to sit under ZERO_TAIL_MAX and the last point to be at
    most DECAY_FACTOR times the ratio at the 20% horizon (decay evidence).
    limit-one is the mirror image around 1.  limit-value accepts a tail that
    has settled (tiny standard deviation) unless the trace is still decaying
    by that same factor, and only against a ladder that moved: lambda must
    grow by LADDER_GROWTH_MIN from the 20% horizon to the end, and over that
    span the log-log slope of the ratio against lambda must be at least
    SLOPE_MIN (not tested when either ratio is 0).  A ratio falling like
    sqrt(lambda)/lambda has slope -1/2, a positive limit slope 0, and a
    ladder that barely grew shows neither.  Anything else is inconclusive
    rather than a failure claim.
    """
    start, early = _tail_start(len(ratios)), len(ratios) // 5
    tail = ratios[start:]

    decaying = ratios[-1] <= DECAY_FACTOR * ratios[early]
    if np.max(tail) <= ZERO_TAIL_MAX and decaying:
        return "limit-zero", float(np.mean(tail))
    gap = np.abs(1.0 - ratios)
    if np.max(gap[start:]) <= ZERO_TAIL_MAX and gap[-1] <= DECAY_FACTOR * gap[early]:
        return "limit-one", float(np.mean(tail))
    growth = lam_vals[-1] / lam_vals[early]
    if (float(np.std(tail)) <= VALUE_STD_TOL and not decaying and growth >= LADDER_GROWTH_MIN
            and (ratios[-1] == 0 or ratios[early] == 0
                 or math.log(ratios[-1] / ratios[early]) / math.log(growth) >= SLOPE_MIN)):
        return "limit-value", float(np.mean(tail))
    return "inconclusive", None


def _member_blocks(member, n_max: int):
    """``member`` (a predicate, else truth values) on k = 1..n_max as blocks of BLOCK_ELEMENTS."""
    starts = range(0, n_max, BLOCK_ELEMENTS)
    if not callable(member):
        arr = np.asarray(member, dtype=bool)
        if arr.ndim != 1 or arr.size < n_max:
            raise DomainError(f"need a 1-D membership array of {n_max}+ entries, got {arr.shape}")
        return (arr[lo:min(lo + BLOCK_ELEMENTS, n_max)] for lo in starts)
    adapted = vectorize_scalar(member, np.arange(1, 4))
    return (np.asarray(adapted(np.arange(lo + 1, min(lo + BLOCK_ELEMENTS, n_max) + 1)),
                       dtype=bool) for lo in starts)


@dataclass(frozen=True)
class Capture:
    """Indices a ``WindowCounter`` keeps per row while streaming.

    The first ``cap`` indices k >= ``lo`` of the row, or with ``last`` the
    last ``cap`` of them; with ``misses`` the indices outside the row.
    """

    cap: int
    lo: int = 1
    last: bool = False
    misses: bool = False


class WindowCounter:
    """Windowed counts of boolean rows fed in blocks of consecutive indices.

    It is built for the trace stages ``ns``, ascending, and their window lows
    ``lows``, and it holds what the windowed density reads: one count per
    row and stage, the number of the row's indices in the window [low, n].
    That count is the running count at n minus the running count at
    low - 1, so a feed adds the running count at each stage end in its span
    and subtracts it at each window start there; the starts are sorted once,
    with their stages, since lows need not rise with n.  The counts are
    int32 while the last stage is below 2^31 (a window count is at most n),
    else int64.  ``feed`` takes the m indices after ``lo`` for a band of
    ``rows``, so a sequence read point by point feeds its own rows, as, per
    row, a fill value and the indices whose test differs from it (the row's
    flips).  A running count is then the number of flips before it, or the
    width minus that number, so a feed costs its flips and the stages in its
    span, not m: a dense block feeds its ``flatnonzero`` over a False fill,
    a bundled family's block its members that differ from the base value's
    test.  ``kept[i]`` holds what ``captures[i]`` asks for, ``cap`` indices
    per row, first or last aligned with 0 where fewer were found; a row's
    finds are its flips, or when the fill is what the capture looks for,
    the indices between them.
    """

    def __init__(self, rows: int, ns=(), lows=(), captures=()):
        self._ns = np.asarray(ns, dtype=np.int64)
        starts = np.asarray(lows, dtype=np.int64) - 1
        self._order = np.argsort(starts, kind="stable")  # the stages in start order
        self._starts = starts[self._order]
        wide = self._ns.size and self._ns[-1] >= 2**31
        # stage-major, so that a feed adds to whole stages of contiguous rows
        self._counts = np.zeros((self._ns.size, rows), dtype=np.int64 if wide else np.int32)
        self._total = np.zeros(rows, dtype=np.int64)  # each row's running count
        self.captures = tuple(captures)
        self.kept = [np.zeros((rows, c.cap), dtype=np.int64) for c in self.captures]

    def feed(self, lo: int, m: int, flips: np.ndarray, fill=False, rows=slice(None)) -> None:
        """Count the indices lo + 1 .. lo + m of the band ``rows``: row r tests ``fill[r]``
        but at its flips.

        ``rows`` is a slice of the counter's rows.  ``flips`` lists, ascending,
        the flat positions r * m + offset where the band's row r tests not its
        fill; ``fill`` is one truth value per row of the band, or one for all
        of them.  A band is fed its indices in order, each once.
        """
        counts, total = self._counts[:, rows], self._total[rows]
        fill = np.broadcast_to(np.asarray(fill, dtype=bool).reshape(-1), (len(total),))
        edges = np.arange(len(total) + 1) * m  # flat offset of each row, then of the end
        row_at = edges[:-1]
        i, j = np.searchsorted(self._ns, (lo, lo + m), side="right")
        u, v = np.searchsorted(self._starts, (lo, lo + m), side="right")
        bounds = np.concatenate(([lo], self._ns[i:j], self._starts[u:v], [lo + m])) - lo
        # the flips before each row's start and stage bounds, queried row by row;
        # a row ends where the next one starts
        before = np.searchsorted(flips, edges[:, None] + bounds[:-1])
        below = np.concatenate((before[:-1, 1:], before[1:, :1]), axis=1).T - before[:-1, 0]
        running = np.where(fill, bounds[1:, None] - below, below)
        running += total
        counts[i:j] += running[:j - i]
        if u < v:  # no window starts in most feeds: every identity window starts at 0
            counts[self._order[u:v]] -= running[j - i:-1]
        total[:] = running[-1]
        steps = None
        for n, c in enumerate(self.captures):
            kept, start = self.kept[n][rows], max(0, c.lo - 1 - lo)
            if start >= m or not (c.last or (kept == 0).any()):
                continue
            a, e = np.searchsorted(flips, row_at[:, None] + (start, m)).T
            listed = fill == c.misses  # the row's finds are its flips, else the indices between
            found = np.where(listed, e - a, m - start - (e - a))
            if not found.any():
                continue
            slot = np.arange(c.cap)
            rank = (np.maximum(found - c.cap, 0)[:, None] if c.last else 0) + slot
            if not listed.all():
                # flips[g] - g counts the indices before flip g that are not flips,
                # so a row's rank-th such index from its start lies past each flip
                # whose count is at most the start's, row_at + start - a, plus the rank
                if steps is None:
                    steps = flips - np.arange(flips.size)  # ascending
                past = np.searchsorted(steps, (row_at + start - a)[:, None] + rank, side="right")
                at = start + rank + np.minimum(past, e[:, None]) - a[:, None]
            if listed.any() and flips.size:
                at_flip = flips[np.minimum(a[:, None] + rank, flips.size - 1)] - row_at[:, None]
                at = at_flip if listed.all() else np.where(listed[:, None], at_flip, at)
            new = np.where(rank < found[:, None], at + lo + 1, 0)  # left-aligned
            if c.last and (found >= c.cap).all():  # the new replace all that was kept
                kept[:] = new
                continue
            both = np.concatenate([kept, new], axis=1)
            if c.last:  # kept is right-aligned: drop as many of its oldest as there are new
                take = np.minimum(found, c.cap)[:, None] + slot
            else:  # kept is left-aligned: the new follow its filled slots
                filled = np.count_nonzero(kept, axis=1)[:, None]
                take = np.where(slot < filled, slot, c.cap + slot - filled)
            kept[:] = np.take_along_axis(both, take, axis=1)

    @property
    def done(self) -> bool:
        """Whether more blocks change nothing: no stages, and full first-``cap`` captures."""
        return (self._ns.size == 0
                and all(not c.last and k.all() for c, k in zip(self.captures, self.kept)))

    def counts(self) -> np.ndarray:
        """Per row, the count in each window [low, n] of the stages."""
        return self._counts.T


def _stages(lam: LambdaSequence, n_max: int, stride: int | None) -> tuple:
    """Trace stages stride, 2*stride, ... and n_max, with their lambda values and window lows."""
    if stride is None:
        stride = max(1, n_max // 1000)
    ns = np.arange(stride, n_max + 1, stride, dtype=np.int64)
    if ns.size == 0 or ns[-1] != n_max:
        ns = np.append(ns, n_max)
    lam_vals, lows = _window_lows(lam, ns)
    return ns, lam_vals, lows


def _trace(stages: tuple, counts: np.ndarray) -> DensityTrace:
    """The classified trace of windowed ``counts`` at ``stages``."""
    ns, lam_vals, lows = stages
    ratios = counts / lam_vals
    verdict, estimate = _classify(ratios, lam_vals)
    return DensityTrace(ns=ns, lows=lows, highs=ns.copy(), counts=counts, ratios=ratios,
                        n_max=int(ns[-1]), verdict=verdict, estimate=estimate)


def density_trace(member, lam: LambdaSequence, n_max: int, stride: int | None = None) -> DensityTrace:
    """Trace the windowed density of an index set up to stage n_max.

    ``member`` is a predicate on indices (or precomputed truth values, a 1-D
    array or list, for k = 1..n_max), probed at k = 1..3 with
    ``vectorize_scalar``: one that answers an index array is called on
    blocks, any other once per index.
    Ratios are recorded at stages stride, 2*stride, ...; the final stage
    n_max is always included.  The set is streamed through a
    ``WindowCounter`` in blocks of BLOCK_ELEMENTS indices, the counting path
    of the detectors, so no prefix count as long as the horizon is built.
    """
    check_integer("n_max", n_max, 10)
    check_integer("stride", 1 if stride is None else stride, 1)
    blocks = _member_blocks(member, n_max)
    stages = _stages(lam, n_max, stride)
    counter = WindowCounter(1, stages[0], stages[2])
    for b, block in enumerate(blocks):
        counter.feed(b * BLOCK_ELEMENTS, block.size, np.flatnonzero(block))
    return _trace(stages, counter.counts()[0])


def _excess(violation) -> float:
    """A violation clipped at 0 from below; a nan stays nan, so its report fails."""
    return 0.0 if violation <= 0 else float(violation)


def validate(lam: LambdaSequence, n_max: int = 10_000) -> list[AxiomReport]:
    """Check the admissibility conditions for a window-length sequence.

    Reports: first-value (lambda_1 = 1), non-decreasing, slow-growth
    (lambda_{n+1} <= lambda_n + 1), index-bound (lambda_n <= n), and a
    divergence heuristic (lambda_{n_max} >= ln(n_max), a necessary sign of
    an unbounded sequence at this horizon, not a proof).  A value that is
    not finite fails the reports that read it, with violation nan or inf.
    """
    check_integer("n_max", n_max, 2)
    tab = lam.table(n_max)
    tol = 1e-12
    reports = []

    reports.append(_report("first-value", abs(tab[0] - 1.0), (1,), tol))

    with np.errstate(invalid="ignore"):  # inf - inf: a nan step, which fails its reports
        steps = tab[1:] - tab[:-1]
    i = int(np.argmin(steps))
    reports.append(_report("non-decreasing", _excess(-steps[i]), (i + 1,), tol))

    j = int(np.argmax(steps))
    reports.append(_report("slow-growth", _excess(steps[j] - 1.0), (j + 1,), tol))

    over = tab - np.arange(1, n_max + 1)
    k = int(np.argmax(over))
    reports.append(_report("index-bound", _excess(over[k]), (k + 1,), tol))

    shortfall = _excess(math.log(n_max) - tab[-1])
    reports.append(_report("divergence", shortfall, (n_max,), tol))

    return reports
