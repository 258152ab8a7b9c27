"""Convergence and Cauchy detection for function sequences under graded norms.

Every mode asks one question.  At a grid point x, with a centre c(x) and a
level/time pair (epsilon, t), index k is *exceptional* when

    mu(f_k(x) - c(x), t) <= 1 - epsilon   or   nu(f_k(x) - c(x), t) >= epsilon.

The centre is the candidate limit f, or an anchor term f_N in the Cauchy
modes.  The grid is split into groups (``_groups``): each point alone in the
pointwise modes, the whole grid in the uniform ones.  One grid pass
(``_union``) gives a group's exceptional mask, the union of its points'
masks; the union of one point is that point's mask.

Every windowed mode judges each group with one search (``_search``): it
tries the group's candidate centres in order and stops at the first whose
mask has vanishing windowed density.  The stat modes have one candidate, the
limit (the plain stat modes use lambda_n = n).  The Cauchy modes try the
first ANCHOR_POOL indices outside the group's mask against the latest term
f_{n_max}.  A group that does not converge gives witnesses (``_witnesses``):
the last indices of its last mask in the final window, each paired with the
first point of the group where it is exceptional against the same centre.
ifn-classical instead asks every exceptional index of each point to sit
early in the horizon (a tail certificate).

Verdicts are three-valued: converges, fails, or inconclusive.  A trace whose
tail has not settled is reported as inconclusive, never coerced to fails.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .algebra import DomainError
from .density import DensityTrace, LambdaSequence, density_trace, lambda_family
from .sequences import FunctionSequence

# Guard band for the boundary comparisons: exact-boundary arithmetic
# (gap == epsilon*t/(1-epsilon)) must classify as exceptional despite
# floating-point rounding in mu/nu.
GUARD = 1e-12

STAT_MODES = ("pointwise-stat", "uniform-stat",
              "pointwise-lambda-stat", "uniform-lambda-stat")
CAUCHY_MODES = ("pointwise-lambda-cauchy", "uniform-lambda-cauchy")
MODES = ("ifn-classical",) + STAT_MODES + CAUCHY_MODES

WITNESS_CAP = 10
ANCHOR_POOL = 10

# ifn-classical tail certificate: converges when every exceptional index sits
# in the first half of the horizon; fails when one lands in the final tenth
# (persistent-tail evidence); anything between is inconclusive.
CLASSICAL_CLEAN_FRACTION = 0.5
CLASSICAL_DIRTY_FRACTION = 0.9


@dataclass(frozen=True)
class ConvergenceQuery:
    """Parameters of one detection run."""

    mode: str
    epsilon: float
    time: float
    lam: LambdaSequence
    n_max: int
    stride: int | None = None

    def __post_init__(self):
        if self.mode not in MODES:
            raise DomainError(f"unknown mode {self.mode!r}; choose from {MODES}")
        if not 0.0 < self.epsilon < 1.0:
            raise DomainError(f"epsilon must lie in (0, 1), got {self.epsilon}")
        if self.time <= 0.0:
            raise DomainError(f"time must be positive, got {self.time}")
        if self.n_max < 10:
            raise DomainError(f"n_max must be >= 10, got {self.n_max}")
        if self.stride is not None and self.stride < 1:
            raise DomainError(f"stride must be >= 1, got {self.stride}")


@dataclass
class ConvergenceVerdict:
    """Outcome of a detection run plus the evidence it rests on.

    ``traces`` is a point -> DensityTrace mapping for pointwise modes, a
    single shared trace for uniform modes, and None for ifn-classical.
    ``witnesses`` holds up to WITNESS_CAP (k, x) pairs, taken in grid order
    from the groups that do not converge: the last indices of a group's last
    mask in the final window, each with the first point of the group where
    k is exceptional against that mask's centre (ifn-classical: the first
    indices past the dirty cut of each failing point).
    """

    mode: str
    verdict: str  # converges | fails | inconclusive
    traces: dict | DensityTrace | None
    witnesses: list
    epsilon: float
    time: float
    lambda_name: str
    n_max: int
    details: dict = field(default_factory=dict)

    @property
    def converges(self) -> bool:
        return self.verdict == "converges"

    def _point_traces(self) -> list:
        """(point, trace) pairs; the point of a uniform trace is None."""
        if isinstance(self.traces, DensityTrace):
            return [(None, self.traces)]
        return list((self.traces or {}).items())

    def trace_summaries(self) -> list[dict]:
        return [{
            "point": point,
            "verdict": trace.verdict,
            "estimate": trace.estimate,
            "final_n": int(trace.ns[-1]),
            "final_ratio": trace.final_ratio,
            "tail_max": trace.tail_max,
            "points": int(len(trace.ns)),
        } for point, trace in self._point_traces()]

    def to_json_dict(self) -> dict:
        return {
            "mode": self.mode,
            "epsilon": self.epsilon,
            "time": self.time,
            "lambda": self.lambda_name,
            "n_max": self.n_max,
            "verdict": self.verdict,
            "traces": self.trace_summaries(),
            "witnesses": [[int(k), x] for k, x in self.witnesses],
            "details": self.details,
        }


def _point_key(x):
    arr = np.asarray(x, dtype=float)
    return float(arr) if arr.ndim == 0 else tuple(arr.tolist())


def _values_matrix(fs: FunctionSequence, ks: np.ndarray, x) -> np.ndarray:
    """Terms f_k(x) for the indices ``ks``, one row per index."""
    vals = np.asarray(fs.evaluate_many(ks, x), dtype=float).reshape(ks.size, -1)
    if not np.all(np.isfinite(vals)):
        k = int(ks[np.flatnonzero(~np.all(np.isfinite(vals), axis=1))[0]])
        raise ValueError(f"sequence value not finite at (k={k}, x={_point_key(x)!r})")
    return vals


def _limit_vector(f: Callable, x) -> np.ndarray:
    fx = np.asarray(f(x), dtype=float).reshape(-1)
    if not np.all(np.isfinite(fx)):
        raise ValueError(f"limit value not finite at x={_point_key(x)!r}")
    return fx


def _exceptional(ifn, diffs: np.ndarray, epsilon: float, t: float,
                 split: bool = False) -> np.ndarray:
    """Which rows of ``diffs`` are exceptional; ``split`` stacks the mu and nu tests."""
    # both values before any comparison: this allocation order keeps peak RSS down
    mu, nu = ifn.mu(diffs, t), ifn.nu(diffs, t)
    if split:
        return np.stack([mu <= 1.0 - epsilon + GUARD, nu >= epsilon - GUARD])
    return (mu <= 1.0 - epsilon + GUARD) | (nu >= epsilon - GUARD)


def _centred(fs: FunctionSequence, ks: np.ndarray, x, centre) -> np.ndarray:
    """f_k(x) - c(x) for k in ``ks``; the centre is the limit f or an anchor index in ``ks``."""
    vals = _values_matrix(fs, ks, x)
    c = _limit_vector(centre, x) if callable(centre) else vals[np.searchsorted(ks, centre)]
    return vals - c[None, :]


def _union(fs: FunctionSequence, ifn, q: ConvergenceQuery, centre, ks: np.ndarray, xs,
           split: bool = False) -> np.ndarray:
    """The one grid pass: union over the points ``xs`` of the exceptional masks.

    The first point's mask is the accumulator, so a one-point group costs no
    extra buffer.  A point's terms live only inside ``_centred``, and each
    mask is freed before the next point allocates, which keeps peak RSS down.
    """
    masks = (_exceptional(ifn, _centred(fs, ks, x, centre), q.epsilon, q.time, split)
             for x in xs)
    shared = next(masks)
    for mask in masks:
        shared |= mask
        del mask
    return shared


def _groups(uniform: bool, grid: np.ndarray) -> list:
    """(key, points) pairs: the whole grid keyed None, or each point keyed by itself."""
    if uniform:
        return [(None, grid)]
    return [(_point_key(x), grid[i:i + 1]) for i, x in enumerate(grid)]


def exceptional_set(fs: FunctionSequence, f: Callable, ifn_target, x,
                    epsilon: float, time: float) -> Callable[[int], bool]:
    """Predicate on indices: is k exceptional at x for (epsilon, time)?"""
    if not 0.0 < epsilon < 1.0:
        raise DomainError(f"epsilon must lie in (0, 1), got {epsilon}")
    if time <= 0.0:
        raise DomainError(f"time must be positive, got {time}")
    fx = _limit_vector(f, x)

    def member(k: int) -> bool:
        if k < 1:
            raise DomainError(f"index must be >= 1, got {k}")
        diffs = _values_matrix(fs, np.array([k]), x) - fx[None, :]
        return bool(_exceptional(ifn_target, diffs, epsilon, time)[0])

    return member


def _aggregate(point_verdicts: list[str]) -> str:
    if all(v == "converges" for v in point_verdicts):
        return "converges"
    if any(v == "fails" for v in point_verdicts):
        return "fails"
    return "inconclusive"


def _search(union: Callable, candidates, lam: LambdaSequence, q: ConvergenceQuery) -> tuple:
    """Try a group's candidate centres in order; stop at the first limit-zero trace.

    ``union(centre)`` is the group's exceptional mask.  Returns the outcome,
    the last centre tried, and its trace and mask (all None without a
    candidate).  The outcome is converges at a limit-zero trace, else
    inconclusive when some trace was, else fails: limit-one or a settled
    positive value says the density is clearly not zero.
    """
    outcome, centre, trace, mask = "fails", None, None, None
    for centre in candidates:
        mask = union(centre)
        trace = density_trace(mask, lam, q.n_max, q.stride)
        if trace.verdict == "limit-zero":
            return "converges", centre, trace, mask
        if trace.verdict == "inconclusive":
            outcome = "inconclusive"
    return outcome, centre, trace, mask


def _witnesses(fs: FunctionSequence, ifn, q: ConvergenceQuery, centre, xs,
               mask: np.ndarray, trace: DensityTrace, cap: int) -> list:
    """The last ``cap`` indices of ``mask`` in the trace's final window, as (k, x).

    Indices closest to the horizon are evidence of persistence.  Each is
    paired with the first point of ``xs`` where it is exceptional against
    ``centre``; that check evaluates those indices (and the anchor) once per point.
    """
    lo, hi = int(trace.lows[-1]), int(trace.ns[-1])
    tail = (np.flatnonzero(mask[lo - 1: hi]) + lo)[-cap:]
    if tail.size == 0:
        return []
    ks = tail if callable(centre) else np.union1d(tail, centre)
    rows = np.searchsorted(ks, tail)
    hits = np.array([_union(fs, ifn, q, centre, ks, [x])[rows] for x in xs])
    return [(int(k), _point_key(xs[np.argmax(col)])) for k, col in zip(tail, hits.T) if col.any()]


def _detect_windowed(fs: FunctionSequence, ifn, q: ConvergenceQuery, lam: LambdaSequence,
                     candidates: Callable) -> ConvergenceVerdict:
    """Judge every group with ``_search`` over ``candidates(union)``; gather witnesses."""
    ks = np.arange(1, q.n_max + 1)
    uniform = q.mode.startswith("uniform")
    outcomes, traces, anchors, witnesses = [], {}, {}, []
    for key, xs in _groups(uniform, fs.domain_grid):
        def union(centre):
            return _union(fs, ifn, q, centre, ks, xs)

        outcome, centre, trace, mask = _search(union, candidates(union), lam, q)
        outcomes.append(outcome)
        anchors[key] = centre if outcome == "converges" else None
        if trace is not None:
            traces[key] = trace
            if outcome != "converges" and len(witnesses) < WITNESS_CAP:
                witnesses += _witnesses(fs, ifn, q, centre, xs, mask, trace,
                                        WITNESS_CAP - len(witnesses))
    if uniform:  # the output shape: one shared trace and one anchor
        traces, anchors = traces.get(None), anchors[None]
    details = {"anchor" if uniform else "anchors": anchors} if q.mode in CAUCHY_MODES else {}
    return ConvergenceVerdict(q.mode, _aggregate(outcomes), traces, witnesses, q.epsilon,
                              q.time, lam.name, q.n_max, details)


def detect(fs: FunctionSequence, f: Callable, ifn_target,
           q: ConvergenceQuery) -> ConvergenceVerdict:
    """Test convergence of fs toward limit f over the domain grid.

    Modes: ifn-classical (clean-tail certificate, lambda ignored),
    pointwise-stat / uniform-stat (windowed density with lambda_n = n), and
    pointwise-lambda-stat / uniform-lambda-stat (query lambda).  Cauchy modes
    belong to ``detect_cauchy``.
    """
    if q.mode in CAUCHY_MODES:
        raise DomainError(f"mode {q.mode!r} requires detect_cauchy")
    if q.mode == "ifn-classical":
        return _detect_classical(fs, f, ifn_target, q)
    lam = lambda_family("identity") if q.mode in ("pointwise-stat", "uniform-stat") else q.lam
    return _detect_windowed(fs, ifn_target, q, lam, lambda union: [f])


def _detect_classical(fs: FunctionSequence, f: Callable, ifn,
                      q: ConvergenceQuery) -> ConvergenceVerdict:
    clean_cut = int(q.n_max * CLASSICAL_CLEAN_FRACTION)
    dirty_cut = int(q.n_max * CLASSICAL_DIRTY_FRACTION)
    ks = np.arange(1, q.n_max + 1)
    point_verdicts, witnesses, last_exceptional = [], [], {}
    for key, xs in _groups(False, fs.domain_grid):
        hits = np.flatnonzero(_union(fs, ifn, q, f, ks, xs)) + 1
        k_last = int(hits[-1]) if hits.size else 0
        last_exceptional[key] = k_last
        if k_last <= clean_cut:
            point_verdicts.append("converges")
        elif k_last > dirty_cut:
            point_verdicts.append("fails")
            if len(witnesses) < WITNESS_CAP:
                tail = hits[hits > dirty_cut]
                witnesses.extend((int(k), key) for k in tail[: WITNESS_CAP - len(witnesses)])
        else:
            point_verdicts.append("inconclusive")
    return ConvergenceVerdict(q.mode, _aggregate(point_verdicts), None, witnesses,
                              q.epsilon, q.time, "unused", q.n_max,
                              details={"last_exceptional": last_exceptional})


def detect_cauchy(fs: FunctionSequence, ifn_target, q: ConvergenceQuery) -> ConvergenceVerdict:
    """Self-referential convergence test: no candidate limit required.

    Anchor terms f_N stand in for the limit: a group's candidates are the
    first ANCHOR_POOL indices outside its mask against f_{n_max}, and the run
    converges when some anchor makes each group's exceptional density
    vanish.  Pointwise mode anchors each grid point separately (N may depend
    on x); uniform mode uses one anchor and one shared exceptional set for
    the whole grid.
    """
    if q.mode not in CAUCHY_MODES:
        raise DomainError(f"mode {q.mode!r} is not a Cauchy mode")
    return _detect_windowed(fs, ifn_target, q, q.lam, lambda union: (
        np.flatnonzero(~union(q.n_max)) + 1)[:ANCHOR_POOL].tolist())


def lemma_equivalence_check(fs: FunctionSequence, f: Callable, ifn_target,
                            q: ConvergenceQuery) -> bool:
    """Numerically confirm the five equivalent densities behind the detector.

    For each group (each grid point in pointwise mode, the whole grid's union
    in uniform mode) the five statements are evaluated:

    1. the joint exceptional set has windowed density zero;
    2. the mu-exceptional and nu-exceptional sets each have density zero;
    3. the joint complement has density one;
    4. each separate complement has density one;
    5. the values mu(f_k - f, t) converge windowed-statistically to 1 and
       nu(f_k - f, t) to 0 (checked at the query epsilon).

    At the query epsilon the index sets of statement 5, {k : 1 - mu >= eps}
    and {k : |nu| >= eps}, are the mu- and nu-exceptional sets of statement
    2, because nu >= 0; so statement 5 takes its verdict from statement 2's
    masks, and a difference could only come from rounding at the boundary.

    Returns True when all five verdicts are decisive and identical (all true
    for a converging run, all false for a failing one); an inconclusive
    trace anywhere yields False, since agreement cannot be certified.
    """
    if q.mode not in ("pointwise-lambda-stat", "uniform-lambda-stat"):
        raise DomainError("lemma check requires a lambda-stat mode")
    ks = np.arange(1, q.n_max + 1)

    def density(mask, target: str) -> bool | None:
        v = density_trace(mask, q.lam, q.n_max, q.stride).verdict
        return None if v == "inconclusive" else v == target

    def conj(a, b) -> bool | None:
        return None if a is None or b is None else a and b

    rows = []  # one row of the five statement values per group
    for _, xs in _groups(q.mode == "uniform-lambda-stat", fs.domain_grid):
        m_mu, m_nu = _union(fs, ifn_target, q, f, ks, xs, split=True)
        joint = m_mu | m_nu
        separate = conj(density(m_mu, "limit-zero"), density(m_nu, "limit-zero"))
        rows.append((density(joint, "limit-zero"), separate, density(~joint, "limit-one"),
                     conj(density(~m_mu, "limit-one"), density(~m_nu, "limit-one")), separate))
    if any(v is None for row in rows for v in row):
        return False
    return len({all(stmt) for stmt in zip(*rows)}) == 1
