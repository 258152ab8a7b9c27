"""Convergence and Cauchy detection for function sequences under graded norms.

Every mode asks one question.  At a grid point x, with a centre c(x) and a
level/time pair (epsilon, t), index k is *exceptional* when

    mu(f_k(x) - c(x), t) <= 1 - epsilon   or   nu(f_k(x) - c(x), t) >= epsilon.

The centre is the candidate limit f, or an anchor term f_N in the Cauchy
modes.  One grid pass (``_grid_masks``) answers the question at every grid
point and hands back either one exceptional mask per point or their union.
The masks then meet one of two judges:

* windowed density (``_judge``): the stat modes trace the density of each
  point's mask (pointwise) or of the union (uniform) and ask it to vanish;
  the plain stat modes use lambda_n = n;
* a tail certificate: ifn-classical asks every exceptional index to sit
  early in the horizon.

The Cauchy modes first search for an anchor (``_anchor_search``): the
candidates are the first indices that are not exceptional against the
latest term f_{n_max}, and the search stops at the first anchor whose
exceptional density vanishes.  Pointwise mode searches once per grid point,
uniform mode once over the union of the whole grid.

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
    ``witnesses`` holds up to WITNESS_CAP (k, x) pairs where the exceptional
    condition held, drawn from the final window of offending points.
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

    def trace_summaries(self) -> list[dict]:
        def summary(point, trace: DensityTrace) -> dict:
            return {
                "point": point,
                "verdict": trace.verdict,
                "estimate": trace.estimate,
                "final_n": int(trace.ns[-1]),
                "final_ratio": trace.final_ratio,
                "tail_max": trace.tail_max,
                "points": int(len(trace.ns)),
            }

        if self.traces is None:
            return []
        if isinstance(self.traces, DensityTrace):
            return [summary(None, self.traces)]
        return [summary(point, trace) for point, trace in self.traces.items()]

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


def _limit_centre(f: Callable) -> Callable:
    return lambda x, vals: _limit_vector(f, x)


def _centred(fs: FunctionSequence, ks: np.ndarray, x, centre: Callable) -> np.ndarray:
    vals = _values_matrix(fs, ks, x)
    return vals - centre(x, vals)[None, :]


def _grid_masks(fs: FunctionSequence, ifn, q: ConvergenceQuery, centre: Callable,
                ks: np.ndarray, grid, union: bool = False, split: bool = False):
    """The one grid pass: exceptional masks of f_k(x) - c(x) for k in ``ks``.

    ``centre(x, vals)`` gives c(x) from the point and its terms.  Yields one
    mask per point of ``grid``, in grid order, or returns their union when
    ``union`` is set.  A point's terms live only inside the call that tests
    them, so one point's values are held at a time.
    """
    masks = (_exceptional(ifn, _centred(fs, ks, x, centre), q.epsilon, q.time, split)
             for x in grid)
    if not union:
        return masks
    shared = np.zeros((2, ks.size) if split else ks.size, dtype=bool)
    for mask in masks:
        shared |= mask
        del mask  # freed before the next point allocates, which keeps peak RSS down
    return shared


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


def _tail_witnesses(mask: np.ndarray, key, trace: DensityTrace, cap: int) -> list:
    lo, hi = int(trace.lows[-1]), int(trace.ns[-1])  # the trace's final window
    ks = np.flatnonzero(mask[lo - 1: hi]) + lo
    # report the offenders closest to the horizon: evidence of persistence
    return [(int(k), key) for k in ks[-cap:]]


def _aggregate(point_verdicts: list[str]) -> str:
    if all(v == "converges" for v in point_verdicts):
        return "converges"
    if any(v == "fails" for v in point_verdicts):
        return "fails"
    return "inconclusive"


def _verdict_from_trace(trace: DensityTrace) -> str:
    # limit-one or a settled positive value: the density is clearly not zero
    return {"limit-zero": "converges", "inconclusive": "inconclusive"}.get(trace.verdict, "fails")


def _judge(keyed_masks, lam: LambdaSequence, q: ConvergenceQuery) -> tuple[str, dict, list]:
    """Density judge of the stat modes over (key, mask) pairs.

    Returns the aggregate verdict, the trace of each key, and up to
    WITNESS_CAP tail witnesses (k, key) from the masks that do not converge.
    """
    traces, point_verdicts, witnesses = {}, [], []
    for key, mask in keyed_masks:
        traces[key] = trace = density_trace(mask, lam, q.n_max, q.stride)
        point_verdicts.append(_verdict_from_trace(trace))
        if point_verdicts[-1] != "converges" and len(witnesses) < WITNESS_CAP:
            witnesses.extend(_tail_witnesses(mask, key, trace, WITNESS_CAP - len(witnesses)))
    return _aggregate(point_verdicts), traces, witnesses


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

    grid = fs.domain_grid
    ks = np.arange(1, q.n_max + 1)
    limit = _limit_centre(f)
    if q.mode == "ifn-classical":
        return _detect_classical(_grid_masks(fs, ifn_target, q, limit, ks, grid), grid, q)

    lam = lambda_family("identity") if q.mode in ("pointwise-stat", "uniform-stat") else q.lam
    if not q.mode.startswith("uniform"):
        verdict, traces, witnesses = _judge(
            zip(map(_point_key, grid), _grid_masks(fs, ifn_target, q, limit, ks, grid)), lam, q)
        return ConvergenceVerdict(q.mode, verdict, traces, witnesses, q.epsilon,
                                  q.time, lam.name, q.n_max)

    shared = _grid_masks(fs, ifn_target, q, limit, ks, grid, union=True)
    verdict, traces, tail = _judge([(None, shared)], lam, q)
    witnesses: list = []
    if tail:
        # Attribute each shared-set witness to the first grid point where
        # that index is exceptional.
        tail_ks = np.array([k for k, _ in tail])
        hits = np.array(list(_grid_masks(fs, ifn_target, q, limit, tail_ks, grid)))
        witnesses = [(int(k), _point_key(grid[np.argmax(col)]))
                     for k, col in zip(tail_ks, hits.T) if col.any()]
    return ConvergenceVerdict(q.mode, verdict, traces[None], witnesses, q.epsilon,
                              q.time, lam.name, q.n_max)


def _detect_classical(masks, grid, q: ConvergenceQuery) -> ConvergenceVerdict:
    clean_cut = int(q.n_max * CLASSICAL_CLEAN_FRACTION)
    dirty_cut = int(q.n_max * CLASSICAL_DIRTY_FRACTION)
    point_verdicts, witnesses, last_exceptional = [], [], {}
    for x, mask in zip(grid, masks):
        key = _point_key(x)
        hits = np.flatnonzero(mask) + 1
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


def _anchor_search(fs: FunctionSequence, ifn, q: ConvergenceQuery, ks: np.ndarray, grid):
    """Search an anchor f_N that serves every point of ``grid`` at once.

    The candidates are the first ANCHOR_POOL indices outside the union of
    exceptional masks against f_{n_max}; the search stops at the first
    candidate whose union has vanishing density.  Returns the outcome, the
    chosen anchor (None unless it converges), and the trace and union mask
    of the last candidate tried (both None when there is no candidate).
    """
    def union_against(anchor):
        return _grid_masks(fs, ifn, q, lambda x, vals: vals[anchor - 1], ks, grid, union=True)

    pool = (np.flatnonzero(~union_against(q.n_max)) + 1)[:ANCHOR_POOL]
    outcome, trace, mask = "fails", None, None
    for anchor in pool:
        mask = union_against(anchor)
        trace = density_trace(mask, q.lam, q.n_max, q.stride)
        if trace.verdict == "limit-zero":
            return "converges", int(anchor), trace, mask
        if trace.verdict == "inconclusive":
            outcome = "inconclusive"
    return outcome, None, trace, mask


def detect_cauchy(fs: FunctionSequence, ifn_target, q: ConvergenceQuery) -> ConvergenceVerdict:
    """Self-referential convergence test: no candidate limit required.

    Anchor terms f_N stand in for the limit (see ``_anchor_search``); the
    run converges when some anchor makes the exceptional density vanish.
    Pointwise mode anchors each grid point separately (N may depend on x);
    uniform mode uses one anchor and one shared exceptional set for the
    whole grid.  A failing run reports tail witnesses of the last anchor's
    mask.
    """
    if q.mode not in CAUCHY_MODES:
        raise DomainError(f"mode {q.mode!r} is not a Cauchy mode")
    ks = np.arange(1, q.n_max + 1)

    if q.mode == "uniform-lambda-cauchy":
        outcome, chosen, trace, mask = _anchor_search(fs, ifn_target, q, ks, fs.domain_grid)
        witnesses = (_tail_witnesses(mask, None, trace, WITNESS_CAP)
                     if outcome == "fails" and trace is not None else [])
        return ConvergenceVerdict(q.mode, outcome, trace, witnesses, q.epsilon,
                                  q.time, q.lam.name, q.n_max, details={"anchor": chosen})

    traces, anchors_used, point_verdicts, witnesses = {}, {}, [], []
    for x in fs.domain_grid:
        key = _point_key(x)
        outcome, anchors_used[key], trace, mask = _anchor_search(fs, ifn_target, q, ks, [x])
        point_verdicts.append(outcome)
        if trace is not None:
            traces[key] = trace
            if outcome == "fails" and len(witnesses) < WITNESS_CAP:
                witnesses.extend(_tail_witnesses(mask, key, trace,
                                                 WITNESS_CAP - len(witnesses)))
    return ConvergenceVerdict(q.mode, _aggregate(point_verdicts), traces, witnesses,
                              q.epsilon, q.time, q.lam.name, q.n_max,
                              details={"anchors": anchors_used})


def lemma_equivalence_check(fs: FunctionSequence, f: Callable, ifn_target,
                            q: ConvergenceQuery) -> bool:
    """Numerically confirm the five equivalent densities behind the detector.

    For each grid point (pointwise mode) or the shared union (uniform mode)
    the five statements are evaluated:

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
    uniform = q.mode == "uniform-lambda-stat"
    masks = _grid_masks(fs, ifn_target, q, _limit_centre(f), np.arange(1, q.n_max + 1),
                        fs.domain_grid, union=uniform, split=True)

    def density(mask, target: str) -> bool | None:
        v = density_trace(mask, q.lam, q.n_max, q.stride).verdict
        return None if v == "inconclusive" else v == target

    def conj(a, b) -> bool | None:
        return None if a is None or b is None else a and b

    rows = []  # one row of the five statement values per group
    for m_mu, m_nu in ([masks] if uniform else masks):
        joint = m_mu | m_nu
        separate = conj(density(m_mu, "limit-zero"), density(m_nu, "limit-zero"))
        rows.append((density(joint, "limit-zero"), separate, density(~joint, "limit-one"),
                     conj(density(~m_mu, "limit-one"), density(~m_nu, "limit-one")), separate))
    if any(v is None for row in rows for v in row):
        return False
    return len({all(stmt) for stmt in zip(*rows)}) == 1
