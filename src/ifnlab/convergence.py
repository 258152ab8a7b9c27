"""Convergence and Cauchy detection for function sequences under graded norms.

Everything here reduces to one primitive: for a grid point x, candidate limit
f, and level/time pair (epsilon, t), index k is *exceptional* when

    mu(f_k(x) - f(x), t) <= 1 - epsilon   or   nu(f_k(x) - f(x), t) >= epsilon.

Windowed-statistical convergence asks the exceptional indices to have
windowed density zero; the pointwise flavour allows a separate exceptional
set per grid point, the uniform flavour charges one shared set (the union
over the grid).  Classical convergence asks for a clean tail instead, and
the Cauchy detectors replace f by an anchor term of the sequence itself.

Verdicts are three-valued: converges, fails, or inconclusive.  A trace whose
tail has not settled is reported as inconclusive, never coerced to fails.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .algebra import DomainError
from .density import DensityTrace, LambdaSequence, density_trace, lambda_family, window
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


def _exceptional(ifn, diffs: np.ndarray, epsilon: float, t: float) -> np.ndarray:
    """Which rows of ``diffs`` are exceptional for (epsilon, t)."""
    mu, nu = ifn.mu(diffs, t), ifn.nu(diffs, t)
    return (mu <= 1.0 - epsilon + GUARD) | (nu >= epsilon - GUARD)


def _point_mask(fs, f, ifn, x, epsilon, t, ks) -> np.ndarray:
    diffs = _values_matrix(fs, ks, x) - _limit_vector(f, x)[None, :]
    return _exceptional(ifn, diffs, epsilon, t)


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


def _effective_lambda(q: ConvergenceQuery) -> LambdaSequence:
    if q.mode in ("pointwise-stat", "uniform-stat"):
        return lambda_family("identity")
    return q.lam


def _tail_witnesses(mask: np.ndarray, key, lam: LambdaSequence, n_max: int,
                    cap: int) -> list:
    w = window(lam, n_max)
    ks = np.flatnonzero(mask[w.lo - 1: w.hi]) + w.lo
    # report the offenders closest to the horizon: evidence of persistence
    return [(int(k), key) for k in ks[-cap:]]


def _aggregate(point_verdicts: list[str]) -> str:
    if all(v == "converges" for v in point_verdicts):
        return "converges"
    if any(v == "fails" for v in point_verdicts):
        return "fails"
    return "inconclusive"


def _verdict_from_trace(trace: DensityTrace) -> str:
    if trace.verdict == "limit-zero":
        return "converges"
    if trace.verdict == "inconclusive":
        return "inconclusive"
    return "fails"  # limit-one or settled positive value: density clearly not zero


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

    lam = _effective_lambda(q)
    grid = fs.domain_grid
    ks = np.arange(1, q.n_max + 1)
    uniform = q.mode.startswith("uniform")

    witnesses: list = []
    if uniform:
        shared = np.zeros(q.n_max, dtype=bool)
        for x in grid:
            shared |= _point_mask(fs, f, ifn_target, x, q.epsilon, q.time, ks)
        trace = density_trace(shared, lam, q.n_max, q.stride)
        verdict = _verdict_from_trace(trace)
        if verdict != "converges":
            # Attribute shared-set witnesses to the first grid point that
            # triggers each exceptional index.
            for k, key in _tail_witnesses(shared, None, lam, q.n_max, WITNESS_CAP):
                for x in grid:
                    if exceptional_set(fs, f, ifn_target, x, q.epsilon, q.time)(k):
                        witnesses.append((k, _point_key(x)))
                        break
                if len(witnesses) >= WITNESS_CAP:
                    break
        return ConvergenceVerdict(q.mode, verdict, trace, witnesses, q.epsilon,
                                  q.time, lam.name, q.n_max)

    traces: dict = {}
    point_verdicts = []
    for x in grid:
        key = _point_key(x)
        mask = _point_mask(fs, f, ifn_target, x, q.epsilon, q.time, ks)
        trace = density_trace(mask, lam, q.n_max, q.stride)
        traces[key] = trace
        verdict = _verdict_from_trace(trace)
        point_verdicts.append(verdict)
        if verdict != "converges" and len(witnesses) < WITNESS_CAP:
            witnesses.extend(_tail_witnesses(mask, key, lam, q.n_max,
                                             WITNESS_CAP - len(witnesses)))
    return ConvergenceVerdict(q.mode, _aggregate(point_verdicts), traces, witnesses,
                              q.epsilon, q.time, lam.name, q.n_max)


def _detect_classical(fs, f, ifn_target, q: ConvergenceQuery) -> ConvergenceVerdict:
    clean_cut = int(q.n_max * CLASSICAL_CLEAN_FRACTION)
    dirty_cut = int(q.n_max * CLASSICAL_DIRTY_FRACTION)
    ks = np.arange(1, q.n_max + 1)
    point_verdicts = []
    witnesses: list = []
    last_exceptional: dict = {}
    for x in fs.domain_grid:
        key = _point_key(x)
        mask = _point_mask(fs, f, ifn_target, x, q.epsilon, q.time, ks)
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


def detect_cauchy(fs: FunctionSequence, ifn_target, q: ConvergenceQuery) -> ConvergenceVerdict:
    """Self-referential convergence test: no candidate limit required.

    Anchor terms f_N stand in for the limit.  Candidate N values are the
    first ANCHOR_POOL indices that are non-exceptional against the latest
    available term (k_ref = n_max); the run converges when some anchor makes
    the exceptional density vanish.  Pointwise mode anchors each grid point
    separately (N may depend on x); uniform mode uses one anchor and one
    shared exceptional set for the whole grid.
    """
    if q.mode not in CAUCHY_MODES:
        raise DomainError(f"mode {q.mode!r} is not a Cauchy mode")
    lam = q.lam
    grid = fs.domain_grid
    ks = np.arange(1, q.n_max + 1)

    def masks_against(vals: np.ndarray, center: np.ndarray) -> np.ndarray:
        return _exceptional(ifn_target, vals - center[None, :], q.epsilon, q.time)

    if q.mode == "pointwise-lambda-cauchy":
        traces: dict = {}
        anchors_used: dict = {}
        point_verdicts = []
        witnesses: list = []
        for x in grid:
            key = _point_key(x)
            vals = _values_matrix(fs, ks, x)
            ref_mask = masks_against(vals, vals[-1])
            pool = (np.flatnonzero(~ref_mask) + 1)[:ANCHOR_POOL]
            outcome, chosen, best_trace = "fails", None, None
            for anchor in pool:
                mask = masks_against(vals, vals[anchor - 1])
                trace = density_trace(mask, lam, q.n_max, q.stride)
                best_trace = trace
                if trace.verdict == "limit-zero":
                    outcome, chosen = "converges", int(anchor)
                    break
                if trace.verdict == "inconclusive":
                    outcome = "inconclusive"
            point_verdicts.append(outcome)
            anchors_used[key] = chosen
            if best_trace is not None:
                traces[key] = best_trace
            if outcome == "fails" and best_trace is not None and len(witnesses) < WITNESS_CAP:
                last_mask = masks_against(vals, vals[(pool[-1] if pool.size else q.n_max) - 1])
                witnesses.extend(_tail_witnesses(last_mask, key, lam, q.n_max,
                                                 WITNESS_CAP - len(witnesses)))
        return ConvergenceVerdict(q.mode, _aggregate(point_verdicts), traces, witnesses,
                                  q.epsilon, q.time, lam.name, q.n_max,
                                  details={"anchors": anchors_used})

    # Uniform: one anchor must serve every grid point.
    union_ref = np.zeros(q.n_max, dtype=bool)
    for x in grid:
        vals = _values_matrix(fs, ks, x)
        union_ref |= masks_against(vals, vals[-1])
    pool = (np.flatnonzero(~union_ref) + 1)[:ANCHOR_POOL]

    outcome, chosen, best_trace = "fails", None, None
    for anchor in pool:
        shared = np.zeros(q.n_max, dtype=bool)
        for x in grid:
            vals = _values_matrix(fs, ks, x)
            shared |= masks_against(vals, vals[anchor - 1])
        trace = density_trace(shared, lam, q.n_max, q.stride)
        best_trace = trace
        if trace.verdict == "limit-zero":
            outcome, chosen = "converges", int(anchor)
            break
        if trace.verdict == "inconclusive":
            outcome = "inconclusive"
    witnesses: list = []
    if outcome == "fails" and best_trace is not None:
        # Report tail indices of the shared set for the last anchor tried.
        witnesses = _tail_witnesses(shared, None, lam, q.n_max, WITNESS_CAP)
        witnesses = [(k, None) for k, _ in witnesses]
    return ConvergenceVerdict(q.mode, outcome, best_trace, witnesses, q.epsilon,
                              q.time, lam.name, q.n_max, details={"anchor": chosen})


def lemma_equivalence_check(fs: FunctionSequence, f: Callable, ifn_target,
                            q: ConvergenceQuery) -> bool:
    """Numerically confirm the five equivalent densities behind the detector.

    For each grid point (pointwise mode) or the shared union (uniform mode)
    the five statements are evaluated independently:

    1. the joint exceptional set has windowed density zero;
    2. the mu-exceptional and nu-exceptional sets each have density zero;
    3. the joint complement has density one;
    4. each separate complement has density one;
    5. the values mu(f_k - f, t) converge windowed-statistically to 1 and
       nu(f_k - f, t) to 0 (checked at the query epsilon).

    Returns True when all five verdicts are decisive and identical (all true
    for a converging run, all false for a failing one); an inconclusive
    trace anywhere yields False, since agreement cannot be certified.
    """
    if q.mode not in ("pointwise-lambda-stat", "uniform-lambda-stat"):
        raise DomainError("lemma check requires a lambda-stat mode")
    lam = q.lam
    uniform = q.mode == "uniform-lambda-stat"
    ks = np.arange(1, q.n_max + 1)

    def zero(mask) -> bool | None:
        v = density_trace(mask, lam, q.n_max, q.stride).verdict
        return True if v == "limit-zero" else (None if v == "inconclusive" else False)

    def one(mask) -> bool | None:
        v = density_trace(mask, lam, q.n_max, q.stride).verdict
        return True if v == "limit-one" else (None if v == "inconclusive" else False)

    def conj(a, b) -> bool | None:
        if a is None or b is None:
            return None
        return a and b

    def point_masks(x):
        vals = _values_matrix(fs, ks, x)
        diffs = vals - _limit_vector(f, x)[None, :]
        mu, nu = ifn_target.mu(diffs, q.time), ifn_target.nu(diffs, q.time)
        m_mu = mu <= 1.0 - q.epsilon + GUARD
        m_nu = nu >= q.epsilon - GUARD
        # Value-sequence framing of statement 5: distance of mu from 1 and
        # of nu from 0, thresholded at the query epsilon.
        v_mu = (1.0 - mu) >= q.epsilon - GUARD
        v_nu = np.abs(nu) >= q.epsilon - GUARD
        return m_mu, m_nu, v_mu, v_nu

    if uniform:
        n = q.n_max
        u_mu = np.zeros(n, dtype=bool)
        u_nu = np.zeros(n, dtype=bool)
        uv_mu = np.zeros(n, dtype=bool)
        uv_nu = np.zeros(n, dtype=bool)
        for x in fs.domain_grid:
            m_mu, m_nu, v_mu, v_nu = point_masks(x)
            u_mu |= m_mu
            u_nu |= m_nu
            uv_mu |= v_mu
            uv_nu |= v_nu
        groups = [(u_mu, u_nu, uv_mu, uv_nu)]
    else:
        groups = [point_masks(x) for x in fs.domain_grid]

    statements: list[list] = [[], [], [], [], []]
    for m_mu, m_nu, v_mu, v_nu in groups:
        joint = m_mu | m_nu
        statements[0].append(zero(joint))
        statements[1].append(conj(zero(m_mu), zero(m_nu)))
        statements[2].append(one(~joint))
        statements[3].append(conj(one(~m_mu), one(~m_nu)))
        statements[4].append(conj(zero(v_mu), zero(v_nu)))

    verdicts = []
    for stmt in statements:
        if any(v is None for v in stmt):
            return False
        verdicts.append(all(stmt))
    return all(v == verdicts[0] for v in verdicts)
