"""Convergence and Cauchy detection for function sequences under graded norms.

Every mode asks one question.  At a grid point x, with a centre c(x) and a
level/time pair (epsilon, t), index k is *exceptional* when

    mu(f_k(x) - c(x), t) <= 1 - epsilon   or   nu(f_k(x) - c(x), t) >= epsilon.

The centre is the candidate limit f, or an anchor term f_N in the Cauchy
modes.  The space answers the test (``IFNorm.exceptional``), a standard one
by its norm.  The grid is split into groups (``_groups``): each point alone
in the pointwise modes, the whole grid in the uniform ones.  One grid pass
(``_union``) is one loop over feeds of consecutive indices, each a row per
centre of a batch (the union over the points of their exceptional sets) for
a ``WindowCounter``.  A feed gives each row a fill, the test of every index
it does not evaluate, and the indices whose test differs from it; its
indices are evaluated in blocks, across a group's points when the sequence
broadcasts.  A dense feed takes every index over a False fill.  A bundled
family's feed takes only its bump set's members, over the base value's
test: off the set every term is the base value, so the feed costs the
members, not the indices.  The counter keeps the windowed counts at the
trace stages and the few indices the verdict cites, so no array as long as
the horizon is held.  A standard space tests a block by the largest norm
over its points, once per index.  A union over points is exceptional where
one point is, so a pass whose terms an earlier pass has checked reads each
later block at one probe point first, and the whole grid only for the
indices that point leaves open against some centre.

Every windowed mode judges each group with one search (``_search``): it
tries the group's candidate centres in order and stops at the first whose
set has vanishing windowed density.  The stat modes have one candidate, the
limit (the plain stat modes use lambda_n = n).  The Cauchy modes try the
first ANCHOR_POOL indices outside the group's set against the latest term
f_{n_max}, the first alone and then the rest in one pass: at most three
passes per group.  The pool pass stops at the block where its tenth anchor
turns up; the anchor passes cover the whole horizon, so they meet any fault
it stopped short of, and the first anchor's pass checks every term the
rest's pass reads.  A group that does not converge gives witnesses (``_witnesses``):
the last indices of its last set in the final window, kept by the sweep,
each paired with the first point of the group where it is exceptional
against the same centre.  ifn-classical instead asks every exceptional
index of each point to sit early in the horizon (a tail certificate); the
sweep keeps each point's last exceptional index and its first ones past
the dirty cut.

Verdicts are three-valued: converges, fails, or inconclusive.  A trace whose
tail has not settled is reported as inconclusive, never coerced to fails.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from typing import Callable

import numpy as np

from .algebra import DomainError
from .density import (BLOCK_ELEMENTS, Capture, DensityTrace, LambdaSequence, WindowCounter,
                      _check_horizon, _stages, _trace, lambda_family)
from .density import density_trace  # noqa: F401  (perfbench/child.py wraps it here)
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

# A checked grid pass stops reading blocks at its probe point once the probe decides
# less than this share of a block's columns: below it, the probe and the open
# columns' own grid call cost about what the decided columns save, or more.
PROBE_SHARE = 0.5

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
        if not 0.0 < self.time < np.inf:
            raise DomainError(f"time must be positive and finite, got {self.time}")
        _check_horizon(self.n_max, self.stride)


@dataclass
class ConvergenceVerdict:
    """Outcome of a detection run plus the evidence it rests on.

    ``traces`` is a point -> DensityTrace mapping for pointwise modes, a
    single shared trace for uniform modes, and None for ifn-classical.
    ``witnesses`` holds up to WITNESS_CAP (k, x) pairs, taken in grid order
    from the groups that do not converge: the last indices of a group's last
    exceptional set in the final window, each with the first point of the
    group where k is exceptional against that set's centre (ifn-classical:
    the first indices past the dirty cut of each failing point).
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


def _limits(f: Callable, xs: np.ndarray) -> np.ndarray:
    """Limit values f(x) across the points ``xs``, shaped (points, coordinates)."""
    return np.stack([np.asarray(f(x), dtype=float).reshape(-1) for x in xs])


def _faults(xs: np.ndarray, first_bad: np.ndarray, limits: np.ndarray | None = None) -> None:
    """Raise the first fault in grid order: a point's first non-finite term, then its limits."""
    for j, x in enumerate(xs):
        if first_bad[j]:
            raise ValueError(f"sequence value not finite at (k={first_bad[j]}, x={float(x)!r})")
        if limits is not None and not np.isfinite(limits[:, j]).all():
            raise ValueError(f"limit value not finite at x={float(x)!r}")


def _union(fs: FunctionSequence, ifn, q: ConvergenceQuery, xs, centres: list,
           stages: tuple | None = None, captures=(), split: bool = False,
           checked: bool = False) -> WindowCounter:
    """The grid pass: per centre, the windowed counts of the union of the points' exceptional sets.

    One loop over feeds of ``span`` indices of k = 1..n_max, about
    BLOCK_ELEMENTS tests each: a row per centre (rows mu, nu and their union
    with ``split``), fed to a ``WindowCounter`` at the trace ``stages`` with
    the ``captures``.  Without stages every block is a feed, and the sweep
    stops once the counter is ``done`` (say, a full anchor pool); faults past
    that go unchecked.  Each feed takes its indices and evaluates them in
    blocks of ``step`` indices, one ``terms`` call per chunk of ``width``
    points: all of ``xs`` when the sequence ``broadcasts``, else one, so a
    ``per_point`` call answers BLOCK_ELEMENTS indices.  Blocks are
    point-major, (points, indices, coordinates); ``exceptional_batch`` tests
    one against the batch, bounding later centres by the first.  The first
    point chunk writes its tests into the feed's rows, later ones OR into
    them.  Faults come in point-by-point order.

    A dense feed takes every index and counts its hits over a False fill.
    A bundled family's ``evaluate.sparse`` form ``(bumps, base, bump)``, with
    finite base values and centres, takes the feed's members of the bump
    set, a searchsorted slice, and fills each row with its centre's test of
    ``base - centre``: every index off the set has the base term.  Only the
    members whose test differs from the fill go to the counter.  The feeds,
    and so the counts, captures and faults, are the dense sweep's.

    ``checked`` says an earlier pass evaluated every term of the horizon and
    found it finite.  A dense, unsplit pass over several points of a
    standard space whose sequence broadcasts then tests its first block in
    full, takes as probe the point where most of that block's columns peak
    against the first centre, and tests later blocks with ``_probed``: the
    same tests, without the finiteness check.
    Once the probe decides less than PROBE_SHARE of a block's columns, that
    block and the rest are read whole, as without ``checked``.
    """
    limits = callable(centres[0])
    cs = (np.stack([_limits(f, xs) for f in centres]) if limits
          else fs.terms(np.array(centres), xs).swapaxes(0, 1))  # (centres, points, coordinates)
    clean = bool(np.isfinite(cs).all())  # an anchor's fault is a term's, met in its block
    first_bad = np.zeros(len(xs), dtype=np.int64)  # per point: first non-finite index, or 0
    terms, width = fs.terms, len(xs) if fs.broadcasts else 1
    members, fill = None, False  # dense feeds: every index, over an all-False fill
    sparse = getattr(fs.evaluate, "sparse", None)
    if sparse is not None and clean:
        bumps, base, bump = sparse
        base_vals = base(xs).reshape(len(xs), 1, 1)
        if np.isfinite(base_vals).all():
            # each centre's tests of every index off the set
            off = ifn.exceptional_batch(base_vals, cs[:, :, None], q.epsilon, q.time, GUARD,
                                        split, np.empty(len(xs))).reshape(len(centres), -1)
            fill = np.concatenate([off, off.any(axis=1, keepdims=True)], axis=1) if split else off
            fill = fill.reshape(-1, 1)
            terms, width = (lambda ks, x: bump(ks, x)[..., None]), len(xs)
            members = bumps.members_in
    step = max(1, BLOCK_ELEMENTS // width)  # indices per block
    # a checked dense grid pass of a standard space reads later blocks at one point first
    probe = (-1 if checked and ifn.norm is not None and not split and members is None
             and fs.broadcasts and len(xs) > 1 else None)
    ns, _, lows = stages or ((), None, ())
    rows = len(centres) * (3 if split else 1)
    counter = WindowCounter(rows, ns, lows, captures)
    buf = np.empty(step * width * cs.shape[-1])  # every block's differences from a centre
    span = step * (max(1, BLOCK_ELEMENTS // (step * rows)) if len(ns) else 1)  # indices per feed
    held = np.empty((len(centres), 1 + split, span), dtype=bool)
    for lo in range(0, q.n_max, span):
        hi = min(lo + span, q.n_max)
        feed = np.arange(lo + 1, hi + 1) if members is None else members(lo + 1, hi)
        block = held[..., :feed.size]  # the tests of the feed's indices
        for a in range(0, feed.size, step):
            ks, at = feed[a:a + step], slice(a, a + step)
            if probe is not None and probe >= 0:
                tests = _probed(terms, ifn, q, xs, cs, probe, ks, buf)
                if tests is not None:
                    block[:, 0, at] = tests
                    continue
                probe = None  # it decided too little: this block and the rest are read whole
            for p in range(0, len(xs), width):
                # held until the next block's terms exist: freed first, glibc trims the heap
                vals = terms(ks, xs[p:p + width])
                if not np.isfinite(vals).all():
                    bad = ~np.isfinite(vals).all(axis=2)
                    seen = first_bad[p:p + len(vals)]
                    fresh = (seen == 0) & bad.any(axis=1)
                    seen[fresh] = ks[bad.argmax(axis=1)[fresh]]
                    clean = False
                if clean:
                    t = ifn.exceptional_batch(vals, cs[:, p:p + width, None], q.epsilon, q.time,
                                              GUARD, split, buf).reshape(block.shape[:2] + (-1,))
                    block[..., at] = t | block[..., at] if p else t
            if probe == -1:  # where most of the first block's columns peak against centre 0
                diffs = np.subtract(vals, cs[0, :, None], out=buf[:vals.size].reshape(vals.shape))
                peaks = ifn.norm(diffs).argmax(axis=0)
                probe = int(np.bincount(peaks, minlength=len(xs)).argmax())
        if clean:
            if split:
                block = np.concatenate([block, block.any(axis=1, keepdims=True)], axis=1)
            block = block.reshape(rows, -1)
            if members is None:
                counter.feed(hi - lo, np.flatnonzero(block))
            else:  # the flat places, row by row, of the members whose test is not the fill
                at = np.arange(0, rows * (hi - lo), hi - lo)[:, None] + (feed - (lo + 1))
                counter.feed(hi - lo, at[block != fill], fill)
        if counter.done:
            break
    _faults(xs, first_bad, cs if limits else None)
    return counter


def _probed(terms: Callable, ifn, q: ConvergenceQuery, xs, cs: np.ndarray, probe: int,
            ks: np.ndarray, buf: np.ndarray) -> np.ndarray | None:
    """A checked block's tests, (centres, indices), reading the grid only where the probe must.

    The ``probe`` point's row decides the pairs it shows exceptional
    (``clears_band``); a column decided for every centre is True throughout.
    If fewer than PROBE_SHARE of the columns are, the answer is None.  Else
    the other columns are evaluated across ``xs`` in one call, unchecked, and
    ``exceptional_batch`` tests their open pairs exactly.
    """
    known = ifn.clears_band(terms(ks, xs[probe:probe + 1])[0], cs[:, probe], q.epsilon, q.time,
                            GUARD)
    open_ = ~known.all(axis=0)
    if ks.size - np.count_nonzero(open_) < PROBE_SHARE * ks.size:
        return None
    out = np.ones(known.shape, dtype=bool)
    if open_.any():
        out[:, open_] = ifn.exceptional_batch(terms(ks[open_], xs), cs[:, :, None], q.epsilon,
                                              q.time, GUARD, False, buf, known[:, open_])
    return out


def _groups(uniform: bool, grid: np.ndarray) -> list:
    """(key, points) pairs: the whole grid keyed None, or each point keyed by itself."""
    if uniform:
        return [(None, grid)]
    return [(float(x), grid[i:i + 1]) for i, x in enumerate(grid)]


def exceptional_set(fs: FunctionSequence, f: Callable, ifn_target, x,
                    epsilon: float, time: float) -> Callable[[int], bool]:
    """Predicate on indices: is k exceptional at x for (epsilon, time)?  Always by mu and nu."""
    if not 0.0 < epsilon < 1.0:
        raise DomainError(f"epsilon must lie in (0, 1), got {epsilon}")
    if not 0.0 < time < np.inf:
        raise DomainError(f"time must be positive and finite, got {time}")
    xs = np.array([x], dtype=float)
    fx = _limits(f, xs)
    _faults(xs, [0], fx[None])

    def member(k: int) -> bool:
        if k < 1:
            raise DomainError(f"index must be >= 1, got {k}")
        vals = fs.terms(np.array([k]), xs)
        _faults(xs, [0 if np.isfinite(vals).all() else k])
        return bool(ifn_target.exceptional(vals - fx, epsilon, time, GUARD, split=True).any())

    return member


def _aggregate(point_verdicts: list[str]) -> str:
    if all(v == "converges" for v in point_verdicts):
        return "converges"
    if any(v == "fails" for v in point_verdicts):
        return "fails"
    return "inconclusive"


def _search(union: Callable, pool: list, stages: tuple) -> tuple:
    """Try a group's candidate centres in pool order; stop at the first limit-zero trace.

    ``union(batch, stages, captures, checked=...)`` counts the group's
    exceptional sets of a batch in one sweep: the first candidate, then the
    rest, ``checked`` since the first candidate's sweep evaluated every term
    and raised on any fault.  Returns
    the outcome, the last centre tried, its trace, and the last WITNESS_CAP
    indices of its set in the final window (all None for an empty pool).
    The outcome is converges at a limit-zero trace, else inconclusive when
    some trace was, else fails: limit-one or a settled positive value says
    the density is clearly not zero.
    """
    outcome, centre, trace, tail = "fails", None, None, None
    final_hits = Capture(WITNESS_CAP, int(stages[2][-1]), last=True)
    for checked, batch in ((False, pool[:1]), (True, pool[1:])):
        if not batch:
            continue
        counter = union(batch, stages, (final_hits,), checked=checked)
        for centre, counts, tail in zip(batch, counter.counts(), counter.kept[0]):
            trace = _trace(stages, counts)
            if trace.verdict == "limit-zero":
                return "converges", centre, trace, tail
            if trace.verdict == "inconclusive":
                outcome = "inconclusive"
    return outcome, centre, trace, tail


def _witnesses(fs: FunctionSequence, ifn, q: ConvergenceQuery, centre, xs,
               tail: np.ndarray, cap: int) -> list:
    """The last ``cap`` of the ``tail`` indices kept by the sweep, as (k, x).

    Indices closest to the horizon are evidence of persistence.  Each is
    paired with the first point of ``xs`` where it is exceptional against
    ``centre``; that check evaluates those indices (and the anchor) once.
    """
    tail = tail[tail > 0][-cap:]
    if tail.size == 0:
        return []
    ks = tail if callable(centre) else np.append(tail, centre)
    vals = fs.terms(ks, xs)  # finite: the sweep behind ``tail`` checked them
    c = _limits(centre, xs)[:, None] if callable(centre) else vals[:, -1:]
    hits = ifn.exceptional(vals[:, :tail.size] - c, q.epsilon, q.time, GUARD)
    return [(int(k), float(xs[np.argmax(col)])) for k, col in zip(tail, hits.T) if col.any()]


def _detect_windowed(fs: FunctionSequence, ifn, q: ConvergenceQuery, lam: LambdaSequence,
                     candidates: Callable) -> ConvergenceVerdict:
    """Judge every group with ``_search`` over ``candidates(union)``; gather witnesses."""
    uniform = q.mode.startswith("uniform")
    outcomes, traces, anchors, witnesses = [], {}, {}, []
    stages = _stages(lam, q.n_max, q.stride)
    for key, xs in _groups(uniform, fs.domain_grid):
        union = partial(_union, fs, ifn, q, xs)
        outcome, centre, trace, tail = _search(union, candidates(union), stages)
        outcomes.append(outcome)
        anchors[key] = centre if outcome == "converges" else None
        if trace is not None:
            traces[key] = trace
            if outcome != "converges" and len(witnesses) < WITNESS_CAP:
                witnesses += _witnesses(fs, ifn, q, centre, xs, tail,
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
    point_verdicts, witnesses, last_exceptional = [], [], {}
    captures = (Capture(1, last=True), Capture(WITNESS_CAP, dirty_cut + 1))
    for key, xs in _groups(False, fs.domain_grid):
        last, tail = (kept[0] for kept in _union(fs, ifn, q, xs, [f], captures=captures).kept)
        k_last = int(last[-1])
        last_exceptional[key] = k_last
        if k_last <= clean_cut:
            point_verdicts.append("converges")
        elif k_last > dirty_cut:
            point_verdicts.append("fails")
            if len(witnesses) < WITNESS_CAP:
                tail = tail[tail > 0][: WITNESS_CAP - len(witnesses)]
                witnesses.extend((int(k), key) for k in tail)
        else:
            point_verdicts.append("inconclusive")
    return ConvergenceVerdict(q.mode, _aggregate(point_verdicts), None, witnesses,
                              q.epsilon, q.time, "unused", q.n_max,
                              details={"last_exceptional": last_exceptional})


def detect_cauchy(fs: FunctionSequence, ifn_target, q: ConvergenceQuery) -> ConvergenceVerdict:
    """Self-referential convergence test: no candidate limit required.

    Anchor terms f_N stand in for the limit: a group's candidates are the
    first ANCHOR_POOL indices outside its exceptional set against f_{n_max},
    and the run converges when some anchor makes each group's exceptional density
    vanish.  Pointwise mode anchors each grid point separately (N may depend
    on x); uniform mode uses one anchor and one shared exceptional set for
    the whole grid.
    """
    if q.mode not in CAUCHY_MODES:
        raise DomainError(f"mode {q.mode!r} is not a Cauchy mode")
    def pool(union) -> list:
        kept = union([q.n_max], captures=(Capture(ANCHOR_POOL, misses=True),)).kept[0][0]
        return kept[kept > 0].tolist()

    return _detect_windowed(fs, ifn_target, q, q.lam, pool)


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
    counts, and a difference could only come from rounding at the boundary.
    One sweep counts the mu, nu and joint sets; a complement's count is the
    window width minus the set's.

    Returns True when all five verdicts are decisive and identical (all true
    for a converging run, all false for a failing one); an inconclusive
    trace anywhere yields False, since agreement cannot be certified.
    """
    if q.mode not in ("pointwise-lambda-stat", "uniform-lambda-stat"):
        raise DomainError("lemma check requires a lambda-stat mode")

    stages = _stages(q.lam, q.n_max, q.stride)
    width = stages[0] - stages[2] + 1  # a complement's count is the window width minus the count

    def density(counts, target: str) -> bool | None:
        v = _trace(stages, counts).verdict
        return None if v == "inconclusive" else v == target

    def conj(a, b) -> bool | None:
        return None if a is None or b is None else a and b

    rows = []  # one row of the five statement values per group
    for _, xs in _groups(q.mode == "uniform-lambda-stat", fs.domain_grid):
        c_mu, c_nu, joint = _union(fs, ifn_target, q, xs, [f], stages, split=True).counts()
        separate = conj(density(c_mu, "limit-zero"), density(c_nu, "limit-zero"))
        rows.append((density(joint, "limit-zero"), separate, density(width - joint, "limit-one"),
                     conj(density(width - c_mu, "limit-one"), density(width - c_nu, "limit-one")),
                     separate))
    if any(v is None for row in rows for v in row):
        return False
    return len({all(stmt) for stmt in zip(*rows)}) == 1
