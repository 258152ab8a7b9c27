"""Convergence and Cauchy detection for function sequences under graded norms.

Every mode asks one question.  At a grid point x, with a centre c(x) and a
level/time pair (epsilon, t), index k is *exceptional* when

    mu(f_k(x) - c(x), t) <= 1 - epsilon   or   nu(f_k(x) - c(x), t) >= epsilon.

The centre is the candidate limit f, or an anchor term f_N in the Cauchy
modes.  The space answers the test (``IFNorm.exceptional``), a standard one
by its norm; its GUARD band makes the exact boundary exceptional.  One grid
pass (``_union``) marks, per grid point, the indices where f_k(x) is
exceptional against each centre of a batch, and keeps a row per (point,
centre) in the pointwise modes and ifn-classical, or per centre the union
over the points in the uniform ones.  It is one loop over feeds of
consecutive indices for a ``WindowCounter``, which keeps one windowed count
per row and trace stage and the few indices the verdict cites, so nothing
as long as the horizon is held.  A feed gives each row a fill, the test of
every index it does not evaluate, and the indices whose test differs from
it: a dense feed takes every index over a False fill, a bundled family's
feed only its bump set's members over the base value's test.  A union over
points is exceptional where one point is, so a uniform pass whose terms an
earlier pass checked reads each block at one probe point first and
evaluates the grid only where it leaves a pair open.

Every windowed mode judges each group, a point or the whole grid, with one
search (``_search``): it tries the group's candidate centres in order and
stops at the first whose set has vanishing windowed density.  The stat modes
have one candidate, the limit (the plain stat modes use lambda_n = n).  The
Cauchy modes try the first ANCHOR_POOL indices outside the group's set
against f_{n_max}: one pool pass, one pass of every group's first anchor,
and one of the rest for the groups still open, so three passes whatever the
number of groups.  The pool pass stops at the
block where every pool is full; the first anchor's pass covers the whole
horizon, so it meets any fault the pool pass stopped short of and checks
every term the rest's pass reads.  A group that does not converge gives as
witnesses the last indices of its last set in the final window, each with
the first point of the group where it is exceptional (``_witnesses``).
ifn-classical instead asks every exceptional index of each point to sit
early in the horizon (a tail certificate).

Verdicts are three-valued: converges, fails, or inconclusive.  A trace whose
tail has not settled is reported as inconclusive, never coerced to fails.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .algebra import DomainError, check_choice, check_integer, check_level
from .density import (BLOCK_ELEMENTS, Capture, DensityTrace, LambdaSequence, WindowCounter,
                      _stages, _trace, lambda_family)
from .density import density_trace  # noqa: F401  (perfbench/child.py wraps it here)
from .sequences import FunctionSequence

STAT_MODES = ("pointwise-stat", "uniform-stat",
              "pointwise-lambda-stat", "uniform-lambda-stat")
CAUCHY_MODES = ("pointwise-lambda-cauchy", "uniform-lambda-cauchy")
MODES = ("ifn-classical",) + STAT_MODES + CAUCHY_MODES

WITNESS_CAP = 10
ANCHOR_POOL = 10

# A checked grid pass narrows each block to the columns its probe point leaves open
# until the probe decides less than this share of a block's columns; that block and
# the rest are read whole.  Below it, the probe costs about what it saves, or more.
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
        check_choice("mode", self.mode, MODES)
        check_level(self.epsilon, self.time)
        check_integer("n_max", self.n_max, 10)
        check_integer("stride", 1 if self.stride is None else self.stride, 1)


@dataclass
class ConvergenceVerdict:
    """Outcome of a detection run plus the evidence it rests on.

    ``traces`` is a point -> DensityTrace mapping for pointwise modes (each a
    row of the one grid pass), a single shared trace for uniform modes, and
    None for ifn-classical.  ``witnesses`` holds up to WITNESS_CAP (k, x)
    pairs, in grid order from the groups that do not converge: the last
    indices of a group's last exceptional set in the final window, each with
    the first point of the group where k is exceptional against that set's
    centre, in a pointwise mode the point itself (ifn-classical: the first
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


def _union(fs: FunctionSequence, ifn, q: ConvergenceQuery, xs, centres,
           stages: tuple | None = None, captures=(), split: bool = False,
           checked: bool = False) -> WindowCounter:
    """The grid pass: windowed counts per (point, centre, test) row, a uniform mode's one
    point the union over ``xs``; the tests are mu, nu and their union with ``split``.

    ``centres`` is a row of limits (callables) or anchor indices for every point, or a
    table of anchor rows, one per point.  One loop over feeds of k = 1..n_max, each about
    BLOCK_ELEMENTS tests, rows times indices (without ``stages`` each block is a feed and
    the sweep stops once the counter is ``done``, say at full pools; faults past that go
    unchecked).  A feed is evaluated in blocks of ``step`` indices, a ``terms`` call per
    chunk of ``width`` points: all of ``xs`` when the sequence ``broadcasts``, else one.
    ``exceptional_batch`` tests a block against the centres, ORed over its points in a
    uniform pass, whose chunks OR into one row per centre.  A pointwise chunk feeds its own
    band of the counter's rows, so a sequence read point by point holds one point's rows,
    and a pointwise block holds about BLOCK_ELEMENTS tests too.  Faults come in point
    order.  A bundled family's ``evaluate.sparse`` form ``(bumps, base, bump)``, with
    finite base values and centres, feeds its members, BLOCK_ELEMENTS indices' worth or
    ``span`` of them: each row's fill is its centre's test of ``base - centre``, and only
    the members whose test differs go to the counter.  Counts, captures and faults are
    the dense sweep's.

    ``checked`` says an earlier pass evaluated and found finite every term of the horizon
    (such a pass is never ``split``).  A uniform pass over a standard space that reads
    several points at once then evaluates each block first at the probe, the argmax over
    points of max_n norm(c_n - c_0): ``clears_band`` decides the pairs it shows
    exceptional, a column decided for every centre is True, and the block narrows to its
    open columns, the decided pairs ``known``.  Once the probe decides less than
    PROBE_SHARE of a block, that block and the rest are read whole.
    """
    pointwise = not q.mode.startswith("uniform")
    table = np.array(centres, dtype=object)
    table = np.broadcast_to(table if table.ndim == 2 else table[None], (len(xs), table.shape[-1]))
    limits = callable(table[0, 0])
    if limits:  # (centres, points, coordinates); a limit is every point's
        cs = np.stack([_limits(f, xs) for f in table[0]])
    else:
        ids, at = np.unique(table.astype(np.int64), return_inverse=True)
        cs = fs.terms(ids, xs)[np.arange(len(xs))[:, None], at.reshape(table.shape)].swapaxes(0, 1)
    clean = bool(np.isfinite(cs).all())  # an anchor's fault is a term's, met in its block
    first_bad = np.zeros(len(xs), dtype=np.int64)  # per point: first non-finite index, or 0
    terms, width = fs.terms, len(xs) if fs.broadcasts else 1
    members, fill, tests = None, False, 3 if split else 1  # dense: every index, a False fill
    sparse = getattr(fs.evaluate, "sparse", None)
    if sparse is not None and clean:
        bumps, base, bump = sparse
        base_vals = base(xs).reshape(len(xs), 1, 1)
        if np.isfinite(base_vals).all():
            # each row's test of every index off the set, as (points, centres, tests)
            fill = ifn.exceptional_batch(
                base_vals, cs[:, :, None], q.epsilon, q.time, np.empty(len(xs)), split=split,
                union=not pointwise).reshape(len(table.T), tests, -1).transpose(2, 0, 1)
            terms, width = (lambda ks, x: bump(ks, x)[..., None]), len(xs)
            members = bumps.members_in
    rows = len(table.T) * tests * (width if pointwise else 1)  # a chunk's rows
    step = max(1, BLOCK_ELEMENTS // (rows if pointwise else width))  # indices per block
    # a checked uniform pass reads each block first where the later centres differ most
    probe = (int(ifn._eval("norm", cs - cs[0]).max(axis=0).argmax())
             if checked and ifn.norm is not None and width > 1 and not pointwise else None)
    ns, _, lows = stages or ((), None, ())
    counter = WindowCounter(rows * (len(xs) // width if pointwise else 1), ns, lows, captures)
    buf = np.empty(step * width * cs.shape[-1])  # every block's differences from a centre
    span = step * (max(1, BLOCK_ELEMENTS // (step * rows)) if len(ns) else 1)  # tests per feed
    held = np.empty((rows // (len(table.T) * tests), len(table.T), tests, span), dtype=bool)
    lo = 0
    while lo < q.n_max:  # a sparse feed: BLOCK_ELEMENTS indices, or its first span members
        hi = min(lo + (span if members is None else BLOCK_ELEMENTS), q.n_max)
        feed = np.arange(lo + 1, hi + 1) if members is None else members(lo + 1, hi)
        if feed.size > span:
            hi, feed = int(feed[span]) - 1, feed[:span]
        block = held[..., :feed.size]  # the tests of the feed's indices
        for p in range(0, len(xs), width):
            for a in range(0, feed.size, step):
                ks, at, known = feed[a:a + step], slice(a, a + step), None
                if probe is not None:  # narrow the block to the columns the probe leaves open
                    known = ifn.clears_band(terms(ks, xs[probe:probe + 1])[0], cs[:, probe],
                                            q.epsilon, q.time)
                    open_ = ~known.all(axis=0)
                    if ks.size - np.count_nonzero(open_) < PROBE_SHARE * ks.size:
                        probe = known = None  # it decided too little: this block and the rest whole
                    else:
                        block[..., at] = True
                        ks, at, known = ks[open_], a + np.flatnonzero(open_), known[:, open_]
                        if not ks.size:
                            continue
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
                                              buf, split=split, union=not pointwise, known=known)
                    t = t.reshape(block.shape[1:3] + (-1, t.shape[-1])).transpose(2, 0, 1, 3)
                    block[..., at] = t | block[..., at] if p and not pointwise else t
            if clean and (pointwise or p + width == len(xs)):
                first = p // width * rows if pointwise else 0  # a pointwise chunk's own rows
                band, flat = slice(first, first + rows), block.reshape(rows, -1)
                if members is None:
                    counter.feed(lo, hi - lo, np.flatnonzero(flat), rows=band)
                else:  # the flat places, row by row, of the members whose test is not the fill
                    own = fill[p:p + width] if pointwise else fill
                    at = np.arange(0, rows * (hi - lo), hi - lo)[:, None] + (feed - (lo + 1))
                    counter.feed(lo, hi - lo, at[flat != own.reshape(-1, 1)], own.reshape(-1),
                                 rows=band)
        if counter.done:
            break
        lo = hi
    _faults(xs, first_bad, cs if limits else None)
    return counter


def exceptional_set(fs: FunctionSequence, f: Callable, ifn_target, x,
                    epsilon: float, time: float) -> Callable[[int], bool]:
    """Predicate on indices: is k exceptional at x for (epsilon, time)?  Always by mu and nu."""
    check_level(epsilon, time)
    xs = np.array([x], dtype=float)
    fx = _limits(f, xs)
    _faults(xs, [0], fx[None])

    def member(k: int) -> bool:
        check_integer("index", k, 1)
        vals = fs.terms(np.array([k]), xs)
        _faults(xs, [0 if np.isfinite(vals).all() else k])
        return bool(ifn_target.exceptional(vals - fx, epsilon, time, split=True).any())

    return member


def _aggregate(verdicts: list[str]) -> str:
    return ("converges" if all(v == "converges" for v in verdicts)
            else "fails" if "fails" in verdicts else "inconclusive")


def _search(union: Callable, pool: list, stages: tuple) -> list:
    """Try each group's candidate centres in pool order; stop at its first limit-zero trace.

    ``pool`` holds a row of candidates per group, possibly empty.  ``union(groups, table,
    stages, captures, checked=...)`` counts a table of centres, a row per group, in one
    sweep: one sweep of every group's first candidate, then one of the rest of the open
    groups' (``checked``: the first sweep raised on any fault); a short row repeats its
    last centre.  A sweep's counter holds one count per (group, centre) and stage.  Per
    group: the outcome, the last centre tried, its trace and the last WITNESS_CAP indices
    of its set in the final window (None for an empty pool).  The outcome is converges at
    a limit-zero trace, else inconclusive when some trace was, else fails: limit-one or a
    settled positive value says the density is not zero.
    """
    found = [["fails", None, None, None] for _ in pool]
    final_hits = Capture(WITNESS_CAP, int(stages[2][-1]), last=True)
    for checked, part in ((False, slice(0, 1)), (True, slice(1, None))):
        groups = [g for g, row in enumerate(pool) if row[part] and found[g][0] != "converges"]
        if not groups:
            continue
        size = max(len(pool[g][part]) for g in groups)
        table = [pool[g][part] + pool[g][part][-1:] * (size - len(pool[g][part])) for g in groups]
        counter = union(groups, table, stages, (final_hits,), checked=checked)
        counts = counter.counts().reshape(len(groups), size, -1)
        tails = counter.kept[0].reshape(len(groups), size, -1)
        for g, group_counts, group_tails in zip(groups, counts, tails):
            for centre, c, tail in zip(pool[g][part], group_counts, group_tails):
                trace = _trace(stages, c.copy())  # a row, not a view of the whole pass
                outcome = {"limit-zero": "converges",
                           "inconclusive": "inconclusive"}.get(trace.verdict, found[g][0])
                found[g] = [outcome, centre, trace, tail]
                if outcome == "converges":
                    break
    return found


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
    hits = ifn.exceptional(vals[:, :tail.size] - c, q.epsilon, q.time)
    return [(int(k), float(xs[np.argmax(col)])) for k, col in zip(tail, hits.T) if col.any()]


def _detect_windowed(fs: FunctionSequence, ifn, q: ConvergenceQuery, lam: LambdaSequence,
                     candidates: Callable) -> ConvergenceVerdict:
    """Judge every group with ``_search`` over ``candidates(union, groups)``; gather witnesses."""
    uniform, grid = q.mode.startswith("uniform"), fs.domain_grid
    keys = [None] if uniform else [float(x) for x in grid]
    stages = _stages(lam, q.n_max, q.stride)

    def union(groups, *args, **kwargs):
        return _union(fs, ifn, q, grid if uniform else grid[groups], *args, **kwargs)

    found = _search(union, candidates(union, list(range(len(keys)))), stages)
    traces, anchors, witnesses = {}, {}, []
    for key, (outcome, centre, trace, tail) in zip(keys, found):
        anchors[key] = centre if outcome == "converges" else None
        if trace is not None:
            traces[key] = trace
            cap = WITNESS_CAP - len(witnesses)
            if outcome != "converges" and cap > 0:  # a point's own tail is its witnesses
                witnesses += (_witnesses(fs, ifn, q, centre, grid, tail, cap) if uniform
                              else [(int(k), key) for k in tail[tail > 0][-cap:]])
    if uniform:  # the output shape: one shared trace and one anchor
        traces, anchors = traces.get(None), anchors[None]
    details = {"anchor" if uniform else "anchors": anchors} if q.mode in CAUCHY_MODES else {}
    return ConvergenceVerdict(q.mode, _aggregate([o for o, *_ in found]), traces, witnesses,
                              q.epsilon, q.time, lam.name, q.n_max, details)


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
    return _detect_windowed(fs, ifn_target, q, lam, lambda union, groups: [[f] for _ in groups])


def _detect_classical(fs: FunctionSequence, f: Callable, ifn,
                      q: ConvergenceQuery) -> ConvergenceVerdict:
    clean_cut = int(q.n_max * CLASSICAL_CLEAN_FRACTION)
    dirty_cut = int(q.n_max * CLASSICAL_DIRTY_FRACTION)
    point_verdicts, witnesses, last_exceptional = [], [], {}
    captures = (Capture(1, last=True), Capture(WITNESS_CAP, dirty_cut + 1))
    lasts, tails = _union(fs, ifn, q, fs.domain_grid, [f], captures=captures).kept
    for x, last, tail in zip(fs.domain_grid, lasts, tails):
        key, k_last = float(x), int(last[-1])
        last_exceptional[key] = k_last
        point_verdicts.append("converges" if k_last <= clean_cut else
                              "fails" if k_last > dirty_cut else "inconclusive")
        if point_verdicts[-1] == "fails":
            witnesses += [(int(k), key) for k in tail[tail > 0][:WITNESS_CAP - len(witnesses)]]
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
    def pool(union, groups) -> list:
        kept = union(groups, [q.n_max], captures=(Capture(ANCHOR_POOL, misses=True),)).kept[0]
        return [row[row > 0].tolist() for row in kept]

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
    counts = _union(fs, ifn_target, q, fs.domain_grid, [f], stages, split=True).counts()
    for c_mu, c_nu, joint in counts.reshape(-1, 3, counts.shape[-1]):
        separate = conj(density(c_mu, "limit-zero"), density(c_nu, "limit-zero"))
        rows.append((density(joint, "limit-zero"), separate, density(width - joint, "limit-one"),
                     conj(density(width - c_mu, "limit-one"), density(width - c_nu, "limit-one")),
                     separate))
    if any(v is None for row in rows for v in row):
        return False
    return len({all(stmt) for stmt in zip(*rows)}) == 1
