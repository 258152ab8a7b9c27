"""Graded continuity checks: single functions and whole families.

A family {f_k} is equicontinuous at x0 for (epsilon, t) when one level delta
works for every index k: each probe x that falls in the delta-ball around x0
(domain norm) must keep f_k(x) in the epsilon-ball around f_k(x0) (target
norm).  The search runs over a fixed geometric delta grid, so the outcome is
resolution-qualified: a failure either carries a concrete witness (k, x)
violating even the smallest testable delta, or means no delta at this
resolution could be tested at all.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .algebra import DomainError, check_integer, check_level
from .sequences import FunctionSequence
from .space import IFNorm, as_vector

DELTA_GRID = tuple(0.5 ** j for j in range(1, 21))        # 0.5 .. 2^-20
PROBE_RADII = tuple(0.5 ** j for j in range(1, 23))       # 0.5 .. 2^-22


@dataclass(frozen=True)
class ContinuityQuery:
    """Where and how sharply to probe continuity."""

    point: float
    epsilon: float
    time: float
    delta_grid: tuple = DELTA_GRID
    probe_radii: tuple = PROBE_RADII
    domain: tuple = (0.0, 1.0)

    def __post_init__(self):
        check_level(self.epsilon, self.time)
        if not self.delta_grid or any(not 0.0 < d < 1.0 for d in self.delta_grid):
            raise DomainError("delta_grid must be non-empty with values in (0, 1)")
        lo, hi = self.domain
        if not lo <= self.point <= hi:
            raise DomainError(f"point {self.point} outside domain [{lo}, {hi}]")


@dataclass(frozen=True)
class ContinuityResult:
    """holds/continuous with the largest working delta, or a refutation.

    ``witness`` is a (k, x) pair violating the smallest testable delta
    (k = 0 for a single function).  ``exhausted`` marks the distinct failure
    where no delta on the grid captured any probe at all, so nothing could
    be certified or refuted at this resolution.
    """

    holds: bool
    delta: float | None
    witness: tuple | None
    exhausted: bool


def _probe_points(q: ContinuityQuery) -> np.ndarray:
    lo, hi = q.domain
    radii = np.asarray(q.probe_radii, dtype=float)
    pts = np.stack([q.point - radii, q.point + radii], axis=-1).ravel()
    pts = pts[(lo <= pts) & (pts <= hi) & (pts != q.point)]
    if not pts.size:
        raise DomainError("no probe points fall inside the domain")
    return pts


def _modulus_search(gap_ok: np.ndarray, ks: np.ndarray, probes: np.ndarray,
                    ifn_domain: IFNorm, q: ContinuityQuery) -> ContinuityResult:
    """Scan deltas large to small; certify the first that works.

    ``gap_ok[i, j]`` says term ks[i] maps probe j inside the target
    epsilon-ball.  A delta only counts when its ball captures at least one
    probe; certifying from an empty ball would be vacuous.
    """
    deltas = sorted(q.delta_grid, reverse=True)
    balls = ifn_domain.in_ball((q.point - probes)[:, None], np.array(deltas)[:, None], q.time)
    last_ball = None  # the smallest testable delta's ball, once every delta failed
    for delta, in_ball in zip(deltas, balls):
        if not np.any(in_ball):
            continue
        if bool(np.all(gap_ok[:, in_ball])):
            return ContinuityResult(True, delta, None, False)
        last_ball = in_ball
    if last_ball is None:
        return ContinuityResult(False, None, None, True)
    bad = np.argwhere(~gap_ok & last_ball[None, :])
    i, j = bad[0]
    return ContinuityResult(False, None, (int(ks[i]), float(probes[j])), False)


def check_equicontinuity(fs: FunctionSequence, ifn_domain: IFNorm, ifn_target: IFNorm,
                         q: ContinuityQuery, k_max: int = 100) -> ContinuityResult:
    """Search for one delta serving every term f_1 .. f_k_max at q.point."""
    check_integer("k_max", k_max, 1)
    probes = _probe_points(q)
    ks = np.arange(1, k_max + 1)
    vals = fs.terms(ks, np.concatenate([[q.point], probes]))  # (points, k, coord)
    gaps = (vals[1:] - vals[0]).swapaxes(0, 1)  # (k, probe, coord)
    return _modulus_search(ifn_target.in_ball(gaps, q.epsilon, q.time), ks, probes, ifn_domain, q)


def check_limit_continuity(f: Callable, ifn_domain: IFNorm, ifn_target: IFNorm,
                           q: ContinuityQuery) -> ContinuityResult:
    """Same delta search for a single function (witness index reported as 0)."""
    probes = _probe_points(q)
    at_center = np.asarray(f(q.point), dtype=float).reshape(-1)
    gaps = np.stack([np.asarray(f(p), dtype=float).reshape(-1) - at_center for p in probes])
    return _modulus_search(ifn_target.in_ball(gaps, q.epsilon, q.time)[None, :], np.array([0]),
                           probes, ifn_domain, q)


def split_triangle_check(ifn_target: IFNorm, parts: list, time: float) -> tuple[bool, bool]:
    """Check the three-way triangle bounds used to pass continuity to a limit.

    For gaps a, b, c with sum s, verifies

        mu(s, t) >= mu(a, t/3) * mu(b, t/3) * mu(c, t/3)   (t-norm)
        nu(s, t) <= nu(a, t/3) + nu(b, t/3) + nu(c, t/3)   (t-conorm)

    The nu side aggregates with the t-conorm: combining non-membership
    degrees with the t-norm instead would not even bound nu(s, t) for the
    standard construction, so the conorm is the only consistent reading.
    The three gaps must be finite vectors of one dimension (``DomainError``).
    """
    if len(parts) != 3:
        raise DomainError("expected exactly three gap vectors")
    dim = as_vector(parts[0]).shape[0]
    a, b, c = (as_vector(p, dim) for p in parts)
    gaps, times = np.stack([a, b, c, a + b + c]), np.array([time / 3.0] * 3 + [time])
    (*mu_abc, mu_s), (*nu_abc, nu_s) = (ifn_target._eval(name, gaps, times).tolist()
                                        for name in ("mu", "nu"))
    mu_chain = ifn_target.tnorm(ifn_target.tnorm(mu_abc[0], mu_abc[1]), mu_abc[2])
    nu_chain = ifn_target.tconorm(ifn_target.tconorm(nu_abc[0], nu_abc[1]), nu_abc[2])
    return mu_s >= float(mu_chain) - 1e-12, nu_s <= float(nu_chain) + 1e-12
