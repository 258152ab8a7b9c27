"""Graded norms on real vectors: membership/non-membership pairs.

An intuitionistic fuzzy norm assigns each vector x and each time t > 0 a
membership degree mu(x, t) and a non-membership degree nu(x, t).  Larger t
means a looser yardstick: mu increases toward 1 and nu decreases toward 0.
The pair must satisfy thirteen axioms tying it to the chosen t-norm and
t-conorm; ``certify_ifn`` samples all of them.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .algebra import (PROBE_ERRORS, AxiomReport, DomainError, UnitIntervalOp, _report, agrees,
                      check_choice, check_level, check_time, vectorize_scalar)

# Probe times for the t -> infinity / t -> 0 limit axioms.
LIMIT_T_LARGE = 1e9
LIMIT_T_SMALL = 1e-9
LIMIT_TOL = 1e-6

# Reported violation when a strict inequality is attained with equality
# (e.g. mu hits 0, or mu(x, t) = 1 for a nonzero x).  Any value comfortably
# above every sensible tolerance works; the magnitude carries no meaning.
STRICT_HIT = 1.0

# Nonzero scalars used to sample the scaling axiom.
SCALING_FACTORS = (-2.0, -0.5, 0.5, 3.0)

# Allowed variation of mu/nu between adjacent sample times, measured relative
# to the step ratio (|delta| * t_lo / delta_t).  The standard construction has
# modulus <= 1/4; a jump in t makes the modulus blow up as the grid refines.
TIME_CONTINUITY_SLACK = 4.0

# Guard band of ``IFNorm.exceptional``'s boundary comparisons: a gap of exactly
# epsilon*t/(1-epsilon) must be exceptional despite the rounding of mu and nu.
GUARD = 1e-12

# Band around the radius of ``IFNorm.exceptional``, in units of
# t/(1-epsilon)**2, where the norm test defers to mu and nu: rounding moves
# their boundary by a few 2**-53 units.
RADIUS_SLACK = 2.0 ** -40

# The margin of ``IFNorm.exceptional_batch``'s bound, relative to T_0 + a_n + radius, and of
# ``clears_band``'s, relative to the band and the centre's norm: far above the rounding of a
# length.  And the radii they serve (there squares neither overflow nor underflow).
BOUND_MARGIN, BOUND_RADII = 2.0 ** -30, (2.0 ** -500, 2.0 ** 500)


def as_vector(x, dim: int | None = None) -> np.ndarray:
    """Coerce to a finite 1-D float vector; scalars become 1-vectors."""
    arr = np.atleast_1d(np.asarray(x, dtype=float))
    if arr.ndim != 1:
        raise DomainError(f"expected a 1-D vector, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise DomainError(f"vector has non-finite coordinates: {x!r}")
    if dim is not None and arr.shape[0] != dim:
        raise DomainError(f"expected dimension {dim}, got {arr.shape[0]}")
    return arr


def abs_norm(v) -> np.ndarray:
    """|x| on 1-dimensional vectors; broadcasts over leading axes."""
    arr = np.asarray(v, dtype=float)
    return np.abs(arr[..., 0])


def euclidean_norm(v) -> np.ndarray:
    """Euclidean length along the last axis; broadcasts over leading axes."""
    arr = np.asarray(v, dtype=float)
    return np.sqrt(np.sum(arr * arr, axis=-1))


_NORMS = {"abs": abs_norm, "euclidean": euclidean_norm}
NORM_IDS = tuple(_NORMS)
SUBADDITIVE_NORMS = (abs_norm, euclidean_norm)  # taken to obey the triangle inequality


def builtin_norm(name: str) -> Callable:
    check_choice("norm", name, NORM_IDS)
    return _NORMS[name]


@dataclass(frozen=True)
class IFNorm:
    """Membership/non-membership functionals with their aggregation ops.

    ``mu(x, t)`` and ``nu(x, t)`` map an (n, d) list of vectors ``x`` and a
    time ``t``, a number or one value per vector, to n degrees in [0, 1];
    ``norm(x)`` maps the list to n lengths.  That is the one form the library
    calls them in (``_eval`` lays any batch out so) and the one form
    construction probes.  A callable taking one vector and one float time is
    accepted too: if a functional does not answer the probe list as its
    elements, construction stores its ``vectorize_scalar`` form instead.

    ``norm``, when set, says that mu and nu are the standard construction
    over it: mu = t/(t + norm(x)) and nu = norm(x)/(t + norm(x)).  It is
    probed like mu and nu, and kept only when mu and nu ``agree`` with that
    construction on the probe vectors and times; ``exceptional`` then
    answers by the norm.  ``standard_ifn`` sets it.  Only ``abs_norm`` and
    ``euclidean_norm`` are taken as subadditive (see ``exceptional_batch``).
    """

    mu: Callable
    nu: Callable
    tnorm: UnitIntervalOp
    tconorm: UnitIntervalOp
    norm: Callable | None = None

    def __post_init__(self):
        vectors, times = np.array([[0.5], [2.0]]), np.array([1.0, 3.0])  # two 1-vectors
        for name, probe, signature in (("mu", (vectors, times), "(d),()->()"),
                                       ("nu", (vectors, times), "(d),()->()"),
                                       ("norm", (vectors,), "(d)->()")):
            fn = getattr(self, name)
            if fn is not None:
                object.__setattr__(self, name, vectorize_scalar(fn, *probe, signature=signature))
        if self.norm is not None:  # kept for the standard construction over it only
            try:
                r = self.norm(vectors)
                keep = (agrees(np.asarray(self.mu(vectors, times)), times / (times + r))
                        and agrees(np.asarray(self.nu(vectors, times)), r / (times + r)))
            except PROBE_ERRORS:
                keep = False
            object.__setattr__(self, "norm", self.norm if keep else None)

    def _eval(self, name: str, x, t=None) -> np.ndarray:
        """``mu``, ``nu`` (at the times ``t``) or ``norm`` of the vectors ``x``, coordinates last,
        shaped as the batch of ``x`` and ``t`` broadcast together: one positional call on the
        batch as an (n, d) list, with ``t`` a number or one value per vector."""
        x = np.asarray(x, dtype=float)
        if t is not None and np.ndim(t):
            batch = np.broadcast_shapes(x.shape[:-1], np.shape(t))
            x, t = np.broadcast_to(x, batch + x.shape[-1:]), np.broadcast_to(t, batch).ravel()
        args = (x.reshape(-1, x.shape[-1]),) + (() if t is None else (t,))
        return np.asarray(getattr(self, name)(*args)).reshape(x.shape[:-1])

    def in_ball(self, d, radius, t) -> np.ndarray:
        """Whether the vectors ``d`` (coordinates last) lie in the open ball B(0, radius, t):
        mu(d, t) > 1 - radius and nu(d, t) < radius, ``radius`` broadcasting against the batch."""
        return (self._eval("mu", d, t) > 1.0 - radius) & (self._eval("nu", d, t) < radius)

    def exceptional(self, d: np.ndarray, epsilon: float, t: float, *, split: bool = False,
                    union: bool = False) -> np.ndarray:
        """Whether mu(d, t) <= 1 - epsilon + GUARD or nu(d, t) >= epsilon - GUARD.

        ``d`` holds vectors, coordinates last; the answer has its batch axes, or with ``union``
        all but the first, ORed over it (the points of a block).  ``split`` stacks the mu test
        and the nu test, always from mu and nu.  Otherwise a space with a ``norm`` answers by
        it: for the standard construction both tests say norm(d) >= t(epsilon - GUARD)/(1 -
        epsilon + GUARD), and a union tests the largest norm along the first axis once.
        Rounding moves the mu/nu boundary off that radius by a few ulps, so columns whose norm
        falls within the RADIUS_SLACK band of it take mu and nu on their points that reach the
        band.  GUARD always applies, so a difference exactly at the boundary is exceptional.
        """
        if self.norm is None or split:
            tests = np.stack([self._eval("mu", d, t) <= 1.0 - epsilon + GUARD,
                              self._eval("nu", d, t) >= epsilon - GUARD])
            tests = tests.any(axis=1) if union else tests
            return tests if split else tests.any(axis=0)
        batch = d.shape[:-1]
        return self._by_norm(d.reshape(-1, d.shape[-1]), batch[0] if union else 1, epsilon,
                             t)[0].reshape(batch[1:] if union else batch)

    @staticmethod
    def _band(epsilon: float, t: float) -> tuple:
        """The radius of the norm test and the RADIUS_SLACK band around it."""
        return (t * (epsilon - GUARD) / (1.0 - epsilon + GUARD),
                RADIUS_SLACK * t / (1.0 - epsilon + GUARD) ** 2)

    def _by_norm(self, d: np.ndarray, points: int, epsilon: float, t: float):
        """Per column of the flat vectors ``d`` as (points, columns): test, top, radius, slack."""
        r = self._eval("norm", d).reshape(points, -1)
        radius, slack = self._band(epsilon, t)
        top = r[0] if points == 1 else r.max(axis=0)  # any(r >= b) == (max r >= b)
        out = top >= radius + slack
        near = (top >= radius - slack) ^ out
        if near.any():
            i, j = np.nonzero((r >= radius - slack) & near)
            hit = self.exceptional(d[i * r.shape[1] + j], epsilon, t, split=True)
            out[j[hit.any(axis=0)]] = True
        return out, top, radius, slack

    def exceptional_batch(self, vals: np.ndarray, centres: np.ndarray, epsilon: float, t: float,
                          buf: np.ndarray, *, split: bool = False, union: bool = True,
                          known: np.ndarray | None = None) -> np.ndarray:
        """Per centre, ``exceptional(vals - centre, epsilon, t, split=split, union=union)``.

        ``vals`` is (points, indices, coordinates), ``centres`` (centres, points, 1,
        coordinates), ``buf`` flat scratch for ``vals``.  Without ``union`` each point answers
        on its own, as (centres, points, indices).  ``known``, with ``union`` and without
        ``split``, marks (centre, index) pairs already found exceptional: they answer True
        untested.  Over SUBADDITIVE_NORMS on several points, with ``union`` and without
        ``split``, only the first centre is tested on the block: a later one's top norm lies
        within T_0 -+ a_n (the first's, and that of their difference), which decides an index
        outside the RADIUS_SLACK band widened by BOUND_MARGIN (or by inf outside BOUND_RADII;
        inf and nan decide nothing).  The rest of the pairs, known ones aside, are gathered as
        many as ``buf`` holds at a time.  With ``split`` each centre answers three rows: mu,
        nu and their union."""
        (points, m, dim), diffs = vals.shape, buf[:vals.size].reshape(vals.shape)
        # on one point the gather of open pairs costs more than each centre's direct test: with
        # the bound, pointwise Cauchy sin(k) * x at 3e5 x 101 took 5.7-6.4 s, not 2.7-3.6 s, in
        # process on a 2-core Xeon
        direct = split or self.norm not in SUBADDITIVE_NORMS or len(centres) < 2 or points < 2
        if not union:  # every centre in one call: vals - centre for all of them is a block
            out = self.exceptional(vals[None] - centres, epsilon, t, split=split)
            out = np.moveaxis(out, 0, 1) if split else out  # (centres, mu and nu, ...)
        elif direct:
            out = np.stack([self.exceptional(np.subtract(vals, c, out=diffs), epsilon, t,
                                             split=split, union=True) for c in centres])
        if direct or not union:
            if split:  # and the row "mu or nu"
                return np.concatenate([out, out.any(axis=1, keepdims=True)], axis=1)
            return out if known is None else out | known
        first, top, radius, slack = self._by_norm(
            np.subtract(vals, centres[0], out=diffs).reshape(-1, dim), points, epsilon, t)
        shift = self._eval("norm", centres[1:] - centres[0]).max(axis=(1, 2))[:, None]  # a_n
        margin = (BOUND_MARGIN * (top + shift + radius)
                  if BOUND_RADII[0] <= radius <= BOUND_RADII[1] else np.inf)
        out = np.vstack([first, top - shift - margin >= radius + slack])
        if known is not None:
            out |= known
        n, k = np.nonzero(~out[1:] & ~(top + shift + margin < radius - slack))
        chunk = buf.size // (points * dim)  # pairs per gather
        for a in range(0, n.size, chunk):
            ns, ks = n[a:a + chunk], k[a:a + chunk]
            g = np.take(vals, ks, axis=1, mode="clip",  # "raise" would copy through a buffer
                        out=buf[:points * ks.size * dim].reshape(points, -1, dim))
            g -= centres[1:, :, 0][ns].swapaxes(0, 1)
            out[1 + ns, ks] = self._by_norm(g.reshape(-1, dim), points, epsilon, t)[0]
        return out

    def clears_band(self, vals: np.ndarray, centres: np.ndarray, epsilon: float,
                    t: float) -> np.ndarray:
        """(centres, indices): whether each row of ``vals`` is exceptional against each centre.

        ``vals`` (indices, coordinates) and ``centres`` (centres, coordinates) are taken at
        one point.  True says norm(val - centre) reaches (radius + slack)(1 + BOUND_MARGIN)
        plus BOUND_MARGIN times the centre's norm: past the RADIUS_SLACK band by more than
        another evaluation of the same terms could move it, so any union over points that
        holds the point holds the pair.  False decides nothing, and nothing is decided for
        a radius outside BOUND_RADII.

        This assumes the ``vals`` of a one-point call differ from a grid call's by less
        than BOUND_MARGIN times (the centre's norm + radius + slack).  An elementwise
        formula differs by a few ulps of its terms at most, and a term near the bound is
        about that large; nothing checks it for a sequence whose evaluation cancels badly
        or depends on how many points it is given."""
        radius, slack = self._band(epsilon, t)
        bound = (radius + slack) * (1.0 + BOUND_MARGIN) + BOUND_MARGIN * self._eval("norm", centres)
        if not BOUND_RADII[0] <= radius <= BOUND_RADII[1]:
            bound = np.full_like(bound, np.inf)
        return self._eval("norm", vals[None] - centres[:, None]) >= bound[:, None]


def standard_ifn(norm: Callable, tnorm: UnitIntervalOp, tconorm: UnitIntervalOp) -> IFNorm:
    """The standard construction mu = t / (t + |x|), nu = |x| / (t + |x|).

    ``norm`` maps vectors (last axis = coordinates) to lengths.  The returned
    functionals broadcast over batches of vectors and over array times.
    """

    def lengths(x, t) -> tuple:  # the times are checked first
        t = check_time(t)
        return norm(np.atleast_1d(np.asarray(x, dtype=float))), t

    def mu(x, t):
        r, t = lengths(x, t)
        return t / (t + r)

    def nu(x, t):
        r, t = lengths(x, t)
        return r / (t + r)

    return IFNorm(mu=mu, nu=nu, tnorm=tnorm, tconorm=tconorm, norm=norm)


@dataclass(frozen=True)
class OpenBall:
    """Open ball B(center, radius, time) in the graded sense.

    y is inside when mu(center - y, time) > 1 - radius and
    nu(center - y, time) < radius, both strict.
    """

    center: np.ndarray
    radius: float
    time: float

    def __post_init__(self):
        object.__setattr__(self, "center", as_vector(self.center))
        check_level(self.radius, self.time, "radius")


def ball_contains(ball: OpenBall, ifn: IFNorm, y) -> bool:
    """Strict membership test for ``y`` in ``ball`` under ``ifn``."""
    diff = ball.center - as_vector(y, dim=ball.center.shape[0])
    return bool(ifn.in_ball(diff, ball.radius, ball.time))


def default_samples(dim: int, count: int = 50, seed: int = 20240) -> list[np.ndarray]:
    """Deterministic sample vectors with lengths in a moderate band.

    Lengths are kept within roughly [5e-2, 3] so the limit axioms are
    decidable at the probe times: at t = 1e9 or 1e-9 the standard mu/nu are
    then within 1e-6 of their limits.
    """
    v = np.random.default_rng(seed).uniform(-3.0, 3.0, size=(count, dim))
    short = np.sqrt(np.sum(v * v, axis=1)) < 0.05
    v[short] += 0.1 * np.sign(v[short] + 1e-3)
    return list(v)


def default_times(count: int = 20, lo: float = 0.1, hi: float = 10.0) -> np.ndarray:
    """Log-spaced positive times."""
    if lo <= 0 or hi <= lo:
        raise DomainError("need 0 < lo < hi")
    return np.geomspace(lo, hi, count)


def certify_ifn(
    ifn: IFNorm,
    sample_vectors: Sequence,
    time_grid,
    tolerance: float = 1e-12,
    limit_tolerance: float = LIMIT_TOL,
) -> list[AxiomReport]:
    """Sample all thirteen graded-norm axioms on the given vectors and times.

    One report per axiom, for mu and nu separately:

    * sum bound mu + nu <= 1;
    * mu > 0 and nu < 1 (strict);
    * mu = 1 exactly on the zero vector, nu = 0 exactly on the zero vector
      (checked both ways: equality at 0, strict inequality elsewhere);
    * scaling mu(a x, t) = mu(x, t/|a|) and likewise for nu, a != 0;
    * triangle laws mu(x,t) * mu(y,s) <= mu(x+y, t+s) under the t-norm and
      nu(x,t) + nu(y,s) >= nu(x+y, t+s) under the t-conorm;
    * sampled continuity in t;
    * limits as t -> infinity (mu -> 1, nu -> 0 for every x) and t -> 0
      (mu -> 0, nu -> 1 for every nonzero x; the zero vector is pinned to
      mu = 1, nu = 0 at all times, so it is excluded from the t -> 0 probes).

    Strict-inequality axioms report the sentinel violation ``STRICT_HIT``
    when the forbidden boundary value is attained exactly.  The samples must
    be finite vectors of one dimension, and every time positive and finite
    (``DomainError`` otherwise); repeated times are dropped.
    """
    vectors = list(sample_vectors)
    if not vectors:
        raise DomainError("sample_vectors must be non-empty")
    dim = as_vector(vectors[0]).shape[0]
    vectors = np.stack([as_vector(v, dim) for v in vectors])  # (V, d)
    times = np.sort(np.asarray(time_grid, dtype=float), axis=None)
    if times.size == 0:
        raise DomainError("time_grid must be non-empty")
    times = times[np.append(True, times[1:] != times[:-1])]  # repeats dropped
    if not 0.0 < times[0] <= times[-1] < np.inf:  # a nan sorts last
        raise DomainError("time_grid must be positive and finite")

    zero = np.zeros(dim)
    is_nonzero = np.any(vectors != 0.0, axis=1)
    mu_tab = ifn._eval("mu", vectors[:, None], times)  # (V, T)
    nu_tab = ifn._eval("nu", vectors[:, None], times)

    def argmax(arr) -> tuple:
        return tuple(int(k) for k in np.unravel_index(np.argmax(arr), arr.shape))

    def worst_of(gap) -> tuple:
        """``gap``'s first largest entry above 0, or its first nan (a nan stays nan, so its
        report fails), and the entry's index; else 0.0 and the first index."""
        at = argmax(gap)
        return (0.0, (0,) * gap.ndim) if gap[at] <= 0.0 else (float(gap[at]), at)

    excess = mu_tab + nu_tab - 1.0
    i, j = argmax(excess)
    reports = [_report("mu-nu-sum-bound", max(float(excess[i, j]), 0.0),
                       (tuple(vectors[i]), float(times[j])), tolerance)]

    t_pair = times[:, None] + times[None, :]  # (T, T) combined times
    step_ratio = times[:-1] / (times[1:] - times[:-1])
    factors = np.array(SCALING_FACTORS)[:, None, None]
    # the limit probes: t -> infinity on every sample, t -> 0 off the pinned zero vector
    limit_x = np.concatenate([vectors, vectors[is_nonzero]])
    limit_t = np.where(np.arange(len(limit_x)) < len(vectors), LIMIT_T_LARGE, LIMIT_T_SMALL)

    # One row per degree: name, (V, T) table, sign (+1 where larger is better),
    # aggregating op, limit as t -> infinity (also the value on the zero
    # vector), limit as t -> 0 (also the strict bound), strict-axiom name.
    # A value on the forbidden side of a strict bound b reports
    # STRICT_HIT - s * value + s * b, with s = sign for the t -> 0 bound and
    # s = -sign for the zero-vector value.  Keep the left-to-right grouping:
    # (STRICT_HIT + nu) - 1 and STRICT_HIT + (nu - 1) can differ in the last bit.
    degrees = (("mu", mu_tab, 1.0, ifn.tnorm.fn, 1.0, 0.0, "positive"),
               ("nu", nu_tab, -1.0, ifn.tconorm.fn, 0.0, 1.0, "below-one"))
    for name, tab, sign, combine, large, small, strict in degrees:
        # Strict bound: sign * f > sign * small everywhere.
        worst, witness = 0.0, (tuple(vectors[0]), float(times[0]))
        i, j = argmax(-sign * tab)
        if sign * tab[i, j] <= sign * small:
            worst = STRICT_HIT - sign * float(tab[i, j]) + sign * small
            witness = (tuple(vectors[i]), float(times[j]))
        reports.append(_report(f"{name}-{strict}", worst, witness, tolerance))

        # Zero-vector characterisation: f = large at 0, strictly short of it elsewhere.
        # The witness is the worst of the zero-vector gaps and the nonzero hits.
        at_zero = np.abs(ifn._eval(name, zero, times) - large)
        j = int(np.argmax(at_zero))
        worst, witness = float(at_zero[j]), (tuple(zero), float(times[j]))
        hits = np.where(is_nonzero[:, None] & (sign * tab >= sign * large),
                        STRICT_HIT + sign * tab - sign * large, -np.inf)
        i, j = argmax(hits)
        if hits[i, j] > worst:
            worst, witness = float(hits[i, j]), (tuple(vectors[i]), float(times[j]))
        reports.append(_report(f"{name}-zero-characterization", worst, witness, tolerance))

        # Scaling: f(a x, t) = f(x, t / |a|), as (factor, vector, time).
        worst, (a, i, j) = worst_of(np.abs(
            ifn._eval(name, factors[..., None] * vectors[:, None], times)
            - ifn._eval(name, vectors[:, None], times / np.abs(factors))))
        witness = (tuple(vectors[i]), SCALING_FACTORS[a], float(times[j]))
        reports.append(_report(f"{name}-scaling", worst, witness, tolerance))

        # Triangle law: sign * (combine(f(x, t), f(y, s)) - f(x + y, t + s)) <= 0 on the
        # pairs of samples (x, y), y from x on: a (y, t, s) table per x.
        tops = [worst_of(sign * (combine(tab[i][:, None], tab[i:, None, :]) - ifn._eval(
                    name, (vectors[i] + vectors[i:])[:, None, None], t_pair)))
                for i in range(len(vectors))]
        worst, (i,) = worst_of(np.array([top for top, _ in tops]))
        j, a, b = tops[i][1]
        witness = (tuple(vectors[i]), tuple(vectors[i + j]), float(times[a]), float(times[b]))
        reports.append(_report(f"{name}-triangle", worst, witness, tolerance))

        # Continuity in t, relative to the step ratio.
        worst, witness = 0.0, (tuple(vectors[0]), float(times[0]))
        if times.size >= 2:
            modulus = np.abs(tab[:, 1:] - tab[:, :-1]) * step_ratio
            i, j = argmax(modulus)
            worst = max(float(modulus[i, j]) - TIME_CONTINUITY_SLACK, 0.0)
            witness = (tuple(vectors[i]), float(times[j]))
        reports.append(_report(f"{name}-time-continuity", worst, witness, tolerance))

        # Limits: mu -> 1, nu -> 0 as t -> infinity; mu -> 0, nu -> 1 as t -> 0.
        worst, (i,) = worst_of(np.abs(ifn._eval(name, limit_x, limit_t)
                                      - np.where(limit_t == LIMIT_T_LARGE, large, small)))
        witness = (tuple(limit_x[i]), float(limit_t[i]))
        reports.append(_report(f"{name}-limits", worst, witness, limit_tolerance))

    return reports
