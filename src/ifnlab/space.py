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
                      vectorize_scalar)

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
    try:
        return _NORMS[name]
    except KeyError:
        raise DomainError(f"unknown norm {name!r}; choose from {NORM_IDS}") from None


@dataclass(frozen=True)
class IFNorm:
    """Membership/non-membership functionals with their aggregation ops.

    ``mu(x, t)`` and ``nu(x, t)`` map a batch of vectors (coordinates on the
    last axis of ``x``) and times broadcasting against the batch axes to
    degrees in [0, 1], as the built-in functionals do.  A callable taking one
    vector and one float time is accepted too: construction probes each
    functional once and, if it does not broadcast, stores its
    ``vectorize_scalar`` form instead.

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

    def exceptional(self, d: np.ndarray, epsilon: float, t: float, guard: float = 0.0,
                    split: bool = False, union: bool = False) -> np.ndarray:
        """Whether mu(d, t) <= 1 - epsilon + guard or nu(d, t) >= epsilon - guard.

        ``d`` holds vectors, coordinates last; the answer has its batch axes,
        or with ``union`` all but the first, ORed over it (the points of a
        block).  The functionals see one flat list of vectors.  ``split``
        stacks the mu test and the nu test, always from mu and nu.  Otherwise
        a space with a ``norm`` answers by it: for the standard construction
        both tests say norm(d) >= t(epsilon - guard)/(1 - epsilon + guard),
        and a union tests the largest norm along the first axis once.
        Rounding moves the mu/nu boundary off that radius by a few ulps, so
        columns whose norm falls within the RADIUS_SLACK band of it take mu
        and nu on their points that reach the band.
        """
        batch, d = d.shape[:-1], d.reshape(-1, d.shape[-1])
        if self.norm is None or split:
            mu, nu = self.mu(d, t).reshape(batch), self.nu(d, t).reshape(batch)
            tests = np.stack([mu <= 1.0 - epsilon + guard, nu >= epsilon - guard])
            tests = tests.any(axis=1) if union else tests
            return tests if split else tests.any(axis=0)
        return self._by_norm(d, batch[0] if union else 1, epsilon, t, guard)[0].reshape(
            batch[1:] if union else batch)

    @staticmethod
    def _band(epsilon: float, t: float, guard: float) -> tuple:
        """The radius of the norm test and the RADIUS_SLACK band around it."""
        return (t * (epsilon - guard) / (1.0 - epsilon + guard),
                RADIUS_SLACK * t / (1.0 - epsilon + guard) ** 2)

    def _by_norm(self, d: np.ndarray, points: int, epsilon: float, t: float, guard: float):
        """Per column of the flat vectors ``d`` as (points, columns): test, top, radius, slack."""
        r = self.norm(d).reshape(points, -1)
        radius, slack = self._band(epsilon, t, guard)
        top = r[0] if points == 1 else r.max(axis=0)  # any(r >= b) == (max r >= b)
        out = top >= radius + slack
        near = (top >= radius - slack) ^ out
        if near.any():
            i, j = np.nonzero((r >= radius - slack) & near)
            hit = self.exceptional(d[i * r.shape[1] + j], epsilon, t, guard, split=True)
            out[j[hit.any(axis=0)]] = True
        return out, top, radius, slack

    def exceptional_batch(self, vals: np.ndarray, centres: np.ndarray, epsilon: float, t: float,
                          guard: float, split: bool, buf: np.ndarray,
                          known: np.ndarray | None = None) -> np.ndarray:
        """Per centre, ``exceptional(vals - centre, epsilon, t, guard, split, union=True)``.

        ``vals`` is (points, indices, coordinates), ``centres`` (centres, points, 1,
        coordinates), ``buf`` flat scratch for ``vals``.  ``known``, without ``split``, marks
        (centre, index) pairs already found exceptional: they answer True untested.  Over
        SUBADDITIVE_NORMS on several points, without ``split``, only the first centre is
        tested on the block: a later one's top norm lies within T_0 -+ a_n (the first's, and
        that of their difference), which decides an index outside the RADIUS_SLACK band
        widened by BOUND_MARGIN (or by inf outside BOUND_RADII; inf and nan decide nothing).
        The rest of the pairs, known ones aside, are gathered as many as ``buf`` holds at a
        time."""
        (points, m, dim), diffs = vals.shape, buf[:vals.size].reshape(vals.shape)
        if split or self.norm not in SUBADDITIVE_NORMS or len(centres) < 2 or points < 2:
            out = np.stack([self.exceptional(np.subtract(vals, c, out=diffs), epsilon, t, guard,
                                             split, union=True) for c in centres])
            return out if known is None else out | known
        first, top, radius, slack = self._by_norm(
            np.subtract(vals, centres[0], out=diffs).reshape(-1, dim), points, epsilon, t, guard)
        shift = self.norm(centres[1:] - centres[0]).max(axis=(1, 2))[:, None]  # a_n
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
            out[1 + ns, ks] = self._by_norm(g.reshape(-1, dim), points, epsilon, t, guard)[0]
        return out

    def clears_band(self, vals: np.ndarray, centres: np.ndarray, epsilon: float, t: float,
                    guard: float) -> np.ndarray:
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
        radius, slack = self._band(epsilon, t, guard)
        bound = (radius + slack) * (1.0 + BOUND_MARGIN) + BOUND_MARGIN * self.norm(centres)
        if not BOUND_RADII[0] <= radius <= BOUND_RADII[1]:
            bound = np.full_like(bound, np.inf)
        return self.norm(vals[None] - centres[:, None]) >= bound[:, None]


def _check_time(t) -> None:
    times = np.asarray(t, dtype=float)
    if not np.all((0.0 < times) & (times < np.inf)):
        raise DomainError(f"time must be positive and finite, got {t!r}")


def standard_ifn(norm: Callable, tnorm: UnitIntervalOp, tconorm: UnitIntervalOp) -> IFNorm:
    """The standard construction mu = t / (t + |x|), nu = |x| / (t + |x|).

    ``norm`` maps vectors (last axis = coordinates) to lengths.  The returned
    functionals broadcast over batches of vectors and over array times.
    """

    def mu(x, t):
        _check_time(t)
        r = norm(np.atleast_1d(np.asarray(x, dtype=float)))
        t = np.asarray(t, dtype=float)
        return t / (t + r)

    def nu(x, t):
        _check_time(t)
        r = norm(np.atleast_1d(np.asarray(x, dtype=float)))
        t = np.asarray(t, dtype=float)
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
        if not 0.0 < self.radius < 1.0:
            raise DomainError(f"radius must lie in (0, 1), got {self.radius}")
        if not 0.0 < self.time < np.inf:
            raise DomainError(f"time must be positive and finite, got {self.time}")


def ball_contains(ball: OpenBall, ifn: IFNorm, y) -> bool:
    """Strict membership test for ``y`` in ``ball`` under ``ifn``."""
    diff = ball.center - as_vector(y, dim=ball.center.shape[0])
    mu = float(ifn.mu(diff, ball.time))
    nu = float(ifn.nu(diff, ball.time))
    return mu > 1.0 - ball.radius and nu < ball.radius


def default_samples(dim: int, count: int = 50, seed: int = 20240) -> list[np.ndarray]:
    """Deterministic sample vectors with lengths in a moderate band.

    Lengths are kept within roughly [5e-2, 3] so the limit axioms are
    decidable at the probe times: at t = 1e9 or 1e-9 the standard mu/nu are
    then within 1e-6 of their limits.
    """
    rng = np.random.default_rng(seed)
    samples = []
    for _ in range(count):
        v = rng.uniform(-3.0, 3.0, size=dim)
        length = float(np.sqrt(np.sum(v * v)))
        if length < 0.05:
            v = v + 0.1 * np.sign(v + 1e-3)
        samples.append(v)
    return samples


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
    when the forbidden boundary value is attained exactly.  Every time must
    be positive and finite (``DomainError`` otherwise); repeats are dropped.
    """
    vectors = [as_vector(v) for v in sample_vectors]
    if not vectors:
        raise DomainError("sample_vectors must be non-empty")
    dim = vectors[0].shape[0]
    times = np.sort(np.asarray(time_grid, dtype=float), axis=None)
    if times.size == 0:
        raise DomainError("time_grid must be non-empty")
    times = times[np.append(True, times[1:] != times[:-1])]  # repeats dropped
    if not 0.0 < times[0] <= times[-1] < np.inf:  # a nan sorts last
        raise DomainError("time_grid must be positive and finite")

    zero = np.zeros(dim)
    stacked = np.stack(vectors)[:, None, :]
    is_nonzero = np.any(stacked[:, 0] != 0.0, axis=1)
    nonzero = [v for v, keep in zip(vectors, is_nonzero) if keep]

    mu_tab = ifn.mu(stacked, times)  # (V, T)
    nu_tab = ifn.nu(stacked, times)

    def argmax2(arr):
        i, j = np.unravel_index(np.argmax(arr), arr.shape)
        return int(i), int(j)

    excess = mu_tab + nu_tab - 1.0
    i, j = argmax2(excess)
    reports = [_report("mu-nu-sum-bound", max(float(excess[i, j]), 0.0),
                       (tuple(vectors[i]), float(times[j])), tolerance)]

    t_pair = times[:, None] + times[None, :]  # (T, T) combined times
    step_ratio = times[:-1] / (times[1:] - times[:-1])

    # One row per degree: name, functional, (V, T) table, sign (+1 where larger
    # is better), aggregating op, limit as t -> infinity (also the value on the
    # zero vector), limit as t -> 0 (also the strict bound), strict-axiom name.
    # A value on the forbidden side of a strict bound b reports
    # STRICT_HIT - s * value + s * b, with s = sign for the t -> 0 bound and
    # s = -sign for the zero-vector value.  Keep the left-to-right grouping:
    # (STRICT_HIT + nu) - 1 and STRICT_HIT + (nu - 1) can differ in the last bit.
    degrees = (("mu", ifn.mu, mu_tab, 1.0, ifn.tnorm.fn, 1.0, 0.0, "positive"),
               ("nu", ifn.nu, nu_tab, -1.0, ifn.tconorm.fn, 0.0, 1.0, "below-one"))
    for name, fn, tab, sign, combine, large, small, strict in degrees:
        # Strict bound: sign * f > sign * small everywhere.
        worst, witness = 0.0, (tuple(vectors[0]), float(times[0]))
        i, j = argmax2(-sign * tab)
        if sign * tab[i, j] <= sign * small:
            worst = STRICT_HIT - sign * float(tab[i, j]) + sign * small
            witness = (tuple(vectors[i]), float(times[j]))
        reports.append(_report(f"{name}-{strict}", worst, witness, tolerance))

        # Zero-vector characterisation: f = large at 0, strictly short of it elsewhere.
        # The witness is the worst of the zero-vector gaps and the nonzero hits.
        at_zero = np.abs(fn(zero, times) - large)
        j = int(np.argmax(at_zero))
        worst, witness = float(at_zero[j]), (tuple(zero), float(times[j]))
        hits = np.where(is_nonzero[:, None] & (sign * tab >= sign * large),
                        STRICT_HIT + sign * tab - sign * large, -np.inf)
        i, j = argmax2(hits)
        if hits[i, j] > worst:
            worst, witness = float(hits[i, j]), (tuple(vectors[i]), float(times[j]))
        reports.append(_report(f"{name}-zero-characterization", worst, witness, tolerance))

        # Scaling: f(a x, t) = f(x, t / |a|).
        worst, witness = 0.0, (tuple(vectors[0]), SCALING_FACTORS[0], float(times[0]))
        for a in SCALING_FACTORS:
            for v in vectors:
                gap = np.abs(fn(a * v, times) - fn(v, times / abs(a)))
                j = int(np.argmax(gap))
                if gap[j] > worst:
                    worst, witness = float(gap[j]), (tuple(v), a, float(times[j]))
        reports.append(_report(f"{name}-scaling", worst, witness, tolerance))

        # Triangle law: sign * (combine(f(x, t), f(y, s)) - f(x + y, t + s)) <= 0.
        worst = 0.0
        witness = (tuple(vectors[0]), tuple(vectors[0]), float(times[0]), float(times[0]))
        for i in range(len(vectors)):
            for j in range(i, len(vectors)):
                joint = fn(vectors[i] + vectors[j], t_pair)
                gap = sign * (combine(tab[i][:, None], tab[j][None, :]) - joint)
                a, b = np.unravel_index(np.argmax(gap), gap.shape)
                if gap[a, b] > worst:
                    worst = float(gap[a, b])
                    witness = (tuple(vectors[i]), tuple(vectors[j]),
                               float(times[a]), float(times[b]))
        reports.append(_report(f"{name}-triangle", max(worst, 0.0), witness, tolerance))

        # Continuity in t, relative to the step ratio.
        worst, witness = 0.0, (tuple(vectors[0]), float(times[0]))
        if times.size >= 2:
            modulus = np.abs(tab[:, 1:] - tab[:, :-1]) * step_ratio
            i, j = argmax2(modulus)
            worst = max(float(modulus[i, j]) - TIME_CONTINUITY_SLACK, 0.0)
            witness = (tuple(vectors[i]), float(times[j]))
        reports.append(_report(f"{name}-time-continuity", worst, witness, tolerance))

        # Limits; the zero vector is pinned, so it sits out the t -> 0 probes.
        worst, witness = 0.0, (tuple(vectors[0]), LIMIT_T_LARGE)
        for t, target, probes in ((LIMIT_T_LARGE, large, vectors),
                                  (LIMIT_T_SMALL, small, nonzero)):
            for v in probes:
                gap = abs(float(fn(v, t)) - target)
                if gap > worst:
                    worst, witness = gap, (tuple(v), t)
        reports.append(_report(f"{name}-limits", worst, witness, limit_tolerance))

    return reports
