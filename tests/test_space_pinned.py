"""certify_ifn pinned against the mirrored form it replaced.

``mirrored_certify_ifn`` is the earlier implementation, which wrote the six
per-degree checks once for mu and again for nu with the signs flipped.  The
single loop over the two degrees must return the same report list: same
names and order, and the same ``passed``, ``worst_violation``, ``witness``
and ``tolerance`` down to the last bit (``repr`` is compared too, so a sign
of zero or a float type cannot drift either).
"""
import numpy as np
import pytest

from ifnlab import (IFNorm, TCONORM_IDS, TNORM_IDS, builtin_norm, certify_ifn,
                    default_samples, default_times, standard_ifn, tconorm, tnorm)
from ifnlab.algebra import DomainError, _report
from ifnlab.space import (LIMIT_T_LARGE, LIMIT_T_SMALL, LIMIT_TOL, SCALING_FACTORS,
                          STRICT_HIT, TIME_CONTINUITY_SLACK, as_vector)


def mirrored_certify_ifn(ifn, sample_vectors, time_grid, tolerance=1e-12,
                         limit_tolerance=LIMIT_TOL):
    """The two-halves certify_ifn, kept as the reference.

    Two fixes since: repeated times are dropped, and the zero-vector check
    reports the worst of all its hits, not the last sample's first hit.
    """
    vectors = [as_vector(v) for v in sample_vectors]
    if not vectors:
        raise DomainError("sample_vectors must be non-empty")
    dim = vectors[0].shape[0]
    times = np.unique(np.asarray(time_grid, dtype=float))
    if times.size == 0:
        raise DomainError("time_grid must be non-empty")
    if times[0] <= 0.0:
        raise DomainError("time_grid must be strictly positive")

    zero = np.zeros(dim)
    nonzero = [v for v in vectors if np.any(v != 0.0)]

    stacked = np.stack(vectors)[:, None, :]
    mu_tab = ifn.mu(stacked, times)  # (V, T)
    nu_tab = ifn.nu(stacked, times)

    reports = []

    def argmax2(arr):
        i, j = np.unravel_index(np.argmax(arr), arr.shape)
        return int(i), int(j)

    excess = mu_tab + nu_tab - 1.0
    i, j = argmax2(excess)
    reports.append(_report("mu-nu-sum-bound", max(float(excess[i, j]), 0.0),
                           (tuple(vectors[i]), float(times[j])), tolerance))

    # Strict positivity of mu.
    worst, witness = 0.0, (tuple(vectors[0]), float(times[0]))
    i, j = argmax2(-mu_tab)
    if mu_tab[i, j] <= 0.0:
        worst = STRICT_HIT - float(mu_tab[i, j])
        witness = (tuple(vectors[i]), float(times[j]))
    reports.append(_report("mu-positive", worst, witness, tolerance))

    # Zero-vector characterisation of mu: equality at 0, strictly below 1 elsewhere.
    mu_zero = ifn.mu(zero, times)
    worst = float(np.max(np.abs(mu_zero - 1.0)))
    witness = (tuple(zero), float(times[int(np.argmax(np.abs(mu_zero - 1.0)))]))
    for i, v in enumerate(vectors):
        if not np.any(v != 0.0):
            continue
        for j in np.flatnonzero(mu_tab[i] >= 1.0):
            gap = STRICT_HIT + float(mu_tab[i, j]) - 1.0
            if gap > worst:
                worst, witness = gap, (tuple(v), float(times[j]))
    reports.append(_report("mu-zero-characterization", worst, witness, tolerance))

    def scaling_violation(fn):
        worst, witness = 0.0, (tuple(vectors[0]), SCALING_FACTORS[0], float(times[0]))
        for a in SCALING_FACTORS:
            for v in vectors:
                direct = fn(a * v, times)
                rescaled = fn(v, times / abs(a))
                gap = np.abs(direct - rescaled)
                j = int(np.argmax(gap))
                if gap[j] > worst:
                    worst, witness = float(gap[j]), (tuple(v), a, float(times[j]))
        return worst, witness

    worst, witness = scaling_violation(ifn.mu)
    reports.append(_report("mu-scaling", worst, witness, tolerance))

    t_pair = times[:, None] + times[None, :]  # (T, T) combined times

    def triangle_violation(fn, tab, combine, sign):
        """sign +1 checks combine(f, f) <= f(x+y); sign -1 checks >=."""
        worst = 0.0
        witness = (tuple(vectors[0]), tuple(vectors[0]), float(times[0]), float(times[0]))
        for i in range(len(vectors)):
            for j in range(i, len(vectors)):
                joint = fn(vectors[i] + vectors[j], t_pair)
                lhs = combine(tab[i][:, None], tab[j][None, :])
                gap = sign * (lhs - joint)
                a, b = np.unravel_index(np.argmax(gap), gap.shape)
                if gap[a, b] > worst:
                    worst = float(gap[a, b])
                    witness = (tuple(vectors[i]), tuple(vectors[j]),
                               float(times[a]), float(times[b]))
        return max(worst, 0.0), witness

    worst, witness = triangle_violation(ifn.mu, mu_tab, ifn.tnorm.fn, +1)
    reports.append(_report("mu-triangle", worst, witness, tolerance))

    def time_modulus(tab):
        if times.size < 2:
            return 0.0, (tuple(vectors[0]), float(times[0]))
        dt = times[1:] - times[0:-1]
        modulus = np.abs(tab[:, 1:] - tab[:, :-1]) * (times[:-1] / dt)
        i, j = argmax2(modulus)
        return max(float(modulus[i, j]) - TIME_CONTINUITY_SLACK, 0.0), (
            tuple(vectors[i]), float(times[j]))

    worst, witness = time_modulus(mu_tab)
    reports.append(_report("mu-time-continuity", worst, witness, tolerance))

    def limits_violation(fn, large_target, small_target):
        worst, witness = 0.0, (tuple(vectors[0]), LIMIT_T_LARGE)
        for v in vectors:
            gap = abs(float(fn(v, LIMIT_T_LARGE)) - large_target)
            if gap > worst:
                worst, witness = gap, (tuple(v), LIMIT_T_LARGE)
        for v in nonzero:
            gap = abs(float(fn(v, LIMIT_T_SMALL)) - small_target)
            if gap > worst:
                worst, witness = gap, (tuple(v), LIMIT_T_SMALL)
        return worst, witness

    worst, witness = limits_violation(ifn.mu, 1.0, 0.0)
    reports.append(_report("mu-limits", worst, witness, limit_tolerance))

    # Now the nu side.
    worst, witness = 0.0, (tuple(vectors[0]), float(times[0]))
    i, j = argmax2(nu_tab)
    if nu_tab[i, j] >= 1.0:
        worst = STRICT_HIT + float(nu_tab[i, j]) - 1.0
        witness = (tuple(vectors[i]), float(times[j]))
    reports.append(_report("nu-below-one", worst, witness, tolerance))

    nu_zero = ifn.nu(zero, times)
    worst = float(np.max(np.abs(nu_zero)))
    witness = (tuple(zero), float(times[int(np.argmax(np.abs(nu_zero)))]))
    for i, v in enumerate(vectors):
        if not np.any(v != 0.0):
            continue
        for j in np.flatnonzero(nu_tab[i] <= 0.0):
            gap = STRICT_HIT - float(nu_tab[i, j])
            if gap > worst:
                worst, witness = gap, (tuple(v), float(times[j]))
    reports.append(_report("nu-zero-characterization", worst, witness, tolerance))

    worst, witness = scaling_violation(ifn.nu)
    reports.append(_report("nu-scaling", worst, witness, tolerance))

    worst, witness = triangle_violation(ifn.nu, nu_tab, ifn.tconorm.fn, -1)
    reports.append(_report("nu-triangle", worst, witness, tolerance))

    worst, witness = time_modulus(nu_tab)
    reports.append(_report("nu-time-continuity", worst, witness, tolerance))

    worst, witness = limits_violation(ifn.nu, 0.0, 1.0)
    reports.append(_report("nu-limits", worst, witness, limit_tolerance))

    return reports


def assert_same(new, ref):
    assert [r.axiom for r in new] == [r.axiom for r in ref]
    assert new == ref
    assert repr(new) == repr(ref)


SPACES = [("abs", 1), ("euclidean", 2), ("euclidean", 3)]


@pytest.mark.parametrize("norm,dim", SPACES)
@pytest.mark.parametrize("conorm", TCONORM_IDS)
@pytest.mark.parametrize("norm_t", TNORM_IDS)
def test_builtin_spaces_match_mirrored(norm_t, conorm, norm, dim):
    ifn = standard_ifn(builtin_norm(norm), tnorm(norm_t), tconorm(conorm))
    samples, times = default_samples(dim, count=25), default_times()
    assert_same(certify_ifn(ifn, samples, times), mirrored_certify_ifn(ifn, samples, times))


def _standard(dim):
    norm = builtin_norm("abs" if dim == 1 else "euclidean")
    return standard_ifn(norm, tnorm("product"), tconorm("bounded-sum"))


def _broken(name, dim):
    """A graded norm that breaks some axioms on purpose, keeping the ops."""
    std = _standard(dim)
    mu, nu = std.mu, std.nu
    pairs = {
        # mu + nu > 1, and mu reaches 1 on nonzero vectors
        "mu-lifted": (lambda x, t: np.minimum(mu(x, t) + 0.25, 1.0), nu),
        # mu passes 1, by different amounts on different nonzero vectors
        "mu-raised": (lambda x, t: mu(x, t) + 0.25, nu),
        # nu reaches and passes 1 for long vectors at small t
        "nu-scaled": (mu, lambda x, t: 1.5 * nu(x, t)),
        # both degrees jump at t = 1
        "jump-in-t": (lambda x, t: np.where(np.asarray(t) < 1.0, 0.1 * mu(x, t), mu(x, t)),
                      lambda x, t: np.where(np.asarray(t) < 1.0, 0.9 + 0.1 * nu(x, t),
                                            nu(x, t))),
        # mu reaches 0, and nu reaches 0 on nonzero vectors
        "both-clipped": (lambda x, t: np.maximum(mu(x, t) - 0.1, 0.0),
                         lambda x, t: np.maximum(nu(x, t) - 0.1, 0.0)),
        # limits the wrong way round
        "swapped": (nu, mu),
    }
    new_mu, new_nu = pairs[name]
    return IFNorm(new_mu, new_nu, std.tnorm, std.tconorm)


BROKEN = ["mu-lifted", "mu-raised", "nu-scaled", "jump-in-t", "both-clipped", "swapped"]


@pytest.mark.parametrize("dim", [1, 2])
@pytest.mark.parametrize("name", BROKEN)
def test_broken_norms_match_mirrored(name, dim):
    ifn = _broken(name, dim)
    # 40 times make the step ratio fine enough for the jump to show
    samples, times = default_samples(dim, count=30), default_times(count=40)
    new = certify_ifn(ifn, samples, times)
    assert_same(new, mirrored_certify_ifn(ifn, samples, times))
    assert not all(r.passed for r in new)


@pytest.mark.parametrize("name", ["standard"] + BROKEN)
def test_zero_vector_and_one_time_match_mirrored(name):
    ifn = _standard(2) if name == "standard" else _broken(name, 2)
    samples = [np.zeros(2)] + default_samples(2, count=12)
    for times in (default_times(count=8), np.array([1.0]), np.array([3.0, 0.5, 1.5])):
        assert_same(certify_ifn(ifn, samples, times),
                    mirrored_certify_ifn(ifn, samples, times))


def test_zero_vector_witness_attains_worst_violation():
    # the report's witness must give back its worst_violation when recomputed
    checked = 0
    for name in BROKEN:
        for dim in (1, 2):
            ifn = _broken(name, dim)
            reports = {r.axiom: r for r in certify_ifn(ifn, default_samples(dim),
                                                       default_times())}
            for degree, fn, large, sign in (("mu", ifn.mu, 1.0, 1.0),
                                            ("nu", ifn.nu, 0.0, -1.0)):
                report = reports[f"{degree}-zero-characterization"]
                if report.passed:
                    continue
                v, t = np.array(report.witness[0]), report.witness[1]
                value = float(fn(v, np.array([t]))[0])
                again = (abs(value - large) if not np.any(v)
                         else STRICT_HIT + sign * value - sign * large)
                assert again == pytest.approx(report.worst_violation, rel=1e-12), (name, dim)
                checked += 1
    assert checked >= 4
