"""Window ladders and windowed density traces, checked against brute-force counts."""
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ifnlab import (BumpIndexSet, DomainError, LAMBDA_IDS, density_trace, lambda_family,
                    lambda_from_table, validate, window)
from ifnlab import density
from ifnlab.density import _window_lows


def brute_window_count(member_mask: np.ndarray, lam, n: int) -> int:
    """Direct recount of |{k in I_n : k in the set}| from the definition."""
    width = math.ceil(lam.at(n))
    lo = max(1, n - width + 1)
    return int(sum(bool(member_mask[k - 1]) for k in range(lo, n + 1)))


# ------------------------------------------------------------ lambda families
def test_identity_family_values():
    lam = lambda_family("identity")
    assert lam.at(1) == 1.0
    assert lam.at(713) == 713.0


def test_sqrt_family_values():
    lam = lambda_family("sqrt")
    # ceil(sqrt(n)): frozen spot checks
    assert lam.at(1) == 1.0
    assert lam.at(2) == 2.0
    assert lam.at(16) == 4.0
    assert lam.at(17) == 5.0


def test_log_family_values():
    lam = lambda_family("log")
    # family value at n is ceil(log2(n + 1))
    assert lam.at(1) == 1.0
    assert lam.at(2) == 2.0
    assert lam.at(7) == 3.0
    assert lam.at(8) == 4.0


def test_unknown_family_rejected():
    with pytest.raises(DomainError):
        lambda_family("cubic")


def test_table_extends_past_the_end():
    lam = lambda_from_table([1.0, 2.0, 2.0])
    assert lam.at(3) == 2.0
    assert lam.at(4) == 3.0
    assert lam.at(6) == 5.0
    assert np.array_equal(lam.values(np.arange(1, 6)), np.array([1.0, 2.0, 2.0, 3.0, 4.0]))


@pytest.mark.parametrize("n_max", [2.5, np.float64(100.0), True, 1])
def test_validate_horizon_must_be_an_integer(n_max):
    # 2.5 and 100.0 ran
    with pytest.raises(DomainError, match="n_max must be an integer >= 2"):
        validate(lambda_family("identity"), n_max)
    assert all(r.passed for r in validate(lambda_family("identity"), np.int64(100)))


@pytest.mark.parametrize("name", LAMBDA_IDS)
def test_builtin_families_validate(name):
    reports = validate(lambda_family(name), 5_000)
    assert {r.axiom for r in reports} == {"first-value", "non-decreasing",
                                          "slow-growth", "index-bound", "divergence"}
    for r in reports:
        assert r.passed, f"{name} failed {r.axiom}"


def test_fast_growth_fails_validation():
    lam = lambda_from_table([1.0, 3.0, 5.0])
    by = {r.axiom: r for r in validate(lam, 100)}
    assert not by["slow-growth"].passed
    assert by["slow-growth"].worst_violation == pytest.approx(1.0)
    assert not by["index-bound"].passed


def test_wrong_first_value_fails_validation():
    lam = lambda_from_table([2.0, 3.0])
    assert not {r.axiom: r for r in validate(lam, 50)}["first-value"].passed


def test_decreasing_table_fails_validation():
    lam = lambda_from_table([1.0, 2.0, 1.5])
    assert not {r.axiom: r for r in validate(lam, 50)}["non-decreasing"].passed


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_non_finite_table_fails_validation(bad):
    lam = lambda_from_table([1.0, 2.0, bad, 4.0])
    failed = {r.axiom for r in validate(lam, 1000) if not r.passed}
    assert "non-decreasing" in failed and "slow-growth" in failed


lambda_increments = st.lists(st.integers(min_value=0, max_value=1),
                             min_size=30, max_size=120)


@given(lambda_increments)
@settings(max_examples=40, deadline=None)
def test_random_slow_tables_validate(increments):
    values = [1.0]
    for step in increments:
        values.append(values[-1] + step)
    lam = lambda_from_table(values)
    for r in validate(lam, len(values)):
        if r.axiom == "divergence":
            continue  # short prefixes with few +1 steps legitimately fail this
        assert r.passed, r.axiom


def whole_table_validate(lam, n_max):
    """``validate``'s (axiom, passed, repr of the violation, witness) read off the whole
    ladder at once: the reference for its pass by blocks."""
    tab = np.asarray(lam.values(np.arange(1, n_max + 1)), dtype=float)
    excess = lambda v: 0.0 if v <= 0 else float(v)
    with np.errstate(invalid="ignore"):
        steps = tab[1:] - tab[:-1]
    i, j = int(np.argmin(steps)), int(np.argmax(steps))
    over = tab - np.arange(1, n_max + 1)
    k = int(np.argmax(over))
    reports = [("first-value", float(abs(tab[0] - 1.0)), (1,)),
               ("non-decreasing", excess(-steps[i]), (i + 1,)),
               ("slow-growth", excess(steps[j] - 1.0), (j + 1,)),
               ("index-bound", excess(over[k]), (k + 1,)),
               ("divergence", excess(math.log(n_max) - tab[-1]), (n_max,))]
    return [(axiom, v <= 1e-12, repr(v), witness) for axiom, v, witness in reports]


LADDER_VALUES = (0.5, 1.0, 1.5, 2.0, 3.0, 4.0, 9.0, math.nan, math.inf, -math.inf)


@given(ladder=st.one_of(st.lists(st.sampled_from(LADDER_VALUES), min_size=1, max_size=30)
                        .map(lambda_from_table),
                        st.sampled_from(LAMBDA_IDS).map(lambda_family)),
       n_max=st.integers(min_value=2, max_value=40), block=st.integers(min_value=2, max_value=9))
@settings(max_examples=300, deadline=None)
def test_validate_by_blocks_matches_the_whole_table(ladder, n_max, block):
    # small blocks, so that the horizons cross block edges; ties and nans test which gap is kept
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(density, "BLOCK_ELEMENTS", block)
        reports = validate(ladder, n_max)
    assert ([(r.axiom, r.passed, repr(r.worst_violation), r.witness) for r in reports]
            == whole_table_validate(ladder, n_max))


# ------------------------------------------------------------ windows
@given(st.integers(min_value=1, max_value=100_000))
def test_window_bounds(n):
    for name in LAMBDA_IDS:
        lam = lambda_family(name)
        w = window(lam, n)
        assert w.hi == n
        assert 1 <= w.lo <= n
        assert w.size == min(n, math.ceil(lam.at(n)))


def test_identity_window_is_everything():
    lam = lambda_family("identity")
    w = window(lam, 100)
    assert (w.lo, w.hi, w.size) == (1, 100, 100)


def test_window_rejects_a_nonpositive_lambda():
    with pytest.raises(DomainError, match="positive"):
        window(lambda_from_table([0.0, 1.0]), 1)


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_window_lows_reject_a_non_finite_lambda(bad):
    lam = lambda_from_table([1.0, 2.0, bad, 4.0])
    for ns in (np.arange(1, 5), np.array([3])):
        with pytest.raises(DomainError, match="finite"):
            _window_lows(lam, ns)
    with pytest.raises(DomainError, match="finite"):
        _window_lows(lam, np.arange(1, 5), np.empty(4, dtype=np.int64))
    with pytest.raises(DomainError, match="finite"):
        window(lam, 3)
    assert window(lam, 2).lo == 1
    bumps = BumpIndexSet(lam)
    bumps.ensure(2)  # the bad stage lies past the horizon
    with pytest.raises(DomainError, match="finite"):
        bumps.ensure(3)


# ------------------------------------------------------------ traces
def test_evens_density_exactly_half():
    lam = lambda_family("identity")
    n = 1_000_000
    ks = np.arange(1, n + 1)
    trace = density_trace(ks % 2 == 0, lam, n)
    # direct count oracle: floor(n/2) evens below each horizon
    assert trace.counts[-1] == n // 2
    assert trace.verdict == "limit-value"
    assert trace.estimate == pytest.approx(0.5, abs=1e-5)


def test_squares_density_vanishes():
    lam = lambda_family("identity")
    n = 1_000_000
    ks = np.arange(1, n + 1)
    roots = np.rint(np.sqrt(ks.astype(float))).astype(np.int64)
    trace = density_trace(roots * roots == ks, lam, n)
    assert trace.counts[-1] == math.isqrt(n)           # direct count: isqrt(n) squares
    assert trace.final_ratio == math.isqrt(n) / n      # = 1e-3 exactly
    assert trace.verdict == "limit-zero"
    assert trace.final_ratio <= 1.1e-3


def test_counts_match_brute_force_on_all_families():
    rng = np.random.default_rng(7)
    mask = rng.random(400) < 0.3
    for name in LAMBDA_IDS:
        lam = lambda_family(name)
        trace = density_trace(mask, lam, 400, stride=37)
        for n, count in zip(trace.ns, trace.counts):
            assert count == brute_window_count(mask, lam, int(n)), (name, n)
        assert trace.ns[-1] == 400  # horizon always sampled


def test_complement_counts_sum_to_window_size():
    lam = lambda_family("sqrt")
    rng = np.random.default_rng(11)
    mask = rng.random(600) < 0.5
    t1 = density_trace(mask, lam, 600, stride=50)
    t2 = density_trace(~mask, lam, 600, stride=50)
    for n, c1, c2 in zip(t1.ns, t1.counts, t2.counts):
        assert c1 + c2 == window(lam, int(n)).size


def test_membership_predicate_and_array_agree():
    lam = lambda_family("identity")
    arr = np.arange(1, 301) % 3 == 0
    t1 = density_trace(arr, lam, 300, stride=30)
    t2 = density_trace(lambda k: k % 3 == 0, lam, 300, stride=30)
    assert np.array_equal(t1.counts, t2.counts)
    # a list was taken for a predicate: np.vectorize raised a TypeError
    t3 = density_trace(arr.tolist(), lam, 300, stride=30)
    assert np.array_equal(t1.counts, t3.counts) and np.array_equal(t1.ratios, t3.ratios)


def test_all_and_none_are_settled():
    lam = lambda_family("identity")
    full = density_trace(np.ones(5000, dtype=bool), lam, 5000)
    empty = density_trace(np.zeros(5000, dtype=bool), lam, 5000)
    assert full.verdict == "limit-one"
    assert full.final_ratio == 1.0
    assert empty.verdict == "limit-zero"
    assert empty.final_ratio == 0.0


def test_membership_array_must_be_one_dimensional():
    # a (100, 100) array was raveled into 10,000 indices
    with pytest.raises(DomainError, match="1-D"):
        density_trace(np.ones((100, 100), dtype=bool), lambda_family("identity"), 5000)
    for short in ([True] * 99, [[True] * 100], 5):  # too few entries, or not 1-D, as a list too
        with pytest.raises(DomainError, match="1-D membership array of 100"):
            density_trace(short, lambda_family("identity"), 100)


def test_verdict_is_stable_as_horizon_grows():
    # once evens settle, a longer horizon must not change the call
    lam = lambda_family("identity")
    for n in (10_000, 100_000, 1_000_000):
        ks = np.arange(1, n + 1)
        assert density_trace(ks % 2 == 0, lam, n).verdict == "limit-value"


@pytest.mark.parametrize("name, verdict", [
    ("identity", "limit-value"),  # lambda grows 5x from the 20% horizon
    ("sqrt", "limit-value"),      # 2.2x
    ("log", "inconclusive"),      # 1.1x: too little ladder movement to call a value
])
def test_limit_value_needs_a_moving_ladder(name, verdict):
    n = 100_000
    assert density_trace(np.arange(1, n + 1) % 2 == 0, lambda_family(name), n).verdict == verdict


def test_trace_csv_round_trip(tmp_path):
    lam = lambda_family("identity")
    trace = density_trace(np.arange(1, 501) % 2 == 0, lam, 500, stride=100)
    path = tmp_path / "trace.csv"
    trace.to_csv(path)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "n,window_lo,window_hi,count,ratio"
    assert len(lines) == len(trace.ns) + 1
    n, lo, hi, count, ratio = lines[-1].split(",")
    assert (int(n), int(lo), int(hi), int(count)) == (500, 1, 500, 250)
    assert float(ratio) == 0.5


def write_csv_by_rows(trace, path):
    """The row-by-row writer ``to_csv`` replaced, kept as the byte reference."""
    with open(path, "w", newline="") as fh:
        fh.write("n,window_lo,window_hi,count,ratio\n")
        for n, lo, hi, c, r in zip(trace.ns, trace.lows, trace.highs, trace.counts, trace.ratios):
            fh.write(f"{int(n)},{int(lo)},{int(hi)},{int(c)},{float(r)!r}\n")


def test_trace_csv_matches_row_writer(tmp_path):
    ks = np.arange(1, 100_001)
    traces = [density_trace(ks[:1000] % 3 == 0, lambda_family("identity"), 1000, stride=1),
              density_trace(ks <= 2, lambda_family("identity"), 100_000),
              density_trace(ks % 7 == 0, lambda_family("sqrt"), 100_000),
              density_trace(ks < 1, lambda_family("log"), 100_000)]
    ratios = np.concatenate([t.ratios for t in traces]).tolist()
    assert 1 / 3 in ratios and 2e-05 in ratios  # repr gives "2e-05"
    for i, trace in enumerate(traces):
        trace.to_csv(tmp_path / f"new{i}.csv")
        write_csv_by_rows(trace, tmp_path / f"old{i}.csv")
        assert (tmp_path / f"new{i}.csv").read_bytes() == (tmp_path / f"old{i}.csv").read_bytes()


def test_rejects_tiny_horizon():
    lam = lambda_family("identity")
    with pytest.raises(DomainError):
        density_trace(np.ones(5, dtype=bool), lam, 5)


def test_lambda_table_must_be_non_empty():
    with pytest.raises(DomainError, match="non-empty"):
        lambda_from_table([])
