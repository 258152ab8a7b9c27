"""Streamed window counts and evidence, at block edges, and the memory they take."""
import tracemalloc

import numpy as np
import pytest

from ifnlab import (ConvergenceQuery, FunctionSequence, MODES, build_example, density_trace,
                    detect, detect_cauchy, lambda_family, lambda_from_table,
                    lemma_equivalence_check, standard_ifn, builtin_norm, tconorm, tnorm)
from ifnlab import convergence
from ifnlab.convergence import (ANCHOR_POOL, CAUCHY_MODES, CLASSICAL_DIRTY_FRACTION,
                                WITNESS_CAP)
from ifnlab.cli import ExperimentConfig, _resolve_sequence
from ifnlab.density import BLOCK_ELEMENTS, Capture, WindowCounter, _stages

B = BLOCK_ELEMENTS
GRID = np.linspace(0.0, 1.0, 3)


def prefix_counts(mask: np.ndarray, ns: np.ndarray, lows: np.ndarray) -> np.ndarray:
    """The whole-horizon prefix count the counter replaced, kept as the reference."""
    prefix = np.concatenate([[0], np.cumsum(mask, axis=-1, dtype=np.int64)])
    return prefix[ns] - prefix[lows - 1]


# ------------------------------------------------------------ the counter alone
@pytest.mark.parametrize("seed", [*range(6), "falling-lows"])
def test_counter_matches_prefix_counts_and_direct_captures(seed):
    falling = seed == "falling-lows"
    rng = np.random.default_rng(6 if falling else seed)
    n_max, rows = int(rng.integers(10, 3000)), int(rng.integers(1, 5))
    masks = rng.random((rows, n_max)) < rng.choice([0.0, 0.01, 0.3, 0.9, 1.0])
    if falling:  # lambda_n anywhere in [1, n], past the admissibility check the CLI makes
        lam = lambda_from_table(rng.integers(1, np.arange(2, n_max + 2)))
    else:
        lam = lambda_family(rng.choice(["identity", "sqrt", "log"]))
    ns, _, lows = _stages(lam, n_max, int(rng.integers(1, 50)))
    if falling:  # the window starts are not in stage order
        assert (np.diff(lows) < 0).any()
    lo = int(rng.integers(1, n_max + 1))
    captures = (Capture(7, lo, last=True), Capture(5, lo), Capture(4, lo, misses=True),
                Capture(3, last=True, misses=True))
    counter = WindowCounter(rows, ns, lows, captures)
    cuts = np.unique(np.concatenate([[0, n_max], rng.integers(0, n_max, 8)]))
    for a, b in zip(cuts[:-1], cuts[1:]):  # blocks of uneven sizes
        counter.feed(a, b - a, np.flatnonzero(masks[:, a:b]))
    for row, mask in enumerate(masks):
        assert np.array_equal(counter.counts()[row], prefix_counts(mask, ns, lows))
        hits = np.flatnonzero(mask) + 1
        misses = np.flatnonzero(~mask) + 1
        expected = [hits[hits >= lo][-7:], hits[hits >= lo][:5], misses[misses >= lo][:4],
                    misses[-3:]]
        for kept, want in zip(counter.kept, expected):
            assert np.array_equal(kept[row][kept[row] > 0], want)


def test_counts_are_int32_below_a_last_stage_of_2_to_the_31(tmp_path, monkeypatch):
    assert WindowCounter(1, [2**31 - 1], [1]).counts().dtype == np.int32
    assert WindowCounter(1, [2**31], [1]).counts().dtype == np.int64
    lam = lambda_family("sqrt")
    fs, limit = build_example("paper-example-1", lam, GRID)[:2]
    space = standard_ifn(builtin_norm("abs"), tnorm("product"), tconorm("bounded-sum"))
    q = ConvergenceQuery("uniform-lambda-stat", 0.1, 1.0, lam, 20_000)

    def traces(name):
        density_trace(lambda k: k % 7 == 0, lam, 20_000).to_csv(tmp_path / f"{name}-density.csv")
        detect(fs, limit, space, q).traces.to_csv(tmp_path / f"{name}-detect.csv")
        return [(tmp_path / f"{name}-{run}.csv").read_bytes() for run in ("density", "detect")]

    narrow = traces("int32")
    counts = WindowCounter.counts
    monkeypatch.setattr(WindowCounter, "counts", lambda self: counts(self).astype(np.int64))
    assert traces("int64") == narrow


def test_a_pointwise_cauchy_run_makes_three_passes(monkeypatch):
    # the pool, every point's first anchor, and the rest of the open points' pools:
    # here one rest pass of over 50 points × 9 anchors × 1,000 stages
    calls = []

    def union(*args, **kwargs):
        calls.append(kwargs.get("checked"))
        return union_once(*args, **kwargs)

    union_once = convergence._union
    monkeypatch.setattr(convergence, "_union", union)
    lam = lambda_family("sqrt")
    space = standard_ifn(builtin_norm("abs"), tnorm("product"), tconorm("bounded-sum"))
    fs = build_example("paper-example-1", lam, np.linspace(0.0, 1.0, 101))[0]
    v = detect_cauchy(fs, space, ConvergenceQuery("pointwise-lambda-cauchy", 0.1, 1.0, lam, 20_000))
    assert calls == [None, False, True]
    assert sum(a is None for a in v.details["anchors"].values()) > 50


@pytest.mark.parametrize("seed", range(12))
def test_sparse_feeds_match_the_same_rows_fed_densely(seed):
    # each row as a fill and the indices whose test differs from it, as a
    # bundled family's feed gives it; a fill of True counts the rest as hits
    rng = np.random.default_rng(seed)
    n_max, rows = int(rng.integers(10, 3000)), int(rng.integers(1, 5))
    masks = rng.random((rows, n_max)) < rng.choice([0.0, 0.01, 0.3, 0.9, 1.0], size=(rows, 1))
    fill = rng.random(rows) < 0.5
    ns, _, lows = _stages(lambda_family(rng.choice(["identity", "sqrt", "log"])), n_max,
                          int(rng.integers(1, 50)))
    lo = int(rng.integers(1, n_max + 1))
    cap = int(rng.integers(1, 12))
    captures = (Capture(cap, lo, last=True), Capture(cap, lo), Capture(cap, lo, misses=True),
                Capture(cap, last=True, misses=True), Capture(cap))
    dense, sparse = (WindowCounter(rows, ns, lows, captures) for _ in range(2))
    cuts = np.unique(np.concatenate([[0, n_max], rng.integers(0, n_max, 8)]))
    for a, b in zip(cuts[:-1], cuts[1:]):  # blocks of uneven sizes
        block = masks[:, a:b]
        dense.feed(a, b - a, np.flatnonzero(block))
        sparse.feed(a, b - a, np.flatnonzero(block != fill[:, None]), fill)
    assert np.array_equal(sparse.counts(), dense.counts())
    assert np.array_equal(sparse.counts(), [prefix_counts(m, ns, lows) for m in masks])
    for kept_sparse, kept_dense in zip(sparse.kept, dense.kept):
        assert np.array_equal(kept_sparse, kept_dense)
    for row, mask in enumerate(masks):
        hits, misses = np.flatnonzero(mask) + 1, np.flatnonzero(~mask) + 1
        expected = [hits[hits >= lo][-cap:], hits[hits >= lo][:cap], misses[misses >= lo][:cap],
                    misses[-cap:], hits[:cap]]
        for kept, want, c in zip(sparse.kept, expected, captures):
            pad = np.zeros(cap - want.size, dtype=np.int64)  # last right-, first left-aligned
            want = np.concatenate([pad, want] if c.last else [want, pad])
            assert np.array_equal(kept[row], want)


@pytest.mark.parametrize("ladder", ["identity", "sqrt", "log"])
def test_predicate_and_mask_give_equal_traces_past_a_block(ladder):
    n_max = 65_537
    mask = (np.arange(1, n_max + 1) % 7 == 0) | (np.arange(1, n_max + 1) > n_max - 3)
    lam = lambda_family(ladder)
    from_mask = density_trace(mask, lam, n_max)
    from_predicate = density_trace(lambda k: k % 7 == 0 or k > n_max - 3, lam, n_max)
    for field in ("ns", "lows", "counts", "ratios"):
        assert np.array_equal(getattr(from_mask, field), getattr(from_predicate, field))
    assert np.array_equal(from_mask.counts, prefix_counts(mask, from_mask.ns, from_mask.lows))


# ------------------------------------------------- the detectors at block edges
def indicator_family(members: np.ndarray) -> FunctionSequence:
    """f_k = 1 on ``members``, else 0, at every point: against 0, exceptional on ``members``."""
    def evaluate(ks, x):  # one row of indices: a grid of points gets the wrong size
        return np.isin(np.asarray(ks), members).astype(float)

    fs = FunctionSequence(evaluate, GRID, "indicator")
    assert fs.per_point is evaluate and not fs.broadcasts
    return fs


def edge_set(n_max: int, lam) -> np.ndarray:
    """Members for the block edges of a pass in blocks of B indices.

    Every index up to B + 1, so the first non-member lies past the first
    block; the edges of the second block; two indices at the start of the
    final window and the one before n_max.  The last WITNESS_CAP members of an identity window
    span the first two blocks; a sqrt window holds fewer than WITNESS_CAP.
    n_max itself stays out, so f_{n_max} = 0.
    """
    lo = int(_stages(lam, n_max, None)[2][-1])
    members = np.unique(np.concatenate([np.arange(1, B + 2), [2 * B - 1, 2 * B, 2 * B + 1],
                                        [lo, lo + 1, n_max - 1]]))
    return members[members < n_max]


def final_hits(members, trace, cap) -> list:
    """The last ``cap`` members in the trace's final window, for a group that does not converge."""
    if trace.verdict == "limit-zero":
        return []
    tail = members[(members >= trace.lows[-1]) & (members <= trace.ns[-1])]
    return tail[-cap:].tolist() if cap else []


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("n_max", [2 * B - 1, 2 * B, 2 * B + 1])
@pytest.mark.parametrize("ladder", ["identity", "sqrt"])
def test_streamed_evidence_at_block_edges(std_space, ladder, n_max, mode):
    lam = lambda_family(ladder)
    members = edge_set(n_max, lam)
    fs = indicator_family(members)
    q = ConvergenceQuery(mode, 0.1, 1.0, lam, n_max)
    v = (detect_cauchy(fs, std_space, q) if mode in CAUCHY_MODES
         else detect(fs, lambda x: 0.0, std_space, q))
    if mode == "ifn-classical":
        assert set(v.details["last_exceptional"].values()) == {int(members[-1])}
        dirty = members[members > int(n_max * CLASSICAL_DIRTY_FRACTION)]
        expected = [(int(k), float(x)) for x in GRID for k in dirty][:WITNESS_CAP]
        assert v.witnesses == expected
        return
    # the anchor pool starts past the first block: f_N = 0 = f_{n_max} for every candidate
    pool = np.setdiff1d(np.arange(1, n_max + 1), members)[:ANCHOR_POOL]
    assert pool[0] > B
    uniform = mode.startswith("uniform")
    traces = [v.traces] if uniform else [v.traces[float(x)] for x in GRID]
    witnesses = []
    for x, trace in zip(GRID, traces):  # a uniform witness goes to the first point, GRID[0]
        assert trace.ns[-1] == n_max
        counts = np.searchsorted(members, trace.ns, "right") \
            - np.searchsorted(members, trace.lows - 1, "right")
        assert np.array_equal(trace.counts, counts)
        witnesses += [(k, float(x)) for k in final_hits(members, trace,
                                                        WITNESS_CAP - len(witnesses))]
    assert v.witnesses == witnesses
    if mode in CAUCHY_MODES:
        anchors = [v.details["anchor"]] if uniform else list(v.details["anchors"].values())
        for anchor, trace in zip(anchors, traces):
            assert anchor == (int(pool[0]) if trace.verdict == "limit-zero" else None)


# ------------------------------------------------------------- bounded memory
def _runs(n_max: int) -> dict:
    lam = lambda_family("identity")
    space = standard_ifn(builtin_norm("abs"), tnorm("product"), tconorm("bounded-sum"))

    def query(mode, stride=None):
        return ConvergenceQuery(mode, 0.1, 1.0, lam, n_max, stride)

    def example(i, points=11):
        return build_example(f"paper-example-{i}", lam, np.linspace(0.0, 1.0, points))[:2]

    # read point by point: a truth value of x does not broadcast
    per_point = _resolve_sequence(ExperimentConfig(expression="x / k if x < 2 else x"), lam,
                                  np.linspace(0.0, 1.0, 101))[0]
    return {
        # ten stages, so that the pass and not its 101 traces sets the peak
        "per-point-pointwise": lambda: detect(per_point, lambda x: 0.0, space,
                                              query("pointwise-lambda-stat", n_max // 10)),
        "per-point-uniform": lambda: detect(per_point, lambda x: 0.0, space,
                                            query("uniform-lambda-stat", n_max // 10)),
        "pointwise-lambda-cauchy-101": lambda: detect_cauchy(example(1, 101)[0], space,
                                                             query("pointwise-lambda-cauchy")),
        "uniform-lambda-stat": lambda: detect(*example(2), space, query("uniform-lambda-stat")),
        "pointwise-lambda-cauchy": lambda: detect_cauchy(example(1)[0], space,
                                                         query("pointwise-lambda-cauchy")),
        "ifn-classical": lambda: detect(*example(1), space, query("ifn-classical")),
        "lemma": lambda: lemma_equivalence_check(*example(1), space,
                                                 query("pointwise-lambda-stat")),
    }


@pytest.mark.parametrize("run", list(_runs(10)))
def test_peak_memory_does_not_grow_with_the_horizon(run):
    peaks = []
    for n_max in (100_000, 1_000_000):
        job = _runs(n_max)[run]
        tracemalloc.start()
        try:
            job()
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] <= 1.2 * peaks[0], peaks


def test_a_pointwise_pass_holds_about_what_its_uniform_twin_holds():
    # A pointwise pass keeps a row per point, so it must size its feeds by rows times
    # indices: a sequence read point by point holds one point's rows at a time.
    peaks = []
    for run in ("per-point-pointwise", "per-point-uniform"):
        job = _runs(100_000)[run]
        tracemalloc.start()
        try:
            job()
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[0] <= 1.5 * peaks[1], peaks
