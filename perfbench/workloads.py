"""The benchmark workloads: seeded inputs, problem sizes and output checks.

Every workload uses the identity ladder, the product t-norm with the
bounded-sum t-conorm, epsilon = 0.1 and t = 1.0; the continuity checks use
epsilon = 0.3, as the acceptance gate does.  Each full-size batch run takes
one to three seconds on a 2-core Xeon (L3 105 MB), so a 55-second
benchmark run holds twenty to forty of them.  The seed draws the
grid's offset from 0; every grid keeps its point count and ends at x = 1.

BENCHMARK.json names two of them, ``long-horizon-uniform`` and
``cauchy-dense``; the other two run by name (``--workload``).  On a shared
2-core host whose speed drifts by a third over minutes, the per-run medians
of ``continuity-certify`` (interpreter-bound) and ``wide-grid-pointwise``
spread by 0.25 and 0.21 of their median over ten runs, at the largest bound
a metric may have; the two kept workloads spread by 0.08 to 0.15.  Every
layer stays measured: traced detector runs also time the continuity
harness, certification and ladder validation at a few grid points, and a
standalone bump-set build (see child.py).

* ``long-horizon-uniform`` -- paper example 2, uniform windowed mode, few
  points over a long horizon.  The bump-set build is a large share of the run,
  and the 24 MB per-point arrays together exceed L3; it shows memory and
  bump-set changes.
* ``cauchy-dense`` -- the limit-free uniform Cauchy detector on
  ``sin(k) * x`` through the config-expression path.  No bump set; dense
  exceptional sets; the grid is evaluated once against the reference and
  once per anchor (11 times).  The uniform exceptional set is decided at the
  largest |x|, which every grid pins at 1, so the verdict is the same for
  every seed.  A seeded frequency a in ``sin(a*k)`` was tried and dropped:
  near resonances (a = 1.0189, 1.02285, pi/3, ...) the tail does not settle
  at this horizon and the run is ``inconclusive``.
* ``wide-grid-pointwise`` -- paper example 1, pointwise windowed mode, many
  grid points over a moderate horizon.  Cost is spread over term evaluation,
  mu/nu, one density trace per point and 101 trace CSVs; per-point arrays
  (1.2 MB) fit in L3 and the exceptional sets are sparse.
* ``continuity-certify`` -- the equicontinuity and limit-continuity harness,
  operation and graded-norm certification and ladder validation, in library
  form.  Scalar mu/nu calls carry it; no density, convergence or bump set.

``trace_margins`` records how far each trace sits from the classifier's
thresholds (``ZERO_TAIL_MAX``, ``DECAY_FACTOR``, ``VALUE_STD_TOL``).  The bump
families' decay test sits at 0.89 to 0.91 of its threshold at every horizon:
their ratio falls like 1/sqrt(n), and sqrt(0.2) / 0.5 = 0.894.
"""
from __future__ import annotations

import csv
import json
import math
import random
from pathlib import Path

from ifnlab.density import DECAY_FACTOR, VALUE_STD_TOL, ZERO_TAIL_MAX

# final window ratio of a bump family may exceed sqrt(n)/n by this factor
RATIO_SLACK = 1.1
# the grid starts at a seeded offset in [0, GRID_OFFSET_MAX) and ends at x = 1
GRID_OFFSET_MAX = 0.01

CONTINUITY_EPS = 0.3
K_MAX = 100
PROBE_RADII = tuple(0.5 ** j for j in range(1, 23))
DELTA_GRID = tuple(0.5 ** j for j in range(1, 21))

# full size, toy size (the smoke test)
SIZES = {
    "long-horizon-uniform": ({"n_max": 3_000_000, "points": 11}, {"n_max": 100_000, "points": 11}),
    "cauchy-dense": ({"n_max": 20_000, "points": 101}, {"n_max": 10_000, "points": 11}),
    "wide-grid-pointwise": ({"n_max": 150_000, "points": 101}, {"n_max": 100_000, "points": 11}),
    "continuity-certify": ({"points": 11}, {"points": 3}),
}
NAMES = tuple(SIZES)
# grid points of the continuity harness that traced detector runs also time
PROBE_POINTS = 3

_DETECTORS = {
    # name: (sequence lines, mode, expected exit status, expected verdict)
    "wide-grid-pointwise": ("example = paper-example-1", "pointwise-lambda-stat", 0, "converges"),
    "long-horizon-uniform": ("example = paper-example-2", "uniform-lambda-stat", 0, "converges"),
    "cauchy-dense": ("expression = sin(k) * x", "uniform-lambda-cauchy", 1, "fails"),
}

_CONFIG = """\
[space]
norm = abs
dimension = 1
tnorm = product
tconorm = bounded-sum

[lambda]
family = identity

[sequence]
{sequence}

[query]
mode = {mode}
epsilon = 0.1
time = 1.0
n_max = {n_max}
grid_low = {low!r}
grid_high = 1.0
grid_points = {points}
"""


def make_spec(name: str, seed: int, toy: bool, inputs_dir: Path) -> dict:
    """Generate the workload's inputs from ``seed`` and return the child's spec."""
    size = SIZES[name][1 if toy else 0]
    rng = random.Random(f"{name}:{seed}")
    low = rng.uniform(0.0, GRID_OFFSET_MAX)
    points = size["points"]
    if name == "continuity-certify":
        return _library_spec(low, points, rng)
    sequence, mode, code, verdict = _DETECTORS[name]
    n_max = size["n_max"]
    text = _CONFIG.format(sequence=sequence, mode=mode, n_max=n_max, low=low, points=points)
    config = inputs_dir / "experiment.ini"
    config.write_text(text)
    uniform = mode.startswith("uniform")
    return {
        "kind": "cli", "config": str(config), "n_max": n_max,
        "problem_terms": n_max * points,
        "probe": _library_spec(low, PROBE_POINTS, rng),
        "expect": {"exit": code, "verdict": verdict,
                   "traces": 1 if uniform else points,
                   "bump_family": sequence.startswith("example"),
                   "cauchy": mode.endswith("cauchy")},
    }


def _library_spec(low: float, points: int, rng: random.Random) -> dict:
    """The continuity harness, certification and ladder validation on a seeded grid."""
    grid = [low + (1.0 - low) * i / (points - 1) for i in range(points - 1)] + [1.0]
    return {
        "kind": "library", "grid": grid, "epsilon": CONTINUITY_EPS, "time": 1.0,
        "k_max": K_MAX, "probe_radii": PROBE_RADII, "delta_grid": DELTA_GRID,
        "step_point": 0.5, "sample_seed": rng.randrange(2 ** 31),
        "certify_resolution": 101, "validate_n_max": 10_000,
        "problem_terms": sum(K_MAX * (_probe_count(x) + 1) for x in grid),
    }


def _probe_count(x: float) -> int:
    """Probes of the continuity query at x: x +/- r inside [0, 1], r in PROBE_RADII."""
    return sum(1 for r in PROBE_RADII for p in (x - r, x + r) if 0.0 <= p <= 1.0 and p != x)


def check(spec: dict, out_dir: Path, exit_code: int, traced: bool) -> tuple[list[str], list[dict]]:
    """Check one batch run's outputs; returns (problems, classifier margins per trace).

    A traced detector run also ran the layer probes; their outputs are checked too.
    """
    if spec["kind"] == "library":
        return _check_library(out_dir, exit_code), []
    problems, margins = _check_cli(spec, out_dir, exit_code)
    if traced:
        problems += [f"probe: {p}" for p in _check_library(out_dir / "probe", 0)]
    return problems, margins


def _check_cli(spec: dict, out_dir: Path, exit_code: int):
    expect = spec["expect"]
    problems = []
    if exit_code != expect["exit"]:
        problems.append(f"exit status {exit_code}, expected {expect['exit']}")
    verdict_path = out_dir / "verdict.json"
    if not verdict_path.is_file():
        return problems + ["no verdict.json written"], []
    payload = json.loads(verdict_path.read_text())
    if payload["verdict"] != expect["verdict"]:
        problems.append(f"verdict {payload['verdict']}, expected {expect['verdict']}")
    traces = payload["traces"]
    if len(traces) != expect["traces"]:
        problems.append(f"{len(traces)} traces, expected {expect['traces']}")
    if expect["bump_family"]:
        n = spec["n_max"]
        bound = RATIO_SLACK * math.sqrt(n) / n
        for t in traces:
            if t["verdict"] != "limit-zero":
                problems.append(f"trace at {t['point']} is {t['verdict']}, expected limit-zero")
            if t["final_ratio"] > bound:
                problems.append(f"trace at {t['point']} final ratio {t['final_ratio']} > {bound}")
    if expect["cauchy"] and payload["details"].get("anchor") is not None:
        problems.append(f"anchor {payload['details']['anchor']}, expected none")
    margins = []
    for t in traces:
        csv_path = out_dir / t.get("csv", "")
        if not csv_path.is_file():
            problems.append(f"trace CSV for {t['point']} missing")
            continue
        margins.append(trace_margins(csv_path))
    return problems, margins


def trace_margins(csv_path: Path) -> dict:
    """The three classifier inputs of one trace, each as a share of its threshold.

    ``tail_max`` is the tail maximum over ZERO_TAIL_MAX, ``decay`` the last
    ratio over DECAY_FACTOR times the ratio at the 20% horizon (0 when both
    are 0), ``tail_std`` the tail standard deviation over VALUE_STD_TOL.  A
    share near 1 means the verdict rests on a threshold.
    """
    with open(csv_path, newline="") as fh:
        ratios = [float(row["ratio"]) for row in csv.DictReader(fh)]
    tail = ratios[(len(ratios) * 4) // 5:]
    mean = sum(tail) / len(tail)
    std = math.sqrt(sum((r - mean) ** 2 for r in tail) / len(tail))
    at20 = DECAY_FACTOR * ratios[len(ratios) // 5]
    last = ratios[-1]
    return {"tail_max": max(tail) / ZERO_TAIL_MAX,
            "decay": last / at20 if at20 > 0 else (0.0 if last == 0 else math.inf),
            "tail_std": std / VALUE_STD_TOL}


def _check_library(out_dir: Path, exit_code: int) -> list[str]:
    problems = [] if exit_code == 0 else [f"exit status {exit_code}, expected 0"]
    path = out_dir / "continuity.json"
    if not path.is_file():
        return problems + ["no continuity.json written"]
    result = json.loads(path.read_text())
    for x in result["equi_failed"]:
        problems.append(f"equicontinuity fails at {x}")
    for x in result["limit_failed"]:
        problems.append(f"limit continuity fails at {x}")
    step = result["step"]
    if step["holds"] or step["exhausted"] or step["witness"] is None \
            or abs(step["witness"][1] - 0.5) >= 1e-5:
        problems.append(f"step limit not refuted at 0.5: {step}")
    for label, report in result["reports"].items():
        if report["count"] == 0 or report["failed"]:
            problems.append(f"{label}: {report['count']} reports, failed {report['failed']}")
    return problems
