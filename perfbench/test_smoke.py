"""Toy-size checks of the benchmark itself.

    python3 -m pytest -q perfbench/test_smoke.py

Every workload, also those BENCHMARK.json leaves out, runs at toy size
(``--toy``) with tracing off and on; each run must pass every output check
and emit exactly the metrics BENCHMARK.json names, with their units.  A copy of the benchmark without the ifnlab source
must fail without printing a result.
"""
import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
COMMAND = [sys.executable] + SPEC["command"][1:]

sys.path[:0] = [str(HERE), str(ROOT / "src")]
import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402


@pytest.mark.parametrize("trace, section", [(0, "end_to_end"), (1, "per_layer")])
@pytest.mark.parametrize("workload", workloads.NAMES)
def test_toy_run_passes_and_emits_every_metric(workload, trace, section):
    out = subprocess.run(COMMAND + ["--workload", workload, "--seed", "7", "--seconds", "0.5",
                                    "--trace", str(trace), "--toy"],
                         cwd=ROOT, capture_output=True, text=True, timeout=180)
    assert out.returncode == 0, out.stdout + out.stderr
    result = json.loads(out.stdout.splitlines()[-1])
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    emitted = {name: m["unit"] for name, m in result["metrics"].items()}
    assert emitted == {m["name"]: m["unit"] for m in SPEC[section]}


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path,
                        ignore=shutil.ignore_patterns("__pycache__"))
    out = subprocess.run(COMMAND + ["--workload", SPEC["workloads"][0]["name"], "--seed", "1",
                                    "--seconds", "1", "--trace", "0"],
                         cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert out.returncode != 0
    assert '"metrics"' not in out.stdout


def test_self_time_is_span_minus_children():
    tracer = Tracer()
    leaf = tracer.wrap("leaf", lambda: time.sleep(0.01))

    def outer():
        leaf()
        leaf()
        time.sleep(0.01)

    tracer.span("outer", outer)
    spans = tracer.summary()
    assert spans["leaf"]["calls"] == 2
    children = tracer.children("outer")["leaf"]["total_s"]
    assert children == pytest.approx(spans["leaf"]["total_s"])
    assert spans["outer"]["self_s"] == pytest.approx(spans["outer"]["total_s"] - children)
    assert spans["outer"]["self_s"] >= 0.01
