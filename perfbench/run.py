"""Closed-loop batch benchmark of ifnlab, one workload per invocation.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--toy]

Run it from the root of a checkout.  NAME is a workload of workloads.py, or
``all`` to run every workload in turn.  The seed generates the workload's
config and grid.  For S seconds it starts one batch run at a time,
each in a fresh child process (child.py), waits for it, and checks its
outputs.  With ``--trace 0`` the runs are untraced and the end-to-end
metrics are reported; with ``--trace 1`` untraced and traced runs alternate
and the per-layer metrics are reported.  ``--toy`` shrinks every workload to
a few tenths of a second, for the smoke test.

Output: one line per metric, then, as the last line, one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.  The full record
(environment, every sample, classifier margins) is written to
``.bench_work/<workload>/result.json`` beside the last run's outputs.
Exit status: 0 when every run passed its checks, 1 when one did not, 2 when
the checkout holds no ifnlab source.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".bench_work"
CHILD_TIMEOUT_S = 40
MIN_RUNS = 3          # untraced runs per invocation, even past the deadline
MIN_TRACED_RUNS = 2   # traced runs, so exact counts can be compared

END_TO_END = {
    "wall_s": "s",
    "setup_s": "s",
    "terms_per_s": "1/s",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    "sequences.bump_build_s": "s",
    "sequences.bump_members": "count",
    "sequences.eval_s": "s",
    "sequences.eval_calls": "count",
    "sequences.terms_evaluated": "count",
    "sequences.problem_terms": "count",
    "sequences.eval_useful_ratio": "ratio",
    "space.mu_nu_s": "s",
    "space.mu_nu_calls": "count",
    "space.rows": "count",
    "space.scalar_calls": "count",
    "space.bytes_computed": "bytes-computed",
    "density.trace_s": "s",
    "density.trace_calls": "count",
    "density.indices_scanned": "count",
    "convergence.detect_s": "s",
    "convergence.self_s": "s",
    "convergence.anchors_tried": "count",
    "continuity.equi_s": "s",
    "continuity.limit_s": "s",
    "continuity.checks": "count",
    "algebra.certify_s": "s",
    "space.certify_ifn_s": "s",
    "density.validate_s": "s",
    "cli.config_s": "s",
    "cli.write_s": "s",
    "cli.bytes_written": "bytes",
    "proc.cpu_s": "s",
    "proc.cpu_per_wall": "ratio",
    "trace.untraced_wall_s": "s",
    "trace.traced_wall_s": "s",
    "trace.overhead_s": "s",
}


def run_child(spec_path: Path, out_dir: Path, traced: bool) -> dict:
    """Spawn one batch run, wait for it, and return its timings and rusage."""
    log_path = out_dir.with_suffix(".log")
    with open(log_path, "wb") as log:
        t_spawn = time.monotonic()
        proc = subprocess.Popen(
            [sys.executable, str(HERE / "child.py"), str(spec_path), str(out_dir),
             "1" if traced else "0"],
            cwd=ROOT, stdin=subprocess.DEVNULL, stdout=log, stderr=subprocess.STDOUT)
        killed = threading.Event()

        def kill():
            killed.set()
            proc.kill()

        timer = threading.Timer(CHILD_TIMEOUT_S, kill)
        timer.start()
        try:
            # wait4 gives this child's own peak RSS and CPU time
            _, status, usage = os.wait4(proc.pid, 0)
            t_end = time.monotonic()
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        proc.returncode = os.waitstatus_to_exitcode(status)
    record = {"wall_s": t_end - t_spawn, "exit": proc.returncode,
              "peak_rss_mb": usage.ru_maxrss / 1024.0,
              "cpu_s": usage.ru_utime + usage.ru_stime,
              "timed_out": killed.is_set(), "log": str(log_path)}
    child_json = out_dir / "child.json"
    if child_json.is_file():
        child = json.loads(child_json.read_text())
        record["setup_s"] = child["t_ready"] - t_spawn
        record.update({k: v for k, v in child.items() if k != "t_ready"})
    return record


def tail_percentile(values: list[float]):
    """Highest whole percentile with at least ten samples above it, or None."""
    n = len(values)
    if n < 11:
        return None
    p = (100 * (n - 10)) // n
    ordered = sorted(values)
    return p, ordered[min(n - 1, (p * n + 99) // 100 - 1)]


def environment() -> dict:
    def read(path):
        try:
            return Path(path).read_text()
        except OSError:
            return ""

    model = next((line.split(":", 1)[1].strip() for line in read("/proc/cpuinfo").splitlines()
                  if line.startswith("model name")), "unknown")
    l3 = "unknown"
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        if read(index / "level").strip() == "3":
            l3 = read(index / "size").strip()
    commit = None
    head = read(ROOT / ".git" / "HEAD").strip()
    if head.startswith("ref: "):
        commit = read(ROOT / ".git" / head[5:]).strip() or None
    elif head:
        commit = head
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "ifnlab").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    import numpy
    return {"nproc": os.cpu_count(), "cpu_model": model, "l3": l3,
            "python": platform.python_version(), "numpy": numpy.__version__,
            "commit": commit, "src_sha256": digest.hexdigest()}


def run_workload(name: str, seed: int, seconds: float, trace: bool, toy: bool) -> dict:
    import workloads

    work = WORK / name
    shutil.rmtree(work, ignore_errors=True)
    (work / "inputs").mkdir(parents=True)
    spec = workloads.make_spec(name, seed, toy, work / "inputs")
    spec_path = work / "inputs" / "spec.json"
    spec_path.write_text(json.dumps(spec, indent=2))

    # fill the bytecode and page caches before anything is timed
    subprocess.run([sys.executable, "-c", "import sys; sys.path.insert(0, 'src'); "
                    "import ifnlab.cli"], cwd=ROOT, check=True)

    runs, problems, margins = [], [], []
    previous = None
    deadline = time.monotonic() + seconds
    while True:
        round_start = time.monotonic()
        for traced in ((False, True) if trace else (False,)):
            out = work / f"run-{len(runs):03d}"
            rec = run_child(spec_path, out, traced)
            rec["traced"] = traced
            found, trace_margins = workloads.check(spec, out, rec["exit"], traced)
            if rec["timed_out"]:
                found.insert(0, f"timed out after {CHILD_TIMEOUT_S} s")
            if "setup_s" not in rec:
                found.append("no child.json written")
            rec["problems"] = found
            problems += [f"run {len(runs)}: {p}" for p in found]
            margins += trace_margins
            runs.append(rec)
            if previous is not None:   # keep only the last run's outputs
                shutil.rmtree(previous, ignore_errors=True)
            previous = out
        plain = sum(1 for r in runs if not r["traced"])
        enough = plain >= MIN_RUNS and (not trace or len(runs) - plain >= MIN_TRACED_RUNS)
        # stop when another round like the last would end past the deadline;
        # after a failure the minimum run counts no longer apply
        now = time.monotonic()
        if (enough or problems) and now + (now - round_start) > deadline:
            break

    problems += check_exact_counts(runs)
    good = [r for r in runs if not r["problems"]]
    plain = [r for r in good if not r["traced"]]
    traced = [r for r in good if r["traced"]]
    result = {"workload": name, "seed": seed, "seconds": seconds, "trace": trace, "toy": toy,
              "environment": environment(), "attempted": len(runs),
              "failed": len(runs) - len(good), "problems": problems,
              "margins": _margin_summary(margins), "runs": runs}
    if plain and (traced or not trace):
        result["metrics"] = per_layer(plain, traced) if trace else end_to_end(spec, plain)
    (work / "result.json").write_text(json.dumps(result, indent=2, default=str))
    return result


def end_to_end(spec: dict, runs: list[dict]) -> dict:
    return {
        "wall_s": statistics.median(r["wall_s"] for r in runs),
        "setup_s": statistics.median(r["setup_s"] for r in runs),
        "terms_per_s": statistics.median(spec["problem_terms"] / r["solve_s"] for r in runs),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in runs),
    }


def check_exact_counts(runs: list[dict]) -> list[str]:
    """Counts must repeat exactly between traced runs of the same inputs.

    A traced run whose counts differ from the first traced run's is failed.
    """
    traced = [r for r in runs if "layers" in r]
    problems = []
    for r in traced[1:]:
        for key, value in r["layers"].items():
            first = traced[0]["layers"][key]
            if PER_LAYER[key] != "s" and value != first:
                r["problems"].append(f"{key} is {value}, {first} in the first traced run")
                problems.append(f"run {runs.index(r)}: {r['problems'][-1]}")
    return problems


def per_layer(plain: list[dict], traced: list[dict]) -> dict:
    metrics = {}
    for key, values in ((k, [r["layers"][k] for r in traced]) for k in traced[0]["layers"]):
        metrics[key] = statistics.median(values) if PER_LAYER[key] == "s" else values[0]
    untraced = statistics.median(r["wall_s"] for r in plain)
    traced_wall = statistics.median(r["wall_s"] - r.get("probe_s", 0.0) for r in traced)
    metrics.update({
        "proc.cpu_s": statistics.median(r["cpu_s"] for r in plain),
        "proc.cpu_per_wall": statistics.median(r["cpu_s"] / r["wall_s"] for r in plain),
        "trace.untraced_wall_s": untraced,
        "trace.traced_wall_s": traced_wall,
        "trace.overhead_s": traced_wall - untraced,
    })
    return {key: metrics[key] for key in PER_LAYER}


def _margin_summary(margins: list[dict]) -> dict:
    return {key: [min(m[key] for m in margins), max(m[key] for m in margins)]
            for key in ("tail_max", "decay", "tail_std")} if margins else {}


def report(result: dict) -> list[str]:
    """Human-readable lines for one workload's result."""
    name, runs = result["workload"], result["runs"]
    lines = [f"{name} seed {result['seed']}: {result['attempted']} runs, "
             f"{result['failed']} failed, error_rate {result['failed']}/{result['attempted']}"]
    units = PER_LAYER if result["trace"] else END_TO_END
    walls = [r["wall_s"] for r in runs if not r["traced"] and not r["problems"]]
    for key, value in result.get("metrics", {}).items():
        line = f"  {key} = {value:.6g} {units[key]}"
        if key == "wall_s":
            tail = tail_percentile(walls)
            line += (f" (median of {len(walls)}; p{tail[0]} {tail[1]:.6g} s)" if tail else
                     f" (median of {len(walls)}; no tail percentile below 11 samples)")
        lines.append(line)
    for key, (low, high) in result["margins"].items():
        lines.append(f"  classifier margin {key}/threshold: {low:.3g} .. {high:.3g}")
    traced = [r for r in runs if "layers" in r]
    if traced:  # the last traced run's detector span, split into child spans and self time
        r = traced[-1]
        for detector, children in r["detector_children"].items():
            if children:
                parts = " + ".join(f"{k} {v['total_s']:.4f}" for k, v in children.items())
                lines.append(f"  {detector} {r['layers']['convergence.detect_s']:.4f} s = "
                             f"{parts} + self {r['layers']['convergence.self_s']:.4f}")
    for problem in result["problems"][:10]:
        lines.append(f"  PROBLEM {problem}")
    env = result["environment"]
    lines.append("  env " + json.dumps(env, sort_keys=True))
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--toy", action="store_true")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "ifnlab" / "__init__.py").is_file():
        print(f"perfbench: no ifnlab source under {ROOT / 'src'}; "
              "run from the root of a full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import workloads

    names = workloads.NAMES if args.workload == "all" else (args.workload,)
    if any(n not in workloads.NAMES for n in names):
        parser.error(f"unknown workload {args.workload!r}; choose from {workloads.NAMES} or all")

    attempted = failed = 0
    metrics = {}
    for name in names:
        result = run_workload(name, args.seed, args.seconds, bool(args.trace), args.toy)
        print("\n".join(report(result)), flush=True)
        attempted += result["attempted"]
        failed += result["failed"]
        units = PER_LAYER if args.trace else END_TO_END
        prefix = f"{name}." if len(names) > 1 else ""
        for key, value in result.get("metrics", {}).items():
            metrics[prefix + key] = {"value": value, "unit": units[key]}
        if "metrics" not in result:
            failed = max(failed, 1)
    correct = failed == 0
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
