"""One batch run of a benchmark workload, in a process of its own.

    python3 perfbench/child.py SPEC OUT_DIR TRACE

SPEC is the JSON spec that run.py generated, OUT_DIR a fresh output
directory and TRACE 0 or 1.  Detector workloads run ``ifnlab analyze`` through
``ifnlab.cli.main``; the continuity workload calls the library.  The run
writes OUT_DIR/child.json and exits with the run's own exit status.

Untraced runs only take timestamps: ``time.monotonic()`` when the config is
loaded (set-up done; the parent took the same clock at the spawn) and
around the solving call.  Traced runs wrap the public callables of each
layer (see tracer.py).  A traced detector run then also times two layer
probes that its own path does not reach or that should be timed alone: a
standalone bump-set build at the workload's n_max, and the continuity
harness with certification and ladder validation at a few grid points.
"""
from __future__ import annotations

import dataclasses
import json
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import numpy as np  # noqa: E402

import ifnlab  # noqa: E402
import ifnlab.cli as cli  # noqa: E402
import ifnlab.convergence as convergence  # noqa: E402
from tracer import Tracer, count_degrees, count_scanned, count_terms  # noqa: E402


def _timed(fn, record: dict):
    def timed(*args, **kwargs):
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            record["solve_s"] = time.perf_counter() - start
    return timed


def _traced_sequence(tracer, fs):
    return dataclasses.replace(
        fs,
        evaluate=tracer.wrap("sequences.evaluate", fs.evaluate, count_terms),
        evaluate_many=(None if fs.evaluate_many is None else
                       tracer.wrap("sequences.evaluate_many", fs.evaluate_many, count_terms)))


def _traced_space(tracer, ifn):
    return dataclasses.replace(ifn, mu=tracer.wrap("space.mu", ifn.mu, count_degrees),
                               nu=tracer.wrap("space.nu", ifn.nu, count_degrees))


def run_cli(spec: dict, out_dir: Path, tracer, record: dict) -> int:
    load_config = cli.load_config
    if tracer is not None:
        load_config = tracer.wrap("cli.load_config", load_config)
        cli.detect = tracer.wrap("convergence.detect", cli.detect)
        cli.detect_cauchy = tracer.wrap("convergence.detect_cauchy", cli.detect_cauchy)
        convergence.density_trace = tracer.wrap("density.density_trace",
                                                convergence.density_trace, count_scanned)
        cli._write_verdict = tracer.wrap("cli.write_verdict", cli._write_verdict)
        standard_ifn, build_example = cli.standard_ifn, cli.build_example
        sequence = cli.FunctionSequence

        def traced_example(*args, **kwargs):
            fs, limit, mode = build_example(*args, **kwargs)
            return _traced_sequence(tracer, fs), limit, mode

        cli.standard_ifn = lambda *a, **k: _traced_space(tracer, standard_ifn(*a, **k))
        cli.build_example = traced_example
        cli.FunctionSequence = lambda *a, **k: _traced_sequence(tracer, sequence(*a, **k))

    def ready(path):
        cfg = load_config(path)
        record["t_ready"] = time.monotonic()
        return cfg

    cli.load_config = ready
    cli.detect = _timed(cli.detect, record)
    cli.detect_cauchy = _timed(cli.detect_cauchy, record)
    code = cli.main(["analyze", spec["config"], "--out", str(out_dir)])
    if tracer is not None:
        record["bytes_written"] = sum(p.stat().st_size for p in out_dir.iterdir())
    return code


def run_probes(spec: dict, out_dir: Path, tracer, record: dict) -> None:
    """Layer probes of a traced detector run; their time is kept out of the overhead."""
    start = time.perf_counter()
    bumps = ifnlab.BumpIndexSet(ifnlab.lambda_family("identity"))
    tracer.span("sequences.bump_build", bumps.ensure, spec["n_max"])
    record["bump_members"] = int(np.count_nonzero(bumps.mask(spec["n_max"])))
    # the probe's own mu/nu and term calls stay untraced, so the workload's
    # sequences and space counts are its own
    probe_dir = out_dir / "probe"
    probe_dir.mkdir()
    run_library(spec["probe"], probe_dir, tracer, {}, trace_calls=False)
    record["probe_s"] = time.perf_counter() - start


def run_library(spec: dict, out_dir: Path, tracer, record: dict, trace_calls=True) -> int:
    record["t_ready"] = time.monotonic()
    grid = np.array(spec["grid"])
    space = ifnlab.standard_ifn(ifnlab.builtin_norm("abs"), ifnlab.tnorm("product"),
                                ifnlab.tconorm("bounded-sum"))
    fs, limit = ifnlab.build_reciprocal_shift(grid)
    equi, lim = ifnlab.check_equicontinuity, ifnlab.check_limit_continuity
    certify, certify_ifn, validate = ifnlab.certify, ifnlab.certify_ifn, ifnlab.validate
    if tracer is not None:
        if trace_calls:
            space, fs = _traced_space(tracer, space), _traced_sequence(tracer, fs)
        equi = tracer.wrap("continuity.check_equicontinuity", equi)
        lim = tracer.wrap("continuity.check_limit_continuity", lim)
        certify = tracer.wrap("algebra.certify", certify)
        certify_ifn = tracer.wrap("space.certify_ifn", certify_ifn)
        validate = tracer.wrap("density.validate", validate)

    def query(x):
        return ifnlab.ContinuityQuery(point=float(x), epsilon=spec["epsilon"], time=spec["time"],
                                      delta_grid=tuple(spec["delta_grid"]),
                                      probe_radii=tuple(spec["probe_radii"]))

    start = time.perf_counter()
    equi_failed = [float(x) for x in grid
                   if not equi(fs, space, space, query(x), k_max=spec["k_max"]).holds]
    limit_failed = [float(x) for x in grid if not lim(limit, space, space, query(x)).holds]
    _, step, _ = ifnlab.build_example("paper-example-1", ifnlab.lambda_family("identity"), grid)
    refuted = lim(step, space, space, query(spec["step_point"]))
    record["solve_s"] = time.perf_counter() - start

    reports = {f"op:{name}": certify(ifnlab.builtin_op(name),
                                     grid_resolution=spec["certify_resolution"])
               for name in ifnlab.TNORM_IDS + ifnlab.TCONORM_IDS}
    for norm, dim in (("abs", 1), ("euclidean", 2)):
        ifn = ifnlab.standard_ifn(ifnlab.builtin_norm(norm), ifnlab.tnorm("product"),
                                  ifnlab.tconorm("bounded-sum"))
        if tracer is not None and trace_calls:
            ifn = _traced_space(tracer, ifn)
        reports[f"ifn:{norm}"] = certify_ifn(
            ifn, ifnlab.default_samples(dim, 50, seed=spec["sample_seed"]),
            ifnlab.default_times(20))
    for name in ifnlab.LAMBDA_IDS:
        reports[f"lambda:{name}"] = validate(ifnlab.lambda_family(name), spec["validate_n_max"])

    result = {
        "equi_failed": equi_failed,
        "limit_failed": limit_failed,
        "step": {"holds": refuted.holds, "exhausted": refuted.exhausted,
                 "witness": refuted.witness},
        "reports": {label: {"count": len(rs), "failed": [r.axiom for r in rs if not r.passed]}
                    for label, rs in reports.items()},
    }
    (out_dir / "continuity.json").write_text(json.dumps(result, indent=2))
    return 0


def layer_metrics(tracer, spec: dict, record: dict) -> dict:
    """Per-layer metrics of one traced run, named as in BENCHMARK.json."""
    spans = tracer.summary()
    counts = tracer.counts

    def total(*names):
        return sum(spans[n]["total_s"] for n in names if n in spans)

    def calls(*names):
        return sum(spans[n]["calls"] for n in names if n in spans)

    detectors = ("convergence.detect", "convergence.detect_cauchy")
    terms = counts["sequences.terms_evaluated"]
    anchors = tracer.children("convergence.detect_cauchy").get("density.density_trace", {})
    return {
        "sequences.bump_build_s": total("sequences.bump_build"),
        "sequences.bump_members": record.get("bump_members", 0),
        "sequences.eval_s": total("sequences.evaluate", "sequences.evaluate_many"),
        "sequences.eval_calls": calls("sequences.evaluate", "sequences.evaluate_many"),
        "sequences.terms_evaluated": terms,
        "sequences.problem_terms": spec["problem_terms"],
        "sequences.eval_useful_ratio": spec["problem_terms"] / terms if terms else 0.0,
        "space.mu_nu_s": total("space.mu", "space.nu"),
        "space.mu_nu_calls": calls("space.mu", "space.nu"),
        "space.rows": counts["space.rows"],
        "space.scalar_calls": counts["space.scalar_calls"],
        "space.bytes_computed": counts["space.bytes_computed"],
        "density.trace_s": total("density.density_trace"),
        "density.trace_calls": calls("density.density_trace"),
        "density.indices_scanned": counts["density.indices_scanned"],
        "convergence.detect_s": total(*detectors),
        "convergence.self_s": sum(spans[n]["self_s"] for n in detectors if n in spans),
        "convergence.anchors_tried": anchors.get("calls", 0),
        "continuity.equi_s": total("continuity.check_equicontinuity"),
        "continuity.limit_s": total("continuity.check_limit_continuity"),
        "continuity.checks": calls("continuity.check_equicontinuity",
                                   "continuity.check_limit_continuity"),
        "algebra.certify_s": total("algebra.certify"),
        "space.certify_ifn_s": total("space.certify_ifn"),
        "density.validate_s": total("density.validate"),
        "cli.config_s": total("cli.load_config"),
        "cli.write_s": total("cli.write_verdict"),
        "cli.bytes_written": record.get("bytes_written", 0),
    }


def main(argv) -> int:
    spec_path, out_dir, trace = argv
    spec = json.loads(Path(spec_path).read_text())
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True)
    record = {}
    tracer = Tracer() if trace == "1" else None
    if spec["kind"] == "library":
        code = run_library(spec, out_dir, tracer, record)
    else:
        code = run_cli(spec, out_dir, tracer, record)
        if tracer is not None:
            run_probes(spec, out_dir, tracer, record)
    if tracer is not None:
        record["layers"] = layer_metrics(tracer, spec, record)
        record["detector_children"] = {
            name: tracer.children(name)
            for name in ("convergence.detect", "convergence.detect_cauchy")}
        tracer.write(out_dir / "spans.npz")
    (out_dir / "child.json").write_text(json.dumps(record))
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
