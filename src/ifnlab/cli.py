"""Batch experiment runner.

Subcommands
    analyze <config>     full convergence detection per the config file
    density <config>     windowed density trace of an index set (trace only)
    axioms <config>      certify the configured operations and graded norm
    reproduce <example>  re-run a bundled benchmark family with defaults

Exit status: 0 converges, 1 fails, 2 inconclusive, 3 configuration error,
4 runtime fault (such as a non-finite term).  ``density`` exits 0 on
completion; ``axioms`` exits 0 only if every report passes.  Config files
are INI: sections [space], [lambda], [sequence], [query], [density],
[output]; see the README for the schema.
"""
from __future__ import annotations

import argparse
import ast
import json
import sys
from configparser import ConfigParser, Error as ConfigParserError
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .algebra import (DomainError, TCONORM_IDS, TNORM_IDS, certify, tconorm, tnorm)
from .convergence import (CAUCHY_MODES, MODES, ConvergenceQuery, ConvergenceVerdict,
                          detect, detect_cauchy)
from .density import (DensityTrace, LAMBDA_IDS, LambdaSequence, density_trace,
                      lambda_family, lambda_from_table, validate)
from .sequences import EXAMPLE_IDS, FunctionSequence, build_example
from .space import NORM_IDS, builtin_norm, certify_ifn, default_samples, default_times, standard_ifn


class ConfigError(Exception):
    """Configuration problem: bad file, bad key, or out-of-range value."""


EXIT_BY_VERDICT = {"converges": 0, "fails": 1, "inconclusive": 2}

_SCHEMA = {
    "space": {"norm", "dimension", "tnorm", "tconorm"},
    "lambda": {"family", "table"},
    "sequence": {"example", "expression", "limit"},
    "query": {"mode", "epsilon", "time", "n_max", "stride",
              "grid_low", "grid_high", "grid_points"},
    "density": {"set", "expression"},
    "output": {"directory"},
}

DENSITY_SETS = ("evens", "odds", "squares", "all", "none")


@dataclass(frozen=True)
class ExperimentConfig:
    """Resolved configuration; ``to_ini`` round-trips through ``from_ini``."""

    norm: str = "abs"
    dimension: int = 1
    tnorm_id: str = "product"
    tconorm_id: str = "bounded-sum"
    lambda_id: str = "identity"
    lambda_table: tuple | None = None
    example: str | None = None
    expression: str | None = None
    limit: str | None = None
    mode: str = "pointwise-lambda-stat"
    epsilon: float = 0.1
    time: float = 1.0
    n_max: int = 1_000_000
    stride: int | None = None
    grid_low: float = 0.0
    grid_high: float = 1.0
    grid_points: int = 101
    density_set: str | None = None
    density_expression: str | None = None
    out_dir: str = "results"

    def to_ini(self) -> str:
        lines = [
            "[space]",
            f"norm = {self.norm}",
            f"dimension = {self.dimension}",
            f"tnorm = {self.tnorm_id}",
            f"tconorm = {self.tconorm_id}",
            "",
            "[lambda]",
        ]
        if self.lambda_table is not None:
            lines.append("table = " + ", ".join(repr(float(v)) for v in self.lambda_table))
        else:
            lines.append(f"family = {self.lambda_id}")
        lines += ["", "[sequence]"]
        if self.example is not None:
            lines.append(f"example = {self.example}")
        if self.expression is not None:
            lines.append(f"expression = {self.expression}")
        if self.limit is not None:
            lines.append(f"limit = {self.limit}")
        lines += [
            "",
            "[query]",
            f"mode = {self.mode}",
            f"epsilon = {self.epsilon!r}",
            f"time = {self.time!r}",
            f"n_max = {self.n_max}",
        ]
        if self.stride is not None:
            lines.append(f"stride = {self.stride}")
        lines += [
            f"grid_low = {self.grid_low!r}",
            f"grid_high = {self.grid_high!r}",
            f"grid_points = {self.grid_points}",
        ]
        if self.density_set is not None or self.density_expression is not None:
            lines += ["", "[density]"]
            if self.density_set is not None:
                lines.append(f"set = {self.density_set}")
            if self.density_expression is not None:
                lines.append(f"expression = {self.density_expression}")
        lines += ["", "[output]", f"directory = {self.out_dir}", ""]
        return "\n".join(lines)


def from_ini(text: str) -> ExperimentConfig:
    """Parse config text, rejecting unknown sections/keys with diagnostics."""
    # interpolation is off: values hold raw formulas where % means modulo
    parser = ConfigParser(interpolation=None)
    try:
        parser.read_string(text)
    except ConfigParserError as exc:
        raise ConfigError(f"cannot parse config: {exc}") from None

    for section in parser.sections():
        if section not in _SCHEMA:
            raise ConfigError(f"unknown section [{section}]")
        for key in parser[section]:
            if key not in _SCHEMA[section]:
                raise ConfigError(f"unknown key {section}.{key}")

    def get(section: str, key: str, default=None):
        if parser.has_option(section, key):
            return parser.get(section, key)
        return default

    def get_num(section: str, key: str, cast, default):
        raw = get(section, key)
        if raw is None:
            return default
        try:
            return cast(raw)
        except ValueError:
            raise ConfigError(f"{section}.{key}: expected a number, got {raw!r}") from None

    table_raw = get("lambda", "table")
    if table_raw is not None and parser.has_option("lambda", "family"):
        raise ConfigError("lambda: give either family or table, not both")
    table = None
    if table_raw is not None:
        try:
            table = tuple(float(part) for part in table_raw.split(","))
        except ValueError:
            raise ConfigError(f"lambda.table: expected comma-separated numbers") from None

    if get("sequence", "example") is not None and get("sequence", "expression") is not None:
        raise ConfigError("sequence: give either example or expression, not both")
    if get("density", "set") is not None and get("density", "expression") is not None:
        raise ConfigError("density: give either set or expression, not both")
    for section, key, variables in (("sequence", "expression", ("k", "x")),
                                    ("sequence", "limit", ("x",)),
                                    ("density", "expression", ("k",))):
        if get(section, key) is not None:  # reject a bad formula at load time
            compile_expression(get(section, key), variables)

    cfg = ExperimentConfig(
        norm=get("space", "norm", "abs"),
        dimension=get_num("space", "dimension", int, 1),
        tnorm_id=get("space", "tnorm", "product"),
        tconorm_id=get("space", "tconorm", "bounded-sum"),
        lambda_id=get("lambda", "family", "identity") if table is None else "table",
        lambda_table=table,
        example=get("sequence", "example"),
        expression=get("sequence", "expression"),
        limit=get("sequence", "limit"),
        mode=get("query", "mode", "pointwise-lambda-stat"),
        epsilon=get_num("query", "epsilon", float, 0.1),
        time=get_num("query", "time", float, 1.0),
        n_max=get_num("query", "n_max", int, 1_000_000),
        stride=get_num("query", "stride", int, None),
        grid_low=get_num("query", "grid_low", float, 0.0),
        grid_high=get_num("query", "grid_high", float, 1.0),
        grid_points=get_num("query", "grid_points", int, 101),
        density_set=get("density", "set"),
        density_expression=get("density", "expression"),
        out_dir=get("output", "directory", "results"),
    )
    _validate_config(cfg)
    return cfg


def load_config(path) -> ExperimentConfig:
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from None
    return from_ini(text)


def _validate_config(cfg: ExperimentConfig) -> None:
    if cfg.norm not in NORM_IDS:
        raise ConfigError(f"space.norm: unknown norm {cfg.norm!r}, choose from {NORM_IDS}")
    if cfg.dimension < 1:
        raise ConfigError(f"space.dimension must be >= 1, got {cfg.dimension}")
    if cfg.norm == "abs" and cfg.dimension != 1:
        raise ConfigError("space.norm abs requires dimension 1")
    if cfg.tnorm_id not in TNORM_IDS:
        raise ConfigError(f"space.tnorm: unknown t-norm {cfg.tnorm_id!r}, choose from {TNORM_IDS}")
    if cfg.tconorm_id not in TCONORM_IDS:
        raise ConfigError(
            f"space.tconorm: unknown t-conorm {cfg.tconorm_id!r}, choose from {TCONORM_IDS}")
    if cfg.lambda_table is None and cfg.lambda_id not in LAMBDA_IDS:
        raise ConfigError(
            f"lambda.family: unknown family {cfg.lambda_id!r}, choose from {LAMBDA_IDS}")
    if cfg.example is not None and cfg.example not in EXAMPLE_IDS:
        raise ConfigError(
            f"sequence.example: unknown example {cfg.example!r}, choose from {EXAMPLE_IDS}")
    if cfg.mode not in MODES:
        raise ConfigError(f"query.mode: unknown mode {cfg.mode!r}, choose from {MODES}")
    if not 0.0 < cfg.epsilon < 1.0:
        raise ConfigError(f"query.epsilon outside (0, 1): {cfg.epsilon}")
    if cfg.time <= 0.0:
        raise ConfigError(f"query.time must be positive: {cfg.time}")
    if cfg.n_max < 10:
        raise ConfigError(f"query.n_max must be >= 10: {cfg.n_max}")
    if cfg.stride is not None and cfg.stride < 1:
        raise ConfigError(f"query.stride must be >= 1: {cfg.stride}")
    if not cfg.grid_low < cfg.grid_high:
        raise ConfigError("query.grid_low must be below query.grid_high")
    if cfg.grid_points < 2:
        raise ConfigError(f"query.grid_points must be >= 2: {cfg.grid_points}")
    if cfg.density_set is not None and cfg.density_set not in DENSITY_SETS:
        raise ConfigError(
            f"density.set: unknown set {cfg.density_set!r}, choose from {DENSITY_SETS}")


_EXPR_NAMES = {
    "sin": np.sin, "cos": np.cos, "tan": np.tan, "exp": np.exp, "log": np.log,
    "sqrt": np.sqrt, "abs": np.abs, "floor": np.floor, "ceil": np.ceil,
    "minimum": np.minimum, "maximum": np.maximum, "where": np.where,
    "pi": np.pi, "e": np.e,
}


# Syntax a config formula may use; attributes, subscripts, comprehensions,
# lambdas and the like are rejected, so no formula can reach Python internals.
_EXPR_NODES = (ast.Expression, ast.Name, ast.Load, ast.Constant, ast.BinOp, ast.operator,
               ast.UnaryOp, ast.unaryop, ast.BoolOp, ast.boolop, ast.Compare, ast.cmpop,
               ast.IfExp, ast.Call)


def _allowed(node: ast.AST) -> bool:
    if isinstance(node, ast.Constant):
        return isinstance(node.value, (int, float, complex))
    if isinstance(node, ast.Call):
        return (isinstance(node.func, ast.Name)
                and callable(_EXPR_NAMES.get(node.func.id)) and not node.keywords)
    return isinstance(node, _EXPR_NODES)


def compile_expression(text: str, variables: tuple):
    """Compile a config formula over the given variables.

    The formula may use numeric constants, the variables, the names in
    ``_EXPR_NAMES``, arithmetic, comparison and boolean operators,
    if-expressions and calls of the whitelisted functions; anything else
    is a ``ConfigError``.
    """
    try:
        tree = ast.parse(text, "<config expression>", mode="eval")
    except SyntaxError as exc:
        raise ConfigError(f"bad expression {text!r}: {exc.msg}") from None
    nodes = list(ast.walk(tree))
    unknown = ({node.id for node in nodes if isinstance(node, ast.Name)}
               - set(_EXPR_NAMES) - set(variables))
    if unknown:
        raise ConfigError(f"expression {text!r} uses unknown names {sorted(unknown)}")
    for node in nodes:
        if not _allowed(node):
            raise ConfigError(f"expression {text!r}: {type(node).__name__} is not allowed")
    code = compile(tree, "<config expression>", "eval")

    def run(**env):
        # non-finite results are reported by the detectors, with (k, x)
        with np.errstate(all="ignore"):
            return eval(code, {"__builtins__": {}}, {**_EXPR_NAMES, **env})

    return run


def _resolve_lambda(cfg: ExperimentConfig) -> LambdaSequence:
    if cfg.lambda_table is not None:
        return lambda_from_table(cfg.lambda_table)
    return lambda_family(cfg.lambda_id)


def _resolve_space(cfg: ExperimentConfig):
    return standard_ifn(builtin_norm(cfg.norm), tnorm(cfg.tnorm_id), tconorm(cfg.tconorm_id))


def _resolve_grid(cfg: ExperimentConfig) -> np.ndarray:
    return np.linspace(cfg.grid_low, cfg.grid_high, cfg.grid_points)


def _resolve_sequence(cfg: ExperimentConfig, lam: LambdaSequence, grid: np.ndarray):
    """Returns (sequence, limit-or-None, preferred-mode-or-None)."""
    if cfg.example is not None:
        fs, limit, preferred = build_example(cfg.example, lam, grid)
        return fs, limit, preferred
    if cfg.expression is None:
        raise ConfigError("sequence: need an example id or an expression")
    term = compile_expression(cfg.expression, ("k", "x"))

    def evaluate_many(ks, x):
        out = np.asarray(term(k=np.asarray(ks, dtype=float), x=float(x)), dtype=float)
        return np.broadcast_to(out, np.asarray(ks).shape).copy()

    def evaluate(k, x):
        return float(evaluate_many(np.array([k]), x)[0])

    fs = FunctionSequence(evaluate, grid, f"expression {cfg.expression!r}", evaluate_many)
    limit = None
    if cfg.limit is not None:
        limit_expr = compile_expression(cfg.limit, ("x",))
        limit = lambda x: float(limit_expr(x=float(x)))
    return fs, limit, None


def _resolve_density_set(cfg: ExperimentConfig):
    """Vectorised membership over an int index array."""
    if cfg.density_set is not None:
        name = cfg.density_set

        def member_many(ks):
            ks = np.asarray(ks)
            if name == "evens":
                return ks % 2 == 0
            if name == "odds":
                return ks % 2 == 1
            if name == "squares":
                roots = np.rint(np.sqrt(ks.astype(float))).astype(np.int64)
                return roots * roots == ks
            if name == "all":
                return np.ones(ks.shape, dtype=bool)
            return np.zeros(ks.shape, dtype=bool)

        return member_many
    if cfg.density_expression is None:
        raise ConfigError("density: need a set name or an expression")
    expr = compile_expression(cfg.density_expression, ("k",))

    def member_many(ks):
        out = np.asarray(expr(k=np.asarray(ks, dtype=np.int64)))
        return np.broadcast_to(out, np.asarray(ks).shape).astype(bool)

    return member_many


def _json_bytes(payload) -> bytes:
    return (json.dumps(payload, sort_keys=True, indent=2, allow_nan=False) + "\n").encode()


def _write_verdict(verdict: ConvergenceVerdict, out: Path) -> Path:
    out.mkdir(parents=True, exist_ok=True)
    payload = verdict.to_json_dict()
    if isinstance(verdict.traces, dict):
        for i, trace in enumerate(verdict.traces.values()):
            name = f"trace_point_{i:03d}.csv"
            trace.to_csv(out / name)
            payload["traces"][i]["csv"] = name
    elif isinstance(verdict.traces, DensityTrace):
        verdict.traces.to_csv(out / "trace.csv")
        payload["traces"][0]["csv"] = "trace.csv"
    target = out / "verdict.json"
    target.write_bytes(_json_bytes(payload))
    return target


def _apply_overrides(cfg: ExperimentConfig, args) -> ExperimentConfig:
    updates = {}
    if getattr(args, "n_max", None) is not None:
        updates["n_max"] = args.n_max
    if getattr(args, "epsilon", None) is not None:
        updates["epsilon"] = args.epsilon
    if getattr(args, "time", None) is not None:
        updates["time"] = args.time
    if getattr(args, "lambda_id", None) is not None:
        updates["lambda_id"] = args.lambda_id
        updates["lambda_table"] = None
    if getattr(args, "stride", None) is not None:
        updates["stride"] = args.stride
    if getattr(args, "out", None) is not None:
        updates["out_dir"] = args.out
    cfg = replace(cfg, **updates)
    _validate_config(cfg)
    return cfg


def _run_detection(cfg: ExperimentConfig):
    """Returns (verdict, limit-or-None)."""
    lam = _resolve_lambda(cfg)
    if cfg.lambda_table is not None:  # the built-in families are admissible
        failed = [r.axiom for r in validate(lam, cfg.n_max) if not r.passed]
        if failed:
            raise ConfigError(f"lambda.table is not admissible: fails {', '.join(failed)}")
    ifn = _resolve_space(cfg)
    grid = _resolve_grid(cfg)
    fs, limit, _ = _resolve_sequence(cfg, lam, grid)
    query = ConvergenceQuery(mode=cfg.mode, epsilon=cfg.epsilon, time=cfg.time,
                             lam=lam, n_max=cfg.n_max, stride=cfg.stride)
    if cfg.mode in CAUCHY_MODES:
        return detect_cauchy(fs, ifn, query), limit
    if limit is None:
        raise ConfigError("sequence.limit is required for non-Cauchy modes")
    return detect(fs, limit, ifn, query), limit


def _cmd_analyze(args) -> int:
    cfg = _apply_overrides(load_config(args.config), args)
    verdict, _ = _run_detection(cfg)
    out = Path(cfg.out_dir)
    path = _write_verdict(verdict, out)
    print(f"mode={verdict.mode} lambda={verdict.lambda_name} epsilon={verdict.epsilon!r} "
          f"time={verdict.time!r} n_max={verdict.n_max}")
    print(f"verdict: {verdict.verdict} ({len(verdict.trace_summaries())} traces)")
    if verdict.witnesses:
        k, x = verdict.witnesses[0]
        print(f"first witness: k={k} x={x!r}")
    print(f"wrote {path}")
    return EXIT_BY_VERDICT[verdict.verdict]


def _cmd_density(args) -> int:
    cfg = _apply_overrides(load_config(args.config), args)
    lam = _resolve_lambda(cfg)
    member_many = _resolve_density_set(cfg)
    mask = np.asarray(member_many(np.arange(1, cfg.n_max + 1)), dtype=bool)
    trace = density_trace(mask, lam, cfg.n_max, cfg.stride)
    out = Path(cfg.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    trace.to_csv(out / "trace.csv")
    payload = {
        "lambda": lam.name,
        "n_max": cfg.n_max,
        "verdict": trace.verdict,
        "estimate": trace.estimate,
        "final_ratio": trace.final_ratio,
        "tail_max": trace.tail_max,
    }
    (out / "density.json").write_bytes(_json_bytes(payload))
    print(f"lambda={lam.name} n_max={cfg.n_max} final_ratio={trace.final_ratio!r} "
          f"verdict={trace.verdict}")
    print(f"wrote {out / 'trace.csv'}")
    return 0


def _cmd_axioms(args) -> int:
    cfg = _apply_overrides(load_config(args.config), args)
    lam = _resolve_lambda(cfg)
    ifn = _resolve_space(cfg)
    groups = {
        f"tnorm:{cfg.tnorm_id}": certify(tnorm(cfg.tnorm_id)),
        f"tconorm:{cfg.tconorm_id}": certify(tconorm(cfg.tconorm_id)),
        f"ifn:{cfg.norm}": certify_ifn(ifn, default_samples(cfg.dimension),
                                       default_times()),
        f"lambda:{lam.name}": validate(lam, min(cfg.n_max, 10_000)),
    }
    all_passed = True
    payload = {}
    for label, reports in groups.items():
        payload[label] = [
            {"axiom": r.axiom, "passed": r.passed, "worst_violation": r.worst_violation}
            for r in reports
        ]
        for r in reports:
            mark = "PASS" if r.passed else "FAIL"
            print(f"{mark} {label} {r.axiom} (worst={r.worst_violation:.3e})")
            all_passed &= r.passed
    out = Path(cfg.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    (out / "axioms.json").write_bytes(_json_bytes(payload))
    return 0 if all_passed else 1


def _reproduce_config(example_arg: str) -> ExperimentConfig:
    alias = {"example-1": "paper-example-1", "example-2": "paper-example-2"}
    example = alias.get(example_arg, example_arg)
    if example not in EXAMPLE_IDS:
        raise ConfigError(f"unknown example {example_arg!r}; choose example-1 or example-2")
    mode = "pointwise-lambda-stat" if example == "paper-example-1" else "uniform-lambda-stat"
    return ExperimentConfig(example=example, mode=mode,
                            out_dir=str(Path("results") / example))


def _cmd_reproduce(args) -> int:
    cfg = _apply_overrides(_reproduce_config(args.example), args)
    verdict, limit = _run_detection(cfg)
    out = Path(cfg.out_dir)
    path = _write_verdict(verdict, out)

    print(f"reproduce {cfg.example}: mode={cfg.mode} lambda={cfg.lambda_id} "
          f"epsilon={cfg.epsilon!r} time={cfg.time!r} n_max={cfg.n_max} "
          f"grid={cfg.grid_points}")
    if isinstance(verdict.traces, dict):
        regions: dict = {}
        for x in _resolve_grid(cfg):
            regions.setdefault(limit(float(x)), []).append(float(x))
        for value in sorted(regions):
            points = regions[value]
            traces = [verdict.traces[p] for p in points]
            ok = all(t.verdict == "limit-zero" for t in traces)
            worst = max(t.final_ratio for t in traces)
            print(f"  region limit={value!r} ({len(points)} points): "
                  f"{'converges' if ok else 'not settled'}, max final ratio {worst:.3e}")
    else:
        trace = verdict.traces
        print(f"  shared trace: {trace.verdict}, final ratio {trace.final_ratio:.3e}")
    print(f"verdict: {verdict.verdict}")
    print(f"wrote {path}")
    return EXIT_BY_VERDICT[verdict.verdict]


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # route argparse failures to exit status 3
        raise ConfigError(message)


def _add_common_flags(sub) -> None:
    sub.add_argument("--n-max", type=int, dest="n_max")
    sub.add_argument("--epsilon", type=float)
    sub.add_argument("--time", type=float)
    sub.add_argument("--lambda", dest="lambda_id", choices=LAMBDA_IDS)
    sub.add_argument("--stride", type=int)
    sub.add_argument("--out")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="ifnlab", description=__doc__,
                     formatter_class=argparse.RawDescriptionHelpFormatter)
    subs = parser.add_subparsers(dest="command", required=True)

    for name, handler in (("analyze", _cmd_analyze), ("density", _cmd_density),
                          ("axioms", _cmd_axioms)):
        sub = subs.add_parser(name)
        sub.add_argument("config")
        _add_common_flags(sub)
        sub.set_defaults(func=handler)

    sub = subs.add_parser("reproduce")
    sub.add_argument("example")
    _add_common_flags(sub)
    sub.set_defaults(func=_cmd_reproduce)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except (ConfigError, DomainError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 3
    except ValueError as exc:  # after DomainError, which subclasses it
        print(f"runtime error: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
