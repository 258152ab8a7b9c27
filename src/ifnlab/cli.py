"""Batch experiment runner.

Subcommands
    analyze <config>     full convergence detection per the config file
    density <config>     windowed density trace of an index set (trace only)
    axioms <config>      certify the configured operations and graded norm
    reproduce <example>  re-run a bundled benchmark family with defaults

Exit status: 0 converges, 1 fails, 2 inconclusive, 3 configuration error,
4 runtime fault (any other error, such as a non-finite term).  ``density``
exits 0 on completion; ``axioms`` exits 0 only if every report passes.
Config files are INI (see the README for the schema); a key left out keeps
its default, and the flags override the config.
"""
from __future__ import annotations

import argparse
import ast
import functools
import json
import sys
from configparser import ConfigParser, Error as ConfigParserError
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .algebra import (LEVEL_MIN, DomainError, TCONORM_IDS, TNORM_IDS, certify, tconorm, tnorm)
from .convergence import (CAUCHY_MODES, MODES, ConvergenceQuery, ConvergenceVerdict,
                          detect, detect_cauchy)
from .density import (LAMBDA_IDS, LambdaSequence, density_trace, lambda_family,
                      lambda_from_table, validate)
from .sequences import _EXAMPLES, EXAMPLE_IDS, FunctionSequence, build_example
from .space import NORM_IDS, builtin_norm, certify_ifn, default_samples, default_times, standard_ifn


class ConfigError(Exception):
    """Configuration problem: bad file, bad key, or out-of-range value."""


EXIT_BY_VERDICT = {"converges": 0, "fails": 1, "inconclusive": 2}

# The named index sets of [density] are shorthand for these formulas in k
# (``floor(sqrt(k)) ** 2 == k`` is exact for k < 2**52).
DENSITY_SETS = {
    "evens": "k % 2 == 0",
    "odds": "k % 2 == 1",
    "squares": "floor(sqrt(k)) ** 2 == k",
    "all": "k >= 1",
    "none": "k < 1",
}


def _floats(raw: str) -> tuple:
    return tuple(float(part) for part in raw.split(","))


# The INI schema, one row per key: (section, key, ExperimentConfig field, parser).
# Parsing, to_ini, the messages and the flag overrides read it; defaults live in
# ExperimentConfig.
_KEYS = (
    ("space", "norm", "norm", str),
    ("space", "dimension", "dimension", int),
    ("space", "tnorm", "tnorm_id", str),
    ("space", "tconorm", "tconorm_id", str),
    ("lambda", "family", "lambda_id", str),
    ("lambda", "table", "lambda_table", _floats),
    ("sequence", "example", "example", str),
    ("sequence", "expression", "expression", str),
    ("sequence", "limit", "limit", str),
    ("query", "mode", "mode", str),
    ("query", "epsilon", "epsilon", float),
    ("query", "time", "time", float),
    ("query", "n_max", "n_max", int),
    ("query", "stride", "stride", int),
    ("query", "grid_low", "grid_low", float),
    ("query", "grid_high", "grid_high", float),
    ("query", "grid_points", "grid_points", int),
    ("density", "set", "density_set", str),
    ("density", "expression", "density_expression", str),
    ("output", "directory", "out_dir", str),
)

# Fields that must name a known id: field -> (noun in the message, the ids).
_CHOICES = {
    "norm": ("norm", NORM_IDS),
    "tnorm_id": ("t-norm", TNORM_IDS),
    "tconorm_id": ("t-conorm", TCONORM_IDS),
    "lambda_id": ("family", LAMBDA_IDS),
    "example": ("example", EXAMPLE_IDS),
    "mode": ("mode", MODES),
    "density_set": ("set", tuple(DENSITY_SETS)),
}


def _ini_text(value) -> str:
    if isinstance(value, tuple):
        return ", ".join(repr(float(v)) for v in value)
    return repr(value) if isinstance(value, float) else str(value)


@dataclass(frozen=True)
class ExperimentConfig:
    """Resolved configuration; ``to_ini`` round-trips through ``from_ini``.

    These defaults are the only ones: a key missing from the INI file keeps
    its default here.  Construction validates every field, so ``replace``
    cannot build an invalid config either.
    """

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

    def __post_init__(self):
        for section, key, name, value in self._given():
            if name in _CHOICES and value not in _CHOICES[name][1]:
                noun, ids = _CHOICES[name]
                raise ConfigError(f"{section}.{key}: unknown {noun} {value!r}, choose from {ids}")
        for ok, message in (
            (self.dimension >= 1, f"space.dimension must be >= 1, got {self.dimension}"),
            (self.norm != "abs" or self.dimension == 1, "space.norm abs requires dimension 1"),
            (LEVEL_MIN <= self.epsilon < 1.0,
             f"query.epsilon outside [{LEVEL_MIN!r}, 1): {self.epsilon}"),
            (0.0 < self.time < np.inf, f"query.time must be positive and finite: {self.time}"),
            (self.n_max >= 10, f"query.n_max must be >= 10: {self.n_max}"),
            (self.stride is None or self.stride >= 1, f"query.stride must be >= 1: {self.stride}"),
            (self.grid_low < self.grid_high, "query.grid_low must be below query.grid_high"),
            (self.grid_points >= 2, f"query.grid_points must be >= 2: {self.grid_points}"),
            (self.example is None or 0.0 <= self.grid_low and self.grid_high <= 1.0,
             f"query.grid_low/grid_high: the bundled examples are defined on [0, 1], "
             f"got [{self.grid_low!r}, {self.grid_high!r}]"),
            (self.example is None or self.expression is None,
             "sequence: give either example or expression, not both"),
            (self.density_set is None or self.density_expression is None,
             "density: give either set or expression, not both"),
        ):
            if not ok:
                raise ConfigError(message)
        for text, variables in ((self.expression, ("k", "x")), (self.limit, ("x",)),
                                (self.density_expression, ("k",))):
            if text is not None:  # reject a bad formula before any run starts
                compile_expression(text, variables)

    def _given(self):
        """(section, key, field, value) of every key set; a table stands in for the family."""
        for section, key, name, _ in _KEYS:
            value = getattr(self, name)
            if value is not None and not (name == "lambda_id" and self.lambda_table is not None):
                yield section, key, name, value

    def to_ini(self) -> str:
        sections: dict = {}
        for section, key, _, value in self._given():
            sections.setdefault(section, []).append(f"{key} = {_ini_text(value)}")
        return "\n".join(f"[{section}]\n" + "".join(f"{line}\n" for line in lines)
                         for section, lines in sections.items())


def from_ini(text: str) -> ExperimentConfig:
    """Parse config text, rejecting unknown sections/keys with diagnostics."""
    # interpolation is off: values hold raw formulas where % means modulo
    parser = ConfigParser(interpolation=None)
    try:
        parser.read_string(text)
    except ConfigParserError as exc:
        raise ConfigError(f"cannot parse config: {exc}") from None

    if parser.defaults():  # ConfigParser would copy these keys into every section
        raise ConfigError(f"unknown section [{parser.default_section}]")
    rows = {(section, key): (name, parse) for section, key, name, parse in _KEYS}
    values = {}
    for section in parser.sections():
        if section not in {row[0] for row in _KEYS}:
            raise ConfigError(f"unknown section [{section}]")
        for key, raw in parser[section].items():
            if (section, key) not in rows:
                raise ConfigError(f"unknown key {section}.{key}")
            name, parse = rows[section, key]
            try:
                values[name] = parse(raw)
            except ValueError:
                raise ConfigError(f"{section}.{key}: expected a number, got {raw!r}") from None
    if "lambda_table" in values:
        if "lambda_id" in values:
            raise ConfigError("lambda: give either family or table, not both")
        values["lambda_id"] = "table"
    return ExperimentConfig(**values)


def load_config(path) -> ExperimentConfig:
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from None
    return from_ini(text)


_EXPR_NAMES = {
    "sin": np.sin, "cos": np.cos, "tan": np.tan, "exp": np.exp, "log": np.log,
    "sqrt": np.sqrt, "abs": np.abs, "floor": np.floor, "ceil": np.ceil,
    "minimum": np.minimum, "maximum": np.maximum, "where": np.where,
    "pi": np.pi, "e": np.e,
}


# Syntax a config formula may use: arithmetic (+ - * / // % **), unary + - not,
# comparison and boolean operators, if-expressions and calls.  Attributes,
# subscripts, comprehensions, lambdas, and shift, bitwise and matrix operators
# are rejected, so no formula can reach Python internals.
_EXPR_NODES = (ast.Expression, ast.Name, ast.Load, ast.Constant, ast.BinOp,
               ast.Add, ast.Sub, ast.Mult, ast.Div, ast.FloorDiv, ast.Mod, ast.Pow,
               ast.UnaryOp, ast.UAdd, ast.USub, ast.Not, ast.BoolOp, ast.boolop,
               ast.Compare, ast.cmpop, ast.IfExp, ast.Call)


def _allowed(node: ast.AST) -> bool:
    if isinstance(node, ast.Constant):
        return isinstance(node.value, (int, float, complex))
    if isinstance(node, ast.Call):
        return (isinstance(node.func, ast.Name)
                and callable(_EXPR_NAMES.get(node.func.id)) and not node.keywords)
    return isinstance(node, _EXPR_NODES)


# numpy's forms of and/or/not, under names no formula can spell: a formula's
# names are checked against ``_EXPR_NAMES`` and its variables first.
_TRUTH_OPS = {"_and": np.logical_and, "_or": np.logical_or, "_not": np.logical_not}


def _truth_valued(node: ast.AST) -> ast.AST:
    """``node`` with each and/or/not in truth-value position as a ``_TRUTH_OPS`` call.

    Those are ``node`` itself and the operands of such nodes: only their
    truth is read, which numpy's logical functions give index by index.  A
    chained comparison there, ``a < b < c``, is the ``_and`` of its links.
    """
    if isinstance(node, ast.Compare) and len(node.ops) > 1:
        operands = [node.left, *node.comparators]
        node = ast.BoolOp(ast.And(), [ast.Compare(a, [op], [b]) for a, op, b
                                      in zip(operands, node.ops, operands[1:])])
    if isinstance(node, ast.BoolOp):
        op = "_and" if isinstance(node.op, ast.And) else "_or"
        return functools.reduce(lambda a, b: ast.Call(ast.Name(op, ast.Load()), [a, b], []),
                                map(_truth_valued, node.values))
    if isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.Not):
        return ast.Call(ast.Name("_not", ast.Load()), [_truth_valued(node.operand)], [])
    return node


def compile_expression(text: str, variables: tuple, truth: bool = False):
    """Compile a config formula over the given variables.

    The formula may use numeric constants, the variables, the names in
    ``_EXPR_NAMES`` and the syntax in ``_EXPR_NODES``; anything else is a
    ``ConfigError``.  Integer constants become floats, so no formula runs
    unbounded integer arithmetic such as ``9**9**9``.  A ``truth`` formula
    is read as a truth value: once it is checked, its and/or/not and chained
    comparisons in truth-value position become numpy's logical functions
    (``_truth_valued``), so it answers an index array at once.
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
        if isinstance(node, ast.Constant) and type(node.value) is int:
            try:
                node.value = float(node.value)
            except OverflowError:
                raise ConfigError(f"expression {text!r}: integer constant too large") from None
    names = _EXPR_NAMES
    if truth:
        tree.body, names = _truth_valued(tree.body), {**_EXPR_NAMES, **_TRUTH_OPS}
        ast.fix_missing_locations(tree)
    code = compile(tree, "<config expression>", "eval")

    def run(**env):
        # non-finite results are reported by the detectors, with (k, x)
        with np.errstate(all="ignore"):
            return eval(code, {"__builtins__": {}}, {**names, **env})

    return run


def _resolve_lambda(cfg: ExperimentConfig) -> LambdaSequence:
    if cfg.lambda_table is not None:
        return lambda_from_table(cfg.lambda_table)
    return lambda_family(cfg.lambda_id)


def _admissible_lambda(cfg: ExperimentConfig) -> LambdaSequence:
    """The configured ladder for a run; a table ladder must pass ``validate``."""
    lam = _resolve_lambda(cfg)
    if cfg.lambda_table is not None:  # the built-in families are admissible
        failed = [r.axiom for r in validate(lam, cfg.n_max) if not r.passed]
        if failed:
            raise ConfigError(f"lambda.table is not admissible: fails {', '.join(failed)}")
    return lam


def _resolve_space(cfg: ExperimentConfig):
    return standard_ifn(builtin_norm(cfg.norm), tnorm(cfg.tnorm_id), tconorm(cfg.tconorm_id))


def _resolve_sequence(cfg: ExperimentConfig, lam: LambdaSequence, grid: np.ndarray):
    """Returns (sequence, limit-or-None)."""
    if cfg.example is not None:
        fs, limit, _ = build_example(cfg.example, lam, grid)
        return fs, limit
    if cfg.expression is None:
        raise ConfigError("sequence: need an example id or an expression")
    term = compile_expression(cfg.expression, ("k", "x"))

    def evaluate(ks, x):
        # One point as a number, so that a truth value of x works point by point.  The
        # answer is the expression's own array when it has the block's shape and owns its
        # data, else a copy: it may broadcast, or be ks or x (say x on a one-index block).
        # The float ks dies before any copy: held, it makes glibc trim the heap every block.
        x, k = np.asarray(x, dtype=float), np.asarray(ks, dtype=float)
        out = np.asarray(term(k=k, x=x if x.ndim else float(x)), dtype=float)
        shape = np.broadcast(ks, x).shape
        own = out.flags.owndata and out is not ks and out is not x
        del k
        return out if own and out.shape == shape else np.broadcast_to(out, shape).copy()

    fs = FunctionSequence(evaluate, grid, f"expression {cfg.expression!r}")
    limit = None
    if cfg.limit is not None:
        limit_expr = compile_expression(cfg.limit, ("x",))
        limit = lambda x: float(limit_expr(x=float(x)))
    return fs, limit


def _resolve_density_set(cfg: ExperimentConfig):
    """Membership predicate of the configured index set, answered in the shape of k."""
    text = (cfg.density_expression if cfg.density_set is None
            else DENSITY_SETS[cfg.density_set])
    if text is None:
        raise ConfigError("density: need a set name or an expression")
    # k as an array, so division by zero is numpy's
    member = compile_expression(text, ("k",), truth=True)
    return lambda ks: np.broadcast_to(member(k=np.asarray(ks)), np.shape(ks))


def _json_bytes(payload) -> bytes:
    return (json.dumps(payload, sort_keys=True, indent=2, allow_nan=False) + "\n").encode()


def _write_verdict(verdict: ConvergenceVerdict, out: Path) -> Path:
    out.mkdir(parents=True, exist_ok=True)
    payload = verdict.to_json_dict()
    for i, (point, trace) in enumerate(verdict._point_traces()):
        name = "trace.csv" if point is None else f"trace_point_{i:03d}.csv"
        trace.to_csv(out / name)
        payload["traces"][i]["csv"] = name
    target = out / "verdict.json"
    target.write_bytes(_json_bytes(payload))
    return target


def _apply_overrides(cfg: ExperimentConfig, args) -> ExperimentConfig:
    """Apply the flags given; each flag's dest is the config field it sets."""
    fields = {row[2] for row in _KEYS}
    updates = {name: value for name, value in vars(args).items()
               if name in fields and value is not None}
    if "lambda_id" in updates:  # a --lambda family replaces a table ladder
        updates["lambda_table"] = None
    return replace(cfg, **updates)


def _run_detection(cfg: ExperimentConfig):
    """Detect and write the verdict; returns (verdict, limit-or-None, verdict path)."""
    lam = _admissible_lambda(cfg)
    ifn = _resolve_space(cfg)
    grid = np.linspace(cfg.grid_low, cfg.grid_high, cfg.grid_points)
    fs, limit = _resolve_sequence(cfg, lam, grid)
    query = ConvergenceQuery(mode=cfg.mode, epsilon=cfg.epsilon, time=cfg.time,
                             lam=lam, n_max=cfg.n_max, stride=cfg.stride)
    if cfg.mode not in CAUCHY_MODES and limit is None:
        raise ConfigError("sequence.limit is required for non-Cauchy modes")
    verdict = (detect_cauchy(fs, ifn, query) if cfg.mode in CAUCHY_MODES
               else detect(fs, limit, ifn, query))
    return verdict, limit, _write_verdict(verdict, Path(cfg.out_dir))


def _cmd_analyze(cfg: ExperimentConfig) -> int:
    verdict, _, path = _run_detection(cfg)
    print(f"mode={verdict.mode} lambda={verdict.lambda_name} epsilon={verdict.epsilon!r} "
          f"time={verdict.time!r} n_max={verdict.n_max}")
    print(f"verdict: {verdict.verdict} ({len(verdict.trace_summaries())} traces)")
    if verdict.witnesses:
        k, x = verdict.witnesses[0]
        print(f"first witness: k={k} x={x!r}")
    print(f"wrote {path}")
    return EXIT_BY_VERDICT[verdict.verdict]


def _cmd_density(cfg: ExperimentConfig) -> int:
    lam = _admissible_lambda(cfg)
    trace = density_trace(_resolve_density_set(cfg), lam, cfg.n_max, cfg.stride)
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


def _cmd_axioms(cfg: ExperimentConfig) -> int:
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
    cfg = ExperimentConfig(example=example, out_dir=str(Path(ExperimentConfig.out_dir) / example))
    return replace(cfg, mode=_EXAMPLES[example][1])  # construction checked the id


def _cmd_reproduce(cfg: ExperimentConfig) -> int:
    verdict, limit, path = _run_detection(cfg)

    print(f"reproduce {cfg.example}: mode={cfg.mode} lambda={cfg.lambda_id} "
          f"epsilon={cfg.epsilon!r} time={cfg.time!r} n_max={cfg.n_max} "
          f"grid={cfg.grid_points}")
    if isinstance(verdict.traces, dict):
        regions: dict = {}
        for x, trace in verdict.traces.items():
            regions.setdefault(limit(x), []).append(trace)
        for value in sorted(regions):
            traces = regions[value]
            ok = all(t.verdict == "limit-zero" for t in traces)
            worst = max(t.final_ratio for t in traces)
            print(f"  region limit={value!r} ({len(traces)} points): "
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


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="ifnlab", description=__doc__,
                     formatter_class=argparse.RawDescriptionHelpFormatter)
    subs = parser.add_subparsers(dest="command", required=True)
    for name, handler, source in (("analyze", _cmd_analyze, "config"),
                                  ("density", _cmd_density, "config"),
                                  ("axioms", _cmd_axioms, "config"),
                                  ("reproduce", _cmd_reproduce, "example")):
        sub = subs.add_parser(name)
        sub.add_argument("source", metavar=source)
        # each dest is the ExperimentConfig field the flag overrides
        sub.add_argument("--n-max", type=int)
        sub.add_argument("--epsilon", type=float)
        sub.add_argument("--time", type=float)
        sub.add_argument("--lambda", dest="lambda_id", choices=LAMBDA_IDS)
        sub.add_argument("--stride", type=int)
        sub.add_argument("--out", dest="out_dir")
        sub.set_defaults(func=handler)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        cfg = (_reproduce_config(args.source) if args.command == "reproduce"
               else load_config(args.source))
        return args.func(_apply_overrides(cfg, args))
    except (ConfigError, DomainError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 3
    except Exception as exc:  # any other fault; exits 0-2 are verdicts
        print(f"runtime error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
