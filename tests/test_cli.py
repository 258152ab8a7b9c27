"""The batch runner: config parsing, subcommands, exit codes, artifacts."""
import json
import os
import re
import subprocess
import sys
import time
import warnings
from configparser import ConfigParser
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest

import ifnlab
from ifnlab import DomainError, build_example, density_trace, lambda_family
from ifnlab.algebra import vectorize_scalar
from ifnlab.cli import (DENSITY_SETS, _KEYS, ConfigError, ExperimentConfig, _reproduce_config,
                        _resolve_density_set, _resolve_sequence, compile_expression, from_ini,
                        load_config, main)

DATA = Path(__file__).parent / "data"


# ---------------------------------------------------------------- config
def test_golden_config_parses_to_expected_values():
    cfg = load_config(DATA / "small.ini")
    assert cfg == ExperimentConfig(
        norm="abs", dimension=1, tnorm_id="product", tconorm_id="bounded-sum",
        lambda_id="identity", lambda_table=None,
        example=None, expression="x + 1.0 / k", limit="x",
        mode="pointwise-lambda-stat", epsilon=0.1, time=1.0, n_max=2000,
        stride=200, grid_low=0.0, grid_high=1.0, grid_points=3,
        density_set="evens", density_expression=None, out_dir="results",
    )


def test_config_round_trips_through_ini():
    cfg = load_config(DATA / "small.ini")
    assert from_ini(cfg.to_ini()) == cfg


def test_table_lambda_round_trips():
    cfg = replace(load_config(DATA / "small.ini"),
                  lambda_id="table", lambda_table=(1.0, 2.0, 2.0, 3.0))
    assert from_ini(cfg.to_ini()) == cfg


def test_defaults_fill_missing_sections():
    cfg = from_ini("[sequence]\nexample = paper-example-1\n")
    assert cfg.norm == "abs"
    assert cfg.epsilon == 0.1
    assert cfg.n_max == 1_000_000
    assert cfg.lambda_id == "identity"


def test_empty_config_is_the_defaults():
    assert from_ini("") == ExperimentConfig()


@pytest.mark.parametrize("example", ["example-1", "example-2"])
def test_reproduce_config_differs_from_defaults_only_in_its_run(example):
    cfg, default = _reproduce_config(example), ExperimentConfig()
    changed = {f.name for f in fields(cfg) if getattr(cfg, f.name) != getattr(default, f.name)}
    assert {"example", "out_dir"} <= changed <= {"example", "mode", "out_dir"}


# one valid non-default value per field, with the companion fields it needs
NON_DEFAULT = {
    "norm": {"norm": "euclidean"},
    "dimension": {"norm": "euclidean", "dimension": 2},
    "tnorm_id": {"tnorm_id": "lukasiewicz"},
    "tconorm_id": {"tconorm_id": "max"},
    "lambda_id": {"lambda_id": "log"},
    "lambda_table": {"lambda_id": "table", "lambda_table": (1.0, 1.5, 2.5)},
    "example": {"example": "paper-example-2"},
    "expression": {"expression": "x / k ** 2"},
    "limit": {"limit": "0.5 * x"},
    "mode": {"mode": "uniform-lambda-cauchy"},
    "epsilon": {"epsilon": 0.25},
    "time": {"time": 2.5},
    "n_max": {"n_max": 5000},
    "stride": {"stride": 7},
    "grid_low": {"grid_low": -1.5},
    "grid_high": {"grid_high": 3.0},
    "grid_points": {"grid_points": 11},
    "density_set": {"density_set": "squares"},
    "density_expression": {"density_expression": "k % 3 == 0"},
    "out_dir": {"out_dir": "elsewhere/run"},
}


@pytest.mark.parametrize("row", _KEYS, ids=lambda row: f"{row[0]}.{row[1]}")
def test_every_key_round_trips_through_ini(row):
    section, key, name, _ = row
    cfg = replace(ExperimentConfig(), **NON_DEFAULT[name])
    assert getattr(cfg, name) != getattr(ExperimentConfig(), name)
    text = cfg.to_ini()
    parser = ConfigParser(interpolation=None)
    parser.read_string(text)
    assert parser.has_option(section, key)
    assert from_ini(text) == cfg


def test_replace_validates():
    with pytest.raises(ConfigError, match="epsilon"):
        replace(ExperimentConfig(), epsilon=2.0)


@pytest.mark.parametrize("time", ["nan", "inf"])
def test_non_finite_time_exits_three_before_the_run(tmp_path, time):
    with pytest.raises(ConfigError, match="finite"):
        ExperimentConfig(time=float(time))
    out = tmp_path / "r"
    assert run_cli("reproduce", "example-2", "--time", time, "--out", out) == 3
    assert not (out / "verdict.json").exists()


def reference_member(name: str, ks: np.ndarray) -> np.ndarray:
    """The membership if-chain that the DENSITY_SETS formulas replaced."""
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


@pytest.mark.parametrize("name", DENSITY_SETS)
def test_named_density_sets_match_the_reference(name):
    n = 1_000_000
    member = _resolve_density_set(ExperimentConfig(density_set=name, n_max=n))
    ks = np.arange(1, n + 1)
    assert np.array_equal(member(ks), reference_member(name, ks))


@pytest.mark.parametrize("text, fragment", [
    ("[nope]\nx = 1\n", "unknown section"),
    ("[query]\nepsilonn = 0.1\n", "unknown key"),
    ("[query]\nepsilon = high\n", "expected a number"),
    ("[query]\nepsilon = 1.5\n", "epsilon"),
    ("[query]\nmode = sideways\n", "unknown mode"),
    ("[space]\nnorm = manhattan\n", "unknown norm"),
    ("[space]\nnorm = abs\ndimension = 2\n", "dimension"),
    ("[lambda]\nfamily = identity\ntable = 1, 2\n", "not both"),
    ("[sequence]\nexample = paper-example-1\nexpression = x\n", "not both"),
    ("[sequence]\nexample = paper-example-9\n", "unknown example"),
    ("[density]\nset = primes\n", "unknown set"),
    ("[query\n", "cannot parse config"),
    (f"[sequence]\nexpression = 1{'0' * 400} * x\n", "integer constant too large"),
    # ConfigParser copies [DEFAULT] keys into every section, unchecked
    ("[DEFAULT]\nbogus = 1\n", r"unknown section \[DEFAULT\]"),
    ("[DEFAULT]\nn_max = 500\n[query]\n", r"unknown section \[DEFAULT\]"),
])
def test_bad_configs_are_rejected(text, fragment):
    with pytest.raises(ConfigError, match=fragment):
        from_ini(text)


@pytest.mark.parametrize("epsilon", ["1e-13", "1e-300", "0.0"])
def test_an_epsilon_below_the_floor_exits_3_naming_the_key(tmp_path, capsys, epsilon):
    # at or below GUARD the exceptional test would call a zero difference exceptional
    ini = tmp_path / "eps.ini"
    ini.write_text(f"[sequence]\nexpression = x / k\nlimit = 0 * x\n[query]\nepsilon = {epsilon}\n"
                   "n_max = 1000\ngrid_points = 3\n")
    assert run_cli("analyze", ini, "--out", tmp_path / "o") == 3
    err = capsys.readouterr().err
    assert err.startswith("config error:") and "query.epsilon" in err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("bounds", ["grid_low = -0.5", "grid_high = 1.5"])
@pytest.mark.parametrize("example", ["paper-example-1", "paper-example-2"])
def test_bundled_examples_reject_a_grid_outside_the_unit_interval(tmp_path, capsys, bounds,
                                                                  example):
    # the families take log x and define their limit on [0, 1] only
    ini = tmp_path / "grid.ini"
    ini.write_text(f"[sequence]\nexample = {example}\n[query]\n{bounds}\nn_max = 1000\n")
    assert run_cli("analyze", ini, "--out", tmp_path / "o") == 3
    err = capsys.readouterr().err
    assert "[0, 1]" in err and err.startswith("config error:")
    with pytest.raises(DomainError, match=r"\[0, 1\]"):
        build_example(example, lambda_family("identity"), np.linspace(-0.5, 1.0, 4))


@pytest.mark.parametrize("expression, grid_form", [
    ("sin(k) * x + x ** k", True),
    ("x", True),
    ("0 * k + 1", True),
    ("x + 1.0 / k if x < 0.5 else x ** k", False),   # a truth value of x
    ("where(0.2 < x < 0.6, 1.0 / k, x)", False),     # a chained comparison
    ("maximum(x, 1.0 / k) if not x else x", False),
])
def test_expression_terms_across_the_grid_match_each_point(expression, grid_form):
    grid = np.linspace(0.0, 1.0, 11)
    fs, _ = _resolve_sequence(ExperimentConfig(expression=expression), None, grid)
    assert fs.broadcasts == grid_form
    ks = np.arange(1, 200)
    by_point = np.stack([fs.per_point(ks, x) for x in grid], axis=0)
    assert np.array_equal(fs.terms(ks, grid)[..., 0], by_point)


@pytest.mark.parametrize("expression", ["x", "k", "1.0", "sin(k) * x", "x + 0 * k"])
def test_expression_terms_are_arrays_of_their_own(expression):
    # The expression's own array is answered as is; one that broadcasts, or
    # that is ks or x itself (x on a one-index block), comes back as a copy.
    grid = np.linspace(0.0, 1.0, 11)
    evaluate = _resolve_sequence(ExperimentConfig(expression=expression), None, grid)[0].evaluate
    for ks, x in ((np.array([[3]]), grid[:, None]), (np.arange(1.0, 6.0)[None, :], grid[:, None]),
                  (np.arange(1.0, 6.0), grid[4]), (np.array([2.0]), grid), (2.0, grid[:1])):
        out = evaluate(ks, x)
        assert out.shape == np.broadcast(ks, x).shape and out.flags.writeable
        assert not any(np.shares_memory(out, a) for a in (ks, x, grid))


# ---------------------------------------------------------------- expressions
def test_expression_evaluator_is_whitelisted():
    run = compile_expression("exp(-k) * (1.0 + x)", ("k", "x"))
    assert run(k=0.0, x=1.0) == 2.0
    with pytest.raises(ConfigError, match="unknown names"):
        compile_expression("__import__('os').system('true')", ("k",))
    with pytest.raises(ConfigError, match="unknown names"):
        compile_expression("open('/etc/passwd')", ("k",))
    with pytest.raises(ConfigError, match="bad expression"):
        compile_expression("k +", ("k",))


@pytest.mark.parametrize("text", [
    # reaches object.__subclasses__() through comprehension scopes
    "[c.__name__ for c in [y.__class__.__mro__[-1].__subclasses__() for y in (k,)][0]]",
    "k.__class__",
    "(k, x)[0]",
    "(lambda: k)()",
    "sum(v for v in (k,))",
    "'k' * 2",
    "pi(k)",
    "where(k > 0, x=1)",
    "k << 2",
    "k >> 1",
    "k & 1",
    "k | 1",
    "k ^ 1",
    "~k",
    "k @ x",
])
def test_expression_rejects_everything_off_the_whitelist(text):
    with pytest.raises(ConfigError):
        compile_expression(text, ("k", "x"))


def test_expression_whitelist_keeps_the_formula_language():
    run = compile_expression("where(k % 2 == 0, -x, x) if k > 1 and not k < 0 else 1e-3",
                             ("k", "x"))
    assert run(k=4, x=2.0) == -2.0
    assert run(k=1, x=2.0) == 1e-3


def test_bad_expression_is_rejected_at_config_load():
    with pytest.raises(ConfigError, match="Attribute is not allowed"):
        from_ini("[sequence]\nexpression = k.real * x\nlimit = 0.0\n")


# ---------------------------------------------------------------- subcommands
def run_cli(*argv):
    return main([str(a) for a in argv])


def test_analyze_matches_golden_verdict(tmp_path):
    out = tmp_path / "run"
    assert run_cli("analyze", DATA / "small.ini", "--out", out) == 0
    produced = (out / "verdict.json").read_bytes()
    assert produced == (DATA / "golden_verdict.json").read_bytes()
    assert (out / "trace_point_000.csv").exists()
    assert (out / "trace_point_002.csv").exists()


def test_analyze_matches_golden_cauchy_verdict(tmp_path):
    # a failing uniform Cauchy run: every witness names the first grid point
    # where k is exceptional against the last anchor tried
    ini = tmp_path / "cauchy.ini"
    ini.write_text("[sequence]\nexpression = sin(k) * x\n"
                   "[query]\nmode = uniform-lambda-cauchy\nn_max = 2000\ngrid_points = 11\n")
    out = tmp_path / "run"
    assert run_cli("analyze", ini, "--out", out) == 1
    produced = (out / "verdict.json").read_bytes()
    assert produced == (DATA / "golden_cauchy_verdict.json").read_bytes()
    assert (out / "trace.csv").exists()


def test_cauchy_and_axioms_runs_leave_numpy_ma_unimported(tmp_path):
    # np.unique without indices imports numpy.ma, about 14 ms, on its first call
    ini = tmp_path / "cauchy.ini"
    ini.write_text("[sequence]\nexpression = sin(k) * x\n"
                   "[query]\nmode = uniform-lambda-cauchy\nn_max = 2000\ngrid_points = 11\n")
    script = ("import sys; from ifnlab.cli import main; "
              f"codes = main(['analyze', {str(ini)!r}, '--out', {str(tmp_path / 'c')!r}]), "
              f"main(['axioms', {str(ini)!r}, '--out', {str(tmp_path / 'a')!r}]); "
              "print(codes, 'numpy.ma' in sys.modules)")
    src = str(Path(ifnlab.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    run = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                         env=env, check=True)
    assert run.stdout.splitlines()[-1] == "(1, 0) False"


@pytest.mark.parametrize("mode", ["uniform-lambda-cauchy", "pointwise-lambda-cauchy"])
def test_cauchy_fault_past_the_anchor_pool_is_reported(tmp_path, capsys, mode):
    # the pool sweep stops at its tenth anchor, long before k = 150,000;
    # the anchor sweeps meet the pole and name its first point
    ini = tmp_path / "pole.ini"
    ini.write_text("[sequence]\nexpression = sin(k) * x + x / (k - 150000)\n"
                   f"[query]\nmode = {mode}\nn_max = 200000\ngrid_points = 11\n")
    assert run_cli("analyze", ini, "--out", tmp_path / "o") == 4
    assert capsys.readouterr().err == ("runtime error: ValueError: sequence value not finite "
                                       "at (k=150000, x=0.0)\n")


def test_analyze_is_deterministic(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    assert run_cli("analyze", DATA / "small.ini", "--out", a) == 0
    assert run_cli("analyze", DATA / "small.ini", "--out", b) == 0
    assert (a / "verdict.json").read_bytes() == (b / "verdict.json").read_bytes()
    assert (a / "trace_point_001.csv").read_bytes() == (b / "trace_point_001.csv").read_bytes()


def test_analyze_wrong_limit_exits_one(tmp_path):
    ini = tmp_path / "wrong.ini"
    ini.write_text("[sequence]\nexpression = 1.0 + 0.0 * k + 0.0 * x\nlimit = 0.0\n"
                   "[query]\nn_max = 2000\ngrid_points = 2\n")
    assert run_cli("analyze", ini, "--out", tmp_path / "o") == 1


def test_analyze_oscillator_exits_two(tmp_path):
    ini = tmp_path / "osc.ini"
    ini.write_text("[sequence]\nexpression = 2.0 * (floor(k / 100.0) % 2.0) + 0.0 * x\n"
                   "limit = 0.0\n"
                   "[query]\nn_max = 10000\ngrid_points = 2\n")
    assert run_cli("analyze", ini, "--out", tmp_path / "o") == 2


def test_analyze_cauchy_mode_needs_no_limit(tmp_path):
    ini = tmp_path / "cauchy.ini"
    ini.write_text("[sequence]\nexpression = x + 1.0 / k\n"
                   "[query]\nmode = pointwise-lambda-cauchy\nn_max = 2000\n"
                   "grid_points = 2\n")
    assert run_cli("analyze", ini, "--out", tmp_path / "o") == 0


def test_analyze_stat_mode_requires_limit(tmp_path):
    ini = tmp_path / "nolimit.ini"
    ini.write_text("[sequence]\nexpression = x + 1.0 / k\n"
                   "[query]\nn_max = 2000\ngrid_points = 2\n")
    assert run_cli("analyze", ini, "--out", tmp_path / "o") == 3


def test_flag_overrides_change_the_run(tmp_path):
    out = tmp_path / "o"
    assert run_cli("analyze", DATA / "small.ini", "--out", out,
                   "--n-max", 4000, "--epsilon", "0.2") == 0
    payload = json.loads((out / "verdict.json").read_text())
    assert payload["n_max"] == 4000
    assert payload["epsilon"] == 0.2


def test_density_subcommand_writes_trace(tmp_path):
    out = tmp_path / "d"
    assert run_cli("density", DATA / "small.ini", "--out", out) == 0
    payload = json.loads((out / "density.json").read_text())
    assert payload["verdict"] == "limit-value"
    assert abs(payload["estimate"] - 0.5) < 1e-3
    header = (out / "trace.csv").read_text().splitlines()[0]
    assert header == "n,window_lo,window_hi,count,ratio"


def test_density_expression_sets(tmp_path):
    ini = tmp_path / "d.ini"
    ini.write_text("[density]\nexpression = k % 3 == 0\n[query]\nn_max = 30000\n")
    out = tmp_path / "o"
    assert run_cli("density", ini, "--out", out) == 0
    payload = json.loads((out / "density.json").read_text())
    assert abs(payload["estimate"] - 1.0 / 3.0) < 1e-3


@pytest.mark.parametrize("expression", ["1 / (k - 1) < 0.5", "k > 0 and 1 / (k - 1) < 0.5",
                                        "(k > 0 and 1 / (k - 1)) < 0.5"],
                         ids=["array", "per-element", "value-position"])
def test_density_formula_with_a_pole_matches_the_index_array(tmp_path, expression):
    # k = 1 divides by zero: the formula sees k as numpy integers, whose 1 / 0 is inf,
    # so both forms count as a formula run once on the int64 range does
    n = 3000
    ini = tmp_path / "d.ini"
    ini.write_text(f"[density]\nexpression = {expression}\n[query]\nn_max = {n}\n")
    assert run_cli("density", ini, "--out", tmp_path / "o") == 0
    with np.errstate(divide="ignore"):
        mask = 1 / (np.arange(1, n + 1) - 1.0) < 0.5
    density_trace(mask, lambda_family("identity"), n).to_csv(tmp_path / "ref.csv")
    assert (tmp_path / "o" / "trace.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()


@pytest.mark.parametrize("logical, arithmetic", [
    ("k > 5 and k % 3 == 0", "(k > 5) * (k % 3 == 0)"),
    ("not k % 4 or k < 10 and not k > 3", "(k % 4 == 0) + (k < 10) * (k <= 3) > 0"),
    ("k % 7 and k % 5 and k", "(k % 7 != 0) * (k % 5 != 0)"),
    ("3 < k % 7 < 6", "(3 < k % 7) * (k % 7 < 6)"),
])
def test_truth_valued_density_formulas_run_by_blocks(tmp_path, logical, arithmetic):
    # and/or/not read as truth values become numpy's logical functions, so the
    # formula answers an index array; it counts what its arithmetic twin does
    member = _resolve_density_set(ExperimentConfig(density_expression=logical))
    assert vectorize_scalar(member, np.arange(1, 4)) is member
    outputs = []
    for n, text in enumerate((logical, arithmetic)):
        ini = tmp_path / f"{n}.ini"
        ini.write_text(f"[density]\nexpression = {text}\n[query]\nn_max = 100000\n")
        assert run_cli("density", ini, "--out", tmp_path / str(n)) == 0
        outputs.append([(tmp_path / str(n) / name).read_bytes()
                        for name in ("trace.csv", "density.json")])
    assert outputs[0] == outputs[1]
    with pytest.raises(ConfigError, match="unknown names"):  # the rewrite's names stay hidden
        compile_expression("_and(k > 5, k < 9) + _not(k)", ("k",), truth=True)


def test_a_used_value_of_and_stays_per_index():
    # the value of ``k % 3 and 7`` is used, not its truth: Python's per-index meaning
    member = _resolve_density_set(ExperimentConfig(density_expression="(k % 3 and 7) - 7"))
    assert vectorize_scalar(member, np.arange(1, 4)) is not member
    ks = np.arange(1, 10)
    assert np.array_equal(np.vectorize(member, otypes=[bool])(ks), ks % 3 == 0)
    # a sequence formula keeps Python's and: its value is a term
    run = compile_expression("k > 1 and x", ("k", "x"))
    assert run(k=2, x=0.25) == 0.25


def test_axioms_subcommand_passes_for_builtins(tmp_path, capsys):
    assert run_cli("axioms", DATA / "small.ini", "--out", tmp_path / "a") == 0
    lines = capsys.readouterr().out.splitlines()
    assert sum(1 for l in lines if l.startswith("PASS ifn:abs")) == 13
    assert not any(l.startswith("FAIL") for l in lines)
    payload = json.loads((tmp_path / "a" / "axioms.json").read_text())
    assert set(payload) == {"tnorm:product", "tconorm:bounded-sum",
                            "ifn:abs", "lambda:identity"}


def test_axioms_flags_broken_lambda(tmp_path):
    ini = tmp_path / "fast.ini"
    ini.write_text("[lambda]\ntable = 1, 3, 5\n[query]\nn_max = 1000\n")
    assert run_cli("axioms", ini, "--out", tmp_path / "a") == 1


def test_analyze_rejects_inadmissible_table(tmp_path, capsys):
    ini = tmp_path / "fast.ini"
    ini.write_text("[lambda]\ntable = 1, 3, 5\n[sequence]\nexample = paper-example-2\n"
                   "[query]\nmode = uniform-lambda-stat\nn_max = 1000\n")
    out = tmp_path / "o"
    assert run_cli("analyze", ini, "--out", out) == 3
    assert "slow-growth" in capsys.readouterr().err
    assert not (out / "verdict.json").exists()


def test_density_rejects_inadmissible_table(tmp_path, capsys):
    ini = tmp_path / "fast.ini"
    ini.write_text("[lambda]\ntable = 1, 3, 5\n[density]\nset = evens\n"
                   "[query]\nn_max = 1000\n")
    out = tmp_path / "o"
    assert run_cli("density", ini, "--out", out) == 3
    assert "slow-growth" in capsys.readouterr().err
    assert not (out / "trace.csv").exists()


@pytest.mark.parametrize("command, section, written", [
    ("analyze", "[sequence]\nexample = paper-example-2\n", "verdict.json"),
    ("density", "[density]\nset = evens\n", "trace.csv"),
], ids=["analyze", "density"])
def test_a_non_finite_table_exits_three(tmp_path, capsys, command, section, written):
    ini = tmp_path / "nan.ini"
    ini.write_text(f"[lambda]\ntable = 1, 2, nan, 4\n{section}[query]\nn_max = 1000\n")
    out = tmp_path / "o"
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no cast of the nan on the way
        assert run_cli(command, ini, "--out", out) == 3
    assert "non-decreasing" in capsys.readouterr().err
    assert not (out / written).exists()


def test_runtime_fault_exits_four(tmp_path, capsys):
    ini = tmp_path / "log.ini"
    ini.write_text("[sequence]\nexpression = log(x) + 1.0 / k\nlimit = log(x)\n"
                   "[query]\nn_max = 1000\ngrid_points = 3\n")
    assert run_cli("analyze", ini, "--out", tmp_path / "o") == 4
    err = capsys.readouterr().err.strip()
    assert len(err.splitlines()) == 1
    assert re.search(r"\(k=1, x=0\.0\)", err)


@pytest.mark.parametrize("expression, codes", [
    ("k << 2", {3}),           # rejected at load
    ("9**9**9 + 0*k", {3, 4}),  # float arithmetic overflows at once
    ("x + 1 // 0", {4}),
])
def test_faults_never_exit_with_a_verdict_code(tmp_path, capsys, expression, codes):
    ini = tmp_path / "fault.ini"
    ini.write_text(f"[sequence]\nexpression = {expression}\nlimit = 0.0\n"
                   "[query]\nn_max = 1000\ngrid_points = 3\n")
    start = time.perf_counter()
    assert run_cli("analyze", ini, "--out", tmp_path / "o") in codes
    assert time.perf_counter() - start < 1.0
    assert len(capsys.readouterr().err.strip().splitlines()) == 1


@pytest.mark.parametrize("n_max, code", [(1000, 2), (5000, 0)])
def test_still_decaying_trace_is_not_a_failure(tmp_path, n_max, code):
    # 9 exceptional indices: the ratio is 0.045 at 20% of n_max 1000 and
    # 0.009 at the end, still falling, so not a settled positive limit
    ini = tmp_path / "shift.ini"
    ini.write_text("[sequence]\nexpression = x + 1.0 / k\nlimit = x\n"
                   "[query]\ngrid_points = 3\n")
    assert run_cli("analyze", ini, "--n-max", n_max, "--out", tmp_path / "o") == code


def test_settled_dense_cauchy_trace_still_fails(tmp_path):
    # sin(k) * x: the shared exceptional ratio sits flat (last/at-20% = 1.00)
    ini = tmp_path / "dense.ini"
    ini.write_text("[sequence]\nexpression = sin(k) * x\n"
                   "[query]\nmode = uniform-lambda-cauchy\nn_max = 20000\n")
    out = tmp_path / "o"
    assert run_cli("analyze", ini, "--out", out) == 1
    assert json.loads((out / "verdict.json").read_text())["traces"][0]["verdict"] == "limit-value"


def test_reproduce_small_run(tmp_path, capsys):
    out = tmp_path / "r"
    assert run_cli("reproduce", "example-1", "--n-max", 100_000, "--out", out) == 0
    printed = capsys.readouterr().out
    assert "region limit=0.0 (50 points)" in printed
    assert "region limit=1.0 (50 points)" in printed
    assert "region limit=2.0 (1 points)" in printed
    payload = json.loads((out / "verdict.json").read_text())
    assert payload["verdict"] == "converges"
    assert len(payload["traces"]) == 101


@pytest.mark.parametrize("example", ["example-1", "example-2"])
@pytest.mark.parametrize("lam", ["sqrt", "log"])
def test_slow_ladders_give_inconclusive_not_fails(tmp_path, example, lam):
    # both families converge for every admissible ladder; at 3e5 the sqrt
    # trace still falls like sqrt(lambda)/lambda and the log ladder barely moves
    assert run_cli("reproduce", example, "--n-max", 300_000, "--lambda", lam,
                   "--out", tmp_path / "r") == 2


def test_reproduce_accepts_full_ids(tmp_path):
    out = tmp_path / "r2"
    assert run_cli("reproduce", "paper-example-2", "--n-max", 100_000, "--out", out) == 0
    assert (out / "trace.csv").exists()


def test_unknown_example_and_subcommand_exit_three(tmp_path):
    assert run_cli("reproduce", "example-9", "--out", tmp_path) == 3
    assert run_cli("frobnicate") == 3
    assert run_cli("analyze", tmp_path / "missing.ini") == 3


def test_nonsense_flag_value_exits_three(tmp_path):
    assert run_cli("reproduce", "example-1", "--n-max", "many") == 3


@pytest.mark.parametrize("command, text, fragment", [
    ("analyze", "[query\n", "cannot parse config"),
    ("analyze", "[query]\nn_max = 100\n", "sequence: need an example id or an expression"),
    ("density", "[query]\nn_max = 100\n", "density: need a set name or an expression"),
])
def test_config_errors_exit_three(tmp_path, capsys, command, text, fragment):
    ini = tmp_path / "bad.ini"
    ini.write_text(text)
    assert run_cli(command, ini, "--out", tmp_path / "o") == 3
    err = capsys.readouterr().err
    assert err.startswith("config error:") and fragment in err
    assert not (tmp_path / "o").exists()
