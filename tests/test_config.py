"""Each config key obeys the library's own rule for its value, and its message names the key."""
import math

import numpy as np
import pytest

from ifnlab import (ConvergenceQuery, DomainError, build_example, builtin_norm, lambda_family,
                    tconorm, tnorm)
from ifnlab.algebra import check_choice, check_integer
from ifnlab.cli import DENSITY_SETS, _KEYS, ConfigError, compile_expression, from_ini, main
from ifnlab.space import as_vector


def query(**changes):
    return ConvergenceQuery(**{"mode": "pointwise-lambda-stat", "epsilon": 0.1, "time": 1.0,
                               "lam": lambda_family("identity"), "n_max": 1000, **changes})


# field -> (a bad value, the library call that rejects it)
BAD = {
    "norm": ("manhattan", builtin_norm),
    "dimension": (0, lambda d: check_integer("dimension", d, 1)),
    "tnorm_id": ("frank", tnorm),
    "tconorm_id": ("einstein", tconorm),
    "ladder": ("cubic", lambda_family),
    "example": ("paper-example-9",
                lambda e: build_example(e, lambda_family("identity"), np.linspace(0.0, 1.0, 3))),
    "expression": ("k.real * x", lambda s: compile_expression(s, ("k", "x"))),
    "limit": ("k * x", lambda s: compile_expression(s, ("x",))),
    "mode": ("sideways", lambda m: query(mode=m)),
    "epsilon": (1e-13, lambda eps: query(epsilon=eps)),
    "time": (math.nan, lambda t: query(time=t)),
    "n_max": (9, lambda n: query(n_max=n)),
    "stride": (0, lambda s: query(stride=s)),
    "grid_low": (-math.inf, as_vector),
    "grid_high": (math.nan, as_vector),
    "grid_points": (1, lambda p: check_integer("grid_points", p, 2)),
    "density_set": ("primes", lambda s: check_choice("set", s, tuple(DENSITY_SETS))),
    "density_expression": ("x > 1", lambda s: compile_expression(s, ("k",), truth=True)),
}

CHECKED = [row for row in _KEYS if row[4] is not None]


def test_every_checked_key_has_a_bad_value():
    assert set(BAD) == {row[2] for row in CHECKED}


@pytest.mark.parametrize("row", CHECKED, ids=lambda row: f"{row[0]}.{row[1]}")
def test_a_bad_value_reads_its_key_then_the_library_message(row):
    section, key, name, *_ = row
    bad, library = BAD[name]
    with pytest.raises((DomainError, ConfigError)) as expected:
        library(bad)
    with pytest.raises(ConfigError) as raised:
        from_ini(f"[{section}]\n{key} = {bad}\n")
    assert str(raised.value) == f"{section}.{key}: {expected.value}"


@pytest.mark.parametrize("bound, key", [
    ("grid_low = -inf", "query.grid_low"), ("grid_low = nan", "query.grid_low"),
    ("grid_high = inf", "query.grid_high"), ("grid_high = nan", "query.grid_high"),
])
def test_a_non_finite_grid_bound_exits_3_naming_its_key(tmp_path, capsys, bound, key):
    ini = tmp_path / "grid.ini"
    ini.write_text("[sequence]\nexpression = x / k\nlimit = 0 * x\n"
                   f"[query]\n{bound}\nn_max = 1000\ngrid_points = 3\n")
    out = tmp_path / "o"
    assert main(["analyze", str(ini), "--out", str(out)]) == 3
    assert capsys.readouterr().err.startswith(f"config error: {key}: ")
    assert not out.exists()


def test_the_lambda_flag_is_checked_like_the_family_key(tmp_path, capsys):
    with pytest.raises(DomainError) as expected:
        lambda_family("cubic")
    out = tmp_path / "r"
    assert main(["reproduce", "example-2", "--n-max", "1000", "--lambda", "cubic",
                 "--out", str(out)]) == 3
    assert capsys.readouterr().err == f"config error: lambda.family: {expected.value}\n"
    assert not out.exists()


def test_a_limit_with_an_example_exits_3_naming_the_limit(tmp_path, capsys):
    # the example brings its own limit, so a limit given beside it would go unread
    ini = tmp_path / "limit.ini"
    ini.write_text("[sequence]\nexample = paper-example-2\nlimit = 5 * x + 3\n"
                   "[query]\nmode = uniform-lambda-stat\nn_max = 100000\ngrid_points = 11\n")
    out = tmp_path / "o"
    assert main(["analyze", str(ini), "--out", str(out)]) == 3
    assert capsys.readouterr().err.startswith("config error: sequence.limit: ")
    assert not out.exists()
