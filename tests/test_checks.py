"""One range check: scene.checked decides which values a parameter accepts.

Every int and float field of the config types declares its bounds next to
the field (scene.bounded), and every numeric CLI flag parses through the
same check, so a bad value exits 2 at parse time, names the flag and
writes nothing.
"""

import argparse
import functools
import math
from dataclasses import fields

import numpy as np
import pytest

import lanetopo as lt
from lanetopo import cli
from lanetopo.scene import checked

CONFIG_TYPES = (lt.ModelDims, lt.SynthParams, lt.NoiseParams, lt.PipelineConfig)

# enough arguments for each subcommand to parse; the files are never read
REQUIRED = {
    "synth": ["--out", "out.json"],
    "connected": ["--scene", "scene.json", "--out", "out.json"],
    "predict": ["--scene", "scene.json", "--out", "out.json"],
    "eval": ["--pred", "pred.json", "--gt", "scene.json", "--out", "out.json"],
    "gradcheck": ["--out", "out.json"],
    "fitdemo": ["--scene", "scene.json", "--out", "out.csv"],
}


def store_actions():
    """(subcommand, action) for every option of every subcommand that stores
    the value it is given."""
    sub = next(a for a in cli.build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    assert set(sub.choices) == set(REQUIRED)
    return [(cmd, a) for cmd, p in sub.choices.items() for a in p._actions
            if isinstance(a, argparse._StoreAction)]


def parse_and_check(action):
    """The parse and check functions that cli._checked closed the action's
    type over, or (None, None) for any other type."""
    code = getattr(action.type, "__code__", None)
    if code is None or not action.type.__closure__:
        return None, None
    cells = dict(zip(code.co_freevars, (c.cell_contents for c in action.type.__closure__)))
    return cells.get("parse"), cells.get("check")


def numeric_flags():
    """(subcommand, flag, parse, bounds) for every flag that takes numbers;
    bounds are the keywords of its checked call ({} for another check)."""
    out = []
    for cmd, action in store_actions():
        parse, check = parse_and_check(action)
        if parse in (int, float, cli._comma_floats):
            bounds = check.keywords if isinstance(check, functools.partial) else {}
            out.append((cmd, action.option_strings[0], parse, bounds))
    return out


def below_and_above(parse, lo=-math.inf, hi=math.inf, above=False):
    """The nearest value below the accepted range and the nearest above it,
    where the range has that side."""
    out = []
    if lo > -math.inf:
        out.append(lo if above else lo - 1 if parse is int else np.nextafter(lo, -math.inf))
    if hi < math.inf:
        out.append(hi + 1 if parse is int else np.nextafter(hi, math.inf))
    return [repr(parse(v)) for v in out]


NUMERIC = numeric_flags()
CASES = [(cmd, flag, value) for cmd, flag, parse, bounds in NUMERIC
         for value in ["nan", "inf", "-inf", *below_and_above(parse, **bounds)]]


class TestChecked:
    @pytest.mark.parametrize("value, bounds", [
        (0, dict(lo=0)), (1.0, dict(lo=0.0, hi=1.0)), (1e-300, dict(lo=0.0, above=True)),
        (-1e308, {}), (10 ** 400, dict(lo=0)), (np.float64(0.5), dict(lo=0.0, hi=1.0)),
    ])
    def test_returns_an_accepted_value_as_it_is(self, value, bounds):
        assert checked("x", value, **bounds) is value

    @pytest.mark.parametrize("value, bounds, message", [
        (math.nan, {}, "x must be finite, got nan"),
        (math.inf, dict(lo=0.0), "x must be finite and >= 0, got inf"),
        (-math.inf, {}, "x must be finite, got -inf"),
        (-1, dict(lo=0), "x must be finite and >= 0, got -1"),
        (0.0, dict(lo=0.0, above=True), "x must be finite and positive, got 0.0"),
        (2, dict(lo=2, above=True), "x must be finite and > 2, got 2"),
        (1.5, dict(lo=0.0, hi=1.0), "x must be finite and in [0, 1], got 1.5"),
        (0.0, dict(lo=0.0, hi=1.0, above=True), "x must be finite and in (0, 1], got 0.0"),
        (-(10 ** 400), dict(lo=0), f"x must be finite and >= 0, got {-(10 ** 400)}"),
    ])
    def test_names_the_parameter_and_its_range(self, value, bounds, message):
        with pytest.raises(ValueError) as err:
            checked("x", value, **bounds)
        assert str(err.value) == message


@pytest.mark.parametrize("cls", CONFIG_TYPES, ids=lambda cls: cls.__name__)
def test_every_numeric_config_field_declares_its_bounds(cls):
    numeric = [f for f in fields(cls) if f.type in ("int", "float", int, float)]
    assert numeric
    assert [f.name for f in numeric if "bounds" not in f.metadata] == []


BOUNDED_FIELDS = [(cls, f.name, type(f.default), f.metadata["bounds"])
                  for cls in CONFIG_TYPES for f in fields(cls) if "bounds" in f.metadata]


@pytest.mark.parametrize("cls, name, parse, bounds", BOUNDED_FIELDS,
                         ids=[f"{c.__name__}.{n}" for c, n, _, _ in BOUNDED_FIELDS])
def test_every_bounded_field_rejects_what_it_does_not_accept(cls, name, parse, bounds):
    for value in [math.nan, math.inf, -math.inf, *map(parse, below_and_above(parse, **bounds))]:
        with pytest.raises(ValueError, match=f"^{name}"):
            cls(**{name: value})


def test_no_numeric_flag_parses_with_a_bare_type():
    bare = [f"{cmd} {a.option_strings[0]}" for cmd, a in store_actions()
            if a.type in (int, float)
            or a.type is None and isinstance(a.default, (int, float, tuple))]
    assert bare == []
    # every flag with a numeric default is found as a numeric flag
    defaults = {(cmd, a.option_strings[0]) for cmd, a in store_actions()
                if isinstance(a.default, (int, float, tuple))}
    assert defaults == {(cmd, flag) for cmd, flag, _, _ in NUMERIC}


@pytest.mark.parametrize("cmd, flag, parse, bounds", NUMERIC,
                         ids=[f"{cmd} {flag}" for cmd, flag, _, _ in NUMERIC])
def test_every_numeric_default_passes_its_own_flag(cmd, flag, parse, bounds):
    action = next(a for c, a in store_actions() if c == cmd and a.option_strings[0] == flag)
    default = action.default
    text = ",".join(map(repr, default)) if isinstance(default, tuple) else repr(default)
    assert action.type(text) == default


@pytest.mark.parametrize("cmd, flag, value", CASES)
def test_unusable_number_exits_2_at_parse_time(tmp_path, monkeypatch, capsys, cmd, flag, value):
    monkeypatch.chdir(tmp_path)
    with pytest.raises(SystemExit) as exc:
        cli.main([cmd, *REQUIRED[cmd], f"{flag}={value}"])
    assert exc.value.code == 2
    assert f"argument {flag}: " in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []
