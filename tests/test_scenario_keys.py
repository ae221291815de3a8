"""The scenario-key table: every INI the CLI may be handed, and its README.

The fuzzer writes scenarios over ``cli._KEYS`` and ``cli._DRIVERS``: each
key is missing, valid, out of range, non-numeric or non-finite, and at most
two keys per scenario are drawn bad, so most scenarios reach the solvers.
Whatever it draws, ``main`` must return a documented exit code and
``report.json`` must agree with it.  A scenario with a value its key's rule
refuses must exit 2, and one drawn entirely valid must not, unless it
sets the book ``[market] h_m`` under a command that does not read it.
"""
import contextlib
import io
import json
import re
import tempfile
from pathlib import Path

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from impact_hedger import cli

README = Path(__file__).resolve().parent.parent / "README.md"


def _floats(lo, hi):
    return st.floats(lo, hi).map("{:.4g}".format)


def _grid(lo, hi):
    return st.lists(_floats(lo, hi), min_size=1, max_size=3).map(",".join)


_WORD = st.sampled_from(["warp", "crra", "xml", "theta_minus"])
_HUGE = ["1e6", "-1e6", "1e300", "-1e300"]
# a value of a key with no rule: it may run, fail or be refused
_WILD = st.sampled_from([*_HUGE, "0.0"])

# (section, key) -> (valid, out of range); every out-of-range value but
# _WILD and a huge payoff_a breaks a rule, a grid check or a driver constructor
_VALUES = {
    ("driver", "kind"): (st.sampled_from(sorted(cli._DRIVERS)), _WORD),
    ("utility", "kind"): (st.just("cara"), _WORD),
    # a steep utility leaves float range on part of every wealth grid
    ("utility", "gamma_a"): (_floats(0.5, 3.0) | _floats(100.0, 1e4), _floats(-3.0, 0.0)),
    ("market", "payoff"): (st.sampled_from(["brownian", "affine", "markov_linear"]), _WORD),
    # a zero slope is refused; a huge one passes the rule and may run, fail or be refused
    ("market", "payoff_a"): (_floats(0.5, 1.5), st.sampled_from(["0", "0.0", "-0.0", *_HUGE])),
    ("market", "payoff_b"): (_floats(-0.5, 0.5), _WILD),
    ("market", "h_m"): (st.sampled_from(["zero", "markov_square"]), _WORD),
    ("market", "eta"): (_floats(0.0, 0.5), _WILD),
    ("market", "gamma"): (_floats(0.5, 1.5), _floats(-2.0, 0.0)),
    ("market", "x0"): (_floats(-0.5, 0.5), _WILD),
    ("market", "r0"): (_floats(-0.5, 0.5), _WILD),
    ("numerics", "horizon"): (_floats(0.1, 1.5), _floats(-1.0, 0.0)),
    ("numerics", "n_steps"): (st.integers(1, 6).map(str), st.integers(-3, 0).map(str)),
    ("numerics", "n_x"): (st.integers(9, 41).map(str), st.integers(-3, 8).map(str)),
    ("numerics", "x_min"): (_floats(-3.0, -1.0), _floats(3.0, 5.0)),
    ("numerics", "x_max"): (_floats(1.0, 3.0), _floats(-5.0, -3.0)),
    ("numerics", "y_grid"): (
        st.builds("{}:{}:{}".format, _floats(-2.0, -0.5), _floats(0.5, 2.0), st.integers(2, 41)),
        st.sampled_from(["0.5", "1.0,-1.0", "0.0,0.0", "1:-1:5"]),
    ),
    ("numerics", "z_lo"): (_floats(-1.0, -0.1), _floats(1.0, 2.0)),
    ("numerics", "z_hi"): (_floats(0.1, 1.0), _floats(-2.0, -1.0)),
    ("numerics", "tol"): (_floats(1e-8, 1e-3), _floats(-1.0, 0.0)),
    ("numerics", "max_iter"): (st.integers(1, 20).map(str), st.integers(-3, 0).map(str)),
    ("numerics", "damping"): (_floats(0.1, 1.0), _floats(-1.0, 0.0) | _floats(1.001, 5.0)),
    ("numerics", "mode"): (st.sampled_from(["theta", "theta_plus"]), _WORD),
    ("price", "z_values"): (_grid(-0.5, 0.5), _WILD),
    ("price", "y_values"): (_grid(-1.5, 1.5), _WILD),
    ("outputs", "formats"): (st.sampled_from(["csv,json", "json", "csv", " json , csv "]), _WORD),
    # [driver] keys, read for the kinds that list them
    ("driver", "nu"): (_floats(-0.5, 0.5), _WILD),
    ("driver", "alpha"): (_floats(0.1, 0.6), _floats(-1.0, -0.01)),
    ("driver", "gamma"): (_floats(0.5, 1.2), _floats(-1.0, 0.0)),
    ("driver", "eta"): (_floats(0.1, 0.5), _WILD),
    ("driver", "kappa"): (_floats(0.05, 0.3), _floats(-1.0, -0.01)),
}
_DRIVER_KEYS = {("driver", key) for _, keys in cli._DRIVERS.values() for key in keys}
_TABLE_KEYS = {(section, key) for section, key, *_ in cli._KEYS}
_BAD = {
    "text": st.sampled_from(["abc", "1.0.0", "0x", "1,,x"]),
    "nonfinite": st.sampled_from(["nan", "inf", "-inf", "0.0,nan"]),
}
_REQUIRED = {(section, key) for section, key, _, _, default, *_ in cli._KEYS if default is None}
_REQUIRED |= _DRIVER_KEYS
_UNKNOWN = [("numerics", "dampng", "0.5"), ("market", "seed", "0"), ("prices", "z_values", "0.0")]


def test_fuzzer_covers_every_key():
    assert set(_VALUES) == _TABLE_KEYS | _DRIVER_KEYS


@st.composite
def scenarios(draw):
    """INI text and the exit codes allowed for it."""
    n_bad = draw(st.sampled_from([0, 1, 1, 2]))
    bad = draw(st.sets(st.sampled_from(sorted(_VALUES)), min_size=n_bad, max_size=n_bad))
    kind = draw(_VALUES["driver", "kind"][0])
    keys = sorted(_TABLE_KEYS) + [("driver", key) for key in cli._DRIVERS[kind][1]]
    sections, refused, wild = {}, False, False
    for section, key in keys:
        valid, out_of_range = _VALUES[section, key]
        how = draw(st.sampled_from(["missing", "out", *_BAD])) if (section, key) in bad else "valid"
        if how == "missing":
            refused |= (section, key) in _REQUIRED
            continue
        if how == "valid":
            value = kind if (section, key) == ("driver", "kind") else draw(valid)
        else:
            value = draw(out_of_range if how == "out" else _BAD[how])
            if how == "out" and (out_of_range is _WILD or value in _HUGE):
                wild = True
            else:
                refused = True
        sections.setdefault(section, {})[key] = value
    unknown = draw(st.sampled_from([None] * 6 + _UNKNOWN))
    if unknown is not None:
        section, key, value = unknown
        sections.setdefault(section, {})[key] = value
        refused = True
    text = "".join(
        f"[{section}]\n" + "".join(f"{k} = {v}\n" for k, v in body.items())
        for section, body in sections.items()
    )
    return text, (2,) if refused else (0, 2, 3, 4) if wild else (0, 3, 4)


@settings(max_examples=600, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(scenario=scenarios(), command=st.sampled_from(sorted(cli._COMMANDS)))
def test_any_scenario_ends_in_a_documented_exit_code(scenario, command):
    text, allowed = scenario
    if "h_m = markov_square\n" in text and command not in cli._BOOK_COMMANDS:
        allowed = (2,)  # a book is refused under the commands that do not read it
    with tempfile.TemporaryDirectory() as tmp:
        cfg, out = Path(tmp) / "s.ini", Path(tmp) / "o"
        cfg.write_text(text)
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            code = cli.main([command, "--config", str(cfg), "--out", str(out)])
        assert code in allowed, err.getvalue()
        if (out / "report.json").exists():
            assert json.loads((out / "report.json").read_text())["exit_code"] == code


def test_readme_lists_every_scenario_key():
    # | `[section]` | `key` | type | default | ...
    row = r"^\| `\[(\w+)\]` \| `(\w+)` \| [^|]+ \| ([^|]+) \|"
    rows = re.findall(row, README.read_text(), re.M)
    assert sorted({(s, k) for s, k, _ in rows}) == sorted(_TABLE_KEYS | _DRIVER_KEYS)
    documented = {(section, key): default for section, key, default in rows}
    for section, key, _, _, default, *_ in cli._KEYS:
        assert documented[section, key] == ("required" if default is None else f"`{default}`")
