"""The CLI's cold path: in-house PCHIP, array-built CSV tables, no scipy on import.

``_pchip`` must agree bit for bit with scipy's ``PchipInterpolator`` (the
tests may import scipy; the package's import path may not), and
``_write_csv`` must write the bytes the old per-cell ``format(v, ".17g")``
join wrote.
"""
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from scipy.interpolate import PchipInterpolator

from impact_hedger import market
from impact_hedger.cli import EXIT_NUMERIC, _write_csv, main
from impact_hedger.errors import ImpactHedgerError, NumericOverflow
from impact_hedger.valuegrid import _pchip

ROOT = Path(__file__).resolve().parent.parent
SCENARIOS = ROOT / "scenarios"

# node values with ties (flat segments), zeros of both signs and sign changes
node_values = st.one_of(
    st.floats(-1e6, 1e6),
    st.sampled_from([0.0, -0.0, 1.0, -1.0, 2.5]),
)


@st.composite
def pchip_cases(draw):
    n = draw(st.integers(3, 25))
    start = draw(st.floats(-50.0, 50.0))
    if draw(st.booleans()):
        x = np.linspace(start, start + draw(st.floats(0.5, 20.0)), n)
    else:
        gaps = draw(st.lists(st.floats(1e-3, 10.0), min_size=n - 1, max_size=n - 1))
        x = start + np.concatenate(([0.0], np.cumsum(gaps)))
    y = np.array(draw(st.lists(node_values, min_size=n, max_size=n)))
    span = x[-1] - x[0]
    inside = draw(st.lists(st.floats(x[0], x[-1]), max_size=20))
    outside = draw(st.lists(st.floats(x[0] - span, x[-1] + span), max_size=20))
    xq = np.concatenate((x, inside, outside, [x[0], x[-1]]))
    return x, y, xq


@settings(max_examples=400, deadline=None)
@given(case=pchip_cases())
def test_pchip_is_bit_identical_to_scipy(case):
    x, y, xq = case
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):  # as _pchip does
        ref = PchipInterpolator(x, y, extrapolate=True)(xq)
    assert _pchip(x, y, xq).tobytes() == ref.tobytes()


@settings(max_examples=100, deadline=None)
@given(case=pchip_cases())
def test_pchip_keeps_the_query_shape(case):
    # dp_value evaluates both continuation branches as one (2, n) query
    x, y, xq = case
    stacked = np.stack((xq, xq[::-1]))
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        ref = PchipInterpolator(x, y, extrapolate=True)(stacked)
    out = _pchip(x, y, stacked)
    assert out.shape == stacked.shape
    assert out.tobytes() == ref.tobytes()


@st.composite
def pchip_stacks(draw):
    # rows on one wealth axis, some of them flat, each query on any row;
    # the queries cover every node and points outside the hull
    x, first, xq = draw(pchip_cases())
    n_rows = draw(st.integers(1, 4))
    ys = [first]
    for _ in range(n_rows - 1):
        if draw(st.booleans()):
            ys.append(np.full(x.size, draw(node_values)))
        else:
            ys.append(np.array(draw(st.lists(node_values, min_size=x.size, max_size=x.size))))
    rows = np.array(draw(st.lists(st.integers(0, n_rows - 1), min_size=xq.size, max_size=xq.size)))
    return x, np.stack(ys), xq, rows


@settings(max_examples=200, deadline=None)
@given(case=pchip_stacks())
@example(
    case=(
        np.array([0.0, 1.0, 2.0, 3.0]),
        np.array([[0.0, -0.0, 0.0, -0.0], [-0.0, -0.0, -0.0, -0.0], [1.0, 1.0, 2.0, 2.0]]),
        np.array([-1.0, 0.0, 1.0, 3.0, 4.0, 2.5, 0.5, -0.0]),
        np.array([0, 1, 2, 0, 1, 2, 1, 1]),
    )
)
def test_batched_pchip_equals_one_fit_per_row(case):
    x, ys, xq, rows = case
    out = _pchip(x, ys, xq, rows=rows)
    want = np.array([_pchip(x, ys[r], xq[j : j + 1])[0] for j, r in enumerate(rows)])
    assert out.tobytes() == want.tobytes()


def test_pchip_refuses_a_non_finite_row():
    x = np.linspace(0.0, 1.0, 5)
    with pytest.raises(NumericOverflow):
        _pchip(x, np.array([0.0, 1.0, np.inf, 2.0, 3.0]), x)


def _old_csv(header, rows) -> str:
    lines = [",".join(header)] + [",".join(format(float(v), ".17g") for v in row) for row in rows]
    return "\n".join(lines) + "\n"


special = st.sampled_from(
    [
        0.0,
        -0.0,
        5e-324,
        -2.2250738585072009e-308,
        2.2250738585072014e-308,
        1e-300,
        1.7976931348623157e308,
        -1e300,
        1e22,
        1e16,
        2.0**53,
        -(2.0**53) - 2.0,
        3.0,
        -12345.0,
        0.1,
    ]
)
cells = st.one_of(st.floats(allow_nan=False, allow_infinity=False), special)


def tables(min_side):
    shapes = hnp.array_shapes(min_dims=2, max_dims=2, min_side=min_side, max_side=12)
    return hnp.arrays(np.float64, shapes, elements=cells)


def _assert_writes_old_bytes(table):
    header = [f"c{i}" for i in range(table.shape[1])]
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "t.csv"
        _write_csv(path, header, table)
        assert path.read_bytes() == _old_csv(header, table.tolist()).encode()


@settings(max_examples=300, deadline=None)
@given(table=tables(0))
def test_write_csv_matches_the_per_cell_format(table):
    _assert_writes_old_bytes(table)


layouts = {
    "C": lambda t: t,
    "fortran": np.asfortranarray,
    "column_slice": lambda t: np.column_stack((t, t))[:, ::2],
    "transpose": lambda t: np.ascontiguousarray(t.T).T,
}


@st.composite
def tall_tables(draw):
    # each column is drawn from its own small pool, so that some columns
    # repeat enough to be gathered and others do not
    n_rows = draw(st.integers(0, 120))
    n_cols = draw(st.integers(1, 5))
    columns = []
    for _ in range(n_cols):
        pool = draw(st.lists(cells, min_size=1, max_size=draw(st.sampled_from([1, 3, 40, 120]))))
        columns.append(draw(st.lists(st.sampled_from(pool), min_size=n_rows, max_size=n_rows)))
    table = np.array(columns, dtype=float).T.reshape(n_rows, n_cols)
    return layouts[draw(st.sampled_from(sorted(layouts)))](table)


@settings(max_examples=300, deadline=None)
@given(table=tall_tables())
def test_write_csv_gathers_repeated_columns_to_the_per_cell_bytes(table):
    _assert_writes_old_bytes(table)


subnormal = 5e-324
edge_tables = {
    # a constant column (gathered) beside an all-distinct one (cell by cell)
    "constant_beside_distinct": np.column_stack((np.full(40, -0.0), np.arange(40.0) / 7.0)),
    "signed_zeros": np.array([[0.0, -0.0], [-0.0, 0.0], [0.0, 0.0], [-0.0, -0.0], [0.0, 1.0]]),
    "subnormals": np.array([[subnormal], [-subnormal], [subnormal], [2.2250738585072009e-308], [subnormal]]),
    "two_pow_53": np.array([[2.0**53, -(2.0**53)], [2.0**53 + 2.0, -(2.0**53)], [2.0**53, -(2.0**53)]] * 3),
    "no_rows": np.zeros((0, 3)),
    "one_row": np.array([[-0.0, 0.1, 2.0**53]]),
    "one_column": np.array([[0.1], [0.1], [0.1], [-0.0]]),
    "one_cell": np.array([[-0.0]]),
    "no_columns_one_row": np.zeros((1, 0)),
    "no_columns_many_rows": np.zeros((7, 0)),
    "no_cells": np.zeros((0, 0)),
    "fortran_order": np.asfortranarray(np.repeat([[0.0, -0.0, 3.0], [1.0, 2.0, 3.0]], 4, axis=0)),
    "column_slice": np.tile([[0.5, -0.0, 7.0, 1e300]], (6, 1))[:, 1:3],
    "transpose": np.tile([0.0, -0.0, subnormal], (2, 5)).T,
}


@pytest.mark.parametrize("name", sorted(edge_tables))
def test_write_csv_edge_tables_match_the_per_cell_format(name):
    _assert_writes_old_bytes(edge_tables[name])


def _finite_bit_patterns(bits: np.ndarray) -> np.ndarray:
    # an all-ones exponent (inf or nan) loses its top bit, leaving sign and
    # mantissa on a finite value in [1, 2)
    bits = bits.copy()
    bits[~np.isfinite(bits.view(np.float64))] ^= 1 << 62
    return bits.view(np.float64)


@st.composite
def bit_pattern_tables(draw):
    shape = draw(hnp.array_shapes(min_dims=2, max_dims=2, min_side=1, max_side=20))
    # hypothesis' own int64 draws (edges, small patterns: subnormals), mixed
    # cell by cell with uniform patterns, which reach every binade alike
    bits = draw(hnp.arrays(np.int64, shape))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    uniform = rng.integers(-(2**63), 2**63, size=shape, dtype=np.int64, endpoint=False)
    bits = np.where(draw(hnp.arrays(np.bool_, shape)), uniform, bits)
    table = _finite_bit_patterns(bits)
    return layouts[draw(st.sampled_from(["C", "fortran", "column_slice"]))](table)


def _hard_cells() -> np.ndarray:
    cells = [
        1234567890123456.75,  # an exact tie, rounded to even: ...456.8
        1e16,
        1e17,
        99999999999999999.0,
        2.0**53,
        2.0**63,
        5e-324,
        0.0,
        -0.0,
    ]
    for edge in (1e-250, 1e250):
        cells += [edge, np.nextafter(edge, 0.0), np.nextafter(edge, np.inf)]
    # the neighbours of 10^k, such as 9.9999999999999995e-07
    for k in range(-20, 21):
        power = 10.0**k
        cells += [power, np.nextafter(power, 0.0), np.nextafter(power, np.inf)]
    # 1 to 17 significant digits, in fixed and in exponent notation
    for digits in range(1, 18):
        for exponent in (-30, -5, -4, -1, 0, 5, 15, 16, 17, 30):
            cells.append(float("123456789123456789"[:digits] + f"e{exponent - digits + 1}"))
    cells += [-c for c in cells]
    return np.array(cells[: len(cells) // 3 * 3])


hard = _hard_cells()


@settings(max_examples=1000, deadline=None)
@given(table=bit_pattern_tables())
@example(table=hard.reshape(-1, 1))
@example(table=hard.reshape(-1, 3))
@example(table=layouts["fortran"](hard.reshape(-1, 3)))
@example(table=layouts["column_slice"](hard.reshape(-1, 3)))
def test_write_csv_matches_the_per_cell_format_on_any_bit_pattern(table):
    _assert_writes_old_bytes(table)


def test_importing_the_cli_loads_no_formatter():
    script = (
        "import sys\n"
        "import impact_hedger.cli\n"
        "print(*(m in sys.modules for m in ('impact_hedger.g17', 'fractions', 'decimal')))\n"
        "from impact_hedger import g17\n"
        "print(g17._tables.cache_info().currsize)\n"
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, env=env, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["False", "False", "False", "0"]


@settings(max_examples=100, deadline=None)
@given(
    table=tables(1),
    bad=st.sampled_from([np.nan, np.inf, -np.inf]),
    where=st.floats(0.0, 1.0, exclude_max=True),
)
def test_write_csv_refuses_a_non_finite_cell_before_opening_the_file(table, bad, where):
    table.flat[int(where * table.size)] = bad
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "t.csv"
        with pytest.raises(ImpactHedgerError):
            _write_csv(path, [f"c{i}" for i in range(table.shape[1])], table)
        assert not path.exists()


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_non_finite_quote_exits_4_without_a_csv(tmp_path, monkeypatch, bad):
    monkeypatch.setattr(
        market, "quote_grid", lambda lattice, driver, s, node, z, y, h_m=None: np.full((z.size, y.size), bad)
    )
    out = tmp_path / "o"
    assert main(["price", "--config", str(SCENARIOS / "no_trade.ini"), "--out", str(out)]) == EXIT_NUMERIC
    assert not (out / "price.csv").exists()
    payload = json.loads((out / "report.json").read_text())
    assert payload["exit_code"] == EXIT_NUMERIC
    assert payload["files"] == []


def test_value_run_loads_no_scipy(tmp_path):
    script = (
        "import sys\n"
        "from impact_hedger import cli\n"
        "code = cli.main(sys.argv[1:])\n"
        "loaded = [m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')]\n"
        "print(code, len(loaded))\n"
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", script, "value", "--config", str(SCENARIOS / "no_trade.ini"), "--out", str(tmp_path)],
        capture_output=True,
        env=env,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["0", "0"]
    assert (tmp_path / "value.csv").exists()
