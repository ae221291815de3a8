import json
import os
import re
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from impact_hedger.cli import EXIT_CONFIG, EXIT_NUMERIC, load_config, main, run
from impact_hedger.errors import InvalidArgument

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"


def test_load_config_round_trip():
    cfg = load_config(SCENARIOS / "exponential.ini")
    assert cfg.driver_kind == "drifted_quadratic"
    assert cfg.n_steps == 200
    assert cfg.y_grid.size == 121
    echo = cfg.echo()
    assert echo["market"]["eta"] == 0.3


def test_missing_config_exits_2(tmp_path):
    assert main(["solve", "--config", str(tmp_path / "nope.ini"), "--out", str(tmp_path)]) == EXIT_CONFIG


def test_bad_config_exits_2(tmp_path):
    bad = tmp_path / "bad.ini"
    bad.write_text("[driver]\nkind = warp\n[utility]\ngamma_a = 2\n[numerics]\nn_steps = 10\n")
    assert main(["gexp", "--config", str(bad), "--out", str(tmp_path)]) == EXIT_CONFIG


def test_gexp_command(tmp_path):
    report = run("gexp", SCENARIOS / "entropic_gexp.ini", tmp_path)
    assert report.exit_code == 0
    assert report.results["pi_root"] == pytest.approx(-0.5, abs=0.01)
    body = (tmp_path / "gexp.csv").read_text().splitlines()
    assert body[0] == "level,node,t,W,pi,z"
    # one row per node of the full lattice
    assert len(body) - 1 == sum(k + 1 for k in range(201))
    payload = json.loads((tmp_path / "report.json").read_text())
    assert payload["exit_code"] == 0


def test_price_command_risk_neutral_rows(tmp_path):
    cfg = tmp_path / "rn.ini"
    cfg.write_text(
        "[driver]\nkind = zero\n"
        "[utility]\nkind = cara\ngamma_a = 2.0\n"
        "[market]\npayoff = brownian\n"
        "[numerics]\nn_steps = 50\n"
        "[price]\nz_values = -0.5,0.0,0.5\ny_values = 0.5,1.0\n"
        "[outputs]\nformats = csv,json\n"
    )
    report = run("price", cfg, tmp_path)
    assert report.exit_code == 0
    rows = (tmp_path / "price.csv").read_text().splitlines()[1:]
    for row in rows:
        t, z, y, p = (float(v) for v in row.split(","))
        assert p == pytest.approx(y * 0.0, abs=1e-12)  # E[S] = 0 for the Brownian payoff


def test_solve_command_desk_values(tmp_path):
    report = run("solve", SCENARIOS / "exponential.ini", tmp_path)
    assert report.exit_code == 0
    assert report.results["z_star"] == pytest.approx(0.1, abs=1e-3)
    assert report.results["zeta0"] == pytest.approx(0.015, abs=1e-3)
    assert report.flags["non_convergence"] is False
    header = (tmp_path / "solve.csv").read_text().splitlines()[0]
    assert header == "level,node,x,zeta,m,theta,h"


def test_closedform_command(tmp_path):
    report = run("closedform", SCENARIOS / "exponential.ini", tmp_path)
    assert report.exit_code == 0
    assert report.results["lambda"] == pytest.approx(2.0 * np.exp(-0.03), abs=1e-9)
    assert report.results["no_trade_applicable"] is False
    assert report.results["terminal_wealth_gap"] <= 1e-6


def test_value_command(tmp_path):
    report = run("value", SCENARIOS / "exponential.ini", tmp_path)
    assert report.exit_code == 0
    assert report.results["value_at_x0"] == pytest.approx(-np.exp(-0.03), abs=1e-3)
    header = (tmp_path / "value.csv").read_text().splitlines()[0]
    assert header == "t,x,V,Vx,Vxx,upsilon,theta_hat,residual"


def test_verify_no_trade_scenario(tmp_path):
    report = run("verify", SCENARIOS / "no_trade.ini", tmp_path)
    assert report.exit_code == 0
    roots = report.results["theta_roots"]
    for route in ("closedform", "cara", "picard"):
        assert roots[route] == pytest.approx(0.0, abs=1e-12)
    assert report.results["max_route_gap"] <= 1e-12


def test_verify_exponential_scenario_routes_agree(tmp_path):
    report = run("verify", SCENARIOS / "exponential.ini", tmp_path)
    assert report.exit_code == 0
    assert report.results["max_route_gap"] <= 1e-3
    for name in ("verify_closedform.csv", "verify_cara.csv", "verify_picard.csv"):
        assert (tmp_path / name).exists()


def test_outputs_are_finite(tmp_path):
    run("solve", SCENARIOS / "exponential.ini", tmp_path)
    for line in (tmp_path / "solve.csv").read_text().splitlines()[1:]:
        assert all(np.isfinite(float(v)) for v in line.split(","))


def _run_cli_subprocess(command, config, out_dir, threads):
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(threads)
    proc = subprocess.run(
        [sys.executable, "-m", "impact_hedger.cli", command, "--config", str(config), "--out", str(out_dir)],
        capture_output=True,
        env=env,
        text=True,
    )
    return proc


def test_verify_byte_identical_across_threads(tmp_path):
    outs = {}
    for threads in (1, 4):
        for rep in (0, 1):
            out = tmp_path / f"t{threads}_r{rep}"
            proc = _run_cli_subprocess("verify", SCENARIOS / "no_trade.ini", out, threads)
            assert proc.returncode == 0, proc.stderr
            outs[(threads, rep)] = {
                p.name: p.read_bytes() for p in sorted(out.glob("*.csv"))
            }
    reference = outs[(1, 0)]
    assert reference  # at least one CSV produced
    for key, files in outs.items():
        assert files.keys() == reference.keys()
        for name, blob in files.items():
            assert blob == reference[name], f"{name} differs for {key}"


def test_nonconvergence_exits_3_with_partial_outputs(tmp_path):
    cfg = tmp_path / "stall.ini"
    cfg.write_text(
        "[driver]\nkind = drifted_quadratic\ngamma = 1.0\neta = 0.3\n"
        "[utility]\nkind = cara\ngamma_a = 2.0\n"
        "[market]\npayoff = brownian\neta = 0.3\n"
        "[numerics]\nn_steps = 50\ny_grid = -1.5:1.5:61\ntol = 1e-14\nmax_iter = 2\n"
        "[outputs]\nformats = csv,json\n"
    )
    code = main(["solve", "--config", str(cfg), "--out", str(tmp_path / "o")])
    assert code == 3
    assert (tmp_path / "o" / "solve.csv").exists()  # partial outputs written
    payload = json.loads((tmp_path / "o" / "report.json").read_text())
    assert payload["flags"]["non_convergence"] is True
    assert payload["exit_code"] == 3


def test_numeric_failure_exits_4(tmp_path):
    cfg = tmp_path / "blow.ini"
    cfg.write_text(
        "[driver]\nkind = entropic\ngamma = 200.0\n"
        "[utility]\nkind = cara\ngamma_a = 2.0\n"
        "[market]\npayoff = brownian\n"
        "[numerics]\nn_steps = 4\n"
        "[outputs]\nformats = csv,json\n"
    )
    code = main(["gexp", "--config", str(cfg), "--out", str(tmp_path / "o")])
    assert code == 4


_SMALL_DESK = (
    "[driver]\nkind = drifted_quadratic\ngamma = 1.0\neta = 0.3\n"
    "[utility]\nkind = cara\ngamma_a = {gamma_a}\n"
    "[market]\npayoff = brownian\neta = 0.3\n{market_extra}"
    "[numerics]\nn_steps = {n_steps}\ny_grid = {y_grid}\n{numerics_extra}"
    "[price]\nz_values = {z_values}\n{price_extra}"
    "[outputs]\nformats = {formats}\n"
)


def _small_desk(tmp_path, **overrides) -> Path:
    values = {
        "gamma_a": "2.0",
        "n_steps": "20",
        "y_grid": "-1.5:1.5:31",
        "market_extra": "",
        "numerics_extra": "",
        "z_values": "0.0",
        "price_extra": "",
        "formats": "csv,json",
    }
    values.update(overrides)
    cfg = tmp_path / "desk.ini"
    cfg.write_text(_SMALL_DESK.format(**values))
    return cfg


def test_config_error_inside_command_reports_exit_2(tmp_path):
    # a negative kappa passes load_config (driver parameters are checked by
    # their constructor) and is refused when verify builds the driver
    cfg = _small_desk(tmp_path)
    driver = "kind = drifted_quadratic\ngamma = 1.0\neta = 0.3\n"
    cfg.write_text(cfg.read_text().replace(driver, "kind = homogeneous\nkappa = -0.1\n"))
    out = tmp_path / "o"
    proc = _run_cli_subprocess("verify", cfg, out, 1)
    assert proc.returncode == EXIT_CONFIG, proc.stderr
    assert "Traceback" not in proc.stderr
    payload = json.loads((out / "report.json").read_text())
    assert payload["exit_code"] == proc.returncode


@pytest.mark.parametrize("command", ["closedform", "verify"])
def test_float_overflow_inside_command_exits_4(tmp_path, capsys, command):
    # closedform's density pass meets the overflow first and names the drift
    # and the level; verify meets it where the closed forms square eta
    cfg = _small_desk(tmp_path)
    market = "payoff = brownian\neta = 0.3\n"
    cfg.write_text(cfg.read_text().replace(market, "payoff = brownian\neta = 1e160\n"))
    out = tmp_path / "o"
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert main([command, "--config", str(cfg), "--out", str(out)]) == 4
    err = capsys.readouterr().err
    assert "numeric error" in err
    if command == "closedform":
        assert "measure drift eta = 1e+160" in err and "level 1" in err
    else:
        assert "eta" in err and "measure drift eta = 1e+160" in err and "step 0" in err
    assert json.loads((out / "report.json").read_text())["exit_code"] == 4


@pytest.mark.parametrize("slope", ["0", "-0.0"])
def test_a_zero_payoff_slope_is_refused_at_load(tmp_path, capsys, slope):
    cfg = _small_desk(tmp_path)
    market = "payoff = brownian\n"
    cfg.write_text(cfg.read_text().replace(market, f"payoff = affine\npayoff_a = {slope}\n"))
    out = tmp_path / "o"
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert main(["value", "--config", str(cfg), "--out", str(out)]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert "[market] payoff_a" in err and "must be nonzero" in err
    assert "RuntimeWarning" not in err
    assert not out.exists()


def test_value_holdings_are_the_integrand_over_the_payoff_slope(tmp_path):
    # every shipped scenario has slope 1, where the two columns coincide
    cfg = _small_desk(tmp_path, numerics_extra="n_x = 101\n")
    cfg.write_text(cfg.read_text().replace("payoff = brownian\n", "payoff = affine\npayoff_a = 1.3\n"))
    assert main(["value", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 0
    lines = (tmp_path / "o" / "value.csv").read_text().splitlines()
    header = lines[0].split(",")
    rows = np.array([[float(v) for v in line.split(",")] for line in lines[1:]])
    upsilon, theta = rows[:, header.index("upsilon")], rows[:, header.index("theta_hat")]
    assert np.any(upsilon != 0.0)
    assert (upsilon / 1.3).tobytes() == theta.tobytes()


def test_an_underflowing_utility_curvature_exits_4_by_name(tmp_path, capsys):
    # the CARA solve's zeta is about 1e11 here, where U'' = -4 exp(-2 w) is 0.0
    cfg = _small_desk(tmp_path, n_steps="1")
    cfg.write_text(cfg.read_text().replace("gamma = 1.0\neta = 0.3\n", "gamma = 1.0\neta = 1e6\n"))
    out = tmp_path / "o"
    assert main(["solve", "--config", str(cfg), "--out", str(out)]) == 4
    assert "numeric error: U'' underflows to 0" in capsys.readouterr().err
    assert json.loads((out / "report.json").read_text())["exit_code"] == 4


def test_a_far_control_end_is_no_search_boundary(tmp_path):
    # the maximizer, about 0.1, is far from both ends of [-1, 1e10]
    tables = []
    for z_hi in ("1", "1e10"):
        cfg = _small_desk(tmp_path, numerics_extra=f"n_x = 101\nz_lo = -1\nz_hi = {z_hi}\n")
        out = tmp_path / f"z_hi_{z_hi}"
        assert main(["value", "--config", str(cfg), "--out", str(out)]) == 0
        tables.append((out / "value.csv").read_bytes())
    assert tables[0] == tables[1]


@pytest.mark.parametrize("command", ["gexp", "price", "solve", "verify"])
def test_an_overflowing_payoff_is_refused_by_name(tmp_path, capsys, command):
    # 1e308 W overflows at the lattice edge: the run ends on the payoff,
    # not on a sweep level, and without a numpy warning on the way
    cfg = tmp_path / "huge.ini"
    cfg.write_text(
        "[driver]\nkind = zero\n"
        "[utility]\nkind = cara\ngamma_a = 2.0\n"
        "[market]\npayoff = affine\npayoff_a = 1e308\n"
        "[numerics]\nhorizon = 4\nn_steps = 4\n"
    )
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        code = main([command, "--config", str(cfg), "--out", str(tmp_path / "o")])
    assert code == EXIT_NUMERIC
    err = capsys.readouterr().err
    assert "non-finite terminal payoff" in err
    assert "RuntimeWarning" not in err


@pytest.mark.parametrize(
    ("command", "extra", "message"),
    [
        # U'(-1e6) = 2 exp(2e6) overflows in the optimality check
        ("solve", "[market]\nx0 = -1e6\n", "U' is inf at X + zeta = -1e+06"),
        # the Markov book r**2 overflows
        ("gexp", "[market]\nh_m = markov_square\nr0 = 1e300\n", "non-finite terminal payoff or book"),
        # the driver overflows on the integrand of a 1e300 position
        ("price", "[price]\ny_values = 1e300\n", "non-finite evaluation during backward sweep"),
    ],
    ids=["wealth", "book", "position"],
)
def test_a_value_out_of_float_range_exits_4_by_name(tmp_path, capsys, command, extra, message):
    cfg = tmp_path / "far.ini"
    cfg.write_text(
        "[driver]\nkind = quadratic\nalpha = 0.5\n"
        "[utility]\nkind = cara\ngamma_a = 2.0\n"
        "[numerics]\nhorizon = 1\nn_steps = 2\n" + extra
    )
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        code = main([command, "--config", str(cfg), "--out", str(tmp_path / "o")])
    assert code == EXIT_NUMERIC
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("eta", ["1e3", "1e10"])
def test_budget_multiplier_out_of_float_range_exits_4(tmp_path, eta):
    # exp(-gamma_a v / (2 (gamma + gamma_a))) underflows to a zero multiplier
    cfg = tmp_path / "drift.ini"
    cfg.write_text(
        "[driver]\nkind = zero\n"
        "[utility]\nkind = cara\ngamma_a = 2.0\n"
        f"[market]\npayoff = brownian\neta = {eta}\n"
        "[numerics]\nn_steps = 2\n"
    )
    out = tmp_path / "o"
    proc = _run_cli_subprocess("closedform", cfg, out, 1)
    assert proc.returncode == 4, proc.stderr
    assert "numeric error" in proc.stderr and "lambda" in proc.stderr
    assert "Traceback" not in proc.stderr
    assert json.loads((out / "report.json").read_text())["exit_code"] == 4


@pytest.mark.parametrize("command", ["gexp", "price", "solve", "closedform", "value", "verify"])
@pytest.mark.parametrize(
    "override, message",
    [
        ({"numerics_extra": "n_x = 5\n"}, "wealth grid too coarse for interior stencils"),
        ({"numerics_extra": "x_min = 3.0\n"}, "x_max must exceed x_min"),
        ({"numerics_extra": "z_lo = 2.0\n"}, "z_hi must exceed z_lo"),
        ({"y_grid": "0.5"}, "y_grid must be sorted with at least 2 points"),
        ({"numerics_extra": "x_max = inf\n"}, "[numerics] x_max"),
        ({"numerics_extra": "horizon = 0\n"}, "[numerics] horizon"),
        ({"numerics_extra": "horizon = -1.0\n"}, "[numerics] horizon"),
        ({"y_grid": "-1.5,nan,1.5"}, "[numerics] y_grid"),
        ({"z_values": "0.0,inf"}, "[price] z_values"),
        ({"z_values": ""}, "[price] z_values"),
        ({"price_extra": "y_values =\n"}, "[price] y_values"),
        ({"gamma_a": "-2.0"}, "[utility] gamma_a"),
        ({"gamma_a": "nan"}, "[utility] gamma_a"),
        ({"market_extra": "x0 = nan\n"}, "[market] x0"),
        ({"market_extra": "gamma = -1.0\n"}, "[market] gamma"),
    ],
    ids=[
        "n_x", "x_min", "z_lo", "y_grid", "x_max_inf", "horizon_zero", "horizon_negative",
        "y_grid_nan", "z_values_inf", "z_values_empty", "y_values_empty", "gamma_a_negative", "gamma_a_nan", "x0_nan", "market_gamma",
    ],
)
def test_bad_grid_exits_2_under_every_command(tmp_path, capsys, command, override, message):
    # grids and every other value a command may never read are refused at load
    cfg = _small_desk(tmp_path, **override)
    with pytest.raises(InvalidArgument, match=re.escape(message)):
        load_config(cfg)
    out = tmp_path / "o"
    assert main([command, "--config", str(cfg), "--out", str(out)]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert message in err
    assert "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize(
    "key, value, label",
    [
        ("gamma_a", "abc", "[utility] gamma_a"),
        ("n_steps", "2.5", "[numerics] n_steps"),
        ("y_grid", "-1:1", "[numerics] y_grid"),
        ("z_values", "0.0,zero", "[price] z_values"),
    ],
)
def test_non_numeric_config_value_exits_2(tmp_path, key, value, label):
    cfg = _small_desk(tmp_path, **{key: value})
    proc = _run_cli_subprocess("price", cfg, tmp_path / "o", 1)
    assert proc.returncode == EXIT_CONFIG
    assert "Traceback" not in proc.stderr
    assert label in proc.stderr


@pytest.mark.parametrize(
    "edit",
    [
        lambda text: ("n_steps = 20\n" + text).encode(),
        lambda text: (text + "[outputs]\nformats = csv\n").encode(),
        lambda text: text.replace("n_steps = 20\n", "n_steps = 20\nn_steps = 30\n").encode(),
        lambda text: text.replace("gamma_a = 2.0", "gamma_a = 2%").encode(),
        lambda text: b"\xff\xfe" + text.encode(),
    ],
    ids=["no_section_header", "duplicate_section", "duplicate_key", "bad_interpolation", "undecodable"],
)
def test_malformed_ini_exits_2(tmp_path, capsys, edit):
    cfg = _small_desk(tmp_path)
    cfg.write_bytes(edit(cfg.read_text()))
    assert main(["price", "--config", str(cfg), "--out", str(tmp_path / "o")]) == EXIT_CONFIG
    assert "config error" in capsys.readouterr().err


def test_max_iter_below_one_is_a_config_error(tmp_path, capsys):
    cfg = _small_desk(tmp_path, numerics_extra="max_iter = 0\n")
    with pytest.raises(InvalidArgument, match=r"\[numerics\] max_iter"):
        load_config(cfg)
    assert main(["solve", "--config", str(cfg), "--out", str(tmp_path / "o")]) == EXIT_CONFIG
    assert "[numerics] max_iter" in capsys.readouterr().err


@pytest.mark.parametrize(
    "formats, csv_written, json_written",
    [("csv,json", True, True), ("json", False, True), ("csv", True, False), (" json , csv ", True, True)],
)
def test_output_formats_select_the_files_written(tmp_path, formats, csv_written, json_written):
    cfg = _small_desk(tmp_path, formats=formats)
    out = tmp_path / "o"
    assert main(["verify", "--config", str(cfg), "--out", str(out)]) == 0
    csvs = sorted(p.name for p in out.glob("*.csv"))
    assert csvs == (["verify_cara.csv", "verify_closedform.csv", "verify_picard.csv"] if csv_written else [])
    assert (out / "report.json").exists() == json_written
    if json_written:
        payload = json.loads((out / "report.json").read_text())
        assert sorted(payload["files"]) == csvs


@pytest.mark.parametrize("formats", ["cvs", "csv,xml", ""])
def test_unknown_output_format_exits_2(tmp_path, capsys, formats):
    cfg = _small_desk(tmp_path, formats=formats)
    out = tmp_path / "o"
    assert main(["gexp", "--config", str(cfg), "--out", str(out)]) == EXIT_CONFIG
    assert "[outputs] formats" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "extra, key",
    [
        ("tol = -1\n", "tol"),
        ("tol = 0\n", "tol"),
        ("tol = nan\n", "tol"),
        ("damping = 7\n", "damping"),
        ("damping = 0\n", "damping"),
        ("damping = -0.5\n", "damping"),
        ("damping = 7\ntol = -1\n", "tol"),
    ],
)
def test_tol_and_damping_are_checked_at_load_time(tmp_path, capsys, extra, key):
    cfg = _small_desk(tmp_path, numerics_extra=extra)
    with pytest.raises(InvalidArgument, match=rf"\[numerics\] {key}"):
        load_config(cfg)
    # refused even by a command that never runs the Picard loop
    assert main(["gexp", "--config", str(cfg), "--out", str(tmp_path / "o")]) == EXIT_CONFIG
    assert f"[numerics] {key}" in capsys.readouterr().err


def test_full_damping_is_accepted(tmp_path):
    cfg = _small_desk(tmp_path, numerics_extra="damping = 1.0\n")
    assert load_config(cfg).damping == 1.0


def test_solve_report_explains_the_picard_run(tmp_path):
    cfg = _small_desk(tmp_path, gamma_a="1.7316")
    out = tmp_path / "o"
    assert main(["solve", "--config", str(cfg), "--out", str(out)]) == 0
    results = json.loads((out / "report.json").read_text())["results"]
    residuals = results["picard_residuals"]
    assert len(residuals) == results["iterations"] <= 5
    assert residuals[-1] < 1e-6 <= min(residuals[:-1])
    # one step after every pass but the converged last one
    assert results["picard_steps"][0] == "damped"
    assert len(results["picard_steps"]) == len(residuals) - 1
    assert set(results["picard_steps"]) <= {"damped", "anderson", "fallback"}


@pytest.mark.parametrize(
    "edit, label",
    [
        (lambda text: text.replace("[price]\n", "dampng = 0.7\n[price]\n"), "[numerics] dampng"),
        (lambda text: text.replace("[price]\n", "seed = 0\n[price]\n"), "[numerics] seed"),
        # read only for kind = linear
        (lambda text: text.replace("eta = 0.3\n", "eta = 0.3\nnu = 0.1\n", 1), "[driver] nu"),
        (lambda text: text.replace("[price]", "[prices]"), "[prices] z_values"),
        # [DEFAULT] keys reach every section; tol is read, n_stepz is not
        (lambda text: "[DEFAULT]\ntol = 1e-6\nn_stepz = 5\n" + text, "[DEFAULT] n_stepz"),
    ],
    ids=["misspelt", "seed", "other_driver_kind", "misspelt_section", "default_section"],
)
def test_unread_config_key_exits_2(tmp_path, capsys, edit, label):
    cfg = _small_desk(tmp_path)
    cfg.write_text(edit(cfg.read_text()))
    with pytest.raises(InvalidArgument, match=re.escape(label)):
        load_config(cfg)
    assert main(["gexp", "--config", str(cfg), "--out", str(tmp_path / "o")]) == EXIT_CONFIG
    assert label in capsys.readouterr().err


def test_zero_slope_linear_value_writes_no_negative_zero(tmp_path):
    # the linear driver's quadratic-family drift is -nu, which is -0.0 here
    cfg = tmp_path / "linear.ini"
    cfg.write_text(
        "[driver]\nkind = linear\nnu = 0.0\n"
        "[utility]\nkind = cara\ngamma_a = 2.0\n"
        "[market]\npayoff = brownian\n"
        "[numerics]\nn_steps = 20\nn_x = 61\n"
    )
    out = tmp_path / "o"
    assert main(["value", "--config", str(cfg), "--out", str(out)]) == 0
    lines = (out / "value.csv").read_text().splitlines()
    column = lines[0].split(",").index("upsilon")
    upsilon = {line.split(",")[column] for line in lines[1:]}
    assert upsilon == {"0"}
