"""The triangle pass without repeated work.

The quote grid sweeps every book of a ``price`` run at once and must quote
bit for bit what ``price_curve`` quotes one pair at a time; the Picard loop
is Anderson-accelerated, keeps its safeguard and does not depend on the
BLAS thread count; the CARA and Picard routes share one position curve.
"""
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import impact_hedger as ih
from impact_hedger import cli, gexpect, optimizer
from impact_hedger.errors import ImpactHedgerError, InvalidArgument
from impact_hedger.lattice import StateSde

ROOT = Path(__file__).resolve().parent.parent

coef = st.floats(-1.5, 1.5, allow_subnormal=False)

# all six driver kinds
drivers = st.one_of(
    st.just(ih.zero_driver()),
    coef.map(ih.linear_driver),
    st.floats(0.0, 1.0).map(ih.quadratic_driver),
    st.floats(0.05, 2.0).map(ih.entropic_driver),
    st.tuples(st.floats(0.05, 2.0), coef).map(lambda p: ih.drifted_quadratic_driver(*p)),
    st.floats(0.0, 1.5).map(ih.homogeneous_driver),
)

grid_values = st.lists(coef, min_size=1, max_size=4)


def _bits(x) -> bytes:
    return np.asarray(x, dtype=float).tobytes()


@settings(max_examples=80, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    driver=drivers,
    payoff=st.sampled_from(["brownian", "affine", "markov_linear"]),
    book=st.booleans(),
    n=st.integers(1, 30),
    horizon=st.floats(0.1, 2.0),
    a=st.floats(0.5, 1.5),
    b=coef,
    r0=coef,
    z_values=grid_values,
    y_values=grid_values,
    interior=st.booleans(),
    where=st.floats(0.0, 1.0),
)
def test_quote_grid_is_bit_identical_to_per_quote_price_curve(
    driver, payoff, book, n, horizon, a, b, r0, z_values, y_values, interior, where
):
    lat = ih.build_binomial(horizon, n)
    sde = StateSde(drift=0.0, sigma=1.0, r0=r0)
    w = lat.w_values(n)
    s = {"brownian": w, "affine": a * w + b, "markov_linear": ih.simulate_state(lat, sde).terminal}[payoff]
    h_m = ih.simulate_state(lat, sde).terminal ** 2 if book else None
    k = min(int(where * n), n - 1) if interior else 0
    node = (k, min(int(where * lat.level_size(k)), lat.level_size(k) - 1))

    try:
        expected = [[ih.price_curve(lat, driver, s, node, z, y, h_m=h_m) for y in y_values] for z in z_values]
    except ImpactHedgerError:
        # a row that breaks the step-size guard or overflows stops the batch too
        with pytest.raises(ImpactHedgerError):
            ih.quote_grid(lat, driver, s, node, z_values, y_values, h_m=h_m)
        return
    got = ih.quote_grid(lat, driver, s, node, z_values, y_values, h_m=h_m)
    assert got.shape == (len(z_values), len(y_values))
    assert _bits(got) == _bits(expected)


def test_quote_grid_refuses_a_node_off_the_lattice():
    lat = ih.build_binomial(1.0, 4)
    with pytest.raises(InvalidArgument):
        ih.quote_grid(lat, ih.zero_driver(), lat.w_values(4), (5, 0), [0.0], [1.0])
    with pytest.raises(InvalidArgument):
        ih.quote_grid(lat, ih.zero_driver(), lat.w_values(4), (2, 3), [0.0], [1.0])


def test_quote_grid_at_maturity_is_the_payoff_difference():
    lat = ih.build_binomial(1.0, 4)
    s = lat.w_values(4)
    got = ih.quote_grid(lat, ih.entropic_driver(1.0), s, (4, 1), [0.5], [1.0, 2.0])
    np.testing.assert_allclose(got, [[1.0 * s[1], 2.0 * s[1]]])


def test_c06_desk_converges_in_at_most_five_passes():
    lat = ih.build_binomial(1.0, 200)
    drv = ih.drifted_quadratic_driver(1.0, 0.3)
    utility = ih.cara_utility(2.0)
    cara = ih.solve_fbsde_cara(lat, drv, 2.0, 0.0)
    picard = ih.solve_fbsde_picard(lat, drv, utility, 0.0, tol=1e-6, damping=0.5)
    assert picard.converged
    assert picard.iterations <= 5
    assert len(picard.residual_history) == picard.iterations
    assert picard.step_history[0] == "damped"
    assert "anderson" in picard.step_history
    assert picard.x.sup_diff(cara.x) <= 1e-12
    assert picard.zeta.sup_diff(cara.zeta) <= 1e-12
    assert picard.h.sup_diff(cara.h) <= 1e-12


def test_anderson_step_that_raises_the_residual_falls_back(monkeypatch):
    # overshoot the first Anderson step: on the decoupled desk the image is a
    # constant c, so x + 5 f lands at residual 4 |f|, higher than before
    real = optimizer._anderson_step
    depths = []

    def overshooting(x, f, dx, df, beta):
        depths.append(len(dx))
        if len(depths) == 1:
            return x + 5.0 * f
        return real(x, f, dx, df, beta)

    monkeypatch.setattr(optimizer, "_anderson_step", overshooting)
    lat = ih.build_binomial(1.0, 60)
    drv = ih.drifted_quadratic_driver(1.0, 0.3)
    sol = ih.solve_fbsde_picard(lat, drv, ih.cara_utility(2.0), 0.0, tol=1e-10, max_iter=50)
    hist = sol.residual_history
    assert sol.step_history[:3] == ["damped", "anderson", "fallback"]
    assert hist[2] > hist[1]
    # the fallback is the plain damped step: it halves the residual
    assert hist[3] == pytest.approx(0.5 * hist[2], rel=1e-12)
    # the history was cleared, so the next Anderson step mixes one difference
    assert depths[:2] == [1, 1]
    assert sol.converged
    assert sol.x.sup_diff(ih.solve_fbsde_cara(lat, drv, 2.0, 0.0).x) <= 1e-12


def test_a_singular_mixing_system_restarts_with_the_damped_step(monkeypatch):
    lat = ih.build_binomial(1.0, 40)
    drv = ih.drifted_quadratic_driver(1.0, 0.3)
    utility = ih.cara_utility(1.7)
    mixed = ih.solve_fbsde_picard(lat, drv, utility, 0.0, tol=1e-12)
    assert (mixed.step_history, mixed.iterations) == (["damped", "anderson"], 3)

    def singular(*args, **kwargs):
        raise np.linalg.LinAlgError("Singular matrix")

    monkeypatch.setattr(np.linalg, "solve", singular)
    sol = ih.solve_fbsde_picard(lat, drv, utility, 0.0, tol=1e-12)
    assert sol.converged and sol.iterations == 41
    assert sol.step_history == ["damped"] + ["fallback"] * 39
    for got, want in ((sol.x, mixed.x), (sol.zeta, mixed.zeta), (sol.h, mixed.h)):
        assert got.sup_diff(want) <= 1e-15


def test_singular_mixing_system_gives_no_anderson_step():
    x = np.zeros(5)
    f = np.ones(5)
    assert optimizer._anderson_step(x, f, [np.ones(5)], [np.zeros(5)], 0.5) is None


def test_anderson_step_solves_a_constant_map_from_two_points():
    # G(x) = c: from x0 and x1 = x0 + beta f0 one Anderson step lands on c
    rng = np.random.default_rng(3)
    c, x0 = rng.normal(size=7), rng.normal(size=7)
    beta = 0.5
    f0 = c - x0
    x1 = x0 + beta * f0
    f1 = c - x1
    step = optimizer._anderson_step(x1, f1, [x1 - x0], [f1 - f0], beta)
    np.testing.assert_allclose(step, c, rtol=0, atol=1e-14)


def test_noncara_picard_records_its_steps():
    lat = ih.build_binomial(1.0, 20)
    drv = ih.drifted_quadratic_driver(1.0, 0.3)
    u = ih.custom_utility(
        u=lambda x: -np.exp(-x) - 0.25 * np.exp(-2 * x),
        u1=lambda x: np.exp(-x) + 0.5 * np.exp(-2 * x),
        u2=lambda x: -np.exp(-x) - np.exp(-2 * x),
        u3=lambda x: np.exp(-x) + 2.0 * np.exp(-2 * x),
    )
    sol = ih.solve_fbsde_picard(lat, drv, u, 0.0, tol=1e-9, max_iter=80, damping=0.5)
    assert sol.converged
    assert sol.residual_history[-1] < 1e-9 <= min(sol.residual_history[:-1])
    assert len(sol.step_history) == sol.iterations - 1
    assert sol.step_history.count("anderson") >= 1


def test_unconverged_picard_records_a_step_per_pass():
    lat = ih.build_binomial(1.0, 30)
    drv = ih.drifted_quadratic_driver(1.0, 0.3)
    sol = ih.solve_fbsde_picard(lat, drv, ih.cara_utility(2.0), 0.0, tol=1e-14, max_iter=1)
    assert not sol.converged
    assert sol.iterations == 1
    assert len(sol.residual_history) == len(sol.step_history) == 1


def _desk(tmp_path, **numerics) -> Path:
    cfg = tmp_path / "desk.ini"
    extra = "".join(f"{k} = {v}\n" for k, v in numerics.items())
    cfg.write_text(
        "[driver]\nkind = drifted_quadratic\ngamma = 1.1\neta = 0.35\n"
        "[utility]\nkind = cara\ngamma_a = 1.7316\n"
        "[market]\npayoff = affine\npayoff_a = 1.2\npayoff_b = 0.1\ngamma = 1.1\neta = 0.35\nx0 = 0.2\n"
        f"[numerics]\nhorizon = 0.9\ny_grid = -1.5:1.5:121\n{extra}"
        "[outputs]\nformats = csv,json\n"
    )
    return cfg


def test_solve_csv_does_not_depend_on_the_blas_thread_count(tmp_path):
    cfg = _desk(tmp_path, n_steps=200)
    outputs = []
    for threads in ("1", "2"):
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
        for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
            env[var] = threads
        out = tmp_path / f"t{threads}"
        proc = subprocess.run(
            [sys.executable, "-m", "impact_hedger.cli", "solve", "--config", str(cfg), "--out", str(out)],
            capture_output=True,
            env=env,
            text=True,
        )
        assert proc.returncode == 0, proc.stderr
        outputs.append((out / "solve.csv").read_bytes())
    assert outputs[0] == outputs[1]


@pytest.mark.parametrize("driver", ["drifted_quadratic", "homogeneous"])
def test_solve_routes_build_one_position_curve(monkeypatch, tmp_path, driver):
    # one driver sweep of the position curve serves both routes: the
    # streamed y-grid sweep of a drifted quadratic driver, the unit-payoff
    # cone of a homogeneous one
    sweeps = []
    driver_levels = gexpect._driver_levels

    def counting(*args, **kwargs):
        sweeps.append(args)
        return driver_levels(*args, **kwargs)

    def no_second_sweep(*args, **kwargs):
        raise AssertionError("the kinked Picard route swept the unit payoffs again")

    monkeypatch.setattr(gexpect, "_driver_levels", counting)
    monkeypatch.setattr(optimizer, "_unit_integrands", no_second_sweep)
    cfg = cli.load_config(_desk(tmp_path, n_steps=40))
    if driver == "homogeneous":
        cfg.driver_kind, cfg.driver_params, cfg.mode = "homogeneous", {"kappa": 0.1}, "theta_plus"
    lattice = ih.build_binomial(cfg.horizon, cfg.n_steps)
    s, _ = cli._build_payoff(cfg, lattice)
    drv = cli._build_driver(cfg)
    cara, picard, curve = cli._solve_routes(cfg, lattice, drv, s)
    cli._recover_holdings(cfg, lattice, drv, s, [cara, picard], curve)
    assert len(sweeps) == 1
    assert cara.theta is not None and picard.theta is not None
    assert picard.converged


@pytest.mark.parametrize("market_eta, sweeps_expected", [("0.35", 1), ("0.2", 2)])
def test_verify_shares_the_scenario_curve_with_the_closed_form_route(
    monkeypatch, tmp_path, market_eta, sweeps_expected
):
    # [market] gamma/eta equal to the scenario driver: one batched y-grid
    # sweep serves all three routes; a different market drift needs its own
    cfg = _desk(tmp_path, n_steps=40)
    text = cfg.read_text().replace("eta = 0.35\nx0", f"eta = {market_eta}\nx0")
    cfg.write_text(text)
    sweeps = []
    books = gexpect._position_terminals

    def counting(*args, **kwargs):
        sweeps.append(args)
        return books(*args, **kwargs)

    monkeypatch.setattr(gexpect, "_position_terminals", counting)
    assert cli.main(["verify", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 0
    assert len(sweeps) == sweeps_expected


@pytest.mark.parametrize("command", ["verify", "solve"])
def test_holdings_outside_the_attainable_image_exit_4_without_tables(tmp_path, capsys, command):
    # a 3-point y-grid on [-0.01, 0.01] cannot reach the routes' integrands
    cfg = _desk(tmp_path, n_steps=40)
    cfg.write_text(cfg.read_text().replace("y_grid = -1.5:1.5:121", "y_grid = -0.01:0.01:3"))
    out = tmp_path / "o"
    assert cli.main([command, "--config", str(cfg), "--out", str(out)]) == 4
    err = capsys.readouterr().err
    assert "numeric error: integrand target outside the attainable image" in err
    assert "Traceback" not in err
    assert json.loads((out / "report.json").read_text())["exit_code"] == 4
    assert not list(out.glob("*.csv"))


def test_closed_form_holdings_from_the_scenario_curve_are_bit_identical():
    lat = ih.build_binomial(0.9, 40)
    s = 1.2 * lat.w_values(40) + 0.1
    y_grid = np.linspace(-1.5, 1.5, 121)
    market = ih.MarketSpec(gamma=1.1, eta=0.35, utility=ih.cara_utility(1.7316), x0=0.2)
    scenario_driver = ih.drifted_quadratic_driver(1.1, 0.35)
    triple = ih.exponential_triple(lat, market)
    (own,) = ih.recover_theta(lat, market.driver(), s, [triple.h], y_grid=y_grid)
    (shared,) = ih.recover_theta(lat, scenario_driver, s, [triple.h], y_grid=y_grid)
    for k in range(40):
        assert _bits(shared.values(k)) == _bits(own.values(k))
