"""Acceptance suite: one test per criterion, one pass/fail line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
"""
import functools
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import impact_hedger as ih

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"


def criterion(num: int, label: str):
    def wrap(fn):
        @functools.wraps(fn)
        def inner(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"[criterion {num:02d}] FAIL - {label}")
                raise
            print(f"[criterion {num:02d}] PASS - {label}")

        return inner

    return wrap


BUILTIN_DRIVERS = [
    ih.zero_driver(),
    ih.linear_driver(0.2),
    ih.quadratic_driver(0.5),
    ih.entropic_driver(1.0),
    ih.drifted_quadratic_driver(1.0, 0.3),
    ih.homogeneous_driver(0.1),
]


@criterion(1, "entropic consistency and convergence order")
def test_c01_entropic_consistency():
    started = time.perf_counter()
    lat = ih.build_binomial(1.0, 200)
    term = lat.w_values(200)
    sol = ih.solve_bsde(lat, ih.entropic_driver(1.0), term)
    assert sol.pi.root == pytest.approx(-0.5, abs=0.01)

    errors = {}
    for n in (25, 50, 100, 200):
        latn = ih.build_binomial(1.0, n)
        t = latn.w_values(n)
        approx = ih.solve_bsde(latn, ih.entropic_driver(1.0), t).pi
        exact = ih.entropic_exact(latn, 1.0, t)
        err = approx.sup_diff(exact)
        errors[n] = err
        assert err <= 1.0 * latn.grid.dt
    slope = np.polyfit(
        np.log([25, 50, 100, 200]), np.log([errors[n] for n in (25, 50, 100, 200)]), 1
    )[0]
    assert -slope >= 0.9
    assert time.perf_counter() - started < 1.0


@criterion(2, "linear driver equals the exact change of measure")
def test_c02_linear_driver_measure_change():
    # The tilted expectation with branch weights (1 +/- nu sqrt(dt)) / 2 is
    # reproduced exactly; its mean for the Brownian payoff is nu * T (the
    # measure shifts the Brownian drift by +nu).
    nu, T = 0.2, 1.0
    for n in (1, 3, 10, 200):
        lat = ih.build_binomial(T, n)
        assert abs(nu) * lat.grid.sqrt_dt < 1.0
        sol = ih.solve_bsde(lat, ih.linear_driver(nu), lat.w_values(n))
        assert sol.pi.root == pytest.approx(nu * T, abs=1e-10)
        # exactness against an independent tilted backward fold
        v = lat.w_values(n)
        for _ in range(n):
            v = 0.5 * (1.0 + nu * lat.grid.sqrt_dt) * v[1:] + 0.5 * (
                1.0 - nu * lat.grid.sqrt_dt
            ) * v[:-1]
        assert sol.pi.root == pytest.approx(float(v[0]), abs=1e-12)


@criterion(3, "cash invariance for all built-in drivers")
def test_c03_cash_invariance():
    lat = ih.build_binomial(1.0, 50)
    rng = np.random.default_rng(123)
    w = lat.w_values(50)
    for drv in BUILTIN_DRIVERS:
        for _ in range(5):
            a, b = rng.uniform(-0.7, 0.7, 2)
            x = a * np.sin(w) + b * w
            c = float(rng.normal())
            base = ih.solve_bsde(lat, drv, x)
            shifted = ih.solve_bsde(lat, drv, x + c)
            assert shifted.pi.sup_diff(base.pi.map(lambda lv: lv + c)) <= 1e-12
            assert shifted.z.sup_diff(base.z) <= 1e-12


@criterion(4, "positive-homogeneity scaling of the position integrand")
def test_c04_homogeneity_scaling():
    lat = ih.build_binomial(1.0, 64)
    s = lat.w_values(64)
    for kappa in (0.05, 0.1):
        drv = ih.homogeneous_driver(kappa)
        z_minus = ih.solve_bsde(lat, drv, -s).z
        z_plus = ih.solve_bsde(lat, drv, s).z
        for y in (-2.0, -0.5, 0.5, 2.0):
            direct = ih.z_of_position(lat, drv, s, y).z
            scaled = ih.z_homogeneous(drv, y, z_minus, z_plus)
            assert direct.sup_diff(scaled) <= 1e-12


@criterion(5, "price-curve telescoping and entropic desk value")
def test_c05_price_curve():
    lat = ih.build_binomial(1.0, 200)
    s = lat.w_values(200)
    drv = ih.entropic_driver(1.0)
    zs = np.linspace(-0.5, 0.5, 5)
    ys = np.linspace(0.2, 1.0, 5)
    for z in zs:
        for y in ys:
            y1 = 0.4 * y
            y2 = y - y1
            whole = ih.price_curve(lat, drv, s, (0, 0), float(z), float(y))
            split = ih.price_curve(lat, drv, s, (0, 0), float(z), y1) + ih.price_curve(
                lat, drv, s, (0, 0), float(z) - y1, y2
            )
            assert abs(whole - split) <= 1e-12
    desk = ih.price_curve(lat, drv, s, (0, 0), 0.0, 1.0)
    assert desk == pytest.approx(0.5, abs=0.01)  # (gamma/2) y (y - 2z)


@criterion(6, "exponential-utility consistency triangle")
def test_c06_exponential_triangle():
    started = time.perf_counter()
    lat = ih.build_binomial(1.0, 200)
    drv = ih.drifted_quadratic_driver(1.0, 0.3)
    utility = ih.cara_utility(2.0)
    market = ih.MarketSpec(gamma=1.0, eta=0.3, utility=utility, x0=0.0)

    triple = ih.exponential_triple(lat, market)
    cara = ih.solve_fbsde_cara(lat, drv, 2.0, 0.0)
    picard = ih.solve_fbsde_picard(lat, drv, utility, 0.0, tol=1e-6, damping=0.5)

    for sol in (triple, cara, picard):
        assert sol.h.root == pytest.approx(0.1, abs=1e-3)
        assert sol.zeta.root == pytest.approx(0.015, abs=1e-3)
        assert sol.m.sup_abs() <= 1e-3
        for k in range(200):
            np.testing.assert_allclose(sol.h.values(k), 0.1, atol=1e-3)
    assert picard.converged
    assert picard.iterations <= 25
    assert time.perf_counter() - started < 5.0


@criterion(7, "optimality residuals and checker sensitivity")
def test_c07_optimality_residuals():
    lat = ih.build_binomial(1.0, 200)
    drv = ih.drifted_quadratic_driver(1.0, 0.3)
    utility = ih.cara_utility(2.0)
    sol = ih.solve_fbsde_cara(lat, drv, 2.0, 0.0)
    rep = sol.residuals
    assert rep.martingale_residual <= 1e-6
    assert rep.foc_residual <= 1e-6

    from dataclasses import replace

    bumped = ih.NodeProcess(lat, [lv + 0.05 for lv in sol.h.levels])
    rep2 = ih.verify_optimality(replace(sol, h=bumped), drv, utility)
    assert rep2.foc_residual > 1e-2


@criterion(8, "no-trade solutions and the homogeneous band")
def test_c08_no_trade():
    lat = ih.build_binomial(1.0, 100)
    utility = ih.cara_utility(2.0)

    # pure quadratic driver
    quad = ih.quadratic_driver(0.5)
    sol_q = ih.solve_fbsde_cara(lat, quad, 2.0, 0.25)
    assert sol_q.h.sup_abs() == 0.0
    assert sol_q.x.sup_diff(ih.NodeProcess.constant(lat, 0.25)) == 0.0
    flat_q = ih.no_trade_solution(lat, quad, 0.25)
    assert flat_q is not None and flat_q.theta.sup_abs() == 0.0

    # homogeneous driver with vanishing projection
    kink = ih.homogeneous_driver(0.1)
    flat_h = ih.no_trade_solution(lat, kink, 0.25)
    assert flat_h is not None and flat_h.theta.sup_abs() == 0.0

    # value surfaces keep the terminal utility exactly
    tg = ih.TimeGrid(1.0, 50)
    xg = ih.WealthGrid(-3.0, 3.0, 401)
    u_row = np.asarray(utility.u(xg.x))
    surf_q, pol_q = ih.dp_value(tg, xg, quad, utility, ih.ControlSpec("interval", -1, 1))
    surf_h, pol_h = ih.dp_value(
        tg, xg, kink, utility, ih.ControlSpec(kind="homogeneous", z_scale=1.0)
    )
    for k in range(51):
        np.testing.assert_allclose(surf_q.v[k], u_row, rtol=1e-13, atol=0.0)
        np.testing.assert_allclose(surf_h.v[k], u_row, rtol=1e-13, atol=0.0)
    assert np.abs(pol_q.upsilon).max() == 0.0
    assert pol_h.theta_hat.max() == 0.0

    # band example: m = 0 gives zero holdings by both routes
    root = ih.solve_h_homogeneous(1.0, -1.0, 0.1, 0.1, utility, 0.0, 0.0, 0.0)
    assert root.theta == 0.0 and root.h == 0.0
    _, ups = ih.lv_operator(surf_h, kink, 0.5, 0.0)
    assert ups == 0.0


@criterion(9, "variational route agrees with direct position differencing")
def test_c09_variational_agreement():
    lat = ih.build_binomial(1.0, 50)
    sde = ih.StateSde(drift=0.0, sigma=1.0, r0=0.0)
    r = ih.simulate_state(lat, sde)
    s_fn = lambda x: x  # noqa: E731
    h_fn = lambda x: x * x  # noqa: E731
    drv = ih.linear_driver(0.2)
    direct = ih.dz_dy(lat, drv, s_fn(r.terminal), 0.5, eps=1e-4, h_m=h_fn(r.terminal))
    variational = ih.dz_dy_variational(lat, drv, sde, s_fn, h_fn, 0.5)
    assert direct.dz.sup_diff(variational) <= 1e-3


@criterion(10, "trade-by-trade pricing equals the wealth accumulation")
def test_c10_simple_strategy_identity():
    lat = ih.build_binomial(1.0, 8)
    s = lat.w_values(8)
    strat = ih.piecewise_constant_strategy(lat, [(0, 0.5), (4, -0.3)])
    y_grid = np.linspace(-1.0, 1.0, 41)
    for drv in (ih.entropic_driver(1.0), ih.homogeneous_driver(0.1)):
        wealth = ih.pnl_process(lat, drv, s, strat, 0.0, y_grid=y_grid)
        priced = ih.simple_strategy_pnl(lat, drv, s, strat)
        assert np.max(np.abs(wealth.x.terminal - priced)) <= 1e-10


@criterion(11, "value surface: injected identity, desk values, residual order")
def test_c11_bspde_residual():
    started = time.perf_counter()
    drv = ih.drifted_quadratic_driver(1.0, 0.3)
    utility = ih.cara_utility(2.0)
    ctrl = ih.ControlSpec(kind="interval", z_lo=-1.0, z_hi=1.0)

    injected = ih.cara_closed_form_surface(
        ih.TimeGrid(1.0, 200), ih.WealthGrid(-3.0, 3.0, 401), 1.0, 0.3, 2.0
    )
    assert ih.bspde_residual(injected, drv).max_residual <= 1e-10

    tg = ih.TimeGrid(1.0, 200)
    xg = ih.WealthGrid(-3.0, 3.0, 401)
    surf, pol = ih.dp_value(tg, xg, drv, utility, ctrl)
    i0 = int(np.argmin(np.abs(xg.x)))
    assert surf.v[0, i0] == pytest.approx(-np.exp(-0.03), abs=1e-3)
    assert np.max(np.abs(pol.upsilon - 0.1)) <= 1e-3

    study = ih.WealthGrid(-1.5, 1.5, 801)
    residuals = []
    for n_t in (50, 100, 200):
        sn, _ = ih.dp_value(ih.TimeGrid(1.0, n_t), study, drv, utility, ctrl)
        residuals.append(ih.bspde_residual(sn, drv).max_residual)
    assert residuals[1] < residuals[0] and residuals[2] < residuals[1]
    slope = np.polyfit(np.log([50, 100, 200]), np.log(residuals), 1)[0]
    assert -slope >= 0.8
    assert time.perf_counter() - started < 30.0


@criterion(12, "surface-to-system bridge matches the explicit triple")
def test_c12_bridge():
    drv = ih.drifted_quadratic_driver(1.0, 0.3)
    utility = ih.cara_utility(2.0)
    tg = ih.TimeGrid(1.0, 200)
    xg = ih.WealthGrid(-3.0, 3.0, 401)
    surf, pol = ih.dp_value(tg, xg, drv, utility, ih.ControlSpec("interval", -1, 1))
    lat = ih.build_binomial(1.0, 200)
    bridge = ih.fbsde_from_surface(surf, pol, lat, utility, 0.0, drv)
    market = ih.MarketSpec(gamma=1.0, eta=0.3, utility=utility, x0=0.0)
    triple = ih.exponential_triple(lat, market)

    assert bridge.x.sup_diff(triple.x) <= 1e-3
    assert bridge.zeta.sup_diff(triple.zeta) <= 1e-3
    assert bridge.h.sup_diff(triple.h) <= 1e-3
    assert bridge.m.sup_abs() <= 1e-3
    rep = bridge.residuals
    assert rep.martingale_residual <= 1e-3
    assert rep.foc_residual <= 1e-3


@criterion(13, "admissible perturbations never improve expected utility")
def test_c13_perturbation_soundness():
    lat = ih.build_binomial(1.0, 200)
    drv = ih.drifted_quadratic_driver(1.0, 0.3)
    utility = ih.cara_utility(2.0)
    s = lat.w_values(200)
    y_grid = np.linspace(-1.5, 1.5, 121)
    sol = ih.solve_fbsde_cara(lat, drv, 2.0, 0.0, s_terminal=s, y_grid=y_grid)
    curve = ih.PositionCurve(lat, drv, s, y_grid=y_grid)
    base = ih.expected_terminal_utility(lat, drv, sol.h, 0.0, utility)

    rng = np.random.default_rng(42)
    for _ in range(20):
        levels = []
        for k in range(200):
            bump = rng.integers(-1, 2, size=k + 1).astype(float)
            levels.append(curve.z_level(k, sol.theta.values(k) + 0.01 * bump))
        perturbed = ih.expected_terminal_utility(lat, drv, levels, 0.0, utility)
        assert perturbed <= base + 1e-6


@criterion(14, "byte-identical outputs across runs and thread caps")
def test_c14_determinism(tmp_path):
    outs = {}
    for threads in (1, 4):
        for rep in (0, 1):
            out = tmp_path / f"t{threads}_r{rep}"
            env = dict(os.environ)
            for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
                env[var] = str(threads)
            proc = subprocess.run(
                [
                    sys.executable,
                    "-m",
                    "impact_hedger.cli",
                    "verify",
                    "--config",
                    str(SCENARIOS / "exponential.ini"),
                    "--out",
                    str(out),
                ],
                capture_output=True,
                env=env,
                text=True,
            )
            assert proc.returncode == 0, proc.stderr
            outs[(threads, rep)] = {p.name: p.read_bytes() for p in sorted(out.glob("*.csv"))}
    reference = outs[(1, 0)]
    assert len(reference) == 3
    for key, files in outs.items():
        assert files.keys() == reference.keys()
        for name, blob in files.items():
            assert blob == reference[name], f"{name} differs for {key}"
