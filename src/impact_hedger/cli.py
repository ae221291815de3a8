"""Scenario runner: INI config in, CSV tables and a JSON report out.

Commands
--------
gexp        evaluation and integrand tables for the configured payoff
price       quoted price over a (z, y) grid at the root node
solve       coupled-system solution plus optimality report
closedform  complete-market oracles (density, multiplier, explicit triple)
value       dynamic-programming surface, operator residual and the bridge
verify      cross-route consistency triangle

Exit codes: 0 success, 2 config problems, 3 solver flags raised
(partial outputs are still written), 4 numeric failure.
"""
from __future__ import annotations

import argparse
import configparser
import itertools
import json
import os
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import (
    ControlSpec,
    MarketSpec,
    PositionCurve,
    TimeGrid,
    WealthGrid,
    bspde_residual,
    budget_lambda,
    build_binomial,
    cara_utility,
    dp_value,
    drifted_quadratic_driver,
    entropic_driver,
    exponential_triple,
    fbsde_from_surface,
    girsanov_density,
    homogeneous_driver,
    inverse_marginal_f,
    linear_driver,
    no_trade_solution,
    optimal_terminal_wealth,
    quadratic_driver,
    quote_grid,
    simulate_state,
    solve_bsde,
    solve_fbsde_cara,
    solve_fbsde_picard,
    zero_driver,
)
from .errors import ImpactHedgerError, InvalidArgument
from .lattice import StateSde

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_FLAGS = 3
EXIT_NUMERIC = 4


@dataclass
class ScenarioConfig:
    """Validated scenario: driver, utility, market and numerics blocks."""

    driver_kind: str
    driver_params: dict
    utility_kind: str
    gamma_a: float
    payoff: str
    payoff_a: float
    payoff_b: float
    h_m: str
    eta: float
    gamma: float
    x0: float
    r0: float
    horizon: float
    n_steps: int
    n_x: int
    x_min: float
    x_max: float
    y_grid: np.ndarray
    z_lo: float
    z_hi: float
    tol: float
    max_iter: int
    damping: float
    mode: str
    price_z: np.ndarray
    price_y: np.ndarray
    formats: tuple[str, ...]

    def echo(self) -> dict:
        d = {
            "driver": {"kind": self.driver_kind, **self.driver_params},
            "utility": {"kind": self.utility_kind, "gamma_a": self.gamma_a},
            "market": {
                "payoff": self.payoff,
                "payoff_a": self.payoff_a,
                "payoff_b": self.payoff_b,
                "h_m": self.h_m,
                "eta": self.eta,
                "gamma": self.gamma,
                "x0": self.x0,
                "r0": self.r0,
            },
            "numerics": {
                "horizon": self.horizon,
                "n_steps": self.n_steps,
                "n_x": self.n_x,
                "x_min": self.x_min,
                "x_max": self.x_max,
                "y_grid": [float(v) for v in self.y_grid],
                "z_lo": self.z_lo,
                "z_hi": self.z_hi,
                "tol": self.tol,
                "max_iter": self.max_iter,
                "damping": self.damping,
                "mode": self.mode,
            },
        }
        return d


def _parse_grid(text: str) -> np.ndarray:
    """'lo:hi:n' linspace form or a comma-separated list."""
    text = text.strip()
    if ":" in text:
        lo, hi, n = text.split(":")
        return np.linspace(float(lo), float(hi), int(n))
    return np.array([float(v) for v in text.split(",") if v.strip()])


def load_config(path: str | Path) -> ScenarioConfig:
    parser = configparser.ConfigParser()
    try:
        read = parser.read(path)
    except (configparser.Error, UnicodeDecodeError) as exc:
        raise InvalidArgument(f"config file {path} is malformed: {exc}") from exc
    if not read:
        raise InvalidArgument(f"config file {path} not found or unreadable")

    asked = set()

    def get(section, key, default=None, cast=str):
        asked.add((section, key))
        if not parser.has_option(section, key):
            if default is None:
                raise InvalidArgument(f"missing [{section}] {key}")
            return default
        try:
            raw = parser.get(section, key)
        except configparser.Error as exc:  # a broken %-interpolation
            raise InvalidArgument(f"[{section}] {key}: {exc}") from exc
        try:
            return cast(raw)
        except ValueError as exc:
            raise InvalidArgument(f"[{section}] {key} = {raw!r}: {exc}") from exc

    driver_kind = get("driver", "kind")
    driver_params = {}
    if driver_kind == "linear":
        driver_params["nu"] = get("driver", "nu", cast=float)
    elif driver_kind == "quadratic":
        driver_params["alpha"] = get("driver", "alpha", cast=float)
    elif driver_kind == "entropic":
        driver_params["gamma"] = get("driver", "gamma", cast=float)
    elif driver_kind == "drifted_quadratic":
        driver_params["gamma"] = get("driver", "gamma", cast=float)
        driver_params["eta"] = get("driver", "eta", cast=float)
    elif driver_kind == "homogeneous":
        driver_params["kappa"] = get("driver", "kappa", cast=float)
    elif driver_kind != "zero":
        raise InvalidArgument(f"unknown driver kind {driver_kind!r}")

    utility_kind = get("utility", "kind", default="cara")
    if utility_kind != "cara":
        raise InvalidArgument("config utilities are limited to the cara preset")

    payoff = get("market", "payoff", default="brownian")
    if payoff not in ("brownian", "affine", "markov_linear"):
        raise InvalidArgument(f"unknown payoff preset {payoff!r}")
    h_m = get("market", "h_m", default="zero")
    if h_m not in ("zero", "markov_square"):
        raise InvalidArgument(f"unknown book preset {h_m!r}")

    cfg = ScenarioConfig(
        driver_kind=driver_kind,
        driver_params=driver_params,
        utility_kind=utility_kind,
        gamma_a=get("utility", "gamma_a", cast=float),
        payoff=payoff,
        payoff_a=get("market", "payoff_a", default=1.0, cast=float),
        payoff_b=get("market", "payoff_b", default=0.0, cast=float),
        h_m=h_m,
        eta=get("market", "eta", default=0.0, cast=float),
        gamma=get("market", "gamma", default=1.0, cast=float),
        x0=get("market", "x0", default=0.0, cast=float),
        r0=get("market", "r0", default=0.0, cast=float),
        horizon=get("numerics", "horizon", default=1.0, cast=float),
        n_steps=get("numerics", "n_steps", cast=int),
        n_x=get("numerics", "n_x", default=401, cast=int),
        x_min=get("numerics", "x_min", default=-3.0, cast=float),
        x_max=get("numerics", "x_max", default=3.0, cast=float),
        y_grid=get("numerics", "y_grid", default=_parse_grid("-2.0:2.0:81"), cast=_parse_grid),
        z_lo=get("numerics", "z_lo", default=-1.0, cast=float),
        z_hi=get("numerics", "z_hi", default=1.0, cast=float),
        tol=get("numerics", "tol", default=1e-6, cast=float),
        max_iter=get("numerics", "max_iter", default=50, cast=int),
        damping=get("numerics", "damping", default=0.5, cast=float),
        mode=get("numerics", "mode", default="theta"),
        price_z=get("price", "z_values", default=_parse_grid("0.0"), cast=_parse_grid),
        price_y=get("price", "y_values", default=_parse_grid("0.5,1.0"), cast=_parse_grid),
        formats=tuple(
            f.strip()
            for f in get("outputs", "formats", default="csv,json").split(",")
            if f.strip()
        ),
    )
    # a key nothing reads is most likely misspelt: refuse it rather than
    # run with the default it was meant to override
    defaults = parser.defaults()
    read_keys = {key for _, key in asked}
    unread = [f"[DEFAULT] {k}" for k in defaults if k not in read_keys]
    unread += [
        f"[{section}] {k}"
        for section in parser.sections()
        for k in parser[section]
        if k not in defaults and (section, k) not in asked
    ]
    if unread:
        raise InvalidArgument(f"unknown config key(s): {', '.join(unread)}")
    if cfg.n_steps < 1:
        raise InvalidArgument("n_steps must be positive")
    # every grid is checked here, so a bad one fails every command and not
    # only the command that builds it
    if cfg.y_grid.size < 2 or np.any(np.diff(cfg.y_grid) <= 0):
        raise InvalidArgument("y_grid must be sorted with at least 2 points")
    WealthGrid(cfg.x_min, cfg.x_max, cfg.n_x)
    ControlSpec(kind="interval", z_lo=cfg.z_lo, z_hi=cfg.z_hi)
    if cfg.mode not in ("theta", "theta_plus"):
        raise InvalidArgument("mode must be theta or theta_plus")
    if cfg.max_iter < 1:
        raise InvalidArgument(f"[numerics] max_iter = {cfg.max_iter}: must be at least 1")
    if not cfg.tol > 0:
        raise InvalidArgument(f"[numerics] tol = {cfg.tol!r}: must be positive")
    if not 0.0 < cfg.damping <= 1.0:
        raise InvalidArgument(f"[numerics] damping = {cfg.damping!r}: must lie in (0, 1]")
    if not cfg.formats or not set(cfg.formats) <= {"csv", "json"}:
        raise InvalidArgument(
            f"[outputs] formats = {','.join(cfg.formats)!r}: list csv, json or both"
        )
    return cfg


def _build_driver(cfg: ScenarioConfig):
    kind, p = cfg.driver_kind, cfg.driver_params
    if kind == "zero":
        return zero_driver()
    if kind == "linear":
        return linear_driver(p["nu"])
    if kind == "quadratic":
        return quadratic_driver(p["alpha"])
    if kind == "entropic":
        return entropic_driver(p["gamma"])
    if kind == "drifted_quadratic":
        return drifted_quadratic_driver(p["gamma"], p["eta"])
    return homogeneous_driver(p["kappa"])


def _build_payoff(cfg: ScenarioConfig, lattice):
    if cfg.payoff == "brownian":
        s = lattice.w_values(lattice.n_steps)
    elif cfg.payoff == "affine":
        s = cfg.payoff_a * lattice.w_values(lattice.n_steps) + cfg.payoff_b
    else:  # markov_linear
        sde = StateSde(drift=0.0, sigma=1.0, r0=cfg.r0)
        s = simulate_state(lattice, sde).terminal
    if cfg.h_m == "zero":
        book = None
    else:  # markov_square
        sde = StateSde(drift=0.0, sigma=1.0, r0=cfg.r0)
        book = simulate_state(lattice, sde).terminal ** 2
    return s, book


def _threads() -> int:
    raw = os.environ.get("THREADS", "")
    if not raw:
        return 1
    try:
        n = int(raw)
    except ValueError as exc:
        raise InvalidArgument(f"THREADS must be an integer, got {raw!r}") from exc
    if n < 1:
        raise InvalidArgument("THREADS must be >= 1")
    return n


def _write_csv(path: Path, header: list[str], table: np.ndarray) -> None:
    """Write a 2-D float table, each cell in round-trip ``%.17g`` form.

    A non-finite cell is refused before the file is opened, so a failed
    write leaves no partial table behind.

    Work goes column by column.  A column with fewer distinct bit patterns
    than half its rows (level, node, ``t``, a zero or constant field) has
    each distinct value formatted once and its cells gathered as strings;
    any other column is formatted cell by cell.  Distinct means distinct
    bits, so ``-0.0`` and ``0.0`` stay apart, and the bytes written do not
    depend on which columns took which path.
    """
    table = np.asarray(table, dtype=float)
    if not np.all(np.isfinite(table)):
        raise ImpactHedgerError("non-finite value about to be written to disk")
    n_rows = table.shape[0]
    cols, slots = [], []
    for col in table.T:
        bits, inverse = np.unique(col.view(np.int64), return_inverse=True)
        if 2 * bits.size < n_rows:
            text = ["%.17g" % v for v in bits.view(np.float64).tolist()]
            cols.append(np.array(text, dtype=object)[inverse])
            slots.append("%s")
        else:
            cols.append(col.tolist())
            slots.append("%.17g")
    line = ",".join(slots) + "\n"
    # zip of no columns yields no rows, but a 0-column table still has its lines
    rows = zip(*cols) if cols else itertools.repeat((), n_rows)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        fh.writelines(map(line.__mod__, rows))


def _level_table(k: int, *columns: np.ndarray) -> np.ndarray:
    """Rows (level, node, *columns) of one lattice level."""
    size = columns[0].size
    return np.column_stack((np.full(size, k), np.arange(size), *columns))


_SOLUTION_HEADER = ["level", "node", "x", "zeta", "m", "theta", "h"]


def _solution_rows(lattice, sol) -> np.ndarray:
    n = lattice.n_steps
    blocks = []
    for k in range(n + 1):
        x = sol.x.values(k)
        zero = np.zeros_like(x)
        m = sol.m.values(k) if k < n else zero
        h = sol.h.values(k) if k < n else zero
        theta = sol.theta.values(k) if (sol.theta is not None and k < n) else zero
        blocks.append(_level_table(k, x, sol.zeta.values(k), m, theta, h))
    return np.concatenate(blocks)


def _emit(
    cfg, out_dir: Path, report: RunReport, name: str, header: list[str], table: np.ndarray
) -> None:
    """Write one CSV table, if ``csv`` is among the configured formats."""
    if "csv" in cfg.formats:
        _write_csv(out_dir / name, header, table)
        report.files.append(name)


@dataclass
class RunReport:
    """Everything the scenario run produced, JSON-serializable."""

    command: str
    scenario: dict
    results: dict = field(default_factory=dict)
    residuals: dict = field(default_factory=dict)
    flags: dict = field(default_factory=dict)
    files: list[str] = field(default_factory=list)
    threads: int = 1
    timing_seconds: float = 0.0
    exit_code: int = EXIT_OK

    def to_json(self) -> str:
        payload = {
            "command": self.command,
            "scenario": self.scenario,
            "results": self.results,
            "residuals": self.residuals,
            "flags": self.flags,
            "files": self.files,
            "threads": self.threads,
            "timing_seconds": self.timing_seconds,
            "exit_code": self.exit_code,
        }
        return json.dumps(payload, indent=2, sort_keys=True)


def _report_residuals(rep) -> dict:
    out = {"martingale": rep.martingale_residual, "psi2_consistency": rep.psi2_consistency}
    if rep.foc_residual is not None:
        out["foc"] = rep.foc_residual
    if rep.homogeneous_equality_residual is not None:
        out["homogeneous_equality"] = rep.homogeneous_equality_residual
    if rep.homogeneous_slack is not None:
        out["homogeneous_slack"] = list(rep.homogeneous_slack)
    return out


def _cmd_gexp(cfg, out_dir: Path, report: RunReport) -> None:
    lattice = build_binomial(cfg.horizon, cfg.n_steps)
    driver = _build_driver(cfg)
    s, book = _build_payoff(cfg, lattice)
    terminal = s if book is None else book - s
    sol = solve_bsde(lattice, driver, terminal)
    n = lattice.n_steps
    blocks = []
    for k in range(n + 1):
        pi = sol.pi.values(k)
        z = sol.z.values(k) if k < n else np.zeros_like(pi)
        t = np.full(pi.size, lattice.grid.t(k))
        blocks.append(_level_table(k, t, lattice.w_values(k), pi, z))
    header = ["level", "node", "t", "W", "pi", "z"]
    _emit(cfg, out_dir, report, "gexp.csv", header, np.concatenate(blocks))
    report.results["pi_root"] = sol.pi.root
    report.results["z_root"] = sol.z.root


def _cmd_price(cfg, out_dir: Path, report: RunReport) -> None:
    lattice = build_binomial(cfg.horizon, cfg.n_steps)
    driver = _build_driver(cfg)
    s, book = _build_payoff(cfg, lattice)
    prices = quote_grid(lattice, driver, s, (0, 0), cfg.price_z, cfg.price_y, h_m=book)
    z, y = np.meshgrid(cfg.price_z, cfg.price_y, indexing="ij")
    table = np.column_stack((np.zeros(prices.size), z.ravel(), y.ravel(), prices.ravel()))
    _emit(cfg, out_dir, report, "price.csv", ["t", "z", "y", "P"], table)
    report.results["n_quotes"] = int(prices.size)


def _solve_routes(cfg, lattice, driver, curve=None):
    """The CARA and Picard routes, sharing one position curve.

    ``curve`` is the scenario's position curve, built here if not given.
    """
    s, _ = _build_payoff(cfg, lattice)
    utility = cara_utility(cfg.gamma_a)
    if curve is None:
        curve = PositionCurve(lattice, driver, s, y_grid=cfg.y_grid)
    cara = solve_fbsde_cara(lattice, driver, cfg.gamma_a, cfg.x0, s_terminal=s, curve=curve)
    picard = solve_fbsde_picard(
        lattice,
        driver,
        utility,
        cfg.x0,
        tol=cfg.tol,
        max_iter=cfg.max_iter,
        damping=cfg.damping,
        s_terminal=s,
        theta_plus=(cfg.mode == "theta_plus") if driver.is_homogeneous else None,
        curve=curve,
    )
    return cara, picard


def _cmd_solve(cfg, out_dir: Path, report: RunReport) -> None:
    lattice = build_binomial(cfg.horizon, cfg.n_steps)
    driver = _build_driver(cfg)
    cara, picard = _solve_routes(cfg, lattice, driver)
    sol = picard
    _emit(cfg, out_dir, report, "solve.csv", _SOLUTION_HEADER, _solution_rows(lattice, sol))
    report.results.update(
        {
            "z_star": sol.h.root,
            "zeta0": sol.zeta.root,
            "theta0": None if sol.theta is None else sol.theta.root,
            "iterations": sol.iterations,
            "picard_residuals": sol.residual_history,
            "picard_steps": sol.step_history,
            "cara_route_gap": sol.x.sup_diff(cara.x),
        }
    )
    report.residuals.update(_report_residuals(sol.residuals))
    report.flags["non_convergence"] = not sol.converged
    report.flags["ambiguity"] = sol.ambiguous
    report.flags["forward_consistency"] = sol.forward_consistency


def _cmd_closedform(cfg, out_dir: Path, report: RunReport) -> None:
    lattice = build_binomial(cfg.horizon, cfg.n_steps)
    driver = _build_driver(cfg)
    utility = cara_utility(cfg.gamma_a)
    market = MarketSpec(gamma=cfg.gamma, eta=cfg.eta, utility=utility, x0=cfg.x0)

    xi = girsanov_density(lattice, cfg.eta)
    lam = budget_lambda(lattice, market)
    f = inverse_marginal_f(utility, cfg.gamma)
    x_T = optimal_terminal_wealth(lam, xi, f)
    triple = exponential_triple(lattice, market)
    flat = no_trade_solution(lattice, driver, cfg.x0)

    table = _solution_rows(lattice, triple)
    _emit(cfg, out_dir, report, "closedform.csv", _SOLUTION_HEADER, table)
    report.results.update(
        {
            "lambda": lam,
            "density_mean": lattice.root_expectation(xi.terminal),
            "zeta0": triple.zeta.root,
            "z_star": triple.h.root,
            "terminal_wealth_gap": float(np.max(np.abs(x_T - triple.x.terminal))),
            "no_trade_applicable": flat is not None,
        }
    )
    report.residuals.update(_report_residuals(triple.residuals))


def _cmd_value(cfg, out_dir: Path, report: RunReport) -> None:
    tgrid = TimeGrid(cfg.horizon, cfg.n_steps)
    xgrid = WealthGrid(cfg.x_min, cfg.x_max, cfg.n_x)
    driver = _build_driver(cfg)
    utility = cara_utility(cfg.gamma_a)
    # the affine payoff a W + b has unit-short integrand a; the other
    # presets have slope one
    payoff_slope = cfg.payoff_a if cfg.payoff == "affine" else 1.0
    if driver.is_homogeneous and not driver.is_differentiable:
        control = ControlSpec(kind="homogeneous", z_scale=payoff_slope)
    else:
        control = ControlSpec(kind="interval", z_lo=cfg.z_lo, z_hi=cfg.z_hi)
    surface, policy = dp_value(tgrid, xgrid, driver, utility, control)
    resid = bspde_residual(surface, driver)
    lattice = build_binomial(cfg.horizon, cfg.n_steps)
    bridge = fbsde_from_surface(surface, policy, lattice, utility, cfg.x0, driver)

    x = xgrid.x
    sl = xgrid.interior
    xs = x[sl]
    blocks = []
    for k in range(tgrid.n_steps):
        theta_row = (
            policy.theta_hat[k]
            if surface.control.kind == "homogeneous"
            else policy.upsilon[k] / payoff_slope
        )
        blocks.append(
            np.column_stack(
                (
                    np.full(xs.size, tgrid.t(k)),
                    xs,
                    surface.v[k, sl],
                    surface.v_x(k)[sl],
                    surface.v_xx(k)[sl],
                    policy.upsilon[k, sl],
                    theta_row[sl],
                    resid.rows[k, sl],
                )
            )
        )
    header = ["t", "x", "V", "Vx", "Vxx", "upsilon", "theta_hat", "residual"]
    _emit(cfg, out_dir, report, "value.csv", header, np.concatenate(blocks))
    i0 = int(np.argmin(np.abs(x - cfg.x0)))
    report.results.update(
        {
            "value_at_x0": surface.v[0, i0],
            "bspde_residual": resid.max_residual,
            "band_cells": resid.band_cells,
            "bridge_zeta0": bridge.zeta.root,
            "bridge_m_sup": bridge.m.sup_abs(),
        }
    )
    report.residuals.update(_report_residuals(bridge.residuals))


def _cmd_verify(cfg, out_dir: Path, report: RunReport) -> None:
    lattice = build_binomial(cfg.horizon, cfg.n_steps)
    driver = _build_driver(cfg)
    utility = cara_utility(cfg.gamma_a)
    market = MarketSpec(gamma=cfg.gamma, eta=cfg.eta, utility=utility, x0=cfg.x0)

    s, _ = _build_payoff(cfg, lattice)
    # the explicit triple always lives in the quadratic family, so holdings
    # recovery needs the y-grid even when the scenario driver is kinked.  When
    # [market] gamma/eta are the scenario driver bit for bit (-0.0 and 0.0
    # give different g_z at z = -0.0), one position curve serves all routes.
    p = cfg.driver_params
    curve = None
    if cfg.driver_kind == "drifted_quadratic" and (
        np.array([p["gamma"], p["eta"]]).tobytes() == np.array([cfg.gamma, cfg.eta]).tobytes()
    ):
        curve = PositionCurve(lattice, driver, s, y_grid=cfg.y_grid)
    triple = exponential_triple(lattice, market, s_terminal=s, y_grid=cfg.y_grid, curve=curve)
    cara, picard = _solve_routes(cfg, lattice, driver, curve=curve)

    routes = {"closedform": triple, "cara": cara, "picard": picard}
    for name, sol in routes.items():
        table = _solution_rows(lattice, sol)
        _emit(cfg, out_dir, report, f"verify_{name}.csv", _SOLUTION_HEADER, table)

    gaps = {
        f"{a}_vs_{b}": max(
            routes[a].x.sup_diff(routes[b].x),
            routes[a].zeta.sup_diff(routes[b].zeta),
            routes[a].h.sup_diff(routes[b].h),
        )
        for a, b in itertools.combinations(routes, 2)
    }
    report.results.update(gaps)
    report.results["theta_roots"] = {
        name: None if sol.theta is None else sol.theta.root for name, sol in routes.items()
    }
    report.residuals.update(_report_residuals(picard.residuals))
    report.flags["non_convergence"] = not picard.converged
    worst = max(gaps.values())
    report.results["max_route_gap"] = worst


_COMMANDS = {
    "gexp": _cmd_gexp,
    "price": _cmd_price,
    "solve": _cmd_solve,
    "closedform": _cmd_closedform,
    "value": _cmd_value,
    "verify": _cmd_verify,
}


def run(command: str, config_path: str | Path, out_dir: str | Path) -> RunReport:
    """Execute one scenario command; always writes report.json on success paths."""
    started = time.perf_counter()
    cfg = load_config(config_path)
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    report = RunReport(command=command, scenario=cfg.echo(), threads=_threads())
    try:
        _COMMANDS[command](cfg, out, report)
    except InvalidArgument:
        report.exit_code = EXIT_CONFIG
        raise
    except ImpactHedgerError:
        report.exit_code = EXIT_NUMERIC
        raise
    finally:
        report.timing_seconds = time.perf_counter() - started
        if report.exit_code == EXIT_OK and any(
            v for v in report.flags.values() if isinstance(v, bool)
        ):
            report.exit_code = EXIT_FLAGS
        if "json" in cfg.formats:
            (out / "report.json").write_text(report.to_json() + "\n", encoding="utf-8")
    return report


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="impact-hedger",
        description="price and optimize trading under endogenous market impact",
    )
    parser.add_argument("command", choices=sorted(_COMMANDS))
    parser.add_argument("--config", required=True, help="scenario INI file")
    parser.add_argument("--out", default="out", help="output directory")
    args = parser.parse_args(argv)

    try:
        report = run(args.command, args.config, args.out)
    except InvalidArgument as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except ImpactHedgerError as exc:
        print(f"numeric error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except FileNotFoundError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    if report.exit_code != EXIT_OK:
        print(f"completed with flags: {report.flags}", file=sys.stderr)
    return report.exit_code


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
