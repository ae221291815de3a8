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
import math
import sys
import time
from dataclasses import asdict, dataclass, field
from pathlib import Path
from types import SimpleNamespace

import numpy as np

# the solver modules are imported by the commands that call them, so
# `--help` and each command compile only the code they run
from .driver import (
    drifted_quadratic_driver,
    entropic_driver,
    homogeneous_driver,
    linear_driver,
    quadratic_driver,
    zero_driver,
)
from .errors import ImpactHedgerError, InvalidArgument

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_FLAGS = 3
EXIT_NUMERIC = 4


def _finite(text: str) -> float:
    value = float(text)
    if not math.isfinite(value):
        raise ValueError("not a finite number")
    return value


def _parse_grid(text: str) -> np.ndarray:
    """'lo:hi:n' linspace form or a comma-separated list: one entry or more, all finite."""
    text = text.strip()
    if ":" in text:
        lo, hi, n = text.split(":")
        grid = np.linspace(float(lo), float(hi), int(n))
    else:
        grid = np.array([float(v) for v in text.split(",") if v.strip()])
    if not grid.size:
        raise ValueError("grid needs at least one entry")
    if not np.all(np.isfinite(grid)):
        raise ValueError("grid entries must be finite")
    return grid


def _formats(text: str) -> tuple[str, ...]:
    return tuple(f.strip() for f in text.split(",") if f.strip())


def _one_of(*choices: str) -> tuple:
    return frozenset(choices).__contains__, "one of " + ", ".join(choices)


# (check, rule) pairs of the table below; (None, None) checks nothing
_ANY = (None, None)
_POSITIVE = (lambda v: v > 0, "must be positive")
_COUNT = (lambda n: n >= 1, "must be at least 1")
_SORTED = (
    lambda g: g.size >= 2 and bool(np.all(np.diff(g) > 0)),
    "y_grid must be sorted with at least 2 points",
)
_FORMATS = (lambda f: bool(f) and set(f) <= {"csv", "json"}, "list csv, json or both")

# driver kind -> (constructor, its [driver] keys, each a finite float)
_DRIVERS = {
    "zero": (zero_driver, ()),
    "linear": (linear_driver, ("nu",)),
    "quadratic": (quadratic_driver, ("alpha",)),
    "entropic": (entropic_driver, ("gamma",)),
    "drifted_quadratic": (drifted_quadratic_driver, ("gamma", "eta")),
    "homogeneous": (homogeneous_driver, ("kappa",)),
}

# one row per scenario key: (section, key, attribute, cast, default, check,
# rule).  The default is INI text, cast like a written value; None means the
# key is required.  A value the check refuses fails with the rule.
_KEYS = (
    ("driver", "kind", "driver_kind", str, None, *_one_of(*_DRIVERS)),
    ("utility", "kind", "utility_kind", str, "cara", *_one_of("cara")),
    ("utility", "gamma_a", "gamma_a", _finite, None, *_POSITIVE),
    ("market", "payoff", "payoff", str, "brownian",
     *_one_of("brownian", "affine", "markov_linear")),
    ("market", "payoff_a", "payoff_a", _finite, "1.0", lambda a: a != 0, "must be nonzero"),
    ("market", "payoff_b", "payoff_b", _finite, "0.0", *_ANY),
    ("market", "h_m", "h_m", str, "zero", *_one_of("zero", "markov_square")),
    ("market", "eta", "eta", _finite, "0.0", *_ANY),
    ("market", "gamma", "gamma", _finite, "1.0", *_POSITIVE),
    ("market", "x0", "x0", _finite, "0.0", *_ANY),
    ("market", "r0", "r0", _finite, "0.0", *_ANY),
    ("numerics", "horizon", "horizon", _finite, "1.0", *_POSITIVE),
    ("numerics", "n_steps", "n_steps", int, None, *_COUNT),
    ("numerics", "n_x", "n_x", int, "401", *_ANY),
    ("numerics", "x_min", "x_min", _finite, "-3.0", *_ANY),
    ("numerics", "x_max", "x_max", _finite, "3.0", *_ANY),
    ("numerics", "y_grid", "y_grid", _parse_grid, "-2.0:2.0:81", *_SORTED),
    ("numerics", "z_lo", "z_lo", _finite, "-1.0", *_ANY),
    ("numerics", "z_hi", "z_hi", _finite, "1.0", *_ANY),
    ("numerics", "tol", "tol", _finite, "1e-6", *_POSITIVE),
    ("numerics", "max_iter", "max_iter", int, "50", *_COUNT),
    ("numerics", "damping", "damping", _finite, "0.5", lambda d: 0 < d <= 1, "must lie in (0, 1]"),
    ("numerics", "mode", "mode", str, "theta", *_one_of("theta", "theta_plus")),
    ("price", "z_values", "price_z", _parse_grid, "0.0", *_ANY),
    ("price", "y_values", "price_y", _parse_grid, "0.5,1.0", *_ANY),
    ("outputs", "formats", "formats", _formats, "csv,json", *_FORMATS),
)


class ScenarioConfig(SimpleNamespace):
    """Validated scenario: one attribute per ``_KEYS`` row, plus ``driver_params``."""

    def echo(self) -> dict:
        """The scenario as ``report.json`` records it; [price] and [outputs] are left out."""
        d = {"driver": {"kind": self.driver_kind, **self.driver_params}}
        for section, key, attribute, *_ in _KEYS:
            if section in ("utility", "market", "numerics"):
                value = getattr(self, attribute)
                if isinstance(value, np.ndarray):
                    value = value.tolist()
                d.setdefault(section, {})[key] = value
        return d


def load_config(path: str | Path) -> ScenarioConfig:
    parser = configparser.ConfigParser()
    try:
        read = parser.read(path)
    except (configparser.Error, UnicodeDecodeError) as exc:
        raise InvalidArgument(f"config file {path} is malformed: {exc}") from exc
    if not read:
        raise InvalidArgument(f"config file {path} not found or unreadable")

    asked = set()

    def get(section, key, cast=_finite, default=None, check=None, rule=None):
        asked.add((section, key))
        if parser.has_option(section, key):
            try:
                raw = parser.get(section, key)
            except configparser.Error as exc:  # a broken %-interpolation
                raise InvalidArgument(f"[{section}] {key}: {exc}") from exc
        elif default is None:
            raise InvalidArgument(f"missing [{section}] {key}")
        else:
            raw = default
        try:
            value = cast(raw)
        except ValueError as exc:
            raise InvalidArgument(f"[{section}] {key} = {raw!r}: {exc}") from exc
        if check is not None and not check(value):
            raise InvalidArgument(f"[{section}] {key} = {raw!r}: {rule}")
        return value

    cfg = ScenarioConfig(
        **{attribute: get(section, key, *row) for section, key, attribute, *row in _KEYS}
    )
    cfg.driver_params = {key: get("driver", key) for key in _DRIVERS[cfg.driver_kind][1]}
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
    # every grid is checked here, so a bad one fails every command and not
    # only the command that builds it
    from .lattice import ControlSpec, WealthGrid

    WealthGrid(cfg.x_min, cfg.x_max, cfg.n_x)
    ControlSpec(kind="interval", z_lo=cfg.z_lo, z_hi=cfg.z_hi)
    return cfg


def _build_driver(cfg: ScenarioConfig):
    return _DRIVERS[cfg.driver_kind][0](**cfg.driver_params)


def _build_lattice(cfg: ScenarioConfig):
    from .lattice import build_binomial

    return build_binomial(cfg.horizon, cfg.n_steps)


def _build_payoff(cfg: ScenarioConfig, lattice):
    """Payoff S and book H_M (None if zero); the Markov presets share one state."""
    from .lattice import StateSde, simulate_state

    if cfg.payoff == "markov_linear" or cfg.h_m == "markov_square":
        state = simulate_state(lattice, StateSde(drift=0.0, sigma=1.0, r0=cfg.r0)).terminal
    if cfg.payoff == "brownian":
        s = lattice.w_values(lattice.n_steps)
    elif cfg.payoff == "affine":
        # an overflow is refused, with the payoff named, where the solvers
        # take the terminal buffer
        with np.errstate(over="ignore"):
            s = cfg.payoff_a * lattice.w_values(lattice.n_steps) + cfg.payoff_b
    else:  # markov_linear
        s = state
    if cfg.h_m == "zero":
        book = None
    else:
        with np.errstate(over="ignore"):  # refused, like the payoff, by the solvers
            book = state**2
    return s, book


# cells formatted per block of rows: bounds the scratch memory of a write
_CSV_BLOCK_CELLS = 1 << 13


def _write_csv(path: Path, header: list[str], table: np.ndarray) -> None:
    """Write a 2-D float table, each cell in round-trip ``%.17g`` form.

    A non-finite cell is refused before the file is opened, so a failed
    write leaves no partial table behind.

    The text of a cell is a fixed-width slot from ``g17.g17_slots``.  A
    column with fewer distinct bit patterns than half its rows (level,
    node, ``t``, a zero or constant field) has each distinct value
    formatted once, into a pool of slots; the other columns are formatted
    a block of rows at a time, after the pool.  One take of the pool puts a
    block in table order; it then gets its separators and is written
    without its NUL padding.  Distinct means distinct bits, so ``-0.0`` and
    ``0.0`` stay apart.
    """
    table = np.asarray(table, dtype=float)
    if not np.all(np.isfinite(table)):
        raise ImpactHedgerError("non-finite value about to be written to disk")
    from .g17 import SLOT, g17_slots

    n_rows, n_cols = table.shape
    slot = np.dtype((np.void, SLOT))
    pooled, direct, in_pool = [], [], {}
    size = 0
    for j, col in enumerate(table.T):
        bits, inverse = np.unique(col.view(np.int64), return_inverse=True)
        if 2 * bits.size < n_rows:
            pooled.append(g17_slots(bits.view(np.float64)).view(slot))
            in_pool[j] = inverse + size
            size += bits.size
        else:
            direct.append(j)
    block = max(1, _CSV_BLOCK_CELLS // max(n_cols, 1))
    pool = np.empty(size + min(block, n_rows) * len(direct), slot)
    if pooled:
        pool[:size] = np.concatenate(pooled).ravel()
    with open(path, "wb") as fh:
        fh.write((",".join(header) + "\n").encode())
        if not n_cols:  # no cells, but every row still ends its line
            fh.write(b"\n" * n_rows)
            return
        ends = np.full(n_cols, ord(","), np.uint8)
        ends[-1] = ord("\n")
        for start in range(0, n_rows, block):
            rows = slice(start, min(start + block, n_rows))
            n = rows.stop - start
            index = np.empty((n, n_cols), np.intp)
            for j, at in in_pool.items():
                index[:, j] = at[rows]
            if direct:
                cells = g17_slots(table[rows, direct]).view(slot).ravel()
                pool[size : size + cells.size] = cells
                index[:, direct] = size + np.arange(cells.size).reshape(n, len(direct))
            out = pool.take(index).view(np.uint8).reshape(n, n_cols, SLOT)
            out[:, :, -1] = ends
            fh.write(out.tobytes().translate(None, b"\0"))


_SOLUTION_HEADER = ["level", "node", "x", "zeta", "m", "theta", "h"]


def _solution_rows(lattice, sol) -> np.ndarray:
    """One row per node, level by level, written column by column from the
    whole-lattice buffers; m, theta and h read 0 on the terminal level, and
    theta reads 0 throughout when the route recovered no holdings."""
    level = lattice.level_index
    inner = lattice.offsets[-2]  # the nodes of levels 0 .. n-1
    table = np.zeros((level.size, len(_SOLUTION_HEADER)))
    table[:, 0] = level
    table[:, 1] = np.arange(level.size) - lattice.offsets[level]
    table[:, 2] = sol.x.flat
    table[:, 3] = sol.zeta.flat
    for j, proc in ((4, sol.m), (5, sol.theta), (6, sol.h)):
        if proc is not None:
            table[:inner, j] = proc.flat
    return table


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
        return json.dumps(asdict(self), indent=2, sort_keys=True)


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
    from .gexpect import solve_bsde

    lattice = _build_lattice(cfg)
    driver = _build_driver(cfg)
    s, book = _build_payoff(cfg, lattice)
    terminal = s if book is None else book - s
    sol = solve_bsde(lattice, driver, terminal)
    # one row per node, level by level; z reads 0 on the terminal level
    level = lattice.level_index
    node = np.arange(level.size) - lattice.offsets[level]
    z = np.zeros(level.size)
    z[: lattice.offsets[-2]] = sol.z.flat
    grid = lattice.grid
    table = np.column_stack(
        (level, node, level * grid.dt, (2.0 * node - level) * grid.sqrt_dt, sol.pi.flat, z)
    )
    header = ["level", "node", "t", "W", "pi", "z"]
    _emit(cfg, out_dir, report, "gexp.csv", header, table)
    report.results["pi_root"] = sol.pi.root
    report.results["z_root"] = sol.z.root


def _cmd_price(cfg, out_dir: Path, report: RunReport) -> None:
    from .market import quote_grid

    lattice = _build_lattice(cfg)
    driver = _build_driver(cfg)
    s, book = _build_payoff(cfg, lattice)
    prices = quote_grid(lattice, driver, s, (0, 0), cfg.price_z, cfg.price_y, h_m=book)
    z, y = np.meshgrid(cfg.price_z, cfg.price_y, indexing="ij")
    table = np.column_stack((np.zeros(prices.size), z.ravel(), y.ravel(), prices.ravel()))
    _emit(cfg, out_dir, report, "price.csv", ["t", "z", "y", "P"], table)
    report.results["n_quotes"] = int(prices.size)


def _solve_routes(cfg, lattice, driver, s):
    """The CARA and Picard routes for payoff ``s``, without holdings.

    A kinked driver's Picard pass finds its holdings itself, on the cone of
    the unit integrands.  That cone, the position curve of a homogeneous
    driver, is built once here and returned for the other routes'
    recovery; it is None for a driver whose curve needs the y-grid.
    """
    from .gexpect import PositionCurve
    from .optimizer import cara_utility, solve_fbsde_cara, solve_fbsde_picard

    utility = cara_utility(cfg.gamma_a)
    curve = PositionCurve(lattice, driver, s) if driver.is_homogeneous else None
    cara = solve_fbsde_cara(lattice, driver, cfg.gamma_a, cfg.x0)
    picard = solve_fbsde_picard(
        lattice,
        driver,
        utility,
        cfg.x0,
        tol=cfg.tol,
        max_iter=cfg.max_iter,
        damping=cfg.damping,
        s_terminal=s if driver.kinked else None,
        theta_plus=cfg.mode == "theta_plus",
        curve=curve,
    )
    return cara, picard, curve


def _recover_holdings(cfg, lattice, driver, s, routes, curve=None):
    """Holdings of every route in ``routes`` that has none, all on ``driver``'s
    position curve: the cone ``curve`` of a homogeneous driver, else one
    streamed y-grid sweep.  The first route that fails raises."""
    from .optimizer import recover_theta

    todo = [sol for sol in routes if sol.theta is None]
    thetas = recover_theta(lattice, driver, s, [sol.h for sol in todo], cfg.y_grid, curve)
    for sol, theta in zip(todo, thetas):
        sol.theta = theta


def _cmd_solve(cfg, out_dir: Path, report: RunReport) -> None:
    lattice = _build_lattice(cfg)
    driver = _build_driver(cfg)
    s, _ = _build_payoff(cfg, lattice)
    # only the CARA wealth is read here (cara_route_gap)
    cara, picard, curve = _solve_routes(cfg, lattice, driver, s)
    _recover_holdings(cfg, lattice, driver, s, [picard], curve)
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
    from .closedform import (
        MarketSpec,
        budget_lambda,
        exponential_triple,
        girsanov_density,
        inverse_marginal_f,
        no_trade_solution,
        optimal_terminal_wealth,
    )
    from .optimizer import cara_utility

    lattice = _build_lattice(cfg)
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
    from .lattice import ControlSpec, TimeGrid, WealthGrid
    from .optimizer import cara_utility
    from .valuegrid import bspde_residual, dp_value, fbsde_from_surface

    tgrid = TimeGrid(cfg.horizon, cfg.n_steps)
    xgrid = WealthGrid(cfg.x_min, cfg.x_max, cfg.n_x)
    driver = _build_driver(cfg)
    utility = cara_utility(cfg.gamma_a)
    # the affine payoff a W + b has unit-short integrand a; the other
    # presets have slope one
    payoff_slope = cfg.payoff_a if cfg.payoff == "affine" else 1.0
    kind = "homogeneous" if driver.kinked else "interval"
    control = ControlSpec(kind=kind, z_lo=cfg.z_lo, z_hi=cfg.z_hi, z_scale=payoff_slope)
    surface, policy = dp_value(tgrid, xgrid, driver, utility, control)
    resid = bspde_residual(surface, driver)
    lattice = _build_lattice(cfg)
    bridge = fbsde_from_surface(surface, policy, lattice, utility, cfg.x0, driver)

    x = xgrid.x
    n_t = tgrid.n_steps
    # one row per slice k < n_t and interior wealth point, slice by slice
    cells = (slice(0, n_t), xgrid.interior)
    xs = x[xgrid.interior]
    fields = (surface.v, surface.v_x, surface.v_xx, policy.upsilon, policy.theta_hat, resid.rows)
    table = np.column_stack(
        (
            np.repeat(np.arange(n_t) * tgrid.dt, xs.size),
            np.tile(xs, n_t),
            *(a[cells].ravel() for a in fields),
        )
    )
    header = ["t", "x", "V", "Vx", "Vxx", "upsilon", "theta_hat", "residual"]
    _emit(cfg, out_dir, report, "value.csv", header, table)
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
    from .closedform import MarketSpec, exponential_triple
    from .optimizer import cara_utility

    lattice = _build_lattice(cfg)
    driver = _build_driver(cfg)
    utility = cara_utility(cfg.gamma_a)
    market = MarketSpec(gamma=cfg.gamma, eta=cfg.eta, utility=utility, x0=cfg.x0)

    s, _ = _build_payoff(cfg, lattice)
    # every route is solved first, then its holdings are recovered.  The
    # explicit triple always lives in the quadratic family, so its recovery
    # needs the y-grid even when the scenario driver is kinked.  When
    # [market] gamma/eta are the scenario driver bit for bit (-0.0 and 0.0
    # give different g_z at z = -0.0), one sweep serves all three routes.
    triple = exponential_triple(lattice, market)
    cara, picard, curve = _solve_routes(cfg, lattice, driver, s)
    p = cfg.driver_params
    if cfg.driver_kind == "drifted_quadratic" and (
        np.array([p["gamma"], p["eta"]]).tobytes() == np.array([cfg.gamma, cfg.eta]).tobytes()
    ):
        _recover_holdings(cfg, lattice, driver, s, [triple, cara, picard], curve)
    else:
        _recover_holdings(cfg, lattice, market.driver(), s, [triple])
        _recover_holdings(cfg, lattice, driver, s, [cara, picard], curve)

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
    report = RunReport(command=command, scenario=cfg.echo())
    try:
        _COMMANDS[command](cfg, out, report)
    except InvalidArgument:
        report.exit_code = EXIT_CONFIG
        raise
    except (ImpactHedgerError, OverflowError):  # Python floats raise on overflow
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
    except (InvalidArgument, FileNotFoundError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (ImpactHedgerError, OverflowError) as exc:
        print(f"numeric error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    if report.exit_code != EXIT_OK:
        print(f"completed with flags: {report.flags}", file=sys.stderr)
    return report.exit_code


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
