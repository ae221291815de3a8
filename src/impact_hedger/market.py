"""Quoted price curve and trading P&L.

Wealth of a trading strategy is path-dependent, so P&L accounting runs on
the full-binary expansion of the lattice (one node per path prefix).  The
position integrand itself is a plain node process and is looked up from a
:class:`~impact_hedger.gexpect.PositionCurve`.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .driver import Driver
from .errors import ContractViolation, InvalidArgument, NumericOverflow
from .gexpect import PositionCurve, _driver_levels, _terminal_array, solve_bsde
from .lattice import FULL_BINARY, Lattice, NodeProcess, _forward_wealth


@dataclass
class Strategy:
    """Units held per node; ``theta.values(k)`` applies on [t_k, t_{k+1})."""

    theta: NodeProcess

    def __post_init__(self) -> None:
        if self.theta.n_levels < self.theta.lattice.n_steps:
            raise InvalidArgument("strategy must cover levels 0..n-1")


def constant_strategy(lattice: Lattice, y: float) -> Strategy:
    """Hold ``y`` units from time 0 to maturity."""
    return Strategy(theta=NodeProcess.constant(lattice, y, n_levels=lattice.n_steps))


def piecewise_constant_strategy(
    lattice: Lattice, segments: list[tuple[int, float]]
) -> Strategy:
    """Level-constant strategy from (start_level, value) segments.

    Segments must start at level 0 and be strictly increasing in level;
    each value applies until the next segment begins.
    """
    if not segments or segments[0][0] != 0:
        raise InvalidArgument("segments must start at level 0")
    levels = [lv for lv, _ in segments]
    if any(b <= a for a, b in zip(levels, levels[1:])):
        raise InvalidArgument("segment levels must be strictly increasing")
    if levels[-1] >= lattice.n_steps:
        raise InvalidArgument("segment start beyond the last trading level")
    values = np.zeros(lattice.n_steps)
    for i, (lv, val) in enumerate(segments):
        end = segments[i + 1][0] if i + 1 < len(segments) else lattice.n_steps
        values[lv:end] = val
    theta = NodeProcess(
        lattice,
        [np.full(lattice.level_size(k), values[k]) for k in range(lattice.n_steps)],
    )
    return Strategy(theta=theta)


@dataclass
class WealthPath:
    """Wealth and gains of a strategy on the expanded (full-binary) lattice."""

    x: NodeProcess
    gains: NodeProcess
    z_theta: NodeProcess


def _check_node(lattice: Lattice, node: tuple[int, int]) -> tuple[int, int]:
    """The node's (level, slot), refused unless it is on the lattice."""
    k, j = node
    if not (0 <= k <= lattice.n_steps and 0 <= j < lattice.level_size(k)):
        raise InvalidArgument(f"node {node} is not on the lattice")
    return k, j


def price_curve(
    lattice: Lattice,
    driver: Driver,
    s_terminal,
    node: tuple[int, int],
    z: float,
    y: float,
    h_m=None,
) -> float:
    """Quoted selling price for y units given inventory -z, at a lattice node.

    P = Pi(H_M + z S) - Pi(H_M + (z - y) S), both evaluated at ``node``.
    """
    k, j = _check_node(lattice, node)
    hold, after = _quote_books(
        lattice, s_terminal, np.array([z], dtype=float), np.array([y], dtype=float), h_m
    )
    pi_hold = solve_bsde(lattice, driver, hold).pi.values(k)[j]
    pi_after = solve_bsde(lattice, driver, after).pi.values(k)[j]
    return float(pi_hold - pi_after)


def _quote_books(lattice: Lattice, s_terminal, z, y, h_m) -> np.ndarray:
    """Books H_M + z S (one row per z), then H_M + (z - y) S (one row per
    pair, z major), all finite."""
    s = _terminal_array(lattice, s_terminal)
    h = np.zeros_like(s) if h_m is None else _terminal_array(lattice, h_m)
    with np.errstate(over="ignore", invalid="ignore"):  # refused just below
        shifts = np.concatenate([z, (z[:, None] - y[None, :]).reshape(-1)])
        books = h[None, :] + shifts[:, None] * s[None, :]
    bad = ~np.all(np.isfinite(books), axis=1)
    if np.any(bad):
        i = int(np.argmax(bad))
        if i < z.size:
            raise NumericOverflow(f"non-finite book H_M + z S at z = {float(z[i])!r}")
        zi, yi = divmod(i - z.size, y.size)
        raise NumericOverflow(
            f"non-finite book H_M + (z - y) S at z = {float(z[zi])!r}, y = {float(y[yi])!r}"
        )
    return books


def quote_grid(
    lattice: Lattice,
    driver: Driver,
    s_terminal,
    node: tuple[int, int],
    z_values,
    y_values,
    h_m=None,
) -> np.ndarray:
    """:func:`price_curve` for every (z, y) pair, shape ``(len(z), len(y))``.

    The books H_M + z S (one per z) and H_M + (z - y) S (one per pair) are
    stacked and swept once; only the quoted level of the evaluation is
    kept.  Each quote is bit for bit the one :func:`price_curve` returns.
    """
    k, j = _check_node(lattice, node)
    z = np.asarray(z_values, dtype=float).reshape(-1)
    y = np.asarray(y_values, dtype=float).reshape(-1)
    books = _quote_books(lattice, s_terminal, z, y, h_m)
    quoted = books[:, j]
    for level, pi, _ in _driver_levels(lattice, driver, books):
        if level == k:
            quoted = pi[:, j]
    return quoted[: z.size, None] - quoted[z.size :].reshape(z.size, y.size)


def pnl_process(
    lattice: Lattice,
    driver: Driver,
    s_terminal,
    strategy: Strategy,
    x0: float,
    y_grid=None,
) -> WealthPath:
    """Forward accumulation of trading gains along every path.

    gains_{k+1} = gains_k - g(t_k, Z^theta_k) dt + Z^theta_k dW

    The traded position integrand is looked up from the position curve (or
    the homogeneous scaling shortcut); positions outside the y-grid hull
    are refused rather than extrapolated.
    """
    if lattice.topology == FULL_BINARY:
        raise InvalidArgument("pass the recombining lattice; expansion is internal")
    binary = lattice.expand_full_binary()
    curve = PositionCurve(lattice, driver, s_terminal, y_grid=y_grid)
    z_theta = NodeProcess.empty(binary, lattice.n_steps)

    def z_of_level(k: int, _) -> np.ndarray:
        z_bin = z_theta.levels[k]
        z_bin[...] = lattice.lift_level(curve.z_level(k, strategy.theta.values(k)), k, binary)
        return z_bin

    gains, _ = _forward_wealth(binary, driver, z_of_level, 0.0)
    x = gains.map(lambda lv: lv + x0)
    return WealthPath(x=x, gains=gains, z_theta=z_theta)


def simple_strategy_pnl(
    lattice: Lattice, driver: Driver, s_terminal, strategy: Strategy
) -> np.ndarray:
    """Terminal P&L of a level-constant strategy, priced trade by trade.

    theta_T * S minus the sum over jump times of the quoted prices
    P_t(-theta_t, d theta_t), evaluated path-wise; returned on the terminal
    level of the full-binary expansion (same ordering as
    :func:`pnl_process`).  Level k is a jump where the position differs
    from the one before it, 0 before level 0.
    """
    s = _terminal_array(lattice, s_terminal)
    binary = lattice.expand_full_binary()
    n = lattice.n_steps

    levels = strategy.theta.levels[:n]
    if any(np.ptp(lv) != 0.0 for lv in levels):
        raise ContractViolation(
            "simple strategies must be level-constant for trade-by-trade pricing"
        )
    # held[k] is the position before the trade at level k, held[k + 1] after it
    held = [0.0] + [float(lv[0]) for lv in levels]
    jumps = [k for k in range(n) if held[k + 1] != held[k]]

    total_cost = np.zeros(binary.level_size(n))
    if jumps:  # the books held before and after each jump, swept as one batch
        positions = [held[k + j] for k in jumps for j in (0, 1)]
        with np.errstate(over="ignore", invalid="ignore"):  # refused just below
            books = np.stack([-y * s for y in positions])
        bad = ~np.all(np.isfinite(books), axis=1)
        if np.any(bad):
            raise NumericOverflow(f"non-finite book -y S at y = {positions[np.argmax(bad)]!r}")
        # each jump's two rows are read off the sweep at the jump's own level
        row = {k: 2 * i for i, k in enumerate(jumps)}
        prices = {}
        for k, pi, _ in _driver_levels(lattice, driver, books):
            if k in row:
                prices[k] = pi[row[k]] - pi[row[k] + 1]
    for k in jumps:  # in jump order: the sum's rounding depends on it
        # book the cost at the path's level-k ancestor and carry it to maturity
        carried = lattice.lift_level(prices[k], k, binary)
        total_cost += np.repeat(carried, 1 << (n - k))
    return held[-1] * lattice.lift_level(s, n, binary) - total_cost


def expected_terminal_utility(
    lattice: Lattice,
    driver: Driver,
    z_levels: list[np.ndarray] | NodeProcess,
    x0: float,
    utility,
) -> float:
    """Exact lattice E[U(x0 + gains_T)] for a node-valued integrand.

    CARA utilities factor multiplicatively over path increments, so the
    expectation collapses to a backward recursion on the recombining
    lattice at any depth.  Other utilities enumerate every path, capped by
    the binary-expansion limit, with the wealth step of ``_forward_wealth``
    written out here: only the last level is kept, where a whole process
    would hold 2^(n+1) nodes.
    """
    if not isinstance(z_levels, NodeProcess):
        z_levels = NodeProcess(lattice, z_levels)  # refuses a level of the wrong size
    grid = lattice.grid
    dt, sq = grid.dt, grid.sqrt_dt
    n = lattice.n_steps
    if z_levels.n_levels < n:
        raise InvalidArgument(f"the integrand has {z_levels.n_levels} levels, expected {n}")
    if getattr(utility, "kind", None) == "cara":
        gamma_a = utility.gamma_a
        phi = np.ones(lattice.level_size(n))
        for k in range(n - 1, -1, -1):
            z = z_levels.levels[k]
            g = np.asarray(driver.g(grid.t(k), z), dtype=float)
            down, up = lattice.split_children(phi)
            inc_up = -g * dt + z * sq
            inc_dn = -g * dt - z * sq
            phi = 0.5 * (
                np.exp(-gamma_a * inc_up) * up + np.exp(-gamma_a * inc_dn) * down
            )
        return float(-np.exp(-gamma_a * x0) * phi[0])

    binary = lattice.expand_full_binary()
    gains = np.zeros(1)
    for k in range(n):
        z_bin = lattice.lift_level(z_levels.levels[k], k, binary)
        g_bin = np.asarray(driver.g(grid.t(k), z_bin), dtype=float)
        drift = gains - g_bin * dt
        gains, _ = binary.forward_level(drift - z_bin * sq, drift + z_bin * sq)
    return float(np.mean(utility.u(x0 + gains)))
