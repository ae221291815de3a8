"""Complete-market closed forms used as an independent oracle suite.

The market maker prices by an entropic certainty equivalent under a
deterministic change of measure; the investor's optimal terminal wealth is
then a deterministic transform of the change-of-measure density, and for
CARA investors everything is explicit.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .driver import TimeFn, _as_time_fn, drifted_quadratic_driver, quadratic_driver
from .errors import ContractViolation, InvalidArgument, NumericOverflow
from .lattice import Lattice, NodeProcess, _forward_wealth
from .optimizer import (
    FbsdeSolution,
    UtilitySpec,
    _decreasing_root,
    _in_marginal_range,
    _invert_decreasing,
    verify_optimality,
)


@dataclass
class MarketSpec:
    """Market-maker risk aversion, measure drift and investor description."""

    gamma: float
    eta: float | TimeFn
    utility: UtilitySpec
    x0: float

    def __post_init__(self) -> None:
        if not self.gamma > 0:
            raise InvalidArgument("gamma must be positive")

    def eta_fn(self) -> TimeFn:
        return _as_time_fn(self.eta)

    def eta_squared_terms(self, lattice: Lattice) -> list[float]:
        """eta(t_i)^2 dt for each step i of the grid."""
        grid = lattice.grid
        fn = self.eta_fn()
        terms = []
        for i in range(lattice.n_steps):
            eta = fn(grid.t(i))
            try:  # a Python float raises on overflow where numpy returns inf
                terms.append(eta**2 * grid.dt)
            except OverflowError:
                msg = f"measure drift eta = {eta!r} overflows eta^2 dt at step {i}"
                raise NumericOverflow(msg, level=i) from None
        return terms

    def eta_squared_integral(self, lattice: Lattice, from_level: int = 0) -> float:
        """int_{t_k}^T eta(s)^2 ds for piecewise-constant eta on the grid."""
        return sum(self.eta_squared_terms(lattice)[from_level:])

    def driver(self):
        return drifted_quadratic_driver(self.gamma, self.eta)


def girsanov_density(lattice: Lattice, eta) -> NodeProcess:
    """Density process exp(-1/2 int eta^2 ds - int eta dW) on the lattice.

    The log density is the wealth, from 0, of the integrand -eta under the
    driver z^2 / 2, so it is one forward wealth pass.  Node-measurable for
    constant eta; for level-varying eta the interior nodes take the mean of
    the two parent accumulations.
    """
    fn = _as_time_fn(eta)
    t = lattice.grid.t
    try:
        with np.errstate(over="ignore", invalid="ignore"):
            log_density, _ = _forward_wealth(
                lattice, quadratic_driver(0.5), lambda k, x: np.full_like(x, -fn(t(k))), 0.0
            )
    except NumericOverflow as exc:
        k = exc.level
        msg = f"measure drift eta = {fn(t(k - 1))!r} makes the density non-finite at level {k}"
        raise NumericOverflow(msg, level=k) from exc
    return log_density.map(np.exp)


def inverse_marginal_f(utility: UtilitySpec, gamma: float) -> Callable[[np.ndarray], np.ndarray]:
    """Inverse of the decreasing map x -> U'(x) exp(-gamma x) / gamma.

    CARA utilities have the explicit form
    f(v) = -log(gamma v / gamma_a) / (gamma + gamma_a); anything else is
    inverted by a bracketed root search.
    """
    if not gamma > 0:
        raise InvalidArgument("gamma must be positive")
    if utility.kind == "cara":
        ga = utility.gamma_a

        def f_cara(v):
            out = -np.log(gamma * _in_marginal_range(v) / ga) / (gamma + ga)
            return out if np.ndim(v) else float(out)

        return f_cara

    def forward(x: np.ndarray) -> np.ndarray:
        return np.asarray(utility.u1(x)) * np.exp(-gamma * x) / gamma

    return lambda v: _invert_decreasing(forward, v, xtol=1e-13)


def budget_lambda(lattice: Lattice, market: MarketSpec) -> float:
    """Multiplier matching the replication budget E[exp(gamma X*) xi_T] = exp(gamma x0).

    CARA investors admit the explicit inversion of the budget identity;
    the generic path integrates over the Gaussian law of the density
    exponent by Gauss-Hermite quadrature and searches on log lambda.
    """
    gamma = market.gamma
    x0 = market.x0
    v = market.eta_squared_integral(lattice)
    if market.utility.kind == "cara":
        ga = market.utility.gamma_a
        log_glg = -(gamma + ga) * x0 - ga * v / (2.0 * (gamma + ga))
        with np.errstate(over="ignore"):
            lam = float(ga / gamma * np.exp(log_glg))
        if not (math.isfinite(lam) and lam > 0):
            raise NumericOverflow(f"budget multiplier lambda = {lam!r} is out of float range")
        return lam

    with np.errstate(over="ignore"):
        target = np.exp(gamma * x0)
    if not (math.isfinite(target) and target > 0):
        raise NumericOverflow(
            f"budget target exp(gamma x0) is out of float range at x0 = {x0!r}, gamma = {gamma!r}"
        )
    f = inverse_marginal_f(market.utility, gamma)
    nodes, weights = np.polynomial.hermite_e.hermegauss(160)
    weights = weights / np.sqrt(2.0 * np.pi)
    # density exponent: xi_T = exp(-v/2 - sqrt(v) G) with G standard normal
    xi = np.exp(-0.5 * v - np.sqrt(v) * nodes)

    def budget_gap(log_lam: np.ndarray) -> np.ndarray:
        xt = f(np.exp(log_lam) * xi)
        return np.sum(weights * np.exp(gamma * xt) * xi, keepdims=True) - target

    widen = lambda lo, hi: (lo - 1.0, hi + 1.0)  # noqa: E731
    log_lam = _decreasing_root(budget_gap, -np.ones(1), np.ones(1), 1e-13, widen, 200)
    return float(np.exp(log_lam[0]))


def optimal_terminal_wealth(
    lam: float, xi_terminal: np.ndarray | NodeProcess, f: Callable
) -> np.ndarray:
    """Node-wise X*_T = f(lambda xi_T)."""
    if not lam > 0:
        raise InvalidArgument("lambda must be positive")
    xi = xi_terminal.terminal if isinstance(xi_terminal, NodeProcess) else np.asarray(xi_terminal)
    return np.asarray(f(lam * xi), dtype=float)


def exponential_triple(lattice: Lattice, market: MarketSpec) -> FbsdeSolution:
    """Explicit optimal triple for a CARA investor.

    The optimal integrand is eta_t / (gamma + gamma_a); the backward value
    is the deterministic remaining-variance integral and its martingale
    part vanishes.  Wealth accumulates forward with the standard drift.
    The holdings are left to ``recover_theta`` on ``market.driver()``.
    """
    if market.utility.kind != "cara":
        raise ContractViolation("the explicit triple requires CARA utility")
    ga = market.utility.gamma_a
    gamma = market.gamma
    eta = market.eta_fn()
    grid = lattice.grid
    n = lattice.n_steps

    h = NodeProcess.empty(lattice, n)
    for k, level in enumerate(h.levels):
        level[...] = eta(grid.t(k)) / (gamma + ga)
    # each remaining integral summed left to right, as eta_squared_integral does
    terms = market.eta_squared_terms(lattice)
    zeta = NodeProcess.empty(lattice, n + 1)
    for k, level in enumerate(zeta.levels):
        level[...] = sum(terms[k:]) / (2.0 * (gamma + ga))

    driver = market.driver()
    x, consistency = _forward_wealth(lattice, driver, lambda k, _: h.levels[k], market.x0)
    sol = FbsdeSolution(
        x=x,
        zeta=zeta,
        m=NodeProcess.constant(lattice, 0.0, n_levels=n),
        h=h,
        forward_consistency=consistency,
    )
    sol.residuals = verify_optimality(sol, driver, market.utility)
    return sol


def wealth_by_conditional_route(
    lattice: Lattice, market: MarketSpec, terminal_wealth: np.ndarray
) -> NodeProcess:
    """X*_t = (1/gamma) log E^Q[exp(gamma X*_T) | F_t] under the tilted branch weights.

    The tilted up/down weights are (1 -/+ eta sqrt(dt)) / 2, matching the
    drift -eta of the Brownian motion under the pricing measure.
    """
    gamma = market.gamma
    eta = market.eta_fn()
    grid = lattice.grid
    n = lattice.n_steps
    growth = NodeProcess.empty(lattice, n + 1)
    levels = growth.levels
    levels[n][...] = np.exp(gamma * np.asarray(terminal_wealth, dtype=float))
    for k in range(n - 1, -1, -1):
        e = eta(grid.t(k))
        q_up = 0.5 * (1.0 - e * grid.sqrt_dt)
        q_dn = 0.5 * (1.0 + e * grid.sqrt_dt)
        if not (0.0 < q_up < 1.0):
            raise InvalidArgument("|eta| sqrt(dt) must stay below 1")
        down, up = lattice.split_children(levels[k + 1])
        levels[k][...] = q_up * up + q_dn * down
    return growth.map(lambda v: np.log(v) / gamma)


def no_trade_solution(lattice: Lattice, driver, x0: float) -> FbsdeSolution | None:
    """Flat solution (X = x0, zeta = 0, M = 0) when not trading is optimal.

    Applicable when g and its gradient vanish at 0 (differentiable case)
    or when 0 lies in the subgradient at 0 (positively homogeneous case);
    returns None otherwise.  Both are checked at 7 evenly spaced times.
    """
    ts = np.linspace(0.0, lattice.grid.horizon, 7)
    tol = 1e-12
    if driver.kinked:
        # subgradient at 0 is [-g(t,-1), g(t,1)]
        applicable = all(
            float(driver.eval(t, 1.0)) >= -tol and float(driver.eval(t, -1.0)) >= -tol
            for t in ts
        )
    else:
        applicable = all(
            abs(float(driver.eval(t, 0.0))) <= tol
            and abs(float(driver.grad(t, 0.0))) <= tol
            for t in ts
        )
    if not applicable:
        return None
    n = lattice.n_steps
    return FbsdeSolution(
        x=NodeProcess.constant(lattice, x0),
        zeta=NodeProcess.constant(lattice, 0.0),
        m=NodeProcess.constant(lattice, 0.0, n_levels=n),
        h=NodeProcess.constant(lattice, 0.0, n_levels=n),
        theta=NodeProcess.constant(lattice, 0.0, n_levels=n),
    )
