"""Pricing and optimal trading under endogenous market impact.

A numerical library for a market where a representative liquidity supplier
quotes utility-indifference prices generated by a convex driver, and a
large trader optimizes expected utility against the resulting nonlinear,
volume-dependent price curve.  All solvers run on a discrete Brownian
lattice.
"""

from .driver import (
    Driver,
    custom_driver,
    drifted_quadratic_driver,
    entropic_driver,
    homogeneous_driver,
    linear_driver,
    quadratic_driver,
    zero_driver,
)
from .gexpect import (
    BsdeSolution,
    DzDyResult,
    PositionCurve,
    dz_dy,
    dz_dy_variational,
    entropic_exact,
    solve_bsde,
    z_homogeneous,
    z_of_position,
)
from .lattice import (
    Lattice,
    NodeProcess,
    StateSde,
    TimeGrid,
    build_binomial,
    build_full_binary,
    simulate_state,
)
from .market import (
    Strategy,
    WealthPath,
    constant_strategy,
    expected_terminal_utility,
    piecewise_constant_strategy,
    pnl_process,
    price_curve,
    quote_grid,
    simple_strategy_pnl,
)
from .optimizer import (
    FbsdeSolution,
    OptimalityReport,
    UtilitySpec,
    cara_utility,
    custom_utility,
    recover_theta,
    solve_fbsde_cara,
    solve_fbsde_picard,
    solve_h,
    solve_h_homogeneous,
    verify_optimality,
)
from .closedform import (
    MarketSpec,
    budget_lambda,
    exponential_triple,
    girsanov_density,
    inverse_marginal_f,
    no_trade_solution,
    optimal_terminal_wealth,
    wealth_by_conditional_route,
)
from .valuegrid import (
    BspdeResidualReport,
    ControlSpec,
    PolicySlice,
    ValueSurface,
    WealthGrid,
    bspde_residual,
    cara_closed_form_surface,
    dp_value,
    fbsde_from_surface,
    lv_operator,
    residual_slice,
)

__all__ = [name for name in dir() if not name.startswith("_")]

__version__ = "0.1.0"
