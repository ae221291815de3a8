"""Pricing and optimal trading under endogenous market impact.

A numerical library for a market where a representative liquidity supplier
quotes utility-indifference prices generated by a convex driver, and a
large trader optimizes expected utility against the resulting nonlinear,
volume-dependent price curve.  All solvers run on a discrete Brownian
lattice.

Each name is loaded on first use (PEP 562): ``import impact_hedger`` runs
no solver module until one of its names is looked up.
"""

import importlib

# defining module -> the names the package exports from it
_EXPORTS = {
    "driver": """Driver custom_driver drifted_quadratic_driver entropic_driver
        homogeneous_driver linear_driver quadratic_driver zero_driver""",
    "gexpect": """BsdeSolution DzDyResult PositionCurve dz_dy dz_dy_variational
        entropic_exact solve_bsde z_homogeneous z_of_position""",
    "lattice": """ControlSpec Lattice NodeProcess StateSde TimeGrid WealthGrid
        build_binomial build_full_binary simulate_state""",
    "market": """Strategy WealthPath constant_strategy expected_terminal_utility
        piecewise_constant_strategy pnl_process price_curve quote_grid simple_strategy_pnl""",
    "optimizer": """FbsdeSolution OptimalityReport UtilitySpec cara_utility custom_utility
        recover_theta solve_fbsde_cara solve_fbsde_picard solve_h solve_h_homogeneous
        verify_optimality""",
    "closedform": """MarketSpec budget_lambda exponential_triple girsanov_density
        inverse_marginal_f no_trade_solution optimal_terminal_wealth wealth_by_conditional_route""",
    "valuegrid": """BspdeResidualReport PolicySlice ValueSurface bspde_residual
        cara_closed_form_surface dp_value fbsde_from_surface lv_operator residual_slice""",
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names.split()}
_SUBMODULES = (*_EXPORTS, "errors")

__all__ = sorted([*_HOME, *_SUBMODULES])

__version__ = "0.1.0"


def __getattr__(name: str):
    if name in _SUBMODULES:  # importing a submodule binds it here
        return importlib.import_module(f"{__name__}.{name}")
    if name in _HOME:
        return getattr(importlib.import_module(f"{__name__}.{_HOME[name]}"), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
