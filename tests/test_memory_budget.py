"""Scratch memory of the ``value`` stages on a surface-benchmark-sized desk.

Each stage of ``value`` (the DP sweep, the residual, the bridge and the
CSV write) runs under ``tracemalloc`` at n_t = 125, n_x = 401, the size of
the surface benchmark's desks, and its traced peak, above what was held
when it started, must stay under a budget.  The budgets are the peaks
measured when the stages stopped holding whole-surface scratch, plus
about 20 %; the whole-surface versions peaked at 4.15 MB (DP), 3.62 MB
(bridge) and 3.13 MB (CSV) on this desk.  numpy's allocations repeat to
a few kB from run to run, so a budget is a fixed number, not a
statistical bound.
"""
import tracemalloc

import numpy as np

from impact_hedger import (
    ControlSpec,
    TimeGrid,
    WealthGrid,
    bspde_residual,
    build_binomial,
    cara_utility,
    dp_value,
    drifted_quadratic_driver,
    fbsde_from_surface,
)
from impact_hedger.cli import _write_csv

# traced peak per stage in bytes: the peak measured on this desk, plus 20 %
BUDGET = {
    "dp_value": 2.72e6,  # 2.27 MB
    "bspde_residual": 0.51e6,  # 0.42 MB
    "fbsde_from_surface": 1.30e6,  # 1.08 MB
    "_write_csv": 2.66e6,  # 2.22 MB
}


def _traced_peak(run):
    tracemalloc.start()
    try:
        held = tracemalloc.get_traced_memory()[0]
        out = run()
        return out, tracemalloc.get_traced_memory()[1] - held
    finally:
        tracemalloc.stop()


def test_the_value_stages_hold_no_whole_surface_scratch(tmp_path):
    tgrid, xgrid = TimeGrid(1.0, 125), WealthGrid(-3.0, 3.0, 401)
    driver, utility = drifted_quadratic_driver(1.0, 0.3), cara_utility(2.0)
    control = ControlSpec(kind="interval", z_lo=-1.0, z_hi=1.0)
    lattice = build_binomial(1.0, 125)
    _write_csv(tmp_path / "warm.csv", ["a"], [np.arange(3.0)])  # g17's tables

    peaks = {}
    (surface, policy), peaks["dp_value"] = _traced_peak(
        lambda: dp_value(tgrid, xgrid, driver, utility, control)
    )
    resid, peaks["bspde_residual"] = _traced_peak(lambda: bspde_residual(surface, driver))
    _, peaks["fbsde_from_surface"] = _traced_peak(
        lambda: fbsde_from_surface(surface, policy, lattice, utility, 0.0, driver)
    )
    # the value.csv table of the CLI: t and x beside six field views
    cells = (slice(0, 125), xgrid.interior)
    fields = (surface.v, surface.v_x, surface.v_xx, policy.upsilon, policy.theta_hat, resid.rows)
    columns = ((np.arange(125) * tgrid.dt)[:, None], xgrid.x[xgrid.interior], *(a[cells] for a in fields))
    header = ["t", "x", "V", "Vx", "Vxx", "upsilon", "theta_hat", "residual"]
    _, peaks["_write_csv"] = _traced_peak(lambda: _write_csv(tmp_path / "value.csv", header, columns))

    over = {stage: peak for stage, peak in peaks.items() if peak > BUDGET[stage]}
    assert not over, f"traced peaks over budget: {over} (budgets {BUDGET})"
