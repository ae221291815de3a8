import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from scipy.interpolate import PchipInterpolator
from scipy.optimize import brentq

from impact_hedger import (
    ControlSpec,
    MarketSpec,
    TimeGrid,
    ValueSurface,
    WealthGrid,
    bspde_residual,
    build_binomial,
    build_full_binary,
    cara_closed_form_surface,
    cara_utility,
    custom_driver,
    dp_value,
    drifted_quadratic_driver,
    exponential_triple,
    fbsde_from_surface,
    homogeneous_driver,
    lv_operator,
    zero_driver,
)
from impact_hedger import valuegrid
from impact_hedger.errors import (
    ConcavityViolation,
    ControlBracketExhausted,
    InvalidArgument,
    InverseDomainError,
    NumericOverflow,
    UnsupportedOperation,
)

DRIVER = drifted_quadratic_driver(1.0, 0.3)
UTILITY = cara_utility(2.0)
INTERVAL = ControlSpec(kind="interval", z_lo=-1.0, z_hi=1.0)


def desk_grids(n_t=200, n_x=401):
    return TimeGrid(1.0, n_t), WealthGrid(-3.0, 3.0, n_x)


def test_injected_surface_residual_vanishes():
    tg, xg = desk_grids()
    surf = cara_closed_form_surface(tg, xg, 1.0, 0.3, 2.0)
    rep = bspde_residual(surf, DRIVER)
    assert rep.max_residual <= 1e-10


def test_lv_operator_closed_form_on_injected_surface():
    tg, xg = desk_grids()
    surf = cara_closed_form_surface(tg, xg, 1.0, 0.3, 2.0)
    for t in (0.25, 0.5):
        for x in (-0.6, 0.0, 0.9):
            _, ups = lv_operator(surf, DRIVER, t, x)
            assert ups == pytest.approx(0.1, abs=1e-10)


def test_lv_operator_searched_control_agrees():
    tg, xg = desk_grids(n_t=50)
    surf = cara_closed_form_surface(tg, xg, 1.0, 0.3, 2.0)
    lv_c, ups_c = lv_operator(surf, DRIVER, 0.5, 0.0)
    # the same g without its affine-gradient coefficients takes the search
    searched = custom_driver(DRIVER.g, DRIVER.g_z)
    assert searched.affine_grad_coeffs(0.5) is None
    lv_s, ups_s = lv_operator(surf, searched, 0.5, 0.0)
    assert ups_s == pytest.approx(ups_c, abs=1e-12)
    assert lv_s == pytest.approx(lv_c, abs=1e-12)


def _smooth_driver(gamma, c, eta):
    """g = gamma z^2 / 2 + c (sqrt(1 + z^2) - 1) - eta z: convex, gradient not affine."""
    return custom_driver(
        lambda t, z: 0.5 * gamma * z * z + c * (np.sqrt(1.0 + z * z) - 1.0) - eta * z,
        lambda t, z: gamma * z + c * z / np.sqrt(1.0 + z * z) - eta,
    )


@settings(max_examples=60, deadline=None)
@given(
    coeffs=st.tuples(st.floats(0.0, 2.0), st.floats(0.0, 1.0), st.floats(-1.0, 1.0)),
    rows=st.integers(1, 64).flatmap(
        lambda n: st.tuples(
            hnp.arrays(float, n, elements=st.floats(0.5, 2.0)),
            hnp.arrays(float, n, elements=st.floats(-4.0, -0.5)),
        )
    ),
)
def test_searched_control_is_the_root_of_the_first_order_condition(coeffs, rows):
    # |z*| <= |eta| V_x / |V_xx| <= 4, so [-10, 10] brackets every row
    drv, (vx, vxx) = _smooth_driver(*coeffs), rows
    ups, th = valuegrid._maximizer_row(drv, ControlSpec("interval", -10.0, 10.0), 0.0, vx, vxx)
    ref = [
        brentq(lambda z: -drv.grad(0.0, z) * a + z * b, -10.0, 10.0, xtol=1e-15)
        for a, b in zip(vx, vxx)
    ]
    assert np.max(np.abs(ups - ref)) <= 1e-12
    assert th.tobytes() == ups.tobytes()  # z_scale 1


@pytest.mark.parametrize(
    "drv, ctrl",
    [
        (DRIVER, INTERVAL),
        (custom_driver(DRIVER.g, DRIVER.g_z), INTERVAL),
        (homogeneous_driver(0.02), ControlSpec(kind="homogeneous", z_scale=1.3)),
    ],
    ids=["closed_form", "searched", "homogeneous"],
)
def test_lv_operator_is_the_residual_operator(drv, ctrl):
    tg, xg = desk_grids(n_t=20, n_x=101)
    surf, _ = dp_value(tg, xg, drv, UTILITY, ctrl)
    k, i = 10, 50
    resid = valuegrid.residual_slice(surf, drv, k)
    lv, _ = lv_operator(surf, drv, tg.t(k), float(xg.x[i]))
    assert np.abs(surf.v_t[k, i] + lv).tobytes() == resid[i].tobytes()


@pytest.mark.parametrize("kind", ["interval", "homogeneous"])
@pytest.mark.parametrize("z_scale", [0.0, -0.0, math.inf, math.nan])
def test_control_refuses_a_zero_or_non_finite_unit_integrand(kind, z_scale):
    with pytest.raises(InvalidArgument, match="z_scale"):
        ControlSpec(kind=kind, z_scale=z_scale)


def test_lv_operator_zero_driver():
    tg, xg = desk_grids(n_t=20)
    surf = cara_closed_form_surface(tg, xg, 1.0, 0.0, 2.0)
    lv, ups = lv_operator(surf, zero_driver(), 0.5, 0.0)
    assert ups == 0.0
    assert lv == 0.0


def test_stencil_first_derivative_order():
    # central difference of the injected surface: second-order accurate,
    # measured on a fixed window so the comparison points do not move
    tg = TimeGrid(1.0, 4)
    errs = []
    for n_x in (101, 201):
        xg = WealthGrid(-3.0, 3.0, n_x)
        closed = cara_closed_form_surface(tg, xg, 1.0, 0.3, 2.0)
        num = ValueSurface(tg, xg, closed.v, closed.control).v_x[2]
        window = np.abs(xg.x) <= 2.0
        errs.append(float(np.max(np.abs(num - closed.v_x[2])[window])))
    order = math.log(errs[0] / errs[1], 2)
    assert order >= 1.9


def _slice_first(row, dx):
    out = np.empty_like(row)
    out[1:-1] = (row[2:] - row[:-2]) / (2.0 * dx)
    out[0] = (row[1] - row[0]) / dx
    out[-1] = (row[-1] - row[-2]) / dx
    return out


def _slice_second(row, dx):
    out = np.empty_like(row)
    out[1:-1] = (row[2:] - 2.0 * row[1:-1] + row[:-2]) / (dx * dx)
    out[0] = out[1]
    out[-1] = out[-2]
    return out


def test_surface_derivatives_equal_the_per_slice_stencils():
    # the arrays a surface computes once are, bit for bit, the stencils
    # and central time difference taken slice by slice
    tg, xg = desk_grids(n_t=20, n_x=101)
    surf, _ = dp_value(tg, xg, DRIVER, UTILITY, INTERVAL)
    for k in range(tg.n_steps + 1):
        assert surf.v_x[k].tobytes() == _slice_first(surf.v[k], xg.dx).tobytes()
        assert surf.v_xx[k].tobytes() == _slice_second(surf.v[k], xg.dx).tobytes()
        if 1 <= k < tg.n_steps:
            v_t = (surf.v[k + 1] - surf.v[k - 1]) / (2.0 * tg.dt)
        else:
            v_t = np.zeros(xg.n_x)
        assert surf.v_t[k].tobytes() == v_t.tobytes()


def test_a_built_surface_is_read_not_refitted(monkeypatch):
    # the bridge reads v_x and v_xx a block of levels per call, every call
    # batched by ``rows``, each level of each field once; neither the
    # residual nor the bridge takes the surface's stencils again
    tg, xg = desk_grids(n_t=30, n_x=201)
    surf, pol = dp_value(tg, xg, DRIVER, UTILITY, INTERVAL)
    pchip = valuegrid._pchip
    read = {"v_x": [], "v_xx": []}

    def counted(x, y, xq, rows=None):
        assert rows is not None, "an unbatched read of the surface"
        (name,) = (n for n in read if np.shares_memory(y, getattr(surf, n)))
        first = (y.ctypes.data - getattr(surf, name).ctypes.data) // y.strides[0]
        read[name].extend(first + np.unique(rows))
        return pchip(x, y, xq, rows=rows)

    def refused(*args):
        raise AssertionError("a surface stencil was computed again")

    monkeypatch.setattr(valuegrid, "_pchip", counted)
    monkeypatch.setattr(valuegrid, "_central_first", refused)
    monkeypatch.setattr(valuegrid, "_central_second", refused)
    bspde_residual(surf, DRIVER)
    fbsde_from_surface(surf, pol, build_binomial(1.0, 30), UTILITY, 0.0, DRIVER)
    assert read == {"v_x": list(range(31)), "v_xx": list(range(30))}


def _whole_and_blocked_reads(lattice, field, xq):
    x_axis = np.linspace(-3.0, 3.0, field.shape[1])
    whole = valuegrid._pchip(x_axis, field, xq, rows=lattice.level_index[: xq.size])
    return whole, valuegrid._read_levels(lattice, x_axis, field, xq)


@pytest.mark.parametrize("block", [1, 5, 16])
@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("topology", ["recombining", "full_binary"])
def test_a_blocked_bridge_read_is_one_whole_surface_read(monkeypatch, block, seed, topology):
    # random rows (flat runs and sign changes included) on 37 levels, not a
    # multiple of any block but 1; queries on grid nodes, at the ends,
    # inside and past the hull
    monkeypatch.setattr(valuegrid, "_ROW_BLOCK", block)
    rng = np.random.default_rng(seed)
    n, n_x = (37, 41) if topology == "recombining" else (9, 41)
    lattice = build_binomial(1.0, n) if topology == "recombining" else build_full_binary(1.0, n)
    field = rng.normal(size=(n + 1, n_x))
    field[:, 10:14] = field[:, 10:11]
    field[rng.random(field.shape) < 0.1] *= -1.0
    x_axis = np.linspace(-3.0, 3.0, n_x)
    pick = [x_axis, [-3.0, 3.0, -4.5, 4.5, -1e6, 1e6], rng.uniform(-3.5, 3.5, 64)]
    xq = rng.choice(np.concatenate(pick), size=lattice.offsets[-1])
    for rows in (n + 1, n):  # v_x on every level, v_xx on levels 0 .. n-1
        cells = lattice.offsets[rows]
        whole, blocked = _whole_and_blocked_reads(lattice, field[:rows], xq[:cells])
        assert blocked.tobytes() == whole.tobytes()


@pytest.mark.parametrize("block", [1, 5, 16])
def test_a_non_finite_value_in_a_late_row_is_refused(monkeypatch, block):
    monkeypatch.setattr(valuegrid, "_ROW_BLOCK", block)
    lattice = build_binomial(1.0, 37)
    field = np.tile(np.linspace(1.0, 2.0, 41), (38, 1))
    x_axis, xq = np.linspace(-3.0, 3.0, 41), np.zeros(lattice.offsets[-1])
    for bad in (np.inf, np.nan):
        field[-1, 7] = bad
        with pytest.raises(NumericOverflow, match="non-finite value surface row"):
            valuegrid._read_levels(lattice, x_axis, field, xq)
    # through the bridge: a non-finite V_xx on the last level it reads
    tg, xg = desk_grids(n_t=30, n_x=201)
    surf, pol = dp_value(tg, xg, DRIVER, UTILITY, INTERVAL)
    surf.v_xx[29, 100] = np.nan
    with pytest.raises(NumericOverflow, match="non-finite value surface row"):
        fbsde_from_surface(surf, pol, build_binomial(1.0, 30), UTILITY, 0.0, DRIVER)


def test_dp_zero_driver_keeps_terminal_utility():
    tg, xg = desk_grids(n_t=50)
    surf, pol = dp_value(tg, xg, zero_driver(), UTILITY, INTERVAL)
    u_row = np.asarray(UTILITY.u(xg.x))
    for k in range(51):
        np.testing.assert_allclose(surf.v[k], u_row, rtol=1e-13, atol=0.0)
    assert np.abs(pol.upsilon).max() == 0.0


def test_dp_homogeneous_no_trade_band():
    tg, xg = desk_grids(n_t=50)
    drv = homogeneous_driver(0.1)
    ctrl = ControlSpec(kind="homogeneous", z_scale=1.0)
    surf, pol = dp_value(tg, xg, drv, UTILITY, ctrl)
    u_row = np.asarray(UTILITY.u(xg.x))
    for k in range(51):
        np.testing.assert_allclose(surf.v[k], u_row, rtol=1e-13, atol=0.0)
    assert pol.theta_hat.max() == 0.0
    lv, ups = lv_operator(surf, drv, 0.5, 0.0)
    assert (lv, ups) == (0.0, 0.0)


@pytest.mark.parametrize("kappa, eta, z_scale", [(0.05, 0.3, 1.0), (0.1, 0.5, 1.3), (0.2, -0.4, -0.7)])
def test_homogeneous_holdings_switch_per_slice_not_per_wealth_point(kappa, eta, z_scale):
    # theta = g(t, z_scale) V_x / (z_scale^2 V_xx) with V_x > 0 > V_xx: its
    # sign is that of g(t, z_scale), so a slice trades everywhere or nowhere
    # and the residual has no switch to leave out
    tg, xg = desk_grids(n_t=40, n_x=161)
    drv = custom_driver(lambda t, z: kappa * np.abs(z) - eta * (1.0 - t) * z, is_homogeneous=True)
    surf, pol = dp_value(tg, xg, drv, UTILITY, ControlSpec(kind="homogeneous", z_scale=z_scale))
    on = pol.theta_hat > 0
    assert np.all(on.all(axis=1) | ~on.any(axis=1))
    assert on.any() and not on.all()
    rep = bspde_residual(surf, drv)
    assert rep.max_residual == np.max(rep.rows[:, xg.interior])


def test_dp_value_matches_certainty_equivalent():
    tg, xg = desk_grids()
    surf, pol = dp_value(tg, xg, DRIVER, UTILITY, INTERVAL)
    i0 = np.argmin(np.abs(xg.x))
    assert surf.v[0, i0] == pytest.approx(-np.exp(-0.03), abs=1e-3)
    sl = xg.interior
    assert np.max(np.abs(pol.upsilon[:, sl] - 0.1)) <= 1e-3


def test_dp_surface_shape_checks():
    tg, xg = desk_grids(n_t=50)
    surf, _ = dp_value(tg, xg, DRIVER, UTILITY, INTERVAL)
    surf.check_shape_in_wealth()  # increasing and strictly concave interior


def test_dp_control_bracket_exhausted():
    tg, xg = desk_grids(n_t=10)
    tight = ControlSpec(kind="interval", z_lo=-0.01, z_hi=0.05)
    # the maximizer 0.1 lies past z_hi, in closed form and searched alike
    for drv in (DRIVER, custom_driver(DRIVER.g, DRIVER.g_z)):
        with pytest.raises(ControlBracketExhausted, match="widen \\[z_lo, z_hi\\]"):
            dp_value(tg, xg, drv, UTILITY, tight)


def test_dp_kinked_driver_under_interval_control_never_trades():
    # the subgradient selection 0 makes the first-order condition exactly 0
    # at z = 0, so the searched control is the no-trade point itself
    tg, xg = desk_grids(n_t=50)
    surf, pol = dp_value(tg, xg, homogeneous_driver(0.1), UTILITY, INTERVAL)
    u_row = np.asarray(UTILITY.u(xg.x))
    for k in range(51):
        np.testing.assert_allclose(surf.v[k], u_row, rtol=1e-13, atol=0.0)
    assert not np.any(pol.upsilon) and not np.any(np.signbit(pol.upsilon))


def test_interval_control_needs_the_driver_gradient():
    tg, xg = desk_grids(n_t=10)
    with pytest.raises(UnsupportedOperation, match="gradient"):
        dp_value(tg, xg, custom_driver(DRIVER.g), UTILITY, INTERVAL)


def test_bspde_residual_decreases_with_time_refinement():
    xg = WealthGrid(-1.5, 1.5, 801)
    residuals = {}
    for n_t in (50, 100, 200):
        surf, _ = dp_value(TimeGrid(1.0, n_t), xg, DRIVER, UTILITY, INTERVAL)
        residuals[n_t] = bspde_residual(surf, DRIVER).max_residual
    assert residuals[100] < residuals[50]
    assert residuals[200] < residuals[100]
    slope = np.polyfit(
        np.log([50, 100, 200]), np.log([residuals[n] for n in (50, 100, 200)]), 1
    )[0]
    assert -slope >= 0.8


def test_supermartingale_for_suboptimal_strategies():
    tg, xg = desk_grids(n_t=100)
    surf, _ = dp_value(tg, xg, DRIVER, UTILITY, INTERVAL)
    lat = build_binomial(1.0, 100)
    lo, hi = xg.x_min + 3 * xg.dx, xg.x_max - 3 * xg.dx
    rng = np.random.default_rng(7)
    worst = -np.inf
    for c in rng.uniform(-0.5, 0.5, 10):
        g = float(DRIVER.g(0.0, c))
        for k in range(100):
            wk = -g * lat.grid.t(k) + c * lat.w_values(k)
            wk1 = -g * lat.grid.t(k + 1) + c * lat.w_values(k + 1)
            ok = (
                (wk >= lo)
                & (wk <= hi)
                & (wk1[:-1] >= lo)
                & (wk1[:-1] <= hi)
                & (wk1[1:] >= lo)
                & (wk1[1:] <= hi)
            )
            if not np.any(ok):
                continue
            v_now = PchipInterpolator(xg.x, surf.v[k])(wk)
            v_next = PchipInterpolator(xg.x, surf.v[k + 1])(wk1)
            cond = 0.5 * (v_next[:-1] + v_next[1:])
            worst = max(worst, float(np.max((cond - v_now)[ok])))
    assert worst <= 1e-6


def test_value_martingale_along_optimal_policy():
    tg, xg = desk_grids(n_t=100)
    surf, pol = dp_value(tg, xg, DRIVER, UTILITY, INTERVAL)
    lat = build_binomial(1.0, 100)
    sol = fbsde_from_surface(surf, pol, lat, UTILITY, 0.0, DRIVER)
    worst = 0.0
    for k in range(100):
        v_now = PchipInterpolator(xg.x, surf.v[k])(sol.x.values(k))
        v_next = PchipInterpolator(xg.x, surf.v[k + 1])(sol.x.values(k + 1))
        cond = 0.5 * (v_next[:-1] + v_next[1:])
        worst = max(worst, float(np.max(np.abs(cond - v_now))))
    assert worst <= 1e-4  # grid tolerance


def test_bridge_recovers_exponential_triple():
    tg, xg = desk_grids()
    surf, pol = dp_value(tg, xg, DRIVER, UTILITY, INTERVAL)
    lat = build_binomial(1.0, 200)
    sol = fbsde_from_surface(surf, pol, lat, UTILITY, 0.0, DRIVER)
    mkt = MarketSpec(gamma=1.0, eta=0.3, utility=UTILITY, x0=0.0)
    tri = exponential_triple(lat, mkt)
    assert sol.theta is None  # holdings are recover_theta's
    assert abs(sol.zeta.root - 0.015) <= 1e-3
    assert sol.m.sup_abs() <= 1e-3
    assert sol.x.sup_diff(tri.x) <= 1e-3
    assert sol.zeta.sup_diff(tri.zeta) <= 1e-3
    rep = sol.residuals
    assert rep.martingale_residual <= 1e-3
    assert rep.foc_residual <= 1e-3


def test_bridge_zero_driver_flat():
    tg, xg = desk_grids(n_t=30)
    surf, pol = dp_value(tg, xg, zero_driver(), UTILITY, INTERVAL)
    lat = build_binomial(1.0, 30)
    sol = fbsde_from_surface(surf, pol, lat, UTILITY, 0.0, zero_driver())
    # the recovered backward value carries the wealth-stencil bias only
    assert sol.zeta.sup_abs() <= 1e-4
    assert sol.m.sup_abs() == 0.0
    assert sol.h.sup_abs() == 0.0


def test_bridge_requires_matching_grids():
    tg, xg = desk_grids(n_t=30)
    surf, pol = dp_value(tg, xg, DRIVER, UTILITY, INTERVAL)
    with pytest.raises(InvalidArgument):
        fbsde_from_surface(surf, pol, build_binomial(1.0, 40), UTILITY, 0.0, DRIVER)


def test_lv_operator_rejects_boundary_layer_points():
    tg, xg = desk_grids(n_t=20)
    surf = cara_closed_form_surface(tg, xg, 1.0, 0.3, 2.0)
    with pytest.raises(InvalidArgument):
        lv_operator(surf, DRIVER, 0.5, xg.x_min)  # boundary-layer point
    with pytest.raises(InvalidArgument):
        lv_operator(surf, DRIVER, 0.5, 0.0071)  # off-grid wealth


def test_a_convex_surface_is_refused_by_the_shape_check_and_the_operator():
    tg, xg = desk_grids(n_t=10, n_x=101)
    surf = ValueSurface(tg, xg, np.tile(np.exp(xg.x), (11, 1)), INTERVAL)
    with pytest.raises(ConcavityViolation, match="not strictly concave at slice 0"):
        surf.check_shape_in_wealth()
    with pytest.raises(ConcavityViolation, match="V_xx must be negative"):
        lv_operator(surf, DRIVER, 0.5, 0.0)
    falling = ValueSurface(tg, xg, np.tile(-np.exp(xg.x), (11, 1)), INTERVAL)
    with pytest.raises(ConcavityViolation, match="not increasing in wealth at slice 0"):
        falling.check_shape_in_wealth()


@pytest.mark.parametrize("block", [1, 4, 16, 64])
def test_the_shape_check_names_the_first_failing_slice_in_any_block(monkeypatch, block):
    # slice 33 falls and bends, slice 37 bends: 33 is named, and falling
    # comes before bending, whatever the blocks the check reads
    monkeypatch.setattr(valuegrid, "_ROW_BLOCK", block)
    tg, xg = desk_grids(n_t=40, n_x=101)
    v = np.tile(-np.exp(-xg.x), (41, 1))
    v[37] = np.exp(xg.x)
    v[33, 50:] = v[33, 50] - 1.0
    with pytest.raises(ConcavityViolation, match="not increasing in wealth at slice 33$"):
        ValueSurface(tg, xg, v, INTERVAL).check_shape_in_wealth()
    v[33] = v[32]
    with pytest.raises(ConcavityViolation, match="not strictly concave at slice 37$"):
        ValueSurface(tg, xg, v, INTERVAL).check_shape_in_wealth()


def test_the_bridge_refuses_a_surface_that_falls_at_the_start():
    # no trade keeps the wealth at x0 = 0.5, where V = -x^2 has V_x = -1
    tg, xg = desk_grids(n_t=10, n_x=101)
    surf = ValueSurface(tg, xg, np.tile(-xg.x * xg.x, (11, 1)), INTERVAL)
    idle = valuegrid.PolicySlice(upsilon=np.zeros((10, 101)), theta_hat=np.zeros((10, 101)))
    with pytest.raises(InverseDomainError, match="V_x must be positive"):
        fbsde_from_surface(surf, idle, build_binomial(1.0, 10), UTILITY, 0.5, DRIVER)
