"""Each lattice recursion and each root search is written once.

CARA and Picard run on the shared backward sweep (``_sweep_levels``), every
wealth-like forward pass on ``lattice._forward_wealth`` and every bracketed
root search on ``_decreasing_root``.  The loops they replaced are kept here
as the reference: the shared code must give their numbers bit for bit.  The
reference root searches keep their own per-node bracketing and call the
array solver on one element; the array root finder's own tests, further
down, tie that solver to scipy's ``brentq``.
"""
import math
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from impact_hedger import (
    ControlSpec,
    MarketSpec,
    NodeProcess,
    PositionCurve,
    TimeGrid,
    WealthGrid,
    budget_lambda,
    build_binomial,
    build_full_binary,
    cara_utility,
    custom_driver,
    custom_utility,
    dp_value,
    drifted_quadratic_driver,
    entropic_driver,
    fbsde_from_surface,
    girsanov_density,
    homogeneous_driver,
    inverse_marginal_f,
    linear_driver,
    piecewise_constant_strategy,
    pnl_process,
    simple_strategy_pnl,
    solve_bsde,
    solve_fbsde_cara,
    solve_h,
    solve_h_homogeneous,
)
from impact_hedger.errors import (
    DomainError,
    ExtrapolationRefused,
    InvalidArgument,
    NumericOverflow,
    RootNotFound,
)
from impact_hedger.gexpect import _unit_integrands
from impact_hedger.optimizer import (
    _decreasing_root,
    _double,
    _h_level_general,
    _homogeneous_h_level,
    _invert_decreasing,
    _picard_pass,
)

SETTINGS = settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])


def _bits(a) -> bytes:
    return np.ascontiguousarray(a, dtype=float).tobytes()


def _same(got: NodeProcess, want_levels) -> bool:
    return _bits(got.flat) == _bits(np.concatenate(want_levels))


def _outcome(fn, *args, **kwargs):
    """A value's bits, or the class of the error raised."""
    try:
        return _bits(fn(*args, **kwargs))
    except Exception as exc:  # noqa: BLE001  (compared by class)
        return type(exc)


@st.composite
def lattices(draw, max_recombining=10, max_binary=5):
    horizon = draw(st.floats(0.2, 2.0))
    if draw(st.booleans()):
        return build_full_binary(horizon, draw(st.integers(1, max_binary)))
    return build_binomial(horizon, draw(st.integers(1, max_recombining)))


def _exp_mix():
    return custom_utility(
        u=lambda x: -(np.exp(-x) + np.exp(-3.0 * x)) / 2.0,
        u1=lambda x: (np.exp(-x) + 3.0 * np.exp(-3.0 * x)) / 2.0,
        u2=lambda x: -(np.exp(-x) + 9.0 * np.exp(-3.0 * x)) / 2.0,
        u3=lambda x: (np.exp(-x) + 27.0 * np.exp(-3.0 * x)) / 2.0,
    )


EXP_MIX = _exp_mix()


def _smooth_driver(c: float):
    """g = z^2 / 2 + c (sqrt(1 + z^2) - 1): convex, gradient not affine."""
    return custom_driver(
        lambda t, z: z * z / 2.0 + c * (np.sqrt(1.0 + z * z) - 1.0),
        lambda t, z: z + c * z / np.sqrt(1.0 + z * z),
    )


def _logcosh_driver(c: float):
    """g = c log cosh z: convex with a bounded, non-affine gradient."""
    return custom_driver(lambda t, z: c * np.log(np.cosh(z)), lambda t, z: c * np.tanh(z))


drivers = st.one_of(
    st.tuples(st.floats(0.2, 2.0), st.floats(-0.5, 0.5)).map(lambda p: drifted_quadratic_driver(*p)),
    st.floats(-0.5, 0.5).map(linear_driver),
    st.floats(0.2, 1.5).map(entropic_driver),
    st.floats(0.0, 0.3).map(_smooth_driver),
    st.floats(0.05, 0.5).map(homogeneous_driver),
)
utilities = st.one_of(st.floats(0.5, 3.0).map(cara_utility), st.just(EXP_MIX))


# -- reference copies of the replaced loops -----------------------------------


def one_root(fn, lo, hi, xtol):
    """The array solver on one element, on a bracket the caller found;
    ``fn`` takes and returns Python floats."""
    root = _decreasing_root(
        lambda x: np.array([fn(float(x[0]))]), np.array([lo]), np.array([hi]), xtol, _double, 1
    )
    return float(root[0])


def ref_solve_h(driver, utility, t, x, zeta, m):
    w = x + zeta
    u2 = float(utility.u2(np.asarray(w)))
    psi1 = float(utility.psi1(np.asarray(w)))
    coeffs = driver.affine_grad_coeffs(t)
    if coeffs is not None:
        a, b = coeffs
        return float((psi1 * b - m) / (1.0 - a * psi1))
    if not (math.isfinite(w) and math.isfinite(m) and math.isfinite(psi1)):
        raise NumericOverflow("first-order condition at a non-finite node")
    gz0 = float(driver.grad(t, 0.0))
    radius = abs(m) + abs(psi1 * gz0) + 1.0
    u1 = float(utility.u1(np.asarray(w)))

    def foc(hh):
        return -u1 * float(driver.grad(t, hh)) + u2 * (hh + m)

    lo, hi = -radius, radius
    for _ in range(60):
        flo, fhi = foc(lo), foc(hi)
        if flo == 0.0:
            return lo
        if fhi == 0.0:
            return hi
        if flo * fhi < 0:
            h = one_root(foc, lo, hi, 1e-14)
            bound = abs(m) + abs(psi1 * gz0) + 1e-9 * (1.0 + abs(m))
            if abs(h) > bound:
                raise RootNotFound("linear-growth bound")
            return float(h)
        lo *= 2.0
        hi *= 2.0
    raise RootNotFound("no sign change", bracket=(lo, hi))


def ref_invert_decreasing(fn, target, xtol=1e-14):
    lo, hi = -1.0, 1.0
    for _ in range(200):
        if fn(lo) >= target >= fn(hi):
            return one_root(lambda x: fn(x) - target, lo, hi, xtol)
        lo *= 2.0
        hi *= 2.0
    raise RootNotFound("could not bracket", bracket=(lo, hi))


def ref_budget_lambda(lattice, market):
    gamma = market.gamma
    v = market.eta_squared_integral(lattice)
    f = inverse_marginal_f(market.utility, gamma)
    nodes, weights = np.polynomial.hermite_e.hermegauss(160)
    weights = weights / np.sqrt(2.0 * np.pi)
    xi = np.exp(-0.5 * v - np.sqrt(v) * nodes)
    target = np.exp(gamma * market.x0)

    def budget_gap(log_lam):
        xt = f(np.exp(log_lam) * xi)
        return float(np.sum(weights * np.exp(gamma * xt) * xi)) - target

    lo, hi = -1.0, 1.0
    for _ in range(200):
        if budget_gap(lo) >= 0.0 >= budget_gap(hi):
            return float(np.exp(one_root(budget_gap, lo, hi, 1e-13)))
        lo -= 1.0
        hi += 1.0
    raise RootNotFound("could not bracket the budget multiplier", bracket=(lo, hi))


def ref_h_level_cara(driver, gamma_a, t, m):
    coeffs = driver.affine_grad_coeffs(t)
    if coeffs is not None:
        a, b = coeffs
        return (-b - gamma_a * m) / (gamma_a + a)
    if driver.is_homogeneous and not driver.is_differentiable:
        h_pos = -m - float(driver.eval(t, 1.0)) / gamma_a
        h_neg = -m + float(driver.eval(t, -1.0)) / gamma_a
        out = np.where(h_pos > 0, h_pos, np.zeros_like(m))
        return np.where(h_neg < 0, h_neg, out)
    utility = cara_utility(gamma_a)
    return np.array([solve_h(driver, utility, t, 0.0, 0.0, float(mi)) for mi in m])


def ref_forward_wealth(lattice, driver, h_levels, x0):
    grid = lattice.grid
    dt, sq = grid.dt, grid.sqrt_dt
    x_levels = [np.array([float(x0)])]
    worst = 0.0
    for k in range(lattice.n_steps):
        xk, h = x_levels[k], h_levels[k]
        g = np.asarray(driver.g(grid.t(k), h), dtype=float)
        nxt, gap = lattice.forward_level(xk - g * dt - h * sq, xk - g * dt + h * sq)
        worst = max(worst, gap)
        x_levels.append(nxt)
    return x_levels, worst


def ref_cara(lattice, driver, gamma_a, x0):
    """The hand-written CARA level loop and its forward pass."""
    grid = lattice.grid
    n = lattice.n_steps
    zeta = [None] * n + [np.zeros(lattice.level_size(n))]
    m, h = [None] * n, [None] * n
    for k in range(n - 1, -1, -1):
        t = grid.t(k)
        down, up = lattice.split_children(zeta[k + 1])
        m[k] = (up - down) / (2.0 * grid.sqrt_dt)
        h[k] = ref_h_level_cara(driver, gamma_a, t, m[k])
        f = 0.5 * gamma_a * (h[k] + m[k]) ** 2 + np.asarray(driver.g(t, h[k]), dtype=float)
        zeta[k] = 0.5 * (down + up) - f * grid.dt
        if not np.all(np.isfinite(zeta[k])):
            raise NumericOverflow(f"level {k}", level=k)
    x, worst = ref_forward_wealth(lattice, driver, h, x0)
    return zeta, m, h, x, worst


def ref_picard_pass(lattice, driver, utility, x_iter, kink):
    """One hand-written Picard backward pass at the wealth iterate ``x_iter``."""
    grid = lattice.grid
    n = lattice.n_steps
    off = lattice.offsets
    zeta = [None] * n + [np.zeros(lattice.level_size(n))]
    m, h, theta = [None] * n, [None] * n, [None] * n
    ambiguous = False
    for k in range(n - 1, -1, -1):
        t = grid.t(k)
        down, up = lattice.split_children(zeta[k + 1])
        zeta_bar = 0.5 * (down + up)
        m[k] = (up - down) / (2.0 * grid.sqrt_dt)
        w = x_iter[off[k] : off[k + 1]] + zeta_bar
        if kink is None:
            h[k] = _h_level_general(driver, utility, t, w, m[k])
        else:
            z_minus, z_plus, theta_plus = kink
            zm, zp = z_minus.values(k), z_plus.values(k)
            gm, gp = np.asarray(driver.g(t, zm)), np.asarray(driver.g(t, zp))
            h[k], theta[k], amb = _homogeneous_h_level(utility, w, m[k], zm, zp, gm, gp, theta_plus)
            ambiguous = ambiguous or amb
        psi2 = np.asarray(utility.psi2(w))
        f = 0.5 * psi2 * (h[k] + m[k]) ** 2 - np.asarray(driver.g(t, h[k]), dtype=float)
        zeta[k] = zeta_bar + f * grid.dt
        if not np.all(np.isfinite(zeta[k])):
            raise NumericOverflow(f"level {k}", level=k)
    return zeta, m, h, theta, ambiguous


def ref_solve_h_homogeneous(z_minus, z_plus, g_minus, g_plus, utility, x, zeta, m, theta_plus):
    psi1 = float(utility.psi1(np.asarray(x + zeta)))
    cand_long = (-z_minus * m + psi1 * g_minus) / (z_minus * z_minus)
    if theta_plus:
        return (cand_long, cand_long * z_minus, False) if cand_long > 0 else (0.0, 0.0, False)
    cand_short = -(-z_plus * m + psi1 * g_plus) / (z_plus * z_plus)
    if cand_long > 0:
        return cand_long, cand_long * z_minus, cand_short < 0
    if cand_short < 0:
        return cand_short, abs(cand_short) * z_plus, False
    return 0.0, 0.0, False


# -- one backward sweep --------------------------------------------------------


@SETTINGS
@given(lat=lattices(), driver=drivers, gamma_a=st.floats(0.5, 3.0), x0=st.floats(-1.0, 1.0))
def test_cara_on_the_shared_sweep_matches_the_level_loop(lat, driver, gamma_a, x0):
    sol = solve_fbsde_cara(lat, driver, gamma_a, x0)
    zeta, m, h, x, worst = ref_cara(lat, driver, gamma_a, x0)
    assert _same(sol.zeta, zeta)
    assert _same(sol.m, m)
    assert _same(sol.h, h)
    assert _same(sol.x, x)
    assert _bits(sol.forward_consistency) == _bits(worst)


@SETTINGS
@given(
    lat=lattices(),
    driver=drivers,
    utility=utilities,
    seed=st.integers(0, 2**32 - 1),
    theta_plus=st.booleans(),
)
def test_picard_pass_on_the_shared_sweep_matches_the_level_loop(lat, driver, utility, seed, theta_plus):
    x_iter = np.random.default_rng(seed).uniform(-0.8, 0.8, size=lat.offsets[-1])
    kink = None
    if driver.is_homogeneous:
        s = lat.w_values(lat.n_steps)
        z_minus, z_plus = _unit_integrands(lat, driver, s - 0.3 * s * s)
        kink = (z_minus, z_plus, theta_plus)
    zeta, m, h, theta, ambiguous = _picard_pass(lat, driver, utility, x_iter, kink)
    want = ref_picard_pass(lat, driver, utility, x_iter, kink)
    assert _same(zeta, want[0])
    assert _same(m, want[1])
    assert _same(h, want[2])
    assert theta is None if kink is None else _same(theta, want[3])
    assert ambiguous == want[4]


def test_sweep_overflow_names_its_level():
    lat = build_binomial(1.0, 6)
    huge = custom_driver(lambda t, z: np.full_like(z, 1e308) * 10.0, lambda t, z: 0.0 * z)
    with np.errstate(over="ignore"), pytest.raises(NumericOverflow) as err:
        solve_fbsde_cara(lat, huge, 2.0, 0.0)
    assert err.value.level == 5


# -- one forward wealth pass ---------------------------------------------------


@lru_cache(maxsize=None)
def _surface(n: int, eta: float):
    drv = drifted_quadratic_driver(1.0, eta)
    utility = cara_utility(2.0)
    surf, pol = dp_value(
        TimeGrid(1.0, n), WealthGrid(-3.0, 3.0, 201), drv, utility, ControlSpec("interval", -1, 1)
    )
    return surf, pol, drv, utility


def ref_bridge_forward(surface, policy, lattice, x0, driver):
    """The bridge's hand-written forward loop, with its on-grid check."""
    xgrid = surface.xgrid
    x_lo, x_hi = xgrid.x[xgrid.interior][[0, -1]]
    grid = lattice.grid
    x_levels, h_levels, consistency = [np.array([float(x0)])], [], 0.0

    def check(k):
        xk = x_levels[k]
        if not (np.min(xk) >= x_lo and np.max(xk) <= x_hi):
            raise ExtrapolationRefused(
                f"lattice wealth at level {k} spans {np.min(xk):.6g}..{np.max(xk):.6g}, "
                f"outside the surface interior [{x_lo:.6g}, {x_hi:.6g}]"
            )

    for k in range(lattice.n_steps):
        check(k)
        xk = x_levels[k]
        ups = np.interp(xk, xgrid.x, policy.upsilon[k])
        g = np.asarray(driver.g(grid.t(k), ups), dtype=float)
        drift = xk - g * grid.dt
        nxt, gap = lattice.forward_level(drift - ups * grid.sqrt_dt, drift + ups * grid.sqrt_dt)
        consistency = max(consistency, gap)
        x_levels.append(nxt)
        h_levels.append(ups)
    check(lattice.n_steps)
    return x_levels, h_levels, consistency


@settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    n=st.sampled_from([10, 20]),
    eta=st.sampled_from([0.1, 0.3]),
    x0=st.floats(-2.9, 2.9),
)
def test_bridge_forward_pass_matches_its_loop(n, eta, x0):
    surf, pol, drv, utility = _surface(n, eta)
    lat = build_binomial(1.0, n)
    try:
        want = ref_bridge_forward(surf, pol, lat, x0, drv)
    except ExtrapolationRefused as exc:
        with pytest.raises(ExtrapolationRefused) as err:
            fbsde_from_surface(surf, pol, lat, utility, x0, drv)
        assert str(err.value) == str(exc)
        return
    bridge = fbsde_from_surface(surf, pol, lat, utility, x0, drv)
    assert _same(bridge.x, want[0])
    assert _same(bridge.h, want[1])
    assert _bits(bridge.forward_consistency) == _bits(want[2])


def ref_girsanov_density(lattice, eta_fn):
    """The density's hand-written forward loop of the log accumulation."""
    grid = lattice.grid
    dt, sq = grid.dt, grid.sqrt_dt
    log_levels = [np.zeros(1)]
    for k in range(lattice.n_steps):
        e = eta_fn(grid.t(k))
        prev = log_levels[k]
        drift = prev - 0.5 * e * e * dt
        log_levels.append(lattice.forward_level(drift + e * sq, drift - e * sq)[0])
    return [np.exp(lv) for lv in log_levels]


@SETTINGS
@given(
    lat=lattices(),
    a=st.floats(-2.0, 2.0),
    b=st.one_of(st.just(0.0), st.floats(-1.0, 1.0)),
)
def test_girsanov_density_is_one_wealth_pass(lat, a, b):
    eta = a if b == 0.0 else (lambda t: a + b * t)
    want = ref_girsanov_density(lat, eta if callable(eta) else (lambda t: a))
    assert _same(girsanov_density(lat, eta), want)


def ref_pnl(lattice, driver, s, strategy, x0, y_grid):
    """``pnl_process``'s hand-written loop on the binary expansion."""
    binary = lattice.expand_full_binary()
    curve = PositionCurve(lattice, driver, s, y_grid=y_grid)
    grid = lattice.grid
    gains, z_levels = [np.zeros(1)], []
    for k in range(lattice.n_steps):
        z_bin = lattice.lift_level(curve.z_level(k, strategy.theta.values(k)), k, binary)
        g_bin = np.asarray(driver.g(grid.t(k), z_bin), dtype=float)
        drift = gains[k] - g_bin * grid.dt
        gains.append(binary.forward_level(drift - z_bin * grid.sqrt_dt, drift + z_bin * grid.sqrt_dt)[0])
        z_levels.append(z_bin)
    return gains, [lv + x0 for lv in gains], z_levels


def ref_simple_strategy_pnl(lattice, driver, s, strategy):
    """Two ``solve_bsde`` calls per jump, as ``simple_strategy_pnl`` made them."""
    binary = lattice.expand_full_binary()
    n = lattice.n_steps
    theta_levels = [float(strategy.theta.values(k)[0]) for k in range(n)]
    total_cost = np.zeros(binary.level_size(n))
    for k in strategy.jump_levels:
        theta_old = theta_levels[k - 1] if k > 0 else 0.0
        pi_hold = solve_bsde(lattice, driver, -theta_old * s).pi.values(k)
        pi_after = solve_bsde(lattice, driver, -theta_levels[k] * s).pi.values(k)
        carried = lattice.lift_level(pi_hold - pi_after, k, binary)
        total_cost += np.repeat(carried, 1 << (n - k))
    return theta_levels[-1] * lattice.lift_level(s, n, binary) - total_cost


@st.composite
def simple_strategies(draw):
    # sqrt(dt) <= 1/2 keeps every drawn driver inside the step-size guard
    n = draw(st.integers(4, 9))
    lat = build_binomial(draw(st.floats(0.3, 1.0)), n)
    starts = sorted(draw(st.sets(st.integers(1, n - 1), max_size=n - 1)))
    values = st.one_of(st.sampled_from([0.0, -0.0]), st.floats(-0.9, 0.9))
    segments = [(lv, draw(values)) for lv in [0, *starts]]
    return lat, piecewise_constant_strategy(lat, segments)


pnl_drivers = st.one_of(
    st.floats(0.2, 1.5).map(entropic_driver),
    st.floats(0.05, 0.5).map(homogeneous_driver),
    st.floats(0.0, 0.3).map(_smooth_driver),
    st.floats(-0.5, 0.5).map(linear_driver),
)


@SETTINGS
@given(case=simple_strategies(), driver=pnl_drivers, x0=st.floats(-1.0, 1.0))
def test_pnl_process_forward_pass_matches_its_loop(case, driver, x0):
    lat, strategy = case
    s = lat.w_values(lat.n_steps)
    y_grid = np.linspace(-1.0, 1.0, 41)
    got = pnl_process(lat, driver, s, strategy, x0, y_grid=y_grid)
    gains, x, z_levels = ref_pnl(lat, driver, s, strategy, x0, y_grid)
    assert _same(got.gains, gains)
    assert _same(got.x, x)
    assert _same(got.z_theta, z_levels)


@SETTINGS
@given(case=simple_strategies(), driver=pnl_drivers)
def test_simple_strategy_pnl_sweeps_once_bit_for_bit(case, driver):
    lat, strategy = case
    s = lat.w_values(lat.n_steps)
    got = simple_strategy_pnl(lat, driver, s, strategy)
    assert _bits(got) == _bits(ref_simple_strategy_pnl(lat, driver, s, strategy))


def test_pnl_process_refuses_non_finite_gains():
    # the position integrand 1e308 * 4 overflows; the gains used to come back NaN
    lat = build_binomial(1.0, 4)
    strategy = piecewise_constant_strategy(lat, [(0, 1e308)])
    with np.errstate(over="ignore", invalid="ignore"), pytest.raises(NumericOverflow) as err:
        pnl_process(lat, homogeneous_driver(0.1), 4.0 * lat.w_values(4), strategy, 0.0)
    assert err.value.level == 1


# -- one bracketed root search ---------------------------------------------------


smooth_drivers = st.one_of(
    st.floats(0.0, 0.5).map(_smooth_driver),
    st.floats(0.1, 2.0).map(_logcosh_driver),
)


@SETTINGS
@given(
    driver=smooth_drivers,
    utility=utilities,
    x=st.floats(-1.0, 1.0),
    m=st.floats(-2.0, 2.0),
    t=st.floats(0.0, 1.0),
)
def test_solve_h_root_search_matches_its_bracket_loop(driver, utility, x, m, t):
    assert _outcome(solve_h, driver, utility, t, x, 0.0, m) == _outcome(
        ref_solve_h, driver, utility, t, x, 0.0, m
    )


@SETTINGS
@given(v=st.floats(1e-3, 50.0), gamma=st.floats(0.2, 3.0))
def test_inverse_marginals_match_their_bracket_loops(v, gamma):
    u1 = lambda x: float(EXP_MIX.u1(x))  # noqa: E731
    assert _bits(EXP_MIX.inverse_marginal(v)) == _bits(ref_invert_decreasing(u1, v))
    assert _bits(_invert_decreasing(EXP_MIX.u1, v)) == _bits(ref_invert_decreasing(u1, v))

    def forward(x):
        return float(EXP_MIX.u1(np.asarray(x))) * np.exp(-gamma * x) / gamma

    f = inverse_marginal_f(EXP_MIX, gamma)
    want = ref_invert_decreasing(forward, v, xtol=1e-13)
    assert _bits(f(v)) == _bits(want)
    assert _bits(f(np.array([v, 2.0 * v]))) == _bits(
        [want, ref_invert_decreasing(forward, 2.0 * v, xtol=1e-13)]
    )


@settings(max_examples=6, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    gamma=st.floats(0.3, 2.0),
    eta=st.floats(0.05, 0.5),
    x0=st.floats(-0.5, 0.5),
    n=st.integers(2, 30),
)
def test_budget_lambda_matches_its_bracket_loop(gamma, eta, x0, n):
    lat = build_binomial(1.0, n)
    market = MarketSpec(gamma=gamma, eta=eta, utility=EXP_MIX, x0=x0)
    assert _bits(budget_lambda(lat, market)) == _bits(ref_budget_lambda(lat, market))


def test_unbracketable_inverse_marginal_reports_the_last_bracket():
    # U'(x) = 1 + exp(-x) never falls to 0.5
    def u1(x):
        with np.errstate(over="ignore"):
            return 1.0 + np.exp(-x)

    spec = custom_utility(
        u=lambda x: x - np.exp(-x), u1=u1, u2=lambda x: -np.exp(-x), u3=lambda x: np.exp(-x)
    )
    with pytest.raises(RootNotFound) as err:
        spec.inverse_marginal(0.5)
    assert err.value.bracket == (-(2.0**199), 2.0**199)


def test_concave_driver_is_never_bracketed():
    # g = -z^4 / 4 breaks the driver contract; its first-order condition
    # increases at both bracket ends, so no bracket has fn(lo) >= 0 >= fn(hi)
    concave = custom_driver(lambda t, z: -(z**4) / 4.0, lambda t, z: -(z**3))
    with pytest.raises(RootNotFound) as err:
        solve_h(concave, cara_utility(2.0), 0.0, 0.0, 0.0, 0.3)
    radius = 0.3 + 1.0  # |m| + |psi1 g_z(0)| + 1, doubled for each of the 60 brackets
    assert err.value.bracket == (-radius * 2.0**59, radius * 2.0**59)


# U' = 1 + (x - 3)^2 passes validation on [-2, 2] but has U'' >= 0 from x = 3
BENT = custom_utility(
    u=lambda x: x + (x - 3.0) ** 3 / 3.0,
    u1=lambda x: 1.0 + (x - 3.0) ** 2,
    u2=lambda x: 2.0 * (x - 3.0),
    u3=lambda x: 2.0 + 0.0 * x,
)
# g = -0.3 log cosh z breaks the driver contract: the condition still
# decreases (0.3 is below -U''/U'), but for m != 0 its root breaks the
# linear-growth bound
DRAGGED = custom_driver(lambda t, z: -0.3 * np.log(np.cosh(z)), lambda t, z: -0.3 * np.tanh(z))
# few values, so a level repeats (w, m) bit patterns, -0.0 and 0.0 among them
level_values = st.sampled_from([0.0, -0.0, 0.25, -0.5, 1.0]) | st.floats(-2.0, 2.0)


def ref_h_level_general(driver, utility, t, w, m):
    """The per-node loop: the U'' check, then the scalar bracket search."""
    out = []
    for wi, mi in zip(w, m):
        if float(utility.u2(np.asarray(wi + 0.0))) >= 0:
            raise InvalidArgument("U'' must be negative at x + zeta")
        out.append(ref_solve_h(driver, utility, t, float(wi), 0.0, float(mi)))
    return np.array(out)


@SETTINGS
@given(
    driver=smooth_drivers | st.just(DRAGGED),
    utility=utilities | st.just(BENT),
    t=st.floats(0.0, 1.0),
    nodes=st.lists(st.tuples(level_values | st.just(3.5), level_values), min_size=1, max_size=12),
)
def test_level_search_per_bit_pattern_matches_the_node_loop(driver, utility, t, nodes):
    w, m = np.array(nodes).T.copy()
    assert _outcome(_h_level_general, driver, utility, t, w, m) == _outcome(
        ref_h_level_general, driver, utility, t, w, m
    )


def test_cara_searches_one_root_per_level(monkeypatch):
    from impact_hedger import optimizer

    calls = []
    search = optimizer._decreasing_root

    def counted(*args):
        calls.append(args)
        return search(*args)

    monkeypatch.setattr(optimizer, "_decreasing_root", counted)
    driver = custom_driver(
        lambda t, z: z * z / 2.0 + 0.1 * (np.sqrt(1.0 + z * z) - 1.0) - 0.3 * z,
        lambda t, z: z + 0.1 * z / np.sqrt(1.0 + z * z) - 0.3,
    )
    solve_fbsde_cara(build_binomial(1.0, 200), driver, 2.0, 0.0)
    assert len(calls) == 200


# -- the array root finder ------------------------------------------------------


def _cubic(r, a, s, c):
    """a (r - x)^3 + s (r - x) + c tanh(r - x): decreasing, with its computed
    sign change exactly at x = r, since every term has the sign of r - x.
    With s = 0 it is flat at the root, where regula falsi is slow."""
    return lambda x: a * (r - x) ** 3 + s * (r - x) + c * np.tanh(r - x)


cubics = st.tuples(
    st.sampled_from([1.0, -2.0, 0.0]) | st.floats(-50.0, 50.0),
    st.floats(1e-3, 2.0),
    st.sampled_from([0.0]) | st.floats(1e-3, 3.0),
    st.sampled_from([0.0]) | st.floats(0.0, 2.0),
    st.sampled_from([1.0, 2.0]) | st.floats(1e-3, 10.0),
)


@SETTINGS
@given(cases=st.lists(cubics, min_size=1, max_size=8), xtol=st.sampled_from([1e-14, 1e-13, 1e-10, 1e-6]))
def test_array_roots_equal_their_one_element_searches_and_brentq(cases, xtol):
    from scipy.optimize import brentq

    r, a, s, c, half = (np.array(col) for col in zip(*cases))
    roots = _decreasing_root(_cubic(r, a, s, c), -half, half, xtol, _double, 60)
    for i, case in enumerate(cases):
        fn = _cubic(*case[:4])
        one = _decreasing_root(fn, -half[i : i + 1], half[i : i + 1], xtol, _double, 60)
        assert _bits(one) == _bits(roots[i])
        lo, hi = -half[i], half[i]
        while not fn(lo) >= 0.0 >= fn(hi):
            lo, hi = 2.0 * lo, 2.0 * hi
        want = brentq(fn, lo, hi, xtol=xtol, maxiter=1000)
        assert abs(roots[i] - want) <= 4.0 * (xtol + 4.0 * np.finfo(float).eps * abs(roots[i]))


def test_an_unbracketed_element_reports_the_first_in_c_order():
    # elements (0, 2) and (1, 0) are positive everywhere, so never bracketed
    shift = np.zeros((2, 3))
    shift[0, 2] = shift[1, 0] = np.inf
    half = np.arange(1.0, 7.0).reshape(2, 3)
    with pytest.raises(RootNotFound) as err:
        _decreasing_root(lambda x: shift - x, -half, half, 1e-14, _double, 5)
    assert err.value.bracket == (-3.0 * 2.0**4, 3.0 * 2.0**4)  # element (0, 2)


def test_hermite_nodes_agree_with_scipy():
    from scipy.special import roots_hermitenorm

    nodes, weights = np.polynomial.hermite_e.hermegauss(160)
    want_nodes, want_weights = roots_hermitenorm(160)
    assert np.max(np.abs(nodes - want_nodes)) <= 1.5e-14
    assert np.max(np.abs(weights - want_weights) / want_weights) <= 1.1e-13


@pytest.mark.parametrize("v", [0.0, -1.0, np.nan, np.inf])
def test_inverse_marginals_refuse_values_outside_the_range_of_u1(v, recwarn):
    # U' of EXP_MIX underflows to 0.0 at x = 1024; 0.0 is still not in its
    # range.  The CARA closed forms refuse the same values, without warnings.
    for utility in (EXP_MIX, cara_utility(2.0)):
        with pytest.raises(DomainError):
            utility.inverse_marginal(v)
        with pytest.raises(DomainError):
            inverse_marginal_f(utility, 1.0)(np.array([1.0, v]))
    assert not recwarn.list


def _no_search(monkeypatch, *modules):
    def refuse(*args):
        raise AssertionError("the root search ran")

    for module in modules:
        monkeypatch.setattr(module, "_decreasing_root", refuse)


@pytest.mark.parametrize("x, m", [(np.nan, 0.1), (0.0, np.nan), (0.0, np.inf), (-800.0, 0.1)])
def test_a_non_finite_node_is_refused_before_any_bracket(monkeypatch, x, m):
    from impact_hedger import optimizer

    _no_search(monkeypatch, optimizer)
    with np.errstate(over="ignore", invalid="ignore"), pytest.raises(NumericOverflow, match="non-finite"):
        solve_h(_smooth_driver(0.1), EXP_MIX, 0.0, x, 0.0, m)


def test_a_level_with_one_non_finite_node_raises_its_overflow():
    w = np.array([0.1, 0.2, np.nan, 0.3])
    with pytest.raises(NumericOverflow, match="x \\+ zeta = nan"):
        _h_level_general(_smooth_driver(0.1), EXP_MIX, 0.0, w, np.zeros(4))
    # an earlier node's failed check comes first
    w[0] = 3.5
    with pytest.raises(InvalidArgument):
        _h_level_general(_smooth_driver(0.1), BENT, 0.0, w, np.zeros(4))


@pytest.mark.parametrize("x0", [1e3, -1e3])
def test_budget_target_out_of_float_range_is_refused_before_the_search(monkeypatch, x0):
    from impact_hedger import closedform, optimizer

    _no_search(monkeypatch, closedform, optimizer)
    market = MarketSpec(gamma=1.0, eta=0.3, utility=EXP_MIX, x0=x0)
    with pytest.raises(NumericOverflow, match="x0 = .*gamma = 1.0"):
        budget_lambda(build_binomial(1.0, 20), market)


# -- one kinked first-order condition --------------------------------------------


# unit integrands whose square stays a normal number (z^2 of 1e-172 is 0.0)
unit_integrands = st.tuples(st.sampled_from([-1.0, 1.0]), st.floats(1e-3, 3.0)).map(
    lambda p: p[0] * p[1]
)


@settings(max_examples=300, deadline=None)
@given(
    z_minus=unit_integrands,
    z_plus=unit_integrands,
    g_minus=st.floats(-1.0, 1.0),
    g_plus=st.floats(-1.0, 1.0),
    utility=utilities,
    x=st.floats(-1.0, 1.0),
    m=st.floats(-2.0, 2.0),
    theta_plus=st.booleans(),
)
def test_scalar_kinked_condition_matches_the_old_branches(
    z_minus, z_plus, g_minus, g_plus, utility, x, m, theta_plus
):
    got = solve_h_homogeneous(z_minus, z_plus, g_minus, g_plus, utility, x, 0.1, m, theta_plus)
    theta, h, ambiguous = ref_solve_h_homogeneous(
        z_minus, z_plus, g_minus, g_plus, utility, x, 0.1, m, theta_plus
    )
    assert _bits([got.theta, got.h]) == _bits([theta, h])
    assert got.ambiguous == ambiguous


def test_zero_unit_long_integrand_has_no_short_branch():
    cara = cara_utility(2.0)
    idle = solve_h_homogeneous(1.0, 0.0, 0.1, 0.1, cara, 0.0, 0.0, 0.2)
    assert (idle.theta, idle.h, idle.ambiguous) == (0.0, 0.0, False)
    long = solve_h_homogeneous(1.0, 0.0, 0.1, 0.1, cara, 0.0, 0.0, -0.2)
    assert long.theta == long.h == pytest.approx(0.15, abs=1e-15)
    assert not long.ambiguous
    with pytest.raises(InvalidArgument):
        solve_h_homogeneous(0.0, 1.0, 0.1, 0.1, cara, 0.0, 0.0, 0.2)
