import math
import re

import numpy as np
import pytest

from impact_hedger import (
    PositionCurve,
    StateSde,
    build_binomial,
    drifted_quadratic_driver,
    dz_dy,
    dz_dy_variational,
    entropic_driver,
    entropic_exact,
    homogeneous_driver,
    linear_driver,
    quadratic_driver,
    simulate_state,
    solve_bsde,
    z_homogeneous,
    z_of_position,
    zero_driver,
)
from impact_hedger.errors import (
    ContractViolation,
    ExtrapolationRefused,
    InvalidArgument,
    NumericOverflow,
    StepSizeViolation,
)

BUILTINS = [
    zero_driver(),
    linear_driver(0.2),
    quadratic_driver(0.5),
    entropic_driver(1.0),
    drifted_quadratic_driver(1.0, 0.3),
    homogeneous_driver(0.1),
]


def brownian_terminal(lat):
    return lat.w_values(lat.n_steps)


def test_zero_driver_brownian_payoff():
    lat = build_binomial(1.0, 1)
    sol = solve_bsde(lat, zero_driver(), brownian_terminal(lat))
    assert sol.pi.root == 0.0
    assert sol.z.root == -1.0


def test_entropic_brownian_payoff_closed_form():
    # -(1/gamma) log E[exp(-gamma W_T)] = -gamma T / 2 by the Gaussian mgf
    lat = build_binomial(1.0, 200)
    sol = solve_bsde(lat, entropic_driver(1.0), brownian_terminal(lat))
    assert sol.pi.root == pytest.approx(-0.5, abs=0.01)


def test_linear_driver_is_exact_tilted_expectation():
    # the scheme equals the tilted expectation with branch weights
    # (1 +/- nu sqrt(dt)) / 2; the mean of W under the tilt is +nu T
    nu, T = 0.2, 1.0
    for n in (1, 7, 64, 200):
        lat = build_binomial(T, n)
        sol = solve_bsde(lat, linear_driver(nu), brownian_terminal(lat))
        assert sol.pi.root == pytest.approx(nu * T, abs=1e-10)
        # independent route: explicit tilted backward fold
        v = brownian_terminal(lat)
        w_up = 0.5 * (1.0 + nu * lat.grid.sqrt_dt)
        w_dn = 0.5 * (1.0 - nu * lat.grid.sqrt_dt)
        for _ in range(n):
            v = w_up * v[1:] + w_dn * v[:-1]
        assert sol.pi.root == pytest.approx(float(v[0]), abs=1e-12)


def test_solve_bsde_overflow_reports_level():
    lat = build_binomial(1.0, 4)
    huge = 1e200 * brownian_terminal(lat)
    with np.errstate(over="ignore"), pytest.raises((NumericOverflow, StepSizeViolation)):
        solve_bsde(lat, entropic_driver(1.0), huge)


def test_step_size_guard_trips():
    lat = build_binomial(1.0, 4)
    with pytest.raises(StepSizeViolation):
        solve_bsde(lat, entropic_driver(1.0), 100.0 * brownian_terminal(lat))


def test_step_size_message_prints_the_exact_slope():
    # 10.0004 * sqrt(1/100) = 1.00004, which a 3-digit format printed as "1"
    lat = build_binomial(1.0, 100)
    with pytest.raises(StepSizeViolation) as err:
        solve_bsde(lat, linear_driver(10.0004), brownian_terminal(lat))
    printed = re.search(r"= (\S+) >= 1 at level (\d+)", str(err.value))
    assert printed is not None
    assert printed.group(1) != "1"
    assert float(printed.group(1)) >= 1.0
    assert int(printed.group(2)) == err.value.level == lat.n_steps - 1


def test_entropic_exact_one_step():
    lat = build_binomial(1.0, 1)
    val = entropic_exact(lat, 1.0, brownian_terminal(lat))
    assert val.root == pytest.approx(-math.log(math.cosh(1.0)), abs=1e-14)


def test_entropic_exact_refuses_an_overflow_without_a_warning():
    # -gamma Pi overflows in the multiply; the suite turns a leaked warning into an error
    lat = build_binomial(1.0, 4)
    with pytest.raises(NumericOverflow, match="at level 3") as exc:
        entropic_exact(lat, 1e300, 1e10 * brownian_terminal(lat))
    assert exc.value.level == 3


def test_entropic_exact_cash_invariance_constant():
    lat = build_binomial(1.0, 30)
    c = 2.75
    val = entropic_exact(lat, 1.3, np.full(31, c))
    for k in range(31):
        np.testing.assert_allclose(val.values(k), c, atol=1e-12)


def test_entropic_small_gamma_recovers_expectation():
    lat = build_binomial(1.0, 100)
    val = entropic_exact(lat, 1e-6, brownian_terminal(lat))
    assert abs(val.root) < 1e-5


@pytest.mark.parametrize("drv", BUILTINS, ids=lambda d: d.kind)
def test_cash_invariance(drv):
    lat = build_binomial(1.0, 40)
    rng = np.random.default_rng(11)
    for _ in range(5):
        x = rng.normal(scale=0.5, size=41)
        c = float(rng.normal())
        base = solve_bsde(lat, drv, x)
        shifted = solve_bsde(lat, drv, x + c)
        assert shifted.pi.sup_diff(base.pi.map(lambda lv: lv + c)) <= 1e-12
        assert shifted.z.sup_diff(base.z) <= 1e-12


@pytest.mark.parametrize("drv", BUILTINS, ids=lambda d: d.kind)
def test_monotonicity_in_terminal(drv):
    lat = build_binomial(1.0, 40)
    rng = np.random.default_rng(5)
    x = rng.normal(scale=0.5, size=41)
    y = x + np.abs(rng.normal(scale=0.3, size=41))
    sx = solve_bsde(lat, drv, x)
    sy = solve_bsde(lat, drv, y)
    for k in range(41):
        assert np.all(sx.pi.values(k) <= sy.pi.values(k) + 1e-12)


@pytest.mark.parametrize("drv", BUILTINS, ids=lambda d: d.kind)
def test_concavity_of_evaluation(drv):
    lat = build_binomial(1.0, 30)
    rng = np.random.default_rng(17)
    # smooth payoffs in W keep the integrand inside the monotone-step guard
    w = lat.w_values(30)
    a1, b1, a2, b2 = rng.uniform(-0.7, 0.7, 4)
    x = a1 * np.sin(w) + b1 * w
    y = a2 * np.cos(w) + b2 * w
    for lam in (0.25, 0.5, 0.9):
        mix = solve_bsde(lat, drv, lam * x + (1 - lam) * y)
        bound = lam * solve_bsde(lat, drv, x).pi.values(0) + (1 - lam) * solve_bsde(
            lat, drv, y
        ).pi.values(0)
        assert mix.pi.root >= float(bound[0]) - 1e-10


def test_entropic_scheme_agreement_and_order():
    gamma = 1.0
    errs = {}
    for n in (25, 50, 100, 200):
        lat = build_binomial(1.0, n)
        term = brownian_terminal(lat)
        approx = solve_bsde(lat, entropic_driver(gamma), term).pi
        exact = entropic_exact(lat, gamma, term)
        err = approx.sup_diff(exact)
        errs[n] = err
        assert err <= 1.0 * lat.grid.dt  # C * dt with C = 1
    order = math.log(errs[25] / errs[200]) / math.log(200 / 25)
    assert order >= 0.9


def test_z_of_position_zero_position():
    lat = build_binomial(1.0, 10)
    sol = z_of_position(lat, entropic_driver(1.0), brownian_terminal(lat), 0.0)
    assert sol.pi.sup_abs() == 0.0
    assert sol.z.sup_abs() == 0.0


def test_z_of_position_homogeneous_unit():
    lat = build_binomial(1.0, 1)
    sol = z_of_position(lat, homogeneous_driver(0.1), brownian_terminal(lat), 1.0)
    assert sol.z.root == pytest.approx(1.0)
    assert sol.pi.root == pytest.approx(-0.1)


def test_z_of_position_entropic_gaussian_mgf():
    # terminal -2 W_T: value -(1/gamma) log E[exp(2 W_T)] = -2
    lat = build_binomial(1.0, 200)
    sol = z_of_position(lat, entropic_driver(1.0), brownian_terminal(lat), 2.0)
    assert sol.pi.root == pytest.approx(-2.0, abs=0.05)


def test_z_homogeneous_scaling():
    lat = build_binomial(1.0, 20)
    drv = homogeneous_driver(0.1)
    s = brownian_terminal(lat)
    z_minus = solve_bsde(lat, drv, -s).z
    z_plus = solve_bsde(lat, drv, s).z

    assert z_homogeneous(drv, 0.0, z_minus, z_plus).sup_abs() == 0.0
    three = z_homogeneous(drv, 3.0, z_minus, z_plus)
    assert three.sup_diff(z_minus * 3.0) == 0.0
    minus3 = z_homogeneous(drv, -3.0, z_plus=z_plus, z_minus=z_minus)
    assert minus3.sup_diff(z_plus * 3.0) == 0.0

    with pytest.raises(ContractViolation):
        z_homogeneous(entropic_driver(1.0), 1.0, z_minus, z_plus)


@pytest.mark.parametrize("kappa", [0.05, 0.1])
@pytest.mark.parametrize("y", [-2.0, -0.5, 0.5, 2.0])
def test_homogeneous_scaling_matches_direct_solve(kappa, y):
    lat = build_binomial(1.0, 64)
    drv = homogeneous_driver(kappa)
    s = brownian_terminal(lat)
    direct = z_of_position(lat, drv, s, y).z
    z_minus = solve_bsde(lat, drv, -s).z
    z_plus = solve_bsde(lat, drv, s).z
    scaled = z_homogeneous(drv, y, z_minus, z_plus)
    assert direct.sup_diff(scaled) <= 1e-12


def test_dz_dy_linear_driver_constant_one():
    lat = build_binomial(1.0, 30)
    drv = linear_driver(0.2)
    for y in (-1.0, 0.0, 2.0):
        res = dz_dy(lat, drv, brownian_terminal(lat), y, eps=1e-4)
        assert not res.kink
        assert res.dz.sup_diff(res.dz.map(np.ones_like)) <= 1e-9
        assert res.dz.root == pytest.approx(1.0, abs=1e-9)


def test_dz_dy_homogeneous_away_from_zero():
    lat = build_binomial(1.0, 30)
    drv = homogeneous_driver(0.1)
    s = brownian_terminal(lat)
    res = dz_dy(lat, drv, s, 2.0, eps=0.25)
    z_minus = solve_bsde(lat, drv, -s).z
    assert res.dz.sup_diff(z_minus) <= 1e-12
    assert not res.kink


def test_dz_dy_kink_flag_at_zero():
    lat = build_binomial(1.0, 20)
    drv = homogeneous_driver(0.1)
    res = dz_dy(lat, drv, brownian_terminal(lat), 0.0, eps=0.1)
    assert res.kink
    # returned value is the forward difference
    assert res.dz.sup_diff(res.forward) == 0.0
    # an asymmetric payoff also shows the kink numerically
    res2 = dz_dy(lat, drv, np.exp(lat.w_values(20)), 0.0, eps=0.05)
    assert res2.kink
    assert res2.forward.sup_diff(res2.backward) > 1.0


def markov_setup(n):
    lat = build_binomial(1.0, n)
    sde = StateSde(drift=0.0, sigma=1.0, r0=0.0)
    return lat, sde, simulate_state(lat, sde)


def test_variational_matches_direct_linear_payoff():
    lat, sde, r = markov_setup(40)
    drv = entropic_driver(0.25)
    direct = dz_dy(lat, drv, r.terminal, 0.7, eps=1e-4)
    var = dz_dy_variational(lat, drv, sde, lambda x: x, None, 0.7)
    assert direct.dz.sup_diff(var) <= 1e-6
    # linear payoff: position-independent derivative
    var0 = dz_dy_variational(lat, drv, sde, lambda x: x, None, 0.0)
    assert var.sup_diff(var0) <= 1e-9
    assert direct.dz.root == pytest.approx(1.0, abs=1e-6)


def test_variational_matches_direct_quadratic_book():
    lat, sde, r = markov_setup(50)
    drv = linear_driver(0.2)
    s_fn = lambda x: x  # noqa: E731
    h_fn = lambda x: x * x  # noqa: E731
    direct = dz_dy(lat, drv, s_fn(r.terminal), 0.5, eps=1e-4, h_m=h_fn(r.terminal))
    var = dz_dy_variational(lat, drv, sde, s_fn, h_fn, 0.5)
    assert direct.dz.sup_diff(var) <= 1e-3


def test_variational_entropic_gap_shrinks_with_dt():
    # the two routes differ by a first-order time-discretization term for
    # curved drivers; halving dt halves the gap
    gaps = {}
    for n in (50, 100):
        lat, sde, r = markov_setup(n)
        drv = entropic_driver(0.1)
        direct = dz_dy(lat, drv, r.terminal, 0.5, eps=1e-4, h_m=r.terminal**2)
        var = dz_dy_variational(lat, drv, sde, lambda x: x, lambda x: x * x, 0.5)
        gaps[n] = direct.dz.sup_diff(var)
    assert gaps[100] <= 0.6 * gaps[50]


@pytest.mark.parametrize("eps", [0.0, -1e-4, math.nan])
@pytest.mark.parametrize("route", ["direct", "variational"])
def test_position_derivative_refuses_a_nonpositive_eps(route, eps):
    lat, sde, r = markov_setup(10)
    drv = entropic_driver(1.0)
    with pytest.raises(InvalidArgument, match="eps must be positive"):
        if route == "direct":
            dz_dy(lat, drv, r.terminal, 0.5, eps)
        else:
            dz_dy_variational(lat, drv, sde, lambda x: x, None, 0.5, eps=eps)


def test_variational_requires_differentiable_driver():
    lat, sde, _ = markov_setup(10)
    with pytest.raises(ContractViolation):
        dz_dy_variational(lat, homogeneous_driver(0.1), sde, lambda x: x, None, 1.0)


def test_position_curve_interpolation_and_refusal():
    lat = build_binomial(1.0, 20)
    drv = entropic_driver(1.0)
    s = brownian_terminal(lat)
    curve = PositionCurve(lat, drv, s, y_grid=np.linspace(-1.0, 1.0, 21))
    # integrand for terminal -y W is exactly y at every node
    z = curve.z_level(5, np.full(6, 0.35))
    np.testing.assert_allclose(z, 0.35, atol=1e-12)
    with pytest.raises(ExtrapolationRefused):
        curve.z_level(0, np.array([1.5]))


def test_position_curve_homogeneous_shortcut():
    lat = build_binomial(1.0, 15)
    drv = homogeneous_driver(0.2)
    s = brownian_terminal(lat)
    curve = PositionCurve(lat, drv, s)
    assert curve.hull == (-np.inf, np.inf)
    z = curve.z_process(2.5)
    z_minus = solve_bsde(lat, drv, -s).z
    assert z.sup_diff(z_minus * 2.5) == 0.0
