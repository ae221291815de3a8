import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from impact_hedger import (
    MarketSpec,
    budget_lambda,
    build_binomial,
    cara_utility,
    custom_utility,
    drifted_quadratic_driver,
    exponential_triple,
    girsanov_density,
    homogeneous_driver,
    inverse_marginal_f,
    no_trade_solution,
    optimal_terminal_wealth,
    quadratic_driver,
    solve_fbsde_cara,
    solve_fbsde_picard,
    wealth_by_conditional_route,
)
from impact_hedger.errors import ContractViolation, DomainError, NumericOverflow


def desk_market(n=200, eta=0.3, gamma=1.0, gamma_a=2.0, x0=0.0):
    lat = build_binomial(1.0, n)
    mkt = MarketSpec(gamma=gamma, eta=eta, utility=cara_utility(gamma_a), x0=x0)
    return lat, mkt


def test_girsanov_flat_for_zero_drift():
    lat = build_binomial(1.0, 20)
    xi = girsanov_density(lat, 0.0)
    for k in range(21):
        np.testing.assert_array_equal(xi.values(k), np.ones(k + 1))


def test_girsanov_one_step_values():
    lat = build_binomial(1.0, 1)
    xi = girsanov_density(lat, 0.3)
    expected = sorted([np.exp(-0.045 - 0.3), np.exp(-0.045 + 0.3)])
    np.testing.assert_allclose(sorted(xi.terminal), expected, atol=1e-14)


def test_girsanov_mean_and_shift():
    lat, _ = desk_market()
    xi = girsanov_density(lat, 0.3)
    assert lat.root_expectation(xi.terminal) == pytest.approx(1.0, abs=1e-3)
    shift = lat.root_expectation(xi.terminal * lat.w_values(200))
    assert shift == pytest.approx(-0.3, abs=0.02)


def test_inverse_marginal_cara_values():
    f = inverse_marginal_f(cara_utility(2.0), 1.0)
    assert f(2.0) == pytest.approx(0.0, abs=1e-14)
    assert f(2.0 * np.e**3) == pytest.approx(-1.0, abs=1e-12)
    with pytest.raises(DomainError):
        f(-1.0)


def test_inverse_marginal_inverts_forward_map():
    gamma = 1.0
    u = cara_utility(2.0)
    f = inverse_marginal_f(u, gamma)
    x = np.linspace(-2, 2, 17)
    v = u.u1(x) * np.exp(-gamma * x) / gamma
    np.testing.assert_allclose(f(v), x, atol=1e-9)


def test_inverse_marginal_generic_bisection():
    u = custom_utility(
        u=lambda x: -np.exp(-2 * x),
        u1=lambda x: 2 * np.exp(-2 * x),
        u2=lambda x: -4 * np.exp(-2 * x),
        u3=lambda x: 8 * np.exp(-2 * x),
    )
    f_gen = inverse_marginal_f(u, 1.0)
    f_cara = inverse_marginal_f(cara_utility(2.0), 1.0)
    v = np.array([0.5, 1.0, 2.0, 5.0])
    np.testing.assert_allclose(f_gen(v), f_cara(v), atol=1e-9)


def test_budget_lambda_closed_form():
    lat, mkt = desk_market()
    lam = budget_lambda(lat, mkt)
    assert lam == pytest.approx(2.0 * np.exp(-0.03), abs=1e-12)


def test_budget_lambda_zero_drift():
    lat, mkt = desk_market(eta=0.0)
    assert budget_lambda(lat, mkt) == pytest.approx(2.0, abs=1e-12)


def test_budget_lambda_generic_agrees_with_cara():
    lat, mkt = desk_market()
    g = 2.0
    generic = MarketSpec(
        gamma=1.0,
        eta=0.3,
        utility=custom_utility(
            u=lambda x: -np.exp(-g * x),
            u1=lambda x: g * np.exp(-g * x),
            u2=lambda x: -g * g * np.exp(-g * x),
            u3=lambda x: g**3 * np.exp(-g * x),
            inverse_marginal=lambda v: -np.log(np.asarray(v) / g) / g,
        ),
        x0=0.0,
    )
    assert budget_lambda(lat, generic) == pytest.approx(
        budget_lambda(lat, mkt), abs=1e-6
    )


def test_budget_feasibility_on_lattice():
    lat, mkt = desk_market()
    lam = budget_lambda(lat, mkt)
    xi = girsanov_density(lat, 0.3)
    f = inverse_marginal_f(mkt.utility, mkt.gamma)
    x_T = optimal_terminal_wealth(lam, xi, f)
    feas = lat.root_expectation(np.exp(mkt.gamma * x_T) * xi.terminal)
    assert feas == pytest.approx(np.exp(mkt.gamma * mkt.x0), abs=1e-4)


def test_exponential_triple_values():
    lat, mkt = desk_market()
    tri = exponential_triple(lat, mkt)
    assert tri.zeta.root == pytest.approx(0.015, abs=1e-14)
    assert tri.m.sup_abs() == 0.0
    for k in range(200):
        np.testing.assert_allclose(tri.h.values(k), 0.1, atol=1e-14)


def test_exponential_triple_zero_drift_no_trade():
    lat, mkt = desk_market(eta=0.0)
    tri = exponential_triple(lat, mkt)
    assert tri.h.sup_abs() == 0.0
    assert tri.zeta.sup_abs() == 0.0


def _eta_squared_integral_by_generator(market, lattice, from_level):
    # the per-level generator sum that exponential_triple used to run
    grid = lattice.grid
    fn = market.eta_fn()
    return sum(fn(grid.t(i)) ** 2 * grid.dt for i in range(from_level, lattice.n_steps))


etas = st.one_of(
    st.floats(-3.0, 3.0),
    st.tuples(st.floats(-2.0, 2.0), st.floats(-2.0, 2.0)).map(
        lambda ab: (lambda t, a=ab[0], b=ab[1]: a + b * math.sin(3.0 * t))
    ),
)


@settings(max_examples=60, deadline=None)
@given(n=st.integers(1, 60), horizon=st.floats(0.1, 3.0), eta=etas)
def test_eta_squared_integrals_match_the_generator_bit_for_bit(n, horizon, eta):
    lat = build_binomial(horizon, n)
    mkt = MarketSpec(gamma=1.5, eta=eta, utility=cara_utility(2.0), x0=0.0)
    old = [_eta_squared_integral_by_generator(mkt, lat, k) for k in range(n + 1)]
    assert [mkt.eta_squared_integral(lat, from_level=k) for k in range(n + 1)] == old
    zeta = exponential_triple(lat, mkt).zeta
    assert [zeta.values(k)[0] for k in range(n + 1)] == [v / (2.0 * 3.5) for v in old]


@pytest.mark.parametrize("eta, x0", [(1e3, 0.0), (1e10, 0.0), (0.3, -1e3)])
def test_budget_lambda_out_of_float_range_is_numeric(eta, x0):
    # exp underflows to 0 (large eta) or overflows to inf (very negative x0)
    lat, mkt = desk_market(n=2, eta=eta, x0=x0)
    with pytest.raises(NumericOverflow, match="lambda"):
        budget_lambda(lat, mkt)


def test_exponential_triple_requires_cara():
    lat, _ = desk_market(n=10)
    bad = MarketSpec(
        gamma=1.0,
        eta=0.3,
        utility=custom_utility(
            u=lambda x: -np.exp(-x) - 0.1 * np.exp(-2 * x),
            u1=lambda x: np.exp(-x) + 0.2 * np.exp(-2 * x),
            u2=lambda x: -np.exp(-x) - 0.4 * np.exp(-2 * x),
            u3=lambda x: np.exp(-x) + 0.8 * np.exp(-2 * x),
        ),
        x0=0.0,
    )
    with pytest.raises(ContractViolation):
        exponential_triple(lat, bad)


def test_exponential_triple_passes_checker():
    lat, mkt = desk_market()
    tri = exponential_triple(lat, mkt)
    rep = tri.residuals
    assert rep.martingale_residual <= 1e-6
    assert rep.foc_residual <= 1e-12


def test_terminal_wealth_two_routes_agree():
    lat, mkt = desk_market()
    lam = budget_lambda(lat, mkt)
    xi = girsanov_density(lat, 0.3)
    f = inverse_marginal_f(mkt.utility, mkt.gamma)
    x_T = optimal_terminal_wealth(lam, xi, f)
    tri = exponential_triple(lat, mkt)
    np.testing.assert_allclose(x_T, tri.x.terminal, atol=1e-6)


def test_terminal_wealth_flat_density():
    f = inverse_marginal_f(cara_utility(2.0), 1.0)
    target = 5.0
    # pick lambda so that f(lambda) = 5 with xi = 1
    lam = 2.0 * np.exp(-3.0 * target)
    out = optimal_terminal_wealth(lam, np.ones(7), f)
    np.testing.assert_allclose(out, target, atol=1e-12)


def test_terminal_wealth_monotone_in_lambda():
    f = inverse_marginal_f(cara_utility(2.0), 1.0)
    xi = np.array([0.5, 1.0, 2.0])
    lo = optimal_terminal_wealth(0.5, xi, f)
    hi = optimal_terminal_wealth(2.0, xi, f)
    assert np.all(hi < lo)


def test_conditional_route_matches_forward_route():
    # per-step tilted-expectation error is second order; n = 1000 keeps the
    # accumulated gap inside 1e-6
    lat, mkt = desk_market(n=1000)
    tri = exponential_triple(lat, mkt)
    cond = wealth_by_conditional_route(lat, mkt, tri.x.terminal)
    assert cond.sup_diff(tri.x) <= 1e-6


def test_consistency_triangle():
    lat, mkt = desk_market()
    drv = mkt.driver()
    tri = exponential_triple(lat, mkt)
    cara = solve_fbsde_cara(lat, drv, 2.0, 0.0)
    pic = solve_fbsde_picard(lat, drv, mkt.utility, 0.0, tol=1e-6, damping=0.5)
    for a, b in ((tri, cara), (tri, pic), (cara, pic)):
        assert a.x.sup_diff(b.x) <= 1e-3
        assert a.zeta.sup_diff(b.zeta) <= 1e-3
        assert a.h.sup_diff(b.h) <= 1e-3
        assert a.m.sup_diff(b.m) <= 1e-3


def test_no_trade_pure_quadratic():
    lat = build_binomial(1.0, 12)
    sol = no_trade_solution(lat, quadratic_driver(0.5), 0.4)
    assert sol is not None
    assert sol.x.root == 0.4
    assert sol.zeta.sup_abs() == 0.0
    assert sol.m.sup_abs() == 0.0
    assert sol.theta.sup_abs() == 0.0


def test_no_trade_homogeneous_band():
    lat = build_binomial(1.0, 12)
    sol = no_trade_solution(lat, homogeneous_driver(0.1), 0.0)
    assert sol is not None


def test_no_trade_inapplicable_for_drifted_driver():
    lat = build_binomial(1.0, 12)
    assert no_trade_solution(lat, drifted_quadratic_driver(1.0, 0.3), 0.0) is None
