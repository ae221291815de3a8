import numpy as np
import pytest

from impact_hedger import (
    NodeProcess,
    PositionCurve,
    build_binomial,
    cara_utility,
    custom_utility,
    drifted_quadratic_driver,
    entropic_driver,
    expected_terminal_utility,
    homogeneous_driver,
    linear_driver,
    quadratic_driver,
    recover_theta,
    solve_bsde,
    solve_fbsde_cara,
    solve_fbsde_picard,
    solve_h,
    solve_h_homogeneous,
    verify_optimality,
    zero_driver,
)
from impact_hedger import optimizer
from impact_hedger.errors import ContractViolation, ImageViolation, InvalidArgument
from impact_hedger.lattice import _forward_wealth


CARA2 = cara_utility(2.0)


def test_cara_utility_shape():
    u = cara_utility(1.5)
    x = np.linspace(-2, 2, 9)
    np.testing.assert_allclose(u.psi1(x), -1.0 / 1.5, atol=1e-12)
    np.testing.assert_allclose(u.psi2(x), -1.5, atol=1e-12)
    np.testing.assert_allclose(u.inverse_marginal(u.u1(x)), x, atol=1e-12)


def test_custom_utility_bisected_inverse():
    # quadratic-exponential mix, inverse marginal left to the solver
    u = custom_utility(
        u=lambda x: -np.exp(-x) - 0.1 * np.exp(-2 * x),
        u1=lambda x: np.exp(-x) + 0.2 * np.exp(-2 * x),
        u2=lambda x: -np.exp(-x) - 0.4 * np.exp(-2 * x),
        u3=lambda x: np.exp(-x) + 0.8 * np.exp(-2 * x),
    )
    x = np.linspace(-1.5, 1.5, 7)
    np.testing.assert_allclose(u.inverse_marginal(u.u1(x)), x, atol=1e-9)


def test_solve_h_linear_driver():
    # paper closed form: H = -a/gamma_a - m, independent of (x, zeta)
    h = solve_h(linear_driver(0.2), CARA2, 0.0, 3.0, -1.0, 0.05)
    assert h == pytest.approx(-0.15, abs=1e-14)


def test_solve_h_pure_quadratic():
    # paper closed form: H = -gamma_a m / (gamma_a + a) for g = (a/2) z^2
    h = solve_h(quadratic_driver(1.0), CARA2, 0.0, 0.0, 0.0, 0.1)
    assert h == pytest.approx(-0.05, abs=1e-14)


def test_solve_h_zero_when_gradient_vanishes():
    for drv in (quadratic_driver(1.0), entropic_driver(0.7), zero_driver()):
        assert solve_h(drv, CARA2, 0.3, 0.1, 0.2, 0.0) == pytest.approx(0.0, abs=1e-14)


def test_solve_h_bisection_matches_closed_form():
    # hide the affine structure behind a custom driver to force bracketing
    from impact_hedger import custom_driver

    drv = custom_driver(lambda t, z: 0.5 * z * z - 0.3 * z, lambda t, z: z - 0.3)
    direct = solve_h(drifted_quadratic_driver(1.0, 0.3), CARA2, 0.0, 0.0, 0.0, 0.07)
    bracketed = solve_h(drv, CARA2, 0.0, 0.0, 0.0, 0.07)
    assert bracketed == pytest.approx(direct, abs=1e-12)


def test_solve_h_linear_growth_bound():
    rng = np.random.default_rng(2)
    drv = drifted_quadratic_driver(1.0, 0.3)
    for _ in range(50):
        m = float(rng.normal(scale=2.0))
        h = solve_h(drv, CARA2, 0.2, float(rng.normal()), 0.0, m)
        gz0 = drv.grad(0.2, 0.0)
        assert abs(h) <= abs(m) + abs(0.5 * gz0) + 1e-9


def test_solve_h_rejects_kinked_driver():
    with pytest.raises(ContractViolation):
        solve_h(homogeneous_driver(0.1), CARA2, 0.0, 0.0, 0.0, 0.0)


def test_solve_h_homogeneous_band():
    # kappa = 0.1, psi1 = -1/2, unit integrands Z(-S) = 1, Z(S) = -1
    r = solve_h_homogeneous(1.0, -1.0, 0.1, 0.1, CARA2, 0.0, 0.0, 0.0)
    assert (r.theta, r.h, r.ambiguous) == (0.0, 0.0, False)

    r = solve_h_homogeneous(1.0, -1.0, 0.1, 0.1, CARA2, 0.0, 0.0, -0.2)
    assert r.theta == pytest.approx(0.15)
    assert r.h == pytest.approx(0.15)

    r = solve_h_homogeneous(1.0, -1.0, 0.1, 0.1, CARA2, 0.0, 0.0, 0.2)
    assert r.theta == pytest.approx(-0.15)
    assert r.h == pytest.approx(-0.15)

    r = solve_h_homogeneous(1.0, -1.0, 0.1, 0.1, CARA2, 0.0, 0.0, 0.2, theta_plus=True)
    assert (r.theta, r.h) == (0.0, 0.0)


def test_solve_h_homogeneous_ambiguity_flag():
    # negative driver values at the unit integrands force both branches on
    r = solve_h_homogeneous(1.0, -1.0, -0.4, -0.4, CARA2, 0.0, 0.0, 0.0)
    assert r.ambiguous
    r_plus = solve_h_homogeneous(
        1.0, -1.0, -0.4, -0.4, CARA2, 0.0, 0.0, 0.0, theta_plus=True
    )
    assert not r_plus.ambiguous and r_plus.theta > 0


def cara_scenario(n=200):
    lat = build_binomial(1.0, n)
    drv = drifted_quadratic_driver(1.0, 0.3)
    return lat, drv


def test_solve_fbsde_cara_drifted_quadratic():
    lat, drv = cara_scenario()
    sol = solve_fbsde_cara(lat, drv, 2.0, 0.0)
    assert sol.m.sup_abs() == 0.0
    assert np.all(sol.zeta.terminal == 0.0)
    assert sol.zeta.root == pytest.approx(0.015, abs=1e-12)
    for k in range(lat.n_steps):
        np.testing.assert_allclose(sol.h.values(k), 0.1, atol=1e-14)
    assert sol.forward_consistency <= 1e-12


def test_solve_fbsde_cara_pure_quadratic_no_trade():
    lat = build_binomial(1.0, 50)
    sol = solve_fbsde_cara(lat, quadratic_driver(0.5), 2.0, 0.7)
    assert sol.h.sup_abs() == 0.0
    assert sol.zeta.sup_abs() == 0.0
    assert sol.m.sup_abs() == 0.0
    for k in range(51):
        np.testing.assert_array_equal(sol.x.values(k), np.full(k + 1, 0.7))


def test_solve_fbsde_cara_deterministic_linear_driver():
    lat = build_binomial(1.0, 60)
    sol = solve_fbsde_cara(lat, linear_driver(0.4), 2.0, 0.0)
    assert sol.m.sup_abs() <= 1e-15
    for k in range(60):
        np.testing.assert_allclose(sol.h.values(k), -0.2, atol=1e-14)
    # deterministic coefficients: zeta constant across each level
    for k in range(61):
        assert np.ptp(sol.zeta.values(k)) <= 1e-12


def test_picard_reproduces_cara_decoupling():
    lat, drv = cara_scenario()
    ref = solve_fbsde_cara(lat, drv, 2.0, 0.0)
    pic = solve_fbsde_picard(lat, drv, CARA2, 0.0, tol=1e-8, max_iter=50, damping=0.5)
    assert pic.converged
    assert pic.x.sup_diff(ref.x) <= 1e-8
    assert pic.zeta.sup_diff(ref.zeta) <= 1e-12
    assert pic.h.sup_diff(ref.h) <= 1e-12


def test_picard_zero_driver_stays_flat():
    lat = build_binomial(1.0, 40)
    pic = solve_fbsde_picard(lat, zero_driver(), CARA2, 0.5, tol=1e-10, max_iter=30)
    assert pic.converged
    assert pic.h.sup_abs() <= 1e-14
    assert pic.m.sup_abs() <= 1e-14
    assert pic.x.sup_diff(NodeProcess.constant(lat, 0.5)) <= 1e-14


def test_picard_noncara_utility_converges():
    n = 20  # path enumeration backs the non-CARA utility check below
    lat = build_binomial(1.0, n)
    drv = drifted_quadratic_driver(1.0, 0.3)
    u = custom_utility(
        u=lambda x: -np.exp(-x) - 0.25 * np.exp(-2 * x),
        u1=lambda x: np.exp(-x) + 0.5 * np.exp(-2 * x),
        u2=lambda x: -np.exp(-x) - np.exp(-2 * x),
        u3=lambda x: np.exp(-x) + 2.0 * np.exp(-2 * x),
    )
    sol = solve_fbsde_picard(lat, drv, u, 0.0, tol=1e-9, max_iter=80, damping=0.5)
    assert sol.converged
    assert sol.iterations < 32  # plain damping at 0.5 needs 32 passes
    rep = sol.residuals
    # explicit-scheme first-order accuracy
    assert rep.martingale_residual <= 2e-2
    assert rep.foc_residual <= 2e-2
    # perturbing around the fixed point does not improve expected utility
    base = expected_terminal_utility(lat, drv, sol.h, 0.0, u)
    rng = np.random.default_rng(9)
    for _ in range(5):
        bump = [
            sol.h.values(k) + 0.01 * rng.integers(-1, 2, size=k + 1)
            for k in range(n)
        ]
        assert expected_terminal_utility(lat, drv, bump, 0.0, u) <= base + 1e-5


def test_picard_homogeneous_no_trade_band():
    lat = build_binomial(1.0, 80)
    drv = homogeneous_driver(0.1)
    s = lat.w_values(80)
    sol = solve_fbsde_picard(lat, drv, CARA2, 0.0, tol=1e-10, s_terminal=s)
    assert sol.converged
    assert sol.theta.sup_abs() == 0.0
    assert sol.h.sup_abs() == 0.0
    assert not sol.ambiguous
    s1, s2 = sol.residuals.homogeneous_slack
    assert s1 >= -1e-8 and s2 >= -1e-8


def test_picard_homogeneous_requires_payoff():
    lat = build_binomial(1.0, 10)
    with pytest.raises(ContractViolation):
        solve_fbsde_picard(lat, homogeneous_driver(0.1), CARA2, 0.0)


@pytest.mark.parametrize("drv", [drifted_quadratic_driver(1.0, 0.3), linear_driver(0.2)])
def test_picard_refuses_a_payoff_before_its_first_pass(drv, monkeypatch):
    # only a kinked driver reads the payoff; other holdings come from recover_theta
    def refuse(*args):
        raise AssertionError("a Picard pass ran")

    monkeypatch.setattr(optimizer, "_picard_pass", refuse)
    lat = build_binomial(1.0, 10)
    with pytest.raises(InvalidArgument, match="recover_theta"):
        solve_fbsde_picard(lat, drv, CARA2, 0.0, s_terminal=lat.w_values(10))


def test_picard_homogeneous_short_selling_mode():
    # a tiny friction with a strongly curved book is still a no-trade band in
    # long-only mode; the two-sided mode must agree when the band binds
    lat = build_binomial(1.0, 60)
    drv = homogeneous_driver(0.05)
    s = lat.w_values(60)
    plus = solve_fbsde_picard(lat, drv, CARA2, 0.0, s_terminal=s, theta_plus=True)
    both = solve_fbsde_picard(lat, drv, CARA2, 0.0, s_terminal=s, theta_plus=False)
    assert plus.theta.sup_abs() == 0.0
    assert both.theta.sup_abs() == 0.0


def test_picard_nonconvergence_flag():
    lat, drv = cara_scenario(60)
    sol = solve_fbsde_picard(lat, drv, CARA2, 0.0, tol=1e-14, max_iter=2, damping=0.5)
    assert not sol.converged
    assert sol.iterations == 2


def test_unconverged_picard_returns_the_wealth_of_its_integrand():
    lat, drv = cara_scenario(10)
    sol = solve_fbsde_picard(lat, drv, CARA2, 0.25, tol=1e-14, max_iter=1)
    assert not sol.converged
    x, consistency = _forward_wealth(lat, drv, lambda k, _: sol.h.levels[k], 0.25)
    for got, want in zip(sol.x.levels, x.levels, strict=True):
        np.testing.assert_array_equal(got, want)
    assert sol.forward_consistency == consistency


@pytest.mark.parametrize("max_iter", [0, -3])
def test_picard_needs_at_least_one_iteration(max_iter):
    lat, drv = cara_scenario(10)
    with pytest.raises(InvalidArgument, match="max_iter"):
        solve_fbsde_picard(lat, drv, CARA2, 0.0, max_iter=max_iter)


def test_verify_optimality_perfect_solution():
    lat, drv = cara_scenario()
    sol = solve_fbsde_cara(lat, drv, 2.0, 0.0)
    rep = sol.residuals
    assert rep.martingale_residual <= 1e-6
    assert rep.foc_residual <= 1e-12


def test_verify_optimality_flags_perturbation():
    lat, drv = cara_scenario()
    sol = solve_fbsde_cara(lat, drv, 2.0, 0.0)
    bumped = NodeProcess(lat, [lv + 0.05 for lv in sol.h.levels])
    from dataclasses import replace

    rep = verify_optimality(replace(sol, h=bumped), drv, CARA2)
    assert rep.foc_residual > 1e-2


def test_verify_optimality_homogeneous_no_trade():
    lat = build_binomial(1.0, 30)
    drv = homogeneous_driver(0.1)
    s = lat.w_values(30)
    n = lat.n_steps
    zeros = lambda k: np.zeros(k + 1)  # noqa: E731
    from impact_hedger import FbsdeSolution

    sol = FbsdeSolution(
        x=NodeProcess(lat, [np.zeros(k + 1) for k in range(n + 1)]),
        zeta=NodeProcess(lat, [zeros(k) for k in range(n + 1)]),
        m=NodeProcess(lat, [zeros(k) for k in range(n)]),
        h=NodeProcess(lat, [zeros(k) for k in range(n)]),
        theta=NodeProcess(lat, [zeros(k) for k in range(n)]),
        residuals=None,
    )
    z_minus = solve_bsde(lat, drv, -s).z
    z_plus = solve_bsde(lat, drv, s).z
    rep = verify_optimality(sol, drv, CARA2, z_minus=z_minus, z_plus=z_plus)
    assert rep.martingale_residual == 0.0
    s1, s2 = rep.homogeneous_slack
    assert s1 >= -1e-8 and s2 >= -1e-8


def test_recover_theta_zero():
    lat = build_binomial(1.0, 10)
    drv = homogeneous_driver(0.1)
    h = NodeProcess(lat, [np.zeros(k + 1) for k in range(10)])
    (theta,) = recover_theta(lat, drv, lat.w_values(10), [h])
    assert theta.sup_abs() == 0.0


def test_recover_theta_homogeneous_scaling():
    lat = build_binomial(1.0, 10)
    drv = homogeneous_driver(0.1)
    # Z(-S) = 1 for the Brownian payoff, so holdings equal the integrand
    h = NodeProcess(lat, [np.full(k + 1, 0.15) for k in range(10)])
    (theta,) = recover_theta(lat, drv, lat.w_values(10), [h])
    for k in range(10):
        np.testing.assert_allclose(theta.values(k), 0.15, atol=1e-14)


def test_recover_theta_linear_curve():
    lat = build_binomial(1.0, 10)
    drv = drifted_quadratic_driver(1.0, 0.3)
    h = NodeProcess(lat, [np.full(k + 1, 0.1) for k in range(10)])
    (theta,) = recover_theta(
        lat, drv, lat.w_values(10), [h], y_grid=np.linspace(-1.0, 1.0, 21)
    )
    for k in range(10):
        np.testing.assert_allclose(theta.values(k), 0.1, atol=1e-12)


def test_recover_theta_image_violation():
    lat = build_binomial(1.0, 6)
    drv = drifted_quadratic_driver(1.0, 0.3)
    h = NodeProcess(lat, [np.full(k + 1, 9.0) for k in range(6)])
    with pytest.raises(ImageViolation):
        recover_theta(lat, drv, lat.w_values(6), [h], y_grid=np.linspace(-1, 1, 11))


def test_recover_theta_refuses_a_target_outside_the_cone():
    # Z of -|W_T| and of |W_T| is 0 at the root, where no position attains 0.1
    lat = build_binomial(1.0, 6)
    h = NodeProcess(lat, [np.full(k + 1, 0.1) for k in range(6)])
    with pytest.raises(ImageViolation, match="homogeneous image cone"):
        recover_theta(lat, homogeneous_driver(0.1), np.abs(lat.w_values(6)), [h])


def test_recover_theta_refuses_a_missing_y_grid_and_a_target_of_n_plus_one_levels():
    lat = build_binomial(1.0, 6)
    drv = drifted_quadratic_driver(1.0, 0.3)
    h = NodeProcess(lat, [np.full(k + 1, 0.1) for k in range(6)])
    with pytest.raises(InvalidArgument, match="y-grid is required"):
        recover_theta(lat, drv, lat.w_values(6), [h])
    long = NodeProcess(lat, [np.full(k + 1, 0.1) for k in range(7)])
    with pytest.raises(InvalidArgument, match="one value per node of levels 0..n-1"):
        recover_theta(lat, drv, lat.w_values(6), [long], y_grid=np.linspace(-1, 1, 11))


def test_utility_improvement_soundness():
    lat, drv = cara_scenario()
    s = lat.w_values(lat.n_steps)
    y_grid = np.linspace(-1.5, 1.5, 121)
    sol = solve_fbsde_cara(lat, drv, 2.0, 0.0)
    (theta,) = recover_theta(lat, drv, s, [sol.h], y_grid=y_grid)
    curve = PositionCurve(lat, drv, s, y_grid=y_grid)
    base = expected_terminal_utility(lat, drv, sol.h, 0.0, CARA2)
    rng = np.random.default_rng(42)
    for _ in range(20):
        levels = []
        for k in range(lat.n_steps):
            bump = rng.integers(-1, 2, size=k + 1).astype(float)
            levels.append(curve.z_level(k, theta.values(k) + 0.01 * bump))
        perturbed = expected_terminal_utility(lat, drv, levels, 0.0, CARA2)
        assert perturbed <= base + 1e-6
