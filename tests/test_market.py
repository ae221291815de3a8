import re
import warnings

import numpy as np
import pytest

from impact_hedger import (
    NodeProcess,
    Strategy,
    build_binomial,
    cara_utility,
    constant_strategy,
    custom_utility,
    entropic_driver,
    expected_terminal_utility,
    homogeneous_driver,
    linear_driver,
    piecewise_constant_strategy,
    pnl_process,
    price_curve,
    quote_grid,
    simple_strategy_pnl,
    zero_driver,
)
from impact_hedger.errors import (
    ContractViolation,
    ExtrapolationRefused,
    InvalidArgument,
    NumericOverflow,
)


def test_price_zero_volume_is_zero():
    lat = build_binomial(1.0, 20)
    s = lat.w_values(20)
    for z in (-1.0, 0.0, 0.5):
        assert price_curve(lat, entropic_driver(1.0), s, (0, 0), z, 0.0) == 0.0


def test_price_risk_neutral_linearity():
    lat = build_binomial(1.0, 30)
    s = lat.w_values(30)
    assert price_curve(lat, zero_driver(), s, (0, 0), 0.7, 1.3) == pytest.approx(
        0.0, abs=1e-12
    )
    # linear driver: P(z, y) = y E^Q[S] independent of z
    drv = linear_driver(0.2)
    p1 = price_curve(lat, drv, s, (0, 0), 0.0, 1.0)
    p2 = price_curve(lat, drv, s, (0, 0), -0.8, 1.0)
    phalf = price_curve(lat, drv, s, (0, 0), 0.3, 0.5)
    assert p1 == pytest.approx(0.2, abs=1e-10)
    assert p2 == pytest.approx(p1, abs=1e-10)
    assert phalf == pytest.approx(0.5 * p1, abs=1e-10)


def test_price_entropic_desk_value():
    # Gaussian mgf closed form: P(z, y) = (gamma/2) y (y - 2z)
    lat = build_binomial(1.0, 200)
    s = lat.w_values(200)
    p = price_curve(lat, entropic_driver(1.0), s, (0, 0), 0.0, 1.0)
    assert p == pytest.approx(0.5, abs=0.01)


def test_price_telescoping_decomposition():
    lat = build_binomial(1.0, 50)
    s = lat.w_values(50)
    drv = entropic_driver(1.0)
    for z in (-0.5, 0.0, 0.4):
        for y1, y2 in ((0.3, 0.4), (-0.2, 0.6)):
            whole = price_curve(lat, drv, s, (0, 0), z, y1 + y2)
            split = price_curve(lat, drv, s, (0, 0), z, y1) + price_curve(
                lat, drv, s, (0, 0), z - y1, y2
            )
            assert whole == pytest.approx(split, abs=1e-12)


def test_price_monotone_in_volume_for_nonnegative_payoff():
    lat = build_binomial(1.0, 30)
    s = lat.w_values(30) ** 2
    drv = entropic_driver(0.1)
    for z in (-0.5, 0.0, 0.5):
        prices = [price_curve(lat, drv, s, (0, 0), z, y) for y in (0.2, 0.5, 1.0, 1.5)]
        assert np.all(np.diff(prices) > 0)


def test_pnl_zero_strategy_is_flat():
    lat = build_binomial(1.0, 6)
    wp = pnl_process(
        lat,
        entropic_driver(1.0),
        lat.w_values(6),
        constant_strategy(lat, 0.0),
        1.25,
        y_grid=np.linspace(-1.0, 1.0, 11),
    )
    assert wp.gains.values(0)[0] == 0.0
    for k in range(7):
        np.testing.assert_array_equal(wp.x.values(k), np.full(2**k, 1.25))


def test_pnl_homogeneous_one_step():
    lat = build_binomial(1.0, 1)
    wp = pnl_process(
        lat, homogeneous_driver(0.1), lat.w_values(1), constant_strategy(lat, 1.0), 0.0
    )
    np.testing.assert_allclose(sorted(wp.x.terminal), [-1.1, 0.9])


def test_pnl_linear_driver_integration_by_parts():
    # terminal wealth equals int theta dS for S_t = E^Q[S | F_t]
    nu, n = 0.2, 10
    lat = build_binomial(1.0, n)
    drv = linear_driver(nu)
    wp = pnl_process(lat, drv, lat.w_values(n), constant_strategy(lat, 1.0), 0.0)
    binary = wp.x.lattice  # the full-binary expansion
    np.testing.assert_allclose(
        wp.x.terminal, binary.w_values(n) - nu * 1.0, atol=1e-12
    )
    # independent route: accumulate dS along each path
    s_levels = [binary.w_values(k) + nu * (1.0 - lat.grid.t(k)) for k in range(n + 1)]
    acc = np.zeros(1)
    for k in range(n):
        nxt = np.empty(2 * acc.size)
        nxt[0::2] = acc + (s_levels[k + 1][0::2] - s_levels[k])
        nxt[1::2] = acc + (s_levels[k + 1][1::2] - s_levels[k])
        acc = nxt
    np.testing.assert_allclose(wp.x.terminal, acc, atol=1e-12)


def test_pnl_wealth_identity_and_scaling():
    lat = build_binomial(1.0, 8)
    drv = homogeneous_driver(0.1)
    s = lat.w_values(8)
    for y in (0.5, 2.0):
        wp = pnl_process(lat, drv, s, constant_strategy(lat, y), 0.3)
        unit = pnl_process(lat, drv, s, constant_strategy(lat, 1.0), 0.0)
        for k in range(9):
            np.testing.assert_allclose(
                wp.x.values(k), 0.3 + wp.gains.values(k), atol=1e-15
            )
            np.testing.assert_allclose(
                wp.gains.values(k), y * unit.gains.values(k), atol=1e-12
            )


def test_pnl_refuses_positions_outside_hull():
    lat = build_binomial(1.0, 5)
    drv = entropic_driver(1.0)
    with pytest.raises(ExtrapolationRefused):
        pnl_process(
            lat,
            drv,
            lat.w_values(5),
            constant_strategy(lat, 2.0),
            0.0,
            y_grid=np.linspace(-1.0, 1.0, 11),
        )


def test_trade_by_trade_pnl_refuses_a_strategy_whose_level_is_not_constant():
    lat = build_binomial(1.0, 4)
    theta = NodeProcess.constant(lat, 1.0, n_levels=4)
    theta.levels[2][1] = 0.5  # one node of level 2 holds another position
    with pytest.raises(ContractViolation, match="level-constant"):
        simple_strategy_pnl(lat, entropic_driver(1.0), lat.w_values(4), Strategy(theta))


def test_buy_and_hold_single_trade():
    lat = build_binomial(1.0, 6)
    drv = entropic_driver(1.0)
    s = lat.w_values(6)
    strat = constant_strategy(lat, 1.0)
    pnl = simple_strategy_pnl(lat, drv, s, strat)
    p0 = price_curve(lat, drv, s, (0, 0), 0.0, 1.0)
    binary = lat.expand_full_binary()
    np.testing.assert_allclose(pnl, binary.w_values(6) - p0, atol=1e-12)


@pytest.mark.parametrize(
    "drv", [entropic_driver(1.0), homogeneous_driver(0.1)], ids=["entropic", "homog"]
)
def test_two_jump_strategy_matches_pnl_process(drv):
    lat = build_binomial(1.0, 6)
    s = lat.w_values(6)
    strat = piecewise_constant_strategy(lat, [(0, 0.5), (3, -0.3)])
    y_grid = np.linspace(-1.0, 1.0, 41)  # grid contains both holdings exactly
    wp = pnl_process(lat, drv, s, strat, 0.0, y_grid=y_grid)
    trade_by_trade = simple_strategy_pnl(lat, drv, s, strat)
    np.testing.assert_allclose(wp.x.terminal, trade_by_trade, atol=1e-10)


def test_expected_utility_cara_matches_enumeration():
    lat = build_binomial(1.0, 8)
    drv = entropic_driver(1.0)
    utility = cara_utility(2.0)
    z_levels = [0.1 * np.ones(k + 1) + 0.05 * lat.w_values(k) for k in range(8)]
    fast = expected_terminal_utility(lat, drv, z_levels, 0.2, utility)
    # brute-force path enumeration
    binary = lat.expand_full_binary()
    gains = np.zeros(1)
    for k in range(8):
        z = lat.lift_level(z_levels[k], k, binary)
        g = np.asarray(drv.g(lat.grid.t(k), z))
        nxt = np.empty(2 * gains.size)
        nxt[0::2] = gains - g * lat.grid.dt - z * lat.grid.sqrt_dt
        nxt[1::2] = gains - g * lat.grid.dt + z * lat.grid.sqrt_dt
        gains = nxt
    brute = float(np.mean(utility.u(0.2 + gains)))
    assert fast == pytest.approx(brute, abs=1e-13)


def test_expected_utility_zero_strategy():
    lat = build_binomial(1.0, 12)
    utility = cara_utility(2.0)
    z_levels = [np.zeros(k + 1) for k in range(12)]
    val = expected_terminal_utility(lat, zero_driver(), z_levels, 0.5, utility)
    assert val == pytest.approx(float(utility.u(np.asarray(0.5))), abs=1e-14)


@pytest.mark.parametrize("node", [(-1, 0), (4, 5), (11, 0), (3, -1)])
def test_quotes_refuse_a_node_off_the_lattice(node):
    # a negative level would quote the terminal level through negative indexing
    lat = build_binomial(1.0, 10)
    s = lat.w_values(10)
    drv = entropic_driver(1.0)
    with pytest.raises(InvalidArgument, match="not on the lattice"):
        price_curve(lat, drv, s, node, 0.0, 1.0)
    with pytest.raises(InvalidArgument, match="not on the lattice"):
        quote_grid(lat, drv, s, node, [0.0], [1.0])


@pytest.mark.parametrize(
    ("scale", "z", "y", "named"),
    [
        (1.0, 1e308, 0.5, "H_M + z S at z = 1e+308"),
        (1.0, 0.0, 1e308, "H_M + (z - y) S at z = 0.0, y = 1e+308"),
        (1e-10, 1e308, -1e308, "H_M + (z - y) S at z = 1e+308, y = -1e+308"),  # z - y overflows
    ],
    ids=["held", "after", "shift"],
)
def test_quotes_refuse_an_overflowing_book_by_name(scale, z, y, named):
    # 1e308 W overflows at the lattice edge: both quote routes refuse the
    # same book before any sweep level, and without a numpy warning
    lat = build_binomial(1.0, 10)
    s = scale * lat.w_values(10)
    drv = entropic_driver(1.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(NumericOverflow, match=re.escape(named)):
            price_curve(lat, drv, s, (0, 0), z, y)
        with pytest.raises(NumericOverflow, match=re.escape(named)):
            quote_grid(lat, drv, s, (0, 0), [z], [y])


def test_trade_by_trade_pnl_refuses_an_overflowing_book_by_name():
    # 1e308 held against S = W (up to 2 at level 4) overflows: the book is
    # refused by name before the sweep, and without a numpy warning
    lat = build_binomial(1.0, 4)
    strat = piecewise_constant_strategy(lat, [(0, 1e308)])
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(NumericOverflow, match=re.escape("book -y S at y = 1e+308")):
            simple_strategy_pnl(lat, entropic_driver(1.0), lat.w_values(4), strat)


EXP_MIX = custom_utility(
    u=lambda x: -(np.exp(-x) + np.exp(-3.0 * x)) / 2.0,
    u1=lambda x: (np.exp(-x) + 3.0 * np.exp(-3.0 * x)) / 2.0,
    u2=lambda x: -(np.exp(-x) + 9.0 * np.exp(-3.0 * x)) / 2.0,
    u3=lambda x: (np.exp(-x) + 27.0 * np.exp(-3.0 * x)) / 2.0,
)


@pytest.mark.parametrize("utility", [cara_utility(2.0), EXP_MIX], ids=["cara", "enumerated"])
def test_expected_utility_refuses_integrand_levels_of_the_wrong_size(utility):
    lat = build_binomial(1.0, 4)
    drv = entropic_driver(1.0)
    # one node too long: the enumeration used to lift only the first k + 1
    with pytest.raises(InvalidArgument, match="level 0 has size \\(2,\\), expected \\(1,\\)"):
        expected_terminal_utility(lat, drv, [np.full(k + 2, 0.1) for k in range(4)], 0.0, utility)
    with pytest.raises(InvalidArgument, match="3 levels, expected 4"):
        expected_terminal_utility(lat, drv, [np.full(k + 1, 0.1) for k in range(3)], 0.0, utility)

