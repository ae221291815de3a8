import math
import tracemalloc

import numpy as np
import pytest

from impact_hedger import (
    Lattice,
    NodeProcess,
    StateSde,
    build_binomial,
    build_full_binary,
    custom_utility,
    entropic_driver,
    expected_terminal_utility,
    piecewise_constant_strategy,
    pnl_process,
    simple_strategy_pnl,
    simulate_state,
    solve_bsde,
    zero_driver,
)
from impact_hedger.errors import InvalidArgument, ModeConflict
from impact_hedger.lattice import FULL_BINARY, FULL_BINARY_MAX_STEPS


def test_one_step_terminal_nodes():
    lat = build_binomial(1.0, 1)
    assert lat.level_size(1) == 2
    np.testing.assert_allclose(sorted(lat.w_values(1)), [-1.0, 1.0])


def test_two_step_recombination():
    lat = build_binomial(1.0, 2)
    np.testing.assert_allclose(
        sorted(lat.w_values(2)), [-np.sqrt(2.0), 0.0, np.sqrt(2.0)]
    )


def test_level_counts():
    lat = build_binomial(1.0, 4)
    assert lat.level_size(3) == 4
    assert [lat.level_size(k) for k in range(5)] == [1, 2, 3, 4, 5]


def test_invalid_arguments():
    with pytest.raises(InvalidArgument):
        build_binomial(-1.0, 4)
    with pytest.raises(InvalidArgument):
        build_binomial(1.0, 0)
    with pytest.raises(InvalidArgument):
        build_full_binary(1.0, 23)


def test_conditional_expectation_examples():
    lat = build_binomial(1.0, 2)
    np.testing.assert_allclose(lat.conditional_expectation([3.0, 3.0]), [3.0])
    np.testing.assert_allclose(lat.conditional_expectation([-1.0, 1.0]), [0.0])
    np.testing.assert_allclose(lat.conditional_expectation([0.0, 1.0, 4.0]), [0.5, 2.5])
    with pytest.raises(InvalidArgument):
        lat.conditional_expectation([1.0])


def test_martingale_projection_examples():
    def z_before_maturity(T, terminal):
        lat = build_binomial(T, len(terminal) - 1)
        return solve_bsde(lat, zero_driver(), terminal).z.values(lat.n_steps - 1)

    # terminal W with T = 1, one step: Z_0 = -1
    np.testing.assert_allclose(z_before_maturity(1.0, [-1.0, 1.0]), [-1.0])
    # constant terminal has no martingale part (dt = 0.5)
    np.testing.assert_allclose(z_before_maturity(1.0, [5.0, 5.0, 5.0]), [0.0, 0.0])
    # sign flips with the payoff
    np.testing.assert_allclose(z_before_maturity(1.0, [1.0, -1.0]), [1.0])


def test_branch_moments_exact():
    lat = build_binomial(2.0, 5)
    for k in range(lat.n_steps):
        incr = np.stack(lat.split_children(lat.w_values(k + 1))) - lat.w_values(k)
        np.testing.assert_allclose(incr.mean(axis=0), 0.0, atol=1e-15)
        np.testing.assert_allclose((incr**2).mean(axis=0), lat.grid.dt, rtol=1e-14)


def test_tower_property_matches_weighted_sum():
    n = 60
    lat = build_binomial(1.0, n)
    rng = np.random.default_rng(0)
    v = rng.normal(size=lat.level_size(n))
    folded = lat.root_expectation(v)
    # node j of level n is reached by comb(n, j) of the 2^n equally likely paths
    weights = np.array([math.comb(n, j) for j in range(n + 1)], dtype=float) / 2.0**n
    assert abs(folded - float(weights @ v)) < 1e-12


def test_node_process_shape_validation():
    lat = build_binomial(1.0, 3)
    with pytest.raises(InvalidArgument):
        NodeProcess(lat, [np.zeros(2)])
    proc = NodeProcess.constant(lat, 1.5)
    assert proc.n_levels == 4
    assert proc.root == 1.5


def test_full_binary_child_ordering():
    lat = build_full_binary(1.0, 2)
    w2 = lat.w_values(2)
    # children of node j sit at 2j (down) and 2j+1 (up)
    assert w2.shape == (4,)
    np.testing.assert_allclose(w2, np.array([-2.0, 0.0, 0.0, 2.0]) * np.sqrt(0.5))


EXP_MIX = custom_utility(
    u=lambda x: -(np.exp(-x) + np.exp(-3.0 * x)) / 2.0,
    u1=lambda x: (np.exp(-x) + 3.0 * np.exp(-3.0 * x)) / 2.0,
    u2=lambda x: -(np.exp(-x) + 9.0 * np.exp(-3.0 * x)) / 2.0,
    u3=lambda x: (np.exp(-x) + 27.0 * np.exp(-3.0 * x)) / 2.0,
)


def _per_level_up_counts(n):
    """The table a full-binary lattice used to keep: level k + 1 interleaves
    level k's up-counts (the down-children) with them plus one."""
    ups = [np.zeros(1, dtype=np.int64)]
    for _ in range(n):
        nxt = np.empty(2 * ups[-1].size, dtype=np.int64)
        nxt[0::2] = ups[-1]
        nxt[1::2] = ups[-1] + 1
        ups.append(nxt)
    return ups


def test_full_binary_pnl_keeps_the_bits_of_the_per_level_up_count_table(monkeypatch):
    lat = build_binomial(1.0, 8)
    drv = entropic_driver(1.0)
    s = lat.w_values(8)
    strat = piecewise_constant_strategy(lat, [(0, 0.5), (3, -0.3)])
    z_levels = [0.1 + 0.05 * lat.w_values(k) for k in range(8)]

    def run():
        wp = pnl_process(lat, drv, s, strat, 0.2, y_grid=np.linspace(-1.0, 1.0, 41))
        pnl = simple_strategy_pnl(lat, drv, s, strat)
        eu = expected_terminal_utility(lat, drv, z_levels, 0.2, EXP_MIX)
        return [a.tobytes() for a in (wp.x.flat, wp.gains.flat, wp.z_theta.flat, pnl, np.float64(eu))]

    viewed = run()
    table = _per_level_up_counts(8)
    real = Lattice.up_counts

    def from_table(self, k):
        return table[k] if self.topology == FULL_BINARY else real(self, k)

    monkeypatch.setattr(Lattice, "up_counts", from_table)
    assert run() == viewed


def test_full_binary_up_counts_are_views_of_one_row_equal_to_the_per_level_table():
    table = _per_level_up_counts(FULL_BINARY_MAX_STEPS)  # level k is the same for every n >= k
    for n in range(1, FULL_BINARY_MAX_STEPS + 1):
        lat = build_full_binary(1.0, n)
        row = lat.up_counts(n)
        for k in range(n + 1):
            ups = lat.up_counts(k)
            assert ups.dtype == np.int64 and np.shares_memory(ups, row)
            assert np.array_equal(ups, table[k]), (n, k)


def test_a_full_binary_lattice_holds_one_up_count_row():
    tracemalloc.start()
    try:
        lat = build_full_binary(1.0, FULL_BINARY_MAX_STEPS)
        held, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # the 2^22 int64 row is 33.6e6 bytes; a table of every level held twice that
    assert held < 40e6 and lat.n_steps == FULL_BINARY_MAX_STEPS


def test_split_children_acts_row_by_row_on_a_stack():
    stack = np.arange(12.0).reshape(3, 4)
    for lat in (build_binomial(1.0, 3), build_full_binary(1.0, 2)):
        down, up = lat.split_children(stack)
        for row, d, u in zip(stack, down, up):
            d1, u1 = lat.split_children(row)
            np.testing.assert_array_equal(d, d1)
            np.testing.assert_array_equal(u, u1)
    with pytest.raises(InvalidArgument):
        build_binomial(1.0, 3).split_children(np.zeros((3, 1)))
    with pytest.raises(InvalidArgument):
        build_full_binary(1.0, 2).split_children(np.zeros((2, 3)))
    with pytest.raises(InvalidArgument):
        build_binomial(1.0, 3).split_children(1.0)


def test_simulate_state_driftless_is_brownian():
    lat = build_binomial(1.0, 8)
    sde = StateSde(drift=0.0, sigma=1.0, r0=0.0)
    r = simulate_state(lat, sde)
    for k in range(9):
        np.testing.assert_allclose(r.values(k), lat.w_values(k), atol=1e-15)


def test_simulate_state_constant_drift():
    lat = build_binomial(1.0, 10)
    mu = 0.7
    r = simulate_state(lat, StateSde(drift=mu, sigma=1.0, r0=0.2))
    for k in range(11):
        np.testing.assert_allclose(
            r.values(k), 0.2 + mu * lat.grid.t(k) + lat.w_values(k), atol=1e-12
        )


def test_simulate_state_mean_reverting_euler_step():
    # one Euler step by hand: level-1 values r0(1 - dt) +/- sqrt(dt)
    lat = build_full_binary(1.0, 2)
    r = simulate_state(lat, StateSde(drift=lambda t, x: -x, sigma=1.0, r0=1.0))
    dt = 0.5
    expected = sorted([1.0 - dt - np.sqrt(dt), 1.0 - dt + np.sqrt(dt)])
    np.testing.assert_allclose(sorted(r.values(1)), expected, atol=1e-14)


def test_simulate_state_state_dependent_volatility_on_full_binary():
    lat = build_full_binary(1.0, 5)
    dt, sq = lat.grid.dt, lat.grid.sqrt_dt
    sde = StateSde(drift=lambda t, x: 0.5 - x, sigma=lambda t, x: 0.2 + t * x * x, r0=0.3)
    r = simulate_state(lat, sde)
    level = np.array([0.3])
    for k in range(6):
        assert r.values(k).tobytes() == level.tobytes()
        t = lat.grid.t(k)
        b, s = 0.5 - level, 0.2 + t * level * level
        nxt = np.empty(2 * level.size)
        nxt[0::2] = level + b * dt - s * sq
        nxt[1::2] = level + b * dt + s * sq
        level = nxt


def test_simulate_state_mode_conflicts():
    lat = build_binomial(1.0, 2)
    with pytest.raises(ModeConflict):
        simulate_state(lat, StateSde(drift=lambda t, x: -x, sigma=1.0, r0=1.0))
    with pytest.raises(ModeConflict):
        simulate_state(lat, StateSde(drift=0.0, sigma=lambda t, x: 1.0 + 0 * x, r0=0.0))
