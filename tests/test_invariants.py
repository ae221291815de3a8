"""The paper's structural invariants of the driver evaluation, on random desks.

Each case draws one of the six driver presets with random parameters, a
recombining lattice (n <= 30) or a full-binary one (n <= 8), and a payoff
a W + b W^2 + c of the terminal Brownian value.  A sweep that the
step-size guard refuses is not a case (``assume``); the guard is never
widened.  The invariants:

* cash invariance, Pi(X + c) = Pi(X) + c at every node;
* positive homogeneity, Pi(l X) = l Pi(X) for l > 0, for the zero, linear
  and homogeneous drivers;
* the comparison principle of the monotone scheme: X <= Y gives
  Pi(X) <= Pi(Y) at every node;
* quotes: P(z, 0) = 0, and P(z, .) is midpoint-convex in the volume y.
"""
import numpy as np
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from impact_hedger import (
    build_binomial,
    build_full_binary,
    drifted_quadratic_driver,
    entropic_driver,
    homogeneous_driver,
    linear_driver,
    quadratic_driver,
    quote_grid,
    solve_bsde,
    zero_driver,
)
from impact_hedger.errors import StepSizeViolation

SETTINGS = settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
RTOL = 1e-12  # on 300 random desks the worst relative error was 8e-16

homogeneous_drivers = st.one_of(
    st.just(zero_driver()),
    st.floats(-1.0, 1.0).map(linear_driver),
    st.floats(0.0, 0.5).map(homogeneous_driver),
)
drivers = st.one_of(
    homogeneous_drivers,
    st.floats(0.0, 1.0).map(quadratic_driver),
    st.floats(0.05, 2.0).map(entropic_driver),
    st.tuples(st.floats(0.05, 2.0), st.floats(-0.5, 0.5)).map(lambda p: drifted_quadratic_driver(*p)),
)
lattices = st.one_of(
    st.builds(build_binomial, st.floats(0.1, 2.0), st.integers(1, 30)),
    st.builds(build_full_binary, st.floats(0.1, 2.0), st.integers(1, 8)),
)
payoffs = st.tuples(st.floats(-2.0, 2.0), st.floats(-1.0, 1.0), st.floats(-5.0, 5.0))


def _terminal(lattice, payoff):
    a, b, c = payoff
    w = lattice.w_values(lattice.n_steps)
    return a * w + b * w * w + c


def _pi(lattice, driver, terminal) -> np.ndarray:
    """Pi at every node, or no case where the step-size guard refuses the sweep."""
    try:
        return solve_bsde(lattice, driver, terminal).pi.flat
    except StepSizeViolation:
        assume(False)


def _close(got, want):
    return np.all(np.abs(got - want) <= RTOL * (1.0 + np.abs(want)))


@SETTINGS
@given(driver=drivers, lattice=lattices, payoff=payoffs, cash=st.floats(-10.0, 10.0))
def test_cash_invariance(driver, lattice, payoff, cash):
    x = _terminal(lattice, payoff)
    assert _close(_pi(lattice, driver, x + cash), _pi(lattice, driver, x) + cash)


@SETTINGS
@given(driver=homogeneous_drivers, lattice=lattices, payoff=payoffs, scale=st.floats(1e-3, 1e3))
def test_positive_homogeneity(driver, lattice, payoff, scale):
    x = _terminal(lattice, payoff)
    assert _close(_pi(lattice, driver, scale * x), scale * _pi(lattice, driver, x))


@SETTINGS
@given(
    driver=drivers,
    lattice=lattices,
    payoff=payoffs,
    seed=st.integers(0, 2**32 - 1),
    size=st.sampled_from([0.0, 1e-12, 1e-3, 1.0]),
)
def test_comparison_principle(driver, lattice, payoff, seed, size):
    x = _terminal(lattice, payoff)
    # Y exceeds X by nothing at some nodes and by up to ``size`` at the others
    rng = np.random.default_rng(seed)
    y = x + size * rng.uniform(0.0, 1.0, x.size) * (rng.uniform(size=x.size) < 0.7)
    pi_x, pi_y = _pi(lattice, driver, x), _pi(lattice, driver, y)
    assert np.all(pi_x - pi_y <= RTOL * (1.0 + np.abs(pi_y)))


@SETTINGS
@given(
    driver=drivers,
    lattice=lattices,
    payoff=payoffs,
    spot=st.floats(0.0, 1.0),
    z=st.floats(-2.0, 2.0),
    y1=st.floats(-2.0, 2.0),
    y2=st.floats(-2.0, 2.0),
)
def test_quotes_vanish_at_zero_volume_and_are_midpoint_convex(driver, lattice, payoff, spot, z, y1, y2):
    k = int(spot * lattice.n_steps)
    node = (k, int(spot * (lattice.level_size(k) - 1)))
    s = _terminal(lattice, payoff)
    ys = [0.0, y1, y2, 0.5 * (y1 + y2)]
    try:
        p0, p1, p2, mid = quote_grid(lattice, driver, s, node, [z], ys)[0]
    except StepSizeViolation:
        assume(False)
    assert p0 == 0.0
    assert mid - 0.5 * (p1 + p2) <= RTOL * (1.0 + abs(p1) + abs(p2))
