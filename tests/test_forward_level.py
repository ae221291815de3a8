"""Property tests: the one forward step shared by every forward recursion.

``Lattice.forward_level`` turns each node's (down-child, up-child)
predictions into the next level.  Full-binary levels interleave them; a
recombining level keeps the two end predictions and averages the two
parents of every interior node, reporting their largest disagreement.
"""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from impact_hedger import StateSde, build_binomial, build_full_binary, simulate_state
from impact_hedger.errors import ModeConflict

SETTINGS = settings(max_examples=80, deadline=None)

value = st.floats(-1e6, 1e6, allow_nan=False, allow_subnormal=False)


@st.composite
def predictions(draw, max_nodes=40):
    """(down, up) prediction arrays for one level of ``nodes`` parents."""
    nodes = draw(st.integers(1, max_nodes))
    down = np.array(draw(st.lists(value, min_size=nodes, max_size=nodes)))
    up = np.array(draw(st.lists(value, min_size=nodes, max_size=nodes)))
    return down, up


@SETTINGS
@given(predictions())
def test_full_binary_interleaves_with_zero_gap(pair):
    down, up = pair
    lat = build_full_binary(1.0, 6)
    nxt, gap = lat.forward_level(down, up)
    assert gap == 0.0
    np.testing.assert_array_equal(nxt, np.column_stack((down, up)).ravel())


@SETTINGS
@given(predictions())
def test_recombining_ends_and_two_parent_mean(pair):
    down, up = pair
    lat = build_binomial(1.0, 50)
    nxt, _ = lat.forward_level(down, up)
    assert nxt.shape == (down.size + 1,)
    assert nxt[0] == down[0]
    assert nxt[-1] == up[-1]
    # interior slot j+1 has parents j (its up-child) and j+1 (its down-child)
    np.testing.assert_array_equal(nxt[1:-1], 0.5 * (up[:-1] + down[1:]))


@SETTINGS
@given(predictions())
def test_recombining_gap_is_the_largest_parent_disagreement(pair):
    down, up = pair
    lat = build_binomial(1.0, 50)
    _, gap = lat.forward_level(down, up)
    if down.size == 1:
        assert gap == 0.0
    else:
        assert gap == float(np.max(np.abs(up[:-1] - down[1:])))


@pytest.mark.parametrize("lat", [build_binomial(1.0, 3), build_full_binary(1.0, 3)])
def test_one_node_level_has_zero_gap(lat):
    nxt, gap = lat.forward_level(np.array([-2.0]), np.array([5.0]))
    assert gap == 0.0
    np.testing.assert_array_equal(nxt, [-2.0, 5.0])


@SETTINGS
@given(st.floats(0.05, 2.0), st.integers(2, 30), st.floats(-1.0, 1.0))
def test_state_dependent_drift_conflicts_at_the_first_split_level(kappa, n, r0):
    # mean reversion b(r) = -kappa r: the two parents of the middle node of
    # level 2 predict values 2 kappa dt sqrt(dt) apart
    lat = build_binomial(1.0, n)
    sde = StateSde(drift=lambda t, r: -kappa * r, sigma=1.0, r0=r0)
    with pytest.raises(ModeConflict, match=r"level 2,"):
        simulate_state(lat, sde)

