"""Property tests: the batched backward sweep and the vectorised curve inversion.

A stack of terminal payoffs swept in one pass must give every row bit for
bit what its own ``solve_bsde`` gives, on both lattice topologies and for
all six driver kinds; the column-wise inversion must agree bit for bit
with ``np.interp`` node by node.
"""
import numpy as np
import pytest
from hypothesis import HealthCheck, event, given, settings
from hypothesis import strategies as st

from impact_hedger import (
    NodeProcess,
    PositionCurve,
    build_binomial,
    build_full_binary,
    drifted_quadratic_driver,
    dz_dy,
    entropic_driver,
    homogeneous_driver,
    linear_driver,
    quadratic_driver,
    recover_theta,
    solve_bsde,
    z_of_position,
    zero_driver,
)
from impact_hedger.errors import NumericOverflow, StepSizeViolation
from impact_hedger.gexpect import _driver_levels, _interp_columns, _stack_levels

SETTINGS = settings(
    max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)

coef = st.floats(-1.5, 1.5, allow_subnormal=False)

drivers = st.one_of(
    st.just(zero_driver()),
    coef.map(linear_driver),
    coef.map(lambda nu: linear_driver(lambda t: nu * (1.0 + t))),
    st.floats(0.0, 1.0).map(quadratic_driver),
    st.floats(0.05, 2.0).map(entropic_driver),
    st.tuples(st.floats(0.05, 2.0), coef).map(lambda p: drifted_quadratic_driver(*p)),
    st.floats(0.0, 1.5).map(homogeneous_driver),
)


@st.composite
def lattices(draw):
    horizon = draw(st.floats(0.1, 2.0))
    if draw(st.booleans()):
        return build_full_binary(horizon, draw(st.integers(1, 10)))
    return build_binomial(horizon, draw(st.integers(1, 40)))


def payoff(lat, a, b, c):
    w = lat.w_values(lat.n_steps)
    return a * w + b * w * w + c * np.maximum(w, 0.0)


payoffs = st.tuples(coef, st.floats(-0.5, 0.5), coef)

y_grids = st.lists(
    st.floats(-2.0, 2.0, allow_subnormal=False), min_size=2, max_size=8, unique=True
).map(lambda ys: np.array(sorted(ys)))


def _bits(a):
    return np.ascontiguousarray(a).tobytes()


def _per_row(lat, driver, rows):
    """Each row's own solution, or the guard error it raises."""
    out = []
    for row in rows:
        try:
            out.append(solve_bsde(lat, driver, row))
        except (NumericOverflow, StepSizeViolation) as exc:
            out.append(exc)
    return out


def curve_uses_grid(driver, h_m):
    return not (driver.is_homogeneous and h_m is None)


def _all_levels(lat, driver, rows):
    """Every Pi and Z level of the batched guarded sweep, as per-level views."""
    pi, z = _stack_levels(lat, rows, _driver_levels(lat, driver, rows))
    return lat.split_levels(pi), lat.split_levels(z)


def _first_error(errors):
    # the sweep runs from the top level down and checks finiteness first
    return max(errors, key=lambda e: (e.level, isinstance(e, NumericOverflow)))


@SETTINGS
@given(lat=lattices(), driver=drivers, s=payoffs, book=st.floats(-0.5, 0.5), ys=y_grids)
def test_batched_sweep_matches_one_sweep_per_row(lat, driver, s, book, ys):
    s_term = payoff(lat, *s)
    h = book * lat.w_values(lat.n_steps) ** 2
    rows = h[None, :] - ys[:, None] * s_term[None, :]
    singles = _per_row(lat, driver, rows)
    errors = [r for r in singles if isinstance(r, Exception)]
    if errors:
        event("a row trips a guard")
        expected = _first_error(errors)
        with pytest.raises(type(expected)) as info:
            _all_levels(lat, driver, rows)
        assert info.value.level == expected.level
        return
    pi_levels, z_levels = _all_levels(lat, driver, rows)
    for i, sol in enumerate(singles):
        for k in range(lat.n_steps + 1):
            assert _bits(pi_levels[k][i]) == _bits(sol.pi.values(k))
        for k in range(lat.n_steps):
            assert _bits(z_levels[k][i]) == _bits(sol.z.values(k))


@SETTINGS
@given(lat=lattices(), driver=drivers, s=payoffs, with_book=st.booleans(), ys=y_grids)
def test_position_curve_matches_z_of_position(lat, driver, s, with_book, ys):
    s_term = payoff(lat, *s)
    h_m = 0.2 * lat.w_values(lat.n_steps) ** 2 if with_book else None
    try:
        curve = PositionCurve(lat, driver, s_term, y_grid=ys, h_m=h_m)
    except (NumericOverflow, StepSizeViolation) as exc:
        event("a row trips a guard")
        positions = ys if curve_uses_grid(driver, h_m) else (1.0, -1.0)
        rows = [(0.0 if h_m is None else h_m) - y * s_term for y in positions]
        errors = [r for r in _per_row(lat, driver, rows) if isinstance(r, Exception)]
        assert errors and type(exc) is type(_first_error(errors))
        return
    if curve_uses_grid(driver, h_m):
        for i, y in enumerate(ys):
            z = z_of_position(lat, driver, s_term, float(y), h_m).z
            for k in range(lat.n_steps):
                assert _bits(curve._stacks[k][i]) == _bits(z.values(k))
    else:
        z_minus = solve_bsde(lat, driver, -s_term).z
        z_plus = solve_bsde(lat, driver, s_term).z
        for k in range(lat.n_steps):
            assert _bits(curve.z_minus.values(k)) == _bits(z_minus.values(k))
            assert _bits(curve.z_plus.values(k)) == _bits(z_plus.values(k))


@SETTINGS
@given(lat=lattices(), driver=drivers, s=payoffs, y=coef, eps=st.floats(1e-4, 0.1))
def test_dz_dy_matches_three_separate_solves(lat, driver, s, y, eps):
    s_term = payoff(lat, *s)
    try:
        res = dz_dy(lat, driver, s_term, y, eps)
    except (NumericOverflow, StepSizeViolation):
        event("a row trips a guard")
        singles = _per_row(lat, driver, [-(y + d) * s_term for d in (-eps, 0.0, eps)])
        assert any(isinstance(r, Exception) for r in singles)
        return
    lo, mid, hi = (z_of_position(lat, driver, s_term, v).z for v in (y - eps, y, y + eps))
    for k in range(lat.n_steps):
        assert _bits(res.forward.values(k)) == _bits((hi.values(k) - mid.values(k)) / eps)
        assert _bits(res.backward.values(k)) == _bits((mid.values(k) - lo.values(k)) / eps)


@st.composite
def columns(draw):
    """Strictly increasing columns ``xp``, an increasing ``fp`` and targets."""
    n_y = draw(st.integers(2, 9))
    n_cols = draw(st.integers(1, 8))
    step = st.floats(1e-3, 5.0)
    start = st.floats(-10.0, 10.0)
    xp = np.empty((n_y, n_cols))
    for j in range(n_cols):
        xp[:, j] = draw(start) + np.cumsum([0.0] + draw(st.lists(step, min_size=n_y - 1, max_size=n_y - 1)))
    fp = draw(start) + np.cumsum([0.0] + draw(st.lists(step, min_size=n_y - 1, max_size=n_y - 1)))
    x = np.empty(n_cols)
    for j in range(n_cols):
        kind = draw(st.sampled_from(["inside", "node", "first", "last", "below", "above"]))
        if kind == "inside":
            x[j] = draw(st.floats(xp[0, j], xp[-1, j]))
        elif kind == "node":
            x[j] = xp[draw(st.integers(0, n_y - 1)), j]
        elif kind == "first":
            x[j] = xp[0, j]
        elif kind == "last":
            x[j] = xp[-1, j]
        elif kind == "below":
            x[j] = xp[0, j] - draw(st.floats(1e-9, 1.0))
        else:
            x[j] = xp[-1, j] + draw(st.floats(1e-9, 1.0))
    return x, xp, fp


@settings(max_examples=300, deadline=None)
@given(case=columns())
def test_column_inversion_equals_np_interp_per_node(case):
    x, xp, fp = case
    expected = np.array([np.interp(x[j], xp[:, j], fp) for j in range(x.size)])
    assert _bits(_interp_columns(x, xp, fp)) == _bits(expected)


@pytest.mark.parametrize("orientation", [1.0, -1.0])
def test_invert_level_returns_grid_positions_on_curve_nodes(orientation):
    lat = build_binomial(1.0, 30)
    s = orientation * (0.8 * lat.w_values(30) + 0.3 * np.maximum(lat.w_values(30), 0.0))
    ys = np.linspace(-1.5, 1.5, 13)
    driver = drifted_quadratic_driver(1.0, 0.3)
    curve = PositionCurve(lat, driver, s, y_grid=ys)
    rows = [NodeProcess.from_flat(lat, row.copy()) for row in curve._slab]
    for y, theta in zip(ys, recover_theta(lat, driver, s, rows, ys)):  # both ends of the hull included
        np.testing.assert_array_equal(theta.flat, np.full(theta.flat.size, y))
    mid = 0.5 * (curve._slab[3] + curve._slab[4])
    (theta,) = recover_theta(lat, driver, s, [NodeProcess.from_flat(lat, mid)], ys)
    for k in (0, 7, 29):
        stack = curve._stacks[k]
        sign = np.sign(stack[-1, 0] - stack[0, 0])  # np.interp needs increasing nodes
        level_mid = lat.split_levels(mid)[k]
        expected = [np.interp(sign * level_mid[j], sign * stack[:, j], ys) for j in range(k + 1)]
        assert _bits(theta.values(k)) == _bits(np.array(expected))


@settings(max_examples=40, deadline=None)
@given(
    n_rows=st.integers(2, 6),
    data=st.data(),
    n=st.integers(2, 30),
    gamma=st.floats(0.2, 3.0),
    factor=st.floats(1.01, 3.0),
)
def test_one_row_over_the_step_size_guard_stops_the_batch(n_rows, data, n, gamma, factor):
    lat = build_binomial(1.0, n)
    w = lat.w_values(n)
    # the entropic slope is gamma |z|, and the payoff c W has z = -c
    safe = 0.5 / (gamma * lat.grid.sqrt_dt)
    scales = data.draw(st.lists(st.floats(-safe, safe), min_size=n_rows, max_size=n_rows))
    bad = data.draw(st.integers(0, n_rows - 1))
    scales[bad] = factor / (gamma * lat.grid.sqrt_dt)
    rows = np.array([c * w for c in scales])
    driver = entropic_driver(gamma)
    with pytest.raises(StepSizeViolation) as batch:
        _all_levels(lat, driver, rows)
    with pytest.raises(StepSizeViolation) as single:
        solve_bsde(lat, driver, rows[bad])
    assert batch.value.level == single.value.level == n - 1
    for i in range(n_rows):
        if i != bad:
            solve_bsde(lat, driver, rows[i])


def test_column_inversion_on_a_node_of_an_infinitely_steep_segment():
    # the slope overflows, so only the exact-node rule gives a finite value
    xp = np.array([[0.0, -1.0], [5e-324, 5e-324], [1.0, 1.0]])
    fp = np.array([0.0, 1.0, 2.0])
    x = np.array([0.0, 5e-324])
    expected = np.array([np.interp(x[j], xp[:, j], fp) for j in range(2)])
    with np.errstate(over="ignore", invalid="ignore"):
        got = _interp_columns(x, xp, fp)
    assert _bits(got) == _bits(expected)
    np.testing.assert_array_equal(got, [0.0, 1.0])
