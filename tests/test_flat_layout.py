"""Whole-lattice buffers: layout, holdings recovery and the optimality check.

Every ``NodeProcess`` is one flat buffer, and the holdings recovery and
``verify_optimality`` run as whole-lattice passes over such buffers.  The
per-level code they replaced is kept here as the reference: the flat code
must give its numbers bit for bit, and raise its errors (class, message,
level) in the same order.
"""
import json
import math
import subprocess
import sys
import tracemalloc
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from impact_hedger import (
    NodeProcess,
    PositionCurve,
    WealthGrid,
    build_binomial,
    build_full_binary,
    cara_utility,
    custom_utility,
    drifted_quadratic_driver,
    entropic_driver,
    homogeneous_driver,
    quadratic_driver,
    solve_fbsde_cara,
    verify_optimality,
)
from impact_hedger import gexpect, optimizer
from impact_hedger.cli import load_config, run
from impact_hedger.errors import (
    ContractViolation,
    ExtrapolationRefused,
    ImageViolation,
    ImpactHedgerError,
    InvalidArgument,
    InversionUnavailable,
)
from impact_hedger.gexpect import _invert_level, _unit_integrands
from impact_hedger.optimizer import FbsdeSolution, recover_theta

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"

SETTINGS = settings(
    max_examples=80, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)


def _bits(a) -> bytes:
    return np.ascontiguousarray(a, dtype=float).tobytes()


@st.composite
def lattices(draw, max_recombining=12, max_binary=6):
    horizon = draw(st.floats(0.2, 2.0))
    if draw(st.booleans()):
        return build_full_binary(horizon, draw(st.integers(1, max_binary)))
    return build_binomial(horizon, draw(st.integers(1, max_recombining)))


# -- reference: the per-level code the flat passes replaced -------------------


def ref_interp_columns(x, xp, fp):
    cols = np.arange(xp.shape[1])
    i = np.clip(np.count_nonzero(xp <= x, axis=0) - 1, 0, xp.shape[0] - 2)
    x0 = xp[i, cols]
    slope = (fp[i + 1] - fp[i]) / (xp[i + 1, cols] - x0)
    out = np.where(x == x0, fp[i], slope * (x - x0) + fp[i])
    out = np.where(x < xp[0], fp[0], out)
    return np.where(x >= xp[-1], fp[-1], out)


def ref_invert_level(stack, y_grid, k, targets):
    diffs = np.diff(stack, axis=0)
    if np.all(diffs > 0):
        direction = 1.0
    elif np.all(diffs < 0):
        direction = -1.0
    else:
        raise InversionUnavailable(f"position curve is not monotone in y at level {k}")
    t = np.asarray(targets, dtype=float)
    lo = np.min(stack, axis=0)
    hi = np.max(stack, axis=0)
    if np.any(t < lo - 1e-12) or np.any(t > hi + 1e-12):
        raise ImageViolation("integrand target outside the attainable image")
    s = stack if direction > 0 else -stack
    tt = t if direction > 0 else -t
    return ref_interp_columns(tt, s, y_grid)


def ref_invert(lat, slab, y_grid, targets):
    """``ref_invert_level`` over levels 0..n-1 of a ``(n_y, nodes)`` buffer:
    the lowest failing level raises."""
    off = lat.offsets
    return np.concatenate(
        [
            ref_invert_level(slab[:, off[k] : off[k + 1]], y_grid, k, targets[off[k] : off[k + 1]])
            for k in range(lat.n_steps)
        ]
    )


def ref_invert_cone(zm, zp, targets):
    t = np.asarray(targets, dtype=float)
    out = np.zeros_like(t)
    with np.errstate(divide="ignore", invalid="ignore"):
        cand_pos = np.where(zm != 0.0, t / zm, np.nan)
        cand_neg = np.where(zp != 0.0, -t / zp, np.nan)
    nonzero = t != 0.0
    take_pos = nonzero & (cand_pos > 0)
    take_neg = nonzero & ~take_pos & (cand_neg < 0)
    bad = nonzero & ~take_pos & ~take_neg
    if np.any(bad):
        raise ImageViolation("integrand target outside the homogeneous image cone")
    out[take_pos] = cand_pos[take_pos]
    out[take_neg] = cand_neg[take_neg]
    return out


def ref_verify_optimality(sol, driver, utility, z_minus=None, z_plus=None, band_tol=1e-10):
    lattice = sol.x.lattice
    grid = lattice.grid
    n = lattice.n_steps
    homogeneous = (
        driver.is_homogeneous
        and not driver.is_differentiable
        and z_minus is not None
        and z_plus is not None
        and sol.theta is not None
    )
    w_levels = [sol.x.values(k) + sol.zeta.values(k) for k in range(n + 1)]
    u1_levels = [np.asarray(utility.u1(w)) for w in w_levels]
    mart = 0.0
    foc = 0.0 if driver.is_differentiable else None
    hom_eq = 0.0 if homogeneous else None
    slack1 = slack2 = np.inf
    for k in range(n):
        t = grid.t(k)
        w, u1 = w_levels[k], u1_levels[k]
        pred = lattice.conditional_expectation(u1_levels[k + 1])
        mart = max(mart, float(np.max(np.abs(pred - u1))))
        u2 = np.asarray(utility.u2(w))
        h = sol.h.values(k)
        m = sol.m.values(k)
        if foc is not None:
            res = -u1 * np.asarray(driver.grad(t, h)) + u2 * (h + m)
            foc = max(foc, float(np.max(np.abs(res))))
        if homogeneous:
            theta = sol.theta.values(k)
            zm = z_minus.values(k)
            zp = z_plus.values(k)
            gm = np.asarray(driver.g(t, zm))
            gp = np.asarray(driver.g(t, zp))
            traded = np.abs(theta) > band_tol
            if np.any(traded):
                sgn = np.sign(theta[traded])
                z_side = np.where(sgn > 0, zm[traded], zp[traded])
                g_side = np.where(sgn > 0, gm[traded], gp[traded])
                res = (
                    -u1[traded] * sgn * g_side
                    + sgn * z_side * u2[traded] * (h[traded] + m[traded])
                )
                hom_eq = max(hom_eq, float(np.max(np.abs(res))))
            idle = ~traded
            if np.any(idle):
                s1 = u1[idle] * gm[idle] - u2[idle] * m[idle] * zm[idle]
                s2 = u1[idle] * gp[idle] - u2[idle] * m[idle] * zp[idle]
                slack1 = min(slack1, float(np.min(s1)))
                slack2 = min(slack2, float(np.min(s2)))
    hom_slack = None
    if homogeneous:
        hom_slack = (
            slack1 if math.isfinite(slack1) else 0.0,
            slack2 if math.isfinite(slack2) else 0.0,
        )
    return mart, foc, hom_eq, hom_slack


def _outcome(fn, *args):
    """A call's result, or the class, message and level of what it raised."""
    try:
        return fn(*args)
    except (InversionUnavailable, ImageViolation) as exc:
        return (type(exc), str(exc), getattr(exc, "level", None))


# -- layout ---------------------------------------------------------------


@SETTINGS
@given(lat=lattices(), seed=st.integers(0, 2**32 - 1), short=st.booleans())
def test_levels_are_views_of_one_buffer(lat, seed, short):
    rng = np.random.default_rng(seed)
    n_levels = lat.n_steps if short else lat.n_steps + 1
    levels = [rng.normal(size=lat.level_size(k)) for k in range(n_levels)]
    proc = NodeProcess(lat, levels)
    assert proc.flat.shape == (lat.offsets[n_levels],)
    for k, level in enumerate(proc.levels):
        assert np.shares_memory(level, proc.flat)
        assert _bits(level) == _bits(levels[k])
        assert proc.values(k) is level
    proc.levels[-1][0] = 7.0
    assert proc.flat[lat.offsets[n_levels - 1]] == 7.0


@SETTINGS
@given(lat=lattices(), seed=st.integers(0, 2**32 - 1), cut=st.integers(0, 1))
def test_sup_diff_and_sup_abs_equal_the_per_level_max(lat, seed, cut):
    rng = np.random.default_rng(seed)
    a = NodeProcess(lat, [rng.normal(size=lat.level_size(k)) for k in range(lat.n_steps + 1)])
    b = NodeProcess(lat, [rng.normal(size=lat.level_size(k)) for k in range(lat.n_steps + 1 - cut)])
    shared = min(a.n_levels, b.n_levels)
    per_level = max(
        float(np.max(np.abs(a.levels[k] - b.levels[k]))) for k in range(shared)
    )
    assert a.sup_diff(b) == per_level == b.sup_diff(a)
    assert a.sup_abs() == max(float(np.max(np.abs(lv))) for lv in a.levels)


@pytest.mark.parametrize("lat", [build_binomial(1.0, 9), build_full_binary(1.0, 5)])
def test_flat_children_are_the_split_of_the_next_level(lat):
    values = np.arange(float(lat.offsets[-1]))
    down, up = lat.children
    off = lat.offsets
    for k in range(lat.n_steps):
        want_down, want_up = lat.split_children(values[off[k + 1] : off[k + 2]])
        np.testing.assert_array_equal(values[down[off[k] : off[k + 1]]], want_down)
        np.testing.assert_array_equal(values[up[off[k] : off[k + 1]]], want_up)
        np.testing.assert_array_equal(lat.level_index[off[k] : off[k + 1]], k)


# -- holdings recovery ------------------------------------------------------


def _level_outcome(k, z, y_grid, targets):
    """``_invert_level`` on one target, its error as ``_outcome`` gives it."""
    (got,) = _invert_level(k, z, y_grid, targets[None, :])
    if isinstance(got, Exception):
        return (type(got), str(got), getattr(got, "level", None))
    return got


@st.composite
def curve_cases(draw):
    """Stacks with increasing, decreasing and (rarely) non-monotone levels,
    targets on nodes, between nodes and just outside the hull, and (rarely)
    a target outside the attainable image."""
    lat = draw(lattices())
    n_y = draw(st.integers(2, 7))
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    y_grid = np.cumsum(rng.uniform(0.05, 1.0, n_y)) - 1.0
    n = lat.n_steps
    slab = np.empty((n_y, lat.offsets[n]))
    targets = np.empty(lat.offsets[n])
    broken = draw(st.sampled_from(["none", "none", "monotone", "image", "both"]))
    bad_monotone = draw(st.integers(0, n - 1)) if broken in ("monotone", "both") else None
    bad_image = draw(st.integers(0, n - 1)) if broken in ("image", "both") else None
    for k in range(n):
        cols = slice(lat.offsets[k], lat.offsets[k + 1])
        size = lat.level_size(k)
        sign = draw(st.sampled_from([1.0, -1.0]))
        steps = rng.uniform(1e-3, 2.0, (n_y - 1, size))
        if k == bad_monotone:
            steps[rng.integers(n_y - 1), rng.integers(size)] *= -1.0
        stack = sign * (rng.uniform(-3.0, 3.0, size) + np.vstack([np.zeros(size), np.cumsum(steps, 0)]))
        slab[:, cols] = stack
        lo, hi = stack.min(axis=0), stack.max(axis=0)
        kinds = rng.integers(0, 4, size)
        r = rng.integers(0, n_y, size)
        r1 = np.minimum(r + 1, n_y - 1)
        j = np.arange(size)
        between = stack[r, j] + rng.uniform(0.0, 1.0, size) * (stack[r1, j] - stack[r, j])
        t = np.where(kinds == 0, stack[r, j], between)
        t = np.where(kinds == 2, lo - rng.uniform(0.0, 1e-12, size), t)
        t = np.where(kinds == 3, hi + rng.uniform(0.0, 1e-12, size), t)
        if k == bad_image:
            t[rng.integers(size)] = hi[0] + 1e-9 if size == 1 else hi.max() + 1e-9
        targets[cols] = t
    return lat, slab, y_grid, targets


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(case=curve_cases())
def test_flat_inversion_matches_the_per_level_inversion(case):
    lat, slab, y_grid, targets = case
    off = lat.offsets
    for k in range(lat.n_steps):
        stack = slab[:, off[k] : off[k + 1]]
        t = targets[off[k] : off[k + 1]]
        want = _outcome(ref_invert_level, stack, y_grid, k, t)
        got = _level_outcome(k, stack, y_grid, t)
        if isinstance(want, tuple):
            assert got == want
        else:
            assert _bits(got) == _bits(want)


@SETTINGS
@given(
    lat=lattices(),
    kappa=st.floats(0.05, 0.5),
    a=st.floats(-1.5, 1.5).filter(lambda v: abs(v) > 0.05),
    seed=st.integers(0, 2**32 - 1),
    outside=st.booleans(),
)
def test_flat_cone_inversion_matches_the_per_level_inversion(lat, kappa, a, seed, outside):
    rng = np.random.default_rng(seed)
    s = a * lat.w_values(lat.n_steps) + 0.2 * np.maximum(lat.w_values(lat.n_steps), 0.0)
    curve = PositionCurve(lat, homogeneous_driver(kappa), s)
    zm, zp = curve.z_minus.flat, curve.z_plus.flat
    y = rng.normal(size=zm.size)
    targets = np.where(y > 0, y * zm, -y * zp)
    targets[rng.uniform(size=zm.size) < 0.2] = 0.0
    if outside:
        targets[rng.integers(zm.size)] = rng.normal()
    off = lat.offsets
    per_level = [
        _outcome(ref_invert_cone, zm[off[k] : off[k + 1]], zp[off[k] : off[k + 1]], targets[off[k] : off[k + 1]])
        for k in range(lat.n_steps)
    ]
    errors = [w for w in per_level if isinstance(w, tuple)]
    got = _outcome(lambda: curve.invert(NodeProcess.from_flat(lat, targets)).flat)
    if errors:
        assert got == errors[0]
    else:
        assert _bits(got) == _bits(np.concatenate(per_level))


def test_only_the_cone_inverts_on_a_position_curve():
    # a y-grid curve keeps its buffer for lookups; its holdings come from recover_theta
    lat = build_binomial(1.0, 6)
    s = lat.w_values(6)
    curve = PositionCurve(lat, drifted_quadratic_driver(1.0, 0.3), s, y_grid=np.linspace(-1.0, 1.0, 5))
    h = NodeProcess.from_flat(lat, curve._slab[1].copy())
    with pytest.raises(ContractViolation, match="recover_theta"):
        curve.invert(h)
    with pytest.raises(ContractViolation, match="recover_theta"):
        curve.invert_level(3, h.values(3))
    cone = PositionCurve(lat, homogeneous_driver(0.2), s)
    targets = cone.z_process(0.7).flat
    want = ref_invert_cone(cone.z_minus.flat, cone.z_plus.flat, targets)
    assert _bits(cone.invert(NodeProcess.from_flat(lat, targets)).flat) == _bits(want)
    off = lat.offsets
    assert _bits(cone.invert_level(3, targets[off[3] : off[4]])) == _bits(want[off[3] : off[4]])


def test_streamed_recovery_memory_is_bounded():
    # the n = 200 desk with a 121-point y-grid: one batched sweep inverted
    # level by level as it is swept, never the 19.5 MB (n_y, nodes) buffer
    # of a built curve nor a block of several levels
    cfg = load_config(SCENARIOS / "exponential.ini")
    lat = build_binomial(cfg.horizon, cfg.n_steps)
    driver = drifted_quadratic_driver(cfg.driver_params["gamma"], cfg.driver_params["eta"])
    s = lat.w_values(lat.n_steps)
    assert cfg.y_grid.size == 121 and lat.n_steps == 200
    h = solve_fbsde_cara(lat, driver, cfg.gamma_a, cfg.x0).h
    tracemalloc.start()
    try:
        recover_theta(lat, driver, s, [h], y_grid=cfg.y_grid)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2.5e6


@pytest.mark.parametrize("grid", [[0.0, np.nan, 1.0], [-1.0, 0.0, np.inf], [np.nan, np.nan]])
def test_a_non_finite_y_grid_is_refused_before_any_sweep(grid):
    lat = build_binomial(1.0, 10)
    driver = drifted_quadratic_driver(1.0, 0.3)
    s = lat.w_values(10)
    h = NodeProcess.constant(lat, 0.1, n_levels=10)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(InvalidArgument, match="y_grid entries must be finite"):
            PositionCurve(lat, driver, s, y_grid=grid)
        with pytest.raises(InvalidArgument, match="y_grid entries must be finite"):
            recover_theta(lat, driver, s, [h], y_grid=grid)


def test_recover_theta_takes_only_a_cone_as_its_curve():
    # a y-grid curve is not inverted here: those holdings come from the streamed sweep
    lat = build_binomial(1.0, 6)
    driver = drifted_quadratic_driver(1.0, 0.3)
    s = lat.w_values(6)
    y_grid = np.linspace(-1.0, 1.0, 5)
    curve = PositionCurve(lat, driver, s, y_grid=y_grid)
    h = NodeProcess.constant(lat, 0.1, n_levels=6)
    with pytest.raises(InvalidArgument, match="only a homogeneous driver's cone"):
        recover_theta(lat, driver, s, [h], y_grid, curve)


@pytest.mark.parametrize("driver", [homogeneous_driver(0.1), drifted_quadratic_driver(1.0, 0.3)])
def test_an_empty_target_list_sweeps_nothing(driver, monkeypatch):
    lat = build_binomial(1.0, 10)

    def refuse(*args):
        raise AssertionError("a position-curve sweep for no target")

    monkeypatch.setattr(gexpect, "_driver_levels", refuse)
    assert recover_theta(lat, driver, lat.w_values(10), [], np.linspace(-1.0, 1.0, 21)) == []


def _raised(fn, *args):
    """A call's result, or the class and message of the library error it raised."""
    try:
        return fn(*args)
    except ImpactHedgerError as exc:
        return (type(exc), str(exc))


@st.composite
def streamed_cases(draw):
    """A payoff, driver and y-grid with 1-3 integrand targets: on the grid
    solutions, between them and just outside the hull of each node's
    column, and (rarely) one target outside the attainable image."""
    lat = draw(lattices())
    n = lat.n_steps
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    y_grid = np.cumsum(rng.uniform(0.05, 0.4, draw(st.integers(2, 9)))) - draw(st.floats(0.0, 1.5))
    driver = draw(
        st.one_of(
            st.tuples(st.floats(0.2, 2.0), st.floats(-0.5, 0.5)).map(lambda p: drifted_quadratic_driver(*p)),
            st.floats(0.1, 1.0).map(quadratic_driver),
            st.floats(0.2, 1.5).map(entropic_driver),
        )
    )
    w = lat.w_values(n)
    # a kink steeper than the slope turns some columns of a level the other way
    s = draw(st.floats(0.3, 1.5)) * w + draw(st.floats(-2.0, 0.5)) * np.maximum(w, 0.0)
    return lat, driver, s, y_grid, rng, draw(st.integers(1, 3)), draw(st.integers(0, 6))


@settings(max_examples=120, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(case=streamed_cases())
def test_streamed_recovery_matches_the_curve_inversion(case):
    lat, driver, s, y_grid, rng, n_targets, outside = case
    curve = _raised(PositionCurve, lat, driver, s, y_grid)
    if isinstance(curve, tuple):  # the sweep itself fails: the same error streams
        h = NodeProcess.constant(lat, 0.0, n_levels=lat.n_steps)
        assert _raised(recover_theta, lat, driver, s, [h], y_grid) == curve
        return
    slab = curve._slab
    n_y, size = slab.shape
    lo, hi = slab.min(axis=0), slab.max(axis=0)
    targets = []
    for i in range(n_targets):
        kinds = rng.integers(0, 4, size)
        r = rng.integers(0, n_y, size)
        r1 = np.minimum(r + 1, n_y - 1)
        j = np.arange(size)
        between = slab[r, j] + rng.uniform(0.0, 1.0, size) * (slab[r1, j] - slab[r, j])
        t = np.where(kinds == 0, slab[r, j], between)
        t = np.where(kinds == 2, lo - rng.uniform(0.0, 1e-12, size), t)
        t = np.where(kinds == 3, hi + rng.uniform(0.0, 1e-12, size), t)
        if outside == i:  # at a node of a level drawn evenly, often below a broken one
            k = rng.integers(lat.n_steps)
            t[lat.offsets[k] + rng.integers(lat.level_size(k))] = hi.max() + 1e-9
        targets.append(NodeProcess.from_flat(lat, t))
    want = [_raised(ref_invert, lat, slab, y_grid, t.flat) for t in targets]
    got = _raised(recover_theta, lat, driver, s, targets, y_grid)
    errors = [w for w in want if isinstance(w, tuple)]
    if errors:
        assert got == errors[0]  # the first failing target, at its lowest failing level
    else:
        assert [_bits(g.flat) for g in got] == [_bits(w) for w in want]


def test_streamed_recovery_raises_for_the_first_failing_target():
    # the kinked payoff turns columns of levels 2..5 both ways; a target on
    # the grid fails at level 2, one outside the image at level 1 below it
    lat = build_binomial(1.0, 6)
    driver = drifted_quadratic_driver(1.0, 0.3)
    w = lat.w_values(6)
    s = w - 1.5 * np.maximum(w, 0.0)
    y_grid = np.linspace(-1.0, 1.0, 5)
    curve = PositionCurve(lat, driver, s, y_grid=y_grid)
    on_grid = NodeProcess.from_flat(lat, curve._slab[2].copy())
    outside = NodeProcess.from_flat(lat, curve._slab[2].copy())
    outside.flat[lat.offsets[1]] = curve._slab[:, lat.offsets[1]].max() + 1.0
    not_monotone = (InversionUnavailable, "position curve is not monotone in y at level 2")
    off_image = (ImageViolation, "integrand target outside the attainable image")
    assert _raised(ref_invert, lat, curve._slab, y_grid, on_grid.flat) == not_monotone
    assert _raised(ref_invert, lat, curve._slab, y_grid, outside.flat) == off_image
    assert _raised(recover_theta, lat, driver, s, [on_grid, outside], y_grid) == not_monotone
    assert _raised(recover_theta, lat, driver, s, [outside, on_grid], y_grid) == off_image


# -- the optimality check --------------------------------------------------


def _exp_mix():
    return custom_utility(
        u=lambda x: -(np.exp(-x) + np.exp(-3.0 * x)) / 2.0,
        u1=lambda x: (np.exp(-x) + 3.0 * np.exp(-3.0 * x)) / 2.0,
        u2=lambda x: -(np.exp(-x) + 9.0 * np.exp(-3.0 * x)) / 2.0,
        u3=lambda x: (np.exp(-x) + 27.0 * np.exp(-3.0 * x)) / 2.0,
    )


UTILITIES = {"cara": cara_utility(2.0), "exp_mix": _exp_mix()}

drivers = st.one_of(
    st.tuples(st.floats(0.2, 2.0), st.floats(-0.5, 0.5)).map(lambda p: drifted_quadratic_driver(*p)),
    st.floats(0.1, 1.0).map(quadratic_driver),
    st.floats(0.2, 1.5).map(entropic_driver),
    st.floats(0.05, 0.5).map(homogeneous_driver),
)


@SETTINGS
@given(
    lat=lattices(),
    driver=drivers,
    utility=st.sampled_from(sorted(UTILITIES)),
    seed=st.integers(0, 2**32 - 1),
    with_theta=st.booleans(),
)
def test_flat_verify_optimality_matches_the_per_level_check(lat, driver, utility, seed, with_theta):
    rng = np.random.default_rng(seed)
    n = lat.n_steps

    def proc(n_levels, scale):
        return NodeProcess.from_flat(lat, scale * rng.normal(size=lat.offsets[n_levels]))

    theta = proc(n, 1.0) if with_theta else None
    if theta is not None:
        theta.flat[rng.uniform(size=theta.flat.size) < 0.3] = 0.0  # idle nodes
    sol = FbsdeSolution(
        x=proc(n + 1, 0.5), zeta=proc(n + 1, 0.1), m=proc(n, 0.3), h=proc(n, 0.3),
        theta=theta, residuals=None,
    )
    z_minus = z_plus = None
    if driver.is_homogeneous:
        z_minus, z_plus = _unit_integrands(lat, driver, lat.w_values(n))
    spec = UTILITIES[utility]
    got = verify_optimality(sol, driver, spec, z_minus=z_minus, z_plus=z_plus)
    mart, foc, hom_eq, hom_slack = ref_verify_optimality(
        sol, driver, spec, z_minus=z_minus, z_plus=z_plus
    )
    assert _bits(got.martingale_residual) == _bits(mart)
    assert got.foc_residual is None if foc is None else _bits(got.foc_residual) == _bits(foc)
    assert (
        got.homogeneous_equality_residual is None
        if hom_eq is None
        else _bits(got.homogeneous_equality_residual) == _bits(hom_eq)
    )
    assert (
        got.homogeneous_slack is None
        if hom_slack is None
        else _bits(got.homogeneous_slack) == _bits(hom_slack)
    )


@pytest.mark.parametrize("lat", [build_binomial(0.8, 40), build_full_binary(0.8, 8)])
def test_flat_verify_optimality_on_solver_output(lat):
    # a solver's triple (residuals near zero) and a perturbed copy
    driver = drifted_quadratic_driver(1.0, 0.3)
    sol = solve_fbsde_cara(lat, driver, 2.0, 0.1)
    bumped = replace(sol, h=sol.h.map(lambda v: v + 0.05))
    for cand in (sol, bumped):
        got = verify_optimality(cand, driver, UTILITIES["cara"])
        mart, foc, _, _ = ref_verify_optimality(cand, driver, UTILITIES["cara"])
        assert (got.martingale_residual, got.foc_residual) == (mart, foc)


# -- commands ---------------------------------------------------------------

_VALUE_DESK = """\
[driver]
kind = drifted_quadratic
gamma = 0.9
eta = 0.25
[utility]
kind = cara
gamma_a = 2.0
[market]
payoff = brownian
x0 = {x0}
[numerics]
n_steps = 20
n_x = 121
x_min = -3.0
x_max = 3.0
"""


@pytest.mark.parametrize("x0", ["5", "1e300"])
def test_value_refuses_lattice_wealth_off_the_surface(tmp_path, x0):
    cfg = tmp_path / "desk.ini"
    cfg.write_text(_VALUE_DESK.format(x0=x0))
    out = tmp_path / "out"
    proc = subprocess.run(
        [sys.executable, "-m", "impact_hedger.cli", "value", "--config", str(cfg), "--out", str(out)],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 4, proc.stderr
    assert "Traceback" not in proc.stderr
    assert "level 0" in proc.stderr and "outside the surface interior" in proc.stderr

    def refuse(constant):
        raise ValueError(f"{constant} is not strict JSON")

    report = json.loads((out / "report.json").read_text(), parse_constant=refuse)
    assert report["exit_code"] == 4
    assert not report["results"]  # nothing from the bridge was reported


def test_value_names_the_level_where_wealth_leaves_the_surface(tmp_path):
    # x0 on the interior edge: the first up-move leaves it
    xgrid = WealthGrid(-3.0, 3.0, 121)
    cfg = tmp_path / "desk.ini"
    cfg.write_text(_VALUE_DESK.format(x0=repr(float(xgrid.x[xgrid.interior][-1]))))
    with pytest.raises(ExtrapolationRefused, match=r"level 1 spans .* outside the surface interior"):
        run("value", cfg, tmp_path)


@pytest.mark.parametrize(("command", "calls"), [("solve", 1), ("verify", 3)])
def test_holdings_are_recovered_only_for_written_routes(tmp_path, monkeypatch, command, calls):
    # solve writes only the Picard route; verify writes all three, and
    # one call recovers them all from one sweep
    seen = []
    recoveries = []

    def counting(lattice, driver, s, hs, *args, **kwargs):
        recoveries.append(1)
        seen.extend(hs)
        return recover_theta(lattice, driver, s, hs, *args, **kwargs)

    monkeypatch.setattr(optimizer, "recover_theta", counting)
    cfg = tmp_path / "desk.ini"
    cfg.write_text(
        (SCENARIOS / "exponential.ini").read_text().replace("n_steps = 200", "n_steps = 30")
    )
    report = run(command, cfg, tmp_path)
    assert report.exit_code == 0
    assert len(seen) == calls
    assert len(recoveries) == 1
