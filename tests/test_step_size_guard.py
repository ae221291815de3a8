"""Every explicit backward sweep runs under the step-size guard.

The explicit scheme is monotone (the comparison principle: a larger
terminal value never gives a smaller evaluation) only while the slope of
its driver in z stays below 1 / sqrt(dt).  ``gexpect._sweep_levels`` takes
that slope from every caller's step callback; here the two sweeps of the (zeta, M) pair are
checked: the CARA pair, whose slope is |gamma_a (H + M)|, and the Picard
pair, whose slope is |H + M| (|psi2| + |psi2 - 1/psi1|).  The pair is swept
from a drawn terminal instead of 0, by handing ``_sweep_levels`` that
terminal, so the solvers' own drivers and slopes are what is tested.
"""
from contextlib import contextmanager
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from impact_hedger import (
    build_binomial,
    cara_utility,
    custom_driver,
    custom_utility,
    drifted_quadratic_driver,
    homogeneous_driver,
    solve_bsde,
    solve_fbsde_cara,
    solve_fbsde_picard,
)
from impact_hedger import optimizer
from impact_hedger.errors import StepSizeViolation, UnsupportedOperation

SETTINGS = settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])

EXP_MIX = custom_utility(
    u=lambda x: -(np.exp(-x) + np.exp(-3.0 * x)) / 2.0,
    u1=lambda x: (np.exp(-x) + 3.0 * np.exp(-3.0 * x)) / 2.0,
    u2=lambda x: -(np.exp(-x) + 9.0 * np.exp(-3.0 * x)) / 2.0,
    u3=lambda x: (np.exp(-x) + 27.0 * np.exp(-3.0 * x)) / 2.0,
)


def _smooth_driver(c: float):
    """g = z^2 / 2 + c (sqrt(1 + z^2) - 1): convex, gradient not affine."""
    return custom_driver(
        lambda t, z: z * z / 2.0 + c * (np.sqrt(1.0 + z * z) - 1.0),
        lambda t, z: z + c * z / np.sqrt(1.0 + z * z),
    )


def _one_step_desk():
    # H is about eta / (gamma + gamma_a) = 3.3e5 on the only level
    return build_binomial(1.0, 1), drifted_quadratic_driver(1.0, 1e6)


def test_the_cara_pair_refuses_a_step_over_the_guard_at_level_0():
    lat, driver = _one_step_desk()
    with pytest.raises(StepSizeViolation, match="at level 0") as exc:
        solve_fbsde_cara(lat, driver, 2.0, 0.0)
    assert exc.value.level == 0


@pytest.mark.parametrize("utility", [cara_utility(2.0), EXP_MIX], ids=["cara", "exp_mix"])
def test_the_picard_pair_refuses_a_step_over_the_guard_at_level_0(utility):
    lat, driver = _one_step_desk()
    with pytest.raises(StepSizeViolation, match="at level 0") as exc:
        solve_fbsde_picard(lat, driver, utility, 0.0)
    assert exc.value.level == 0


@contextmanager
def _pair_from(terminal):
    """Sweep the solvers' (zeta, M) pair from ``terminal`` instead of 0."""
    sweep = optimizer._sweep_levels
    with mock.patch.object(
        optimizer, "_sweep_levels", lambda lat, _, step: sweep(lat, terminal, step)
    ):
        yield


def _cara_pi(lat, driver, gamma_a, terminal):
    with _pair_from(terminal):
        return solve_fbsde_cara(lat, driver, gamma_a, 0.0).zeta.flat


def _picard_pi(lat, driver, utility, x0, terminal):
    # one pass against the constant wealth x0: the pair's driver is frozen
    x_iter = np.full(lat.offsets[-1], x0)
    with _pair_from(terminal):
        return optimizer._picard_pass(lat, driver, utility, x_iter, None)[0].flat


@st.composite
def ordered_terminals(draw, lat):
    """Terminals xi <= xi', equal at some nodes."""
    size = lat.level_size(lat.n_steps)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    xi = draw(st.floats(0.1, 4.0)) * rng.normal(size=size)
    bump = draw(st.floats(0.01, 4.0)) * rng.uniform(size=size)
    bump[rng.uniform(size=size) < 0.3] = 0.0
    return xi, xi + bump


def _assert_ordered(run, xi, xi_up):
    """Pi <= Pi' node by node, unless a sweep stops at its guard."""
    try:
        lo, hi = run(xi), run(xi_up)
    except StepSizeViolation:
        return
    assert np.all(lo <= hi + 1e-12 * (1.0 + np.abs(hi)))


lattices = st.builds(build_binomial, st.floats(0.2, 2.0), st.integers(1, 6))
pair_drivers = st.one_of(
    st.tuples(st.floats(0.2, 2.0), st.floats(-1.0, 1.0)).map(lambda p: drifted_quadratic_driver(*p)),
    st.floats(0.0, 0.5).map(_smooth_driver),
)


@SETTINGS
@given(
    data=st.data(),
    lat=lattices,
    driver=st.one_of(pair_drivers, st.floats(0.05, 0.5).map(homogeneous_driver)),
    gamma_a=st.floats(0.5, 3.0),
)
def test_the_guarded_cara_pair_keeps_the_comparison_principle(data, lat, driver, gamma_a):
    xi, xi_up = data.draw(ordered_terminals(lat))
    _assert_ordered(lambda term: _cara_pi(lat, driver, gamma_a, term), xi, xi_up)


@SETTINGS
@given(
    data=st.data(),
    lat=lattices,
    driver=pair_drivers,
    utility=st.one_of(st.floats(0.5, 3.0).map(cara_utility), st.just(EXP_MIX)),
    x0=st.floats(-0.5, 0.5),
)
def test_the_guarded_picard_pair_keeps_the_comparison_principle(data, lat, driver, utility, x0):
    xi, xi_up = data.draw(ordered_terminals(lat))
    _assert_ordered(lambda term: _picard_pi(lat, driver, utility, x0, term), xi, xi_up)


def test_a_driver_with_neither_gradient_nor_homogeneity_is_refused_by_the_guard():
    # the secant |g(z) - g(0)| / |z| of g = z^2 is |z|, half of |g_z|: with
    # it, the terminal [0, 1.5] priced at 0.1875 and the larger [0, 1.6] at
    # 0.16, unguarded, while |g_z| sqrt(dt) = 1.5 refuses the step
    lat = build_binomial(0.25, 1)
    with pytest.raises(StepSizeViolation, match="= 1.5 >= 1"):
        solve_bsde(lat, custom_driver(lambda t, z: z * z, lambda t, z: 2.0 * z), [0.0, 1.5])
    for top in (1.5, 1.6):
        with pytest.raises(UnsupportedOperation, match="'custom'"):
            solve_bsde(lat, custom_driver(lambda t, z: z * z), [0.0, top])


def test_a_homogeneous_driver_without_a_gradient_sweeps_as_its_builtin():
    # on the cone |g(t, z)| / |z| = |g(t, sign z)| is the exact slope
    lat = build_binomial(1.0, 30)
    terminal = np.abs(lat.w_values(30)) - 0.4 * lat.w_values(30)
    cone = custom_driver(lambda t, z: 0.1 * np.abs(z), is_homogeneous=True)
    got, want = solve_bsde(lat, cone, terminal), solve_bsde(lat, homogeneous_driver(0.1), terminal)
    assert got.pi.flat.tobytes() == want.pi.flat.tobytes()
    assert got.z.flat.tobytes() == want.z.flat.tobytes()
