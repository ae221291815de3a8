import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from impact_hedger import (
    custom_driver,
    drifted_quadratic_driver,
    entropic_driver,
    homogeneous_driver,
    linear_driver,
    quadratic_driver,
    zero_driver,
)
from impact_hedger.errors import UnsupportedOperation

ALL_BUILTINS = [
    zero_driver(),
    linear_driver(0.2),
    quadratic_driver(0.5),
    entropic_driver(1.0),
    drifted_quadratic_driver(1.0, 0.3),
    homogeneous_driver(0.1),
]


@pytest.mark.parametrize(
    "drv, kinked",
    [
        *((drv, drv.kind == "homogeneous") for drv in ALL_BUILTINS),
        (custom_driver(lambda t, z: np.abs(z)), False),
        (custom_driver(lambda t, z: np.abs(z), is_homogeneous=True), True),
        (custom_driver(lambda t, z: z * z, lambda t, z: 2.0 * z), False),
        (custom_driver(lambda t, z: 0.3 * z, lambda t, z: 0.3 + 0.0 * z, is_homogeneous=True), False),
    ],
    ids=[*(drv.kind for drv in ALL_BUILTINS), "custom", "custom_cone", "custom_smooth", "custom_linear"],
)
def test_kinked_is_homogeneous_without_a_gradient(drv, kinked):
    assert drv.kinked is kinked


def test_eval_examples():
    assert zero_driver().g(0.3, 17.0) == 0.0
    # g = gamma z^2 / 2 - eta z at z = 0.1
    assert drifted_quadratic_driver(1.0, 0.3).g(0.0, 0.1) == pytest.approx(-0.025)
    assert homogeneous_driver(0.1).g(0.5, -2.0) == pytest.approx(0.2)


def test_grad_examples():
    assert drifted_quadratic_driver(1.0, 0.3).grad(0.0, 0.1) == pytest.approx(-0.2)
    # 0 is in the subgradient interval at the kink
    assert homogeneous_driver(0.1).grad(0.0, 0.0) == 0.0
    assert linear_driver(0.2).grad(0.7, -3.0) == pytest.approx(0.2)


def test_grad_without_callable_raises():
    drv = custom_driver(lambda t, z: np.abs(z), is_homogeneous=True)
    with pytest.raises(UnsupportedOperation):
        drv.grad(0.0, 1.0)


def test_time_dependent_coefficients():
    drv = linear_driver(lambda t: 0.1 + t)
    assert drv.grad(0.0, 5.0) == pytest.approx(0.1)
    assert drv.grad(0.5, 5.0) == pytest.approx(0.6)


TIMES = st.floats(0.0, 2.0)
ZS = st.floats(-50.0, 50.0)


@pytest.mark.parametrize("drv", ALL_BUILTINS, ids=lambda d: d.kind)
@settings(max_examples=200, deadline=None)
@given(t=TIMES, z1=ZS, z2=ZS, lam=st.floats(1e-3, 1e3))
def test_validate_builtins_clean(drv, t, z1, z2, lam):
    """The driver contract on drawn inputs: g(t, 0) = 0, midpoint convexity,
    positive homogeneity where flagged, and, where the gradient is affine,
    g = (1/2) a z^2 + b z."""
    def g(z):
        return float(np.asarray(drv.g(t, np.array([z])))[0])

    assert g(0.0) == 0.0
    g1, g2 = g(z1), g(z2)
    assert g(0.5 * (z1 + z2)) <= 0.5 * (g1 + g2) + 1e-12 * (1.0 + abs(g1) + abs(g2))
    if drv.is_homogeneous:
        assert g(lam * z1) == pytest.approx(lam * g1, rel=1e-14)
    coeffs = drv.affine_grad_coeffs(t)
    if coeffs is None:
        return
    a, b = coeffs
    quad, lin = 0.5 * a * z1 * z1, b * z1
    assert abs(g1 - (quad + lin)) <= 1e-15 * (abs(quad) + abs(lin))


@pytest.mark.parametrize("drv", ALL_BUILTINS, ids=lambda d: d.kind)
def test_convexity_in_z_sampled(drv):
    rng = np.random.default_rng(3)
    z1 = rng.uniform(-3, 3, 50)
    z2 = rng.uniform(-3, 3, 50)
    lam = rng.uniform(0, 1, 50)
    for t in (0.0, 0.4):
        mix = np.asarray(drv.g(t, lam * z1 + (1 - lam) * z2))
        bound = lam * np.asarray(drv.g(t, z1)) + (1 - lam) * np.asarray(drv.g(t, z2))
        assert np.all(mix <= bound + 1e-12)


@pytest.mark.parametrize(
    "drv",
    [d for d in ALL_BUILTINS if d.g_z is not None],
    ids=lambda d: d.kind,
)
def test_grad_monotone_nondecreasing(drv):
    z = np.linspace(-3.0, 3.0, 61)
    g = np.asarray(drv.grad(0.2, z))
    assert np.all(np.diff(g) >= -1e-12)


def test_entropic_equals_quadratic_exactly():
    gamma = 1.7
    ent = entropic_driver(gamma)
    quad = quadratic_driver(gamma / 2.0)
    z = np.linspace(-4, 4, 33)
    np.testing.assert_array_equal(ent.g(0.1, z), quad.g(0.1, z))


def test_homogeneity_scaling_identity():
    drv = homogeneous_driver(0.1)
    z = np.linspace(-2, 2, 9)
    for t in (0.0, 1.0):
        for lam in (0.25, 0.5, 2.0, 3.0):
            np.testing.assert_allclose(drv.g(t, lam * z), lam * drv.g(t, z), rtol=0, atol=1e-12)
