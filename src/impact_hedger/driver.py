"""Driver functions g(t, z) generating the nonlinear evaluations.

Every driver is convex in z and normalized so that g(t, 0) = 0.  The
structural flags (positively homogeneous / differentiable) are what the
solvers branch on, so constructors set them rather than leaving them to be
guessed downstream.
"""
from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

from .errors import InvalidArgument, UnsupportedOperation

TimeFn = Callable[[float], float]


def _as_time_fn(value: float | TimeFn) -> TimeFn:
    if callable(value):
        return value
    v = float(value)
    return lambda t: v


@dataclass(frozen=True)
class Driver:
    """A convex driver g(t, z) with optional gradient and structure flags.

    Contract: ``g`` and ``g_z`` act elementwise on arrays of any shape, so
    ``g(t, z)[i]`` depends on ``z[i]`` alone.  The backward sweep relies on
    it to solve a whole stack of terminal payoffs at once, one row each.
    """

    kind: str
    g: Callable[[float, np.ndarray], np.ndarray]
    g_z: Callable[[float, np.ndarray], np.ndarray] | None
    is_homogeneous: bool
    is_differentiable: bool
    # gradient of the form g_z(t, z) = a(t) * z + b(t), when it exists
    affine_grad: tuple[TimeFn, TimeFn] | None = None

    @property
    def kinked(self) -> bool:
        """Homogeneous with a kink at 0: solved on the unit-payoff cone, not by the FOC."""
        return not self.is_differentiable and self.is_homogeneous

    def grad(self, t: float, z: float | np.ndarray) -> float | np.ndarray:
        """(Sub)gradient selection g_z(t, z).

        At kinks the element 0 is returned whenever 0 lies in the
        subgradient interval, otherwise the interval midpoint.
        """
        if self.g_z is None:
            raise UnsupportedOperation(
                f"driver kind {self.kind!r} does not expose a gradient"
            )
        arr = np.asarray(z, dtype=float)
        out = np.asarray(self.g_z(t, arr), dtype=float)
        if np.isscalar(z) or np.ndim(z) == 0:
            return float(out)
        return out

    def lipschitz_slope(self, t: float, z: np.ndarray) -> np.ndarray:
        """|g_z(t, z)| per element, for the step-size guard.  Without a gradient
        only a positively homogeneous driver has it: |g(t, z)| / |z|."""
        if self.g_z is not None:
            return np.abs(np.asarray(self.g_z(t, np.asarray(z, dtype=float))))
        if not self.is_homogeneous:  # a secant can undershoot |g_z|: by half for z^2
            raise UnsupportedOperation(
                f"driver kind {self.kind!r} exposes no gradient to bound its slope by"
            )
        z = np.asarray(z, dtype=float)
        out = np.zeros_like(z)
        nz = z != 0.0
        out[nz] = np.abs(np.asarray(self.g(t, z))[nz] / z[nz])
        return out

    def affine_grad_coeffs(self, t: float) -> tuple[float, float] | None:
        """Coefficients (a, b) of g_z(t, z) = a z + b, if the gradient is affine."""
        if self.affine_grad is None:
            return None
        afn, bfn = self.affine_grad
        return float(afn(t)), float(bfn(t))


def zero_driver() -> Driver:
    """g = 0: the evaluation is the plain conditional expectation."""
    return Driver(
        kind="zero",
        g=lambda t, z: np.zeros_like(z),
        g_z=lambda t, z: np.zeros_like(z),
        is_homogeneous=True,
        is_differentiable=True,
        affine_grad=(_as_time_fn(0.0), _as_time_fn(0.0)),
    )


def linear_driver(nu: float | TimeFn) -> Driver:
    """g = nu_t z: evaluation under the tilted (risk-neutral) measure."""
    nu_fn = _as_time_fn(nu)
    return Driver(
        kind="linear",
        g=lambda t, z: nu_fn(t) * z,
        g_z=lambda t, z: np.full_like(z, nu_fn(t)),
        is_homogeneous=True,
        is_differentiable=True,
        affine_grad=(_as_time_fn(0.0), nu_fn),
    )


def quadratic_driver(alpha: float) -> Driver:
    """g = alpha z^2."""
    if alpha < 0:
        raise InvalidArgument("alpha must be nonnegative")

    def g(t, z):
        return alpha * z * z

    def g_z(t, z):
        return 2.0 * alpha * z

    return Driver(
        kind="quadratic",
        g=g,
        g_z=g_z,
        is_homogeneous=False,
        is_differentiable=True,
        affine_grad=(_as_time_fn(2.0 * alpha), _as_time_fn(0.0)),
    )


def entropic_driver(gamma: float) -> Driver:
    """Driver of the entropic evaluation -(1/gamma) log E[exp(-gamma X)]
    with risk aversion gamma: the quadratic driver (gamma / 2) z^2."""
    if not gamma > 0:
        raise InvalidArgument("gamma must be positive")
    return replace(quadratic_driver(0.5 * gamma), kind="entropic")


def drifted_quadratic_driver(gamma: float, eta: float | TimeFn) -> Driver:
    """g = (1/2) gamma z^2 - eta_t z: entropic pricing under a drifted measure."""
    if not gamma > 0:
        raise InvalidArgument("gamma must be positive")
    eta_fn = _as_time_fn(eta)

    def g(t, z):
        return 0.5 * gamma * z * z - eta_fn(t) * z

    def g_z(t, z):
        return gamma * z - eta_fn(t)

    return Driver(
        kind="drifted-quadratic",
        g=g,
        g_z=g_z,
        is_homogeneous=False,
        is_differentiable=True,
        affine_grad=(_as_time_fn(gamma), lambda t: -eta_fn(t)),
    )


def homogeneous_driver(kappa: float) -> Driver:
    """g = kappa |z|: positively homogeneous, good-deal-bound style driver.

    The gradient selection at z = 0 returns 0, which lies in the
    subgradient interval [-kappa, kappa].
    """
    if kappa < 0:
        raise InvalidArgument("kappa must be nonnegative")

    def g(t, z):
        return kappa * np.abs(z)

    def g_z(t, z):
        return kappa * np.sign(z)

    return Driver(
        kind="homogeneous",
        g=g,
        g_z=g_z,
        is_homogeneous=True,
        is_differentiable=False,
    )


def custom_driver(
    g: Callable[[float, np.ndarray], np.ndarray],
    g_z: Callable[[float, np.ndarray], np.ndarray] | None = None,
    *,
    is_homogeneous: bool = False,
) -> Driver:
    """Wrap user callables: differentiable when ``g_z`` is given, homogeneous as flagged."""
    return Driver(
        kind="custom",
        g=lambda t, z: np.asarray(g(t, z), dtype=float),
        g_z=None if g_z is None else (lambda t, z: np.asarray(g_z(t, z), dtype=float)),
        is_homogeneous=is_homogeneous,
        is_differentiable=g_z is not None,
    )

