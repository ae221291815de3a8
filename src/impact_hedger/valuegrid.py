"""Dynamic programming for the value function V(t, x) on a time-wealth grid.

Deterministic-coefficient Markov case: V is deterministic, its martingale
coefficient field vanishes, and the surface satisfies dV/dt + L V = 0 with

    L V = sup over attainable integrands of -g(t, Z) V_x + (1/2) Z^2 V_xx.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .driver import Driver
from .errors import (
    ConcavityViolation,
    ControlBracketExhausted,
    ExtrapolationRefused,
    InvalidArgument,
    InverseDomainError,
    NumericOverflow,
    RootNotFound,
)
from .lattice import ControlSpec, Lattice, NodeProcess, TimeGrid, WealthGrid, _forward_wealth
from .optimizer import FbsdeSolution, UtilitySpec, _decreasing_root, verify_optimality


@dataclass
class ValueSurface:
    """V on the time-wealth grid with its derivatives, each (n_t + 1, n_x).

    A derivative not passed in is computed once from ``v``: the wealth
    derivatives by central stencils, ``v_t`` by central time differences,
    0 on the first and last slice.
    """

    tgrid: TimeGrid
    xgrid: WealthGrid
    v: np.ndarray
    control: ControlSpec
    v_x: np.ndarray | None = None
    v_xx: np.ndarray | None = None
    v_t: np.ndarray | None = None

    def __post_init__(self) -> None:
        expected = (self.tgrid.n_steps + 1, self.xgrid.n_x)
        if self.v.shape != expected:
            raise InvalidArgument(f"surface shape {self.v.shape}, expected {expected}")
        if self.v_x is None:
            self.v_x = _central_first(self.v, self.xgrid.dx)
        if self.v_xx is None:
            self.v_xx = _central_second(self.v, self.xgrid.dx)
        if self.v_t is None:
            self.v_t = np.zeros_like(self.v)
            self.v_t[1:-1] = (self.v[2:] - self.v[:-2]) / (2.0 * self.tgrid.dt)

    def check_shape_in_wealth(self) -> None:
        """Interior monotonicity and strict concavity in x, with slack 1e-10."""
        rows = self.v[:, self.xgrid.interior]
        falls = np.any(np.diff(rows) <= -1e-10, axis=1)
        bends = np.any(np.diff(rows, n=2) >= 1e-10, axis=1)
        bad = np.flatnonzero(falls | bends)
        if bad.size:
            k = bad[0]
            shape = "increasing in wealth" if falls[k] else "strictly concave"
            raise ConcavityViolation(f"surface not {shape} at slice {k}")


def _central_first(v: np.ndarray, dx: float) -> np.ndarray:
    """Central first difference along the last (wealth) axis, one-sided at the ends."""
    out = np.empty_like(v)
    out[..., 1:-1] = (v[..., 2:] - v[..., :-2]) / (2.0 * dx)
    out[..., 0] = (v[..., 1] - v[..., 0]) / dx
    out[..., -1] = (v[..., -1] - v[..., -2]) / dx
    return out


def _central_second(v: np.ndarray, dx: float) -> np.ndarray:
    """Central second difference along the last axis, copied out to the ends."""
    out = np.empty_like(v)
    out[..., 1:-1] = (v[..., 2:] - 2.0 * v[..., 1:-1] + v[..., :-2]) / (dx * dx)
    out[..., 0] = out[..., 1]
    out[..., -1] = out[..., -2]
    return out


def _stencils(row: np.ndarray, dx: float, name: str, x: np.ndarray) -> tuple:
    """The wealth stencils of the slice ``row`` of ``name`` on the grid ``x``,
    refused at the first x where the row or a stencil is not finite."""
    with np.errstate(over="ignore", invalid="ignore"):  # refused just below
        vx, vxx = _central_first(row, dx), _central_second(row, dx)
    for label, values in ((name, row), (f"{name}_x", vx), (f"{name}_xx", vxx)):
        i = int(np.argmax(~np.isfinite(values)))
        if not np.isfinite(values[i]):
            raise NumericOverflow(f"{label} is {values[i]} at wealth x = {x[i]:.6g}")
    return vx, vxx


def _pchip_end_slope(h0, h1, m0, m1):
    """One-sided three-point end slope, clipped to keep the data's shape."""
    d = ((2 * h0 + h1) * m0 - h0 * m1) / (h0 + h1)
    d = np.where(np.sign(d) != np.sign(m0), 0.0, d)
    return np.where((np.sign(m0) != np.sign(m1)) & (np.abs(d) > 3.0 * np.abs(m0)), 3.0 * m0, d)


def _pchip(
    x: np.ndarray, y: np.ndarray, xq: np.ndarray, rows: np.ndarray | None = None
) -> np.ndarray:
    """Monotone cubic (Fritsch-Carlson) interpolant of ``y`` on ``x`` at ``xq``.

    ``x`` is strictly increasing with at least three nodes; queries outside
    it extend the end cubics.  ``y`` is one row of node values, or, with
    ``rows``, a stack of rows on the same ``x``: query ``xq[j]`` then reads
    row ``rows[j]``.  The arithmetic is that of scipy's
    ``PchipInterpolator(x, y, extrapolate=True)(xq)``, so the two agree bit
    for bit: node slopes by the weighted harmonic mean (zero at a flat
    segment or a change of sign), the same end-slope rule, the Hermite
    coefficients in power form, and the interval search that closes the
    last interval on the right.
    """
    if not np.all(np.isfinite(y)):
        raise NumericOverflow("non-finite value surface row in the interpolation")
    h = np.diff(x)
    m = np.diff(y) / h
    w1 = 2 * h[1:] + h[:-1]
    w2 = h[1:] + 2 * h[:-1]
    left, right = m[..., :-1], m[..., 1:]
    flat = (np.sign(right) != np.sign(left)) | (right == 0) | (left == 0)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        whmean = (w1 / left + w2 / right) / (w1 + w2)
        d_inner = np.where(flat, 0.0, 1.0 / whmean)
    d = np.concatenate((
        _pchip_end_slope(h[0], h[1], m[..., :1], m[..., 1:2]),
        d_inner,
        _pchip_end_slope(h[-1], h[-2], m[..., -1:], m[..., -2:-1]),
    ), axis=-1)
    t = (d[..., :-1] + d[..., 1:] - 2 * m) / h
    c0 = t / h
    c1 = (m - d[..., :-1]) / h - t
    i = np.clip(np.searchsorted(x, xq, side="right") - 1, 0, x.size - 2)
    at = i if rows is None else (rows, i)
    s = xq - x[i]
    s2 = s * s
    # scipy sums c3 + c2 s + c1 s^2 + c0 s^3 from a zero start, which
    # turns a -0.0 node value into +0.0
    return 0.0 + y[at] + d[at] * s + c1[at] * s2 + c0[at] * (s2 * s)


@dataclass
class PolicySlice:
    """Maximizing integrand and holdings per (t, x) grid point."""

    upsilon: np.ndarray  # shape (n_t, n_x)
    theta_hat: np.ndarray  # shape (n_t, n_x)


def _maximizer_row(
    driver: Driver,
    control: ControlSpec,
    t: float,
    vx: np.ndarray,
    vxx: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Pointwise maximizer of -g(t,z) V_x + z^2 V_xx / 2 per x.

    Returns (upsilon, theta_hat).  Closed forms cover the quadratic family
    (every driver with an affine gradient) and the homogeneous cone; for
    anything else the maximizer is the root of the decreasing first-order
    condition -g_z(t, z) V_x + z V_xx = 0 on [z_lo, z_hi], searched for
    the whole row at once.  That needs the driver's gradient (at a kink,
    its subgradient selection); a row with no sign change on the interval
    has its maximizer at or past an end.
    """
    if np.any(vxx >= 0):
        raise ConcavityViolation("V_xx must be negative where the operator is evaluated")

    if control.kind == "homogeneous":
        zs = control.z_scale
        g_zs = float(driver.g(t, zs))
        theta1 = g_zs * vx / (zs * zs * vxx)
        theta_hat = np.maximum(theta1, 0.0)
        return theta_hat * zs, theta_hat

    coeffs = driver.affine_grad_coeffs(t)
    if coeffs is not None:
        # g = (1/2) a z^2 + b z; the zero start turns a -0.0 numerator
        # into +0.0, so a zero maximizer is +0.0
        a, b = coeffs
        ups = -(0.0 - b * vx) / (vxx - a * vx)
    else:
        try:
            ups = _decreasing_root(
                lambda z: -driver.grad(t, z) * vx + z * vxx,
                np.full_like(vx, control.z_lo), np.full_like(vx, control.z_hi), 1e-14, None, 1,
            )
        except RootNotFound:
            ups = None
    # each end has its own tolerance, so a far end never reaches a maximizer near 0
    lo, hi = control.z_lo, control.z_hi
    lo_edge, hi_edge = lo + 1e-9 * (1.0 + abs(lo)), hi - 1e-9 * (1.0 + abs(hi))
    if ups is None or np.any(ups <= lo_edge) or np.any(ups >= hi_edge):
        raise ControlBracketExhausted(
            "control maximizer reached the search boundary; widen [z_lo, z_hi]"
        )
    return ups, ups / control.z_scale


def _operator(
    driver: Driver, t: float, z: np.ndarray, vx: np.ndarray, vxx: np.ndarray
) -> np.ndarray:
    """Operator integrand -g(t, z) V_x + (1/2) z^2 V_xx."""
    return -np.asarray(driver.g(t, z)) * vx + 0.5 * z * z * vxx


def dp_value(
    tgrid: TimeGrid,
    xgrid: WealthGrid,
    driver: Driver,
    utility: UtilitySpec,
    control: ControlSpec,
) -> tuple[ValueSurface, PolicySlice]:
    """Backward dynamic programming sweep for the value surface.

    Each slice maximizes the two-branch continuation
    (V(t+dt, x - g dt + Z sqrt(dt)) + V(t+dt, x - g dt - Z sqrt(dt))) / 2
    at the maximizer Z of the operator integrand (``_maximizer_row``: a
    closed form on the homogeneous cone or for an affine gradient, else the
    root of the first-order condition, which needs ``g_z``); off-grid
    continuation values use monotone cubic interpolation.

    The sweep runs on a ghost-padded grid so the scheme's own boundary
    layer stays outside the requested surface: the computational grid is
    widened by 15 percent of the range on each side.  A slice (U first)
    whose values or stencils leave float range there is refused by name.
    """
    pad = 0.15 * (xgrid.x_max - xgrid.x_min)
    n_pad = int(np.ceil(pad / xgrid.dx))
    wide = WealthGrid(
        xgrid.x_min - n_pad * xgrid.dx,
        xgrid.x_max + n_pad * xgrid.dx,
        xgrid.n_x + 2 * n_pad,
    )

    n_t = tgrid.n_steps
    dt = tgrid.dt
    sq = tgrid.sqrt_dt
    x = wide.x

    v = np.empty((n_t + 1, wide.n_x))
    with np.errstate(over="ignore"):  # refused by name at the first slice
        v[n_t] = np.asarray(utility.u(x), dtype=float)
    upsilon = np.empty((n_t, wide.n_x))
    theta_hat = np.empty((n_t, wide.n_x))

    for k in range(n_t - 1, -1, -1):
        t = tgrid.t(k)
        row_next = v[k + 1]
        vx, vxx = _stencils(row_next, wide.dx, "U" if k == n_t - 1 else "V", x)
        ups, th = _maximizer_row(driver, control, t, vx, vxx)
        g_vals = np.asarray(driver.g(t, ups), dtype=float)
        base = x - g_vals * dt
        up, down = _pchip(x, row_next, np.stack((base + ups * sq, base - ups * sq)))
        v[k] = 0.5 * (up + down)
        upsilon[k] = ups
        theta_hat[k] = th

    keep = slice(n_pad, n_pad + xgrid.n_x) if n_pad else slice(None)
    surface = ValueSurface(
        tgrid=tgrid, xgrid=xgrid, v=np.ascontiguousarray(v[:, keep]), control=control
    )
    surface.check_shape_in_wealth()
    policy = PolicySlice(
        upsilon=np.ascontiguousarray(upsilon[:, keep]),
        theta_hat=np.ascontiguousarray(theta_hat[:, keep]),
    )
    return surface, policy


def _locate(tgrid: TimeGrid, xgrid: WealthGrid, t: float, x: float) -> tuple[int, int]:
    k = int(round(t / tgrid.dt))
    i = int(round((x - xgrid.x_min) / xgrid.dx))
    if not (0 <= k <= tgrid.n_steps) or abs(t - tgrid.t(k)) > 1e-9 * max(1.0, tgrid.horizon):
        raise InvalidArgument(f"t={t} is not a grid time")
    xi = xgrid.x_min + i * xgrid.dx
    if not (0 <= i < xgrid.n_x) or abs(x - xi) > 1e-9 * max(1.0, abs(x) + 1.0):
        raise InvalidArgument(f"x={x} is not a grid point")
    interior = xgrid.interior
    if not (interior.start <= i < interior.stop):
        raise InvalidArgument("grid point lies in the boundary layer")
    return k, i


def lv_operator(
    surface: ValueSurface,
    driver: Driver,
    t: float,
    x: float,
) -> tuple[float, float]:
    """Operator value and maximizing integrand at an interior grid point."""
    k, i = _locate(surface.tgrid, surface.xgrid, t, x)
    vx = surface.v_x[k]
    vxx = surface.v_xx[k]
    ups, _ = _maximizer_row(driver, surface.control, t, vx, vxx)
    return float(_operator(driver, t, ups, vx, vxx)[i]), float(ups[i])


@dataclass
class BspdeResidualReport:
    """Sup-norm residual of dV/dt + L V over the reported interior."""

    max_residual: float
    # |dV/dt + L V| per time slice and wealth point, shape (n_t + 1, n_x);
    # zero on the first and last slice
    rows: np.ndarray


def residual_slice(surface: ValueSurface, driver: Driver, k: int) -> np.ndarray:
    """|dV/dt + L V| across one interior time slice.

    Every cell counts: on the homogeneous cone, where V_x > 0 > V_xx, the
    holdings have the sign of g(t, z_scale), so a slice trades at every
    wealth point or at none and has no switch to lose smoothness at.
    """
    tgrid = surface.tgrid
    if not 1 <= k <= tgrid.n_steps - 1:
        raise InvalidArgument("central time difference needs an interior slice")
    t = tgrid.t(k)
    vx = surface.v_x[k]
    vxx = surface.v_xx[k]
    ups, _ = _maximizer_row(driver, surface.control, t, vx, vxx)
    return np.abs(surface.v_t[k] + _operator(driver, t, ups, vx, vxx))


def bspde_residual(surface: ValueSurface, driver: Driver) -> BspdeResidualReport:
    """Max |dV/dt + L V| over interior grid points, central time differences."""
    sl = surface.xgrid.interior
    worst = 0.0
    rows = np.zeros_like(surface.v)
    for k in range(1, surface.tgrid.n_steps):
        rows[k] = residual_slice(surface, driver, k)
        worst = max(worst, float(np.max(rows[k, sl])))
    return BspdeResidualReport(max_residual=worst, rows=rows)


def fbsde_from_surface(
    surface: ValueSurface,
    policy: PolicySlice,
    lattice: Lattice,
    utility: UtilitySpec,
    x0: float,
    driver: Driver,
) -> FbsdeSolution:
    """Recover the forward-backward triple from a value surface and policy.

    Wealth follows the policy integrand; the backward value is
    I(V_x(t, X)) - X and its martingale part is
    upsilon V_xx / U''(X + zeta) - upsilon.  Every read of the surface
    must lie in its stencil-safe interior: a level whose lattice wealth
    leaves it raises ``ExtrapolationRefused``.  The holdings are left to
    ``recover_theta``: ``theta`` is None.
    """
    tgrid, xgrid = surface.tgrid, surface.xgrid
    if lattice.n_steps != tgrid.n_steps or abs(lattice.grid.horizon - tgrid.horizon) > 1e-12:
        raise InvalidArgument("lattice and surface must share the time grid")
    n = lattice.n_steps
    x_axis = xgrid.x
    x_lo, x_hi = x_axis[xgrid.interior][[0, -1]]

    def check_on_grid(k: int, xk: np.ndarray) -> None:
        if not (np.min(xk) >= x_lo and np.max(xk) <= x_hi):
            raise ExtrapolationRefused(
                f"lattice wealth at level {k} spans {np.min(xk):.6g}..{np.max(xk):.6g}, "
                f"outside the surface interior [{x_lo:.6g}, {x_hi:.6g}]"
            )

    h = NodeProcess.empty(lattice, n)

    def ups_of_level(k: int, xk: np.ndarray) -> np.ndarray:
        check_on_grid(k, xk)
        h.levels[k][...] = np.interp(xk, x_axis, policy.upsilon[k])
        return h.levels[k]

    x, consistency = _forward_wealth(lattice, driver, ups_of_level, x0)
    check_on_grid(n, x.levels[n])

    # smooth off-grid reads: linear interpolation of the stencil fields
    # leaves cell-scale noise that the marginal utility amplifies.  Each
    # node reads the surface slice of its own level.
    level = lattice.level_index
    inner = lattice.offsets[-2]  # the nodes of levels 0 .. n-1
    vx = _pchip(x_axis, surface.v_x, x.flat, rows=level)
    if np.any(vx <= 0):
        raise InverseDomainError("V_x must be positive to invert the marginal utility")
    vxx = _pchip(x_axis, surface.v_xx[:n], x.flat[:inner], rows=level[:inner])
    zeta = NodeProcess.from_flat(
        lattice, np.asarray(utility.inverse_marginal(vx), dtype=float) - x.flat
    )
    u2 = np.asarray(utility.u2(x.flat[:inner] + zeta.flat[:inner]))
    m = NodeProcess.from_flat(lattice, (h.flat * vxx) / u2 - h.flat)

    sol = FbsdeSolution(x=x, zeta=zeta, m=m, h=h, forward_consistency=consistency)
    sol.residuals = verify_optimality(sol, driver, utility)
    return sol


def cara_closed_form_surface(
    tgrid: TimeGrid,
    xgrid: WealthGrid,
    gamma: float,
    eta,
    gamma_a: float,
) -> ValueSurface:
    """Inject the explicit CARA surface V = -exp(-gamma_a (x + zeta_t)).

    zeta_t is the remaining-variance integral of the measure drift over
    2 (gamma + gamma_a); the derivatives are the closed-form ones.
    """
    eta_fn = eta if callable(eta) else (lambda t, _e=float(eta): _e)
    n_t = tgrid.n_steps
    dt = tgrid.dt
    scale = 2.0 * (gamma + gamma_a)
    # piecewise-constant eta on the grid; slice n_t takes the last step's
    eta2 = [eta_fn(tgrid.t(i)) ** 2 for i in range(n_t)]
    zeta = np.array([sum(e * dt for e in eta2[k:]) / scale for k in range(n_t + 1)])
    zeta_dot = -np.array(eta2 + eta2[-1:]) / scale
    v = -np.exp(-gamma_a * (xgrid.x + zeta[:, None]))
    return ValueSurface(
        tgrid=tgrid,
        xgrid=xgrid,
        v=v,
        control=ControlSpec(),
        v_x=-gamma_a * v,
        v_xx=gamma_a**2 * v,
        v_t=(-gamma_a * zeta_dot)[:, None] * v,
    )
