"""Backward solvers for the nonlinear evaluation and its position integrand.

The backward recursion per level is

    Z_k  = -(Pi_{k+1}[up] - Pi_{k+1}[down]) / (2 sqrt(dt))
    Pi_k =  E_k[Pi_{k+1}] - g(t_k, Z_k) dt

which is the explicit scheme: exact for linear drivers, first order in dt
for quadratic ones, and monotone whenever |g_z| sqrt(dt) < 1: every sweep,
the optimizer's (zeta, M) pair included, is guarded at runtime.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterator, Sequence

import numpy as np

from .driver import Driver
from .errors import (
    ContractViolation,
    ExtrapolationRefused,
    ImageViolation,
    InvalidArgument,
    InversionUnavailable,
    NumericOverflow,
    StepSizeViolation,
)
from .lattice import Lattice, NodeProcess, StateSde, _fd_gradient, simulate_state


def _terminal_array(lattice: Lattice, terminal) -> np.ndarray:
    """Accept a NodeProcess (its last level) or a raw terminal buffer, all finite."""
    if isinstance(terminal, NodeProcess):
        values = terminal.terminal
        if terminal.n_levels != lattice.n_steps + 1:
            raise InvalidArgument("terminal process does not reach the final level")
    else:
        values = np.asarray(terminal, dtype=float)
    if values.shape != (lattice.level_size(lattice.n_steps),):
        raise InvalidArgument(
            f"terminal buffer has shape {values.shape}, expected "
            f"({lattice.level_size(lattice.n_steps)},)"
        )
    if not np.all(np.isfinite(values)):
        raise NumericOverflow("non-finite terminal payoff or book")
    return values


@dataclass
class BsdeSolution:
    """Evaluation Pi and integrand Z."""

    pi: NodeProcess
    z: NodeProcess


def _sweep_levels(
    lattice: Lattice,
    terminal: np.ndarray,
    step: Callable[[int, np.ndarray, np.ndarray], tuple[np.ndarray, np.ndarray]],
) -> Iterator[tuple[int, np.ndarray, np.ndarray]]:
    """The backward recursion, one level at a time: yields ``(k, Pi_k, Z_k)``
    for k = n-1 down to 0.  ``step(k, z, cond)`` gets the level, Z_k and the
    level mean ``cond`` = E_k[Pi_{k+1}], and returns the driver ``g`` at the
    level's nodes and ``slope``, an array bounding |dg/dz| per node: the
    step-size guard refuses a level where slope * sqrt(dt) is not below 1.

    ``terminal`` is one buffer of shape ``(level_size(n),)`` or a batch of
    them, shape ``(rows, level_size(n))``; each level keeps the leading row
    axis.  Every row is swept on its own along the last axis, so a row gets
    bit for bit the numbers of its one-row sweep, provided the driver keeps
    its contract: ``g`` and ``g_z`` act elementwise on arrays of any shape.
    The finiteness check, then the guard, cover every row, and raise at the
    highest level where any row breaks them.  Only the level being built
    and the one above it are held here, so a caller that keeps just what it
    reads never holds the whole Pi stack.
    """
    n = lattice.n_steps
    dt = lattice.grid.dt
    sq = lattice.grid.sqrt_dt
    two_sq = 2.0 * sq
    pi = terminal
    for k in range(n - 1, -1, -1):
        down, up = lattice.split_children(pi)
        with np.errstate(all="ignore"):  # refused just below
            z = -(up - down) / two_sq
            cond = 0.5 * (down + up)
            g, slope = step(k, z, cond)
            pi = cond - np.asarray(g, dtype=float) * dt
            worst = float(slope.max()) * sq if z.size else 0.0
        if not np.isfinite(pi).all():
            raise NumericOverflow(
                f"non-finite evaluation during backward sweep at level {k}", level=k
            )
        if not worst < 1.0:
            raise StepSizeViolation(
                f"|g_z| * sqrt(dt) = {worst!r} >= 1 at level {k}; "
                "refine the time grid to keep the scheme monotone",
                level=k,
            )
        yield k, pi, z


def _stack_levels(
    lattice: Lattice, terminal: np.ndarray, levels: Iterator[tuple[int, np.ndarray, np.ndarray]]
) -> tuple[np.ndarray, np.ndarray]:
    """Every level of a sweep, written into two whole-lattice buffers: Pi over
    levels 0..n (the terminal last) and Z over levels 0..n-1, each with the
    terminal's leading row axis."""
    off = lattice.offsets
    n = lattice.n_steps
    pi_flat = np.empty(terminal.shape[:-1] + (off[n + 1],))
    z_flat = np.empty(terminal.shape[:-1] + (off[n],))
    pi_flat[..., off[n] :] = terminal
    for k, pi, z in levels:
        pi_flat[..., off[k] : off[k + 1]] = pi
        z_flat[..., off[k] : off[k + 1]] = z
    return pi_flat, z_flat


def _driver_levels(
    lattice: Lattice, driver: Driver, terminal: np.ndarray
) -> Iterator[tuple[int, np.ndarray, np.ndarray]]:
    """Guarded sweep of ``driver`` over one terminal or a batch, level by level."""
    grid = lattice.grid

    def step(k: int, z: np.ndarray, _) -> tuple[np.ndarray, np.ndarray]:
        t = grid.t(k)
        return driver.g(t, z), driver.lipschitz_slope(t, z)

    return _sweep_levels(lattice, terminal, step)


def _driver_z(lattice: Lattice, driver: Driver, terminal: np.ndarray) -> np.ndarray:
    """Z of the guarded sweep of ``driver`` as one whole-lattice buffer per
    row, shape ``terminal.shape[:-1] + (nodes of levels 0..n-1,)``; no Pi
    level is kept."""
    off = lattice.offsets
    z_flat = np.empty(terminal.shape[:-1] + (off[lattice.n_steps],))
    for k, _, z in _driver_levels(lattice, driver, terminal):
        z_flat[..., off[k] : off[k + 1]] = z
    return z_flat


def _position_terminals(lattice: Lattice, s_terminal, ys, h_m=None) -> np.ndarray:
    """Books H_M - y S stacked one row per position y, all finite."""
    s = _terminal_array(lattice, s_terminal)
    h = np.zeros_like(s) if h_m is None else _terminal_array(lattice, h_m)
    y = np.asarray(ys, dtype=float)
    with np.errstate(over="ignore", invalid="ignore"):  # refused just below
        books = h[None, :] - y[:, None] * s[None, :]
    bad = ~np.all(np.isfinite(books), axis=1)
    if np.any(bad):
        raise NumericOverflow(f"non-finite book H_M - y S at y = {float(y[np.argmax(bad)])!r}")
    return books


def _unit_integrands(
    lattice: Lattice, driver: Driver, s_terminal
) -> tuple[NodeProcess, NodeProcess]:
    """Integrands of the unit short and unit long payoffs, -S and S, in one sweep."""
    s = _terminal_array(lattice, s_terminal)
    z_minus, z_plus = _driver_z(lattice, driver, np.stack([-s, s]))
    return NodeProcess.from_flat(lattice, z_minus), NodeProcess.from_flat(lattice, z_plus)


def solve_bsde(lattice: Lattice, driver: Driver, terminal) -> BsdeSolution:
    """Solve the backward equation with the given driver and terminal payoff."""
    term = _terminal_array(lattice, terminal)
    pi, z = _stack_levels(lattice, term, _driver_levels(lattice, driver, term))
    return BsdeSolution(NodeProcess.from_flat(lattice, pi), NodeProcess.from_flat(lattice, z))


def entropic_exact(lattice: Lattice, gamma: float, terminal) -> NodeProcess:
    """Exact lattice entropic evaluation, level by level in log-sum-exp form.

    Pi_k = -(1/gamma) log E_k[exp(-gamma Pi_{k+1})]
    """
    if not gamma > 0:
        raise InvalidArgument("gamma must be positive")
    term = _terminal_array(lattice, terminal)
    n = lattice.n_steps
    proc = NodeProcess.empty(lattice, n + 1)
    levels = proc.levels
    levels[n][...] = term
    log2 = np.log(2.0)
    for k in range(n - 1, -1, -1):
        down, up = lattice.split_children(levels[k + 1])
        with np.errstate(over="ignore", invalid="ignore"):  # refused just below
            pi = -(np.logaddexp(-gamma * down, -gamma * up) - log2) / gamma
        if not np.all(np.isfinite(pi)):
            raise NumericOverflow(
                f"non-finite entropic evaluation at level {k}", level=k
            )
        levels[k][...] = pi
    return proc


def z_of_position(
    lattice: Lattice,
    driver: Driver,
    s_terminal,
    y: float,
    h_m=None,
) -> BsdeSolution:
    """Backward solution for the book H_M - y S held against a position y."""
    book = _position_terminals(lattice, s_terminal, [y], h_m)[0]
    return solve_bsde(lattice, driver, book)


def z_homogeneous(
    driver: Driver, y: float, z_minus: NodeProcess, z_plus: NodeProcess
) -> NodeProcess:
    """Position integrand by the positive-homogeneity scaling identity.

    Requires a homogeneous driver and zero book: the integrand for position
    y is |y| times the integrand of the unit short (y > 0) or unit long
    (y < 0) payoff.
    """
    if not driver.is_homogeneous:
        raise ContractViolation("scaling shortcut requires a homogeneous driver")
    if y > 0:
        return z_minus * abs(y)
    if y < 0:
        return z_plus * abs(y)
    lattice = z_minus.lattice
    return NodeProcess.constant(lattice, 0.0, n_levels=z_minus.n_levels)


@dataclass
class DzDyResult:
    """Position derivative of the integrand, with a kink diagnostic.

    ``kink`` is set when the one-sided differences disagree or when the
    derivative is requested exactly at y = 0 for a homogeneous driver,
    where the sign convention is ambiguous.  In that case ``dz`` holds the
    forward difference.
    """

    dz: NodeProcess
    kink: bool
    forward: NodeProcess
    backward: NodeProcess


def dz_dy(
    lattice: Lattice,
    driver: Driver,
    s_terminal,
    y: float,
    eps: float,
    h_m=None,
) -> DzDyResult:
    """Central finite difference of y -> Z^y, node by node.

    A kink is flagged where the one-sided differences disagree by more
    than 1e-6 relative to the size of the forward difference.
    """
    if not eps > 0:
        raise InvalidArgument("eps must be positive")
    books = _position_terminals(lattice, s_terminal, [y - eps, y, y + eps], h_m)
    z_lo, z_mid, z_hi = _driver_z(lattice, driver, books)
    forward = NodeProcess.from_flat(lattice, (z_hi - z_mid) / eps)
    backward = NodeProcess.from_flat(lattice, (z_mid - z_lo) / eps)

    disagreement = forward.sup_diff(backward)
    scale = 1.0 + forward.sup_abs()
    kink = disagreement > 1e-6 * scale
    if driver.kinked and y == 0.0:
        # sign convention at zero position is ambiguous for kinked drivers
        kink = True
    if kink:
        return DzDyResult(dz=forward, kink=True, forward=forward, backward=backward)
    central = NodeProcess.from_flat(lattice, 0.5 * (forward.flat + backward.flat))
    return DzDyResult(dz=central, kink=False, forward=forward, backward=backward)


def dz_dy_variational(
    lattice: Lattice,
    driver: Driver,
    markov: StateSde,
    s_fn: Callable[[np.ndarray], np.ndarray],
    h_fn: Callable[[np.ndarray], np.ndarray] | None,
    y: float,
    eps: float = 1e-4,
) -> NodeProcess:
    """Position derivative via the first-variation backward equation.

    For a Markov book (payoffs s(R_T), h(R_T)) the r-sensitivity F of the
    evaluation solves a linear backward equation whose terminal condition
    is (h_r - y s_r)(R_T) * dR_T/dr0 and whose drift term is
    g_z(t, Z^y_t) * V_t, V being F's own martingale integrand.  The
    integrand then satisfies Z^y = -F * (dR/dr0)^{-1} * sigma, and the
    position derivative is obtained by differencing F in y through its
    terminal condition.  This route is independent of :func:`dz_dy`, which
    differences the primal integrand directly.  The payoff gradients are
    central finite differences.
    """
    if not eps > 0:
        raise InvalidArgument("eps must be positive")
    if not isinstance(markov, StateSde):
        raise ContractViolation("variational derivative requires Markov state dynamics")
    if not driver.is_differentiable:
        raise ContractViolation("variational derivative requires a differentiable driver")
    if callable(markov.sigma):
        raise ContractViolation("variational derivative requires constant volatility")

    grid = lattice.grid
    n = lattice.n_steps
    r_proc = simulate_state(lattice, markov)
    r_T = r_proc.terminal

    # dR/dr0 along the Euler recursion: grad_{k+1} = grad_k * (1 + b_r dt)
    grad_levels = [np.ones(lattice.level_size(0))]
    for k in range(n):
        r = r_proc.values(k)
        br = markov.drift_gradient(grid.t(k), r)
        nxt = grad_levels[k] * (1.0 + br * grid.dt)
        # both children inherit the parent's gradient
        grad_levels.append(lattice.forward_level(nxt, nxt)[0])

    s_vals, s_r = np.asarray(s_fn(r_T), dtype=float), _fd_gradient(s_fn, r_T)
    h_vals = h_r = np.zeros_like(r_T)
    if h_fn is not None:
        h_vals, h_r = np.asarray(h_fn(r_T), dtype=float), _fd_gradient(h_fn, r_T)

    shifts = (y + eps, y - eps)
    books = np.stack([_terminal_array(lattice, h_vals - y_s * s_vals) for y_s in shifts])
    z_levels = lattice.split_levels(_driver_z(lattice, driver, books))

    def step(k: int, v: np.ndarray, _) -> tuple[np.ndarray, np.ndarray]:
        gz = np.asarray(driver.g_z(grid.t(k), z_levels[k]))
        return gz * v, np.abs(gz)  # |g_z| is the driver's lipschitz_slope

    # F of both shifts in one 2-row sweep; only its levels 0..n-1 are kept
    off = lattice.offsets
    f_flat = np.empty((2, off[n]))
    f_terminals = np.stack([(h_r - y_s * s_r) * grad_levels[n] for y_s in shifts])
    for k, f, _ in _sweep_levels(lattice, f_terminals, step):
        f_flat[:, off[k] : off[k + 1]] = f
    grad = np.concatenate(grad_levels[:n])
    dz = -(f_flat[0] - f_flat[1]) / (2.0 * eps) / grad * float(markov.sigma)
    return NodeProcess.from_flat(lattice, dz)


class PositionCurve:
    """y -> Z^y: the exact scaling cone, or linear interpolation on a y-grid.

    Homogeneous drivers with zero book use the exact scaling identity for
    every y, and only this cone inverts here.  Non-homogeneous drivers
    interpolate between the precomputed grid solutions and refuse any
    lookup outside the hull.  The grid solutions are one ``(n_y, nodes)``
    buffer over the flat layout of levels 0..n-1, kept for the lookups
    ``z_level`` and ``z_process``; ``_stacks[k]`` is level k's
    ``(n_y, k + 1)`` view.  Holdings on a y-grid come from
    ``optimizer.recover_theta``, which streams the same sweep through
    ``_invert_streamed``: each level is inverted as the sweep yields it,
    so neither the buffer nor any block of levels is held.
    """

    def __init__(
        self,
        lattice: Lattice,
        driver: Driver,
        s_terminal,
        y_grid: Sequence[float] | np.ndarray | None = None,
        h_m=None,
    ):
        self.lattice = lattice
        self.driver = driver
        self._homogeneous = driver.is_homogeneous and h_m is None
        if self._homogeneous:
            self.z_minus, self.z_plus = _unit_integrands(lattice, driver, s_terminal)
            self.y_grid = None
        else:
            yg = self.y_grid = _checked_y_grid(y_grid)
            # one batched sweep, one row per grid position
            books = _position_terminals(lattice, s_terminal, yg, h_m)
            self._slab = _driver_z(lattice, driver, books)
            self._stacks = lattice.split_levels(self._slab)

    @property
    def hull(self) -> tuple[float, float]:
        if self._homogeneous:
            return (-np.inf, np.inf)
        return float(self.y_grid[0]), float(self.y_grid[-1])

    def z_level(self, k: int, y_values: np.ndarray) -> np.ndarray:
        """Integrand at level k for node-wise positions ``y_values``."""
        y = np.asarray(y_values, dtype=float)
        if self._homogeneous:
            zm = self.z_minus.values(k)
            zp = self.z_plus.values(k)
            return np.where(y > 0, y * zm, -y * zp)
        lo, hi = self.hull
        if np.any(y < lo) or np.any(y > hi):
            raise ExtrapolationRefused(
                f"position {float(np.min(y)):.4g}..{float(np.max(y)):.4g} outside "
                f"the y-grid hull [{lo:.4g}, {hi:.4g}]"
            )
        stack = self._stacks[k]
        idx = np.clip(np.searchsorted(self.y_grid, y, side="right") - 1, 0, self.y_grid.size - 2)
        y0 = self.y_grid[idx]
        y1 = self.y_grid[idx + 1]
        w = (y - y0) / (y1 - y0)
        cols = np.arange(stack.shape[1])
        return (1.0 - w) * stack[idx, cols] + w * stack[idx + 1, cols]

    def z_process(self, y: float) -> NodeProcess:
        """Integrand process for a constant position y."""
        levels = [
            self.z_level(k, np.full(self.lattice.level_size(k), float(y)))
            for k in range(self.lattice.n_steps)
        ]
        return NodeProcess(self.lattice, levels)

    def invert_level(self, k: int, targets: np.ndarray) -> np.ndarray:
        """Positions y solving Z^y = target per node of level k (the cone only)."""
        return self._invert(k, k + 1, targets)

    def invert(self, targets: NodeProcess) -> NodeProcess:
        """Positions y solving Z^y = target at every node of ``targets`` (the cone only)."""
        return NodeProcess.from_flat(
            self.lattice, self._invert(0, targets.n_levels, targets.flat)
        )

    def _invert(self, first: int, stop: int, targets: np.ndarray) -> np.ndarray:
        """Cone inversion at the nodes of levels ``first .. stop-1``, laid out flat."""
        if not self._homogeneous:
            raise ContractViolation(
                "a y-grid position curve is not inverted here; "
                "recover the holdings with optimizer.recover_theta"
            )
        off = self.lattice.offsets
        a, b = off[first], off[stop]
        t = np.asarray(targets, dtype=float)
        zm = self.z_minus.flat[a:b]
        zp = self.z_plus.flat[a:b]
        out = np.zeros_like(t)
        with np.errstate(divide="ignore", invalid="ignore"):
            cand_pos = np.where(zm != 0.0, t / zm, np.nan)
            cand_neg = np.where(zp != 0.0, -t / zp, np.nan)
        nonzero = t != 0.0
        take_pos = nonzero & (cand_pos > 0)
        take_neg = nonzero & ~take_pos & (cand_neg < 0)
        if np.any(nonzero & ~take_pos & ~take_neg):
            raise ImageViolation("integrand target outside the homogeneous image cone")
        out[take_pos] = cand_pos[take_pos]
        out[take_neg] = cand_neg[take_neg]
        return out


def _checked_y_grid(y_grid) -> np.ndarray:
    """The y-grid as a float array: finite, strictly increasing, 2 points or more."""
    if y_grid is None:
        raise InvalidArgument("a y-grid is required for non-homogeneous drivers")
    yg = np.asarray(y_grid, dtype=float)
    if not np.all(np.isfinite(yg)):
        raise InvalidArgument("y_grid entries must be finite")
    if yg.ndim != 1 or yg.size < 2 or np.any(np.diff(yg) <= 0):
        raise InvalidArgument("y_grid must be sorted with at least 2 points")
    return yg


def _invert_level(k: int, z: np.ndarray, y_grid: np.ndarray, targets: np.ndarray) -> tuple:
    """Positions y with Z^y = t at the nodes of level k, for each row t of
    ``targets``, ``(n_targets, k + 1)``: ``(y, errors)``, ``y`` of the shape
    of ``targets``, and ``errors`` None if every target inverted, else the
    error of each target, None for one that inverted.

    ``z`` holds the level's grid solutions, ``(n_y, k + 1)``.  The level
    must be strictly monotone in y, all its columns the same way, and a
    target must lie in the level's attainable image up to 1e-12.  A failed
    target's row of ``y`` means nothing; a level that is not monotone fails
    every target and has no ``y``.
    """
    # a strictly monotone level runs every column the way of its first
    dec = bool(z[-1, 0] < z[0, 0])
    if not (z[1:] < z[:-1] if dec else z[1:] > z[:-1]).all():
        err = InversionUnavailable(f"position curve is not monotone in y at level {k}")
        return None, [err] * len(targets)
    # so each column has its extremes in its first and last rows
    lo, hi = (z[-1], z[0]) if dec else (z[0], z[-1])
    outside = ((targets < lo - 1e-12) | (targets > hi + 1e-12)).any(axis=1)
    # a decreasing level is inverted as the increasing -Z against -t
    y = _interp_columns(-targets if dec else targets, z, y_grid, dec)
    if not outside.any():
        return y, None
    err = ImageViolation("integrand target outside the attainable image")
    return y, [err if bad else None for bad in outside]


def _invert_streamed(
    lattice: Lattice, driver: Driver, s_terminal, y_grid, targets: list[np.ndarray]
) -> np.ndarray:
    """Positions y with Z^y = t for each flat target t over levels 0..n-1,
    on the piecewise-linear curve of ``PositionCurve(lattice, driver,
    s_terminal, y_grid)``, without that curve's ``(n_y, nodes)`` buffer:
    one row per target.

    The targets are stacked once into one block, and each level of the
    batched y-grid sweep, top first, is inverted for every target as the
    sweep yields it, straight from the sweep's own ``(n_y, k + 1)`` array
    and the block's view of the level, whose positions then overwrite its
    targets.  The sweep's own errors raise as it meets them.  After it,
    the first target that failed raises the error of its lowest failing
    level.
    """
    yg = _checked_y_grid(y_grid)
    off = lattice.offsets
    flats = [np.asarray(t, dtype=float) for t in targets]
    if any(t.shape != (off[lattice.n_steps],) for t in flats):
        raise InvalidArgument("a holdings target needs one value per node of levels 0..n-1")
    block = np.stack(flats)
    errors = [None] * len(flats)
    for k, _, z in _driver_levels(lattice, driver, _position_terminals(lattice, s_terminal, yg)):
        a, b = off[k], off[k + 1]
        y, failed = _invert_level(k, z, yg, block[:, a:b])
        if y is not None:
            block[:, a:b] = y
        if failed is not None:
            # the sweep goes down the levels: the last error is the lowest
            errors = [old if new is None else new for new, old in zip(failed, errors)]
    for err in errors:
        if err is not None:
            raise err
    return block


def _interp_columns(
    x: np.ndarray, xp: np.ndarray, fp: np.ndarray, decreasing: bool = False
) -> np.ndarray:
    """``np.interp(x[..., j], xp[:, j], fp)`` for every column ``j`` at once,
    with ``-xp`` in place of ``xp`` if ``decreasing``; ``x`` may hold several
    rows of targets.

    Uses ``np.interp``'s arithmetic, so the results agree bit for bit: the
    bracket ``xp[i] <= x < xp[i+1]``, the value ``fp[i]`` on a node,
    ``slope * (x - xp[i]) + fp[i]`` between nodes and the end values of
    ``fp`` outside the hull.  Each column of ``xp`` (of ``-xp`` if
    ``decreasing``) must increase strictly.  Negation is exact, so a
    decreasing ``xp`` is read as it is: only the nodes gathered from it are
    negated.  In a strictly increasing column the nodes ``<= x`` are a
    leading run, so the bracket is found by counting them.
    """
    n_y, n_cols = xp.shape
    row = x[..., None, :]
    below = (xp >= -row if decreasing else xp <= row).view(np.uint8)
    # counted in the narrowest type that holds n_y, then indexed in intp
    run = np.add.reduce(below, axis=-2, dtype=np.min_scalar_type(n_y))
    i = np.maximum(run.astype(np.intp) - 1, 0)
    np.minimum(i, n_y - 2, out=i)
    cols = np.arange(n_cols)
    x0, x1 = xp[i, cols], xp[i + 1, cols]
    first, last = xp[0], xp[-1]
    if decreasing:
        x0, x1, first, last = -x0, -x1, -first, -last
    f0 = fp[i]
    slope = (fp[i + 1] - f0) / (x1 - x0)
    out = np.where(x == x0, f0, slope * (x - x0) + f0)
    out = np.where(x < first, fp[0], out)
    return np.where(x >= last, fp[-1], out)
