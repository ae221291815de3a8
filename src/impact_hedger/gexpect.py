"""Backward solvers for the nonlinear evaluation and its position integrand.

The backward recursion per level is

    Z_k  = -(Pi_{k+1}[up] - Pi_{k+1}[down]) / (2 sqrt(dt))
    Pi_k =  E_k[Pi_{k+1}] - g(t_k, Z_k) dt

which is the explicit scheme: exact for linear drivers, first order in dt
for quadratic ones, and monotone whenever |g_z| sqrt(dt) < 1 (guarded at
runtime).
"""
from __future__ import annotations

import itertools
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
    return values.copy()


@dataclass
class BsdeSolution:
    """Evaluation Pi, integrand Z and the terminal payoff they solve for."""

    pi: NodeProcess
    z: NodeProcess
    terminal: np.ndarray
    driver: Driver


def _sweep_levels(
    lattice: Lattice,
    terminal: np.ndarray,
    g_of_level: Callable[[int, np.ndarray, np.ndarray], np.ndarray],
    slope_of_level: Callable[[int, np.ndarray], np.ndarray] | None = None,
) -> Iterator[tuple[int, np.ndarray, np.ndarray]]:
    """The backward recursion, one level at a time: yields ``(k, Pi_k, Z_k)``
    for k = n-1 down to 0.  ``g_of_level(k, z, cond)`` gets the level, Z_k
    and the level mean ``cond`` = E_k[Pi_{k+1}]; it may depend on all three.

    ``terminal`` is one buffer of shape ``(level_size(n),)`` or a batch of
    them, shape ``(rows, level_size(n))``; each level keeps the leading row
    axis.  Every row is swept on its own along the last axis, so a row gets
    bit for bit the numbers of its one-row sweep, provided the driver keeps
    its contract: ``g`` and ``g_z`` act elementwise on arrays of any shape.
    The finiteness check and the step-size guard cover every row; the guard
    raises at the highest level where any row breaks it.  Only the level
    being built and the one above it are held here, so a caller that keeps
    just what it reads never holds the whole Pi stack.
    """
    n = lattice.n_steps
    dt = lattice.grid.dt
    sq = lattice.grid.sqrt_dt
    pi = terminal
    for k in range(n - 1, -1, -1):
        down, up = lattice.split_children(pi)
        with np.errstate(over="ignore", invalid="ignore"):  # refused just below
            z = -(up - down) / (2.0 * sq)
            cond = 0.5 * (down + up)
            g = np.asarray(g_of_level(k, z, cond), dtype=float)
            pi = cond - g * dt
        if not np.all(np.isfinite(pi)):
            raise NumericOverflow(
                f"non-finite evaluation during backward sweep at level {k}", level=k
            )
        if slope_of_level is not None:
            worst = float(np.max(slope_of_level(k, z))) * sq if z.size else 0.0
            if worst >= 1.0:
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
    return _sweep_levels(
        lattice,
        terminal,
        lambda k, z, _: driver.g(grid.t(k), z),
        lambda k, z: driver.lipschitz_slope(grid.t(k), z),
    )


def _driver_sweep(
    lattice: Lattice, driver: Driver, terminal: np.ndarray
) -> tuple[list[np.ndarray], list[np.ndarray]]:
    """Every Pi and Z level of the guarded sweep of ``driver``, as views
    into the whole-lattice buffers of ``_stack_levels``."""
    pi, z = _stack_levels(lattice, terminal, _driver_levels(lattice, driver, terminal))
    return lattice.split_levels(pi), lattice.split_levels(z)


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
    """Books H_M - y S stacked one row per position y."""
    s = _terminal_array(lattice, s_terminal)
    h = np.zeros_like(s) if h_m is None else _terminal_array(lattice, h_m)
    return h[None, :] - np.asarray(ys, dtype=float)[:, None] * s[None, :]


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
    return BsdeSolution(
        pi=NodeProcess.from_flat(lattice, pi),
        z=NodeProcess.from_flat(lattice, z),
        terminal=term,
        driver=driver,
    )


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

    s_r = _fd_gradient(s_fn, r_T)
    if h_fn is None:
        h_vals = np.zeros_like(r_T)
        h_r = np.zeros_like(r_T)
    else:
        h_vals = np.asarray(h_fn(r_T), dtype=float)
        h_r = _fd_gradient(h_fn, r_T)
    s_vals = np.asarray(s_fn(r_T), dtype=float)

    sigma = float(markov.sigma)

    def solve_f(y_shift: float) -> np.ndarray:
        primal = solve_bsde(lattice, driver, h_vals - y_shift * s_vals)
        z_levels = primal.z.levels

        def g_of_level(k: int, v: np.ndarray, _) -> np.ndarray:
            gz = np.asarray(driver.g_z(grid.t(k), z_levels[k]))
            return gz * v

        f_terminal = (h_r - y_shift * s_r) * grad_levels[n]
        f_flat, _ = _stack_levels(
            lattice, f_terminal, _sweep_levels(lattice, f_terminal, g_of_level)
        )
        return f_flat[: lattice.offsets[n]]

    grad = np.concatenate(grad_levels[:n])
    dz = -(solve_f(y + eps) - solve_f(y - eps)) / (2.0 * eps) / grad * sigma
    return NodeProcess.from_flat(lattice, dz)


class PositionCurve:
    """Cache of y -> Z^y on a user-set y-grid with linear interpolation.

    Homogeneous drivers with zero book use the exact scaling identity for
    every y instead; non-homogeneous drivers interpolate between the
    precomputed grid solutions and refuse any lookup outside the hull.
    The grid solutions are one ``(n_y, nodes)`` buffer over the flat
    layout of levels 0..n-1; ``_stacks[k]`` is level k's ``(n_y, k + 1)``
    view.  Inversion needs each level monotone in y; the direction of
    every level is found once, at the first inversion.  The buffer is kept
    for lookups; ``optimizer.recover_theta`` streams the same sweep through
    ``_invert_streamed`` instead and never holds it.
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
            self._monotone = self._decreasing = None

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
        """Positions y solving Z^y = target per node of level k (monotone curves only)."""
        return self._invert(k, k + 1, targets)

    def invert(self, targets: NodeProcess) -> NodeProcess:
        """Positions y solving Z^y = target at every node of ``targets``."""
        return NodeProcess.from_flat(
            self.lattice, self._invert(0, targets.n_levels, targets.flat)
        )

    def _invert(self, first: int, stop: int, targets: np.ndarray) -> np.ndarray:
        """Inversion at the nodes of levels ``first .. stop-1``, laid out flat.

        The lowest level that fails raises: a level that is not monotone in
        y before a target outside its attainable image.
        """
        off = self.lattice.offsets
        a, b = off[first], off[stop]
        t = np.asarray(targets, dtype=float)
        if self._homogeneous:
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
                raise ImageViolation(
                    "integrand target outside the homogeneous image cone"
                )
            out[take_pos] = cand_pos[take_pos]
            out[take_neg] = cand_neg[take_neg]
            return out
        if self._monotone is None:
            bounds = off[: self.lattice.n_steps + 1]
            self._monotone, self._decreasing = _level_directions(bounds, self._slab)
        (out,) = _invert_block(
            first,
            off[first : stop + 1] - a,
            self._slab[:, a:b],
            self.y_grid,
            self._monotone[first:stop],
            self._decreasing[a:b],
            [t],
        )
        if isinstance(out, Exception):
            raise out
        return out


# nodes one inversion pass works on, and the most nodes a streamed block of
# several levels holds: bounds the scratch memory
_INVERT_BLOCK_NODES = 1 << 12


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


def _level_directions(bounds: np.ndarray, z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Whether each level of ``z`` is strictly monotone in y, and whether
    each node's column decreases.

    ``z`` holds grid solutions, ``(n_y, nodes)`` in the flat layout, and
    level i spans its columns ``bounds[i] .. bounds[i+1]-1``.  ``a > b`` is
    ``a - b > 0`` for every pair of doubles, so the direction is the sign
    of the differences along y, found one pair of grid rows at a time.
    """
    rising = np.ones(z.shape[1], dtype=bool)
    falling = np.ones(z.shape[1], dtype=bool)
    step = np.empty(z.shape[1], dtype=bool)
    for i in range(z.shape[0] - 1):
        rising &= np.greater(z[i + 1], z[i], out=step)
        falling &= np.less(z[i + 1], z[i], out=step)
    level_rising = np.logical_and.reduceat(rising, bounds[:-1])
    level_falling = np.logical_and.reduceat(falling, bounds[:-1])
    return level_rising | level_falling, np.repeat(~level_rising & level_falling, np.diff(bounds))


def _invert_block(
    first: int,
    bounds: np.ndarray,
    z: np.ndarray,
    y_grid: np.ndarray,
    monotone: np.ndarray,
    dec: np.ndarray,
    targets: list[np.ndarray],
) -> list:
    """Positions y with Z^y = t at the nodes of levels ``first, first+1, ...``.

    ``z``, ``bounds``, ``monotone`` and ``dec`` are those levels'
    grid solutions and their ``_level_directions``; each target ``t`` has
    one value per node.  Every level must be strictly monotone in y, all
    its columns the same way, and a target must lie in the level's
    attainable image up to 1e-12.  For each target comes back its
    positions or the error of its lowest failing level: a level that is
    not monotone before a target outside its image.
    """
    # a strictly monotone column has its extremes in its first and last rows
    first_row, last_row = z[0], z[-1]
    results = []
    for t in targets:
        bad = t < np.where(dec, last_row, first_row) - 1e-12
        bad |= t > np.where(dec, first_row, last_row) + 1e-12
        failed = ~monotone | np.logical_or.reduceat(bad, bounds[:-1])
        if np.any(failed):
            k = int(np.argmax(failed))
            results.append(
                ImageViolation("integrand target outside the attainable image")
                if monotone[k]
                else InversionUnavailable(
                    f"position curve is not monotone in y at level {first + k}"
                )
            )
            continue
        # a decreasing column is inverted as the increasing -Z against
        # -target; blocks of columns bound the scratch memory
        out = np.empty_like(t)
        for c in range(0, t.size, _INVERT_BLOCK_NODES):
            cols = slice(c, c + _INVERT_BLOCK_NODES)
            sign = np.where(dec[cols], -1.0, 1.0)
            out[cols] = _interp_columns(t[cols] * sign, z[:, cols], y_grid, sign)
        results.append(out)
    return results


def _invert_streamed(
    lattice: Lattice, driver: Driver, s_terminal, y_grid, targets: list[np.ndarray]
) -> list[np.ndarray]:
    """``PositionCurve(lattice, driver, s_terminal, y_grid).invert`` of each
    flat target over levels 0..n-1, bit for bit, without the curve's
    ``(n_y, nodes)`` buffer.

    The batched y-grid sweep hands its levels, top first, to one scratch
    block of whole levels, at most ``_INVERT_BLOCK_NODES`` nodes unless it
    is one larger level; each full block is inverted for every target and
    then overwritten.  The sweep's own errors raise as it meets them.
    After it, the first target that failed raises the error of its lowest
    failing level.
    """
    yg = _checked_y_grid(y_grid)
    off = lattice.offsets
    nodes = off[lattice.n_steps]
    flats = [np.asarray(t, dtype=float) for t in targets]
    if any(t.shape != (nodes,) for t in flats):
        raise InvalidArgument("a holdings target needs one value per node of levels 0..n-1")
    outs = [np.empty(nodes) for _ in flats]
    errors = [None] * len(flats)
    levels = _driver_levels(lattice, driver, _position_terminals(lattice, s_terminal, yg))
    scratch = np.empty(yg.size * min(_INVERT_BLOCK_NODES, nodes))
    stop = lattice.n_steps
    while stop > 0:
        first = min(int(np.searchsorted(off, off[stop] - _INVERT_BLOCK_NODES)), stop - 1)
        a, b = off[first], off[stop]
        block = scratch[: yg.size * (b - a)].reshape(yg.size, b - a) if first + 1 < stop else None
        for k, _, z in itertools.islice(levels, stop - first):
            if block is None:
                block = z
            else:
                block[:, off[k] - a : off[k + 1] - a] = z
        bounds = off[first : stop + 1] - a
        got_block = _invert_block(
            first, bounds, block, yg, *_level_directions(bounds, block), [t[a:b] for t in flats]
        )
        for i, got in enumerate(got_block):
            if isinstance(got, Exception):
                errors[i] = got  # the blocks go down the levels: the last error is the lowest
            else:
                outs[i][a:b] = got
        stop = first
    for err in errors:
        if err is not None:
            raise err
    return outs


def _interp_columns(
    x: np.ndarray, xp: np.ndarray, fp: np.ndarray, sign: np.ndarray | None = None
) -> np.ndarray:
    """``np.interp(x[j], sign[j] * xp[:, j], fp)`` for every column ``j`` at once.

    Uses ``np.interp``'s arithmetic, so the results agree bit for bit: the
    bracket ``xp[i] <= x < xp[i+1]``, the value ``fp[i]`` on a node,
    ``slope * (x - xp[i]) + fp[i]`` between nodes and the end values of
    ``fp`` outside the hull.  Each column of ``sign * xp`` must increase
    strictly.  ``sign`` (+1.0 or -1.0 per column, +1.0 if omitted) reads a
    decreasing column as its negation, which is exact, so no signed copy of
    ``xp`` is made.  In a strictly increasing column the nodes ``<= x`` are
    a leading run, so its length is found by bisection, a few gathers of
    one node per column rather than a pass over every row.
    """
    n_y, n_cols = xp.shape
    cols = np.arange(n_cols)

    def node(i):
        v = xp[i, cols]
        return v if sign is None else v * sign

    run = np.zeros(n_cols, dtype=np.intp)
    step = 1 << (n_y.bit_length() - 1)
    while step:
        longer = run + step
        fits = longer <= n_y
        fits &= node(np.minimum(longer, n_y) - 1) <= x
        run[fits] = longer[fits]
        step >>= 1
    i = np.clip(run - 1, 0, n_y - 2)
    x0 = node(i)
    slope = (fp[i + 1] - fp[i]) / (node(i + 1) - x0)
    out = np.where(x == x0, fp[i], slope * (x - x0) + fp[i])
    out = np.where(x < node(0), fp[0], out)
    return np.where(x >= node(n_y - 1), fp[-1], out)
