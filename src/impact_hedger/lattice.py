"""Discrete Brownian scaffold: binomial lattices and adapted node processes.

The recombining lattice is the default workhorse: level ``k`` holds ``k + 1``
nodes, node ``(k, j)`` carries the Brownian value ``(2j - k) * sqrt(dt)`` where
``j`` counts up-moves, and both branches have probability one half.  A
non-recombining ("full-binary") variant supports state-dependent coefficients
and path-dependent wealth accounting; it is capped at 22 steps.

The time and wealth grids and the control spec of the value surface live
here too, so a scenario's grids are checked without loading a solver.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Sequence

import numpy as np

from .driver import Driver
from .errors import InvalidArgument, ModeConflict, NumericOverflow

RECOMBINING = "recombining"
FULL_BINARY = "full-binary"

FULL_BINARY_MAX_STEPS = 22

# Two-parent agreement tolerance used when forcing recombination.
_RECOMBINE_TOL = 1e-9


@dataclass(frozen=True)
class TimeGrid:
    """Uniform partition of [0, T] into ``n_steps`` intervals."""

    horizon: float
    n_steps: int

    def __post_init__(self) -> None:
        if not self.horizon > 0.0:
            raise InvalidArgument(f"horizon must be positive, got {self.horizon}")
        if self.n_steps < 1:
            raise InvalidArgument(f"n_steps must be >= 1, got {self.n_steps}")

    @property
    def dt(self) -> float:
        return self.horizon / self.n_steps

    @property
    def sqrt_dt(self) -> float:
        return float(np.sqrt(self.dt))

    def t(self, k: int) -> float:
        return k * self.dt


# stencil-safe interior margin, in grid cells per side
_EDGE_CELLS = 3


@dataclass(frozen=True)
class WealthGrid:
    """Uniform wealth grid [x_min, x_max] with n_x points."""

    x_min: float
    x_max: float
    n_x: int

    def __post_init__(self) -> None:
        if not self.x_max > self.x_min:
            raise InvalidArgument("x_max must exceed x_min")
        if self.n_x < 2 * _EDGE_CELLS + 3:
            raise InvalidArgument("wealth grid too coarse for interior stencils")

    @property
    def x(self) -> np.ndarray:
        return np.linspace(self.x_min, self.x_max, self.n_x)

    @property
    def dx(self) -> float:
        return (self.x_max - self.x_min) / (self.n_x - 1)

    @property
    def interior(self) -> slice:
        return slice(_EDGE_CELLS, self.n_x - _EDGE_CELLS)


@dataclass(frozen=True)
class ControlSpec:
    """Attainable-integrand description for the pointwise maximization.

    ``interval``: integrands range over [z_lo, z_hi] (complete market).
    ``homogeneous``: integrands are theta * z_scale with theta >= 0.
    ``z_scale`` is the traded payoff's unit integrand under either kind:
    the holdings of an integrand are integrand / z_scale.
    """

    kind: str = "interval"
    z_lo: float = -1.0
    z_hi: float = 1.0
    z_scale: float = 1.0

    def __post_init__(self) -> None:
        if self.kind not in ("interval", "homogeneous"):
            raise InvalidArgument(f"unknown control kind {self.kind!r}")
        if self.kind == "interval" and not self.z_hi > self.z_lo:
            raise InvalidArgument("z_hi must exceed z_lo")
        if not (np.isfinite(self.z_scale) and self.z_scale != 0):
            raise InvalidArgument(f"z_scale must be finite and nonzero, got {self.z_scale!r}")


class Lattice:
    """Binomial tree over a :class:`TimeGrid`.

    Immutable after construction; safe to share between solvers.  Level
    buffers are dense arrays; on the recombining topology the up-child of
    node ``j`` sits at slot ``j + 1`` of the next level and the down-child
    at slot ``j``.  On the full-binary topology the children of node ``j``
    are ``2j`` (down) and ``2j + 1`` (up).

    A whole-lattice buffer lays the levels end to end: level ``k`` is the
    slice ``offsets[k]:offsets[k + 1]``, and ``children`` gives the flat
    (down, up) index of every node of levels ``0 .. n-1``.
    """

    def __init__(self, grid: TimeGrid, topology: str = RECOMBINING):
        if topology not in (RECOMBINING, FULL_BINARY):
            raise InvalidArgument(f"unknown topology {topology!r}")
        if topology == FULL_BINARY and grid.n_steps > FULL_BINARY_MAX_STEPS:
            raise InvalidArgument(
                f"full-binary mode is capped at {FULL_BINARY_MAX_STEPS} steps, "
                f"got {grid.n_steps}"
            )
        self.grid = grid
        self.topology = topology
        if topology == FULL_BINARY:
            # node j's moves are the binary digits of j, so its up-count is
            # their number of ones; node j of level k is terminal node j 2^(n-k)
            self._terminal_ups = ups = np.zeros(1 << grid.n_steps, dtype=np.int64)
            for i in range(grid.n_steps):  # j + 2^i has one more one than j < 2^i
                np.add(ups[: 1 << i], 1, out=ups[1 << i : 2 << i])
            ups.flags.writeable = False  # up_counts hands out views of it
        sizes = [self.level_size(k) for k in range(grid.n_steps + 1)]
        self.offsets = np.concatenate(([0], np.cumsum(sizes)))

    # -- shape -----------------------------------------------------------

    @property
    def n_steps(self) -> int:
        return self.grid.n_steps

    def level_size(self, k: int) -> int:
        self._check_level(k)
        if self.topology == RECOMBINING:
            return k + 1
        return 1 << k

    def up_counts(self, k: int) -> np.ndarray:
        """Number of up-moves leading to each node of level ``k``."""
        self._check_level(k)
        if self.topology == RECOMBINING:
            return np.arange(k + 1, dtype=np.int64)
        return self._terminal_ups[:: 1 << (self.n_steps - k)]

    @cached_property
    def children(self) -> tuple[np.ndarray, np.ndarray]:
        """Flat (down-child, up-child) indices of the nodes of levels 0 .. n-1."""
        n = self.n_steps
        node = np.arange(self.offsets[n])
        if self.topology == RECOMBINING:
            # node j of level k sits at offsets[k] + j, its down-child at
            # offsets[k + 1] + j, and offsets[k + 1] - offsets[k] = k + 1
            down = node + np.repeat(np.arange(1, n + 1), np.diff(self.offsets[:-1]))
        else:
            # offsets[k] = 2^k - 1, so the children of node p are 2p + 1, 2p + 2
            down = 2 * node + 1
        return down, down + 1

    @cached_property
    def level_index(self) -> np.ndarray:
        """Level of every node, in the flat layout of all n + 1 levels."""
        return np.repeat(np.arange(self.n_steps + 1), np.diff(self.offsets))

    def split_levels(self, flat: np.ndarray) -> list[np.ndarray]:
        """Per-level views of a whole-lattice buffer (levels along the last axis)."""
        off = self.offsets
        n_levels = int(np.searchsorted(off, flat.shape[-1]))
        if n_levels == off.size or off[n_levels] != flat.shape[-1]:
            raise InvalidArgument(
                f"a buffer of {flat.shape[-1]} nodes does not end at a level boundary"
            )
        return [flat[..., off[k] : off[k + 1]] for k in range(n_levels)]

    def w_values(self, k: int) -> np.ndarray:
        """Brownian values at level ``k``: (2 * ups - k) * sqrt(dt)."""
        return (2.0 * self.up_counts(k) - k) * self.grid.sqrt_dt

    # -- sweep primitives --------------------------------------------------

    def split_children(self, values_next: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Split a level-(k+1) buffer into (down-child, up-child) views per parent.

        The split runs along the last axis, so a ``(rows, nodes)`` stack of
        level buffers splits row by row.
        """
        v = np.asarray(values_next, dtype=float)
        nodes = v.shape[-1] if v.ndim else 1
        if self.topology == RECOMBINING:
            if nodes < 2:
                raise InvalidArgument("child level must have at least 2 nodes")
            return v[..., :-1], v[..., 1:]
        if nodes % 2 != 0:
            raise InvalidArgument("full-binary child level must have even size")
        return v[..., 0::2], v[..., 1::2]

    def conditional_expectation(self, values_next: np.ndarray) -> np.ndarray:
        """One-step discrete E[. | F_k] applied to a level-(k+1) buffer."""
        down, up = self.split_children(values_next)
        return 0.5 * (down + up)

    def forward_level(self, down: np.ndarray, up: np.ndarray) -> tuple[np.ndarray, float]:
        """Next level from each node's (down-child, up-child) predictions.

        A full-binary level interleaves the two.  On a recombining level the
        end nodes take ``down[0]`` and ``up[-1]`` and an interior node the
        mean of its two parents' predictions.  The gap is the largest
        disagreement between two parents, 0.0 on full-binary and on a
        one-node level.
        """
        if self.topology == FULL_BINARY:
            nxt = np.empty(2 * down.size)
            nxt[0::2] = down
            nxt[1::2] = up
            return nxt, 0.0
        nxt = np.empty(down.size + 1)
        nxt[0] = down[0]
        nxt[-1] = up[-1]
        if down.size == 1:
            return nxt, 0.0
        from_up = up[:-1]      # parent j feeds slot j+1
        from_down = down[1:]   # parent j+1 feeds slot j+1
        nxt[1:-1] = 0.5 * (from_up + from_down)
        return nxt, float(np.max(np.abs(from_up - from_down)))

    def root_expectation(self, values: np.ndarray) -> float:
        """Expectation at the root of a buffer at the given level (tower property)."""
        v = np.asarray(values, dtype=float)
        while v.size > 1:
            v = self.conditional_expectation(v)
        return float(v[0])

    # -- topology change ---------------------------------------------------

    def expand_full_binary(self) -> "Lattice":
        """Full-binary lattice on the same time grid (identity if already binary)."""
        if self.topology == FULL_BINARY:
            return self
        return Lattice(self.grid, FULL_BINARY)

    def lift_level(self, values: np.ndarray, k: int, binary: "Lattice") -> np.ndarray:
        """Map a recombining level-``k`` buffer onto the expanded binary level."""
        if self.topology != RECOMBINING or binary.topology != FULL_BINARY:
            raise InvalidArgument("lift_level maps recombining buffers onto binary ones")
        return np.asarray(values, dtype=float)[binary.up_counts(k)]

    def _check_level(self, k: int) -> None:
        if not 0 <= k <= self.grid.n_steps:
            raise InvalidArgument(f"level {k} outside [0, {self.grid.n_steps}]")

    def __repr__(self) -> str:  # pragma: no cover
        return (
            f"Lattice(T={self.grid.horizon}, n={self.grid.n_steps}, "
            f"topology={self.topology!r})"
        )


def build_binomial(T: float, n_steps: int) -> Lattice:
    """Recombining binomial lattice for the Brownian filtration on [0, T]."""
    return Lattice(TimeGrid(T, n_steps), RECOMBINING)


def build_full_binary(T: float, n_steps: int) -> Lattice:
    """Non-recombining binary lattice; one node per path prefix."""
    return Lattice(TimeGrid(T, n_steps), FULL_BINARY)


class NodeProcess:
    """An adapted process: one value per lattice node.

    The values live in one contiguous buffer, ``flat``, laid out level by
    level as ``lattice.offsets`` says; ``levels[k]`` and ``values(k)`` are
    views into it, so writing a level writes the process.  A process may
    stop short of the terminal level (integrands such as Z are defined on
    levels ``0 .. n-1`` only).
    """

    __slots__ = ("lattice", "flat", "levels")

    def __init__(self, lattice: Lattice, levels: Sequence[np.ndarray]):
        if not levels:
            raise InvalidArgument("a NodeProcess needs at least one level")
        if len(levels) > lattice.n_steps + 1:
            raise InvalidArgument("more levels than the lattice has")
        self._adopt(lattice, np.empty(lattice.offsets[len(levels)]))
        for k, lv in enumerate(levels):
            a = np.asarray(lv, dtype=float)
            if a.shape != (lattice.level_size(k),):
                raise InvalidArgument(
                    f"level {k} has size {a.shape}, expected ({lattice.level_size(k)},)"
                )
            self.levels[k][...] = a

    def _adopt(self, lattice: Lattice, flat: np.ndarray) -> None:
        self.lattice = lattice
        self.flat = flat
        self.levels = lattice.split_levels(flat)

    # -- constructors ------------------------------------------------------

    @classmethod
    def from_flat(cls, lattice: Lattice, flat: np.ndarray) -> "NodeProcess":
        """Process over the buffer ``flat`` itself (no copy), levels 0 .. k-1 end to end."""
        flat = np.asarray(flat, dtype=float)
        if flat.ndim != 1 or not flat.size:
            raise InvalidArgument("a NodeProcess needs a non-empty 1-d buffer")
        if flat.size > lattice.offsets[-1]:
            raise InvalidArgument("more levels than the lattice has")
        proc = cls.__new__(cls)
        proc._adopt(lattice, flat)
        return proc

    @classmethod
    def empty(cls, lattice: Lattice, n_levels: int) -> "NodeProcess":
        """Uninitialised process of ``n_levels`` levels, to be written level by level."""
        if not 1 <= n_levels <= lattice.n_steps + 1:
            raise InvalidArgument(f"a NodeProcess has 1 to {lattice.n_steps + 1} levels")
        return cls.from_flat(lattice, np.empty(lattice.offsets[n_levels]))

    @classmethod
    def constant(cls, lattice: Lattice, value: float, n_levels: int | None = None) -> "NodeProcess":
        n = lattice.n_steps + 1 if n_levels is None else n_levels
        proc = cls.empty(lattice, n)
        proc.flat[...] = float(value)
        return proc

    # -- access ------------------------------------------------------------

    @property
    def n_levels(self) -> int:
        return len(self.levels)

    def values(self, k: int) -> np.ndarray:
        return self.levels[k]

    @property
    def terminal(self) -> np.ndarray:
        return self.levels[-1]

    @property
    def root(self) -> float:
        return float(self.flat[0])

    def map(self, fn: Callable[[np.ndarray], np.ndarray]) -> "NodeProcess":
        """Apply an elementwise ``fn`` to every node, in one call on the buffer."""
        return NodeProcess.from_flat(self.lattice, fn(self.flat))

    def sup_diff(self, other: "NodeProcess") -> float:
        """Largest node-wise absolute difference over the shared levels."""
        size = min(self.flat.size, other.flat.size)
        return float(np.max(np.abs(self.flat[:size] - other.flat[:size])))

    def sup_abs(self) -> float:
        return float(np.max(np.abs(self.flat)))

    def __mul__(self, c: float) -> "NodeProcess":
        return self.map(lambda lv: lv * c)

    __rmul__ = __mul__

    def __repr__(self) -> str:  # pragma: no cover
        return f"NodeProcess(levels={self.n_levels}, root={self.levels[0]})"


@dataclass
class StateSde:
    """Markov state dynamics dR = b(t, R) dt + sigma dW, R_0 = r0.

    ``drift`` may be a constant or a callable ``b(t, r)`` operating on
    arrays.  ``sigma`` must be a positive constant on recombining lattices;
    a callable ``sigma(t, r)`` is accepted in full-binary mode only.
    """

    drift: float | Callable[[float, np.ndarray], np.ndarray]
    sigma: float | Callable[[float, np.ndarray], np.ndarray]
    r0: float

    def drift_at(self, t: float, r: np.ndarray) -> np.ndarray:
        if callable(self.drift):
            return np.asarray(self.drift(t, r), dtype=float) * np.ones_like(r)
        return np.full_like(r, float(self.drift))

    def sigma_at(self, t: float, r: np.ndarray) -> np.ndarray:
        if callable(self.sigma):
            return np.asarray(self.sigma(t, r), dtype=float) * np.ones_like(r)
        return np.full_like(r, float(self.sigma))

    def drift_gradient(self, t: float, r: np.ndarray) -> np.ndarray:
        """d b / d r by central differences (used by variational sweeps)."""
        return _fd_gradient(lambda s: self.drift_at(t, s), r)


def _fd_gradient(fn: Callable[[np.ndarray], np.ndarray], r: np.ndarray) -> np.ndarray:
    """Central difference of ``fn`` at ``r``, with step 1e-6 (1 + |r|)."""
    h = 1e-6 * (1.0 + np.abs(r))
    return (np.asarray(fn(r + h), dtype=float) - np.asarray(fn(r - h), dtype=float)) / (2.0 * h)


def simulate_state(lattice: Lattice, sde: StateSde) -> NodeProcess:
    """Euler path of the state SDE on the lattice.

    On the recombining topology both parents of an interior node must
    predict the same child value; any disagreement means the coefficients
    are state-dependent and the caller should use a full-binary lattice.
    """
    if lattice.topology == RECOMBINING and callable(sde.sigma):
        raise ModeConflict(
            "state-dependent volatility requires a full-binary lattice"
        )
    dt = lattice.grid.dt
    sq = lattice.grid.sqrt_dt
    levels = [np.array([sde.r0], dtype=float)]
    for k in range(lattice.n_steps):
        r = levels[-1]
        t = lattice.grid.t(k)
        b = sde.drift_at(t, r)
        s = sde.sigma_at(t, r)
        nxt, gap = lattice.forward_level(r + b * dt - s * sq, r + b * dt + s * sq)
        if gap > _RECOMBINE_TOL * (1.0 + float(np.max(np.abs(r)))):
            raise ModeConflict(
                "state-dependent drift does not recombine "
                f"(level {k + 1}, max parent disagreement {gap:.3e}); "
                "use a full-binary lattice"
            )
        levels.append(nxt)
    return NodeProcess(lattice, levels)


def _forward_wealth(
    lattice: Lattice,
    driver: Driver,
    h_of_level: Callable[[int, np.ndarray], np.ndarray],
    x0: float,
) -> tuple[NodeProcess, float]:
    """Forward accumulation dX = -g(t, H) dt + H dW on the lattice.

    ``h_of_level(k, x_k)`` gives the integrand at level k from the wealth
    already built there.  Each step is :meth:`Lattice.forward_level`, so on
    the recombining topology an interior node inherits the mean of its two
    parents' predictions; the largest parent disagreement is returned as a
    consistency diagnostic (exactly zero when H is deterministic per level).
    """
    grid = lattice.grid
    dt, sq = grid.dt, grid.sqrt_dt
    x = NodeProcess.empty(lattice, lattice.n_steps + 1)
    x_levels = x.levels
    x_levels[0][0] = float(x0)
    worst = 0.0
    for k in range(lattice.n_steps):
        xk = x_levels[k]
        h = h_of_level(k, xk)
        g = np.asarray(driver.g(grid.t(k), h), dtype=float)
        nxt, gap = lattice.forward_level(xk - g * dt - h * sq, xk - g * dt + h * sq)
        worst = max(worst, gap)
        if not np.all(np.isfinite(nxt)):
            raise NumericOverflow(f"non-finite wealth at level {k + 1}", level=k + 1)
        x_levels[k + 1][...] = nxt
    return x, worst
