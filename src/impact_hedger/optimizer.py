"""Optimal strategy via the first-order condition and the coupled system.

The backward pair (zeta, M) carries the curvature of the investor's
marginal utility; the node-wise root H of

    -U'(x + zeta) g_z(t, H) + U''(x + zeta) (H + M) = 0

is the optimal position integrand, and the forward wealth closes the loop.
With CARA utility the backward pair decouples from wealth and the system
solves in one backward sweep; otherwise an Anderson-accelerated Picard
iteration alternates backward and forward passes.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .driver import Driver
from .errors import ContractViolation, DomainError, InvalidArgument, NumericOverflow, RootNotFound
from .gexpect import (  # noqa: F401  (solve_bsde re-exported)
    PositionCurve,
    _invert_streamed,
    _stack_levels,
    _sweep_levels,
    _unit_integrands,
    solve_bsde,
)
from .lattice import Lattice, NodeProcess, _forward_wealth


@dataclass(frozen=True)
class UtilitySpec:
    """Utility with derivatives up to third order and inverse marginal."""

    kind: str
    u: Callable[[np.ndarray], np.ndarray]
    u1: Callable[[np.ndarray], np.ndarray]
    u2: Callable[[np.ndarray], np.ndarray]
    u3: Callable[[np.ndarray], np.ndarray]
    inverse_marginal: Callable[[np.ndarray], np.ndarray]
    gamma_a: float | None = None

    def psi1(self, x: np.ndarray) -> np.ndarray:
        """U' / U'' (nonpositive for concave increasing utilities)."""
        return np.asarray(self.u1(x)) / np.asarray(self.u2(x))

    def psi2(self, x: np.ndarray) -> np.ndarray:
        """U''' / U''."""
        return np.asarray(self.u3(x)) / np.asarray(self.u2(x))

    def __post_init__(self) -> None:
        """Every spec is checked on [-2, 2] when it is built, except where U'
        or U'' is not finite or both underflow below the normal floats (CARA
        with gamma_a = 400 has U' = inf at -2 and 0.0 at 2)."""
        xs = np.linspace(-2.0, 2.0, 41)
        with np.errstate(all="ignore"):
            u1 = np.asarray(self.u1(xs), dtype=float)
            u2 = np.asarray(self.u2(xs), dtype=float)
            big = np.maximum(abs(u1), abs(u2))  # NaN if either is
            seen = np.isfinite(big) & (big >= np.finfo(float).tiny)
            if not seen.any():
                raise InvalidArgument("U' and U'' leave float range on all of [-2, 2]")
            xs, u1, u2 = xs[seen], u1[seen], u2[seen]
            if np.any(u1 <= 0):
                raise InvalidArgument("U' must be strictly positive")
            if np.any(u2 >= 0):
                raise InvalidArgument("U'' must be strictly negative")
            back = np.asarray(self.inverse_marginal(u1))
        if not np.max(np.abs(back - xs)) <= 1e-10:
            raise InvalidArgument("inverse marginal does not invert U'")


def cara_utility(gamma_a: float) -> UtilitySpec:
    """U(x) = -exp(-gamma_a x)."""
    if not gamma_a > 0:
        raise InvalidArgument("gamma_a must be positive")
    g = float(gamma_a)
    return UtilitySpec(
        kind="cara",
        u=lambda x: -np.exp(-g * x),
        u1=lambda x: g * np.exp(-g * x),
        u2=lambda x: -g * g * np.exp(-g * x),
        u3=lambda x: g**3 * np.exp(-g * x),
        inverse_marginal=lambda v: -np.log(_in_marginal_range(v) / g) / g,
        gamma_a=g,
    )


def custom_utility(
    u: Callable, u1: Callable, u2: Callable, u3: Callable, inverse_marginal: Callable | None = None
) -> UtilitySpec:
    """Wrap user callables; the inverse marginal falls back to a root search."""
    if inverse_marginal is None:
        inverse_marginal = lambda v: _invert_decreasing(u1, v)  # noqa: E731
    return UtilitySpec(kind="custom", u=u, u1=u1, u2=u2, u3=u3, inverse_marginal=inverse_marginal)


def _in_marginal_range(v) -> np.ndarray:
    """``v`` as floats if finite and positive, the range of a marginal utility."""
    arr = np.asarray(v, dtype=float)
    if not np.all(np.isfinite(arr) & (arr > 0)):
        raise DomainError("inverse marginal defined for finite positive arguments only")
    return arr


def _invert_decreasing(fn: Callable[[np.ndarray], np.ndarray], v, xtol: float = 1e-14):
    """Solve fn(x) = v for a strictly decreasing fn, all of ``v`` in one
    search from [-1, 1]."""
    arr = _in_marginal_range(v)
    one = np.ones(arr.shape)
    out = _decreasing_root(lambda x: fn(x) - arr, -one, one, xtol, _double, 200)
    return out if np.ndim(v) else float(out)


def _double(lo: np.ndarray, hi: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    return lo * 2.0, hi * 2.0


def _decreasing_root(fn: Callable, lo, hi, xtol: float, widen: Callable, tries: int) -> np.ndarray:
    """Roots of a decreasing fn, which maps an array of candidates to its
    values elementwise, on the brackets ``lo``, ``hi``.  Each bracket widens
    by ``widen`` until fn(lo) >= 0 >= fn(hi), in at most ``tries`` brackets;
    ``RootNotFound`` carries the last bracket of the first element, in C
    order, that never brackets.  Illinois steps, each at least tol = xtol +
    4 eps |b| long, and a bisection when two steps have not halved [a, b]
    stop an element at fn(x) == 0 or at brentq's test |b - a| <= 2 tol(x).
    A stopped element never moves, so a batch gives its one-element roots."""
    rtol = 4.0 * np.finfo(float).eps  # brentq's relative tolerance
    lo, hi = np.array(lo, dtype=float), np.array(hi, dtype=float)
    open_ = np.ones(lo.shape, dtype=bool)
    for attempt in range(tries):
        if attempt:
            lo[open_], hi[open_] = widen(lo[open_], hi[open_])
        fa, fb = np.asarray(fn(lo), dtype=float), np.asarray(fn(hi), dtype=float)
        open_ &= ~((fa >= 0.0) & (fb <= 0.0))
        if not open_.any():
            break
    else:
        i = int(np.flatnonzero(open_)[0])
        last = (float(lo.flat[i]), float(hi.flat[i]))
        raise RootNotFound(
            f"no sign change of a decreasing function in {tries} brackets, "
            f"the last [{last[0]!r}, {last[1]!r}]",
            bracket=last,
        )
    # (a, fa) is the end kept from the last step, (b, fb) the newest point
    a, b, root = lo, hi, np.where(fa == 0.0, lo, hi)
    done = (fa == 0.0) | (fb == 0.0)
    width, older, last_width = np.abs(b - a), np.inf, np.inf
    while not done.all():
        with np.errstate(all="ignore"):
            x = b - fb * (b - a) / (fb - fa)  # regula falsi; NaN at an infinite end
        tol = xtol + rtol * np.abs(b)
        x = np.where(np.abs(x - b) < tol, b + np.copysign(tol, a - b), x)
        falsi = (x > np.minimum(a, b)) & (x < np.maximum(a, b)) & (width <= 0.5 * older)
        x = np.where(done, root, np.where(falsi, x, 0.5 * a + 0.5 * b))
        fx = np.asarray(fn(x), dtype=float)
        # Illinois: past a sign change b is the other end, else a's value halves
        flip = (fx > 0.0) != (fb > 0.0)
        a, fa = np.where(flip, b, a), np.where(flip, fb, 0.5 * fa)
        b, fb = x, fx
        older, last_width, width = last_width, width, np.abs(b - a)
        stop = ~done & ((fx == 0.0) | (width <= 2.0 * (xtol + rtol * np.abs(x))))
        root = np.where(stop, x, root)
        done |= stop
    return root


@dataclass
class OptimalityReport:
    """Residual magnitudes of the first-order and martingale conditions."""

    martingale_residual: float
    foc_residual: float | None
    homogeneous_equality_residual: float | None
    homogeneous_slack: tuple[float, float] | None


@dataclass
class FbsdeSolution:
    """Forward wealth, backward pair, optimal integrand and diagnostics."""

    x: NodeProcess
    zeta: NodeProcess
    m: NodeProcess
    h: NodeProcess
    theta: NodeProcess | None = None
    residuals: OptimalityReport | None = None
    converged: bool = True
    iterations: int = 0
    forward_consistency: float = 0.0
    ambiguous: bool = False
    # Picard only: the undamped residual of each pass, and how the iterate
    # after each unconverged pass was made ("damped", "anderson", "fallback")
    residual_history: list[float] = field(default_factory=list)
    step_history: list[str] = field(default_factory=list)


# ---------------------------------------------------------------------------
# first-order condition solvers
# ---------------------------------------------------------------------------


def solve_h(
    driver: Driver, utility: UtilitySpec, t: float, x: float, zeta: float, m: float
) -> float:
    """Root H of -U'(x+zeta) g_z(t, H) + U''(x+zeta) (H + m) = 0: the one-node
    case of ``_h_level_general``."""
    w, m = np.array([x + zeta]), np.array([m], float)
    return float(_h_level_general(driver, utility, t, w, m)[0])


@dataclass
class HomogeneousRoot:
    """Outcome of the kinked first-order condition."""

    theta: float
    h: float
    ambiguous: bool


def solve_h_homogeneous(
    z_minus: float,
    z_plus: float,
    g_minus: float,
    g_plus: float,
    utility: UtilitySpec,
    x: float,
    zeta: float,
    m: float,
    theta_plus: bool = False,
) -> HomogeneousRoot:
    """Optimal position for a positively homogeneous driver.

    ``z_minus``/``z_plus`` are the integrands of the unit short/long
    payoffs and ``g_minus``/``g_plus`` the driver values on them.  The long
    branch applies when it is positive, the short branch when negative,
    and otherwise the no-trade band absorbs the position.  When both
    branches fire at once the root is ambiguous unless short sales are
    excluded (``theta_plus``), in which case only the long branch is used.
    A zero ``z_plus`` has no short branch.
    """
    if z_minus == 0.0:
        raise InvalidArgument("unit-short integrand must be nonzero")
    rows = np.array([[x + zeta], [m], [z_minus], [z_plus], [g_minus], [g_plus]], dtype=float)
    h, theta, ambiguous = _homogeneous_h_level(utility, *rows, theta_plus)
    return HomogeneousRoot(theta=float(theta[0]), h=float(h[0]), ambiguous=ambiguous)


# ---------------------------------------------------------------------------
# coupled system solvers
# ---------------------------------------------------------------------------


def _h_level_cara(driver: Driver, utility: UtilitySpec, t: float, m: np.ndarray) -> np.ndarray:
    """Vectorized H(t, M) for CARA utility: 0 in grad g(H) + gamma_a (H + M)."""
    gamma_a = utility.gamma_a
    coeffs = driver.affine_grad_coeffs(t)
    if coeffs is not None:
        a, b = coeffs
        return (-b - gamma_a * m) / (gamma_a + a)
    if driver.kinked:
        # driver.g(t, 1.0) is the right slope at 0, driver.g(t, -1.0) minus the left one
        h_pos = -m - float(driver.g(t, 1.0)) / gamma_a
        h_neg = -m + float(driver.g(t, -1.0)) / gamma_a
        return np.where(h_neg < 0, h_neg, np.where(h_pos > 0, h_pos, 0.0))
    return _h_level_general(driver, utility, t, np.zeros_like(m), m)


def _h_level_general(
    driver: Driver,
    utility: UtilitySpec,
    t: float,
    w: np.ndarray,
    m: np.ndarray,
    level: int | None = None,
    checked: tuple | None = None,
) -> np.ndarray:
    """Vectorized H at a level for wealth-plus-zeta w and projection m, at
    nodes that pass ``_node_check`` (the first that fails is refused, naming
    ``level``; ``checked`` is that check's result if the caller has it).
    Affine gradients have a closed form.  Otherwise the nodes are searched
    as one array, each from |H| <= |m| + |psi1 g_z(t, 0)| + 1, which holds
    the root of a convex driver; the root must keep the linear-growth
    bound.  The first node's error is raised."""
    u1, u2, psi1, count = checked or _node_check(utility, w, m)
    coeffs = driver.affine_grad_coeffs(t)
    if coeffs is not None:
        if count < w.size:
            _refuse_node(count, w, m, u1, u2, psi1, level)
        a, b = coeffs
        return (psi1 * b - m) / (1.0 - a * psi1)
    if not driver.is_differentiable:
        raise ContractViolation("the first-order condition requires a differentiable driver")
    # a node's checks, in order: the node check, a bracket, the linear-growth
    # bound; the nodes before the first to fail one are searched
    with np.errstate(all="ignore"):  # a node out of float range is refused below
        reach = np.abs(m) + np.abs(psi1 * float(driver.grad(t, 0.0)))

    def search(s: slice) -> np.ndarray:
        roots = _decreasing_root(
            lambda h: -u1[s] * driver.grad(t, h) + u2[s] * (h + m[s]),
            -reach[s] - 1.0, reach[s] + 1.0, 1e-14, _double, 60,
        )
        bound = reach[s] + 1e-9 * (1.0 + np.abs(m[s]))
        over = np.abs(roots) > bound
        if over.any():
            h, b = roots[over][0], bound[over][0]
            raise RootNotFound(f"first-order root {h:.6g} violates the linear-growth bound {b:.6g}")
        return roots

    try:
        roots = search(slice(0, count)) if count else np.empty(0)
    except RootNotFound:  # the first node to fail raises its own error
        for j in range(count):
            search(slice(j, j + 1))
        raise
    if count < w.size:
        _refuse_node(count, w, m, u1, u2, psi1, level)
    return roots


def _node_check(utility: UtilitySpec, w: np.ndarray, m: np.ndarray):
    """U', U'' and psi1 = U'/U'' at the nodes' X + zeta = ``w``, and how many
    leading nodes pass the check of every first-order rule: U'' < 0, then a
    finite w, M and psi1."""
    with np.errstate(all="ignore"):  # a failing node is refused by the caller
        u1, u2 = np.asarray(utility.u1(w), float), np.asarray(utility.u2(w), float)
        psi1 = u1 / u2
        # the whole level first, as a per-node mask on every level slows
        # Picard; a sum of finite values that overflows falls to the mask
        if (u2 < 0).all() and np.isfinite(psi1 + m + w).all():
            return u1, u2, psi1, w.size
    bad = (u2 >= 0) | ~(np.isfinite(w) & np.isfinite(m) & np.isfinite(psi1))
    return u1, u2, psi1, int(np.argmax(bad)) if bad.any() else w.size


def _refuse_node(j: int, w, m, u1, u2, psi1, level: int | None) -> None:
    """Refuse node ``j``, which failed ``_node_check``.  U'' = 0 beside a
    finite U' has underflowed (``NumericOverflow``), any other U'' >= 0
    breaks concavity; otherwise the node is not finite."""
    if u2[j] == 0.0 and np.isfinite(u1[j]):
        at = "" if level is None else f" on level {level}"
        msg = f"U'' is {float(u2[j])!r} at X + zeta = {w[j]:.6g}{at}; it has underflowed"
        raise NumericOverflow(msg, level=level)
    if u2[j] >= 0:
        raise InvalidArgument("U'' must be negative at x + zeta")
    raise NumericOverflow(
        f"first-order condition at a non-finite node: x + zeta = {w[j]:.6g}, "
        f"M = {m[j]:.6g}, psi1 = {psi1[j]:.6g}"
    )


def solve_fbsde_cara(lattice: Lattice, driver: Driver, gamma_a: float, x0: float) -> FbsdeSolution:
    """Decoupled solve for CARA utility.

    The backward pair solves zeta_k = E_k[zeta_{k+1}] - f(t_k, M_k) dt with
    f(t, M) = (gamma_a / 2) |H + M|^2 + g(t, H) and zero terminal value, in
    one backward sweep; wealth then accumulates forward with H(t, M).  The
    holdings are left to ``recover_theta``.
    """
    utility = cara_utility(gamma_a)
    grid = lattice.grid
    h = NodeProcess.empty(lattice, lattice.n_steps)

    def step(k: int, z: np.ndarray, _) -> tuple[np.ndarray, np.ndarray]:
        t = grid.t(k)
        m = -z
        hk = h.levels[k]
        hk[...] = _h_level_cara(driver, utility, t, m)
        f = 0.5 * gamma_a * (hk + m) ** 2 + np.asarray(driver.g(t, hk), dtype=float)
        # |df/dM| = |gamma_a (H + M)| at the first-order root, by the envelope argument
        return f, np.abs(gamma_a * (hk - z))

    zeta, m = _backward_pair(lattice, step)
    x, consistency = _forward_wealth(lattice, driver, lambda k, _: h.levels[k], x0)
    sol = FbsdeSolution(x=x, zeta=zeta, m=m, h=h, forward_consistency=consistency)
    sol.residuals = verify_optimality(sol, driver, utility)
    return sol


def _backward_pair(lattice: Lattice, step: Callable) -> tuple[NodeProcess, NodeProcess]:
    """(zeta, M) of the guarded backward sweep of ``step`` (the ``_sweep_levels``
    callback) from a zero terminal value; M = -Z, since the pair carries +M dW."""
    terminal = np.zeros(lattice.level_size(lattice.n_steps))
    levels = _sweep_levels(lattice, terminal, step)
    zeta, z = _stack_levels(lattice, terminal, levels)
    m = np.negative(z, out=z)
    return NodeProcess.from_flat(lattice, zeta), NodeProcess.from_flat(lattice, m)


def _homogeneous_h_level(
    utility: UtilitySpec,
    w: np.ndarray,
    m: np.ndarray,
    zm: np.ndarray,
    zp: np.ndarray,
    gm: np.ndarray,
    gp: np.ndarray,
    theta_plus: bool,
    level: int | None = None,
    checked: tuple | None = None,
) -> tuple[np.ndarray, np.ndarray, bool]:
    """Vectorized kinked first-order condition; returns (h, theta, ambiguous).

    Every node must pass ``_node_check`` (``checked``, if the caller has
    its result); the first that fails is refused, naming ``level``.  A node
    with ``zp == 0`` has no short branch.
    """
    u1, u2, psi1, count = checked or _node_check(utility, w, m)
    if count < w.size:
        _refuse_node(count, w, m, u1, u2, psi1, level)
    cand_long = (-zm * m + psi1 * gm) / (zm * zm)
    long_on = cand_long > 0
    theta = np.where(long_on, cand_long, 0.0)
    h = np.where(long_on, cand_long * zm, 0.0)
    ambiguous = False
    if not theta_plus:
        with np.errstate(divide="ignore", invalid="ignore"):
            cand_short = np.where(zp != 0.0, -(-zp * m + psi1 * gp) / (zp * zp), np.nan)
        short_on = ~long_on & (cand_short < 0)
        theta = np.where(short_on, cand_short, theta)
        h = np.where(short_on, np.abs(cand_short) * zp, h)
        ambiguous = bool(np.any(long_on & (cand_short < 0)))
    return h, theta, ambiguous


ANDERSON_DEPTH = 3  # residual differences mixed into each Picard step


def _anderson_step(
    x: np.ndarray,
    f: np.ndarray,
    dx: list[np.ndarray],
    df: list[np.ndarray],
    beta: float,
) -> np.ndarray | None:
    """Anderson-mixed iterate x + beta f - sum_i gamma_i (dx_i + beta df_i).

    gamma minimizes |f - sum_i gamma_i df_i|_2 (Walker & Ni, 2011), found
    from the normal equations.  The Gram system and every sum run through
    ``np.einsum``, which never calls BLAS, so the step does not depend on
    the BLAS thread count.  Returns None when the system is singular.
    """
    dfs = np.stack(df)
    gram = np.einsum("in,jn->ij", dfs, dfs)
    try:
        gamma = np.linalg.solve(gram, np.einsum("in,n->i", dfs, f))
    except np.linalg.LinAlgError:
        return None
    if not np.all(np.isfinite(gamma)):
        return None
    return x + beta * f - np.einsum("i,in->n", gamma, np.stack(dx) + beta * dfs)


def solve_fbsde_picard(
    lattice: Lattice,
    driver: Driver,
    utility: UtilitySpec,
    x0: float,
    tol: float = 1e-8,
    max_iter: int = 50,
    damping: float = 0.5,
    s_terminal=None,
    theta_plus: bool = True,
    curve: PositionCurve | None = None,
    x_start=None,
) -> FbsdeSolution:
    """Anderson-accelerated Picard iteration on the coupled system.

    Each pass solves the backward pair against the frozen wealth iterate
    (driver (1/2) psi2(X + zeta) |H + M|^2 - g(t, H), H from the node-wise
    first-order condition) and then refreshes wealth from the new
    integrand.  The wealth iterate is one flat vector over all levels; the
    next one mixes the last ``ANDERSON_DEPTH`` residual differences into
    the damped step (Anderson acceleration, with ``damping`` as the mixing
    weight).  Without history, after a singular mixing system, or after a
    pass whose undamped residual rose, the history is cleared and the plain
    damped step is taken.  The convergence test uses the undamped
    fixed-point residual.  The returned wealth is the last pass's forward
    wealth, the one the returned integrand generates, converged or not, so
    a decoupled system is reproduced exactly.  ``residual_history`` and
    ``step_history`` of the solution record every pass.

    The first iterate is ``x_start``, one finite wealth per node of all
    levels in the flat layout, else the constant ``x0``.  Under CARA
    utility a pass's image does not depend on the iterate but through the
    rounding of psi1 and psi2, so started at the wealth of
    ``solve_fbsde_cara`` it converges in one pass; any other start still
    iterates.

    Kinked homogeneous drivers require the traded payoff (for the unit
    integrands) and default to the long-only mode, where the kinked
    first-order condition always has a unique root and gives the holdings
    too.  ``curve``, the driver's cone (a ``PositionCurve`` without a
    y-grid), supplies those integrands.  Any other driver takes no payoff:
    its holdings are left to ``recover_theta``.
    """
    if not tol > 0:
        raise InvalidArgument("tol must be positive")
    if not 0.0 < damping <= 1.0:
        raise InvalidArgument("damping must lie in (0, 1]")
    if max_iter < 1:
        raise InvalidArgument("max_iter must be at least 1")
    kink = z_minus = z_plus = None
    if driver.kinked:
        if s_terminal is None:
            raise ContractViolation(
                "homogeneous drivers need s_terminal for the unit integrands"
            )
        if curve is not None and curve.y_grid is None:
            z_minus, z_plus = curve.z_minus, curve.z_plus
        else:
            z_minus, z_plus = _unit_integrands(lattice, driver, s_terminal)
        kink = (z_minus, z_plus, theta_plus)
    elif s_terminal is not None:
        raise InvalidArgument(
            "s_terminal is read only by a kinked driver; recover the holdings with recover_theta"
        )

    if x_start is None:
        x_iter = np.full(lattice.offsets[-1], float(x0))
    else:
        x_iter = np.asarray(x_start, dtype=float)
        if x_iter.shape != (lattice.offsets[-1],):
            raise InvalidArgument(
                f"x_start has shape {x_iter.shape}, expected ({lattice.offsets[-1]},): "
                "one wealth per node of all levels"
            )
        if not np.isfinite(x_iter).all():
            raise InvalidArgument("x_start must be finite")
    converged = False
    residual_history: list[float] = []
    step_history: list[str] = []
    dx: list[np.ndarray] = []
    df: list[np.ndarray] = []
    x_prev = f_prev = None

    for iterations in range(1, max_iter + 1):
        zeta, m, h, theta, ambiguous = _picard_pass(lattice, driver, utility, x_iter, kink)
        x, consistency = _forward_wealth(lattice, driver, lambda k, _: h.levels[k], x0)
        image = x.flat
        resid = image - x_iter
        residual = float(np.max(np.abs(resid)))
        residual_history.append(residual)
        if residual < tol:
            converged = True
            break

        step, kind = None, "anderson"
        if f_prev is not None and residual <= residual_history[-2]:
            dx.append(x_iter - x_prev)
            df.append(resid - f_prev)
            del dx[:-ANDERSON_DEPTH], df[:-ANDERSON_DEPTH]
            step = _anderson_step(x_iter, resid, dx, df, damping)
        if step is None:
            # first pass, a raised residual or a singular mixing system: restart
            kind = "damped" if f_prev is None else "fallback"
            dx.clear()
            df.clear()
            step = damping * image + (1.0 - damping) * x_iter
        step_history.append(kind)
        x_prev, f_prev = x_iter, resid
        x_iter = step

    sol = FbsdeSolution(
        x=x,
        zeta=zeta,
        m=m,
        h=h,
        theta=theta,
        converged=converged,
        iterations=iterations,
        forward_consistency=consistency,
        ambiguous=ambiguous,
        residual_history=residual_history,
        step_history=step_history,
    )
    sol.residuals = verify_optimality(sol, driver, utility, z_minus=z_minus, z_plus=z_plus)
    return sol


def _picard_pass(
    lattice: Lattice,
    driver: Driver,
    utility: UtilitySpec,
    x_iter: np.ndarray,
    kink: tuple[NodeProcess, NodeProcess, bool] | None,
) -> tuple[NodeProcess, NodeProcess, NodeProcess, NodeProcess | None, bool]:
    """One backward pass against the frozen flat wealth iterate: zeta, M, H,
    and for a kinked driver (``kink`` = (z_minus, z_plus, theta_plus)) theta
    and whether any node was ambiguous.  H solves the first-order condition
    at w = X + E_k[zeta_{k+1}], the sweep's level mean; the sweep's driver
    is -f, so its ``cond - (-f) dt`` is ``cond + f dt`` bit for bit.  The
    step-size guard takes |df/dM| <= |H + M| (|psi2| + |psi2 - 1/psi1|),
    since -1 <= dH/dM <= 0 for a convex driver and U'' < 0 < U'; U'' and
    psi1 are the first-order rule's own, from its node check."""
    grid = lattice.grid
    off = lattice.offsets
    h = NodeProcess.empty(lattice, lattice.n_steps)
    theta = None if kink is None else NodeProcess.empty(lattice, lattice.n_steps)
    ambiguous = False

    def step(k: int, z: np.ndarray, cond: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        nonlocal ambiguous
        t = grid.t(k)
        m = -z
        w = x_iter[off[k] : off[k + 1]] + cond
        hk = h.levels[k]
        checked = _node_check(utility, w, m)
        if kink is None:
            hk[...] = _h_level_general(driver, utility, t, w, m, k, checked)
        else:
            z_minus, z_plus, theta_plus = kink
            zm, zp = z_minus.values(k), z_plus.values(k)
            gm, gp = np.asarray(driver.g(t, zm)), np.asarray(driver.g(t, zp))
            hk[...], theta.levels[k][...], amb = _homogeneous_h_level(
                utility, w, m, zm, zp, gm, gp, theta_plus, k, checked
            )
            ambiguous = ambiguous or amb
        _, u2, psi1, _ = checked
        psi2 = np.asarray(utility.u3(w)) / u2
        hm = hk + m
        slope = np.abs(hm) * (np.abs(psi2) + np.abs(psi2 - 1.0 / psi1))
        if not np.isfinite(slope).all():  # psi2 out of float range is refused by name
            _in_float_range(k, w, "U'''/U''", utility.psi2)
        return -(0.5 * psi2 * hm**2 - np.asarray(driver.g(t, hk), dtype=float)), slope

    zeta, m = _backward_pair(lattice, step)
    return zeta, m, h, theta, ambiguous


def verify_optimality(
    sol: FbsdeSolution,
    driver: Driver,
    utility: UtilitySpec,
    z_minus: NodeProcess | None = None,
    z_plus: NodeProcess | None = None,
) -> OptimalityReport:
    """Residuals of the optimality characterization for a candidate triple.

    Checks that U'(X + zeta) is a one-step martingale, that the node-wise
    first-order condition holds (differentiable drivers), and, for
    homogeneous drivers with the unit-payoff integrands supplied, the
    equality on traded nodes and the band inequalities on no-trade nodes.
    The check is one pass over the whole-lattice buffers: the utility
    callables take the flat wealth, a driver callable one level at a time.
    """
    lattice = sol.x.lattice
    inner = lattice.offsets[lattice.n_steps]  # the nodes of levels 0 .. n-1
    homogeneous = driver.kinked and not (z_minus is None or z_plus is None or sol.theta is None)

    w_all = sol.x.flat + sol.zeta.flat
    u1_all = _in_float_range(lattice.level_index, w_all, "U'", utility.u1)
    w, u1 = w_all[:inner], u1_all[:inner]
    down, up = lattice.children
    mart = float(np.max(np.abs(0.5 * (u1_all[down] + u1_all[up]) - u1)))
    u2 = _in_float_range(lattice.level_index, w, "U''", utility.u2)
    h, m = sol.h.flat, sol.m.flat

    foc = None
    if driver.is_differentiable:
        res = -u1 * _by_level(lattice, driver.grad, h) + u2 * (h + m)
        foc = float(np.max(np.abs(res)))

    hom_eq = hom_slack = None
    if homogeneous:
        theta = sol.theta.flat
        zm, zp = z_minus.flat, z_plus.flat
        gm, gp = _by_level(lattice, driver.g, zm), _by_level(lattice, driver.g, zp)
        traded = np.abs(theta) > 1e-10  # smaller holdings lie in the no-trade band
        hom_eq = 0.0
        if np.any(traded):
            sgn = np.sign(theta[traded])
            z_side = np.where(sgn > 0, zm[traded], zp[traded])
            g_side = np.where(sgn > 0, gm[traded], gp[traded])
            res = (
                -u1[traded] * sgn * g_side
                + sgn * z_side * u2[traded] * (h[traded] + m[traded])
            )
            hom_eq = float(np.max(np.abs(res)))
        idle = ~traded
        slack1 = slack2 = math.inf
        if np.any(idle):
            slack1 = float(np.min(u1[idle] * gm[idle] - u2[idle] * m[idle] * zm[idle]))
            slack2 = float(np.min(u1[idle] * gp[idle] - u2[idle] * m[idle] * zp[idle]))
        hom_slack = tuple(v if math.isfinite(v) else 0.0 for v in (slack1, slack2))

    return OptimalityReport(
        martingale_residual=mart,
        foc_residual=foc,
        homogeneous_equality_residual=hom_eq,
        homogeneous_slack=hom_slack,
    )


def _in_float_range(level, w: np.ndarray, name: str, fn: Callable) -> np.ndarray:
    """``fn(w)`` as floats at the wealth ``w`` = X + zeta, refused as
    ``NumericOverflow`` at its first node that is not finite.  ``level`` is
    the lattice level of every node (an int) or of each node (an array such
    as ``lattice.level_index``)."""
    with np.errstate(all="ignore"):  # refused just below
        values = np.asarray(fn(w), dtype=float)
    if not np.isfinite(values).all():
        i = int(np.argmax(~np.isfinite(values)))
        at = int(level[i] if isinstance(level, np.ndarray) else level)
        msg = f"{name} is {values[i]} at X + zeta = {w[i]:.6g} on level {at}"
        raise NumericOverflow(f"{msg}; it is out of float range", level=at)
    return values


def _by_level(lattice: Lattice, fn: Callable, values: np.ndarray) -> np.ndarray:
    """``fn(t_k, level k of values)`` for every level of a whole-lattice buffer.

    ``fn`` is a driver callable: it takes a scalar time, so it is called
    once per level, each result written into one flat buffer.
    """
    out = np.empty_like(values)
    grid = lattice.grid
    for k, (lv, dst) in enumerate(zip(lattice.split_levels(values), lattice.split_levels(out))):
        dst[...] = fn(grid.t(k), lv)
    return out


def recover_theta(
    lattice: Lattice,
    driver: Driver,
    s_terminal,
    hs: Sequence[NodeProcess],
    y_grid=None,
    curve: PositionCurve | None = None,
) -> list[NodeProcess]:
    """Holdings theta with Z^theta = h for each h in ``hs``, by inverting
    the position curve.

    Homogeneous drivers invert the scaling cone directly, ``curve`` if
    given (the driver's ``PositionCurve`` without a y-grid), else one built
    here.  Otherwise the piecewise-linear interpolated curve on ``y_grid``
    is inverted node by node, which requires it to be monotone in the
    position: one batched sweep of the y-grid serves every target, and
    each level of the curve is inverted as the sweep yields it, so its
    ``(n_y, nodes)`` buffer is never held.  The first target that fails
    raises, at its lowest failing level.  No target, no sweep.
    """
    if curve is not None and curve.y_grid is not None:
        raise InvalidArgument("recover_theta takes only a homogeneous driver's cone as its curve")
    if not hs:
        return []
    if not driver.is_homogeneous:
        block = _invert_streamed(lattice, driver, s_terminal, y_grid, [h.flat for h in hs])
        return [NodeProcess.from_flat(lattice, flat) for flat in block]
    if curve is None:
        curve = PositionCurve(lattice, driver, s_terminal)
    return [curve.invert(h) for h in hs]
