"""Seeded scenario generator and the invocation list of each workload.

A workload is one *pass*: a fixed list of ``impact-hedger <command>``
invocations on INI scenarios drawn from the seed.  The structure of a pass
(commands, driver kinds, payoffs, lattice and grid sizes) is the same for
every seed, so the work per pass does not depend on the seed; only the
model parameters are drawn.  Every draw is inside the parameter domain
documented below, chosen a priori from the solvers' own conditions:

* Step-size guard.  The explicit backward scheme refuses a level where
  ``|g_z| sqrt(dt) >= 1``.  With a payoff ``S = a W + b`` and zero book the
  integrand is constant (``Z = -a * position``), so the guard reduces to
  ``|g_z(a * position)| sqrt(T / n) < 1``.  The largest slope a draw below
  can reach is 5.0 on the triangle desk's price grid (``1.5 * 1.5 * 2 +
  0.5``) against ``sqrt(n / T) >= 11.5``, and 4.1 on the quotes price grid
  (``1.2 * 1.5 * 2 + 0.5``) against ``sqrt(n / T) >= 8.1``.  The
  ``markov_square`` book has ``Z ~ 2 W`` near the lattice edge, unbounded
  in ``n``, so it is drawn only with the
  Lipschitz drivers (``zero``, ``linear``, ``homogeneous``), whose slopes
  stay at or below 0.5.
* ``y_grid`` hull.  Holdings recovery inverts the position curve on
  ``y_grid = -1.5:1.5:121``.  The optimal holdings ``eta / ((gamma +
  gamma_a) a)`` stay at or below 0.67, inside the hull, and the slopes the
  curve meets on the hull are at most 3.9 against ``sqrt(n / T) >= 11.5``.
* Control interval.  The value surface maximizes over ``[z_lo, z_hi] =
  [-1, 1]``; the optimal integrand ``eta / (gamma + gamma_a)`` is at most
  0.33, strictly inside, so the interval constraint never binds.
* Wealth-grid hull.  ``value`` also runs the surface-to-lattice bridge,
  whose wealth reaches ``x0 +- z* sqrt(n T) - g(z*) T`` at the lattice edge
  and must stay on the wealth grid ``[-3, 3]``; outside it the interpolated
  ``V_x`` is not positive and the run ends with exit 4.  The ``surface``
  desks therefore draw ``eta <= 0.3``, ``gamma_a >= 1.5`` and ``T <= 1``,
  which at ``n_steps = 125`` keeps the edge within 2.3 of the origin.

A draw inside this domain that fails is a failure of the program: it is
counted in ``failed`` and listed in the run's details, never filtered out.
"""
from __future__ import annotations

import random
from dataclasses import dataclass

# Scenario parameters that the oracles read; everything else is fixed below.
Params = dict

DESK_Y_GRID = (-1.5, 1.5, 121)
PRICE_Z_POINTS = 5
PRICE_Y_POINTS = 8


@dataclass(frozen=True)
class Invocation:
    """One CLI run: ``impact-hedger <command> --config <slot>.ini``."""

    slot: str
    command: str
    params: Params


def _u(rng: random.Random, lo: float, hi: float) -> float:
    # four decimals, so the INI text and the oracle see the same float
    return round(rng.uniform(lo, hi), 4)


def _payoff(rng: random.Random, kind: str) -> Params:
    if kind == "brownian":
        return {"payoff": "brownian", "payoff_a": 1.0, "payoff_b": 0.0}
    if kind == "affine":
        return {"payoff": "affine", "payoff_a": _u(rng, 0.5, 1.5), "payoff_b": _u(rng, -0.5, 0.5)}
    # markov_linear: R_T = r0 + W on the lattice (zero drift, unit volatility)
    r0 = _u(rng, -0.5, 0.5)
    return {"payoff": "markov_linear", "payoff_a": 1.0, "payoff_b": r0, "r0": r0}


def _driver(rng: random.Random, kind: str) -> Params:
    if kind == "zero":
        return {"driver": "zero"}
    if kind == "linear":
        return {"driver": "linear", "nu": _u(rng, -0.5, 0.5)}
    if kind == "quadratic":
        return {"driver": "quadratic", "alpha": _u(rng, 0.1, 0.6)}
    if kind == "entropic":
        return {"driver": "entropic", "gamma": _u(rng, 0.5, 1.2)}
    if kind == "drifted_quadratic":
        return {"driver": "drifted_quadratic", "gamma": _u(rng, 0.5, 1.2), "eta": _u(rng, 0.1, 0.5)}
    return {"driver": "homogeneous", "kappa": _u(rng, 0.05, 0.3)}


def _desk(rng, n_steps, payoff, eta=(0.1, 0.5), gamma_a=(1.0, 3.0), horizon=(0.5, 1.5)) -> Params:
    """Drifted-quadratic CARA desk; the [market] block mirrors the driver."""
    gamma, eta = _u(rng, 0.5, 1.5), _u(rng, *eta)
    return {
        "driver": "drifted_quadratic",
        "gamma": gamma,
        "eta": eta,
        "market_gamma": gamma,
        "market_eta": eta,
        "gamma_a": _u(rng, *gamma_a),
        "x0": _u(rng, -0.5, 0.5),
        "horizon": _u(rng, *horizon),
        "n_steps": n_steps,
        **_payoff(rng, payoff),
    }


def _band(rng: random.Random, n_steps: int) -> Params:
    """Homogeneous driver: the no-trade band around zero holdings."""
    return {
        "driver": "homogeneous",
        "kappa": _u(rng, 0.05, 0.3),
        "gamma_a": _u(rng, 1.0, 3.0),
        "x0": _u(rng, -0.5, 0.5),
        "horizon": _u(rng, 0.5, 1.5),
        "n_steps": n_steps,
        "mode": "theta_plus",
        **_payoff(rng, "brownian"),
    }


def _quote(rng: random.Random, driver: str, payoff: str, book: bool) -> Params:
    return {
        **_driver(rng, driver),
        **_payoff(rng, payoff),
        "gamma_a": _u(rng, 1.0, 3.0),
        "market_gamma": _u(rng, 0.5, 1.5),
        "market_eta": _u(rng, 0.0, 0.5),
        "x0": _u(rng, -0.5, 0.5),
        "horizon": _u(rng, 0.5, 1.5),
        "n_steps": 100,
        "book": book,
        **_quote_grid(rng),
    }


def _quote_grid(rng: random.Random) -> Params:
    return {
        "price_z": sorted({_u(rng, -0.5, 0.5) for _ in range(PRICE_Z_POINTS)}),
        "price_y": sorted({_u(rng, -1.5, 1.5) for _ in range(PRICE_Y_POINTS)}),
    }


def triangle(rng: random.Random) -> list[Invocation]:
    # The desk is also quoted, so the market layer is measured here.  Three
    # commands of clearly different length keep the median and the tail
    # percentile of the invocation times inside the block of `solve` runs.
    desk = {**_desk(rng, 200, "affine"), **_quote_grid(rng)}
    return [
        Invocation("desk", "verify", desk),
        Invocation("desk", "solve", desk),
        Invocation("desk", "price", desk),
    ]


def surface(rng: random.Random) -> list[Invocation]:
    # narrower desk domain: the bridge's lattice wealth must stay on the grid
    desk = {"eta": (0.1, 0.3), "gamma_a": (1.5, 3.0), "horizon": (0.5, 1.0)}
    # One lattice size, so the three runs take about as long as each other and
    # the median and tail of the invocation times are taken from one cluster.
    return [
        Invocation("dq0", "value", _desk(rng, 125, "brownian", **desk)),
        Invocation("band", "value", _band(rng, 125)),
        Invocation("dq1", "value", _desk(rng, 125, "brownian", **desk)),
    ]


# (command, driver kind, payoff, markov_square book): all six driver kinds,
# all three payoffs, with and without the book.
QUOTE_SLOTS = (
    ("gexp", "zero", "markov_linear", True),
    ("gexp", "linear", "affine", False),
    ("gexp", "quadratic", "brownian", False),
    ("gexp", "entropic", "markov_linear", False),
    ("gexp", "homogeneous", "affine", False),
    ("gexp", "drifted_quadratic", "brownian", False),
    ("price", "drifted_quadratic", "affine", False),
    ("price", "homogeneous", "brownian", False),
    ("price", "linear", "brownian", True),
    ("price", "entropic", "markov_linear", False),
    ("closedform", "drifted_quadratic", "brownian", False),
    ("closedform", "quadratic", "brownian", False),
)


def quotes(rng: random.Random) -> list[Invocation]:
    return [
        Invocation(f"q{i:02d}", cmd, _quote(rng, drv, pay, book))
        for i, (cmd, drv, pay, book) in enumerate(QUOTE_SLOTS)
    ]


WORKLOADS = {"triangle": triangle, "surface": surface, "quotes": quotes}


def make_pass(workload: str, seed: int) -> list[Invocation]:
    """The invocation list of one pass; the same seed gives the same list."""
    return WORKLOADS[workload](random.Random(f"{workload}:{seed}"))


def _grid_text(values) -> str:
    return ",".join(repr(float(v)) for v in values)


def to_ini(p: Params) -> str:
    """INI text the CLI reads for one scenario."""
    driver = {"kind": p["driver"]}
    for key in ("nu", "alpha", "gamma", "eta", "kappa"):
        if key in p:
            driver[key] = p[key]
    market = {
        "payoff": p["payoff"],
        "payoff_a": p["payoff_a"],
        "payoff_b": p["payoff_b"],  # read by the CLI for the affine payoff only
        "h_m": "markov_square" if p.get("book") else "zero",
        "r0": p.get("r0", 0.0),
        "gamma": p.get("market_gamma", 1.0),
        "eta": p.get("market_eta", 0.0),
        "x0": p["x0"],
    }
    lo, hi, n = DESK_Y_GRID
    numerics = {
        "horizon": p["horizon"],
        "n_steps": p["n_steps"],
        "n_x": 401,
        "x_min": -3.0,
        "x_max": 3.0,
        "y_grid": f"{lo}:{hi}:{n}",
        "z_lo": -1.0,
        "z_hi": 1.0,
        "tol": 1e-6,
        "max_iter": 50,
        "damping": 0.5,
        "mode": p.get("mode", "theta"),
    }
    sections = {
        "driver": driver,
        "utility": {"kind": "cara", "gamma_a": p["gamma_a"]},
        "market": market,
        "numerics": numerics,
        "outputs": {"formats": "csv,json"},
    }
    if "price_z" in p:
        sections["price"] = {"z_values": _grid_text(p["price_z"]), "y_values": _grid_text(p["price_y"])}
    lines = []
    for name, body in sections.items():
        lines.append(f"[{name}]")
        lines.extend(f"{k} = {v!r}" if isinstance(v, float) else f"{k} = {v}" for k, v in body.items())
        lines.append("")
    return "\n".join(lines)
