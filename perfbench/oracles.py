"""Closed-form oracles for the outputs of one CLI invocation.

For a payoff ``S = a W + b`` with zero book the integrand of any position
is constant, so the explicit lattice scheme is exact and the evaluation of
``c S`` is ``c b - g(-c a) T``.  That gives, up to rounding:

* ``gexp``:        ``pi_root = b - g(-a) T`` and ``z_root = -a``;
* ``price``:       ``P(z, y) = y b + T (g(-(z - y) a) - g(-z a))``, which is
  ``T (gamma/2 (y^2 - 2 z y) - eta y)`` for the quadratic family and
  ``kappa T (|z - y| - |z|)`` for the homogeneous driver when ``a = 1, b = 0``;
* ``closedform``/``verify``/``solve``: ``z_star = eta / (gamma + gamma_a)``
  and ``zeta0 = eta^2 T / (2 (gamma + gamma_a))``;
* ``value``:       ``V(0, x_i0) = -exp(-gamma_a (x_i0 + zeta0))``, exact for
  the homogeneous band (``zeta0 = 0``) and within the DP's discretization
  error otherwise.

Cases without a closed form (the ``markov_square`` book) are checked for
finite results only.
"""
from __future__ import annotations

import csv
import json
import math
from pathlib import Path

EXACT_TOL = 1e-9      # lattice-exact identities: rounding only
ROUTE_TOL = 1e-3      # iterative routes and the value-surface DP

OUTPUT_FILES = {
    "gexp": ["gexp.csv"],
    "price": ["price.csv"],
    "solve": ["solve.csv"],
    "closedform": ["closedform.csv"],
    "value": ["value.csv"],
    "verify": ["verify_closedform.csv", "verify_cara.csv", "verify_picard.csv"],
}


def driver_g(p: dict, z: float) -> float:
    """The scenario driver g(z), written out independently of the library."""
    kind = p["driver"]
    if kind == "zero":
        return 0.0
    if kind == "linear":
        return p["nu"] * z
    if kind == "quadratic":
        return p["alpha"] * z * z
    if kind == "entropic":
        return 0.5 * p["gamma"] * z * z
    if kind == "drifted_quadratic":
        return 0.5 * p["gamma"] * z * z - p["eta"] * z
    if kind == "homogeneous":
        return p["kappa"] * abs(z)
    raise ValueError(f"no oracle for driver {kind!r}")


def quote(p: dict, z: float, y: float) -> float:
    a, b, T = p["payoff_a"], p["payoff_b"], p["horizon"]
    return y * b + T * (driver_g(p, -(z - y) * a) - driver_g(p, -z * a))


def triple_root(p: dict, gamma: float, eta: float) -> tuple[float, float]:
    """(z_star, zeta0) of the explicit CARA triple."""
    denom = gamma + p["gamma_a"]
    return eta / denom, eta * eta * p["horizon"] / (2.0 * denom)


def value_at_x0(p: dict) -> float:
    n_x, x_min, x_max = 401, -3.0, 3.0
    step = (x_max - x_min) / (n_x - 1)
    grid = [x_min + i * step for i in range(n_x - 1)] + [x_max]
    x_i0 = min(grid, key=lambda x: abs(x - p["x0"]))
    zeta0 = 0.0 if p["driver"] == "homogeneous" else triple_root(p, p["gamma"], p["eta"])[1]
    return -math.exp(-p["gamma_a"] * (x_i0 + zeta0))


class Checker:
    """Accumulates deviations of one invocation; ``failures`` lists the misses."""

    def __init__(self) -> None:
        self.worst = 0.0
        self.failures: list[str] = []

    def close(self, what: str, actual, expected: float, tol: float) -> None:
        if not isinstance(actual, (int, float)) or not math.isfinite(actual):
            self.failures.append(f"{what}: not a finite number ({actual!r})")
            return
        dev = abs(actual - expected)
        self.worst = max(self.worst, dev)
        if not dev <= tol:
            self.failures.append(f"{what}: {actual!r} vs oracle {expected!r} (|dev| {dev:.3g} > {tol:g})")

    def finite(self, what: str, value) -> None:
        if isinstance(value, dict):
            for k, v in value.items():
                self.finite(f"{what}.{k}", v)
        elif isinstance(value, float) and not math.isfinite(value):
            self.failures.append(f"{what}: not finite")


def _root_row(path: Path) -> dict:
    with open(path, newline="") as fh:
        return {k: float(v) for k, v in next(csv.DictReader(fh)).items()}


def check(p: dict, command: str, out: Path) -> Checker:
    """Compare the outputs in ``out`` with the oracles for scenario ``p``."""
    c = Checker()
    res = json.loads((out / "report.json").read_text())["results"]
    c.finite("results", res)
    if p.get("book"):
        return c
    if command == "gexp":
        c.close("pi_root", res["pi_root"], p["payoff_b"] - driver_g(p, -p["payoff_a"]) * p["horizon"], EXACT_TOL)
        c.close("z_root", res["z_root"], -p["payoff_a"], EXACT_TOL)
    elif command == "price":
        with open(out / "price.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        if len(rows) != len(p["price_z"]) * len(p["price_y"]):
            c.failures.append(f"price.csv has {len(rows)} quotes")
        for r in rows:
            z, y = float(r["z"]), float(r["y"])
            c.close(f"P({z}, {y})", float(r["P"]), quote(p, z, y), EXACT_TOL)
    elif command == "closedform":
        z_star, zeta0 = triple_root(p, p["market_gamma"], p["market_eta"])
        c.close("z_star", res["z_star"], z_star, EXACT_TOL)
        c.close("zeta0", res["zeta0"], zeta0, EXACT_TOL)
    elif command == "solve":
        z_star, zeta0 = triple_root(p, p["market_gamma"], p["market_eta"])
        c.close("z_star", res["z_star"], z_star, ROUTE_TOL)
        c.close("zeta0", res["zeta0"], zeta0, ROUTE_TOL)
        c.close("cara_route_gap", res["cara_route_gap"], 0.0, ROUTE_TOL)
    elif command == "verify":
        z_star, zeta0 = triple_root(p, p["market_gamma"], p["market_eta"])
        root = _root_row(out / "verify_closedform.csv")
        c.close("closedform h root", root["h"], z_star, EXACT_TOL)
        c.close("closedform zeta root", root["zeta"], zeta0, EXACT_TOL)
        c.close("max_route_gap", res["max_route_gap"], 0.0, ROUTE_TOL)
    elif command == "value":
        tol = EXACT_TOL if p["driver"] == "homogeneous" else ROUTE_TOL
        c.close("value_at_x0", res["value_at_x0"], value_at_x0(p), tol)
    return c
