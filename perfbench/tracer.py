"""In-process traced driver: ``python tracer.py <plan.json> <result.json>``.

Runs with ``src`` on ``PYTHONPATH``.  It times ``import impact_hedger.cli``,
runs the plan's warm-up invocations (the shipped scenarios whose CSVs are
compared with the reference digests), then alternates untraced and traced
passes of the workload for the plan's time budget, each invocation through
``cli.main``.  Spans and counters stay in memory and are written to
``result.json`` at the end.
"""
from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from pathlib import Path

from spans import Recorder

# module -> functions recorded as spans
SPAN_FUNCTIONS = {
    "cli": ("main", "run", "load_config", "_write_csv"),
    "lattice": ("build_binomial", "simulate_state"),
    "gexpect": ("solve_bsde",),
    "optimizer": ("solve_fbsde_cara", "solve_fbsde_picard", "recover_theta", "verify_optimality"),
    "closedform": (
        "girsanov_density",
        "budget_lambda",
        "inverse_marginal_f",
        "optimal_terminal_wealth",
        "exponential_triple",
        "no_trade_solution",
    ),
    "valuegrid": ("dp_value", "bspde_residual", "residual_slice", "fbsde_from_surface"),
    "market": ("price_curve",),
}
POSITION_CURVE_METHODS = ("__init__", "z_level", "z_process", "invert_level")


def _span(fn, name: str, rec: Recorder):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        idx = rec.begin(name)
        try:
            return fn(*args, **kwargs)
        finally:
            rec.end(idx)

    return wrapper


def _counted(fn, name: str, rec: Recorder):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        rec.counts[name] += 1
        return fn(*args, **kwargs)

    return wrapper


def _counted_g(g, rec: Recorder):
    def wrapper(t, z):
        rec.counts["driver.g.calls"] += 1
        rec.counts["driver.g.elems"] += getattr(z, "size", 1)
        return g(t, z)

    wrapper.perfbench_counted = True
    return wrapper


class Patches:
    """Wrappers installed on the package; ``undo`` restores every binding.

    ``from . import ...`` copies a function into several module namespaces
    (the package root, ``cli``, ``market``, ...).  Each original gets one
    wrapper, bound everywhere the original was bound, so a call is counted
    once whichever name it goes through.
    """

    def __init__(self, rec: Recorder) -> None:
        self._undo: list[tuple[object, str, object]] = []
        pkg = importlib.import_module("impact_hedger")
        modules = [m for n, m in list(sys.modules.items()) if n == "impact_hedger" or n.startswith("impact_hedger.")]
        for short, names in SPAN_FUNCTIONS.items():
            mod = importlib.import_module(f"impact_hedger.{short}")
            for name in names:
                orig = getattr(mod, name)
                wrapper = _span(orig, f"{short}.{name}", rec)
                for m in modules:
                    for attr, value in list(vars(m).items()):
                        if value is orig:
                            self._set(m, attr, wrapper)
        curve = pkg.gexpect.PositionCurve
        for name in POSITION_CURVE_METHODS:
            self._set(curve, name, _span(vars(curve)[name], f"gexpect.PositionCurve.{name}", rec))
        lattice = pkg.lattice.Lattice
        self._set(lattice, "split_children", _counted(lattice.split_children, "lattice.split_children.calls", rec))
        grid = pkg.valuegrid.WealthGrid
        self._set(grid, "x", property(_counted(vars(grid)["x"].fget, "valuegrid.wealthgrid_x.calls", rec)))
        driver = pkg.driver.Driver
        orig_init = driver.__init__

        @functools.wraps(orig_init)
        def init(self, *args, **kwargs):
            orig_init(self, *args, **kwargs)
            if not getattr(self.g, "perfbench_counted", False):
                object.__setattr__(self, "g", _counted_g(self.g, rec))

        self._set(driver, "__init__", init)

    def _set(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def undo(self) -> None:
        for owner, attr, orig in reversed(self._undo):
            setattr(owner, attr, orig)
        self._undo.clear()


def _run_pass(cli, invocations: list[dict], rec: Recorder | None = None) -> dict:
    exits = []
    started = time.perf_counter()
    for i, inv in enumerate(invocations):
        if rec is not None:
            rec.invocation = i
        try:
            exits.append(cli.main([inv["command"], "--config", inv["config"], "--out", inv["out"]]))
        except Exception as exc:  # a traceback is a failed invocation, not a crash of the pass
            exits.append(f"{type(exc).__name__}: {exc}")
    return {"wall_s": time.perf_counter() - started, "exits": exits}


def main(plan_path: str, result_path: str) -> None:
    plan = json.loads(Path(plan_path).read_text())
    started = time.perf_counter()
    cli = importlib.import_module("impact_hedger.cli")
    import_s = time.perf_counter() - started
    src = Path(plan["root"]).resolve() / "src"
    if src not in Path(cli.__file__).resolve().parents:
        raise SystemExit(f"impact_hedger was imported from {cli.__file__}, not from {src}")
    scipy_modules = sum(1 for n in sys.modules if n == "scipy" or n.startswith("scipy."))

    warmup = _run_pass(cli, plan["warmup"])
    # Untraced and traced passes alternate while another pair fits in the
    # time budget; the spans reported are those of the last traced pass.
    untraced, traced = [], []
    deadline = started + plan["seconds"]
    while True:
        pair_started = time.perf_counter()
        untraced.append(_run_pass(cli, plan["untraced"]))
        rec = Recorder()
        patches = Patches(rec)
        try:
            traced.append(_run_pass(cli, plan["traced"], rec))
        finally:
            patches.undo()
        traced[-1]["counts"] = dict(rec.counts)
        now = time.perf_counter()
        if now + (now - pair_started) > deadline:
            break
    result = {
        "import_s": import_s,
        "scipy_modules": scipy_modules,
        "warmup": warmup,
        "untraced": untraced,
        "traced": traced,
        "spans": rec.spans,
    }
    Path(result_path).write_text(json.dumps(result))


if __name__ == "__main__":
    main(*sys.argv[1:])
