"""The package loads each module on first use.

``import impact_hedger`` runs no solver module, ``--help`` and a usage
error load only the CLI and its errors, with no numpy, and each command
loads only the modules it calls.  The package's names stay the ones it exported
before its exports were made lazy, each bound to the same object.
"""
import importlib
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import impact_hedger

ROOT = Path(__file__).resolve().parent.parent
SCENARIOS = ROOT / "scenarios"

EXPORTS = [
    "BsdeSolution", "BspdeResidualReport", "ControlSpec", "Driver", "DzDyResult", "FbsdeSolution",
    "Lattice", "MarketSpec", "NodeProcess", "OptimalityReport", "PolicySlice", "PositionCurve",
    "StateSde", "Strategy", "TimeGrid", "UtilitySpec", "ValueSurface", "WealthGrid", "WealthPath",
    "bspde_residual", "budget_lambda", "build_binomial", "build_full_binary",
    "cara_closed_form_surface", "cara_utility", "closedform", "constant_strategy", "custom_driver",
    "custom_utility", "dp_value", "drifted_quadratic_driver", "driver", "dz_dy", "dz_dy_variational",
    "entropic_driver", "entropic_exact", "errors", "expected_terminal_utility", "exponential_triple",
    "fbsde_from_surface", "gexpect", "girsanov_density", "homogeneous_driver", "inverse_marginal_f",
    "lattice", "linear_driver", "lv_operator", "market", "no_trade_solution",
    "optimal_terminal_wealth", "optimizer", "piecewise_constant_strategy", "pnl_process",
    "price_curve", "quadratic_driver", "quote_grid", "recover_theta", "residual_slice",
    "simple_strategy_pnl", "simulate_state", "solve_bsde", "solve_fbsde_cara", "solve_fbsde_picard",
    "solve_h", "solve_h_homogeneous", "valuegrid", "verify_optimality", "wealth_by_conditional_route",
    "z_homogeneous", "z_of_position", "zero_driver",
]
SUBMODULES = {"closedform", "driver", "errors", "gexpect", "lattice", "market", "optimizer", "valuegrid"}

# the package modules besides cli and errors; a command loads each one that
# NOT_LOADED does not name for it
MODULES = {"closedform", "driver", "g17", "gexpect", "lattice", "market", "optimizer", "valuegrid"}
# solver modules each command must not load
NOT_LOADED = {
    "gexp": {"market", "optimizer", "closedform", "valuegrid"},
    "price": {"optimizer", "closedform", "valuegrid"},
    "solve": {"market", "closedform", "valuegrid"},
    "verify": {"market", "valuegrid"},
    "closedform": {"market", "valuegrid"},
    "value": {"market", "closedform"},
}


def _python(script: str, *args: str) -> list:
    """Run ``script`` in a fresh interpreter; its last stdout line, as JSON."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", script, *args], capture_output=True, env=env, text=True)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


_LOADED = (
    "print(json.dumps([sorted(m for m in sys.modules if m.startswith('impact_hedger')),"
    " sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')),"
    " 'numpy' in sys.modules]))\n"
)


def test_the_package_exports_the_same_names():
    assert impact_hedger.__all__ == EXPORTS
    assert len(EXPORTS) == 71 and SUBMODULES <= set(EXPORTS)
    for name in EXPORTS:
        value = getattr(impact_hedger, name)
        if name in SUBMODULES:
            assert value is importlib.import_module(f"impact_hedger.{name}")
        else:
            assert value is getattr(sys.modules[value.__module__], name), name
    assert set(EXPORTS) <= set(dir(impact_hedger))
    with pytest.raises(AttributeError, match="no attribute 'warp_drive'"):
        impact_hedger.warp_drive
    with pytest.raises(ImportError):
        from impact_hedger import warp_drive  # noqa: F401


def test_the_grid_classes_are_the_ones_valuegrid_uses():
    from impact_hedger import lattice, valuegrid

    assert valuegrid.WealthGrid is lattice.WealthGrid is impact_hedger.WealthGrid
    assert valuegrid.ControlSpec is lattice.ControlSpec is impact_hedger.ControlSpec


def test_import_loads_no_solver_and_star_import_binds_every_name():
    script = (
        "import json, sys\n"
        "import impact_hedger\n"
        "before = sorted(m for m in sys.modules if m.startswith('impact_hedger'))\n"
        "names = {}\n"
        "exec('from impact_hedger import *', names)\n"
        "print(json.dumps([before, sorted(k for k in names if k != '__builtins__')]))\n"
    )
    before, names = _python(script)
    assert before == ["impact_hedger"]
    assert names == EXPORTS


def _main_exits(argv: list[str], code: int) -> str:
    """A script that runs ``cli.main(argv)``, checks it exits ``code``, and
    prints what it loaded."""
    return (
        "import json, sys\n"
        "from impact_hedger import cli\n"
        "try:\n"
        f"    cli.main({argv!r})\n"
        "except SystemExit as exc:\n"
        f"    assert exc.code == {code}, exc.code\n"
        "else:\n"
        "    raise AssertionError('main returned')\n" + _LOADED
    )


def test_help_loads_only_the_cli_and_its_errors():
    loaded, scipy, numpy = _python(_main_exits(["--help"], 0))
    assert loaded == ["impact_hedger", "impact_hedger.cli", "impact_hedger.errors"]
    assert scipy == [] and not numpy


@pytest.mark.parametrize(
    "argv",
    [["warp", "--config", "x.ini"], ["solve"], [], ["solve", "--config", "x.ini", "--threads", "2"]],
    ids=["unknown_command", "missing_config", "no_command", "unknown_option"],
)
def test_a_usage_error_exits_2_without_loading_numpy(argv):
    # argparse refuses these before a config is read
    loaded, scipy, numpy = _python(_main_exits(argv, 2))
    assert loaded == ["impact_hedger", "impact_hedger.cli", "impact_hedger.errors"]
    assert scipy == [] and not numpy


@pytest.mark.parametrize("command", sorted(NOT_LOADED))
def test_each_command_loads_only_its_modules(tmp_path, command):
    # one interpreter runs the command on every shipped scenario, so the
    # modules of any scenario's path are counted
    script = (
        "import json, sys\n"
        "from impact_hedger import cli\n"
        "command, out, *configs = sys.argv[1:]\n"
        "for i, config in enumerate(configs):\n"
        "    assert cli.main([command, '--config', config, '--out', f'{out}/{i}']) == 0, config\n"
        + _LOADED
    )
    configs = [str(p) for p in sorted(SCENARIOS.glob("*.ini"))]
    assert len(configs) == 4
    loaded, scipy, _ = _python(script, command, str(tmp_path), *configs)
    own = {"cli", "errors"} | (MODULES - NOT_LOADED[command])
    assert loaded == sorted(["impact_hedger", *(f"impact_hedger.{m}" for m in own)])
    assert scipy == []


def _lines(module: str) -> int:
    return (ROOT / "src" / "impact_hedger" / f"{module}.py").read_bytes().count(b"\n")


def test_the_readme_counts_the_lines_each_command_compiles():
    # a row counts __init__, cli, errors and the modules it names, which are
    # the ones the command loads
    lines = (ROOT / "README.md").read_text().splitlines()
    head = "| command | modules loaded besides `cli` and `errors` | lines compiled |"
    rows = []
    for line in lines[lines.index(head) + 2 :]:
        if not line.startswith("|"):
            break
        rows.append([cell.strip() for cell in line.strip("|").split("|")])
    seen = set()
    for commands, modules, count in rows:
        names = re.findall(r"`([^`]+)`", commands)
        listed = set(re.findall(r"`([^`]+)`", modules))
        for name in names:
            assert listed == (set() if name == "--help" else MODULES - NOT_LOADED[name]), name
        own = ["__init__", "cli", "errors", *sorted(listed)]
        assert int(count.replace(",", "")) == sum(map(_lines, own)), names
        seen.update(names)
    assert seen == {"--help", *NOT_LOADED}


def test_every_command_and_root_search_runs_with_scipy_blocked(tmp_path):
    # scipy is a test-only dependency: no route of the package may import it
    script = (
        "import sys\n"
        "sys.modules['scipy'] = None\n"
        "import json\n"
        "import numpy as np\n"
        "import impact_hedger as ih\n"
        "from impact_hedger import cli\n"
        "out, *configs = sys.argv[1:]\n"
        "for command in ('gexp', 'price', 'solve', 'verify', 'closedform', 'value'):\n"
        "    for i, config in enumerate(configs):\n"
        "        assert cli.main([command, '--config', config, '--out', f'{out}/{command}{i}']) == 0\n"
        "exp_mix = ih.custom_utility(\n"
        "    u=lambda x: -(np.exp(-x) + np.exp(-3.0 * x)) / 2.0,\n"
        "    u1=lambda x: (np.exp(-x) + 3.0 * np.exp(-3.0 * x)) / 2.0,\n"
        "    u2=lambda x: -(np.exp(-x) + 9.0 * np.exp(-3.0 * x)) / 2.0,\n"
        "    u3=lambda x: (np.exp(-x) + 27.0 * np.exp(-3.0 * x)) / 2.0,\n"
        ")\n"
        "drv = ih.custom_driver(\n"
        "    lambda t, z: z * z / 2.0 + 0.1 * (np.sqrt(1.0 + z * z) - 1.0) - 0.3 * z,\n"
        "    lambda t, z: z + 0.1 * z / np.sqrt(1.0 + z * z) - 0.3,\n"
        ")\n"
        "lat = ih.build_binomial(1.0, 20)\n"
        "market = ih.MarketSpec(gamma=1.0, eta=0.3, utility=exp_mix, x0=0.0)\n"
        "sol = ih.solve_fbsde_picard(lat, drv, exp_mix, 0.0, tol=1e-12, max_iter=50)\n"
        "assert sol.converged\n"
        "found = [exp_mix.inverse_marginal(0.7), ih.budget_lambda(lat, market),\n"
        "         ih.solve_h(drv, exp_mix, 0.5, 0.1, 0.0, 0.2)]\n"
        "assert all(np.isfinite(found))\n" + _LOADED
    )
    configs = [str(p) for p in sorted(SCENARIOS.glob("*.ini"))]
    assert len(configs) == 4
    _, scipy, _ = _python(script, str(tmp_path), *configs)
    assert scipy == ["scipy"]  # the blocking entry alone: an import of scipy raises
