"""Scenario benchmark of the impact-hedger CLI.

    python3 perfbench/run.py --workload triangle --seed 1 --seconds 55 --trace 0

Run from the root of a source checkout.  The benchmark writes seeded INI
scenarios (see ``workloads.py``) and drives ``python -m impact_hedger.cli``
from outside as a closed loop: one client, one invocation at a time, the
next started when the previous one exits.  BLAS/OpenMP pools are pinned to
one thread and ``THREADS`` is unset.  Every output is checked against the
closed-form oracles in ``oracles.py``.

``--trace 0`` reports the end-to-end metrics of ``BENCHMARK.json`` over the
whole passes that fit into ``--seconds`` (at least three).  ``--trace 1``
reports the per-layer metrics from one in-process driver (``tracer.py``): a
warm-up over the shipped scenarios, whose CSVs are compared with
``reference_digests.json``, then untraced and traced passes of the workload
in turn.

The last line of standard output is the result object; the line before it
holds the details (tail percentile, failures, run metadata).
"""
from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

import oracles
import spans
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench_work"
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
PINNED = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
# cmd_s.tail is the highest percentile with ten samples beyond it in a run of
# nominal length: 24 invocations (8 passes) of `triangle` or `surface`, 60
# (5 passes) of `quotes`.  It is fixed, not taken from each run's count, so
# that it stays at the same place among the slots of a pass however many
# passes fit into --seconds on a faster or slower commit or machine.
TAIL_PERCENTILE = {"triangle": 100.0 * 14 / 24, "surface": 100.0 * 14 / 24, "quotes": 100.0 * 50 / 60}
SETUP_EVERY = 3  # a `--help` set-up sample before every third pass
MIN_PASSES = 3
LIMIT_S = 150.0  # no pass starts past this, so a run ends within 180 seconds
SHIPPED_SCENARIOS = ("band", "entropic_gexp", "exponential", "no_trade")


def _child_env() -> dict:
    env = {k: v for k, v in os.environ.items() if k != "THREADS"}
    env.update(PINNED, PYTHONPATH=str(ROOT / "src"))
    return env


def spawn(args: list[str], stderr: Path | None = None) -> tuple[float, int, float]:
    """Run one Python child to its end: (wall seconds, exit code, peak RSS MB)."""
    with open(stderr or os.devnull, "wb") as err:
        started = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, *args], cwd=ROOT, env=_child_env(), stdout=subprocess.DEVNULL, stderr=err
        )
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        elapsed = time.perf_counter() - started
    proc.returncode = os.waitstatus_to_exitcode(status)
    return elapsed, proc.returncode, usage.ru_maxrss / 1024.0


def percentile(samples: list[float], pct: float) -> float:
    """Linear interpolation between order statistics, as numpy's default."""
    xs = sorted(samples)
    pos = (len(xs) - 1) * pct / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def write_configs(invocations: list[workloads.Invocation]) -> dict[str, Path]:
    cfg_dir = WORK / "configs"
    cfg_dir.mkdir(parents=True, exist_ok=True)
    paths = {}
    for inv in invocations:
        path = cfg_dir / f"{inv.slot}.ini"
        path.write_text(workloads.to_ini(inv.params))
        paths[inv.slot] = path
    return paths


def out_dir(base: Path, inv: workloads.Invocation) -> Path:
    return base / f"{inv.slot}-{inv.command}"


def check_outputs(inv: workloads.Invocation, out: Path, exit_code) -> tuple[float, list[str]]:
    """(worst oracle deviation, failure reasons) of one finished invocation."""
    if exit_code != 0:
        return 0.0, [f"exit {exit_code}"]
    stderr = out.with_suffix(".stderr")
    if stderr.exists() and b"Traceback" in stderr.read_bytes():
        return 0.0, ["traceback on stderr"]
    missing = [f for f in ["report.json", *oracles.OUTPUT_FILES[inv.command]] if not (out / f).is_file()]
    if missing:
        return 0.0, [f"missing {', '.join(missing)}"]
    if json.loads((out / "report.json").read_text())["exit_code"] != 0:
        return 0.0, ["report.json exit_code is not 0"]
    c = oracles.check(inv.params, inv.command, out)
    return c.worst, c.failures


class Tally:
    """Attempted and failed invocations, and the worst oracle deviation."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failures: list[str] = []
        self.oracle_err = 0.0

    def add(self, label: str, worst: float, reasons: list[str]) -> None:
        self.attempted += 1
        self.oracle_err = max(self.oracle_err, worst)
        if reasons:
            self.failures.append(f"{label}: {'; '.join(reasons)}")


def timed_run(invocations, configs, seconds: float, tail_pct: float) -> tuple[dict, dict, Tally]:
    """End-to-end metrics of the closed-loop passes that fit into ``seconds``,
    tracing off."""
    base = WORK / "out"
    tally = Tally()
    setup, pass_s, cmd_s, rss = [], [], [], []
    run_started = time.perf_counter()
    for p in itertools.count():
        if p % SETUP_EVERY == 0:  # set-up samples spread over the run
            took, code, _ = spawn(["-m", "impact_hedger.cli", "--help"])
            if code != 0:
                raise SystemExit(f"`impact_hedger.cli --help` exited {code}: no runnable program under src/")
            setup.append(took)
        shutil.rmtree(base, ignore_errors=True)
        base.mkdir(parents=True)
        exits = []
        started = time.perf_counter()
        for inv in invocations:
            out = out_dir(base, inv)
            args = ["-m", "impact_hedger.cli", inv.command, "--config", str(configs[inv.slot]), "--out", str(out)]
            took, code, peak = spawn(args, out.with_suffix(".stderr"))
            cmd_s.append(took)
            rss.append(peak)
            exits.append(code)
        pass_s.append(time.perf_counter() - started)
        for inv, code in zip(invocations, exits):
            tally.add(f"pass {p} {inv.slot} {inv.command}", *check_outputs(inv, out_dir(base, inv), code))
        elapsed = time.perf_counter() - run_started
        next_end = elapsed + elapsed / (p + 1)
        if (next_end > seconds and p + 1 >= MIN_PASSES) or next_end > LIMIT_S:
            break

    tail_s = percentile(cmd_s, tail_pct)
    metrics = {
        # The mean of the pass times, not their median: the host's speed drifts
        # over a run, and the mean, which weighs every pass, spread less
        # between runs of the same code.
        "wall_s": statistics.fmean(pass_s),
        "cmd_s.p50": statistics.median(cmd_s),
        "cmd_s.tail": tail_s,
        "setup_s": statistics.median(setup),
        "peak_rss_mb": max(rss),
    }
    details = {
        "passes": len(pass_s),
        "pass_s": pass_s,
        "cmd_s": cmd_s,
        "cmd_s.tail": {
            "percentile": tail_pct,
            "samples": len(cmd_s),
            "samples_beyond": sum(1 for x in cmd_s if x > tail_s),
        },
        "setup_samples": setup,
    }
    return metrics, details, tally


def _csv_files(base: Path) -> dict[str, Path]:
    return {str(p.relative_to(base)): p for p in sorted(base.glob("*/*.csv"))}


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def traced_run(invocations, configs, seconds: float) -> tuple[dict, dict, Tally]:
    """Per-layer metrics from alternating in-process untraced and traced passes."""
    commands = sorted({inv.command for inv in invocations})
    warm = WORK / "shipped"
    warmup = [
        {"command": cmd, "config": str(ROOT / "scenarios" / f"{name}.ini"), "out": str(warm / f"{name}-{cmd}")}
        for name in SHIPPED_SCENARIOS
        for cmd in commands
    ]
    passes = {
        label: [
            {"command": inv.command, "config": str(configs[inv.slot]), "out": str(out_dir(WORK / label, inv))}
            for inv in invocations
        ]
        for label in ("untraced", "traced")
    }
    plan, result_path = WORK / "plan.json", WORK / "trace.json"
    plan.write_text(json.dumps({"root": str(ROOT), "seconds": seconds, "warmup": warmup, **passes}))
    _, code, _ = spawn([str(HERE / "tracer.py"), str(plan), str(result_path)], WORK / "tracer.stderr")
    if code != 0:
        raise SystemExit(f"tracer exited {code}:\n{(WORK / 'tracer.stderr').read_text()[-2000:]}")
    result = json.loads(result_path.read_text())

    # every pass must exit cleanly; the outputs on disk, checked against the
    # oracles and the untraced bytes, are those of the last pass of each kind
    tally = Tally()
    last = result["traced"][-1]
    earlier = [("shipped", warmup, result["warmup"])]
    earlier += [("untraced", passes["untraced"], p) for p in result["untraced"]]
    earlier += [("traced", passes["traced"], p) for p in result["traced"][:-1]]
    for label, jobs, p in earlier:
        for job, code in zip(jobs, p["exits"]):
            tally.add(f"{label} {Path(job['out']).name}", 0.0, [] if code == 0 else [f"exit {code}"])
    untraced_csv, traced_csv = _csv_files(WORK / "untraced"), _csv_files(WORK / "traced")
    iterations = 0
    for inv, code in zip(invocations, last["exits"]):
        out = out_dir(WORK / "traced", inv)
        worst, reasons = check_outputs(inv, out, code)
        for f in oracles.OUTPUT_FILES[inv.command]:
            key = f"{out.name}/{f}"
            if key in untraced_csv and key in traced_csv and _sha256(untraced_csv[key]) != _sha256(traced_csv[key]):
                reasons.append(f"{f} differs from the untraced pass")
        if code == 0:
            iterations += json.loads((out / "report.json").read_text())["results"].get("iterations", 0)
        tally.add(f"traced {out.name}", worst, reasons)
    if any(p["counts"] != last["counts"] for p in result["traced"]):
        tally.failures.append("counters differ between traced passes of the same inputs")

    reference = json.loads((HERE / "reference_digests.json").read_text())
    shipped = _csv_files(warm)
    changed = sorted(k for k, p in shipped.items() if reference.get(k) != _sha256(p))
    csv_bytes = [p.read_bytes() for p in traced_csv.values()]
    untraced_s = statistics.median(p["wall_s"] for p in result["untraced"])
    traced_s = statistics.median(p["wall_s"] for p in result["traced"])
    metrics = {
        "import.s": result["import_s"],
        "import.scipy_modules": result["scipy_modules"],
        **spans.layer_metrics(result["spans"], last["counts"]),
        "optimizer.picard_iterations": iterations,
        "cli.csv_mb": sum(len(b) for b in csv_bytes) / 1e6,
        "cli.csv_rows": sum(b.count(b"\n") - 1 for b in csv_bytes),
        "cli.exit_nonzero": sum(1 for c in last["exits"] if c != 0),
        "cli.csv_changed_files": len(changed),
        "trace.untraced_pass_s": untraced_s,
        "trace.traced_pass_s": traced_s,
        "trace.overhead_ratio": traced_s / untraced_s - 1.0,
        "run.error_rate": len(tally.failures) / tally.attempted,
        "run.oracle_err": tally.oracle_err,
    }
    details = {
        "trace_pairs": len(result["traced"]),
        "spans": len(result["spans"]),
        "shipped_csv_checked": len(shipped),
        "shipped_csv_changed": changed,
    }
    return metrics, details, tally


def _git_sha() -> str:
    """Commit of the checkout, read from .git without running git."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    loose = ROOT / ".git" / ref[5:]
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    for line in packed.read_text().splitlines() if packed.is_file() else []:
        if line.endswith(" " + ref[5:]):
            return line.split()[0]
    return "unknown"


def _version(dist: str) -> str:
    try:
        return metadata.version(dist)
    except metadata.PackageNotFoundError:
        return "not installed"


def run_metadata() -> dict:
    return {
        "git_sha": _git_sha(),
        "python": sys.version.split()[0],
        "numpy": _version("numpy"),
        "scipy": _version("scipy"),
        "nproc": len(os.sched_getaffinity(0)),
        "pinned_env": PINNED,
        "THREADS": "unset",
        "note": "report.json timing_seconds excludes import; no metric uses it",
    }


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "impact_hedger" / "cli.py").is_file():
        print(f"no impact_hedger sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    shutil.rmtree(WORK, ignore_errors=True)
    try:
        invocations = workloads.make_pass(args.workload, args.seed)
        configs = write_configs(invocations)
        if args.trace:
            metrics, details, tally = traced_run(invocations, configs, args.seconds)
            wanted = SPEC["per_layer"]
        else:
            metrics, details, tally = timed_run(invocations, configs, args.seconds, TAIL_PERCENTILE[args.workload])
            wanted = SPEC["end_to_end"]
    finally:
        shutil.rmtree(WORK, ignore_errors=True)

    details.update(
        workload=args.workload,
        seed=args.seed,
        error_rate=len(tally.failures) / tally.attempted,
        oracle_err=tally.oracle_err,
        failures=tally.failures,
        metadata=run_metadata(),
    )
    print(json.dumps({"details": details}))
    result = {
        "correct": not tally.failures,
        "attempted": tally.attempted,
        "failed": len(tally.failures),
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in wanted},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
