"""Tests of the benchmark itself: generator, oracles, span arithmetic, patching."""
from __future__ import annotations

import csv
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

import oracles  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_generator_is_deterministic_per_seed(workload):
    first = workloads.make_pass(workload, 7)
    assert first == workloads.make_pass(workload, 7)
    assert [workloads.to_ini(i.params) for i in first] == [
        workloads.to_ini(i.params) for i in workloads.make_pass(workload, 7)
    ]
    other = workloads.make_pass(workload, 8)
    # same work for every seed, different draws
    assert [(i.slot, i.command) for i in other] == [(i.slot, i.command) for i in first]
    assert [i.params for i in other] != [i.params for i in first]


def _price_scenario():
    inv = next(i for i in workloads.make_pass("quotes", 3) if i.command == "price" and not i.params["book"])
    return inv


def test_oracle_accepts_program_quotes_and_rejects_a_perturbed_one(tmp_path):
    from impact_hedger import cli

    inv = _price_scenario()
    cfg = tmp_path / "q.ini"
    cfg.write_text(workloads.to_ini(inv.params))
    out = tmp_path / "out"
    assert cli.main(["price", "--config", str(cfg), "--out", str(out)]) == 0
    checked = oracles.check(inv.params, "price", out)
    assert checked.failures == []
    assert checked.worst < 1e-12

    with open(out / "price.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    rows[3][3] = repr(float(rows[3][3]) + 1e-6)
    with open(out / "price.csv", "w", newline="") as fh:
        csv.writer(fh, lineterminator="\n").writerows(rows)
    perturbed = oracles.check(inv.params, "price", out)
    assert len(perturbed.failures) == 1
    assert perturbed.worst == pytest.approx(1e-6, rel=1e-3)


def test_quote_oracle_matches_the_quadratic_and_homogeneous_forms():
    T, z, y = 0.8, 0.3, -1.1
    p = {"driver": "drifted_quadratic", "gamma": 1.2, "eta": 0.4, "payoff_a": 1.0, "payoff_b": 0.0, "horizon": T}
    assert oracles.quote(p, z, y) == pytest.approx(T * (1.2 / 2 * (y * y - 2 * z * y) - 0.4 * y))
    h = {"driver": "homogeneous", "kappa": 0.2, "payoff_a": 1.0, "payoff_b": 0.0, "horizon": T}
    assert oracles.quote(h, z, y) == pytest.approx(0.2 * T * (abs(z - y) - abs(z)))


def test_self_time_of_nested_spans():
    #  root [0, 10]: children a [1, 4] and b [3, 6] overlap on [3, 4]
    #  a has a child c [2, 3]; b has a child that spills past b's end
    s = [
        ["cli.main", 0.0, 10.0, -1, 0],
        ["gexpect.solve_bsde", 1.0, 4.0, 0, 0],
        ["gexpect.solve_bsde", 3.0, 6.0, 0, 0],
        ["lattice.build_binomial", 2.0, 3.0, 1, 0],
        ["lattice.build_binomial", 5.0, 7.0, 2, 0],
    ]
    assert spans.self_times(s) == pytest.approx([5.0, 2.0, 2.0, 1.0, 2.0])
    assert spans.inclusive_s(s, lambda n: n == "gexpect.solve_bsde") == pytest.approx(6.0)
    assert spans.inclusive_s(s, lambda n: n.startswith("lattice.")) == pytest.approx(3.0)


def test_recorder_nests_spans_and_layer_metrics_add_up():
    ticks = iter(range(100))
    rec = spans.Recorder(clock=lambda: float(next(ticks)))
    rec.invocation = 0
    root = rec.begin("cli.main")             # t=0
    inner = rec.begin("gexpect.solve_bsde")  # t=1
    rec.end(inner)                           # t=2
    curve = rec.begin("gexpect.PositionCurve.__init__")  # t=3
    sweep = rec.begin("gexpect.solve_bsde")  # t=4
    rec.end(sweep)                           # t=5
    rec.end(curve)                           # t=6
    rec.end(root)                            # t=7
    assert [x[spans.PARENT] for x in rec.spans] == [-1, 0, 0, 2]
    m = spans.layer_metrics(rec.spans, {"driver.g.calls": 4})
    assert m["gexpect.solve_bsde.calls"] == 2
    assert m["gexpect.solve_bsde.s"] == pytest.approx(2.0)
    assert m["gexpect.position_curve.builds"] == 1
    assert m["gexpect.position_curve.self_s"] == pytest.approx(2.0)
    assert m["cli.self_s"] == pytest.approx(7.0 - 1.0 - 3.0)
    assert m["driver.g.calls"] == 4
    assert m["lattice.split_children.calls"] == 0


def test_patches_count_a_call_once_whichever_name_it_uses():
    import impact_hedger
    from impact_hedger import gexpect, market, optimizer

    from tracer import Patches

    orig = gexpect.solve_bsde
    rec = spans.Recorder()
    patches = Patches(rec)
    try:
        assert impact_hedger.solve_bsde is gexpect.solve_bsde is market.solve_bsde is optimizer.solve_bsde
        lat = impact_hedger.build_binomial(1.0, 4)
        driver = impact_hedger.entropic_driver(1.0)
        impact_hedger.solve_bsde(lat, driver, lat.w_values(4))
        market.price_curve(lat, driver, lat.w_values(4), (0, 0), 0.0, 0.5)
    finally:
        patches.undo()
    names = [s[spans.NAME] for s in rec.spans]
    assert names.count("gexpect.solve_bsde") == 3
    assert names.count("market.price_curve") == 1
    assert rec.counts["lattice.split_children.calls"] == 12
    assert rec.counts["driver.g.calls"] == 12
    assert impact_hedger.solve_bsde is orig and market.solve_bsde is orig
