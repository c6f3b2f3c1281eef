"""Self-tests of the benchmark: generators, oracle, tracer, checks and a smoke run."""

from __future__ import annotations

import json
import shutil
import subprocess
import sys

import pytest

from perfbench import CHECKOUT, WORKLOADS, use_checkout_library

use_checkout_library()

from oddsafe import adapt, dtmc, scg  # noqa: E402

from perfbench import gen, oracle, workloads  # noqa: E402
from perfbench.spans import Tracer  # noqa: E402

RUN = [sys.executable, str(CHECKOUT / "perfbench" / "run.py")]
TINY = workloads.SCALES["tiny"]


def _properties():
    return workloads.setup("check-dense")


def test_generators_are_deterministic_per_seed():
    assert gen.grid_doc(3, 3, 4) == gen.grid_doc(3, 3, 4)
    assert gen.grid_doc(3, 3, 4) != gen.grid_doc(4, 3, 4)
    base = gen.grid_doc(3, 3, 4)
    assert gen.plant_traps(base, 5, 0) == gen.plant_traps(base, 5, 0)
    assert gen.plant_traps(base, 5, 0)[1] != gen.plant_traps(base, 5, 1)[1]
    assert gen.dense_doc(12, 5, 0) == gen.dense_doc(12, 5, 0)
    assert gen.dense_doc(12, 5, 0) != gen.dense_doc(12, 6, 0)


def test_grid_rows_are_local_and_stochastic():
    doc = gen.grid_doc(1, 3, 4)
    parsed = scg.scg_from_dict(doc)
    assert len(parsed.situations) == 64
    for row in doc["delta"].values():
        assert len(row) <= 2 * 3 + 2
        assert abs(sum(row.values()) - 1.0) < 1e-12


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_oracle_agrees_with_rank_situations(seed):
    properties = _properties()
    props = oracle.props_from(properties)
    planted, _ = gen.plant_traps(gen.grid_doc(seed, 3, 3), seed, 0)
    docs = [planted, gen.dense_doc(15, seed, 0)]
    for doc in docs:
        report = dtmc.rank_situations(scg.scg_from_dict(doc), properties)
        expected = oracle.evaluate_doc(doc, props)
        for name, values in expected.values.items():
            for i, sid in enumerate(expected.situations):
                assert abs(report.records[sid][name].value - values[i]) <= 1e-12
                assert report.records[sid][name].compliant == bool(expected.compliant[name][i])


def test_repair_sinks_exactly_the_planted_traps():
    properties = _properties()
    work = workloads.RepairGrid(seed=2, scale=TINY, properties=properties)
    tally = workloads.Tally()
    for i in range(3):
        planted = work.make_input(i)
        outcome = work.op(planted)
        assert work.check(planted, outcome, tally)
        assert sorted(outcome.avoided) == sorted(planted[1])


def test_self_times_sum_to_the_op_span():
    tracer = Tracer()

    def leaf():
        return sum(range(2000))

    inner = tracer.wrap("inner", lambda: [leaf() for _ in range(3)])
    leaf_traced = tracer.wrap("leaf", leaf)

    def body():
        inner()
        return leaf_traced()

    tracer.op(body)()
    by_name, by_op = tracer.summary()
    assert by_name["inner"][0] == 1 and by_name["leaf"][0] == 1
    root = tracer.spans[0]
    assert by_op[0] == pytest.approx(root[2] - root[1], rel=1e-9, abs=1e-12)


def test_op_reference_is_the_mean_of_its_bracketing_probes():
    class Steps:
        def __init__(self):
            self.readings = iter([1.0, 3.0, 5.0, 7.0])

        def probe(self):
            return next(self.readings)

    timer = workloads.OpTimer(reference=Steps())
    timer.PROBE_GAP_S = 0.0  # probe around every op
    op = timer.wrap(lambda: None)
    op()
    op()
    assert timer.refs == [2.0, 6.0]
    assert len(timer.latencies) == 2


def _perturbed_rank(monkeypatch):
    original = dtmc.rank_situations

    def corrupted(scg_, properties):
        report = original(scg_, properties)
        sid = next(iter(report.records))
        result = report.records[sid]["phi1"]
        report.records[sid]["phi1"] = dtmc.PropertyResult(
            result.value + 1e-6, result.score + 1e-6, result.compliant
        )
        return report

    monkeypatch.setattr(dtmc, "rank_situations", corrupted)


def test_corrupted_reach_value_counts_as_failed_op(monkeypatch):
    _perturbed_rank(monkeypatch)
    tally = workloads.run_untraced("check-dense", 1, 0.01, TINY, _properties())
    assert tally.attempted >= 1
    assert tally.failed == tally.attempted


def test_wrong_avoided_set_counts_as_failed_op(monkeypatch):
    original = adapt.synthesize_safe_controller

    def forgetful(scg_, properties, config):
        outcome = original(scg_, properties, config)
        outcome.avoided = outcome.avoided[:-1]
        return outcome

    monkeypatch.setattr(adapt, "synthesize_safe_controller", forgetful)
    tally = workloads.run_untraced("repair-grid", 1, 0.01, TINY, _properties())
    assert tally.attempted >= 1
    assert tally.failed == tally.attempted


def test_unsafe_controller_counts_as_failed_op(monkeypatch):
    import oddsafe.runtime

    original = adapt.controller_from_outcome

    def unsinking(base, outcome, controller_id, prior_avoided=()):
        controller = original(base, outcome, controller_id, prior_avoided)
        return adapt.Controller(controller.id, base, (), controller.origin)

    monkeypatch.setattr(oddsafe.runtime, "controller_from_outcome", unsinking)
    # the reference timeline adapts after its drift at t=60
    scale = workloads.Scale(400, TINY.dense_n, TINY.grid_attributes, TINY.grid_values, 1)
    work = workloads.MonitorMaritime(seed=0, scale=scale, properties=_properties())
    tally = workloads.Tally()
    work.timeline(0, workloads.OpTimer(), tally)
    assert tally.descriptors["adaptations"] >= 1
    assert tally.failed >= 1


def _metric_spec():
    spec = json.loads((CHECKOUT / "BENCHMARK.json").read_text())
    return (
        {m["name"]: m["unit"] for m in spec["end_to_end"]},
        {m["name"]: m["unit"] for m in spec["per_layer"]},
    )


@pytest.mark.parametrize("trace", [0, 1])
def test_tiny_smoke_run_reports_every_metric(trace):
    end_to_end, per_layer = _metric_spec()
    expected = per_layer if trace else end_to_end
    for workload in WORKLOADS:
        proc = subprocess.run(
            [*RUN, "--workload", workload, "--seed", "3", "--seconds", "0.5",
             "--trace", str(trace), "--scale", "tiny"],
            cwd=CHECKOUT, capture_output=True, text=True, timeout=170,
        )
        assert proc.returncode == 0, proc.stderr
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
        units = {name: entry["unit"] for name, entry in result["metrics"].items()}
        assert units == expected
        if not trace:
            assert all(entry["value"] > 0 for entry in result["metrics"].values())


def test_run_fails_without_the_library(tmp_path):
    shutil.copy(CHECKOUT / "BENCHMARK.json", tmp_path)
    shutil.copytree(
        CHECKOUT / "perfbench", tmp_path / "perfbench",
        ignore=shutil.ignore_patterns("__pycache__"),
    )
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "check-dense", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
