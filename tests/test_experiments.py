import math

import pytest

from oddsafe.adapt import AdaptationOutcome
from oddsafe.experiments import (
    BENCH_CSV_HEADER,
    CSV_HEADER,
    ExperimentRecord,
    TimelineConfig,
    TimelineResult,
    VariantConfig,
    default_properties,
    random_dense_scg,
    rescue_rate,
    run_bench,
    run_timeline,
    run_variants,
)
from oddsafe.runtime import CONTINUE, RunLogEntry, switch_controller
from oddsafe.scg import validate_scg


def test_default_properties():
    props = default_properties()
    assert [p.name for p in props] == ["phi1", "phi2"]
    assert [(p.target_label, p.bound, p.horizon) for p in props] == [
        ("f1", 0.99, 50),
        ("f2", 0.95, 50),
    ]


def test_random_dense_scg_shape():
    scg = random_dense_scg(10, density=1.0, seed=0)
    assert len(scg.situations) == 10
    assert len(scg.space.ids) == 12
    assert validate_scg(scg) == []
    with pytest.raises(ValueError):
        random_dense_scg(1)


def test_benchmark_scgs_of_one_size_share_one_state_space():
    # each one used to build its own from a fresh situations tuple
    assert random_dense_scg(10, seed=0).space is random_dense_scg(10, seed=1).space


def test_run_bench_records():
    rows = run_bench([4, 8], horizon=10)
    assert [r["n"] for r in rows] == [4, 8]
    for row in rows:
        assert row["states"] == row["n"] + 2
        assert row["transitions"] == row["n"] * (row["n"] + 2)
        assert row["ms"] >= 0.0
    assert BENCH_CSV_HEADER == ["n", "states", "transitions", "ms"]


@pytest.mark.parametrize(
    "call",
    [
        lambda: random_dense_scg(4, seed=-1),
        lambda: run_bench([4], horizon=5, seed=-20),
        lambda: run_bench([4], horizon=5, seed=-2),  # seed + n would be 2
    ],
    ids=["random_dense_scg", "run_bench", "run_bench-offset"],
)
def test_a_negative_seed_is_rejected_before_numpy_sees_it(call):
    with pytest.raises(ValueError, match="seed must be >= 0"):
        call()


def test_rescue_rate():
    def rec(violated, success):
        return ExperimentRecord(
            id=0,
            properties_violated=violated,
            worst_criticality_score=0.0,
            save_success=success,
            critical_situations_avoided=[],
        )

    assert rescue_rate([rec([], True)]) is None
    assert rescue_rate([rec(["phi1"], True), rec(["phi2"], False)]) == 0.5


def test_run_variants_is_deterministic():
    config = VariantConfig(seed=0, variants=3)
    a = run_variants(config)
    b = run_variants(config)
    assert [r.to_dict() for r in a] == [r.to_dict() for r in b]
    assert [r.id for r in a] == [1, 2, 3]


def test_experiment_record_csv_row():
    record = ExperimentRecord(
        id=3,
        properties_violated=["phi1", "phi2"],
        worst_criticality_score=0.04,
        save_success=True,
        critical_situations_avoided=["s2", "s3"],
    )
    assert record.to_csv_row() == [
        "3", "[phi1, phi2]", "0.04000", "True", "[s2, s3]"
    ]
    assert len(CSV_HEADER) == 5


@pytest.mark.parametrize("value", [math.inf, math.nan])
def test_timeline_config_rejects_a_prior_strength_kappa_that_is_not_finite(value):
    with pytest.raises(ValueError, match="prior_strength_kappa"):
        TimelineConfig(prior_strength_kappa=value)


def _entry(t, kind, sid=None, directive=CONTINUE, success=None):
    outcome = None if success is None else AdaptationOutcome(success, [sid], 1, ["phi1"], 0.1)
    return RunLogEntry(t, kind, sid, directive, outcome=outcome)


#: an adaptation at t=1 that switches controllers and keeps the episode going
SWITCH = _entry(1, "situation_entered", "s1", switch_controller("c1"), success=True)


@pytest.mark.parametrize(
    "log, counted",
    [
        ([_entry(0, "situation_entered", "s0"), _entry(1, "failure_observed", "f1"),
          _entry(1, "episode_reset")], []),
        ([_entry(0, "situation_entered", "s0"), SWITCH, _entry(2, "situation_entered", "s2"),
          _entry(3, "failure_observed", "f2"), _entry(3, "episode_reset"),
          _entry(4, "situation_entered", "s0")], [3]),
        ([_entry(0, "situation_entered", "s0"), SWITCH, _entry(1, "episode_reset"),
          _entry(2, "situation_entered", "s2"), _entry(3, "failure_observed", "f1")], []),
    ],
    ids=["no-adaptation", "failure-before-the-reset", "failure-after-the-reset"],
)
def test_failures_after_adaptation_are_those_before_its_episode_reset(log, counted):
    result = TimelineResult(baseline_log=[], adaptive_log=log)
    assert [e.t for e in result.failures_after_adaptation_in_episode()] == counted


def test_an_rq2_adaptation_that_switches_and_continues_counts_the_failure_after_it():
    # seed 15 is the one seed in 0-40 whose adaptation switches controllers and
    # keeps the episode going; sinking s7 leaves s14 within phi2's P < 0.95 bound,
    # so the f2 three steps later is a failure the adapted controller allows
    result = run_timeline(TimelineConfig(seed=15))
    [adaptation] = result.adaptation_entries()
    assert (adaptation.t, adaptation.id) == (858, "s14")
    assert adaptation.directive == switch_controller("c1")
    outcome = adaptation.outcome
    assert outcome.initial_violations == ["phi2"] and outcome.avoided == ["s7"]
    assert outcome.worst_initial_score == pytest.approx(8.3e-4, rel=0.01)
    assert outcome.final_report.records["s14"]["phi2"].compliant
    failures = result.failures_after_adaptation_in_episode()
    assert [(e.t, e.id) for e in failures] == [(861, "f2")]
