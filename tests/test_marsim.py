import math

import pytest

from oddsafe.marsim import (
    MARITIME_ATTRIBUTES,
    MARITIME_FAILURES,
    ScenarioConfig,
    TruthSampler,
    generate_scenario,
    inject_drift,
    GroundTruth,
    simulate,
)
from oddsafe.scg import AugmentedScg, sink_situation, validate_scg


def _tv(row_a, row_b):
    keys = set(row_a) | set(row_b)
    return 0.5 * sum(abs(row_a.get(k, 0.0) - row_b.get(k, 0.0)) for k in keys)


def test_grid_shape():
    truth, belief = generate_scenario(ScenarioConfig(seed=0))
    assert len(truth.space.situation_ids) == 18
    assert truth.failure_ids == ["f1", "f2"]
    assert len(belief.situations) == 18
    assert [a.name for a in MARITIME_ATTRIBUTES] == ["density_a", "density_b", "ttc"]
    assert [f.id for f in MARITIME_FAILURES] == ["f1", "f2"]


def test_generation_is_deterministic():
    a_truth, a_belief = generate_scenario(ScenarioConfig(seed=42))
    b_truth, b_belief = generate_scenario(ScenarioConfig(seed=42))
    assert a_truth.delta == b_truth.delta
    assert a_belief.delta == b_belief.delta
    c_truth, _ = generate_scenario(ScenarioConfig(seed=43))
    assert c_truth.delta != a_truth.delta


def test_truth_rows_are_stochastic_and_ttc_shaped():
    truth, belief = generate_scenario(ScenarioConfig(seed=1))
    for sid, row in truth.delta.items():
        assert sum(row.values()) == pytest.approx(1.0, abs=1e-9)
        assert all(p > 0 for p in row.values())
    # long-TTC situations never transition directly to f1
    long_ttc = [s.id for s in belief.situations if s.assignment[2] == 1]
    short_ttc = [s.id for s in belief.situations if s.assignment[2] == 0]
    assert all("f1" not in truth.delta[sid] for sid in long_ttc)
    assert all("f1" in truth.delta[sid] for sid in short_ttc)


def test_belief_is_a_valid_scg():
    _, belief = generate_scenario(ScenarioConfig(seed=2))
    assert validate_scg(belief) == []


def test_generated_beliefs_share_one_state_space():
    # each scenario used to build its own from a fresh situations tuple
    _, first = generate_scenario(ScenarioConfig(seed=2))
    _, second = generate_scenario(ScenarioConfig(seed=3))
    assert first.space is second.space


def test_the_truth_is_a_valid_scg_over_the_beliefs_state_space():
    truth, belief = generate_scenario(ScenarioConfig(seed=2))
    assert isinstance(truth, GroundTruth) and isinstance(truth, AugmentedScg)
    assert truth.space is belief.space
    assert validate_scg(truth) == []
    assert not hasattr(truth, "copy")


def test_drift_schedule_only_when_drifting():
    truth, _ = generate_scenario(ScenarioConfig(seed=0))
    assert truth.drift_schedule == []
    drifting, _ = generate_scenario(
        ScenarioConfig(seed=0, drift_magnitude=0.5, drift_time=30)
    )
    assert drifting.drift_schedule == [(30, 0.5, 1)]


def test_inject_drift_identity_at_zero():
    truth, _ = generate_scenario(ScenarioConfig(seed=3))
    assert inject_drift(truth, 0.0, 99).delta == truth.delta


def test_inject_drift_at_zero_returns_an_equal_distinct_scg():
    truth, _ = generate_scenario(ScenarioConfig(seed=3, drift_magnitude=0.5))
    same = inject_drift(truth, 0.0, 99)
    assert same == truth and same is not truth and same.delta is not truth.delta


@pytest.mark.parametrize("which", ["truth", "belief"])
def test_inject_drift_leaves_its_input_unchanged(which):
    truth, belief = generate_scenario(ScenarioConfig(seed=3, drift_magnitude=0.5))
    scg = {"truth": truth, "belief": belief}[which]
    before = {s: dict(r) for s, r in scg.delta.items()}
    drifted = inject_drift(scg, 1.0, 7)
    assert scg.delta == before and drifted.delta != before
    # the drift keeps the SCG's type, drift schedule and state space
    assert type(drifted) is type(scg) and drifted.space is scg.space
    assert getattr(drifted, "drift_schedule", None) == getattr(scg, "drift_schedule", None)
    assert list(drifted.delta) == list(scg.space.situation_ids)


def test_inject_drift_leaves_sunk_rows_and_a_valid_scg():
    _, belief = generate_scenario(ScenarioConfig(seed=0))
    belief = sink_situation(belief, "s3")
    drifted = inject_drift(belief, 0.9, 1)
    assert drifted.delta["s3"] == {"s3": 1.0}
    assert drifted.sunk == {"s3"}
    assert validate_scg(drifted) == []
    assert drifted.delta != belief.delta
    # with every situation sunk there is nothing to drift
    everything = sink_situation(belief, *belief.space.situation_ids)
    assert inject_drift(everything, 0.9, 1) == everything


def test_inject_drift_respects_tv_bound():
    truth, _ = generate_scenario(ScenarioConfig(seed=3))
    for magnitude in (0.2, 0.5, 1.0):
        drifted = inject_drift(truth, magnitude, 7)
        moved = 0
        for sid in truth.space.situation_ids:
            tv = _tv(truth.delta[sid], drifted.delta[sid])
            assert tv <= magnitude + 1e-9
            assert sum(drifted.delta[sid].values()) == pytest.approx(1.0, abs=1e-9)
            if tv > 1e-12:
                moved += 1
        assert moved > 0


def test_inject_drift_rejects_bad_magnitude():
    truth, _ = generate_scenario(ScenarioConfig(seed=0))
    with pytest.raises(ValueError):
        inject_drift(truth, 1.5, 0)


def test_scenario_config_validation():
    with pytest.raises(ValueError):
        ScenarioConfig(drift_magnitude=2.0)
    with pytest.raises(ValueError):
        ScenarioConfig(failure_bias={"f1": -1.0})


def test_scenario_config_rejects_a_negative_drift_time():
    # a drift scheduled before t=0 would fire at t=0
    with pytest.raises(ValueError, match=r"^drift_time must be >= 0$"):
        ScenarioConfig(drift_time=-5, drift_magnitude=0.5)
    assert ScenarioConfig(drift_time=0, drift_magnitude=0.5).drift_time == 0


@pytest.mark.parametrize(
    "bias",
    [{"f1": math.inf}, {"f2": math.nan}, {"f1": 1e308}, {"f1": 100.0}, {"f1": 44.0, "f2": 10.0}],
)
def test_scenario_config_rejects_a_failure_bias_that_fills_a_row(bias):
    # short-TTC rows draw up to 0.02 * f1 + 0.012 * f2 failure mass
    with pytest.raises(ValueError, match="failure_bias"):
        ScenarioConfig(failure_bias=bias)


def test_the_largest_failure_bias_accepted_keeps_every_truth_row_stochastic():
    truth, _ = generate_scenario(ScenarioConfig(seed=3, failure_bias={"f1": 49.0, "f2": 1.0}))
    for row in truth.delta.values():
        assert min(row.values()) > 0.0
        assert row.get("f1", 0.0) + row.get("f2", 0.0) < 1.0
        assert math.isclose(sum(row.values()), 1.0)


def test_simulate_is_deterministic_and_well_formed():
    truth, _ = generate_scenario(ScenarioConfig(seed=5))
    a = simulate(truth, 200, seed=9)
    b = simulate(truth, 200, seed=9)
    assert a == b
    assert len(a) == 200
    for i, event in enumerate(a):
        assert event.kind in ("situation_entered", "failure_observed", "episode_reset")
        if event.kind == "failure_observed":
            assert a[i + 1].kind == "episode_reset" if i + 1 < len(a) else True
    assert simulate(truth, 0, seed=9) == []
    with pytest.raises(ValueError):
        simulate(truth, -1, seed=9)


def test_sampler_applies_drift_once():
    truth, _ = generate_scenario(
        ScenarioConfig(seed=5, drift_magnitude=0.8, drift_time=10)
    )
    sampler = TruthSampler(truth, seed=1)
    before = {s: dict(r) for s, r in sampler.truth.delta.items()}
    assert not sampler.apply_drift(5)
    assert sampler.truth.delta == before
    assert sampler.apply_drift(10)
    after = {s: dict(r) for s, r in sampler.truth.delta.items()}
    assert after != before
    assert not sampler.apply_drift(11)  # already fired
    assert sampler.truth.delta == after


def test_the_sampler_keeps_the_truth_it_is_given_and_drifts_a_new_one():
    truth, _ = generate_scenario(ScenarioConfig(seed=5, drift_magnitude=0.8, drift_time=10))
    before = {s: dict(r) for s, r in truth.delta.items()}
    sampler = TruthSampler(truth, seed=1)
    assert sampler.truth is truth  # nothing mutates a truth, so nothing copies it
    assert sampler.apply_drift(10)
    assert sampler.truth is not truth and sampler.truth.drift_schedule == truth.drift_schedule
    assert truth.delta == before
