import json
from dataclasses import replace
from functools import cached_property

import numpy as np
import pytest

from oddsafe import adapt
from oddsafe.adapt import (
    AdaptationOutcome,
    Controller,
    SynthesisConfig,
    analyze,
    controller_from_outcome,
    synthesize_safe_controller,
)
from oddsafe.dtmc import BoundedReachProperty, CriticalityReport, build_model, rank_situations
from oddsafe.errors import ModelError, NotFoundError, OddsafeError, PropertyError, SchemaError
from oddsafe.experiments import default_properties
from oddsafe.marsim import ScenarioConfig, generate_scenario, inject_drift
from oddsafe.proplang import parse_property
from oddsafe.runtime import new_knowledge_base
from oddsafe.scg import decode, scg_from_dict, scg_to_dict, sink_situation

from helpers import assert_compiles_to, make_scg

PROP = BoundedReachProperty("phi", "f1", 50, "<", 0.5)


def _analyze(scg, current, properties):
    return analyze(build_model(scg), scg.sunk, current, properties)


def _violating_scg():
    # s0 is a trap feeding f1; s1 and s2 are benign but s1 visits s0
    return make_scg(
        {
            "s0": {"f1": 0.9, "s0": 0.1},
            "s1": {"s0": 0.3, "s1": 0.7},
            "s2": {"s2": 0.99, "f1": 0.01},
        },
        3,
    )


def _trapped_chain():
    # every situation drifts down into s0, which feeds f1; sparse enough for CSR
    delta = {f"s{i}": {f"s{i}": 0.7, f"s{i - 1}": 0.3} for i in range(1, 12)}
    return make_scg({"s0": {"s0": 0.1, "f1": 0.9}, **delta}, 12)


def _benign_scg():
    return make_scg(
        {"s0": {"s0": 0.99, "f1": 0.01}, "s1": {"s1": 1.0}, "s2": {"s2": 1.0}}, 3
    )


def test_analyze_early_exit_on_compliance():
    result = _analyze(_benign_scg(), "s1", [PROP])
    assert result.compliant
    assert result.full_report is None
    assert result.current["phi"].compliant


def test_analyze_ranks_on_violation():
    result = _analyze(_violating_scg(), "s1", [PROP])
    assert not result.compliant
    assert result.full_report is not None
    assert result.full_report.worst_situation == "s0"


def test_analyze_report_equals_full_ranking():
    scg = _violating_scg()
    props = [PROP, BoundedReachProperty("psi", "f1", 3, "<=", 0.2)]
    result = _analyze(scg, "s1", props)
    assert not result.compliant
    assert result.full_report.to_dict() == rank_situations(scg, props).to_dict()


def test_analyze_errors():
    scg = _benign_scg()
    with pytest.raises(NotFoundError):
        _analyze(scg, "s9", [PROP])
    with pytest.raises(NotFoundError):
        _analyze(scg, "f1", [PROP])
    with pytest.raises(NotFoundError):
        _analyze(scg, "s1", [BoundedReachProperty("p", "nope", 5, "<", 0.5)])
    with pytest.raises(ModelError):
        _analyze(make_scg({"s0": {"s0": 0.5}}, 1), "s0", [PROP])
    with pytest.raises(ModelError):
        _analyze(sink_situation(scg, "s1"), "s1", [PROP])


@pytest.mark.parametrize("sunk", ["f1", "zz"], ids=["failure", "unknown"])
@pytest.mark.parametrize("current, compliant", [("s1", False), ("s0", True)])
def test_analyze_rejects_a_sunk_id_that_names_no_situation(monkeypatch, sunk, current, compliant):
    # whatever the verdict, and before any sweep
    model = build_model(inject_drift(generate_scenario(ScenarioConfig(seed=7))[1], 1.0, 3))
    props = default_properties()
    assert analyze(model, frozenset(), current, props).compliant is compliant
    monkeypatch.setattr(adapt, "reach_vectors", None)  # a sweep would raise TypeError
    with pytest.raises(NotFoundError, match=repr(sunk)):
        analyze(model, frozenset({"s2", sunk}), current, props)


def _maritime_belief():
    _, belief = generate_scenario(ScenarioConfig(seed=7, drift_magnitude=1.0, drift_time=60))
    return belief


#: each entry point, as a function of the belief and properties it checks
ENTRY_POINTS = {
    "rank_situations": lambda scg, props: rank_situations(scg, props).all_compliant(),
    "synthesize_safe_controller": lambda scg, props: synthesize_safe_controller(
        scg, props, SynthesisConfig()
    ).success,
    "analyze": lambda scg, props: _analyze(scg, "s0", props).compliant,
    "new_knowledge_base": lambda scg, props: _analyze(
        scg, "s0", new_knowledge_base(scg, props).properties
    ).compliant,
}


@pytest.mark.parametrize("entry", ENTRY_POINTS)
def test_a_repeated_property_name_is_rejected(entry):
    # keyed by name, the second phi used to replace the first, and the
    # violated requirement read compliant
    check = ENTRY_POINTS[entry]
    belief = _maritime_belief()
    strict = parse_property("phi", "P < 0.0001 [F<=50 f1]")
    assert not check(belief, [strict])
    with pytest.raises(OddsafeError, match="'phi' is repeated"):
        check(belief, [strict, parse_property("phi", "P < 1.0 [F<=50 f2]")])


@pytest.mark.parametrize("entry", ENTRY_POINTS)
def test_an_empty_property_list_is_rejected(entry):
    # with nothing to check, every situation used to read compliant
    with pytest.raises(PropertyError, match="at least one property"):
        ENTRY_POINTS[entry](_violating_scg(), [])


def test_a_knowledge_base_rejects_a_repeated_property_name_itself():
    # not only at its first analysis
    phi = parse_property("phi", "P < 0.5 [F<=50 f1]")
    with pytest.raises(PropertyError):
        new_knowledge_base(_violating_scg(), [phi, phi])


def test_synthesis_sinks_the_trap():
    outcome = synthesize_safe_controller(
        _violating_scg(), [PROP], SynthesisConfig(max_removals=4)
    )
    assert outcome.success
    assert outcome.avoided == ["s0"]
    assert outcome.initial_violations == ["phi"]
    assert outcome.worst_initial_score > 0
    # the outcome is the decision alone; the repaired SCG ranks compliant
    assert outcome.final_report is None
    repaired = sink_situation(_violating_scg(), *outcome.avoided)
    assert rank_situations(repaired, [PROP]).all_compliant()


def test_synthesis_leaves_a_loaded_scg_as_loaded():
    # synthesis sinks s0 in the model it takes from the loaded SCG; a later
    # ranking of that SCG must not see the sink
    doc = scg_to_dict(_violating_scg())
    loaded = scg_from_dict(doc)
    outcome = synthesize_safe_controller(loaded, [PROP], SynthesisConfig(max_removals=4))
    assert outcome.avoided == ["s0"]
    ranked = rank_situations(loaded, [PROP])
    assert ranked.to_dict() == rank_situations(scg_from_dict(doc), [PROP]).to_dict()
    assert ranked.worst_situation == "s0" and not ranked.all_compliant()


def test_synthesis_gives_up_at_max_removals():
    outcome = synthesize_safe_controller(
        _violating_scg(), [PROP], SynthesisConfig(max_removals=0)
    )
    assert not outcome.success
    assert outcome.avoided == []


def test_synthesis_noop_on_compliant_grid():
    outcome = synthesize_safe_controller(
        _benign_scg(), [PROP], SynthesisConfig(max_removals=4)
    )
    assert outcome.success
    assert outcome.avoided == []
    assert outcome.iterations == 1


def _count_record_builds(monkeypatch) -> list:
    """The reports whose per-situation records get built, in build order."""
    calls = []
    build = CriticalityReport.records.func

    def counted(self):
        calls.append(self)
        return build(self)

    records = cached_property(counted)
    records.__set_name__(CriticalityReport, "records")
    monkeypatch.setattr(CriticalityReport, "records", records)
    return calls


@pytest.mark.parametrize(
    "make, dense", [(_violating_scg, True), (_trapped_chain, False)], ids=["dense", "csr"]
)
def test_rankings_build_their_records_only_when_read(monkeypatch, make, dense):
    calls = _count_record_builds(monkeypatch)
    scg = make()
    assert isinstance(build_model(scg).matrix, np.ndarray) == dense
    ranked = rank_situations(scg, [PROP])
    analysis = _analyze(scg, "s1", [PROP])
    assert not analysis.compliant
    outcome = synthesize_safe_controller(scg, [PROP], SynthesisConfig(max_removals=4))
    assert outcome.success and outcome.avoided == ["s0"]
    repaired = rank_situations(sink_situation(scg, *outcome.avoided), [PROP])
    logged = replace(outcome, final_report=repaired)  # as the run log holds it
    for report in (ranked, analysis.full_report, repaired):
        report.to_dict()
    logged.to_dict()
    assert calls == []
    records = repaired.records
    assert calls == [repaired]
    assert repaired.records is records and len(calls) == 1


@pytest.mark.parametrize("make", [_violating_scg, _trapped_chain], ids=["dense", "csr"])
@pytest.mark.parametrize("given_model", [False, True], ids=["compiled", "model-given"])
def test_synthesis_leaves_its_input_scg_unchanged(make, given_model):
    # synthesis writes its sinks into the model alone, never into the SCG
    scg = sink_situation(make(), "s2")
    delta = {sid: dict(row) for sid, row in scg.delta.items()}
    rows = dict(scg.delta)
    model = build_model(scg) if given_model else None
    config = SynthesisConfig(max_removals=4)
    outcome = synthesize_safe_controller(scg, [PROP], config, model)
    assert outcome.success and outcome.avoided == ["s0"]
    assert scg.delta == delta and scg.sunk == {"s2"}
    assert all(scg.delta[sid] is row for sid, row in rows.items())
    # the ranking of the repaired SCG leaves out the situations sunk before
    # synthesis and by it, and is compliant
    repaired = sink_situation(scg, *outcome.avoided)
    report = rank_situations(repaired, [PROP])
    assert report.all_compliant() and {"s0", "s2"}.isdisjoint(report.situations)
    if given_model:
        assert_compiles_to(model, repaired)


def _logged(outcome, scg):
    """The outcome as the run log holds it: with the ranking of `scg` with
    its avoided situations sunk as its final report."""
    report = rank_situations(sink_situation(scg, *outcome.avoided), [PROP])
    return replace(outcome, final_report=report)


def test_outcome_round_trip():
    # an outcome, the decision that history keeps, decodes to itself; the run
    # log's form adds the report and nothing else
    outcome = synthesize_safe_controller(
        _violating_scg(), [PROP], SynthesisConfig(max_removals=4)
    )
    assert "final_report" not in outcome.to_dict()
    again = decode(AdaptationOutcome, outcome.to_dict())
    assert again == outcome
    assert json.dumps(again.to_dict()) == json.dumps(outcome.to_dict())
    logged = _logged(outcome, _violating_scg())
    report = logged.final_report.to_dict()
    assert logged.to_dict() == {**outcome.to_dict(), "final_report": report}
    # a ranking is written, never read back
    with pytest.raises(SchemaError):
        decode(AdaptationOutcome, logged.to_dict())


def test_outcomes_compare_by_value():
    # == compares field by field, the final report by what to_dict writes;
    # its numpy arrays never reach a truth test
    def synthesize(max_removals):
        config = SynthesisConfig(max_removals=max_removals)
        return synthesize_safe_controller(_violating_scg(), [PROP], config)

    outcome = synthesize(4)
    assert outcome == synthesize(4)
    assert outcome != synthesize(0)
    assert outcome == decode(AdaptationOutcome, outcome.to_dict())
    logged = _logged(outcome, _violating_scg())
    assert logged == _logged(synthesize(4), _violating_scg())
    assert logged != outcome and outcome != logged
    r = logged.final_report
    worse = CriticalityReport(r.situations, r.names, r.values, r.scores, r.compliant, r.worst + 1.0)
    assert logged != replace(logged, final_report=worse)
    assert logged != logged.to_dict()


def test_controller_requires_avoided_to_be_sunk():
    with pytest.raises(ModelError):
        Controller(id="c", scg=_benign_scg(), avoided=("s0",))
    # a controller without an SCG is its avoided set alone
    assert Controller("c", avoided=["s0"]).avoided == ("s0",)


def test_controller_from_outcome_merges_avoided():
    outcome = synthesize_safe_controller(
        _violating_scg(), [PROP], SynthesisConfig(max_removals=4)
    )
    base = sink_situation(_violating_scg(), "s2")
    controller = controller_from_outcome(
        base, outcome, "c1", prior_avoided=("s2",)
    )
    assert controller.avoided == ("s2", "s0")
    assert controller.scg.sunk == {"s0", "s2"}
    assert controller.origin == "synthesised"
