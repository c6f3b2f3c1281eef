import copy
import json
import math
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp

from oddsafe import experiments
from oddsafe.dtmc import BoundedReachProperty
from oddsafe.errors import ModelError, NotFoundError, SchemaError, TraceError
from oddsafe.learn import EstimatorConfig, ingest, rebuild_scg
from oddsafe.marsim import ScenarioConfig, generate_scenario
from oddsafe.adapt import SynthesisConfig
from oddsafe.runtime import (
    EVENT_KINDS,
    KnowledgeBase,
    TraceEvent,
    load,
    load_snapshot,
    new_knowledge_base,
    read_trace,
    run,
    save_snapshot,
    snapshot,
    step,
    write_trace,
)
from oddsafe.scg import (
    AugmentedScg,
    FailureMode,
    OddAttribute,
    decode,
    require_valid,
    scg_from_dict,
    scg_to_dict,
    sink_situation,
)

from helpers import assert_compiles_to, make_scg

CHECKOUT = Path(__file__).resolve().parents[1]
PROP = BoundedReachProperty("phi", "f1", 50, "<", 0.5)
EXACT = EstimatorConfig(mode="frequentist", smoothing_alpha=0.0)


def _belief(violating: bool):
    if violating:
        # s0 is a trap feeding f1 and s1 leaks into it
        delta = {
            "s0": {"f1": 0.9, "s0": 0.1},
            "s1": {"s0": 0.5, "s1": 0.5},
            "s2": {"s2": 0.99, "f1": 0.01},
        }
    else:
        delta = {
            "s0": {"s0": 0.99, "f1": 0.01},
            "s1": {"s1": 1.0},
            "s2": {"s2": 1.0},
        }
    return make_scg(delta, 3)


def _kb(violating: bool, baseline: bool = False) -> KnowledgeBase:
    return new_knowledge_base(
        _belief(violating), [PROP], estimator=EXACT, baseline=baseline
    )


def test_trace_event_validation():
    with pytest.raises(TraceError):
        TraceEvent(t=0, kind="teleported")
    with pytest.raises(TraceError):
        TraceEvent(t=0, kind="situation_entered")
    TraceEvent(t=0, kind="episode_reset")


def test_malformed_trace_input_is_schema_error(tmp_path):
    for doc in (
        ["t", 0, "kind", "episode_reset"],
        None,
        {"t": "x", "kind": "episode_reset"},
        {"t": 1.5, "kind": "episode_reset"},
        {"t": True, "kind": "episode_reset"},
        {"kind": "episode_reset"},
    ):
        with pytest.raises(SchemaError):
            decode(TraceEvent, doc)
    path = tmp_path / "trace.jsonl"
    path.write_text('{"t": 0, "kind": "episode_reset"}\n{"t": "x", "kind": "episode_reset"}\n')
    with pytest.raises(SchemaError) as exc:
        read_trace(path)
    assert exc.value.paths == [f"{path}:2.t"]
    path.write_text('{"t": 0, "kind": "episode_reset"}\n{"t": 1,\n')
    with pytest.raises(SchemaError, match=":2: invalid JSON"):
        read_trace(path)
    path.write_bytes(b'{"t": 0, "kind": "episode_reset"}\n\xff\xfe{}\n')
    with pytest.raises(SchemaError, match="not text"):
        read_trace(path)


def test_step_rejects_out_of_order_events():
    kb = _kb(violating=False)
    step(kb, TraceEvent(t=5, kind="situation_entered", id="s1"))
    with pytest.raises(TraceError):
        step(kb, TraceEvent(t=4, kind="situation_entered", id="s1"))


def test_step_rejects_unknown_ids():
    kb = _kb(violating=False)
    with pytest.raises(TraceError):
        step(kb, TraceEvent(t=0, kind="situation_entered", id="s9"))
    with pytest.raises(TraceError):
        step(kb, TraceEvent(t=0, kind="failure_observed", id="f9"))


def test_compliant_situation_continues():
    kb = _kb(violating=False)
    _, entry = step(kb, TraceEvent(t=0, kind="situation_entered", id="s1"))
    assert entry.directive.kind == "continue"
    assert entry.compliant is True
    assert kb.prev == "s1"


def test_failure_is_ingested_and_resets_cursor():
    kb = _kb(violating=False)
    step(kb, TraceEvent(t=0, kind="situation_entered", id="s1"))
    _, entry = step(kb, TraceEvent(t=1, kind="failure_observed", id="f1"))
    assert entry.directive.kind == "continue"
    assert kb.counts.row("s1") == {"f1": 1}
    assert kb.prev is None


def test_episode_reset_clears_cursor_without_counting():
    kb = _kb(violating=False)
    step(kb, TraceEvent(t=0, kind="situation_entered", id="s1"))
    step(kb, TraceEvent(t=1, kind="episode_reset"))
    assert kb.prev is None
    step(kb, TraceEvent(t=2, kind="situation_entered", id="s2"))
    assert sum(kb.counts.row("s1").values()) == 0


def test_violation_triggers_controller_switch():
    kb = _kb(violating=True)
    _, entry = step(kb, TraceEvent(t=0, kind="situation_entered", id="s1"))
    assert entry.directive.kind == "switch_controller"
    assert entry.directive.controller_id == "c1"
    assert entry.outcome.success and entry.outcome.avoided == ["s0"]
    assert kb.active_controller.id == "c1"
    assert kb.active_controller.avoided == ("s0",)
    assert len(kb.history) == 2
    assert kb.prev == "s1"
    # the adapted belief must actually be compliant now
    _, again = step(kb, TraceEvent(t=1, kind="situation_entered", id="s1"))
    assert again.directive.kind == "continue"
    assert again.compliant is True


def test_violation_in_sunk_target_safe_stops():
    kb = _kb(violating=True)
    _, entry = step(kb, TraceEvent(t=0, kind="situation_entered", id="s0"))
    assert entry.directive.kind == "safe_stop"
    assert entry.outcome.success
    assert kb.prev is None


def test_entering_avoided_situation_safe_stops():
    scg = sink_situation(_belief(violating=False), "s2")
    kb = new_knowledge_base(scg, [PROP], estimator=EXACT)
    _, entry = step(kb, TraceEvent(t=0, kind="situation_entered", id="s2"))
    assert entry.directive.kind == "safe_stop"
    assert "s2" in entry.directive.reason


def test_baseline_never_adapts():
    kb = _kb(violating=True, baseline=True)
    _, entry = step(kb, TraceEvent(t=0, kind="situation_entered", id="s1"))
    assert entry.directive.kind == "continue"
    assert entry.compliant is False
    assert len(kb.controllers) == 1


def test_synthesis_failure_safe_stops():
    kb = new_knowledge_base(
        _belief(violating=True),
        [PROP],
        estimator=EXACT,
        synthesis=SynthesisConfig(max_removals=0),
    )
    _, entry = step(kb, TraceEvent(t=0, kind="situation_entered", id="s1"))
    assert entry.directive.kind == "safe_stop"
    assert entry.outcome is not None and not entry.outcome.success
    # history keeps the decision; the log alone carries the ranking
    assert entry.outcome.final_report is not None
    assert kb.history[-1].outcome == replace(entry.outcome, final_report=None)


def _text(doc) -> str:
    # text, not dicts: == takes -0.0 and 0.0 for equal
    return json.dumps(doc, sort_keys=True)


def test_snapshot_round_trip_preserves_everything():
    kb = _kb(violating=True)
    run(
        kb,
        [
            TraceEvent(t=0, kind="situation_entered", id="s1"),
            TraceEvent(t=1, kind="situation_entered", id="s2"),
            TraceEvent(t=2, kind="failure_observed", id="f1"),
        ],
    )
    doc = snapshot(kb)
    again = load(doc)
    assert _text(snapshot(again)) == _text(doc)
    assert again.active_controller.id == kb.active_controller.id
    assert again.prev == kb.prev
    assert again.last_t == kb.last_t
    # snapshots written before the belief-version counter was dropped carry it
    assert "scg_version" not in doc
    assert _text(snapshot(load({**doc, "scg_version": 3}))) == _text(doc)


def test_snapshot_round_trip_keeps_a_successful_outcome():
    # two traps feed f1 and s2 leaks into both: the switch sinks both
    delta = {
        "s0": {"f1": 0.9, "s0": 0.1},
        "s1": {"f1": 0.9, "s1": 0.1},
        "s2": {"s0": 0.25, "s1": 0.25, "s2": 0.5},
    }
    kb = new_knowledge_base(make_scg(delta, 3), [PROP], estimator=EXACT)
    _, entry = step(kb, TraceEvent(t=0, kind="situation_entered", id="s2"))
    assert entry.outcome.success and len(entry.outcome.avoided) == 2
    doc = snapshot(kb)
    # a controller is stored as its avoided set, never as an SCG
    assert [sorted(c) for c in doc["controllers"]] == [["avoided", "id", "origin"]] * 2
    assert _text(snapshot(load(doc))) == _text(doc)
    assert _text(snapshot(load(json.loads(_text(doc))))) == _text(doc)


def _adapted(max_removals: int):
    """A knowledge base after one synthesis on s1, and the outcome its log holds."""
    synthesis = SynthesisConfig(max_removals=max_removals)
    kb = new_knowledge_base(_belief(violating=True), [PROP], estimator=EXACT, synthesis=synthesis)
    _, entry = step(kb, TraceEvent(t=0, kind="situation_entered", id="s1"))
    assert entry.outcome.success == (max_removals > 0)
    return kb, entry.outcome


@pytest.mark.parametrize("max_removals", [4, 0], ids=["success", "failure"])
def test_a_snapshot_restores_the_history_it_records(max_removals):
    kb, _ = _adapted(max_removals)
    doc = snapshot(kb)
    assert "final_report" not in _text(doc)
    assert load(doc).history == kb.history
    assert load(json.loads(_text(doc))).history == kb.history


@pytest.mark.parametrize(
    "report", ["logged", [], None, "report"], ids=["valid", "list", "null", "text"]
)
def test_an_older_snapshot_with_ranked_history_loads_to_the_new_text(report):
    # older snapshots stored each outcome with its final report, which load
    # drops unparsed, valid or not
    kb, logged = _adapted(4)
    doc = snapshot(kb)
    older = json.loads(_text(doc))
    outcome = older["history"][-1]["outcome"]
    outcome["final_report"] = logged.final_report.to_dict() if report == "logged" else report
    assert _text(snapshot(load(older))) == _text(doc)
    # the rest of the outcome is still checked
    outcome["bogus"] = 1
    with pytest.raises(SchemaError) as exc:
        load(older)
    assert exc.value.paths == ["$.history[1].outcome.bogus"]


def test_snapshot_file_round_trip(tmp_path):
    kb = _kb(violating=False)
    step(kb, TraceEvent(t=0, kind="situation_entered", id="s1"))
    path = tmp_path / "kb.json"
    save_snapshot(kb, path)
    again = load_snapshot(path)
    assert snapshot(again) == snapshot(kb)
    path.write_text('{"scg": ')
    with pytest.raises(SchemaError, match="invalid JSON"):
        load_snapshot(path)


def test_load_reports_missing_sections():
    with pytest.raises(SchemaError) as exc:
        load({"scg": {}})
    assert "$.prior_scg" in exc.value.paths
    assert "$.counts" in exc.value.paths
    with pytest.raises(SchemaError) as exc:
        load({**snapshot(_kb(violating=False)), "controllers": []})
    assert exc.value.paths == ["$.controllers"]


@pytest.mark.parametrize("name", ["phi", ["phi"]], ids=["repeated", "not-text"])
def test_load_rejects_property_names_results_cannot_key(name):
    doc = snapshot(_kb(violating=False))
    doc["properties"] = [*doc["properties"], {**doc["properties"][0], "name": name}]
    with pytest.raises(SchemaError) as exc:
        load(doc)
    assert exc.value.paths == ["$.properties[1].name"]


@pytest.mark.parametrize(
    "properties, path",
    [
        ([], "$.properties"),
        ({}, "$.properties"),
        ([{"name": "phi"}], "$.properties[0].expression"),
    ],
    ids=["empty", "no-array", "no-expression"],
)
def test_load_rejects_a_snapshot_without_properties(properties, path):
    doc = snapshot(_kb(violating=True))
    doc["properties"] = properties
    with pytest.raises(SchemaError) as exc:
        load(doc)
    assert exc.value.paths == [path]


def test_new_knowledge_base_rejects_a_property_with_an_unknown_label():
    # as check does, before the first analysed step would find it
    with pytest.raises(NotFoundError, match="unknown label 'zz'"):
        new_knowledge_base(_belief(violating=False), [BoundedReachProperty("p", "zz", 5, "<", 0.5)])


def test_load_rejects_a_property_with_an_unknown_label():
    doc = snapshot(_kb(violating=False))
    doc["properties"].append({"name": "psi", "expression": "P < 0.5 [ F<=5 zz ]"})
    with pytest.raises(SchemaError) as exc:
        load(doc)
    assert exc.value.paths == ["$.properties[1]"]


def test_load_rejects_attribute_values_that_are_no_array():
    doc = snapshot(_kb(violating=False))
    doc["prior_scg"]["attributes"][0]["values"] = "xyz"  # three characters, three situations
    with pytest.raises(SchemaError) as exc:
        load(doc)
    assert exc.value.paths == ["$.prior_scg.attributes[0].values"]


@pytest.mark.parametrize(
    "key, value",
    [
        ("prev", "zz"),  # no situation
        ("prev", 5),
        ("prev", ["s1"]),
        ("prev", "f1"),  # a failure cannot be a transition source
        ("prev", "s0"),  # avoided: entering it stops the episode
        ("baseline", "no"),
        ("baseline", 0),
        ("last_t", 2.7),
        ("last_t", "3"),
        ("last_t", True),
        ("baselin", True),  # misspelt: baseline fell back to False
        ("last_tt", 0),  # misspelt: last_t fell back to -1
    ],
)
def test_load_rejects_a_malformed_loop_cursor(key, value):
    kb = _kb(violating=True)
    step(kb, TraceEvent(t=0, kind="situation_entered", id="s1"))
    assert kb.scg.sunk == {"s0"} and kb.prev == "s1"
    doc = snapshot(kb)
    load(doc)
    with pytest.raises(SchemaError) as exc:
        load({**doc, key: value})
    assert exc.value.paths == [f"$.{key}"]


def _maritime_snapshot() -> dict:
    """A seed-7 maritime knowledge base after two steps: one count, s0 -> s1."""
    _, belief = generate_scenario(ScenarioConfig(seed=7))
    kb = new_knowledge_base(belief, experiments.default_properties())
    run(kb, [TraceEvent(0, "situation_entered", "s0"), TraceEvent(1, "situation_entered", "s1")])
    return snapshot(kb)


MARITIME_SNAPSHOT = _maritime_snapshot()


@pytest.mark.parametrize(
    "keys, value, path",
    [
        (("counts", "counts", "zz"), {"s1": 1}, "$.counts.counts.zz"),
        (("counts", "counts", "f1"), {"s1": 1}, "$.counts.counts.f1"),
        (("counts", "counts", "s0"), {"zz": 1}, "$.counts.counts.s0"),
        (("counts", "counts", "s0", "s1"), -1, "$.counts.counts.s0"),
        (("counts", "counts", "s0", "s1"), "3", "$.counts.counts.s0.s1"),
        (("counts", "counts", "s0", "s1"), 2.7, "$.counts.counts.s0.s1"),
        (("counts", "counts", "s0", "s1"), True, "$.counts.counts.s0.s1"),
        (("counts", "failure_ids"), ["f9"], "$.counts.failure_ids"),
        (("counts", "failure_ids"), ["f1"], "$.counts.failure_ids"),
        (("counts", "failure_ids"), "f1", "$.counts.failure_ids"),
        (("history", 0, "controller_id"), "nope", "$.history[0].controller_id"),
        (("history", 0, "t"), 2.7, "$.history[0].t"),
        (("history", 0, "outcome"), [], "$.history[0].outcome"),
        (("synthesis", "max_removals"), "3", "$.synthesis.max_removals"),
        (("synthesis", "max_removals"), True, "$.synthesis.max_removals"),
        (("synthesis", "max_removals"), -1, "$.synthesis"),
        (("estimator", "bogus"), 1, "$.estimator.bogus"),
        (("estimator", "mode"), "psychic", "$.estimator"),
        (("estimator", "prior_strength_kappa"), math.nan, "$.estimator.prior_strength_kappa"),
        (("estimator", "prior_strength_kappa"), math.inf, "$.estimator.prior_strength_kappa"),
        (("estimator", "smoothing_alpha"), 10**400, "$.estimator.smoothing_alpha"),
        (("controllers", 0, "avoided"), "s0", "$.controllers[0].avoided"),
        (("controllers", 0, "avoided"), ["zz"], "$.controllers[0].avoided"),
        (("controllers", 0, "id"), "c1", "$.controllers[0].id"),
        (("controllers", 0, "origin"), "bogus", "$.controllers[0].origin"),
        (("controllers", 0, "origin"), "synthesised", "$.controllers[0].origin"),
        (("properties", 0, "bogus"), 1, "$.properties[0].bogus"),
        (("synthesis", "rng_seedd"), 7, "$.synthesis.rng_seedd"),
        (("prior_scg", "bogus"), 1, "$.prior_scg.bogus"),
        (("prior_scg", "attributes", 0, "values", 1), 7, "$.prior_scg.attributes[0].values[1]"),
        (("prior_scg", "failures", 0, "label"), None, "$.prior_scg.failures[0].label"),
        (("prior_scg", "delta", "s3"), [1.0], "$.prior_scg.delta.s3"),
        (("prior_scg", "sunk"), "s0", "$.prior_scg.sunk"),
        (("controllers", 0, "bogus"), 1, "$.controllers[0].bogus"),
    ],
)
def test_load_checks_every_snapshot_field(keys, value, path):
    doc = json.loads(json.dumps(MARITIME_SNAPSHOT))
    node = doc
    for key in keys[:-1]:
        node = node[key]
    node[keys[-1]] = value
    with pytest.raises(SchemaError) as exc:
        load(doc)
    assert exc.value.paths == [path]


@pytest.mark.parametrize("failure", ["f1", "s3"], ids=["larger-grid", "failure-named-s3"])
def test_load_rejects_an_avoided_id_that_names_no_situation(failure):
    # the controller avoids s3, which the prior lacks or names as a failure
    delta = {"s0": {"s0": 0.99, failure: 0.01}, "s1": {"s1": 1.0}, "s2": {"s2": 1.0}}
    failures = (FailureMode(failure, "f1"),)
    prior = AugmentedScg((OddAttribute("a", ("x", "y", "z")),), failures, delta)
    doc = snapshot(new_knowledge_base(prior, [PROP], estimator=EXACT))
    doc["controllers"][0]["avoided"] = ["s1", "s3"]
    with pytest.raises(SchemaError) as exc:
        load(doc)
    assert exc.value.paths == ["$.controllers[0].avoided"]


@pytest.mark.parametrize(
    "ids", [["c0", "c0"], ["c0", "c2"], ["c1", "c0"]], ids=["repeated", "gap", "reordered"]
)
def test_load_rejects_controller_ids_out_of_their_order(ids):
    # a switch names its controller c{len(controllers)}: c0, c2 would make a second c2
    kb = _kb(violating=True)
    step(kb, TraceEvent(t=0, kind="situation_entered", id="s1"))
    doc = snapshot(kb)
    for controller, cid in zip(doc["controllers"], ids):
        controller["id"] = cid
    wrong = next(i for i, cid in enumerate(ids) if cid != f"c{i}")
    with pytest.raises(SchemaError) as exc:
        load(doc)
    assert exc.value.paths == [f"$.controllers[{wrong}].id"]


@pytest.mark.parametrize("i, origin", [(1, "pre-deployment"), (1, "bogus"), (0, "synthesised")])
def test_load_rejects_an_origin_new_knowledge_base_and_step_do_not_give(i, origin):
    kb = _kb(violating=True)
    step(kb, TraceEvent(t=0, kind="situation_entered", id="s1"))
    doc = snapshot(kb)
    assert [c["origin"] for c in doc["controllers"]] == ["pre-deployment", "synthesised"]
    doc["controllers"][i]["origin"] = origin
    with pytest.raises(SchemaError) as exc:
        load(doc)
    assert exc.value.paths == [f"$.controllers[{i}].origin"]


def test_loaded_prior_holds_no_compiled_model_and_controllers_no_scg():
    # nothing builds from the prior; the belief's model is compiled from it
    kb = _kb(violating=True)
    step(kb, TraceEvent(t=0, kind="situation_entered", id="s1"))
    kb = load(snapshot(kb))
    assert kb.prior_scg.compiled is None
    assert [c.scg for c in kb.controllers] == [None, None]
    assert kb.model is not None


def test_a_bad_estimated_row_is_a_model_error_from_new_knowledge_base():
    # n + alpha * |support| overflows to inf, so every estimate would be 0.0
    estimator = EstimatorConfig(mode="frequentist", smoothing_alpha=1e308)
    with pytest.raises(ModelError, match=r"smoothing_alpha 1e\+308 over 2 targets overflows"):
        new_knowledge_base(_belief(violating=False), [PROP], estimator=estimator)


def test_load_rejects_a_non_numeric_count():
    kb = _kb(violating=False)
    step(kb, TraceEvent(t=0, kind="situation_entered", id="s1"))
    step(kb, TraceEvent(t=1, kind="situation_entered", id="s2"))
    doc = snapshot(kb)
    doc["counts"]["counts"]["s1"]["s2"] = "abc"
    with pytest.raises(SchemaError):
        load(doc)


def test_trace_file_round_trip(tmp_path):
    events = [
        TraceEvent(t=0, kind="situation_entered", id="s0"),
        TraceEvent(t=1, kind="failure_observed", id="f1"),
        TraceEvent(t=1, kind="episode_reset"),
    ]
    path = tmp_path / "trace.jsonl"
    write_trace(events, path)
    assert read_trace(path) == events


def test_run_log_is_reproducible():
    events = [
        TraceEvent(t=0, kind="situation_entered", id="s1"),
        TraceEvent(t=1, kind="situation_entered", id="s2"),
        TraceEvent(t=2, kind="failure_observed", id="f1"),
        TraceEvent(t=2, kind="episode_reset"),
    ]
    log_a = run(_kb(violating=True), list(events))
    log_b = run(_kb(violating=True), list(events))
    assert [e.to_dict() for e in log_a] == [e.to_dict() for e in log_b]


def _full_belief(kb: KnowledgeBase):
    """The belief a from-scratch estimate of every row gives, with the sinks."""
    belief = rebuild_scg(kb.prior_scg, kb.counts, kb.estimator)
    return sink_situation(belief, *kb.active_controller.avoided)


@pytest.mark.parametrize(
    "estimator",
    [
        None,  # the timeline's own Bayesian estimator
        EstimatorConfig(),
        EstimatorConfig(mode="frequentist", smoothing_alpha=1.0),
        EstimatorConfig(support_policy="prior-support", prior_strength_kappa=20.0),
    ],
)
def test_incremental_belief_equals_full_rebuild(estimator, monkeypatch):
    checked = []

    def new_kb(*args, **kwargs):
        if estimator is not None:
            kwargs["estimator"] = estimator
        return new_knowledge_base(*args, **kwargs)

    def checked_step(kb, event):
        out = step(kb, event)
        assert kb.scg.sunk == set(kb.active_controller.avoided)
        expected = _full_belief(kb)
        assert kb.scg.delta == expected.delta and kb.scg.sunk == expected.sunk
        assert_compiles_to(kb.model, kb.scg)
        # the knowledge base alone holds the delta it writes rows into
        assert all(c.scg is None or c.scg.delta is not kb.scg.delta for c in kb.controllers)
        checked.append(event.kind)
        return out

    monkeypatch.setattr(experiments, "new_knowledge_base", new_kb)
    monkeypatch.setattr(experiments, "step", checked_step)
    result = experiments.run_timeline(experiments.TimelineConfig(seed=7))
    assert len(checked) > 1000 and set(checked) == set(EVENT_KINDS)
    if estimator is None:  # the controller switch and its row writes are covered
        assert result.adaptation_entries()


def _two_trap_kb(kind: str):
    """A knowledge base whose belief holds more traps than synthesis may sink,
    dense or a loaded CSR grid, and a situation that breaks a property."""
    synthesis = SynthesisConfig(max_removals=1)
    if kind == "dense":  # s0 and s1 each feed f1; s2 leaks into both
        delta = {
            "s0": {"s0": 0.1, "f1": 0.9},
            "s1": {"s1": 0.1, "f1": 0.9},
            "s2": {"s0": 0.3, "s1": 0.3, "s2": 0.4},
        }
        scg = make_scg(delta, 3)
        return new_knowledge_base(scg, [PROP], estimator=EXACT, synthesis=synthesis), "s2"
    if str(CHECKOUT) not in sys.path:
        sys.path.insert(0, str(CHECKOUT))
    from perfbench import gen

    doc, traps = gen.plant_traps(gen.grid_doc(gen.derive_seed(1), 3, 4), 1, 0)
    properties = experiments.default_properties()
    return new_knowledge_base(scg_from_dict(doc), properties, synthesis=synthesis), traps[0]


@pytest.mark.parametrize("kind, operator", [("dense", np.ndarray), ("csr", sp.csr_matrix)])
def test_a_failed_synthesis_leaves_the_model_of_the_unchanged_belief(kind, operator):
    kb, current = _two_trap_kb(kind)
    belief = copy.deepcopy(kb.scg)
    assert isinstance(kb.model.matrix, operator)
    _, entry = step(kb, TraceEvent(t=0, kind="situation_entered", id=current))
    assert entry.directive.kind == "safe_stop" and not entry.outcome.success
    assert len(entry.outcome.avoided) == 1  # synthesis sank one trap into the model
    assert kb.scg == belief and [c.id for c in kb.controllers] == ["c0"]
    assert_compiles_to(kb.model, kb.scg)


#: a trace in which s0's one observed move, into f1, makes it as critical as
#: the traps; synthesis then sinks s0 first, the smallest id among the ties
RESTORE_TRACE = [
    ("situation_entered", "s0"),
    ("failure_observed", "f1"),
    ("episode_reset", None),
    ("situation_entered", "s3"),
    ("episode_reset", None),
    ("situation_entered", "s0"),
]


def test_a_failed_synthesis_restores_each_row_to_the_estimate_of_its_counts():
    # s1 and s2 each feed f1 and s3 leaks into both, so sinking one situation
    # never silences the violation; s0 starts out benign
    delta = {
        "s0": {"s0": 0.999, "s3": 0.001},
        "s1": {"s1": 0.1, "f1": 0.9},
        "s2": {"s2": 0.1, "f1": 0.9},
        "s3": {"s1": 0.3, "s2": 0.3, "s3": 0.4},
    }
    synthesis = SynthesisConfig(max_removals=1)
    kb = new_knowledge_base(make_scg(delta, 4), [PROP], estimator=EXACT, synthesis=synthesis)
    log = []
    for t, (kind, sid) in enumerate(RESTORE_TRACE):
        _, entry = step(kb, TraceEvent(t=t, kind=kind, id=sid))
        log.append(entry)
        # the sunk row is back at its estimate: the model is the unsunk belief's
        assert [c.id for c in kb.controllers] == ["c0"]
        assert_compiles_to(kb.model, rebuild_scg(kb.prior_scg, kb.counts, kb.estimator))
    failed = [e.outcome for e in log if e.outcome]
    assert [(o.success, o.avoided) for o in failed] == [(False, ["s0"])] * 2
    assert kb.counts.row("s0") == {"f1": 1}  # so its estimate is no longer its prior row
    # both syntheses fail on s0, and the knowledge base safe-stops each time
    assert [(e.directive.kind, e.compliant) for e in log] == [
        ("continue", True),
        ("continue", None),
        ("continue", None),
        ("safe_stop", False),
        ("continue", None),
        ("safe_stop", False),
    ]


def test_a_loaded_prior_hands_its_model_to_the_knowledge_base_that_validates_it():
    prior = scg_from_dict(scg_to_dict(_belief(violating=True)))
    assert prior.compiled is not None
    kb = new_knowledge_base(prior, [PROP])
    assert kb.prior_scg is prior and prior.compiled is None


@pytest.mark.parametrize(
    "delta, sunk",
    [
        ({"s0": {"s0": 0.5}, "s1": {"s1": 1.0}, "s2": {"s2": 1.0}}, ()),
        ({"s0": {"s0": 1.0}, "s1": {"s1": 1.0}}, ()),
        ({"s0": {"zz": 1.0}, "s1": {"s1": 1.0}, "s2": {"s2": 1.0}}, ()),
        ({"s0": {"s0": 1.0}, "s1": {"s2": 1.0}, "s2": {"s2": 1.0}}, ("s1",)),
        ({"s0": {"s0": 1.0}, "s1": {"s1": 1.0}, "s2": {"s2": 1.0}, "f1": {"f1": 1.0}}, ()),
    ],
    ids=["row-sum", "missing-row", "unknown-target", "sunk-not-self-loop", "failure-row"],
)
def test_an_invalid_prior_is_the_model_error_require_valid_raises(delta, sunk):
    prior = make_scg(delta, 3, sunk=frozenset(sunk))
    with pytest.raises(ModelError) as expected:
        require_valid(prior)
    with pytest.raises(ModelError) as exc:
        new_knowledge_base(prior, [PROP])
    assert str(exc.value) == str(expected.value)


def test_snapshot_with_a_pending_row_resumes_to_the_same_log(monkeypatch):
    events = []

    def recording_step(kb, event):
        if not kb.baseline:
            events.append(event)
        return step(kb, event)

    monkeypatch.setattr(experiments, "step", recording_step)
    timeline = experiments.run_timeline(experiments.TimelineConfig(seed=7))
    monkeypatch.undo()
    # the adaptive knowledge base of that timeline, replayed on its own events
    _, belief = generate_scenario(ScenarioConfig(seed=7, drift_magnitude=1.0, drift_time=60))
    config = dict(
        estimator=EstimatorConfig(mode="bayesian", prior_strength_kappa=1.0),
        synthesis=SynthesisConfig(max_removals=4),
    )
    props = experiments.default_properties()
    full_log = run(new_knowledge_base(belief, props, **config), events)
    assert [e.to_dict() for e in full_log] == [e.to_dict() for e in timeline.adaptive_log]

    failures = [i for i, e in enumerate(events) if e.kind == "failure_observed"]
    for cut in (failures[0], failures[-1]):
        kb = new_knowledge_base(belief, props, **config)
        resumed = run(kb, events[:cut])
        left = kb.prev
        stale_row = kb.scg.delta[left]
        resumed += run(kb, events[cut : cut + 1])
        assert kb.scg.delta[left] != stale_row  # the failure's row is estimated at once
        doc = snapshot(kb)
        # the older format: selection settings, a belief version, a stored
        # belief whose row left before a failure is still at its estimate from
        # before that failure, and each controller's SCG (c0's is the prior)
        assert "scg" not in doc
        old = copy.deepcopy(doc)
        for entry, controller in zip(old["controllers"], kb.controllers):
            entry["scg"] = scg_to_dict(controller.scg or kb.prior_scg)
        old["scg"] = scg_to_dict(kb.scg)
        old["scg"]["delta"][left] = dict(stale_row)
        old["scg_version"] = 3
        old["synthesis"].update(rng_seed=7, out_of_odd_horizon=None)
        for saved in (doc, old):
            restored = load(saved)
            assert restored.scg.delta == kb.scg.delta
            rest = run(restored, events[cut + 1 :])
            assert [e.to_dict() for e in resumed + rest] == [e.to_dict() for e in full_log]


def test_unknown_count_target_is_a_schema_error_through_a_loaded_snapshot():
    kb = _kb(violating=False)
    step(kb, TraceEvent(t=0, kind="situation_entered", id="s1"))
    doc = snapshot(kb)
    doc["counts"]["counts"]["s1"] = {"zz": 1}
    with pytest.raises(SchemaError) as exc:
        load(doc)
    assert exc.value.paths == ["$.counts.counts.s1"]


def test_unknown_count_target_is_a_model_error_through_an_incremental_step():
    kb = _kb(violating=False)
    step(kb, TraceEvent(t=0, kind="situation_entered", id="s1"))
    assert kb.model is not None
    ingest(kb.counts, kb.prev, "zz")
    with pytest.raises(ModelError):
        step(kb, TraceEvent(t=1, kind="situation_entered", id="s2"))
