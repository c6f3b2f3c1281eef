import copy
import json
import sys
import threading
from dataclasses import asdict, replace

import pytest

from oddsafe import scg as scg_module
from oddsafe.adapt import AdaptationOutcome, SynthesisConfig, synthesize_safe_controller
from oddsafe.dtmc import BoundedReachProperty, build_model, rank_situations
from oddsafe.errors import InvalidOddError, ModelError, NotFoundError, SchemaError
from oddsafe.experiments import TimelineConfig, VariantConfig
from oddsafe.learn import EstimatorConfig, TransitionCounts
from oddsafe.marsim import ScenarioConfig
from oddsafe.runtime import HistoryEntry, TraceEvent
from oddsafe.scg import (
    AugmentedScg,
    FailureMode,
    OddAttribute,
    decode,
    describe_situation,
    enumerate_situations,
    load_scg,
    require_valid,
    save_scg,
    scg_from_dict,
    scg_to_dict,
    sink_situation,
    structural_violations,
    validate_scg,
)

from helpers import make_scg


def test_enumeration_is_lexicographic():
    attrs = [OddAttribute("a", ("x", "y")), OddAttribute("b", ("p", "q", "r"))]
    situations = enumerate_situations(attrs)
    assert [s.id for s in situations] == [f"s{i}" for i in range(6)]
    assert [s.assignment for s in situations] == [
        (0, 0), (0, 1), (0, 2), (1, 0), (1, 1), (1, 2)
    ]


BAD_ODDS = [
    [],
    [OddAttribute("a", ("x",)), OddAttribute("a", ("y",))],
    [OddAttribute("a", ())],
    [OddAttribute("a", ("x", "x"))],
]


@pytest.mark.parametrize("attrs", BAD_ODDS)
def test_enumeration_rejects_bad_odds(attrs):
    with pytest.raises(InvalidOddError):
        enumerate_situations(attrs)


@pytest.mark.parametrize("attrs", BAD_ODDS)
def test_an_scg_over_a_bad_odd_cannot_be_built(attrs):
    # no attribute at all would otherwise make a one-situation grid
    with pytest.raises(InvalidOddError):
        AugmentedScg(attrs, (FailureMode("f1", "f1"),), {"s0": {"f1": 1.0}})
    with pytest.raises(InvalidOddError):
        replace(make_scg({"s0": {"f1": 1.0}}, 1), attributes=attrs)


def test_describe_situation():
    scg = make_scg({"s0": {"s0": 1.0}, "s1": {"s1": 1.0}}, 2)
    assert describe_situation(scg, "s1") == "(v1)"
    with pytest.raises(NotFoundError):
        describe_situation(scg, "s9")


def _codes(scg):
    return {v.code for v in validate_scg(scg)}


def test_validate_clean_scg():
    scg = make_scg({"s0": {"s1": 0.5, "f1": 0.5}, "s1": {"s1": 1.0}}, 2)
    assert validate_scg(scg) == []
    require_valid(scg)


def test_validate_missing_row_and_row_sum():
    scg = make_scg({"s0": {"s0": 0.7}}, 2)
    codes = _codes(scg)
    assert "row-sum" in codes
    assert "missing-row" in codes


def test_validate_unknown_target_and_range():
    scg = make_scg({"s0": {"nope": 1.5, "s0": -0.5}, "s1": {"s1": 1.0}}, 2)
    codes = _codes(scg)
    assert "unknown-target" in codes
    assert "probability-range" in codes


def test_validate_reports_a_non_number_as_out_of_range():
    # in-memory rows are not decoded: a string is out of range and has no sum
    scg = make_scg({"s0": {"s0": 0.5, "f1": "half"}, "s1": {"s1": 1.0}}, 2)
    assert [(v.code, v.subject) for v in validate_scg(scg)] == [("probability-range", "s0")]


def test_validate_failure_row_and_unknown_row():
    scg = make_scg(
        {"s0": {"s0": 1.0}, "s1": {"s1": 1.0}, "f1": {"f1": 1.0}, "zz": {"zz": 1.0}},
        2,
    )
    codes = _codes(scg)
    assert "failure-has-outgoing" in codes
    assert "unknown-row" in codes


def test_validate_sunk_invariants():
    scg = make_scg(
        {"s0": {"s1": 1.0}, "s1": {"s1": 1.0}},
        2,
        sunk=frozenset({"s0", "sX"}),
    )
    codes = _codes(scg)
    assert "sunk-not-self-loop" in codes
    assert "unknown-sunk" in codes


def test_validate_id_overlap():
    scg = AugmentedScg(
        attributes=(OddAttribute("attr", ("v0",)),),
        failures=(FailureMode("s0", "s0"),),
        delta={"s0": {"s0": 1.0}},
    )
    assert "id-overlap" in _codes(scg)


def test_require_valid_raises():
    scg = make_scg({"s0": {"s0": 0.5}, "s1": {"s1": 1.0}}, 2)
    with pytest.raises(ModelError):
        require_valid(scg)


def test_sink_situation():
    scg = make_scg({"s0": {"s1": 1.0}, "s1": {"s0": 0.5, "f2": 0.5}}, 2)
    sunk = sink_situation(scg, "s1")
    assert sunk.delta["s1"] == {"s1": 1.0}
    assert sunk.sunk == {"s1"}
    assert sunk.delta["s0"] == {"s1": 1.0}  # incoming edges untouched
    assert scg.delta["s1"] == {"s0": 0.5, "f2": 0.5}  # input not mutated
    assert sink_situation(sunk, "s1") is sunk  # idempotent


def test_sink_situation_errors():
    scg = make_scg({"s0": {"s0": 1.0}, "s1": {"s1": 1.0}}, 2)
    with pytest.raises(TypeError):
        sink_situation(scg, "f1")
    with pytest.raises(NotFoundError):
        sink_situation(scg, "s7")


def _sinkable():
    # rows out of id order, s1 sunk already, s3 sunk but not a self-loop, s4 without a row
    delta = {
        "s2": {"s0": 0.5, "f1": 0.5},
        "s0": {"s1": 1.0},
        "s1": {"s1": 1.0},
        "s3": {"s2": 1.0},
    }
    return make_scg(delta, 5, sunk=frozenset({"s1", "s3"}))


@pytest.mark.parametrize(
    "targets",
    [(), ("s0",), ("s2", "s0"), ("s0", "s2", "s0"), ("s1",), ("s1", "s2"), ("s3",), ("s4", "s0")],
)
def test_sinking_several_targets_equals_sinking_them_one_by_one(targets):
    scg = _sinkable()
    before = copy.deepcopy(scg)
    chained = scg
    for target in targets:
        chained = sink_situation(chained, target)
    at_once = sink_situation(scg, *targets)
    assert at_once.delta == chained.delta and list(at_once.delta) == list(chained.delta)
    assert at_once.sunk == chained.sunk
    assert (at_once is scg) == (chained is scg)
    assert scg == before and list(scg.delta) == list(before.delta)  # the input is untouched


@pytest.mark.parametrize(
    "targets, error",
    [(("s0", "f1"), TypeError), (("s2", "s7"), NotFoundError), (("s0", ["s1"]), NotFoundError)],
)
def test_sinking_several_targets_checks_them_all_first(targets, error):
    scg = _sinkable()
    before = copy.deepcopy(scg)
    with pytest.raises(error):
        sink_situation(scg, *targets)
    assert scg == before and list(scg.delta) == list(before.delta)


def test_json_round_trip(tmp_path):
    scg = make_scg(
        {"s0": {"s1": 0.25, "f1": 0.75}, "s1": {"s1": 1.0}},
        2,
        sunk=frozenset({"s1"}),
    )
    path = tmp_path / "scg.json"
    save_scg(scg, path)
    loaded = load_scg(path)
    assert scg_to_dict(loaded) == scg_to_dict(scg)
    assert loaded.sunk == {"s1"}


def test_from_dict_renormalises_slightly_off_rows():
    doc = scg_to_dict(make_scg({"s0": {"s0": 1.0}}, 1))
    doc["delta"]["s0"] = {"s0": 1.0 + 5e-7}
    with pytest.warns(UserWarning, match="renormalising"):
        scg = scg_from_dict(doc)
    assert scg.delta["s0"]["s0"] == pytest.approx(1.0, abs=1e-12)


def test_from_dict_rejects_badly_off_rows():
    doc = scg_to_dict(make_scg({"s0": {"s0": 1.0}}, 1))
    doc["delta"]["s0"] = {"s0": 1.01}
    with pytest.raises(ModelError):
        scg_from_dict(doc)


def test_from_dict_rejects_a_grid_larger_than_delta_before_enumerating(monkeypatch):
    # 10^9 situations from under 1 KB: neither the grid nor its states may be built
    def build_nothing(*args):
        raise AssertionError("built a grid that delta cannot cover")

    monkeypatch.setattr(scg_module, "situation_grid", build_nothing)
    monkeypatch.setattr(scg_module, "state_space", build_nothing)
    doc = {
        "attributes": [{"name": a, "values": list("0123456789")} for a in "abcdefghi"],
        "failures": [{"id": "f1", "label": "f1"}],
        "delta": {"s0": {"s0": 1.0}},
    }
    assert len(json.dumps(doc)) < 1024
    with pytest.raises(ModelError, match="1000000000 situations, 1 delta rows"):
        scg_from_dict(doc)


def test_from_dict_missing_keys_reports_paths():
    with pytest.raises(SchemaError) as exc:
        scg_from_dict({"attributes": []})
    assert "$.failures" in exc.value.paths
    assert "$.delta" in exc.value.paths


def test_load_scg_missing_file(tmp_path):
    with pytest.raises(FileNotFoundError):
        load_scg(tmp_path / "absent.json")


def test_load_scg_invalid_json_is_schema_error(tmp_path):
    path = tmp_path / "scg.json"
    path.write_text('{"delta": ')
    with pytest.raises(SchemaError, match="invalid JSON"):
        load_scg(path)


def test_save_is_stable_json(tmp_path):
    scg = make_scg({"s0": {"s1": 0.5, "f1": 0.5}, "s1": {"s1": 1.0}}, 2)
    p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
    save_scg(scg, p1)
    save_scg(scg, p2)
    assert p1.read_bytes() == p2.read_bytes()
    json.loads(p1.read_text())


def _grid_doc():
    return scg_to_dict(make_scg({"s0": {"s1": 0.5, "f1": 0.5}, "s1": {"s1": 1.0}}, 2))


def test_loads_of_one_odd_share_its_grid_and_state_space():
    doc = _grid_doc()
    first, second = scg_from_dict(doc), scg_from_dict(json.loads(json.dumps(doc)))
    assert first.situations is second.situations
    assert first.space is second.space
    assert build_model(first).space.index is build_model(second).space.index is first.space.index


def test_sinking_and_replacing_keep_the_state_space():
    loaded = scg_from_dict(_grid_doc())
    for derived in (sink_situation(loaded, "s1"), replace(loaded, delta=dict(loaded.delta))):
        assert derived.situations is loaded.situations
        assert derived.space is loaded.space


def test_a_failure_description_does_not_key_the_state_space():
    # an SCG built in Python checks no description; its state space still builds
    loaded = scg_from_dict(_grid_doc())
    failures = (FailureMode("f1", "f1", ["not", "text"]),) + loaded.failures[1:]
    assert replace(loaded, failures=failures).space.ids == ("s0", "s1", "f1", "f2")


def test_loading_ranking_and_repairing_build_no_situation():
    # an ODD no other test uses, so its grid is not cached yet
    doc = _grid_doc()
    doc["attributes"] = [{"name": "never-enumerated", "values": ["v0", "v1"]}]
    prop = BoundedReachProperty("phi", "f1", 50, "<", 0.1)
    before = scg_module.situation_grid.cache_info()
    loaded = scg_from_dict(doc)
    assert not rank_situations(loaded, [prop]).all_compliant()
    assert synthesize_safe_controller(loaded, [prop], SynthesisConfig()).avoided == ["s0"]
    assert scg_module.situation_grid.cache_info() == before
    assert [s.assignment for s in loaded.situations] == [(0,), (1,)]


def test_lists_handed_out_are_the_callers_own():
    doc = _grid_doc()
    loaded = scg_from_dict(doc)
    enumerate_situations(list(loaded.attributes)).clear()
    loaded.situation_ids.append("s9")
    again = scg_from_dict(doc)
    assert again.situation_ids == ["s0", "s1"]
    assert again.space.ids == ("s0", "s1", "f1", "f2")
    assert [s.id for s in again.situations] == ["s0", "s1"]


def test_repeated_and_overlapping_ids_keep_their_answers():
    # s1 is also a failure, f2 is two failures, s2 has no row
    scg = AugmentedScg(
        attributes=(OddAttribute("a", ("x", "y", "z")),),
        failures=(FailureMode("s1", "f1"), FailureMode("f2", "f2"), FailureMode("f2", "f3")),
        delta={"s0": {"s0": 1.0}, "s1": {"f2": 1.0}, "zz": {"zz": 1.0}},
        sunk=frozenset({"f2", "s1"}),
    )
    ids = ["s0", "s1", "s2", "f2", "zz", ["s0"]]
    assert [scg.is_situation(x) for x in ids] == [True, True, True, False, False, False]
    assert [scg.is_failure(x) for x in ids] == [False, True, False, True, False, False]
    assert [(v.code, v.subject) for v in structural_violations(scg)] == [
        ("duplicate-failure", "-"),
        ("id-overlap", "s1"),
        ("failure-has-outgoing", "s1"),
        ("missing-row", "s2"),
        ("unknown-sunk", "f2"),
        ("sunk-not-self-loop", "s1"),
        ("unknown-row", "zz"),
    ]
    assert [describe_situation(scg, x) for x in ("s0", "s1", "s2")] == ["(x)", "(y)", "(z)"]
    with pytest.raises(NotFoundError):
        describe_situation(scg, "f2")


def test_state_spaces_stay_right_under_concurrent_misses():
    # more threads than entries and cores, each forcing misses and evictions
    wrong = []

    def look_up(offset):
        for i in range(300):
            size, failure_ids = 1 + i % 5, (f"f{offset}-{i}",)
            attributes = (OddAttribute(f"a{offset}-{i}", tuple(map(str, range(size)))),)
            try:
                space = scg_module.state_space(attributes, failure_ids)
            except Exception as exc:  # a thread's error would be lost
                wrong.append(exc)
                continue
            if space.ids != tuple(f"s{j}" for j in range(size)) + failure_ids:
                wrong.append((offset, i))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=look_up, args=(k,)) for k in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert wrong == []


def _synthesised():
    delta = {"s0": {"f1": 0.9, "s0": 0.1}, "s1": {"s0": 0.5, "s1": 0.5}, "s2": {"s2": 1.0}}
    prop = BoundedReachProperty("phi", "f1", 50, "<", 0.5)
    return synthesize_safe_controller(make_scg(delta, 3), [prop], SynthesisConfig(2))


def _records():
    outcome = replace(_synthesised(), final_report=None)  # as history records it
    return [
        TraceEvent(3, "situation_entered", "s0"),
        TraceEvent(4, "episode_reset"),
        HistoryEntry(0, "c0"),
        HistoryEntry(2, "c1", outcome),
        TransitionCounts(frozenset({"f1"}), {"s0": {"s1": 2, "f1": 1}}),
        outcome,
        EstimatorConfig(mode="frequentist", smoothing_alpha=0.5),
        SynthesisConfig(max_removals=2),
        VariantConfig(seed=3, scenario=ScenarioConfig(failure_bias={"f1": 2.0})),
        TimelineConfig(steps=10, prior_strength_kappa=0.25),
    ]


@pytest.mark.parametrize("record", _records(), ids=lambda r: type(r).__name__)
def test_decode_gives_back_every_record_it_is_written_from(record):
    doc = record.to_dict() if hasattr(record, "to_dict") else asdict(record)
    assert decode(type(record), json.loads(json.dumps(doc))) == record


#: a two-situation SCG document
SCG = {
    "attributes": [{"name": "a", "values": ["x", "y"]}],
    "failures": [{"id": "f1", "label": "f1"}],
    "delta": {"s0": {"s0": 0.5, "f1": 0.5}, "s1": {"s1": 1.0}},
}


@pytest.mark.parametrize(
    "kind, doc, path",
    [
        (int, True, "$"),
        (int, 1.0, "$"),
        (float, "1", "$"),
        (float, float("nan"), "$"),
        (float, 10**400, "$"),
        (bool, 0, "$"),
        (str | None, 5, "$"),
        (list[int], {"0": 1}, "$"),
        (list[int], [1, "2"], "$[1]"),
        (dict[str, int], [], "$"),
        (dict[str, int], {"a": None}, "$.a"),
        (SynthesisConfig, {"max_removals": 1, "rng_seed": 7}, "$.rng_seed"),
        (TraceEvent, {"kind": "episode_reset"}, "$.t"),
        (TraceEvent, {"t": 0, "kind": "teleported"}, "$"),
        (AugmentedScg, None, "$"),
        (AugmentedScg, {**SCG, "bogus": 1}, "$.bogus"),
        (
            AugmentedScg,
            {**SCG, "attributes": [{"name": "a", "values": ["x", 0]}]},
            "$.attributes[0].values[1]",
        ),
        (
            AugmentedScg,
            {**SCG, "attributes": [{"name": "a", "values": ["x", "y"], "unit": "m"}]},
            "$.attributes[0].unit",
        ),
        (AugmentedScg, {**SCG, "failures": [{"id": ["f1"], "label": "f1"}]}, "$.failures[0].id"),
        (AugmentedScg, {**SCG, "sunk": [1]}, "$.sunk[0]"),
        (AugmentedScg, {**SCG, "delta": None}, "$.delta"),
        (AugmentedScg, {**SCG, "delta": {**SCG["delta"], "s1": [1.0]}}, "$.delta.s1"),
        (AugmentedScg, {**SCG, "delta": {**SCG["delta"], "s1": {"s1": "1.0"}}}, "$.delta.s1.s1"),
        (AugmentedScg, {**SCG, "delta": {**SCG["delta"], "s1": {"s1": True}}}, "$.delta.s1.s1"),
        # a run-log outcome's report is written, and no reader takes it
        (AdaptationOutcome, _synthesised().to_dict(), "$.final_report"),
    ],
)
def test_decode_names_the_path_of_a_value_of_another_type(kind, doc, path):
    with pytest.raises(SchemaError) as exc:
        decode(kind, doc)
    assert exc.value.paths == [path]
