"""Synthesis keeps reach vectors across sinks and sweeps only what a decision reads.

After sinking `t`, a property whose vector is 0.0 at `t` keeps it as it is;
every other property is pending, and is swept at once when the operator
changed between dense and CSR, before any sink that is not settled, and
before a stop that the pending values do not decide (see
synthesize_safe_controller).  A compliant ranking whose pending properties
are all upper bounds decides success unswept, and nothing sweeps them after:
an outcome is the decision alone, with no final report.  On a CSR operator
a target that no other state enters takes no sweep at all.  Outcomes must
equal, byte for byte, those of a loop that sweeps every property in full
after each sink.
"""

import copy
import json
import pickle
import random
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest

from oddsafe import adapt, dtmc
from oddsafe.adapt import AdaptationOutcome, SynthesisConfig, synthesize_safe_controller
from oddsafe.dtmc import (
    BoundedReachProperty,
    build_model,
    rank_situations,
    score_situations,
    write_rows,
)
from oddsafe.scg import sink_situation

from helpers import make_scg, plain_reach_vector, random_scg

FAILURES = ("f1", "f2")
#: a failure mode that no situation row feeds
UNFED = "f3"


def _sweep_all(model, properties):
    return {
        p.name: plain_reach_vector(model.matrix, model.labels[p.target_label], p.horizon)
        for p in properties
    }


def resweep_everything(scg, properties, config):
    """The sink loop that sweeps every property in full after each sink, and
    per sink whether the operator changed kind and whether some kept vector
    was 0.0 at the sunk row (the two branches of the rule for kept vectors)."""
    model = build_model(scg)
    vectors = _sweep_all(model, properties)
    report = score_situations(model, scg.sunk, vectors, properties)
    initial_violations = report.violated_properties()
    worst_initial_score = report.worst_score()
    avoided, sinks = [], []
    while not report.all_compliant() and len(avoided) < config.max_removals:
        target = report.worst_situation
        scg = sink_situation(scg, target)
        kind = type(model.matrix)
        write_rows(model, {target: scg.delta[target]})
        avoided.append(target)
        t = model.space.index[target]
        sinks.append((type(model.matrix) is not kind, any(v[t] == 0.0 for v in vectors.values())))
        vectors = _sweep_all(model, properties)
        report = score_situations(model, scg.sunk, vectors, properties)
    outcome = AdaptationOutcome(
        success=report.all_compliant(),
        avoided=avoided,
        iterations=len(avoided) + 1,
        initial_violations=initial_violations,
        worst_initial_score=worst_initial_score,
    )
    return outcome, sinks


def _watch_synthesis(monkeypatch) -> Counter:
    """Counts, over synthesis runs, the sinks decided on vectors a full sweep
    would change ("deferred"), and the properties it checks on a CSR operator
    whose target no other state enters ("unentered")."""
    seen = Counter(deferred=0, unentered=0)
    held = {}  # the vectors synthesis last scored, which it updates in place
    score, write, sweep = adapt.score_situations, adapt.write_rows, adapt.reach_vectors

    def scored(model, sunk, vectors, properties):
        held.update(vectors=vectors, properties=properties)
        return score(model, sunk, vectors, properties)

    def written(model, rows):
        fresh = _sweep_all(model, held["properties"])
        seen["deferred"] += any(not np.array_equal(held["vectors"][k], v) for k, v in fresh.items())
        write(model, rows)

    def swept(model, properties):
        if not isinstance(model.matrix, np.ndarray):
            entries = model.matrix.toarray() != 0.0
            for p in properties:
                targets = sorted(model.labels[p.target_label])
                others = np.ones(len(entries), bool)
                others[targets] = False
                seen["unentered"] += not entries[others][:, targets].any()
        return sweep(model, properties)

    monkeypatch.setattr(adapt, "score_situations", scored)
    monkeypatch.setattr(adapt, "write_rows", written)
    monkeypatch.setattr(adapt, "reach_vectors", swept)
    return seen


def _trap_row(rng, sid):
    """A self-loop plus one failure mode."""
    share = rng.uniform(0.3, 0.9)
    return {sid: 1.0 - share, rng.choice(FAILURES): share}


def _closed_row(rng, sid):
    """A row that leads only to failure modes and, most often, to itself."""
    targets = rng.sample(FAILURES, rng.randint(1, len(FAILURES)))
    if rng.random() < 0.8:
        targets.append(sid)
    weights = {t: rng.random() + 1e-3 for t in targets}
    total = sum(weights.values())
    return {t: w / total for t, w in weights.items()}


def _sparse_or_dense(rng):
    """Random rows, some closed; in half the models f1 is fed by closed rows
    alone, and f3 by none."""
    fed = rng.choice([FAILURES, ("f2",)])
    delta = dict(random_scg(rng, n_situations=rng.randint(3, 14), failures=fed).delta)
    for sid in rng.sample(sorted(delta), rng.randint(0, 3)):
        delta[sid] = _closed_row(rng, sid)
    return make_scg(delta, len(delta), FAILURES + (UNFED,))


def _at_the_cutoff(rng):
    """A dense operator one nonzero above SPARSE_DENSITY_CUTOFF with trap
    rows, so a first sink of a row with two or more entries makes it CSR."""
    n, traps = rng.randint(6, 14), rng.randint(1, 3)
    states = [f"s{i}" for i in range(n)] + list(FAILURES)
    nnz = int(dtmc.SPARSE_DENSITY_CUTOFF * len(states) ** 2) + 1
    lengths = [1] * (n - traps)
    # the failure self-loops and the two-entry trap rows hold the rest
    for _ in range(nnz - len(FAILURES) - 2 * traps - len(lengths)):
        lengths[rng.choice([i for i, k in enumerate(lengths) if k < len(states)])] += 1
    delta = {}
    for i, length in enumerate(lengths):
        weights = {t: rng.random() + 1e-3 for t in rng.sample(states, length)}
        total = sum(weights.values())
        delta[f"s{i}"] = {t: w / total for t, w in weights.items()}
    for i in range(n - traps, n):
        delta[f"s{i}"] = _trap_row(rng, f"s{i}")
    return make_scg(delta, n)


def _properties(rng, labels):
    return [
        BoundedReachProperty(
            f"p{j}",
            rng.choice(labels),
            rng.randint(1, 30),
            rng.choice(["<", "<=", ">", ">="]),
            rng.choice([0.0, 0.05, 0.3, 0.5, 0.9, 1.0, round(rng.random(), 3)]),
        )
        for j in range(rng.randint(1, 3))
    ]


def test_synthesis_equals_the_full_resweep_reference(monkeypatch):
    rng = random.Random(2026)
    seen = _watch_synthesis(monkeypatch)
    seen.update({"kept": 0, "crossed with a kept vector": 0, "gave up": 0, "lower bound sunk": 0})
    for case in range(400):
        scg = _at_the_cutoff(rng) if case % 4 == 0 else _sparse_or_dense(rng)
        properties = _properties(rng, [f.label for f in scg.failures])
        config = SynthesisConfig(max_removals=rng.randint(0, 4))
        expected, sinks = resweep_everything(scg, properties, config)
        outcome = synthesize_safe_controller(scg, properties, config)
        assert json.dumps(outcome.to_dict()) == json.dumps(expected.to_dict()), case
        seen["kept"] += sum(zero and not crossed for crossed, zero in sinks)
        seen["crossed with a kept vector"] += sum(zero and crossed for crossed, zero in sinks)
        seen["gave up"] += not outcome.success and config.max_removals > 0
        seen["lower bound sunk"] += bool(sinks) and any(not p.is_upper_bound for p in properties)
    # every branch of the rules ran, on enough cases to mean something
    assert min(seen.values()) >= 10, seen


def _on_the_bound():
    """s2 is a trap feeding f1 and s1 reaches f1 only through it; s0 and the
    rest absorb, which keeps the operator CSR.  phi's bound is s1's value,
    so once s2 is sunk s1's kept phi value sits on the bound, a violation
    scored 0, until a sweep drops it to 0.0."""
    delta = {f"s{i}": {f"s{i}": 1.0} for i in range(8)}
    delta.update(s1={"s1": 0.5, "s2": 0.5}, s2={"s2": 0.3, "f1": 0.7})
    scg = make_scg(delta, 8)
    model = build_model(scg)
    assert not isinstance(model.matrix, np.ndarray)
    bound = plain_reach_vector(model.matrix, model.labels["f1"], 5)[1]
    return scg, [BoundedReachProperty("phi", "f1", 5, "<", float(bound))]


def test_a_compliant_worst_situation_is_not_sunk_on_pending_vectors():
    # psi scores every situation 0, so s0, compliant and closed, ranks first
    scg, properties = _on_the_bound()
    properties.append(BoundedReachProperty("psi", "f2", 5, "<=", 0.0))
    config = SynthesisConfig()
    expected, _ = resweep_everything(scg, properties, config)
    outcome = synthesize_safe_controller(scg, properties, config)
    assert outcome.success and outcome.avoided == ["s2"]
    assert json.dumps(outcome.to_dict()) == json.dumps(expected.to_dict())


def _counted_kernel(monkeypatch) -> list:
    """Every bounded_reach_vector call as its step bound k."""
    calls = []
    kernel = dtmc.bounded_reach_vector

    def counted(matrix, targets, k):
        calls.append(k)
        return kernel(matrix, targets, k)

    monkeypatch.setattr(dtmc, "bounded_reach_vector", counted)
    return calls


def _ring_with_traps(n, traps):
    """A sparse ring that drifts forward and leaks into f2; the trap cells
    feed f1 and f2 in turn, and only them."""
    delta = {f"s{i}": {f"s{i}": 0.97, f"s{(i + 1) % n}": 0.0299, "f2": 1e-4} for i in range(n)}
    for j, i in enumerate(traps):
        delta[f"s{i}"] = {f"s{i}": 0.3, FAILURES[j % 2]: 0.7}
    return make_scg(delta, n)


@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_settled_sinks_cost_no_sweep(monkeypatch, k):
    traps = [5 + 10 * j for j in range(k)]
    scg = _ring_with_traps(40, traps)
    properties = [
        BoundedReachProperty("phi1", "f1", 50, "<", 0.99),
        BoundedReachProperty("phi2", "f2", 50, "<", 0.95),
    ]
    calls = _counted_kernel(monkeypatch)
    outcome = synthesize_safe_controller(scg, properties, SynthesisConfig(max_removals=4))
    assert outcome.success
    assert sorted(outcome.avoided) == sorted(f"s{i}" for i in traps)
    # The first ranking sweeps phi1 and phi2.  Each trap's row leads only to
    # itself and its failure, so every sink after the first is settled and
    # sweeps nothing, and the last ranking, compliant on upper bounds, decides
    # success unswept.
    assert len(calls) == 2


def _two_trap_ring_properties(comparator="<="):
    # on _ring_with_traps(40, [5, 15]): s5 feeds f1 and s15 feeds f2, and only
    # s15 violates phi; psi, at its bound 0 or 1, never violates
    return [
        BoundedReachProperty("phi", "f2", 50, "<", 0.95),
        BoundedReachProperty("psi", "f2", 50, comparator, {">=": 0.0, "<=": 1.0}[comparator]),
    ]


@pytest.mark.parametrize(
    "copier", [copy.deepcopy, lambda o: pickle.loads(pickle.dumps(o))], ids=["deepcopy", "pickle"]
)
def test_a_copy_of_an_outcome_equals_it_and_sweeps_nothing(monkeypatch, copier):
    # an outcome holds plain values, and the run log's copy a scored report
    scg = _ring_with_traps(40, [5, 15])
    properties = _two_trap_ring_properties()
    outcome = synthesize_safe_controller(scg, properties, SynthesisConfig())
    assert outcome.final_report is None
    report = rank_situations(sink_situation(scg, *outcome.avoided), properties)
    logged = replace(outcome, final_report=report)
    calls = _counted_kernel(monkeypatch)
    for original in (outcome, logged):
        again = copier(original)
        assert again == original
        assert json.dumps(again.to_dict()) == json.dumps(original.to_dict())
    assert calls == []


@pytest.mark.parametrize("comparator", [">=", "<="])
def test_a_pending_lower_bound_property_is_swept_before_success(monkeypatch, comparator):
    # after s15 is sunk phi and psi are pending; a pending ">=" value bounds
    # its sweep from above, which decides nothing, so both are swept at once,
    # while a pending "<=" is left unswept with phi
    scg = _ring_with_traps(40, [5, 15])
    properties = _two_trap_ring_properties(comparator)
    expected, _ = resweep_everything(scg, properties, SynthesisConfig())
    calls = _counted_kernel(monkeypatch)
    outcome = synthesize_safe_controller(scg, properties, SynthesisConfig())
    assert outcome.success and outcome.avoided == ["s15"]
    assert len(calls) == (4 if comparator == ">=" else 2)
    assert json.dumps(outcome.to_dict()) == json.dumps(expected.to_dict())


def _two_f2_traps():
    # s15 and s35 feed f2, so one sink leaves phi violated
    return _ring_with_traps(40, [5, 15, 25, 35]), _two_trap_ring_properties()


@pytest.mark.parametrize(
    "make, success",
    [(_on_the_bound, True), (_two_f2_traps, False)],
    ids=["compliant-when-swept", "violating-when-swept"],
)
def test_a_stop_at_max_removals_decides_on_swept_values(monkeypatch, make, success):
    # one sink, then max_removals stops synthesis on a ranking that is not
    # compliant; the pending values are swept before success is decided
    scg, properties = make()
    config = SynthesisConfig(max_removals=1)
    expected, _ = resweep_everything(scg, properties, config)
    swept, sweep = [], adapt.reach_vectors

    def recorded(model, pending):
        swept.append([p.name for p in pending])
        return sweep(model, pending)

    monkeypatch.setattr(adapt, "reach_vectors", recorded)
    outcome = synthesize_safe_controller(scg, properties, config)
    assert outcome.success == expected.success == success and len(outcome.avoided) == 1
    assert json.dumps(outcome.to_dict()) == json.dumps(expected.to_dict())
    # the first ranking and the sweep before the stop each sweep every property
    assert swept == [[p.name for p in properties]] * 2
