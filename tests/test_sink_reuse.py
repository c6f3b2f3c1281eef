"""Synthesis keeps reach vectors across sinks.

After sinking `t` it sweeps again only the properties whose vector is
non-zero at `t`, or every property when the operator changed between dense
and CSR.  Its outcomes must equal, byte for byte, those of a loop that sweeps
every property again after each sink.
"""

import json
import random

import pytest

from oddsafe import dtmc
from oddsafe.adapt import AdaptationOutcome, SynthesisConfig, synthesize_safe_controller
from oddsafe.dtmc import (
    BoundedReachProperty,
    build_model,
    reach_vectors,
    score_situations,
    write_rows,
)
from oddsafe.scg import sink_situation

from helpers import make_scg, random_scg

FAILURES = ("f1", "f2")


def resweep_everything(scg, properties, config):
    """The sink loop that sweeps every property after each sink, and per sink
    whether the operator changed kind and whether some kept vector was 0.0
    at the sunk row (the reuse rule's two branches)."""
    model = build_model(scg)
    vectors = reach_vectors(model, properties)
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
        t = model.index[target]
        sinks.append((type(model.matrix) is not kind, any(v[t] == 0.0 for v in vectors.values())))
        vectors = reach_vectors(model, properties)
        report = score_situations(model, scg.sunk, vectors, properties)
    outcome = AdaptationOutcome(
        success=report.all_compliant(),
        avoided=avoided,
        iterations=len(avoided) + 1,
        initial_violations=initial_violations,
        worst_initial_score=worst_initial_score,
        final_report=report,
    )
    return outcome, sinks


def _trap_row(rng, sid):
    """A self-loop plus one failure mode."""
    share = rng.uniform(0.3, 0.9)
    return {sid: 1.0 - share, rng.choice(FAILURES): share}


def _sparse_or_dense(rng):
    delta = dict(random_scg(rng, n_situations=rng.randint(3, 14)).delta)
    for sid in rng.sample(sorted(delta), rng.randint(0, 3)):
        delta[sid] = _trap_row(rng, sid)
    return make_scg(delta, len(delta))


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


def _properties(rng):
    return [
        BoundedReachProperty(
            f"p{j}",
            rng.choice(FAILURES),
            rng.randint(1, 30),
            rng.choice(["<", "<=", ">", ">="]),
            rng.choice([0.0, 0.05, 0.3, 0.5, 0.9, 1.0, round(rng.random(), 3)]),
        )
        for j in range(rng.randint(1, 3))
    ]


def test_synthesis_equals_the_full_resweep_reference():
    rng = random.Random(2026)
    seen = {"kept": 0, "crossed with a kept vector": 0, "gave up": 0, "lower bound sunk": 0}
    for case in range(400):
        scg = _at_the_cutoff(rng) if case % 4 == 0 else _sparse_or_dense(rng)
        properties = _properties(rng)
        config = SynthesisConfig(max_removals=rng.randint(0, 4))
        expected, sinks = resweep_everything(scg, properties, config)
        outcome = synthesize_safe_controller(scg, properties, config)
        assert json.dumps(outcome.to_dict()) == json.dumps(expected.to_dict()), case
        seen["kept"] += sum(zero and not crossed for crossed, zero in sinks)
        seen["crossed with a kept vector"] += sum(zero and crossed for crossed, zero in sinks)
        seen["gave up"] += not outcome.success and config.max_removals > 0
        seen["lower bound sunk"] += bool(sinks) and any(not p.is_upper_bound for p in properties)
    # every branch of the rule ran, on enough cases to mean something
    assert min(seen.values()) >= 10, seen


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
def test_each_single_failure_trap_costs_one_sweep(monkeypatch, k):
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
    assert len(calls) == 2 + k

