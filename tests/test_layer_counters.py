"""The benchmark's per-layer work counters equal what the library did.

perfbench/layers.py computes its counters from the bound arguments and the
results of the functions it wraps, so a changed signature would silently
zero a counter.  One tiny repair-grid op, traced as the benchmark traces it,
pins the counters a synthesis speed claim rests on, loading the rq2
snapshot the work a restart does, and the rq2 run that no step compiles or
validates a model and that an adaptation copies its belief twice.
"""

import copy
import functools
import sys
from pathlib import Path

import pytest
import scipy.sparse as sp

from oddsafe import adapt, dtmc, experiments, proplang, runtime, scg

CHECKOUT = Path(__file__).resolve().parents[1]
if str(CHECKOUT) not in sys.path:
    sys.path.insert(0, str(CHECKOUT))

from perfbench import gen, workloads  # noqa: E402
from perfbench.layers import LayerProbe  # noqa: E402
from perfbench.spans import NAME, PARENT, Tracer, restore  # noqa: E402

from helpers import rq2_adaptive_run  # noqa: E402


def test_traced_repair_op_counts_what_synthesis_did():
    properties = proplang.parse_properties_file(workloads.PROPERTIES_DOC)
    base = gen.grid_doc(gen.derive_seed(1), attributes=3, values=4)
    doc, traps = gen.plant_traps(base, 1, 0)
    tracer = Tracer()
    undo = LayerProbe(tracer).install()
    try:
        outcome = adapt.synthesize_safe_controller(
            scg.scg_from_dict(doc),
            properties,
            adapt.SynthesisConfig(max_removals=workloads.MAX_REMOVALS),
        )
    finally:
        restore(undo)
    by_name, _ = tracer.summary()
    counts = tracer.counts
    assert sorted(outcome.avoided) == sorted(traps)
    # the traps are s9 -> f1, s46 -> f2 and s62 -> f2.  The first ranking
    # sweeps both properties.  Each trap's row leads only to itself and its
    # failure, so every sink after the first is settled and sweeps nothing.
    # The last ranking is compliant and both pending properties are upper
    # bounds, so success is decided unswept, and the final report, which
    # nothing here reads, sweeps nothing.
    assert [doc["delta"][t].keys() - {t} for t in traps] == [{"f1"}, {"f2"}, {"f2"}]
    assert all(p.is_upper_bound for p in properties)
    calls = len(properties)
    (horizon,) = {p.horizon for p in properties}
    assert by_name["dtmc.bounded_reach_vector"][0] == calls
    assert counts["dtmc.kernel.calls"] == calls
    assert counts["dtmc.sweeps"] == horizon * calls
    assert counts["adapt.synthesis.iterations"] == outcome.iterations == len(traps) + 1
    assert counts["adapt.synthesis.sinks"] == len(outcome.avoided)
    # synthesis writes each sink into the model the load compiled, the one
    # compile, and copies no SCG
    assert by_name["dtmc.transition_matrix"][0] == 1
    assert "scg.sink_situation" not in by_name
    # the operator the one compile returned, as perfbench reads its result[1]
    _, fresh = dtmc.transition_matrix(scg.scg_from_dict(doc))
    assert isinstance(fresh, sp.csr_matrix)
    fresh_bytes = fresh.data.nbytes + fresh.indices.nbytes + fresh.indptr.nbytes
    assert counts["dtmc.transition_matrix.bytes"] == fresh_bytes


@functools.cache  # load does not change its input
def _rq2_adaptive_snapshot() -> tuple[dict, dict]:
    """The seed-7 rq2 adaptive knowledge base's snapshot, and that snapshot as
    older versions wrote it: each controller with its SCG (c0's is the prior)
    and each history outcome with the final report the run log holds."""
    result, kb = rq2_adaptive_run()
    assert len(kb.controllers) > 1
    doc = runtime.snapshot(kb)
    older = copy.deepcopy(doc)
    for entry, controller in zip(older["controllers"], kb.controllers):
        entry["scg"] = scg.scg_to_dict(controller.scg or kb.prior_scg)
    logged = [entry.outcome for entry in result.adaptive_log if entry.outcome]
    for entry, outcome in zip(older["history"][1:], logged, strict=True):
        entry["outcome"]["final_report"] = outcome.final_report.to_dict()
    return doc, older


@pytest.mark.parametrize("older", [False, True], ids=["snapshot", "older-snapshot"])
def test_loading_the_rq2_snapshot_parses_and_compiles_only_the_prior(older):
    doc = _rq2_adaptive_snapshot()[older]
    tracer = Tracer()
    undo = LayerProbe(tracer).install()
    try:
        runtime.load(doc)
    finally:
        restore(undo)
    by_name, _ = tracer.summary()
    calls = {name: entry[0] for name, entry in by_name.items()}
    # the prior is validated by its compile; controller SCGs are not read
    assert calls.get("scg.scg_from_dict") == 1
    assert calls.get("scg.validate_scg", 0) == 0
    # one compile of the prior at parse time, one of the derived belief
    assert calls.get("dtmc.build_model") == 2


def test_the_rq2_run_compiles_no_model_inside_a_step_and_validates_nothing():
    tracer = Tracer()
    undo = LayerProbe(tracer).install()
    try:
        result = experiments.run_timeline(experiments.TimelineConfig(seed=7))
    finally:
        restore(undo)
    spans = tracer.spans

    def in_step(span) -> bool:
        while span[PARENT] >= 0:
            span = spans[span[PARENT]]
            if span[NAME] == "runtime.step":
                return True
        return False

    names = [span[NAME] for span in spans]
    assert result.adaptation_entries() and "adapt.synthesize_safe_controller" in names
    # synthesis sinks into the knowledge base's model; each of the two knowledge
    # bases compiles its prior once, which validates it, and its belief once
    compiles = [span for span in spans if span[NAME] == "dtmc.build_model"]
    assert len(compiles) == 4 and not any(map(in_step, compiles))
    assert "scg.validate_scg" not in names
    # each successful adaptation copies the belief twice: into its controller's
    # SCG, which perfbench's oracle reads, and into the new belief, since the
    # knowledge base keeps writing rows into its own
    sinks = [span for span in spans if span[NAME] == "scg.sink_situation" and in_step(span)]
    assert len(sinks) == 2 * len(result.adaptation_entries()) > 0
