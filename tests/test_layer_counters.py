"""The benchmark's per-layer work counters equal what the library did.

perfbench/layers.py computes its counters from the bound arguments and the
results of the functions it wraps, so a changed signature would silently
zero a counter.  One tiny repair-grid op, traced as the benchmark traces it,
pins the counters a synthesis speed claim rests on.
"""

import sys
from pathlib import Path

from oddsafe import adapt, proplang, scg

CHECKOUT = Path(__file__).resolve().parents[1]
if str(CHECKOUT) not in sys.path:
    sys.path.insert(0, str(CHECKOUT))

from perfbench import gen, workloads  # noqa: E402
from perfbench.layers import LayerProbe  # noqa: E402
from perfbench.spans import Tracer, restore  # noqa: E402


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
    # each trap feeds one failure mode, so each sink sweeps one property again
    calls = len(properties) + len(traps)
    (horizon,) = {p.horizon for p in properties}
    assert by_name["dtmc.bounded_reach_vector"][0] == calls
    assert counts["dtmc.kernel.calls"] == calls
    assert counts["dtmc.sweeps"] == horizon * calls
    assert counts["adapt.synthesis.iterations"] == outcome.iterations == len(traps) + 1
    assert counts["adapt.synthesis.sinks"] == len(outcome.avoided)
    assert by_name["scg.sink_situation"][0] == len(outcome.avoided)
