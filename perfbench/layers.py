"""The library's layers as the benchmark traces them, and their metrics.

Spans wrap the public functions of ``runtime``, ``learn``, ``scg``, ``dtmc``,
``adapt`` and ``marsim`` from outside.  Work counters are computed at the
same boundaries from the arguments and results, never from library
internals.
"""

from __future__ import annotations

import importlib

import numpy as np

from .spans import Tracer, patch_everywhere

#: (span name, module, function); a span's name is also its metric prefix
TRACED_FUNCTIONS = (
    ("runtime.step", "oddsafe.runtime", "step"),
    ("learn.rebuild_scg", "oddsafe.learn", "rebuild_scg"),
    ("scg.validate_scg", "oddsafe.scg", "validate_scg"),
    ("scg.scg_from_dict", "oddsafe.scg", "scg_from_dict"),
    ("scg.sink_situation", "oddsafe.scg", "sink_situation"),
    ("dtmc.transition_matrix", "oddsafe.dtmc", "transition_matrix"),
    ("dtmc.bounded_reach_vector", "oddsafe.dtmc", "bounded_reach_vector"),
    ("dtmc.rank_situations", "oddsafe.dtmc", "rank_situations"),
    ("dtmc.build_model", "oddsafe.dtmc", "build_model"),
    ("adapt.analyze", "oddsafe.adapt", "analyze"),
    ("adapt.synthesize_safe_controller", "oddsafe.adapt", "synthesize_safe_controller"),
)
#: TruthSampler methods, all traced as one environment span
SAMPLER_SPAN = "marsim.sampler"
SAMPLER_METHODS = ("apply_drift", "initial_situation", "next_state", "is_failure")

#: (metric, unit, better); every traced run reports all of them
PER_LAYER_METRICS = (
    ("runtime.step.calls", "count", "lower"),
    ("runtime.step.self_ms", "ms/op", "lower"),
    ("learn.rebuild_scg.calls", "count", "lower"),
    ("learn.rebuild_scg.self_ms", "ms/op", "lower"),
    ("learn.rows_estimated", "count", "lower"),
    ("learn.rows_changed_ratio", "ratio", "higher"),
    ("scg.validate_scg.calls", "count", "lower"),
    ("scg.validate_scg.self_ms", "ms/op", "lower"),
    ("scg.validations_per_op", "1/op", "lower"),
    ("scg.scg_from_dict.self_ms", "ms/op", "lower"),
    ("scg.sink_situation.calls", "count", "lower"),
    ("scg.sink_situation.self_ms", "ms/op", "lower"),
    ("dtmc.transition_matrix.calls", "count", "lower"),
    ("dtmc.transition_matrix.self_ms", "ms/op", "lower"),
    ("dtmc.transition_matrix.computed_bytes", "B/op", "lower"),
    ("dtmc.bounded_reach_vector.calls", "count", "lower"),
    ("dtmc.bounded_reach_vector.self_ms", "ms/op", "lower"),
    ("dtmc.sweeps", "count", "lower"),
    ("dtmc.kernel.csr_share", "ratio", "higher"),
    ("dtmc.kernel.computed_flops", "flop/op", "lower"),
    ("dtmc.kernel.computed_bytes", "B/op", "lower"),
    ("dtmc.rank_situations.calls", "count", "lower"),
    ("dtmc.rank_situations.self_ms", "ms/op", "lower"),
    ("dtmc.build_model.calls", "count", "lower"),
    ("adapt.analyze.calls", "count", "lower"),
    ("adapt.analyze.self_ms", "ms/op", "lower"),
    ("adapt.analyze.full_rank_ratio", "ratio", "lower"),
    ("adapt.synthesize_safe_controller.calls", "count", "lower"),
    ("adapt.synthesize_safe_controller.self_ms", "ms/op", "lower"),
    ("adapt.synthesis.iterations", "count", "lower"),
    ("adapt.ranks_per_sink", "ratio", "lower"),
    ("marsim.sampler.self_ms", "ms/op", "lower"),
    ("bench.op.self_ms", "ms/op", "lower"),
    ("trace.ops", "count", "higher"),
    ("trace.overhead_ms_per_op", "ms/op", "lower"),
    ("trace.overhead_ratio", "ratio", "lower"),
    ("trace.unattributed_ms_per_op", "ms/op", "lower"),
)


def _matrix_bytes(mat) -> int:
    if hasattr(mat, "indptr"):
        return int(mat.data.nbytes + mat.indices.nbytes + mat.indptr.nbytes)
    return int(np.asarray(mat).nbytes)


class LayerProbe:
    """Installs the layer spans with their work counters on one tracer."""

    def __init__(self, tracer: Tracer):
        self.tracer = tracer
        self._last_rows: dict[int, tuple[object, dict]] = {}
        dtmc = importlib.import_module("oddsafe.dtmc")
        self._cutoff = getattr(dtmc, "SPARSE_DENSITY_CUTOFF", 0.25)

    def install(self) -> list:
        """Wrap every traced function that exists; returns bindings to restore."""
        counters = {
            "learn.rebuild_scg": self._count_rebuild,
            "dtmc.transition_matrix": self._count_matrix,
            "dtmc.bounded_reach_vector": self._count_kernel,
            "adapt.analyze": self._count_analyze,
            "adapt.synthesize_safe_controller": self._count_synthesis,
        }
        undo = []
        for span, modname, attr in TRACED_FUNCTIONS:
            original = getattr(importlib.import_module(modname), attr, None)
            if original is not None:
                wrapped = self.tracer.wrap(span, original, counters.get(span))
                undo += patch_everywhere(original, wrapped)
        sampler = importlib.import_module("oddsafe.marsim").TruthSampler
        for method in SAMPLER_METHODS:
            original = sampler.__dict__[method]
            setattr(sampler, method, self.tracer.wrap(SAMPLER_SPAN, original))
            undo.append((sampler, method, original))
        return undo

    def _count_rebuild(self, counts, arguments, result) -> None:
        prior, transition_counts = list(arguments.values())[:2]
        rows = [s for s in prior.situation_ids if s not in prior.sunk]
        totals = {s: sum(transition_counts.row(s).values()) for s in rows}
        _, last = self._last_rows.get(id(transition_counts), (None, {}))
        counts["learn.rows_estimated"] += len(rows)
        counts["learn.rows_changed"] += sum(totals[s] != last.get(s, 0) for s in rows)
        # the counts object is kept so its id cannot be reused by another
        self._last_rows[id(transition_counts)] = (transition_counts, totals)

    def _count_matrix(self, counts, arguments, result) -> None:
        counts["dtmc.transition_matrix.bytes"] += _matrix_bytes(result[1])

    def _count_kernel(self, counts, arguments, result) -> None:
        matrix, _, k = list(arguments.values())[:3]
        n = matrix.shape[0]
        nnz = int(matrix.nnz) if hasattr(matrix, "nnz") else int(np.count_nonzero(matrix))
        sparse = nnz / (n * n) <= self._cutoff
        # one sweep reads the operator and the vector and writes the vector
        operator_bytes = nnz * 12 + (n + 1) * 4 if sparse else n * n * 8
        counts["dtmc.kernel.calls"] += 1
        counts["dtmc.kernel.csr_calls"] += sparse
        counts["dtmc.sweeps"] += k
        counts["dtmc.kernel.flops"] += 2 * nnz * k
        counts["dtmc.kernel.bytes"] += k * (operator_bytes + 2 * n * 8)

    def _count_analyze(self, counts, arguments, result) -> None:
        counts["adapt.analyze.full_rank"] += result.full_report is not None

    def _count_synthesis(self, counts, arguments, result) -> None:
        counts["adapt.synthesis.iterations"] += result.iterations
        counts["adapt.synthesis.sinks"] += len(result.avoided)


def per_layer_metrics(tracer: Tracer, passes: int, traced, plain) -> dict[str, float]:
    """Per-layer numbers from ``passes`` traced passes over one op set.

    ``traced`` and ``plain`` are the op timers of the traced and untraced
    passes over the same ops.  Counts are per pass, times per op.  Overhead
    compares their mean op times in reference-loop units, so that a change
    of host speed between passes is not read as tracing cost.
    """
    by_name, by_op = tracer.summary()
    counts = tracer.counts
    traced_latencies = traced.latencies
    ops = len(traced_latencies)

    def calls(span):
        return by_name.get(span, [0, 0.0])[0] / passes

    def self_ms(span):
        return by_name.get(span, [0, 0.0])[1] * 1000.0 / ops

    def ratio(num, den):
        return num / den if den else 0.0

    def mean_relative(timer):
        return sum(lat / ref for lat, ref in zip(timer.latencies, timer.refs)) / len(timer.refs)

    overhead = mean_relative(traced) / mean_relative(plain) - 1.0
    untraced_mean = sum(plain.latencies) / len(plain.latencies)
    unattributed = sum(lat - by_op.get(i, 0.0) for i, lat in enumerate(traced_latencies))
    out = {}
    for span, _, _ in TRACED_FUNCTIONS:
        out[f"{span}.calls"] = calls(span)
        out[f"{span}.self_ms"] = self_ms(span)
    out.update(
        {
            "learn.rows_estimated": counts["learn.rows_estimated"] / passes,
            "learn.rows_changed_ratio": ratio(
                counts["learn.rows_changed"], counts["learn.rows_estimated"]
            ),
            "scg.validations_per_op": calls("scg.validate_scg") * passes / ops,
            "dtmc.transition_matrix.computed_bytes": counts["dtmc.transition_matrix.bytes"] / ops,
            "dtmc.sweeps": counts["dtmc.sweeps"] / passes,
            "dtmc.kernel.csr_share": ratio(
                counts["dtmc.kernel.csr_calls"], counts["dtmc.kernel.calls"]
            ),
            "dtmc.kernel.computed_flops": counts["dtmc.kernel.flops"] / ops,
            "dtmc.kernel.computed_bytes": counts["dtmc.kernel.bytes"] / ops,
            "adapt.analyze.full_rank_ratio": ratio(
                counts["adapt.analyze.full_rank"], calls("adapt.analyze") * passes
            ),
            "adapt.synthesis.iterations": counts["adapt.synthesis.iterations"] / passes,
            "adapt.ranks_per_sink": ratio(
                counts["adapt.synthesis.iterations"], counts["adapt.synthesis.sinks"]
            ),
            "marsim.sampler.self_ms": self_ms(SAMPLER_SPAN),
            "bench.op.self_ms": self_ms("bench.op"),
            "trace.ops": ops / passes,
            "trace.overhead_ms_per_op": overhead * untraced_mean * 1000.0,
            "trace.overhead_ratio": overhead,
            "trace.unattributed_ms_per_op": unattributed * 1000.0 / ops,
        }
    )
    return {name: out[name] for name, _, _ in PER_LAYER_METRICS}
