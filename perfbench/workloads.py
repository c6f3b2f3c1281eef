"""The benchmark's workloads: their ops, correctness checks and op timing.

Every workload is a closed loop driven by one caller with no threads: an op
starts only after the previous one returned.  Input generation and the
correctness checks run outside the timed region.  Op times are reported in
multiples of a reference loop timed between ops (``refclock``), which
cancels the host's speed changes; raw times are reported beside them.

monitor-maritime
    The paper's RQ2 closed loop (``experiments.run_timeline``): a fixed and
    an adaptive knowledge base on the 18-situation maritime grid, drift at
    t=60.  One op is one ``runtime.step`` call.  Each run starts with the
    reference timeline (seed 7, 1000 steps, checked against the RQ2 golden
    log digest) and continues with timelines seeded from the workload seed.
    Many small writes, each followed by a read of a 20-state model.
check-dense
    What ``oddsafe check`` does on a decoded document: ``scg_from_dict``
    then ``rank_situations`` on a fresh fully dense 640-situation SCG per op.
    The dict-to-matrix build, validation and loading dominate; the kernel
    takes the dense path and synthesis is bypassed.
repair-grid
    ``scg_from_dict`` then ``synthesize_safe_controller`` on a 4096-situation
    grid with nearest-neighbour rows and three planted traps per op.  Four
    full rankings per op, each building a dense 4098^2 matrix before the
    sparse kernel runs; the learner is bypassed.
"""

from __future__ import annotations

import gc
import hashlib
import json
import sys
import time
import traceback
from dataclasses import dataclass, field

from . import gen
from .layers import LayerProbe, per_layer_metrics
from .oracle import evaluate_doc, evaluate_scg, props_from
from .refclock import ReferenceLoop
from .spans import Tracer, restore

PROPERTIES_DOC = [
    {"name": "phi1", "expression": "P < 0.99 [ F<=50 f1 ]"},
    {"name": "phi2", "expression": "P < 0.95 [ F<=50 f2 ]"},
]
#: the RQ2 reference timeline and the MD5 of its adaptive run log, one JSON
#: line per entry, as ``oddsafe experiment-rq2`` writes ``adaptive.jsonl``
RQ2_SEED = 7
RQ2_STEPS = 1000
RQ2_ADAPTIVE_MD5 = "25d7a87702ad42d7b2b8eadabade2cc5"
VALUE_ATOL = 1e-9
MAX_REMOVALS = 4

END_TO_END_UNITS = {
    "op_p50_ref": "ref",
    "op_tail_ref": "ref",
    "setup_s": "s",
    "peak_rss_mb": "MiB",
}


@dataclass(frozen=True)
class Scale:
    timeline_steps: int
    dense_n: int
    grid_attributes: int
    grid_values: int
    #: ops per pass of a traced run; the same ops are replayed traced and not
    trace_ops: int


SCALES = {
    "full": Scale(RQ2_STEPS, 640, 4, 8, trace_ops=3),
    "tiny": Scale(120, 40, 3, 4, trace_ops=2),
}
#: op_tail_ref percentile.  Beyond p90 the ratio picks up ops whose host
#: speed changed between the two probes that bracket them; p98-p99.9 of the
#: monitor also sit on the ~2% of steps that run a full ranking, so they count
#: how many violation steps a run drew.  The monitor has ~2000 steps beyond
#: p90 per run; the offline workloads complete tens of ops per run.
TAIL_PERCENTILE = 90
#: reference loop per workload (see refclock): repair-grid's ops are
#: dominated by scans of a 134 MB dense matrix, the others by the interpreter
REFERENCE_LOOP = {
    "monitor-maritime": "interpreter",
    "check-dense": "interpreter",
    "repair-grid": "memory",
}


def percentile(values: list[float], p: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * p // 100))
    return ordered[int(rank) - 1]


def _report_failure(what: str) -> None:
    print(f"op failed: {what}", file=sys.stderr)
    traceback.print_exc(file=sys.stderr)


class OpTimer:
    """Times each call of an op function; with a tracer, each call is an op span.

    With ``reference``, the reference loop is timed before an op when at
    least ``PROBE_GAP_S`` passed since the last probe, and again after any op
    that took that long.  ``refs[i]`` is the mean of the two probes that
    bracket op ``i``: the host's speed flickers within a long op, and the
    mean of its two ends tracked the op's average best.
    """

    PROBE_GAP_S = 0.01

    def __init__(self, tracer: Tracer | None = None, reference: ReferenceLoop | None = None):
        self.tracer = tracer
        self.reference = reference
        self.latencies: list[float] = []
        self.refs: list[float] = []
        self.probe_s = 0.0  # wall time spent in reference probes
        self._last_probe = -float("inf")
        self._last_ref = 0.0
        self._waiting: list[int] = []  # ops whose closing probe is due

    def probe(self) -> None:
        start = time.perf_counter()
        ref = self.reference.probe()
        for i in self._waiting:
            self.refs[i] = (self.refs[i] + ref) / 2.0
        self._waiting = []
        self._last_ref = ref
        self._last_probe = time.perf_counter()
        self.probe_s += self._last_probe - start

    def wrap(self, fn):
        inner = self.tracer.op(fn) if self.tracer else fn
        clock = self.tracer.now if self.tracer else time.perf_counter

        def timed(*args, **kwargs):
            if self.reference and time.perf_counter() - self._last_probe >= self.PROBE_GAP_S:
                self.probe()
            start = clock()
            try:
                return inner(*args, **kwargs)
            finally:
                elapsed = clock() - start
                self.latencies.append(elapsed)
                if self.reference:
                    self.refs.append(self._last_ref)
                    self._waiting.append(len(self.latencies) - 1)
                    if elapsed >= self.PROBE_GAP_S:
                        self.probe()

        return timed


@dataclass
class Tally:
    attempted: int = 0
    failed: int = 0
    timed_s: float = 0.0  # wall time of the timed region
    latencies: list[float] = field(default_factory=list)
    refs: list[float] = field(default_factory=list)  # reference loop time per op
    descriptors: dict = field(default_factory=dict)

    def add(self, key: str, amount) -> None:
        self.descriptors[key] = self.descriptors.get(key, 0) + amount

    def per_op(self, key: str) -> None:
        """Replace the running total ``key`` by ``key_per_op``."""
        if key in self.descriptors:
            self.descriptors[f"{key}_per_op"] = self.descriptors.pop(key) / self.attempted


def setup(name: str) -> list:
    """Work a deployment does before its first op; returns the properties."""
    from oddsafe import marsim, proplang, runtime

    properties = proplang.parse_properties_file(PROPERTIES_DOC)
    if name == "monitor-maritime":
        _, belief = marsim.generate_scenario(
            marsim.ScenarioConfig(seed=RQ2_SEED, drift_magnitude=1.0, drift_time=60)
        )
        runtime.new_knowledge_base(belief, properties)
    return properties


# ---------------------------------------------------------------------------
# offline workloads: one op per generated document


class CheckDense:
    def __init__(self, seed: int, scale: Scale, properties):
        self.seed, self.scale, self.properties = seed, scale, properties
        self.oracle_props = props_from(properties)

    def make_input(self, i: int):
        return gen.dense_doc(self.scale.dense_n, self.seed, i)

    def op(self, doc):
        from oddsafe import dtmc, scg

        return dtmc.rank_situations(scg.scg_from_dict(doc), self.properties)

    def check(self, doc, report, tally: Tally) -> bool:
        tally.add("transitions", sum(len(row) for row in doc["delta"].values()))
        expected = evaluate_doc(doc, self.oracle_props)
        return dense_report_matches(report, expected)


def dense_report_matches(report, expected) -> bool:
    """Values within VALUE_ATOL, equal verdicts, and the same worst situation
    (or one whose oracle score ties the worst within VALUE_ATOL)."""
    if set(report.records) != set(expected.situations):
        return False
    for name, values in expected.values.items():
        verdicts = expected.compliant[name]
        for i, sid in enumerate(expected.situations):
            result = report.records[sid][name]
            if abs(result.value - values[i]) > VALUE_ATOL:
                return False
            if result.compliant != bool(verdicts[i]):
                return False
    worst = report.worst_situation
    return worst in report.records and (
        expected.score_of(worst) >= expected.worst_score - VALUE_ATOL
    )


class RepairGrid:
    def __init__(self, seed: int, scale: Scale, properties):
        self.seed, self.scale, self.properties = seed, scale, properties
        self.oracle_props = props_from(properties)
        self._base = None

    def make_input(self, i: int):
        if self._base is None:
            self._base = gen.grid_doc(
                gen.derive_seed(self.seed), self.scale.grid_attributes, self.scale.grid_values
            )
        return gen.plant_traps(self._base, self.seed, i)

    def op(self, planted):
        from oddsafe import adapt, scg

        doc, _ = planted
        return adapt.synthesize_safe_controller(
            scg.scg_from_dict(doc),
            self.properties,
            adapt.SynthesisConfig(max_removals=MAX_REMOVALS),
        )

    def check(self, planted, outcome, tally: Tally) -> bool:
        doc, traps = planted
        tally.add("sinks", len(outcome.avoided))
        if not outcome.success or sorted(outcome.avoided) != sorted(traps):
            return False
        repaired = {
            **doc,
            "delta": {**doc["delta"], **{t: {t: 1.0} for t in traps}},
            "sunk": list(traps),
        }
        return evaluate_doc(repaired, self.oracle_props).all_compliant()


def _offline_pass(work, indices, timer: OpTimer, tally: Tally) -> None:
    timed_op = timer.wrap(work.op)
    for i in indices:
        planted = work.make_input(i)
        gc.collect()
        tally.attempted += 1
        try:
            out = timed_op(planted)
        except Exception:
            _report_failure(f"op {i}")
            tally.failed += 1
            continue
        if not work.check(planted, out, tally):
            print(f"op failed: op {i} output disagrees with the oracle", file=sys.stderr)
            tally.failed += 1


# ---------------------------------------------------------------------------
# monitor workload: one op per runtime.step call inside a timeline


def _log_digest(log) -> str:
    text = "".join(json.dumps(entry.to_dict()) + "\n" for entry in log)
    return hashlib.md5(text.encode()).hexdigest()


class MonitorMaritime:
    def __init__(self, seed: int, scale: Scale, properties):
        self.seed, self.scale, self.properties = seed, scale, properties
        self.oracle_props = props_from(properties)

    def timeline_seed(self, j: int) -> int:
        return RQ2_SEED if j == 0 else gen.derive_seed(self.seed, j)

    def timeline(self, j: int, timer: OpTimer, tally: Tally) -> str | None:
        """Run timeline ``j``; returns its log digest, None if it raised."""
        from oddsafe import experiments

        seed = self.timeline_seed(j)
        config = experiments.TimelineConfig(seed=seed, steps=self.scale.timeline_steps)
        kbs = []
        new_kb = experiments.new_knowledge_base

        def capture_kb(*args, **kwargs):
            kbs.append(new_kb(*args, **kwargs))
            return kbs[-1]

        step = experiments.step
        experiments.step = timer.wrap(step)
        experiments.new_knowledge_base = capture_kb
        done_before = len(timer.latencies)
        start = time.perf_counter()
        try:
            result = experiments.run_timeline(config, self.properties)
        except Exception:
            _report_failure(f"timeline seed {seed}")
            result = None
        finally:
            tally.timed_s += time.perf_counter() - start
            experiments.step = step
            experiments.new_knowledge_base = new_kb
        tally.attempted += len(timer.latencies) - done_before
        if result is None:
            tally.failed += 1
            return None
        tally.add("timelines", 1)
        tally.add("adaptations", len(result.adaptation_entries()))
        tally.add(
            "safe_stops",
            sum(e.directive.kind == "safe_stop" for e in result.adaptive_log),
        )
        adaptive_digest = _log_digest(result.adaptive_log)
        if seed == RQ2_SEED and self.scale.timeline_steps == RQ2_STEPS:
            if adaptive_digest != RQ2_ADAPTIVE_MD5:
                print(f"op failed: RQ2 log digest {adaptive_digest}", file=sys.stderr)
                tally.failed += len(result.adaptive_log)
        controllers = {c.id: c for c in kbs[-1].controllers}
        for entry in result.adaptive_log:
            if entry.directive.kind != "switch_controller":
                continue
            controller = controllers[entry.directive.controller_id]
            if not evaluate_scg(controller.scg, self.oracle_props).all_compliant():
                print(f"op failed: controller {controller.id} not compliant", file=sys.stderr)
                tally.failed += 1
        return adaptive_digest + _log_digest(result.baseline_log)


# ---------------------------------------------------------------------------
# runs


def make_workload(name: str, seed: int, scale: Scale, properties):
    kinds = {
        "monitor-maritime": MonitorMaritime,
        "check-dense": CheckDense,
        "repair-grid": RepairGrid,
    }
    return kinds[name](seed, scale, properties)


def run_untraced(name: str, seed: int, seconds: float, scale: Scale, properties) -> Tally:
    """Run ops until ``seconds`` have passed (at least one op or timeline)."""
    work = make_workload(name, seed, scale, properties)
    timer = OpTimer(reference=ReferenceLoop(REFERENCE_LOOP[name]))
    tally = Tally()
    deadline = time.perf_counter() + seconds
    i = 0
    while i == 0 or time.perf_counter() < deadline:
        if name == "monitor-maritime":
            work.timeline(i, timer, tally)
        else:
            _offline_pass(work, [i], timer, tally)
        i += 1
    if name == "monitor-maritime":
        tally.timed_s -= timer.probe_s  # probes between steps ran inside the loop
    else:
        tally.timed_s = sum(timer.latencies)
    timer.probe()
    tally.latencies, tally.refs = timer.latencies, timer.refs
    tally.per_op("transitions")
    tally.per_op("sinks")
    return tally


def end_to_end(name: str, tally: Tally) -> dict[str, float]:
    """Op times in reference-loop units; the raw times go to the descriptors."""
    p = TAIL_PERCENTILE
    relative = [lat / ref for lat, ref in zip(tally.latencies, tally.refs)]
    lat_ms = [x * 1000.0 for x in tally.latencies]
    ref_ms = [x * 1000.0 for x in tally.refs]
    tally.descriptors.update(
        {
            "tail_percentile": p,
            "latency_samples": len(lat_ms),
            "ops_per_s": len(lat_ms) / tally.timed_s,
            "op_p50_ms": percentile(lat_ms, 50),
            "op_tail_ms": percentile(lat_ms, p),
            "reference_ms": {q: percentile(ref_ms, q) for q in (5, 50, 95)},
        }
    )
    return {"op_p50_ref": percentile(relative, 50), "op_tail_ref": percentile(relative, p)}


def run_traced(name: str, seed: int, seconds: float, scale: Scale, properties, spans_path=None):
    """Alternate untraced and traced passes over one fixed op set.

    Every pass runs the same ops, so per-pass counts repeat exactly and the
    traced and untraced op times compare like for like.
    """
    work = make_workload(name, seed, scale, properties)
    tracer = Tracer()
    probe = LayerProbe(tracer)
    plain = OpTimer(reference=ReferenceLoop(REFERENCE_LOOP[name]))
    traced = OpTimer(tracer, ReferenceLoop(REFERENCE_LOOP[name]))
    tally = Tally()
    digests = set()
    passes = 0
    deadline = time.perf_counter() + seconds
    while passes == 0 or time.perf_counter() < deadline:
        for timer in (plain, traced):
            undo = probe.install() if timer is traced else []
            try:
                if name == "monitor-maritime":
                    digests.add(work.timeline(0, timer, tally))
                else:
                    _offline_pass(work, range(scale.trace_ops), timer, tally)
            finally:
                restore(undo)
        passes += 1
    plain.probe()
    traced.probe()
    if name == "monitor-maritime" and (len(digests) != 1 or None in digests):
        print("op failed: repeated timelines logged differently", file=sys.stderr)
        tally.failed += 1
    tally.descriptors["trace_passes"] = passes
    tally.per_op("transitions")
    tally.per_op("sinks")
    if spans_path is not None:
        tracer.write_spans(spans_path)
    metrics = per_layer_metrics(tracer, passes, traced, plain)
    return tally, metrics
