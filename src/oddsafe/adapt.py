"""Analysis and planning: violation detection, situation sinking and
controller synthesis."""

from __future__ import annotations

from dataclasses import dataclass, field

from .dtmc import (
    BoundedReachProperty,
    CriticalityReport,
    Dtmc,
    PropertyResult,
    build_model,
    reach_vectors,
    score_situations,
    score_value,
    write_rows,
)
from .errors import ModelError, NotFoundError
from .scg import AugmentedScg, Record, sink_situation

DEFAULT_MAX_REMOVALS = 4


@dataclass(frozen=True)
class Controller:
    """The ordered set of situations a controller avoids; one made during a
    run also holds `scg`, a copy of the belief with them sunk at its switch,
    which the loop never reads and a snapshot does not store."""

    id: str
    scg: AugmentedScg | None = field(default=None, metadata={"unwritten": True})
    avoided: tuple[str, ...] = ()
    origin: str = "pre-deployment"  # "pre-deployment" | "synthesised"

    def __post_init__(self):
        object.__setattr__(self, "avoided", tuple(self.avoided))
        if self.scg is not None and not set(self.avoided) <= self.scg.sunk:
            raise ModelError("avoided situations must be sunk in the controller SCG")


@dataclass(frozen=True)
class SynthesisConfig:
    max_removals: int = DEFAULT_MAX_REMOVALS

    def __post_init__(self):
        if self.max_removals < 0:
            raise ValueError("max_removals must be >= 0")


@dataclass
class AdaptationOutcome(Record):
    """Result record of one synthesis run (one table row per variant).

    Synthesis keeps its last ranking as `final_report`, which the run log
    writes and no reader takes; history records the decision without it.
    """

    success: bool
    avoided: list[str]
    iterations: int
    initial_violations: list[str]
    worst_initial_score: float
    final_report: CriticalityReport | None = field(default=None, metadata={"written_only": True})


@dataclass
class AnalysisResult:
    """Current-situation verdict plus (when needed) the full ranking."""

    current: dict[str, PropertyResult]
    compliant: bool
    full_report: CriticalityReport | None  # None when the early exit applied


def analyze(
    model: Dtmc,
    sunk: frozenset[str],
    current: str,
    properties: list[BoundedReachProperty],
) -> AnalysisResult:
    """Check the current situation on `model`, in which the situations of
    `sunk` are sunk; rank every other situation only on violation."""
    if not model.space.is_situation(current):
        raise NotFoundError(f"unknown situation {current!r}")
    if current in sunk:
        raise ModelError(f"current situation {current!r} is sunk")
    vectors = reach_vectors(model, properties)
    i = model.space.index[current]
    results = {p.name: score_value(float(vectors[p.name][i]), p) for p in properties}
    compliant = all(r.compliant for r in results.values())
    full = None if compliant else score_situations(model, sunk, vectors, properties)
    return AnalysisResult(current=results, compliant=compliant, full_report=full)


def synthesize_safe_controller(
    scg: AugmentedScg,
    properties: list[BoundedReachProperty],
    config: SynthesisConfig,
    model: Dtmc | None = None,
) -> AdaptationOutcome:
    """Iteratively sink the worst-criticality situation until no violations.

    Gives up (success=False) once sinking would exceed config.max_removals.
    `scg` is compiled once unless `model`, its compiled model, is given.
    Each sink writes the self-loop row of its situation into that model,
    which ends sinking `avoided`; `scg` itself is left as it is.  The outcome
    keeps the last ranking as its final report.

    Reach vectors are kept across sinks.  After sinking `t`, only the
    properties whose vector is non-zero at `t` are swept again, unless the
    sink changed the operator between dense and CSR, which sum a row in
    different orders.  The kept vectors are exact: value iteration never
    lowers a value, so a vector that is 0.0 at `t` was 0.0 there at every
    sweep, row `t` fed 0.0 into every other row before the sink as after it,
    and a fresh sweep would return the same vector bit for bit.
    """
    model = model or build_model(scg)
    sunk = set(scg.sunk)
    vectors = reach_vectors(model, properties)
    report = score_situations(model, sunk, vectors, properties)
    initial_violations = report.violated_properties()
    worst_initial_score = report.worst_score()
    avoided: list[str] = []
    while not report.all_compliant() and len(avoided) < config.max_removals:
        target = report.worst_situation
        kind = type(model.matrix)
        write_rows(model, {target: {target: 1.0}})
        sunk.add(target)
        avoided.append(target)
        converted, t = type(model.matrix) is not kind, model.space.index[target]
        stale = [p for p in properties if converted or vectors[p.name][t] != 0.0]
        if stale:
            vectors.update(reach_vectors(model, stale))
        report = score_situations(model, sunk, vectors, properties)
    return AdaptationOutcome(
        success=report.all_compliant(),
        avoided=avoided,
        iterations=len(avoided) + 1,
        initial_violations=initial_violations,
        worst_initial_score=worst_initial_score,
        final_report=report,
    )


def controller_from_outcome(
    base: AugmentedScg,
    outcome: AdaptationOutcome,
    controller_id: str,
    prior_avoided: tuple[str, ...] = (),
) -> Controller:
    """Materialise the synthesised controller implied by an outcome."""
    scg = sink_situation(base, *outcome.avoided)
    avoided = tuple(prior_avoided) + tuple(
        s for s in outcome.avoided if s not in prior_avoided
    )
    return Controller(
        id=controller_id,
        scg=scg,
        avoided=avoided,
        origin="synthesised",
    )
