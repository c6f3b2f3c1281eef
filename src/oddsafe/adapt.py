"""Analysis and planning: violation detection, situation sinking and
controller synthesis."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

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

    Synthesis and history hold the decision alone.  Only the run log's copy
    carries `final_report`: the ranking of the belief with `avoided` sunk,
    which the log writes and no reader takes.
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
    if unknown := [sid for sid in sunk if not model.space.is_situation(sid)]:
        raise NotFoundError(f"sunk id {unknown[0]!r} names no situation")
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
    is the decision alone, with no final report: the final ranking is
    rank_situations of `scg` with `avoided` sunk.

    Reach vectors are kept across sinks.  A vector 0.0 at the sunk `t` stays
    exact: value iteration never lowers a value, so row `t` fed 0.0 into
    every other row at every sweep.  The others turn pending: a sink only
    lowers values and rounded sums of nonnegative terms are monotone, so each
    bounds its fresh sweep from above.  A sink sweeps at once only when it
    changed the operator between dense and CSR (which sum a row in different
    orders); otherwise it sweeps nothing, and its ranking rescores the kept
    vectors.  Synthesis stops unswept when its ranking is compliant and every
    pending property an upper bound: a sweep only lowers those values, so it
    keeps every verdict.  Pending properties are swept before any other stop
    and before a sink that is not settled: one whose situation `w` ranks
    worst with a score above 0, so it violates, leads only to itself and to
    failures, and finds every pending property an upper bound.  Then `w`'s
    values are exact bit for bit on any operator of one kind holding its
    row, every other score can only fall when swept, and a situation tied
    with `w` after a sweep was tied before: the sweep would sink `w` too.
    """
    model = model or build_model(scg)
    sunk = set(scg.sunk)
    vectors = reach_vectors(model, properties)
    report = score_situations(model, sunk, vectors, properties)
    initial_violations = report.violated_properties()
    worst_initial_score = report.worst_score()
    avoided: list[str] = []
    pending: list[BoundedReachProperty] = []
    while True:
        compliant = report.all_compliant()
        if pending and compliant and all(p.is_upper_bound for p in pending):
            break
        done = compliant or len(avoided) >= config.max_removals
        if pending and (done or not _settled(model, report, pending)):
            vectors.update(reach_vectors(model, pending))
            pending = []
            report = score_situations(model, sunk, vectors, properties)
            continue
        if done:
            break
        target = report.worst_situation
        kind = type(model.matrix)
        write_rows(model, {target: {target: 1.0}})
        sunk.add(target)
        avoided.append(target)
        if type(model.matrix) is not kind:
            vectors, pending = reach_vectors(model, properties), []
        else:  # the kept vectors, each exact or an upper bound
            t = model.space.index[target]
            pending = [p for p in properties if p in pending or vectors[p.name][t] != 0.0]
        report = score_situations(model, sunk, vectors, properties)
    return AdaptationOutcome(
        success=compliant,
        avoided=avoided,
        iterations=len(avoided) + 1,
        initial_violations=initial_violations,
        worst_initial_score=worst_initial_score,
    )


def _settled(model: Dtmc, report: CriticalityReport, pending: list) -> bool:
    """Whether the worst situation may be sunk with `pending` unswept."""
    w = report.worst_situation
    i = model.space.index[w]
    mat = model.matrix
    if isinstance(mat, np.ndarray):
        cols = np.flatnonzero(mat[i])
    else:  # the operator stores no zeros
        cols = mat.indices[mat.indptr[i] : mat.indptr[i + 1]]
    return (
        all(p.is_upper_bound for p in pending)
        and report.worst_score() > 0.0  # so w violates
        and bool(((cols == i) | (cols >= len(model.space.situation_ids))).all())
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
