"""Analysis and planning: violation detection, situation sinking, controller
synthesis and controller selection."""

from __future__ import annotations

import random
from dataclasses import dataclass

from .dtmc import (
    BoundedReachProperty,
    CriticalityReport,
    Dtmc,
    PropertyResult,
    bounded_reach_vector,
    build_model,
    criticality_report,
    rank_situations,
    reach_vectors,
    score_value,
)
from .errors import ModelError, NotFoundError
from .scg import AugmentedScg, sink_situation

DEFAULT_MAX_REMOVALS = 4


@dataclass(frozen=True)
class Controller:
    """An SCG belief plus the ordered set of situations it avoids."""

    id: str
    scg: AugmentedScg
    avoided: tuple[str, ...] = ()
    origin: str = "pre-deployment"  # "pre-deployment" | "synthesised"

    def __post_init__(self):
        object.__setattr__(self, "avoided", tuple(self.avoided))
        if not set(self.avoided) <= self.scg.sunk:
            raise ModelError("avoided situations must be sunk in the controller SCG")


@dataclass(frozen=True)
class SynthesisConfig:
    max_removals: int = DEFAULT_MAX_REMOVALS
    rng_seed: int = 0
    out_of_odd_horizon: int | None = None  # None: max horizon among properties

    def __post_init__(self):
        if self.max_removals < 0:
            raise ValueError("max_removals must be >= 0")


@dataclass
class AdaptationOutcome:
    """Result record of one synthesis run (one table row per variant)."""

    success: bool
    avoided: list[str]
    iterations: int
    initial_violations: list[str]
    worst_initial_score: float
    final_report: CriticalityReport

    def to_dict(self) -> dict:
        return {
            "success": self.success,
            "avoided": list(self.avoided),
            "iterations": self.iterations,
            "initial_violations": list(self.initial_violations),
            "worst_initial_score": self.worst_initial_score,
            "final_report": self.final_report.to_dict(),
        }

    @classmethod
    def from_dict(cls, doc: dict) -> "AdaptationOutcome":
        return cls(
            success=bool(doc["success"]),
            avoided=list(doc["avoided"]),
            iterations=int(doc["iterations"]),
            initial_violations=list(doc["initial_violations"]),
            worst_initial_score=float(doc["worst_initial_score"]),
            final_report=CriticalityReport.from_dict(doc["final_report"]),
        )


@dataclass
class AnalysisResult:
    """Current-situation verdict plus (when needed) the full ranking."""

    current: dict[str, PropertyResult]
    compliant: bool
    full_report: CriticalityReport | None  # None when the early exit applied


def analyze(
    scg: AugmentedScg,
    model: Dtmc,
    current: str,
    properties: list[BoundedReachProperty],
) -> AnalysisResult:
    """Check the current situation on `model`, the compiled model of `scg`;
    rank everything only on violation."""
    if not scg.is_situation(current):
        raise NotFoundError(f"unknown situation {current!r}")
    if current in scg.sunk:
        raise ModelError(f"current situation {current!r} is sunk")
    vectors = reach_vectors(model, properties)
    i = model.index[current]
    results = {p.name: score_value(float(vectors[p.name][i]), p) for p in properties}
    compliant = all(r.compliant for r in results.values())
    full = None if compliant else criticality_report(scg, model, vectors, properties)
    return AnalysisResult(current=results, compliant=compliant, full_report=full)


def synthesize_safe_controller(
    scg: AugmentedScg,
    properties: list[BoundedReachProperty],
    config: SynthesisConfig,
) -> AdaptationOutcome:
    """Iteratively sink the worst-criticality situation until no violations.

    Gives up (success=False) once sinking would exceed config.max_removals.
    """
    avoided: list[str] = []
    iterations = 0
    initial_violations: list[str] = []
    worst_initial_score = 0.0
    report = None
    current = scg
    while True:
        iterations += 1
        report = rank_situations(current, properties)
        if iterations == 1:
            initial_violations = report.violated_properties()
            if report.worst_scores:
                worst_initial_score = max(report.worst_scores.values())
        if report.all_compliant():
            return AdaptationOutcome(
                success=True,
                avoided=avoided,
                iterations=iterations,
                initial_violations=initial_violations,
                worst_initial_score=worst_initial_score,
                final_report=report,
            )
        if len(avoided) >= config.max_removals:
            return AdaptationOutcome(
                success=False,
                avoided=avoided,
                iterations=iterations,
                initial_violations=initial_violations,
                worst_initial_score=worst_initial_score,
                final_report=report,
            )
        target = report.worst_situation
        current = sink_situation(current, target)
        avoided.append(target)


def controller_from_outcome(
    base: AugmentedScg,
    outcome: AdaptationOutcome,
    controller_id: str,
    prior_avoided: tuple[str, ...] = (),
) -> Controller:
    """Materialise the synthesised controller implied by an outcome."""
    scg = base
    for sid in outcome.avoided:
        scg = sink_situation(scg, sid)
    avoided = tuple(prior_avoided) + tuple(
        s for s in outcome.avoided if s not in prior_avoided
    )
    return Controller(
        id=controller_id,
        scg=scg,
        avoided=avoided,
        origin="synthesised",
    )


def out_of_odd_reach(
    scg: AugmentedScg, out_of_odd: set[str], horizon: int
) -> float:
    """Worst-case (over non-sunk initial situations) reach of the given set."""
    return _out_of_odd_reach(scg, build_model(scg), out_of_odd, horizon)


def _out_of_odd_reach(
    scg: AugmentedScg, model: Dtmc, out_of_odd: set[str], horizon: int
) -> float:
    targets = {model.index[sid] for sid in out_of_odd if sid in model.index}
    if not targets:
        return 0.0
    x = bounded_reach_vector(model.matrix, targets, horizon)
    # the out-of-ODD situations themselves are not legitimate start states
    starts = [
        model.index[s]
        for s in scg.situation_ids
        if s not in scg.sunk and s not in out_of_odd
    ]
    if not starts:
        return 0.0
    return float(max(x[i] for i in starts))


def select_controller(
    candidates: list[Controller],
    properties: list[BoundedReachProperty],
    out_of_odd: set[str],
    config: SynthesisConfig,
) -> Controller | None:
    """Pick a violation-free candidate minimising out-of-ODD reachability.

    Exact ties are resolved by a seeded uniform draw; returns None when no
    candidate is violation-free.
    """
    if not candidates:
        raise ValueError("empty candidate list")
    horizon = config.out_of_odd_horizon
    if horizon is None:
        horizon = max((p.horizon for p in properties), default=1)
    scored = []
    for c in candidates:
        model = build_model(c.scg)
        vectors = reach_vectors(model, properties)
        if criticality_report(c.scg, model, vectors, properties).all_compliant():
            scored.append((_out_of_odd_reach(c.scg, model, out_of_odd, horizon), c))
    if not scored:
        return None
    best = min(score for score, _ in scored)
    tied = [c for score, c in scored if score == best]
    if len(tied) == 1:
        return tied[0]
    return random.Random(config.rng_seed).choice(tied)
