"""The monitor-analyze-plan-execute loop over a shared knowledge base.

The loop owns a KnowledgeBase and folds trace events into it: every observed
situation change is ingested into the counts, the belief row of the situation
it leaves is re-estimated from the pre-deployment prior plus counts and
written in place into the belief and its compiled model, and the current
situation is checked on it.  On violation a safe controller is synthesised on
that model by sinking critical situations; entering an avoided situation
triggers a crash stop.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, replace

from .adapt import (
    AdaptationOutcome,
    Controller,
    SynthesisConfig,
    analyze,
    controller_from_outcome,
    synthesize_safe_controller,
)
from .dtmc import BoundedReachProperty, Dtmc, build_model, require_checkable, write_rows
from .errors import SchemaError, TraceError
from .learn import EstimatorConfig, TransitionCounts, estimate_row, ingest, rebuild_scg
from .proplang import PropertyEntry, format_property, parse_entries
from .scg import (
    AugmentedScg,
    decode,
    read_json,
    require_valid_row,
    scg_to_dict,
    sink_situation,
)

EVENT_KINDS = ("situation_entered", "failure_observed", "episode_reset")


@dataclass(frozen=True)
class TraceEvent:
    t: int
    kind: str
    id: str | None = None

    def __post_init__(self):
        if self.kind not in EVENT_KINDS:
            raise TraceError(f"unknown event kind {self.kind!r}")
        if self.kind in ("situation_entered", "failure_observed") and not self.id:
            raise TraceError(f"{self.kind} event needs an id")

    def to_dict(self) -> dict:
        doc = {"t": self.t, "kind": self.kind}
        if self.id is not None:
            doc["id"] = self.id
        return doc


@dataclass(frozen=True)
class Directive:
    """Execution instruction handed to the managed system."""

    kind: str  # "continue" | "switch_controller" | "safe_stop"
    controller_id: str | None = None
    reason: str | None = None

    def to_dict(self) -> dict:
        doc = {"kind": self.kind}
        if self.controller_id is not None:
            doc["controller_id"] = self.controller_id
        if self.reason is not None:
            doc["reason"] = self.reason
        return doc


CONTINUE = Directive("continue")


def switch_controller(controller_id: str) -> Directive:
    return Directive("switch_controller", controller_id=controller_id)


def safe_stop(reason: str) -> Directive:
    return Directive("safe_stop", reason=reason)


@dataclass
class HistoryEntry:
    """One knowledge-base adaptation record (the initial controller included)."""

    t: int
    controller_id: str
    outcome: AdaptationOutcome | None = None  # None for the initial entry

    def to_dict(self) -> dict:
        return {
            "t": self.t,
            "controller_id": self.controller_id,
            "outcome": self.outcome.to_dict() if self.outcome else None,
        }


@dataclass
class KnowledgeBase:
    """Everything the loop shares between stages and across restarts."""

    prior_scg: AugmentedScg  # pre-deployment belief; estimation prior; state ids
    scg: AugmentedScg  # current belief, including sinks
    model: Dtmc  # compiled model of scg, the belief the loop checks; not persisted
    counts: TransitionCounts
    properties: list[BoundedReachProperty]
    controllers: list[Controller]
    history: list[HistoryEntry]
    estimator: EstimatorConfig
    synthesis: SynthesisConfig
    baseline: bool = False  # True: planning disabled (fixed controller)
    prev: str | None = None  # previous-situation cursor within the episode
    last_t: int = -1

    @property
    def active_controller(self) -> Controller:
        return self.controllers[-1]


def new_knowledge_base(
    scg: AugmentedScg,
    properties: list[BoundedReachProperty],
    estimator: EstimatorConfig | None = None,
    synthesis: SynthesisConfig | None = None,
    baseline: bool = False,
) -> KnowledgeBase:
    require_checkable({f.label for f in scg.failures}, properties)
    build_model(scg)  # the compile validates; a loaded prior releases its model
    initial = Controller(id="c0", avoided=tuple(sorted(scg.sunk)))
    counts = TransitionCounts(failure_ids=frozenset(scg.failure_ids))
    estimator = estimator or EstimatorConfig()
    belief, model = _derive_belief(scg, counts, estimator, initial)
    return KnowledgeBase(
        prior_scg=scg,
        scg=belief,
        model=model,
        counts=counts,
        properties=list(properties),
        controllers=[initial],
        history=[HistoryEntry(t=0, controller_id="c0")],
        estimator=estimator,
        synthesis=synthesis or SynthesisConfig(),
        baseline=baseline,
    )


def _derive_belief(
    prior: AugmentedScg,
    counts: TransitionCounts,
    estimator: EstimatorConfig,
    controller: Controller,
) -> tuple[AugmentedScg, Dtmc]:
    """The belief every row of which is estimated from `counts`, with the
    controller's sinks, and its compiled model."""
    belief = sink_situation(rebuild_scg(prior, counts, estimator), *controller.avoided)
    return belief, build_model(belief)


@dataclass
class RunLogEntry:
    t: int
    kind: str
    id: str | None
    directive: Directive
    compliant: bool | None = None  # current-situation verdict, when analysed
    outcome: AdaptationOutcome | None = None

    def to_dict(self) -> dict:
        return {
            "t": self.t,
            "kind": self.kind,
            "id": self.id,
            "directive": self.directive.to_dict(),
            "compliant": self.compliant,
            "outcome": self.outcome.to_dict() if self.outcome else None,
        }


def _ingest(kb: KnowledgeBase, to: str) -> None:
    """Count the transition from `prev` and write its re-estimated row, checked
    over the prior's states, into the belief and its model, in place.

    No such row is sunk: `prev` never names a sunk situation, since entering
    one stops the episode.
    """
    sid = kb.prev
    if sid is None:
        return
    ingest(kb.counts, sid, to)
    row = estimate_row(kb.prior_scg, kb.counts, kb.estimator, sid)
    require_valid_row(kb.prior_scg, sid, row)
    kb.scg.delta[sid] = row  # the knowledge base alone holds its belief's delta
    write_rows(kb.model, {sid: row})


def step(kb: KnowledgeBase, event: TraceEvent) -> tuple[KnowledgeBase, RunLogEntry]:
    """Fold one event into the knowledge base and emit a directive."""
    if event.t < kb.last_t:
        raise TraceError(f"out-of-order timestep {event.t} < {kb.last_t}")
    kb.last_t = event.t

    if event.kind == "episode_reset":
        kb.prev = None
        return kb, RunLogEntry(event.t, event.kind, None, CONTINUE)

    if event.kind == "failure_observed":
        if not kb.prior_scg.is_failure(event.id):
            raise TraceError(f"unknown failure id {event.id!r}")
        _ingest(kb, event.id)
        kb.prev = None
        return kb, RunLogEntry(event.t, event.kind, event.id, CONTINUE)

    # situation_entered
    sid = event.id
    if not kb.prior_scg.is_situation(sid):
        raise TraceError(f"unknown situation id {sid!r}")
    _ingest(kb, sid)

    if sid in kb.scg.sunk:
        kb.prev = None
        directive = safe_stop(f"entered avoided situation {sid}")
        return kb, RunLogEntry(event.t, event.kind, sid, directive)

    analysis = analyze(kb.model, kb.scg.sunk, sid, kb.properties)
    if analysis.compliant or kb.baseline:
        kb.prev = sid
        return kb, RunLogEntry(
            event.t, event.kind, sid, CONTINUE, compliant=analysis.compliant
        )

    outcome = synthesize_safe_controller(kb.scg, kb.properties, kb.synthesis, kb.model)
    decision = replace(outcome, final_report=None)  # history keeps no ranking
    if not outcome.success:
        write_rows(kb.model, {s: kb.scg.delta[s] for s in outcome.avoided})
        kb.history.append(HistoryEntry(event.t, kb.active_controller.id, decision))
        kb.prev = None
        directive = safe_stop(
            f"synthesis failed after sinking {outcome.avoided} "
            f"(max_removals={kb.synthesis.max_removals})"
        )
        return kb, RunLogEntry(
            event.t, event.kind, sid, directive, compliant=False, outcome=outcome
        )

    controller_id = f"c{len(kb.controllers)}"
    controller = controller_from_outcome(
        kb.scg, outcome, controller_id, prior_avoided=kb.active_controller.avoided
    )
    kb.controllers.append(controller)
    kb.history.append(HistoryEntry(event.t, controller_id, decision))
    kb.scg = sink_situation(kb.scg, *outcome.avoided)
    if sid in controller.avoided:
        kb.prev = None
        directive = safe_stop(f"current situation {sid} is now avoided")
    else:
        kb.prev = sid
        directive = switch_controller(controller_id)
    return kb, RunLogEntry(
        event.t, event.kind, sid, directive, compliant=False, outcome=outcome
    )


def run(kb: KnowledgeBase, events: list[TraceEvent]) -> list[RunLogEntry]:
    """Fold a whole trace; the log is deterministic given kb and trace."""
    log = []
    for event in events:
        _, entry = step(kb, event)
        log.append(entry)
    return log


# ---------------------------------------------------------------------------
# knowledge-base persistence


def snapshot(kb: KnowledgeBase) -> dict:
    return {
        "prior_scg": scg_to_dict(kb.prior_scg),
        "counts": kb.counts.to_dict(),
        "properties": [
            {"name": p.name, "expression": format_property(p)} for p in kb.properties
        ],
        "controllers": [
            {"id": c.id, "avoided": list(c.avoided), "origin": c.origin}
            for c in kb.controllers
        ],
        "history": [h.to_dict() for h in kb.history],
        "estimator": asdict(kb.estimator),
        "synthesis": asdict(kb.synthesis),
        "baseline": kb.baseline,
        "prev": kb.prev,
        "last_t": kb.last_t,
    }


@dataclass(frozen=True)
class _Snapshot:
    """What a snapshot stores of a knowledge base, as load reads it."""

    prior_scg: AugmentedScg
    counts: TransitionCounts
    properties: list[PropertyEntry]
    controllers: list[Controller]
    history: list[HistoryEntry]
    estimator: EstimatorConfig
    synthesis: SynthesisConfig
    baseline: bool = False
    prev: str | None = None
    last_t: int = -1


def load(doc: dict) -> KnowledgeBase:
    """The knowledge base of a snapshot; each defect is a SchemaError at its path.

    The belief is derived again from the prior, the counts and the active
    controller's avoided set, so a snapshot stores neither it nor a
    controller's SCG.  The `scg` and `scg_version`, each controller's `scg`,
    each history outcome's `final_report`, and the synthesis `rng_seed` and
    `out_of_odd_horizon` that older snapshots carry are not read.  Nothing
    builds from the loaded prior, so it drops the model its load compiled.
    """
    if type(doc) is dict:  # drop what older snapshots carry by name, unparsed
        doc = _without(doc, ("scg", "scg_version"))
        if "synthesis" in doc:
            doc["synthesis"] = _without(doc["synthesis"], ("rng_seed", "out_of_odd_horizon"))
        if type(doc.get("controllers")) is list:
            doc["controllers"] = [_without(c, ("scg",)) for c in doc["controllers"]]
        if type(doc.get("history")) is list:
            doc["history"] = list(map(_without_report, doc["history"]))
    record = decode(_Snapshot, doc)
    properties = parse_entries(record.properties, "$.properties")
    prior, controllers = record.prior_scg, record.controllers
    for i, prop in enumerate(properties):  # a target must be a failure label of the prior
        if prop.target_label not in {f.label for f in prior.failures}:
            raise SchemaError(f"unknown label {prop.target_label!r}", [f"$.properties[{i}]"])
    if not controllers:  # the belief sinks the active controller's situations
        raise SchemaError("need at least one controller", ["$.controllers"])
    for i, c in enumerate(controllers):
        if c.id != f"c{i}":  # the ids new_knowledge_base and step give, in order
            raise SchemaError(f"controller {i} must be named 'c{i}'", [f"$.controllers[{i}].id"])
        origin = "synthesised" if i else "pre-deployment"  # the origins they give
        if c.origin != origin:
            raise SchemaError(f"controller {i} must be {origin}", [f"$.controllers[{i}].origin"])
        if not all(map(prior.is_situation, c.avoided)):
            raise SchemaError("avoided ids must be situations", [f"$.controllers[{i}].avoided"])
    _check_counts(prior, record.counts)
    named = {c.id for c in controllers}
    for i, entry in enumerate(record.history):
        if entry.controller_id not in named:
            raise SchemaError("history names no controller", [f"$.history[{i}].controller_id"])
    object.__setattr__(prior, "compiled", None)
    belief, model = _derive_belief(prior, record.counts, record.estimator, controllers[-1])
    prev = record.prev
    if prev is not None and (not belief.is_situation(prev) or prev in belief.sunk):
        raise SchemaError("prev must be null or a situation not avoided", ["$.prev"])
    return KnowledgeBase(**{**vars(record), "properties": properties}, scg=belief, model=model)


def _without(doc, keys: tuple[str, ...]):
    """A JSON object less `keys`; any other JSON value as it is."""
    return {k: v for k, v in doc.items() if k not in keys} if type(doc) is dict else doc


def _without_report(entry):
    """A history entry whose outcome is a JSON object, less its `final_report`;
    any other JSON value as it is."""
    if type(entry) is dict and "outcome" in entry:
        return {**entry, "outcome": _without(entry["outcome"], ("final_report",))}
    return entry


def _check_counts(prior: AugmentedScg, counts: TransitionCounts) -> None:
    """SchemaError unless the counts are over the prior's failures, from its
    situations to its states, and each >= 0."""
    if counts.failure_ids != prior.space.failure_set:
        raise SchemaError("counts must name the prior's failures", ["$.counts.failure_ids"])
    states = prior.space.index.keys()
    for sid, row in counts.counts.items():
        known = prior.is_situation(sid) and row.keys() <= states
        if not known or min(row.values(), default=0) < 0:
            message = "counts run from a situation to states of the prior, each >= 0"
            raise SchemaError(message, [f"$.counts.counts.{sid}"])


def save_snapshot(kb: KnowledgeBase, path) -> None:
    with open(path, "w") as fh:
        json.dump(snapshot(kb), fh, indent=2, sort_keys=True)
        fh.write("\n")


def load_snapshot(path) -> KnowledgeBase:
    return load(read_json(path))


def read_trace(path) -> list[TraceEvent]:
    """Read a JSON-lines trace file; a line that does not decode, or is no
    JSON, is a SchemaError."""
    events = []
    with open(path) as fh:
        try:
            for number, line in enumerate(fh, 1):
                line = line.strip()
                if not line:
                    continue
                try:
                    doc = json.loads(line)
                except json.JSONDecodeError as exc:
                    raise SchemaError(f"{path}:{number}: invalid JSON: {exc}") from exc
                events.append(decode(TraceEvent, doc, f"{path}:{number}"))
        except UnicodeDecodeError as exc:  # raised by reading the next line
            raise SchemaError(f"{path}: not text: {exc}") from exc
    return events


def write_trace(events: list[TraceEvent], path) -> None:
    with open(path, "w") as fh:
        for event in events:
            fh.write(json.dumps(event.to_dict()) + "\n")
