"""Seeded experiment drivers: drift-variant synthesis outcomes, the paired
baseline-vs-adaptive timeline, and the criticality-scoring benchmark."""

from __future__ import annotations

import itertools
import math
import time
from dataclasses import dataclass, field, fields, replace

import numpy as np

from .adapt import SynthesisConfig, synthesize_safe_controller
from .dtmc import BoundedReachProperty, rank_situations
from .learn import EstimatorConfig
from .marsim import (
    MARITIME_FAILURES,
    GroundTruth,
    ScenarioConfig,
    check_seed,
    generate_scenario,
    inject_drift,
    walk,
)
from .proplang import parse_property
from .runtime import KnowledgeBase, RunLogEntry, new_knowledge_base, step
from .scg import AugmentedScg, OddAttribute, Record, sink_situation, state_space


def default_properties() -> list[BoundedReachProperty]:
    return [
        parse_property("phi1", "P < 0.99 [ F<=50 f1 ]"),
        parse_property("phi2", "P < 0.95 [ F<=50 f2 ]"),
    ]


# ---------------------------------------------------------------------------
# drift-variant synthesis experiment (effectiveness)


def _check_shared_ranges(config) -> None:
    """The range checks VariantConfig and TimelineConfig share."""
    check_seed(config.seed)
    if not 0.0 <= config.drift_magnitude <= 1.0:
        raise ValueError("drift_magnitude must be in [0, 1]")
    if config.max_removals < 0:
        raise ValueError("max_removals must be >= 0")


@dataclass(frozen=True)
class VariantConfig:
    seed: int = 0
    variants: int = 20
    drift_magnitude: float = 0.95
    max_removals: int = 4
    scenario: ScenarioConfig = field(default_factory=ScenarioConfig)

    def __post_init__(self):
        if self.variants < 1:
            raise ValueError("variants must be >= 1")
        _check_shared_ranges(self)
        for key in ("seed", "drift_magnitude", "drift_time"):  # run_variants sets these
            if getattr(self.scenario, key) != getattr(ScenarioConfig, key):
                raise ValueError(
                    f"scenario.{key} is not read by rq1, which seeds variant i with the"
                    " top-level seed + 1000 * i and drifts its belief before synthesis"
                    " by the top-level drift_magnitude"
                )


@dataclass
class ExperimentRecord(Record):
    """One variant row: which properties broke and how adaptation fared."""

    id: int
    properties_violated: list[str]
    worst_criticality_score: float
    save_success: bool
    critical_situations_avoided: list[str]
    # in-memory only, for post-hoc re-checking
    drifted_scg: AugmentedScg | None = field(default=None, metadata={"unwritten": True})

    def to_csv_row(self) -> list[str]:
        return [
            str(self.id),
            "[" + ", ".join(self.properties_violated) + "]",
            f"{self.worst_criticality_score:.5f}",
            str(self.save_success),
            "[" + ", ".join(self.critical_situations_avoided) + "]",
        ]


CSV_HEADER = [f.name for f in fields(ExperimentRecord) if not f.metadata.get("unwritten")]


def run_variants(
    config: VariantConfig, properties: list[BoundedReachProperty] | None = None
) -> list[ExperimentRecord]:
    """Run the seeded drift variants and record each adaptation outcome."""
    properties = properties or default_properties()
    records = []
    for i in range(1, config.variants + 1):
        variant_seed = config.seed + 1000 * i
        scenario = replace(config.scenario, seed=variant_seed)
        _, belief = generate_scenario(scenario)
        drifted = inject_drift(belief, config.drift_magnitude, variant_seed + 1)
        # a compliant variant ends synthesis at its first ranking, sinking nothing
        outcome = synthesize_safe_controller(
            drifted,
            properties,
            SynthesisConfig(max_removals=config.max_removals),
        )
        records.append(
            ExperimentRecord(
                id=i,
                properties_violated=outcome.initial_violations,
                worst_criticality_score=outcome.worst_initial_score,
                save_success=outcome.success,
                critical_situations_avoided=list(outcome.avoided),
                drifted_scg=drifted,
            )
        )
    return records


def recheck_record(
    record: ExperimentRecord, properties: list[BoundedReachProperty] | None = None
) -> bool:
    """Re-verify a successful variant: its avoided set must silence everything."""
    properties = properties or default_properties()
    scg = sink_situation(record.drifted_scg, *record.critical_situations_avoided)
    return rank_situations(scg, properties).all_compliant()


def rescue_rate(records: list[ExperimentRecord]) -> float | None:
    """Successes over violating variants; None when nothing violated."""
    violating = [r for r in records if r.properties_violated]
    if not violating:
        return None
    return sum(1 for r in violating if r.save_success) / len(violating)


# ---------------------------------------------------------------------------
# paired baseline-vs-adaptive timeline


@dataclass(frozen=True)
class TimelineConfig:
    seed: int = 7
    steps: int = 1000
    drift_time: int = 60
    drift_magnitude: float = 1.0
    max_removals: int = 4
    prior_strength_kappa: float = 1.0

    def __post_init__(self):
        if self.steps < 1:
            raise ValueError("steps must be >= 1")
        if self.drift_time < 0:
            raise ValueError("drift_time must be >= 0")
        if not 0.0 <= self.prior_strength_kappa < math.inf:  # NaN fails too
            raise ValueError("prior_strength_kappa must be a finite number >= 0")
        _check_shared_ranges(self)


@dataclass
class TimelineResult:
    baseline_log: list[RunLogEntry]
    adaptive_log: list[RunLogEntry]

    def baseline_failures(self) -> list[RunLogEntry]:
        return [e for e in self.baseline_log if e.kind == "failure_observed"]

    def adaptation_entries(self) -> list[RunLogEntry]:
        return [e for e in self.adaptive_log if e.outcome and e.outcome.success]

    def failures_after_adaptation_in_episode(self) -> list[RunLogEntry]:
        """Failure events between the first adaptation and its episode end."""
        adaptations = self.adaptation_entries()
        if not adaptations:
            return []
        start = self.adaptive_log.index(adaptations[0])
        out = []
        for entry in self.adaptive_log[start + 1 :]:
            if entry.kind == "episode_reset":
                break
            if entry.kind == "failure_observed":
                out.append(entry)
        return out


def _closed_loop(
    truth: GroundTruth, kb: KnowledgeBase, steps: int, sampler_seed: int
) -> list[RunLogEntry]:
    """Step the walk until timestep `steps`; a safe stop ends an episode."""
    log: list[RunLogEntry] = []
    events = walk(truth, sampler_seed, ended=lambda: log[-1].directive.kind == "safe_stop")
    for event in itertools.takewhile(lambda e: e.t < steps, events):
        log.append(step(kb, event)[1])
    return log


def run_timeline(
    config: TimelineConfig, properties: list[BoundedReachProperty] | None = None
) -> TimelineResult:
    """Same seeded drifting world, once with a fixed controller, once adaptive."""
    properties = properties or default_properties()
    scenario = ScenarioConfig(
        seed=config.seed,
        drift_magnitude=config.drift_magnitude,
        drift_time=config.drift_time,
    )
    truth, belief = generate_scenario(scenario)
    estimator = EstimatorConfig(
        mode="bayesian", prior_strength_kappa=config.prior_strength_kappa
    )
    synthesis = SynthesisConfig(max_removals=config.max_removals)
    logs = {}
    for baseline in (True, False):
        kb = new_knowledge_base(
            belief, properties, estimator=estimator, synthesis=synthesis,
            baseline=baseline,
        )
        logs[baseline] = _closed_loop(truth, kb, config.steps, config.seed + 2)
    return TimelineResult(baseline_log=logs[True], adaptive_log=logs[False])


# ---------------------------------------------------------------------------
# criticality-scoring benchmark


def random_dense_scg(
    n_situations: int, density: float = 1.0, seed: int = 0
) -> AugmentedScg:
    """A benchmark SCG with n situations, 2 failures and the given row density."""
    if n_situations < 2:
        raise ValueError("need at least 2 situations")
    check_seed(seed)
    rng = np.random.default_rng(seed)
    attributes = (OddAttribute("bench", tuple(f"v{i}" for i in range(n_situations))),)
    space = state_space(attributes, tuple(f.id for f in MARITIME_FAILURES))
    state_ids = list(space.ids)
    per_row = max(1, round(density * len(state_ids)))
    delta = {}
    for sid in space.situation_ids:
        targets = rng.choice(state_ids, size=per_row, replace=False).tolist()
        probs = rng.dirichlet(np.ones(per_row))
        delta[sid] = {t: float(p) for t, p in zip(targets, probs) if p > 0.0}
    return AugmentedScg(attributes, MARITIME_FAILURES, delta)


def run_bench(
    n_list: list[int], horizon: int = 50, density: float = 1.0, seed: int = 0
) -> list[dict]:
    """Time rank_situations on generated SCGs; one CSV-able record per size."""
    check_seed(seed)  # each size seeds its SCG with seed + n
    properties = [
        parse_property("phi1", f"P < 0.99 [ F<={horizon} f1 ]"),
        parse_property("phi2", f"P < 0.95 [ F<={horizon} f2 ]"),
    ]
    rows = []
    for n in n_list:
        scg = random_dense_scg(n, density=density, seed=seed + n)
        transitions = sum(len(row) for row in scg.delta.values())
        start = time.perf_counter()
        rank_situations(scg, properties)
        elapsed_ms = (time.perf_counter() - start) * 1000.0
        rows.append(
            {
                "n": n,
                "states": n + len(MARITIME_FAILURES),
                "transitions": transitions,
                "ms": elapsed_ms,
            }
        )
    return rows


BENCH_CSV_HEADER = ["n", "states", "transitions", "ms"]
