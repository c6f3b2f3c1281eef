"""Situation-grid verification and safe controller adaptation toolkit."""

from .adapt import (
    AdaptationOutcome,
    Controller,
    SynthesisConfig,
    analyze,
    synthesize_safe_controller,
)
from .dtmc import (
    BoundedReachProperty,
    CriticalityReport,
    Dtmc,
    PropertyResult,
    build_model,
    rank_situations,
)
from .learn import (
    EstimatorConfig,
    TransitionCounts,
    estimate_bayesian,
    estimate_frequentist,
    ingest,
    rebuild_scg,
)
from .marsim import ScenarioConfig, generate_scenario, inject_drift, simulate
from .proplang import format_property, parse_property
from .runtime import (
    Directive,
    KnowledgeBase,
    TraceEvent,
    load_snapshot,
    new_knowledge_base,
    run,
    save_snapshot,
    snapshot,
    step,
)
from .scg import (
    AugmentedScg,
    FailureMode,
    OddAttribute,
    Situation,
    enumerate_situations,
    load_scg,
    save_scg,
    sink_situation,
    validate_scg,
)

__version__ = "0.1.0"
