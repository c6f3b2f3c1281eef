"""Transition-probability estimation from observed situation changes.

Two estimators are provided: Laplace-smoothed relative frequency and the
Dirichlet posterior mean with pseudo-counts kappa * prior.  Both degenerate to
plain relative frequency when their smoothing parameter is zero.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

from .errors import ModelError, TraceError
from .scg import AugmentedScg

DEFAULT_ALPHA = 0.0
DEFAULT_KAPPA = 20.0


@dataclass
class TransitionCounts:
    """Observed (situation -> state) transition counts."""

    failure_ids: frozenset[str] = frozenset()
    counts: dict[str, dict[str, int]] = field(default_factory=dict)

    def row(self, sid: str) -> dict[str, int]:
        return dict(self.counts.get(sid, {}))

    def to_dict(self) -> dict:
        return {
            "failure_ids": sorted(self.failure_ids),
            "counts": {s: dict(row) for s, row in self.counts.items()},
        }


@dataclass(frozen=True)
class EstimatorConfig:
    """How observed counts are folded into the SCG belief."""

    mode: str = "bayesian"  # "frequentist" | "bayesian"
    smoothing_alpha: float = DEFAULT_ALPHA
    prior_strength_kappa: float = DEFAULT_KAPPA
    support_policy: str = "observed-only"  # "observed-only" | "prior-support"

    def __post_init__(self):
        if self.mode not in ("frequentist", "bayesian"):
            raise ValueError(f"unknown estimator mode {self.mode!r}")
        if self.support_policy not in ("observed-only", "prior-support"):
            raise ValueError(f"unknown support policy {self.support_policy!r}")
        for name in ("smoothing_alpha", "prior_strength_kappa"):
            if not 0.0 <= getattr(self, name) < math.inf:  # NaN fails too
                raise ValueError(f"{name} must be a finite number >= 0")


def ingest(counts: TransitionCounts, frm: str, to: str) -> TransitionCounts:
    """Record one observed transition; failures never act as sources."""
    if frm in counts.failure_ids:
        raise TraceError(f"failure {frm!r} cannot be a transition source")
    row = counts.counts.setdefault(frm, {})
    row[to] = row.get(to, 0) + 1
    return counts


def estimate_frequentist(
    prior_row: dict[str, float],
    row_counts: dict[str, int],
    alpha: float,
    support: list[str],
) -> dict[str, float]:
    """Laplace-smoothed relative frequency over the given support."""
    if not support:
        raise ValueError("empty support")
    n = sum(row_counts.get(t, 0) for t in support)
    if n == 0 and alpha == 0:
        return dict(prior_row)
    denom = n + alpha * len(support)
    if not math.isfinite(denom):  # every estimate would be 0.0
        raise ModelError(f"smoothing_alpha {alpha!r} over {len(support)} targets overflows")
    return {t: (row_counts.get(t, 0) + alpha) / denom for t in support}


def estimate_bayesian(
    prior_row: dict[str, float],
    row_counts: dict[str, int],
    kappa: float,
    support: list[str],
) -> dict[str, float]:
    """Dirichlet posterior mean with pseudo-counts kappa * prior."""
    if not support:
        raise ValueError("empty support")
    n = sum(row_counts.get(t, 0) for t in support)
    if kappa == 0 and n == 0:
        return dict(prior_row)
    denom = kappa + n
    return {
        t: (kappa * prior_row.get(t, 0.0) + row_counts.get(t, 0)) / denom
        for t in support
    }


def _row_support(
    prior_row: dict[str, float], row_counts: dict[str, int], policy: str
) -> list[str]:
    support = [t for t in prior_row]
    if policy == "observed-only":
        support += [t for t in row_counts if row_counts[t] > 0 and t not in prior_row]
    return support


def estimate_row(
    prior: AugmentedScg, counts: TransitionCounts, config: EstimatorConfig, sid: str
) -> dict[str, float]:
    """The belief row of situation `sid`: its prior row updated by its counts.

    A row sunk in the prior stays a self-loop; zero entries are dropped.
    """
    if sid in prior.sunk:
        return {sid: 1.0}
    prior_row = prior.delta[sid]
    row_counts = counts.row(sid)
    support = _row_support(prior_row, row_counts, config.support_policy)
    if config.mode == "frequentist":
        row = estimate_frequentist(prior_row, row_counts, config.smoothing_alpha, support)
    else:
        row = estimate_bayesian(prior_row, row_counts, config.prior_strength_kappa, support)
    return {t: p for t, p in row.items() if p > 0.0}


def rebuild_scg(
    prior: AugmentedScg, counts: TransitionCounts, config: EstimatorConfig
) -> AugmentedScg:
    """Re-estimate every non-sunk row of the validated prior SCG from the
    counts; the rebuilt rows are checked by the build_model that compiles it."""
    delta = {sid: estimate_row(prior, counts, config, sid) for sid in prior.situation_ids}
    return replace(prior, delta=delta)
