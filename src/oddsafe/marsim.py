"""Seeded maritime scenario generator and situation-level trace simulator.

The simulator works at the situation-transition abstraction: the hidden
ground truth is an augmented SCG over the 18-situation maritime grid and the
two failure states, sharing its StateSpace with the belief learnt about it,
and its delta drives Markov sampling.  Vessel kinematics exist only inside
the seeded generator that shapes the rows.  Out-of-ODD drift is a seeded
perturbation of any SCG's rows, bounded in per-row total variation.
"""

from __future__ import annotations

import itertools
import math
from collections.abc import Iterator
from dataclasses import dataclass, field, replace

import numpy as np

from .runtime import TraceEvent
from .scg import AugmentedScg, FailureMode, OddAttribute, enumerate_situations

MARITIME_ATTRIBUTES = (
    OddAttribute("density_a", ("none", "low", "high")),
    OddAttribute("density_b", ("none", "low", "high")),
    OddAttribute("ttc", ("short", "long")),
)

MARITIME_FAILURES = (
    FailureMode("f1", "f1", "inadequate time to react (short TTC)"),
    FailureMode("f2", "f2", "near-catastrophic collision"),
)

_TTC_INDEX = 2
_TTC_SHORT = 0

#: failure mass drawn per truth row, before failure_bias scales it: f1 and f2
#: in short-TTC rows, f2 alone in long-TTC rows
_SHORT_TTC_F1_RANGE = (0.005, 0.02)
_SHORT_TTC_F2_RANGE = (0.002, 0.012)
_LONG_TTC_F2_RANGE = (0.0, 0.004)

#: failure share drawn for strongly drifted rows; the rest self-loops, which
#: is what lets bounded reachability actually cross the property bounds
_DRIFT_FAILURE_SHARE_RANGE = (0.55, 0.8)
#: relative drift strength applied to the non-selected rows
_DRIFT_BACKGROUND = 0.1


@dataclass(frozen=True)
class GroundTruth(AugmentedScg):
    """The hidden truth: an augmented SCG plus its scheduled drift events."""

    drift_schedule: list[tuple[int, float, int]] = field(default_factory=list)


def check_seed(seed: int) -> None:
    if seed < 0:  # numpy seeds no generator with a negative number
        raise ValueError("seed must be >= 0")


@dataclass(frozen=True)
class ScenarioConfig:
    seed: int = 0
    episode_length: int = 50
    episodes: int = 200
    drift_magnitude: float = 0.0
    drift_time: int = 0
    failure_bias: dict[str, float] = field(default_factory=lambda: {"f1": 1.0, "f2": 1.0})

    def __post_init__(self):
        check_seed(self.seed)
        if min(self.episodes, self.episode_length) < 1:
            raise ValueError("episodes and episode_length must be >= 1")
        if self.episodes * self.episode_length > np.iinfo(np.int64).max:  # multinomial's n
            raise ValueError("episodes * episode_length must be at most 2**63 - 1")
        if self.drift_time < 0:
            raise ValueError("drift_time must be >= 0")
        if not (0.0 <= self.drift_magnitude <= 1.0):
            raise ValueError("drift_magnitude must be in [0, 1]")
        bias, ids = self.failure_bias, {f.id for f in MARITIME_FAILURES}
        if not (bias.keys() <= ids and all(0 <= v < math.inf for v in bias.values())):
            raise ValueError("failure_bias must map maritime failure ids to finite weights >= 0")
        # short-TTC rows draw the most failure mass; every row keeps some situation mass
        f2_high = max(_SHORT_TTC_F2_RANGE[1], _LONG_TTC_F2_RANGE[1])
        most = _SHORT_TTC_F1_RANGE[1] * bias.get("f1", 1.0) + f2_high * bias.get("f2", 1.0)
        if not most < 1.0:
            raise ValueError(f"failure_bias lets a truth row's failure mass reach {most:g} >= 1")


def _sample_truth_rows(rng: np.random.Generator, situations, bias) -> dict:
    """Truth rows: Dirichlet situation mass plus TTC-dependent failure mass."""
    sids = [s.id for s in situations]
    rows = {}
    for s in situations:
        short_ttc = s.assignment[_TTC_INDEX] == _TTC_SHORT
        if short_ttc:
            f1 = rng.uniform(*_SHORT_TTC_F1_RANGE) * bias.get("f1", 1.0)
            f2 = rng.uniform(*_SHORT_TTC_F2_RANGE) * bias.get("f2", 1.0)
        else:
            # long TTC never produces f1 directly
            f1 = 0.0
            f2 = rng.uniform(*_LONG_TTC_F2_RANGE) * bias.get("f2", 1.0)
        fail_mass = f1 + f2
        situ = rng.dirichlet(np.full(len(sids), 0.8)) * (1.0 - fail_mass)
        row = {sid: float(p) for sid, p in zip(sids, situ) if p > 0.0}
        if f1 > 0.0:
            row["f1"] = float(f1)
        if f2 > 0.0:
            row["f2"] = float(f2)
        rows[s.id] = row
    return rows


def _estimate_belief_rows(
    rng: np.random.Generator, rows: dict, samples_per_row: int
) -> dict:
    """Frequentist belief from seeded multinomial pre-deployment sampling."""
    belief = {}
    for sid, row in rows.items():
        targets = list(row)
        probs = np.array([row[t] for t in targets])
        probs = probs / probs.sum()
        counts = rng.multinomial(samples_per_row, probs)
        belief[sid] = {
            t: float(c / samples_per_row) for t, c in zip(targets, counts) if c > 0
        }
    return belief


def generate_scenario(config: ScenarioConfig) -> tuple[GroundTruth, AugmentedScg]:
    """Sample a hidden maritime truth matrix and its pre-deployment belief."""
    rng = np.random.default_rng(config.seed)
    situations = enumerate_situations(list(MARITIME_ATTRIBUTES))
    rows = _sample_truth_rows(rng, situations, config.failure_bias)
    truth = GroundTruth(
        MARITIME_ATTRIBUTES,
        MARITIME_FAILURES,
        rows,
        drift_schedule=(
            [(config.drift_time, config.drift_magnitude, config.seed + 1)]
            if config.drift_magnitude > 0
            else []
        ),
    )
    total = config.episodes * config.episode_length
    samples_per_row = max(100, total // len(situations))
    belief_rows = _estimate_belief_rows(rng, rows, samples_per_row)
    belief = AugmentedScg(MARITIME_ATTRIBUTES, MARITIME_FAILURES, belief_rows)
    return truth, belief


def _mix_row(
    row: dict[str, float], noise: dict[str, float], magnitude: float
) -> dict[str, float]:
    """Convex mixture; total variation from `row` is at most `magnitude`."""
    out: dict[str, float] = {}
    # sorted union keeps row key order independent of hash randomisation,
    # which sampling order (and thus whole traces) depends on
    for t in sorted(set(row) | set(noise)):
        p = (1.0 - magnitude) * row.get(t, 0.0) + magnitude * noise.get(t, 0.0)
        if p > 0.0:
            out[t] = p
    return out


def inject_drift(truth: AugmentedScg, magnitude: float, seed: int) -> AugmentedScg:
    """Perturb an SCG's rows; a few seeded rows gain failure-directed mass.

    Returns a new SCG of the same type, `truth` untouched.  Every row moves at
    most `magnitude` in total variation and stays stochastic; sunk rows stay
    as they are, and hot rows are drawn among the others.  Magnitude 0, or
    every situation sunk, returns an equal copy.
    """
    if not (0.0 <= magnitude <= 1.0):
        raise ValueError("magnitude must be in [0, 1]")
    sids, fids = truth.space.situation_ids, truth.failure_ids
    free = [sid for sid in sids if sid not in truth.sunk]
    if magnitude == 0.0 or not free:
        return replace(truth, delta=dict(truth.delta))
    rng = np.random.default_rng(seed)
    n_hot = int(rng.integers(1, min(4, len(free)) + 1))
    hot = set(rng.choice(free, size=n_hot, replace=False).tolist())
    rows = {}
    for sid in sids:
        if sid in truth.sunk:
            rows[sid] = truth.delta[sid]
        elif sid in hot:
            # one failure mode dominates (sparse Dirichlet split) and the
            # remainder self-loops: the situation becomes a trap that feeds
            # its dominant failure
            fail_share = float(rng.uniform(*_DRIFT_FAILURE_SHARE_RANGE))
            fail_split = rng.dirichlet(np.full(len(fids), 0.15))
            noise = {fid: float(fail_share * w) for fid, w in zip(fids, fail_split) if w > 0.0}
            noise[sid] = noise.get(sid, 0.0) + (1.0 - fail_share)
            rows[sid] = _mix_row(truth.delta[sid], noise, magnitude)
        else:
            spill = rng.dirichlet(np.ones(len(sids)))
            noise = {t: float(w) for t, w in zip(sids, spill) if w > 0.0}
            rows[sid] = _mix_row(truth.delta[sid], noise, magnitude * _DRIFT_BACKGROUND)
    return replace(truth, delta=rows)


class TruthSampler:
    """Stepwise Markov sampling from the (possibly drifting) truth matrix.

    Keeps its own RNG stream so closed-loop experiments stay deterministic.
    Drift events fire once their timestep is reached.
    """

    def __init__(self, truth: GroundTruth, seed: int):
        self.truth = truth
        self.rng = np.random.default_rng(seed)
        self._scheduled_drift = sorted(truth.drift_schedule)

    def apply_drift(self, t: int) -> bool:
        fired = False
        while self._scheduled_drift and self._scheduled_drift[0][0] <= t:
            _, magnitude, seed = self._scheduled_drift.pop(0)
            self.truth = inject_drift(self.truth, magnitude, seed)
            fired = True
        return fired

    def initial_situation(self) -> str:
        return str(self.rng.choice(self.truth.space.situation_ids))

    def next_state(self, current: str) -> str:
        row = self.truth.delta[current]
        targets = list(row)
        probs = np.array([row[t] for t in targets])
        probs = probs / probs.sum()
        return str(self.rng.choice(targets, p=probs))

    def is_failure(self, state: str) -> bool:
        return self.truth.is_failure(state)


def walk(truth: GroundTruth, seed: int, ended=lambda: False) -> Iterator[TraceEvent]:
    """The sampled event stream, one timestep at a time, without end.

    Each timestep applies due drift, then enters an initial situation at an
    episode start, or samples the next state after that.  A failure ends the
    episode; so does a situation event for which `ended()` is true.  `ended`
    is called when the consumer asks for the event after a situation event,
    so it can read how that event was handled.  An episode end is an
    `episode_reset` at the same timestep.
    """
    sampler = TruthSampler(truth, seed)
    current: str | None = None
    for t in itertools.count():
        sampler.apply_drift(t)
        if current is None:
            current, kind = sampler.initial_situation(), "situation_entered"
        else:
            current = sampler.next_state(current)
            kind = "failure_observed" if sampler.is_failure(current) else "situation_entered"
        yield TraceEvent(t=t, kind=kind, id=current)
        if kind == "failure_observed" or ended():
            yield TraceEvent(t=t, kind="episode_reset")
            current = None


def simulate(truth: GroundTruth, steps: int, seed: int) -> list[TraceEvent]:
    """Sample a trace of `steps` events: the first `steps` of `walk`."""
    if steps < 0:
        raise ValueError("steps must be >= 0")
    return list(itertools.islice(walk(truth, seed), steps))
