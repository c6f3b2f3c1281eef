"""Reference bounded-reachability checker, independent of ``oddsafe.dtmc``.

Plain numpy value iteration, run for exactly ``k`` sweeps from the indicator
of the target failure: ``x(s) = 1`` for targets, otherwise the expectation of
the previous sweep under the row.  Rows are held padded to the longest row
(gathered, not as an n x n matrix) so the oracle adds no O(n^2) memory to the
process whose peak resident set the benchmark reports.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass

import numpy as np

COMPARATORS = {"<": operator.lt, "<=": operator.le, ">": operator.gt, ">=": operator.ge}


@dataclass(frozen=True)
class Prop:
    """The parts of ``P <cmp> <bound> [ F<=horizon label ]`` the oracle needs."""

    name: str
    label: str
    horizon: int
    comparator: str
    bound: float


@dataclass
class OracleReport:
    situations: list[str]  # active (non-sunk) situations, model order
    values: dict[str, np.ndarray]  # property -> value per active situation
    compliant: dict[str, np.ndarray]  # property -> bool per active situation
    worst_scores: np.ndarray  # max signed score per active situation

    def all_compliant(self) -> bool:
        return all(bool(c.all()) for c in self.compliant.values())

    def score_of(self, sid: str) -> float:
        return float(self.worst_scores[self.situations.index(sid)])

    @property
    def worst_score(self) -> float:
        return float(self.worst_scores.max())


def props_from(properties) -> list[Prop]:
    """Copy parsed property objects into oracle form."""
    return [
        Prop(p.name, p.target_label, int(p.horizon), p.comparator, float(p.bound))
        for p in properties
    ]


def reach_values(
    situations: list[str],
    failures: list[str],
    delta: dict,
    targets: set[str],
    horizon: int,
) -> np.ndarray:
    """Reach-within-``horizon`` probability of ``targets`` for every state."""
    states = list(situations) + list(failures)
    index = {s: i for i, s in enumerate(states)}
    n = len(states)
    width = max(len(delta[s]) for s in situations) if situations else 1
    cols = np.zeros((n, width), dtype=np.int64)
    probs = np.zeros((n, width))
    for i, sid in enumerate(situations):
        row = delta[sid]
        cols[i, : len(row)] = [index[t] for t in row]
        probs[i, : len(row)] = list(row.values())
    for j, fid in enumerate(failures):
        i = len(situations) + j
        cols[i, 0] = i
        probs[i, 0] = 1.0
    hit = np.array([index[t] for t in sorted(targets)], dtype=np.int64)
    x = np.zeros(n)
    x[hit] = 1.0
    for _ in range(horizon):
        x = (probs * x[cols]).sum(axis=1)
        x[hit] = 1.0
    return x


def evaluate(
    situations: list[str],
    failures: dict[str, str],
    delta: dict,
    sunk,
    props: list[Prop],
) -> OracleReport:
    """Check every property from every non-sunk situation.

    ``failures`` maps failure id to its label; ``delta`` must hold a row for
    every situation (sunk rows as ``{sid: 1.0}``).
    """
    sunk = set(sunk)
    active_idx = [i for i, s in enumerate(situations) if s not in sunk]
    active = [situations[i] for i in active_idx]
    values, compliant, scores = {}, {}, []
    for p in props:
        targets = {fid for fid, label in failures.items() if label == p.label}
        if not targets:
            raise KeyError(f"unknown label {p.label!r}")
        x = reach_values(situations, list(failures), delta, targets, p.horizon)
        v = x[active_idx]
        values[p.name] = v
        compliant[p.name] = COMPARATORS[p.comparator](v, p.bound)
        scores.append(v - p.bound if p.comparator in ("<", "<=") else p.bound - v)
    worst = np.max(np.vstack(scores), axis=0) if scores else np.zeros(len(active))
    return OracleReport(active, values, compliant, worst)


def evaluate_doc(doc: dict, props: list[Prop]) -> OracleReport:
    """Oracle over an SCG document whose delta holds every situation row."""
    failures = {f["id"]: f["label"] for f in doc["failures"]}
    return evaluate(list(doc["delta"]), failures, doc["delta"], doc.get("sunk", []), props)


def evaluate_scg(scg, props: list[Prop]) -> OracleReport:
    """Oracle over an in-memory SCG, read through its public fields only."""
    failures = {f.id: f.label for f in scg.failures}
    return evaluate(scg.situation_ids, failures, scg.delta, scg.sunk, props)
