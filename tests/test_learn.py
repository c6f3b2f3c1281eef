import math
import random

import pytest

from oddsafe.errors import TraceError
from oddsafe.learn import (
    EstimatorConfig,
    TransitionCounts,
    estimate_bayesian,
    estimate_frequentist,
    ingest,
    rebuild_scg,
)
from oddsafe.scg import decode, sink_situation, validate_scg

from helpers import make_scg


def test_ingest_accumulates():
    counts = TransitionCounts(failure_ids=frozenset({"f1", "f2"}))
    ingest(counts, "s0", "s1")
    ingest(counts, "s0", "s1")
    ingest(counts, "s0", "f1")
    assert counts.row("s0") == {"s1": 2, "f1": 1}
    assert sum(counts.row("s0").values()) == 3
    assert sum(counts.row("s9").values()) == 0


def test_ingest_rejects_failure_source():
    counts = TransitionCounts(failure_ids=frozenset({"f1"}))
    with pytest.raises(TraceError):
        ingest(counts, "f1", "s0")


def test_counts_round_trip():
    counts = TransitionCounts(failure_ids=frozenset({"f1"}))
    ingest(counts, "s0", "s1")
    ingest(counts, "s1", "f1")
    again = decode(TransitionCounts, counts.to_dict())
    assert again.counts == counts.counts
    sids = ("s0", "s1", "s9")
    totals = [[sum(c.row(s).values()) for s in sids] for c in (again, counts)]
    assert totals == [[1, 1, 0], [1, 1, 0]]
    assert again.failure_ids == counts.failure_ids


def test_frequentist_formula():
    row = estimate_frequentist({}, {"a": 2, "b": 2}, 1.0, ["a", "b", "c"])
    assert row == {"a": 3 / 7, "b": 3 / 7, "c": 1 / 7}


def test_frequentist_falls_back_to_prior():
    prior = {"a": 0.7, "b": 0.3}
    assert estimate_frequentist(prior, {}, 0.0, ["a", "b"]) == prior


def test_bayesian_formula():
    prior = {"a": 0.5, "b": 0.5}
    row = estimate_bayesian(prior, {"a": 3}, 2.0, ["a", "b"])
    assert row == {"a": (2.0 * 0.5 + 3) / 5.0, "b": (2.0 * 0.5) / 5.0}


def test_bayesian_falls_back_to_prior():
    prior = {"a": 0.7, "b": 0.3}
    assert estimate_bayesian(prior, {}, 0.0, ["a", "b"]) == prior


@pytest.mark.parametrize("estimate", [estimate_frequentist, estimate_bayesian])
def test_an_estimator_rejects_an_empty_support(estimate):
    # with nothing to spread it over, the mass of a row would vanish
    with pytest.raises(ValueError, match="empty support"):
        estimate({"s0": 1.0}, {"s0": 3}, 1.0, [])


def test_estimators_agree_without_smoothing():
    rng = random.Random(3)
    support = ["a", "b", "c", "d"]
    for _ in range(100):
        counts = {t: rng.randrange(0, 20) for t in support}
        if sum(counts.values()) == 0:
            counts["a"] = 1
        prior = {t: 0.25 for t in support}
        freq = estimate_frequentist(prior, counts, 0.0, support)
        bayes = estimate_bayesian(prior, counts, 0.0, support)
        assert freq == bayes  # bit-for-bit


def test_estimator_config_validation():
    with pytest.raises(ValueError):
        EstimatorConfig(mode="magic")
    with pytest.raises(ValueError):
        EstimatorConfig(support_policy="anything")
    with pytest.raises(ValueError):
        EstimatorConfig(smoothing_alpha=-1.0)


@pytest.mark.parametrize("value", [math.inf, math.nan])
def test_estimator_config_rejects_a_smoothing_alpha_that_is_not_finite(value):
    with pytest.raises(ValueError, match="smoothing_alpha"):
        EstimatorConfig(mode="frequentist", smoothing_alpha=value)


@pytest.mark.parametrize("value", [math.inf, math.nan])
def test_estimator_config_rejects_a_prior_strength_kappa_that_is_not_finite(value):
    # inf / inf would make every Bayesian estimate NaN
    with pytest.raises(ValueError, match="prior_strength_kappa"):
        EstimatorConfig(prior_strength_kappa=value)


def _prior():
    return make_scg(
        {"s0": {"s1": 0.5, "f1": 0.5}, "s1": {"s0": 0.5, "s1": 0.5}}, 2
    )


def test_rebuild_preserves_sunk_rows():
    prior = sink_situation(_prior(), "s1")
    counts = TransitionCounts(failure_ids=frozenset({"f1", "f2"}))
    ingest(counts, "s1", "s0")
    rebuilt = rebuild_scg(prior, counts, EstimatorConfig(mode="frequentist"))
    assert rebuilt.delta["s1"] == {"s1": 1.0}
    assert rebuilt.sunk == {"s1"}


def test_observed_only_admits_novel_targets():
    prior = _prior()
    counts = TransitionCounts(failure_ids=frozenset({"f1", "f2"}))
    for _ in range(3):
        ingest(counts, "s0", "f2")  # f2 is absent from the prior row
    ingest(counts, "s0", "s1")
    observed = rebuild_scg(
        prior, counts, EstimatorConfig(mode="frequentist", support_policy="observed-only")
    )
    assert observed.delta["s0"] == {"s1": 0.25, "f2": 0.75}
    restricted = rebuild_scg(
        prior, counts, EstimatorConfig(mode="frequentist", support_policy="prior-support")
    )
    assert "f2" not in restricted.delta["s0"]
    assert validate_scg(restricted) == []


def test_rebuild_drops_zero_entries():
    prior = _prior()
    counts = TransitionCounts(failure_ids=frozenset({"f1", "f2"}))
    for _ in range(4):
        ingest(counts, "s0", "s1")
    rebuilt = rebuild_scg(prior, counts, EstimatorConfig(mode="frequentist"))
    assert rebuilt.delta["s0"] == {"s1": 1.0}
