"""The rq1/rq2 experiment outputs at their default configs, the snapshot of
the rq2 adaptive knowledge base and the check reports of large SCGs, pinned
by MD5.

Any refactor of the model, the learner, the loop or synthesis must leave
these bytes unchanged (or log and justify the drift).
"""

import hashlib
import json
import sys
from dataclasses import replace
from pathlib import Path

import pytest

from oddsafe.adapt import SynthesisConfig
from oddsafe.cli import main
from oddsafe.dtmc import rank_situations
from oddsafe.experiments import TimelineConfig, default_properties, random_dense_scg, run_timeline
from oddsafe.learn import EstimatorConfig
from oddsafe.marsim import ScenarioConfig, generate_scenario, simulate
from oddsafe.runtime import (
    TraceEvent,
    new_knowledge_base,
    read_trace,
    run,
    save_snapshot,
    write_trace,
)
from oddsafe.scg import save_scg, scg_from_dict, scg_to_dict, sink_situation, write_json_lines

from helpers import grid_doc, rq2_adaptive_run

GOLDEN = {
    "rq2/adaptive.jsonl": "25d7a87702ad42d7b2b8eadabade2cc5",
    "rq2/baseline.jsonl": "66ff030b4fddd121812cc491d011f6b7",
    "rq1/variants.json": "3fdf0a951c1a8736ae70f4d844de2cb2",
    "rq1/variants.csv": "1bff03a3feb979790a2f1a397248d700",
}


def test_experiment_outputs_match_golden_digests(tmp_path, capsys):
    assert main(["--out", str(tmp_path / "rq2"), "experiment-rq2"]) == 0
    assert main(["--out", str(tmp_path / "rq1"), "experiment-rq1"]) == 0
    digests = {
        name: hashlib.md5((tmp_path / name).read_bytes()).hexdigest() for name in GOLDEN
    }
    assert digests == GOLDEN


@pytest.fixture(scope="module")
def rq2_timeline():
    return run_timeline(TimelineConfig(seed=7))


@pytest.mark.parametrize("baseline", [False, True], ids=["adaptive", "baseline"])
def test_an_rq2_log_replayed_as_a_trace_matches_its_golden_digest(
    baseline, rq2_timeline, tmp_path
):
    # the closed loop's events, written as a trace and folded through the
    # runtime on a fresh knowledge base, give the closed loop's own log
    log = rq2_timeline.baseline_log if baseline else rq2_timeline.adaptive_log
    write_trace([TraceEvent(e.t, e.kind, e.id) for e in log], tmp_path / "trace.jsonl")
    _, prior = generate_scenario(ScenarioConfig(seed=7, drift_magnitude=1.0, drift_time=60))
    kb = new_knowledge_base(
        prior, default_properties(),
        estimator=EstimatorConfig(mode="bayesian", prior_strength_kappa=1.0),
        synthesis=SynthesisConfig(max_removals=4), baseline=baseline,
    )
    write_json_lines(run(kb, read_trace(tmp_path / "trace.jsonl")), tmp_path / "log.jsonl")
    name = "rq2/baseline.jsonl" if baseline else "rq2/adaptive.jsonl"
    assert hashlib.md5((tmp_path / "log.jsonl").read_bytes()).hexdigest() == GOLDEN[name]


#: the seed-7 rq2 adaptive knowledge base's snapshot file, 18,137 bytes
RQ2_SNAPSHOT_MD5 = "8a074e1a5114b480b1777946b8464538"


def test_the_rq2_adaptive_snapshot_matches_its_golden_digest(tmp_path):
    _, kb = rq2_adaptive_run()
    save_snapshot(kb, tmp_path / "kb.json")
    assert hashlib.md5((tmp_path / "kb.json").read_bytes()).hexdigest() == RQ2_SNAPSHOT_MD5


#: the files the two remaining writers write of the seed-7 maritime scenario:
#: its 500-event simulated trace (26,035 bytes) and its prior (12,029 bytes)
WRITER_GOLDEN = {
    "trace.jsonl": "f333f73b018aa4cc61c4ab1b942b9d9b",
    "prior.json": "a14b797a84d6cf2a70d2c2aad91b80cd",
}


def test_the_trace_and_scg_writers_match_their_golden_digests(tmp_path):
    truth, prior = generate_scenario(ScenarioConfig(seed=7))
    write_trace(simulate(truth, 500, seed=7), tmp_path / "trace.jsonl")
    save_scg(prior, tmp_path / "prior.json")
    digests = {
        name: hashlib.md5((tmp_path / name).read_bytes()).hexdigest() for name in WRITER_GOLDEN
    }
    assert digests == WRITER_GOLDEN


CHECK_PROPERTIES = [
    {"name": "phi1", "expression": "P < 0.99 [ F<=50 f1 ]"},
    {"name": "phi2", "expression": "P < 0.95 [ F<=50 f2 ]"},
]


#: property names are the only text of a report a user writes (situation ids
#: are always s0, s1, ...), so these exercise the writer's escaping
NAMED_PROPERTIES = [
    {"name": "φ1 «évite» \"f1\" \\ \u2028", "expression": "P < 0.6 [ F<=20 f1 ]"},
    {"name": "ψ2", "expression": "P <= 0.5 [ F<=20 f2 ]"},
]


def _sunk_doc(n: int, sunk: int) -> dict:
    """A sparse random SCG with its first `sunk` situations sunk."""
    scg = random_dense_scg(n, density=0.2, seed=11)
    for sid in scg.situation_ids[:sunk]:
        scg = sink_situation(scg, sid)
    return scg_to_dict(scg)


#: name -> (document, properties, exit code, MD5 of the `check --format json
#: --out` file, MD5 of its stdout in --format table, MD5 of its stdout in
#: --format json)
CHECK_GOLDEN = {
    "dense-640": (
        lambda: scg_to_dict(random_dense_scg(640, density=1.0, seed=2083679832)),
        CHECK_PROPERTIES,
        0,
        "ec1adabe17f1451aedf003552dd6b5b0",
        "d8f28cf0dd28d089bfb866667a47f9b4",
        "ec1adabe17f1451aedf003552dd6b5b0",
    ),
    "grid-4096": (
        grid_doc,
        CHECK_PROPERTIES,
        1,
        "7710fdf22c4cfae9107cb5b595c33bf5",
        "039bbcb9c30660b38eb938e69d431d72",
        "7710fdf22c4cfae9107cb5b595c33bf5",
    ),
    "non-ascii-names": (
        lambda: _sunk_doc(30, 3),
        NAMED_PROPERTIES,
        1,
        "af4f6aff004026113561747270995970",
        "fe1feb0bc9b89c9f491efc8a3702bfd2",
        "af4f6aff004026113561747270995970",
    ),
    "all-sunk": (
        lambda: _sunk_doc(6, 6),
        CHECK_PROPERTIES,
        0,
        "87593ff2bb00d0240d2e81135ba33f3a",
        "8d2a8af1f06eeec2102e1770acf6f65b",
        "87593ff2bb00d0240d2e81135ba33f3a",
    ),
}


def _md5(text: str) -> str:
    return hashlib.md5(text.encode()).hexdigest()


@pytest.mark.parametrize("name", CHECK_GOLDEN)
def test_check_reports_match_golden_digests(name, tmp_path, capsys):
    make_doc, properties, code, digest, table_digest, json_digest = CHECK_GOLDEN[name]
    scg, props, out = tmp_path / "scg.json", tmp_path / "props.json", tmp_path / "report.json"
    scg.write_text(json.dumps(make_doc()))
    props.write_text(json.dumps(properties))
    assert main(["--format", "json", "--out", str(out), "check", str(scg), str(props)]) == code
    assert hashlib.md5(out.read_bytes()).hexdigest() == digest
    assert _md5(capsys.readouterr().out) == json_digest
    assert main(["--format", "table", "check", str(scg), str(props)]) == code
    assert _md5(capsys.readouterr().out) == table_digest
    assert main(["--format", "json", "check", str(scg), str(props)]) == code  # stdout alone
    assert _md5(capsys.readouterr().out) == json_digest


#: every synthesis outcome of the first 20 repair-grid benchmark inputs at
#: seeds 7 and 3, with the ranking of its repaired SCG attached as its final
#: report, as the run log writes one, each as json.dumps writes it, in order
REPAIR_GRID_MD5 = "5d034caa69f06987cb34a88715ce9fd8"


def test_repair_grid_outcomes_match_their_golden_digest():
    checkout = Path(__file__).resolve().parents[1]
    if str(checkout) not in sys.path:
        sys.path.insert(0, str(checkout))
    from perfbench import workloads

    properties = workloads.setup("repair-grid")
    text = []
    for seed in (7, 3):
        work = workloads.make_workload("repair-grid", seed, workloads.SCALES["full"], properties)
        for i in range(20):
            doc, _ = planted = work.make_input(i)
            outcome = work.op(planted)
            repaired = sink_situation(scg_from_dict(doc), *outcome.avoided)
            report = rank_situations(repaired, properties)
            text.append(json.dumps(replace(outcome, final_report=report).to_dict()))
    assert _md5("".join(text)) == REPAIR_GRID_MD5
