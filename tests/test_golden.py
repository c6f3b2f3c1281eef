"""The rq1/rq2 experiment outputs at their default configs and the check
reports of two large SCGs, pinned by MD5.

Any refactor of the model, the learner, the loop or synthesis must leave
these bytes unchanged (or log and justify the drift).
"""

import hashlib
import itertools
import json

import pytest

from oddsafe.cli import main
from oddsafe.experiments import random_dense_scg
from oddsafe.scg import scg_to_dict

GOLDEN = {
    "rq2/adaptive.jsonl": "25d7a87702ad42d7b2b8eadabade2cc5",
    "rq2/baseline.jsonl": "66ff030b4fddd121812cc491d011f6b7",
    "rq1/variants.json": "3fdf0a951c1a8736ae70f4d844de2cb2",
}


def test_experiment_outputs_match_golden_digests(tmp_path, capsys):
    assert main(["--out", str(tmp_path / "rq2"), "experiment-rq2"]) == 0
    assert main(["--out", str(tmp_path / "rq1"), "experiment-rq1"]) == 0
    digests = {
        name: hashlib.md5((tmp_path / name).read_bytes()).hexdigest() for name in GOLDEN
    }
    assert digests == GOLDEN


CHECK_PROPERTIES = [
    {"name": "phi1", "expression": "P < 0.99 [ F<=50 f1 ]"},
    {"name": "phi2", "expression": "P < 0.95 [ F<=50 f2 ]"},
]


def grid_doc(side: int = 8, dims: int = 4) -> dict:
    """A sparse side**dims grid: each cell keeps part of its mass, spreads the
    rest over its +-1 neighbours and leaks a little into f2; three cells are
    traps that feed f1 or f2."""
    index = {cell: k for k, cell in enumerate(itertools.product(range(side), repeat=dims))}
    delta = {}
    for cell, k in index.items():
        moves = (cell[:a] + (cell[a] + d,) + cell[a + 1 :] for a in range(dims) for d in (-1, 1))
        near = [index[m] for m in moves if m in index]
        stay, leak = 0.2 + 0.1 * (k % 5), 1e-4 * (1 + k % 4)
        row = {f"s{m}": (1.0 - stay - leak) / len(near) for m in near}
        delta[f"s{k}"] = {f"s{k}": stay, **row, "f2": leak}
    for k, failure in ((100, "f1"), (2000, "f2"), (4000, "f1")):
        delta[f"s{k}"] = {f"s{k}": 0.3, failure: 0.7}
    return {
        "attributes": [
            {"name": f"a{i}", "values": [f"v{j}" for j in range(side)]} for i in range(dims)
        ],
        "failures": [{"id": f, "label": f} for f in ("f1", "f2")],
        "delta": delta,
    }


#: name -> (document, exit code, MD5 of the `check --format json --out` file)
CHECK_GOLDEN = {
    "dense-640": (
        lambda: scg_to_dict(random_dense_scg(640, density=1.0, seed=2083679832)),
        0,
        "ec1adabe17f1451aedf003552dd6b5b0",
    ),
    "grid-4096": (grid_doc, 1, "7710fdf22c4cfae9107cb5b595c33bf5"),
}


@pytest.mark.parametrize("name", CHECK_GOLDEN)
def test_check_reports_match_golden_digests(name, tmp_path, capsys):
    make_doc, code, digest = CHECK_GOLDEN[name]
    scg, props, out = tmp_path / "scg.json", tmp_path / "props.json", tmp_path / "report.json"
    scg.write_text(json.dumps(make_doc()))
    props.write_text(json.dumps(CHECK_PROPERTIES))
    assert main(["--format", "json", "--out", str(out), "check", str(scg), str(props)]) == code
    assert hashlib.md5(out.read_bytes()).hexdigest() == digest
