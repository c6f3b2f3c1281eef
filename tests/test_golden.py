"""The rq1/rq2 experiment outputs at their default configs, pinned by MD5.

Any refactor of the model, the learner, the loop or synthesis must leave
these bytes unchanged (or log and justify the drift).
"""

import hashlib

from oddsafe.cli import main

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
