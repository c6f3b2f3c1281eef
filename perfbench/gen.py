"""Seeded workload inputs, built outside the library.

Every generator is a pure function of its seed arguments, so one workload
seed always yields the same documents.  Documents use the SCG JSON form that
``oddsafe.scg.scg_from_dict`` reads: situation ids ``s0, s1, ...`` follow the
lexicographic order of the attribute value grid, first attribute slowest.
"""

from __future__ import annotations

import numpy as np

FAILURES = (
    {"id": "f1", "label": "f1", "description": "inadequate time to react"},
    {"id": "f2", "label": "f2", "description": "near-catastrophic collision"},
)

#: per-row probability of the f2 leak in an ordinary grid cell; 50 steps of
#: it stay far below the phi2 bound, so only planted traps violate
LEAK_RANGE = (1e-4, 4e-4)
#: failure share of a trap row; the rest self-loops, so reach within 50
#: steps is 1 to double precision and the trap breaks phi1 or phi2
TRAP_SHARE_RANGE = (0.55, 0.8)
TRAPS_PER_OP = 3


def derive_seed(*parts: int) -> int:
    """A 32-bit seed that depends on every part (workload seed, op index, ...)."""
    return int(np.random.SeedSequence([int(p) for p in parts]).generate_state(1)[0])


def grid_doc(seed: int, attributes: int = 4, values: int = 8) -> dict:
    """A structured sparse ODD: each cell moves to itself and its +-1 neighbours.

    Rows have at most ``2 * attributes + 1`` situation targets plus a small
    f2 leak, drawn from a Dirichlet with the given seed.
    """
    rng = np.random.default_rng(seed)
    shape = (values,) * attributes
    n = values**attributes
    delta = {}
    for k in range(n):
        cell = np.unravel_index(k, shape)
        targets = [k]
        for axis in range(attributes):
            for step in (-1, 1):
                v = cell[axis] + step
                if 0 <= v < values:
                    moved = list(cell)
                    moved[axis] = v
                    targets.append(int(np.ravel_multi_index(moved, shape)))
        leak = float(rng.uniform(*LEAK_RANGE))
        weights = rng.dirichlet(np.full(len(targets), 2.0)) * (1.0 - leak)
        row = {f"s{t}": float(w) for t, w in zip(targets, weights)}
        row["f2"] = leak
        delta[f"s{k}"] = row
    return {
        "attributes": [
            {"name": f"a{i}", "values": [f"v{j}" for j in range(values)]}
            for i in range(attributes)
        ],
        "failures": [dict(f) for f in FAILURES],
        "delta": delta,
        "sunk": [],
    }


def plant_traps(base: dict, seed: int, op: int) -> tuple[dict, list[str]]:
    """Copy ``base`` with ``TRAPS_PER_OP`` trap rows at seeded positions.

    A trap self-loops and feeds one dominant failure mode.  Returns the new
    document (``base`` is untouched) and the trap ids.
    """
    rng = np.random.default_rng(derive_seed(seed, op))
    sids = list(base["delta"])
    picks = rng.choice(len(sids), size=TRAPS_PER_OP, replace=False)
    delta = dict(base["delta"])
    traps = []
    for i in sorted(int(p) for p in picks):
        sid = sids[i]
        share = float(rng.uniform(*TRAP_SHARE_RANGE))
        failure = FAILURES[int(rng.integers(len(FAILURES)))]["id"]
        delta[sid] = {sid: 1.0 - share, failure: share}
        traps.append(sid)
    return {**base, "delta": delta}, traps


def dense_doc(n: int, seed: int, op: int) -> dict:
    """A fully dense SCG document from the library's own dense generator."""
    from oddsafe import experiments, scg

    dense = experiments.random_dense_scg(n, density=1.0, seed=derive_seed(seed, op))
    return scg.scg_to_dict(dense)
