"""Fixed reference loops that track the host's current speed.

On a shared host the CPU alternates between speed states about 2x apart, in
phases of milliseconds to minutes, so raw op times of one program version
moved by up to 65% between runs.  The benchmark times a reference loop
between ops and reports op time in multiples of it.  Each workload uses the
loop that matches its bottleneck: across speed states the ratio stayed within
~3% per 2-second segment of the monitor loop (interpreter loop) and within
~1% per 8 ops of repair-grid (memory scan), where raw times moved by 65% and
9%.  The loops are the benchmark's own code, so no program change moves
them; a change to them resets every baseline.
"""

from __future__ import annotations

import time

import numpy as np

#: a probe runs its loop this many times and keeps the fastest
REPEATS = 3
#: the memory scan reads a 32 MiB buffer, larger than the last-level cache
SCAN_FLOATS = 4_000_000
KINDS = ("interpreter", "memory")


class ReferenceLoop:
    """``interpreter``: small-dict updates and 20x20 matrix products, the mix
    of the monitor loop and of SCG document handling.  ``memory``: a nonzero
    count over a buffer larger than the cache, like the dense-matrix scans
    that dominate repair on large grids."""

    def __init__(self, kind: str):
        if kind not in KINDS:
            raise ValueError(f"unknown reference loop {kind!r}")
        self.kind = kind
        self._ones = np.ones((20, 20))
        self._buffer = np.ones(SCAN_FLOATS) if kind == "memory" else None

    def probe(self) -> float:
        """Seconds the loop takes now (fastest of REPEATS)."""
        run = self._scan if self.kind == "memory" else self._interpret
        return min(run() for _ in range(REPEATS))

    def _interpret(self) -> float:
        start = time.perf_counter()
        table: dict[str, float] = {}
        for i in range(300):
            key = f"s{i % 20}"
            table[key] = table.get(key, 0.0) + i * 0.5
        block = np.arange(400.0).reshape(20, 20)
        for _ in range(10):
            block = block @ self._ones * 1e-3
        return time.perf_counter() - start

    def _scan(self) -> float:
        start = time.perf_counter()
        np.count_nonzero(self._buffer)
        return time.perf_counter() - start
