"""One workload process: set up, run the workload, print one JSON result line.

Started by ``run.py``; ``--spawned-at`` is the ``time.monotonic()`` reading
taken just before the process was started, so set-up time covers
interpreter start, imports and the workload's deployment set-up.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import platform
import resource
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

from perfbench import CHECKOUT, WORKLOADS, library_present, use_checkout_library  # noqa: E402


def blas_threads() -> int | None:
    """Thread count reported by the OpenBLAS library loaded in this process."""
    try:
        with open("/proc/self/maps") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    except OSError:
        return None
    for lib in sorted(libs):
        handle = ctypes.CDLL(lib)
        for symbol in (
            "openblas_get_num_threads",
            "openblas_get_num_threads64_",
            "scipy_openblas_get_num_threads64_",
            "scipy_openblas_get_num_threads",
        ):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def peak_rss_mb() -> float:
    """High-water resident set of this process, in MiB."""
    try:
        with open("/proc/self/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def environment() -> dict:
    import numpy
    import scipy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": blas_threads(),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("full", "tiny"), default="full")
    parser.add_argument("--spawned-at", type=float, required=True)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)
    if not library_present():
        print(f"no oddsafe sources under {CHECKOUT / 'src'}", file=sys.stderr)
        return 2
    use_checkout_library()
    from perfbench import workloads
    from perfbench.layers import PER_LAYER_METRICS

    properties = workloads.setup(args.workload)
    setup_s = time.monotonic() - args.spawned_at
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    scale = workloads.SCALES[args.scale]
    if args.trace:
        out_dir = CHECKOUT / ".bench_out"
        out_dir.mkdir(exist_ok=True)
        spans_path = out_dir / f"spans-{args.workload}-seed{args.seed}.jsonl"
        tally, values = workloads.run_traced(
            args.workload, args.seed, args.seconds, scale, properties, spans_path
        )
        units = {name: unit for name, unit, _ in PER_LAYER_METRICS}
    else:
        tally = workloads.run_untraced(args.workload, args.seed, args.seconds, scale, properties)
        values = workloads.end_to_end(args.workload, tally)
        values["peak_rss_mb"] = peak_rss_mb()
        units = workloads.END_TO_END_UNITS
    print(
        json.dumps(
            {
                "setup_s": setup_s,
                "attempted": tally.attempted,
                "failed": tally.failed,
                "metrics": {k: {"value": v, "unit": units[k]} for k, v in values.items()},
                "descriptors": tally.descriptors,
                "environment": environment(),
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
