"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

NAME is ``monitor-maritime``, ``check-dense``, ``repair-grid`` or ``all``.
Run from anywhere inside a source checkout; the library is imported from the
checkout's ``src/``.  With ``--trace 0`` the end-to-end metrics are printed,
with ``--trace 1`` the per-layer metrics of a traced run.  The last line of
standard output is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``.  Exit code 0 means the run completed (read
``correct`` for the verdict); 2 means it could not run.

Each workload runs in fresh worker processes with BLAS pinned to one thread.
End-to-end metrics: ``op_p50_ref`` and ``op_tail_ref`` (median and p90 op
time in multiples of the workload's reference loop, see ``refclock``),
``setup_s`` (median over several processes, each timed from its start to
readiness for its first op) and ``peak_rss_mb``.  Raw ``ops_per_s``,
``op_p50_ms`` and ``op_tail_ms`` and the failed-op ratio are printed too.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

from perfbench import CHECKOUT, WORKLOADS, library_present  # noqa: E402

WORKER = Path(__file__).resolve().parent / "worker.py"
#: set-up-only processes started before the measured one; set-up time is the
#: median over all of them
SETUP_PROBES = 4
#: a run must end within three minutes
RUN_BUDGET_S = 170.0
#: two BLAS threads on a small shared machine add noise, not speed
PINNED_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


class RunFailed(Exception):
    pass


def _worker(args: list[str], deadline: float) -> dict:
    env = {**os.environ, **PINNED_ENV}
    spawned_at = time.monotonic()
    try:
        proc = subprocess.run(
            [sys.executable, str(WORKER), *args, "--spawned-at", repr(spawned_at)],
            cwd=CHECKOUT,
            env=env,
            capture_output=True,
            text=True,
            timeout=max(1.0, deadline - spawned_at),
        )
    except subprocess.TimeoutExpired as exc:
        raise RunFailed(f"worker timed out: {' '.join(args)}") from exc
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RunFailed(f"worker exited with {proc.returncode}: {' '.join(args)}")
    return json.loads(lines[-1])


def run_workload(name: str, seed: int, seconds: float, trace: int, scale: str) -> dict:
    deadline = time.monotonic() + RUN_BUDGET_S
    common = ["--workload", name, "--seed", str(seed), "--scale", scale]
    setups = []
    if not trace:
        for _ in range(SETUP_PROBES):
            setups.append(_worker([*common, "--setup-only"], deadline)["setup_s"])
    result = _worker([*common, "--seconds", str(seconds), "--trace", str(trace)], deadline)
    setups.append(result["setup_s"])
    metrics = result["metrics"]
    if not trace:
        metrics["setup_s"] = {"value": statistics.median(setups), "unit": "s"}
        result["descriptors"]["setup_samples_s"] = setups
    return {
        "correct": result["failed"] == 0 and result["attempted"] > 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
        "descriptors": result["descriptors"],
        "environment": result["environment"],
    }


def print_report(name: str, res: dict) -> None:
    print(f"== {name}")
    print("descriptors: " + json.dumps(res["descriptors"], sort_keys=True))
    print("environment: " + json.dumps(res["environment"], sort_keys=True))
    for metric, entry in res["metrics"].items():
        print(f"  {metric:<42} {entry['value']:>16.6g} {entry['unit']}")
    for metric, unit in (("ops_per_s", "1/s"), ("op_p50_ms", "ms"), ("op_tail_ms", "ms")):
        if metric in res["descriptors"]:
            label = f"{metric} (raw, not bounded)"
            print(f"  {label:<42} {res['descriptors'][metric]:>16.6g} {unit}")
    ratio = res["failed"] / res["attempted"] if res["attempted"] else 1.0
    print(f"  {'op_fail_ratio':<42} {ratio:>16.6g} ratio ({res['failed']}/{res['attempted']})")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--scale", choices=("full", "tiny"), default="full", help="tiny: input sizes for self-tests"
    )
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not library_present():
        print(f"error: no oddsafe sources under {CHECKOUT / 'src'}", file=sys.stderr)
        return 2
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    try:
        for name in names:
            results[name] = run_workload(name, args.seed, args.seconds, args.trace, args.scale)
            print_report(name, results[name])
    except RunFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.workload == "all":
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {
                f"{name}.{metric}": entry
                for name, r in results.items()
                for metric, entry in r["metrics"].items()
            },
        }
    else:
        r = results[args.workload]
        final = {k: r[k] for k in ("correct", "attempted", "failed", "metrics")}
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
