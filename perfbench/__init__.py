"""Benchmark for oddsafe: the monitor loop, dense checking and sparse-grid repair.

Entry point: ``python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1``
from the root of a source checkout.  The benchmark imports the library from
that checkout's ``src/`` directory and drives it only through its public
functions.
"""

import sys
from pathlib import Path

WORKLOADS = ("monitor-maritime", "check-dense", "repair-grid")
CHECKOUT = Path(__file__).resolve().parents[1]
SRC = CHECKOUT / "src"


def library_present() -> bool:
    return (SRC / "oddsafe" / "__init__.py").is_file()


def use_checkout_library() -> None:
    """Put the checkout's ``src/`` first on the import path."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
