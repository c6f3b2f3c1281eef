"""Rules the library's own source keeps."""

import ast
import importlib
import sys
from pathlib import Path

import oddsafe

CHECKOUT = Path(__file__).resolve().parents[1]


def test_library_guards_are_not_asserts():
    # python -O strips assert statements, so a safety guard must raise instead
    paths = sorted(Path(oddsafe.__file__).parent.glob("*.py"))
    assert len(paths) > 1
    asserts = [
        f"{path.name}:{node.lineno}"
        for path in paths
        for node in ast.walk(ast.parse(path.read_text(), str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert asserts == []


def test_every_function_the_benchmark_traces_exists():
    # perfbench/layers.py looks each one up with getattr(..., None), so a
    # renamed function would silently drop its per-layer counters
    if str(CHECKOUT) not in sys.path:
        sys.path.insert(0, str(CHECKOUT))
    from perfbench import layers

    missing = [
        f"{module}.{attr}"
        for _, module, attr in layers.TRACED_FUNCTIONS
        if not callable(getattr(importlib.import_module(module), attr, None))
    ]
    sampler = importlib.import_module("oddsafe.marsim").TruthSampler
    missing += [f"TruthSampler.{m}" for m in layers.SAMPLER_METHODS if m not in vars(sampler)]
    if not hasattr(importlib.import_module("oddsafe.dtmc"), "SPARSE_DENSITY_CUTOFF"):
        missing.append("oddsafe.dtmc.SPARSE_DENSITY_CUTOFF")
    assert missing == []
