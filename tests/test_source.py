"""Rules the library's own source keeps."""

import ast
import importlib
import sys
from pathlib import Path

import pytest

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


#: the library's modules but __init__.py, which imports names to re-export them
MODULES = sorted(p for p in Path(oddsafe.__file__).parent.glob("*.py") if p.name != "__init__.py")


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.name)
def test_a_library_module_uses_every_name_it_imports(path):
    nodes = list(ast.walk(ast.parse(path.read_text(), str(path))))
    used = {node.id for node in nodes if isinstance(node, ast.Name)}
    unused = []
    for node in nodes:
        if not isinstance(node, ast.Import | ast.ImportFrom):
            continue
        if getattr(node, "module", None) == "__future__":  # a compiler directive
            continue
        names = (alias.asname or alias.name.partition(".")[0] for alias in node.names)
        unused += [f"{path.name}:{node.lineno}: {n}" for n in names if n not in used]
    assert unused == []


def test_only_the_report_and_the_record_base_define_to_dict():
    # every other record's JSON form is what encode writes of its fields
    paths = sorted(Path(oddsafe.__file__).parent.glob("*.py"))
    writers = [
        f"{path.name}:{node.name}"
        for path in paths
        for node in ast.walk(ast.parse(path.read_text(), str(path)))
        if isinstance(node, ast.ClassDef)
        and any(isinstance(item, ast.FunctionDef) and item.name == "to_dict" for item in node.body)
    ]
    assert writers == ["dtmc.py:CriticalityReport", "scg.py:Record"]


def _scopes_calling(node, name: str, scope: str):
    """The innermost function or class around each call of `name` under `node`."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, ast.Call):
            if name in (getattr(child.func, "id", None), getattr(child.func, "attr", None)):
                yield scope
        named = isinstance(child, ast.FunctionDef | ast.AsyncFunctionDef | ast.ClassDef)
        yield from _scopes_calling(child, name, child.name if named else scope)


def test_only_the_walk_builds_a_truth_sampler():
    # simulate and the rq2 loop draw their events from marsim.walk, so both
    # call the sampler in one order; a second loop over it would drift apart
    callers = [
        f"{path.stem}.{scope}"
        for path in sorted(Path(oddsafe.__file__).parent.glob("*.py"))
        for scope in _scopes_calling(ast.parse(path.read_text(), str(path)), "TruthSampler", "")
    ]
    assert callers == ["marsim.walk"]


def test_only_the_scorer_builds_a_criticality_report():
    # every ranking, synthesis's after each sink included, is scored by one
    # function
    callers = [
        f"{path.stem}.{scope}"
        for path in sorted(Path(oddsafe.__file__).parent.glob("*.py"))
        for scope in _scopes_calling(ast.parse(path.read_text()), "CriticalityReport", "")
    ]
    assert callers == ["dtmc.score_situations"]


def test_no_library_class_fills_itself_on_attribute_access():
    # a record that computes its fields at their first read runs that work on
    # any probe, hasattr or a copy included; a record holds its values
    hooks = [
        f"{path.name}:{node.name}.{item.name}"
        for path in sorted(Path(oddsafe.__file__).parent.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(), str(path)))
        if isinstance(node, ast.ClassDef)
        for item in node.body
        if isinstance(item, ast.FunctionDef) and item.name in ("__getattr__", "__getstate__")
    ]
    assert hooks == []


def _add_checkout_to_path():
    if str(CHECKOUT) not in sys.path:
        sys.path.insert(0, str(CHECKOUT))


def test_every_function_the_benchmark_traces_exists():
    # perfbench/layers.py looks each one up with getattr(..., None), so a
    # renamed function would silently drop its per-layer counters
    _add_checkout_to_path()
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


def test_the_monitor_oracle_reads_what_the_library_ranks():
    # the benchmark checks every switched controller with evaluate_scg; a
    # field it reads going away would show only as failed benchmark ops
    _add_checkout_to_path()
    from perfbench.oracle import evaluate_scg, props_from
    from perfbench.workloads import PROPERTIES_DOC, dense_report_matches

    from oddsafe.dtmc import rank_situations
    from oddsafe.marsim import ScenarioConfig, generate_scenario
    from oddsafe.proplang import parse_properties_file
    from oddsafe.scg import sink_situation

    properties = parse_properties_file(PROPERTIES_DOC)
    _, belief = generate_scenario(ScenarioConfig(seed=7))
    sunk = sink_situation(belief, rank_situations(belief, properties).worst_situation)
    for scg in (belief, sunk):
        report = rank_situations(scg, properties)
        assert dense_report_matches(report, evaluate_scg(scg, props_from(properties)))
    assert len(report.records) == len(belief.situation_ids) - 1
