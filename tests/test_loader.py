"""scg_from_dict's float fast path against the row loop it replaces.

A document whose values are all floats has its rows taken as they are and
checked by its compile; any other goes through the row loop.  Either way the loader must give what
the row loop alone gave: the same delta (value types included), the same
operator bit for bit, the same warnings and the same errors.
"""

from __future__ import annotations

import copy
import functools
import itertools
import math
import operator
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from oddsafe import dtmc, proplang, runtime
from oddsafe import scg as scg_module
from oddsafe.adapt import SynthesisConfig, synthesize_safe_controller
from oddsafe.dtmc import build_model, rank_situations
from oddsafe.errors import ModelError, SchemaError
from oddsafe.experiments import default_properties, random_dense_scg
from oddsafe.learn import EstimatorConfig
from oddsafe.marsim import ScenarioConfig, generate_scenario, simulate
from oddsafe.runtime import new_knowledge_base
from oddsafe.scg import (
    ROW_SUM_ATOL,
    load_scg,
    row_violations,
    save_scg,
    scg_from_dict,
    scg_to_dict,
    sink_situation,
)

from helpers import make_scg, reference_scg_from_dict

CHECKOUT = Path(__file__).resolve().parents[1]
if str(CHECKOUT) not in sys.path:
    sys.path.insert(0, str(CHECKOUT))

from perfbench import gen, workloads  # noqa: E402

#: how some rows of a document write their probabilities: as values the row
#: loop converts (an int) or rejects ("0.25", a bool, null), or with an
#: infinity or a NaN, floats that only the compile rejects
FORMS = st.sampled_from(["text", "int", "bool", "junk", "nonfinite"])
#: a row's sum: exact, inside the tolerance, renormalised, or beyond it
SCALES = st.sampled_from([1.0] * 6 + [1.0 + 1e-10, 1.0 + 5e-7, 1.0 - 5e-7, 1.0 + 1e-3])


def _written(targets: list[str], weights: list[float], scale: float, form: str) -> dict:
    if form in ("int", "bool"):  # whole probabilities: all mass on the first target
        whole = int if form == "int" else bool
        return {t: whole(i == 0) for i, t in enumerate(targets)}
    total = sum(weights)
    row = {t: w / total * scale for t, w in zip(targets, weights)}
    if form == "text":
        return {t: repr(p) for t, p in row.items()}
    if form == "junk":
        row[targets[0]] = None
    if form == "nonfinite":
        row[targets[0]], row[targets[-1]] = math.inf, (-math.inf if len(row) > 1 else math.nan)
    return row


@st.composite
def scg_docs(draw):
    """An SCG document over one attribute, dense (few situations, wide rows)
    or sparse enough for CSR, with some defects drawn in."""
    dense = draw(st.booleans())
    n = draw(st.integers(2, 4)) if dense else draw(st.integers(8, 12))
    # most documents are clean floats, which the fast path takes; in the rest
    # a quarter of the rows are written in one other form
    form = draw(FORMS) if draw(st.integers(0, 2)) == 0 else "float"
    forms = st.sampled_from(["float"] * 3 + [form])
    scales = SCALES if draw(st.integers(0, 2)) == 0 else st.just(1.0)
    states = [f"s{i}" for i in range(n)] + ["f1", "f2"]
    delta = {}
    for i in range(n):
        if draw(st.integers(0, 24)) == 0:
            continue  # a missing row
        width = 3 if dense else draw(st.integers(1, 2))
        pool = states + (["zz"] if draw(st.integers(0, 24)) == 0 else [])  # an unknown target
        targets = draw(st.lists(st.sampled_from(pool), min_size=width, max_size=width, unique=True))
        weights = [draw(st.floats(0.05, 1.0)) for _ in targets]
        delta[f"s{i}"] = _written(targets, weights, draw(scales), draw(forms))
    if draw(st.integers(0, 24)) == 0:
        delta[draw(st.sampled_from(["zz", "f1"]))] = {"s0": 1.0}  # an unknown or failure row
    if draw(st.integers(0, 49)) == 0:
        delta["s0"] = draw(st.sampled_from([[1.0], "abc"]))  # a row that is no object
    sunk = ["s0"] if draw(st.integers(0, 9)) == 0 else []
    if sunk and draw(st.booleans()):
        delta["s0"] = {"s0": 1.0}
    return {
        "attributes": [{"name": "a", "values": [f"v{i}" for i in range(n)]}],
        "failures": [{"id": f, "label": f} for f in ("f1", "f2")],
        "delta": delta,
        "sunk": sunk,
    }


def _outcome(load, doc):
    """The loaded SCG or the exception, and the warnings, of loading `doc`."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            result = load(copy.deepcopy(doc))
        except Exception as exc:  # compared by type and text
            result = exc
    return result, [(w.category, str(w.message)) for w in caught]


def _typed(delta):
    return {sid: [(t, type(p), p) for t, p in row.items()] for sid, row in delta.items()}


def _same_operator(got, want) -> bool:
    if type(got) is not type(want):
        return False
    if isinstance(got, np.ndarray):
        return np.array_equal(got, want)
    return all(
        getattr(got, name).dtype == getattr(want, name).dtype
        and np.array_equal(getattr(got, name), getattr(want, name))
        for name in ("indptr", "indices", "data")
    )


@settings(
    derandomize=True,
    max_examples=400,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
@given(scg_docs())
def test_loader_agrees_with_the_row_loop(doc):
    _assert_loads_alike(doc)


@pytest.mark.parametrize(
    "row",
    [{"s0": math.inf, "f1": -math.inf}, {"s0": math.nan, "f1": 1.0}, {"s0": math.inf}],
    ids=["infinities", "nan", "inf"],
)
@pytest.mark.parametrize("dense", [True, False], ids=["dense", "csr"])
def test_non_finite_floats_leave_the_fast_path_quietly(row, dense):
    # all floats, so the fast path compiles them first; no numpy warning may
    # escape before the row loop names the defect
    n = 3 if dense else 10
    states = [f"s{i}" for i in range(n)] + ["f1", "f2"]
    spread = dict.fromkeys(states, 1 / len(states)) if dense else None
    delta = {f"s{i}": spread or {f"s{i}": 1.0} for i in range(n)}
    doc = scg_to_dict(make_scg({**delta, "s1": row}, n))
    assert isinstance(build_model(make_scg(delta, n)).matrix, np.ndarray) == dense
    _assert_loads_alike(doc)


def _assert_loads_alike(doc):
    got, got_warnings = _outcome(scg_from_dict, doc)
    want, want_warnings = _outcome(reference_scg_from_dict, doc)
    assert got_warnings == want_warnings
    if isinstance(want, Exception):
        assert (type(got), str(got)) == (type(want), str(want))
        return
    assert _typed(got.delta) == _typed(want.delta)
    assert (got.attributes, got.failures, got.sunk) == (want.attributes, want.failures, want.sunk)
    assert _same_operator(build_model(got).matrix, build_model(want).matrix)


def _boundary(edge: float) -> tuple[float, float]:
    """The last total row_violations accepts towards `edge` (1 ± ROW_SUM_ATOL)
    and the first beyond it, adjacent floats."""
    outward = 2.0 if edge > 1.0 else 0.0
    total = edge
    while abs(total - 1.0) <= ROW_SUM_ATOL:
        total = math.nextafter(total, outward)
    while abs(total - 1.0) > ROW_SUM_ATOL:
        total = math.nextafter(total, 1.0)
    return total, math.nextafter(total, outward)


def _row_summing_to(total: float, width: int, add=sum) -> dict[str, float] | None:
    """A row of `width` values in [0, 1] whose sum by `add` (this Python's
    sum by default) is exactly `total`; None if no last value makes it so."""
    values = [0.9 / width] * (width - 1)
    last = total - add(values)
    for _ in range(16):
        row = dict(zip((f"s{i}" for i in range(width)), values + [last]))
        got = add(row.values())
        if got == total:
            return row
        last = math.nextafter(last, 2.0 if got < total else 0.0)
    return None


def _compiles(row: dict, dense: bool) -> bool:
    """Whether build_model compiles an SCG whose s0 takes `row`: 24
    situations, the others one self-loop each (CSR) or eight targets (dense)."""
    n = 24
    if dense:
        rest = {f"s{i}": {f"s{(i + k) % n}": 0.125 for k in range(8)} for i in range(1, n)}
    else:
        rest = {f"s{i}": {f"s{i}": 1.0} for i in range(1, n)}
    try:
        model = build_model(make_scg({"s0": row, **rest}, n))
    except ModelError:
        return False
    assert isinstance(model.matrix, np.ndarray) == dense
    return True


def _around(total: float) -> list[float]:
    return [math.nextafter(total, 0.0), total, math.nextafter(total, 2.0)]


#: the sums 1 ± ROW_SUM_ATOL as floats and one ulp to either side, and the
#: last sum inside the tolerance with the first outside
EDGES = sorted(
    {
        total
        for edge in (1.0 + ROW_SUM_ATOL, 1.0 - ROW_SUM_ATOL)
        for total in _around(edge) + list(_boundary(edge))
    }
)


#: (total, width) of every edge row some last value can make: at widths 1,
#: 2, 10 and 23
EDGE_ROWS = [
    (total, width)
    for total, width in itertools.product(EDGES, (1, 2, 10, 23))
    if _row_summing_to(total, width) is not None
]


@pytest.mark.parametrize("number", [float, np.float64])
@pytest.mark.parametrize("total, width", EDGE_ROWS)
@pytest.mark.parametrize("dense", [True, False], ids=["dense", "csr"])
def test_compile_verdict_at_the_row_sum_tolerance_is_row_violations(total, width, dense, number):
    row = {t: number(p) for t, p in _row_summing_to(total, width).items()}  # float64 fills as float
    valid = row_violations("s0", row, {f"s{i}" for i in range(24)}) == []
    assert _compiles(row, dense) == valid
    assert _compiles({"s0": "1.0"}, dense) is False  # np.fromiter would parse the text


@pytest.mark.parametrize("dense", [True, False], ids=["dense", "csr"])
def test_compile_verdict_follows_a_compensated_sum(monkeypatch, dense):
    # from Python 3.12 on sum is compensated; math.fsum, exactly rounded, stands
    # in for it, so rows near the tolerance must be judged by it, not by the
    # vectorised total
    monkeypatch.setattr(scg_module, "sum", math.fsum, raising=False)
    monkeypatch.setattr(dtmc, "sum", math.fsum, raising=False)
    differ = 0
    for total, width in itertools.product(EDGES, (10, 23)):
        row = _row_summing_to(total, width, math.fsum)
        if row is None:
            continue
        valid = row_violations("s0", row, {f"s{i}" for i in range(24)}) == []
        assert _compiles(row, dense) == valid, (total, width)
        differ += (abs(functools.reduce(operator.add, row.values()) - 1.0) <= ROW_SUM_ATOL) != valid
    assert differ  # some row that left-to-right addition judges otherwise


def test_the_edges_straddle_the_tolerance():
    for edge in (1.0 + ROW_SUM_ATOL, 1.0 - ROW_SUM_ATOL):
        inside, outside = _boundary(edge)
        assert math.nextafter(inside, outside) == outside
        assert abs(inside - 1.0) <= ROW_SUM_ATOL < abs(outside - 1.0)


def test_benchmark_and_saved_documents_take_the_float_path(monkeypatch, tmp_path):
    def row_loop(rows, path):
        raise AssertionError("a float document went through the row loop")

    monkeypatch.setattr(scg_module, "_decode_rows", row_loop)
    grid = gen.grid_doc(gen.derive_seed(1))
    planted, _ = gen.plant_traps(grid, 1, 0)
    path = tmp_path / "scg.json"
    save_scg(random_dense_scg(40, density=0.1, seed=5), path)
    for load, doc in (
        (scg_from_dict, grid),
        (scg_from_dict, planted),
        (scg_from_dict, gen.dense_doc(64, 1, 0)),
        (load_scg, path),
    ):
        assert load(doc).compiled is not None


#: a float document of three situations, and one row of it written otherwise
BASE = {
    "attributes": [{"name": "a", "values": ["v0", "v1", "v2"]}],
    "failures": [{"id": "f1", "label": "f1"}, {"id": "f2", "label": "f2"}],
    "delta": {"s0": {"s0": 0.5, "f1": 0.5}, "s1": {"s1": 0.75, "s2": 0.25}, "s2": {"s2": 1.0}},
}


def _with_s1(row) -> dict:
    return {**BASE, "delta": {**BASE["delta"], "s1": row}}


#: each document, and what loading it gives: s1's row as (target, type,
#: value), its warnings, or the error; text and a bool, which once loaded as
#: floats, are refused at the value's path as decode refuses them
ROW_LOOP_OUTCOMES = {
    "int": (_with_s1({"s1": 1, "s2": 0}), [("s1", float, 1.0), ("s2", float, 0.0)], []),
    "bool": (
        _with_s1({"s1": True}),
        (SchemaError, "expected a finite number, not True [$.delta.s1.s1]"),
        [],
    ),
    "text": (
        _with_s1({"s1": "0.75", "s2": "0.25"}),
        (SchemaError, "expected a finite number, not '0.75' [$.delta.s1.s1]"),
        [],
    ),
    "nan": (
        _with_s1({"s1": math.nan, "s2": 0.25}),
        (ModelError, "invalid augmented SCG: probability-range(s1)"),
        [],
    ),
    "int-nan": (
        _with_s1({"s1": math.nan, "s2": 0}),
        (ModelError, "invalid augmented SCG: probability-range(s1)"),
        [],
    ),
    "renormalise": (
        _with_s1({"s1": 0.75, "s2": 0.2500005}),
        [("s1", float, 0.7499996250001875), ("s2", float, 0.2500003749998125)],
        ["renormalising row 's1' (sum 1.0000005)"],
    ),
    "non-object": (
        _with_s1([0.75, 0.25]),
        (
            SchemaError,
            "a delta row must map ids to numbers: 'list' object has no attribute 'items'"
            " [$.delta.s1]",
        ),
        [],
    ),
    "unknown-target": (
        _with_s1({"s1": 0.75, "zz": 0.25}),
        (ModelError, "invalid augmented SCG: unknown-target(s1)"),
        [],
    ),
    "missing-row": (
        {**BASE, "delta": {"s0": BASE["delta"]["s0"], "s2": BASE["delta"]["s2"]}},
        (ModelError, "invalid augmented SCG: 3 situations, 2 delta rows"),
        [],
    ),
}


def _count_row_loops(monkeypatch) -> list:
    calls = []
    row_loop = scg_module._decode_rows

    def counted(rows, path):
        calls.append(rows)
        return row_loop(rows, path)

    monkeypatch.setattr(scg_module, "_decode_rows", counted)
    return calls


def test_a_float_document_loads_without_the_row_loop(monkeypatch):
    calls = _count_row_loops(monkeypatch)
    for doc in (BASE, gen.dense_doc(64, 1, 0), gen.grid_doc(gen.derive_seed(1))):
        assert scg_from_dict(doc).compiled is not None
    assert calls == []


@pytest.mark.parametrize("name", list(ROW_LOOP_OUTCOMES))
def test_any_other_document_goes_through_the_row_loop_once(name, monkeypatch):
    doc, want, want_warnings = ROW_LOOP_OUTCOMES[name]
    calls = _count_row_loops(monkeypatch)
    got, got_warnings = _outcome(scg_from_dict, doc)
    assert len(calls) == 1
    assert [text for _, text in got_warnings] == want_warnings
    if isinstance(got, Exception):
        assert (type(got), str(got)) == want
    else:
        assert _typed(got.delta)["s1"] == want
        assert build_model(got).matrix.dtype == np.float64


def test_a_loaded_document_owns_its_rows_and_nothing_changes_them():
    doc = gen.dense_doc(40, 3, 0)
    before = copy.deepcopy(doc)
    loaded = scg_from_dict(doc)
    assert all(loaded.delta[sid] is row for sid, row in doc["delta"].items())
    sink_situation(sink_situation(loaded, "s1"), "s2")
    rank_situations(loaded, default_properties())
    assert doc == before


def test_synthesis_leaves_a_loaded_planted_grid_as_it_was():
    properties = proplang.parse_properties_file(workloads.PROPERTIES_DOC)
    doc, traps = gen.plant_traps(gen.grid_doc(gen.derive_seed(1), 3, 4), 1, 0)
    before = copy.deepcopy(doc)
    outcome = synthesize_safe_controller(scg_from_dict(doc), properties, SynthesisConfig())
    assert sorted(outcome.avoided) == sorted(traps)
    assert doc == before


def test_a_run_leaves_the_loaded_snapshot_as_it_was():
    # the drifted world breaks phi1 within the run, so synthesis sinks a situation
    properties = [
        proplang.parse_property("phi1", "P < 0.9 [ F<=50 f1 ]"),
        proplang.parse_property("phi2", "P < 0.95 [ F<=50 f2 ]"),
    ]
    truth, belief = generate_scenario(ScenarioConfig(seed=7, drift_magnitude=1.0, drift_time=60))
    kb = new_knowledge_base(belief, properties, EstimatorConfig(mode="bayesian"))
    doc = runtime.snapshot(kb)
    before = copy.deepcopy(doc)
    loaded = runtime.load(doc)
    assert loaded.prior_scg.delta["s0"] is doc["prior_scg"]["delta"]["s0"]
    log = runtime.run(loaded, simulate(truth, 300, 9))
    assert any(entry.outcome and entry.outcome.success for entry in log)
    assert len(loaded.controllers) == 2
    assert doc == before
