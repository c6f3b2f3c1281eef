"""Malformed documents raise an OddsafeError, never anything else.

Every loader gets valid documents with one node replaced by an arbitrary JSON
value (or removed), and arbitrary JSON documents.  The examples are
derandomized and bounded, so each run tries the same documents.
"""

from __future__ import annotations

import copy
import math
import warnings
from dataclasses import asdict
from decimal import Decimal
from fractions import Fraction
from functools import partial

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from oddsafe.dtmc import build_model
from oddsafe.errors import ModelError, OddsafeError, SchemaError
from oddsafe.experiments import VariantConfig
from oddsafe.proplang import parse_properties_file
from oddsafe.runtime import TraceEvent, load, new_knowledge_base, run, snapshot
from oddsafe.scg import ROW_SUM_ATOL, decode, row_violations, scg_from_dict, scg_to_dict

from helpers import make_scg

FUZZ = settings(
    derandomize=True,
    max_examples=150,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)

#: probabilities that are not plain floats in [0, 1], and the edges of the
#: float fast path: strings, bools, null, NaN, infinities, ints, a signed zero
ODD_NUMBERS = st.sampled_from(
    ["0.5", "nan", "inf", "abc", "", True, False, None, math.nan, math.inf, -math.inf,
     0, 1, 2, -1, -0.0, 10**400, 1.0 + ROW_SUM_ATOL, 1.5e-7]
)
SCALARS = (
    st.none()
    | st.booleans()
    | st.integers()
    | st.floats(allow_nan=True, allow_infinity=True)
    | st.text(max_size=4)
    | ODD_NUMBERS
)
JSON = st.recursive(
    SCALARS,
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=6,
)
REMOVE = object()


def _paths(node, prefix=()):
    yield prefix
    if isinstance(node, dict):
        for key, child in node.items():
            yield from _paths(child, prefix + (key,))
    elif isinstance(node, list):
        for i, child in enumerate(node):
            yield from _paths(child, prefix + (i,))


def _replaced(doc, path, value):
    if not path:
        return None if value is REMOVE else value
    doc = copy.deepcopy(doc)
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    if value is REMOVE:
        del parent[path[-1]]
    else:
        parent[path[-1]] = value
    return doc


def mutants(doc):
    """`doc` with one node replaced by a JSON value or removed; or any JSON."""
    one_node = st.tuples(st.sampled_from(list(_paths(doc))), JSON | st.just(REMOVE))
    return one_node.map(lambda pv: _replaced(doc, *pv)) | JSON


def _returns_or_raises_oddsafe_error(fn, doc):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # renormalised rows warn
        try:
            fn(doc)
        except OddsafeError:
            pass


SCG_DOC = scg_to_dict(
    make_scg(
        {"s0": {"s0": 0.5, "s1": 0.25, "f1": 0.25}, "s1": {"s1": 1.0}, "s2": {"s0": 0.9, "f2": 0.1}},
        3,
    )
)
SCG_DOC["sunk"] = ["s1"]


def _loads_hashable_failures(doc):
    # a loaded FailureMode is a frozen dataclass: hashing it must not raise
    hash(scg_from_dict(doc).failures)


@FUZZ
@given(mutants(SCG_DOC))
def test_scg_from_dict_returns_or_raises_oddsafe_error(doc):
    _returns_or_raises_oddsafe_error(_loads_hashable_failures, doc)


@FUZZ
@given(st.sampled_from([0, 1]), JSON)
def test_scg_from_dict_on_odd_descriptions(i, description):
    doc = copy.deepcopy(SCG_DOC)
    doc["failures"][i]["description"] = description
    try:
        loaded = scg_from_dict(doc)
    except SchemaError as exc:
        assert not isinstance(description, str)
        assert exc.paths == [f"$.failures[{i}].description"]
    else:
        assert loaded.failures[i].description == description
        hash(loaded.failures)


@FUZZ
@given(st.sampled_from(["s0", "s2"]), st.sampled_from(["s0", "f1", "f2", "zz"]), ODD_NUMBERS)
def test_scg_from_dict_on_odd_probabilities(sid, target, p):
    doc = copy.deepcopy(SCG_DOC)
    doc["delta"][sid][target] = p
    _returns_or_raises_oddsafe_error(scg_from_dict, doc)


def _snapshot_doc():
    belief = make_scg(
        {"s0": {"f1": 0.9, "s0": 0.1}, "s1": {"s0": 0.5, "s1": 0.5}, "s2": {"s2": 0.99, "f1": 0.01}},
        3,
    )
    properties = parse_properties_file([{"name": "phi", "expression": "P < 0.5 [ F<=50 f1 ]"}])
    kb = new_knowledge_base(belief, properties)
    events = [TraceEvent(0, "situation_entered", "s1"), TraceEvent(1, "situation_entered", "s0")]
    run(kb, events)
    return snapshot(kb)


SNAPSHOT_DOC = _snapshot_doc()


@settings(FUZZ, max_examples=60)
@given(mutants(SNAPSHOT_DOC))
def test_load_returns_or_raises_oddsafe_error(doc):
    _returns_or_raises_oddsafe_error(load, doc)


@FUZZ
@given(mutants({"t": 3, "kind": "situation_entered", "id": "s0"}))
def test_trace_event_returns_or_raises_oddsafe_error(doc):
    _returns_or_raises_oddsafe_error(partial(decode, TraceEvent), doc)


@FUZZ
@given(mutants(asdict(VariantConfig())))
def test_variant_config_returns_or_raises_oddsafe_error(doc):
    _returns_or_raises_oddsafe_error(partial(decode, VariantConfig), doc)


@FUZZ
@given(
    mutants(
        [
            {"name": "phi1", "expression": "P < 0.99 [ F<=50 f1 ]"},
            {"name": "phi2", "expression": "P=? [ F<=5 f2 ] >= 0.5"},
        ]
    )
)
def test_parse_properties_file_returns_or_raises_oddsafe_error(doc):
    _returns_or_raises_oddsafe_error(parse_properties_file, doc)


STATES = {"s0", "s1", "f1"}
INSIDE = 0.99 * ROW_SUM_ATOL


def _compiles(row, dense: bool) -> bool:
    """Whether build_model compiles an SCG whose s0 takes `row`, the other rows
    making its operator dense or CSR; a rejection is require_valid's ModelError."""
    if dense:
        rest = {"s1": dict.fromkeys(("s0", "s1", "f1", "f2"), 0.25)}
    else:
        rest = {f"s{i}": {f"s{i}": 1.0} for i in range(1, 8)}
    try:
        model = build_model(make_scg({"s0": row, **rest}, len(rest) + 1))
    except ModelError:
        return False
    assert isinstance(model.matrix, np.ndarray) == dense
    return True


@pytest.mark.parametrize(
    "row, valid",
    [
        ({"s0": 1.0}, True),
        ({}, False),  # sums to 0
        ({"s0": math.nan}, False),
        ({"s0": 0.5, "s1": math.nan}, False),
        ({"s0": math.inf}, False),
        ({"s0": -math.inf, "s1": math.inf}, False),  # sums to NaN
        ({"s0": 1.0, "s1": -0.0}, True),
        ({"s0": -0.0, "s1": 1.0}, True),
        ({"s0": 1.0 - ROW_SUM_ATOL}, True),  # the sum's last value inside
        ({"s0": math.nextafter(1.0 - ROW_SUM_ATOL, 0.0)}, False),
        ({"s0": 0.5, "s1": 0.5 + INSIDE}, True),
        ({"s0": 0.5, "s1": 0.5 + ROW_SUM_ATOL}, False),
        ({"s0": 0.5, "s1": 0.5 - ROW_SUM_ATOL}, False),
        ({"s0": 1.0 + INSIDE}, False),  # the sum is inside, the value above 1
        ({"s0": 1.0 + ROW_SUM_ATOL / 2, "s1": -ROW_SUM_ATOL / 2}, False),
        ({"s0": 1.5, "s1": -0.5}, False),
        ({"zz": 1.0}, False),
        ({"s0": 0.5, "zz": 0.5}, False),
        ({"s0": 1, "s1": 0}, True),
        ({"s0": True}, True),
        ({"s0": np.True_}, False),  # a numpy bool is no number to the compile
        ({"s0": 10**400}, False),  # an int too large for a float
        ({"s0": Fraction(1, 2), "s1": Fraction(1, 2)}, True),  # any number, read as its float
        ({"s0": Decimal("0.5"), "s1": Decimal("0.5")}, True),
        ({"s0": Decimal("0.5"), "s1": Decimal("0.25")}, False),
    ],
)
def test_compile_agrees_with_row_violations_on_edges(row, valid):
    assert (row_violations("s0", row, STATES) == []) == valid
    assert _compiles(row, dense=True) == _compiles(row, dense=False) == valid


@FUZZ
@given(
    st.dictionaries(
        st.sampled_from(sorted(STATES | {"zz"})),
        st.floats(allow_nan=True, allow_infinity=True) | st.sampled_from([0.5, 0.25, -0.0, 1.0]),
        max_size=4,
    )
)
def test_compile_agrees_with_row_violations(row):
    valid = row_violations("s0", row, STATES) == []
    assert _compiles(row, dense=True) == _compiles(row, dense=False) == valid
