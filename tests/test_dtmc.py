import json
import operator
import random
import subprocess
from collections import Counter, defaultdict
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp

from oddsafe import dtmc
from oddsafe import scg as scg_module
from oddsafe.dtmc import (
    BoundedReachProperty,
    CriticalityReport,
    Dtmc,
    bounded_reach_vector,
    build_model,
    rank_situations,
    reach_vectors,
    score_situations,
    score_value,
    transition_matrix,
    write_rows,
)
from oddsafe.errors import ModelError, NotFoundError, PropertyError
from oddsafe.experiments import random_dense_scg
from oddsafe.scg import (
    AugmentedScg,
    StateSpace,
    require_valid,
    require_valid_row,
    scg_from_dict,
    scg_to_dict,
    sink_situation,
)

from helpers import (
    grid_doc,
    make_scg,
    plain_reach_vector,
    random_scg,
    reach_by_paths,
    scg_rows_with_sinks,
)

CHECKOUT = Path(__file__).resolve().parents[1]


def test_transition_matrix_layout():
    scg = make_scg({"s0": {"s1": 0.5, "f1": 0.5}, "s1": {"s1": 1.0}}, 2)
    states, mat = transition_matrix(scg)
    assert states == ["s0", "s1", "f1", "f2"]
    assert mat[0].tolist() == [0.0, 0.5, 0.5, 0.0]
    assert mat[2, 2] == 1.0 and mat[3, 3] == 1.0  # failure self-loops
    assert np.allclose(mat.sum(axis=1), 1.0)


def test_build_model_errors():
    # a row that does not sum to 1 is rejected, never compiled into a model
    scg = make_scg({"s0": {"s0": 0.5}, "s1": {"s1": 1.0}}, 2)
    with pytest.raises(ModelError):
        build_model(scg)
    with pytest.raises(ModelError):
        rank_situations(scg, [BoundedReachProperty("p", "f1", 5, "<", 0.5)])


#: each breaks the row rule in the row of s0
BAD_ROWS = {
    "unknown-target": {"s0": 0.5, "zz": 0.5},
    "nan": {"s0": float("nan"), "f1": 1.0},
    "inf": {"s0": float("inf")},
    "infinities": {"s0": float("inf"), "f1": float("-inf")},
    "negative": {"s0": 1.5, "f1": -0.5},
    "above-one": {"s0": 1.0 + 1e-10, "f1": -1e-10},
    "row-sum": {"s0": 0.5},
    "empty": {},
    "not-a-number": {"s0": "1.0"},
    "text": {"s0": 0.5, "f1": "half"},  # out of range, and no row sum to check
}


#: rows of s0 with exactly 4 keys, as many as the dense SCG has states, so the
#: state-order fill reads every row of it; each breaks the row rule
COMPLETE_BAD_ROWS = {
    "unknown-target": {"s0": 0.5, "s1": 0.0, "f1": 0.5, "zz": 0.0},  # zz in place of f2
    "nan": {"s0": float("nan"), "s1": 0.0, "f1": 1.0, "f2": 0.0},
    "inf": {"f2": 0.0, "s0": float("inf"), "s1": 0.0, "f1": 0.0},
    "negative": {"s0": 1.5, "s1": 0.0, "f1": -0.5, "f2": 0.0},
    "above-one": {"f1": -1e-10, "s0": 1.0 + 1e-10, "s1": 0.0, "f2": 0.0},
    "row-sum": {"s0": 0.5, "s1": 0.25, "f1": 0.0, "f2": 0.0},
    "not-a-number": {"s0": "1.0", "s1": 0.0, "f1": 0.0, "f2": 0.0},
    "text": {"s0": 0.5, "s1": 0.0, "f1": "half", "f2": 0.5},
    "bool": {"s0": True, "s1": 0.5, "f1": 0.0, "f2": 0.0},  # sums to 1.5
    "int": {"s0": 2, "s1": 0, "f1": -1, "f2": 0},  # sums to 1, out of range
}


def _scg_with_row(row, dense, drop=(), extra=None, **kw):
    """s0 takes `row`; the other rows spread over all 4 states of a 2-situation
    SCG, so its operator is dense, or self-loop in an 8-situation one (CSR)."""
    n = 2 if dense else 8
    delta = {
        f"s{i}": {t: 0.25 for t in ("s0", "s1", "f1", "f2")} if dense else {f"s{i}": 1.0}
        for i in range(n)
    }
    delta.update({"s0": row, **(extra or {})})
    for sid in drop:
        del delta[sid]
    return make_scg(delta, n, **kw)


def _invalid_scgs(dense, bad_rows=BAD_ROWS):
    cases = {name: _scg_with_row(row, dense) for name, row in bad_rows.items()}
    cases.update(
        {
            "missing-row": _scg_with_row({"s0": 1.0}, dense, drop=["s1"]),
            "failure-row": _scg_with_row({"s0": 1.0}, dense, extra={"f1": {"f1": 1.0}}),
            "unknown-row": _scg_with_row({"s0": 1.0}, dense, extra={"zz": {"s0": 1.0}}),
            "sunk": _scg_with_row({"s0": 0.5, "f1": 0.5}, dense, sunk=frozenset({"s0", "sX"})),
            "labels": _scg_with_row({"s0": 1.0}, dense, failures=("f1", "f1")),
            "missing-and-bad": _scg_with_row({"zz": 2.0}, dense, drop=["s1"], sunk={"s1"}),
        }
    )
    return cases


#: cases scg_from_dict settles before it compiles: "1.0" decodes as a number
#: and "half" and True as none; sums beyond renormalisation and grids larger
#: than delta are rejected first
DECODED_FIRST = {
    "not-a-number", "text", "bool", "row-sum", "empty", "inf", "missing-row", "missing-and-bad"
}


def _load(scg):
    return scg_from_dict(scg_to_dict(scg))


@pytest.mark.parametrize(
    "dense, bad_rows",
    [(True, BAD_ROWS), (False, BAD_ROWS), (True, COMPLETE_BAD_ROWS)],
    ids=["dense", "csr", "complete"],
)
def test_build_model_rejects_as_require_valid_does(dense, bad_rows, monkeypatch):
    _, mat = transition_matrix(_scg_with_row({"s0": 1.0}, dense))
    assert isinstance(mat, np.ndarray) == dense
    fills = _state_order_fills(monkeypatch)
    for name, scg in _invalid_scgs(dense, bad_rows).items():
        with pytest.raises(ModelError) as expected:
            require_valid(scg)
        if name in bad_rows:
            with pytest.raises(ModelError):
                require_valid_row(scg, "s0", bad_rows[name])
        for compile_ in (build_model, _load):
            if compile_ is _load and name in DECODED_FIRST:
                continue
            fills.clear()
            with pytest.raises(Exception) as got:
                compile_(scg)
            expect = (type(expected.value), str(expected.value))
            assert (type(got.value), str(got.value)) == expect, (name, compile_.__name__)
            # each complete bad row is read by the state-order fill
            assert bool(fills) == (name in bad_rows and bad_rows is COMPLETE_BAD_ROWS), name


def _coo_reference(scg):
    """The CSR operator of `scg` built independently of transition_matrix:
    COO triplets to CSR, then sorted columns and no explicit zeros."""
    index = {sid: i for i, sid in enumerate(scg.space.ids)}
    triplets = [
        (index[s], index[t], p) for s in scg.situation_ids for t, p in scg.delta[s].items()
    ]
    triplets += [(index[f], index[f], 1.0) for f in scg.failure_ids]
    rows, cols, vals = zip(*triplets)
    ref = sp.coo_matrix((vals, (rows, cols)), shape=(len(index),) * 2).tocsr()
    ref.sort_indices()
    ref.eliminate_zeros()
    return ref


def _grid_with_zeros():
    # every third row gains an explicit 0.0 or -0.0 for a target it lacks
    doc = grid_doc()
    for k, row in enumerate(doc["delta"].values()):
        if k % 3 == 0 and "f1" not in row:
            row["f1"] = -0.0 if k % 2 else 0.0
    return doc


@pytest.mark.parametrize("make_doc", [grid_doc, _grid_with_zeros], ids=["grid", "zeros"])
def test_csr_arrays_equal_an_independent_build(make_doc):
    scg = scg_from_dict(make_doc())
    _, mat = transition_matrix(scg)
    ref = _coo_reference(scg)
    assert len(scg.situations) == 4096 and isinstance(mat, sp.csr_matrix)
    assert mat.data.dtype == np.float64 and mat.indices.dtype == np.int32
    for name in ("data", "indices", "indptr"):
        got, want = getattr(mat, name), getattr(ref, name)
        assert got.dtype == want.dtype and np.array_equal(got, want), name
    lengths = sum(map(len, scg.delta.values())) + len(scg.failures)
    assert (mat.nnz < lengths) == (make_doc is _grid_with_zeros)


def _dense_reference(scg):
    """The dense operator of `scg` built independently of transition_matrix:
    np.zeros, then each situation's row filled entry by entry."""
    index = {sid: i for i, sid in enumerate(scg.space.ids)}
    ref = np.zeros((len(index), len(index)))
    for sid in scg.situation_ids:
        for target, p in scg.delta[sid].items():
            ref[index[sid], index[target]] = p
    for fid in scg.failure_ids:
        ref[index[fid], index[fid]] = 1.0
    return ref


def _check_dense_doc():
    # the first document of the check-dense benchmark workload at seed 7
    if str(CHECKOUT) not in sys.path:
        sys.path.insert(0, str(CHECKOUT))
    from perfbench import gen, workloads

    return gen.dense_doc(workloads.SCALES["full"].dense_n, 7, 0)


def _dense_with_zeros():
    # every third row moves its f1 mass to its first target and keeps f1 as
    # an explicit 0.0 or -0.0
    doc = scg_to_dict(random_dense_scg(40, seed=11))
    for k, row in enumerate(doc["delta"].values()):
        if k % 3 == 0:
            first = next(t for t in row if t != "f1")
            row[first] += row["f1"]
            row["f1"] = -0.0 if k % 2 else 0.0
    return doc


def _cutoff_doc(nonzeros: int, zeros: int = 0) -> dict:
    """18 situations and 2 failures, so 100 of the 400 entries sit at
    SPARSE_DENSITY_CUTOFF: `nonzeros` situation entries, and explicit zeros
    (0.0, -0.0, ...) for f1 in the first `zeros` rows."""
    m = 18
    widths = [nonzeros // m + (i < nonzeros % m) for i in range(m)]
    delta = {}
    for i, width in enumerate(widths):
        delta[f"s{i}"] = {f"s{(i + k) % m}": 1.0 / width for k in range(width)}
        if i < zeros:
            delta[f"s{i}"]["f1"] = -0.0 if i % 2 else 0.0
    return scg_to_dict(make_scg(delta, m))


@pytest.mark.parametrize(
    "make_doc",
    [_check_dense_doc, _dense_with_zeros, lambda: _cutoff_doc(99)],
    ids=["check-dense", "zeros", "one-above-cutoff"],
)
def test_dense_operator_equals_an_independent_build(make_doc):
    scg = scg_from_dict(make_doc())
    _, mat = transition_matrix(scg)
    ref = _dense_reference(scg)
    assert isinstance(mat, np.ndarray) and mat.dtype == ref.dtype == np.float64
    assert np.array_equal(mat, ref)
    assert np.array_equal(np.signbit(mat), np.signbit(ref))  # -0.0 stays -0.0, bit for bit


@pytest.mark.parametrize(
    "nonzeros, zeros",
    [(98, 0), (97, 0), (97, 2)],
    ids=["at-cutoff", "one-below-cutoff", "lengths-dense-nonzeros-csr"],
)
def test_an_operator_at_or_below_the_cutoff_is_csr(nonzeros, zeros):
    scg = scg_from_dict(_cutoff_doc(nonzeros, zeros))
    lengths = sum(map(len, scg.delta.values())) + len(scg.failures)
    assert dtmc._is_dense(lengths, 20) == (zeros > 0)  # the row lengths alone say dense
    _, mat = transition_matrix(scg)
    ref = _coo_reference(scg)
    assert isinstance(mat, sp.csr_matrix) and mat.nnz == nonzeros + 2
    for name in ("data", "indices", "indptr"):
        got, want = getattr(mat, name), getattr(ref, name)
        assert got.dtype == want.dtype and np.array_equal(got, want), name


def _state_order_fills(monkeypatch) -> list:
    """Record each state-order fill, by the state ids its getter reads."""
    fills = []

    def getter(*ids):
        fills.append(ids)
        return operator.itemgetter(*ids)

    monkeypatch.setattr(dtmc, "itemgetter", getter)
    return fills


def _complete_scg(m: int, seed: int, zeros: bool = False, ints: bool = False) -> AugmentedScg:
    """m situations and 2 failures, each row naming all m + 2 states in its
    own shuffled key order.  Rows are random and dense, every fifth value a
    -0.0; with `zeros`, only self and next carry mass, 0.5 each, and every
    other entry is an explicit 0.0 or -0.0; with `ints` too, those zeros are
    the int 0 and each even row is the int 1 on self."""
    rng = np.random.default_rng(seed)
    ids = [f"s{i}" for i in range(m)] + ["f1", "f2"]
    delta = {}
    for i in range(m):
        if zeros:
            mass = {f"s{i}": 1} if ints and i % 2 == 0 else {f"s{i}": 0.5, f"s{(i + 1) % m}": 0.5}
            zero = 0 if ints else 0.0
            values = [mass.get(t, -zero if (i + k) % 2 else zero) for k, t in enumerate(ids)]
        else:
            values = rng.dirichlet(np.ones(len(ids))).tolist()
            for k in range(i % 5, len(ids), 5):
                values[(k + 1) % len(ids)] += values[k]
                values[k] = -0.0
        order = rng.permutation(len(ids)).tolist()
        delta[f"s{i}"] = {ids[k]: values[k] for k in order}
    return make_scg(delta, m)


@pytest.mark.parametrize(
    "scg, dense",
    [
        (_complete_scg(30, 1), True),
        (_complete_scg(30, 2, zeros=True), False),
        (_complete_scg(2, 3, zeros=True), True),  # 6 nonzeros of 16
        (_complete_scg(30, 4, zeros=True, ints=True), False),
        (_complete_scg(2, 5, zeros=True, ints=True), True),  # 5 nonzeros of 16
        (make_scg({"s0": {"s0": 1.0}}, 1, failures=()), True),
    ],
    ids=["shuffled", "zeros-csr", "zeros-dense", "ints-csr", "ints-dense", "one-state"],
)
def test_complete_rows_compile_to_an_independent_build(scg, dense, monkeypatch):
    fills = _state_order_fills(monkeypatch)
    _, mat = transition_matrix(scg)
    assert len(fills) == (len(scg.space.ids) > 1)  # one state: the getter would give no tuple
    if dense:
        ref = _dense_reference(scg)
        assert isinstance(mat, np.ndarray) and mat.dtype == ref.dtype == np.float64
        assert mat.shape == ref.shape and np.array_equal(mat, ref)
        assert np.array_equal(np.signbit(mat), np.signbit(ref))  # -0.0 stays -0.0
        assert mat.flags.c_contiguous and mat.flags.writeable  # write_rows writes into it
        return
    ref = _coo_reference(scg)
    assert isinstance(mat, sp.csr_matrix) and mat.has_sorted_indices
    for name in ("data", "indices", "indptr"):
        got, want = getattr(mat, name), getattr(ref, name)
        assert got.dtype == want.dtype and np.array_equal(got, want), name
    assert not np.signbit(mat.data).any()  # every explicit zero, -0.0 too, is dropped


def test_a_row_of_another_mapping_type_keeps_the_scatter_fill(monkeypatch):
    # a defaultdict would answer the getter's lookup of the state it lacks
    row = defaultdict(float, COMPLETE_BAD_ROWS["unknown-target"])
    fills = _state_order_fills(monkeypatch)
    with pytest.raises(ModelError, match=r"unknown-target\(s0\)"):
        build_model(_scg_with_row(row, True))
    assert fills == [] and row == COMPLETE_BAD_ROWS["unknown-target"]


def test_only_rows_naming_every_state_take_the_state_order_fill(monkeypatch):
    from oddsafe.marsim import ScenarioConfig, generate_scenario

    fills = _state_order_fills(monkeypatch)
    for scg in (scg_from_dict(_check_dense_doc()), random_dense_scg(40, seed=0)):
        build_model(scg)
        assert fills == [scg.space.ids]
        fills.clear()
    _, belief = generate_scenario(ScenarioConfig(seed=7))
    for scg in (scg_from_dict(grid_doc()), scg_from_dict(_cutoff_doc(99)), belief):
        build_model(scg)
        assert fills == []


def _counted(calls, name, fn):
    def counted(*args):
        calls[name] += 1
        return fn(*args)

    return counted


def test_a_valid_scg_is_walked_once_per_boundary(monkeypatch):
    # loading validates by compiling; the first build_model takes that model
    calls = Counter()
    monkeypatch.setattr(
        scg_module, "row_violations", _counted(calls, "row_violations", scg_module.row_violations)
    )
    monkeypatch.setattr(
        dtmc, "transition_matrix", _counted(calls, "transition_matrix", dtmc.transition_matrix)
    )
    for scg in (random_dense_scg(30, seed=3), random_dense_scg(60, density=0.05, seed=4)):
        loaded = scg_from_dict(scg_to_dict(scg))
        assert calls == {"transition_matrix": 1}
        calls.clear()
        model = build_model(loaded)
        assert calls == {}
        assert isinstance(model.matrix, np.ndarray) == (len(scg.situations) == 30)
        again = build_model(loaded)  # the model was handed off: compile anew
        assert calls == {"transition_matrix": 1}
        calls.clear()
        assert again.matrix is not model.matrix
        assert (again.space, again.labels) == (model.space, model.labels)
        assert type(again.matrix) is type(model.matrix)
        assert np.array_equal(_as_array(again.matrix), _as_array(model.matrix))


def _as_array(mat):
    return mat if isinstance(mat, np.ndarray) else mat.toarray()


def test_check_bounded_reach_hand_example():
    scg = make_scg({"s0": {"f1": 0.5, "s0": 0.5}, "s1": {"s1": 1.0}}, 2)
    props = [
        BoundedReachProperty("k1", "f1", 1, "<", 1.0),
        BoundedReachProperty("k2", "f1", 2, "<", 1.0),
        BoundedReachProperty("k50", "f2", 50, "<", 1.0),
    ]
    records = rank_situations(scg, props).records["s0"]
    assert records["k1"].value == 0.5
    assert records["k2"].value == 0.75
    assert records["k50"].value == 0.0


def test_check_bounded_reach_horizon_zero_is_indicator():
    scg = make_scg({"s0": {"f1": 1.0}, "s1": {"s1": 1.0}}, 2)
    states, mat = transition_matrix(scg)
    x = bounded_reach_vector(mat, {states.index("f1")}, 0)
    assert x.tolist() == [0.0, 0.0, 1.0, 0.0]


def test_check_bounded_reach_errors():
    scg = make_scg({"s0": {"s0": 1.0}, "s1": {"s1": 1.0}}, 2)
    with pytest.raises(NotFoundError):
        rank_situations(scg, [BoundedReachProperty("p", "nope", 5, "<", 0.5)])


def test_reach_vectors_reject_values_outside_unit_interval():
    # row 0 sums to 2, so two sweeps take its reach value to 2.0
    space = StateSpace(1, ("f",))
    model = Dtmc(
        space=space,
        matrix=np.array([[1.0, 1.0], [0.0, 1.0]]),
        labels={"f": {1}},
    )
    prop = BoundedReachProperty("p", "f", 2, "<", 0.5)
    with pytest.raises(ModelError):
        reach_vectors(model, [prop])
    within = reach_vectors(model, [BoundedReachProperty("p", "f", 1, "<", 0.5)])
    assert within["p"].tolist() == [1.0, 1.0]


def test_an_unentered_target_is_its_indicator_without_a_sweep(monkeypatch):
    # f1 is fed by no situation row, or by one alone, a non-target row that
    # must still be swept; "mix" holds s0 and f1, and s0 may feed f1 from
    # inside the target set
    rng = random.Random(31)
    calls = []
    kernel = dtmc.bounded_reach_vector

    def counted(matrix, targets, k):
        calls.append(k)
        return kernel(matrix, targets, k)

    monkeypatch.setattr(dtmc, "bounded_reach_vector", counted)
    seen = Counter()
    for _ in range(60):
        delta = dict(random_scg(rng, n_situations=rng.randint(20, 40), failures=("f2",)).delta)
        if rng.random() < 0.5:
            sid = rng.choice(sorted(delta))
            share = rng.uniform(0.01, 0.5)
            delta[sid] = {**{t: p * (1.0 - share) for t, p in delta[sid].items()}, "f1": share}
        model = build_model(make_scg(delta, len(delta)))
        assert isinstance(model.matrix, sp.csr_matrix)
        index = model.space.index
        model.labels["mix"] = {index["s0"], index["f1"]}
        dense = model.matrix.toarray()
        for label, targets in model.labels.items():
            others = np.ones(len(dense), bool)
            others[sorted(targets)] = False
            entered = bool(dense[others][:, sorted(targets)].any())
            seen[entered] += 1
            for k in (1, 2, 5, 50):
                calls.clear()
                x = reach_vectors(model, [BoundedReachProperty("p", label, k, "<", 0.5)])["p"]
                assert x.tobytes() == plain_reach_vector(model.matrix, targets, k).tobytes()
                assert calls == [k] * entered
            # a dense operator is swept whatever enters its targets
            calls.clear()
            as_dense = Dtmc(model.space, dense, model.labels)
            reach_vectors(as_dense, [BoundedReachProperty("p", label, 3, "<", 0.5)])
            assert calls == [3]
    assert min(seen[True], seen[False]) >= 30, seen


def test_property_validation():
    with pytest.raises(ValueError):
        BoundedReachProperty("p", "f1", 50, "==", 0.5)
    with pytest.raises(ValueError):
        BoundedReachProperty("p", "f1", 50, "<", 1.5)
    with pytest.raises(ValueError):
        BoundedReachProperty("p", "f1", 0, "<", 0.5)
    assert BoundedReachProperty("p", "f1", 1, "<", 0.5).is_upper_bound
    assert not BoundedReachProperty("p", "f1", 1, ">=", 0.5).is_upper_bound


def test_score_value_signs():
    upper = BoundedReachProperty("u", "f1", 10, "<", 0.9)
    lower = BoundedReachProperty("l", "f1", 10, ">=", 0.9)
    r = score_value(0.95, upper)
    assert r.score == pytest.approx(0.05) and not r.compliant
    r = score_value(0.85, upper)
    assert r.score == pytest.approx(-0.05) and r.compliant
    r = score_value(0.85, lower)
    assert r.score == pytest.approx(0.05) and not r.compliant


def test_score_value_strict_boundary():
    strict = BoundedReachProperty("u", "f1", 10, "<", 0.9)
    loose = BoundedReachProperty("u", "f1", 10, "<=", 0.9)
    assert score_value(0.9, strict).score == 0.0
    assert not score_value(0.9, strict).compliant
    assert score_value(0.9, loose).compliant


def test_rank_situations_tie_breaks_to_smallest_id():
    scg = make_scg(
        {"s0": {"f1": 0.5, "s0": 0.5}, "s1": {"f1": 0.5, "s1": 0.5}}, 2
    )
    prop = BoundedReachProperty("p", "f1", 3, "<", 0.5)
    report = rank_situations(scg, [prop])
    worst = report.to_dict()["worst_scores"]
    assert worst["s0"] == worst["s1"]
    assert report.worst_situation == "s0"


def test_rank_situations_skips_sunk():
    scg = make_scg({"s0": {"f1": 1.0}, "s1": {"s1": 1.0}}, 2)
    sunk = sink_situation(scg, "s0")
    prop = BoundedReachProperty("p", "f1", 5, "<", 0.5)
    report = rank_situations(sunk, [prop])
    assert set(report.records) == {"s1"}
    assert report.all_compliant()


def test_rank_situations_matches_per_situation_models():
    rng = random.Random(5)
    scg = random_scg(rng, n_situations=5)
    props = [
        BoundedReachProperty("p1", "f1", 7, "<", 0.4),
        BoundedReachProperty("p2", "f2", 3, "<=", 0.2),
    ]
    report = rank_situations(scg, props)
    rows = scg_rows_with_sinks(scg)
    for sid in scg.situation_ids:
        for prop in props:
            expected = reach_by_paths(rows, sid, {prop.target_label}, prop.horizon)
            assert report.records[sid][prop.name].value == pytest.approx(
                expected, abs=1e-12
            )


def test_rank_situations_requires_properties():
    scg = make_scg({"s0": {"s0": 1.0}}, 1)
    with pytest.raises(PropertyError, match="at least one property"):
        rank_situations(scg, [])


def _dict_filled(scg):
    states = scg.space.ids
    mat = np.zeros((len(states), len(states)))
    for sid, row in scg.delta.items():
        for target, p in row.items():
            mat[states.index(sid), states.index(target)] = p
    for fid in scg.failure_ids:
        mat[states.index(fid), states.index(fid)] = 1.0
    return mat


def test_sparse_path_matches_oracle():
    # 30 situations with row support 3 puts the matrix below the CSR cutoff
    rng = random.Random(11)
    scg = random_scg(rng, n_situations=30)
    states, mat = transition_matrix(scg)
    assert isinstance(mat, sp.csr_matrix)
    assert mat.indices.dtype == np.int32 and mat.has_sorted_indices
    assert np.array_equal(mat.toarray(), _dict_filled(scg))
    rows = {f"s{i}": {f"s{j}": 1.0 / 5 for j in range(5)} for i in range(5)}
    dense_scg = make_scg(rows, 5)
    _, dense = transition_matrix(dense_scg)
    assert isinstance(dense, np.ndarray)
    assert np.array_equal(dense, _dict_filled(dense_scg))
    index = {sid: i for i, sid in enumerate(states)}
    rows = scg_rows_with_sinks(scg)
    x = bounded_reach_vector(mat, {index["f1"]}, 4)
    for sid in scg.situation_ids:
        expected = reach_by_paths(rows, sid, {"f1"}, 4)
        assert x[index[sid]] == pytest.approx(expected, abs=1e-10)
    # 8 states: dense above 16 nonzeros; explicit zeros lift every row length
    # above the cutoff, and only the nonzeros, straddling it, decide the layout
    ring = {f"s{i}": {f"s{i}": 0.5, f"s{(i + 1) % 6}": 0.5} for i in range(6)}
    for extra, layout in ((2, sp.csr_matrix), (3, np.ndarray)):
        rows = {sid: {**row, "f2": 0.0, "f1": -0.0} for sid, row in ring.items()}
        for i in range(extra):  # 12 ring and 2 failure nonzeros, plus these
            rows[f"s{i}"] = {f"s{i}": 0.5, f"s{(i + 1) % 6}": 0.25, f"s{(i + 2) % 6}": 0.25, "f2": 0.0}
        zeros = make_scg(rows, 6)
        _, mat = transition_matrix(zeros)
        assert type(mat) is layout
        assert np.array_equal(_as_array(mat), _dict_filled(zeros))
        if layout is np.ndarray:
            assert mat.dtype == np.float64
            continue
        no_zeros = {sid: {t: p for t, p in row.items() if p} for sid, row in rows.items()}
        _assert_fresh_csr(mat, make_scg(no_zeros, 6))  # as the nonzeros alone build it


def test_report_round_trip_and_queries():
    scg = make_scg({"s0": {"f1": 0.9, "s0": 0.1}, "s1": {"s1": 1.0}}, 2)
    prop = BoundedReachProperty("p", "f1", 10, "<", 0.5)
    report = rank_situations(scg, [prop])
    assert not report.all_compliant()
    assert rank_situations(sink_situation(scg, "s0"), [prop]).all_compliant()
    # a report is written and never read back: its document survives JSON
    # text, and a second ranking equals it by value
    assert json.loads(json.dumps(report.to_dict())) == report.to_dict()
    assert rank_situations(scg, [prop]) == report


def _loop_report(scg, model, vectors, properties) -> dict:
    """The ranking's dict form, by one score_value call per situation and property."""
    records = {
        sid: {p.name: score_value(float(vectors[p.name][model.space.index[sid]]), p) for p in properties}
        for sid in scg.situation_ids
        if sid not in scg.sunk
    }
    worst = {sid: max(r.score for r in props.values()) for sid, props in records.items()}
    top = max(worst.values(), default=None)
    ties = [sid for sid, score in worst.items() if score == top]
    return {
        "records": {
            sid: {name: dict(vars(r)) for name, r in props.items()}
            for sid, props in records.items()
        },
        "worst_scores": worst,
        "worst_situation": min(ties, default=None),
    }


def _assert_scores_match_the_loop(scg, model, vectors, properties):
    report = score_situations(model, scg.sunk, vectors, properties)
    expected = _loop_report(scg, model, vectors, properties)
    assert report.to_dict() == expected
    # repr shows every bit of a float, the sign of a zero included
    assert json.dumps(report.to_dict()) == json.dumps(expected)
    records = expected["records"]
    assert report.all_compliant() == all(r["compliant"] for p in records.values() for r in p.values())
    first_seen = [n for props in records.values() for n, r in props.items() if not r["compliant"]]
    assert report.violated_properties() == list(dict.fromkeys(first_seen))
    assert report.worst_situation == expected["worst_situation"]
    worst = expected["worst_scores"]
    assert repr(report.worst_score()) == repr(max(worst.values(), default=0.0))
    # the dict views hold what to_dict writes, as Python floats and bools
    assert {sid: {n: dict(vars(r)) for n, r in p.items()} for sid, p in report.records.items()} == records
    for props in report.records.values():
        for r in props.values():
            assert (type(r.value), type(r.score), type(r.compliant)) == (float, float, bool)
    assert {type(v) for v in report.to_dict()["worst_scores"].values()} <= {float}
    # its text survives JSON, with sorted keys too; a second scoring equals it
    for kw in ({}, {"sort_keys": True}):
        text = json.dumps(json.loads(json.dumps(report.to_dict(), **kw)), **kw)
        assert text == json.dumps(expected, **kw)
    again = score_situations(model, scg.sunk, vectors, properties)
    assert again == report and again.worst_situation == report.worst_situation
    return report


@pytest.mark.parametrize("seed", range(25))
def test_scorer_equals_a_score_value_loop(seed):
    rng = random.Random(seed)
    scg = random_scg(rng, n_situations=12)
    for sid in rng.sample(scg.situation_ids, rng.randint(0, 4)):
        scg = sink_situation(scg, sid)
    model = build_model(scg)
    # values on the bounds, tied scores, and both signs of zero, whose scores
    # are equal but print differently
    grid = [-0.0, 0.0, 0.25, 0.5, 0.75, 1.0]
    comparators = ["<", "<=", ">", ">="]
    rng.shuffle(comparators)
    properties = [
        BoundedReachProperty(f"p{j}", "f1", 5, cmp_, rng.choice(grid))
        for j, cmp_ in enumerate(comparators)
    ]
    vectors = {
        p.name: np.array([rng.choice(grid + [rng.random()]) for _ in model.space.ids])
        for p in properties
    }
    _assert_scores_match_the_loop(scg, model, vectors, properties)
    real = reach_vectors(model, properties)
    _assert_scores_match_the_loop(scg, model, real, properties)


def test_scorer_ties_and_first_seen_violations():
    scg = make_scg({f"s{i}": {f"s{i}": 1.0} for i in range(12)}, 12)
    model = build_model(scg)
    upper = BoundedReachProperty("a", "f1", 1, "<", 0.5)
    lower = BoundedReachProperty("b", "f2", 1, ">=", 0.5)
    va, vb = np.zeros(14), np.ones(14)
    va[[2, 4, 10]] = [0.9, 0.5, 0.9]  # a: s2 and s10 tie on the top score; s4 on the bound
    vb[[1, 5]] = [0.2, 0.5]  # b: violated by s1, before a's first violator s2
    report = _assert_scores_match_the_loop(scg, model, {"a": va, "b": vb}, [upper, lower])
    assert report.worst_situation == "s10"  # "s10" < "s2"
    assert report.violated_properties() == ["b", "a"]
    assert report.worst_score() == 0.9 - 0.5
    records = report.records
    assert not records["s4"]["a"].compliant and records["s4"]["a"].score == 0.0
    assert records["s5"]["b"].compliant and records["s5"]["b"].score == 0.0
    for sid in scg.situation_ids:
        scg = sink_situation(scg, sid)
    empty = _assert_scores_match_the_loop(scg, model, {"a": va, "b": vb}, [upper, lower])
    assert empty.all_compliant() and empty.worst_situation is None


def test_worst_situation_breaks_a_tie_by_the_least_id_as_text():
    # not by situation number: "s10" < "s9", so synthesis sinks s10 first
    situations = [f"s{i}" for i in range(11)]
    values = np.zeros((11, 1))
    values[[9, 10], 0] = 0.75
    scores = values - 0.5
    report = CriticalityReport(situations, ["a"], values, scores, scores <= 0.0, scores[:, 0])
    assert report.worst_situation == "s10"
    assert report.worst_score() == 0.25


def test_an_unknown_report_attribute_is_missing():
    scg = make_scg({"s0": {"s0": 0.5, "f1": 0.5}, "s1": {"s0": 0.5, "s1": 0.5}}, 2)
    report = rank_situations(scg, [BoundedReachProperty("phi", "f1", 3, "<", 0.5)])
    fields = dict(vars(report))
    assert getattr(report, "nope", None) is None
    assert not hasattr(report, "__array__")
    assert vars(report).keys() == fields.keys()
    assert all(vars(report)[name] is value for name, value in fields.items())


def test_scorer_keeps_the_first_of_equal_zero_scores():
    # max() keeps the first of equal scores: -0.0 then 0.0 gives -0.0
    scg = make_scg({"s0": {"s0": 1.0}, "s1": {"s1": 1.0}}, 2)
    model = build_model(scg)
    props = [BoundedReachProperty(name, "f1", 1, "<=", 0.0) for name in ("z1", "z2")]
    vectors = {"z1": np.array([-0.0, 0.0, 0.0, 0.0]), "z2": np.array([0.0, -0.0, 0.0, 0.0])}
    report = _assert_scores_match_the_loop(scg, model, vectors, props)
    assert [repr(v) for v in report.to_dict()["worst_scores"].values()] == ["-0.0", "0.0"]
    assert repr(report.worst_score()) == "-0.0"


def _spread_rows(sids, width: int) -> dict:
    """Uniform rows over the first `width` situations, one per id in `sids`."""
    return {sid: {f"s{j}": 1.0 / width for j in range(width)} for sid in sids}


@pytest.mark.parametrize(
    "n_rows, width, before, after",
    [
        (2, 20, np.ndarray, np.ndarray),  # dense rows into a dense model
        (20, 20, sp.csr_matrix, np.ndarray),  # the density crosses the cutoff upwards
        (20, 1, np.ndarray, sp.csr_matrix),  # ... and downwards
        (2, 3, sp.csr_matrix, sp.csr_matrix),  # sparse rows into a CSR model
    ],
)
def test_write_rows_gives_the_operator_a_fresh_compile_gives(n_rows, width, before, after):
    rng = random.Random(5)
    if before is np.ndarray:
        scg = make_scg(_spread_rows([f"s{i}" for i in range(20)], 10), 20)
    else:
        scg = random_scg(rng, n_situations=20)
    model = build_model(scg)
    assert isinstance(model.matrix, before)
    rows = _spread_rows([f"s{i}" for i in range(n_rows)], width)
    rows["s0"] = {"s0": 0.5, "f1": 0.5, "f2": 0.0}  # a zero entry is no transition
    updated = AugmentedScg(
        scg.attributes, scg.failures, {**scg.delta, **rows}
    )
    write_rows(model, rows)
    fresh = build_model(updated)
    assert type(model.matrix) is type(fresh.matrix) is after
    if after is np.ndarray:
        assert np.array_equal(model.matrix, fresh.matrix)
    else:
        assert model.matrix.has_sorted_indices
        for attr in ("data", "indices", "indptr"):
            assert np.array_equal(getattr(model.matrix, attr), getattr(fresh.matrix, attr))


def _with_rows(scg, rows):
    return AugmentedScg(
        scg.attributes, scg.failures, {**scg.delta, **rows}, scg.sunk
    )


def _assert_fresh_csr(mat, scg):
    _, fresh = transition_matrix(scg)
    assert type(mat) is type(fresh) is sp.csr_matrix
    assert mat.indices.dtype == np.int32 and mat.has_sorted_indices
    for attr in ("data", "indices", "indptr"):
        ours, theirs = getattr(mat, attr), getattr(fresh, attr)
        assert ours.dtype == theirs.dtype and np.array_equal(ours, theirs)


def test_csr_row_writes_splice_the_operator_in_place(monkeypatch):
    scg = random_scg(random.Random(3), n_situations=40)
    model = build_model(scg)
    compiles = []
    original = dtmc.transition_matrix
    monkeypatch.setattr(dtmc, "transition_matrix", lambda s: compiles.append(s) or original(s))
    writes = [
        # several rows at once, the first and last situation rows included,
        # with unsorted targets, growing and shrinking rows
        {
            "s39": {"s0": 0.6, "f1": 0.4},
            "s0": {"s39": 0.5, "s1": 0.25, "f2": 0.125, "s20": 0.125},
            "s17": {"s5": 0.3, "s4": 0.7},
        },
        {"s8": {"s9": 0.5, "f1": 0.5, "s2": 0.0}},  # an explicit zero is no transition
    ]
    for rows in writes:
        scg = _with_rows(scg, rows)
        write_rows(model, rows)
        _assert_fresh_csr(model.matrix, scg)
    for sid in ("s3", "s39"):  # rows collapsing to a sink self-loop
        scg = sink_situation(scg, sid)
        write_rows(model, {sid: scg.delta[sid]})
        _assert_fresh_csr(model.matrix, scg)
    # the density crosses the cutoff upwards, then back: the operator is
    # converted, never compiled again, and is what a fresh compile gives
    rows = _spread_rows([f"s{i}" for i in range(40)], 40)
    scg = _with_rows(scg, rows)
    write_rows(model, rows)
    assert isinstance(model.matrix, np.ndarray)
    _, fresh = original(scg)
    assert model.matrix.dtype == fresh.dtype and np.array_equal(model.matrix, fresh)
    assert model.matrix.flags.c_contiguous and fresh.flags.c_contiguous
    rows = _spread_rows([f"s{i}" for i in range(40)], 1)
    scg = _with_rows(scg, rows)
    write_rows(model, rows)
    _assert_fresh_csr(model.matrix, scg)
    assert not compiles


def test_dense_runs_never_import_scipy_sparse():
    code = """
import sys
import numpy as np
import oddsafe
from oddsafe.experiments import default_properties, random_dense_scg
oddsafe.rank_situations(random_dense_scg(10), default_properties())
assert "scipy.sparse" not in sys.modules, "a dense check imported scipy.sparse"
sparse = random_dense_scg(60, density=0.05)
model = oddsafe.build_model(sparse)
assert not isinstance(model.matrix, np.ndarray)
report = oddsafe.rank_situations(sparse, default_properties())
assert len(report.records) == 60 and report.worst_situation is not None
"""
    monitor = """
import sys
from oddsafe import experiments
result = experiments.run_timeline(experiments.TimelineConfig(seed=7, steps=300))
assert sum(entry.outcome is not None for entry in result.adaptive_log) == 1
assert "scipy.sparse" not in sys.modules, "the closed loop imported scipy.sparse"
"""
    src = Path(__import__("oddsafe").__file__).resolve().parents[1]
    for script in (code, monitor):
        subprocess.run([sys.executable, "-c", script], env={"PYTHONPATH": str(src)}, check=True)
