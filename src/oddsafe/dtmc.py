"""Compiled SCG models and bounded-reachability checking.

Each SCG belief is compiled once into a Dtmc whose operator is dense or CSR
by its density.  The checker runs value iteration for exactly k sweeps:
x0(s) = 1 iff s carries the target label, and x{j}(s) = 1 for labelled
states, otherwise the expectation of x{j-1} under the transition row.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import chain, compress, repeat
from operator import ge, gt, le, lt
from typing import TYPE_CHECKING

import numpy as np

from .errors import ModelError, NotFoundError, PropertyError
from .scg import ROW_SUM_ATOL, AugmentedScg, StateSpace, require_valid, structural_violations

if TYPE_CHECKING:
    from collections.abc import Collection

    import scipy.sparse as sp

    #: a row-stochastic transition operator, shape (n, n)
    Operator = np.ndarray | sp.csr_matrix

#: build the operator as CSR when at most this fraction of entries is nonzero
SPARSE_DENSITY_CUTOFF = 0.25


@dataclass(frozen=True)
class BoundedReachProperty:
    """P <cmp> <bound> [ F<=k <label> ] with a failure label as target."""

    name: str
    target_label: str
    horizon: int
    comparator: str  # one of "<", "<=", ">", ">="
    bound: float

    def __post_init__(self):
        if self.comparator not in ("<", "<=", ">", ">="):
            raise ValueError(f"bad comparator {self.comparator!r}")
        if not (0.0 <= self.bound <= 1.0):
            raise ValueError(f"bound {self.bound!r} outside [0, 1]")
        if self.horizon < 1:
            raise ValueError(f"horizon {self.horizon!r} must be >= 1")

    @property
    def is_upper_bound(self) -> bool:
        return self.comparator in ("<", "<=")


@dataclass(frozen=True)
class PropertyResult:
    """Checked value, signed criticality score and compliance flag."""

    value: float
    score: float
    compliant: bool


@dataclass
class Dtmc:
    """The compiled model of one SCG belief, shared by every start state."""

    space: StateSpace  # the states of the SCG, shared with it; its index gives their rows
    matrix: Operator
    labels: dict[str, set[int]]  # failure label -> state indices


def _is_dense(nnz: int, n: int) -> bool:
    return nnz / (n * n) > SPARSE_DENSITY_CUTOFF


def transition_matrix(scg: AugmentedScg, _document: bool = False) -> tuple[list[str], Operator]:
    """The operator over situations-then-failures ordering, filled from delta.

    One flat fill, each row read once, gives row offsets, int32 columns and
    float64 values; their nonzeros pick the operator: dense, a scatter into
    np.zeros, above SPARSE_DENSITY_CUTOFF, otherwise CSR with int32 indices
    and sorted columns, never O(n^2) memory.  A row that breaks the row rule
    raises the ModelError of require_valid.  The fill checks each part of it:
    a row lookup finds a missing row, a column lookup an unknown target, the
    values' minimum and maximum the range, and _sums_ok the sums in one
    vectorised pass.  Only an SCG holding a value other than a float sums each
    row in Python; for scg_from_dict (`_document`) that is a defect too.
    """
    space = scg.space
    index = space.index
    n = len(space.ids)
    try:
        rows = list(map(scg.delta.__getitem__, space.situation_ids))
        failures = range(len(rows), n)  # absorbing failure states
        lengths = np.fromiter(chain(map(len, rows), repeat(1, len(failures))), np.int64, n)
        indptr = np.cumsum(np.insert(lengths, 0, 0))
        nnz = int(indptr[-1])  # filled straight from the rows, no per-entry list
        cols = map(index.__getitem__, chain.from_iterable(rows))
        cols = np.fromiter(chain(cols, failures), np.int32, nnz)

        def filled(check):
            vals = chain.from_iterable(map(dict.values, rows))
            vals = chain(map(check, vals) if check else vals, repeat(1.0, len(failures)))
            return np.fromiter(vals, np.float64, nnz)

        try:  # float.conjugate passes a float and raises on any other value
            data = filled(float.conjugate)
        except TypeError:  # an int or a bool, or text np.fromiter would parse
            if _document:
                raise
            data, sums = filled(None), _rows_sum_to_one(rows)
        else:
            sums = _sums_ok(rows, indptr[: len(rows) + 1], data)
        valid = sums and 0.0 <= data.min() and data.max() <= 1.0
    except (KeyError, TypeError, ValueError):  # a missing row, unknown target or non-number
        valid = False
    if not valid:
        _reject(scg, _document)
    if _is_dense(int(np.count_nonzero(data)), n):  # explicit zeros count out
        mat = np.zeros((n, n))  # a delta row names each of its targets once
        mat[np.repeat(np.arange(n, dtype=np.int32), lengths), cols] = data
    else:
        import scipy.sparse as sp  # deferred: dense-only runs never pay for it

        mat = sp.csr_matrix((data, cols, indptr), shape=(n, n))
        mat.sort_indices()  # delta rows are unordered
        mat.eliminate_zeros()  # a zero probability in delta is no transition
    return list(space.ids), mat


def _reject(scg: AugmentedScg, document: bool) -> None:
    """Raise require_valid's ModelError; a document's row loop names its own."""
    if not document:
        require_valid(scg)
    raise ModelError("invalid augmented SCG: its operator breaks the row rule")


def _rows_sum_to_one(rows: list[dict]) -> bool:
    """row_violations' sum rule, row by row, which a NaN fails before the
    range check's min and max see it."""
    return all(abs(sum(row.values()) - 1.0) <= ROW_SUM_ATOL for row in rows)


def _sums_ok(rows: list[dict], indptr: np.ndarray, data: np.ndarray) -> bool:
    """Whether every row, all of whose values are floats (numpy's float64
    too), sums to 1 within ROW_SUM_ATOL by row_violations' Python sum; row
    i's values are data[indptr[i]:indptr[i + 1]], in order.

    One np.add.reduceat pass gives the totals.  Its order of additions is not
    sum's (left to right up to Python 3.11, compensated from 3.12), but either
    total errs by at most (length - 1) * eps / 2 times the sum of the values'
    magnitudes, about 1 for a row near the tolerance with its values in
    [0, 1]; so only a row whose total lies within (length + 1) * eps of the
    tolerance is summed again with sum.  A value outside [0, 1] fails the
    range rule whatever its row's sum.
    """
    lengths = np.diff(indptr)
    if not lengths.all():  # an empty row sums to 0; reduceat would not say so
        return False
    with np.errstate(invalid="ignore"):  # inf - inf: a NaN total fails below
        off = np.abs(np.add.reduceat(data[: indptr[-1]], indptr[:-1]) - 1.0)
    near = np.abs(off - ROW_SUM_ATOL) <= (lengths + 1) * np.finfo(float).eps
    for i in np.flatnonzero(near).tolist():
        off[i] = abs(sum(rows[i].values()) - 1.0)
    return bool((off <= ROW_SUM_ATOL).all())


def build_model(scg: AugmentedScg, _document: bool = False) -> Dtmc:
    """Validate the SCG and compile it into the model every check runs on; the
    row rule is checked by transition_matrix as it fills the rows.
    `_document` is scg_from_dict's: see transition_matrix.

    A loaded SCG hands over the model scg_from_dict compiled, once: the
    caller owns it, and write_rows may change it in place.
    """
    model = scg.compiled
    if model is not None:
        object.__setattr__(scg, "compiled", None)
        return model
    if structural_violations(scg):
        _reject(scg, _document)
    _, mat = transition_matrix(scg, _document)
    space = scg.space
    labels = {f.label: {space.index[f.id]} for f in scg.failures}
    return Dtmc(space, mat, labels)


def _splice_rows(mat: sp.csr_matrix, rows: dict[str, dict[str, float]], index) -> None:
    """Replace whole rows of a CSR operator in place, in the layout
    transition_matrix builds: sorted columns, zeros dropped, dtypes kept."""
    indptr, indices, data = mat.indptr, mat.indices, mat.data
    lengths = np.diff(indptr)
    index_parts, data_parts = [], []
    start = 0
    for sid in sorted(rows, key=index.__getitem__):
        row, i = rows[sid], index[sid]
        cols = np.fromiter(map(index.__getitem__, row), indices.dtype, len(row))
        vals = np.fromiter(row.values(), np.float64, len(row))
        order = np.argsort(cols)
        order = order[vals[order] != 0.0]  # a zero probability is no transition
        index_parts += [indices[start : indptr[i]], cols[order]]
        data_parts += [data[start : indptr[i]], vals[order]]
        lengths[i] = len(order)
        start = indptr[i + 1]
    mat.indices = np.concatenate(index_parts + [indices[start : indptr[-1]]])
    mat.data = np.concatenate(data_parts + [data[start : indptr[-1]]])
    indptr[1:] = np.cumsum(lengths)


def write_rows(model: Dtmc, rows: dict[str, dict[str, float]]) -> None:
    """Write whole rows into the operator of `model` in place, dense or CSR.

    When that moves its density across SPARSE_DENSITY_CUTOFF the operator is
    converted to the other kind, so it always equals, in values, dtypes and
    layout, what transition_matrix builds from a delta holding the written
    rows.  Nothing is validated: the caller checked the rows.
    """
    mat = model.matrix
    dense = isinstance(mat, np.ndarray)
    index = model.space.index
    if dense:
        for sid, row in rows.items():
            i = index[sid]
            mat[i] = 0.0
            mat[i, list(map(index.__getitem__, row))] = list(row.values())
        nnz = int(np.count_nonzero(mat))
    else:
        _splice_rows(mat, rows, index)
        nnz = mat.nnz
    if _is_dense(nnz, mat.shape[0]) != dense:
        import scipy.sparse as sp  # deferred: dense-only runs never pay for it

        # the CSR of an array keeps its nonzeros alone, in sorted columns
        model.matrix = sp.csr_matrix(mat) if dense else mat.toarray()


def bounded_reach_vector(matrix: Operator, targets: set[int], k: int) -> np.ndarray:
    """Reach-within-k probabilities of the target set, from every state."""
    target_idx = np.array(sorted(targets), dtype=np.intp)
    x = np.zeros(matrix.shape[0])
    x[target_idx] = 1.0
    for _ in range(k):
        x = matrix @ x
        x[target_idx] = 1.0
    return x


def require_checkable(labels, properties: list[BoundedReachProperty]) -> None:
    """Raise PropertyError on an empty list, which would report every
    situation compliant, and at the first repeated property name: vectors and
    results are keyed by name, so a repeat would drop a requirement.  Then
    raise NotFoundError at the first property whose target is not in labels."""
    if not properties:
        raise PropertyError("need at least one property")
    names = [p.name for p in properties]
    if len(set(names)) < len(names):
        repeated = next(name for i, name in enumerate(names) if name in names[:i])
        raise PropertyError(f"property name {repeated!r} is repeated")
    for prop in properties:
        if prop.target_label not in labels:
            raise NotFoundError(f"unknown label {prop.target_label!r}")


def reach_vectors(
    model: Dtmc, properties: list[BoundedReachProperty]
) -> dict[str, np.ndarray]:
    """Property name -> reach vector of its target label at its horizon.

    Values outside [0, 1] (beyond rounding) raise ModelError, never a verdict;
    an empty list or a repeated property name raises PropertyError.
    """
    require_checkable(model.labels, properties)
    out: dict[str, np.ndarray] = {}
    for prop in properties:
        x = bounded_reach_vector(model.matrix, model.labels[prop.target_label], prop.horizon)
        if not (-1e-9 <= x.min() and x.max() <= 1.0 + 1e-9):
            raise ModelError(f"{prop.name}: reach values {x.min()}..{x.max()} escape [0, 1]")
        out[prop.name] = x
    return out


#: the comparator of a property as a function, for floats and arrays alike
_COMPARE = {"<": lt, "<=": le, ">": gt, ">=": ge}


def _score(value, prop: BoundedReachProperty):
    """Signed deviation from the bound (positive meaning violation) and the
    verdict, of one value or elementwise over an array of them."""
    score = value - prop.bound if prop.is_upper_bound else prop.bound - value
    return score, _COMPARE[prop.comparator](value, prop.bound)


def score_value(value: float, prop: BoundedReachProperty) -> PropertyResult:
    """Signed deviation from the bound, positive meaning violation."""
    return PropertyResult(value, *_score(value, prop))


@dataclass(eq=False)
class CriticalityReport:
    """Every non-sunk situation scored against every property, one column per
    property, by the same arithmetic as score_value.

    The per-situation dicts of `records` are built at their first read and
    kept; to_dict reads the arrays.
    """

    situations: list[str]  # non-sunk situation ids, in situation order
    names: list[str]  # property names, in property order
    values: np.ndarray  # (situation, property) reach values
    scores: np.ndarray  # (situation, property) signed scores
    compliant: np.ndarray  # (situation, property) verdicts
    worst: np.ndarray  # per situation, its highest score

    def all_compliant(self) -> bool:
        return bool(self.compliant.all())

    def _ties(self) -> np.ndarray:
        return np.flatnonzero(self.worst == self.worst.max())

    def worst_score(self) -> float:
        """The highest score of any situation (0.0 when every one is sunk)."""
        return float(self.worst[self._ties()[0]]) if self.situations else 0.0

    @property
    def worst_situation(self) -> str | None:
        """The situation with the highest score, the smallest id on ties."""
        return min(self.situations[i] for i in self._ties()) if self.situations else None

    def violated_properties(self) -> list[str]:
        """Property names violated by at least one situation, first-seen order."""
        _, cols = np.nonzero(~self.compliant)  # by situation, then by property
        return [self.names[j] for j in dict.fromkeys(cols.tolist())]

    def _rows(self):
        """Per situation, its (value, score, verdict) per property as Python
        floats and bools, which json.dumps accepts."""
        columns = (self.values.tolist(), self.scores.tolist(), self.compliant.tolist())
        return zip(self.situations, (zip(*row) for row in zip(*columns)))

    @cached_property
    def records(self) -> dict[str, dict[str, PropertyResult]]:
        return {
            sid: {name: PropertyResult(*r) for name, r in zip(self.names, row)}
            for sid, row in self._rows()
        }

    def __eq__(self, other) -> bool:
        # by value, as the documents they serialise to
        if not isinstance(other, CriticalityReport):
            return NotImplemented
        return self.to_dict() == other.to_dict()

    def to_dict(self) -> dict:
        return {
            "records": {
                sid: {
                    name: {"value": v, "score": s, "compliant": c}
                    for name, (v, s, c) in zip(self.names, row)
                }
                for sid, row in self._rows()
            },
            "worst_scores": dict(zip(self.situations, self.worst.tolist())),
            "worst_situation": self.worst_situation,
        }


def score_situations(
    model: Dtmc,
    sunk: Collection[str],
    vectors: dict[str, np.ndarray],
    properties: list[BoundedReachProperty],
) -> CriticalityReport:
    """Score every situation not in `sunk` from the model's reach vectors."""
    by_name = {p.name: p for p in properties}
    ids = model.space.situation_ids  # situation i is row i of the model
    keep = np.ones(len(ids), bool)
    keep[[model.space.index[s] for s in sunk]] = False
    situations = list(compress(ids, keep.tolist()))
    rows = np.flatnonzero(keep)
    values = np.stack([vectors[name][rows] for name in by_name], axis=1)
    scores = np.empty_like(values)
    compliant = np.empty(values.shape, bool)
    for j, prop in enumerate(by_name.values()):
        scores[:, j], compliant[:, j] = _score(values[:, j], prop)
    worst = scores[:, 0].copy()
    for column in scores.T[1:]:  # a later property wins only when strictly higher
        worst = np.where(column > worst, column, worst)
    return CriticalityReport(situations, list(by_name), values, scores, compliant, worst)


def rank_situations(
    scg: AugmentedScg, properties: list[BoundedReachProperty]
) -> CriticalityReport:
    """Evaluate every property from every non-sunk situation.

    All start states share the compiled model, so one k-sweep value
    iteration per property yields the value for every situation.
    """
    model = build_model(scg)
    return score_situations(model, scg.sunk, reach_vectors(model, properties), properties)
