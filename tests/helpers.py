"""Shared test fixtures: the path-enumeration oracle, random model builders, a
structured sparse grid document, a plain reach sweep, and reference copies of
the SCG loader and the property parser.

The oracle deliberately enumerates every path of length <= k instead of doing
value iteration, so it stays independent of the checker it validates.
"""

from __future__ import annotations

import functools
import itertools
import math
import random
import re
import reprlib
import sys
import warnings
from operator import countOf

import numpy as np
import pytest

from oddsafe import experiments
from oddsafe.dtmc import BoundedReachProperty, Dtmc, build_model
from oddsafe.errors import ModelError, PropertyRangeError, PropertySyntaxError, SchemaError
from oddsafe.proplang import MAX_HORIZON
from oddsafe.runtime import new_knowledge_base
from oddsafe.scg import (
    ROW_SUM_ATOL,
    ROW_SUM_RENORM,
    AugmentedScg,
    FailureMode,
    OddAttribute,
    _check_attributes,
    require_valid,
)


def reach_by_paths(
    rows: dict[str, dict[str, float]],
    start: str,
    targets: set[str],
    k: int,
) -> float:
    """Probability of hitting `targets` within k steps, by path enumeration.

    States without a row are treated as absorbing.
    """
    if start in targets:
        return 1.0
    if k == 0:
        return 0.0
    row = rows.get(start)
    if not row:
        return 0.0
    return sum(p * reach_by_paths(rows, t, targets, k - 1) for t, p in row.items())


def scg_rows_with_sinks(scg: AugmentedScg) -> dict[str, dict[str, float]]:
    """SCG delta extended with failure self-loops, for the oracle."""
    rows = {s: dict(r) for s, r in scg.delta.items()}
    for fid in scg.failure_ids:
        rows[fid] = {fid: 1.0}
    return rows


def random_rows(
    rng: random.Random,
    states: list[str],
    max_support: int = 3,
) -> dict[str, dict[str, float]]:
    """Random sparse row-stochastic rows over the given states."""
    rows = {}
    for s in states:
        support = rng.sample(states, rng.randint(1, min(max_support, len(states))))
        weights = [rng.random() + 1e-3 for _ in support]
        total = sum(weights)
        rows[s] = {t: w / total for t, w in zip(support, weights)}
    return rows


def make_scg(
    delta: dict[str, dict[str, float]],
    n_situations: int,
    failures: tuple[str, ...] = ("f1", "f2"),
    sunk: frozenset[str] = frozenset(),
) -> AugmentedScg:
    """SCG over s0..s{n-1} (single synthetic attribute) with given rows."""
    attributes = (OddAttribute("attr", tuple(f"v{i}" for i in range(n_situations))),)
    return AugmentedScg(
        attributes=attributes,
        failures=tuple(FailureMode(f, f) for f in failures),
        delta=delta,
        sunk=sunk,
    )


def random_scg(
    rng: random.Random,
    n_situations: int = 4,
    failure_mass: float = 0.3,
    failures: tuple[str, ...] = ("f1", "f2"),
) -> AugmentedScg:
    """Random valid SCG whose situation rows may feed the failure states."""
    sids = [f"s{i}" for i in range(n_situations)]
    delta = {}
    for s in sids:
        support = rng.sample(sids, rng.randint(1, min(3, len(sids))))
        weights = {t: rng.random() + 1e-3 for t in support}
        for f in failures:
            if rng.random() < 0.5:
                weights[f] = rng.random() * failure_mass
        total = sum(weights.values())
        delta[s] = {t: w / total for t, w in weights.items()}
    return make_scg(delta, n_situations, failures)


def plain_reach_vector(matrix, targets: set[int], k: int) -> np.ndarray:
    """k sweeps of x <- matrix @ x with the targets clamped back to 1.0 after
    each, from their indicator: the reach kernel with no shortcut, the
    reference the kernel's unclamped sweeps of absorbing targets and the
    checker's and synthesis' shortcuts are compared against."""
    targets = sorted(targets)
    x = np.zeros(matrix.shape[0])
    x[targets] = 1.0
    for _ in range(k):
        x = matrix @ x
        x[targets] = 1.0
    return x


def assert_compiles_to(model: Dtmc, scg: AugmentedScg) -> None:
    """`model` is the model a fresh compile of `scg` gives: the same operator
    kind, values, dtypes and layout (sorted CSR columns, no stored zeros)."""
    fresh = build_model(scg)
    assert type(model.matrix) is type(fresh.matrix)
    assert model.space.index == fresh.space.index and model.labels == fresh.labels
    if isinstance(fresh.matrix, np.ndarray):
        parts = [(model.matrix, fresh.matrix)]
    else:
        assert model.matrix.has_sorted_indices
        attrs = ("data", "indices", "indptr")
        parts = [(getattr(model.matrix, a), getattr(fresh.matrix, a)) for a in attrs]
    for ours, theirs in parts:
        assert ours.dtype == theirs.dtype and np.array_equal(ours, theirs)


@functools.cache  # one run serves every test; snapshot and load leave it as it is
def rq2_adaptive_run():
    """The seed-7 rq2 timeline, and the adaptive knowledge base it ran."""
    kbs = []

    def new_kb(*args, **kwargs):
        kbs.append(new_knowledge_base(*args, **kwargs))
        return kbs[-1]

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(experiments, "new_knowledge_base", new_kb)
        result = experiments.run_timeline(experiments.TimelineConfig(seed=7))
    (kb,) = [kb for kb in kbs if not kb.baseline]
    return result, kb


def grid_doc(side: int = 8, dims: int = 4) -> dict:
    """A sparse side**dims grid: each cell keeps part of its mass, spreads the
    rest over its +-1 neighbours and leaks a little into f2; three cells are
    traps that feed f1 or f2."""
    index = {cell: k for k, cell in enumerate(itertools.product(range(side), repeat=dims))}
    delta = {}
    for cell, k in index.items():
        moves = (cell[:a] + (cell[a] + d,) + cell[a + 1 :] for a in range(dims) for d in (-1, 1))
        near = [index[m] for m in moves if m in index]
        stay, leak = 0.2 + 0.1 * (k % 5), 1e-4 * (1 + k % 4)
        row = {f"s{m}": (1.0 - stay - leak) / len(near) for m in near}
        delta[f"s{k}"] = {f"s{k}": stay, **row, "f2": leak}
    for k, failure in ((100, "f1"), (2000, "f2"), (4000, "f1")):
        delta[f"s{k}"] = {f"s{k}": 0.3, failure: 0.7}
    return {
        "attributes": [
            {"name": f"a{i}", "values": [f"v{j}" for j in range(side)]} for i in range(dims)
        ],
        "failures": [{"id": f, "label": f} for f in ("f1", "f2")],
        "delta": delta,
    }


def reference_scg_from_dict(doc: dict) -> AugmentedScg:
    """scg_from_dict as it was before its float fast path: every row decoded,
    summed, renormalised or rejected one by one, then validate_scg's verdict
    and the compiled model.  Loaders are compared against it."""
    if not isinstance(doc, dict):
        raise SchemaError("SCG document must be a JSON object", ["$"])
    missing = [k for k in ("attributes", "failures", "delta") if k not in doc]
    if missing:
        raise SchemaError("SCG document missing keys", [f"$.{k}" for k in missing])
    try:
        attributes = tuple(
            OddAttribute(a["name"], tuple(a["values"])) for a in doc["attributes"]
        )
        failures = tuple(
            FailureMode(f["id"], f["label"], f.get("description", ""))
            for f in doc["failures"]
        )
    except (KeyError, TypeError) as exc:
        raise SchemaError(f"malformed attribute/failure entry: {exc}") from exc
    if not isinstance(doc["delta"], dict):
        raise SchemaError("delta must map situation ids to rows", ["$.delta"])
    sunk = doc.get("sunk", [])
    if not isinstance(sunk, list):
        raise SchemaError("sunk must be a list of situation ids", ["$.sunk"])
    names = [a.name for a in attributes] + [v for a in attributes for v in a.values]
    names += [text for f in failures for text in (f.id, f.label)] + sunk
    if countOf(map(type, names), str) != len(names):
        raise SchemaError("names, values, ids, labels and sunk ids must be strings")
    for i, failure in enumerate(failures):
        if type(failure.description) is not str:
            raise SchemaError(
                "a failure description must be a string", [f"$.failures[{i}].description"]
            )
    _check_attributes(list(attributes))
    delta: dict[str, dict[str, float]] = {}
    for sid, row in doc["delta"].items():
        try:
            items = row.items()
        except AttributeError as exc:
            raise SchemaError(
                f"a delta row must map ids to numbers: {exc}", [f"$.delta.{sid}"]
            ) from exc
        if countOf(map(type, row.values()), float) == len(row):
            row = dict(row)
        else:
            row = {t: _reference_probability(p, f"$.delta.{sid}.{t}") for t, p in items}
        total = sum(row.values())
        off = abs(total - 1.0)
        if ROW_SUM_ATOL < off <= ROW_SUM_RENORM:
            warnings.warn(f"renormalising row {sid!r} (sum {total!r})", stacklevel=2)
            row = {t: p / total for t, p in row.items()}
        elif off > ROW_SUM_RENORM:
            raise ModelError(f"row {sid!r} sums to {total!r}; beyond renormalisation")
        delta[sid] = row
    size = math.prod(len(a.values) for a in attributes)
    if size > len(delta):
        raise ModelError(f"invalid augmented SCG: {size} situations, {len(delta)} delta rows")
    scg = AugmentedScg(attributes, failures, delta, frozenset(sunk))
    require_valid(scg)  # row_violations' verdict, independent of the compile's
    object.__setattr__(scg, "compiled", build_model(scg))
    return scg


def _reference_probability(p, path: str) -> float:
    """A probability written as a JSON number: a float as it is (the compile
    rejects one outside [0, 1], NaN included), or an int a float can hold;
    never text, a bool or null."""
    if type(p) is float:
        return p
    if type(p) is not int or not abs(p) <= sys.float_info.max:
        raise SchemaError(f"expected a finite number, not {reprlib.repr(p)}", [path])
    return float(p)


# ---------------------------------------------------------------------------
# the property parser as it was before its token table; parse_property is
# compared against it

_IDENT = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")
_NUMBER = re.compile(r"[0-9]+(?:\.[0-9]*)?|\.[0-9]+")
_DIGITS = re.compile(r"[0-9]+")


class _Scanner:
    """Cursor over the expression text with 1-based column reporting."""

    def __init__(self, text: str):
        self.text = text
        self.pos = 0

    @property
    def column(self) -> int:
        return self.pos + 1

    def skip_ws(self) -> None:
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def peek(self, literal: str) -> bool:
        self.skip_ws()
        return self.text.startswith(literal, self.pos)

    def expect(self, literal: str, what: str | None = None) -> None:
        self.skip_ws()
        if not self.text.startswith(literal, self.pos):
            raise PropertySyntaxError(f"expected {what or literal!r}", self.column)
        self.pos += len(literal)

    def comparator(self) -> str:
        self.skip_ws()
        for cand in ("<=", ">=", "<", ">"):
            if self.text.startswith(cand, self.pos):
                self.pos += len(cand)
                return cand
        raise PropertySyntaxError("expected comparator (<, <=, >, >=)", self.column)

    def number(self) -> float:
        self.skip_ws()
        m = _NUMBER.match(self.text, self.pos)
        if not m:
            raise PropertySyntaxError("expected probability bound", self.column)
        self.pos = m.end()
        return float(m.group())

    def step_bound(self) -> int:
        """A step bound of at most MAX_HORIZON, whose digits are counted
        before int() reads them."""
        self.skip_ws()
        m = _DIGITS.match(self.text, self.pos)
        if not m:
            raise PropertySyntaxError("expected step bound", self.column)
        self.pos = m.end()
        digits = m.group().lstrip("0") or "0"
        if len(digits) > len(str(MAX_HORIZON)) or int(digits) > MAX_HORIZON:
            raise PropertyRangeError(f"step bound above the maximum {MAX_HORIZON}")
        return int(digits)

    def identifier(self) -> str:
        self.skip_ws()
        m = _IDENT.match(self.text, self.pos)
        if not m:
            raise PropertySyntaxError("expected label identifier", self.column)
        self.pos = m.end()
        return m.group()

    def end(self) -> None:
        self.skip_ws()
        if self.pos != len(self.text):
            raise PropertySyntaxError("unexpected trailing input", self.column)


def _reach_block(sc: _Scanner) -> tuple[int, str]:
    sc.expect("[", "'['")
    sc.expect("F", "'F'")
    sc.expect("<=", "'<='")
    horizon = sc.step_bound()
    label = sc.identifier()
    sc.expect("]", "']'")
    return horizon, label


def reference_parse_property(name: str, expression: str) -> BoundedReachProperty:
    """Parse one property expression; errors carry a 1-based column."""
    if not isinstance(expression, str):
        raise PropertySyntaxError("expression must be text", 1)
    sc = _Scanner(expression)
    sc.expect("P", "'P'")
    if sc.peek("=?"):
        # query alias: P=? [ F<=k label ] <cmp> <bound>
        sc.expect("=?")
        horizon, label = _reach_block(sc)
        cmp_ = sc.comparator()
        bound = sc.number()
        sc.end()
    else:
        cmp_ = sc.comparator()
        bound = sc.number()
        horizon, label = _reach_block(sc)
        sc.end()
    if not (0.0 <= bound <= 1.0):
        raise PropertyRangeError(f"bound {bound} outside [0, 1]")
    if horizon < 1:
        raise PropertyRangeError("step bound must be >= 1")
    return BoundedReachProperty(
        name=name, target_label=label, horizon=horizon, comparator=cmp_, bound=bound
    )
