"""Situation grids: ODD attributes, enumeration, and the augmented SCG.

An augmented SCG is the situation grid extended with failure states and a
row-stochastic transition function delta over situation rows.  Failure states
are sinks by construction and never own a delta row.  All operations here are
pure: they return new values and never mutate their inputs, except that a
loaded SCG hands the operator it was validated with to its first build_model.
The monitor alone mutates an SCG: it replaces rows in its own belief's delta.

The situations of an SCG are the full grid of its ODD's attributes, with ids
"s0".."s{n-1}" in enumeration order; adaptation sinks situations but never adds
or renames one.  So a process builds one StateSpace per (attributes, failure
ids) value (state_space), shared by every SCG over them however it was made.
The Situation objects of a grid are built at each read (enumerate_situations),
and describe_situation reads a situation's attribute values off its id.
"""

from __future__ import annotations

import itertools
import json
import math
import reprlib
import sys
import warnings
from collections.abc import Container
from dataclasses import MISSING, dataclass, field, fields, is_dataclass, replace
from functools import cache, lru_cache
from operator import attrgetter, countOf, pos
from types import NoneType, UnionType
from typing import TYPE_CHECKING, get_args, get_origin, get_type_hints

from .errors import InvalidOddError, ModelError, NotFoundError, OddsafeError, SchemaError

if TYPE_CHECKING:
    from .dtmc import Dtmc

#: rows must sum to 1 within this tolerance to be considered well-formed
ROW_SUM_ATOL = 1e-9
#: rows off by up to this much are renormalised (with a warning) on load
ROW_SUM_RENORM = 1e-6
#: how many state spaces a process keeps
GRID_CACHE_SIZE = 4


@dataclass(frozen=True)
class OddAttribute:
    """One discretised ODD attribute: a name plus its ordered value labels."""

    name: str
    values: tuple[str, ...]

    def __post_init__(self):
        object.__setattr__(self, "values", tuple(self.values))


@dataclass(frozen=True)
class Situation:
    """A point assignment of one value index per ODD attribute."""

    id: str
    assignment: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "assignment", tuple(self.assignment))


@dataclass(frozen=True)
class FailureMode:
    """A monitored failure condition; `label` is the atomic proposition name."""

    id: str
    label: str
    description: str = ""


@dataclass(frozen=True)
class Violation:
    """One well-formedness defect found by validate_scg."""

    code: str
    subject: str
    message: str


@dataclass(frozen=True)
class AugmentedScg:
    """An ODD's situation grid plus failures with a sparse row-stochastic
    transition map.

    The situations are the grid of `attributes` (see enumerate_situations), and
    `space` (see state_space) their states followed by the failures'; both
    are derived by value, not passed, and `replace` derives them again.
    `delta` maps each situation id to a sparse distribution over situation
    and failure ids (absent entries mean probability zero).  `sunk` holds the
    situation ids currently modelled as absorbing self-loops.  `compiled` is
    the model scg_from_dict validated the SCG by compiling; the first
    build_model takes it, and every other constructor (`replace` included)
    leaves it None.
    """

    attributes: tuple[OddAttribute, ...]
    failures: tuple[FailureMode, ...]
    delta: dict[str, dict[str, float]]
    sunk: frozenset[str] = field(default_factory=frozenset)
    compiled: Dtmc | None = field(default=None, init=False, compare=False, repr=False)
    space: StateSpace = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        object.__setattr__(self, "attributes", tuple(self.attributes))
        object.__setattr__(self, "failures", tuple(self.failures))
        object.__setattr__(self, "sunk", frozenset(self.sunk))
        # failure ids, not FailureModes: a description need not hash
        space = state_space(self.attributes, tuple(map(_ID, self.failures)))
        object.__setattr__(self, "space", space)

    @property
    def situations(self) -> tuple[Situation, ...]:
        """The situation grid of the ODD, built at each read."""
        return tuple(enumerate_situations(self.attributes))

    @property
    def situation_ids(self) -> list[str]:
        return list(self.space.situation_ids)

    @property
    def failure_ids(self) -> list[str]:
        return [f.id for f in self.failures]

    def is_situation(self, sid: str) -> bool:
        return self.space.is_situation(sid)

    def is_failure(self, sid: str) -> bool:
        return _member(sid, self.space.failure_set)


def _member(sid, ids: frozenset) -> bool:
    try:
        return sid in ids
    except TypeError:  # an unhashable id, such as a list a caller passes, names no state
        return False


class StateSpace:
    """The canonical states of an SCG and the lookups every layer reads.

    One instance is shared by every SCG over the same attributes and failure
    ids (see state_space), and by every model compiled from them, so no member
    may be mutated.  On an id that names both a situation and a failure the
    index holds the failure's position, as a dict built from the ordering does.
    """

    def __init__(self, size: int, failure_ids: tuple[str, ...]):
        self.situation_ids = tuple([f"s{i}" for i in range(size)])
        self.ids = self.situation_ids + failure_ids
        self.index = {sid: i for i, sid in enumerate(self.ids)}  # state id -> row
        self.situation_set = frozenset(self.situation_ids)
        self.failure_set = frozenset(failure_ids)

    def is_situation(self, sid: str) -> bool:
        return _member(sid, self.situation_set)


_ID = attrgetter("id")


@lru_cache(maxsize=GRID_CACHE_SIZE)
def state_space(
    attributes: tuple[OddAttribute, ...], failure_ids: tuple[str, ...]
) -> StateSpace:
    """The StateSpace of an ODD's situation grid and these failure ids, built
    once per value; InvalidOddError unless the attributes span a grid."""
    _check_attributes(attributes)
    return StateSpace(math.prod(len(a.values) for a in attributes), failure_ids)


def enumerate_situations(attributes: list[OddAttribute]) -> list[Situation]:
    """Enumerate the full situation grid in lexicographic index order, the
    first attribute slowest; ids are "s0", "s1", ... following that order."""
    _check_attributes(attributes)
    ranges = [range(len(a.values)) for a in attributes]
    return [
        Situation(id=f"s{i}", assignment=combo)
        for i, combo in enumerate(itertools.product(*ranges))
    ]


def _check_attributes(attributes: list[OddAttribute]) -> None:
    """Raise InvalidOddError unless the attributes span a non-empty grid."""
    if not attributes:
        raise InvalidOddError("ODD needs at least one attribute")
    names = [a.name for a in attributes]
    if len(set(names)) != len(names):
        raise InvalidOddError("duplicate attribute names in ODD")
    for attr in attributes:
        if not attr.values:
            raise InvalidOddError(f"attribute {attr.name!r} has no values")
        if len(set(attr.values)) != len(attr.values):
            raise InvalidOddError(f"attribute {attr.name!r} has duplicate values")


def describe_situation(scg: AugmentedScg, sid: str) -> str:
    """Render a situation as its attribute-value tuple, e.g. "(none,low,short)"."""
    if not scg.is_situation(sid):
        raise NotFoundError(f"unknown situation {sid!r}")
    i, labels = int(sid[1:]), []  # the number of the id "s{i}" state_space gives
    for attr in reversed(scg.attributes):  # the last attribute varies fastest
        i, v = divmod(i, len(attr.values))
        labels.append(attr.values[v])
    return "(" + ",".join(reversed(labels)) + ")"


def validate_scg(scg: AugmentedScg) -> list[Violation]:
    """Report every well-formedness defect; an empty list means valid."""
    return _violations(scg, rows=True)


def structural_violations(scg: AugmentedScg) -> list[Violation]:
    """Every defect validate_scg reports except those of the row rule."""
    return _violations(scg, rows=False)


def _violations(scg: AugmentedScg, rows: bool) -> list[Violation]:
    out: list[Violation] = []
    space = scg.space
    situation_ids, failure_ids = space.situation_set, space.failure_set

    if len(failure_ids) != len(scg.failures):
        out.append(Violation("duplicate-failure", "-", "duplicate failure ids"))
    overlap = situation_ids & failure_ids
    for sid in sorted(overlap):
        out.append(Violation("id-overlap", sid, f"{sid!r} is both situation and failure"))

    labels = [f.label for f in scg.failures]
    if len(set(labels)) != len(labels):
        out.append(Violation("duplicate-label", "-", "duplicate failure labels"))

    delta = scg.delta
    for sid in sorted(f for f in failure_ids if f in delta):
        out.append(
            Violation("failure-has-outgoing", sid, f"failure {sid!r} owns a delta row")
        )
    # rows keyed by exactly the situations, as usual, are neither missing nor
    # unknown: one C-level comparison instead of walking every id twice
    exact = delta.keys() == situation_ids
    if rows or not exact:
        for sid in space.situation_ids:
            row = delta.get(sid)
            if row is None:
                out.append(Violation("missing-row", sid, f"situation {sid!r} has no distribution"))
            elif rows:
                out += row_violations(sid, row, space.index)
    for sid in sorted(scg.sunk):
        if sid not in situation_ids:
            out.append(Violation("unknown-sunk", sid, f"sunk id {sid!r} is not a situation"))
        elif delta.get(sid) != {sid: 1.0}:
            out.append(
                Violation("sunk-not-self-loop", sid, f"sunk {sid!r} is not a pure self-loop")
            )
    extra = () if exact else delta.keys() - space.index  # the index has every state id
    for sid in sorted(extra):
        out.append(Violation("unknown-row", sid, f"delta row for unknown id {sid!r}"))
    return out


def row_violations(
    sid: str, row: dict[str, float], state_ids: Container[str]
) -> list[Violation]:
    """The row rule: known targets, each probability a number in [0, 1] (read
    through pos, as transition_matrix reads it), sum 1 within ROW_SUM_ATOL."""
    out = []
    for target, p in row.items():
        if target not in state_ids:
            out.append(
                Violation("unknown-target", sid, f"{sid!r} -> unknown state {target!r}")
            )
        try:
            in_range = 0.0 <= pos(p) <= 1.0
        except TypeError:  # a non-number
            in_range = False
        if not in_range:
            out.append(Violation("probability-range", sid, f"{sid!r} -> {target!r} = {p}"))
    try:
        total = sum(row.values())
        off = abs(float(total) - 1.0)  # float(): a Decimal minus a float is a TypeError
    except (TypeError, OverflowError):  # a non-number, or an int past float, reported above
        return out
    if off > ROW_SUM_ATOL:
        out.append(Violation("row-sum", sid, f"row {sid!r} sums to {total!r}"))
    return out


def _raise_violations(what: str, violations: list[Violation]) -> None:
    if violations:
        summary = "; ".join(f"{v.code}({v.subject})" for v in violations[:5])
        raise ModelError(f"invalid {what}: {summary}")


def require_valid(scg: AugmentedScg) -> None:
    """Raise ModelError when validate_scg reports anything."""
    _raise_violations("augmented SCG", validate_scg(scg))


def require_valid_row(scg: AugmentedScg, sid: str, row: dict[str, float]) -> None:
    """Raise ModelError when `row`, a new delta row of `sid`, breaks the row rule."""
    _raise_violations("delta row", row_violations(sid, row, scg.space.index))


def sink_situation(scg: AugmentedScg, *targets: str) -> AugmentedScg:
    """Make each target absorbing: its row becomes a self-loop of probability 1.

    Incoming transitions are untouched; the operation is idempotent.  It
    equals sinking the targets one by one, checks them all first, copies once.
    """
    for target in targets:
        if scg.is_failure(target):
            raise TypeError(f"cannot sink failure state {target!r}")
        if not scg.is_situation(target):
            raise NotFoundError(f"unknown situation {target!r}")
    if all(t in scg.sunk and scg.delta.get(t) == {t: 1.0} for t in targets):
        return scg
    # rows are never mutated in place, so the new SCG shares the others
    delta = {**scg.delta, **{t: {t: 1.0} for t in targets}}
    return replace(scg, delta=delta, sunk=scg.sunk | set(targets))


# ---------------------------------------------------------------------------
# JSON interchange


def scg_to_dict(scg: AugmentedScg) -> dict:
    """The JSON form of `scg` that the writers write, built directly: each row
    is a dict() copy that keeps the row's own key objects, where encode would
    give the keys of the JSON text."""
    return {
        "attributes": [
            {"name": a.name, "values": list(a.values)} for a in scg.attributes
        ],
        "failures": [
            {"id": f.id, "label": f.label, "description": f.description}
            for f in scg.failures
        ],
        "delta": {sid: dict(row) for sid, row in scg.delta.items()},
        "sunk": sorted(scg.sunk),
    }


@dataclass(frozen=True)
class _ScgDocument:
    """The JSON form of an AugmentedScg as decode reads it; `delta` is taken
    as it is, for scg_from_dict to compile or to decode row by row."""

    attributes: tuple[OddAttribute, ...]
    failures: tuple[FailureMode, ...]
    delta: dict
    sunk: frozenset[str] = frozenset()


def scg_from_dict(doc: dict, path: str = "$") -> AugmentedScg:
    """Build an AugmentedScg from its JSON form, found at `path` of its
    document, renormalising noisy rows.

    Rows off 1 by at most ROW_SUM_RENORM are renormalised with a warning;
    anything worse raises ModelError.  A document of the wrong shape, an
    unknown key or a probability that is no number included, raises
    SchemaError naming the offending path.  The SCG is validated by
    compiling it, and keeps the model for its first build_model.

    A document with a row for every situation is compiled first as it is,
    its rows taken, not copied: the compile's float fill checks every value's
    type and the row rule (transition_matrix), structural_violations the
    rest.  So the caller must not mutate the document after loading it.  A
    document holding any value other than a float, and one the compile
    rejects, goes through _decode_rows, which converts the values,
    renormalises or rejects each row by its sum and names the first defect.
    """
    head = decode(_ScgDocument, doc, path)
    attributes, failures, rows, sunk = head.attributes, head.failures, head.delta, head.sunk
    _check_attributes(attributes)
    size = math.prod(len(a.values) for a in attributes)
    if size <= len(rows):
        try:
            return _compiled(AugmentedScg(attributes, failures, dict(rows), sunk), True)
        except ModelError:
            pass  # the row loop finds the defect and names it
    delta = _decode_rows(rows, path)
    if size > len(delta):  # some situation has no row; do not build the grid
        raise ModelError(f"invalid augmented SCG: {size} situations, {len(delta)} delta rows")
    return _compiled(AugmentedScg(attributes, failures, delta, sunk))


def _decode_rows(rows: dict, path: str) -> dict[str, dict[str, float]]:
    """The rows of the document at `path`, one by one: values read as decode
    reads a float, rows off 1 by at most ROW_SUM_RENORM renormalised with a
    warning, and the first bad row, value or sum an error."""
    delta: dict[str, dict[str, float]] = {}
    for sid, row in rows.items():
        at = f"{path}.delta.{sid}"
        try:
            items = row.items()  # a row that is no JSON object fails here
        except AttributeError as exc:
            raise SchemaError(f"a delta row must map ids to numbers: {exc}", [at]) from exc
        if countOf(map(type, row.values()), float) == len(row):
            row = dict(row)  # JSON numbers with a point decode as floats already
        else:  # decode reads the rest; a float, NaN or infinite, is the compile's
            row = {t: p if type(p) is float else decode(float, p, f"{at}.{t}") for t, p in items}
        total = sum(row.values())
        off = abs(total - 1.0)
        if ROW_SUM_ATOL < off <= ROW_SUM_RENORM:
            # the caller of scg_from_dict, two frames up
            warnings.warn(f"renormalising row {sid!r} (sum {total!r})", stacklevel=3)
            row = {t: p / total for t, p in row.items()}
        elif off > ROW_SUM_RENORM:
            raise ModelError(f"row {sid!r} sums to {total!r}; beyond renormalisation")
        delta[sid] = row
    return delta


def _compiled(scg: AugmentedScg, document: bool = False) -> AugmentedScg:
    """`scg` holding the model build_model validated it by; for `document`
    see transition_matrix."""
    from .dtmc import build_model  # deferred: dtmc imports this module

    object.__setattr__(scg, "compiled", build_model(scg, document))
    return scg


def save_scg(scg: AugmentedScg, path) -> None:
    write_json(scg, path)


def read_json(path):
    """The JSON document in the file at `path`; text that does not decode, or
    is no JSON, is a SchemaError."""
    with open(path) as fh:
        try:
            return json.load(fh)
        except json.JSONDecodeError as exc:
            raise SchemaError(f"{path}: invalid JSON: {exc}") from exc
        except UnicodeDecodeError as exc:
            raise SchemaError(f"{path}: not text: {exc}") from exc


def _write_text(path, chunks) -> None:
    """Write the strings of `chunks` to `<path>.tmp`, which then replaces the
    file at `path`: a failed write leaves that as it was.  The name is the
    same for each write to `path`, so the next one replaces a temporary file
    a killed process left; this takes one writer per path at a time."""
    import os  # deferred to the first write, as the module's import needs none

    tmp = f"{path}.tmp"  # in the same directory, for os.replace
    try:
        with open(tmp, "w") as fh:
            fh.writelines(chunks)
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):  # the write failed before os.replace moved it
            os.remove(tmp)


def write_json(value, path) -> None:
    """Write `value` as encode does, indented with keys sorted."""
    encoder = json.JSONEncoder(indent=2, sort_keys=True, default=_written)
    _write_text(path, itertools.chain(encoder.iterencode(value), ["\n"]))


def write_json_lines(records, path) -> None:
    """Write each record as encode does, one line of JSON each."""
    # records nest as trees: json need not look for cycles
    line = json.JSONEncoder(check_circular=False, default=_written).encode
    _write_text(path, (line(record) + "\n" for record in records))


def load_scg(path) -> AugmentedScg:
    return scg_from_dict(read_json(path))


#: the annotations of each record type decode has read
_type_hints = cache(get_type_hints)


def decode(kind, doc, path: str = "$"):
    """`doc`, a decoded JSON value, read as a value of type `kind`.

    A dataclass is read from a JSON object of its init fields, each as its
    annotation says: `X | None`; a list, tuple or frozenset from an array;
    `dict[str, T]` from an object, and a bare `dict` as it is; `str`, `bool`
    and `int` (no bool) as they are; `float` from any finite number.
    AugmentedScg has scg_from_dict read it at `path`.  A value of another
    type, an unknown or missing key (a `written_only` field is no key), or a
    record its `__post_init__` rejects is a SchemaError naming its path.
    """
    if type(doc) is kind and kind in (str, bool, int):  # type(), so an int is no bool
        return doc
    if kind is AugmentedScg:
        return scg_from_dict(doc, path)
    origin, args = get_origin(kind) or kind, get_args(kind)
    if origin is UnionType:  # X | None
        (inner,) = set(args) - {NoneType}
        return None if doc is None else decode(inner, doc, path)
    if origin is float:
        if type(doc) not in (int, float) or not abs(doc) <= sys.float_info.max:  # NaN fails too
            raise SchemaError(f"expected a finite number, not {reprlib.repr(doc)}", [path])
        return float(doc)
    if origin is dict and type(doc) is dict:
        if not args:  # a bare dict, such as an SCG's delta, is taken as it is
            return doc
        return {key: decode(args[1], value, f"{path}.{key}") for key, value in doc.items()}
    if origin in (list, tuple, frozenset) and type(doc) is list:
        return origin([decode(args[0], value, f"{path}[{i}]") for i, value in enumerate(doc)])
    if not (is_dataclass(kind) and type(doc) is dict):
        raise SchemaError(f"expected {kind.__name__.lstrip('_')}, not {reprlib.repr(doc)}", [path])
    init = [f for f in fields(kind) if f.init and not f.metadata.get("written_only")]
    odd = doc.keys() - {f.name for f in init}
    odd |= {f.name for f in init if f.default is f.default_factory is MISSING} - doc.keys()
    if odd:
        raise SchemaError("unknown or missing keys", sorted(f"{path}.{key}" for key in odd))
    hints = _type_hints(kind)
    values = {key: decode(hints[key], value, f"{path}.{key}") for key, value in doc.items()}
    try:
        return kind(**values)
    except (ValueError, OddsafeError) as exc:  # its __post_init__ rejects it
        raise SchemaError(str(exc), [path]) from exc


#: per record type written so far: the attributes it drops, the fields it omits when None
_plans: dict[type, tuple[list[str], list[str]]] = {}


def encode(value):
    """`value` as the JSON value decode reads it from: the value of the text
    the writers write of it (see _written)."""
    return json.loads(json.dumps(value, check_circular=False, default=_written))


def _written(value):
    """What the JSON writers write of a value json has no rule for: a record as
    the object of its init fields in field order, less those marked `unwritten`
    and those marked `omit_none` or `written_only` that are None; a frozenset as
    a sorted array; a type with its own to_dict (CriticalityReport) as that."""
    try:  # a record type written before, the common case, first
        dropped, omit_none = _plans[type(value)]
    except KeyError:
        kind = type(value)
        if kind is frozenset:
            return sorted(value)
        if "to_dict" in vars(kind):
            return value.to_dict()
        dropped, omit_none = _plans[kind] = (
            [f.name for f in fields(kind) if not f.init or f.metadata.get("unwritten")],
            [f.name for f in fields(kind) if f.metadata.keys() & {"omit_none", "written_only"}],
        )
    if not dropped and not omit_none:  # json only reads it: no copy
        return value.__dict__
    doc = value.__dict__.copy()  # a dataclass's fields, in field order
    for name in dropped:
        doc.pop(name, None)
    for name in omit_none:
        if doc[name] is None:
            del doc[name]
    return doc


class Record:
    """A record type whose to_dict is what encode writes of it."""

    def to_dict(self) -> dict:
        return encode(self)
