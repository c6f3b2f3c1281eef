"""Mini-language for bounded-reachability properties.

Grammar (whitespace-insensitive):

    P <cmp> <bound> [ F<= <k> <label> ]

with <cmp> in {<, <=, >, >=}, <bound> a decimal in [0, 1], <k> an integer in
1..10000 (MAX_HORIZON) and <label> an identifier.  The query form
`P=? [ F<=k label ] <cmp> <bound>` is accepted as an alias and normalised to
the comparator form.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from .dtmc import BoundedReachProperty
from .errors import PropertyRangeError, PropertySyntaxError, SchemaError
from .scg import decode

#: the largest step bound k: a check runs k sweeps over the whole operator,
#: so a larger k would run for minutes on a large grid
MAX_HORIZON = 10_000


def _step_bound(digits: str) -> int:
    """A step bound of at most MAX_HORIZON, whose digits are counted before
    int() reads them."""
    digits = digits.lstrip("0") or "0"
    if len(digits) > len(str(MAX_HORIZON)) or int(digits) > MAX_HORIZON:
        raise PropertyRangeError(f"step bound above the maximum {MAX_HORIZON}")
    return int(digits)


#: each token of the grammar: its pattern, the error where it is missing, and
#: how its text is read (None: not kept).  Numbers are ASCII digits: \d would
#: read any Unicode digit, and format_property write it back.
_TOKENS = {
    "P": (re.compile(r"P"), "expected \"'P'\"", None),
    "=?": (re.compile(r"=\?"), "expected '=?'", None),
    "[": (re.compile(r"\["), "expected \"'['\"", None),
    "F": (re.compile(r"F"), "expected \"'F'\"", None),
    "<=": (re.compile(r"<="), "expected \"'<='\"", None),
    "]": (re.compile(r"\]"), "expected \"']'\"", None),
    "cmp": (re.compile(r"[<>]=?"), "expected comparator (<, <=, >, >=)", str),
    "bound": (re.compile(r"[0-9]+(?:\.[0-9]*)?|\.[0-9]+"), "expected probability bound", float),
    "k": (re.compile(r"[0-9]+"), "expected step bound", _step_bound),
    "label": (re.compile(r"[A-Za-z_][A-Za-z0-9_]*"), "expected label identifier", str),
    "end": (re.compile(r"\Z"), "unexpected trailing input", None),
}
_REACH = ("[", "F", "<=", "k", "label", "]")
_COMPARE_FORM = ("P", "cmp", "bound", *_REACH, "end")
_QUERY_FORM = ("P", "=?", *_REACH, "cmp", "bound", "end")
_QUERY = re.compile(r"\s*P\s*=\?")
_SPACE = re.compile(r"\s*")


def parse_property(name: str, expression: str) -> BoundedReachProperty:
    """Parse one property expression; errors carry a 1-based column."""
    if not isinstance(expression, str):
        raise PropertySyntaxError("expression must be text", 1)
    values = {}
    pos = 0
    for token in _QUERY_FORM if _QUERY.match(expression) else _COMPARE_FORM:
        pattern, error, read = _TOKENS[token]
        pos = _SPACE.match(expression, pos).end()
        m = pattern.match(expression, pos)
        if not m:
            raise PropertySyntaxError(error, pos + 1)
        if read:
            values[token] = read(m.group())
        pos = m.end()
    if not (0.0 <= values["bound"] <= 1.0):
        raise PropertyRangeError(f"bound {values['bound']} outside [0, 1]")
    if values["k"] < 1:
        raise PropertyRangeError("step bound must be >= 1")
    return BoundedReachProperty(
        name=name,
        target_label=values["label"],
        horizon=values["k"],
        comparator=values["cmp"],
        bound=values["bound"],
    )


def format_property(prop: BoundedReachProperty) -> str:
    """Canonical single-spaced rendering; parses back to an equal property."""
    return (
        f"P {prop.comparator} {prop.bound!r} "
        f"[ F<={prop.horizon} {prop.target_label} ]"
    )


@dataclass(frozen=True)
class PropertyEntry:
    """One record of a properties list: a requirement's name and expression."""

    name: str
    expression: str


def parse_properties_file(doc: list, path: str = "$") -> list[BoundedReachProperty]:
    """Parse a JSON array of {name, expression} records, found at `path` of
    its document (see parse_entries)."""
    return parse_entries(decode(list[PropertyEntry], doc, path), path)


def parse_entries(entries: list[PropertyEntry], path: str) -> list[BoundedReachProperty]:
    """Parse the property records of the non-empty list at `path`, with
    distinct names: results are keyed by name, so a repeated name would drop
    the earlier requirement."""
    if not entries:  # nothing to check would log every step compliant
        raise SchemaError("properties file lists no property", [path])
    props = [parse_property(entry.name, entry.expression) for entry in entries]
    names = [p.name for p in props]
    for i, name in enumerate(names):
        if name in names[:i]:
            raise SchemaError(f"property name {name!r} is repeated", [f"{path}[{i}].name"])
    return props
