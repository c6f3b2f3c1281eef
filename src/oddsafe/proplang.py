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

from .dtmc import BoundedReachProperty
from .errors import PropertyRangeError, PropertySyntaxError, SchemaError

_IDENT = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")
#: ASCII digits: \d would read any Unicode digit, and format_property write it back
_NUMBER = re.compile(r"[0-9]+(?:\.[0-9]*)?|\.[0-9]+")
_DIGITS = re.compile(r"[0-9]+")
#: the largest step bound k: a check runs k sweeps over the whole operator,
#: so a larger k would run for minutes on a large grid
MAX_HORIZON = 10_000


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


def parse_property(name: str, expression: str) -> BoundedReachProperty:
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


def format_property(prop: BoundedReachProperty) -> str:
    """Canonical single-spaced rendering; parses back to an equal property."""
    return (
        f"P {prop.comparator} {prop.bound!r} "
        f"[ F<={prop.horizon} {prop.target_label} ]"
    )


def require_distinct_names(properties: list[BoundedReachProperty], path: str) -> None:
    """Raise SchemaError at the first property whose name is not text or
    repeats an earlier one: results are keyed by name, so a repeated name
    would drop the earlier requirement."""
    names = [p.name for p in properties]
    for i, name in enumerate(names):
        if not isinstance(name, str):
            raise SchemaError("property name must be text", [f"{path}[{i}].name"])
        if name in names[:i]:
            raise SchemaError(f"property name {name!r} is repeated", [f"{path}[{i}].name"])


def parse_properties_file(doc: list) -> list[BoundedReachProperty]:
    """Parse a non-empty JSON array of {name, expression} records with
    distinct text names."""
    if not isinstance(doc, list):
        raise SchemaError("properties file must be a JSON array", ["$"])
    if not doc:
        raise SchemaError("properties file lists no property", ["$"])
    props = []
    for i, entry in enumerate(doc):
        if not isinstance(entry, dict) or "name" not in entry or "expression" not in entry:
            raise SchemaError("property entry needs name and expression", [f"$[{i}]"])
        props.append(parse_property(entry["name"], entry["expression"]))
    require_distinct_names(props, "$")
    return props
