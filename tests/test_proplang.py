import sys

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from oddsafe.errors import (
    PropertyError,
    PropertyRangeError,
    PropertySyntaxError,
    SchemaError,
)
from oddsafe.proplang import (
    MAX_HORIZON,
    format_property,
    parse_property,
    parse_properties_file,
)

from helpers import reference_parse_property


def test_parse_comparator_form():
    prop = parse_property("phi1", "P < 0.99 [ F<=50 f1 ]")
    assert prop.name == "phi1"
    assert prop.comparator == "<"
    assert prop.bound == 0.99
    assert prop.horizon == 50
    assert prop.target_label == "f1"


def test_parse_query_alias_normalises():
    a = parse_property("p", "P=? [ F<=50 f1 ] < 0.99")
    b = parse_property("p", "P < 0.99 [ F<=50 f1 ]")
    assert a == b


def test_parse_is_whitespace_insensitive():
    a = parse_property("p", "P<0.5[F<=10 f2]")
    b = parse_property("p", "  P  <  0.5  [  F<= 10   f2  ]  ")
    assert a == b


@pytest.mark.parametrize(
    "expr,column",
    [
        ("Q < 0.5 [ F<=10 f1 ]", 1),
        ("P ? 0.5 [ F<=10 f1 ]", 3),
        ("P < x [ F<=10 f1 ]", 5),
        ("P < 0.5 ( F<=10 f1 ]", 9),
        ("P < 0.5 [ G<=10 f1 ]", 11),
        ("P < 0.5 [ F<=10 f1 ] junk", 22),
    ],
)
def test_syntax_errors_carry_columns(expr, column):
    with pytest.raises(PropertySyntaxError) as exc:
        parse_property("p", expr)
    assert exc.value.column == column


@pytest.mark.parametrize(
    "expr",
    [
        "P < 1.5 [ F<=10 f1 ]",
        "P < 0.5 [ F<=0 f1 ]",
        f"P < 0.5 [ F<={MAX_HORIZON + 1} f1 ]",
        "P < 0.5 [ F<=99999999999 f2 ]",
        # more digits than int() converts: rejected before it reads them
        f"P < 0.5 [ F<={'9' * 5000} f1 ]",
        f"P=? [ F<={'9' * 5000} f1 ] < 0.5",
    ],
)
def test_range_errors(expr):
    with pytest.raises(PropertyRangeError):
        parse_property("p", expr)


def test_step_bounds_up_to_the_maximum_parse():
    assert parse_property("p", f"P < 0.5 [ F<={MAX_HORIZON} f1 ]").horizon == MAX_HORIZON
    assert parse_property("p", f"P < 0.5 [ F<={'0' * 5000}50 f1 ]").horizon == 50


@pytest.mark.parametrize(
    "expr,column",
    [
        ("P < \u0660.5 [ F<=10 f1 ]", 5),  # an Arabic-Indic zero in the bound
        ("P < 0.\u0665 [ F<=10 f1 ]", 7),
        ("P < 0.5 [ F<=\u0665 f1 ]", 14),  # an Arabic-Indic five as the horizon
        ("P < 0.5 [ F<=5\u0665 f1 ]", 15),
        ("P=? [ F<=\u0969 f1 ] < 0.5", 10),  # a Devanagari three
        ("P=? [ F<=3 f1 ] < \uff10.5", 19),  # a fullwidth zero
    ],
)
def test_only_ascii_digits_are_numbers(expr, column):
    # \d matched any Unicode digit, and format_property wrote it back as ASCII
    with pytest.raises(PropertySyntaxError) as exc:
        parse_property("p", expr)
    assert exc.value.column == column


def test_non_string_expression():
    with pytest.raises(PropertySyntaxError):
        parse_property("p", 42)


def test_format_is_canonical():
    prop = parse_property("phi2", "P=? [ F<=50 f2 ] < 0.95")
    assert format_property(prop) == "P < 0.95 [ F<=50 f2 ]"


@given(
    comparator=st.sampled_from(["<", "<=", ">", ">="]),
    bound=st.integers(0, 10000).map(lambda n: n / 10000),
    horizon=st.integers(1, 500),
    label=st.from_regex(r"[A-Za-z_][A-Za-z0-9_]{0,8}", fullmatch=True),
)
def test_format_parse_round_trip(comparator, bound, horizon, label):
    expr = f"P {comparator} {bound!r} [ F<={horizon} {label} ]"
    prop = parse_property("p", expr)
    assert format_property(prop) == expr
    assert parse_property("p", format_property(prop)) == prop


@settings(max_examples=300)
@given(st.text(max_size=40))
def test_parser_never_crashes_on_garbage(text):
    try:
        parse_property("p", text)
    except PropertyError:
        pass


def test_properties_file_parsing():
    props = parse_properties_file(
        [
            {"name": "phi1", "expression": "P < 0.99 [ F<=50 f1 ]"},
            {"name": "phi2", "expression": "P < 0.95 [ F<=50 f2 ]"},
        ]
    )
    assert [p.name for p in props] == ["phi1", "phi2"]


@pytest.mark.parametrize(
    "doc, path",
    [
        ({}, "$"),
        ([{"name": "p"}], "$[0].expression"),
        ([42], "$[0]"),
        ([{"name": "p", "expression": "P < 0.5 [ F<=5 f1 ]", "bogus": 1}], "$[0].bogus"),
        ([{"name": "p", "expression": 0.5}], "$[0].expression"),
    ],
)
def test_properties_file_schema_errors(doc, path):
    with pytest.raises(SchemaError) as exc:
        parse_properties_file(doc)
    assert exc.value.paths == [path]


@pytest.mark.parametrize(
    "names, path",
    [(["phi", "psi", "phi"], "$[2].name"), (["phi", ["phi"]], "$[1].name")],
    ids=["repeated", "not-text"],
)
def test_properties_file_rejects_names_results_cannot_key(names, path):
    # results are keyed by name: a repeated name would drop a requirement
    doc = [{"name": name, "expression": "P < 0.5 [ F<=50 f1 ]"} for name in names]
    with pytest.raises(SchemaError) as exc:
        parse_properties_file(doc)
    assert exc.value.paths == [path]


# ---------------------------------------------------------------------------
# the token table against the cursor parser it replaced

DIFFERENTIAL = settings(
    derandomize=True,
    max_examples=2000,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

#: every code point str.isspace() accepts, and three that look like space but
#: are not
SPACES = [c for c in map(chr, range(sys.maxunicode + 1)) if c.isspace()]
NOT_SPACES = ["\u200b", "\u180e", "\ufeff"]
#: digits of other scripts, and digit-like characters that are no decimals
ODD_DIGITS = ["\u0660", "\u0665", "\u0969", "\uff10", "\u00b2", "\u2460"]


def _outcome(parse, expression):
    try:
        prop = parse("p", expression)
    except PropertyError as exc:
        return type(exc), str(exc), getattr(exc, "column", None)
    return prop, repr(prop.bound), type(prop.horizon)


def _assert_parses_alike(expression):
    assert _outcome(parse_property, expression) == _outcome(
        reference_parse_property, expression
    )


def _tokens(form, comparator, bound, horizon, label):
    reach = ["[", "F", "<=", horizon, label, "]"]
    if form == "query":
        return ["P", "=?", *reach, comparator, bound]
    return ["P", comparator, bound, *reach]


TOKEN_POOL = [
    "P", "=?", "=", "?", "[", "]", "(", "F", "G", "<=", "<", ">", ">=", "=<",
    "0.5", "1.", ".5", ".", "1.5", "0", "10", "1e3", "-1", "f1", "_x9", "9x",
    *ODD_DIGITS, *NOT_SPACES,
]


@st.composite
def mutated_expressions(draw):
    """A valid expression of either form, with tokens dropped, repeated,
    swapped or replaced, joined by spaces of every kind or by nothing."""
    tokens = _tokens(
        draw(st.sampled_from(["compare", "query"])),
        draw(st.sampled_from(["<", "<=", ">", ">="])),
        draw(st.sampled_from(["0", "0.5", "1", "1.0", ".25", "7.", "00.990"])),
        draw(st.sampled_from(["1", "50", "010", "10000", "10001", "0"])),
        draw(st.sampled_from(["f1", "f_2", "_", "Fail9"])),
    )
    for _ in range(draw(st.integers(0, 3))):
        i = draw(st.integers(0, len(tokens) - 1))
        edit = draw(st.sampled_from(["drop", "repeat", "swap", "replace"]))
        if edit == "drop":
            del tokens[i]
        elif edit == "repeat":
            tokens.insert(i, tokens[i])
        elif edit == "swap":
            j = draw(st.integers(0, len(tokens) - 1))
            tokens[i], tokens[j] = tokens[j], tokens[i]
        else:
            tokens[i] = draw(st.sampled_from(TOKEN_POOL))
        if not tokens:
            break
    gaps = st.sampled_from(["", "", " ", "  ", "\t", "\n", *SPACES, *NOT_SPACES])
    text = draw(gaps)
    for token in tokens:
        text += token + draw(gaps)
    return text


@DIFFERENTIAL
@given(
    st.one_of(
        st.text(max_size=40),
        st.text(st.sampled_from("P=?[]F<>0123456789._ fx\t\u0665\u3000"), max_size=30),
    )
)
def test_token_table_agrees_with_the_cursor_parser_on_any_text(text):
    _assert_parses_alike(text)


@DIFFERENTIAL
@given(mutated_expressions())
def test_token_table_agrees_with_the_cursor_parser_on_mutated_expressions(text):
    _assert_parses_alike(text)


@pytest.mark.parametrize("space", SPACES + NOT_SPACES, ids=lambda c: f"U+{ord(c):04X}")
def test_token_table_agrees_with_the_cursor_parser_on_every_space(space):
    for tokens in (
        _tokens("compare", "<=", "0.5", "50", "f1"),
        _tokens("query", ">", "1", "7", "f1"),
    ):
        for i in range(len(tokens) + 1):
            _assert_parses_alike(" ".join(tokens[:i]) + space + " ".join(tokens[i:]))
        _assert_parses_alike(space.join(["", *tokens, ""]))


@pytest.mark.parametrize("digit", ODD_DIGITS)
def test_token_table_agrees_with_the_cursor_parser_on_other_digits(digit):
    for form in ("compare", "query"):
        for bound, horizon in ((digit, "5"), (f"0.{digit}", "5"), ("0.5", digit), ("0.5", f"5{digit}")):
            _assert_parses_alike(" ".join(_tokens(form, "<", bound, horizon, "f1")))


@pytest.mark.parametrize(
    "horizon, error",
    [
        (str(MAX_HORIZON), PropertySyntaxError),
        (str(MAX_HORIZON + 1), PropertyRangeError),
        ("9" * 5000, PropertyRangeError),
    ],
    ids=["maximum", "above", "5000-digits"],
)
@pytest.mark.parametrize("form", ["compare", "query"])
def test_a_step_bound_is_read_before_a_later_syntax_error(form, horizon, error):
    tokens = _tokens(form, "<", "0.5", horizon, "f1")
    tokens[tokens.index("]")] = ")"
    text = " ".join(tokens)
    with pytest.raises(error):
        parse_property("p", text)
    _assert_parses_alike(text)
