import pytest
from hypothesis import given, settings
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


@pytest.mark.parametrize("doc", [{}, [{"name": "p"}], [42]])
def test_properties_file_schema_errors(doc):
    with pytest.raises(SchemaError):
        parse_properties_file(doc)


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
