"""Property test: ``--format json`` prints what the stdlib prints.

``cli._emit`` writes its JSON without the ``json`` module's encoder.  The
oracle is ``json.dumps(value, indent=2, sort_keys=True)`` plus the newline
``print`` adds, on generated JSON values, and the stdlib's exception on values
it refuses.
"""

import contextlib
import io
import json
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from titsmeasure import cli

# Every code point, lone surrogates included, with the characters JSON
# escapes drawn often.
CHARS = st.one_of(
    st.sampled_from('"\\/\n\r\t\b\f\x00\x1f\x7f \ud800\U0001f600é'),
    st.characters(codec=None, exclude_categories=()),
)
TEXT = st.text(CHARS, max_size=12)
SCALARS = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.integers(min_value=2**64, max_value=2**300).flatmap(lambda i: st.sampled_from((i, -i))),
    st.floats(allow_nan=False, allow_infinity=False),
    TEXT,
)
VALUES = st.recursive(
    SCALARS,
    lambda inner: st.one_of(
        st.lists(inner, max_size=5),
        st.lists(inner, max_size=5).map(tuple),
        st.dictionaries(TEXT, inner, max_size=5),
    ),
    max_leaves=15,
)


def emitted(value):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        cli._emit(value, "json")
    return out.getvalue()


def stdlib(value):
    return json.dumps(value, indent=2, sort_keys=True) + "\n"


def outcome(printer, value):
    try:
        return printer(value)
    except (TypeError, ValueError) as exc:
        return type(exc), str(exc)


@given(VALUES)
@settings(max_examples=150, deadline=None)
def test_json_values_print_as_the_stdlib_prints_them(value):
    assert emitted(value) == stdlib(value)


@pytest.mark.parametrize(
    "value",
    [
        {},
        [],
        (),
        {"a": [], "b": {}, "c": ()},
        Fraction(1, 2),
        {"x": {3, 5}},
        {"a": [1, Fraction(2, 3)]},
        {"digits": 10**5000},  # past the 4,300-digit str limit, where Python has one
    ],
    ids=["empty-dict", "empty-list", "empty-tuple", "empty-children",
         "fraction", "set", "nested-fraction", "long-int"],
)
def test_edge_values_match_the_stdlib(value):
    assert outcome(emitted, value) == outcome(stdlib, value)
