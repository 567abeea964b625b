"""Property test: any JSON value given to measure/compare/deduce ends in an
answer (exit 0), one ``error:`` line (exit 1) or one ``resource limit:`` line
(exit 3), never a traceback, and within a time bound.

Values are drawn two ways: arbitrary JSON built from scalars, lists and
objects, and the documents of the golden corpus with one field replaced by an
arbitrary value or by a field of another golden document.
"""

import copy
import json
import time
from pathlib import Path

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from titsmeasure import cli

CORPUS = json.loads(
    (Path(__file__).resolve().parent / "golden" / "expected.json").read_text(encoding="utf-8")
)
COMMANDS = ("measure", "compare", "deduce")
GOLDEN_DOCS = [
    json.loads(case["argv"][1])
    for _, case in sorted(CORPUS.items())
    if case["argv"][0] in COMMANDS and case["argv"][1].startswith("{")
]
TIME_BOUND_S = 2.0

# Field names and tags of the schemas, so that drawn objects reach past the
# first missing-field check.
KEYS = (
    "group", "kind", "orders", "index_oracle", "coords", "index", "variety", "x", "y",
    "family", "alg", "degree", "class", "d", "form", "shadow", "dim", "clifford_class",
    "i3_zero", "deg", "alg_class", "cplus", "cminus", "children", "invariants", "place", "inv",
)
TAGS = (
    "abstract", "rational", "severi-brauer", "grassmannian", "quadric", "involution",
    "product", "real", "1/2", "-3/4", "1/0", "2e3", "",
)

scalars = (
    st.none()
    | st.booleans()
    | st.integers(-50, 50)
    | st.integers()
    | st.floats(allow_nan=False, allow_infinity=False)
    | st.sampled_from(TAGS)
    | st.text(max_size=6)
)
json_values = st.recursive(
    scalars,
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.sampled_from(KEYS) | st.text(max_size=4), inner, max_size=5),
    max_leaves=12,
)


def _paths(doc, prefix=()):
    yield prefix
    items = doc.items() if isinstance(doc, dict) else enumerate(doc) if isinstance(doc, list) else ()
    for key, value in items:
        yield from _paths(value, prefix + (key,))


def _get(doc, path):
    for key in path:
        doc = doc[key]
    return doc


GOLDEN_FIELDS = [_get(doc, path) for doc in GOLDEN_DOCS for path in _paths(doc)]


@st.composite
def golden_with_a_field_swapped(draw):
    doc = copy.deepcopy(draw(st.sampled_from(GOLDEN_DOCS)))
    path = draw(st.sampled_from(list(_paths(doc))))
    value = copy.deepcopy(draw(json_values | st.sampled_from(GOLDEN_FIELDS)))
    if not path:
        return value
    _get(doc, path[:-1])[path[-1]] = value
    return doc


def _check(capsys, command, doc):
    start = time.perf_counter()
    code = cli.main([command, "--", json.dumps(doc)])
    elapsed = time.perf_counter() - start
    out, err = capsys.readouterr()
    assert code in (0, 1, 3), (code, err)
    assert "Traceback" not in err
    if code == 0:
        assert out and not err
    else:
        prefix = "error: " if code == 1 else "resource limit: "
        assert out == "" and err.startswith(prefix) and err.count("\n") == 1, err
    assert elapsed < TIME_BOUND_S


SETTINGS = settings(
    max_examples=200,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture, HealthCheck.too_slow],
)


@SETTINGS
@given(command=st.sampled_from(COMMANDS), doc=json_values)
def test_any_json_value(capsys, command, doc):
    _check(capsys, command, doc)


@SETTINGS
@given(command=st.sampled_from(COMMANDS), doc=golden_with_a_field_swapped())
def test_golden_document_with_a_field_swapped(capsys, command, doc):
    _check(capsys, command, doc)
