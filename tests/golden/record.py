"""Record the golden CLI corpus: argv, exit code and stdout per invocation.

Run from the repository root with ``PYTHONPATH=src python tests/golden/record.py``
to rewrite ``tests/golden/expected.json``.  Only do that when an output change
is intended; ``tests/test_golden_cli.py`` replays the file and demands
byte-identical stdout and the same exit codes.
"""

from __future__ import annotations

import contextlib
import io
import json
from pathlib import Path

from titsmeasure import cli

HERE = Path(__file__).resolve().parent


def _doc(obj) -> str:
    return json.dumps(obj, sort_keys=True)


def _abstract(*orders, oracle=None):
    g = {"kind": "abstract", "orders": list(orders)}
    if oracle:
        g["index_oracle"] = [{"coords": c, "index": i} for c, i in oracle]
    return g


RATIONAL = {"kind": "rational"}


def _sb(coords, degree):
    return {"family": "severi-brauer", "alg": {"degree": degree, "class": {"coords": coords}}}


def _gr(d, coords, degree):
    return {"family": "grassmannian", "d": d, "alg": {"degree": degree, "class": {"coords": coords}}}


def _shadow(dim, coords, i3=False):
    return {"family": "quadric", "shadow": {"dim": dim, "clifford_class": {"coords": coords}, "i3_zero": i3}}


def _inv(deg, alg, cplus, cminus):
    return {"family": "involution", "deg": deg, "alg_class": {"coords": alg},
            "cplus": {"coords": cplus}, "cminus": {"coords": cminus}}


def _prod(*children):
    return {"family": "product", "children": list(children)}


def _measure(group, variety):
    return _doc({"group": group, "variety": variety})


def _pair(group, x, y, **extra):
    return _doc({"group": group, "x": x, "y": y, **extra})


QUAD6_A = {"family": "quadric", "form": ["1", "1", "1", "-1", "-1", "-1"]}
QUAD6_B = {"family": "quadric", "form": ["2", "1", "1", "-1", "-1", "-2"]}
RAT_CONIC = {"family": "severi-brauer", "alg": {"degree": 2, "class": {"invariants": [
    {"place": "real", "inv": "1/2"}, {"place": 2, "inv": "1/2"}]}}}
RAT_DEG4 = {"family": "severi-brauer", "alg": {"degree": 4, "class": {"invariants": [
    {"place": 3, "inv": "1/4"}, {"place": 5, "inv": "3/4"}]}}}

QUAD8_A = {"family": "quadric", "form": ["1", "1", "1", "1", "-1", "-1", "-1", "-1"]}
QUAD8_B = {"family": "quadric", "form": ["-1", "1", "-1", "1", "-1", "1", "-1", "1"]}
INV8_A = _inv(8, [1, 1], [1, 0], [0, 1])
INV8_B = _inv(8, [1, 1], [0, 1], [1, 0])
Z2 = _abstract(2)
V4 = _abstract(2, 2)
CONICS_A = _prod(_sb([1, 0], 2), _sb([0, 1], 2))
CONICS_B = _prod(_sb([0, 1], 2), _sb([1, 0], 2))
QUADS5_A = _prod(_shadow(5, [1, 0]), _shadow(5, [0, 1]))
QUADS5_B = _prod(_shadow(5, [0, 1]), _shadow(5, [1, 0]))
JSON = ("--format", "json")


def _quads(m, dim):
    """m copies of a dim-dimensional shadow with the nonzero class of Z/2."""
    return _prod(*[_shadow(dim, [1]) for _ in range(m)])


CASES: dict[str, list[str]] = {
    # measure, every family, abstract and rational models, both formats
    "measure-sb-z4-table": ["measure", _measure(_abstract(4), _sb([1], 4))],
    "measure-sb-z6-json": ["measure", _measure(_abstract(6), _sb([1], 6)), "--format", "json"],
    "measure-sb-z12-deg24-json": ["measure", _measure(_abstract(12), _sb([5], 24)), "--format", "json"],
    "measure-gr-z6-json": ["measure", _measure(_abstract(6), _gr(2, [1], 6)), "--format", "json"],
    "measure-gr-z12-table": ["measure", _measure(_abstract(12), _gr(3, [1], 12))],
    "measure-quadric-shadow-even-json": ["measure", _measure(_abstract(2, 2), _shadow(6, [1, 0])), "--format", "json"],
    "measure-quadric-shadow-odd-table": ["measure", _measure(_abstract(2, 2), _shadow(7, [1, 1]))],
    "measure-involution-deg6-json": ["measure", _measure(_abstract(4), _inv(6, [2], [1], [3])), "--format", "json"],
    "measure-involution-deg8-table": ["measure", _measure(_abstract(2, 2), _inv(8, [1, 1], [1, 0], [0, 1]))],
    "measure-product-conics-json": ["measure", _measure(_abstract(2, 2), _prod(_sb([1, 0], 2), _sb([0, 1], 2))), "--format", "json"],
    "measure-product-quadrics-json": ["measure", _measure(_abstract(2, 2, 2), _prod(_shadow(6, [1, 0, 0]), _shadow(6, [0, 1, 0]), _shadow(5, [1, 1, 1]))), "--format", "json"],
    "measure-product-mixed-z30-json": ["measure", _measure(_abstract(30), _prod(_sb([1], 30), _gr(2, [7], 30), _sb([6], 5))), "--format", "json"],
    "measure-oracle-group-json": ["measure", _measure(_abstract(2, 2, oracle=[([1, 1], 4)]), _sb([1, 1], 4)), "--format", "json"],
    "measure-rational-quadric-json": ["measure", _measure(RATIONAL, QUAD6_B), "--format", "json"],
    "measure-rational-conic-table": ["measure", _measure(RATIONAL, RAT_CONIC)],
    "measure-rational-deg4-json": ["measure", _measure(RATIONAL, RAT_DEG4), "--format", "json"],
    "measure-bad-arity": ["measure", _measure(_abstract(2, 2), _sb([1], 2))],
    "measure-missing-group": ["measure", "{}"],
    # compare
    "compare-sb-z6-json": ["compare", _pair(_abstract(6), _sb([1], 6), _sb([5], 6)), "--format", "json"],
    "compare-sb-z12-table": ["compare", _pair(_abstract(12), _sb([1], 12), _sb([7], 12))],
    "compare-gr-z5-json": ["compare", _pair(_abstract(5), _gr(2, [1], 5), _gr(3, [2], 5)), "--format", "json"],
    "compare-rational-quadrics-table": ["compare", _pair(RATIONAL, QUAD6_A, QUAD6_B)],
    "compare-products-json": ["compare", _pair(_abstract(2, 2), _prod(_shadow(6, [1, 0]), _shadow(6, [0, 1])), _prod(_shadow(6, [1, 1]), _shadow(6, [0, 1]))), "--format", "json"],
    # deduce
    "deduce-sb-period4-json": ["deduce", _pair(_abstract(4), _sb([1], 4), _sb([3], 4)), "--format", "json"],
    "deduce-sb-period2-table": ["deduce", _pair(_abstract(2, 2), _sb([1, 0], 2), _sb([1, 0], 2))],
    "deduce-gr-json": ["deduce", _pair(_abstract(2), _gr(2, [1], 4), _gr(2, [1], 4)), "--format", "json"],
    "deduce-quadric-rational-json": ["deduce", _pair(RATIONAL, QUAD6_A, QUAD6_B), "--format", "json"],
    "deduce-quadric-shadow-i3-table": ["deduce", _pair(_abstract(2, 2), _shadow(8, [1, 0]), _shadow(8, [1, 0])), "--i3-zero"],
    "deduce-involution-deg6-json": ["deduce", _pair(_abstract(4), _inv(6, [2], [1], [3]), _inv(6, [2], [1], [3])), "--format", "json"],
    "deduce-conic-product-json": ["deduce", _pair(_abstract(2, 2, oracle=[([1, 1], 4)]), _prod(_sb([1, 0], 2), _sb([0, 1], 2)), _prod(_sb([0, 1], 2), _sb([1, 0], 2))), "--format", "json"],
    "deduce-quadric-product-table": ["deduce", _pair(_abstract(2, 2), _prod(_shadow(6, [1, 0]), _shadow(6, [0, 1])), _prod(_shadow(6, [0, 1]), _shadow(6, [1, 0])))],
    "deduce-no-assume-json": ["deduce", _pair(_abstract(6), _sb([1], 6), _sb([5], 6)), "--no-assume-equal", "--format", "json"],
    "deduce-refuted-json": ["deduce", _pair(_abstract(6), _sb([1], 6), _sb([2], 6)), "--format", "json"],
    "deduce-mixed-families": ["deduce", _pair(_abstract(2), _sb([1], 2), _shadow(6, [1]))],
    # deduce, one case per remaining rule branch
    "deduce-sb-period3-json": [
        "deduce", _pair(_abstract(3), _sb([1], 3), _sb([2], 3)), *JSON],
    "deduce-sb-period7-table": ["deduce", _pair(_abstract(7), _sb([1], 7), _sb([3], 7))],
    "deduce-gr-period4-json": [
        "deduce", _pair(_abstract(4), _gr(2, [1], 4), _gr(2, [3], 4)), *JSON],
    "deduce-quadric-shadow-dim8-json": [
        "deduce", _pair(V4, _shadow(8, [1, 0]), _shadow(8, [1, 0])), *JSON],
    "deduce-quadric-shadow-own-i3-table": [
        "deduce", _pair(V4, _shadow(8, [1, 0], True), _shadow(8, [1, 0], True))],
    "deduce-quadric-rational-dim8-i3-json": [
        "deduce", _pair(RATIONAL, QUAD8_A, QUAD8_B), "--i3-zero", *JSON],
    "deduce-involution-deg8-json": ["deduce", _pair(V4, INV8_A, INV8_B), *JSON],
    "deduce-involution-deg8-i3-table": ["deduce", _pair(V4, INV8_A, INV8_B), "--i3-zero"],
    "deduce-involution-deg8-doc-i3-json": [
        "deduce", _pair(V4, INV8_A, INV8_B, i3_zero=True), *JSON],
    "deduce-conic-product-linked-table": ["deduce", _pair(V4, CONICS_A, CONICS_B)],
    "deduce-quadric-product-n5-json": ["deduce", _pair(V4, QUADS5_A, QUADS5_B), *JSON],
    "deduce-quadric-product-n5-i3-table": [
        "deduce", _pair(V4, QUADS5_A, QUADS5_B), "--i3-zero"],
    "deduce-quadric-product-m8-fails-json": [
        "deduce", _pair(Z2, _quads(8, 5), _quads(8, 5)), "--i3-zero", *JSON],
    "deduce-quadric-product-m6-needs-i3-table": [
        "deduce", _pair(Z2, _quads(6, 6), _quads(6, 6))],
    "deduce-quadric-product-m6-i3-json": [
        "deduce", _pair(Z2, _quads(6, 6), _quads(6, 6)), "--i3-zero", *JSON],
    "deduce-mixed-product": [
        "deduce", _pair(Z2, *[_prod(_sb([1], 2), _shadow(6, [1]))] * 2)],
    "deduce-conic-product-degree4": [
        "deduce", _pair(Z2, *[_prod(_sb([1], 4), _sb([1], 2))] * 2)],
    "deduce-quadric-product-dims-differ": [
        "deduce", _pair(Z2, *[_prod(_shadow(6, [1]), _shadow(5, [1]))] * 2)],
    # deduce, equal measures but different dimensions: refuted
    "deduce-gr-dims-differ-json": [
        "deduce", _pair(_abstract(1), _gr(2, [0], 16), _gr(3, [0], 10)), *JSON],
    "deduce-gr-dims-differ-table": ["deduce", _pair(_abstract(1), _gr(2, [0], 16), _gr(1, [0], 120))],
    "deduce-quadric-shadow-dims-7-6-i3-table": [
        "deduce", _pair(Z2, _shadow(7, [0]), _shadow(6, [0])), "--i3-zero"],
    "deduce-quadric-shadow-dims-5-4-i3-json": [
        "deduce", _pair(Z2, _shadow(5, [0]), _shadow(4, [0])), "--i3-zero", *JSON],
    # sigma, sigma-check, conic-family
    "sigma-positional-table": ["sigma", "1even", "5", "6", "2"],
    "sigma-positional-json": ["sigma", "sigma1odd", "7", "9", "3", *JSON],
    "sigma-flags-table": ["sigma", "--kind", "12even", "--m", "6", "--n", "5", "--l", "3"],
    "sigma-flags-json": ["sigma", "--kind", "2odd", "--m", "5", "--n", "7", "--l", "2", *JSON],
    "sigma-not-integral": ["sigma", "1even", "1", "5", "2"],
    "sigma-check-table": [
        "sigma-check", "--n-min", "5", "--n-max", "7", "--m-min", "2", "--m-max", "5"],
    "sigma-check-kinds-json": [
        "sigma-check", "--kinds", "11even,12odd",
        "--n-min", "5", "--n-max", "6", "--m-min", "2", "--m-max", "4", *JSON],
    "conic-family-table": ["conic-family", "--primes", "3,7,11"],
    "conic-family-json": ["conic-family", "--primes", "3,19", "--format", "json"],
    # verify, all five suites on small groups
    "verify-relation-z6": ["verify", "--suite", "relation-equivalence", "--group", "6", "--m-max", "2"],
    "verify-relation-v4-json": ["verify", "--suite", "relation-equivalence", "--group", "2,2", "--format", "json"],
    "verify-relation-frontier": ["verify", "--suite", "relation-equivalence", "--group", "210"],
    "verify-sum-v4": ["verify", "--suite", "sum-cancellation", "--group", "2,2", "--card-max", "2", "--trials", "30"],
    "verify-sum-z4-json": ["verify", "--suite", "sum-cancellation", "--group", "4", "--card-max", "2", "--trials", "40", "--seed", "3", "--format", "json"],
    "verify-tensor-v4-n5": ["verify", "--suite", "tensor-cancellation", "--group", "2,2", "--n", "5", "--card-max", "2"],
    "verify-tensor-z6-n6-json": ["verify", "--suite", "tensor-cancellation", "--group", "6", "--n", "6", "--card-max", "2", "--format", "json"],
    "verify-matching-d2": ["verify", "--suite", "quadric-product-matching", "--d-max", "2", "--m", "2", "--n", "6"],
    "verify-matching-d3-json": ["verify", "--suite", "quadric-product-matching", "--d-max", "3", "--m", "3", "--n", "5", "--format", "json"],
    "verify-confluence-z6": ["verify", "--suite", "normal-form-confluence", "--group", "6", "--trials", "50"],
    "verify-confluence-z2z3-json": ["verify", "--suite", "normal-form-confluence", "--group", "2,3", "--trials", "30", "--seed", "4", "--format", "json"],
    "verify-confluence-z30-json": ["verify", "--suite", "normal-form-confluence", "--group", "30", "--trials", "40", "--format", "json"],
}

# rational forms: every dimension 3..10 (every n mod 8 correction), with
# fractional entries, entries carrying p^2, 2-adic entries and primes
# between 10^3 and 10^4; each form has trivial signed discriminant.
Q_FORMS = {
    3: ["3/4", "-5/18", "30"],
    4: ["2", "6", "-2", "-6"],
    5: ["1009", "-7919", "12", "50", "-47941626"],
    6: ["-5/18", "45", "98", "3", "7", "21"],
    7: ["2", "-3", "6", "1/9", "-1013", "2027", "-2053351"],
    8: ["1", "1", "2", "-2", "3/4", "-12", "5", "5"],
    9: ["-7", "-28", "11/25", "11", "13", "-13", "17", "-17", "1"],
    10: ["3", "5", "-15", "2", "-2", "6", "9/49", "-1", "7", "42"],
}
for _n, _entries in Q_FORMS.items():
    _fmt = () if _n % 3 == 0 else JSON
    CASES[f"measure-rational-dim{_n}"] = [
        "measure", _measure(RATIONAL, {"family": "quadric", "form": _entries}), *_fmt]

# an isometric pair over Q: permuted, with one entry scaled by (3/2)^2
QUAD5_Q = {"family": "quadric", "form": Q_FORMS[5]}
QUAD5_Q_ISO = {"family": "quadric", "form": ["50", "-47941626", "27", "1009", "-7919"]}
QUAD6_Q = {"family": "quadric", "form": Q_FORMS[6]}
CASES["compare-rational-isometric-json"] = ["compare", _pair(RATIONAL, QUAD5_Q, QUAD5_Q_ISO), *JSON]
CASES["deduce-rational-isometric-table"] = ["deduce", _pair(RATIONAL, QUAD5_Q, QUAD5_Q_ISO)]
CASES["compare-rational-dim6-differ-table"] = ["compare", _pair(RATIONAL, QUAD6_A, QUAD6_Q)]
CASES["deduce-rational-dim6-differ-json"] = ["deduce", _pair(RATIONAL, QUAD6_A, QUAD6_Q), *JSON]
CASES["deduce-rational-dims-differ-table"] = ["deduce", _pair(
    RATIONAL,
    {"family": "quadric", "form": ["1", "1", "1", "1", "-1", "-1", "-1"]},
    {"family": "quadric", "form": ["1", "1", "1", "-1", "-1", "-1"]},
)]
CASES["measure-rational-disc-nontrivial"] = [
    "measure", _measure(RATIONAL, {"family": "quadric", "form": ["1", "2", "3", "5"]})]

# sigma, every kind at two points, one with l past the anchor range
for _kind in ("1even", "1odd", "2even", "2odd", "11even", "11odd", "12even", "12odd"):
    CASES[f"sigma-{_kind}-m7-json"] = ["sigma", _kind, "7", "9", "4", *JSON]
    CASES[f"sigma-{_kind}-m9-table"] = ["sigma", _kind, "9", "6", "6"]


def run_case(argv: list[str]) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        try:
            code = cli.main(list(argv))
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 1
    return code, out.getvalue()


def main() -> None:
    expected = {}
    for name, argv in CASES.items():
        code, stdout = run_case(argv)
        expected[name] = {"argv": argv, "exit": code, "stdout": stdout}
    path = HERE / "expected.json"
    path.write_text(json.dumps(expected, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {len(expected)} cases to {path}")


if __name__ == "__main__":
    main()
