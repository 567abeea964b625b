import inspect
import json
import os
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from oracles import fraction_by_parser
from titsmeasure import cli, rationals
from titsmeasure.verify import VerificationRun

MEASURE_DOC = {
    "group": {"kind": "abstract", "orders": [4]},
    "variety": {"family": "severi-brauer", "alg": {"degree": 4, "class": {"coords": [1]}}},
}

PAIR_DOC = {
    "group": {"kind": "rational"},
    "x": {"family": "quadric", "form": ["1", "1", "1", "-1", "-1", "-1"]},
    "y": {"family": "quadric", "form": ["2", "1", "1", "-1", "-1", "-2"]},
}


def run(capsys, *argv):
    try:
        code = cli.main(list(argv))
    except SystemExit as exc:  # argparse usage errors
        code = exc.code if isinstance(exc.code, int) else 1
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def refuse_config(capsys, tmp_path, text, *argv):
    """``verify ARGV --config FILE`` is a usage error whatever FILE holds.

    Every verify option is a flag: argparse refuses ``--config`` before the
    file is opened, with one error line. ``text`` is written to FILE, or FILE
    is absent when it is None.
    """
    cfg = tmp_path / "cfg.json"
    if text is not None:
        cfg.write_text(text)
    code, out, err = run(capsys, "verify", *argv, "--config", str(cfg))
    assert (code, out) == (1, "")
    assert err == f"titsmeasure: error: unrecognized arguments: --config {cfg}\n"


class TestSigma:
    def test_flag_form(self, capsys):
        code, out, _ = run(capsys, "sigma", "--kind", "1even", "--m", "5", "--n", "6", "--l", "2")
        assert code == 0 and out == "768\n"

    def test_positional_form(self, capsys):
        code, out, _ = run(capsys, "sigma", "1even", "5", "6", "2")
        assert code == 0 and out == "768\n"

    def test_json_format(self, capsys):
        code, out, _ = run(capsys, "sigma", "2even", "5", "6", "2", "--format", "json")
        assert code == 0
        assert json.loads(out) == {"kind": "2even", "m": 5, "n": 6, "l": 2, "value": 576}

    def test_mixed_forms_rejected(self, capsys):
        code, _, err = run(capsys, "sigma", "1even", "5", "6", "2", "--m", "5")
        assert code == 1 and "not both" in err

    def test_incomplete_flags_rejected(self, capsys):
        code, _, err = run(capsys, "sigma", "--kind", "1even", "--m", "5")
        assert code == 1 and "--n" in err

    def test_non_integer_positional(self, capsys):
        code, _, err = run(capsys, "sigma", "1even", "5", "six", "2")
        assert code == 1

    def test_domain_error_is_exit_one(self, capsys):
        code, _, err = run(capsys, "sigma", "1even", "0", "6", "2")
        assert code == 1

    def test_long_non_integral_value_is_one_short_line(self, capsys):
        # The value has thousands of digits; the line names its size only.
        code, out, err = run(capsys, "sigma", "1even", "5", "6", "2500")
        assert (code, out) == (1, "") and err.count("\n") == 1
        assert "1even(5,6,2500)" in err and "denominator" in err and len(err) < 200


class TestMeasure:
    def test_inline_json(self, capsys):
        code, out, _ = run(capsys, "measure", json.dumps(MEASURE_DOC), "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert payload["measure"]["rho"] == 4
        assert payload["measure"]["dim"] == 3

    def test_file_input(self, capsys, tmp_path):
        doc = tmp_path / "doc.json"
        doc.write_text(json.dumps(MEASURE_DOC))
        code, out, _ = run(capsys, "measure", str(doc))
        assert code == 0
        assert '"rho": 4' in out  # table format embeds the payload as JSON

    def test_round_trip_variety(self, capsys):
        code, out, _ = run(capsys, "measure", json.dumps(MEASURE_DOC), "--format", "json")
        payload = json.loads(out)
        doc2 = {"group": payload["group"], "variety": payload["variety"]}
        code2, out2, _ = run(capsys, "measure", json.dumps(doc2), "--format", "json")
        assert code2 == 0 and json.loads(out2) == payload

    def test_missing_field(self, capsys):
        code, _, err = run(capsys, "measure", "{}")
        assert code == 1 and "group" in err

    def test_bad_json(self, capsys):
        code, _, err = run(capsys, "measure", "{not json")
        assert code == 1

    def test_missing_file(self, capsys):
        code, _, err = run(capsys, "measure", "no-such-file.json")
        assert code == 1


def _sb_doc(orders=(2,), coords=(1,), degree=2, oracle=None):
    group = {"kind": "abstract", "orders": list(orders)}
    if oracle is not None:
        group["index_oracle"] = oracle
    return {
        "group": group,
        "variety": {"family": "severi-brauer", "alg": {"degree": degree, "class": {"coords": list(coords)}}},
    }


def _variety_doc(variety, group=None):
    return {"group": group or {"kind": "abstract", "orders": [4]}, "variety": variety}


MALFORMED_DOCS = {
    "orders-bool": _sb_doc(orders=(True,)),
    "coords-bool": _sb_doc(coords=(True,)),
    # The identity class has period 1, so a boolean 1 would pass every later check.
    "degree-bool": _sb_doc(coords=(0,), degree=True),
    "index-bool": _sb_doc(orders=(2, 2), coords=(1, 1), oracle=[{"coords": [0, 0], "index": True}]),
    "oracle-coords-bool": _sb_doc(orders=(2, 2), coords=(1, 1), oracle=[{"coords": [True, 1], "index": 4}]),
    "d-bool": _variety_doc({"family": "grassmannian", "d": True, "alg": {"degree": 4, "class": {"coords": [1]}}}),
    "d-string": _variety_doc({"family": "grassmannian", "d": "2", "alg": {"degree": 4, "class": {"coords": [1]}}}),
    "deg-bool": _variety_doc({"family": "involution", "deg": True, "alg_class": {"coords": [2]},
                              "cplus": {"coords": [1]}, "cminus": {"coords": [3]}}),
    "dim-bool": _variety_doc({"family": "quadric", "shadow": {"dim": True, "clifford_class": {"coords": [2]}}}),
    "form-zero-denominator": _variety_doc({"family": "quadric", "form": ["1/0", 1, 1]}, {"kind": "rational"}),
    "invariant-zero-denominator": _variety_doc(
        {"family": "severi-brauer", "alg": {"degree": 2, "class": {"invariants": [{"place": 2, "inv": "1/0"}]}}},
        {"kind": "rational"},
    ),
}


_RAT_SB = {"family": "severi-brauer", "alg": {"degree": 2, "class": {"invariants": [
    {"place": "real", "inv": "1/2"}, {"place": 2, "inv": "1/2"}]}}}


def _shadow8(i3):
    shadow = {"dim": 8, "clifford_class": {"coords": [1, 0]}, "i3_zero": i3}
    return {"family": "quadric", "shadow": shadow}


MALFORMED_DOCS.update({
    "index-oracle-not-array": _sb_doc(orders=(2, 2), coords=(1, 1), oracle=5),
    # One class given two entries: whole, or by coords that reduce to it.
    "index-oracle-class-twice": _sb_doc(degree=4, oracle=[
        {"coords": [1], "index": 2}, {"coords": [1], "index": 4}]),
    "index-oracle-coords-reduce-to-one-class": _sb_doc(oracle=[
        {"coords": [1], "index": 2}, {"coords": [3], "index": 2}]),
    "index-oracle-entry-not-object": _sb_doc(orders=(2, 2), coords=(1, 1), oracle=[5]),
    "invariants-not-array": _variety_doc(
        {"family": "severi-brauer", "alg": {"degree": 2, "class": {"invariants": 5}}},
        {"kind": "rational"},
    ),
    "invariant-entry-not-object": _variety_doc(
        {"family": "severi-brauer", "alg": {"degree": 2, "class": {"invariants": [5]}}},
        {"kind": "rational"},
    ),
    "children-not-array": _variety_doc({"family": "product", "children": 5}),
    "child-not-object": _variety_doc({"family": "product", "children": [5]}),
    "invariant-float": _variety_doc(
        {"family": "severi-brauer", "alg": {"degree": 2, "class": {"invariants": [
            {"place": "real", "inv": 0.5}, {"place": 2, "inv": "1/2"}]}}},
        {"kind": "rational"},
    ),
    "form-float": _variety_doc(
        {"family": "quadric", "form": [1, 1, 1, -1, -1, -1.0]}, {"kind": "rational"}),
    "form-bool": _variety_doc(
        {"family": "quadric", "form": [1, 1, 1, -1, -1, True]}, {"kind": "rational"}),
    "shadow-i3-string": _variety_doc(_shadow8("false"), {"kind": "abstract", "orders": [2, 2]}),
    "shadow-i3-integer": _variety_doc(_shadow8(1), {"kind": "abstract", "orders": [2, 2]}),
})


def _form_doc(*entries):
    return _variety_doc({"family": "quadric", "form": list(entries)}, {"kind": "rational"})


# Rationals past the documented caps (rationals.MAX_RATIONAL_CHARS and
# MAX_DECIMAL_EXPONENT), rejected before Fraction expands them.
MALFORMED_DOCS.update({
    "form-huge-exponent": _form_doc("1e1000000", 1, 1),
    "form-huge-negative-exponent": _form_doc("1", "-1E-1000000", "1"),
    "form-huge-exponent-underscores": _form_doc("2.5e1_000_000", 1, 1),
    "form-exponent-past-cap": _form_doc("1e201", 1, 1),
    "form-long-string": _form_doc("1" * 201, 1, 1),
    "form-long-integer": _form_doc(10**200, 1, 1),
    # A place given twice, once with residue 0, in either order.
    "duplicate-place-zero-first": _variety_doc(
        {"family": "severi-brauer", "alg": {"degree": 2, "class": {"invariants": [
            {"place": 2, "inv": "0"}, {"place": 2, "inv": "1/2"}, {"place": 3, "inv": "1/2"}]}}},
        {"kind": "rational"},
    ),
    "duplicate-place-zero-last": _variety_doc(
        {"family": "severi-brauer", "alg": {"degree": 2, "class": {"invariants": [
            {"place": 2, "inv": "1/2"}, {"place": 3, "inv": "1/2"}, {"place": 2, "inv": "0"}]}}},
        {"kind": "rational"},
    ),
    "invariant-huge-exponent": _variety_doc(
        {"family": "severi-brauer", "alg": {"degree": 2, "class": {"invariants": [
            {"place": "real", "inv": "5e-1000000"}, {"place": 2, "inv": "1/2"}]}}},
        {"kind": "rational"},
    ),
})


class TestMalformedNumbers:
    """JSON booleans are not integers, floats are not rationals, a zero
    denominator is bad input, and a field that must be an array, an object or
    a boolean is rejected with a message rather than a traceback."""

    @pytest.mark.parametrize("name", sorted(MALFORMED_DOCS))
    def test_exit_one_with_one_line_message(self, capsys, name):
        code, out, err = run(capsys, "measure", json.dumps(MALFORMED_DOCS[name]))
        assert code == 1
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "Traceback" not in err

    def test_index_oracle_class_listed_twice_is_named(self, capsys):
        doc = MALFORMED_DOCS["index-oracle-coords-reduce-to-one-class"]
        code, out, err = run(capsys, "measure", json.dumps(doc))
        assert (code, out, err) == (1, "", "error: index oracle lists class (1,) twice (entry for (3,))\n")

    @pytest.mark.parametrize("entry", ["1e1000000", "-3.5E+999999", "7" * 10_000])
    def test_oversized_rational_is_rejected_fast(self, capsys, entry):
        start = time.perf_counter()
        code, _, err = run(capsys, "measure", json.dumps(_form_doc(entry, 1, 1)))
        assert code == 1 and err.startswith("error: form: ")
        assert time.perf_counter() - start < 0.1

    def test_rationals_at_the_caps_are_accepted(self, capsys):
        # 10^200, 10^-200 and a 200-character 10^198 factor at once.
        doc = _form_doc("1e200", "-1e-200", "+1" + "0" * 198)
        code, out, _ = run(capsys, "measure", json.dumps(doc), "--format", "json")
        assert code == 0 and json.loads(out)["measure"]["dim"] == 1

    def test_boolean_degree_is_not_echoed(self, capsys):
        code, out, _ = run(capsys, "measure", json.dumps(_sb_doc(coords=(0,), degree=True)), "--format", "json")
        assert code == 1 and "true" not in out


def _read_rational(read, value):
    """What a rational reader gives for ``value``: the Fraction, or the
    message of its ValueError."""
    try:
        out = read(value, "form")
    except ValueError as exc:
        return "error", str(exc)
    assert type(out) is Fraction
    return "value", out


# Digits, signs, separators and non-ASCII digits ('٣' is a decimal digit that
# Fraction reads, '²' a digit that it refuses), so integer strings, signed and
# exponent forms, and strings just past the length cap all occur.
RATIONAL_TEXT = st.text("0123456789-+_ /.e٣²", max_size=205)
INTEGER_TEXT = st.builds(lambda sign, digits: sign + digits, st.sampled_from(["", "-"]),
                         st.text("0123456789", max_size=204))


class TestFractionParity:
    """``rationals.read_rational`` reads ASCII integer strings with ``int``;
    on every string it gives the value or the message the string parser
    gave."""

    @pytest.mark.parametrize("text", ["-0", "007", "--5", "+5", "1" * 200, "1" * 201, "-" + "1" * 199,
                                      "", "-", "٣", "²", "1_000", " 5", "-" + "1" * 200])
    def test_edge_strings(self, text):
        assert _read_rational(rationals.read_rational, text) == _read_rational(fraction_by_parser, text)

    @given(st.one_of(RATIONAL_TEXT, INTEGER_TEXT))
    @settings(max_examples=400, deadline=None)
    def test_matches_the_string_parser(self, text):
        assert _read_rational(rationals.read_rational, text) == _read_rational(fraction_by_parser, text)


class TestFactoringBudget:
    """Form entries are factored within a fixed budget: a large prime is
    answered at once, a hard composite is exit 3 at the documented frontier."""

    def test_mersenne_61_entry_is_answered(self, capsys):
        m61 = str(2**61 - 1)
        start = time.perf_counter()
        code, out, _ = run(capsys, "measure", json.dumps(_form_doc(m61, -1, m61)), "--format", "json")
        assert time.perf_counter() - start < 1
        assert code == 0 and json.loads(out)["measure"]["dim"] == 1

    def test_product_of_two_large_primes_is_exit_three(self, capsys):
        # Mersenne primes of 27 and 33 digits.
        n = str((2**89 - 1) * (2**107 - 1))
        start = time.perf_counter()
        code, out, err = run(capsys, "measure", json.dumps(_form_doc(n, -1, n)))
        assert time.perf_counter() - start < 3
        assert code == 3 and out == ""
        assert err.startswith("resource limit: ") and err.count("\n") == 1


V4 = {"kind": "abstract", "orders": [2, 2]}

MALFORMED_PAIR_DOCS = {
    # "false" is a non-empty string; read as truthy it licensed the I^3 = 0 rule.
    "request-i3-string": {
        "group": V4, "x": _shadow8(False), "y": _shadow8(False), "i3_zero": "false"},
    "request-i3-integer": {"group": V4, "x": _shadow8(False), "y": _shadow8(False), "i3_zero": 0},
    "shadow-i3-string": {"group": V4, "x": _shadow8("false"), "y": _shadow8("false")},
}


class TestDeduceFlags:
    """``i3_zero`` must be a JSON boolean, on the request and on each shadow."""

    @pytest.mark.parametrize("name", sorted(MALFORMED_PAIR_DOCS))
    def test_non_boolean_is_exit_one(self, capsys, name):
        code, out, err = run(capsys, "deduce", json.dumps(MALFORMED_PAIR_DOCS[name]))
        assert code == 1
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "i3_zero" in err and "Traceback" not in err

    @pytest.mark.parametrize("flag, isomorphic", [(False, False), (True, True)])
    def test_boolean_decides_the_i3_rule(self, capsys, flag, isomorphic):
        doc = {"group": V4, "x": _shadow8(False), "y": _shadow8(False), "i3_zero": flag}
        code, out, _ = run(capsys, "deduce", json.dumps(doc), "--format", "json")
        statements = [c["statement"] for c in json.loads(out)["report"]["conclusions"]]
        assert code == 0
        assert ("quadrics are isomorphic" in statements) == isomorphic

    def test_integer_rationals_are_accepted(self, capsys):
        doc = {"group": {"kind": "rational"},
               "x": {"family": "quadric", "form": [1, 1, 1, -1, -1, -1]},
               "y": {"family": "quadric", "form": ["1", "1", "1", "-1", "-1", "-1"]}}
        code, out, _ = run(capsys, "compare", json.dumps(doc), "--format", "json")
        assert code == 0 and json.loads(out)["verdict"]["measures_equal"] is True


class TestCompareAndDeduce:
    def test_compare(self, capsys):
        code, out, _ = run(capsys, "compare", json.dumps(PAIR_DOC), "--format", "json")
        assert code == 0
        assert json.loads(out)["verdict"]["measures_equal"] is True

    def test_deduce_default_assumes(self, capsys):
        code, out, _ = run(capsys, "deduce", json.dumps(PAIR_DOC), "--format", "json")
        assert code == 0
        report = json.loads(out)["report"]
        assert report["assumed"] is True
        assert any(
            c["statement"] == "quadrics are isomorphic" for c in report["conclusions"]
        )

    def test_deduce_no_assume(self, capsys):
        code, out, _ = run(
            capsys, "deduce", json.dumps(PAIR_DOC), "--no-assume-equal", "--format", "json"
        )
        report = json.loads(out)["report"]
        assert code == 0 and report["conclusions"] == []

    def test_deduce_i3_flag_round_trips_from_document(self, capsys):
        doc = {"group": V4, "x": _shadow8(False), "y": _shadow8(False), "i3_zero": True}
        code, out, _ = run(capsys, "deduce", json.dumps(doc), "--format", "json")
        assert code == 0
        last = json.loads(out)["report"]["conclusions"][-1]
        assert last["statement"] == "quadrics are isomorphic"


RATIONAL = {"kind": "rational"}
# 8<1> has no real points and 4<1> + 4<-1> is hyperbolic: equal measures,
# not similar, and I^3(Q) != 0 is what the signature detects.
EIGHT_ONES = {"group": RATIONAL,
              "x": {"family": "quadric", "form": ["1"] * 8},
              "y": {"family": "quadric", "form": ["1"] * 4 + ["-1"] * 4}}
_QUATERNION = {"invariants": [{"place": "real", "inv": "1/2"}, {"place": 2, "inv": "1/2"}]}
_RAT_INVOLUTION = {"family": "involution", "deg": 8, "alg_class": {"invariants": []},
                   "cplus": _QUATERNION, "cminus": _QUATERNION}


class TestI3OverRationals:
    """I^3(Q) != 0, so asserting I^3 = 0 over the rational group is exit 1."""

    def _rejected(self, capsys, *argv):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (1, "")
        assert err.startswith("error: I^3(Q) != 0 ") and err.count("\n") == 1

    def test_flag_on_eight_ones(self, capsys):
        self._rejected(capsys, "deduce", json.dumps(EIGHT_ONES), "--i3-zero")

    def test_document_field_on_eight_ones(self, capsys):
        self._rejected(capsys, "deduce", json.dumps(dict(EIGHT_ONES, i3_zero=True)))

    @pytest.mark.parametrize("command", ["measure", "deduce"])
    def test_rational_shadow(self, capsys, command):
        shadow = {"family": "quadric", "shadow": {
            "dim": 8, "clifford_class": {"invariants": []}, "i3_zero": True}}
        doc = ({"group": RATIONAL, "variety": shadow} if command == "measure"
               else {"group": RATIONAL, "x": shadow, "y": shadow})
        self._rejected(capsys, command, json.dumps(doc))

    def test_flag_on_rational_involutions(self, capsys):
        doc = {"group": RATIONAL, "x": _RAT_INVOLUTION, "y": _RAT_INVOLUTION}
        self._rejected(capsys, "deduce", json.dumps(doc), "--i3-zero")

    def test_without_the_flag_nothing_is_concluded(self, capsys):
        code, out, _ = run(capsys, "deduce", json.dumps(EIGHT_ONES), "--format", "json")
        report = json.loads(out)["report"]
        assert code == 0 and report["notes"]
        assert "quadrics are isomorphic" not in [c["statement"] for c in report["conclusions"]]


class TestVerifyCommand:
    def test_pass_is_exit_zero(self, capsys):
        code, out, _ = run(
            capsys, "verify", "--suite", "tensor-cancellation", "--group", "2,2", "--n", "6"
        )
        assert code == 0 and "outcome: pass" in out

    def test_resource_limit_is_exit_three(self, capsys):
        code, _, err = run(
            capsys, "verify", "--suite", "relation-equivalence", "--group", "210"
        )
        assert code == 3 and "resource limit" in err

    @pytest.mark.parametrize(
        "option, value, message",
        [
            ("--d-max", "-1", "d_max must be at least 0, got -1"),
        ],
    )
    def test_malformed_matching_frontier_is_exit_one(self, capsys, option, value, message):
        code, out, err = run(capsys, "verify", "--suite", "quadric-product-matching", option, value)
        assert (code, out, err) == (1, "", f"error: {message}\n")

    @pytest.mark.parametrize("value", ["-5", "0", "5"])
    def test_family_limit_is_not_an_option(self, capsys, value):
        # The family frontier is priced against the fixed brauer.WORK_LIMIT.
        code, out, err = run(
            capsys, "verify", "--suite", "quadric-product-matching", "--family-limit", value
        )
        assert (code, out) == (1, "")
        assert "unrecognized arguments" in err and "Traceback" not in err

    @pytest.mark.parametrize(
        "argv, flag",
        [
            (("relation-equivalence", "--group", "2", "--m-max", "2", "--d-max", "9"), "--d-max"),
            (("quadric-product-matching", "--group", "2,2", "--d-max", "1"), "--group"),
            (("sum-cancellation", "--group", "2", "--n", "5"), "--n"),
            (("tensor-cancellation", "--group", "2", "--trials", "3"), "--trials"),
            (("normal-form-confluence", "--group", "2", "--card-max", "1"), "--card-max"),
        ],
        ids=lambda v: v if isinstance(v, str) else v[0],
    )
    def test_unread_flag_is_exit_one(self, capsys, argv, flag):
        code, out, err = run(capsys, "verify", "--suite", *argv)
        assert (code, out, err) == (1, "", f"error: suite {argv[0]} does not take {flag}\n")

    @pytest.mark.parametrize("content", ['{"trials": 5, "seed": 3}', None], ids=["object", "missing"])
    def test_config_is_not_an_option(self, capsys, tmp_path, content):
        refuse_config(capsys, tmp_path, content, "--suite", "normal-form-confluence", "--group", "2")

    @pytest.mark.parametrize("key", ["card_max", "trails", "format"])
    def test_config_key_no_suite_reads_is_exit_one(self, capsys, tmp_path, key):
        refuse_config(
            capsys, tmp_path, json.dumps({"trials": 5, key: 2}),
            "--suite", "normal-form-confluence", "--group", "2",
        )

    def test_d_max_past_six_is_exit_three(self, capsys):
        code, out, err = run(capsys, "verify", "--suite", "quadric-product-matching", "--d-max", "7")
        assert (code, out) == (3, "")
        assert err == "resource limit: d_max must be between 0 and 6, got 7\n"

    @pytest.mark.parametrize("suite", sorted(cli.SUITES))
    def test_suite_table_matches_the_suite_function(self, suite):
        # An unset option takes the default of the suite function's signature.
        # The group has no default: a suite that reads it needs --group.
        options = cli.SUITES[suite]
        params = inspect.signature(getattr(cli, "verify_" + suite.replace("-", "_"))).parameters
        assert ("group" in params) == ("group" in options)
        for option, keyword in options.items():
            assert (params[keyword].default is inspect.Parameter.empty) == (option == "group")

    def test_counterexample_is_exit_two(self, capsys, monkeypatch):
        fake = VerificationRun(
            suite="normal-form-confluence",
            params={},
            witness={"raw": []},
            details={},
        )
        monkeypatch.setattr(cli, "verify_normal_form_confluence", lambda *a, **k: fake)
        code, out, _ = run(
            capsys, "verify", "--suite", "normal-form-confluence", "--group", "6"
        )
        assert code == 2 and "counterexample" in out

    def test_unknown_suite_is_exit_one(self, capsys):
        code, _, _ = run(capsys, "verify", "--suite", "bogus", "--group", "6")
        assert code == 1

    def test_group_required_when_suite_needs_it(self, capsys):
        code, _, err = run(capsys, "verify", "--suite", "normal-form-confluence")
        assert code == 1 and "--group" in err

    def test_bad_group_spec(self, capsys):
        code, _, err = run(
            capsys, "verify", "--suite", "normal-form-confluence", "--group", "2,x"
        )
        assert code == 1

    def test_set_flags_override_and_unset_ones_take_the_default(self, capsys):
        code, out, _ = run(
            capsys,
            "verify", "--suite", "sum-cancellation", "--group", "6",
            "--card-max", "1", "--trials", "10", "--format", "json",
        )
        assert code == 0
        params = json.loads(out)["params"]
        seed = inspect.signature(cli.verify_sum_cancellation).parameters["seed"].default
        assert (params["card_max"], params["trials"], params["seed"]) == (1, 10, seed)

    def test_reruns_are_byte_identical(self, capsys):
        args = ("verify", "--suite", "sum-cancellation", "--group", "2,2", "--format", "json")
        _, out1, _ = run(capsys, *args)
        _, out2, _ = run(capsys, *args)
        assert out1 == out2


class TestOtherCommands:
    def test_conic_family(self, capsys):
        code, out, _ = run(capsys, "conic-family", "--primes", "3,7,11", "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert payload["pairwise_distinct"] is True
        assert [e["ramified_places"] for e in payload["family"]] == [
            ["2", "3"], ["2", "7"], ["2", "11"],
        ]

    def test_conic_family_rejects_bad_prime(self, capsys):
        code, _, err = run(capsys, "conic-family", "--primes", "5")
        assert code == 1

    def test_sigma_check_clean_grid(self, capsys):
        code, out, _ = run(
            capsys,
            "sigma-check", "--n-min", "5", "--n-max", "7",
            "--m-min", "2", "--m-max", "4", "--format", "json",
        )
        assert code == 0 and json.loads(out)["ok"] is True

    def test_sigma_check_violation_is_exit_two(self, capsys, monkeypatch):
        monkeypatch.setattr(
            cli, "recurrence_violations", lambda *a, **k: [{"kind": "2even"}]
        )
        code, out, _ = run(capsys, "sigma-check", "--format", "json")
        assert code == 2 and json.loads(out)["ok"] is False

    def test_unknown_subcommand_is_exit_one(self, capsys):
        code, _, _ = run(capsys, "bogus")
        assert code == 1


def _deep_product(depth):
    sb = '{"family": "severi-brauer", "alg": {"degree": 2, "class": {"coords": [1]}}}'
    return '{"family": "product", "children": [' * depth + sb + "]}" * depth


_GROUP_Z2 = '{"kind": "abstract", "orders": [2]}'

# Raw JSON texts nested past what the decoder can follow; json.dumps cannot
# build them, so they are written out rather than kept with MALFORMED_DOCS.
DEEP_DOCS = {
    "array-5000": "[" * 5000 + "]" * 5000,
    "object-5000": '{"a": ' * 5000 + "1" + "}" * 5000,
    "variety-5000": '{"group": ' + _GROUP_Z2 + ', "variety": ' + _deep_product(5000) + "}",
    "pair-5000": '{"group": ' + _GROUP_Z2 + ', "x": ' + _deep_product(5000)
                 + ', "y": ' + _deep_product(1) + "}",
}


class TestDeepNesting:
    """A document nested deeper than the JSON decoder can follow is bad input."""

    @pytest.mark.parametrize("command", ["measure", "compare", "deduce"])
    @pytest.mark.parametrize("name", sorted(DEEP_DOCS))
    @pytest.mark.parametrize("where", ["inline", "file"])
    def test_exit_one_with_one_line_message(self, capsys, tmp_path, command, name, where):
        text = DEEP_DOCS[name]
        if where == "file":
            path = tmp_path / "deep.json"
            path.write_text(text)
            text = str(path)
        code, out, err = run(capsys, command, text)
        assert code == 1 and out == ""
        assert err == "error: JSON nested too deeply to parse\n"

    def test_verify_config(self, capsys, tmp_path):
        # Refused as a usage error before the decoder sees the file.
        refuse_config(
            capsys, tmp_path, DEEP_DOCS["object-5000"], "--suite", "relation-equivalence", "--group", "2"
        )

    @pytest.mark.parametrize("command", ["measure", "compare"])
    def test_deepest_product_the_decoder_accepts_runs_to_the_end(self, capsys, command):
        # Later stages recurse less deeply than the decoder, so the first
        # depth it accepts, counting down, must be answered.
        for depth in range(sys.getrecursionlimit() // 2, 0, -1):
            variety = _deep_product(depth)
            body = f'"variety": {variety}' if command == "measure" else f'"x": {variety}, "y": {variety}'
            doc = '{"group": ' + _GROUP_Z2 + ", " + body + "}"
            code, out, err = run(capsys, command, doc, "--format", "json")
            if err != "error: JSON nested too deeply to parse\n":
                break
        assert depth > 100
        assert code == 0 and out.count('"family": "product"') == depth * (1 if command == "measure" else 2)


# (suite, config): each config value has the wrong JSON type for the flag it
# names. The file is refused unread, as any --config is.
BAD_CONFIGS = {
    "m-max-string": ("relation-equivalence", {"m-max": "3"}),
    "m-max-float": ("relation-equivalence", {"m-max": 2.5}),
    "m-max-bool": ("relation-equivalence", {"m-max": True}),
    "m-max-null": ("relation-equivalence", {"m-max": None}),
    "trials-string": ("sum-cancellation", {"trials": "5"}),
    "seed-list": ("normal-form-confluence", {"seed": [1]}),
    "n-float": ("tensor-cancellation", {"n": 6.0}),
    "d-max-bool": ("quadric-product-matching", {"d-max": False}),
    "m-object": ("quadric-product-matching", {"m": {}}),
    "group-integer": ("relation-equivalence", {"group": 2}),
    "group-list": ("relation-equivalence", {"group": [2, 2]}),
}


class TestVerifyConfigTypes:
    @pytest.mark.parametrize("name", sorted(BAD_CONFIGS))
    def test_wrong_type_is_exit_one(self, capsys, tmp_path, name):
        suite, values = BAD_CONFIGS[name]
        refuse_config(capsys, tmp_path, json.dumps(dict({"group": "2"}, **values)), "--suite", suite)


def _fresh(*argv):
    """The same call in a new interpreter, where the parser is built anew."""
    src = Path(cli.__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(src))
    proc = subprocess.run(
        [sys.executable, "-m", "titsmeasure.cli", *argv], capture_output=True, text=True, env=env
    )
    return proc.returncode, proc.stdout, proc.stderr


_I3_DOC = json.dumps({"group": V4, "x": _shadow8(False), "y": _shadow8(False)})


class TestParserReuse:
    """``main`` shares one parser; no parsed value may carry over to the next call."""

    def test_parser_is_built_once(self):
        assert cli.build_parser() is cli.build_parser()

    @pytest.mark.parametrize(
        "first, second",
        [
            (("deduce", _I3_DOC, "--i3-zero"), ("deduce", _I3_DOC)),
            (("deduce", json.dumps(PAIR_DOC), "--no-assume-equal"), ("deduce", json.dumps(PAIR_DOC))),
            (("sigma", "--kind", "1even", "--m", "5", "--n", "6", "--l", "2"), ("sigma", "2even", "5", "6", "2")),
            (("measure", json.dumps(MEASURE_DOC), "--format", "json"), ("measure", json.dumps(MEASURE_DOC))),
            (("sigma", "--m", "x"), ("sigma", "1odd", "5", "6", "1")),
            (("measure",), ("measure", json.dumps(MEASURE_DOC))),
        ],
        ids=["i3-zero", "assume-equal", "sigma-forms", "format", "sigma-usage-error", "usage-error"],
    )
    def test_second_call_matches_a_fresh_run(self, capsys, first, second):
        run(capsys, *first)
        assert run(capsys, *second) == _fresh(*second)

    def test_verify_flags_do_not_carry_over(self, capsys):
        args = ("verify", "--suite", "normal-form-confluence", "--group", "6", "--format", "json")
        code, out, _ = run(capsys, *args, "--trials", "25", "--seed", "3")
        assert code == 0 and json.loads(out)["params"]["trials"] == 25
        assert run(capsys, *args) == _fresh(*args)


_DOC = json.dumps(MEASURE_DOC)
_SUITE = ("--suite", "normal-form-confluence", "--group", "2")

# argv shapes for the dispatch parity check: every subcommand, help and
# version before and after a command, unknown and abbreviated names, "--",
# usage errors inside a command and leftovers after one.
DISPATCH_ARGVS = {
    "empty": (),
    "help": ("-h",),
    "long-help": ("--help",),
    "version": ("--version",),
    "version-abbreviated": ("--vers",),
    "unknown-command": ("bogus", _DOC),
    "command-abbreviated": ("meas", _DOC),
    "leading-option": ("--format", "json", "measure", _DOC),
    "leading-dashes": ("--", "measure", _DOC),
    "help-before-command": ("-h", "measure", _DOC),
    "measure": ("measure", _DOC),
    "measure-json": ("measure", _DOC, "--format", "json"),
    "format-equals": ("measure", _DOC, "--format=json"),
    "format-abbreviated": ("measure", _DOC, "--form", "json"),
    "format-bad-choice": ("measure", _DOC, "--format", "xml"),
    "format-missing-value": ("measure", _DOC, "--format"),
    "dashes-before-document": ("measure", "--", _DOC),
    "dashes-before-options": ("measure", _DOC, "--", "--format", "json"),
    "missing-input": ("measure",),
    "unknown-option-only": ("measure", "-x"),
    "help-after-command": ("measure", "-h"),
    "help-after-document": ("measure", _DOC, "--help"),
    "leftover-word": ("measure", _DOC, "extra"),
    "leftover-words": ("measure", _DOC, "a", "--b", "c"),
    "leftover-option": ("measure", _DOC, "--bogus"),
    "leftover-version": ("measure", _DOC, "--version"),
    "leftover-version-abbreviated": ("measure", _DOC, "--v"),
    "leftover-config": ("verify", *_SUITE, "--config", "F"),
    "compare": ("compare", json.dumps(PAIR_DOC)),
    "deduce": ("deduce", json.dumps(PAIR_DOC), "--no-assume-equal", "--i3-zero"),
    "deduce-abbreviated-flag": ("deduce", json.dumps(PAIR_DOC), "--assume"),
    "sigma-positional": ("sigma", "1even", "5", "6", "2"),
    "sigma-flags": ("sigma", "--kind", "1even", "--m", "5", "--n", "6", "--l", "2"),
    "sigma-dashes": ("sigma", "1even", "5", "--", "6", "2"),
    "sigma-bad-int": ("sigma", "--m", "x"),
    "sigma-check": ("sigma-check", "--n-max", "6", "--kinds", "1even"),
    "verify": ("verify", *_SUITE, "--trials", "3"),
    "verify-suite-equals": ("verify", "--suite=sum-cancellation", "--group", "2"),
    "verify-bad-suite": ("verify", "--suite", "nope"),
    "verify-missing-suite": ("verify", "--group", "2"),
    "conic-family": ("conic-family", "--primes", "3,7"),
    "conic-family-missing-primes": ("conic-family",),
    # The edges of the exact-token read.  Argparse answers a negative value,
    # a value that is an option string, an empty or "-" token, split sigma
    # positionals and a missing required option; the read takes a repeated
    # option, a flag and its negation, no sigma positionals and the integers
    # that int() accepts with a space, an underscore or non-ASCII digits.
    "sigma-negative-value": ("sigma", "--m", "-5", "--kind", "1even", "--n", "6", "--l", "2"),
    "value-is-an-option": ("measure", _DOC, "--format", "--format"),
    "repeated-option": ("measure", _DOC, "--format", "json", "--format", "table"),
    "assume-equal-flipped": ("deduce", json.dumps(PAIR_DOC), "--no-assume-equal", "--assume-equal"),
    "empty-positional": ("measure", ""),
    "dash-positional": ("measure", "-"),
    "empty-value": ("verify", "--suite", "normal-form-confluence", "--group", ""),
    "sigma-split-positionals": ("sigma", "1even", "5", "--format", "json", "6", "2"),
    "sigma-no-positionals": ("sigma", "--format", "json"),
    "int-with-space": ("sigma-check", "--n-max", " 6"),
    "int-with-underscore": ("sigma-check", "--m-max", "5_0"),
    "int-in-arabic-indic-digits": ("sigma", "--m", "\u0665", "--kind", "1even", "--n", "6", "--l", "2"),
    "verify-without-suite": ("verify", "--group", "2", "--trials", "3", "--format", "json"),
}

# One argv of each shape the benchmark corpora run (benchmark/workloads.py):
# each is read off the declared actions, without argparse.  Every subcommand
# has one.
CORPUS_ARGVS = {
    "measure": ("measure", _DOC, "--format", "json"),
    "compare": ("compare", json.dumps(PAIR_DOC), "--format", "json"),
    "deduce": ("deduce", json.dumps(PAIR_DOC), "--format", "json"),
    "verify-grouped": ("verify", "--suite", "sum-cancellation", "--format", "json",
                       "--group", "2,2", "--card-max", "2", "--trials", "3", "--seed", "1"),
    "verify-matching": ("verify", "--suite", "quadric-product-matching", "--format", "json",
                        "--d-max", "2", "--m", "2", "--n", "6"),
    "conic-family": ("conic-family", "--primes", "3,7", "--format", "json"),
    "sigma-positional": ("sigma", "1even", "5", "6", "2"),
    "sigma-flags": ("sigma", "--kind", "2even", "--m", "5", "--n", "6", "--l", "2"),
    "sigma-flags-json": ("sigma", "--kind", "1even", "--m", "5", "--n", "6", "--l", "2", "--format", "json"),
    "sigma-check": ("sigma-check", "--kinds", "2even,2odd", "--n-min", "5", "--n-max", "6",
                    "--m-min", "2", "--m-max", "3", "--format", "json"),
}

# Tokens the drawn command lines are made of: every command name, option
# string and choice, abbreviations, "--opt=value", "--", help, negative and
# odd integers, empty and "-" tokens, and documents.
TOKENS = sorted({
    *cli.build_parser().commands,
    *(s for command in cli.build_parser().commands.values() for s in command._exact_table[1]),
    "-h", "--form", "--assume", "--no-assume", "--format=json", "--suite=sum-cancellation", "--m=5",
    "--", "-", "", "-x", "--bogus", "--version",
    "json", "table", "xml", *cli.SUITES, "1even", "2odd", "nope", "2", "2,6", "3,7",
    "5", "6", "-5", " 5", "5_0", "\u0665", "1.5", "x", _DOC, json.dumps(PAIR_DOC),
})


class TestDispatchParity:
    """``main`` reads a plain command line off its command's declared actions
    and hands every other one to the top-level parser; the outcome must be
    the top-level parser's either way."""

    @staticmethod
    def _outcome(capsys, parse, argv):
        try:
            args = vars(parse(list(argv)))
            args.pop("fn")
            outcome = ("namespace", args)
        except SystemExit as exc:
            outcome = ("exit", exc.code)
        captured = capsys.readouterr()
        return outcome, captured.out, captured.err

    @staticmethod
    def _main_namespace(argv):
        """The namespace ``main`` hands to the command, which is not run."""
        commands = cli.build_parser().commands
        kept = {name: parser.get_default("fn") for name, parser in commands.items()}
        seen = []
        for parser in commands.values():
            parser.set_defaults(fn=lambda args: seen.append(args) or 0)
        try:
            assert cli.main(argv) == 0
        finally:
            for name, parser in commands.items():
                parser.set_defaults(fn=kept[name])
        (args,) = seen
        return args

    @pytest.mark.parametrize("name", sorted(DISPATCH_ARGVS))
    def test_same_namespace_or_exit_as_the_top_level_parser(self, capsys, name):
        argv = DISPATCH_ARGVS[name]
        expected = self._outcome(capsys, cli.build_parser().parse_args, argv)
        assert self._outcome(capsys, self._main_namespace, argv) == expected

    @settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(data=st.data())
    def test_drawn_command_lines(self, capsys, data):
        # The command's own option strings are drawn as often as the rest, so
        # that many lines are plain enough for the exact-token read.
        command = data.draw(st.sampled_from(sorted(cli.build_parser().commands)))
        own = list(cli.build_parser().commands[command]._exact_table[1])
        argv = (command, *data.draw(st.lists(st.sampled_from(own) | st.sampled_from(TOKENS), max_size=8)))
        expected = self._outcome(capsys, cli.build_parser().parse_args, argv)
        assert self._outcome(capsys, self._main_namespace, argv) == expected

    @pytest.mark.parametrize("name", sorted(CORPUS_ARGVS))
    def test_a_plain_command_line_skips_argparse(self, capsys, monkeypatch, name):
        def parse_known_args(*args):
            raise AssertionError("argparse parsed a plain command line")

        argv = CORPUS_ARGVS[name]
        expected = self._outcome(capsys, cli.build_parser().parse_args, argv)
        for parser in (cli.build_parser(), *cli.build_parser().commands.values()):
            monkeypatch.setattr(parser, "parse_known_args", parse_known_args)
        assert self._outcome(capsys, self._main_namespace, argv) == expected
        assert expected[0][0] == "namespace"

    @pytest.mark.parametrize("name", sorted(CORPUS_ARGVS))
    @pytest.mark.parametrize("help_token", ["-h", "--help"])
    def test_help_is_never_read_exactly(self, name, help_token):
        # The help action is not in the derived table, so a help token
        # anywhere in a plain line, even as an option's value, leaves the
        # line to argparse.
        command, *tokens = CORPUS_ARGVS[name]
        parser = cli.build_parser().commands[command]
        assert help_token not in parser._exact_table[1]
        assert parser.read_exact(tokens) is not None
        for i in range(len(tokens) + 1):
            assert parser.read_exact([*tokens[:i], help_token, *tokens[i:]]) is None

    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_help_anywhere_is_never_read_exactly(self, data):
        command = data.draw(st.sampled_from(sorted(cli.build_parser().commands)))
        parser = cli.build_parser().commands[command]
        own = list(parser._exact_table[1])
        tokens = data.draw(st.lists(st.sampled_from(own) | st.sampled_from(TOKENS), max_size=8))
        tokens.insert(data.draw(st.integers(0, len(tokens))), data.draw(st.sampled_from(["-h", "--help"])))
        assert parser.read_exact(tokens) is None

    def test_no_typed_string_default(self):
        # argparse passes a string default through the action's type; the
        # exact-token read takes each default as declared.
        for command in cli.build_parser().commands.values():
            for action in command._exact_table[0]:
                assert not (isinstance(action.default, str) and action.type is not None), action

    def test_commands_are_the_subparsers_table(self):
        parser = cli.build_parser()
        assert list(parser.commands) == [
            "measure", "compare", "deduce", "sigma", "sigma-check", "verify", "conic-family",
        ]
        assert all(command.prog == f"titsmeasure {name}" for name, command in parser.commands.items())


# ---------------------------------------------------------------------------
# Exit-1 branches: each input below is malformed or outside a documented
# domain, and each must end in one ``error: ...`` line on stderr.
# ---------------------------------------------------------------------------

Z2 = {"kind": "abstract", "orders": [2]}


def _measure(group, variety):
    return ("measure", json.dumps({"group": group, "variety": variety}))


def _deduce(group, x, y):
    return ("deduce", json.dumps({"group": group, "x": x, "y": y}))


def _sb(degree, cls):
    return {"family": "severi-brauer", "alg": {"degree": degree, "class": cls}}


def _quadric(dim):
    return {"family": "quadric", "shadow": {"dim": dim, "clifford_class": {"coords": [1]}}}


def _products(*children):
    return {"family": "product", "children": list(children)}


_GR = {"family": "grassmannian", "d": 1, "alg": {"degree": 2, "class": {"coords": [1]}}}


def _places(*places):
    return {"invariants": [{"place": v, "inv": "1/2"} for v in places]}


EXIT_ONE = {
    "form-entry-word": _measure(RATIONAL, {"family": "quadric", "form": ["abc", "1", "1"]}),
    "form-entry-fractional-exponent": _measure(
        RATIONAL, {"family": "quadric", "form": ["1e1.5", "1", "1"]}
    ),
    "form-over-abstract-group": _measure(Z2, {"family": "quadric", "form": ["1", "1", "1"]}),
    "quadric-without-form-or-shadow": _measure(Z2, {"family": "quadric"}),
    "form-of-dimension-two": _measure(RATIONAL, {"family": "quadric", "form": ["1", "-1"]}),
    "involution-degree-four": _measure(Z2, {
        "family": "involution", "deg": 4,
        "alg_class": {"coords": [0]}, "cplus": {"coords": [0]}, "cminus": {"coords": [0]},
    }),
    "empty-product": _measure(Z2, _products()),
    "deduce-products-of-different-families": _deduce(
        Z2, _products(_sb(2, {"coords": [1]}), _sb(2, {"coords": [1]})),
        _products(_quadric(5), _quadric(5)),
    ),
    "deduce-products-of-dimension-four-quadrics": _deduce(
        Z2, _products(_quadric(4), _quadric(4)), _products(_quadric(4), _quadric(4))
    ),
    "deduce-products-of-grassmannians": _deduce(Z2, _products(_GR, _GR), _products(_GR, _GR)),
    "algebra-degree-zero": _measure(Z2, _sb(0, {"coords": [0]})),
    "place-four": _measure(RATIONAL, _sb(2, _places(4, "real"))),
    "place-word": _measure(RATIONAL, _sb(2, _places("foo", "real"))),
    "duplicate-place": _measure(RATIONAL, _sb(2, _places(2, 2))),
    "sigma-three-positionals": ("sigma", "1even", "5", "6"),
    "sigma-check-empty-n-range": ("sigma-check", "--n-min", "10", "--n-max", "5"),
    "sigma-check-empty-m-range": ("sigma-check", "--m-max", "1"),
    "sigma-check-m-below-two": ("sigma-check", "--m-min", "-3"),
    "sigma-check-empty-kinds": ("sigma-check", "--kinds", ""),
    "sigma-check-repeated-kind": ("sigma-check", "--kinds", "2even,sigma_2even"),
    "conic-family-bad-prime": ("conic-family", "--primes", "3,x"),
}


@pytest.mark.parametrize("name", sorted(EXIT_ONE) + ["config-holding-a-list"])
def test_malformed_input_is_one_error_line(capsys, tmp_path, name):
    if name == "config-holding-a-list":
        # A usage error: argparse's one line starts "titsmeasure: error:".
        refuse_config(capsys, tmp_path, "[1, 2]", "--suite", "normal-form-confluence", "--group", "2")
        return
    code, out, err = run(capsys, *EXIT_ONE[name])
    assert (code, out) == (1, "")
    assert err.startswith("error: ") and err.count("\n") == 1 and "Traceback" not in err


@pytest.mark.parametrize(
    "argv, err",
    [
        (("sigma", "--m", "x"), "titsmeasure sigma: error: argument --m: invalid int value: 'x'\n"),
        (("frobnicate",), "titsmeasure: error: argument command: invalid choice: 'frobnicate' ("),
    ],
    ids=["sigma-m-not-an-integer", "unknown-subcommand"],
)
def test_usage_error_is_one_line(capsys, argv, err):
    code, out, printed = run(capsys, *argv)
    assert (code, out) == (1, "")
    assert printed.startswith(err) and printed.count("\n") == 1


# ---------------------------------------------------------------------------
# Frontiers of sigma, sigma-check, deduce of quadric products and rational
# forms: past them, exit 3 at once, in a fresh interpreter.
# ---------------------------------------------------------------------------

def _product_pair(factors):
    shadow = {"dim": 5, "clifford_class": {"coords": [1]}, "i3_zero": True}
    side = _products(*[{"family": "quadric", "shadow": shadow}] * factors)
    return json.dumps({"group": Z2, "x": side, "y": side})


# Entries p, p over the first distinct odd primes, plus 1: a form of
# dimension 2k + 1 with trivial signed discriminant.
_ODD_PRIMES = [p for p in range(3, 2000, 2) if all(p % d for d in range(3, int(p**0.5) + 1, 2))]


def _rational_form(k):
    entries = [str(p) for p in _ODD_PRIMES[:k] for _ in range(2)] + ["1"]
    return json.dumps({"group": RATIONAL, "variety": {"family": "quadric", "form": entries}})


FRONTIER_PROBES = {
    "sigma-l-12000": ("sigma", "1even", "5", "6", "12000"),
    "sigma-l-20000": ("sigma", "1even", "5", "6", "20000"),
    "sigma-m-100000": ("sigma", "1even", "100000", "6", "2"),
    "sigma-check-m-60": ("sigma-check", "--m-max", "60"),
    "sigma-check-m-200": ("sigma-check", "--m-max", "200"),
    "sigma-check-n-5000": ("sigma-check", "--n-max", "5000"),
    "deduce-6150-quadrics": ("deduce", _product_pair(6150)),
    "form-dimension-601": ("measure", _rational_form(300)),
}


@pytest.mark.parametrize("name", sorted(FRONTIER_PROBES))
def test_frontier_probe_is_exit_three_at_once(tmp_path, name):
    argv = list(FRONTIER_PROBES[name])
    if argv[0] in ("deduce", "measure"):  # too long for one command-line argument
        (tmp_path / "doc.json").write_text(argv[1])
        argv[1] = str(tmp_path / "doc.json")
    t0 = time.perf_counter()
    code, out, err = _fresh(*argv)
    elapsed = time.perf_counter() - t0
    assert (code, out) == (3, "")
    assert err.startswith("resource limit: ") and err.count("\n") == 1, err
    assert elapsed < 2


class TestFrontierInsides:
    """What sits inside the frontiers keeps answering."""

    def test_sigma_with_large_m(self, capsys):
        code, out, _ = run(capsys, "sigma", "1even", "3000", "6", "2")
        assert code == 0 and len(out) == 1807

    def test_deduce_of_products_of_a_hundred_quadrics(self, capsys):
        code, out, _ = run(capsys, "deduce", _product_pair(100), "--format", "json")
        assert code == 0
        notes = json.loads(out)["report"]["notes"]
        assert notes[0].startswith("no conclusion: the copy-count condition fails at l = [3, 4")

    def test_deduce_of_products_of_two_thousand_quadrics(self, capsys):
        # Bounded by the digits of the copy-count sums alone: up to 6,149
        # factors of form dimension 5 are answered.
        code, out, _ = run(capsys, "deduce", _product_pair(2000), "--format", "json")
        assert code == 0
        notes = json.loads(out)["report"]["notes"]
        assert notes == [f"no conclusion: the copy-count condition fails at l = {list(range(3, 1998))}"]

    def test_form_dimension_cap(self, capsys):
        code, out, _ = run(capsys, "measure", _rational_form(4), "--format", "json")
        assert code == 0 and json.loads(out)["measure"]["dim"] == 7
        code, out, err = run(capsys, "measure", _rational_form(5))
        assert (code, out) == (3, "")
        assert err == "resource limit: form dimension 11 is past the limit of 10\n"
