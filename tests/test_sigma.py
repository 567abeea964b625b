import importlib
import json
import time
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oracles import LITERAL_SPLITS, SUMMANDS, sigma1_direct, sigma_literal
from titsmeasure import brauer, cli
from titsmeasure.brauer import ResourceLimitError
from titsmeasure.sigma import (
    KINDS,
    RECURRENCE_FACTORS,
    extra_condition_failures,
    recurrence_violations,
    sigma,
    sigma_fraction,
)

# The module, not the function of the same name that the package exports.
sigma_module = importlib.import_module("titsmeasure.sigma")


class TestAnchors:
    def test_headline_inequality(self):
        assert sigma("1even", 5, 6, 2) == 768
        assert sigma("2even", 5, 6, 2) == 576

    def test_kind_spelling_is_forgiving(self):
        assert sigma("sigma1even", 5, 6, 2) == 768
        assert sigma("1-even", 5, 6, 2) == 768
        assert sigma("1_EVEN", 5, 6, 2) == 768

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            sigma("3even", 5, 6, 2)

    def test_domain_checks(self):
        with pytest.raises(ValueError):
            sigma("1even", 0, 6, 2)
        with pytest.raises(ValueError):
            sigma("1even", 5, 2, 2)
        with pytest.raises(ValueError):
            sigma("1even", 5, 6, -1)

    def test_non_integral_value_raises(self):
        # at grid edges (n-2) appears with negative exponents
        assert sigma_fraction("1even", 1, 5, 2) == Fraction(80, 9)
        with pytest.raises(ValueError):
            sigma("1even", 1, 5, 2)


class TestClosedForms:
    def test_split_sums_add_up(self):
        # sigma1 is built from the split pieces; the oracle sums the
        # displayed two-term formula directly, past l = m and at n = 3, 4.
        for n in (3, 4, 5, 6, 9, 12):
            for m in range(1, 7):
                for l in range(m + 3):
                    for parity in ("even", "odd"):
                        assert sigma_fraction("1" + parity, m, n, l) == sigma1_direct(
                            parity, m, n, l
                        )

    def test_l_two_displays(self):
        for n in range(3, 23):
            q = n - 2
            assert sigma("1even", 5, n, 2) == 2 * q**4 + 2**5 * q + 2**3 * q**2
            assert sigma("1odd", 5, n, 2) == q**4 + 2 * q + q**2
            assert sigma("2even", 5, n, 2) == 2**2 * q**3 + 2**2 * q**3 + 2**4 * q
            assert sigma("2odd", 5, n, 2) == q**3 + 2 * q**3 + q

    def test_l_one_displays(self):
        for n in (5, 6, 7, 10):
            for m in (3, 4, 5, 8):
                q = n - 2
                assert sigma("1even", m, n, 1) == 2 * q ** (m - 1) + 2**m
                assert sigma("2even", m, n, 1) == 4 * q ** (m - 2) + 2 * q ** (m - 2)
                assert sigma("1odd", m, n, 1) == q ** (m - 1) + 1
                assert sigma("2odd", m, n, 1) == 2 * q ** (m - 2)

    def test_l_one_strict_inequalities(self):
        for n in range(5, 15):
            for m in range(2, 10):
                assert sigma("1even", m, n, 1) > sigma("2even", m, n, 1)
                assert sigma("1odd", m, n, 1) > sigma("2odd", m, n, 1)


class TestLiteralOracle:
    """The closed forms against the literal sums over r, past l = m (negative
    exponents of q and 2) and at n = 3, 4 (q - b is 0 or negative)."""

    def test_every_kind_on_the_full_grid(self):
        # 8 kinds x m 1..15 x n 3..13 x l 0..15: 21,120 values.  sigma1's
        # literal sum is the sum of its two literal split sums.
        for m in range(1, 16):
            for n in range(3, 14):
                for l in range(16):
                    literal = {kind: sigma_literal(kind, m, n, l) for kind in SUMMANDS}
                    for kind, parts in LITERAL_SPLITS.items():
                        literal[kind] = sum(literal[part] for part in parts)
                    assert sorted(literal) == sorted(KINDS)
                    for kind, value in literal.items():
                        assert sigma_fraction(kind, m, n, l) == value, (kind, m, n, l)

    @given(
        st.sampled_from(KINDS),
        st.integers(1, 40),
        st.one_of(st.sampled_from([3, 4]), st.integers(3, 60)),
        st.integers(0, 50),
    )
    @example("12even", 1, 3, 40)  # 2^(m - l) and q^(m - 2 - l) far below zero
    @example("2even", 2, 4, 9)  # q - b = 0
    @settings(max_examples=300, deadline=None)
    def test_matches_literal_sum(self, kind, m, n, l):
        assert sigma_fraction(kind, m, n, l) == sigma_literal(kind, m, n, l)


class TestRecurrences:
    def test_clean_on_small_grid(self):
        assert recurrence_violations(range(5, 9), range(2, 6)) == []

    def test_kind_filter(self):
        assert recurrence_violations(range(5, 7), range(2, 4), ["11even"]) == []
        with pytest.raises(ValueError):
            recurrence_violations(range(5, 7), range(2, 4), ["1even"])

    @pytest.mark.parametrize(
        "n_values, m_values, message",
        [
            (range(10, 6), range(2, 4), "n-min is past n-max"),
            (range(5, 7), range(2, 2), "m-min is past m-max"),
            (range(5, 7), range(-3, 4), "m starts at 2, got m = -3"),
            (range(5, 7), [3, 1], "m starts at 2, got m = 1"),
        ],
    )
    def test_empty_or_vacuous_grid_is_refused(self, n_values, m_values, message):
        with pytest.raises(ValueError, match=message):
            recurrence_violations(n_values, m_values)

    def test_empty_kind_list_is_refused(self):
        with pytest.raises(ValueError, match="at least one kind"):
            recurrence_violations(range(5, 7), range(2, 4), [])

    def test_a_wrong_factor_is_reported_cell_by_cell(self, monkeypatch, capsys):
        # 12even steps by a factor of 2; claim 3 and every nonzero cell breaks.
        monkeypatch.setitem(RECURRENCE_FACTORS, "12even", lambda n: Fraction(3))
        expected = [
            {"kind": "12even", "m": m, "n": 6, "l": l,
             "lhs": str(sigma_fraction("12even", m - 1, 6, l)),
             "rhs": str(sigma_fraction("12even", m, 6, l) / 3)}
            for m in (2, 3) for l in range(m)
            if sigma_fraction("12even", m - 1, 6, l) * 3 != sigma_fraction("12even", m, 6, l)
        ]
        assert expected
        assert recurrence_violations([6], [2, 3], ["12even"]) == expected
        code = cli.main([
            "sigma-check", "--kinds", "12even", "--n-min", "6", "--n-max", "6",
            "--m-min", "2", "--m-max", "3", "--format", "json",
        ])
        payload = json.loads(capsys.readouterr().out)
        assert code == 2 and payload["ok"] is False and payload["violations"] == expected

    @pytest.mark.parametrize("kind, factor", [("2odd", Fraction(5, 2)), ("12odd", Fraction(-7, 3))])
    def test_a_factor_with_a_denominator(self, monkeypatch, kind, factor):
        # The check cross-multiplies by f.numerator and f.denominator; its
        # records are those of the Fraction formulation, over n = 3, 4 (q - b
        # is 0 or negative) and cells whose 2odd sums have denominators.
        # 12odd is 0 at l = 0, so there any factor holds.
        n_values, m_values = [3, 4, 7], [2, 3, 5]
        expected = [
            {"kind": kind, "m": m, "n": n, "l": l,
             "lhs": str(sigma_fraction(kind, m - 1, n, l)),
             "rhs": str(sigma_fraction(kind, m, n, l) / factor)}
            for n in n_values for m in m_values for l in range(m)
            if sigma_fraction(kind, m - 1, n, l) * factor != sigma_fraction(kind, m, n, l)
        ]
        assert expected and any("/" in record["lhs"] + record["rhs"] for record in expected)
        monkeypatch.setitem(RECURRENCE_FACTORS, kind, lambda n: factor)
        assert recurrence_violations(n_values, m_values, [kind]) == expected

    @given(st.integers(5, 30), st.integers(2, 9))
    @settings(max_examples=60, deadline=None)
    def test_one_step_recurrence_pointwise(self, n, m):
        for l in range(m):
            for kind, factor in RECURRENCE_FACTORS.items():
                assert sigma_fraction(kind, m - 1, n, l) * factor(n) == sigma_fraction(
                    kind, m, n, l
                )


class TestExtraCondition:
    def test_small_m_is_out_of_scope(self):
        with pytest.raises(ValueError):
            extra_condition_failures(5, 6)

    def test_holds_at_six_six(self):
        assert extra_condition_failures(6, 6) == []

    def test_fails_at_eight_five(self):
        assert extra_condition_failures(8, 5) == [3, 4, 5]

    def test_matches_the_fraction_oracle(self):
        # The check compares numerators over the denominator both sums share.
        failing = 0
        for m in range(6, 31):
            for n in range(3, 26):
                parity = "even" if n % 2 == 0 else "odd"
                oracle = [l for l in range(2, m - 2)
                          if not sigma_fraction("1" + parity, m, n, l) > sigma_fraction("2" + parity, m, n, l)]
                assert extra_condition_failures(m, n) == oracle, (m, n)
                failing += bool(oracle)
        assert failing

    def test_large_n_always_holds(self):
        for m in (6, 7, 8, 9):
            assert not extra_condition_failures(m, 40)


class TestFrontiers:
    """Both sides of the digit cap and of the grid's work limit, checked before summing."""

    def test_digit_estimate_bounds_the_exact_value(self):
        for kind in KINDS:
            for m, n, l in ((1, 3, 300), (5, 6, 120), (40, 1001, 40), (120, 5, 3)):
                value = sigma_fraction(kind, m, n, l)
                size = max(len(str(value.numerator)), len(str(value.denominator)))
                assert size <= sigma_module._digits(m, n, l)

    def test_digit_cap(self):
        m = 1
        while sigma_module._digits(m + 1, 6, 2) <= sigma_module.MAX_DIGITS:
            m += 1
        assert sigma("1even", m, 6, 2) > 0
        with pytest.raises(ResourceLimitError, match="may pass 4300 digits"):
            sigma("1even", m + 1, 6, 2)
        for huge in ((5, 6, 10**400), (10**400, 6, 2), (10**400, 6, 10**400)):
            with pytest.raises(ResourceLimitError):
                sigma("1even", *huge)

    def test_grid_work_is_checked_before_any_sum(self, monkeypatch):
        calls = []
        monkeypatch.setattr(sigma_module, "sigma_fraction", lambda *a: calls.append(a))
        monkeypatch.setattr(sigma_module, "_pair", lambda *a: calls.append(a))
        # The first sigma-check --m-max and deduce factor count refused.
        with pytest.raises(ResourceLimitError, match="units of work"):
            recurrence_violations(range(5, 21), range(2, 60))
        with pytest.raises(ResourceLimitError, match="may pass 4300 digits"):
            extra_condition_failures(6150, 5)
        assert calls == []

    @pytest.mark.parametrize(
        "call, accepted",
        [
            (lambda: recurrence_violations(range(5, 21), range(2, 59)), True),
            (lambda: recurrence_violations(range(5, 21), range(2, 60)), False),
            (lambda: extra_condition_failures(6149, 5), True),
            (lambda: extra_condition_failures(6150, 5), False),
            (lambda: extra_condition_failures(9010, 3), True),
            (lambda: extra_condition_failures(9011, 3), False),
        ],
        ids=["grid-m58", "grid-m59", "condition-m6149", "condition-m6150",
             "condition-n3-m9010", "condition-n3-m9011"],
    )
    def test_each_side_of_the_frontiers(self, monkeypatch, call, accepted):
        # The sums are stubbed out: only the checks before them are tested.
        monkeypatch.setattr(sigma_module, "_pair", lambda *a: (0, 1))
        if accepted:
            call()
        else:
            with pytest.raises(ResourceLimitError):
                call()

    def test_the_limit_itself_is_accepted(self, monkeypatch):
        # Rows (20, 2) and (20, 400) of one kind: 2 m calls a row, each at
        # 40 + d // 10 + d^2 // 25,000 units, d the digits of the row's largest
        # value, at l = m - 1: (m + 1) log2 20 + 2 log2 36 bits.
        assert [sigma_module._digits(m - 1, 20, m - 1) for m in (2, 400)] == [8, 525]
        units = 2 * 2 * 40 + 2 * 400 * (40 + 52 + 11)
        monkeypatch.setattr(brauer, "WORK_LIMIT", units)
        assert recurrence_violations([20], [2, 400], ["2even"]) == []
        monkeypatch.setattr(brauer, "WORK_LIMIT", units - 1)
        with pytest.raises(ResourceLimitError, match="units of work"):
            recurrence_violations([20], [2, 400], ["2even"])

    @pytest.mark.parametrize(
        "n_values, m_values, kinds",
        [(range(5, 8), range(2, 6), None), ([9], [3, 7], ["11odd", "2even"]), ([5, 30], [4], ["12odd"])],
    )
    def test_priced_count_is_the_closed_calls(self, monkeypatch, n_values, m_values, kinds):
        calls, real = [], sigma_module._pair
        monkeypatch.setattr(sigma_module, "_pair", lambda *a: calls.append(a) or real(*a))
        assert recurrence_violations(n_values, m_values, kinds) == []
        # Two calls per kind and cell, m cells a row.
        kinds_count = len(RECURRENCE_FACTORS if kinds is None else kinds)
        assert len(calls) == 2 * kinds_count * len(n_values) * sum(m_values)

    @pytest.mark.parametrize("n_values, m_values", [(range(5, 21), range(2, 10**6)),
                                                    (range(3, 10**12), [2])])
    def test_a_huge_grid_is_refused_at_once(self, monkeypatch, n_values, m_values):
        assert len(n_values) * sum(m_values) >= 10**12  # cells
        calls = []
        monkeypatch.setattr(sigma_module, "_pair", lambda *a: calls.append(a))
        start = time.perf_counter()
        with pytest.raises(ResourceLimitError, match="units of work"):
            recurrence_violations(n_values, m_values)
        assert time.perf_counter() - start < 0.1 and calls == []

    def test_copy_count_condition_inside_the_limit(self):
        assert extra_condition_failures(100, 5) == list(range(3, 98))
