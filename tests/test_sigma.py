from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import sigma1_direct
from titsmeasure.sigma import (
    KINDS,
    RECURRENCE_FACTORS,
    extra_condition,
    extra_condition_failures,
    recurrence_violations,
    sigma,
    sigma_fraction,
)


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


class TestRecurrences:
    def test_clean_on_small_grid(self):
        assert recurrence_violations(range(5, 9), range(2, 6)) == []

    def test_kind_filter(self):
        assert recurrence_violations(range(5, 7), range(2, 4), ["11even"]) == []
        with pytest.raises(ValueError):
            recurrence_violations(range(5, 7), range(2, 4), ["1even"])

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
            extra_condition(5, 6)

    def test_holds_at_six_six(self):
        assert extra_condition(6, 6)
        assert extra_condition_failures(6, 6) == []

    def test_fails_at_eight_five(self):
        assert not extra_condition(8, 5)
        assert extra_condition_failures(8, 5) == [3, 4, 5]

    def test_large_n_always_holds(self):
        for m in (6, 7, 8, 9):
            assert extra_condition(m, 40)
