import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import pairwise_clifford, pairwise_hasse
from titsmeasure import clifford, rationals
from titsmeasure.brauer import AbstractGroup, ResourceLimitError
from titsmeasure.clifford import even_clifford_class_by_structure
from titsmeasure.quadforms import (
    MAX_FORM_DIM,
    FormShadow,
    QuadraticForm,
    even_clifford_class,
    hasse_invariant,
    signed_discriminant,
)
from titsmeasure.rationals import quaternion_class
from titsmeasure.varieties import NO_RULE, Quadric, deduce, tits_measure

ENTRIES = [-7, -5, -3, -2, -1, 1, 2, 3, 5, 7]


RATIONAL_ENTRIES = [Fraction(a, b) for a in ENTRIES for b in (1, 2, 3, 4, 9)]


def random_form(rng: random.Random, dim: int, values=ENTRIES) -> QuadraticForm:
    """Random diagonal form; even dims get the signed discriminant forced
    trivial by solving for the last entry."""
    entries = [Fraction(rng.choice(values)) for _ in range(dim - 1)]
    if dim % 2 == 0:
        sign = -1 if (dim * (dim - 1) // 2) % 2 else 1
        last = Fraction(sign)
        for a in entries:
            last *= a
        entries.append(last)
    else:
        entries.append(Fraction(rng.choice(values)))
    return QuadraticForm(tuple(entries))


class TestInvariants:
    def test_entries_must_be_nonzero(self):
        with pytest.raises(ValueError):
            QuadraticForm.of([1, 0, 1])

    def test_dimension_cap_comes_before_any_factoring(self, monkeypatch):
        assert QuadraticForm.of([1] * MAX_FORM_DIM).dim == MAX_FORM_DIM
        monkeypatch.setattr(rationals, "prime_factors", None)  # any factoring would fail
        with pytest.raises(ResourceLimitError, match="form dimension 11 is past the limit of 10"):
            even_clifford_class(QuadraticForm.of([1] * (MAX_FORM_DIM + 1)))

    def test_signed_discriminant(self):
        assert signed_discriminant(QuadraticForm.of([1, 1, 1])) == -1
        assert signed_discriminant(QuadraticForm.of([1, -1])) == 1
        assert signed_discriminant(QuadraticForm.of([1, 1, 1, -1, -1, -1])) == 1
        # only the square class of the entries matters
        assert signed_discriminant(QuadraticForm.of([Fraction(1, 2), 2])) == -1
        assert signed_discriminant(QuadraticForm.of([2, 2])) == -1

    def test_hasse_invariant_examples(self):
        # all pairs split for the sum of three squares
        assert hasse_invariant(QuadraticForm.of([1, 1, 1])).is_identity()
        # <-1,-1> has the single symbol (-1,-1), ramified at real and 2
        assert hasse_invariant(QuadraticForm.of([-1, -1])) == quaternion_class(-1, -1)

    def test_even_clifford_of_conic_form(self):
        # C0 of <a,b,-1> is the quaternion algebra (a,b)
        for a, b in [(1, 1), (-1, -1), (2, 3), (-2, 5), (3, -7)]:
            form = QuadraticForm.of([a, b, -1])
            assert even_clifford_class(form) == quaternion_class(a, b)

    def test_even_dim_needs_trivial_signed_disc(self):
        # <1,1,1,1> is fine: (-1)^6 * 1 = 1; <1,1,1,2> has signed disc 2
        even_clifford_class(QuadraticForm.of([1, 1, 1, 1]))
        with pytest.raises(ValueError):
            even_clifford_class(QuadraticForm.of([1, 1, 1, 2]))

    def test_scaling_the_form_fixes_the_class(self):
        rng = random.Random(5)
        for _ in range(20):
            q = random_form(rng, rng.choice([3, 4, 5, 6]))
            c = rng.choice([-3, -2, 2, 5])
            scaled = QuadraticForm(tuple(c * a for a in q.entries))
            if q.dim % 2 == 0 and signed_discriminant(scaled) != 1:
                continue
            assert even_clifford_class(q) == even_clifford_class(scaled)


# Entries sign * k * m^2 / d: k from a few primes and their products (so
# multiples of 4 and of p^2 come from m), d a small denominator.
_CORES = [1, 2, 3, 5, 6, 7, 10, 11, 13, 15, 21, 30, 97, 101, 1009]
entries = st.builds(
    lambda sign, k, m, d: Fraction(sign * k * m * m, d),
    st.sampled_from([-1, 1]),
    st.sampled_from(_CORES),
    st.integers(1, 12),
    st.integers(1, 12),
)


@st.composite
def rational_forms(draw):
    """A form of dimension 3..10; even dimensions get a last entry making the
    signed discriminant trivial, so the even-Clifford class is defined."""
    n = draw(st.integers(3, 10))
    xs = draw(st.lists(entries, min_size=n, max_size=n))
    if n % 2 == 0:
        sign = -1 if (n * (n - 1) // 2) % 2 else 1
        xs[-1] = sign * math.prod(xs[:-1]) * draw(entries) ** 2
    return QuadraticForm(tuple(xs))


class TestAgainstPairwiseFormula:
    """The per-place parity count agrees with summing each quaternion class
    (a_i, a_j) from the Fraction Hilbert formula, as the invariant reads."""

    @given(rational_forms())
    @settings(max_examples=200, deadline=None)
    def test_hasse_invariant(self, q):
        assert hasse_invariant(q) == pairwise_hasse(q.entries)

    @given(rational_forms())
    @settings(max_examples=200, deadline=None)
    def test_even_clifford_class(self, q):
        assert even_clifford_class(q) == pairwise_clifford(q.entries)

    def test_every_dimension_and_residue(self):
        rng = random.Random(3)
        for n in range(3, 11):
            for _ in range(5):
                xs = [Fraction(rng.choice([-1, 1]) * rng.choice(_CORES) * rng.randint(1, 6) ** 2,
                               rng.randint(1, 9)) for _ in range(n - 1)]
                sign = -1 if (n * (n - 1) // 2) % 2 else 1
                q = QuadraticForm(tuple(xs) + (sign * math.prod(xs),))
                assert signed_discriminant(q) == 1
                assert even_clifford_class(q) == pairwise_clifford(q.entries)

    def test_product_formula_guard_per_pair(self, monkeypatch):
        core = rationals._hilbert

        def flipped_at_three(a, b, v):
            return -core(a, b, v) if v == 3 else core(a, b, v)

        monkeypatch.setattr(rationals, "_hilbert", flipped_at_three)
        with pytest.raises(AssertionError, match="odd number of places"):
            hasse_invariant(QuadraticForm.of([3, 5, 7]))
        with pytest.raises(AssertionError, match="odd number of places"):
            even_clifford_class(QuadraticForm.of([1, 1, 3]))

    def test_square_classes_factor_each_entry_once(self, monkeypatch):
        calls = []
        core = rationals.prime_factors
        monkeypatch.setattr(rationals, "prime_factors", lambda n: calls.append(n) or core(n))
        q = QuadraticForm.of(["3/4", "-5/18", 30])
        signed_discriminant(q), hasse_invariant(q), even_clifford_class(q)
        assert calls == [12, 90, 30]


class TestStructureOracle:
    def test_agrees_on_small_conics(self):
        for a in (-2, -1, 1, 3):
            for b in (-3, 1, 2, 5):
                form = QuadraticForm.of([a, b, -1])
                assert even_clifford_class_by_structure(form) == quaternion_class(a, b)

    def test_agrees_with_closed_form_random(self):
        rng = random.Random(11)
        for _ in range(25):
            q = random_form(rng, rng.choice([3, 4, 5, 6]))
            assert even_clifford_class_by_structure(q) == even_clifford_class(q)

    # Every residue of the closed form's n mod 8 table, rational entries, both
    # components for even n.
    @pytest.mark.parametrize("n", range(3, 9))
    def test_agrees_with_closed_form_rational_entries(self, n):
        rng = random.Random(8000 + n)
        for _ in range(12):
            q = random_form(rng, n, RATIONAL_ENTRIES)
            want = even_clifford_class(q)
            for sign in (1, -1) if n % 2 == 0 else (1,):
                assert even_clifford_class_by_structure(q, component_sign=sign) == want

    # Each entry of the first form is a square times the matching entry of the
    # second, so the forms are isometric and their classes equal.
    @pytest.mark.parametrize(
        "scaled, plain",
        [
            (["3/4", "-5/18", 30], [3, -10, 30]),
            (["1/2", "-2/9", "3/5", "-15/4"], [2, -2, 15, -15]),
            (["1/4", "2/9", "-3/25", "5/49", "7/2", "-11/3", "13/5", "1001/9"],
             [1, 2, -3, 5, 14, -33, 65, 1001]),
        ],
        ids=("n3", "n4", "n8"),
    )
    def test_square_rescaled_form_gives_the_same_class(self, scaled, plain):
        want = even_clifford_class_by_structure(QuadraticForm.of(plain))
        assert even_clifford_class_by_structure(QuadraticForm.of(scaled)) == want
        assert want == even_clifford_class(QuadraticForm.of(plain))

    # Forms of dimension 4 and 6 with trivial signed discriminant.
    @pytest.mark.parametrize(
        "entries",
        [
            [1, 1, 1, 1],
            [1, -1, 2, -2],
            [-1, -1, 3, 3],
            [2, 3, 5, 30],
            [-1, -3, 7, 21],
            [1, 1, 1, -1, -1, -1],
            [1, 1, 1, 1, 1, -1],
            [1, 2, 3, 5, 1, -30],
            [-1, 3, -5, 7, 2, -210],
        ],
        ids=lambda entries: ",".join(map(str, entries)),
    )
    def test_component_choice_is_immaterial(self, entries):
        q = QuadraticForm.of(entries)
        assert signed_discriminant(q) == 1
        plus = even_clifford_class_by_structure(q, component_sign=1)
        minus = even_clifford_class_by_structure(q, component_sign=-1)
        assert plus == minus == even_clifford_class(q)

    # With every reordering sign dropped the table is commutative: the oracle
    # must name the failed check, never return a class.
    @pytest.mark.parametrize(
        "entries",
        [
            [1, 2, 3],
            [1, -1, 2, -2],
            [1, 2, 3, 5, 7],
            [1, 2, 3, 5, 7, 11, 13],
            [1, 2, 3, 5, 7, 11, 13, 30030],
        ],
        ids=("n3", "n4", "n5", "n7", "n8"),
    )
    def test_commutative_table_fails_a_check(self, monkeypatch, entries):
        monkeypatch.setattr(clifford, "_tau", lambda s, t: 0)
        with pytest.raises(AssertionError, match="does not anticommute"):
            even_clifford_class_by_structure(QuadraticForm.of(entries))

    def test_rejects_unsupported_dimension(self):
        for n in (2, 9):
            with pytest.raises(ValueError, match="supports dimensions 3..8"):
                even_clifford_class_by_structure(QuadraticForm.of([1] * n))


class TestShadows:
    def test_shadow_requires_two_torsion(self):
        g = AbstractGroup((4,))
        with pytest.raises(ValueError):
            FormShadow(6, g.element([1]), False)

    def test_shadow_requires_dim_three(self):
        g = AbstractGroup((2,))
        with pytest.raises(ValueError):
            FormShadow(2, g.element([1]), False)

    def test_shadow_of_concrete_form(self):
        q = QuadraticForm.of([1, 1, 1, -1, -1, -1])
        s = FormShadow(q.dim, even_clifford_class(q))
        assert s.dim == 6
        assert s.clifford_class == even_clifford_class(q)
        assert not s.i3_zero
        assert tits_measure(Quadric(s)) == tits_measure(Quadric(q))


def _similar(x: FormShadow, y: FormShadow):
    """``deduce``'s verdict on two quadric shadows asserted to have equal
    classes: True (isomorphic), False (refuted) or None (no rule applies)."""
    report = deduce(Quadric(x), Quadric(y), True)
    if report.refuted:
        return False
    if any(c.statement == "quadrics are isomorphic" for c in report.conclusions):
        return True
    assert report.notes == (NO_RULE.format("n"),)
    return None


class TestClassification:
    """The classification rule of ``varieties.RULES["quadric"]``."""

    def test_dimension_mismatch_rejected(self):
        g = AbstractGroup((2,))
        assert _similar(FormShadow(5, g.element([1])), FormShadow(6, g.element([1]))) is False

    def test_dim_six_rule(self):
        g = AbstractGroup((2, 2))
        a = FormShadow(6, g.element([1, 0]), False)
        b = FormShadow(6, g.element([1, 0]), False)
        c = FormShadow(6, g.element([0, 1]), False)
        assert _similar(a, b) is True
        assert _similar(a, c) is False

    def test_i3_zero_rule(self):
        g = AbstractGroup((2,))
        a = FormShadow(9, g.element([1]), True)
        b = FormShadow(9, g.element([1]), True)
        assert _similar(a, b) is True
        assert _similar(a, FormShadow(9, g.identity(), True)) is False

    def test_inapplicable_without_hypotheses(self):
        # equal measures, dim != 6, no I^3 hypothesis: no rule applies
        g = AbstractGroup((2,))
        a = FormShadow(9, g.element([1]), False)
        assert _similar(a, a) is None
        assert _similar(a, FormShadow(9, g.element([1]), True)) is None
