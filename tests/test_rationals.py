import itertools
import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import hilbert_oracle, squarefree_corpus, trial_factors
from titsmeasure import rationals
from titsmeasure.brauer import RationalClass
from titsmeasure.rationals import (
    distinct_conic_family,
    hilbert_symbol,
    quaternion_class,
    square_class,
)

PLACES = ("real", 2, 3, 5, 7)
small_squarefree = st.sampled_from(squarefree_corpus(15))
places = st.sampled_from(PLACES)


class TestHilbertSymbol:
    def test_known_values(self):
        assert hilbert_symbol(-1, -1, "real") == -1
        assert hilbert_symbol(-1, -1, 2) == -1
        assert hilbert_symbol(-1, -1, 3) == 1
        assert hilbert_symbol(2, 3, 3) == -1
        assert hilbert_symbol(5, 5, 5) == hilbert_symbol(5, -1, 5)

    def test_rejects_zero(self):
        with pytest.raises(ValueError):
            hilbert_symbol(0, 3, 2)

    def test_rational_entries(self):
        # symbols only depend on square classes
        assert hilbert_symbol(Fraction(1, 2), 3, 2) == hilbert_symbol(2, 3, 2)
        assert hilbert_symbol(Fraction(-9, 4), 5, 5) == hilbert_symbol(-1, 5, 5)

    @given(small_squarefree, small_squarefree, places)
    @settings(max_examples=150, deadline=None)
    def test_matches_solvability_oracle(self, a, b, v):
        assert hilbert_symbol(a, b, v) == hilbert_oracle(a, b, v)

    @given(small_squarefree, small_squarefree, places)
    @settings(max_examples=100, deadline=None)
    def test_symmetry(self, a, b, v):
        assert hilbert_symbol(a, b, v) == hilbert_symbol(b, a, v)

    @given(small_squarefree, small_squarefree, small_squarefree, places)
    @settings(max_examples=100, deadline=None)
    def test_bilinearity(self, a, b, c, v):
        assert hilbert_symbol(a * b, c, v) == hilbert_symbol(a, c, v) * hilbert_symbol(
            b, c, v
        )

    @given(small_squarefree, places)
    @settings(max_examples=60, deadline=None)
    def test_minus_a_always_splits(self, a, v):
        assert hilbert_symbol(a, -a, v) == 1

    @given(small_squarefree, small_squarefree)
    @settings(max_examples=80, deadline=None)
    def test_product_formula(self, a, b):
        product = hilbert_symbol(a, b, "real") * hilbert_symbol(a, b, 2)
        odd = set()
        for x in (a, b):
            odd.update(p for p in (3, 5, 7, 11, 13) if x % p == 0)
        for p in sorted(odd):
            product *= hilbert_symbol(a, b, p)
        assert product == 1


class TestQuaternionClasses:
    def test_squarefree_part(self):
        assert square_class(Fraction(8)) == (2, ())
        assert square_class(Fraction(-12)) == (-3, (3,))
        assert square_class(Fraction(9, 4)) == (1, ())
        assert square_class(Fraction(-5, 18)) == (-10, (5,))

    def test_ramified_places_examples(self):
        assert quaternion_class(-1, -1).ramified_places() == ("real", 2)
        assert quaternion_class(-1, 3).ramified_places() == (2, 3)
        assert quaternion_class(1, 7).ramified_places() == ()

    def test_payload_and_places_read_the_key(self):
        # Both read the key entries directly; they must agree with the
        # Fraction invariants on sums, multiples and p-parts.
        a = RationalClass([("real", Fraction(1, 2)), (3, Fraction(1, 3)), (5, Fraction(1, 6))])
        b = RationalClass([(2, Fraction(3, 4)), (7, Fraction(1, 4))])
        for c in (a, b, a + b, a + a, 5 * (a + b), (a + b).p_part(2), (a + b).p_part(3), a - a):
            assert c.to_payload() == {"invariants": [{"place": v, "inv": str(inv)} for v, inv in c.invariants]}
            assert c.ramified_places() == tuple(v for v, _ in c.invariants)

    def test_quaternion_class_invariants(self):
        c = quaternion_class(-1, 3)
        assert c.invariant_at(2) == Fraction(1, 2)
        assert c.invariant_at(3) == Fraction(1, 2)
        assert c.invariant_at(5) == 0
        assert (c + c).is_identity()

    def test_split_quaternion_is_identity(self):
        assert quaternion_class(1, 5).is_identity()
        assert quaternion_class(2, -2).is_identity()

    @given(small_squarefree, small_squarefree)
    @settings(max_examples=60, deadline=None)
    def test_class_ramification_matches_symbols(self, a, b):
        c = quaternion_class(a, b)
        for v in c.ramified_places():
            assert hilbert_symbol(a, b, v) == -1


class TestCoprimeBase:
    @given(st.lists(st.integers(1, 10**6), max_size=8))
    @settings(max_examples=150, deadline=None)
    def test_pairwise_coprime_and_spans_every_value(self, values):
        base = rationals._coprime_base(values)
        assert base == sorted(base) and all(b > 1 for b in base)
        assert all(math.gcd(a, b) == 1 for a, b in itertools.combinations(base, 2))
        for v in values:
            for b in base:
                while v % b == 0:
                    v //= b
            assert v == 1

    def test_zero_has_no_square_class(self):
        with pytest.raises(ValueError, match="^zero has no square class$"):
            rationals.square_classes([Fraction(2), Fraction(0)])

    def test_shared_primes_split_out(self):
        p, q, r = 1000003, 1000033, 999999000001
        assert rationals._coprime_base([p * q, q * r, r * p, p * p * q]) == [p, q, r]


PRIMES_TO_50 = [p for p in range(2, 51) if all(p % d for d in range(2, p))]
# A product of up to three primes <= 50 at exponents 0-3, such as 12 = 2^2 3.
atoms = st.lists(st.tuples(st.sampled_from(PRIMES_TO_50), st.integers(0, 3)), min_size=1, max_size=3).map(
    lambda powers: math.prod(p**e for p, e in powers))


@st.composite
def shared_atom_forms(draw):
    """Up to ten nonzero rationals whose numerators and denominators are
    products of a few atoms shared by the whole form, each to a power 0-3, so
    that coprime-base elements such as 12 hold primes at even and odd
    exponents and entries hold the elements at even and odd powers."""
    pool = draw(st.lists(atoms, min_size=1, max_size=4))
    powers = st.lists(st.integers(0, 3), min_size=len(pool), max_size=len(pool))

    def part():
        return math.prod(a**k for a, k in zip(pool, draw(powers)))

    n = draw(st.integers(1, 10))
    return [Fraction(draw(st.sampled_from([-1, 1])) * part(), part()) for _ in range(n)]


class TestSquareClasses:
    @given(shared_atom_forms())
    @settings(max_examples=200, deadline=None)
    def test_each_entry_matches_its_own_trial_division(self, xs):
        for x, cls in zip(xs, rationals.square_classes(xs)):
            odd = sorted(p for p, e in trial_factors(abs(x.numerator * x.denominator)).items() if e % 2)
            assert cls == ((-1 if x < 0 else 1) * math.prod(odd), tuple(p for p in odd if p != 2)), x


class TestConicFamily:
    def test_first_three(self):
        classes = distinct_conic_family([3, 7, 11])
        assert [c.ramified_places() for c in classes] == [(2, 3), (2, 7), (2, 11)]
        assert len(set(classes)) == 3

    def test_rejects_wrong_residue(self):
        with pytest.raises(ValueError):
            distinct_conic_family([5])

    def test_rejects_composite(self):
        with pytest.raises(ValueError):
            distinct_conic_family([15])

    def test_rejects_duplicates(self):
        with pytest.raises(ValueError):
            distinct_conic_family([3, 3])
