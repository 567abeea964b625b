from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import class_normal_form, counter_isomorphic
from titsmeasure.brauer import RATIONALS, AbstractGroup, RationalClass
from titsmeasure.measure_ring import (
    RingElement,
    augmentation,
    from_motive_sum,
)
from titsmeasure.motives import MotiveSum, direct_sum, tensor

G6 = AbstractGroup((6,))
G30 = AbstractGroup((30,))
V2 = AbstractGroup((2, 2))

small_groups = st.sampled_from([G6, G30, V2, AbstractGroup((12,))])


@st.composite
def motive_sums(draw, group=None, max_len=4):
    g = group if group is not None else draw(small_groups)
    n = draw(st.integers(1, max_len))
    classes = [
        g.element([draw(st.integers(0, 40)) for _ in g.orders]) for _ in range(n)
    ]
    return MotiveSum.of(g, classes)


@st.composite
def ring_elements(draw, group=None):
    g = group if group is not None else draw(small_groups)
    n = draw(st.integers(0, 4))
    terms = [
        (
            g.element([draw(st.integers(0, 40)) for _ in g.orders]),
            draw(st.integers(-3, 3)),
        )
        for _ in range(n)
    ]
    return RingElement(g, tuple(terms))


class TestNormalForm:
    def test_class_splits_into_primary_parts(self):
        # [1] in Z/6 normalizes to [3] + [4] - [0]
        e = RingElement(G6, ((G6.element([1]), 1),))
        coeffs = {c.coords[0]: k for c, k in e.terms}
        assert coeffs == {3: 1, 4: 1, 0: -1}

    def test_primary_class_is_already_normal(self):
        e = RingElement(G6, ((G6.element([3]), 1),))
        assert [(c.coords[0], k) for c, k in e.terms] == [(3, 1)]

    def test_identity_class(self):
        e = RingElement(G6, ((G6.identity(), 1),))
        assert [(c.coords[0], k) for c, k in e.terms] == [(0, 1)]

    def test_three_prime_split(self):
        e = RingElement(G30, ((G30.element([1]), 1),))
        coeffs = {c.coords[0]: k for c, k in e.terms}
        # 1 = 15 + 10 + 6 mod 30 per primary component; two corrections
        assert coeffs == {15: 1, 10: 1, 6: 1, 0: -2}

    def test_zero_terms_dropped(self):
        e = RingElement(G6, ((G6.element([2]), 1), (G6.element([2]), -1)))
        assert not e.terms
        assert e == RingElement(G6, ())

    @pytest.mark.parametrize("coeff", [True, False, 1.0, "1"])
    def test_rejects_non_integer_coefficients(self, coeff):
        # bool is a subclass of int; by brauer.is_int it is not a coefficient.
        with pytest.raises(ValueError, match="coefficients must be integers"):
            RingElement(G6, ((G6.element([1]), coeff),))

    @given(ring_elements())
    @settings(max_examples=60, deadline=None)
    def test_normalize_is_idempotent(self, e):
        assert RingElement(e.group, e.terms) == e


class TestRingLaws:
    @given(ring_elements(group=G6), ring_elements(group=G6), ring_elements(group=G6))
    @settings(max_examples=50, deadline=None)
    def test_mul_distributes(self, a, b, c):
        assert a * (b + c) == a * b + a * c

    @given(ring_elements(group=G6), ring_elements(group=G6))
    @settings(max_examples=50, deadline=None)
    def test_mul_commutes(self, a, b):
        assert a * b == b * a

    @given(ring_elements(group=G30), ring_elements(group=G30))
    @settings(max_examples=40, deadline=None)
    def test_augmentation_is_multiplicative(self, a, b):
        assert augmentation(a * b) == augmentation(a) * augmentation(b)

    @given(ring_elements(group=G30), ring_elements(group=G30))
    @settings(max_examples=40, deadline=None)
    def test_augmentation_is_additive(self, a, b):
        assert augmentation(a + b) == augmentation(a) + augmentation(b)

    def test_identity_class_is_unit(self):
        one = RingElement(G6, ((G6.identity(), 1),))
        x = RingElement(G6, ((G6.element([1]), 2), (G6.element([5]), -1)))
        assert one * x == x


# Rational classes of order 1, 2, 3 and 6, so that p-parts split over Q too.
RATIONAL_CLASSES = [
    RATIONALS.identity(),
    RationalClass([(2, Fraction(1, 2)), (3, Fraction(1, 2))]),
    RationalClass([(3, Fraction(1, 3)), (7, Fraction(2, 3))]),
    RationalClass([("real", Fraction(1, 2)), (5, Fraction(1, 6)), (7, Fraction(1, 3))]),
]


@st.composite
def raw_terms(draw, group):
    """(class, coefficient) pairs as a caller passes them, repeats allowed."""
    if group is RATIONALS:
        classes = st.sampled_from(RATIONAL_CLASSES)
    else:
        classes = st.builds(lambda c: group.element([c]), st.integers(0, 60))
    return draw(st.lists(st.tuples(classes, st.integers(-3, 3)), max_size=5))


class TestNegationAndSubtraction:
    """-(-x) = x, x - x = 0 and (x - y) + y = x, with each normal form checked
    class by class against ``oracles.class_normal_form``."""

    @pytest.mark.parametrize("group", [G6, G30, RATIONALS], ids=["Z6", "Z30", "Q"])
    @given(data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_identities(self, group, data):
        xs, ys = data.draw(raw_terms(group)), data.draw(raw_terms(group))
        x, y = RingElement(group, xs), RingElement(group, ys)
        negated = [(c, -k) for c, k in ys]
        assert dict((-x).terms) == {c: -k for c, k in class_normal_form(group, xs).items()}
        assert dict((x - y).terms) == class_normal_form(group, xs + negated)
        assert -(-x) == x
        assert x - x == RingElement(group, ()) and not (x - x).key_terms
        assert (x - y) + y == x


class TestMotiveCorrespondence:
    """Ring equality of effective sums must decide motive isomorphism."""

    @given(motive_sums(max_len=3), motive_sums(max_len=3))
    @settings(max_examples=120, deadline=None)
    def test_equal_iff_isomorphic(self, a, b):
        # is_isomorphic compares these same normal forms, so the reference is
        # the per-prime Counter oracle on coordinates.
        if a.group != b.group:
            return
        coords = ([c.coords for c in s.classes] for s in (a, b))
        assert (from_motive_sum(a) == from_motive_sum(b)) == counter_isomorphic(*coords, a.group.orders)

    @given(motive_sums(group=G6, max_len=3), motive_sums(group=G6, max_len=3))
    @settings(max_examples=60, deadline=None)
    def test_from_motive_sum_is_additive(self, a, b):
        assert from_motive_sum(direct_sum(a, b)) == from_motive_sum(a) + from_motive_sum(b)

    @given(motive_sums(group=G6, max_len=2), motive_sums(group=G6, max_len=2))
    @settings(max_examples=60, deadline=None)
    def test_from_motive_sum_is_multiplicative(self, a, b):
        assert from_motive_sum(tensor(a, b)) == from_motive_sum(a) * from_motive_sum(b)

    def test_augmentation_counts_classes(self):
        m = MotiveSum.of(G30, [G30.element([1]), G30.element([7]), G30.identity()])
        assert augmentation(from_motive_sum(m)) == 3

    def test_recombination_example(self):
        x = MotiveSum.of(G6, [G6.element([1]), G6.element([2])])
        y = MotiveSum.of(G6, [G6.element([5]), G6.element([4])])
        assert from_motive_sum(x) == from_motive_sum(y)
