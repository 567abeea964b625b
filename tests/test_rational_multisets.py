"""Merging multisets of rational Brauer classes, against a Counter oracle.

Classes carry invariants at the real place, at 2 and at odd primes, with
halves, thirds and sixths, so they have 2-, 3- and mixed-primary parts.  The
library's ``MotiveSum`` counts, rank and signature and the ``RingElement``
normal form must equal the oracle's Counter merges of the same invariant
data, in the canonical order (real place first, then primes ascending).
"""

from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (
    class_signature,
    counter_merge,
    invariants_normal_form,
    invariants_signature,
    normal_form_signature,
)
from titsmeasure.brauer import RATIONALS, RationalClass
from titsmeasure.measure_ring import RingElement
from titsmeasure.motives import MotiveSum

FREE_PLACES = (2, 3, 5)
CLOSING_PLACE = 7
SIXTHS = [Fraction(i, 6) for i in range(6)]


@st.composite
def rational_classes(draw):
    invs = [("real", draw(st.sampled_from([Fraction(0), Fraction(1, 2)])))]
    invs += [(v, draw(st.sampled_from(SIXTHS))) for v in FREE_PLACES]
    # The closing place makes the invariants sum to 0 mod 1.
    invs.append((CLOSING_PLACE, -sum(inv for _, inv in invs) % 1))
    draw(st.randoms(use_true_random=False)).shuffle(invs)
    return RationalClass(tuple(invs))


def _plain(pairs) -> list:
    return [(c.invariants, k) for c, k in pairs]


def _pairs(multiplicities):
    return st.lists(st.tuples(rational_classes(), multiplicities), max_size=6)


@given(_pairs(st.integers(0, 3)))
@settings(max_examples=80, deadline=None)
def test_motive_sum_matches_counter_oracle(pairs):
    ms = MotiveSum(RATIONALS, tuple(pairs))
    assert _plain(ms.counts) == counter_merge(_plain(pairs))
    assert len(ms) == sum(k for _, k in pairs)
    assert [c.invariants for c in ms.classes] == [
        invs for invs, k in counter_merge(_plain(pairs)) for _ in range(k)
    ]


@given(_pairs(st.integers(0, 3)))
@settings(max_examples=80, deadline=None)
def test_signature_matches_counter_oracle(pairs):
    ms = MotiveSum(RATIONALS, tuple(pairs))
    rank, parts = normal_form_signature(RATIONALS, ms.signature())
    assert (rank, parts) == class_signature(ms)
    plain = (rank, tuple((p, tuple(counter_merge(_plain(part.items())))) for p, part in parts.items()))
    assert plain == invariants_signature(_plain(pairs))


@given(_pairs(st.integers(-3, 3)))
@settings(max_examples=80, deadline=None)
def test_normal_form_matches_counter_oracle(pairs):
    x = RingElement(RATIONALS, tuple(pairs))
    assert _plain(x.terms) == invariants_normal_form(counter_merge(_plain(pairs)))


def test_canonical_order_puts_the_real_place_first():
    real = RationalClass((("real", Fraction(1, 2)), (2, Fraction(1, 2))))
    at_2_3 = RationalClass(((2, Fraction(1, 2)), (3, Fraction(1, 2))))
    at_3_5 = RationalClass(((3, Fraction(1, 3)), (5, Fraction(2, 3))))
    ms = MotiveSum.of(RATIONALS, [at_3_5, at_2_3, real, at_3_5])
    assert ms.counts == ((real, 1), (at_2_3, 1), (at_3_5, 2))
