"""Printed classes and measures, read off class keys, against a key-only oracle.

Each group model prints the class at a key by one rule, ``key_payload``; the
class objects' ``to_payload`` and the printed ``RingElement`` and
``MotiveSum`` go through it.  The oracle decodes an abstract index by its
mixed-radix digits and a rational key entry by ``str(Fraction)``.
"""

from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import index_payload, invariants_payload, measure_payload
from titsmeasure.brauer import CSA, RATIONALS, AbstractGroup, RationalClass
from titsmeasure.measure_ring import from_motive_sum
from titsmeasure.motives import MotiveSum
from titsmeasure.rationals import quaternion_class
from titsmeasure.varieties import SeveriBrauer, tits_measure

SHAPES = [(1,), (2, 2), (12,), (2, 6), (2, 2, 3), (4, 9)]
GROUPS = [AbstractGroup(orders) for orders in SHAPES]
PLACES = ("real", 2, 3, 5, 7, 11, 13)


@st.composite
def group_and_index(draw):
    g = draw(st.sampled_from(GROUPS))
    return g, draw(st.integers(0, g.order - 1))


@given(group_and_index())
@settings(max_examples=200, deadline=None)
def test_abstract_key_payload(gi):
    g, i = gi
    expected = index_payload(i, g.orders)
    assert g.key_payload(i) == expected
    assert g.class_at(i).to_payload() == expected
    assert g.element(expected["coords"]).to_payload() == expected


@st.composite
def rational_classes(draw):
    """A quaternion class of a random pair, or residues at random places
    closed up to a sum of 0 mod 1 at 17."""
    if draw(st.booleans()):
        nonzero = st.integers(-10**6, 10**6).filter(bool)
        return quaternion_class(draw(nonzero), draw(nonzero))
    invs = [(v, Fraction(draw(st.integers(0, 11)), 12)) for v in draw(st.sets(st.sampled_from(PLACES[1:])))]
    invs.append(("real", draw(st.sampled_from([Fraction(0), Fraction(1, 2)]))))
    invs.append((17, -sum(inv for _, inv in invs) % 1))
    return RationalClass(invs)


@given(rational_classes())
@settings(max_examples=200, deadline=None)
def test_rational_key_payload(c):
    expected = invariants_payload(c.key)
    assert RATIONALS.key_payload(c.key) == expected
    assert c.to_payload() == expected
    assert RATIONALS.class_at(c.key).to_payload() == expected
    assert [(e["place"], Fraction(e["inv"])) for e in expected["invariants"]] == list(c.invariants)


def _assert_printed(ms):
    ring = from_motive_sum(ms)
    expected = measure_payload(ms.group, ring.key_terms, ms.key_counts)
    assert ring.to_payload() == expected["jt"]
    assert ms.to_payload() == expected["jt_effective"]


@st.composite
def abstract_sums(draw):
    g = draw(st.sampled_from(GROUPS))
    counts = draw(st.lists(st.tuples(st.integers(0, g.order - 1), st.integers(0, 4)), max_size=8))
    return MotiveSum(g, [(g.class_at(i), k) for i, k in counts])


@given(abstract_sums())
@settings(max_examples=150, deadline=None)
def test_printed_abstract_sums_and_images(ms):
    _assert_printed(ms)


@given(st.lists(st.tuples(rational_classes(), st.integers(0, 4)), max_size=6))
@settings(max_examples=100, deadline=None)
def test_printed_rational_sums_and_images(counts):
    _assert_printed(MotiveSum(RATIONALS, counts))


@given(group_and_index(), st.integers(1, 4))
@settings(max_examples=100, deadline=None)
def test_printed_measure_of_a_severi_brauer_variety(gi, copies):
    g, i = gi
    c = g.class_at(i)
    report = tits_measure(SeveriBrauer(CSA(c, c.order() * copies)))
    payload = report.to_payload()
    expected = measure_payload(g, report.jt.key_terms, report.jt_effective.key_counts)
    assert {name: payload[name] for name in expected} == expected
