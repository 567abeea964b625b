"""The table-backed group core against the coordinate-loop reference formulas."""

import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (
    coords_add,
    coords_neg,
    coords_order,
    coords_p_part,
    decode_signature,
    list_signature,
)
from titsmeasure.brauer import AbstractClass, AbstractGroup
from titsmeasure.motives import MotiveSum

REFERENCE_GROUPS = [(2, 2, 2), (12,), (4, 3), (30,), (210,)]


@pytest.mark.parametrize("orders", REFERENCE_GROUPS)
def test_tables_match_reference_on_every_element(orders):
    g = AbstractGroup(orders)
    elements = list(g.elements())
    assert len(elements) == g.order
    assert [c.index for c in elements] == list(range(g.order))
    assert [c.coords for c in elements] == sorted(c.coords for c in elements)
    primes = g.primes()
    for a in elements:
        per = coords_order(a.coords, orders)
        assert a.order() == per
        assert a.primes() == tuple(p for p in primes if per % p == 0)
        assert (-a).coords == coords_neg(a.coords, orders)
        for p in primes + (7,):
            assert a.p_part(p).coords == coords_p_part(a.coords, orders, p)
    # Sums over a stride of pairs keeps (210,) quick; the small groups get all.
    step = max(1, len(elements) // 30)
    for a in elements[::step]:
        for b in elements:
            s = a + b
            assert s.coords == coords_add(a.coords, b.coords, orders)
            assert (a - b).coords == coords_add(a.coords, coords_neg(b.coords, orders), orders)


def test_classes_are_interned_and_equal_by_value():
    g, h = AbstractGroup((12,)), AbstractGroup((12,))
    a = g.element([5])
    assert a is g.element([17]) is AbstractClass(g, (5,))
    assert a is g.element([2]) + g.element([3])
    # An equal group built separately gives equal classes with equal hashes.
    b = h.element([5])
    assert a is not b and a == b and hash(a) == hash(b)
    assert a + h.element([1]) == g.element([6])
    assert len({a, b}) == 1
    assert a != AbstractGroup((12,), ((((1,), 12),))).element([5])
    assert pickle.loads(pickle.dumps(a)) == a


def test_classes_are_immutable():
    a = AbstractGroup((6,)).element([1])
    with pytest.raises(AttributeError):
        a.coords = (2,)


def test_p_part_rejects_non_primes():
    a = AbstractGroup((12,)).element([1])
    for bad in (1, 4, 12):
        with pytest.raises(ValueError):
            a.p_part(bad)


def test_large_cyclic_group_stays_lazy():
    g = AbstractGroup((10**9,))
    a = g.element([123456789])
    assert a.order() == 10**9
    assert a.p_part(2) + a.p_part(5) == a
    assert len(g._classes) < 10


@st.composite
def coord_multisets(draw):
    orders = draw(st.sampled_from(REFERENCE_GROUPS + [(6,), (2, 2)]))
    n = draw(st.integers(0, 7))
    return orders, [tuple(draw(st.integers(0, m - 1)) for m in orders) for _ in range(n)]


@given(coord_multisets())
@settings(max_examples=150, deadline=None)
def test_signature_matches_list_algorithm(data):
    orders, coord_list = data
    g = AbstractGroup(orders)
    ms = MotiveSum.of(g, [g.element(c) for c in coord_list])
    n, parts = decode_signature(g, ms.signature())
    as_coords = (n, tuple((p, tuple((c.coords, k) for c, k in sig)) for p, sig in parts))
    assert as_coords == list_signature(coord_list, orders)
    assert sorted(c.coords for c in ms.classes) == sorted(coord_list)
    assert len(ms) == len(coord_list)
