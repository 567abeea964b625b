"""The table-backed group core against the coordinate-loop reference formulas."""

import gc
import pickle
import random
import weakref

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (
    coords_add,
    coords_multiple,
    coords_neg,
    coords_order,
    coords_p_part,
    list_signature,
    normal_form_signature,
    trial_factors,
)
from titsmeasure.brauer import RATIONALS, AbstractClass, AbstractGroup, ResourceLimitError
from titsmeasure.motives import MotiveSum

REFERENCE_GROUPS = [(2, 2, 2), (12,), (4, 3), (30,), (210,), (), (1,), (4, 2), (8, 2), (9, 3),
                    (2,) * 6 + (3,), (4, 9, 25)]
MULTIPLIERS = (-7, -1, 0, 2, 5)


def check_class(g, a, orders):
    """The index, order, primes, negation, multiples and p-parts of ``a``
    against the coordinate loops."""
    assert g.element(a.coords).index == a.index
    per = coords_order(a.coords, orders)
    assert a.order() == per
    assert a.primes() == tuple(trial_factors(per))
    assert (-a).coords == coords_neg(a.coords, orders)
    for k in MULTIPLIERS:
        assert (k * a).coords == (a * k).coords == coords_multiple(a.coords, orders, k)
    for p in g.primes() + (7, 31):
        assert a.p_part(p).coords == coords_p_part(a.coords, orders, p)


def check_pair(a, b, orders):
    assert (a + b).coords == coords_add(a.coords, b.coords, orders)
    assert (a - b).coords == coords_add(a.coords, coords_neg(b.coords, orders), orders)


@pytest.mark.parametrize("orders", REFERENCE_GROUPS)
def test_tables_match_reference_on_every_element(orders):
    g = AbstractGroup(orders)
    elements = list(g.elements())
    assert len(elements) == g.order
    assert [c.index for c in elements] == list(range(g.order))
    assert [c.coords for c in elements] == sorted(c.coords for c in elements)
    assert g.primes() == tuple(trial_factors(g.exponent))
    for a in elements:
        check_class(g, a, orders)
    # Sums over a stride of pairs keeps (210,) and (4, 9, 25) quick; the
    # small groups get all.
    step = max(1, len(elements) // 30)
    for a in elements[::step]:
        for b in elements:
            check_pair(a, b, orders)


@given(st.lists(st.integers(1, 30), max_size=4).map(tuple), st.data())
@settings(max_examples=100, deadline=None)
def test_tables_match_reference_on_random_orders(orders, data):
    g = AbstractGroup(orders)
    # Coordinates out of range too: an element reduces them.
    coords = st.tuples(*(st.integers(-60, 60) for _ in orders))
    raw = [data.draw(coords) for _ in range(2)]
    a, b = map(g.element, raw)
    for c, cs in zip((a, b), raw):
        assert c.coords == tuple(x % n for x, n in zip(cs, orders))
        check_class(g, c, orders)
    check_pair(a, b, orders)
    check_pair(b, a, orders)


def test_tables_match_reference_on_many_cyclic_factors():
    # (Z/2)^14 x Z/5: fifteen digits an index, on a seeded sample of classes.
    orders = (2,) * 14 + (5,)
    g = AbstractGroup(orders)
    rng = random.Random(14)
    sample = [g.class_at(rng.randrange(g.order)) for _ in range(200)]
    for a in sample:
        check_class(g, a, orders)
    for a in sample[:40]:
        for b in sample:
            check_pair(a, b, orders)
    assert len(g.key_order) < 1000 and len(g.p_part_keys[5]) <= 200


def test_classes_are_equal_by_value():
    g, h = AbstractGroup((12,)), AbstractGroup((12,))
    a = g.element([5])
    for same in (g.element([17]), AbstractClass(g, (5,)), g.element([2]) + g.element([3]), g.class_at(5)):
        assert same == a and hash(same) == hash(a) and same.index == 5 and same.coords == (5,)
    # An equal group built separately gives equal classes with equal hashes.
    b = h.element([5])
    assert a == b and hash(a) == hash(b)
    assert a + h.element([1]) == g.element([6])
    assert len({a, b, g.element([17])}) == 1
    assert a != AbstractGroup((12,), ((((1,), 12),))).element([5])
    for c in (a, g.element([0]), AbstractGroup((2, 6)).element([1, 4])):
        copy = pickle.loads(pickle.dumps(c))
        assert copy == c and hash(copy) == hash(c) and copy.coords == c.coords


def test_dropped_group_dies_without_the_cycle_collector():
    gc.disable()
    try:
        g = AbstractGroup((12,), ((((1,), 12),)))
        a, b = g.element([5]), g.element([4])
        assert (a + b, -a, a - b, 3 * a) == tuple(map(g.element, ([9], [7], [1], [3])))
        assert (a.order(), a.primes(), g.primes()) == (12, (2, 3), (2, 3))
        assert (a.p_part(2), a.p_part(3)) == (g.element([9]), g.element([8]))
        assert g.index_of(g.element([1])) == 12 and list(g.elements())[7] == g.element([7])
        assert MotiveSum.of(g, [a, b, a]).signature()
        ref = weakref.ref(g)
        del g, a, b
        assert ref() is None
    finally:
        gc.enable()


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
    assert len(g.key_order) < 10 and len(g._sum) < 10


def test_p_group_is_decided_on_first_read():
    # An exponent of two primes past the factoring budget: building the group
    # factors nothing, so a document over it can still fail on its own
    # grounds; only the first read of the flag factors, and raises.
    g = AbstractGroup((1229685566027 * 1092814357813179451,))
    with pytest.raises(ResourceLimitError):
        g.p_group
    for orders, flag in [((1,), True), ((8,), True), ((2, 4), True), ((3, 9, 27), True),
                         ((12,), False), ((2, 3), False)]:
        group = AbstractGroup(orders)
        assert group.p_group is flag and group.p_group is flag, orders
    assert RATIONALS.p_group is False


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
    # The normal form decoded to rank and per-prime p-part counts, then put
    # in the list algorithm's shape: primes ascending, p-parts by coords.
    n, parts = normal_form_signature(g, ms.signature())
    as_coords = (n, tuple((p, tuple(sorted((c.coords, k) for c, k in part.items())))
                          for p, part in parts.items()))
    assert as_coords == list_signature(coord_list, orders)
    assert sorted(c.coords for c in ms.classes) == sorted(coord_list)
    assert len(ms) == len(coord_list)
