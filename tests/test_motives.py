import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import coords_add, coords_p_part, counter_isomorphic
from titsmeasure.brauer import AbstractGroup, GroupMismatchError
from titsmeasure.motives import (
    MotiveSum,
    direct_sum,
    is_isomorphic,
    tensor,
)

G6 = AbstractGroup((6,))
G12 = AbstractGroup((12,))
V2 = AbstractGroup((2, 2))

small_groups = st.sampled_from([G6, G12, V2, AbstractGroup((30,))])


@st.composite
def motive_sums(draw, group=None, max_len=4):
    g = group if group is not None else draw(small_groups)
    n = draw(st.integers(1, max_len))
    classes = [
        g.element([draw(st.integers(0, 40)) for _ in g.orders]) for _ in range(n)
    ]
    return MotiveSum.of(g, classes)


class TestMotiveSum:
    def test_classes_are_sorted(self):
        m = MotiveSum.of(G6, [G6.element([5]), G6.element([1]), G6.element([5])])
        assert [c.coords for c in m.classes] == [(1,), (5,), (5,)]

    def test_empty_sum_is_direct_sum_unit(self):
        empty = MotiveSum.of(G6, [])
        a = MotiveSum.of(G6, [G6.element([1])])
        assert len(empty) == 0
        assert direct_sum(a, empty) == a

    def test_rejects_foreign_classes(self):
        with pytest.raises(GroupMismatchError):
            MotiveSum.of(G6, [G12.element([1])])

    @pytest.mark.parametrize("mult", [True, False, 1.0, -1])
    def test_rejects_non_integer_multiplicities(self, mult):
        # bool is a subclass of int; by brauer.is_int it is not a count.
        with pytest.raises(ValueError, match="multiplicities must be non-negative integers"):
            MotiveSum(G6, [(G6.element([1]), mult)])

    def test_direct_sum_concatenates(self):
        a = MotiveSum.of(G6, [G6.element([1])])
        b = MotiveSum.of(G6, [G6.element([2]), G6.element([3])])
        assert len(direct_sum(a, b)) == 3

    def test_tensor_is_pairwise_addition(self):
        a = MotiveSum.of(G6, [G6.element([1]), G6.element([2])])
        b = MotiveSum.of(G6, [G6.element([3])])
        t = tensor(a, b)
        assert sorted(c.coords[0] for c in t.classes) == [4, 5]

    def test_rank_past_the_index_type(self):
        # len() stops at 2^63 - 1; the rank attribute is exact beyond it.
        big = MotiveSum(G6, ((G6.element([1]), 2**40), (G6.element([2]), 2**40)))
        assert big.rank == len(big) == 2**41
        square = tensor(big, big)
        assert square.rank == 2**82
        assert direct_sum(square, big).rank == 2**82 + 2**41
        assert dict((c.coords[0], k) for c, k in square.counts) == {2: 2**80, 3: 2**81, 4: 2**80}
        with pytest.raises(OverflowError):
            len(square)

    def test_identity_is_tensor_unit(self):
        a = MotiveSum.of(G6, [G6.element([1]), G6.element([4])])
        unit = MotiveSum.of(G6, [G6.identity()])
        assert tensor(a, unit) == a


class TestIsomorphism:
    def test_same_multiset_is_isomorphic(self):
        a = MotiveSum.of(G6, [G6.element([1]), G6.element([2])])
        b = MotiveSum.of(G6, [G6.element([2]), G6.element([1])])
        assert is_isomorphic(a, b)

    def test_per_prime_mixing(self):
        # [1] and [5] in Z/6 split into swapped 2- and 3-parts: {1} has
        # parts (3, 4), {5} has parts (3, 2); a pair can trade them.
        a = MotiveSum.of(G6, [G6.element([1]), G6.element([5])])
        b = MotiveSum.of(G6, [G6.element([1]), G6.element([5])])
        assert is_isomorphic(a, b)
        c = MotiveSum.of(G6, [G6.element([1]), G6.element([1])])
        assert not is_isomorphic(a, c)

    def test_recombined_parts_are_isomorphic(self):
        # In Z/6, 1 = 3+4 and 2 = 0+2 (2-part + 3-part).  Trading the
        # 3-parts gives 3+2 = 5 and 0+4 = 4: a different multiset with the
        # same per-prime parts, so it must count as isomorphic.
        x = MotiveSum.of(G6, [G6.element([1]), G6.element([2])])
        y = MotiveSum.of(G6, [G6.element([5]), G6.element([4])])
        assert x.classes != y.classes
        assert is_isomorphic(x, y)

    def test_cardinality_must_match(self):
        a = MotiveSum.of(G6, [G6.identity()])
        b = MotiveSum.of(G6, [G6.identity(), G6.identity()])
        assert not is_isomorphic(a, b)

    @given(motive_sums(), motive_sums())
    @settings(max_examples=80, deadline=None)
    def test_signature_decides_isomorphism(self, a, b):
        if a.group != b.group:
            return
        assert is_isomorphic(a, b) == (a.signature() == b.signature())

    @given(motive_sums(max_len=6), st.randoms(use_true_random=False), st.booleans())
    @settings(max_examples=150, deadline=None)
    def test_matches_per_prime_counter_oracle(self, a, rnd, perturb):
        # b trades p-parts between the summands of a prime by prime, so it
        # is isomorphic to a; perturbing one summand usually breaks that.
        g = a.group
        xs = [c.coords for c in a.classes]
        ys = [(0,) * len(g.orders) for _ in xs]
        for p in g.primes():
            parts = [coords_p_part(c, g.orders, p) for c in xs]
            rnd.shuffle(parts)
            ys = [coords_add(y, part, g.orders) for y, part in zip(ys, parts)]
        if perturb:
            ys[rnd.randrange(len(ys))] = tuple(rnd.randrange(n) for n in g.orders)
        b = MotiveSum.of(g, [g.element(y) for y in ys])
        expected = counter_isomorphic(xs, ys, g.orders)
        assert expected or perturb
        assert is_isomorphic(a, b) == expected

    @given(motive_sums(group=G12, max_len=3), motive_sums(group=G12, max_len=3))
    @settings(max_examples=60, deadline=None)
    def test_direct_sum_commutes_up_to_iso(self, a, b):
        assert is_isomorphic(direct_sum(a, b), direct_sum(b, a))

    @given(
        motive_sums(group=G6, max_len=3),
        motive_sums(group=G6, max_len=3),
        motive_sums(group=G6, max_len=2),
    )
    @settings(max_examples=60, deadline=None)
    def test_direct_sum_respects_isomorphism(self, a, b, c):
        if is_isomorphic(a, b):
            assert is_isomorphic(direct_sum(a, c), direct_sum(b, c))


def _cancels(x, y, n):
    """Whether x and y are isomorphic exactly when x + n and y + n are."""
    return is_isomorphic(direct_sum(x, n), direct_sum(y, n)) == is_isomorphic(x, y)


class TestCancellation:
    """Cancelling a common direct summand never changes the verdict; the
    sum-cancellation verify suite checks the same law over whole groups."""

    def test_cancel_common_agrees_with_plain_equality(self):
        a = MotiveSum.of(G12, [G12.element([1]), G12.element([4])])
        b = MotiveSum.of(G12, [G12.element([7]), G12.element([4])])
        c = MotiveSum.of(G12, [G12.element([2])])
        assert _cancels(a, b, c)

    def test_cancel_common_positive_case(self):
        a = MotiveSum.of(V2, [V2.element([1, 0])])
        c = MotiveSum.of(V2, [V2.element([1, 1]), V2.element([0, 1])])
        assert _cancels(a, a, c)  # both sides hold, since a is isomorphic to itself

    @given(
        motive_sums(group=G12, max_len=3),
        motive_sums(group=G12, max_len=3),
        motive_sums(group=G12, max_len=2),
    )
    @settings(max_examples=80, deadline=None)
    def test_cancel_common_never_raises(self, a, b, c):
        assert _cancels(a, b, c)
