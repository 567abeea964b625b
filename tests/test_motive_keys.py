"""The key-based ``MotiveSum`` and ``RingElement`` against class-based references.

A sum stores sorted (class key, multiplicity) pairs, and its signature is
the normal form of those pairs, from the group's key tables; a ring element
stores its normal form as sorted (class key, coefficient) pairs.  These
tests decode the normal form through the group, into the per-prime
signature (``oracles.normal_form_signature``) and into classes, and compare
them with the class-by-class references (``oracles.class_signature``,
``oracles.class_normal_form``), check value semantics across equal group
models, and check that ``counts``, ``classes`` and ``to_payload`` still
give what the golden corpus recorded.
"""

import itertools
import json
import pickle
from collections import Counter
from dataclasses import FrozenInstanceError
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (
    class_normal_form,
    class_signature,
    counter_merge,
    invariants_sum,
    normal_form_signature,
)
from titsmeasure.brauer import RATIONALS, AbstractGroup, GroupMismatchError, RationalClass
from titsmeasure.jsonio import parse_measure_request
from titsmeasure.measure_ring import RingElement, from_motive_sum
from titsmeasure.motives import SHORT_RUN, MotiveSum, direct_sum, is_isomorphic, merge, tensor
from titsmeasure.varieties import tits_measure

SIGNATURE_GROUPS = [(1,), (1, 2), (2, 2, 2), (8,), (9,), (3, 3), (4, 3), (12,), (210,)]
SIXTHS = [Fraction(i, 6) for i in range(6)]
GOLDEN = json.loads(
    (Path(__file__).resolve().parent / "golden" / "expected.json").read_text(encoding="utf-8")
)
GOLDEN_MEASURES = sorted(
    name for name, case in GOLDEN.items()
    if case["argv"][0] == "measure" and "json" in case["argv"] and case["exit"] == 0
)


@st.composite
def abstract_sums(draw):
    g = AbstractGroup(draw(st.sampled_from(SIGNATURE_GROUPS)))
    pairs = draw(st.lists(
        st.tuples(st.integers(0, g.order - 1), st.integers(0, 3)), max_size=7
    ))
    return MotiveSum(g, [(g.class_at(i), k) for i, k in pairs])


@st.composite
def rational_classes(draw):
    invs = [("real", draw(st.sampled_from([Fraction(0), Fraction(1, 2)])))]
    invs += [(v, draw(st.sampled_from(SIXTHS))) for v in (2, 3, 5)]
    invs.append((7, -sum(inv for _, inv in invs) % 1))
    return RationalClass(tuple(invs))


def rational_sums():
    return st.lists(st.tuples(rational_classes(), st.integers(0, 3)), max_size=5).map(
        lambda counts: MotiveSum(RATIONALS, counts))


NORMAL_FORM_GROUPS = [AbstractGroup(orders) for orders in [(1, 2), (2, 2, 2), (12,), (210,)]]
NORMAL_FORM_GROUPS.append(RATIONALS)
NORMAL_FORM_IDS = ["1,2", "2,2,2", "12", "210", "rationals"]


def _terms(group, coefficients):
    """Lists of (class, coefficient) pairs over ``group``, classes repeating."""
    if group is RATIONALS:
        classes = rational_classes()
    else:
        classes = st.integers(0, group.order - 1).map(group.class_at)
    return st.lists(st.tuples(classes, coefficients), max_size=7)


@given(st.one_of(abstract_sums(), rational_sums()))
@settings(max_examples=200, deadline=None)
def test_key_signature_decodes_to_the_class_signature(ms):
    signature = ms.signature()
    keys = [kc for kc, _ in signature]
    assert keys == sorted(set(keys)) and all(k for _, k in signature)
    assert signature == from_motive_sum(ms).key_terms
    assert normal_form_signature(ms.group, signature) == class_signature(ms)
    assert len(ms) == len(ms.classes)


@pytest.mark.parametrize("orders", [(1,), (8,), (3, 3)])
def test_identity_sums_of_two_ranks_sign_apart(orders):
    # Over a p-group only the identity's coefficient, the rank, tells
    # identity-only sums apart; of the verify suites only tensor-cancellation
    # notices a normal form without it (the rank_dropped row of
    # test_fault_injection.py), so this pins it directly.
    g = AbstractGroup(orders)
    one, two = (MotiveSum.of(g, [g.identity()] * rank) for rank in (1, 2))
    for ms in (one, two):
        assert normal_form_signature(g, ms.signature()) == class_signature(ms) == (len(ms), {})
    assert not is_isomorphic(one, two)


@given(st.one_of(abstract_sums(), rational_sums()))
@settings(max_examples=100, deadline=None)
def test_tensor_adds_keys_as_the_classes_add(ms):
    pairs = [(a + b, i * j) for a, i in ms.counts for b, j in ms.counts]
    assert tensor(ms, ms) == MotiveSum(ms.group, pairs)


@given(rational_sums(), rational_sums())
@settings(max_examples=100, deadline=None)
def test_rational_tensor_matches_the_residue_oracle(x, y):
    # Over Q the pair sums come from the Fraction-residue oracle, not from the
    # key adder that both ``tensor`` and ``+`` use.
    pairs = [(invariants_sum(a.invariants, b.invariants), i * j)
             for a, i in x.counts for b, j in y.counts]
    got = tensor(x, y)
    assert [(c.invariants, k) for c, k in got.counts] == counter_merge(pairs)
    assert got.rank == x.rank * y.rank


def _counter_merge(pairs) -> tuple:
    total: Counter = Counter()
    for kc, k in pairs:
        total[kc] += k
    return tuple(sorted((kc, k) for kc, k in total.items() if k))


MERGE_KEYS = {
    "abstract": st.integers(0, 11),
    "rational": rational_classes().map(RATIONALS.class_key),
}


@pytest.mark.parametrize("coefficients", [st.integers(1, 3), st.integers(-3, 3)],
                         ids=["counts", "signed"])
@pytest.mark.parametrize("kind", sorted(MERGE_KEYS))
@given(data=st.data())
@settings(max_examples=60, deadline=None)
def test_merging_onto_a_run_is_merging_the_concatenation(kind, coefficients, data):
    # One draw may hold more pairs than SHORT_RUN, so runs land on both sides.
    pairs = st.lists(st.tuples(MERGE_KEYS[kind], coefficients), max_size=SHORT_RUN + 2)
    run = merge(data.draw(pairs))
    extra = data.draw(pairs)
    # Negated run entries cancel to zero in the merge.
    extra += [(kc, -k) for kc, k in run if data.draw(st.booleans())]
    extra = data.draw(st.permutations(extra))
    got = merge(extra, into=run)
    assert got == merge(list(run) + extra) == _counter_merge(list(run) + extra)


# (pairs, their merge) over keys 10-12; the filler keys of the test below are
# 0 and up, so a kept entry of another key sorts before each case.
MERGE_CASES = {
    # Sorted, the run of key 11 passes through zero and then goes on.
    "partial-sum-through-zero": ([(11, 2), (11, -2), (11, 5)], ((11, 5),)),
    "lone-zero": ([(11, 0)], ()),
    "cancels-between-two-keys": ([(12, 1), (11, 2), (10, 1), (11, -2)], ((10, 1), (12, 1))),
}


@pytest.mark.parametrize("length", [SHORT_RUN, SHORT_RUN + 1], ids=["at-bound", "past-bound"])
@pytest.mark.parametrize("spelling", ["list", "zip", "onto-run"])
@pytest.mark.parametrize("case", sorted(MERGE_CASES))
def test_merge_folds_a_run_at_and_past_the_bound(case, spelling, length):
    # A run of SHORT_RUN pairs is folded in one sort, one pair more goes to
    # the dict.  A long list is summed where it is, a one-shot iterator
    # (varieties._cell_sum passes a zip) and a run merged onto are copied.
    pairs, expected = MERGE_CASES[case]
    filler = [(i, 1) for i in range(length - len(pairs))]
    run = pairs + filler[::-1]
    if spelling == "list":
        got = merge(run)
    elif spelling == "zip":
        got = merge(zip([kc for kc, _ in run], [k for _, k in run]))
    else:
        got = merge(pairs, into=tuple(filler))
    assert got == _counter_merge(run) == tuple(filler) + expected


@pytest.mark.parametrize("group", NORMAL_FORM_GROUPS, ids=NORMAL_FORM_IDS)
@given(data=st.data())
@settings(max_examples=60, deadline=None)
def test_direct_sum_is_the_sum_of_the_concatenated_classes(group, data):
    x, y = (MotiveSum(group, data.draw(_terms(group, st.integers(0, 3)))) for _ in range(2))
    if group is not RATIONALS and data.draw(st.booleans()):
        # An equal but distinct group model takes the common_group path.
        twin = AbstractGroup(group.orders)
        y = MotiveSum(twin, [(twin.class_at(c.index), k) for c, k in y.counts])
    got, expected = direct_sum(x, y), MotiveSum.of(group, x.classes + y.classes)
    assert got == expected
    assert got.rank == expected.rank == x.rank + y.rank
    assert got.signature() == expected.signature()


@pytest.mark.parametrize("group", NORMAL_FORM_GROUPS, ids=NORMAL_FORM_IDS)
@given(data=st.data())
@settings(max_examples=60, deadline=None)
def test_key_normal_form_decodes_to_the_class_normal_form(group, data):
    terms = data.draw(_terms(group, st.integers(-3, 3)))
    e = RingElement(group, terms)
    keys = [kc for kc, _ in e.key_terms]
    assert keys == sorted(set(keys))
    assert all(k for _, k in e.key_terms)
    assert dict(e.terms) == class_normal_form(group, terms)


@pytest.mark.parametrize("group", NORMAL_FORM_GROUPS, ids=NORMAL_FORM_IDS)
@given(data=st.data())
@settings(max_examples=60, deadline=None)
def test_from_motive_sum_is_the_ring_element_of_its_counts(group, data):
    ms = MotiveSum(group, data.draw(_terms(group, st.integers(0, 3))))
    e = from_motive_sum(ms)
    assert e == RingElement(ms.group, ms.counts)
    assert dict(e.terms) == class_normal_form(group, ms.counts)


@pytest.mark.parametrize("orders", [(12,), (2, 6), (30,), (4,)])
def test_normal_forms_partition_like_the_class_signature(orders):
    # Every multiset of 2 to 4 classes: equal normal forms exactly when the
    # class-by-class per-prime signatures are equal.
    g = AbstractGroup(orders)
    by_form, by_signature = {}, {}
    for size in (2, 3, 4):
        for state in itertools.combinations_with_replacement(range(g.order), size):
            ms = MotiveSum.of(g, map(g.class_at, state))
            rank, parts = class_signature(ms)
            signature = rank, tuple(sorted(
                (p, c.index, k) for p, part in parts.items() for c, k in part.items()))
            form = ms.signature()
            assert by_form.setdefault(form, signature) == signature
            assert by_signature.setdefault(signature, form) == form


def test_key_tables_stay_lazy_on_a_huge_group():
    g = AbstractGroup((10**9,))
    a, b = g.element([123456789]), g.element([2 * 5**9])
    ms = MotiveSum.of(g, [a, b, a])
    assert normal_form_signature(g, ms.signature()) == class_signature(ms)
    assert ms.counts == ((b, 1), (a, 2))
    assert len(g.key_primes) < 10 and all(len(t) <= 2 for t in g.p_part_keys.values())


class TestValueSemantics:
    def _pair(self):
        g, h = AbstractGroup((2, 6)), AbstractGroup((2, 6))
        a = MotiveSum.of(g, [g.element([1, 3]), g.element([0, 2]), g.element([1, 3])])
        b = MotiveSum(h, [(h.element([0, 2]), 1), (h.element([1, 3]), 2)])
        return a, b

    def test_equal_across_equal_group_models(self):
        a, b = self._pair()
        assert a.group is not b.group
        assert a == b and hash(a) == hash(b)
        assert len({a, b}) == 1
        assert a != MotiveSum.of(a.group, [a.group.identity()])

    def test_reading_classes_keeps_equality_and_hash(self):
        a, b = self._pair()
        before = hash(a)
        assert a.counts is a.counts and a.classes is a.classes
        assert a == b and hash(a) == before == hash(b)

    @pytest.mark.parametrize("read_counts", [False, True])
    def test_pickle_round_trip(self, read_counts):
        a, b = self._pair()
        if read_counts:
            a.to_payload()
        c = pickle.loads(pickle.dumps(a))
        assert c == a == b and hash(c) == hash(a)
        assert c.counts == b.counts and c.classes == b.classes
        assert c.signature() == a.signature() and len(c) == len(a) == 3

    def test_rational_sums_round_trip(self):
        x = RationalClass((("real", Fraction(1, 2)), (3, Fraction(1, 2))))
        ms = MotiveSum.of(RATIONALS, [x, x + x, x])
        assert ms.counts == ((RATIONALS.identity(), 1), (x, 2))
        assert pickle.loads(pickle.dumps(ms)) == ms

    def test_frozen(self):
        a, _ = self._pair()
        with pytest.raises(FrozenInstanceError):
            a.key_counts = ()


class TestGroupIdentity:
    """Z/4 and (Z/2)^2 both number their classes 0-3, so keys alone would match."""

    Z4, V4 = AbstractGroup((4,)), AbstractGroup((2, 2))

    def _sums(self):
        x = MotiveSum.of(self.Z4, [self.Z4.element([1]), self.Z4.element([2])])
        y = MotiveSum.of(self.V4, [self.V4.element([0, 1]), self.V4.element([1, 0])])
        assert x.key_counts == y.key_counts
        return x, y

    @pytest.mark.parametrize("op", [is_isomorphic, direct_sum, tensor])
    def test_mixed_groups_raise(self, op):
        x, y = self._sums()
        with pytest.raises(GroupMismatchError):
            op(x, y)
        with pytest.raises(GroupMismatchError):
            op(y, x)

    def test_sums_over_the_two_groups_differ(self):
        x, y = self._sums()
        assert x != y
        with pytest.raises(GroupMismatchError):
            MotiveSum(self.Z4, [(self.V4.element([0, 1]), 1)])


@pytest.mark.parametrize("name", GOLDEN_MEASURES)
def test_counts_classes_and_payload_match_the_golden_corpus(name):
    case = GOLDEN[name]
    recorded = json.loads(case["stdout"])["measure"]
    group, variety = parse_measure_request(json.loads(case["argv"][1]))
    ms = tits_measure(variety).jt_effective
    assert ms.to_payload() == recorded["jt_effective"]
    entries = recorded["jt_effective"]["classes"]
    assert [{**c.to_payload(), "mult": k} for c, k in ms.counts] == entries
    expanded = [{k: v for k, v in e.items() if k != "mult"} for e in entries for _ in range(e["mult"])]
    assert [c.to_payload() for c in ms.classes] == expanded
    assert len(ms) == recorded["rho"]
