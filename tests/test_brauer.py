import math
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import titsmeasure
import titsmeasure.measure_ring
from oracles import (
    bfs_subgroup,
    invariants_multiple,
    invariants_order,
    invariants_p_part,
    invariants_sum,
    trial_factors,
)
from titsmeasure import verify
from titsmeasure.brauer import (
    CSA,
    RATIONALS,
    AbstractGroup,
    GroupMismatchError,
    RationalClass,
    ResourceLimitError,
    common_group,
    coprime_indexes,
    generated_subgroup,
    is_prime,
    prime_factors,
    record_payload,
)
from titsmeasure.rationals import quaternion_class

G6 = AbstractGroup((6,))
G12 = AbstractGroup((12,))
V3 = AbstractGroup((2, 2, 2))

groups = st.sampled_from([G6, G12, V3, AbstractGroup((4, 3)), AbstractGroup((30,))])


@st.composite
def group_and_element(draw):
    g = draw(groups)
    coords = [draw(st.integers(-20, 20)) for _ in g.orders]
    return g, g.element(coords)


# Quaternion classes over Q: each of order 2, ramified at two places.
QUATERNIONS = [
    quaternion_class(a, b)
    for a, b in ((-1, -1), (-1, 3), (2, 5), (3, 7), (-2, 13), (6, 11), (5, 17))
]
SUBGROUP_MODELS = [AbstractGroup(o) for o in ((12,), (2, 2, 2), (4, 6), (2, 4, 8))]


@st.composite
def subgroup_generators(draw):
    """A group model and up to four generators, repeats allowed."""
    group = draw(st.sampled_from(SUBGROUP_MODELS + [RATIONALS]))
    if group is RATIONALS:
        return group, draw(st.lists(st.sampled_from(QUATERNIONS), max_size=4))
    coords = st.tuples(*(st.integers(0, n - 1) for n in group.orders))
    return group, [group.element(c) for c in draw(st.lists(coords, max_size=4))]


class TestAbstractGroup:
    def test_element_reduces_coords(self):
        assert G6.element([7]).coords == (1,)
        assert V3.element([2, 3, -1]).coords == (0, 1, 1)

    def test_identity_and_order(self):
        assert G6.identity().is_identity()
        assert G6.element([2]).order() == 3
        assert G12.element([2]).order() == 6
        assert V3.element([1, 1, 0]).order() == 2

    def test_orders_must_be_positive(self):
        with pytest.raises(ValueError):
            AbstractGroup((0,))

    def test_index_of_a_class_from_another_group(self):
        for group, other in ((G6, G12.element([1])), (RATIONALS, G6.element([1]))):
            with pytest.raises(GroupMismatchError, match="^class does not belong to this group$"):
                group.index_of(other)

    def test_elements_enumerates_whole_group(self):
        assert len(list(V3.elements())) == 8
        assert len(set(V3.elements())) == 8

    def test_exponent(self):
        assert AbstractGroup((4, 3)).exponent == 12
        assert V3.exponent == 2

    @given(group_and_element())
    @settings(max_examples=60, deadline=None)
    def test_order_divides_exponent(self, ge):
        g, x = ge
        assert g.exponent % x.order() == 0

    @given(group_and_element())
    @settings(max_examples=60, deadline=None)
    def test_p_parts_reassemble_element(self, ge):
        g, x = ge
        total = g.identity()
        for p in sorted(set(g.primes())):
            total = total + x.p_part(p)
        assert total == x

    @given(group_and_element())
    @settings(max_examples=60, deadline=None)
    def test_p_part_is_p_primary(self, ge):
        g, x = ge
        for p in set(g.primes()):
            o = x.p_part(p).order()
            while o % p == 0:
                o //= p
            assert o == 1

    def test_mixed_group_arithmetic_rejected(self):
        with pytest.raises(GroupMismatchError):
            G6.element([1]) + G12.element([1])


# Primes between 10^3 and 2 * 10^4: free of the trial-division table, so their
# products go through Miller-Rabin and Pollard-Brent rho.
MIDDLE_PRIMES = [p for p in range(1001, 20_000, 2) if trial_factors(p) == {p: 1}]
M61, M89, M107 = 2**61 - 1, 2**89 - 1, 2**107 - 1  # Mersenne primes


class TestFactoring:
    @given(st.integers(1, 10**9 - 1))
    @settings(max_examples=300, deadline=None)
    def test_matches_trial_division(self, n):
        assert prime_factors(n) == trial_factors(n)
        assert is_prime(n) == (trial_factors(n) == {n: 1})

    @given(st.lists(st.sampled_from(MIDDLE_PRIMES), min_size=1, max_size=4),
           st.integers(1, 1000))
    @settings(max_examples=150, deadline=None)
    def test_products_of_large_primes(self, primes, small):
        n = math.prod(primes) * small
        expected = dict(trial_factors(small))
        for p in primes:
            expected[p] = expected.get(p, 0) + 1
        assert prime_factors(n) == dict(sorted(expected.items()))

    def test_strong_pseudoprimes_are_composite(self):
        # The least strong pseudoprimes to the first 1, 2, 3, 4, 5, 6, 7, 9
        # and 12 prime bases.
        for n in (2047, 1373653, 25326001, 3215031751, 2152302898747, 3474749660383,
                  341550071728321, 3825123056546413051, 318665857834031151167461):
            assert not is_prime(n)

    def test_large_primes(self):
        start = time.perf_counter()
        assert prime_factors(M61) == {M61: 1}
        assert prime_factors(M61 * 1000003**2 * 12) == {2: 2, 3: 1, 1000003: 2, M61: 1}
        assert time.perf_counter() - start < 1

    def test_budget_exhausted_raises(self):
        start = time.perf_counter()
        with pytest.raises(ResourceLimitError, match="work budget"):
            prime_factors(M89 * M107)
        assert time.perf_counter() - start < 3

    def test_unproven_primality_raises(self):
        # Past 3.3 * 10^24 a composite is still refuted by its witness.
        assert not is_prime(M89 * M107)
        with pytest.raises(ResourceLimitError, match="probable prime"):
            is_prime(M89)

    @pytest.mark.parametrize("n", [0, -6])
    def test_non_positive_is_refused(self, n):
        with pytest.raises(ValueError, match=f"^expected a positive integer, got {n}$"):
            prime_factors(n)

    def test_resource_limit_error_is_reexported(self):
        assert verify.ResourceLimitError is ResourceLimitError
        assert titsmeasure.ResourceLimitError is ResourceLimitError


def test_public_names_are_pinned():
    # A change to the package's public surface has to change this list too.
    assert sorted(titsmeasure.__all__) == [
        "AbstractClass", "AbstractGroup", "CSA", "FormShadow", "Grassmannian",
        "GroupMismatchError", "Involution", "MotiveSum", "Product", "QuadraticForm",
        "Quadric", "RATIONALS", "RationalClass", "ResourceLimitError", "RingElement",
        "SeveriBrauer", "__version__", "augmentation", "compare", "coprime_indexes",
        "deduce", "direct_sum", "distinct_conic_family", "even_clifford_class",
        "even_clifford_class_by_structure", "from_motive_sum", "generated_subgroup",
        "hasse_invariant", "hilbert_symbol", "is_isomorphic", "quaternion_class",
        "recurrence_violations", "sigma", "sigma_fraction", "signed_discriminant",
        "tensor", "tits_measure", "verify_normal_form_confluence",
        "verify_quadric_product_matching", "verify_relation_equivalence",
        "verify_sum_cancellation", "verify_tensor_cancellation",
    ]


@st.composite
def rational_residues(draw):
    """Valid invariants of a class of Q: the real place, 2, 3, 5 and 11 drawn,
    7 closing the sum; denominators mix the primes 2, 3 and 5."""
    invs = [("real", draw(st.sampled_from([Fraction(0), Fraction(1, 2)])))]
    for v in (2, 3, 5, 11):
        d = draw(st.sampled_from([1, 4, 9, 12, 25, 30, 72]))
        invs.append((v, Fraction(draw(st.integers(0, d - 1)), d)))
    invs.append((7, -sum(inv for _, inv in invs) % 1))
    return tuple(invs)


def rational_classes():
    return rational_residues().map(RationalClass)


nonzero_entries = st.integers(-30, 30).filter(bool)


class TestRationalClasses:
    @given(rational_classes(), rational_classes(), st.integers(-13, 13),
           st.sampled_from([2, 3, 5, 7]), nonzero_entries, nonzero_entries)
    @settings(max_examples=100, deadline=None)
    def test_trusted_constructions_equal_checked_ones(self, c, d, k, p, a, b):
        # Classes derived from valid ones skip the validation of outside input;
        # each must equal the class the checking constructor builds.
        derived = [
            c + d, -c, c - d, k * c, c.p_part(p), RATIONALS.class_at(c.key),
            RATIONALS.identity(), quaternion_class(a, b),
        ]
        for x in derived:
            checked = RationalClass(x.invariants)
            assert x == checked and x.invariants == checked.invariants
            assert hash(x) == hash(checked)

    @given(rational_residues(), rational_residues(), st.integers(-13, 13),
           st.sampled_from([2, 3, 5, 7]))
    @settings(max_examples=200, deadline=None)
    def test_arithmetic_matches_the_residue_oracle(self, a, b, k, p):
        # The class arithmetic is on integer keys; the oracle adds, negates,
        # multiplies and splits Fraction residues place by place.
        c, d = RationalClass(a), RationalClass(b)
        assert (c + d).invariants == invariants_sum(a, b)
        assert (-c).invariants == invariants_multiple(a, -1)
        assert (c - d).invariants == invariants_sum(a, invariants_multiple(b, -1))
        assert (k * c).invariants == (c * k).invariants == invariants_multiple(a, k)
        assert c.p_part(p).invariants == invariants_p_part(a, p)
        assert c.order() == invariants_order(a)
        assert c.primes() == tuple(trial_factors(invariants_order(a)))

    def test_multiple_needs_an_integer(self):
        # Both models refuse a non-integer multiple, even an integral one.
        g = AbstractGroup((4,))
        for c in (quaternion_class(-1, 3), g.element([1])):
            for k in (Fraction(1, 2), 1.5, Fraction(2, 1), 2.0):
                with pytest.raises(TypeError):
                    c * k
                with pytest.raises(TypeError):
                    k * c
        # A coordinate follows the integer rule: one ValueError line.
        for coord in (Fraction(1, 2), 1.9, 1.0, True):
            with pytest.raises(ValueError, match=r"^coordinates must be integers, got "):
                g.element([coord])

    def test_invariants_must_balance(self):
        with pytest.raises(ValueError):
            RationalClass(((2, Fraction(1, 2)),))

    @pytest.mark.parametrize("zero_first", [True, False])
    def test_duplicate_place_is_refused_whatever_its_residue(self, zero_first):
        entries = [(2, Fraction(1, 2)), (3, Fraction(1, 2))]
        entries.insert(0 if zero_first else 2, (2, Fraction(0)))
        with pytest.raises(ValueError, match="duplicate place 2"):
            RationalClass(tuple(entries))

    def test_real_invariant_restricted(self):
        with pytest.raises(ValueError):
            RationalClass((("real", Fraction(1, 3)), (3, Fraction(2, 3))))

    def test_add_cancels(self):
        c = RationalClass(((2, Fraction(1, 2)), (3, Fraction(1, 2))))
        assert (c + c).is_identity()
        assert c + RATIONALS.identity() == c

    def test_order_and_p_part(self):
        c = RationalClass(((2, Fraction(1, 6)), (3, Fraction(5, 6))))
        assert c.order() == 6
        two = c.p_part(2)
        three = c.p_part(3)
        assert two.order() == 2 and three.order() == 3
        assert two + three == c

    def test_scalar_multiple(self):
        c = RationalClass(((2, Fraction(1, 4)), (5, Fraction(3, 4))))
        assert (2 * c).order() == 2
        assert (4 * c).is_identity()


class TestSubgroupsAndAlgebras:
    def test_generated_subgroup_cyclic(self):
        sub = generated_subgroup([G12.element([4])])
        assert sorted(c.coords[0] for c in sub) == [0, 4, 8]

    def test_generated_subgroup_matches_naive_closure(self):
        gens = [V3.element([1, 1, 0]), V3.element([0, 1, 1])]
        got = generated_subgroup(gens)
        naive = {V3.identity()}
        frontier = True
        while frontier:
            frontier = False
            for x in list(naive):
                for g in gens:
                    y = x + g
                    if y not in naive:
                        naive.add(y)
                        frontier = True
        assert got == naive

    @settings(max_examples=300, deadline=None)
    @given(subgroup_generators())
    def test_generated_subgroup_matches_bfs(self, case):
        group, gens = case
        assert generated_subgroup(gens, group=group) == bfs_subgroup(gens, group.identity())

    def test_generated_subgroup_empty_needs_group(self):
        assert generated_subgroup([], group=G6) == {G6.identity()}
        with pytest.raises(ValueError):
            generated_subgroup([])

    def test_csa_period_divides_degree(self):
        CSA(G6.element([2]), 3)
        with pytest.raises(ValueError):
            CSA(G6.element([1]), 3)  # period 6 does not divide 3

    def test_default_index_policy_is_order(self):
        a = CSA(G12.element([3]), 4)
        assert a.period() == 4 and a.index() == 4

    def test_index_oracle_overrides(self):
        g = AbstractGroup((2, 2), index_oracle=(((1, 1), 4),))
        assert g.index_of(g.element([1, 1])) == 4
        assert g.index_of(g.element([1, 0])) == 2

    def test_index_oracle_validated(self):
        with pytest.raises(ValueError):
            AbstractGroup((2, 2), index_oracle=(((1, 1), 3),))  # period 2, index 3
        with pytest.raises(ValueError):
            AbstractGroup((2, 2), index_oracle=(((1, 1), 6),))  # extra prime 3

    @pytest.mark.parametrize("entries", [
        (((1,), 4), ((1,), 2)),
        (((1,), 2), ((1,), 4)),
        (((1,), 2), ((1,), 2)),
        (((1,), 2), ((3,), 2)),  # [3] is [1] mod 2
    ])
    def test_index_oracle_refuses_a_class_listed_twice(self, entries):
        with pytest.raises(ValueError) as caught:
            AbstractGroup((2,), index_oracle=entries)
        assert str(caught.value) == f"index oracle lists class (1,) twice (entry for {entries[1][0]})"

    def test_index_oracle_is_kept_reduced_and_in_coords_order(self):
        g = AbstractGroup((2, 4), index_oracle=(((1, 6), 4), ((-1, 1), 8), ((0, 2), 2)))
        assert g.index_oracle == (((0, 2), 2), ((1, 1), 8), ((1, 2), 4))
        assert g == AbstractGroup((2, 4), index_oracle=(((0, 2), 2), ((1, 1), 8), ((1, 2), 4)))
        assert g.index_of(g.element([3, 5])) == 8

    def test_coprime_indexes(self):
        a = CSA(G6.element([2]), 3)  # index 3
        b = CSA(G6.element([3]), 2)  # index 2
        assert coprime_indexes(a, b)
        assert not coprime_indexes(a, a)

    def test_index_divides_degree(self):
        g = AbstractGroup((2, 2), index_oracle=(((1, 1), 4),))
        with pytest.raises(ValueError):
            CSA(g.element([1, 1]), 2)  # index 4 cannot divide degree 2


# Every multi-operand entry point, fed operands from Z/4 and Z/8: each asks
# ``common_group`` whether the group models agree.
Z4, Z8 = AbstractGroup((4,)), AbstractGroup((8,))
A4, A8 = Z4.element([2]), Z8.element([4])  # both of order 2


def _sb(a):
    return titsmeasure.SeveriBrauer(CSA(a, 4))


def _sum(a):
    return titsmeasure.MotiveSum.of(a.group, [a])


def _ring(a):
    return titsmeasure.RingElement(a.group, ((a, 1),))


MIXED_OPERANDS = {
    "class-add": lambda: A4 + A8,
    "class-sub": lambda: A4 - A8,
    "rational-add": lambda: quaternion_class(-1, 3) + A4,
    "abstract-add-rational": lambda: A4 + quaternion_class(-1, 3),
    "generated-subgroup": lambda: generated_subgroup([A4, A8]),
    "coprime-indexes": lambda: coprime_indexes(CSA(A4, 2), CSA(A8, 4)),
    "direct-sum": lambda: titsmeasure.direct_sum(_sum(A4), _sum(A8)),
    "tensor": lambda: titsmeasure.tensor(_sum(A4), _sum(A8)),
    "is-isomorphic": lambda: titsmeasure.is_isomorphic(_sum(A4), _sum(A8)),
    "ring-add": lambda: _ring(A4) + _ring(A8),
    "ring-mul": lambda: _ring(A4) * _ring(A8),
    "ring-sub": lambda: _ring(A4) - _ring(A8),
    "involution": lambda: titsmeasure.Involution(6, A4, Z8.element([1]), Z8.element([3])),
    "product": lambda: titsmeasure.Product((_sb(A4), _sb(A8))),
    "compare": lambda: titsmeasure.compare(_sb(A4), _sb(A8)),
    "deduce": lambda: titsmeasure.deduce(_sb(A4), _sb(A8), True),
}


class TestCommonGroup:
    @pytest.mark.parametrize("name", sorted(MIXED_OPERANDS))
    def test_mixed_group_models_raise(self, name):
        with pytest.raises(GroupMismatchError, match=r"^mixed group models: "):
            MIXED_OPERANDS[name]()

    def test_an_abstract_class_never_equals_a_rational_class(self):
        for a in (AbstractGroup((1,)).identity(), A4):
            for r in (RATIONALS.identity(), quaternion_class(-1, 3)):
                assert a.__eq__(r) is NotImplemented
                assert a != r and r != a and not a == r

    def test_equal_models_share_the_first(self):
        twin = AbstractGroup((4,))
        assert twin is not Z4
        assert common_group(A4, twin.element([1])) is Z4
        assert generated_subgroup([A4, twin.element([1])]) == generated_subgroup([Z4.element([1])])

    def test_record_payload_is_the_init_fields_then_extra(self):
        v = titsmeasure.Grassmannian(2, CSA(A4, 4))
        payload = record_payload(v, family="grassmannian")
        assert list(payload) == ["d", "alg", "family"]
        assert payload["alg"] == {"degree": 4, "class": {"coords": [2]}}
