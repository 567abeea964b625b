import itertools
import math
import random
import time
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import hilbert_fraction, pairwise_clifford, pairwise_hasse
from titsmeasure import brauer, clifford, rationals
from titsmeasure.brauer import RHO_BUDGET, AbstractGroup, RationalClass, ResourceLimitError, place_sort_key
from titsmeasure.clifford import even_clifford_class_by_structure
from titsmeasure.quadforms import (
    MAX_FORM_DIM,
    FormShadow,
    QuadraticForm,
    even_clifford_class,
    hasse_invariant,
    signed_discriminant,
)
from titsmeasure.rationals import SquareClass, quaternion_class
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

    def test_clifford_class_needs_dimension_three(self):
        with pytest.raises(ValueError, match="^form dimension must be at least 3, got 2$"):
            even_clifford_class(QuadraticForm.of([1, -1]))

    def test_entries_are_converted_once(self):
        entries = (Fraction(3, 4), Fraction(-1), Fraction(2))
        assert all(a is b for a, b in zip(QuadraticForm(entries).entries, entries))
        assert QuadraticForm.of(["3/4", -1, entries[2]]).entries == entries
        assert type(QuadraticForm((3, -1, 2)).entries[0]) is Fraction
        with pytest.raises(ValueError, match=r"^expected an exact rational, got 1.5$"):
            QuadraticForm.of([1.5, -1, 2])

    @pytest.mark.parametrize("entry, message", [
        ("1e20000", "a decimal exponent has magnitude at most 200"),
        ("1" * 201, "a rational has at most 200 characters"),
        ("1/0", "zero denominator in '1/0'"),
    ])
    def test_string_entries_keep_the_document_caps(self, entry, message):
        # The caps of a document's entries, checked before Fraction expands
        # the string: 1e20000 alone took half a second to reach the Hasse
        # invariant when the string went to Fraction directly.
        start = time.perf_counter()
        with pytest.raises(ValueError, match=f"^form: {message}$"):
            hasse_invariant(QuadraticForm.of([entry, 1, 1]))
        assert time.perf_counter() - start < 0.05
        assert QuadraticForm.of(["1e200", 1, 1]).entries[0] == 10**200

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
        # A wrong quadratic character mod 3 in the local data that the
        # per-place sums read.  <3, 5, 7, 11> reads it for the product of its
        # three entries prime to 3 (A = 1 odd), <3, 15, 7, 11> for the product
        # of its two entries that 3 divides (A = 2 even), and the pairs
        # (-1, 3) and (-1, -3), the Clifford correction of <1, 1, 3>, for -1:
        # each result then ramifies at an odd number of places, which the
        # product formula forbids.
        core = rationals._local

        def flipped_at_three(a, p):
            alpha, e, w = core(a, p)
            return (alpha, e, 1 - w) if p == 3 else (alpha, e, w)

        monkeypatch.setattr(rationals, "_local", flipped_at_three)
        with pytest.raises(AssertionError, match="odd number of places"):
            hasse_invariant(QuadraticForm.of([3, 5, 7, 11]))
        with pytest.raises(AssertionError, match="odd number of places"):
            hasse_invariant(QuadraticForm.of([3, 15, 7, 11]))
        with pytest.raises(AssertionError, match="odd number of places"):
            quaternion_class(-1, 3)
        with pytest.raises(AssertionError, match="odd number of places"):
            even_clifford_class(QuadraticForm.of([1, 1, 3]))

    def test_square_classes_factor_each_entry_once(self, monkeypatch):
        # 12, 90 and 30 refine to the coprime base 2, 3, 5: each base element
        # is factored once, on one shared budget, and the determinant (-25/4)
        # never.
        calls, budgets = [], []
        core = rationals.prime_factors

        def counted(n, budget):
            calls.append(n)
            budgets.append(budget)
            return core(n, budget)

        monkeypatch.setattr(rationals, "prime_factors", counted)
        q = QuadraticForm.of(["3/4", "-5/18", 30])
        signed_discriminant(q), hasse_invariant(q), even_clifford_class(q)
        assert calls == [2, 3, 5]
        assert budgets[0] == [3 * RHO_BUDGET] and all(b is budgets[0] for b in budgets)
        assert q.square_classes == ((3, (3,)), (-10, (5,)), (30, (3, 5)))
        assert q.det_class == (-1, ())


# Primes above the trial-division bound.  An entry carries at most one of the
# large ones, so the per-entry path splits each entry within its own budget.
SHARED_PRIMES = [1000003, 1000033, 2000003, 3000017]
LARGE_PRIMES = [1000000007, 40000000003, 100000000003, 999999000001]


@st.composite
def shared_prime_entries(draw):
    """A nonzero rational whose numerator and denominator carry primes of
    10^6..10^12, each to the first or second power, and a small cofactor."""
    factors = draw(st.lists(st.sampled_from(SHARED_PRIMES), max_size=2))
    factors += draw(st.lists(st.sampled_from(LARGE_PRIMES), max_size=1))
    num = draw(st.sampled_from([1, 2, 3, 6, 12, 15]))
    den = draw(st.integers(1, 12))
    for p in factors:
        power = p ** draw(st.integers(1, 2))
        if draw(st.booleans()):
            num *= power
        else:
            den *= power
    return Fraction(draw(st.sampled_from([-1, 1])) * num, den)


def _workload_form(rng: random.Random, n: int, primes: list[int]) -> tuple[list[int], list[SquareClass]]:
    """A form of the rational-forms benchmark's shape and its square classes.
    Entry j carries j mod 3 primes below 100 and one of ``primes``; the last
    entry is the signed product of every prime the others hold an odd number
    of times, so the signed discriminant is trivial."""
    entries, classes, odd = [], [], Counter()
    for j in range(n - 1):
        factors = [rng.choice([3, 5, 7, 11, 13, 97]) for _ in range(j % 3)] + [rng.choice(primes)]
        sign = rng.choice((-1, 1))
        entries.append(sign * math.prod(factors))
        counts = Counter(factors)
        odd.update(counts)
        own = sorted(p for p, e in counts.items() if e % 2)
        classes.append((sign * math.prod(own), tuple(own)))
    last = sorted(p for p, e in odd.items() if e % 2)
    sign = (-1 if (n * (n - 1) // 2) % 2 else 1) * (-1 if math.prod(entries) < 0 else 1)
    entries.append(sign * math.prod(last))
    classes.append((entries[-1], tuple(last)))
    return entries, classes


# Six 41-bit primes; the entries p_i * p_{i+1} are 81-bit semiprimes whose
# factors are past what rho finds within one entry's budget.
CYCLE_PRIMES = [1099511640127, 1100511640139, 1101511640167, 1102511640179, 1103511640199, 1104511640209]


class TestCoprimeBaseFactoring:
    @given(st.lists(shared_prime_entries(), min_size=3, max_size=MAX_FORM_DIM))
    @settings(max_examples=60, deadline=None)
    def test_form_classes_are_the_entry_classes(self, xs):
        q = QuadraticForm(tuple(xs))
        assert q.square_classes == tuple(rationals.square_class(x) for x in xs)

    def test_the_workload_shape_needs_no_rho(self, monkeypatch):
        # Every prime of the last entry is exposed by a gcd with the entry
        # that holds it, so no base element is left for rho.
        calls = []
        core = brauer._rho_split
        monkeypatch.setattr(brauer, "_rho_split", lambda n, budget: calls.append(n) or core(n, budget))
        rng = random.Random(27)
        for n in range(3, MAX_FORM_DIM + 1):
            for primes in ([p for p in range(1001, 10000, 2) if brauer.is_prime(p)], LARGE_PRIMES):
                entries, classes = _workload_form(rng, n, primes)
                q = QuadraticForm.of(entries)
                assert q.square_classes == tuple(classes)
                assert signed_discriminant(q) == 1
                Quadric(q)
        assert calls == []

    def test_a_cyclic_form_of_41_bit_primes(self):
        # e_i = p_i * p_{i+1}: each entry alone is past its rho budget, and
        # the gcds of neighbours give every prime.
        entries = [CYCLE_PRIMES[i] * CYCLE_PRIMES[(i + 1) % 6] for i in range(6)]
        entries[0] = -entries[0]
        with pytest.raises(ResourceLimitError, match="81-bit integer exceeds the work budget"):
            brauer.prime_factors(abs(entries[0]))
        q = QuadraticForm.of(entries)
        assert q.square_classes == tuple(
            (e, tuple(sorted((CYCLE_PRIMES[i], CYCLE_PRIMES[(i + 1) % 6]))))
            for i, e in enumerate(entries)
        )
        # The Hasse invariant from the Fraction Hilbert formula at the only
        # places that can ramify; the n = 6 correction adds (-1, -1).
        places = ["real", 2, *CYCLE_PRIMES]
        odd = {v for v in places
               if sum(hilbert_fraction(a, b, v) == -1 for a, b in itertools.combinations(entries, 2)) % 2}
        hasse = RationalClass(tuple((v, Fraction(1, 2)) for v in sorted(odd, key=place_sort_key)))
        assert hasse_invariant(q) == hasse
        assert Quadric(q).clifford_class == hasse + quaternion_class(-1, -1)

    def test_one_budget_for_the_whole_form(self):
        # s needs 797,310 rho steps: past one entry's RHO_BUDGET (262,144) and
        # a dimension-3 form's pool, within a dimension-4 form's.
        s = 648782947999 * 995097304719337847
        with pytest.raises(ResourceLimitError, match="exceeds the work budget"):
            signed_discriminant(QuadraticForm.of([s, -s, 1]))
        q = QuadraticForm.of([s, -s, 1, -1])
        assert q.square_classes[0] == (s, (648782947999, 995097304719337847))
        assert signed_discriminant(q) == 1


class TestStructureOracle:
    def test_refuses_a_component_sign_other_than_one_or_minus_one(self):
        with pytest.raises(ValueError, match="^component_sign must be \\+1 or -1$"):
            even_clifford_class_by_structure(QuadraticForm.of([1, 1, 1]), component_sign=0)

    def test_refuses_an_even_form_with_nontrivial_signed_discriminant(self):
        with pytest.raises(ValueError, match="^even-dimensional form with nontrivial signed"):
            even_clifford_class_by_structure(QuadraticForm.of([1, 1, 1, 2]))

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
