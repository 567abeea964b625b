"""Acceptance gate: ten criteria, one test and one printed verdict line each.

Run with ``pytest -v`` (test outcomes) or ``pytest -s`` (the PASS lines).
Budgeted criteria assert their wall-clock limits.
"""

import random
import time
from fractions import Fraction
from math import comb

from oracles import hilbert_oracle, squarefree_corpus
from titsmeasure.brauer import CSA, AbstractGroup
from titsmeasure.clifford import even_clifford_class_by_structure
from titsmeasure.measure_ring import augmentation
from titsmeasure.quadforms import FormShadow, QuadraticForm, even_clifford_class
from titsmeasure.rationals import (
    distinct_conic_family,
    hilbert_symbol,
    quaternion_class,
)
from titsmeasure.sigma import recurrence_violations, sigma
from titsmeasure.varieties import (
    Grassmannian,
    Involution,
    Product,
    Quadric,
    SeveriBrauer,
    tits_measure,
)
from titsmeasure.verify import (
    verify_normal_form_confluence,
    verify_quadric_product_matching,
    verify_relation_equivalence,
    verify_sum_cancellation,
    verify_tensor_cancellation,
)

FORM_ENTRIES = [-7, -5, -3, -2, -1, 1, 2, 3, 5, 7]


def _random_form(rng: random.Random, dim: int) -> QuadraticForm:
    entries = [Fraction(rng.choice(FORM_ENTRIES)) for _ in range(dim - 1)]
    if dim % 2 == 0:
        sign = -1 if (dim * (dim - 1) // 2) % 2 else 1
        last = Fraction(sign)
        for a in entries:
            last *= a
        entries.append(last)
    else:
        entries.append(Fraction(rng.choice(FORM_ENTRIES)))
    return QuadraticForm(tuple(entries))


def _involution_model(deg: int):
    if deg % 4 == 2:
        g = AbstractGroup((4,))
        return Involution(deg, g.element([2]), g.element([1]), g.element([3]))
    g = AbstractGroup((2, 2))
    return Involution(deg, g.element([1, 1]), g.element([1, 0]), g.element([0, 1]))


def _random_descriptor(rng: random.Random, group: AbstractGroup, allow_product=True):
    kind = rng.choice(
        ["severi-brauer", "grassmannian", "quadric", "involution"]
        + (["product"] * 2 if allow_product else [])
    )
    if kind == "severi-brauer":
        c = group.element([rng.randrange(n) for n in group.orders])
        deg = c.order() * rng.randint(1, 3)
        return SeveriBrauer(CSA(c, deg))
    if kind == "grassmannian":
        c = group.element([rng.randrange(n) for n in group.orders])
        deg = max(2, c.order() * rng.randint(1, 2))
        return Grassmannian(rng.randint(1, deg - 1), CSA(c, deg))
    if kind == "quadric":
        two_torsion = [c for c in group.elements() if c.order() <= 2]
        return Quadric(
            FormShadow(rng.randint(3, 10), rng.choice(two_torsion), rng.random() < 0.5)
        )
    if kind == "involution":
        return _involution_model(rng.choice([6, 8, 10, 12]))
    children = tuple(
        _random_descriptor(rng, group, allow_product=False) for _ in range(rng.randint(2, 3))
    )
    shared = {c.group for c in children}
    if len(shared) > 1:
        # involution models carry their own group; retry without them
        return _random_descriptor(rng, group, allow_product=allow_product)
    return Product(children)


def test_criterion_01_sigma_anchor():
    best = float("inf")
    for _ in range(3):
        t0 = time.perf_counter()
        a = sigma("1even", 5, 6, 2)
        b = sigma("2even", 5, 6, 2)
        best = min(best, time.perf_counter() - t0)
    assert a == 768 and b == 576
    assert best < 0.001, f"anchor evaluation took {best * 1000:.3f} ms"
    print(f"PASS criterion 1: sigma anchors 768/576 in {best * 1e6:.0f} us")


def test_criterion_02_closed_form_displays():
    for n in range(3, 23):  # 20 integer points per display
        q = n - 2
        assert sigma("1even", 5, n, 2) == 2 * q**4 + 2**5 * q + 2**3 * q**2
        assert sigma("1odd", 5, n, 2) == q**4 + 2 * q + q**2
        assert sigma("2even", 5, n, 2) == 2**2 * q**3 + 2**2 * q**3 + 2**4 * q
        assert sigma("2odd", 5, n, 2) == q**3 + 2 * q**3 + q
    print("PASS criterion 2: four closed-form displays match at 20 points each")


def test_criterion_03_recurrence_grid():
    t0 = time.perf_counter()
    violations = recurrence_violations(range(5, 21), range(2, 13))
    elapsed = time.perf_counter() - t0
    assert violations == []
    assert elapsed < 10, f"grid took {elapsed:.1f} s"
    print(f"PASS criterion 3: recurrences exact on the full grid in {elapsed:.2f} s")


def test_criterion_04_measure_tables():
    # Severi-Brauer: rho = deg, for split and generic classes
    for deg in range(1, 13):
        g = AbstractGroup((deg,))
        for c in (g.identity(), g.element([1])):
            rep = tits_measure(SeveriBrauer(CSA(c, deg)))
            assert rep.rho == deg == len(rep.jt_effective)

    # Grassmannians: rho = binom(deg, d)
    for deg in range(2, 13):
        g = AbstractGroup((deg,))
        for d in range(1, deg):
            rep = tits_measure(Grassmannian(d, CSA(g.element([1]), deg)))
            assert rep.rho == comb(deg, d) == len(rep.jt_effective)

    # Quadrics: rho = n for even n, n - 1 for odd n
    v2 = AbstractGroup((2, 2))
    for n in range(3, 13):
        rep = tits_measure(Quadric(FormShadow(n, v2.element([1, 0]), False)))
        expected = n if n % 2 == 0 else n - 1
        assert rep.rho == expected == len(rep.jt_effective)

    # Involution varieties: rho = deg
    for deg in (6, 8, 10, 12):
        rep = tits_measure(_involution_model(deg))
        assert rep.rho == deg == len(rep.jt_effective)

    # augmentation of the ring image equals the rank measure, randomly
    rng = random.Random(20260814)
    group = AbstractGroup((2, 2))
    for _ in range(1000):
        rep = tits_measure(_random_descriptor(rng, group))
        assert augmentation(rep.jt) == rep.rho == len(rep.jt_effective)
    print("PASS criterion 4: rank-measure tables and augmentation identity hold")


def test_criterion_05_conic_family_and_hilbert():
    primes = [3, 7, 11, 19, 23, 31, 43, 47, 59, 67]
    classes = distinct_conic_family(primes)
    assert len(set(classes)) == 10
    for p, c in zip(primes, classes):
        assert c.ramified_places() == (2, p)

    # ten pairwise non-equal measure images of the associated conics
    measures = [tits_measure(SeveriBrauer(CSA(c, 2))).jt for c in classes]
    for i in range(10):
        for j in range(i + 1, 10):
            assert measures[i] != measures[j]

    corpus = squarefree_corpus(30)
    for a in corpus:
        for b in corpus:
            for v in ("real", 2, 3, 5, 7):
                assert hilbert_symbol(a, b, v) == hilbert_oracle(a, b, v)
            product = hilbert_symbol(a, b, "real") * hilbert_symbol(a, b, 2)
            for p in (3, 5, 7, 11, 13, 17, 19, 23, 29):
                if a % p == 0 or b % p == 0:
                    product *= hilbert_symbol(a, b, p)
            assert product == 1
    print("PASS criterion 5: conic family distinct; Hilbert closed forms = oracle")


def test_criterion_06_clifford_consistency():
    values = (-5, -3, -2, -1, 1, 2, 3, 5)
    for a in values:
        for b in values:
            form = QuadraticForm.of([a, b, -1])
            want = quaternion_class(a, b)
            assert even_clifford_class(form) == want
            assert even_clifford_class_by_structure(form) == want

    rng = random.Random(614)
    for _ in range(100):
        q = _random_form(rng, rng.choice([3, 4, 5, 6]))
        assert even_clifford_class_by_structure(q) == even_clifford_class(q)
    print("PASS criterion 6: structure-constant oracle matches the closed form")


def test_criterion_07_relation_equivalence():
    t0 = time.perf_counter()
    for orders in ((6,), (12,), (30,), (2, 2, 2)):
        run = verify_relation_equivalence(AbstractGroup(orders), 3)
        assert run.passed, (orders, run.witness)
    elapsed = time.perf_counter() - t0
    assert elapsed < 60, f"took {elapsed:.1f} s"
    print(f"PASS criterion 7: split relations = per-prime signatures in {elapsed:.1f} s")


def test_criterion_08_cancellation_suites():
    t0 = time.perf_counter()
    for orders in ((2, 2, 2), (12,)):
        run = verify_sum_cancellation(AbstractGroup(orders), card_max=3)
        assert run.passed, (orders, run.witness)
    for n in (5, 6):
        for orders in ((2, 2), (2, 2, 2)):
            run = verify_tensor_cancellation(AbstractGroup(orders), n, card_max=3)
            assert run.passed, (n, orders, run.witness)
    elapsed = time.perf_counter() - t0
    assert elapsed < 300, f"took {elapsed:.1f} s"
    print(f"PASS criterion 8: cancellation suites pass in {elapsed:.1f} s")


def test_criterion_09_quadric_product_matching():
    for m in range(1, 5):
        for d in range(1, 5):
            run = verify_quadric_product_matching(d, m, 6)
            assert run.passed, (m, d, run.witness)
    run = verify_quadric_product_matching(5, 5, 6)
    assert run.passed, run.witness
    print("PASS criterion 9: product decompositions separate class families")


def test_criterion_10_normal_form_confluence():
    for orders in ((6,), (210,)):
        run = verify_normal_form_confluence(AbstractGroup(orders), trials=1000, seed=11)
        assert run.passed, (orders, run.witness)
    print("PASS criterion 10: 1000 random rewrite orders reach the normal form")
