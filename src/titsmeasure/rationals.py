"""Hilbert symbols over Q and the quaternion classes they cut out in Br(Q).

A rational is reduced once to its square class: a squarefree integer and
the odd primes dividing it (``square_class``), which is all a Hilbert symbol
can see.  One integer core evaluates the closed formula at a place (real, 2,
odd p); ``hilbert_symbol`` feeds it numerator * denominator, which has the
same square class, and sums of quaternion classes feed it square classes
directly, at the places their factorizations name.  The test suite validates
the core against a brute-force solvability oracle for ax^2 + by^2 = z^2 over
Z/p^k, so nothing here leans on the formula being transcribed correctly.
"""

from __future__ import annotations

from fractions import Fraction
from numbers import Rational
from typing import Iterable, Sequence

from .brauer import (
    RATIONALS,
    REAL_PLACE,
    Place,
    RationalClass,
    check_place,
    is_prime,
    place_sort_key,
    prime_factors,
)

# A rational modulo nonzero squares: (squarefree integer, its odd primes).
SquareClass = tuple[int, tuple[int, ...]]


def as_fraction(x) -> Fraction:
    if isinstance(x, Rational):
        return Fraction(x)
    raise ValueError(f"expected an exact rational, got {x!r}")


def square_class(x) -> SquareClass:
    """x modulo nonzero squares, from one factorization of num * den."""
    x = as_fraction(x)
    if x == 0:
        raise ValueError("zero has no square class")
    n = x.numerator * x.denominator
    odd = tuple(p for p, e in prime_factors(abs(n)).items() if e % 2)
    s = -1 if n < 0 else 1
    for p in odd:
        s *= p
    return s, tuple(p for p in odd if p != 2)


def _hilbert(a: int, b: int, place: Place) -> int:
    """The Hilbert symbol (a, b) at a place of Q, for nonzero integers."""
    if place == REAL_PLACE:
        return -1 if a < 0 and b < 0 else 1
    p = place
    alpha = beta = 0
    while a % p == 0:
        a //= p
        alpha += 1
    while b % p == 0:
        b //= p
        beta += 1
    if p != 2:
        sign = -1 if alpha * beta * ((p - 1) // 2) % 2 else 1
        if beta % 2 and pow(a, (p - 1) // 2, p) != 1:
            sign = -sign
        if alpha % 2 and pow(b, (p - 1) // 2, p) != 1:
            sign = -sign
        return sign
    ru, rv = a % 8, b % 8
    eps_u, eps_v = (ru - 1) // 2 % 2, (rv - 1) // 2 % 2
    omega_u, omega_v = (ru * ru - 1) // 8 % 2, (rv * rv - 1) // 8 % 2
    exponent = eps_u * eps_v + alpha * omega_v + beta * omega_u
    return -1 if exponent % 2 else 1


def hilbert_symbol(a, b, place: Place) -> int:
    """The Hilbert symbol (a, b) at a place of Q, as +1 or -1."""
    a, b = as_fraction(a), as_fraction(b)
    if a == 0 or b == 0:
        raise ValueError("Hilbert symbol needs nonzero entries")
    place = check_place(place)
    return _hilbert(a.numerator * a.denominator, b.numerator * b.denominator, place)


def _ramified(x: SquareClass, y: SquareClass) -> list[Place]:
    """Places where (x, y) does not split: only the real place, 2 and the odd
    primes of the square classes can ramify."""
    (a, odd_a), (b, odd_b) = x, y
    return [
        v
        for v in (REAL_PLACE, 2, *set(odd_a).union(odd_b))
        if _hilbert(a, b, v) == -1
    ]


def quaternion_sum(pairs: Iterable[tuple[SquareClass, SquareClass]]) -> RationalClass:
    """Sum of the quaternion classes (x, y) over pairs of square classes.

    The ramification parity is counted per place, and the key of the sum is
    read off the places of odd parity (invariant 1/2 each).  Each pair must
    ramify at an even number of places (the product formula); an odd count
    raises ``AssertionError``.
    """
    odd: set[Place] = set()
    for x, y in pairs:
        places = _ramified(x, y)
        if len(places) % 2:
            raise AssertionError(
                f"({x[0]}, {y[0]}) ramifies at an odd number of places: {places}"
            )
        odd.symmetric_difference_update(places)
    return RATIONALS.class_at(tuple(sorted((*place_sort_key(v), 1, 2) for v in odd)))


def quaternion_class(a, b) -> RationalClass:
    """Brauer class of the quaternion algebra (a, b) over Q.

    Local invariant 1/2 exactly at the ramified places.
    """
    return quaternion_sum([(square_class(a), square_class(b))])


def distinct_conic_family(primes: Sequence[int]) -> list[RationalClass]:
    """Quaternion classes (-1, p) for primes p = 3 mod 4.

    Each is ramified exactly at {2, p}, so distinct primes give pairwise
    distinct classes; a guard enforces both facts.
    """
    out: list[RationalClass] = []
    for p in primes:
        if not (isinstance(p, int) and is_prime(p) and p % 4 == 3):
            raise ValueError(f"need a prime congruent to 3 mod 4, got {p}")
        c = quaternion_class(-1, p)
        if c.ramified_places() != (2, p):
            raise AssertionError(
                f"(-1,{p}) should be ramified exactly at 2 and {p}, "
                f"got {c.ramified_places()}"
            )
        out.append(c)
    if len({c for c in out}) != len(out):
        raise ValueError("primes must be distinct")
    return out
