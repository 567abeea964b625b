"""Hilbert symbols over Q and the quaternion classes they cut out in Br(Q).

Closed formulas per place (real, 2, odd p), consuming exact rationals.  The
test suite validates them against a brute-force solvability oracle for
ax^2 + by^2 = z^2 over Z/p^k, so nothing here leans on the formulas being
transcribed correctly.
"""

from __future__ import annotations

from fractions import Fraction
from numbers import Rational
from typing import Sequence

from .brauer import (
    REAL_PLACE,
    Place,
    RationalClass,
    check_place,
    is_prime,
    prime_factors,
)


def as_fraction(x) -> Fraction:
    if isinstance(x, Rational):
        return Fraction(x)
    raise ValueError(f"expected an exact rational, got {x!r}")


def valuation(x: Fraction, p: int) -> int:
    """p-adic valuation of a nonzero rational."""
    if x == 0:
        raise ValueError("valuation of zero is undefined")
    v = 0
    num, den = x.numerator, x.denominator
    while num % p == 0:
        num //= p
        v += 1
    while den % p == 0:
        den //= p
        v -= 1
    return v


def squarefree_part(x) -> int:
    """The squarefree integer representing x modulo nonzero squares."""
    x = as_fraction(x)
    if x == 0:
        raise ValueError("zero has no square class")
    n = x.numerator * x.denominator
    sign = -1 if n < 0 else 1
    out = 1
    for p, e in prime_factors(abs(n)).items():
        if e % 2:
            out *= p
    return sign * out


def _unit_residue(x: Fraction, p: int, modulus: int) -> int:
    """x mod modulus for a p-adic unit x (denominator invertible)."""
    return x.numerator * pow(x.denominator, -1, modulus) % modulus


def _legendre(u: Fraction, p: int) -> int:
    """Legendre symbol of a p-adic unit at an odd prime, as +1 or -1."""
    r = pow(_unit_residue(u, p, p), (p - 1) // 2, p)
    return 1 if r == 1 else -1


def hilbert_symbol(a, b, place: Place) -> int:
    """The Hilbert symbol (a, b) at a place of Q, as +1 or -1."""
    a, b = as_fraction(a), as_fraction(b)
    if a == 0 or b == 0:
        raise ValueError("Hilbert symbol needs nonzero entries")
    place = check_place(place)
    if place == REAL_PLACE:
        return -1 if a < 0 and b < 0 else 1
    p = place
    alpha, beta = valuation(a, p), valuation(b, p)
    u, v = a / Fraction(p) ** alpha, b / Fraction(p) ** beta
    if p != 2:
        sign = 1
        if alpha * beta * ((p - 1) // 2) % 2:
            sign = -sign
        if beta % 2 and _legendre(u, p) == -1:
            sign = -sign
        if alpha % 2 and _legendre(v, p) == -1:
            sign = -sign
        return sign
    ru, rv = _unit_residue(u, 2, 8), _unit_residue(v, 2, 8)
    eps_u, eps_v = (ru - 1) // 2 % 2, (rv - 1) // 2 % 2
    omega_u, omega_v = (ru * ru - 1) // 8 % 2, (rv * rv - 1) // 8 % 2
    exponent = eps_u * eps_v + alpha * omega_v + beta * omega_u
    return -1 if exponent % 2 else 1


def ramified_places(a, b) -> tuple[Place, ...]:
    """Places where the quaternion algebra (a, b) does not split."""
    a, b = as_fraction(a), as_fraction(b)
    if a == 0 or b == 0:
        raise ValueError("quaternion algebra needs nonzero entries")
    candidates: list[Place] = [REAL_PLACE, 2]
    odd = set()
    for x in (a, b):
        odd.update(p for p in prime_factors(abs(squarefree_part(x))) if p != 2)
    candidates.extend(sorted(odd))
    return tuple(v for v in candidates if hilbert_symbol(a, b, v) == -1)


def quaternion_class(a, b) -> RationalClass:
    """Brauer class of the quaternion algebra (a, b) over Q.

    Local invariant 1/2 exactly at the ramified places; the built-in parity
    check on RationalClass doubles as a product-formula assertion.
    """
    half = Fraction(1, 2)
    return RationalClass(tuple((v, half) for v in ramified_places(a, b)))


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
