"""Hilbert symbols over Q and the quaternion classes they cut out in Br(Q).

A rational is reduced to its square class: a squarefree integer and the odd
primes dividing it, which is all a Hilbert symbol can see.  The entries of a
form are reduced together (``square_classes``): their numerators times
denominators are split into a pairwise coprime base by gcds, and only the
base is factored, on one budget per form, so a prime that two entries share
is found by a gcd, not by rho; each base element keeps only its primes of odd
exponent.  ``_local`` reads what the closed formula needs of an integer at a
prime; ``hilbert_symbol`` combines it for one pair, and ``quaternion_sum``
sums the formula over all pairs of a form place by place: at 2 in one pass
over the entries, at an odd place from one Legendre symbol of the product of
the entries the formula reads there.  The test suite validates the symbol
against a brute-force solvability oracle for ax^2 + by^2 = z^2 over Z/p^k
and the sums against pairwise Fraction formulas, so nothing here leans on
the formula being transcribed correctly.
"""

from __future__ import annotations

import math
from collections.abc import Iterable, Sequence
from fractions import Fraction
from numbers import Rational

from .brauer import (
    RATIONALS,
    REAL_PLACE,
    RHO_BUDGET,
    Place,
    RationalClass,
    check_place,
    is_int,
    is_prime,
    place_sort_key,
    prime_factors,
)

# A rational modulo nonzero squares: (squarefree integer, its odd primes).
SquareClass = tuple[int, tuple[int, ...]]


def as_fraction(x) -> Fraction:
    """An exact rational as a ``Fraction``: a Fraction as it is, an int or
    other ``Rational`` converted; a bool, like a float, is refused."""
    if type(x) is Fraction:
        return x
    if isinstance(x, Rational) and not isinstance(x, bool):
        return Fraction(x)
    raise ValueError(f"expected an exact rational, got {x!r}")


# Caps on a written rational, checked before ``Fraction`` expands it: a
# decimal exponent is expanded in full, so "1e1000000" alone is a 3.3-Mbit
# integer.
MAX_RATIONAL_CHARS = 200
MAX_DECIMAL_EXPONENT = 200


def read_rational(value: object, context: str) -> Fraction:
    """A rational written as a string or a JSON integer, within the caps above
    (documents and ``QuadraticForm.of`` read it); floats are rejected because
    their binary expansion is not the number that was written.  An ASCII
    integer string within the length cap is read by ``int``, not by
    ``Fraction``'s string parser, which would give the same value."""
    if isinstance(value, str):
        digits = value[1:] if value[:1] == "-" else value
        if digits.isdigit() and digits.isascii() and len(value) <= MAX_RATIONAL_CHARS:
            return Fraction(int(value))
    elif not is_int(value):
        raise ValueError(f"{context}: expected a rational string or an integer, got {value!r}")
    text = value if isinstance(value, str) else str(value)
    if len(text) > MAX_RATIONAL_CHARS:
        raise ValueError(f"{context}: a rational has at most {MAX_RATIONAL_CHARS} characters")
    _, e, exponent = text.lower().partition("e")
    try:
        too_big = bool(e) and abs(int(exponent)) > MAX_DECIMAL_EXPONENT
    except ValueError:
        too_big = False  # not an exponent; Fraction rejects the string below
    if too_big:
        raise ValueError(
            f"{context}: a decimal exponent has magnitude at most {MAX_DECIMAL_EXPONENT}"
        )
    try:
        return Fraction(value)
    except ZeroDivisionError:
        raise ValueError(f"{context}: zero denominator in {value!r}")
    except ValueError:
        raise ValueError(f"{context}: not a rational number: {value!r}")


def square_class(x) -> SquareClass:
    """x modulo nonzero squares, from one factorization of num * den."""
    return square_classes([as_fraction(x)])[0]


def _local(a: int, p: int) -> tuple[int, int, int]:
    """What Hilbert's formula at a prime p reads of a nonzero integer
    a = p^alpha u: (alpha mod 2, e, w).  At p = 2, e and w are epsilon(u) and
    omega(u); at odd p, e = 0 and w = 1 exactly when u is not a square mod p."""
    alpha = 0
    while a % p == 0:
        a //= p
        alpha += 1
    if p == 2:
        r = a % 8
        return alpha % 2, (r - 1) // 2 % 2, (r * r - 1) // 8 % 2
    return alpha % 2, 0, int(pow(a, (p - 1) // 2, p) != 1)


def _coprime_base(values: Iterable[int]) -> list[int]:
    """Pairwise coprime integers > 1, ascending, whose products give each of
    the positive ``values``: a base element sharing a gcd g > 1 with a new
    value is replaced by g and the two cofactors (Bernstein 2005, section 2)."""
    base: list[int] = []
    todo = [v for v in values if v > 1]
    while todo:
        x = todo.pop()
        for i, b in enumerate(base):
            g = math.gcd(x, b)
            if g > 1:
                del base[i]
                todo += [y for y in (g, b // g, x // g) if y > 1]
                break
        else:
            base.append(x)
    return sorted(base)


def square_classes(xs: Sequence[Fraction]) -> tuple[SquareClass, ...]:
    """Each of the nonzero rationals ``xs`` modulo squares.  The |num * den|
    are refined into a coprime base whose elements are factored once each,
    within one rho budget of len(xs) * ``RHO_BUDGET`` steps that they share,
    and each entry reads its odd-exponent primes off the elements dividing it."""
    values = [abs(x.numerator * x.denominator) for x in xs]
    if 0 in values:
        raise ValueError("zero has no square class")
    budget = [len(values) * RHO_BUDGET]
    # Each base element with the primes of odd exponent in it: an entry
    # holding the element to an odd power holds exactly those to odd powers.
    base = [(b, [p for p, e in prime_factors(b, budget).items() if e % 2]) for b in _coprime_base(values)]
    out = []
    for x, v in zip(xs, values):
        odd = []
        for b, primes in base:
            k = 0
            while v % b == 0:
                v //= b
                k += 1
            if k % 2:
                odd += primes
        odd.sort()
        out.append(((-1 if x.numerator < 0 else 1) * math.prod(odd), tuple(p for p in odd if p != 2)))
    return tuple(out)


def hilbert_symbol(a, b, place: Place) -> int:
    """The Hilbert symbol (a, b) at a place of Q, as +1 or -1, from the closed
    formula on numerator * denominator, which has the same square class."""
    a, b = as_fraction(a), as_fraction(b)
    if a == 0 or b == 0:
        raise ValueError("Hilbert symbol needs nonzero entries")
    p = check_place(place)
    if p == REAL_PLACE:
        return -1 if a < 0 and b < 0 else 1
    (alpha, e, w), (beta, f, z) = (_local(x.numerator * x.denominator, p) for x in (a, b))
    return -1 if (e * f + alpha * beta * ((p - 1) // 2) + alpha * z + beta * w) % 2 else 1


def _ramified(classes: Sequence[SquareClass]) -> set[Place]:
    """The places where the sum of the quaternion classes (x_i, x_j) over
    i < j ramifies, each from Hilbert's formula summed over the pairs in O(n):

        real place: C(N, 2), with N the number of negative x_i;
        prime p:    C(E, 2) + C(A, 2) (p - 1)/2 + sum of w_i (A - alpha_i),

    with (alpha_i, e_i, w_i) from ``_local`` and A, E the sums of the alpha_i
    and e_i.  Only the x_i with A - alpha_i odd need w_i, so where A is even
    an odd p reads only the entries it divides.  At odd p, e_i = 0 and the
    Legendre symbol is multiplicative, so those w_i sum mod 2 to the w of
    their product: one ``_local`` call per odd place, kept in ``_local`` so
    that all local data has one source.  Only the real place, 2 and the
    primes of the classes can ramify.  The places must be even in number (the
    product formula); an odd count raises ``AssertionError``.
    """
    values = [s for s, _ in classes]
    negative = sum(s < 0 for s in values)
    odd: set[Place] = {REAL_PLACE} if negative * (negative - 1) // 2 % 2 else set()
    divisible: dict[int, list[int]] = {2: [s for s in values if s % 2 == 0]}
    for s, primes in classes:
        for p in primes:
            divisible.setdefault(p, []).append(s)
    for p, at_p in divisible.items():
        big_a = len(at_p)
        parity = big_a * (big_a - 1) // 2 * ((p - 1) // 2)
        if p == 2:  # every x_i: C(E, 2) needs E, not only its parity
            big_e = 0
            for s in values:
                alpha, e, w = _local(s, 2)
                big_e += e
                parity += w * (big_a - alpha)
            parity += big_e * (big_e - 1) // 2
        else:  # the x_i with A - alpha_i odd, read as one product
            read = at_p if big_a % 2 == 0 else [s for s in values if s % p]
            parity += _local(math.prod(read), p)[2]
        if parity % 2:
            odd.add(p)
    if len(odd) % 2:
        raise AssertionError(
            f"the pairs of {values} ramify at an odd number of places: {sorted(odd, key=place_sort_key)}"
        )
    return odd


def quaternion_sum(*forms: Sequence[SquareClass]) -> RationalClass:
    """Sum over ``forms`` of the quaternion classes (x_i, x_j), i < j, of each
    form's square classes: a diagonal form's Hasse invariant, or the class
    (x, y) for the pair [x, y].  The key is read off the places of odd
    ramification parity (invariant 1/2 each)."""
    odd: set[Place] = set()
    for classes in forms:
        odd ^= _ramified(classes)
    return RATIONALS.class_at(tuple(sorted((*place_sort_key(v), 1, 2) for v in odd)))


def quaternion_class(a, b) -> RationalClass:
    """Brauer class of the quaternion algebra (a, b) over Q.

    Local invariant 1/2 exactly at the ramified places.
    """
    return quaternion_sum([square_class(a), square_class(b)])


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
