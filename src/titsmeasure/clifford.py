"""Structure-constant oracle for even Clifford algebra Brauer classes.

Builds the 2^n-dimensional Clifford algebra of a diagonal form <a_1,...,a_n>
on the subset basis e_S.  Each entry a = p/q is first replaced by p * q =
a * q^2, which has the same square class, so the form is isometric, the
algebra the same, and every structure constant an integer.  An element is a
sparse {mask: integer coefficient} dict.  Its algebra A is the even part C0
or, for even n, the simple component of C0 that the central idempotent
(1 + sign * omega/rho)/2 cuts out, omega the volume element and rho^2 =
omega^2.  In integers A's identity is E = rho + sign * omega = 2 rho times
that idempotent, with E^2 = 2 rho E; for odd n, E = 1.

Rather than search for a quaternion basis, the oracle proves the classical
split A = (alpha_1, beta_1) (x) ... (x) (alpha_k, beta_k) (Lam, Introduction
to Quadratic Forms over Fields, V.2) from the multiplication table.  The
generator pairs are (e1e2, e1e3), then for dim A >= 16 (e1e2e3e4, e1e2e3e5),
then for dim A = 64 (e1...e6, e1...e5e7), each times E.  It checks that each
pair anticommutes, that each generator squares to a nonzero scalar multiple
of E, that generators of different pairs commute, and, by exact rank, that
the 4^k products of the generators span A.  Then each pair generates the
quaternion algebra (u^2, v^2), the pairs generate their tensor product,
which is simple, and that maps onto A; so the class of A is the sum of the
pairs' classes.  A generator E g squares to lambda E with lambda = 2 rho g^2
(lambda = g^2 for odd n), so the quaternion symbol is lambda divided by that
scale.  A failed check raises ``AssertionError``.

This is deliberately independent of the closed-form invariant in
``quadforms``: no n mod 8 case table and no Hasse invariant appear here, only
the form's entries and, for even n, its signed discriminant.  It supports
n = 3..8, so every residue of the closed form's n mod 8 table is pinned.
"""

from __future__ import annotations

import math
from collections.abc import Iterable, Sequence
from fractions import Fraction
from itertools import combinations

from .brauer import RationalClass
from .quadforms import QuadraticForm, signed_discriminant
from .rationals import quaternion_class

Element = dict[int, int]

# Generator pairs by dim A: (e1e2, e1e3), (e1e2e3e4, e1e2e3e5), (e1..e6, e1..e5e7).
_GENERATORS = ((0b11, 0b101), (0b1111, 0b10111), (0b111111, 0b1011111))
_PAIRS = {4: _GENERATORS[:1], 16: _GENERATORS[:2], 64: _GENERATORS}


def _tau(s: int, t: int) -> int:
    """Number of index pairs (x in s, y in t) with x > y; the reordering sign."""
    count = 0
    x = s
    while x:
        i = (x & -x).bit_length() - 1
        count += (t & ((1 << i) - 1)).bit_count()
        x &= x - 1
    return count


class CliffordAlgebra:
    """Clifford algebra of <a_1,...,a_n>, integer a_i, with basis e_S for S a bitmask."""

    def __init__(self, entries: Sequence[int]):
        self.entries = tuple(entries)
        self.n = len(self.entries)
        self.size = 1 << self.n
        # (s << n | t) -> the integer c with e_s e_t = c e_{s ^ t}, filled on first use.
        self._products: dict[int, int] = {}

    def basis_product(self, s: int, t: int) -> int:
        """The integer c with e_s e_t = c e_{s ^ t}."""
        key = s << self.n | t
        coef = self._products.get(key)
        if coef is None:
            coef = -1 if _tau(s, t) % 2 else 1
            common = s & t
            while common:
                coef *= self.entries[(common & -common).bit_length() - 1]
                common &= common - 1
            self._products[key] = coef
        return coef

    def mul(self, x: Element, y: Element) -> Element:
        out: Element = {}
        basis_product = self.basis_product
        for s, xs in x.items():
            for t, yt in y.items():
                mask = s ^ t
                out[mask] = out.get(mask, 0) + xs * yt * basis_product(s, t)
        return {mask: c for mask, c in out.items() if c}

    def even_masks(self) -> list[int]:
        return [m for m in range(self.size) if m.bit_count() % 2 == 0]


def _rank(rows: Iterable[Element]) -> int:
    """Rank of sparse integer rows by fraction-free elimination.

    Each pivot row is keyed by its least mask.  A new row is cross-multiplied
    against the pivot row of its least mask, which clears that mask, until it
    vanishes or opens a new pivot; dividing out its content keeps it small.
    """
    pivots: dict[int, Element] = {}
    for row in rows:
        while row:
            lead = min(row)
            top = pivots.get(lead)
            if top is None:
                pivots[lead] = row
                break
            f, g = top[lead], row[lead]
            out = {m: f * a for m, a in row.items()}
            for m, b in top.items():
                out[m] = out.get(m, 0) - g * b
            content = math.gcd(*out.values())
            row = {m: a // content for m, a in out.items() if a}
    return len(pivots)


def _exact_sqrt(x: int) -> int:
    root = math.isqrt(x) if x >= 0 else -1
    if root * root != x:
        raise ValueError(f"not a square: {x}")
    return root


def _scalar(w: Element, one: Element) -> Fraction | None:
    """lambda with w == lambda * one, or None when w is not a scalar multiple."""
    pivot = next(iter(one))
    d, c = one[pivot], w.get(pivot, 0)
    if {m: d * a for m, a in w.items()} != {m: c * a for m, a in one.items()}:
        return None
    return Fraction(c, d)


def even_clifford_class_by_structure(
    q: QuadraticForm, *, component_sign: int = 1
) -> RationalClass:
    """Brauer class of the even Clifford algebra, from structure constants.

    For even dimension (trivial signed discriminant required) the class of the
    component carved out by the idempotent (1 + sign * omega/rho)/2; both signs
    give the same answer, which the tests exercise.
    """
    n = q.dim
    if not 3 <= n <= 8:
        raise ValueError(f"structure oracle supports dimensions 3..8, got {n}")
    if component_sign not in (1, -1):
        raise ValueError("component_sign must be +1 or -1")
    alg = CliffordAlgebra([a.numerator * a.denominator for a in q.entries])
    one: Element = {0: 1}
    scale = 1
    if n % 2 == 0:
        if signed_discriminant(q) != 1:
            raise ValueError(
                "even-dimensional form with nontrivial signed discriminant is "
                "outside the supported setting"
            )
        full = alg.size - 1
        rho = _exact_sqrt(alg.basis_product(full, full))
        one = {0: rho, full: component_sign}
        scale = 2 * rho
    component = [alg.mul(one, {m: 1}) for m in alg.even_masks()]

    dim = _rank(component)
    if dim not in _PAIRS:
        raise AssertionError(f"unexpected even-part dimension {dim}")
    pairs = [tuple(alg.mul(one, {m: 1}) for m in masks) for masks in _PAIRS[dim]]
    symbols, spans = [], []
    for u, v in pairs:
        uv = alg.mul(u, v)
        if uv != {m: -c for m, c in alg.mul(v, u).items()}:
            raise AssertionError("a generator pair does not anticommute")
        squares = [_scalar(alg.mul(g, g), one) for g in (u, v)]
        if not all(squares):
            raise AssertionError("a generator does not square to a nonzero scalar")
        symbols.append([lam / scale for lam in squares])
        spans.append((one, u, v, uv))
    for left, right in combinations(pairs, 2):
        if any(alg.mul(g, h) != alg.mul(h, g) for g in left for h in right):
            raise AssertionError("generators of different pairs do not commute")
    products = [one]
    for span in spans:
        products = [alg.mul(x, y) for x in products for y in span]
    # Adding A's spanning set raises no rank, and the rank is dim A: equal spans.
    if not _rank(products) == _rank([*products, *component]) == dim:
        raise AssertionError("the generator products do not span the algebra")
    first, *rest = (quaternion_class(a, b) for a, b in symbols)
    return sum(rest, first)
