"""Structure-constant oracle for even Clifford algebra Brauer classes.

Builds the 2^n-dimensional Clifford algebra of a diagonal form <a_1,...,a_n>
on the subset basis e_S.  Its algebra A is the even part C0 or, for even n,
the simple component of C0 that the central idempotent (1 + sign * omega/rho)/2
cuts out, omega the volume element, with that idempotent as A's identity.

Rather than search for a quaternion basis, the oracle proves the classical
split A = (alpha_1, beta_1) (x) ... (x) (alpha_k, beta_k) (Lam, Introduction
to Quadratic Forms over Fields, V.2) from the multiplication table.  The
generator pairs are (e1e2, e1e3) and, when dim A = 16, (e1e2e3e4, e1e2e3e5),
each times A's identity.  It checks that each pair anticommutes, that each
generator squares to a nonzero scalar, that generators of different pairs
commute, and, by exact rank, that the 4^k products of the generators span A.
Then each pair generates the quaternion algebra (u^2, v^2), the pairs
generate their tensor product, which is simple, and that maps onto A; so the
class of A is the sum of the pairs' classes.  A failed check raises
``AssertionError``.

This is deliberately independent of the closed-form invariant in
``quadforms``: no n mod 8 case table and no Hasse invariant appear here, only
the form's entries and, for even n, its signed discriminant.  Practical up to
n = 6, which covers every form dimension the quadric family needs pinned.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import combinations
from typing import Sequence

from .brauer import RationalClass
from .quadforms import QuadraticForm, signed_discriminant
from .rationals import quaternion_class

Vector = tuple[Fraction, ...]

# Generator pairs by dim A: (e1e2, e1e3), then (e1e2e3e4, e1e2e3e5).
_PAIRS = {4: ((0b11, 0b101),), 16: ((0b11, 0b101), (0b1111, 0b10111))}


def _tau(s: int, t: int) -> int:
    """Number of index pairs (x in s, y in t) with x > y; the reordering sign."""
    count = 0
    x = s
    while x:
        i = (x & -x).bit_length() - 1
        count += bin(t & ((1 << i) - 1)).count("1")
        x &= x - 1
    return count


class CliffordAlgebra:
    """Clifford algebra of <a_1,...,a_n> with basis e_S for S a bitmask."""

    def __init__(self, entries: Sequence[Fraction]):
        self.entries = tuple(Fraction(a) for a in entries)
        self.n = len(self.entries)
        self.size = 1 << self.n

    def basis_product(self, s: int, t: int) -> tuple[Fraction, int]:
        coef = Fraction(-1) ** _tau(s, t)
        common = s & t
        while common:
            i = (common & -common).bit_length() - 1
            coef *= self.entries[i]
            common &= common - 1
        return coef, s ^ t

    def basis_vector(self, mask: int) -> Vector:
        return tuple(
            Fraction(1) if i == mask else Fraction(0) for i in range(self.size)
        )

    def mul(self, x: Vector, y: Vector) -> Vector:
        out = [Fraction(0)] * self.size
        for s, xs in enumerate(x):
            if not xs:
                continue
            for t, yt in enumerate(y):
                if not yt:
                    continue
                coef, mask = self.basis_product(s, t)
                out[mask] += xs * yt * coef
        return tuple(out)

    def even_masks(self) -> list[int]:
        return [m for m in range(self.size) if bin(m).count("1") % 2 == 0]


def _rank(rows: Sequence[Sequence[Fraction]]) -> int:
    """Rank of ``rows`` by exact Gauss-Jordan elimination.

    Only the rows below each pivot are cleared, which is all the rank needs.
    Zero entries are skipped, since the Clifford vectors are sparse.
    """
    mat = [list(row) for row in rows]
    rank = 0
    for c in range(len(mat[0])):
        pivot = next((i for i in range(rank, len(mat)) if mat[i][c]), None)
        if pivot is None:
            continue
        mat[rank], mat[pivot] = mat[pivot], mat[rank]
        inv = 1 / mat[rank][c]
        top = mat[rank] = [a * inv if a else a for a in mat[rank]]
        for i in range(rank + 1, len(mat)):
            f = mat[i][c]
            if f:
                mat[i] = [a - f * b if b else a for a, b in zip(mat[i], top)]
        rank += 1
    return rank


def _exact_sqrt(x: Fraction) -> Fraction:
    if x < 0:
        raise ValueError(f"not a square: {x}")
    rn, rd = math.isqrt(x.numerator), math.isqrt(x.denominator)
    if rn * rn != x.numerator or rd * rd != x.denominator:
        raise ValueError(f"not a square: {x}")
    return Fraction(rn, rd)


def _scalar(w: Vector, one: Vector) -> Fraction | None:
    """lambda with w == lambda * one, or None when w is not a scalar."""
    pivot = next(i for i, a in enumerate(one) if a)
    lam = w[pivot] / one[pivot]
    return lam if w == tuple(lam * a for a in one) else None


def even_clifford_class_by_structure(
    q: QuadraticForm, *, component_sign: int = 1
) -> RationalClass:
    """Brauer class of the even Clifford algebra, from structure constants.

    For even dimension (trivial signed discriminant required) the class of the
    component carved out by the idempotent (1 + sign * omega/rho)/2; both signs
    give the same answer, which the tests exercise.
    """
    n = q.dim
    if not 3 <= n <= 6:
        raise ValueError(f"structure oracle supports dimensions 3..6, got {n}")
    if component_sign not in (1, -1):
        raise ValueError("component_sign must be +1 or -1")
    alg = CliffordAlgebra(q.entries)
    component = [alg.basis_vector(m) for m in alg.even_masks()]
    one = alg.basis_vector(0)
    if n % 2 == 0:
        if signed_discriminant(q) != 1:
            raise ValueError(
                "even-dimensional form with nontrivial signed discriminant is "
                "outside the supported setting"
            )
        omega_sq, _ = alg.basis_product(alg.size - 1, alg.size - 1)
        idem = [Fraction(0)] * alg.size
        idem[0], idem[-1] = Fraction(1, 2), component_sign / (2 * _exact_sqrt(omega_sq))
        one = tuple(idem)
        component = [alg.mul(one, b) for b in component]

    dim = _rank(component)
    if dim not in _PAIRS:
        raise AssertionError(f"unexpected even-part dimension {dim}")
    pairs = [
        tuple(alg.mul(one, alg.basis_vector(m)) for m in masks) for masks in _PAIRS[dim]
    ]
    symbols, spans = [], []
    for u, v in pairs:
        uv = alg.mul(u, v)
        if uv != tuple(-a for a in alg.mul(v, u)):
            raise AssertionError("a generator pair does not anticommute")
        squares = [_scalar(alg.mul(g, g), one) for g in (u, v)]
        if not all(squares):
            raise AssertionError("a generator does not square to a nonzero scalar")
        symbols.append(squares)
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
