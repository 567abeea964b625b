"""Diagonal quadratic forms over Q and their even-Clifford Brauer classes.

Each entry is factored once, into its square class (``square_classes``).
The signed discriminant, the Hasse invariant and the n mod 8 correction all
read those classes; the determinant's class is their product modulo squares,
so the determinant itself is never factored.  The Hasse invariant and the
even-Clifford class are each one ``quaternion_sum`` over pairs of classes,
which evaluates the integer Hilbert core of ``rationals``.

The closed-form Clifford invariant below (cases by n mod 8, mixing the Hasse
invariant with the determinant) is pinned against an independent
structure-constant oracle in ``clifford``; see the tests.

``FormShadow`` carries just what theorem-level deduction needs (dimension,
even-Clifford class, an asserted I^3 = 0 flag), so the same reasoning works
over abstract group models where no actual form exists.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import combinations
from typing import Iterable

from .brauer import BrauerClass, BrauerGroup, RationalClass, ResourceLimitError
from .brauer import is_int, record_payload
from .rationals import SquareClass, as_fraction, quaternion_sum, square_class


# Each entry is factored within its own rho budget, up to about 0.17 s for a
# semiprime that needs the whole budget, and the Hasse invariant and the
# Clifford class read all C(n, 2) pairs.  Past this dimension a form is
# refused with ``ResourceLimitError`` before any entry is factored, so the
# worst form still ends within about 2 s.
MAX_FORM_DIM = 10


@dataclass(frozen=True)
class QuadraticForm:
    """A non-degenerate diagonal form <a_1, ..., a_n> with exact entries."""

    entries: tuple[Fraction, ...]

    def __post_init__(self) -> None:
        if len(self.entries) > MAX_FORM_DIM:
            raise ResourceLimitError(
                f"form dimension {len(self.entries)} is past the limit of {MAX_FORM_DIM}"
            )
        entries = tuple(as_fraction(a) for a in self.entries)
        if any(a == 0 for a in entries):
            raise ValueError("diagonal entries must be nonzero")
        object.__setattr__(self, "entries", entries)

    @classmethod
    def of(cls, entries: Iterable) -> "QuadraticForm":
        return cls(tuple(Fraction(a) for a in entries))

    @property
    def dim(self) -> int:
        return len(self.entries)

    @cached_property
    def square_classes(self) -> tuple[SquareClass, ...]:
        """Each entry modulo squares, factored once per form."""
        return tuple(square_class(a) for a in self.entries)

    def to_payload(self) -> list[str]:
        return [str(a) for a in self.entries]


def _det_class(q: QuadraticForm) -> SquareClass:
    """The square class of det(q): the product of the entry classes."""
    sign, twos, odd = 1, 0, set()
    for s, primes in q.square_classes:
        sign *= -1 if s < 0 else 1
        twos += s % 2 == 0
        odd.symmetric_difference_update(primes)
    primes = tuple(sorted(odd))
    return sign * 2 ** (twos % 2) * math.prod(primes), primes


def signed_discriminant(q: QuadraticForm) -> int:
    """(-1)^{n(n-1)/2} det(q) as a squarefree integer (1 means trivial)."""
    n = q.dim
    sign = -1 if (n * (n - 1) // 2) % 2 else 1
    return sign * _det_class(q)[0]


def hasse_invariant(q: QuadraticForm) -> RationalClass:
    """Sum of the quaternion classes (a_i, a_j) over i < j."""
    return quaternion_sum(combinations(q.square_classes, 2))


MINUS_ONE: SquareClass = (-1, ())


# The pair whose quaternion class is added to the Hasse invariant to obtain
# the even-Clifford class, keyed by n mod 8 and fed the (unsigned) determinant.
def _clifford_correction(n: int, det: SquareClass) -> list[tuple[SquareClass, SquareClass]]:
    residue = n % 8
    if residue in (1, 2):
        return []
    if residue in (3, 4):
        return [(MINUS_ONE, (-det[0], det[1]))]
    if residue in (5, 6):
        return [(MINUS_ONE, MINUS_ONE)]
    return [(MINUS_ONE, det)]  # residue 7 or 0


def even_clifford_class(q: QuadraticForm) -> RationalClass:
    """Brauer class of C0(q) (n odd) or of the components C0+-(q) (n even).

    Even dimension requires trivial signed discriminant so that the even
    Clifford algebra splits into two isomorphic central simple components.
    """
    n = q.dim
    if n < 3:
        raise ValueError(f"form dimension must be at least 3, got {n}")
    if n % 2 == 0 and signed_discriminant(q) != 1:
        raise ValueError(
            "even-dimensional form with nontrivial signed discriminant is "
            "outside the supported setting"
        )
    pairs = [*combinations(q.square_classes, 2), *_clifford_correction(n, _det_class(q))]
    return quaternion_sum(pairs)


I3_OVER_Q = "I^3(Q) != 0 (the signature detects it), so i3_zero cannot be asserted over Q"


@dataclass(frozen=True)
class FormShadow:
    """What deduction needs to know about a form, over any group model."""

    dim: int
    clifford_class: BrauerClass
    i3_zero: bool = False

    def __post_init__(self) -> None:
        if not is_int(self.dim) or self.dim < 3:
            raise ValueError(f"shadow dimension must be an integer >= 3, got {self.dim}")
        if self.clifford_class.order() > 2:
            raise ValueError("even-Clifford class must be 2-torsion")
        if self.i3_zero and self.group.kind == "rational":
            raise ValueError(I3_OVER_Q)

    @property
    def group(self) -> BrauerGroup:
        return self.clifford_class.group

    def to_payload(self) -> dict:
        return record_payload(self)

