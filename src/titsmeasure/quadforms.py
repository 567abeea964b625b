"""Diagonal quadratic forms over Q and their even-Clifford Brauer classes.

A form's entries are reduced to square classes together, from one factoring
of a coprime base of the entries (``square_classes``), and the determinant's
class is their product modulo squares (``det_class``), so the determinant
itself is never factored.  Both are computed once per form.  The signed
discriminant reads the determinant class; the Hasse invariant and the
even-Clifford class are each one ``quaternion_sum``, which sums Hilbert's
formula over all pairs of entries place by place.

The closed-form Clifford invariant below (cases by n mod 8, mixing the Hasse
invariant with the determinant) is pinned against an independent
structure-constant oracle in ``clifford``; see the tests.

``FormShadow`` carries just what theorem-level deduction needs (dimension,
even-Clifford class, an asserted I^3 = 0 flag), so the same reasoning works
over abstract group models where no actual form exists.
"""

from __future__ import annotations

import math
from collections.abc import Iterable
from fractions import Fraction
from functools import cached_property

from .brauer import BrauerClass, BrauerGroup, RationalClass, ResourceLimitError
from .brauer import Record, is_int, record_payload
from .rationals import SquareClass, as_fraction, quaternion_sum, read_rational, square_classes


# A form's coprime base is factored within one rho budget of dim *
# RHO_BUDGET steps, about 0.12-0.17 s of them per entry on ~100-bit numbers.
# Past this dimension a form is refused with ``ResourceLimitError`` before
# anything is factored, so the worst form still ends within about 2 s.
MAX_FORM_DIM = 10


class QuadraticForm(Record):
    """A non-degenerate diagonal form <a_1, ..., a_n> with exact entries."""

    entries: tuple[Fraction, ...]

    def __post_init__(self) -> None:
        if len(self.entries) > MAX_FORM_DIM:
            raise ResourceLimitError(
                f"form dimension {len(self.entries)} is past the limit of {MAX_FORM_DIM}"
            )
        entries = tuple(as_fraction(a) for a in self.entries)
        if not all(entries):
            raise ValueError("diagonal entries must be nonzero")
        object.__setattr__(self, "entries", entries)

    @classmethod
    def of(cls, entries: Iterable) -> "QuadraticForm":
        """The form of exact rationals or of strings that ``read_rational``
        reads, within the caps a document's entries have."""
        return cls(tuple(read_rational(a, "form") if isinstance(a, str) else a for a in entries))

    @property
    def dim(self) -> int:
        return len(self.entries)

    @cached_property
    def square_classes(self) -> tuple[SquareClass, ...]:
        """Each entry modulo squares, from one factoring of a coprime base."""
        return square_classes(self.entries)

    @cached_property
    def det_class(self) -> SquareClass:
        """The square class of det(q): the product of the entry classes."""
        sign, twos, odd = 1, 0, set()
        for s, primes in self.square_classes:
            sign *= -1 if s < 0 else 1
            twos += s % 2 == 0
            odd.symmetric_difference_update(primes)
        primes = tuple(sorted(odd))
        return sign * 2 ** (twos % 2) * math.prod(primes), primes

    def to_payload(self) -> list[str]:
        return [str(a) for a in self.entries]


def signed_discriminant(q: QuadraticForm) -> int:
    """(-1)^{n(n-1)/2} det(q) as a squarefree integer (1 means trivial)."""
    n = q.dim
    sign = -1 if (n * (n - 1) // 2) % 2 else 1
    return sign * q.det_class[0]


def hasse_invariant(q: QuadraticForm) -> RationalClass:
    """Sum of the quaternion classes (a_i, a_j) over i < j, place by place."""
    return quaternion_sum(q.square_classes)


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
    return quaternion_sum(q.square_classes, *_clifford_correction(n, q.det_class))


I3_OVER_Q = "I^3(Q) != 0 (the signature detects it), so i3_zero cannot be asserted over Q"


class FormShadow(Record):
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

