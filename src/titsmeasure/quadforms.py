"""Diagonal quadratic forms over Q and their even-Clifford Brauer classes.

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
from typing import Iterable

from .brauer import BrauerClass, BrauerGroup, GroupMismatchError, RationalClass
from .rationals import as_fraction, quaternion_class, squarefree_part


@dataclass(frozen=True)
class QuadraticForm:
    """A non-degenerate diagonal form <a_1, ..., a_n> with exact entries."""

    entries: tuple[Fraction, ...]

    def __post_init__(self) -> None:
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

    def det(self) -> Fraction:
        return math.prod(self.entries, start=Fraction(1))

    def to_payload(self) -> list[str]:
        return [str(a) for a in self.entries]


def signed_discriminant(q: QuadraticForm) -> int:
    """(-1)^{n(n-1)/2} det(q) as a squarefree integer (1 means trivial)."""
    n = q.dim
    sign = -1 if (n * (n - 1) // 2) % 2 else 1
    return squarefree_part(sign * q.det())


def hasse_invariant(q: QuadraticForm) -> RationalClass:
    """Sum of the quaternion classes (a_i, a_j) over i < j."""
    total = RationalClass(())
    for i in range(q.dim):
        for j in range(i + 1, q.dim):
            total = total + quaternion_class(q.entries[i], q.entries[j])
    return total


# Correction added to the Hasse invariant to obtain the even-Clifford class,
# keyed by n mod 8 and fed the (unsigned) determinant.
def _clifford_correction(n: int, det: Fraction) -> RationalClass:
    residue = n % 8
    if residue in (1, 2):
        return RationalClass(())
    if residue in (3, 4):
        return quaternion_class(-1, -det)
    if residue in (5, 6):
        return quaternion_class(-1, -1)
    return quaternion_class(-1, det)  # residue 7 or 0


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
    return hasse_invariant(q) + _clifford_correction(n, q.det())


@dataclass(frozen=True)
class FormShadow:
    """What deduction needs to know about a form, over any group model."""

    dim: int
    clifford_class: BrauerClass
    i3_zero: bool = False

    def __post_init__(self) -> None:
        if not isinstance(self.dim, int) or self.dim < 3:
            raise ValueError(f"shadow dimension must be an integer >= 3, got {self.dim}")
        if self.clifford_class.order() > 2:
            raise ValueError("even-Clifford class must be 2-torsion")

    @property
    def group(self) -> BrauerGroup:
        return self.clifford_class.group


def shadow_of(q: QuadraticForm, *, i3_zero: bool = False) -> FormShadow:
    return FormShadow(q.dim, even_clifford_class(q), i3_zero)


def similar_under_classification(x: FormShadow, y: FormShadow) -> bool:
    """Decide similarity of the underlying forms where classification applies.

    Applicable when the dimensions agree and either the dimension is 6 or
    both shadows assert I^3 = 0; then similarity is equivalent to equality of
    the even-Clifford classes.  Identical shadows are accepted outright.
    """
    if x.group != y.group:
        raise GroupMismatchError("mixed group models")
    if x == y:
        return True
    if x.dim != y.dim:
        raise ValueError(
            f"shadows have different dimensions: {x.dim} vs {y.dim}"
        )
    if x.dim == 6 or (x.i3_zero and y.i3_zero):
        return x.clifford_class == y.clifford_class
    raise ValueError("classification rule inapplicable")
