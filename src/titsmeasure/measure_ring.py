"""The quotient of the integral group ring of a Brauer group where measures live.

Z[Br(k)] is divided by the relations [k] + [A ⊗ A'] = [A] + [A'] for algebras
of coprime index.  Every class then rewrites into its p-primary parts:

    [c]  ->  sum over primes p | ord(c) of [c_p]  -  (nu - 1) [identity]

with nu the number of primes dividing ord(c).  Elements are kept in the normal
form spanned by the identity and the classes of prime-power order; equality in
the quotient is literal equality of normal forms.  The verification suites
check this against raw breadth-first rewriting on finite models.
"""

from __future__ import annotations

from dataclasses import dataclass

from .brauer import BrauerGroup, GroupMismatchError, common_group
from .motives import Count as Term, merge


@dataclass(frozen=True)
class RingElement:
    """An element of the quotient ring, stored in normal form."""

    group: BrauerGroup
    terms: tuple[Term, ...]

    def __post_init__(self) -> None:
        group = self.group
        for c, k in self.terms:
            if c.group is not group and c.group != group:
                raise GroupMismatchError("class outside the declared group model")
            if not isinstance(k, int):
                raise ValueError(f"coefficients must be integers, got {k!r}")
        # Each distinct class is rewritten once, weighted by its coefficient.
        key, primes, p_parts = group.class_key, group.key_primes, group.p_part_keys
        expanded = []
        for kc, k in merge([(key(c), k) for c, k in self.terms]):
            ps = primes[kc]
            if len(ps) < 2:
                expanded.append((kc, k))
            else:
                expanded += [(p_parts[p][kc], k) for p in ps]
                expanded.append((key(group.identity()), k * (1 - len(ps))))
        at = group.class_at
        object.__setattr__(self, "terms", tuple([(at(kc), k) for kc, k in merge(expanded)]))

    def __add__(self, other: "RingElement") -> "RingElement":
        return RingElement(common_group(self, other), self.terms + other.terms)

    def __neg__(self) -> "RingElement":
        return RingElement(self.group, tuple((c, -k) for c, k in self.terms))

    def __sub__(self, other: "RingElement") -> "RingElement":
        return self + (-other)

    def __mul__(self, other: "RingElement") -> "RingElement":
        group = common_group(self, other)
        raw = [
            (c1 + c2, k1 * k2)
            for c1, k1 in self.terms
            for c2, k2 in other.terms
        ]
        return RingElement(group, tuple(raw))

    def to_payload(self) -> dict:
        return {
            "terms": [
                {"class": c.to_payload(), "coeff": k} for c, k in self.terms
            ]
        }


def augmentation(x: RingElement) -> int:
    """Sum of coefficients; rewriting preserves it, so it is well defined."""
    return sum(k for _, k in x.terms)


def equal(x: RingElement, y: RingElement) -> bool:
    """Equality in the quotient ring: identical normal forms."""
    common_group(x, y)
    return x.terms == y.terms


def from_motive_sum(ms) -> RingElement:
    """Image of a direct sum of twisted Tate motives: sum of its classes.

    Multiplicities become coefficients, so the rank never gets expanded.
    """
    return RingElement(ms.group, ms.counts)
