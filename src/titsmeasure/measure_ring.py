"""The quotient of the integral group ring of a Brauer group where measures live.

Z[Br(k)] is divided by the relations [k] + [A ⊗ A'] = [A] + [A'] for algebras
of coprime index.  Every class then rewrites into its p-primary parts:

    [c]  ->  sum over primes p | ord(c) of [c_p]  -  (nu - 1) [identity]

with nu the number of primes dividing ord(c).  Elements are kept in the normal
form spanned by the identity and the classes of prime-power order; equality in
the quotient is literal equality of normal forms, ``==``.  The rewrite is
``motives.normal_form``, the routine whose value is also a ``MotiveSum``'s
isomorphism signature, so the image of an effective sum decides motive
isomorphism.  The normal form is kept on class keys and rewritten and added
through the group's key tables, and printed from the keys by the group's
``key_payload``; classes are built only when ``terms`` is read.  Pairs
from outside are keyed by ``motives.key_pairs``, as for a ``MotiveSum``.
The verification suites check this against raw
breadth-first rewriting on finite models, and tier-1 against a per-prime
p-part oracle.
"""

from __future__ import annotations

from collections.abc import Iterable

from .brauer import BrauerGroup, Record, common_group
from .motives import Count as Term, KeyCount, key_pairs, merge, normal_form


class RingElement(Record):
    """An element of the quotient ring, built from (class, integer) pairs and
    stored in normal form as ``key_terms``: (class key, coefficient) pairs
    sorted by key.  ``==`` and ``hash`` compare the group and ``key_terms``."""

    group: BrauerGroup
    key_terms: tuple[KeyCount, ...]

    def __init__(self, group: BrauerGroup, terms: Iterable[Term]) -> None:
        self.__dict__.update(group=group, key_terms=key_pairs(group, terms, "coefficients"))
        self.__post_init__()

    @classmethod
    def _of_keys(cls, group: BrauerGroup, pairs: Iterable[KeyCount]) -> "RingElement":
        """The normal form of checked (key, coefficient) pairs."""
        self = object.__new__(cls)
        self.__dict__.update(group=group, key_terms=pairs)
        self.__post_init__()
        return self

    def __post_init__(self) -> None:
        # Merges the raw key_terms, then rewrites each distinct key once.
        self.__dict__["key_terms"] = normal_form(self.group, merge(self.key_terms))

    @property
    def terms(self) -> tuple[Term, ...]:
        """The (class, coefficient) pairs, built with ``group.class_at`` on each read."""
        at = self.group.class_at
        return tuple([(at(kc), k) for kc, k in self.key_terms])

    def __add__(self, other: "RingElement") -> "RingElement":
        return RingElement._of_keys(common_group(self, other), self.key_terms + other.key_terms)

    def __neg__(self) -> "RingElement":
        return RingElement._of_keys(self.group, [(kc, -k) for kc, k in self.key_terms])

    def __sub__(self, other: "RingElement") -> "RingElement":
        return self + (-other)

    def __mul__(self, other: "RingElement") -> "RingElement":
        group = common_group(self, other)
        add = group.add_keys
        return RingElement._of_keys(group, [
            (add(a, b), i * j) for a, i in self.key_terms for b, j in other.key_terms
        ])

    def to_payload(self) -> dict:
        payload = self.group.key_payload
        return {"terms": [{"class": payload(kc), "coeff": k} for kc, k in self.key_terms]}


def augmentation(x: RingElement) -> int:
    """Sum of coefficients; rewriting preserves it, so it is well defined."""
    return sum(k for _, k in x.key_terms)


def from_motive_sum(ms) -> RingElement:
    """Image of a direct sum of twisted Tate motives: sum of its classes.

    Multiplicities become coefficients, so the rank never gets expanded.
    The sum's key counts are merged already, so they take one normal form.
    """
    self = object.__new__(RingElement)
    self.__dict__.update(group=ms.group, key_terms=normal_form(ms.group, ms.key_counts))
    return self
