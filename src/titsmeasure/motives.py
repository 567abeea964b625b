"""Multisets of Brauer classes standing for direct sums of twisted Tate motives.

A ``MotiveSum`` records the Brauer classes of the simple summands as a
canonical sorted tuple of (class, multiplicity) pairs; ``len`` is the number
of summands counted with multiplicity and ``classes`` is the sorted
expansion.  Two sums are isomorphic exactly when they have the same
cardinality and, prime by prime, the same multiset of p-primary parts; the
Tate twists themselves carry no information here, so they are not stored.
Every invariant walks the distinct classes weighted by multiplicity, so the
cost follows the support, not the rank.
``merge`` is the one multiset sum (also of ``measure_ring`` normal forms),
in the order the group model defines.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from .brauer import BrauerClass, BrauerGroup, GroupMismatchError

Count = tuple[BrauerClass, int]


def merge(group: BrauerGroup, pairs: Iterable[Count]) -> tuple[Count, ...]:
    """Add the multiplicities of equal classes, drop zeros, sort by
    ``group.class_key`` (an int index for abstract classes: nothing hashed)."""
    key = group.class_key
    mult: dict = {}
    rep: dict = {}
    for c, k in pairs:
        kc = key(c)
        if kc in mult:
            mult[kc] += k
        else:
            mult[kc] = k
            rep[kc] = c
    return tuple([(rep[kc], mult[kc]) for kc in sorted(mult) if mult[kc]])


@dataclass(frozen=True)
class MotiveSum:
    """A finite multiset of Brauer classes over a single group model.

    ``counts`` may list a class more than once; construction merges the
    entries, drops zero multiplicities and sorts by class.
    """

    group: BrauerGroup
    counts: tuple[Count, ...]

    def __post_init__(self) -> None:
        group = self.group
        rank = 0
        for c, k in self.counts:
            if c.group is not group and c.group != group:
                raise GroupMismatchError("class outside the declared group model")
            if not isinstance(k, int) or k < 0:
                raise ValueError(f"multiplicities must be non-negative integers, got {k!r}")
            rank += k
        object.__setattr__(self, "counts", merge(group, self.counts))
        object.__setattr__(self, "_rank", rank)

    @classmethod
    def of(cls, group: BrauerGroup, classes: Iterable[BrauerClass]) -> "MotiveSum":
        return cls(group, tuple([(c, 1) for c in classes]))

    @property
    def classes(self) -> tuple[BrauerClass, ...]:
        """The sorted expansion, each class repeated by its multiplicity."""
        return tuple(c for c, k in self.counts for _ in range(k))

    def __len__(self) -> int:
        return self._rank

    def primes(self) -> tuple[int, ...]:
        ps: set[int] = set()
        for c, _ in self.counts:
            ps.update(c.primes())
        return tuple(sorted(ps))

    def signature(self) -> tuple:
        """Hashable invariant that decides isomorphism.

        Cardinality plus, for each prime dividing some summand's order, the
        sorted multiset of p-parts.
        """
        group, counts = self.group, self.counts
        parts = []
        for p in self.primes():
            parts.append((p, merge(group, [(c.p_part(p), k) for c, k in counts])))
        return (self._rank, tuple(parts))

    def to_payload(self) -> dict:
        return {"classes": [{**c.to_payload(), "mult": k} for c, k in self.counts]}


def _common_group(x: MotiveSum, y: MotiveSum) -> BrauerGroup:
    if x.group != y.group:
        raise GroupMismatchError("mixed group models")
    return x.group


def direct_sum(x: MotiveSum, y: MotiveSum) -> MotiveSum:
    """Multiset union; models the direct sum of motives."""
    return MotiveSum(_common_group(x, y), x.counts + y.counts)


def tensor(x: MotiveSum, y: MotiveSum) -> MotiveSum:
    """Pairwise class sums with multiplicity products; models the product.

    A convolution over the two supports: each pair of distinct classes is
    added once and weighted by the product of multiplicities.
    """
    return MotiveSum(_common_group(x, y), tuple([
        (a + b, i * j) for a, i in x.counts for b, j in y.counts
    ]))


def is_isomorphic(x: MotiveSum, y: MotiveSum) -> bool:
    """Same cardinality and, for every prime, equal multisets of p-parts."""
    _common_group(x, y)
    return x.signature() == y.signature()


def cancel_common(x: MotiveSum, y: MotiveSum, n: MotiveSum) -> bool:
    """Decide x ≅ y and check it agrees with (x ⊕ n) ≅ (y ⊕ n).

    Cancelling a common direct summand never changes the answer; this asserts
    that fact on the given triple as a guard and returns the cancelled verdict.
    """
    before = is_isomorphic(direct_sum(x, n), direct_sum(y, n))
    after = is_isomorphic(x, y)
    if before != after:
        raise AssertionError(
            "direct-sum cancellation failed on this triple; "
            "the isomorphism invariant is inconsistent"
        )
    return after
