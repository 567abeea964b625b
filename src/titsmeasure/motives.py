"""Multisets of Brauer classes standing for direct sums of twisted Tate motives.

A ``MotiveSum`` stores its simple summands as ``key_counts``: (class key,
multiplicity) pairs sorted by key, the key being ``group.class_key`` (the
index for abstract groups, the residue tuple ``RationalClass.key`` over Q).
``rank`` is the sum of the multiplicities; ``len`` returns it too, up to
2^63 - 1, the most Python's ``len`` allows.  Only ``counts`` and ``classes``
(the sorted expansion) hold class objects, built with ``group.class_at``
when first read, once per sum.  Two sums are isomorphic exactly when they have the same
rank and, prime by prime, the same multiset of p-primary parts;
``signature`` reads the primes and p-parts of each key from the group's
tables (``key_primes``, ``p_part_keys``), so it builds no class.  A sum
whose summands all have p-power order for one prime p is its own p-part:
over an abstract p-group that is decided once for the group, and the sum
signs by its own key counts.  Otherwise each prime's p-part counts are
added up inline.  Tate twists carry no information here and are not
stored.  Cost follows the distinct keys, not the rank.  ``key_pairs`` keys
the (class, integer) pairs of a sum or of a ``measure_ring`` element.
``merge`` is the one multiset sum of sums and of the ``measure_ring`` normal
forms, which are kept on keys too; it can add pairs onto an already merged
run, so ``direct_sum`` merges one sum's key counts onto the other's.  Every
sum is built by one constructor call that writes the merged fields.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from operator import itemgetter
from typing import Hashable, Iterable

from .brauer import BrauerClass, BrauerGroup, GroupMismatchError, common_group, is_int

Count = tuple[BrauerClass, int]
KeyCount = tuple[Hashable, int]
_nonzero = itemgetter(1)


def merge(pairs: Iterable[KeyCount], into: Iterable[KeyCount] = ()) -> tuple[KeyCount, ...]:
    """Add the multiplicities of equal keys of ``pairs`` onto ``into``, an
    already merged run (distinct keys, no zero), drop zeros, sort by key."""
    mult = dict(into)
    get = mult.get
    for kc, k in pairs:
        mult[kc] = get(kc, 0) + k
    merged = sorted(mult.items())
    return tuple(filter(_nonzero, merged)) if 0 in mult.values() else tuple(merged)


def key_pairs(group: BrauerGroup, pairs: Iterable[Count], what: str,
              nonnegative: bool = False) -> list[KeyCount]:
    """The (key, integer) pairs of (class, integer) pairs from outside: each class
    in ``group``, each integer by ``is_int``, and at least 0 when ``nonnegative``."""
    key = group.class_key
    out = []
    for c, k in pairs:
        if c.group is not group and c.group != group:
            raise GroupMismatchError("class outside the declared group model")
        if not is_int(k) or (nonnegative and k < 0):
            raise ValueError(f"{what} must be {'non-negative ' * nonnegative}integers, got {k!r}")
        out.append((key(c), k))
    return out


@dataclass(frozen=True, init=False)
class MotiveSum:
    """A finite multiset of Brauer classes over a single group model.

    ``counts`` may list a class more than once; construction merges equal
    keys and drops zero multiplicities.  ``==`` and ``hash`` compare the
    group and ``key_counts``.
    """

    group: BrauerGroup
    key_counts: tuple[KeyCount, ...]
    rank: int = field(compare=False)  # the sum of the multiplicities

    def __init__(self, group: BrauerGroup, counts: Iterable[Count]) -> None:
        pairs = key_pairs(group, counts, "multiplicities", nonnegative=True)
        self.__dict__.update(group=group, key_counts=merge(pairs), rank=sum(k for _, k in pairs))

    @classmethod
    def _of_keys(cls, group: BrauerGroup, pairs: Iterable[KeyCount], rank: int,
                 into: tuple[KeyCount, ...] = ()) -> "MotiveSum":
        """A sum of rank ``rank`` from checked (key, multiplicity) pairs,
        merged onto the already merged run ``into``; one call, one merge."""
        self = object.__new__(cls)
        fields = self.__dict__
        fields["group"], fields["key_counts"], fields["rank"] = group, merge(pairs, into), rank
        return self

    @classmethod
    def of(cls, group: BrauerGroup, classes: Iterable[BrauerClass]) -> "MotiveSum":
        return cls(group, [(c, 1) for c in classes])

    @cached_property
    def counts(self) -> tuple[Count, ...]:
        """The sorted (class, multiplicity) pairs."""
        at = self.group.class_at
        return tuple([(at(kc), k) for kc, k in self.key_counts])

    @cached_property
    def classes(self) -> tuple[BrauerClass, ...]:
        """The sorted expansion, each class repeated by its multiplicity."""
        return tuple(c for c, k in self.counts for _ in range(k))

    def __len__(self) -> int:
        return self.rank

    def signature(self) -> tuple:
        """Hashable invariant that decides isomorphism.

        Cardinality plus, for each prime dividing some summand's order, the
        merged (p-part key, multiplicity) pairs.  When one prime divides
        every order but the identity's, which the exponent decides once for
        an abstract p-group, the pairs are the sum's own key counts.
        """
        group, key_counts, rank = self.group, self.key_counts, self.rank
        identity = group.identity_key
        if not key_counts or key_counts[-1][0] == identity:  # the identity sorts first
            return (rank, ())
        primes = group.key_primes
        if len(key_counts) == 1:
            ps = primes[key_counts[0][0]]  # ascending already
        elif group.kind == "abstract":
            ps = group.primes()  # every order divides the exponent
        else:
            ps = sorted({p for kc, _ in key_counts for p in primes[kc]})
        if len(ps) > 1:
            p_parts, parts = group.p_part_keys, []
            for p in ps:
                part = p_parts[p]
                mult: dict = {}
                for kc, k in key_counts:
                    kp = part[kc]
                    if kp in mult:
                        mult[kp] += k
                    else:
                        mult[kp] = k
                # Does p divide some summand's order?  A p-part other than
                # the identity says so before the order table is read.
                if len(mult) > 1 or identity not in mult or any(p in primes[kc] for kc, _ in key_counts):
                    parts.append((p, tuple(sorted(mult.items()))))
            if len(parts) > 1:
                return (rank, tuple(parts))
            ps = [p for p, _ in parts]
        # One prime divides the summands' orders: each is its own p-part.
        return (rank, ((ps[0], key_counts),))

    def to_payload(self) -> dict:
        return {"classes": [{**c.to_payload(), "mult": k} for c, k in self.counts]}


def direct_sum(x: MotiveSum, y: MotiveSum) -> MotiveSum:
    """Multiset union; models the direct sum of motives.

    One merge of ``y``'s key counts onto ``x``'s, which are merged already.
    """
    group = x.group if x.group is y.group else common_group(x, y)
    return MotiveSum._of_keys(group, y.key_counts, x.rank + y.rank, into=x.key_counts)


def tensor(x: MotiveSum, y: MotiveSum) -> MotiveSum:
    """Pairwise class sums with multiplicity products; models the product.

    A convolution over the two supports: each pair of distinct keys is added
    once, by ``group.add_keys``, and weighted by the product of multiplicities.
    """
    group = x.group if x.group is y.group else common_group(x, y)
    add = group.add_keys
    return MotiveSum._of_keys(group, [
        (add(a, b), i * j) for a, i in x.key_counts for b, j in y.key_counts
    ], x.rank * y.rank)


def is_isomorphic(x: MotiveSum, y: MotiveSum) -> bool:
    """Same cardinality and, for every prime, equal multisets of p-parts."""
    if x.group is not y.group:
        common_group(x, y)
    return x.signature() == y.signature()

