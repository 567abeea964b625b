"""Multisets of Brauer classes standing for direct sums of twisted Tate motives.

A ``MotiveSum`` stores its simple summands as ``key_counts``: (class key,
multiplicity) pairs sorted by key, the key being ``group.class_key`` (the
index for abstract groups, the residue tuple ``RationalClass.key`` over Q).
``rank``, the sum of the multiplicities, is read off ``key_counts``; ``len``
returns it too, up to 2^63 - 1, the most Python's ``len`` allows.  Only
``counts`` and ``classes`` (the sorted expansion) hold class objects, built
with ``group.class_at`` when first read, once per sum; ``to_payload`` prints
each key by the group's ``key_payload``.  Two sums are isomorphic exactly
when, prime by prime, they have the same multiset of p-primary parts, which
is when their images in the ``measure_ring`` quotient agree.  So
``signature`` is that image: ``normal_form``, the one routine
``RingElement`` calls too, splits each key whose order has several primes
into its p-parts less identities.  The coefficient of a class x of p-power order then counts the
summands with p-part x, and the rank is the sum of the coefficients.  The
primes and p-parts of each key come from the group's tables (``key_primes``,
``p_part_keys``), so no class is built; over a p-group (the group's
``p_group`` flag, decided once for the group) a sum signs by its own key
counts, read by ``signature`` itself (``normal_form`` checks the flag too,
for ``RingElement``).  Tate twists carry no information here and are not
stored.  Cost follows the distinct keys, not the rank.  ``key_pairs`` keys
the (class, integer) pairs of a sum or of a ``measure_ring`` element.
``merge``, the one multiset sum of sums and of normal forms, can add pairs
onto an already merged run, so ``direct_sum`` merges one sum's key counts
onto the other's.  It folds a short run, as nearly every run of a verify
pass is, in one sort, and sums a long one (a product step's, up to 16,384
pairs) in a dict.  Every sum is built by one call writing the merged fields.
"""

from __future__ import annotations

from collections.abc import Hashable, Iterable
from functools import cached_property
from operator import itemgetter

from .brauer import BrauerClass, BrauerGroup, GroupMismatchError, Record, common_group, is_int

Count = tuple[BrauerClass, int]
KeyCount = tuple[Hashable, int]
_mult = itemgetter(1)  # the multiplicity of a (key, multiplicity) pair
# The longest run ``merge`` folds in one sort.  Up to here sorting the pairs
# beats a dict's build, sort and zero scan; from 8-16 pairs with repeated
# keys on, the dict wins (0.31 against 2.2 ms at 8,192 pairs over 64 keys).
SHORT_RUN = 8


def merge(pairs: Iterable[KeyCount], into: Iterable[KeyCount] = ()) -> tuple[KeyCount, ...]:
    """Add the multiplicities of equal keys of ``pairs`` onto ``into``, an
    already merged run (distinct keys, no zero), drop zeros, sort by key.

    A run ``into`` then ``pairs`` of at most ``SHORT_RUN`` pairs is sorted,
    and each pair folded into the last kept entry when their keys are equal.
    A longer run is summed in a dict.  A long list of pairs is summed onto
    ``dict(into)`` where it is: a copy would touch every pair once more."""
    if pairs.__class__ is not list or len(pairs) <= SHORT_RUN:
        run = [*into, *pairs]
        if len(run) <= SHORT_RUN:
            run.sort()
            out = []
            for pair in run:
                if out and out[-1][0] == pair[0]:
                    k = out[-1][1] + pair[1]
                    if k:
                        out[-1] = (pair[0], k)
                    else:
                        del out[-1]
                elif pair[1]:
                    out.append(pair)
            return tuple(out)
        pairs, into = run, ()
    mult = dict(into)
    get = mult.get
    for kc, k in pairs:
        mult[kc] = get(kc, 0) + k
    merged = sorted(mult.items())
    return tuple(filter(_mult, merged)) if 0 in mult.values() else tuple(merged)


def normal_form(group: BrauerGroup, merged: tuple[KeyCount, ...]) -> tuple[KeyCount, ...]:
    """The normal form of the already merged run ``merged``: each key whose
    order has nu >= 2 primes becomes its p-parts less nu - 1 identities.
    Over a p-group every key is primary, so the run is returned."""
    if group.p_group:
        return merged
    primes, p_parts, identity = group.key_primes, group.p_part_keys, group.identity_key
    out = []
    for kc, k in merged:
        ps = primes[kc]
        if len(ps) < 2:
            out.append((kc, k))
        else:
            out += [(p_parts[p][kc], k) for p in ps]
            out.append((identity, k * (1 - len(ps))))
    return merge(out) if len(out) > len(merged) else merged


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


class MotiveSum(Record):
    """A finite multiset of Brauer classes over a single group model.

    ``counts`` may list a class more than once; construction merges equal
    keys and drops zero multiplicities.
    """

    group: BrauerGroup
    key_counts: tuple[KeyCount, ...]

    def __init__(self, group: BrauerGroup, counts: Iterable[Count]) -> None:
        pairs = key_pairs(group, counts, "multiplicities", nonnegative=True)
        self.__dict__.update(group=group, key_counts=merge(pairs))

    @classmethod
    def _of_keys(cls, group: BrauerGroup, pairs: Iterable[KeyCount]) -> "MotiveSum":
        """A sum from checked (key, multiplicity) pairs; one call, one merge."""
        self = object.__new__(cls)
        fields = self.__dict__
        fields["group"], fields["key_counts"] = group, merge(pairs)
        return self

    @classmethod
    def of(cls, group: BrauerGroup, classes: Iterable[BrauerClass]) -> "MotiveSum":
        return cls(group, [(c, 1) for c in classes])

    @cached_property
    def rank(self) -> int:
        """The number of summands: the sum of the multiplicities."""
        return sum(map(_mult, self.key_counts))

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

    def signature(self) -> tuple[KeyCount, ...]:
        """The invariant that decides isomorphism: the sum's normal form."""
        group = self.group
        return self.key_counts if group.p_group else normal_form(group, self.key_counts)

    def to_payload(self) -> dict:
        payload = self.group.key_payload
        return {"classes": [{**payload(kc), "mult": k} for kc, k in self.key_counts]}


def direct_sum(x: MotiveSum, y: MotiveSum) -> MotiveSum:
    """Multiset union; models the direct sum of motives.

    One merge of ``y``'s key counts onto ``x``'s, which are merged already.
    """
    group = x.group if x.group is y.group else common_group(x, y)
    out = object.__new__(MotiveSum)
    fields = out.__dict__
    fields["group"], fields["key_counts"] = group, merge(y.key_counts, x.key_counts)
    return out


def tensor(x: MotiveSum, y: MotiveSum) -> MotiveSum:
    """Pairwise class sums with multiplicity products; models the product.

    A convolution over the two supports: each pair of distinct keys is added
    once, by ``group.add_keys``, and weighted by the product of multiplicities.
    """
    group = x.group if x.group is y.group else common_group(x, y)
    add = group.add_keys
    return MotiveSum._of_keys(group, [
        (add(a, b), i * j) for a, i in x.key_counts for b, j in y.key_counts
    ])


def is_isomorphic(x: MotiveSum, y: MotiveSum) -> bool:
    """Equal normal forms: for every prime, equal multisets of p-parts."""
    if x.group is not y.group:
        common_group(x, y)
    return x.signature() == y.signature()

