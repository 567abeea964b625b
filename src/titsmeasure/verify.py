"""Brute-force replay of the structural lemmas on enumerated finite models.

Each suite enumerates (or samples with a fixed seed) configurations on a
finite abstract Brauer-group model and searches them for a witness against
the claimed property.  A multiset state is a sorted tuple of class indices,
and the group's index tables do the arithmetic; the motive sums and ring
normal forms are built from indices too (``_of_keys``), so classes are built
only where a layer takes them (a quadric's Clifford class); witness states
print their coords by the group's ``key_payload``.  Sum cancellation builds
each state's sum once and forms every pair as the direct sum of two of
them, with its own signature; a state's
own signature is kept as the position of the first state signed alike, so
the pair loop compares integers.  Seeded draws come from one stream per
bound (``_draws``), the draws of ``_randbelow``, the sampler under
``choice``, ``randint`` and ``randrange``; streams read nothing ahead, so
they interleave with the rewrite steps' ``_randbelow`` and ``sample`` calls
as the public calls would (a test pins it).
Product matching keys each family by one integer that packs its
decomposition counts in slots as wide as its largest count, and walks the
families depth first in enumeration order: one frame holds a prefix's counts
for every family that extends it.  A ``VerificationRun`` passes exactly
when its search found no witness.  Counterexample witnesses are emitted in
replayable form; reruns with the same parameters are byte-identical.
"""

from __future__ import annotations

import itertools
import math
import random
from collections.abc import Iterable, Iterator

from .brauer import AbstractGroup, ResourceLimitError, check_work, is_int, prime_factors
from .brauer import Record, record_payload
from .measure_ring import RingElement
from .motives import MotiveSum, direct_sum, is_isomorphic, tensor
from .quadforms import FormShadow
from .varieties import Quadric
from .version import VERSION


class VerificationRun(Record):
    suite: str
    params: dict
    witness: dict | None  # None exactly when the search found no counterexample
    details: dict

    @property
    def passed(self) -> bool:
        return self.witness is None

    @property
    def outcome(self) -> str:
        return "pass" if self.passed else "counterexample"

    def to_payload(self) -> dict:
        return record_payload(self, outcome=self.outcome, version=VERSION)


# Each suite prices its run before it enumerates anything and checks the
# price with ``brauer.check_work``.  S_m = C(|G| + m - 1, m) counts the
# multisets of m classes, S sums S_m over the enumerated sizes, and nu is the
# number of primes dividing the group exponent.  Building a sum of up to L
# classes and its signature weighs max(nu, 1) (25 + L) units.  Each suite
# states its formula where it checks it; the totals grow size by size, so a
# huge size is refused at its first step past the limit.


def _state_totals(group: AbstractGroup, sizes: Iterable[int]) -> Iterable[int]:
    """The running count S of multisets of the group's classes over ``sizes``."""
    return itertools.accumulate(math.comb(group.order + m - 1, m) for m in sizes)


def _sum_weight(group: AbstractGroup, size: int) -> int:
    """The units of building a sum of up to ``size`` classes and its signature."""
    return max(len(group.primes()), 1) * (25 + size)


def _at_least(name: str, value: int, least: float = -math.inf) -> None:
    """Refuse a non-integer, or a size or count below its range: malformed input, not a frontier."""
    if not is_int(value):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if value < least:
        raise ValueError(f"{name} must be at least {least}, got {value}")


def _states(group: AbstractGroup, sizes: Iterable[int]) -> list[tuple[int, ...]]:
    """Every multiset of the group's classes of each size in ``sizes``, as
    sorted tuples of indices."""
    indices = range(group.order)
    return [s for m in sizes for s in itertools.combinations_with_replacement(indices, m)]


def _sum_of(group: AbstractGroup, state) -> MotiveSum:
    """The motive sum of a multiset of class indices."""
    return MotiveSum._of_keys(group, [(i, 1) for i in state])


def _collision(pairs: Iterable[tuple]) -> list[int] | None:
    """The first two positions whose image signatures agree while their own
    signatures differ, from (image signature, own signature) pairs.  Each
    image keeps the first (own signature, position) it met."""
    first: dict[tuple, tuple] = {}
    for i, (image, own) in enumerate(pairs):
        seen = first.setdefault(image, (own, i))
        if seen[0] != own:
            return [seen[1], i]
    return None


def _draws(rng: random.Random, n: int) -> Iterator[int]:
    """The draws of ``rng._randbelow(n)``, one a ``next()``: k = n.bit_length()
    bits of ``rng.getrandbits``, drawn again while r >= n, as CPython's
    ``_randbelow_with_getrandbits`` does.  Nothing is read ahead."""
    bits, k = rng.getrandbits, n.bit_length()
    while True:
        r = bits(k)
        if r < n:
            yield r


def _state_payload(group: AbstractGroup, state: Iterable[int]) -> list:
    return [group.key_payload(i)["coords"] for i in sorted(state)]


def _terms_payload(group: AbstractGroup, terms: dict[int, int]) -> list:
    return [[group.key_payload(i)["coords"], k] for i, k in sorted(terms.items())]


# ---------------------------------------------------------------------------
# Relation equivalence: per-prime permutation identifications versus the
# coprime-splitting relations, compared as partitions of fixed-size multisets.
# ---------------------------------------------------------------------------

def _coprime_pairs(group: AbstractGroup) -> int:
    """The number of ordered pairs of nonzero classes with coprime orders.

    Coprime orders leave, prime by prime, one of the two p-parts zero: that
    is 2 |G_p| - 1 pairs of p-parts, less the pairs with a zero class."""
    primary = [math.prod(math.gcd(n, p ** e) for n in group.orders)
               for p, e in prime_factors(group.exponent).items()]
    return math.prod(2 * size - 1 for size in primary) - 2 * group.order + 1


def _coprime_splits(group: AbstractGroup) -> list[list[tuple[int, int]]]:
    """For each index delta, the index pairs (a, a') with a + a' = delta, both
    nonzero with coprime orders, in ascending a; only such pairs are added."""
    add, order = group.add_keys, group.key_order
    coprime = {}  # order -> the nonzero indices of an order coprime to it
    for o in {order[a] for a in range(1, group.order)}:
        coprime[o] = [b for b in range(1, group.order) if math.gcd(o, order[b]) == 1]
    splits: list[list[tuple[int, int]]] = [[] for _ in range(group.order)]
    for a in range(1, group.order):
        for b in coprime[order[a]]:
            splits[add(a, b)].append((a, b))
    return splits


def _rewrites(group: AbstractGroup, splits: list, state: tuple[int, ...]) -> list[tuple[int, ...]]:
    """The states one pair rewrite {b, o} -> {b + a, b + a'} away from
    ``state``, where ``splits[o - b]`` lists the splits (a, a')."""
    add, neg = group.add_keys, group.neg_keys
    out = []
    for i, j in itertools.combinations(range(len(state)), 2):
        for base_i, other_i in ((i, j), (j, i)):
            base, other = state[base_i], state[other_i]
            for a, b in splits[add(other, neg[base])]:
                rest = list(state)
                del rest[max(i, j)], rest[min(i, j)]
                rest.extend((add(base, a), add(base, b)))
                out.append(tuple(sorted(rest)))
    return out


def _relation_witness(group: AbstractGroup, m_max: int, details: dict) -> dict | None:
    """A multiset pair on which the two partitions disagree; with none, the
    states checked per size go into ``details``."""
    splits = _coprime_splits(group)
    states_checked: dict[str, int] = {}
    for m in range(1, m_max + 1):
        states = _states(group, (m,))
        states_checked[str(m)] = len(states)
        index = {s: i for i, s in enumerate(states)}

        # BFS components under the split rewrites.
        component = {}
        for start in range(len(states)):
            if start in component:
                continue
            component[start], queue = start, [start]
            while queue:
                for key in _rewrites(group, splits, states[queue.pop()]):
                    nxt = index[key]
                    if nxt not in component:
                        component[nxt] = start
                        queue.append(nxt)

        signature = [_sum_of(group, s).signature() for s in states]
        by_component: dict[int, list] = {}
        by_signature: dict[tuple, list] = {}
        for i in range(len(states)):
            by_component.setdefault(component[i], []).append(i)
            by_signature.setdefault(signature[i], []).append(i)
        # The partitions differ exactly when a signature block is split across
        # components or a component spans several signatures.
        for sig_block in by_signature.values():
            comps = {component[i] for i in sig_block}
            if len(comps) > 1:
                picks = sorted(min(i for i in sig_block if component[i] == c) for c in comps)
                pair = [_state_payload(group, states[p]) for p in picks[:2]]
                return {"m": m, "same_signature_not_connected": pair}
        for first, *rest in by_component.values():
            other = next((i for i in rest if signature[i] != signature[first]), None)
            if other is not None:
                pair = [_state_payload(group, states[p]) for p in (first, other)]
                return {"m": m, "connected_but_different_signature": pair}
    details["states_checked"] = states_checked
    return None


def verify_relation_equivalence(group: AbstractGroup, m_max: int = 3) -> VerificationRun:
    """The split relations generate exactly per-prime multiset equality.

    For every multiset size up to m_max, the partition of multisets into
    breadth-first components under pair rewrites {b, o} -> {b+a, b+a'} (where
    o - b = a + a' splits into nonzero parts of coprime order) must coincide
    with the partition by normal form (``MotiveSum.signature``).  The
    components never read the normal form; tier-1 ties its partition to a
    per-prime p-part oracle.
    """
    params = {"group": group.to_payload(), "m_max": m_max}
    _at_least("m_max", m_max, 1)
    # The split table: a scan of the |G| classes for each of at most
    # d(exponent) orders, then the pairs it adds, the nonzero pairs of coprime
    # orders, each summed over the r cyclic factors (18 + 2 r units).  Every
    # class is a state of size 1, so with nu >= 2 each fills its p-part in
    # nu tables, over r factors.  Then per state of size m its sum, m (m - 1)
    # ordered pairs and up to 2^nu - 2 rewrites of m classes per pair (the
    # splits of a difference follow its primes); from size 2 on, the pairs
    # take the difference of every two classes, |G|^2 sums on a cold table.
    order, nu, r = group.order, len(group.primes()), len(group.orders)
    splits = max(2 ** nu - 2, 0)
    divisors = math.prod(e + 1 for e in prime_factors(group.exponent).values())
    fills = nu * (20 + 2 * r) if nu >= 2 else 0
    table = order * (divisors + fills) + (18 + 2 * r) * _coprime_pairs(group)
    check_work("relation-equivalence", itertools.accumulate((
        math.comb(order + m - 1, m)
        * (_sum_weight(group, m) + 50 + m * (m - 1) * (2 + splits * (6 + m)))
        + (15 * order * order if m == 2 else 0)
        for m in range(1, m_max + 1)), initial=table))
    details: dict = {}
    witness = _relation_witness(group, m_max, details)
    return VerificationRun("relation-equivalence", params, witness, details)


# ---------------------------------------------------------------------------
# Direct-sum cancellation.
# ---------------------------------------------------------------------------

def _sum_witness(group: AbstractGroup, card_max: int, trials: int, seed: int) -> dict | None:
    states = _states(group, range(card_max + 1))
    sums = [_sum_of(group, s) for s in states]
    # A state's own signature, as the position of the first state signed alike.
    first_signed: dict[tuple, int] = {}
    own = [first_signed.setdefault(s.signature(), i) for i, s in enumerate(sums)]
    for n_state, n_sum in zip(states, sums):
        # Each pair builds its own direct sum, merged from the two state sums,
        # and its own signature: never sig(x) + sig(n).  As in ``_collision``,
        # each image keeps the first position it met, and a position signed
        # unlike its image's first is a witness.
        first: dict[tuple, int] = {}
        keep = first.setdefault
        for i, x_sum in enumerate(sums):
            j = keep(direct_sum(x_sum, n_sum).signature(), i)
            if own[j] != own[i]:
                x, y, n = states[j], states[i], n_state
                return {name: _state_payload(group, s) for name, s in (("x", x), ("y", y), ("n", n))}

    # The draws of rng.randint(0, card_max) and rng.choice(range(order)).
    rng = random.Random(seed)
    size, classes = _draws(rng, card_max + 1), _draws(rng, group.order)
    for _ in range(trials):
        x = list(itertools.islice(classes, next(size)))
        y = list(itertools.islice(classes, len(x)))
        n = list(itertools.islice(classes, next(size)))
        xs, ys, ns = (_sum_of(group, s) for s in (x, y, n))
        if is_isomorphic(direct_sum(xs, ns), direct_sum(ys, ns)) != is_isomorphic(xs, ys):
            return {name: _state_payload(group, s) for name, s in (("x", x), ("y", y), ("n", n))}
    return None


def verify_sum_cancellation(
    group: AbstractGroup,
    *,
    card_max: int = 3,
    trials: int = 200,
    seed: int = 7,
) -> VerificationRun:
    """x + n iso y + n exactly when x iso y, on enumerated multisets.

    Exhaustive part: for every pair (x, n) of multisets of size <= card_max,
    bucket x by the signature of x + n; each bucket must be a single
    signature class of x.  Random part: seeded triples re-checked through the
    full multiset construction in both directions.
    """
    params = {"group": group.to_payload(), "card_max": card_max, "trials": trials, "seed": seed}
    _at_least("card_max", card_max, 1)
    _at_least("trials", trials, 0)
    _at_least("seed", seed)  # any integer: a rerun draws the same trials
    # S + S^2 sums of up to 2 card_max classes, and 5 sums per trial.
    weight = _sum_weight(group, 2 * card_max)
    check_work("sum-cancellation", ((s + s * s + 5 * trials) * weight
                                     for s in _state_totals(group, range(card_max + 1))))
    witness = _sum_witness(group, card_max, trials, seed)
    return VerificationRun("sum-cancellation", params, witness, {})


# ---------------------------------------------------------------------------
# Tensor cancellation by a quadric factor.
# ---------------------------------------------------------------------------

def _tensor_witness(group: AbstractGroup, n_dim: int, card_max: int) -> dict | None:
    two_torsion = [i for i in range(group.order) if group.key_order[i] <= 2]
    states = _states(group, range(1, card_max + 1))
    for c in map(group.class_at, two_torsion):
        qc = Quadric(FormShadow(n_dim, c)).jt_classes()
        xs = (_sum_of(group, s) for s in states)
        hit = _collision((tensor(x, qc).signature(), x.signature()) for x in xs)
        if hit:
            return {
                "c": list(c.coords),
                "n_dim": n_dim,
                "x": _state_payload(group, states[hit[0]]),
                "y": _state_payload(group, states[hit[1]]),
            }
    return None


def verify_tensor_cancellation(
    group: AbstractGroup, n_dim: int = 6, *, card_max: int = 3
) -> VerificationRun:
    """Tensoring by a quadric multiset is injective on iso classes (n >= 5).

    Also runs the same enumeration at form dimension 4 and reports the result
    without asserting it; the hypothesis excludes that case and the probe
    documents why.
    """
    params = {"group": group.to_payload(), "n_dim": n_dim, "card_max": card_max}
    if n_dim < 5:
        raise ValueError(f"tensor cancellation is asserted only for n >= 5, got {n_dim}")
    _at_least("card_max", card_max, 1)
    # Per 2-torsion class, at n and at n = 4, S steps: a sum of up to card_max
    # classes, its tensor with the quadric's (up to 2 card_max classes, each
    # added on a table that may be cold) and both signatures.
    two_torsion = 2 ** sum(n % 2 == 0 for n in group.orders)
    weight = _sum_weight(group, card_max) + _sum_weight(group, 2 * card_max) + 48 * card_max
    check_work("tensor-cancellation", (2 * two_torsion * s * weight
                                        for s in _state_totals(group, range(1, card_max + 1))))
    witness = _tensor_witness(group, n_dim, card_max)
    probe = _tensor_witness(group, 4, card_max)
    return VerificationRun("tensor-cancellation", params, witness,
                           {"n4_probe": {"holds": probe is None, "witness": probe}})


# ---------------------------------------------------------------------------
# Quadric product matching: the subset-decomposition multiset determines the
# family of Clifford classes, for m <= 5.
# ---------------------------------------------------------------------------

def _matching_keys(d_max: int, m: int, n_dim: int) -> Iterator[tuple[tuple[int, ...], int]]:
    """Each family of m classes of (Z/2)^d_max with its decomposition key.

    The key packs the family's 2^d_max decomposition counts into one integer,
    count x in bits [w x, w x + w).  The counts of a prefix grow by one class
    e as acc'[x] = q acc[x] + copies acc[x ^ e], so the counts of a family sum
    to (q + copies)^m and w, the bit length of that sum, holds each of them;
    keys are compared only within one call.  The walk is depth first, one
    frame a prefix, so the families come in ``combinations_with_replacement``
    order and each prefix's counts are built once."""
    size = 1 << d_max
    copies = 2 if n_dim % 2 == 0 else 1
    q = n_dim - 2
    slot = ((q + copies) ** m).bit_length()
    # Moving every count x to x ^ (1 << b) swaps the blocks of 2^b slots
    # whose index has bit b clear with the blocks just above them.
    low_blocks = [sum(((1 << slot) - 1) << (slot * x) for x in range(size) if not x >> b & 1)
                  for b in range(d_max)]

    def xor_image(images: list, e: int) -> int:
        # images[e] is the prefix's counts with count x moved to x ^ e; each
        # is one block swap of the image of e with its lowest bit cleared.
        low = e & -e
        src = images[e ^ low]
        if src is None:
            src = xor_image(images, e ^ low)
        width, mask = slot * low, low_blocks[low.bit_length() - 1]
        image = images[e] = (src & mask) << width | (src >> width) & mask
        return image

    def walk(family: tuple[int, ...], start: int, acc: int) -> Iterator[tuple[tuple[int, ...], int]]:
        # One frame a prefix: its packed counts acc and their XOR images,
        # built on demand.  The next class runs from the prefix's last one up.
        images = [acc] + [None] * (size - 1)
        last = len(family) == m - 1
        for e in range(start, size):
            image = images[e]
            if image is None:
                image = xor_image(images, e)
            counts = q * acc + copies * image
            if last:
                yield family + (e,), counts
            else:
                yield from walk(family + (e,), e, counts)

    return walk((), 0, 1)


def _matching_witness(d_max: int, m: int, n_dim: int, details: dict) -> dict | None:
    """Two families with one product decomposition; with none, the number of
    families checked goes into ``details``."""
    seen: dict[int, tuple[int, ...]] = {}
    for family, key in _matching_keys(d_max, m, n_dim):
        other = seen.setdefault(key, family)
        if other != family:
            return {
                "family_a": [_bits(e, d_max) for e in other],
                "family_b": [_bits(e, d_max) for e in family],
            }
    details["families"] = len(seen)
    return None


def _bits(e: int, width: int) -> list[int]:
    return [(e >> i) & 1 for i in range(width)]


def verify_quadric_product_matching(d_max: int = 4, m: int = 3, n_dim: int = 6) -> VerificationRun:
    """Distinct class families give distinct product decompositions.

    Enumerates all size-m multisets of classes in (Z/2)^d_max; for each, the
    product of m quadrics of dimension n_dim decomposes over subsets S with
    copies^|S| (n_dim-2)^(m-|S|) summands of the subset sum.  The decomposition
    key must be injective across families, which is exactly the class-level
    form of the matching statement.
    """
    params = {"d_max": d_max, "m": m, "n_dim": n_dim}
    if not (is_int(m) and is_int(n_dim)):
        raise ValueError(f"m and n_dim must be integers, got {m!r} and {n_dim!r}")
    if n_dim < 5:
        raise ValueError(f"product matching applies to form dimension >= 5, got {n_dim}")
    if m < 1 or m > 5:
        raise ValueError(f"product matching is proved for 1 <= m <= 5, got {m}")
    _at_least("d_max", d_max, 0)
    if d_max > 6:
        raise ResourceLimitError(f"d_max must be between 0 and 6, got {d_max}")
    if n_dim ** m >= 1 << 63:
        raise ResourceLimitError(f"product matching needs n_dim^m < 2^63, got {n_dim}^{m}")
    # C(2^d_max + m - 1, m) families, each with 2^m subset sums and a key of
    # 2^d_max counts.  The packed walk does less than this a family; the
    # price is kept, so the frontier stays where it was.
    families = math.comb((1 << d_max) + m - 1, m)
    check_work("quadric-product-matching", [families * (8 + (1 << m) // 2 + (1 << d_max) // 4)])
    details: dict = {}
    witness = _matching_witness(d_max, m, n_dim, details)
    return VerificationRun("quadric-product-matching", params, witness, details)


# ---------------------------------------------------------------------------
# Normal-form confluence: random rewrite orders all reach the same endpoint.
# ---------------------------------------------------------------------------

_COEFFICIENTS = (-3, -2, -1, 1, 2, 3)


def _raw_streams(group: AbstractGroup, rng: random.Random) -> tuple[Iterator, Iterator]:
    """The streams of ``_random_raw_element``: the draws of rng.randint(1, 4)
    less 1, and of (rng.randrange(order), rng.choice(_COEFFICIENTS)) pairs."""
    return _draws(rng, 4), zip(_draws(rng, group.order), map(_COEFFICIENTS.__getitem__, _draws(rng, 6)))


def _random_raw_element(count: Iterator[int], terms: Iterator[tuple[int, int]]) -> dict[int, int]:
    """A random element of the group ring, as {class index: coefficient}."""
    out: dict = {}
    for i, k in itertools.islice(terms, 1 + next(count)):
        out[i] = out.get(i, 0) + k
    return {i: k for i, k in out.items() if k}


def _rewrite_once(group: AbstractGroup, raw: dict[int, int], rng: random.Random) -> bool:
    """Apply one random coprime-split rewrite in place; False when none apply."""
    add, neg, primes_of = group.add_keys, group.neg_keys, group.key_primes
    candidates = [c for c, k in raw.items() if k and len(primes_of[c]) >= 2]
    if not candidates:
        return False
    # The draws of rng.choice(candidates) and rng.randint(1, len(primes) - 1).
    below = rng._randbelow
    c = candidates[below(len(candidates))]
    primes = primes_of[c]
    cut = 1 + below(len(primes) - 1)
    chosen = rng.sample(primes, cut)
    a = 0
    for p in chosen:
        a = add(a, group.p_part_keys[p][c])
    b = add(c, neg[a])
    sign = 1 if raw[c] > 0 else -1
    for i, delta in ((c, -sign), (a, sign), (b, sign), (0, -sign)):
        raw[i] = raw.get(i, 0) + delta
        if not raw[i]:
            del raw[i]
    return True


def _confluence_witness(group: AbstractGroup, trials: int, seed: int) -> dict | None:
    rng = random.Random(seed)
    streams = _raw_streams(group, rng)
    for t in range(trials):
        raw = _random_raw_element(*streams)
        expected = dict(RingElement._of_keys(group, raw.items()).key_terms)
        work = dict(raw)
        steps = 0
        while _rewrite_once(group, work, rng):
            steps += 1
            if steps > 10_000:
                raise AssertionError("rewriting failed to terminate")
        if work != expected:
            return {
                "trial": t,
                "start": _terms_payload(group, raw),
                "reached": _terms_payload(group, work),
                "expected": _terms_payload(group, expected),
            }
    return None


def verify_normal_form_confluence(
    group: AbstractGroup, trials: int = 1000, seed: int = 11
) -> VerificationRun:
    """Random rewrite sequences terminate at the canonical normal form."""
    params = {"group": group.to_payload(), "trials": trials, "seed": seed}
    _at_least("trials", trials, 1)  # the trials are all this suite checks
    _at_least("seed", seed)
    # A trial rewrites up to 4 terms into their p-parts, on tables that may be cold.
    check_work("normal-form-confluence", [trials * 100 * (len(group.primes()) + 1) ** 2])
    witness = _confluence_witness(group, trials, seed)
    return VerificationRun("normal-form-confluence", params, witness, {})
