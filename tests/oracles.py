"""Independent brute-force oracles for pinning derived values.

Nothing here calls the library's closed forms.  Local solvability is decided
by enumerating primitive solutions modulo a Hensel-sufficient prime power;
box weights by direct partition enumeration; finite-group arithmetic, the
per-prime isomorphism signature and test by coordinate loops over the
expanded multiset, or class by class, and decoded from a key normal form;
the ring normal form class by class; sigma1 by its displayed two-term
formula; every sigma kind by its literal sum over r; the even-Clifford
class by the pairwise Fraction formula over trial division; a document's
rational by ``Fraction``'s string parser alone;
Br(Q) class arithmetic on Fraction residues, place by place; the
product-matching keys family by family, as lists of int64 counts; a
printed class from its key alone, an abstract index by its mixed-radix
digits and a rational residue by ``str(Fraction)``.
"""

from __future__ import annotations

import array
import itertools
import math
from collections import Counter
from fractions import Fraction
from functools import lru_cache

from titsmeasure.brauer import RationalClass, is_int
from titsmeasure.rationals import MAX_DECIMAL_EXPONENT, MAX_RATIONAL_CHARS


def _is_squarefree(x: int) -> bool:
    x = abs(x)
    if x == 0:
        return False
    d = 2
    while d * d <= x:
        if x % (d * d) == 0:
            return False
        d += 1
    return True


@lru_cache(maxsize=None)
def _square_value_masks(coef: int, p: int) -> tuple[int, int, int]:
    """Bitmask encodings of {coef * t^2 mod p^N} over t mod p^N.

    Returns (all_mask, unit_mask, modulus) where bit v is set when some t
    (resp. some unit t) attains the value v.  N = 3 for odd p and 6 for
    p = 2 is enough to decide solvability for squarefree coefficients: a
    primitive solution mod p^N has a unit coordinate whose partial
    derivative 2*coef*t has valuation <= 1 (odd p) or <= 2 (p = 2), so
    Hensel lifting applies; conversely any p-adic solution reduces.
    """
    modulus = p ** (6 if p == 2 else 3)
    all_mask = 0
    unit_mask = 0
    for t in range(modulus):
        v = (coef * t * t) % modulus
        all_mask |= 1 << v
        if t % p:
            unit_mask |= 1 << v
    return all_mask, unit_mask, modulus


def _shifted_hits(target_mask: int, shift: int, modulus: int, other_mask: int) -> bool:
    """Whether (target - shift mod modulus) intersects other."""
    full = (1 << modulus) - 1
    rotated = ((target_mask >> shift) | (target_mask << (modulus - shift))) & full
    return bool(rotated & other_mask)


def _mask_bits(mask: int):
    value = 0
    while mask:
        if mask & 1:
            yield value
        mask >>= 1
        value += 1


def hilbert_oracle(a: int, b: int, place) -> int:
    """Hilbert symbol by primitive-solution search for a x^2 + b y^2 = z^2.

    Only valid for nonzero squarefree integers; asserts that domain.
    """
    if not (_is_squarefree(a) and _is_squarefree(b)):
        raise ValueError("oracle domain is nonzero squarefree integers")
    if place == "real":
        return -1 if a < 0 and b < 0 else 1
    p = place
    a_all, a_unit, modulus = _square_value_masks(a % (p ** (6 if p == 2 else 3)), p)
    b_all, b_unit, _ = _square_value_masks(b % modulus, p)
    c_all, c_unit, _ = _square_value_masks(1, p)
    # A primitive triple has x, y, or z a unit; check the three strata.
    for r in _mask_bits(a_unit):
        if _shifted_hits(c_all, r, modulus, b_all):
            return 1
    for s in _mask_bits(b_unit):
        if _shifted_hits(c_all, s, modulus, a_all):
            return 1
    for r in _mask_bits(a_all):
        if _shifted_hits(c_unit, r, modulus, b_all):
            return 1
    return -1


def trial_factors(n: int) -> dict:
    """{prime: exponent} of a positive integer by trial division."""
    out: dict = {}
    d = 2
    while d * d <= n:
        while n % d == 0:
            out[d] = out.get(d, 0) + 1
            n //= d
        d += 1
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def fraction_by_parser(value: object, context: str) -> Fraction:
    """A document's rational as ``rationals.read_rational`` read it before
    integer strings skipped the parser: every string through the length cap,
    the exponent check and ``Fraction``'s own string parser."""
    if not (isinstance(value, str) or is_int(value)):
        raise ValueError(f"{context}: expected a rational string or an integer, got {value!r}")
    text = value if isinstance(value, str) else str(value)
    if len(text) > MAX_RATIONAL_CHARS:
        raise ValueError(f"{context}: a rational has at most {MAX_RATIONAL_CHARS} characters")
    _, e, exponent = text.lower().partition("e")
    try:
        too_big = bool(e) and abs(int(exponent)) > MAX_DECIMAL_EXPONENT
    except ValueError:
        too_big = False  # not an exponent; Fraction rejects the string below
    if too_big:
        raise ValueError(
            f"{context}: a decimal exponent has magnitude at most {MAX_DECIMAL_EXPONENT}"
        )
    try:
        return Fraction(value)
    except ZeroDivisionError:
        raise ValueError(f"{context}: zero denominator in {value!r}")
    except ValueError:
        raise ValueError(f"{context}: not a rational number: {value!r}")


# ---------------------------------------------------------------------------
# The even-Clifford class as the closed formula reads, pair by pair: the
# Hilbert symbol by its per-place formula over Fractions, each quaternion
# class (a_i, a_j) built and summed, then the n mod 8 correction.
# ---------------------------------------------------------------------------


def _valuation(x: Fraction, p: int) -> int:
    v = 0
    num, den = x.numerator, x.denominator
    while num % p == 0:
        num //= p
        v += 1
    while den % p == 0:
        den //= p
        v -= 1
    return v


def _unit_residue(x: Fraction, modulus: int) -> int:
    return x.numerator * pow(x.denominator, -1, modulus) % modulus


def hilbert_fraction(a: Fraction, b: Fraction, place) -> int:
    """(a, b) at a place, from valuations and unit residues of Fractions."""
    if place == "real":
        return -1 if a < 0 and b < 0 else 1
    p = place
    alpha, beta = _valuation(a, p), _valuation(b, p)
    u, v = a / Fraction(p) ** alpha, b / Fraction(p) ** beta
    if p != 2:
        sign = 1
        if alpha * beta * ((p - 1) // 2) % 2:
            sign = -sign
        if beta % 2 and pow(_unit_residue(u, p), (p - 1) // 2, p) != 1:
            sign = -sign
        if alpha % 2 and pow(_unit_residue(v, p), (p - 1) // 2, p) != 1:
            sign = -sign
        return sign
    ru, rv = _unit_residue(u, 8), _unit_residue(v, 8)
    eps_u, eps_v = (ru - 1) // 2 % 2, (rv - 1) // 2 % 2
    omega_u, omega_v = (ru * ru - 1) // 8 % 2, (rv * rv - 1) // 8 % 2
    return -1 if (eps_u * eps_v + alpha * omega_v + beta * omega_u) % 2 else 1


def pairwise_quaternion_class(a, b):
    """The class (a, b), ramified where the Fraction formula gives -1."""
    a, b = Fraction(a), Fraction(b)
    odd = set()
    for x in (a, b):
        odd.update(p for p in trial_factors(abs(x.numerator * x.denominator)) if p != 2)
    places = ["real", 2, *sorted(odd)]
    return RationalClass(tuple(
        (v, Fraction(1, 2)) for v in places if hilbert_fraction(a, b, v) == -1
    ))


def pairwise_hasse(entries):
    """Sum over i < j of the quaternion classes (a_i, a_j)."""
    total = RationalClass(())
    for i, j in itertools.combinations(range(len(entries)), 2):
        total = total + pairwise_quaternion_class(entries[i], entries[j])
    return total


def pairwise_clifford(entries):
    """Hasse invariant plus the quaternion correction keyed by n mod 8."""
    n = len(entries)
    det = math.prod((Fraction(a) for a in entries), start=Fraction(1))
    residue = n % 8
    total = pairwise_hasse(entries)
    if residue in (3, 4):
        total = total + pairwise_quaternion_class(-1, -det)
    elif residue in (5, 6):
        total = total + pairwise_quaternion_class(-1, -1)
    elif residue in (7, 0):
        total = total + pairwise_quaternion_class(-1, det)
    return total


def squarefree_corpus(bound: int) -> list[int]:
    return [x for x in range(-bound, bound + 1) if x and _is_squarefree(x)]


def box_partition_weights(d: int, e: int) -> Counter:
    """Multiset of |lambda| over partitions lambda inside a d x e box.

    Enumerated directly: a partition with at most d parts each at most e is
    a nondecreasing d-tuple over 0..e.
    """
    out: Counter = Counter()
    for parts in itertools.combinations_with_replacement(range(e + 1), d):
        out[sum(parts)] += 1
    return out


def bfs_subgroup(gens, identity) -> frozenset:
    """The subgroup generated by ``gens``, closed breadth first from the
    identity under adding each generator and its negation."""
    steps = set(gens) | {-g for g in gens}
    known = {identity}
    frontier = [identity]
    while frontier:
        nxt = []
        for x in frontier:
            for g in steps:
                y = x + g
                if y not in known:
                    known.add(y)
                    nxt.append(y)
        frontier = nxt
    return frozenset(known)


# ---------------------------------------------------------------------------
# Reference arithmetic for finite abelian groups Z/n_1 x ... x Z/n_k, as
# coordinate loops.  The library serves these from per-group tables.
# ---------------------------------------------------------------------------


def crt_p_component(c: int, n: int, p: int) -> int:
    """The p-primary component of c in Z/n: = c mod p^a, = 0 mod n/p^a."""
    a = 0
    m = n
    while m % p == 0:
        m //= p
        a += 1
    if a == 0:
        return 0
    pa = p**a
    return (c * m * pow(m, -1, pa)) % n


def coords_p_part(coords, orders, p: int) -> tuple:
    return tuple(crt_p_component(c, n, p) for c, n in zip(coords, orders))


def coords_order(coords, orders) -> int:
    """lcm over the coordinates of n / gcd(n, c)."""
    return math.lcm(*(n // math.gcd(n, c) for c, n in zip(coords, orders)), 1)


def coords_add(a, b, orders) -> tuple:
    return tuple((x + y) % n for x, y, n in zip(a, b, orders))


def coords_neg(a, orders) -> tuple:
    return tuple(-x % n for x, n in zip(a, orders))


def coords_multiple(a, orders, k: int) -> tuple:
    return tuple(k * x % n for x, n in zip(a, orders))


def _primes_of(n: int) -> list:
    return list(trial_factors(n))


def list_signature(coord_list, orders) -> tuple:
    """Isomorphism signature of a multiset of coordinate tuples.

    The list algorithm over the full expansion: for each prime dividing some
    class order, the sorted multiset of p-parts with their counts; plus the
    cardinality.
    """
    primes = sorted({p for c in coord_list for p in _primes_of(coords_order(c, orders))})
    parts = []
    for p in primes:
        counts = Counter(coords_p_part(c, orders, p) for c in coord_list)
        parts.append((p, tuple(sorted(counts.items()))))
    return (len(coord_list), tuple(parts))


# Each distinct p-part class gets an integer token, its index in _PARTS.
_PARTS: list = []
_TOKENS: dict = {}


def _token(part) -> int:
    if part not in _TOKENS:
        _TOKENS[part] = len(_PARTS)
        _PARTS.append(part)
    return _TOKENS[part]


class _ClassParts(dict):
    """key -> (primes, {p: token of the p-part}) of the class at that key,
    read from the class object the first time the key is asked for."""

    def __init__(self, group) -> None:
        super().__init__()
        self.group = group
        self.identity = _token(group.identity())

    def __missing__(self, key):
        c = self.group.class_at(key)
        value = self[key] = c.primes(), {p: _token(c.p_part(p)) for p in c.primes()}
        return value


@lru_cache(maxsize=None)
def _class_parts(group) -> _ClassParts:
    return _ClassParts(group)


def class_signature(ms) -> tuple:
    """The class-based isomorphism signature of a ``MotiveSum``: its rank and,
    for each prime dividing some summand's order, the Counter of the
    summands' p-parts (the identity where p does not divide the order), read
    from the class objects.  Each class's primes and p-parts are computed
    once per group and class."""
    table = _class_parts(ms.group)
    info = [(table[kc], k) for kc, k in ms.key_counts]
    parts = {}
    for p in sorted({p for (primes, _), _ in info for p in primes}):
        tokens: dict = {}
        for (_, part_at), k in info:
            t = part_at.get(p, table.identity)
            tokens[t] = tokens.get(t, 0) + k
        counter = parts[p] = Counter()
        for t, k in tokens.items():
            counter[_PARTS[t]] = k
    return len(ms), parts


def class_normal_form(group, terms) -> dict:
    """The ring normal form of (class, coefficient) pairs, class by class: a
    class whose order has nu >= 2 primes becomes its p-parts ``c.p_part(p)``
    minus nu - 1 identities.  Zero coefficients are dropped."""
    out = Counter()
    for c, k in terms:
        ps = c.primes()
        if len(ps) < 2:
            out[c] += k
        else:
            for p in ps:
                out[c.p_part(p)] += k
            out[group.identity()] -= (len(ps) - 1) * k
    return {c: k for c, k in out.items() if k}


def normal_form_signature(group, normal_form) -> tuple:
    """The per-prime signature a key normal form codes, in the shape of
    ``class_signature``.  The rank is the sum of the coefficients.  A
    non-identity class x of p-power order counts the summands with p-part x;
    of each prime's p-parts, the identity takes what is left of the rank."""
    rank = sum(k for _, k in normal_form)
    parts: dict = {}
    for kc, k in normal_form:
        c = group.class_at(kc)
        if not c.is_identity():
            (p,) = c.primes()
            parts.setdefault(p, Counter())[c] += k
    for part in parts.values():
        rest = rank - sum(part.values())
        if rest:
            part[group.identity()] = rest
    return rank, dict(sorted(parts.items()))


def counter_isomorphic(coords_x, coords_y, orders) -> bool:
    """The per-prime isomorphism test: equal cardinality and, for every prime
    dividing some class order on either side, equal Counters of p-parts."""
    if len(coords_x) != len(coords_y):
        return False
    both = list(coords_x) + list(coords_y)
    primes = {p for c in both for p in _primes_of(coords_order(c, orders))}
    return all(
        Counter(coords_p_part(c, orders, p) for c in coords_x)
        == Counter(coords_p_part(c, orders, p) for c in coords_y)
        for p in primes
    )


def matching_counts(family, d_max: int, n_dim: int) -> list[int]:
    """The 2^d_max decomposition counts of a product of quadrics with the
    Clifford classes ``family``: subset S of the family adds
    copies^|S| (n_dim - 2)^(m - |S|) at the XOR of its classes."""
    m, copies = len(family), 2 if n_dim % 2 == 0 else 1
    acc = [0] * (1 << d_max)
    for s in range(1 << m):
        x = 0
        for i, e in enumerate(family):
            if s >> i & 1:
                x ^= e
        size = bin(s).count("1")
        acc[x] += copies ** size * (n_dim - 2) ** (m - size)
    return acc


def matching_witness(d_max: int, m: int, n_dim: int, details: dict) -> dict | None:
    """The product-matching search family by family: the counts of each
    family from ``itertools.combinations_with_replacement``, keyed by their
    int64 bytes.  Two families with one key are the witness; with none, the
    number of families goes into ``details``."""
    seen: dict[bytes, tuple[int, ...]] = {}
    for family in itertools.combinations_with_replacement(range(1 << d_max), m):
        key = array.array("q", matching_counts(family, d_max, n_dim)).tobytes()
        other = seen.setdefault(key, family)
        if other != family:
            return {
                "family_a": [[(e >> i) & 1 for i in range(d_max)] for e in other],
                "family_b": [[(e >> i) & 1 for i in range(d_max)] for e in family],
            }
    details["families"] = len(seen)
    return None


def sigma1_direct(parity: str, m: int, n: int, l: int) -> Fraction:
    """sigma1 as displayed: both binomial terms of each step in one sum."""
    q = Fraction(n - 2)
    total = Fraction(0)
    for r in range(l // 2 + 1):
        even_part = math.comb(l, 2 * r)
        odd_part = math.comb(l, 2 * r + 1)
        if parity == "even":
            total += even_part * 2 ** (2 * r + 1) * q ** (m - (2 * r + 1))
            total += odd_part * Fraction(2) ** (m - l + (2 * r + 1)) * q ** (l - (2 * r + 1))
        else:
            total += even_part * q ** (m - (2 * r + 1))
            total += odd_part * q ** (l - (2 * r + 1))
    return total


# The summand of each split kind at step r, as a function of m, q = n - 2,
# l, j = 2r + 1, e = C(l, 2r) and o = C(l, 2r + 1); each sum runs over
# 0 <= r <= l // 2.  q is a Fraction, as is the 2 in 12even, so the negative
# exponents that occur at grid edges stay exact.
SUMMANDS = {
    "2even": lambda m, q, l, j, e, o: (e * 2 ** (j + 1) + o * 2**j) * q ** (m - (j + 1)),
    "2odd": lambda m, q, l, j, e, o: (e + o) * q ** (m - (j + 1)),
    "11even": lambda m, q, l, j, e, o: e * 2**j * q ** (m - j),
    "11odd": lambda m, q, l, j, e, o: e * q ** (m - j),
    "12even": lambda m, q, l, j, e, o: o * Fraction(2) ** (m - l + j) * q ** (l - j),
    "12odd": lambda m, q, l, j, e, o: o * q ** (l - j),
}

# sigma1 is by definition sigma11 + sigma12.
LITERAL_SPLITS = {"1even": ("11even", "12even"), "1odd": ("11odd", "12odd")}


def sigma_literal(kind: str, m: int, n: int, l: int) -> Fraction:
    """Any of the eight sigma kinds (canonical spelling) as the literal sum
    over r of its summands, in Fraction steps."""
    parts = [SUMMANDS[part] for part in LITERAL_SPLITS.get(kind, (kind,))]
    q = Fraction(n - 2)
    total = Fraction(0)
    for r in range(l // 2 + 1):
        j, e, o = 2 * r + 1, math.comb(l, 2 * r), math.comb(l, 2 * r + 1)
        for summand in parts:
            total += summand(m, q, l, j, e, o)
    return total


def gaussian_binomial(n: int, k: int) -> list:
    """Coefficients of the Gaussian binomial [n choose k]_q by its product
    formula prod_{i<k} (1 - q^(n-i)) / (1 - q^(i+1)), with exact division."""

    def mul(a, b):
        out = [0] * (len(a) + len(b) - 1)
        for i, x in enumerate(a):
            if x:
                for j, y in enumerate(b):
                    out[i + j] += x * y
        return out

    def one_minus_q_power(e):
        return [1] + [0] * (e - 1) + [-1]

    num = [1]
    den = [1]
    for i in range(k):
        num = mul(num, one_minus_q_power(n - i))
        den = mul(den, one_minus_q_power(i + 1))
    # Long division num / den; den has constant term 1.
    quot = [0] * (len(num) - len(den) + 1)
    rem = list(num)
    for i in range(len(quot)):
        coef = rem[i]
        quot[i] = coef
        if coef:
            for j, d in enumerate(den):
                rem[i + j] -= coef * d
    assert not any(rem), "product formula did not divide exactly"
    return quot


# ---------------------------------------------------------------------------
# Multisets of rational Brauer classes, on plain invariant data: a class is a
# tuple of (place, Fraction) pairs.  Equal classes are merged by a Counter,
# and the canonical order puts the real place first, then primes ascending.
# ---------------------------------------------------------------------------


def _place_rank(v) -> tuple:
    return (0, 0) if v == "real" else (1, v)


def invariants_key(invs) -> tuple:
    """Canonical sort key: the invariants in place order, compared in turn."""
    ordered = sorted(invs, key=lambda pair: _place_rank(pair[0]))
    return tuple((*_place_rank(v), inv.numerator, inv.denominator) for v, inv in ordered)


def _canonical(invs) -> tuple:
    return tuple(sorted(((v, inv) for v, inv in invs if inv), key=lambda p: _place_rank(p[0])))


def counter_merge(pairs) -> list:
    """(invariants, multiplicity) pairs summed by class, zeros dropped, sorted."""
    total: Counter = Counter()
    for invs, k in pairs:
        total[_canonical(invs)] += k
    return sorted(((c, k) for c, k in total.items() if k), key=lambda t: invariants_key(t[0]))


def invariants_sum(*classes) -> tuple:
    """The class whose residues are those of ``classes`` added place by
    place mod 1."""
    total: dict = {}
    for invs in classes:
        for v, inv in invs:
            total[v] = (total.get(v, Fraction(0)) + inv) % 1
    return _canonical(total.items())


def invariants_multiple(invs, k: int) -> tuple:
    """k times the class, residue by residue mod 1 (k = -1 is the negation)."""
    return _canonical((v, k * inv % 1) for v, inv in invs)


def invariants_order(invs) -> int:
    return math.lcm(*(inv.denominator for _, inv in invs), 1)


def invariants_p_part(invs, p: int) -> tuple:
    """Each invariant a/d replaced by the p-primary component of a in Z/d."""
    return _canonical(
        (v, Fraction(crt_p_component(inv.numerator, inv.denominator, p), inv.denominator))
        for v, inv in invs
    )


def invariants_signature(pairs) -> tuple:
    """Rank plus, per prime of some class order, the Counter of p-parts."""
    merged = counter_merge(pairs)
    primes = sorted({p for invs, _ in merged for p in trial_factors(invariants_order(invs))})
    parts = tuple(
        (p, tuple(counter_merge((invariants_p_part(invs, p), k) for invs, k in merged)))
        for p in primes
    )
    return (sum(k for _, k in merged), parts)


def invariants_normal_form(pairs) -> list:
    """Each class rewritten to its p-primary parts minus (nu - 1) identities."""
    out = []
    for invs, k in pairs:
        primes = list(trial_factors(invariants_order(invs)))
        if not primes:
            out.append(((), k))
            continue
        out += [(invariants_p_part(invs, p), k) for p in primes]
        out.append(((), k * (1 - len(primes))))
    return counter_merge(out)


# ---------------------------------------------------------------------------
# Printed classes, read off the key alone: an abstract index as its
# mixed-radix digits (first coordinate most significant), a rational key
# entry (rank, place, a, d) as its place and ``str(Fraction(a, d))``.
# ---------------------------------------------------------------------------


def index_payload(index: int, orders) -> dict:
    digits = []
    for n in reversed(orders):
        index, d = divmod(index, n)
        digits.append(d)
    return {"coords": digits[::-1]}


def invariants_payload(key) -> dict:
    return {"invariants": [{"place": "real" if rank == 0 else v, "inv": str(Fraction(a, d))}
                           for rank, v, a, d in key]}


def key_payload(group, key) -> dict:
    return invariants_payload(key) if group.kind == "rational" else index_payload(key, group.orders)


def measure_payload(group, key_terms, key_counts) -> dict:
    """A printed measure's ring image and effective sum, key by key."""
    return {
        "jt": {"terms": [{"class": key_payload(group, kc), "coeff": k} for kc, k in key_terms]},
        "jt_effective": {"classes": [{**key_payload(group, kc), "mult": k} for kc, k in key_counts]},
    }
