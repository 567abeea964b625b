"""Binomial copy-counting sums for products of quadrics, in exact arithmetic.

The sums count copies of a Brauer class among the 2^m subset products of m
even Clifford classes, stratified by how many factors (l) lie outside a fixed
linearly independent set, with separate shapes for even and odd form
dimension n:

    sigma1_*(m, n, l)  lowest  possible copy count on one side,
    sigma2_*(m, n, l)  highest possible copy count on the other side.

``sigma1`` is defined as ``sigma11 + sigma12``, so ``CLOSED`` states each of
the six split kinds once and ``SPLITS`` names the two pieces of each
``sigma1``.  Each split kind sums C(l, 2r) or C(l, 2r + 1) times powers of
q = n - 2 and 2 over r <= l // 2: the even or odd part of a binomial
expansion (Concrete Mathematics, 5.1), so it is a few integer powers.  The
split pieces satisfy one-step recurrences in m which drive the induction for
the product-of-quadrics comparison theorem.  At grid edges q and 2 appear
with negative exponents: a value is the integer pair (numerator, q^a 2^t),
a Fraction only in ``sigma_fraction`` and in a violation record.  A value
that may pass ``MAX_DIGITS`` digits is refused before any summing, and a
``recurrence_violations`` grid is priced in ``brauer``'s work unit.
"""

from __future__ import annotations

import itertools
import math
from collections.abc import Iterable, Sequence
from fractions import Fraction

from .brauer import ResourceLimitError, check_work, is_int


# Each split kind in closed form, with E = ((q+b)^l + (q-b)^l) / 2 and
# O = ((q+b)^l - (q-b)^l) / 2, b = 2 for the even kinds and 1 for the odd
# ones.  w(i, j) is q^i 2^j times the common denominator q^a 2^t, an integer
# for every exponent used here.
CLOSED = {
    "2even": lambda w, m, l, e, o: w(m - 2 - l, 2) * e + w(m - 1 - l) * o,
    "2odd": lambda w, m, l, e, o: w(m - 2 - l) * e + w(m - 1 - l) * o,
    "11even": lambda w, m, l, e, o: w(m - 1 - l, 1) * e,
    "11odd": lambda w, m, l, e, o: w(m - 1 - l) * e,
    "12even": lambda w, m, l, e, o: w(0, m - l) * o,
    "12odd": lambda w, m, l, e, o: w(0) * o,
}

# sigma1 is by definition sigma11 + sigma12.
SPLITS = {"1even": ("11even", "12even"), "1odd": ("11odd", "12odd")}

KINDS = (*SPLITS, *CLOSED)


def _canon_kind(kind: str) -> str:
    k = kind.strip().lower().replace("sigma", "").replace("_", "").replace("-", "")
    if k not in KINDS:
        raise ValueError(f"unknown sigma kind {kind!r}; expected one of {KINDS}")
    return k


# Python prints an int of at most 4,300 digits by default.  A sum whose
# numerator or denominator may have more is refused before any summing.  Under
# the cap a value takes under 0.5 ms (Python 3.11, 2-core VM), so only a grid
# of values is priced as well, against ``brauer.WORK_LIMIT``.
MAX_DIGITS = 4300


def _digits(m: int, n: int, l: int) -> int:
    """An upper estimate of the digits in the numerator and the denominator of
    any partial sum, from the bit lengths of its factors and never by ``str``:
    each has at most (max(m, l) + 2) log2 n + (l + 2 - m)^+ log2 2(n - 2) bits."""
    top = m if m > l else l  # not max(): this runs before every sum
    if top > 10 * MAX_DIGITS:
        return 10 * MAX_DIGITS  # past the cap already; keeps the floats below finite
    bits = (top + 2) * math.log2(n)
    if l + 2 > m:
        bits += (l + 2 - m) * math.log2(2 * (n - 2))
    return int(bits * 0.30103) + 1


def _check_digits(m: int, n: int, l: int) -> int:
    """The digit estimate of sigma(m, n, l): malformed input raises
    ``ValueError``, an estimate past ``MAX_DIGITS`` ``ResourceLimitError``."""
    if not (is_int(m) and is_int(n) and is_int(l)):
        raise ValueError("m, n, l must be integers")
    if m < 1:
        raise ValueError(f"m must be >= 1, got {m}")
    if n < 3:
        raise ValueError(f"form dimension n must be >= 3, got {n}")
    if l < 0:
        raise ValueError(f"l must be >= 0, got {l}")
    digits = _digits(m, n, l)
    if digits > MAX_DIGITS:
        raise ResourceLimitError(f"sigma({m},{n},{l}) may pass {MAX_DIGITS} digits")
    return digits


def sigma_fraction(kind: str, m: int, n: int, l: int) -> Fraction:
    """The sum as an exact rational, defined for every l >= 0; past
    ``MAX_DIGITS`` it raises ``ResourceLimitError``."""
    kind = _canon_kind(kind)
    _check_digits(m, n, l)
    return Fraction(*_pair(kind, m, n, l))


def _pair(kind: str, m: int, n: int, l: int) -> tuple[int, int]:
    """The sum of a canonical kind at a cell ``_check_digits`` accepted, as the
    unreduced pair (numerator, q^a 2^t), whose denominator is positive and fixed by (m, n, l)."""
    q, b = n - 2, 2 if kind.endswith("even") else 1
    plus, minus = (q + b) ** l, (q - b) ** l
    e, o = (plus + minus) >> 1, (plus - minus) >> 1
    a, t = (l + 2 - m if l + 2 > m else 0), (l - m if l > m else 0)  # clear q^(m-2-l), 2^(m-l)
    def w(i: int, j: int = 0) -> int:
        return q ** (i + a) << (j + t)
    value = 0
    for part in SPLITS.get(kind, (kind,)):
        value += CLOSED[part](w, m, l, e, o)
    return value, w(0)


def sigma(kind: str, m: int, n: int, l: int) -> int:
    """The sum as an integer; raises when the exact value is not integral."""
    value = sigma_fraction(kind, m, n, l)
    if value.denominator != 1:
        # The value's digits may run to thousands, so only their size is named.
        raise ValueError(
            f"sigma {kind}({m},{n},{l}) is not an integer on this input: its reduced "
            f"denominator has {value.denominator.bit_length()} bits"
        )
    return value.numerator


# The split pieces each scale by a fixed factor when m drops by one.  The
# factor is a Fraction in n so it can be compared exactly.
RECURRENCE_FACTORS = {
    "11even": lambda n: Fraction(n - 2),
    "11odd": lambda n: Fraction(n - 2),
    "12even": lambda n: Fraction(2),
    "12odd": lambda n: Fraction(1),
    "2even": lambda n: Fraction(n - 2),
    "2odd": lambda n: Fraction(n - 2),
}


def recurrence_violations(
    n_values: Sequence[int],
    m_values: Sequence[int],
    kinds: Iterable[str] | None = None,
) -> list[dict]:
    """Check sigma(m-1) * factor == sigma(m) for the split kinds on a grid.

    Returns one record per failure; an empty list means every relation holds
    exactly.  l ranges over 0..m-1 for each m.  The grid is priced row by
    row against ``brauer.WORK_LIMIT`` before any summing.  An empty grid, an
    m below 2 (which has no step to check), an empty kinds list or a kind
    listed twice (in any spelling) raises ``ValueError``.
    """
    for axis, values in (("n", n_values), ("m", m_values)):
        if not values:
            raise ValueError(f"empty sigma-check grid: {axis}-min is past {axis}-max")
    table = {}
    for kind in RECURRENCE_FACTORS if kinds is None else kinds:
        k = _canon_kind(kind)
        if k not in RECURRENCE_FACTORS:
            raise ValueError(f"no one-step recurrence for sigma kind {kind!r}")
        if k in table:
            raise ValueError(f"sigma kind {kind!r} names {k}, which is already listed")
        table[k] = RECURRENCE_FACTORS[k]
    if not table:
        raise ValueError("sigma-check needs at least one kind")

    def rows():
        # Row (n, m) makes a call per kind at m - 1 and at m for each l < m,
        # each of w(d) = 40 + d / 10 + d^2 / 25,000 units, d the row's largest
        # digit estimate (at l = m - 1).  The weights were fitted to Fraction
        # sums and are kept, so --m-max 58 stays the frontier: on integer pairs
        # a call of the costliest kind takes 1.1 us at small d and 70 us at
        # 4,300 digits (Python 3.11, 2-core VM).  w(d) <= 3/4 (d + 100) must
        # hold up to MAX_DIGITS: it keeps accepted every grid within 2 * 10^7
        # steps of d + 100 a summand, the literal sum's old price.
        for n in n_values:
            for m in m_values:
                if m < 2:
                    raise ValueError(f"sigma-check m starts at 2, got m = {m}")
                digits = max(_check_digits(m - 1, n, m - 1), _check_digits(m, n, m - 1))
                yield 2 * len(table) * m * (40 + digits // 10 + digits * digits // 25_000)

    check_work("the sigma-check grid", itertools.accumulate(rows()))
    bad: list[dict] = []
    for n in n_values:
        # sigma(m - 1) * f == sigma(m) on the pairs, each factor built once per n.
        factors = [(kind, factor(n)) for kind, factor in table.items()]
        for m in m_values:
            for l in range(m):
                for kind, f in factors:
                    ln, ld = _pair(kind, m - 1, n, l)
                    rn, rd = _pair(kind, m, n, l)
                    if ln * rd * f.numerator != rn * ld * f.denominator:
                        bad.append({"kind": kind, "m": m, "n": n, "l": l,
                                    "lhs": str(Fraction(ln, ld)), "rhs": str(Fraction(rn, rd) / f)})
    return bad


def extra_condition_failures(m: int, n: int) -> list[int]:
    """The l values in 2..m-3 where sigma1 > sigma2 fails (the parity of n
    picks the variant); the condition holds when there are none.  Only
    meaningful for m >= 6; smaller m raises."""
    if m < 6:
        raise ValueError(
            f"the copy-count condition only gates the m >= 6 case, got m={m}"
        )
    suffix = "even" if n % 2 == 0 else "odd"
    ls = range(2, m - 2)
    _check_digits(m, n, m - 3)  # for every l below m - 2 the estimate is that of l = m - 3
    # At one (m, n, l) both sums share the denominator, so the numerators decide.
    return [l for l in ls if not _pair("1" + suffix, m, n, l)[0] > _pair("2" + suffix, m, n, l)[0]]
