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
with negative exponents, so each value is one exact Fraction over q^a 2^t.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterable, Sequence

from .brauer import ResourceLimitError


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


def _check_domain(m: int, n: int, l: int) -> None:
    if not (isinstance(m, int) and isinstance(n, int) and isinstance(l, int)):
        raise ValueError("m, n, l must be integers")
    if m < 1:
        raise ValueError(f"m must be >= 1, got {m}")
    if n < 3:
        raise ValueError(f"form dimension n must be >= 3, got {n}")
    if l < 0:
        raise ValueError(f"l must be >= 0, got {l}")


# Python prints an int of at most 4,300 digits by default.  A sum whose
# numerator or denominator may have more is refused before any summing, and
# so is a call, or a grid of calls, whose summing work passes MAX_SUM_WORK.
MAX_DIGITS = 4300
# Work in digit-steps of the literal sum over r: each summand costs the
# estimated digits of the sum plus 100.  The closed form costs far less: a
# call at the limit takes under 1 ms on a 2-core VM (Python 3.11).
MAX_SUM_WORK = 20_000_000


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


def _check_work(sums: Iterable[tuple[int, int, int, int]]) -> None:
    """Refuse the sums (summands per step, m, n, l) past ``MAX_DIGITS`` digits
    or, together, past ``MAX_SUM_WORK``; raises ``ResourceLimitError``."""
    work = 0
    for summands, m, n, l in sums:
        _check_domain(m, n, l)
        digits = _digits(m, n, l)
        if digits > MAX_DIGITS:
            raise ResourceLimitError(f"sigma({m},{n},{l}) may pass {MAX_DIGITS} digits")
        work += summands * (l // 2 + 1) * (digits + 100)
        if work > MAX_SUM_WORK:
            raise ResourceLimitError(f"the sigma sums need more than {MAX_SUM_WORK} digit-steps")


def sigma_fraction(kind: str, m: int, n: int, l: int) -> Fraction:
    """The sum as an exact rational, defined for every l >= 0; past the
    frontiers of ``_check_work`` it raises ``ResourceLimitError``."""
    kind = _canon_kind(kind)
    _check_work(((len(SPLITS.get(kind, (kind,))), m, n, l),))
    return _closed(kind, m, n, l)


def _closed(kind: str, m: int, n: int, l: int) -> Fraction:
    """``sigma_fraction`` of a canonical kind at a cell ``_check_work`` accepted."""
    parts = SPLITS.get(kind, (kind,))
    q, b = n - 2, 2 if kind.endswith("even") else 1
    plus, minus = (q + b) ** l, (q - b) ** l
    e, o = (plus + minus) >> 1, (plus - minus) >> 1
    a, t = max(0, l + 2 - m), max(0, l - m)  # clear q^(m-2-l) and 2^(m-l)
    def w(i: int, j: int = 0) -> int:
        return q ** (i + a) << (j + t)
    return Fraction(sum(CLOSED[part](w, m, l, e, o) for part in parts), w(0))


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
    exactly.  l ranges over 0..m-1 for each m.  The grid is read twice: its
    work is checked as a whole before any summing.  An empty grid, an m
    below 2 (which has no step to check) or an empty kinds list raises
    ``ValueError``.
    """
    for axis, values in (("n", n_values), ("m", m_values)):
        if not values:
            raise ValueError(f"empty sigma-check grid: {axis}-min is past {axis}-max")
    table = {}
    for kind in RECURRENCE_FACTORS if kinds is None else kinds:
        k = _canon_kind(kind)
        if k not in RECURRENCE_FACTORS:
            raise ValueError(f"no one-step recurrence for sigma kind {kind!r}")
        table[k] = RECURRENCE_FACTORS[k]
    if not table:
        raise ValueError("sigma-check needs at least one kind")

    def cells():
        # m is checked as it is met, so a long m range costs no pass of its own.
        for n in n_values:
            for m in m_values:
                if m < 2:
                    raise ValueError(f"sigma-check m starts at 2, got m = {m}")
                yield from ((n, m, l) for l in range(m))

    # Each kind in the table is one summand; each cell sums at m - 1 and at m.
    # Accepted as a whole, every cell is evaluated without a second check.
    _check_work((len(table), m - i, n, l) for n, m, l in cells() for i in (1, 0))
    bad: list[dict] = []
    for n, m, l in cells():
        for kind, factor in table.items():
            lhs = _closed(kind, m - 1, n, l)
            rhs = _closed(kind, m, n, l) / factor(n)
            if lhs != rhs:
                bad.append({"kind": kind, "m": m, "n": n, "l": l,
                            "lhs": str(lhs), "rhs": str(rhs)})
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
    _check_work((3, m, n, l) for l in ls)  # sigma1 has two summands, sigma2 one; n >= 3
    return [l for l in ls if not _closed("1" + suffix, m, n, l) > _closed("2" + suffix, m, n, l)]
