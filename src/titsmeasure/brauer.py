"""Finite models of Brauer groups and central simple algebra bookkeeping.

Two interchangeable backends:

- ``AbstractGroup``: a finite abelian group ``Z/n_1 x ... x Z/n_k`` whose
  elements stand for Brauer classes.  Everything is enumerable, which is what
  the verification suites need.  Each element has a mixed-radix index, and
  the group fills tables from index to index on demand (negation, sums,
  p-parts; also coords, order and primes) by digit arithmetic on the index,
  so class arithmetic is a lookup, memory follows the indices actually
  touched, and ``AbstractClass`` is a (group, index) value built at the
  edges, never interned.
- ``RATIONALS`` / ``RationalClass``: Br(Q) presented by local invariants, a
  finitely supported map from places of Q to exact residues in [0,1) summing
  to 0 mod 1, keyed by the residues as integers.  Constructed by the
  Hilbert-symbol layer in ``rationals``.

Both models answer one key interface: ``class_key`` (canonical order),
``class_at`` (the class at a key), ``key_payload`` (the printed form of
the class at a key), ``identity_key``, ``add_keys(a, b)``,
``multiple_key(key, m)``, the lookups ``neg_keys[key]``,
``key_order[key]``, ``key_primes[key]`` and ``p_part_keys[p][key]``, and
``p_group``, true when every key has prime-power order.
``motives``, ``measure_ring``, ``subgroup_keys`` and ``verify`` work on
keys without building classes, and print keys by ``key_payload``, which a
class's ``to_payload`` calls too.  The class arithmetic (addition,
negation, multiples, order, p-primary parts, ``primes()``) is written once
over the same interface, in ``_ClassArithmetic``.

Index policy: by default the index of a class is its order (period), which is
exact over number fields; abstract models may carry an oracle table asserting
larger indexes (used to model unlinked quaternion pairs over other fields).
"""

from __future__ import annotations

import math
import operator
from collections.abc import Iterable, Iterator, Sequence
from fractions import Fraction


class ResourceLimitError(RuntimeError):
    """The requested work exceeds a documented resource frontier."""


# Work frontier.  Before it starts, a costly call (a ``verify`` suite, a
# ``sigma-check`` grid) prices its run as the operations it performs times a
# weight per operation: a weighted count of operations, whose weights were
# fitted at about 0.2 us a unit (Python 3.11 on a 2-core VM).  It is refused
# once the price passes WORK_LIMIT; the slowest accepted verify calls now
# take 0.58-1.22 s (the table in docs/cli.md).
WORK_LIMIT = 15_000_000


def check_work(what: str, totals: Iterable[int]) -> None:
    """Raise ``ResourceLimitError`` as soon as a running total of the work of
    ``what`` passes ``WORK_LIMIT``."""
    for work in totals:
        if work > WORK_LIMIT:
            raise ResourceLimitError(f"{what} needs more than {WORK_LIMIT} units of work")


def is_int(value) -> bool:
    """An int but not a bool: the integer rule of documents and library values."""
    return isinstance(value, int) and not isinstance(value, bool)


def _primes_below(n: int) -> tuple[int, ...]:
    sieve = bytearray([1]) * n
    sieve[:2] = b"\x00\x00"
    for p in range(2, math.isqrt(n - 1) + 1):
        if sieve[p]:
            sieve[p * p :: p] = bytes(len(range(p * p, n, p)))
    return tuple(p for p in range(n) if sieve[p])


# Trial division covers the primes below TRIAL_DIVISION_BOUND, so a cofactor
# free of them and below TRIAL_DIVISION_BOUND^2 is prime.
TRIAL_DIVISION_BOUND = 1000
_SMALL_PRIMES = _primes_below(TRIAL_DIVISION_BOUND)
_SMALL_PRIME_SET = frozenset(_SMALL_PRIMES)

# Strong-pseudoprime bounds: below bound, the first k prime bases decide
# primality (Jaeschke 1993; Zhang and Tang 2003; Sorenson and Webster 2015).
_MR_BOUNDS = (
    (2_047, 1),
    (1_373_653, 2),
    (25_326_001, 3),
    (3_215_031_751, 4),
    (2_152_302_898_747, 5),
    (3_474_749_660_383, 6),
    (341_550_071_728_321, 7),
    (3_825_123_056_546_413_051, 9),
    (318_665_857_834_031_151_167_461, 12),
    (3_317_044_064_679_887_385_961_981, 13),
)
_MR_BASES = _SMALL_PRIMES[:13]

# Pollard-Brent steps (one squaring and one product mod n each) that one
# ``prime_factors`` call may spend: a few tenths of a second of pure Python,
# enough to split any number whose second-largest prime factor is below
# about 10^10.
RHO_BUDGET = 1 << 18


def _strong_probable_prime(n: int, a: int) -> bool:
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    x = pow(a, d, n)
    if x == 1 or x == n - 1:
        return True
    for _ in range(s - 1):
        x = x * x % n
        if x == n - 1:
            return True
    return False


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin primality test (Cohen, section 8.2).

    Exact below 3.3 * 10^24.  Above that a composite is still proven by its
    witness, but a number passing every base raises ``ResourceLimitError``.
    """
    if n < TRIAL_DIVISION_BOUND:
        return n in _SMALL_PRIME_SET
    if any(n % p == 0 for p in _MR_BASES):
        return False
    for bound, k in _MR_BOUNDS:
        if n < bound:
            return all(_strong_probable_prime(n, a) for a in _MR_BASES[:k])
    if all(_strong_probable_prime(n, a) for a in _MR_BASES):
        raise ResourceLimitError(
            f"a {n.bit_length()}-bit probable prime is beyond the proven primality range"
        )
    return False


def _spend(budget: list[int], steps: int, n: int) -> None:
    budget[0] -= steps
    if budget[0] < 0:
        raise ResourceLimitError(
            f"factoring a {n.bit_length()}-bit integer exceeds the work budget"
        )


def _rho_split(n: int, budget: list[int]) -> int:
    """A proper factor of a composite n free of small primes (Pollard rho with
    Brent's cycle search and batched gcds, Cohen section 8.5)."""
    root = math.isqrt(n)
    if root * root == n:
        return root
    for c in range(1, n):
        y, q, g, r = 2, 1, 1, 1
        while g == 1:
            x = y
            _spend(budget, r, n)
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and g == 1:
                ys = y
                steps = min(128, r - k)
                _spend(budget, steps, n)
                for _ in range(steps):
                    y = (y * y + c) % n
                    q = q * abs(x - y) % n
                g = math.gcd(q, n)
                k += steps
            r *= 2
        if g == n:
            # The batch overshot: retrace it one step at a time.
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = math.gcd(abs(x - ys), n)
        if g != n:
            return g
    raise AssertionError(f"no rho polynomial splits {n}")


def prime_factors(n: int, budget: list[int] | None = None) -> dict[int, int]:
    """Factor a positive integer: {prime: exponent}, primes ascending.

    Trial division by the primes below ``TRIAL_DIVISION_BOUND``, then
    Miller-Rabin and Pollard-Brent rho on what is left, within ``RHO_BUDGET``
    steps or the steps left in ``budget``, a one-item list that several calls
    may share; past the budget it raises ``ResourceLimitError``.
    """
    if n < 1:
        raise ValueError(f"expected a positive integer, got {n}")
    out: dict[int, int] = {}
    for p in _SMALL_PRIMES:
        if p * p > n:
            if n > 1:
                out[n] = 1
            return out
        if n % p == 0:
            e = 0
            while n % p == 0:
                n //= p
                e += 1
            out[p] = e
    # Every prime factor left is above the table.
    budget = [RHO_BUDGET] if budget is None else budget
    pending = [n] if n > 1 else []
    while pending:
        m = pending.pop()
        if m < TRIAL_DIVISION_BOUND * TRIAL_DIVISION_BOUND or is_prime(m):
            out[m] = out.get(m, 0) + 1
        else:
            d = _rho_split(m, budget)
            pending += [d, m // d]
    return dict(sorted(out.items()))


# Places of Q: the string "real" or a prime number.
Place = str | int

REAL_PLACE: Place = "real"


def check_place(v: Place) -> Place:
    if v == REAL_PLACE:
        return v
    if isinstance(v, int) and is_prime(v):
        return v
    raise ValueError(f"not a place of Q: {v!r} (use 'real' or a prime)")


def place_sort_key(v: Place) -> tuple[int, int]:
    return (0, 0) if v == REAL_PLACE else (1, v)


class GroupMismatchError(ValueError):
    """Operands live in different Brauer-group models."""


def common_group(*items) -> "BrauerGroup":
    """The group model of ``items`` (anything with a ``group``), which must share
    one: compared by identity first, then by equality."""
    group = items[0].group
    for item in items[1:]:
        other = item.group
        if other is not group and other != group:
            raise GroupMismatchError(f"mixed group models: {group} vs {other}")
    return group


# The types a payload holds as they are.  Dispatching on the exact type is
# several times cheaper than asking each value for a ``to_payload``.
_JSON_TYPES = frozenset({bool, int, float, str, list, dict, type(None)})


def _payload_of(value):
    if type(value) in _JSON_TYPES:
        return value
    return [_payload_of(v) for v in value] if type(value) is tuple else value.to_payload()


def record_payload(record, **extra) -> dict:
    """A ``Record``'s payload: its fields in order, then ``extra``.
    A JSON value stays as it is, a tuple becomes a list of payloads, and any
    other value gives its own ``to_payload``."""
    payload = {}
    for name in record._fields:
        value = getattr(record, name)
        payload[name] = value if type(value) in _JSON_TYPES else _payload_of(value)
    payload.update(extra)
    return payload


class Record:
    """A frozen value record.  Its fields are the class's annotated names, in
    order; a class-level value is a default.  Unless a subclass writes its
    own, it gets a frozen dataclass's ``__init__`` (then ``__post_init__``, if
    any), ``==`` over the fields and ``hash`` of their tuple, compiled from a
    few lines of source so they run as fast as a dataclass's.  ``repr`` shows
    every field; assigning or deleting an attribute raises
    ``dataclasses.FrozenInstanceError``.  No ``dataclasses`` or ``inspect``
    import: they took about a fifth of a fresh CLI import."""

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls) -> None:
        super().__init_subclass__()
        names = cls._fields = cls._fields + tuple(cls.__annotations__)
        defaults = {n: getattr(cls, n) for n in names if n in cls.__dict__}
        params = "".join(f", {n}=_d[{n!r}]" if n in defaults else f", {n}" for n in names)
        stores = "".join(f"\n _set(self, {n!r}, {n})" for n in names)
        post_init = "\n self.__post_init__()" if hasattr(cls, "__post_init__") else ""
        mine = "".join(f"self.{n}, " for n in names)
        theirs = mine.replace("self.", "other.")
        sources = {
            "__init__": f"def __init__(self{params}):{stores + post_init or ' pass'}\n",
            "__eq__": "def __eq__(self, other):\n if other.__class__ is self.__class__:\n"
                      f"  return ({mine}) == ({theirs})\n return NotImplemented\n",
            "__hash__": f"def __hash__(self):\n return hash(({mine}))\n",
        }
        methods: dict = {}
        exec("".join(source for name, source in sources.items() if name not in cls.__dict__),
             {"_set": object.__setattr__, "_d": defaults}, methods)
        for name, method in methods.items():
            method.__qualname__ = f"{cls.__qualname__}.{name}"  # as TypeError messages name it
            setattr(cls, name, method)

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name: str, value) -> None:
        from dataclasses import FrozenInstanceError
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        from dataclasses import FrozenInstanceError
        raise FrozenInstanceError(f"cannot delete field {name!r}")


class _first_read:
    """A method read as an attribute: computed on the first read, then
    stored on the instance with ``object.__setattr__``.  Unlike
    ``functools.cached_property`` it never reads the instance's ``__dict__``:
    on CPython 3.11 and 3.12 that read moves the attributes into a dict, and
    every later lookup of them slows (a relation-equivalence run over Z/2,
    all table lookups, took a quarter longer)."""

    def __init__(self, method) -> None:
        self.method = method

    def __set_name__(self, owner, name: str) -> None:
        self.name = name

    def __get__(self, instance, owner=None):
        if instance is None:
            return self
        value = self.method(instance)
        object.__setattr__(instance, self.name, value)
        return value


class _Table(dict):
    """A dict that fills a missing entry from ``fill(key)`` on first lookup."""

    __slots__ = ("fill",)

    def __init__(self, fill) -> None:
        self.fill = fill

    def __missing__(self, key):
        value = self[key] = self.fill(key)
        return value


def _p_part_tables(p_part_fill) -> _Table:
    """prime p -> {key: key of the p-part}, filled by ``p_part_fill(p)``,
    which is called once, when the prime's table is made."""
    def table(p: int) -> _Table:
        if not is_prime(p):
            raise ValueError(f"not a prime: {p}")
        return _Table(p_part_fill(p))
    return _Table(table)


class _KeyedGroup:
    """What a group model derives from its key interface and ``_oracle``."""

    def identity(self):
        return self.class_at(self.identity_key)

    def index_of(self, cls) -> int:
        if cls.group is not self and cls.group != self:
            raise GroupMismatchError("class does not belong to this group")
        return self._oracle.get(self.class_key(cls)) or cls.order()


class AbstractGroup(_KeyedGroup, Record):
    """Finite abelian group ⊕_i Z/orders[i] serving as a Brauer-group model.

    ``index_oracle`` optionally maps element coords to an asserted index;
    entries must be multiples of the class order with the same prime support.

    Element ``coords`` read as a mixed-radix number (first coordinate most
    significant) give the element's index, so index order is coordinate
    order.  The group owns lazily filled tables from an index to the index
    of its negation, of each sum and of each p-part, and to its coords, order
    and primes.  Only indices actually touched get entries.  A fill reads
    the digits i // stride mod order straight off the index, without a
    coords tuple.  The fillers close over the (stride, order) pairs, not
    over the group, so a group holds no reference to itself and dies with
    its last user; ``AbstractClass`` values are built from indices at the
    edges and are not interned.
    """

    orders: tuple[int, ...]
    index_oracle: tuple[tuple[tuple[int, ...], int], ...] = ()
    class_key = staticmethod(operator.attrgetter("index"))  # canonical order: by coords
    identity_key = 0
    kind = "abstract"

    def __post_init__(self) -> None:
        if not all(is_int(n) and n >= 1 for n in self.orders):
            raise ValueError(f"cyclic orders must be positive integers: {self.orders}")
        orders = tuple(int(n) for n in self.orders)
        size = math.prod(orders)
        # (stride s, order n) per coordinate: coordinate k of index i is
        # i // s mod n, so the fills read digits off the index, never coords.
        digits = [(math.prod(orders[k + 1:]), n) for k, n in enumerate(orders)]

        def index(cs: Iterable[int]) -> int:
            i = 0
            for c, (s, n) in zip(cs, digits):
                i += c % n * s
            return i

        def sum_at(ij: int) -> int:
            i, j = divmod(ij, size)
            k = 0
            for s, n in digits:
                k += (i // s + j // s) % n * s
            return k

        def multiple_key(i: int, k: int) -> int:
            m = 0
            for s, n in digits:
                m += k * (i // s) % n * s
            return m

        def order_at(i: int) -> int:
            per = 1
            for s, n in digits:
                if d := i // s % n:  # a zero digit has order 1
                    per = math.lcm(per, n // math.gcd(n, d))
            return per

        def p_part_fill(p: int):
            # Digit d's p-part is d u mod n, u the p-part of 1 in Z/n; digits
            # with u = 0 are skipped.
            units = [(s, n, u) for s, n in digits if (u := _crt_p_component(1, n, p))]

            def fill(i: int) -> int:
                k = 0
                for s, n, u in units:
                    k += i // s * u % n * s
                return k
            return fill

        coords = _Table(lambda i: tuple([i // s % n for s, n in digits]))
        init = object.__setattr__
        init(self, "orders", orders)
        init(self, "_size", size)
        init(self, "_coords", coords)  # index -> coords
        init(self, "_index", index)  # coords -> index
        init(self, "exponent", math.lcm(*orders))
        init(self, "key_order", _Table(order_at))  # index -> order of the class
        init(self, "multiple_key", multiple_key)
        init(self, "neg_keys", _Table(lambda i: multiple_key(i, -1)))  # index -> negation
        init(self, "_sum", _Table(sum_at))  # i * size + j -> index of the sum
        init(self, "p_part_keys", _p_part_tables(p_part_fill))  # prime -> {index: index of the p-part}
        oracle = {}  # index -> asserted index, one entry per class
        for cs, idx in self.index_oracle:
            i = self.element(cs).index
            per = order_at(i)
            if not is_int(idx) or idx % per != 0 or set(prime_factors(idx)) != set(prime_factors(per)):
                raise ValueError(
                    f"index oracle entry {idx} for {cs} incompatible with period {per}"
                )
            if i in oracle:
                raise ValueError(f"index oracle lists class {coords[i]} twice (entry for {cs})")
            oracle[i] = int(idx)
        entries = tuple((coords[i], oracle[i]) for i in sorted(oracle))  # index order is coords order
        init(self, "index_oracle", entries)
        init(self, "_oracle", oracle)
        init(self, "_hash", hash((orders, entries)))

    def __hash__(self) -> int:
        return self._hash  # once per group: each sum and ring element hashes it

    def __reduce__(self):
        # Rebuild from the fields; the tables refill on demand.
        return (AbstractGroup, (self.orders, self.index_oracle))

    def class_at(self, idx: int) -> "AbstractClass":
        """The class with ``class_key`` (index) ``idx``; the one place a class
        is built from an index."""
        cls = object.__new__(AbstractClass)
        object.__setattr__(cls, "group", self)
        object.__setattr__(cls, "index", idx)
        return cls

    def key_payload(self, idx: int) -> dict:
        """The payload of the class at index ``idx``: its coords."""
        return {"coords": list(self._coords[idx])}

    def add_keys(self, i: int, j: int) -> int:
        """The index of the sum of the classes at indices ``i`` and ``j``."""
        return self._sum[i * self._size + j]

    def element(self, coords: Sequence[int]) -> "AbstractClass":
        return AbstractClass(self, coords)

    def elements(self) -> Iterator["AbstractClass"]:
        return map(self.class_at, range(self._size))

    @property
    def order(self) -> int:
        return self._size

    def primes(self) -> tuple[int, ...]:
        return self._exponent_primes

    @_first_read
    def _exponent_primes(self) -> tuple[int, ...]:
        return tuple(prime_factors(self.exponent))

    @_first_read
    def key_primes(self) -> _Table:
        """index -> primes of the class's order; made on first read, so that
        building the group factors nothing, and holding no group."""
        primes, order = self._exponent_primes, self.key_order
        return _Table(lambda i: tuple([p for p in primes if order[i] % p == 0]))

    @_first_read
    def p_group(self) -> bool:
        """Whether the exponent has fewer than two primes, decided on first
        read, so that a huge exponent is factored only when a normal form
        needs it."""
        return len(self.primes()) < 2

    def to_payload(self) -> dict:
        payload: dict = {"kind": "abstract", "orders": list(self.orders)}
        if self.index_oracle:
            payload["index_oracle"] = [
                {"coords": list(coords), "index": idx}
                for coords, idx in self.index_oracle
            ]
        return payload


def _lowest_terms(entries: Iterable[tuple]) -> tuple:
    """Key entries (rank, place, a, d) with a/d in lowest terms, zeros dropped."""
    return tuple((r, v, a // g, d // g) for r, v, a, d in entries if a for g in [math.gcd(a, d)])


class _RationalGroup(_KeyedGroup, Record):
    """Br(Q) on keys: a class's key lists its nonzero local invariants as
    (*place_sort_key(place), a, d) in place order, a/d in lowest terms.  The
    group owns the class arithmetic, in integers.  Br(Q) is infinite, so its
    key tables are fresh per use: nothing is kept."""

    class_key = staticmethod(operator.attrgetter("key"))  # canonical order: by places
    identity_key = ()
    kind = "rational"
    p_group = False  # Br(Q) has classes of every order
    _oracle = {}  # key -> asserted index: none, as period equals index over a number field

    def class_at(self, key: tuple) -> "RationalClass":
        """The class with key ``key``; the one place a class is built from a key."""
        cls = object.__new__(RationalClass)
        object.__setattr__(cls, "key", key)
        return cls

    @staticmethod
    def key_payload(key: tuple) -> dict:
        """The payload of the class at ``key``: its places and residues.  Each key
        entry has 0 < a < d in lowest terms, so f"{a}/{d}" is str(Fraction(a, d))."""
        return {"invariants": [{"place": REAL_PLACE if r == 0 else v, "inv": f"{a}/{d}"}
                               for r, v, a, d in key]}

    def add_keys(self, a: tuple, b: tuple) -> tuple:
        """The key of the sum of the classes at keys ``a`` and ``b``: residues
        n/d add place by place mod 1."""
        acc = {(r, v): (n, d) for r, v, n, d in a}
        for r, v, n, d in b:
            n0, d0 = acc.get((r, v), (0, 1))
            acc[r, v] = (n0 * d + n * d0) % (d0 * d), d0 * d
        return _lowest_terms(sorted((*v, n, d) for v, (n, d) in acc.items()))

    @staticmethod
    def multiple_key(key: tuple, k: int) -> tuple:
        return _lowest_terms((r, v, a * k % d, d) for r, v, a, d in key)

    @property
    def neg_keys(self) -> _Table:
        return _Table(lambda key: self.multiple_key(key, -1))

    @property
    def key_order(self) -> _Table:
        return _Table(lambda key: math.lcm(*(d for *_, d in key), 1))

    @property
    def key_primes(self) -> _Table:
        order = self.key_order
        return _Table(lambda key: tuple(prime_factors(order[key])))

    @property
    def p_part_keys(self) -> _Table:
        # A residue a/d is the class of a in Z/d.
        return _p_part_tables(lambda p: lambda key: _lowest_terms(
            (r, v, _crt_p_component(a, d, p), d) for r, v, a, d in key))

    def to_payload(self) -> dict:
        return {"kind": "rational"}


RATIONALS = _RationalGroup()

BrauerGroup = AbstractGroup | _RationalGroup


def _crt_p_component(c: int, n: int, p: int) -> int:
    """The p-primary component of c in Z/n: ≡ c mod p^a, ≡ 0 mod n/p^a."""
    a = 0
    m = n
    while m % p == 0:
        m //= p
        a += 1
    if a == 0:
        return 0
    pa = p**a
    return (c * m * pow(m, -1, pa)) % n


class _ClassArithmetic:
    """Class arithmetic, once for both models: lookups of the class's key in
    its group's key interface, each result built by ``class_at``."""

    __slots__ = ()

    def __add__(self, other):
        g = self.group
        if other.group is not g:
            common_group(self, other)
        key = g.class_key
        return g.class_at(g.add_keys(key(self), key(other)))

    def __neg__(self):
        g = self.group
        return g.class_at(g.neg_keys[g.class_key(self)])

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, k: int):
        g = self.group
        return g.class_at(g.multiple_key(g.class_key(self), operator.index(k)))

    __rmul__ = __mul__

    def is_identity(self) -> bool:
        g = self.group
        return g.class_key(self) == g.identity_key

    def order(self) -> int:
        g = self.group
        return g.key_order[g.class_key(self)]

    def p_part(self, p: int):
        g = self.group
        return g.class_at(g.p_part_keys[p][g.class_key(self)])

    def primes(self) -> tuple[int, ...]:
        """Primes dividing the order of the class, ascending."""
        g = self.group
        return g.key_primes[g.class_key(self)]


class AbstractClass(_ClassArithmetic, Record):
    """An element of an ``AbstractGroup``: the value (group, index).

    ``AbstractClass(group, coords)`` reduces integer coords (``is_int``)
    modulo the orders.  Equality is by value (group and index); the
    arithmetic is lookups in the group's index tables, and ``coords`` is
    read back from the index.
    """

    __slots__ = ("group", "index")
    group: AbstractGroup
    index: int

    def __init__(self, group: AbstractGroup, coords: Sequence[int]) -> None:
        if len(coords) != len(group.orders):
            raise ValueError(
                f"expected {len(group.orders)} coordinates, got {len(coords)}"
            )
        bad = next((c for c in coords if not is_int(c)), None)
        if bad is not None:
            raise ValueError(f"coordinates must be integers, got {bad!r}")
        object.__setattr__(self, "group", group)
        object.__setattr__(self, "index", group._index(coords))

    def __reduce__(self):
        return (AbstractClass, (self.group, self.coords))

    def __repr__(self) -> str:
        return f"AbstractClass(group={self.group!r}, coords={self.coords!r})"

    @property
    def coords(self) -> tuple[int, ...]:
        return self.group._coords[self.index]

    def __hash__(self) -> int:
        return hash((self.group.orders, self.index))

    # benchmark/tracing.py wraps these per class, through the class's own namespace.
    __add__, order, p_part = _ClassArithmetic.__add__, _ClassArithmetic.order, _ClassArithmetic.p_part

    def to_payload(self) -> dict:
        return self.group.key_payload(self.index)


def _validate_invariants(invariants: Iterable[tuple[Place, Fraction]]) -> tuple:
    """The key of the class with these (place, residue) pairs from outside."""
    seen: dict[Place, Fraction] = {}
    for v, inv in invariants:
        v = check_place(v)
        inv = Fraction(inv) % 1
        if v in seen:
            raise ValueError(f"duplicate place {v!r}")
        if v == REAL_PLACE and inv not in (Fraction(0), Fraction(1, 2)):
            raise ValueError(f"real invariant must be 0 or 1/2, got {inv}")
        seen[v] = inv  # zero too, so a later entry at v is a duplicate
    total = sum(seen.values(), Fraction(0))
    if total.denominator != 1:
        raise ValueError(f"local invariants must sum to 0 mod 1, got {total}")
    return _lowest_terms(sorted(
        (*place_sort_key(v), inv.numerator, inv.denominator) for v, inv in seen.items()))


class RationalClass(_ClassArithmetic, Record):
    """A Brauer class of Q: the value ``key`` (see ``RATIONALS``), built
    from checked (place, residue) pairs.  The arithmetic is the group's on
    keys, and ``invariants`` is read back from the key."""

    key: tuple
    group = RATIONALS

    def __init__(self, invariants: Iterable[tuple[Place, Fraction]]) -> None:
        object.__setattr__(self, "key", _validate_invariants(invariants))

    @property
    def invariants(self) -> tuple[tuple[Place, Fraction], ...]:
        return tuple((REAL_PLACE if r == 0 else v, Fraction(a, d)) for r, v, a, d in self.key)

    def invariant_at(self, v: Place) -> Fraction:
        return dict(self.invariants).get(v, Fraction(0))

    def ramified_places(self) -> tuple[Place, ...]:
        return tuple(REAL_PLACE if r == 0 else v for r, v, _, _ in self.key)

    # benchmark/tracing.py wraps these per class, through the class's own namespace.
    __add__, order, p_part = _ClassArithmetic.__add__, _ClassArithmetic.order, _ClassArithmetic.p_part

    def to_payload(self) -> dict:
        return self.group.key_payload(self.key)


BrauerClass = AbstractClass | RationalClass


def subgroup_keys(group: BrauerGroup, keys: Iterable) -> frozenset:
    """Keys of the subgroup generated by the classes at ``keys``.  A generator
    g outside the subgroup H so far adds the cosets H + k g for k = 1, 2, ...
    until k g lies in H: one ``add_keys`` per element."""
    add = group.add_keys
    known = {group.identity_key}
    for g in keys:
        if g in known:
            continue
        base, step = list(known), g
        while step not in known:
            known.update([add(h, step) for h in base])
            step = add(step, g)
    return frozenset(known)


def generated_subgroup(
    cs: Sequence[BrauerClass], *, group: BrauerGroup | None = None
) -> frozenset[BrauerClass]:
    """Subgroup generated by the given classes, as a frozen set of classes,
    closed on keys by ``subgroup_keys``.  The group model is inferred from the
    classes; for an empty sequence it must be passed explicitly."""
    if cs:
        group = common_group(*cs)
    elif group is None:
        raise ValueError("empty generating set needs an explicit group")
    return frozenset(map(group.class_at, subgroup_keys(group, map(group.class_key, cs))))


class CSA(Record):
    """A central simple algebra presented by its Brauer class and degree."""

    brauer_class: BrauerClass
    degree: int

    def __post_init__(self) -> None:
        if not is_int(self.degree) or self.degree < 1:
            raise ValueError(f"degree must be a positive integer, got {self.degree}")
        per = self.brauer_class.order()
        if self.degree % per != 0:
            raise ValueError(
                f"period {per} does not divide degree {self.degree}"
            )
        if self.degree % self.index() != 0:
            raise ValueError(
                f"index {self.index()} does not divide degree {self.degree}"
            )

    @property
    def group(self) -> BrauerGroup:
        return self.brauer_class.group

    def period(self) -> int:
        return self.brauer_class.order()

    def index(self) -> int:
        return self.group.index_of(self.brauer_class)

    def to_payload(self) -> dict:
        return {"degree": self.degree, "class": self.brauer_class.to_payload()}


def coprime_indexes(a: CSA, b: CSA) -> bool:
    """True when ind(A) and ind(B) are coprime (the splitting hypothesis)."""
    common_group(a, b)
    return math.gcd(a.index(), b.index()) == 1
