"""Output checks that do not reuse the code under test.

Expected values come from closed forms (rank measure deg, C(deg, d), n or
n - 1, products over factors), from a small group model written here (class
sums, p-primary parts, generated subgroups), from the Gaussian binomial by its
product formula, and from arithmetic facts about the printed classes (the
product formula of Hilbert symbols: local invariants sum to an integer).

The public functions below return ``check(code, stdout) -> None | message``.
"""

from __future__ import annotations

import json
import math
from collections import Counter
from fractions import Fraction
from typing import Callable

Check = Callable[[object, str], "str | None"]


def _prime_divisors(n: int) -> list[int]:
    out, p = [], 2
    while p * p <= n:
        if n % p == 0:
            out.append(p)
            while n % p == 0:
                n //= p
        p += 1
    if n > 1:
        out.append(n)
    return out


def gaussian_binomial(n: int, k: int) -> list[int]:
    """Coefficients of [n choose k]_q, from prod (1 - q^(n-i)) / (1 - q^(i+1))."""
    k = min(k, n - k)  # [n choose k]_q = [n choose n-k]_q; keeps the product short
    poly = [1]
    for i in range(k):
        shift = n - i
        out = poly + [0] * shift
        for j, c in enumerate(poly):
            out[j + shift] -= c
        poly = out
    for i in range(1, k + 1):
        # Exact division by (1 - q^i): q[j] = p[j] + q[j - i].
        quotient = list(poly)
        for j in range(i, len(quotient)):
            quotient[j] += quotient[j - i]
        poly = quotient[: len(quotient) - i]
    poly = poly[: k * (n - k) + 1]
    if sum(poly) != math.comb(n, k) or min(poly) < 0:
        raise AssertionError(f"Gaussian binomial ({n}, {k}) went wrong")
    return poly


class Group:
    """Z/n_1 x ... x Z/n_k on coordinate tuples, independent of the package."""

    def __init__(self, orders):
        self.orders = tuple(orders)
        self.payload = {"kind": "abstract", "orders": list(self.orders)}
        self.zero = (0,) * len(self.orders)
        exponent = math.lcm(*self.orders)
        # u_p = 1 mod p^a and 0 mod the prime-to-p part m of the exponent,
        # so u_p * x is the p-primary part of x.
        self.p_units = {}
        for p in _prime_divisors(exponent):
            pa = p ** next(a for a in range(64) if exponent % p ** (a + 1))
            m = exponent // pa
            self.p_units[p] = m * pow(m, -1, pa) % exponent

    def add(self, a, b):
        return tuple((x + y) % n for x, y, n in zip(a, b, self.orders))

    def scale(self, k, a):
        return tuple((k * x) % n for x, n in zip(a, self.orders))

    def order_of(self, a) -> int:
        return math.lcm(1, *(n // math.gcd(n, x) for x, n in zip(a, self.orders)))

    def is_prime_power_order(self, a) -> bool:
        return len(_prime_divisors(self.order_of(a))) <= 1

    def random(self, rng):
        return tuple(rng.randrange(n) for n in self.orders)

    def random_torsion(self, rng, k: int):
        """A random x with k * x = 0."""
        return tuple(
            rng.randrange(math.gcd(n, k)) * (n // math.gcd(n, k)) for n in self.orders
        )

    def unit(self, rng, o: int) -> int:
        """A random multiplier prime to o (so <k a> = <a> when ord a = o)."""
        return rng.choice([k for k in range(1, max(o, 2)) if math.gcd(k, o) == 1])

    def convolve(self, xs: Counter, ys: Counter) -> Counter:
        out: Counter = Counter()
        for a, i in xs.items():
            for b, j in ys.items():
                out[self.add(a, b)] += i * j
        return out

    def generated(self, classes) -> frozenset:
        known, frontier = {self.zero}, [self.zero]
        while frontier:
            nxt = []
            for x in frontier:
                for g in classes:
                    y = self.add(x, g)
                    if y not in known:
                        known.add(y)
                        nxt.append(y)
            frontier = nxt
        return frozenset(known)

    def measures_equal(self, xs: Counter, ys: Counter) -> bool:
        """Same size and, for every prime, the same multiset of p-parts."""
        if sum(xs.values()) != sum(ys.values()):
            return False
        for u in self.p_units.values():
            px, py = Counter(), Counter()
            for a, k in xs.items():
                px[self.scale(u, a)] += k
            for a, k in ys.items():
                py[self.scale(u, a)] += k
            if px != py:
                return False
        return True


def _load(code, out: str):
    if code != 0:
        raise _Failed(f"exit code {code}")
    return json.loads(out)


class _Failed(Exception):
    pass


def _checked(fn) -> Check:
    def check(code, out):
        try:
            return fn(code, out)
        except _Failed as exc:
            return str(exc)
        except (ValueError, KeyError, TypeError, IndexError) as exc:
            return f"unreadable output: {type(exc).__name__}: {exc}"

    return check


def _echo(payload: dict, doc: dict) -> None:
    for key, value in doc.items():
        if payload.get(key) != value:
            raise _Failed(f"echoed {key!r} differs from the input")


def measure(doc: dict, classes: Counter, dim: int, prime_power: Callable) -> Check:
    rho = sum(classes.values())

    def check(code, out):
        payload = _load(code, out)
        _echo(payload, doc)
        m = payload["measure"]
        if m["rho"] != rho or m["dim"] != dim:
            return f"rho/dim {m['rho']}/{m['dim']}, closed form {rho}/{dim}"
        listed = [tuple(c["coords"]) for c in m["jt_effective"]["classes"]]
        if listed != sorted(listed):
            return "jt_effective classes are not in canonical order"
        got = Counter({tuple(c["coords"]): c["mult"] for c in m["jt_effective"]["classes"]})
        if got != classes:
            return "jt_effective differs from the closed-form multiset"
        terms = m["jt"]["terms"]
        if sum(t["coeff"] for t in terms) != rho:
            return "augmentation of jt differs from rho"
        if not all(prime_power(tuple(t["class"]["coords"])) for t in terms):
            return "jt has a term outside the prime-power basis"
        return None

    return _checked(check)


def compare(doc: dict, verdict: dict) -> Check:
    def check(code, out):
        payload = _load(code, out)
        _echo(payload, doc)
        if payload["verdict"] != verdict:
            return f"verdict {payload['verdict']}, expected {verdict}"
        return None

    return _checked(check)


def _report(payload: dict, verdict: dict, family: str) -> str | None:
    report = payload["report"]
    if report["family"] != family or report["assumed"] is not True:
        return f"report family/assumed {report['family']}/{report['assumed']}"
    if report["verdict"] != verdict:
        return f"verdict {report['verdict']}, expected {verdict}"
    refuted = not verdict["measures_equal"]
    if report["refuted"] != refuted:
        return f"refuted is {report['refuted']}, expected {refuted}"
    if refuted == bool(report["conclusions"]):
        return "conclusions present on a refuted pair, or missing on an equal one"
    for c in report["conclusions"]:
        if not (isinstance(c["statement"], str) and isinstance(c["rule"], str)):
            return "conclusion without statement or rule"
    return None


def deduce(doc: dict, verdict: dict, family: str) -> Check:
    def check(code, out):
        payload = _load(code, out)
        _echo(payload, doc)
        return _report(payload, verdict, family)

    return _checked(check)


def certificate(suite: str, params: dict, details: dict | None) -> Check:
    def check(code, out):
        payload = _load(code, out)
        if payload["suite"] != suite or payload["outcome"] != "pass":
            return f"certificate {payload['suite']}: {payload['outcome']}"
        if payload["params"] != params or payload["witness"] is not None:
            return "certificate params or witness differ"
        for key, value in (details or {}).items():
            if payload["details"].get(key) != value:
                return f"details.{key} = {payload['details'].get(key)}, expected {value}"
        if not isinstance(payload["version"], str):
            return "certificate without version"
        return None

    return _checked(check)


def _rational_class_problem(inv_list: list, allowed: set) -> str | None:
    """A quaternion-sum class: invariants 1/2, summing to an integer, at
    places that can ramify (real, 2, primes of the entries)."""
    total = Fraction(0)
    for item in inv_list:
        place, inv = item["place"], Fraction(item["inv"])
        if inv != Fraction(1, 2):
            return f"invariant {inv} at {place} is not 1/2"
        if place not in allowed:
            return f"ramified at {place}, which divides no entry"
        total += inv
    if total.denominator != 1:
        return f"local invariants sum to {total}: product formula fails"
    return None


def _allowed_places(primes) -> set:
    return {"real", 2} | set(primes)


def measure_form(doc: dict, n: int, primes) -> Check:
    rho = n if n % 2 == 0 else n - 1
    allowed = _allowed_places(primes)

    def check(code, out):
        payload = _load(code, out)
        _echo(payload, doc)
        m = payload["measure"]
        if m["rho"] != rho or m["dim"] != n - 2:
            return f"rho/dim {m['rho']}/{m['dim']}, closed form {rho}/{n - 2}"
        classes = m["jt_effective"]["classes"]
        if sum(c["mult"] for c in classes) != rho:
            return "jt_effective multiplicities do not sum to rho"
        trivial = [c for c in classes if not c["invariants"]]
        if not trivial or trivial[0]["mult"] < n - 2:
            return "fewer than n - 2 split summands"
        for c in classes:
            problem = _rational_class_problem(c["invariants"], allowed)
            if problem:
                return problem
        if sum(t["coeff"] for t in m["jt"]["terms"]) != rho:
            return "augmentation of jt differs from rho"
        return None

    return _checked(check)


def deduce_forms(doc: dict) -> Check:
    verdict = {"measures_equal": True, "rho_equal": True, "dims_equal": True, "subgroups_equal": True}
    return deduce(doc, verdict, "quadric")


def conic_family(primes: list[int]) -> Check:
    def check(code, out):
        payload = _load(code, out)
        if payload["pairwise_distinct"] is not True or len(payload["family"]) != len(primes):
            return "conic family incomplete"
        for p, entry in zip(primes, payload["family"]):
            invs = [{"place": 2, "inv": "1/2"}, {"place": p, "inv": "1/2"}]
            if entry["prime"] != p or entry["class"]["invariants"] != invs:
                return f"(-1, {p}) is not ramified exactly at 2 and {p}"
            if entry["ramified_places"] != ["2", str(p)]:
                return f"(-1, {p}) lists ramified places {entry['ramified_places']}"
        return None

    return _checked(check)


def sigma_anchor(kind: str, value: int, as_json: bool) -> Check:
    def check(code, out):
        if code != 0:
            return f"exit code {code}"
        if as_json:
            want = {"kind": kind, "m": 5, "n": 6, "l": 2, "value": value}
            return None if json.loads(out) == want else f"sigma {kind} is not {value}"
        return None if out == f"{value}\n" else f"sigma {kind} printed {out!r}, not {value}"

    return _checked(check)


def sigma_check(kinds: list[str], n_range: tuple, m_range: tuple) -> Check:
    want = {
        "kinds": kinds,
        "n_range": list(n_range),
        "m_range": list(m_range),
        "violations": [],
        "ok": True,
    }

    def check(code, out):
        payload = _load(code, out)
        return None if payload == want else "sigma-check found violations or echoed other ranges"

    return _checked(check)


def oracle(closed_form, primes) -> Check:
    allowed = _allowed_places(primes)

    def check(result, _out):
        if result != closed_form:
            return f"structure oracle gave {result}, closed form {closed_form}"
        return _rational_class_problem(result.to_payload()["invariants"], allowed)

    return _checked(check)
