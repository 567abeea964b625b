"""Seeded input generators for the three benchmark workloads.

Each generator takes the seed and returns a list of ``Op``: one operation of
the closed loop (the argument list of one ``titsmeasure.cli.main`` call, or
one library call) together with the check of its output.  Every input is
valid by construction, and the expected outputs are derived here from closed
forms and from small independent group computations, never from the package
under test.

Costs vary strongly with a few input sizes (group order, frontier, rank
measure, prime size), so each generator draws its inputs in fixed strata: the
seed moves every value inside its stratum, but the share of each stratum is
the same for every seed.  That keeps the latency quantiles of two seeds
comparable.
"""

from __future__ import annotations

import json
import math
import random
from collections import Counter
from dataclasses import dataclass
from typing import Any, Callable

import checks

WORKLOADS = ("verify-suites", "measure-docs", "rational-forms")


@dataclass
class Op:
    """One closed-loop operation and the check of what it returned.

    ``argv`` is a CLI argument list; when it is None, ``call`` makes one
    library call.  ``check(exit_code_or_result, stdout)`` returns None or a
    failure message.
    """

    label: str
    argv: list[str] | None
    check: Callable[[Any, str], str | None]
    call: Callable[[], Any] | None = None


ROUNDS = 2


def generate(workload: str, seed: int) -> list[Op]:
    """The corpus: the workload's strata drawn ``ROUNDS`` times.

    A larger corpus makes the latency quantiles of two seeds agree more
    closely; one pass over it takes about 2-3 s on a 2-core x86 machine.
    """
    makers = {
        "verify-suites": _verify_suites,
        "measure-docs": _measure_docs,
        "rational-forms": _rational_forms,
    }
    if workload not in makers:
        raise ValueError(f"unknown workload {workload!r}; expected one of {WORKLOADS}")
    rng = random.Random(f"{workload}:{seed}")
    return [op for r in range(ROUNDS) for op in makers[workload](rng, r)]


def _spread(rng: random.Random, lo: float, hi: float, count: int) -> list[float]:
    """``count`` values log-spread over [lo, hi], the i-th drawn from the i-th
    of ``count`` equal strata.  Callers pair the i-th value with the i-th
    entry of a fixed plan, so each plan entry gets the same size range for
    every seed."""
    return [lo * (hi / lo) ** ((i + rng.random()) / count) for i in range(count)]


# ---------------------------------------------------------------------------
# verify-suites: brute-force certificates over abstract groups of order <= 8.
# ---------------------------------------------------------------------------

# Every presentation of every abstract group of order <= 8: the number of
# 2-torsion elements, which tensor cancellation loops over, depends on it.
GROUPS = ("2", "3", "4", "2,2", "5", "6", "2,3", "7", "8", "2,4", "2,2,2")


def _order(spec: str) -> int:
    return math.prod(int(p) for p in spec.split(","))


def _verify_op(suite: str, flags: dict, params: dict, details: dict | None) -> Op:
    argv = ["verify", "--suite", suite, "--format", "json"]
    for name, value in flags.items():
        argv += [f"--{name}", str(value)]
    return Op(f"verify.{suite}", argv, checks.certificate(suite, params, details))


def _group_payload(spec: str) -> dict:
    return {"kind": "abstract", "orders": [int(p) for p in spec.split(",")]}


def _cycle(rng: random.Random, values: tuple, count: int) -> list:
    """``count`` values taking each of ``values`` in turn from a seeded start."""
    start = rng.randrange(len(values))
    return [values[(start + i) % len(values)] for i in range(count)]


def _verify_suites(rng: random.Random, r: int) -> list[Op]:
    ops: list[Op] = []

    # relation-equivalence: states_checked[m] = C(|G| + m - 1, m).
    for m_max in (1, 2, 3):
        for g in GROUPS:
            states = {str(m): math.comb(_order(g) + m - 1, m) for m in range(1, m_max + 1)}
            ops.append(
                _verify_op(
                    "relation-equivalence",
                    {"group": g, "m-max": m_max},
                    {"group": _group_payload(g), "m_max": m_max},
                    {"states_checked": states},
                )
            )

    # sum-cancellation: cost grows as |G|^(2 card_max), up to ~0.1 s at
    # card_max 3 on Z/5.  Larger cases (Z/7 takes ~0.5 s) would leave too few
    # passes in a run for a steady per-operation time.
    sum_plan = (
        [(1, g) for g in GROUPS]
        + [(2, g) for g in GROUPS]
        + [(3, g) for g in GROUPS if _order(g) <= 5]
    )
    trial_counts = _spread(rng, 20, 200, len(sum_plan))
    for (card, g), trials in zip(sum_plan, trial_counts):
        trials, seed = round(trials), rng.randint(0, 10**6)
        ops.append(
            _verify_op(
                "sum-cancellation",
                {"group": g, "card-max": card, "trials": trials, "seed": seed},
                {"group": _group_payload(g), "card_max": card, "trials": trials, "seed": seed},
                None,
            )
        )

    # tensor-cancellation over form dimensions 5..8.  Its cost grows with n,
    # so n follows the plan and the round, the same for every seed.
    tensor_plan = (
        [(1, g) for g in GROUPS]
        + [(2, g) for g in GROUPS]
        + [(3, g) for g in GROUPS if _order(g) <= 7]
    )
    for j, (card, g) in enumerate(tensor_plan):
        n = 5 + (j + r) % 4
        ops.append(
            _verify_op(
                "tensor-cancellation",
                {"group": g, "n": n, "card-max": card},
                {"group": _group_payload(g), "n_dim": n, "card_max": card},
                None,
            )
        )

    # quadric-product-matching: families = C(2^d + m - 1, m).
    qpm_plan = [(d, m) for d in range(6) for m in (1, 2, 3)]
    for (d_max, m), n in zip(qpm_plan, _cycle(rng, (5, 6, 7, 8), len(qpm_plan))):
        ops.append(
            _verify_op(
                "quadric-product-matching",
                {"d-max": d_max, "m": m, "n": n},
                {"d_max": d_max, "m": m, "n_dim": n},
                {"families": math.comb((1 << d_max) + m - 1, m)},
            )
        )

    # normal-form-confluence with seeded trial counts.
    conf_plan = GROUPS * 2
    for g, trials in zip(conf_plan, _spread(rng, 20, 300, len(conf_plan))):
        trials, seed = round(trials), rng.randint(0, 10**6)
        ops.append(
            _verify_op(
                "normal-form-confluence",
                {"group": g, "trials": trials, "seed": seed},
                {"group": _group_payload(g), "trials": trials, "seed": seed},
                None,
            )
        )
    return ops


# ---------------------------------------------------------------------------
# measure-docs: measure/compare/deduce documents over abstract groups.
# Descriptors are built together with their expected class multiset.
# ---------------------------------------------------------------------------

MD_GROUPS = ((2, 2, 2), (2, 4), (12,), (2, 6), (2, 2, 3))


@dataclass
class Variety:
    payload: dict
    classes: Counter  # coords tuple -> multiplicity, from the closed forms
    dim: int


def _cls(coords) -> dict:
    return {"coords": list(coords)}


def _sb(g: checks.Group, deg: int, a: tuple) -> Variety:
    classes = Counter(g.scale(i, a) for i in range(deg))
    payload = {"family": "severi-brauer", "alg": {"degree": deg, "class": _cls(a)}}
    return Variety(payload, classes, deg - 1)


def _gr(g: checks.Group, d: int, deg: int, a: tuple) -> Variety:
    counts = checks.gaussian_binomial(deg, d)
    classes: Counter = Counter()
    for w, c in enumerate(counts):
        if c:
            classes[g.scale(w, a)] += c
    payload = {"family": "grassmannian", "d": d, "alg": {"degree": deg, "class": _cls(a)}}
    return Variety(payload, classes, d * (deg - d))


def _qs(g: checks.Group, dim: int, c: tuple, i3: bool) -> Variety:
    classes = Counter({g.zero: dim - 2})
    classes[c] += 2 if dim % 2 == 0 else 1
    payload = {
        "family": "quadric",
        "shadow": {"dim": dim, "clifford_class": _cls(c), "i3_zero": i3},
    }
    return Variety(payload, classes, dim - 2)


def _inv(g: checks.Group, deg: int, cplus: tuple) -> Variety:
    """Involution variety from c+; for deg = 0 mod 4, c+ is 2-torsion."""
    if deg % 4 == 2:
        return _inv_classes(g, deg, cplus, g.scale(3, cplus), g.scale(2, cplus), False)
    return _inv_classes(g, deg, cplus, cplus, None, False)


def _inv_classes(g, deg, cplus, cminus, alg, swap) -> Variety:
    if alg is None:
        alg = g.add(cplus, cminus)
    if swap:
        cplus, cminus = cminus, cplus
    half = (deg - 2) // 2
    classes = Counter({g.zero: half})
    classes[alg] += half
    classes[cplus] += 1
    classes[cminus] += 1
    payload = {
        "family": "involution",
        "deg": deg,
        "alg_class": _cls(alg),
        "cplus": _cls(cplus),
        "cminus": _cls(cminus),
    }
    return Variety(payload, classes, deg)


def _product(g: checks.Group, children: list[Variety]) -> Variety:
    classes = children[0].classes
    for child in children[1:]:
        classes = g.convolve(classes, child.classes)
    payload = {"family": "product", "children": [c.payload for c in children]}
    return Variety(payload, classes, sum(c.dim for c in children))


def _measure_op(label: str, g: checks.Group, v: Variety) -> Op:
    doc = {"group": g.payload, "variety": v.payload}
    argv = ["measure", json.dumps(doc), "--format", "json"]
    return Op(label, argv, checks.measure(doc, v.classes, v.dim, g.is_prime_power_order))


def _pair_op(label: str, cmd: str, g: checks.Group, x: Variety, y: Variety, family: str) -> Op:
    doc = {"group": g.payload, "x": x.payload, "y": y.payload}
    verdict = {
        "measures_equal": g.measures_equal(x.classes, y.classes),
        "rho_equal": sum(x.classes.values()) == sum(y.classes.values()),
        "dims_equal": x.dim == y.dim,
        "subgroups_equal": g.generated(x.classes) == g.generated(y.classes),
    }
    argv = [cmd, json.dumps(doc), "--format", "json"]
    if cmd == "compare":
        return Op(label, argv, checks.compare(doc, verdict))
    return Op(label, argv, checks.deduce(doc, verdict, family))


def _gr_shapes(order: int, lo: int, hi: int) -> list[tuple[int, int, int]]:
    """(C(deg, d), d, deg) with d <= deg/2, deg a multiple of ``order``."""
    out = []
    for deg in range(order * ((2 + order - 1) // order), 400, order):
        for d in range(1, deg // 2 + 1):
            c = math.comb(deg, d)
            if c > hi:
                break
            if c >= lo:
                out.append((c, d, deg))
    return sorted(out)


def _nearest(shapes: list[tuple], target: float) -> tuple:
    return min(shapes, key=lambda s: abs(math.log(s[0] / target)))


def _measure_docs(rng: random.Random, r: int) -> list[Op]:
    ops: list[Op] = []
    groups = [checks.Group(o) for o in MD_GROUPS]

    def pick_group() -> checks.Group:
        return rng.choice(groups)

    def small_sb(g):
        a = g.random(rng)
        o = g.order_of(a)
        return _sb(g, o * rng.randint(1, max(1, 24 // o)), a)

    def small_gr(g):
        a = g.random(rng)
        _, d, deg = rng.choice(_gr_shapes(g.order_of(a), 1, 100))
        return _gr(g, d, deg, a)

    def small_qs(g):
        return _qs(g, rng.randint(3, 12), g.random_torsion(rng, 2), rng.random() < 0.5)

    def small_inv(g):
        deg = rng.choice(range(6, 21, 2))
        return _inv(g, deg, g.random_torsion(rng, 4 if deg % 4 == 2 else 2))

    def conic(g):
        return _sb(g, 2, g.random_torsion(rng, 2))

    def small_product(g):
        makers = [
            conic,
            lambda g: _qs(g, rng.randint(3, 5), g.random_torsion(rng, 2), False),
            lambda g: _sb(g, 4, g.random_torsion(rng, 4)),
        ]
        while True:
            children = [rng.choice(makers)(g) for _ in range(rng.randint(2, 3))]
            v = _product(g, children)
            if sum(v.classes.values()) <= 100:
                return v

    small_makers = [small_sb, small_gr, small_qs, small_inv, small_product]
    counts = {small_sb: 10, small_gr: 8, small_qs: 8, small_inv: 8, small_product: 8}
    for make, count in counts.items():
        for _ in range(count):
            g = pick_group()
            ops.append(_measure_op("measure.small", g, make(g)))

    # Small compare: half built equal, half random pairs.
    for i in range(12):
        g = pick_group()
        if i % 2 == 0:
            x, y = _equal_pair(rng, g, i // 2 % 4)
        else:
            x, y = rng.choice(small_makers)(g), rng.choice(small_makers)(g)
        ops.append(_pair_op("compare.small", "compare", g, x, y, ""))

    # Small deduce: every family of _family_key, built equal, plus refuted pairs.
    for i in range(16):
        g = pick_group()
        kind = i % 6
        if i >= 12:
            a, b = g.random(rng), g.random(rng)
            o = math.lcm(g.order_of(a), g.order_of(b))
            x, y = _sb(g, o, a), _sb(g, o, b)
            family = "severi-brauer"
        elif kind == 0:
            x, y = _equal_pair(rng, g, 0)
            family = "severi-brauer"
        elif kind == 1:
            x, y = _equal_pair(rng, g, 1)
            family = "grassmannian"
        elif kind == 2:
            dim, c = rng.randint(3, 12), g.random_torsion(rng, 2)
            x, y = _qs(g, dim, c, False), _qs(g, dim, c, True)
            family = "quadric"
        elif kind == 3:
            x, y = _equal_pair(rng, g, 2)
            family = "involution"
        elif kind == 4:
            a, b = conic(g), conic(g)
            x, y = _product(g, [a, b]), _product(g, [b, a])
            family = "conic-product"
        else:
            dim = rng.randint(5, 6)
            qa = _qs(g, dim, g.random_torsion(rng, 2), False)
            qb = _qs(g, dim, g.random_torsion(rng, 2), False)
            x, y = _product(g, [qa, qb]), _product(g, [qb, qa])
            family = "quadric-product"
        ops.append(_pair_op("deduce.small", "deduce", g, x, y, family))

    # Large documents.  Single measures span rho ~ 500..3000; compare and
    # deduce compute two measures plus subgroups and signatures, so their
    # sides span rho ~ 150..1000 and all large documents cost about the same.
    # One product of four 8-dimensional quadrics (rho = 4096) per round is the
    # largest document, so every seed reaches the same peak memory.
    g = pick_group()
    ops.append(_measure_op("measure.large", g, _quadric_product(rng, g, 4096, [8, 8, 8, 8])))
    for target in _spread(rng, 500, 3000, 7):
        g = pick_group()
        ops.append(_measure_op("measure.large", g, _quadric_product(rng, g, target)))
    for target in _spread(rng, 500, 3000, 6):
        g = pick_group()
        a = g.random(rng)
        o = g.order_of(a)
        ops.append(_measure_op("measure.large", g, _sb(g, o * max(1, round(target / o)), a)))
    for target in _spread(rng, 1000, 10000, 6):
        g = pick_group()
        a = g.random(rng)
        _, d, deg = _nearest(_gr_shapes(g.order_of(a), 1000, 10000), target)
        ops.append(_measure_op("measure.large", g, _gr(g, d, deg, a)))
    for cmd, targets in (("compare", _spread(rng, 150, 1000, 5)), ("deduce", _spread(rng, 150, 1000, 5))):
        for i, target in enumerate(targets):
            g = pick_group()
            x, y, family = _large_pair(rng, g, i % 3, target)
            ops.append(_pair_op(f"{cmd}.large", cmd, g, x, y, family))
    return ops


def _equal_pair(rng, g: checks.Group, kind: int) -> tuple[Variety, Variety]:
    """Two descriptors with equal measures: Severi-Brauer of [A] and of a
    generator-preserving multiple, Grassmannians d and deg - d, involutions
    with c+ and c- swapped, and a product with its factors swapped."""
    if kind == 0:
        a = g.random(rng)
        o = g.order_of(a)
        deg = o * rng.randint(1, max(1, 24 // o))
        return _sb(g, deg, a), _sb(g, deg, g.scale(g.unit(rng, o), a))
    if kind == 1:
        a = g.random(rng)
        _, d, deg = rng.choice(_gr_shapes(g.order_of(a), 1, 100))
        return _gr(g, d, deg, a), _gr(g, deg - d, deg, a)
    if kind == 2:
        deg = rng.choice(range(8, 21, 4))
        a, b = g.random_torsion(rng, 2), g.random_torsion(rng, 2)
        return _inv_classes(g, deg, a, b, None, False), _inv_classes(g, deg, a, b, None, True)
    qa = _qs(g, rng.randint(3, 5), g.random_torsion(rng, 2), False)
    sb = _sb(g, 2, g.random_torsion(rng, 2))
    return _product(g, [qa, sb]), _product(g, [sb, qa])


QUADRIC_RHO = {5: 4, 6: 6, 7: 6, 8: 8}


def _quadric_children(rng, g: checks.Group, target: float, dims=None) -> list[Variety]:
    """3-4 quadric shadows (dims 5..8) whose product has rho near ``target``."""
    if dims is None:
        shapes = []
        for k in (3, 4):
            for combo in _dim_combos(k):
                shapes.append((math.prod(QUADRIC_RHO[d] for d in combo), combo))
        best = min(abs(math.log(s[0] / target)) for s in shapes)
        near = [s for s in shapes if abs(math.log(s[0] / target)) <= best + 1e-9]
        dims = list(rng.choice(near)[1])
        rng.shuffle(dims)
    return [_qs(g, d, g.random_torsion(rng, 2), rng.random() < 0.5) for d in dims]


def _quadric_product(rng, g: checks.Group, target: float, dims=None) -> Variety:
    return _product(g, _quadric_children(rng, g, target, dims))


def _dim_combos(k: int) -> list[tuple[int, ...]]:
    out = [()]
    for _ in range(k):
        out = [c + (d,) for c in out for d in QUADRIC_RHO if not c or d >= c[-1]]
    return out


def _large_pair(rng, g: checks.Group, kind: int, target: float):
    if kind == 0:
        # Same form dimension on every factor, as quadric-product deduction
        # needs: (dim, factors) with rho 216..512.
        _, dim, k = _nearest([(216, 6, 3), (216, 7, 3), (256, 5, 4), (512, 8, 3)], target)
        children = _quadric_children(rng, g, target, [dim] * k)
        permuted = list(children)
        rng.shuffle(permuted)
        return _product(g, children), _product(g, permuted), "quadric-product"
    a = g.random(rng)
    o = g.order_of(a)
    if kind == 1:
        deg = o * max(1, round(target / o))
        return _sb(g, deg, a), _sb(g, deg, g.scale(g.unit(rng, o), a)), "severi-brauer"
    _, d, deg = _nearest(_gr_shapes(o, 100, 2000), target)
    return _gr(g, d, deg, a), _gr(g, deg - d, deg, a), "grassmannian"


# ---------------------------------------------------------------------------
# rational-forms: diagonal forms over Q, conic families, sigma, the oracle.
# ---------------------------------------------------------------------------

def _primes(lo: int, hi: int) -> list[int]:
    sieve = bytearray([1]) * hi
    sieve[:2] = b"\x00\x00"
    for p in range(2, math.isqrt(hi - 1) + 1):
        if sieve[p]:
            sieve[p * p :: p] = bytearray(len(sieve[p * p :: p]))
    return [p for p in range(lo, hi) if sieve[p]]


SMALL_PRIMES = _primes(2, 100)
MEDIUM_PRIMES = _primes(1000, 10000)


def _form(rng, n: int, medium: float | None) -> tuple[list[int], set[int]]:
    """Diagonal form of dimension n with trivial signed discriminant.

    Entries are signed products of small primes; with ``medium`` set, each
    entry also carries one prime near that size.  The last entry makes
    (-1)^(n(n-1)/2) det a square, so every dimension is a valid quadric.
    """
    entries, odd = [], Counter()
    used: set[int] = set()
    for j in range(n - 1):
        # Entry j carries j mod 3 small primes, so the factoring work of a
        # form depends on n and the prime size, not on the seed.
        factors = [rng.choice(SMALL_PRIMES) for _ in range(j % 3)]
        if medium is not None:
            i = min(range(len(MEDIUM_PRIMES)), key=lambda j: abs(MEDIUM_PRIMES[j] - medium * rng.uniform(0.9, 1.1)))
            factors.append(MEDIUM_PRIMES[i])
        value = rng.choice((-1, 1)) * math.prod(factors)
        entries.append(value)
        odd.update(factors)
        used.update(factors)
    s = -1 if (n * (n - 1) // 2) % 2 else 1
    sign = -1 if math.prod(entries) < 0 else 1
    entries.append(s * sign * math.prod(p for p, e in odd.items() if e % 2))
    return entries, used


def _rational_forms(rng: random.Random, r: int) -> list[Op]:
    ops: list[Op] = []
    rational = {"kind": "rational"}

    def quadric(entries):
        return {"family": "quadric", "form": [str(e) for e in entries]}

    # measure: every dimension 3..10 with small primes, and again with
    # medium primes log-spread over 10^3..10^4.  Factoring cost grows with
    # both n and the prime size, so every n gets one prime from each third
    # of the range.
    for n in range(3, 11):
        mediums = iter(_spread(rng, 1000, 9000, 3))
        for prime_size in ("small", "small", "medium", "medium", "medium"):
            entries, used = _form(rng, n, None if prime_size == "small" else next(mediums))
            doc = {"group": rational, "variety": quadric(entries)}
            ops.append(
                Op(
                    f"measure.form.{prime_size}",
                    ["measure", json.dumps(doc), "--format", "json"],
                    checks.measure_form(doc, n, used),
                )
            )

    # deduce: the same form against a permuted copy with one entry scaled by
    # a square, so the quadrics are isometric and the measures equal.
    mediums = iter(_spread(rng, 1000, 4000, 6))
    for i in range(12):
        n = 3 + i % 6
        entries, _ = _form(rng, n, None if i % 2 else next(mediums))
        other = list(entries)
        j = rng.randrange(n)
        other[j] *= rng.choice((2, 3, 5)) ** 2
        rng.shuffle(other)
        doc = {"group": rational, "x": quadric(entries), "y": quadric(other)}
        ops.append(
            Op("deduce.form", ["deduce", json.dumps(doc), "--format", "json"], checks.deduce_forms(doc))
        )

    # conic-family over distinct primes = 3 mod 4.
    pool = [p for p in _primes(3, 2000) if p % 4 == 3]
    for _ in range(8):
        primes = rng.sample(pool, rng.randint(2, 8))
        ops.append(
            Op(
                "conic-family",
                ["conic-family", "--primes", ",".join(map(str, primes)), "--format", "json"],
                checks.conic_family(primes),
            )
        )

    # sigma anchors in each accepted spelling.
    for i in range(8):
        kind, value = (("1even", 768), ("2even", 576))[i % 2]
        style = i // 2 % 3
        if style == 0:
            argv = ["sigma", kind, "5", "6", "2"]
        else:
            argv = ["sigma", "--kind", kind, "--m", "5", "--n", "6", "--l", "2"]
        if style == 2:
            argv += ["--format", "json"]
        ops.append(Op("sigma", argv, checks.sigma_anchor(kind, value, style == 2)))

    # small sigma-check grids.
    kinds = ["11even", "11odd", "12even", "12odd", "2even", "2odd"]
    for i in range(9):
        n_min, m_min = rng.randint(5, 12), rng.randint(2, 5)
        n_max, m_max = n_min + i % 3, m_min + i // 3
        chosen = sorted(rng.sample(kinds, 2 + i % 5), key=kinds.index)
        argv = [
            "sigma-check", "--kinds", ",".join(chosen),
            "--n-min", str(n_min), "--n-max", str(n_max),
            "--m-min", str(m_min), "--m-max", str(m_max),
            "--format", "json",
        ]
        ops.append(Op("sigma-check", argv, checks.sigma_check(chosen, (n_min, n_max), (m_min, m_max))))

    # Clifford oracle: library calls, under 5% of the operations.  The
    # function is looked up on the module at call time, so a traced run
    # sees its wrapper.
    from titsmeasure import clifford, quadforms

    for n in (4, 5, 6):
        entries, used = _form(rng, n, None)
        q = quadforms.QuadraticForm.of(entries)
        ops.append(
            Op(
                "clifford.oracle",
                None,
                checks.oracle(quadforms.even_clifford_class(q), used),
                call=lambda q=q: clifford.even_clifford_class_by_structure(q),
            )
        )
    return ops
