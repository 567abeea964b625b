"""Descriptors for twisted flag varieties, their measures, and deductions.

Four families plus finite products.  Each descriptor knows the multiset of
Brauer classes of its distinguished algebras; from that we get

- the class-sum measure into the group-ring quotient (``tits_measure``), and
- the integer rank measure, its augmentation (``tits_measure(v).rho``).

``deduce`` turns an asserted Grothendieck-class equality into the conclusions
the classification literature licenses per family, checking the computed
measures first so a false assertion is flagged instead of silently used.
"""

from __future__ import annotations

import math

from .brauer import (
    CSA,
    BrauerClass,
    BrauerGroup,
    Record,
    ResourceLimitError,
    check_work,
    common_group,
    is_int,
    record_payload,
    subgroup_keys,
)
from .measure_ring import RingElement, augmentation, from_motive_sum
from .motives import MotiveSum, tensor
from .quadforms import I3_OVER_Q, FormShadow, QuadraticForm
from .quadforms import even_clifford_class, signed_discriminant
from .sigma import MAX_DIGITS, extra_condition_failures


# A measure prints one entry per distinct class: ord([A]) of them for a
# Severi-Brauer or Grassmannian variety, and up to |S| x |s| for a product step
# over two supports.  Past this many, measuring raises ``ResourceLimitError``
# before it builds any class.
MAX_CLASSES = 2**14
# The class pairs of all the steps of a product, those of the products nested
# in it included, are priced together, at PAIR_WORK units of
# ``brauer.WORK_LIMIT`` a pair: about 4 us (Python 3.11, 2-core VM) when the
# group adds the pair for the first time, its share of the measure included,
# and under 1 us for a pair it has added before.
PAIR_WORK = 20
# A rank measure with more digits than Python prints by default is refused
# the same way, at the figure ``sigma`` refuses its values past; a product
# checks it after each step, since a rank only grows.
_RANK_CAP = 10**MAX_DIGITS
# A printed measure writes every multiplicity of ``jt`` and ``jt_effective`` in
# decimal.  Past this many digits in all, serializing a measure raises
# ``ResourceLimitError``; ``compare`` and ``deduce`` print no multiplicities.
MAX_PRINTED_DIGITS = 10**6


def _check_classes(what: str, count: int) -> None:
    if count > MAX_CLASSES:
        raise ResourceLimitError(f"{what} {count} is past the limit of {MAX_CLASSES} classes")


def _check_rank(ms: MotiveSum) -> None:
    if ms.rank >= _RANK_CAP:
        raise ResourceLimitError(f"rank measure has more than {MAX_DIGITS} digits")


def folded_cell_counts(d: int, n: int, r: int) -> list[int]:
    """Schubert cells of Gr(d, n) counted by weight mod r, for r | n.

    At a primitive s-th root of unity, s | r, the Gaussian binomial
    [n choose d]_q is f(r/s) = C(n/s, d/s) if s | d, else 0 (cyclic sieving;
    Reiner-Stanton-White, JCTA 108, 2004).  The counts spread h(t) cells evenly
    over the t multiples of r/t, where f(t) sums h(u) over u | t, so the cost
    follows r and its divisors, not the C(n, d) cells.
    """
    _check_classes("class order", r)
    k = min(d, n - d)  # C(n, k) >= (n/k)^k >= 2^(k b) for 2^b <= n/k: refuse before comb
    if k and k * ((n // k).bit_length() - 1) >= _RANK_CAP.bit_length():
        raise ResourceLimitError(f"rank C({n}, {d}) has more than {MAX_DIGITS} digits")
    divisors = [t for t in range(1, r + 1) if r % t == 0]
    h: dict[int, int] = {}
    spread = [0] * r
    for t in divisors:
        s = r // t
        f = math.comb(n // s, d // s) if d % s == 0 else 0
        h[t] = f - sum(h[u] for u in divisors if u < t and t % u == 0)
        spread[::s] = [x + h[t] * s for x in spread[::s]]
    if any(x % r for x in spread):
        raise AssertionError("the folded cell counts are not integers")
    return [x // r for x in spread]


def _cell_sum(alg: CSA, d: int) -> MotiveSum:
    """The cells of Gr(d, deg) as classes: a weight-w cell carries w[A]."""
    a, group = alg.brauer_class, alg.group
    counts = folded_cell_counts(d, alg.degree, a.order())
    add, step, keys = group.add_keys, group.class_key(a), [group.identity_key]
    for _ in counts[1:]:
        keys.append(add(keys[-1], step))  # the keys of 0, a, 2a, ...
    return MotiveSum._of_keys(group, zip(keys, counts))


class SeveriBrauer(Record):
    alg: CSA

    family = "severi-brauer"

    @property
    def group(self) -> BrauerGroup:
        return self.alg.group

    @property
    def dim(self) -> int:
        return self.alg.degree - 1

    def jt_classes(self) -> MotiveSum:
        return _cell_sum(self.alg, 1)  # rank-1 right ideals: Gr(1, deg)

    def to_payload(self) -> dict:
        return record_payload(self, family=self.family)


class Grassmannian(Record):
    d: int
    alg: CSA

    family = "grassmannian"

    def __post_init__(self) -> None:
        if not (is_int(self.d) and 1 <= self.d < self.alg.degree):
            raise ValueError(
                f"Grassmannian parameter must satisfy 1 <= d < deg, "
                f"got d={self.d}, deg={self.alg.degree}"
            )

    @property
    def group(self) -> BrauerGroup:
        return self.alg.group

    @property
    def dim(self) -> int:
        return self.d * (self.alg.degree - self.d)

    def jt_classes(self) -> MotiveSum:
        return _cell_sum(self.alg, self.d)

    def to_payload(self) -> dict:
        return record_payload(self, family=self.family)


class Quadric(Record):
    """A projective quadric; its even-Clifford class is computed once, here,
    and kept as ``clifford_class``, which is not a field.

    Equality and hashing read ``form`` alone.
    """

    form: QuadraticForm | FormShadow

    family = "quadric"

    def __post_init__(self) -> None:
        if isinstance(self.form, QuadraticForm):
            if self.form.dim < 3:
                raise ValueError("quadric needs form dimension >= 3")
            if signed_discriminant(self.form) != 1:
                raise ValueError(
                    "quadric family requires trivial signed discriminant"
                )
            cls = even_clifford_class(self.form)
        elif isinstance(self.form, FormShadow):
            cls = self.form.clifford_class
        else:
            raise ValueError("quadric takes a QuadraticForm or a FormShadow")
        object.__setattr__(self, "clifford_class", cls)

    @property
    def form_dim(self) -> int:
        return self.form.dim

    @property
    def i3_zero(self) -> bool:
        return isinstance(self.form, FormShadow) and self.form.i3_zero

    @property
    def group(self) -> BrauerGroup:
        return self.clifford_class.group

    @property
    def dim(self) -> int:
        return self.form_dim - 2

    def jt_classes(self) -> MotiveSum:
        n, group = self.form_dim, self.group
        copies = 2 if n % 2 == 0 else 1
        pairs = [(group.identity_key, n - 2), (group.class_key(self.clifford_class), copies)]
        return MotiveSum._of_keys(group, pairs)

    def to_payload(self) -> dict:
        kind = "form" if isinstance(self.form, QuadraticForm) else "shadow"
        return {"family": self.family, kind: self.form.to_payload()}


class Involution(Record):
    """Variety of isotropic right ideals of an algebra with involution.

    The stored component classes must satisfy the degree-dependent relations:
    for deg = 2 mod 4 the classes cplus, cminus = 3 cplus are 4-torsion with
    2 cplus = [A]; for deg = 0 mod 4 both are 2-torsion with sum [A].
    """

    deg: int
    alg_class: BrauerClass
    cplus: BrauerClass
    cminus: BrauerClass

    family = "involution"

    def __post_init__(self) -> None:
        if not is_int(self.deg) or self.deg % 2 or self.deg < 6:
            raise ValueError(f"involution degree must be even and >= 6, got {self.deg}")
        common_group(self.alg_class, self.cplus, self.cminus)
        if self.deg % 4 == 2:
            ok = (
                2 * self.cplus == self.alg_class
                and self.cminus == 3 * self.cplus
                and (4 * self.cplus).is_identity()
            )
        else:
            ok = (
                (2 * self.cplus).is_identity()
                and (2 * self.cminus).is_identity()
                and self.cplus + self.cminus == self.alg_class
            )
        if not ok:
            raise ValueError(
                "component classes violate the degree mod 4 relations"
            )

    @property
    def group(self) -> BrauerGroup:
        return self.alg_class.group

    @property
    def dim(self) -> int:
        return self.deg

    def jt_classes(self) -> MotiveSum:
        group, half = self.group, (self.deg - 2) // 2
        key = group.class_key
        pairs = [(key(self.alg_class), half), (key(self.cplus), 1), (key(self.cminus), 1)]
        return MotiveSum._of_keys(group, [(group.identity_key, half)] + pairs)

    def to_payload(self) -> dict:
        return record_payload(self, family=self.family)


class Product(Record):
    children: tuple["VarietyDescriptor", ...]

    family = "product"

    def __post_init__(self) -> None:
        if not self.children:
            raise ValueError("product needs at least one factor")
        common_group(*self.children)

    @property
    def group(self) -> BrauerGroup:
        return self.children[0].group

    @property
    def dim(self) -> int:
        return sum(child.dim for child in self.children)

    def jt_classes(self, work: list[int] | None = None) -> MotiveSum:
        """The children's classes tensored in order.  A nested product adds
        its steps to ``work``, the outermost product's running total, so a
        whole descriptor tree is priced as one product."""
        work = [0] if work is None else work
        out = None
        for child in self.children:  # no helper frame: deep trees recurse here
            factor = child.jt_classes(work) if isinstance(child, Product) else child.jt_classes()
            if out is None:
                out = factor
                continue
            pairs = len(out.key_counts) * len(factor.key_counts)
            _check_classes("product pair count", pairs)
            work[0] += PAIR_WORK * pairs
            check_work("the product measure", work)
            out = tensor(out, factor)
            _check_rank(out)
        return out

    def to_payload(self) -> dict:
        return {"family": self.family, "children": [c.to_payload() for c in self.children]}


VarietyDescriptor = SeveriBrauer | Grassmannian | Quadric | Involution | Product


class MeasureReport(Record):
    jt: RingElement
    jt_effective: MotiveSum
    dim: int

    @property
    def rho(self) -> int:
        """The rank measure: the number of summands of ``jt_effective``."""
        return self.jt_effective.rank

    def to_payload(self) -> dict:
        # Digits from the bit length (log10 2 ~ 0.30103): str() would take
        # as long as the printing this refuses.
        mults = [k for _, k in self.jt.key_terms] + [k for _, k in self.jt_effective.key_counts]
        digits = sum(abs(k).bit_length() * 30103 // 100_000 + 1 for k in mults)
        if digits > MAX_PRINTED_DIGITS:
            raise ResourceLimitError(
                f"measure prints about {digits} digits of multiplicities, "
                f"past the limit of {MAX_PRINTED_DIGITS}"
            )
        return record_payload(self, rho=self.rho)


def tits_measure(v: VarietyDescriptor) -> MeasureReport:
    ms = v.jt_classes()
    _check_rank(ms)
    jt = from_motive_sum(ms)
    if augmentation(jt) != ms.rank:
        raise AssertionError("augmentation drifted from the class count")
    return MeasureReport(jt=jt, jt_effective=ms, dim=v.dim)


class ComparisonVerdict(Record):
    measures_equal: bool
    rho_equal: bool
    dims_equal: bool
    subgroups_equal: bool

    def to_payload(self) -> dict:
        return record_payload(self)


def compare(x: VarietyDescriptor, y: VarietyDescriptor) -> ComparisonVerdict:
    common_group(x, y)
    mx, my = tits_measure(x), tits_measure(y)
    sub_x, sub_y = (subgroup_keys(x.group, [kc for kc, _ in m.jt_effective.key_counts]) for m in (mx, my))
    return ComparisonVerdict(
        measures_equal=mx.jt == my.jt,
        rho_equal=mx.rho == my.rho,
        dims_equal=mx.dim == my.dim,
        subgroups_equal=sub_x == sub_y,
    )


class Conclusion(Record):
    statement: str
    rule: str

    def to_payload(self) -> dict:
        return record_payload(self)


class DeductionReport(Record):
    family: str
    assumed: bool
    verdict: ComparisonVerdict
    conclusions: tuple[Conclusion, ...] = ()
    notes: tuple[str, ...] = ()

    @property
    def refuted(self) -> bool:
        """An asserted equality that the measures or the dimensions contradict."""
        return self.assumed and not (self.verdict.measures_equal and self.verdict.dims_equal)

    def to_payload(self) -> dict:
        return record_payload(self, refuted=self.refuted)


def _family_key(x: VarietyDescriptor, y: VarietyDescriptor) -> str:
    if x.family != y.family:
        raise ValueError("deduction rules do not cover this family combination")
    if x.family != "product":
        return x.family
    for side in (x, y):
        kinds = {child.family for child in side.children}
        if len(kinds) != 1:
            raise ValueError("deduction rules do not cover mixed products")
    kind = x.children[0].family
    if kind != y.children[0].family:
        raise ValueError("deduction rules do not cover this family combination")
    if kind == "severi-brauer":
        if any(c.alg.degree != 2 for c in x.children + y.children):
            raise ValueError("product deduction for this family needs degree-2 factors")
        if len(x.children) != 2 or len(y.children) != 2:
            raise ValueError("conic-product deduction needs exactly two factors per side")
        return "conic-product"
    if kind == "quadric":
        dims = {c.form_dim for c in x.children} | {c.form_dim for c in y.children}
        if len(dims) != 1:
            raise ValueError("product-of-quadrics deduction needs one common form dimension")
        if dims.pop() < 5:
            raise ValueError("product-of-quadrics deduction needs form dimension >= 5")
        return "quadric-product"
    raise ValueError("deduction rules do not cover this family combination")


# Conclusions and notes shared by several families.
SUBGROUP_RULE = "measure equality preserves the generated Brauer subgroup"
SUBGROUPS_AGREE = Conclusion("generated subgroups <[A]> agree", SUBGROUP_RULE)
WEDDERBURN = Conclusion(
    "varieties are isomorphic",
    "a 2-torsion class with fixed degree determines the algebra (Wedderburn)",
)
NO_RULE = "no isomorphism rule applies ({} != 6 and I^3 = 0 not asserted)"


def _severi_brauer_rule(x, y, i3_zero):
    degree = Conclusion(f"degrees agree: deg = {x.alg.degree}", "rank measure equals the degree")
    per = x.alg.period()
    if per <= 2:
        return [degree, SUBGROUPS_AGREE, WEDDERBURN], []
    if per <= 6:
        return [degree, SUBGROUPS_AGREE], [
            f"period {per}: varieties are birational by the known cases "
            "of the Amitsur problem (Roquette; Tregub) - cited, not computed"
        ]
    return [degree, SUBGROUPS_AGREE], []


def _grassmannian_rule(x, y, i3_zero):
    degree = Conclusion(
        f"degrees agree: deg = {x.alg.degree}, and d' = d or deg - d", "binomial rank count"
    )
    if x.alg.period() <= 2:
        return [degree, SUBGROUPS_AGREE, WEDDERBURN], []
    return [degree, SUBGROUPS_AGREE], []


def _quadric_rule(x, y, i3_zero):
    if x.clifford_class != y.clifford_class:
        raise AssertionError("equal measures but unequal Clifford classes")
    n = x.form_dim
    conclusions = [
        Conclusion(f"form dimensions agree: n = {n}", "the dimension n - 2 fixes n"),
        Conclusion(
            "even Clifford classes agree", "the class multiset determines the nonzero entry"
        ),
    ]
    if n == 6:
        rule = (
            "six-dimensional forms with trivial discriminant are "
            "similar iff their even Clifford classes agree"
        )
    elif i3_zero or (x.i3_zero and y.i3_zero):
        rule = (
            "dimension, discriminant and Clifford invariant classify "
            "forms over fields with I^3 = 0"
        )
    else:
        return conclusions, [NO_RULE.format("n")]
    return conclusions + [Conclusion("quadrics are isomorphic", rule)], []


def _involution_rule(x, y, i3_zero):
    if (x.cplus, x.cminus) not in ((y.cplus, y.cminus), (y.cminus, y.cplus)):
        raise AssertionError("equal measures but unequal component pairs")
    conclusions = [
        Conclusion(f"degrees agree: deg = {x.deg}", "rank measure equals the degree"),
        Conclusion(
            "component-class pairs {c+, c-} agree", "the class multiset determines the pair"
        ),
    ]
    if x.deg == 6:
        rule = "degree-6 correspondence with six-dimensional forms"
    elif i3_zero:
        rule = "classification of the underlying forms when I^3 = 0"
    else:
        return conclusions, [NO_RULE.format("deg")]
    return conclusions + [Conclusion("involution varieties are isomorphic", rule)], []


def _conic_product_rule(x, y, i3_zero):
    qx = [c.alg.brauer_class for c in x.children]
    qy = [c.alg.brauer_class for c in y.children]
    if not any(c in qy for c in qx):
        raise AssertionError("equal measures but no shared conic class")
    shared = Conclusion(
        "the sides share a common conic", "2-torsion subgroup generation forces a shared class"
    )
    if x.group.index_of(qx[0] + qx[1]) == 4:
        albert = "unlinked quaternion pairs (Albert) force the pairwise matching"
        return [shared, Conclusion("products are isomorphic", albert)], []
    return [shared], [
        "pair not asserted unlinked (index of the product class "
        "is not 4); only the shared conic is concluded"
    ]


def _quadric_product_rule(x, y, i3_zero):
    n = x.children[0].form_dim
    m = len(x.children)
    conclusions = [
        Conclusion(f"the factor counts agree: m = {m}", "total dimension is m(n-2)"),
        Conclusion("generated subgroups of the Clifford classes agree", SUBGROUP_RULE),
    ]
    both_i3 = i3_zero or all(c.i3_zero for c in x.children + y.children)
    if m <= 5:
        if n == 6:
            rule = "factor matching plus cancellation via the six-dimensional classification"
        elif both_i3:
            rule = "factor matching plus cancellation via the I^3 = 0 classification"
        else:
            return conclusions, [NO_RULE.format("n")]
    else:
        failures = extra_condition_failures(m, n)
        if failures:
            return conclusions, [
                f"no conclusion: the copy-count condition fails at l = {failures}"
            ]
        if not both_i3:
            return conclusions, [
                "no conclusion: isomorphism for m >= 6 needs the I^3 = 0 hypothesis"
            ]
        rule = (
            "copy-count inequalities make the factor matching "
            "injective under the I^3 = 0 classification"
        )
    return conclusions + [Conclusion("products are isomorphic", rule)], []


# family -> rule; a rule maps (x, y, i3_zero) for a pair with equal measures
# to its conclusions and notes.
RULES = {
    "severi-brauer": _severi_brauer_rule,
    "grassmannian": _grassmannian_rule,
    "quadric": _quadric_rule,
    "involution": _involution_rule,
    "conic-product": _conic_product_rule,
    "quadric-product": _quadric_product_rule,
}


def deduce(
    x: VarietyDescriptor,
    y: VarietyDescriptor,
    assuming_equal: bool,
    *,
    i3_zero: bool = False,
) -> DeductionReport:
    """Conclusions licensed by an asserted Grothendieck-class equality.

    ``i3_zero`` asserts the ambient field satisfies I^3 = 0 (a modeling flag,
    never computed); quadric shadows may also carry it per form.  Over Q it
    is false, so asserting it there raises ``ValueError``.
    """
    if i3_zero and x.group.kind == "rational":
        raise ValueError(I3_OVER_Q)
    family = _family_key(x, y)
    verdict = compare(x, y)
    conclusions = []
    if not assuming_equal:
        notes = ["class equality not asserted; nothing to deduce"]
    elif not verdict.measures_equal:
        notes = ["computed measures differ, so the asserted class equality cannot hold"]
    elif not verdict.dims_equal:
        # The class multiset forgets the dimension; a class in K0(Var_k) does not.
        notes = [f"the varieties have dimensions {x.dim} and {y.dim}; a class in K0(Var_k) "
                 "fixes the dimension, so the asserted class equality cannot hold"]
    else:
        conclusions, notes = RULES[family](x, y, i3_zero)
    return DeductionReport(family, assuming_equal, verdict, tuple(conclusions), tuple(notes))
