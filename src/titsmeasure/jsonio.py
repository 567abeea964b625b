"""JSON schemas: parsing of groups, classes, forms, descriptors, requests.

Serialization lives on the domain objects (``to_payload``); this module owns
the inverse direction plus request-document validation for the CLI.  All
errors are ValueError with a message naming the offending field.
"""

from __future__ import annotations

from .brauer import (
    CSA,
    RATIONALS,
    AbstractGroup,
    BrauerClass,
    BrauerGroup,
    RationalClass,
    is_int,
)
from .quadforms import FormShadow, QuadraticForm
from .rationals import read_rational
from .varieties import (
    Grassmannian,
    Involution,
    Product,
    Quadric,
    SeveriBrauer,
    VarietyDescriptor,
)


def _need(payload: object, key: str, context: str):
    if not isinstance(payload, dict) or key not in payload:
        raise ValueError(f"{context}: missing field {key!r}")
    return payload[key]


def _need_int(payload: object, key: str, context: str) -> int:
    value = _need(payload, key, context)
    if not is_int(value):
        raise ValueError(f"{context}: {key} must be an integer")
    return value


def _need_ints(payload: object, key: str, context: str) -> list[int]:
    value = _need(payload, key, context)
    if not isinstance(value, list) or not all(is_int(v) for v in value):
        raise ValueError(f"{context}: {key} must be a list of integers")
    return value


def _need_list(payload: object, key: str, context: str) -> list:
    value = _need(payload, key, context)
    if not isinstance(value, list):
        raise ValueError(f"{context}: {key} must be an array")
    return value


def parse_flag(payload: object, key: str, context: str) -> bool:
    """An optional JSON boolean, false when absent; ``"false"`` is not one."""
    value = payload.get(key, False)
    if not isinstance(value, bool):
        raise ValueError(f"{context}: {key} must be true or false")
    return value


def parse_group(payload: object) -> BrauerGroup:
    kind = _need(payload, "kind", "group")
    if kind == "rational":
        return RATIONALS
    if kind != "abstract":
        raise ValueError(f"group: unknown kind {kind!r}")
    orders = _need_ints(payload, "orders", "group")
    oracle = []
    entries = _need_list(payload, "index_oracle", "group") if "index_oracle" in payload else []
    for entry in entries:
        coords = _need_ints(entry, "coords", "group.index_oracle")
        idx = _need_int(entry, "index", "group.index_oracle")
        oracle.append((tuple(coords), idx))
    return AbstractGroup(tuple(orders), tuple(oracle))


def parse_class(payload: object, group: BrauerGroup) -> BrauerClass:
    if group.kind == "abstract":
        return group.element(_need_ints(payload, "coords", "class"))
    parsed = []
    for item in _need_list(payload, "invariants", "class"):
        place = _need(item, "place", "class.invariants")
        inv = _need(item, "inv", "class.invariants")
        parsed.append((place, read_rational(inv, "class.invariants")))
    return RationalClass(tuple(parsed))


def parse_csa(payload: object, group: BrauerGroup) -> CSA:
    degree = _need_int(payload, "degree", "algebra")
    cls = parse_class(_need(payload, "class", "algebra"), group)
    return CSA(cls, degree)


def parse_form(payload: object) -> QuadraticForm:
    if not isinstance(payload, list) or not payload:
        raise ValueError("form: expected a nonempty array of rational strings")
    return QuadraticForm(tuple(read_rational(a, "form") for a in payload))


def parse_shadow(payload: object, group: BrauerGroup) -> FormShadow:
    dim = _need_int(payload, "dim", "shadow")
    cls = parse_class(_need(payload, "clifford_class", "shadow"), group)
    return FormShadow(dim, cls, parse_flag(payload, "i3_zero", "shadow"))


def parse_descriptor(payload: object, group: BrauerGroup) -> VarietyDescriptor:
    family = _need(payload, "family", "variety")
    if family == "severi-brauer":
        return SeveriBrauer(parse_csa(_need(payload, "alg", "variety"), group))
    if family == "grassmannian":
        d = _need_int(payload, "d", "variety")
        return Grassmannian(d, parse_csa(_need(payload, "alg", "variety"), group))
    if family == "quadric":
        if "form" in payload:
            if group.kind != "rational":
                raise ValueError(
                    "variety: concrete quadratic forms require the rational group model"
                )
            return Quadric(parse_form(payload["form"]))
        if "shadow" in payload:
            return Quadric(parse_shadow(payload["shadow"], group))
        raise ValueError("variety: quadric needs a 'form' or a 'shadow'")
    if family == "involution":
        return Involution(
            _need_int(payload, "deg", "variety"),
            parse_class(_need(payload, "alg_class", "variety"), group),
            parse_class(_need(payload, "cplus", "variety"), group),
            parse_class(_need(payload, "cminus", "variety"), group),
        )
    if family == "product":
        children = _need_list(payload, "children", "variety")
        return Product(tuple(parse_descriptor(c, group) for c in children))
    raise ValueError(f"variety: unknown family {family!r}")


def descriptor_payload(v: VarietyDescriptor) -> dict:
    return v.to_payload()


def parse_measure_request(doc: object) -> tuple[BrauerGroup, VarietyDescriptor]:
    group = parse_group(_need(doc, "group", "request"))
    return group, parse_descriptor(_need(doc, "variety", "request"), group)


def parse_pair_request(
    doc: object,
) -> tuple[BrauerGroup, VarietyDescriptor, VarietyDescriptor]:
    group = parse_group(_need(doc, "group", "request"))
    x = parse_descriptor(_need(doc, "x", "request"), group)
    y = parse_descriptor(_need(doc, "y", "request"), group)
    return group, x, y
