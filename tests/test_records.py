"""The package's value records: one frozen-record base, and what it promises.

Each record class is checked for its ``repr``, ``==`` and ``!=``, ``hash``
(the hash of the tuple of its compared fields), a pickle round trip, the
key order of ``record_payload`` and frozen assignment and deletion.  The
values the fields fix (``rank``, ``rho``, ``refuted``, ``outcome``) are
read-outs, not fields, and are checked against their definitions.  A fresh
interpreter checks that importing the CLI loads neither ``dataclasses`` nor
``inspect``, and one without site hooks that it loads no ``typing``.
"""

import math
import os
import pickle
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import titsmeasure
from titsmeasure.brauer import CSA, RATIONALS, AbstractGroup, RationalClass, record_payload
from titsmeasure.measure_ring import RingElement, augmentation, from_motive_sum
from titsmeasure.motives import MotiveSum, direct_sum, tensor
from titsmeasure.quadforms import FormShadow, QuadraticForm
from titsmeasure.varieties import (
    Conclusion,
    Grassmannian,
    Involution,
    Product,
    Quadric,
    SeveriBrauer,
    compare,
    deduce,
    tits_measure,
)
from titsmeasure.verify import VerificationRun, _sum_of

G = AbstractGroup((2, 6))
Z4 = AbstractGroup((4,))
HALF = (("real", Fraction(1, 2)), (3, Fraction(1, 2)))


def _csa(degree=6):
    return CSA(G.element([0, 3]), degree)


def _sb(degree=6):
    return SeveriBrauer(_csa(degree))


def _report(degree=6):
    return tits_measure(_sb(degree))


def _verdict(degree=6):
    return compare(_sb(6), _sb(degree))


def _deduction(degree=6):
    return deduce(_sb(6), _sb(degree), False)


# id -> (build one value, build an unequal value, repr, compared fields, payload keys).
# Each build returns a fresh object equal to the last.  Compared fields name
# what ``==`` and ``hash`` read; payload keys are None where a field holds
# values with no payload of their own (a form's Fraction entries).
RECORDS = {
    "AbstractGroup": (
        lambda: AbstractGroup((2, 6)), lambda: AbstractGroup((6, 2)),
        "AbstractGroup(orders=(2, 6), index_oracle=())", ("orders", "index_oracle"),
        ["orders", "index_oracle"],
    ),
    "_RationalGroup": (
        lambda: type(RATIONALS)(), None, "_RationalGroup()", (), [],
    ),
    "AbstractClass": (
        lambda: G.element([1, 2]), lambda: G.element([1, 3]),
        "AbstractClass(group=AbstractGroup(orders=(2, 6), index_oracle=()), coords=(1, 2))",
        ("group", "index"), ["group", "index"],
    ),
    "RationalClass": (
        lambda: RationalClass(HALF), lambda: RationalClass(()),
        "RationalClass(key=((0, 0, 1, 2), (1, 3, 1, 2)))", ("key",), ["key"],
    ),
    "CSA": (
        _csa, lambda: _csa(12),
        "CSA(brauer_class=AbstractClass(group=AbstractGroup(orders=(2, 6), index_oracle=()), "
        "coords=(0, 3)), degree=6)",
        ("brauer_class", "degree"), ["brauer_class", "degree"],
    ),
    "RingElement": (
        lambda: RingElement(G, [(G.element([1, 2]), 2)]), lambda: RingElement(G, [(G.element([1, 2]), 3)]),
        "RingElement(group=AbstractGroup(orders=(2, 6), index_oracle=()), "
        "key_terms=((0, -2), (2, 2), (6, 2)))",
        ("group", "key_terms"), ["group", "key_terms"],
    ),
    "MotiveSum": (
        lambda: MotiveSum.of(G, [G.element([1, 2]), G.element([0, 1])]),
        lambda: MotiveSum.of(G, [G.element([1, 2])]),
        "MotiveSum(group=AbstractGroup(orders=(2, 6), index_oracle=()), "
        "key_counts=((1, 1), (8, 1)))",
        ("group", "key_counts"), ["group", "key_counts"],
    ),
    "QuadraticForm": (
        lambda: QuadraticForm.of([1, -1, 2]), lambda: QuadraticForm.of([1, -1, 3]),
        "QuadraticForm(entries=(Fraction(1, 1), Fraction(-1, 1), Fraction(2, 1)))", ("entries",), None,
    ),
    "FormShadow": (
        lambda: FormShadow(5, G.element([1, 0])), lambda: FormShadow(5, G.element([1, 0]), True),
        "FormShadow(dim=5, clifford_class=AbstractClass(group=AbstractGroup(orders=(2, 6), "
        "index_oracle=()), coords=(1, 0)), i3_zero=False)",
        ("dim", "clifford_class", "i3_zero"), ["dim", "clifford_class", "i3_zero"],
    ),
    "SeveriBrauer": (
        _sb, lambda: _sb(12),
        "SeveriBrauer(alg=CSA(brauer_class=AbstractClass(group=AbstractGroup(orders=(2, 6), "
        "index_oracle=()), coords=(0, 3)), degree=6))",
        ("alg",), ["alg"],
    ),
    "Grassmannian": (
        lambda: Grassmannian(2, _csa()), lambda: Grassmannian(3, _csa()),
        "Grassmannian(d=2, alg=CSA(brauer_class=AbstractClass(group=AbstractGroup(orders=(2, 6), "
        "index_oracle=()), coords=(0, 3)), degree=6))",
        ("d", "alg"), ["d", "alg"],
    ),
    "Quadric": (
        lambda: Quadric(QuadraticForm.of([1, 1, 1, 1, 1, -1])),
        lambda: Quadric(QuadraticForm.of([1, 1, 1, 1, -1, 1])),
        "Quadric(form=QuadraticForm(entries=(Fraction(1, 1), Fraction(1, 1), Fraction(1, 1), "
        "Fraction(1, 1), Fraction(1, 1), Fraction(-1, 1))))",
        ("form",), ["form"],
    ),
    "Involution": (
        lambda: Involution(6, Z4.element([2]), Z4.element([1]), Z4.element([3])),
        lambda: Involution(10, Z4.element([2]), Z4.element([1]), Z4.element([3])),
        "Involution(deg=6, alg_class=AbstractClass(group=AbstractGroup(orders=(4,), index_oracle=()), "
        "coords=(2,)), cplus=AbstractClass(group=AbstractGroup(orders=(4,), index_oracle=()), "
        "coords=(1,)), cminus=AbstractClass(group=AbstractGroup(orders=(4,), index_oracle=()), "
        "coords=(3,)))",
        ("deg", "alg_class", "cplus", "cminus"), ["deg", "alg_class", "cplus", "cminus"],
    ),
    "Product": (
        lambda: Product((_sb(),)), lambda: Product((_sb(), _sb())),
        "Product(children=(SeveriBrauer(alg=CSA(brauer_class=AbstractClass(group=AbstractGroup("
        "orders=(2, 6), index_oracle=()), coords=(0, 3)), degree=6)),))",
        ("children",), ["children"],
    ),
    "MeasureReport": (
        _report, lambda: _report(12),
        "MeasureReport(jt=RingElement(group=AbstractGroup(orders=(2, 6), index_oracle=()), "
        "key_terms=((0, 3), (3, 3))), jt_effective=MotiveSum(group=AbstractGroup(orders=(2, 6), "
        "index_oracle=()), key_counts=((0, 3), (3, 3))), dim=5)",
        ("jt", "jt_effective", "dim"), ["jt", "jt_effective", "dim"],
    ),
    "ComparisonVerdict": (
        _verdict, lambda: _verdict(12),
        "ComparisonVerdict(measures_equal=True, rho_equal=True, dims_equal=True, subgroups_equal=True)",
        ("measures_equal", "rho_equal", "dims_equal", "subgroups_equal"),
        ["measures_equal", "rho_equal", "dims_equal", "subgroups_equal"],
    ),
    "Conclusion": (
        lambda: Conclusion("degrees agree", "rank"), lambda: Conclusion("degrees agree", "dimension"),
        "Conclusion(statement='degrees agree', rule='rank')", ("statement", "rule"), ["statement", "rule"],
    ),
    "DeductionReport": (
        _deduction, lambda: _deduction(12),
        "DeductionReport(family='severi-brauer', assumed=False, "
        "verdict=ComparisonVerdict(measures_equal=True, rho_equal=True, dims_equal=True, "
        "subgroups_equal=True), conclusions=(), notes=('class equality not asserted; nothing to deduce',))",
        ("family", "assumed", "verdict", "conclusions", "notes"),
        ["family", "assumed", "verdict", "conclusions", "notes"],
    ),
    "VerificationRun": (
        lambda: VerificationRun("sum-cancellation", {"group": [2]}, None, {"families": 3}),
        lambda: VerificationRun("sum-cancellation", {"group": [2]}, {"raw": []}, {"families": 3}),
        "VerificationRun(suite='sum-cancellation', params={'group': [2]}, "
        "witness=None, details={'families': 3})",
        ("suite", "params", "witness", "details"),
        ["suite", "params", "witness", "details"],
    ),
}
CASES = pytest.mark.parametrize("name", sorted(RECORDS))
HASHABLE = sorted(set(RECORDS) - {"VerificationRun"})  # its params and details are dicts


def test_every_record_class_is_listed():
    from titsmeasure.brauer import Record

    assert sorted(cls.__name__ for cls in Record.__subclasses__()) == sorted(RECORDS)
    assert len(RECORDS) == 19


@CASES
def test_repr(name):
    build, _, expected, *_ = RECORDS[name]
    value = build()
    assert type(value).__name__ == name and repr(value) == expected


@CASES
def test_equality(name):
    build, other, *_ = RECORDS[name]
    a, b = build(), build()
    assert a == b and not a != b
    assert a != object() and a.__eq__(object()) is NotImplemented
    if other is not None:
        c = other()
        assert type(c) is type(a) and a != c and not a == c


@pytest.mark.parametrize("name", HASHABLE)
def test_hash(name):
    build, _, _, compared, _ = RECORDS[name]
    a, b = build(), build()
    assert hash(a) == hash(b)
    if name == "AbstractClass":  # its own hash: the orders, not the group
        assert hash(a) == hash((a.group.orders, a.index))
    else:
        assert hash(a) == hash(tuple(getattr(a, field) for field in compared))


def test_verification_run_is_unhashable():
    with pytest.raises(TypeError):
        hash(RECORDS["VerificationRun"][0]())


@CASES
def test_pickle_round_trip(name):
    value = RECORDS[name][0]()
    copy = pickle.loads(pickle.dumps(value))
    assert type(copy) is type(value) and copy == value and repr(copy) == repr(value)


@pytest.mark.parametrize("name", sorted(name for name, case in RECORDS.items() if case[4] is not None))
def test_payload_key_order(name):
    build, *_, keys = RECORDS[name]
    assert list(record_payload(build(), extra=1)) == [*keys, "extra"]


@CASES
def test_frozen(name):
    from dataclasses import FrozenInstanceError

    value = RECORDS[name][0]()
    for field in (*RECORDS[name][3], "unrelated"):
        with pytest.raises(FrozenInstanceError, match=f"^cannot assign to field '{field}'$"):
            setattr(value, field, None)
        with pytest.raises(FrozenInstanceError, match=f"^cannot delete field '{field}'$"):
            delattr(value, field)
    assert repr(value) == repr(RECORDS[name][0]())


def test_keyword_and_default_arguments():
    assert Conclusion(rule="r", statement="s") == Conclusion("s", "r")
    assert AbstractGroup(orders=(2,)) == AbstractGroup((2,), ())
    assert FormShadow(5, G.element([1, 0])).i3_zero is False
    missing = r"^Conclusion\.__init__\(\) missing 1 required positional argument: 'rule'$"
    with pytest.raises(TypeError, match=missing):
        Conclusion("s")
    for bad in (lambda: Conclusion("s", "r", "t"),
                lambda: Conclusion("s", statement="t"), lambda: Conclusion("s", "r", why="t")):
        with pytest.raises(TypeError):
            bad()


def test_abstract_class_keeps_its_slots():
    value = G.element([1, 2])
    assert type(value).__slots__ == ("group", "index") and not hasattr(value, "__dict__")


def test_derived_clifford_class_is_not_a_field():
    q = RECORDS["Quadric"][0]()
    assert q.clifford_class == RECORDS["Quadric"][0]().clifford_class
    assert "clifford_class" not in repr(q)


def _builders():
    """(built sum, its number of summands counted apart from the sum) for each
    way a ``MotiveSum`` is built."""
    x = MotiveSum(G, [(G.element([1, 2]), 2), (G.element([0, 1]), 3), (G.element([1, 2]), 0)])
    y = MotiveSum.of(G, [G.element([1, 0]), G.element([1, 0]), G.element([0, 0])])
    q6, q5 = Quadric(FormShadow(6, G.element([1, 3]))), Quadric(FormShadow(5, G.element([0, 0])))
    inv = RECORDS["Involution"][0]()
    return [
        (x, 5), (y, 3), (direct_sum(x, y), 8), (tensor(x, y), 15),
        (_sb(12).jt_classes(), 12), (Grassmannian(2, _csa()).jt_classes(), math.comb(6, 2)),
        (q6.jt_classes(), 6), (q5.jt_classes(), 4), (inv.jt_classes(), 6),
        (Product((_sb(), q6)).jt_classes(), 36), (_sum_of(G, (0, 0, 5, 11)), 4),
    ]


def test_rank_is_read_off_the_key_counts():
    for ms, summands in _builders():
        assert ms.rank == sum(k for _, k in ms.key_counts) == summands == len(ms.classes)
        assert augmentation(from_motive_sum(ms)) == ms.rank == len(ms)
    report = tits_measure(Product((_sb(), _sb(12))))
    assert report.rho == report.jt_effective.rank == 72


def test_refuted_outcome_and_passed_are_read_outs():
    from dataclasses import FrozenInstanceError

    split = [Grassmannian(d, CSA(G.element([0, 0]), deg)) for d, deg in ((2, 16), (3, 10))]
    for x, y in ((_sb(6), _sb(6)), (_sb(6), _sb(12)), split):
        for assumed in (False, True):
            report = deduce(x, y, assumed)
            verdict = report.verdict
            assert report.refuted is (assumed and not (verdict.measures_equal and verdict.dims_equal))
            assert report.to_payload()["refuted"] is report.refuted
    assert deduce(*split, True).refuted and compare(*split).measures_equal  # by dimension alone
    for witness, outcome in ((None, "pass"), ({"raw": []}, "counterexample"), ({}, "counterexample")):
        run = VerificationRun("sum-cancellation", {}, witness, {})
        assert (run.outcome, run.passed) == (outcome, witness is None)
        assert run.to_payload()["outcome"] == outcome
    derived = {"MotiveSum": "rank", "MeasureReport": "rho", "DeductionReport": "refuted",
               "VerificationRun": "outcome"}
    for record, name in derived.items():
        value = RECORDS[record][0]()
        with pytest.raises(FrozenInstanceError, match=f"^cannot assign to field '{name}'$"):
            setattr(value, name, None)


def test_cli_import_loads_no_dataclasses():
    src = Path(titsmeasure.__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(src), PYTHONDONTWRITEBYTECODE="1")
    code = "import sys, titsmeasure.cli; print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
    assert proc.returncode == 0 and proc.stdout == "[]\n", proc


def test_cli_import_loads_no_typing():
    # Without site hooks nothing else loads typing first, so this sees the
    # package's own imports: annotation names come from collections.abc and
    # the unions are spelled X | Y.
    src = Path(titsmeasure.__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(src), PYTHONDONTWRITEBYTECODE="1")
    code = "import sys, titsmeasure.cli; print('typing' in sys.modules)"
    proc = subprocess.run([sys.executable, "-S", "-c", code], capture_output=True, text=True, env=env)
    assert proc.returncode == 0 and proc.stdout == "False\n", proc
