import itertools
import json
import math
import time
from collections import Counter
from fractions import Fraction

import pytest

from oracles import box_partition_weights, gaussian_binomial
from test_witnesses import _true_below_three, _Unrewritten
from titsmeasure import brauer, cli, jsonio, varieties, verify
from titsmeasure.brauer import (
    CSA,
    RATIONALS,
    AbstractGroup,
    GroupMismatchError,
    RationalClass,
    ResourceLimitError,
)
from titsmeasure.motives import MotiveSum
from titsmeasure.quadforms import FormShadow, QuadraticForm
from titsmeasure.varieties import (
    MAX_CLASSES,
    PAIR_WORK,
    Grassmannian,
    Involution,
    Product,
    Quadric,
    SeveriBrauer,
    compare,
    deduce,
    folded_cell_counts,
    tits_measure,
)

Z1 = AbstractGroup((1,))
Z2 = AbstractGroup((2,))
G4 = AbstractGroup((4,))
V2 = AbstractGroup((2, 2))
V2L = AbstractGroup((2, 2), index_oracle=(((1, 1), 4),))


def sb(group, coords, degree):
    return SeveriBrauer(CSA(group.element(coords), degree))


def _fold(weights, r):
    """Fold (weight, count) pairs mod r."""
    out = [0] * r
    for w, c in weights:
        out[w % r] += c
    return out


def _divisors(n):
    return [r for r in range(1, n + 1) if n % r == 0]


class TestBoxWeights:
    """``folded_cell_counts`` against two independent counts of the cells."""

    def test_matches_partition_enumeration(self):
        # Every r | n and 0 <= d <= n <= 18.  Enumerating the partitions up to
        # n = 24 (2^25 of them) would take about 15 s; the product formula
        # below covers that range.
        for n in range(1, 19):
            for d in range(n + 1):
                weights = box_partition_weights(d, n - d).items()
                for r in _divisors(n):
                    assert folded_cell_counts(d, n, r) == _fold(weights, r), (d, n, r)

    def test_total_is_binomial(self):
        # Every r | n and 0 <= d <= n <= 24, against the Gaussian binomial by
        # its product formula; the counts add up to C(n, d).
        for n in range(1, 25):
            for d in range(n + 1):
                weights = list(enumerate(gaussian_binomial(n, d)))
                for r in _divisors(n):
                    got = folded_cell_counts(d, n, r)
                    assert got == _fold(weights, r), (d, n, r)
                    assert sum(got) == math.comb(n, d)


class TestTables:
    def test_severi_brauer_table(self):
        v = sb(G4, [1], 4)
        assert sorted(c.coords[0] for c in v.jt_classes().classes) == [0, 1, 2, 3]
        assert v.dim == 3
        assert tits_measure(v).rho == 4

    def test_split_severi_brauer(self):
        v = sb(G4, [0], 3)
        assert all(c.is_identity() for c in v.jt_classes().classes)
        assert tits_measure(v).rho == 3

    def test_grassmannian_table(self):
        v = Grassmannian(2, CSA(G4.element([1]), 4))
        weights = sorted(c.coords[0] for c in v.jt_classes().classes)
        assert weights == [0, 0, 1, 2, 2, 3]  # 0,1,2,2,3,4 reduced mod 4
        assert v.dim == 4
        assert tits_measure(v).rho == 6

    def test_grassmannian_parameter_range(self):
        with pytest.raises(ValueError):
            Grassmannian(4, CSA(G4.element([1]), 4))
        with pytest.raises(ValueError):
            Grassmannian(0, CSA(G4.element([1]), 4))

    def test_even_quadric_table(self):
        # <1,1,1,-1,-1,-1> is hyperbolic (trivial class); use a form
        # whose even Clifford class is (-1,-1)
        q = Quadric(QuadraticForm.of([1, 1, 1, 1, 1, -1]))
        ms = q.jt_classes()
        assert len(ms) == 6
        idents = [c for c in ms.classes if c.is_identity()]
        others = [c for c in ms.classes if not c.is_identity()]
        assert len(idents) == 4 and len(others) == 2
        assert others[0] == others[1] == q.clifford_class

    def test_odd_quadric_table(self):
        q = Quadric(QuadraticForm.of([1, 1, 1, -1, -1]))
        ms = q.jt_classes()
        assert len(ms) == 4  # rho = n - 1 for odd n
        assert q.dim == 3

    def test_rational_quadric_computes_its_class_once(self, monkeypatch):
        calls = []
        closed_form = varieties.even_clifford_class
        monkeypatch.setattr(
            varieties, "even_clifford_class", lambda q: calls.append(q) or closed_form(q)
        )
        form = ["1009", "-7919", "12", "50", "-47941626"]
        doc = {"group": {"kind": "rational"}, "variety": {"family": "quadric", "form": form}}
        assert cli.main(["measure", json.dumps(doc), "--format", "json"]) == 0
        assert len(calls) == 1
        q = Quadric(QuadraticForm.of(form))
        tits_measure(q), tits_measure(q).rho, q.jt_classes(), q.group, compare(q, q)
        assert len(calls) == 2

    def test_quadric_equality_reads_the_form(self):
        a = Quadric(QuadraticForm.of([1, 1, 1, 1, 1, -1]))
        b = Quadric(QuadraticForm.of([1, 1, 1, 1, 1, -1]))
        assert a == b and hash(a) == hash(b)
        assert a != Quadric(QuadraticForm.of([1, 1, 1, 1, -1, 1]))
        assert "clifford_class" not in repr(a)

    def test_quadric_takes_a_form_or_a_shadow(self):
        with pytest.raises(ValueError, match="^quadric takes a QuadraticForm or a FormShadow$"):
            Quadric((1, 1, 1, -1))

    def test_quadric_shadow_table(self):
        s = FormShadow(8, V2.element([1, 0]), False)
        q = Quadric(s)
        assert tits_measure(q).rho == 8
        assert q.dim == 6

    def test_involution_table(self):
        v = Involution(6, G4.element([2]), G4.element([1]), G4.element([3]))
        ms = v.jt_classes()
        counts = {}
        for c in ms.classes:
            counts[c.coords[0]] = counts.get(c.coords[0], 0) + 1
        assert counts == {0: 2, 2: 2, 1: 1, 3: 1}
        assert v.dim == 6
        assert tits_measure(v).rho == 6

    def test_involution_relations_enforced(self):
        with pytest.raises(ValueError):
            # deg = 2 mod 4 forces 2 c+ = [A]
            Involution(6, G4.element([1]), G4.element([1]), G4.element([3]))
        with pytest.raises(ValueError):
            # deg = 0 mod 4 forces c+ + c- = [A]
            Involution(8, V2.element([1, 1]), V2.element([1, 0]), V2.element([1, 0]))

    def test_involution_mod_four_models(self):
        Involution(10, G4.element([2]), G4.element([1]), G4.element([3]))
        Involution(8, V2.element([1, 1]), V2.element([1, 0]), V2.element([0, 1]))

    def test_product_dims_and_rho_multiply(self):
        a = sb(G4, [1], 4)
        b = sb(G4, [2], 2)
        p = Product((a, b))
        assert p.dim == a.dim + b.dim
        assert tits_measure(p).rho == tits_measure(a).rho * tits_measure(b).rho

    def test_product_measure_is_multiplicative(self):
        a = sb(G4, [1], 4)
        b = sb(G4, [2], 2)
        lhs = tits_measure(Product((a, b))).jt
        rhs = tits_measure(a).jt * tits_measure(b).jt
        assert lhs == rhs

    def test_product_rejects_mixed_groups(self):
        with pytest.raises(GroupMismatchError):
            Product((sb(G4, [1], 4), sb(V2, [1, 0], 2)))

    def test_measure_report_consistency(self):
        v = Grassmannian(1, CSA(G4.element([1]), 4))
        rep = tits_measure(v)
        assert rep.rho == len(rep.jt_effective)


class TestLargeMeasures:
    """Cases whose rank is far beyond what an expanded multiset could hold.

    Multiplicities are checked against closed forms computed independently
    of the measure code; each case has a 2 s budget.
    """

    @staticmethod
    def _timed_measure(v):
        t0 = time.perf_counter()
        report = tits_measure(v)
        payload = report.to_payload()
        elapsed = time.perf_counter() - t0
        assert elapsed < 2.0, f"took {elapsed:.2f} s"
        return report, payload

    def test_grassmannian_10_of_60(self):
        g = AbstractGroup((60,))
        report, payload = self._timed_measure(Grassmannian(10, CSA(g.element([2]), 60)))
        assert report.rho == math.comb(60, 10)
        assert report.dim == 10 * 50
        # Weight w carries 2w mod 60: fold the Gaussian binomial mod 30.
        expected = Counter()
        for w, c in enumerate(gaussian_binomial(60, 10)):
            expected[(2 * w) % 60] += c
        got = {e["coords"][0]: e["mult"] for e in payload["jt_effective"]["classes"]}
        assert got == dict(expected)

    def test_severi_brauer_degree_1e8(self):
        g = AbstractGroup((20,))
        report, payload = self._timed_measure(SeveriBrauer(CSA(g.element([1]), 10**8)))
        assert report.rho == 10**8 and report.dim == 10**8 - 1
        got = {e["coords"][0]: e["mult"] for e in payload["jt_effective"]["classes"]}
        assert got == {k: 10**8 // 20 for k in range(20)}

    def test_product_of_six_dim8_quadrics(self):
        g = AbstractGroup((2, 2, 2))
        cls = [(1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 0), (1, 0, 0), (0, 1, 1)]
        v = Product(tuple(Quadric(FormShadow(8, g.element(c))) for c in cls))
        report, payload = self._timed_measure(v)
        assert report.rho == 8**6 == 262_144
        # A subset S of the factors contributes 2^|S| 6^(6-|S|) summands of
        # class sum_{i in S} c_i.
        expected = Counter()
        for picks in itertools.product((0, 1), repeat=6):
            total = (0, 0, 0)
            for on, c in zip(picks, cls):
                if on:
                    total = tuple((a + b) % 2 for a, b in zip(total, c))
            expected[total] += 2 ** sum(picks) * 6 ** (6 - sum(picks))
        got = {tuple(e["coords"]): e["mult"] for e in payload["jt_effective"]["classes"]}
        assert got == dict(expected)
        assert sum(got.values()) == report.rho


    def test_grassmannian_450_of_900(self):
        g = AbstractGroup((2,))
        report, payload = self._timed_measure(Grassmannian(450, CSA(g.element([1]), 900)))
        n0, n1 = (e["mult"] for e in payload["jt_effective"]["classes"])
        assert report.rho == n0 + n1 == math.comb(900, 450)
        assert n0 - n1 == math.comb(450, 225)  # the Gaussian binomial at q = -1

    def test_grassmannian_3000_of_6000_mod_6(self):
        g = AbstractGroup((6,))
        report, payload = self._timed_measure(Grassmannian(3000, CSA(g.element([1]), 6000)))
        counts = [e["mult"] for e in payload["jt_effective"]["classes"]]
        assert report.rho == sum(counts) == math.comb(6000, 3000)
        assert sum(counts[0::2]) - sum(counts[1::2]) == math.comb(3000, 1500)
        # At a primitive cube root of unity the Gaussian binomial is C(2000, 1000).
        assert counts[0] + counts[3] - counts[1] - counts[4] == math.comb(2000, 1000)
        assert counts[1] + counts[4] == counts[2] + counts[5]

    def test_compare_severi_brauer_order_1e4(self):
        g = AbstractGroup((10**4,))
        x, y = sb(g, [1], 10**4), sb(g, [3], 10**4)
        t0 = time.perf_counter()
        v = compare(x, y)
        assert time.perf_counter() - t0 < 2.0
        assert v.measures_equal and v.rho_equal and v.dims_equal and v.subgroups_equal
        assert not compare(x, sb(g, [2], 10**4)).subgroups_equal

    def test_severi_brauer_at_max_classes(self):
        g = AbstractGroup((MAX_CLASSES,))
        report, payload = self._timed_measure(sb(g, [1], 2 * MAX_CLASSES))
        assert report.rho == 2 * MAX_CLASSES
        assert [e["mult"] for e in payload["jt_effective"]["classes"]] == [2] * MAX_CLASSES

    def test_severi_brauer_past_max_classes(self):
        g = AbstractGroup((MAX_CLASSES + 1,))
        with pytest.raises(ResourceLimitError, match="class order 16385"):
            self._timed_measure(sb(g, [1], MAX_CLASSES + 1))

    def test_product_pairs_at_and_past_max_classes(self):
        # Factors of order 128 and 128 give 2^14 class pairs; 128 and 129 one
        # row more.
        g = AbstractGroup((128 * 129,))
        at = Product((sb(g, [129], 128), sb(g, [129 * 5], 128)))
        report, _ = self._timed_measure(at)
        assert report.rho == 128 * 128
        past = Product((sb(g, [129], 128), sb(g, [128], 129)))
        with pytest.raises(ResourceLimitError, match="product pair count 16512"):
            self._timed_measure(past)


class TestProductWork:
    """A product prices its class pairs as one running total."""

    @staticmethod
    def _cycling_shadows(count):
        # Dimension-5 shadows over (Z/2)^12 through the 12 generators: the
        # support doubles up to 4,096 classes and stays there.
        g = AbstractGroup((2,) * 12)
        units = [[int(i == j) for j in range(12)] for i in range(12)]
        return tuple(Quadric(FormShadow(5, g.element(units[i % 12]), True)) for i in range(count))

    @pytest.mark.parametrize("factors", [102, 103])
    def test_each_side_of_the_limit(self, factors):
        # 102 factors are the longest such product the price accepts: 8,188
        # pairs up to 4,096 classes, then 90 steps of 8,192.
        v = Product(self._cycling_shadows(factors))
        if factors == 102:
            assert len(v.jt_classes().key_counts) == 4096
        else:
            with pytest.raises(ResourceLimitError, match="the product measure needs more than"):
                v.jt_classes()

    @pytest.mark.parametrize("slack", [0, -1])
    def test_steps_add_up(self, monkeypatch, slack):
        # Factor j >= 2 meets a support of min(2^(j-1), 4096) classes of 2 each.
        price = sum(PAIR_WORK * min(2 ** (j - 1), 4096) * 2 for j in range(2, 21))
        monkeypatch.setattr(brauer, "WORK_LIMIT", price + slack)
        v = Product(self._cycling_shadows(20))
        if slack == 0:
            assert len(v.jt_classes().key_counts) == 4096
        else:
            with pytest.raises(ResourceLimitError, match=f"more than {price - 1} units"):
                v.jt_classes()

    @pytest.mark.parametrize("slack", [0, -1])
    def test_nested_products_share_one_total(self, monkeypatch, slack):
        # The inner products step 2^2 + ... + 2^9 and 2 x 2 pairs, the outer
        # step 512 x 4; each product alone is priced at most 2,048 pairs.
        price = PAIR_WORK * (sum(2**j for j in range(2, 10)) + 4 + 512 * 4)
        shadows = self._cycling_shadows(11)
        flat = Product(shadows).jt_classes()
        monkeypatch.setattr(brauer, "WORK_LIMIT", price + slack)
        v = Product((Product(shadows[:9]), Product(shadows[9:])))
        if slack == 0:
            assert v.jt_classes() == flat
        else:
            with pytest.raises(ResourceLimitError, match=f"more than {price - 1} units"):
                v.jt_classes()

    @staticmethod
    def _cycling_z2_6(count):
        # Dimension-5 shadows over (Z/2)^6: the support reaches its 64
        # classes at the sixth factor, and each later step prices 64 x 2 pairs.
        g = AbstractGroup((2,) * 6)
        units = [[int(i == j) for j in range(6)] for i in range(6)]
        return Product(tuple(Quadric(FormShadow(5, g.element(units[i % 6]), True)) for i in range(count)))

    @pytest.mark.parametrize("factors", [5862, 5863])
    def test_each_side_of_the_nested_limit(self, factors):
        # Alone, up to 5,864 such factors are accepted.  Beside a two-factor
        # product, the tree's total passes the limit from 5,863 on.
        pair = self._cycling_z2_6(2)
        v = Product((self._cycling_z2_6(factors), pair))
        if factors == 5862:
            assert len(v.jt_classes().key_counts) == 64
        else:
            with pytest.raises(ResourceLimitError, match="the product measure needs more than"):
                v.jt_classes()

    def test_second_inner_product_is_refused_by_the_price(self, monkeypatch):
        # Two of the longest accepted inner products: the first spends all but
        # 1,040 units, so the second stops at its fourth step (16 x 2 pairs),
        # long before the rank cap or the outer step.
        inner, tensor, steps = self._cycling_z2_6(5864), varieties.tensor, []
        monkeypatch.setattr(varieties, "tensor", lambda x, y: steps.append(1) or tensor(x, y))
        with pytest.raises(ResourceLimitError, match="the product measure needs more than"):
            Product((inner, inner)).jt_classes()
        assert len(steps) == 5863 + 3

    def test_rank_past_the_cap_stops_before_the_next_factor(self, monkeypatch):
        # C(8000, 4000) has 2,407 digits, so the first two factors pass 10^4300
        # together; the third must never be measured.
        def measured(self):
            raise AssertionError("the factor after the rank cap was measured")

        split = CSA(Z1.element([0]), 8000)
        v = Product((Grassmannian(4000, split), Grassmannian(4000, split), sb(Z1, [0], 2)))
        monkeypatch.setattr(SeveriBrauer, "jt_classes", measured)
        with pytest.raises(ResourceLimitError, match="^rank measure has more than 4300 digits$"):
            v.jt_classes()


def _measure_argv(orders, variety):
    doc = {"group": {"kind": "abstract", "orders": orders}, "variety": variety}
    return ["measure", json.dumps(doc), "--format", "json"]


def _gr_doc(d, degree, coords=(1,)):
    alg = {"degree": degree, "class": {"coords": list(coords)}}
    return {"family": "grassmannian", "d": d, "alg": alg}


def _sb_doc(degree, coords=(1,)):
    return {"family": "severi-brauer", "alg": {"degree": degree, "class": {"coords": list(coords)}}}


def _shadow_doc(coords, dim=8):
    shadow = {"clifford_class": {"coords": coords}, "dim": dim, "i3_zero": False}
    return {"family": "quadric", "shadow": shadow}


class TestMeasureFrontiers:
    """Each input ends within 2 s in an answer or in exit 3, never a traceback."""

    @staticmethod
    def _run(capsys, argv):
        t0 = time.perf_counter()
        code = cli.main(argv)
        elapsed = time.perf_counter() - t0
        captured = capsys.readouterr()
        assert elapsed < 2.0, f"took {elapsed:.2f} s"
        return code, captured

    @pytest.mark.parametrize(
        "argv, rho",
        [
            # Past 2^63 - 1, where len() of the class multiset overflows.
            (_measure_argv([2], {"family": "product", "children": [_shadow_doc([1])] * 22}), 8**22),
            (_measure_argv([2], _gr_doc(40, 80)), math.comb(80, 40)),
            (_measure_argv([2], _gr_doc(200, 400)), math.comb(400, 200)),
            (_measure_argv([2], _gr_doc(450, 900)), math.comb(900, 450)),
            (_measure_argv([6], _gr_doc(3000, 6000)), math.comb(6000, 3000)),
        ],
        ids=["22-quadric-shadows", "gr-40-80", "gr-200-400", "gr-450-900", "gr-3000-6000-z6"],
    )
    def test_answers_with_the_exact_rank(self, capsys, argv, rho):
        code, captured = self._run(capsys, argv)
        assert code == 0 and captured.err == ""
        assert json.loads(captured.out)["measure"]["rho"] == rho

    @pytest.mark.parametrize(
        "argv",
        [
            _measure_argv([10**5], _sb_doc(10**5)),
            _measure_argv([3 * 10**6], _sb_doc(3 * 10**6)),
            _measure_argv([2], _gr_doc(10**6, 2 * 10**6)),
            _measure_argv([2], {"family": "product", "children": [_shadow_doc([1])] * 4800}),
            # About 1.3e8 digits of multiplicities, past MAX_PRINTED_DIGITS.
            _measure_argv([16384], _gr_doc(4096, 16384)),
            ["compare", json.dumps({
                "group": {"kind": "abstract", "orders": [10**8]},
                "x": _sb_doc(10**8), "y": _sb_doc(10**8, (3,)),
            })],
        ],
        ids=[
            "sb-1e5", "sb-3e6", "gr-1e6-2e6", "rank-past-4300-digits", "printed-digits-gr-4096-16384",
            "compare-sb-1e8",
        ],
    )
    def test_past_a_frontier_is_exit_three(self, capsys, argv):
        code, captured = self._run(capsys, argv)
        assert code == 3 and captured.out == ""
        assert captured.err.startswith("resource limit: ") and captured.err.count("\n") == 1

    def test_compare_prints_no_multiplicities_so_is_answered_past_the_digit_budget(self, capsys):
        # Gr(n - d, A^op) is isomorphic to Gr(d, A), so the measures agree.
        doc = {
            "group": {"kind": "abstract", "orders": [16384]},
            "x": _gr_doc(4096, 16384), "y": _gr_doc(12288, 16384, (16383,)),
        }
        code, captured = self._run(capsys, ["compare", json.dumps(doc), "--format", "json"])
        assert code == 0 and captured.err == ""
        assert json.loads(captured.out)["verdict"] == {
            "measures_equal": True, "rho_equal": True, "dims_equal": True, "subgroups_equal": True,
        }


def _descriptors():
    g = AbstractGroup((2, 4))
    shadow = Quadric(FormShadow(8, g.element([1, 2]), True))
    return {
        "severi-brauer": sb(g, [1, 1], 4),
        "grassmannian": Grassmannian(2, CSA(g.element([0, 1]), 4)),
        "quadric-form": Quadric(QuadraticForm.of([1, 1, 1, -1, -1, -1])),
        "quadric-shadow": shadow,
        "involution": Involution(6, g.element([0, 2]), g.element([0, 1]), g.element([0, 3])),
        "product": Product((shadow, Product((sb(g, [1, 0], 2), shadow)))),
    }


@pytest.mark.parametrize("name", sorted(_descriptors()))
def test_descriptor_payload_parses_back(name):
    v = _descriptors()[name]
    assert jsonio.descriptor_payload(v) == v.to_payload()
    assert jsonio.parse_descriptor(json.loads(json.dumps(v.to_payload())), v.group) == v


class TestCompare:
    def test_equal_pair(self):
        x = sb(V2, [1, 0], 2)
        y = sb(V2, [1, 0], 2)
        v = compare(x, y)
        assert v.measures_equal and v.rho_equal and v.dims_equal and v.subgroups_equal

    def test_distinct_classes_same_rank(self):
        v = compare(sb(V2, [1, 0], 2), sb(V2, [0, 1], 2))
        assert not v.measures_equal
        assert v.rho_equal and v.dims_equal
        assert not v.subgroups_equal

    def test_mixed_groups_rejected(self):
        with pytest.raises(GroupMismatchError):
            compare(sb(G4, [1], 4), sb(V2, [1, 0], 4))


class TestDeduce:
    def test_not_assumed_is_note_only(self):
        r = deduce(sb(V2, [1, 0], 2), sb(V2, [1, 0], 2), False)
        assert not r.refuted and not r.conclusions
        assert "not asserted" in r.notes[0]

    def test_refuted_when_measures_differ(self):
        r = deduce(sb(V2, [1, 0], 2), sb(V2, [0, 1], 2), True)
        assert r.refuted
        assert not r.conclusions

    # Equal measures, different dimensions: the multiset forgets the
    # dimension, so no rule may conclude from it.
    @pytest.mark.parametrize(
        "x, y, i3_zero",
        [
            (Grassmannian(2, CSA(Z1.identity(), 16)), Grassmannian(3, CSA(Z1.identity(), 10)), False),
            (Grassmannian(2, CSA(Z1.identity(), 16)), Grassmannian(1, CSA(Z1.identity(), 120)), False),
            (Quadric(FormShadow(7, Z2.identity())), Quadric(FormShadow(6, Z2.identity())), True),
            (Quadric(FormShadow(5, Z2.identity())), Quadric(FormShadow(4, Z2.identity())), True),
            (Quadric(QuadraticForm.of([1, 1, 1, 1, -1, -1, -1])),
             Quadric(QuadraticForm.of([1, 1, 1, -1, -1, -1])), False),
        ],
        ids=("gr-2-16-3-10", "gr-2-16-1-120", "shadow-7-6", "shadow-5-4", "rational-7-6"),
    )
    def test_refuted_when_dimensions_differ(self, x, y, i3_zero):
        r = deduce(x, y, True, i3_zero=i3_zero)
        assert r.verdict.measures_equal and not r.verdict.dims_equal
        assert r.refuted and not r.conclusions
        assert r.notes == (
            f"the varieties have dimensions {x.dim} and {y.dim}; a class in K0(Var_k) "
            "fixes the dimension, so the asserted class equality cannot hold",
        )

    def test_severi_brauer_two_torsion_isomorphism(self):
        r = deduce(sb(V2, [1, 1], 2), sb(V2, [1, 1], 2), True)
        assert any("isomorphic" in c.statement for c in r.conclusions)

    def test_severi_brauer_higher_period_is_cited_only(self):
        r = deduce(sb(G4, [1], 4), sb(G4, [1], 4), True)
        assert not any("isomorphic" in c.statement for c in r.conclusions)
        assert any("birational" in n for n in r.notes)

    def test_grassmannian_duality_statement(self):
        x = Grassmannian(1, CSA(V2.element([1, 0]), 4))
        y = Grassmannian(3, CSA(V2.element([1, 0]), 4))
        r = deduce(x, y, True)
        assert any("d' = d or deg - d" in c.statement for c in r.conclusions)

    def test_quadric_dim_six_isomorphism(self):
        x = Quadric(QuadraticForm.of([1, 1, 1, -1, -1, -1]))
        y = Quadric(QuadraticForm.of([2, 1, 1, -1, -1, -2]))
        r = deduce(x, y, True)
        assert any(c.statement == "quadrics are isomorphic" for c in r.conclusions)

    def test_quadric_needs_hypothesis_outside_dim_six(self):
        s = FormShadow(8, V2.element([1, 0]), False)
        r = deduce(Quadric(s), Quadric(s), True)
        assert not any("isomorphic" in c.statement for c in r.conclusions)
        assert any("I^3" in n for n in r.notes)

    def test_quadric_i3_flag_unlocks_isomorphism(self):
        s = FormShadow(8, V2.element([1, 0]), False)
        r = deduce(Quadric(s), Quadric(s), True, i3_zero=True)
        assert any(c.statement == "quadrics are isomorphic" for c in r.conclusions)

    def test_involution_degree_six(self):
        v = Involution(6, G4.element([2]), G4.element([1]), G4.element([3]))
        r = deduce(v, v, True)
        assert any("isomorphic" in c.statement for c in r.conclusions)

    def test_involution_needs_hypothesis_beyond_six(self):
        v = Involution(8, V2.element([1, 1]), V2.element([1, 0]), V2.element([0, 1]))
        assert not any(
            "isomorphic" in c.statement for c in deduce(v, v, True).conclusions
        )
        assert any(
            "isomorphic" in c.statement
            for c in deduce(v, v, True, i3_zero=True).conclusions
        )

    def test_conic_product_unlinked(self):
        x = Product((sb(V2L, [1, 0], 2), sb(V2L, [0, 1], 2)))
        r = deduce(x, x, True)
        assert any(c.statement == "products are isomorphic" for c in r.conclusions)
        assert any("common conic" in c.statement for c in r.conclusions)

    def test_conic_product_linked_gives_only_common_conic(self):
        # no index oracle: the product class has index 2, not 4
        x = Product((sb(V2, [1, 0], 2), sb(V2, [0, 1], 2)))
        r = deduce(x, x, True)
        assert any("common conic" in c.statement for c in r.conclusions)
        assert not any("products are isomorphic" in c.statement for c in r.conclusions)
        assert any("unlinked" in n for n in r.notes)

    def test_conic_product_needs_two_factors(self):
        three = Product(
            (sb(V2, [1, 0], 2), sb(V2, [0, 1], 2), sb(V2, [1, 1], 2))
        )
        with pytest.raises(ValueError):
            deduce(three, three, True)

    def test_quadric_product_dim_six(self):
        s = FormShadow(6, V2.element([1, 0]), False)
        t = FormShadow(6, V2.element([0, 1]), False)
        p = Product((Quadric(s), Quadric(t)))
        r = deduce(p, p, True)
        assert any(c.statement == "products are isomorphic" for c in r.conclusions)

    def test_quadric_product_copy_count_failure_reported(self):
        s = FormShadow(5, V2.element([1, 0]), True)
        p = Product(tuple(Quadric(s) for _ in range(8)))
        r = deduce(p, p, True, i3_zero=True)
        assert any("copy-count condition fails at l = [3, 4, 5]" in n for n in r.notes)
        assert not any("products are isomorphic" in c.statement for c in r.conclusions)

    def test_quadric_product_mixed_dims_rejected(self):
        a = Quadric(FormShadow(5, V2.element([1, 0]), False))
        b = Quadric(FormShadow(6, V2.element([1, 0]), False))
        with pytest.raises(ValueError):
            deduce(Product((a, b)), Product((a, b)), True)

    def test_cross_family_rejected(self):
        with pytest.raises(ValueError):
            deduce(sb(V2, [1, 0], 2), Quadric(FormShadow(6, V2.element([1, 0]), False)), True)


class TestClassesBuilt:
    """Measures run on class keys, and are printed from them: no class is built."""

    @pytest.fixture
    def built(self, monkeypatch):
        keys = []
        for model in (AbstractGroup, type(RATIONALS)):
            def counting(group, key, class_at=model.class_at):
                keys.append(key)
                return class_at(group, key)
            monkeypatch.setattr(model, "class_at", counting)
        return keys

    def test_compare_and_deduce_of_large_severi_brauer(self, built):
        # 29,998 classes before the measure stayed on keys.
        g = AbstractGroup((3000,))
        x, y = sb(g, [1], 3000), sb(g, [7], 3000)
        verdict = compare(x, y)
        report = deduce(x, y, True)
        assert verdict.measures_equal and verdict.subgroups_equal and not report.refuted
        assert len(built) < 10

    @pytest.mark.parametrize("variety", [
        sb(AbstractGroup((3000,)), [1], 3000),
        Grassmannian(2, CSA(AbstractGroup((12,)).element([1]), 24)),
        Quadric(QuadraticForm.of([1, 1, 2, -2, Fraction(3, 4), -12, 5, 5])),
        Involution(6, G4.element([2]), G4.element([1]), G4.element([3])),
        Product((Quadric(FormShadow(5, V2.element([1, 0]))), Quadric(FormShadow(5, V2.element([0, 1]))))),
        SeveriBrauer(CSA(RationalClass((("real", Fraction(1, 2)), (3, Fraction(1, 2)))), 6)),
    ], ids=["severi-brauer", "grassmannian", "rational-quadric", "involution", "product", "rational"])
    def test_a_printed_measure_builds_only_the_classes_it_prints(self, built, variety):
        report = tits_measure(variety)
        assert built == []
        payload = report.to_payload()
        assert payload["jt"]["terms"] and payload["jt_effective"]["classes"]
        assert built == []

    @pytest.mark.parametrize("x, y", [
        (sb(AbstractGroup((3000,)), [1], 3000), sb(AbstractGroup((3000,)), [7], 3000)),
        (Quadric(QuadraticForm.of([1, 1, 2, -2, Fraction(3, 4), -12, 5, 5])), Quadric(QuadraticForm.of([1] * 8))),
    ], ids=["severi-brauer", "rational-quadrics"])
    def test_printed_compare_and_deduce_reports_build_no_class(self, built, x, y):
        verdict, report = compare(x, y), deduce(x, y, True)
        for printed in (x, y, verdict, report):
            printed.to_payload()
        assert built == []

    @pytest.mark.parametrize("suite", ["sum-cancellation", "normal-form-confluence"])
    def test_a_printed_witness_builds_no_class(self, built, monkeypatch, suite):
        # A signature coarse past two summands and an unrewritten normal form
        # make the suites report witnesses: states, and raw and reached terms.
        group = AbstractGroup((2, 6))
        if suite == "sum-cancellation":
            monkeypatch.setattr(MotiveSum, "signature", _true_below_three)
            run = verify.verify_sum_cancellation(group, card_max=2, trials=0, seed=3)
        else:
            monkeypatch.setattr(verify, "RingElement", _Unrewritten)
            run = verify.verify_normal_form_confluence(group, trials=20, seed=4)
        assert run.to_payload()["witness"]
        assert built == []
