import time

import pytest

from titsmeasure import cli, verify
from titsmeasure.brauer import AbstractGroup
from titsmeasure.quadforms import FormShadow
from titsmeasure.varieties import Quadric
from titsmeasure.verify import (
    ResourceLimitError,
    verify_normal_form_confluence,
    verify_quadric_product_matching,
    verify_relation_equivalence,
    verify_sum_cancellation,
    verify_tensor_cancellation,
)

G6 = AbstractGroup((6,))
V2 = AbstractGroup((2, 2))
V3 = AbstractGroup((2, 2, 2))


class TestRelationEquivalence:
    def test_passes_on_z6(self):
        run = verify_relation_equivalence(G6, 3)
        assert run.passed
        assert run.params["m_max"] == 3
        # multisets of size 1..3 over 6 elements: 6, 21, 56
        assert run.details["states_checked"] == {"1": 6, "2": 21, "3": 56}

    def test_passes_on_elementary_two_group(self):
        assert verify_relation_equivalence(V2, 3).passed

    def test_large_group_hits_frontier(self):
        with pytest.raises(ResourceLimitError):
            verify_relation_equivalence(AbstractGroup((210,)), 2)

    def test_certificate_shape(self):
        payload = verify_relation_equivalence(G6, 2).to_payload()
        assert payload["suite"] == "relation-equivalence"
        assert payload["outcome"] == "pass"
        assert payload["witness"] is None
        assert payload["version"]


class TestSumCancellation:
    def test_passes_on_small_groups(self):
        assert verify_sum_cancellation(V2, card_max=2, trials=50, seed=3).passed
        assert verify_sum_cancellation(G6, card_max=2, trials=50, seed=3).passed

    def test_deterministic_given_seed(self):
        a = verify_sum_cancellation(G6, card_max=2, trials=30, seed=9).to_payload()
        b = verify_sum_cancellation(G6, card_max=2, trials=30, seed=9).to_payload()
        assert a == b


class TestTensorCancellation:
    def test_quadric_motive_shape(self):
        # The quadric factor the tensor suite cancels.
        c = V2.element([1, 0])
        even = Quadric(FormShadow(6, c)).jt_classes()
        odd = Quadric(FormShadow(5, c)).jt_classes()
        assert len(even) == 6 and len(odd) == 4
        with pytest.raises(ValueError):
            Quadric(FormShadow(6, AbstractGroup((4,)).element([1]))).jt_classes()

    def test_passes_for_supported_dims(self):
        for n in (5, 6):
            run = verify_tensor_cancellation(V2, n, card_max=2)
            assert run.passed, (n, run.witness)

    def test_small_dim_rejected(self):
        with pytest.raises(ValueError):
            verify_tensor_cancellation(V2, 4)

    def test_dim_four_probe_counterexample_is_reported(self):
        run = verify_tensor_cancellation(V2, 5, card_max=2)
        probe = run.details["n4_probe"]
        assert probe["holds"] is False
        assert probe["witness"]["n_dim"] == 4


class TestQuadricProductMatching:
    def test_exhaustive_small(self):
        run = verify_quadric_product_matching(2, 2, 6)
        assert run.passed
        assert run.details["families"] > 0

    def test_odd_dimension_variant(self):
        assert verify_quadric_product_matching(2, 2, 5).passed

    def test_family_limit_enforced(self, monkeypatch):
        # C(64 + 4, 5) families; refused before the first is built.
        def no_enumeration(*args):
            raise AssertionError("enumerated past the frontier")

        monkeypatch.setattr(verify, "_matching_witness", no_enumeration)
        with pytest.raises(ResourceLimitError):
            verify_quadric_product_matching(6, 5, 6)

    def test_dimension_frontier(self):
        with pytest.raises(ValueError):
            verify_quadric_product_matching(2, 2, 4)


class TestConfluence:
    def test_passes_on_z6(self):
        run = verify_normal_form_confluence(G6, trials=200, seed=5)
        assert run.passed
        assert run.params["trials"] == 200

    def test_passes_on_elementary_group(self):
        assert verify_normal_form_confluence(V3, trials=100, seed=5).passed

    def test_deterministic_given_seed(self):
        a = verify_normal_form_confluence(G6, trials=40, seed=2).to_payload()
        b = verify_normal_form_confluence(G6, trials=40, seed=2).to_payload()
        assert a == b

    def test_huge_group_builds_only_the_drawn_classes(self):
        g = AbstractGroup((10**9,))
        assert verify_normal_form_confluence(g, trials=1000).passed
        assert len(g.key_order) < 20_000


HANGING_CALLS = {
    "relation-equivalence": ["--group", "10,10", "--m-max", "4"],
    "sum-cancellation": ["--group", "10,10", "--card-max", "4"],
    "tensor-cancellation": ["--group", "10,10", "--card-max", "5"],
    "quadric-product-matching": ["--d-max", "6", "--m", "5"],
    # 100,000 states of one class, each walked twice per 2-torsion class.
    "tensor-cancellation-z100000": ["--group", "100000", "--card-max", "1"],
    # Few states over the trivial group, but each holds up to 201 classes.
    "tensor-cancellation-size-201": ["--group", "1", "--card-max", "201"],
    # 766,480 families, each keyed by 2^6 counts.
    "quadric-product-matching-d6-m4": ["--d-max", "6", "--m", "4"],
    # Counts up to 6209^5, past a 64-bit key.
    "quadric-product-matching-n6209": ["--d-max", "2", "--m", "5", "--n", "6209"],
    # 100,000 trials of 2 units, and of 2^2 units: past TRIAL_LIMIT.
    "sum-cancellation-trials": ["--group", "2,6", "--card-max", "1", "--trials", "100000"],
    "normal-form-confluence-trials": ["--group", "2,6", "--trials", "100000"],
}


# Sizes and counts that would leave nothing to check.
VACUOUS_CALLS = [
    ["relation-equivalence", "--group", "2", "--m-max", "0"],
    ["relation-equivalence", "--group", "2", "--m-max", "-2"],
    ["sum-cancellation", "--group", "2", "--card-max", "0"],
    ["sum-cancellation", "--group", "2", "--card-max", "-1"],
    ["sum-cancellation", "--group", "2", "--trials", "-5"],
    ["tensor-cancellation", "--group", "2", "--card-max", "0"],
    ["normal-form-confluence", "--group", "2", "--trials", "-3"],
    ["normal-form-confluence", "--group", "2", "--trials", "0"],
]


@pytest.mark.parametrize("argv", VACUOUS_CALLS, ids=[" ".join(a) for a in VACUOUS_CALLS])
def test_vacuous_frontier_is_exit_one(capsys, argv):
    code = cli.main(["verify", "--suite", *argv])
    captured = capsys.readouterr()
    assert code == 1 and captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    # sum-cancellation may skip its random part; confluence has no other part.
    least = 0 if argv[:1] + argv[-2:-1] == ["sum-cancellation", "--trials"] else 1
    assert f"must be at least {least}, got {argv[-1]}" in captured.err


class TestWorkFrontiers:
    """The suites count their multiset states and trials before running any."""

    @pytest.mark.parametrize("name", HANGING_CALLS)
    def test_past_the_frontier_is_exit_three_at_once(self, capsys, name):
        suite = next(s for s in cli.SUITES if name.startswith(s))
        t0 = time.perf_counter()
        code = cli.main(["verify", "--suite", suite, *HANGING_CALLS[name]])
        elapsed = time.perf_counter() - t0
        captured = capsys.readouterr()
        assert code == 3 and captured.out == ""
        assert captured.err.startswith("resource limit: ") and captured.err.count("\n") == 1
        assert elapsed < 1

    def test_huge_group_is_refused_before_enumeration(self):
        with pytest.raises(ResourceLimitError):
            verify_sum_cancellation(AbstractGroup((10**9,)), card_max=1)
        with pytest.raises(ResourceLimitError):
            verify_tensor_cancellation(AbstractGroup((10**9,)), 5, card_max=1)

    def test_large_multisets_over_a_small_group_are_refused(self):
        # Few states, but each tries m_max (m_max - 1) pair rewrites.
        with pytest.raises(ResourceLimitError):
            verify_relation_equivalence(AbstractGroup((2,)), 10**9)

    def test_the_limit_itself_is_accepted(self, monkeypatch):
        # 50 trials of card_max + 1 = 2 units; 25 trials of nu^2 = 4 units on Z/6.
        monkeypatch.setattr(verify, "TRIAL_LIMIT", 100)
        assert verify_sum_cancellation(G6, card_max=1, trials=50).passed
        assert verify_normal_form_confluence(G6, trials=25).passed
        monkeypatch.setattr(verify, "TRIAL_LIMIT", 99)
        with pytest.raises(ResourceLimitError):
            verify_sum_cancellation(G6, card_max=1, trials=50)
        with pytest.raises(ResourceLimitError):
            verify_normal_form_confluence(G6, trials=25)
        v2 = AbstractGroup((2, 2))  # 1 + 4 states of size <= 1, so 25 pairs
        monkeypatch.setattr(verify, "STATE_LIMIT", 25)
        assert verify_sum_cancellation(v2, card_max=1, trials=0).passed
        monkeypatch.setattr(verify, "STATE_LIMIT", 24)
        with pytest.raises(ResourceLimitError):
            verify_sum_cancellation(v2, card_max=1, trials=0)
        # 4 + 10 states of size 1..2, each with 2 * 1 * 4 rewrites: 112.
        monkeypatch.setattr(verify, "REWRITE_LIMIT", 112)
        assert verify_relation_equivalence(v2, 2).passed
        monkeypatch.setattr(verify, "REWRITE_LIMIT", 111)
        with pytest.raises(ResourceLimitError):
            verify_relation_equivalence(v2, 2)
        # 4 states of size 1, walked at n and at n = 4 for each of the 4
        # 2-torsion classes: 32 steps of TENSOR_STEP units.
        monkeypatch.setattr(verify, "STATE_LIMIT", 32 * verify.TENSOR_STEP)
        assert verify_tensor_cancellation(v2, 6, card_max=1).passed
        monkeypatch.setattr(verify, "STATE_LIMIT", 32 * verify.TENSOR_STEP - 1)
        with pytest.raises(ResourceLimitError):
            verify_tensor_cancellation(v2, 6, card_max=1)
        # C(4 + 2 - 1, 2) = 10 families of two classes in (Z/2)^2, each
        # keyed by 2^2 counts: 40 units.
        monkeypatch.setattr(verify, "FAMILY_LIMIT", 40)
        assert verify_quadric_product_matching(2, 2, 6).passed
        monkeypatch.setattr(verify, "FAMILY_LIMIT", 39)
        with pytest.raises(ResourceLimitError):
            verify_quadric_product_matching(2, 2, 6)

    @pytest.mark.parametrize(
        "call, accepted",
        [
            # 2 x 31,249 x 1 x 4 = 249,992 and 2 x 31,251 x 1 x 4 = 250,008 units.
            (lambda: verify_tensor_cancellation(AbstractGroup((31249,)), card_max=1), True),
            (lambda: verify_tensor_cancellation(AbstractGroup((31251,)), card_max=1), False),
            # Criterion 8's largest tensor call: 164 states x 8 classes x 2 x 4.
            (lambda: verify_tensor_cancellation(V3, 5, card_max=3), True),
            (lambda: verify_tensor_cancellation(AbstractGroup((1,)), card_max=200), True),
            (lambda: verify_tensor_cancellation(AbstractGroup((1,)), card_max=201), False),
            (lambda: verify_sum_cancellation(AbstractGroup((1,)), card_max=201), False),
            # 376,992 x 2^5 = 12,063,744 and 766,480 x 2^6 = 49,054,720 units.
            (lambda: verify_quadric_product_matching(5, 5, 6), True),
            (lambda: verify_quadric_product_matching(6, 4, 6), False),
            (lambda: verify_quadric_product_matching(2, 5, 6208), True),
            (lambda: verify_quadric_product_matching(2, 5, 6209), False),
        ],
        ids=["tensor-z31249", "tensor-z31251", "tensor-criterion-8", "tensor-size-200",
             "tensor-size-201", "sum-size-201", "matching-d5-m5", "matching-d6-m4",
             "matching-n6208", "matching-n6209"],
    )
    def test_each_side_of_the_fixed_limits(self, monkeypatch, call, accepted):
        # The enumeration is stubbed out: only the count before it is tested.
        for name in ("_tensor_witness", "_sum_witness", "_matching_witness"):
            monkeypatch.setattr(verify, name, lambda *args: None)
        if accepted:
            assert call().passed
        else:
            with pytest.raises(ResourceLimitError):
                call()
