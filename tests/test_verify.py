import itertools
import math
import random
import time

import pytest

import oracles
from titsmeasure import brauer, cli, verify
from titsmeasure.brauer import AbstractGroup
from titsmeasure.motives import MotiveSum
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
        # 1,565,620 states of size 3 over Z/210, each with 6 pairs of up to
        # 14 rewrites; --m-max 2 over Z/210 is accepted.
        with pytest.raises(ResourceLimitError):
            verify_relation_equivalence(AbstractGroup((210,)), 3)

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


def _both_kernels(d_max, m, n_dim):
    """(witness, details) of the packed walk, then of the reference kernel."""
    runs = []
    for kernel in (verify._matching_witness, oracles.matching_witness):
        details: dict = {}
        runs.append((kernel(d_max, m, n_dim, details), details))
    return runs


class TestPackedMatchingWalk:
    """The packed depth-first walk against the family-by-family reference
    kernel: the same family count, or the same first witness, and each key
    the family's packed counts."""

    @pytest.mark.parametrize("n_dim", [3, 4, 5, 6, 7, 8])
    def test_every_small_grid(self, n_dim):
        # Dimensions 3 and 4 are outside the theorem: their families collide,
        # so the first witnesses are compared too.
        witnesses = 0
        for d_max in range(5):
            for m in range(1, 5):
                walk, reference = _both_kernels(d_max, m, n_dim)
                assert walk == reference, (d_max, m)
                witnesses += walk[0] is not None
        assert (witnesses > 0) == (n_dim < 5)

    @pytest.mark.parametrize("d_max", [0, 1, 2])
    def test_slot_bound_edge(self, d_max):
        # The all-zero family's identity count is 6208^5, just below 2^63.
        assert 6208 ** 5 < 1 << 63 <= 6209 ** 5
        walk, reference = _both_kernels(d_max, 5, 6208)
        assert walk == reference == (None, {"families": math.comb((1 << d_max) + 4, 5)})
        # Every key is its counts in slots as wide as the largest count,
        # 6208^5 (63 bits), count x in slot x.
        for family, key in verify._matching_keys(d_max, 5, 6208):
            counts = oracles.matching_counts(family, d_max, 6208)
            assert key == sum(k << 63 * x for x, k in enumerate(counts)), family

    @pytest.mark.parametrize("n_dim", [3, 4, 5, 6, 7, 8])
    def test_every_key_is_its_packed_counts(self, n_dim):
        # A key that is wrong yet apart from every other key passes the suite
        # and the comparison of witnesses, so each key is checked against the
        # reference counts, count x in slot x, and the families against
        # their enumeration order.  Past m = 5, which the suite refuses, the
        # walk is called directly.
        copies = 2 if n_dim % 2 == 0 else 1
        grids = [(d_max, m) for d_max in range(5) for m in range(1, 5)]
        grids += [(d_max, m) for d_max in range(3) for m in range(5, 9)]
        for d_max, m in grids:
            slot = ((n_dim - 2 + copies) ** m).bit_length()
            walk = list(verify._matching_keys(d_max, m, n_dim))
            families = itertools.combinations_with_replacement(range(1 << d_max), m)
            assert [family for family, _ in walk] == list(families), (d_max, m)
            for family, key in walk:
                counts = oracles.matching_counts(family, d_max, n_dim)
                assert key == sum(k << slot * x for x, k in enumerate(counts)), (d_max, m, family)

    @pytest.mark.parametrize("n_dim", [3, 4, 5, 6, 7, 8])
    def test_past_the_proved_range(self, n_dim):
        # m = 6 to 8, which the suite refuses: the kernels still agree, and
        # families collide only outside the theorem's dimensions.
        witnesses = 0
        for d_max, m in [(0, 6), (1, 6), (2, 6), (3, 6), (0, 7), (1, 7), (2, 7), (0, 8), (1, 8), (2, 8)]:
            walk, reference = _both_kernels(d_max, m, n_dim)
            assert walk == reference, (d_max, m)
            witnesses += walk[0] is not None
        assert (witnesses > 0) == (n_dim < 5)


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


DRAW_ORDERS = [1, 2, 5, 30, 10**9]

# The bounds a stream is pinned at: every small bound, each power of two
# (where half the draws of k bits are redrawn), and 10^9.
STREAM_BOUNDS = {
    "1-70": range(1, 71),
    "powers-of-two": [2**j for j in range(41)],
    "10^9": [10**9],
}


class TestGeneratorDraws:
    """The suites draw from per-bound streams (``verify._draws``) and with
    ``Random._randbelow``, the sampler under ``choice``, ``randint`` and
    ``randrange``; each draw must be the one the public call it stands for
    makes, so seeded certificates do not move."""

    @pytest.mark.parametrize("bounds", STREAM_BOUNDS.values(), ids=STREAM_BOUNDS)
    def test_streams_draw_what_randbelow_draws(self, bounds):
        for n in bounds:
            for seed in range(300):
                reference, own = random.Random(seed), random.Random(seed)
                stream = verify._draws(own, n)
                for _ in range(4):
                    assert next(stream) == reference._randbelow(n), (n, seed)
                assert reference.getstate() == own.getstate(), (n, seed)

    @pytest.mark.parametrize("order", DRAW_ORDERS)
    def test_streams_interleave_with_the_rewrite_draws(self, order):
        # Confluence keeps one set of streams for all its trials, and between
        # two raw elements _rewrite_once draws with _randbelow and sample.
        primes = (2, 3, 5, 7, 11)
        for seed in range(300):
            public, own = random.Random(seed), random.Random(seed)
            count, classes, coefficients = (verify._draws(own, n) for n in (4, order, 6))
            for k in (2, 3, 5):
                assert public.randint(1, 4) == 1 + next(count)
                assert public.randrange(order) == next(classes)
                assert public.choice(verify._COEFFICIENTS) == verify._COEFFICIENTS[next(coefficients)]
                assert public.choice(range(k + 2)) == own._randbelow(k + 2)
                cut = 1 + own._randbelow(k - 1)
                assert public.sample(primes[:k], public.randint(1, k - 1)) == own.sample(primes[:k], cut)
                assert public.randrange(order) == next(classes)
            assert public.getstate() == own.getstate(), seed

    @pytest.mark.parametrize("order", DRAW_ORDERS)
    def test_randbelow_draws_equal_the_public_calls(self, order):
        for seed in range(300):
            public, own = random.Random(seed), random.Random(seed)
            below = own._randbelow
            for k in (1, 2, 3, 4, 6):
                assert public.choice(range(order)) == below(order)
                assert public.randrange(order) == below(order)
                assert public.randint(0, k) == below(k + 1)
                assert public.randint(1, k + 1) == 1 + below(k + 1)
                assert public.choice(verify._COEFFICIENTS) == verify._COEFFICIENTS[below(6)]
            assert public.getstate() == own.getstate(), seed

    @pytest.mark.parametrize("order", DRAW_ORDERS)
    def test_raw_elements_are_the_public_draws(self, order):
        # Three elements a seed from one set of streams, as confluence draws them.
        group = AbstractGroup((order,))
        for seed in range(300):
            public, own = random.Random(seed), random.Random(seed)
            streams = verify._raw_streams(group, own)
            for _ in range(3):
                expected: dict = {}
                for _ in range(public.randint(1, 4)):
                    i = public.randrange(order)
                    expected[i] = expected.get(i, 0) + public.choice([-3, -2, -1, 1, 2, 3])
                expected = {i: k for i, k in expected.items() if k}
                assert verify._random_raw_element(*streams) == expected, seed
            assert public.getstate() == own.getstate(), seed

    @pytest.mark.parametrize("order", [1, 2, 5, 30])
    def test_sum_trials_are_the_public_draws(self, monkeypatch, order):
        # The trials of sum-cancellation, read off the sums they build.
        card_max, trials = 3, 40
        for seed in range(20):
            public = random.Random(seed)
            expected = []
            for _ in range(trials):
                x = [public.choice(range(order)) for _ in range(public.randint(0, card_max))]
                y = [public.choice(range(order)) for _ in range(len(x))]
                n = [public.choice(range(order)) for _ in range(public.randint(0, card_max))]
                expected += [x, y, n]
            built = []
            _sum_of = verify._sum_of
            with monkeypatch.context() as mp:
                mp.setattr(verify, "_states", lambda group, sizes: [])
                mp.setattr(verify, "_sum_of", lambda group, s: built.append(list(s)) or _sum_of(group, s))
                assert verify._sum_witness(AbstractGroup((order,)), card_max, trials, seed) is None
            assert built == expected, seed


HANGING_CALLS = {
    "relation-equivalence": ["--group", "10,10", "--m-max", "4"],
    # A split table of 10^12 candidates, priced before it is built.
    "relation-equivalence-z1000000": ["--group", "1000000", "--m-max", "1"],
    "sum-cancellation": ["--group", "10,10", "--card-max", "4"],
    "tensor-cancellation": ["--group", "10,10", "--card-max", "5"],
    "quadric-product-matching": ["--d-max", "6", "--m", "5"],
    # 100,000 states over two primes, each walked twice per 2-torsion class.
    "tensor-cancellation-z100000": ["--group", "100000", "--card-max", "1"],
    # Few states over the trivial group, but each weighs its 1,000 classes.
    "tensor-cancellation-size-1000": ["--group", "1", "--card-max", "1000"],
    # 766,480 families, each keyed by 2^6 counts.
    "quadric-product-matching-d6-m4": ["--d-max", "6", "--m", "4"],
    # Counts up to 6209^5, past a 64-bit key.
    "quadric-product-matching-n6209": ["--d-max", "2", "--m", "5", "--n", "6209"],
    # 100,000 trials of 5 sums over two primes, and of 900 units.
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
        # Each call priced by hand from its suite's formula, one per suite and
        # weight: a call at exactly WORK_LIMIT runs, one unit less refuses it.
        # A sum of up to L classes and its signature weighs max(nu, 1) (25 + L).
        v2, z6, z2, z1 = AbstractGroup((2, 2)), G6, AbstractGroup((2,)), AbstractGroup((1,))
        priced = [
            # The split table scans 4 classes for d(2) = 2 orders and adds no
            # pair; 4 states of size 1, then the 16 differences and 10 states
            # of size 2, each pair of which has no split over (Z/2)^2.
            (4 * 2 + 4 * (26 + 50) + 15 * 16 + 10 * (27 + 50 + 2 * 2),
             lambda: verify_relation_equivalence(v2, 2)),
            # nu = 2 over Z/6: d(6) = 4 orders, p-parts in 2 tables of 1 factor
            # (2 x 22 a class), 4 coprime pairs of 20; then 2 (25 + m) per
            # sum, and up to 2 splits per pair.
            (6 * (4 + 2 * 22) + 4 * 20 + 6 * (52 + 50)
             + 15 * 36 + 21 * (54 + 50 + 2 * (2 + 2 * (6 + 2))),
             lambda: verify_relation_equivalence(z6, 2)),
            # S = 1 + 2 states of size <= 1: S + S^2 sums of up to 2 classes.
            (12 * 27, lambda: verify_sum_cancellation(z2, card_max=1, trials=0)),
            (56 * 2 * 27, lambda: verify_sum_cancellation(z6, card_max=1, trials=0)),
            (240 * 29, lambda: verify_sum_cancellation(v2, card_max=2, trials=0)),
            (6 * 27, lambda: verify_sum_cancellation(z1, card_max=1, trials=0)),
            # 5 sums per trial.
            ((12 + 5 * 10) * 27, lambda: verify_sum_cancellation(z2, card_max=1, trials=10)),
            # 4 states, at n and at n = 4 for each of 4 2-torsion classes.
            (32 * (26 + 27 + 48), lambda: verify_tensor_cancellation(v2, 6, card_max=1)),
            (24 * (52 + 54 + 48), lambda: verify_tensor_cancellation(z6, 6, card_max=1)),
            (112 * (27 + 29 + 96), lambda: verify_tensor_cancellation(v2, 6, card_max=2)),
            # C(4 + m - 1, m) families of 8 + 2^m / 2 + 2^2 / 4 units.
            (10 * 11, lambda: verify_quadric_product_matching(2, 2, 6)),
            (20 * 13, lambda: verify_quadric_product_matching(2, 3, 6)),
            # 100 (nu + 1)^2 units a trial.
            (25 * 900, lambda: verify_normal_form_confluence(z6, trials=25)),
            (25 * 400, lambda: verify_normal_form_confluence(z2, trials=25)),
            (10 * 100, lambda: verify_normal_form_confluence(z1, trials=10)),
        ]
        for units, call in priced:
            monkeypatch.setattr(brauer, "WORK_LIMIT", units)
            assert call().passed
            monkeypatch.setattr(brauer, "WORK_LIMIT", units - 1)
            with pytest.raises(ResourceLimitError):
                call()

    @pytest.mark.parametrize(
        "call, accepted",
        [
            # nu = 1 and 31,249 states: 2 x 31,249 x (26 + 27 + 48) units.
            (lambda: verify_tensor_cancellation(AbstractGroup((31249,)), card_max=1), True),
            # Refused by the old per-state limit, but 31,251 = 3 x 11 x 947
            # prices 2 x 31,251 x (78 + 81 + 48) = 12,937,914 units.
            (lambda: verify_tensor_cancellation(AbstractGroup((31251,)), card_max=1), True),
            # Criterion 8's largest tensor call: 164 states x 8 classes x 2.
            (lambda: verify_tensor_cancellation(V3, 5, card_max=3), True),
            (lambda: verify_tensor_cancellation(AbstractGroup((1,)), card_max=200), True),
            # Refused by the old size limit; now priced like any size.
            (lambda: verify_tensor_cancellation(AbstractGroup((1,)), card_max=201), True),
            (lambda: verify_sum_cancellation(AbstractGroup((1,)), card_max=201), False),
            # 376,992 families x 32 = 12,063,744 and 766,480 x 32 units.
            (lambda: verify_quadric_product_matching(5, 5, 6), True),
            (lambda: verify_quadric_product_matching(6, 4, 6), False),
            (lambda: verify_quadric_product_matching(2, 5, 6208), True),
            (lambda: verify_quadric_product_matching(2, 5, 6209), False),
            # The split table is priced by the coprime pairs it adds: none
            # over Z/997 (77,766 units), 996 over Z/998 (169,620 units; the
            # 15 |G|^2 candidates once refused it).
            (lambda: verify_relation_equivalence(AbstractGroup((997,)), 1), True),
            (lambda: verify_relation_equivalence(AbstractGroup((998,)), 1), True),
            # nu = 1 and no pairs: 78 p units, 14,999,946 over Z/192307 and
            # 15,000,726 over the next prime.
            (lambda: verify_relation_equivalence(AbstractGroup((192307,)), 1), True),
            (lambda: verify_relation_equivalence(AbstractGroup((192317,)), 1), False),
            # 126,728 pairs over Z/64000 (14,438,560 units); 551,976 over
            # Z/64010 = 2 x 5 x 37 x 173, whose table alone is 17,696,560.
            (lambda: verify_relation_equivalence(AbstractGroup((64000,)), 1), True),
            (lambda: verify_relation_equivalence(AbstractGroup((64010,)), 1), False),
            # nu: m-max 3 over Z/83 (nu = 1, no splits) is accepted, over
            # Z/60 (nu = 3, up to 6 splits a pair) refused.
            (lambda: verify_relation_equivalence(AbstractGroup((83,)), 3), True),
            (lambda: verify_relation_equivalence(AbstractGroup((60,)), 3), False),
            # Multiset size: m (m - 1) pairs a state, over Z/2.
            (lambda: verify_relation_equivalence(AbstractGroup((2,)), 73), True),
            (lambda: verify_relation_equivalence(AbstractGroup((2,)), 74), False),
            # nu: 744^2 pairs of weight 27 over Z/743, 531^2 of 3 x 27 over Z/530.
            (lambda: verify_sum_cancellation(AbstractGroup((743,)), card_max=1, trials=0), True),
            (lambda: verify_sum_cancellation(AbstractGroup((530,)), card_max=1, trials=0), False),
            # Multiset size over the trivial group: (c + 1) (c + 2) (25 + 2c).
            (lambda: verify_sum_cancellation(AbstractGroup((1,)), card_max=190, trials=0), True),
            (lambda: verify_sum_cancellation(AbstractGroup((1,)), card_max=191, trials=0), False),
            # Trials: (12 + 5 t) x 27 units over Z/2.
            (lambda: verify_sum_cancellation(AbstractGroup((2,)), card_max=1, trials=111108), True),
            (lambda: verify_sum_cancellation(AbstractGroup((2,)), card_max=1, trials=111109), False),
            # nu: 2 x 74,257 x 101 units over Z/74257, 2 x 40,983 x 207 over
            # Z/40983 = 3 x 19 x 719.
            (lambda: verify_tensor_cancellation(AbstractGroup((74257,)), card_max=1), True),
            (lambda: verify_tensor_cancellation(AbstractGroup((40983,)), card_max=1), False),
            # Multiset size over the trivial group: 2c (50 + 51c).
            (lambda: verify_tensor_cancellation(AbstractGroup((1,)), card_max=382), True),
            (lambda: verify_tensor_cancellation(AbstractGroup((1,)), card_max=383), False),
            # nu: 1,000 trials over the primorials of 31 (nu = 11) and 37.
            (lambda: verify_normal_form_confluence(AbstractGroup((200560490130,))), True),
            (lambda: verify_normal_form_confluence(AbstractGroup((7420738134810,))), False),
            # Trials: 900 units each over Z/10^9.
            (lambda: verify_normal_form_confluence(AbstractGroup((10**9,)), trials=16666), True),
            (lambda: verify_normal_form_confluence(AbstractGroup((10**9,)), trials=16667), False),
        ],
        ids=["tensor-z31249", "tensor-z31251", "tensor-criterion-8", "tensor-size-200",
             "tensor-size-201", "sum-size-201", "matching-d5-m5", "matching-d6-m4",
             "matching-n6208", "matching-n6209", "relation-z997", "relation-z998",
             "relation-z192307", "relation-z192317", "relation-z64000", "relation-z64010",
             "relation-nu1-m3", "relation-nu3-m3", "relation-size-73", "relation-size-74",
             "sum-nu1", "sum-nu3", "sum-size-190", "sum-size-191", "sum-trials-111108",
             "sum-trials-111109", "tensor-nu1", "tensor-nu3", "tensor-size-382",
             "tensor-size-383", "confluence-nu11", "confluence-nu12",
             "confluence-trials-16666", "confluence-trials-16667"],
    )
    def test_each_side_of_the_fixed_limits(self, monkeypatch, call, accepted):
        # The enumeration is stubbed out: only the price before it is tested.
        for name in ("_relation_witness", "_sum_witness", "_tensor_witness",
                     "_matching_witness", "_confluence_witness"):
            monkeypatch.setattr(verify, name, lambda *args: None)
        if accepted:
            assert call().passed
        else:
            with pytest.raises(ResourceLimitError):
                call()


def _states(group, sizes):
    return sum(math.comb(group.order + m - 1, m) for m in sizes)


def _counted(monkeypatch, name):
    """Wrap ``verify.<name>`` and return the list of (args, result) of its calls."""
    calls = []
    real = getattr(verify, name)

    def counting(*args):
        out = real(*args)
        calls.append((args, out))
        return out

    monkeypatch.setattr(verify, name, counting)
    return calls


class TestPricedCounts:
    """Each formula's count term is the number of operations the run performs."""

    @pytest.mark.parametrize("orders, m_max", [((1,), 4), ((6,), 3), ((2, 2), 3), ((12,), 2), ((30,), 2)])
    def test_relation_equivalence(self, monkeypatch, orders, m_max):
        group = AbstractGroup(orders)
        tables, sums, rewrites = (_counted(monkeypatch, name)
                                  for name in ("_coprime_splits", "_sum_of", "_rewrites"))
        assert verify_relation_equivalence(group, m_max).passed
        # One table for every difference, from at most |G|^2 coprime pairs.
        assert len(tables) == 1
        assert len(sums) == len(rewrites) == _states(group, range(1, m_max + 1))
        splits = max(2 ** len(group.primes()) - 2, 0)
        for (_, _, state), out in rewrites:
            m = len(state)
            assert len(out) <= m * (m - 1) * splits

    @pytest.mark.parametrize("orders", [(1,), (6,), (2, 2), (12,), (2, 3, 5), (4, 9)])
    def test_split_table_lists_each_difference_by_ascending_part(self, orders):
        group = AbstractGroup(orders)
        add, neg, order = group.add_keys, group.neg_keys, group.key_order
        splits = verify._coprime_splits(group)
        for delta in range(group.order):
            scan = [(a, add(delta, neg[a])) for a in range(1, group.order)]
            assert splits[delta] == [(a, b) for a, b in scan if b and math.gcd(order[a], order[b]) == 1]

    @pytest.mark.parametrize("orders", [(12,), (2, 6), (30,), (60,), (8,), (2, 4), (997,), (998,),
                                        (2, 2, 3, 3), (1,), (2, 3, 5, 7)])
    def test_coprime_pairs_closed_form(self, orders):
        # prod_p (2 |G_p| - 1) - 2 |G| + 1 against the table's own count.
        group = AbstractGroup(orders)
        assert verify._coprime_pairs(group) == sum(map(len, verify._coprime_splits(group)))

    @pytest.mark.parametrize("orders, card_max, trials",
                             [((1,), 1, 0), ((2,), 2, 5), ((6,), 1, 10), ((2, 2), 2, 3), ((5,), 2, 7)])
    def test_sum_cancellation(self, monkeypatch, orders, card_max, trials):
        group = AbstractGroup(orders)
        sums, direct = _counted(monkeypatch, "_sum_of"), _counted(monkeypatch, "direct_sum")
        assert verify_sum_cancellation(group, card_max=card_max, trials=trials).passed
        s = _states(group, range(card_max + 1))
        assert len(sums) + len(direct) == s + s * s + 5 * trials
        assert max(len(state) for (_, state), _ in sums) <= 2 * card_max
        assert all(out.rank <= 2 * card_max for _, out in direct)

    @pytest.mark.parametrize("trials", [0, 15])
    def test_sum_cancellation_signs_every_sum(self, monkeypatch, trials):
        # No signature is memoised or batched: S state sums, S^2 pair sums and
        # four per trial (x, y and both direct sums), S = 1 + 6 + 21 over Z/6.
        calls = []
        real = MotiveSum.signature

        def counting(self):
            calls.append(None)
            return real(self)

        monkeypatch.setattr(MotiveSum, "signature", counting)
        assert verify_sum_cancellation(AbstractGroup((6,)), card_max=2, trials=trials).passed
        s = 28
        assert len(calls) == s + s * s + 4 * trials

    @pytest.mark.parametrize("orders, n_dim, card_max", [((3,), 6, 2), ((5,), 5, 1), ((2, 2), 6, 2), ((6,), 5, 1)])
    def test_tensor_cancellation(self, monkeypatch, orders, n_dim, card_max):
        group = AbstractGroup(orders)
        sums = _counted(monkeypatch, "_sum_of")
        walks = []
        real_walk = verify._tensor_witness

        def walk(*args):
            before = len(sums)
            found = real_walk(*args)
            walks.append((len(sums) - before, found))
            return found

        monkeypatch.setattr(verify, "_tensor_witness", walk)
        assert verify_tensor_cancellation(group, n_dim, card_max=card_max).passed
        # Priced: 2 x (2-torsion classes) x S; a walk stops early only at a witness.
        steps = sum(1 for i in range(group.order) if group.key_order[i] <= 2) * _states(
            group, range(1, card_max + 1))
        assert len(walks) == 2
        for count, found in walks:
            assert count == steps if found is None else count <= steps
        assert max(len(state) for (_, state), _ in sums) <= card_max

    @pytest.mark.parametrize("d_max, m", [(0, 1), (2, 2), (3, 3), (1, 5)])
    def test_quadric_product_matching(self, d_max, m):
        run = verify_quadric_product_matching(d_max, m, 6)
        assert run.details["families"] == math.comb((1 << d_max) + m - 1, m)

    @pytest.mark.parametrize("orders, trials", [((1,), 5), ((6,), 20), ((210,), 10)])
    def test_normal_form_confluence(self, monkeypatch, orders, trials):
        drawn = _counted(monkeypatch, "_random_raw_element")
        assert verify_normal_form_confluence(AbstractGroup(orders), trials=trials).passed
        assert len(drawn) == trials
