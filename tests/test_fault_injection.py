"""Which brute-force suite reports which injected fault in the shared layers.

Each row names one small, plausible fault, installed with ``monkeypatch``,
and the exact set of ``verify`` suites that must answer "counterexample"
with it in place; every other suite must still pass.  A row whose set is
empty records a fault no suite sees: a finding about the suites' reach, kept
so that a change in it shows.  The grids are small so the file costs well
under a second.
"""

import pytest

from titsmeasure import brauer, measure_ring, motives
from titsmeasure.brauer import AbstractGroup
from titsmeasure.verify import (
    verify_normal_form_confluence,
    verify_quadric_product_matching,
    verify_relation_equivalence,
    verify_sum_cancellation,
    verify_tensor_cancellation,
)

SUITES = {
    "relation-equivalence": lambda: verify_relation_equivalence(AbstractGroup((12,)), 2),
    "sum-cancellation": lambda: verify_sum_cancellation(AbstractGroup((12,)), card_max=2, trials=20),
    "tensor-cancellation": lambda: verify_tensor_cancellation(AbstractGroup((12,)), card_max=2),
    "quadric-product-matching": lambda: verify_quadric_product_matching(2, 2, 6),
    "normal-form-confluence": lambda: verify_normal_form_confluence(AbstractGroup((12,)), 30),
}

_signature = motives.MotiveSum.signature
_merge = motives.merge
_crt = brauer._crt_p_component


def _largest_prime_only(mp):
    mp.setattr(motives.MotiveSum, "signature",
               lambda self: (lambda rank, parts: (rank, parts[-1:]))(*_signature(self)))


def _multiplicities_dropped(mp):
    def merge(pairs, into=()):
        return tuple((kc, 1) for kc, _ in _merge(pairs, into))
    mp.setattr(motives, "merge", merge)
    mp.setattr(measure_ring, "merge", merge)


def _into_overwritten(mp):
    # A dict.update shortcut: the merged pairs replace the counts of the run
    # they are merged onto instead of adding to them.
    def merge(pairs, into=()):
        return tuple(sorted({**dict(into), **dict(_merge(pairs))}.items()))
    mp.setattr(motives, "merge", merge)


def _normal_form_drops_identity(mp):
    # Only the ring normal form merges through measure_ring.merge.
    mp.setattr(measure_ring, "merge", lambda pairs: tuple(p for p in _merge(pairs) if p[0] != 0))


def _three_parts_zero(mp):
    mp.setattr(brauer, "_crt_p_component", lambda c, n, p: 0 if p == 3 else _crt(c, n, p))


def _rank_dropped(mp):
    mp.setattr(motives.MotiveSum, "signature", lambda self: _signature(self)[1])


# (fault, the suites that must report it).  quadric-product-matching keys its
# families by XOR convolution of its own and reads none of these layers, so it
# reports no fault here.
CATALOG = [
    (_largest_prime_only, {"relation-equivalence", "sum-cancellation"}),
    (_multiplicities_dropped,
     {"sum-cancellation", "tensor-cancellation", "normal-form-confluence"}),
    # Only direct_sum merges onto a run, and only sum-cancellation adds sums.
    (_into_overwritten, {"sum-cancellation"}),
    (_normal_form_drops_identity, {"normal-form-confluence"}),
    (_three_parts_zero,
     {"relation-equivalence", "sum-cancellation", "tensor-cancellation", "normal-form-confluence"}),
    # Without its rank the signature only merges sums that differ by identity
    # summands, and every checked statement still holds for that coarser
    # invariant: no suite sees this fault (tier-1 does, through
    # test_group_tables.py::test_signature_matches_list_algorithm).
    (_rank_dropped, set()),
]


def test_every_suite_passes_without_a_fault():
    assert [name for name, run in SUITES.items() if not run().passed] == []


@pytest.mark.parametrize("fault, reporters", CATALOG, ids=[f.__name__.strip("_") for f, _ in CATALOG])
def test_fault_is_reported_by_exactly_its_suites(monkeypatch, fault, reporters):
    fault(monkeypatch)
    assert {name for name, run in SUITES.items() if not run().passed} == reporters
