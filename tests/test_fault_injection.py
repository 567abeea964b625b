"""Which brute-force suite reports which injected fault in the shared layers.

Each row names one small, plausible fault, installed with ``monkeypatch``,
and the exact set of ``verify`` suites that must answer "counterexample"
with it in place; every other suite must still pass.  A row whose set is
empty records a fault no suite sees: a finding about the suites' reach, kept
so that a change in it shows.  The grids are small so the file costs well
under a second.
"""

import inspect
import textwrap

import pytest

from titsmeasure import brauer, measure_ring, motives, verify
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

_normal_form = motives.normal_form
_merge = motives.merge
_crt = brauer._crt_p_component
_matching_keys = verify._matching_keys


def _without_identity(group, merged):
    return tuple(pair for pair in _normal_form(group, merged) if pair[0] != group.identity_key)


def _largest_prime_only(mp):
    # Only the p-parts of the largest prime of the run's orders are kept, and
    # the identity takes the rest of the rank: that prime's p-part multiset
    # alone, coded as a normal form.
    def normal_form(group, merged):
        primes, identity = group.key_primes, group.identity_key
        form = _normal_form(group, merged)
        top = max((primes[kc][-1] for kc, _ in form if kc != identity), default=None)
        kept = [(kc, k) for kc, k in form if kc != identity and primes[kc][-1] == top]
        rank = sum(k for _, k in merged)
        return _merge(kept + [(identity, rank - sum(k for _, k in kept))])
    mp.setattr(motives, "normal_form", normal_form)


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


def _fold_by_previous_pair(mp):
    # The short fold compares each pair with the pair before it in the sorted
    # run, not with the last kept entry: once a key's partial sum reaches
    # zero and its entry is dropped, the key's next pair folds into the entry
    # before it, an unrelated key.  The sort puts a key's negative pairs
    # first, so that takes a key whose negative pairs cancel against some of
    # its positive ones, with more positive pairs after.  Sums and tensors
    # add non-negative multiplicities; only ring elements with signed
    # coefficients can hold such a key.
    merge = _compiled_with(mp, motives, _merge,
                           ("for pair in run:", "for prev, pair in zip([None, *run], run):"),
                           ("if out and out[-1][0] == pair[0]:", "if out and prev[0] == pair[0]:"))
    assert merge([(0, 1), (1, 2), (1, -2), (1, 5)]) == ((1, 6),)  # not ((0, 1), (1, 5))
    mp.setattr(measure_ring, "merge", merge)


def _normal_form_drops_identity(mp):
    # Only RingElement reads normal_form through measure_ring.
    mp.setattr(measure_ring, "normal_form", _without_identity)


def _compiled_with(mp, module, function, *edits):
    # ``function`` of ``module`` compiled from its own source with each
    # (line, faulty) edit made; each line must occur exactly once, so a
    # rewrite of the function shows here.
    source = textwrap.dedent(inspect.getsource(function))
    for line, faulty in edits:
        assert source.count(line) == 1, line
        source = source.replace(line, faulty)
    scope = dict(vars(module))
    exec(source, scope)
    mp.setattr(module, function.__name__, scope[function.__name__])
    return scope[function.__name__]


def _three_parts_zero(mp):
    mp.setattr(brauer, "_crt_p_component", lambda c, n, p: 0 if p == 3 else _crt(c, n, p))


def _crt_unit_mod_p(mp):
    # The p-part's unit is inverted mod p, not mod p^a: over Z/12 the 2-part
    # of c becomes 3c, the negation of the true 9c, while the 3-parts stay.
    _compiled_with(mp, brauer, _crt, ("pow(m, -1, pa)", "pow(m, -1, p)"))


def _every_group_primary(mp):
    # Every abstract group reads as a p-group, so no key is split into its
    # p-parts: a signature is the sum's own key counts and a normal form its
    # merged run.  Both readers of the flag, MotiveSum.signature and
    # normal_form, see the fault.
    mp.setattr(AbstractGroup, "p_group", True)


def _rank_dropped(mp):
    # The signature's normal form without its identity term, which carries
    # the rank.
    mp.setattr(motives, "normal_form", _without_identity)


def _matching_at_dimension_2(mp):
    # The walk at form dimension 2 (q = 0): only the whole family's subset
    # keeps a summand, so a key holds the sum of all m classes and no other.
    mp.setattr(verify, "_matching_keys", lambda d_max, m, n_dim: _matching_keys(d_max, m, 2))


def _matching_walk_with(mp, line, faulty):
    _compiled_with(mp, verify, _matching_keys, (line, faulty))


def _matching_swap_half_width(mp):
    # The block swap for bit b >= 1 shifts by 2^(b - 1) slots, not 2^b: the
    # blocks it moves land on the ones it keeps, and their counts add up.
    _matching_walk_with(mp, "width, mask = slot * low,", "width, mask = slot * max(low >> 1, 1),")


def _matching_classes_strictly_rise(mp):
    # The next position starts one past the prefix's last class, so no
    # family repeats a class: over (Z/2)^2 with m = 2 the walk keys 6 of the
    # 10 families, each rightly and apart.  The family count differs from
    # the reference kernel's on 48 of the 64 grids with d_max <= 3, m <= 4
    # and n_dim 5 to 8.
    _matching_walk_with(mp, "walk(family + (e,), e, counts)", "walk(family + (e,), e + 1, counts)")


def _matching_images_shared(mp):
    # One image list serves the whole walk, filled from the empty prefix's
    # counts, so each class adds a unit count at itself where it should add
    # the prefix's counts moved by it.  Every key of two or more classes
    # changes, yet the keys stay apart wherever the true ones do: the family
    # counts match the reference kernel's on all 64 grids with d_max <= 3,
    # m <= 4 and n_dim 5 to 8.
    _matching_walk_with(mp, "images = [acc] + [None] * (size - 1)",
                        "images = walk.__dict__.setdefault('images', [acc] + [None] * (size - 1))")


# (fault, the suites that must report it).  quadric-product-matching keys its
# families by XOR convolution of its own and reads none of the class layers,
# so only a fault in its own walk reaches it, and only when two keys meet: a
# walk that skips families or keys them wrongly but apart passes.  The walk's
# own tests check every key and the family order.  A fault that maps each key
# of a merged run on its own is additive, so the cancellation suites cannot
# see it.
CATALOG = [
    (_largest_prime_only, {"relation-equivalence", "sum-cancellation"}),
    # The signature's normal form merges through the fault too: {[1], [1]}
    # and {[1], [4]} over Z/12 both sign as [0] + [4] + [9].
    (_multiplicities_dropped,
     {"relation-equivalence", "sum-cancellation", "tensor-cancellation", "normal-form-confluence"}),
    # Only direct_sum merges onto a run, and only sum-cancellation adds sums.
    (_into_overwritten, {"sum-cancellation"}),
    (_normal_form_drops_identity, {"normal-form-confluence"}),
    # At these grids no suite merges a run the faulty fold gets wrong.
    # Confluence reports it over Z/6 with 200 or 1,000 trials (criterion 10,
    # TestConfluence), and the merge and normal-form tests catch it.
    (_fold_by_previous_pair, set()),
    # Zero 3-parts map each key on its own: only the suites that compare with
    # rewriting see it.
    (_three_parts_zero, {"relation-equivalence", "normal-form-confluence"}),
    # Negated 2-parts also map each key on its own, and break x = sum of
    # its p-parts: the same two suites see it.
    (_crt_unit_mod_p, {"relation-equivalence", "normal-form-confluence"}),
    # Unsplit keys keep sums of one multiset apart, which cancels and
    # tensors as well as a normal form does: only the suites that compare
    # with rewriting see it.
    (_every_group_primary, {"relation-equivalence", "normal-form-confluence"}),
    # The identity term carries the rank: {[6]} and {[0], [0]} over Z/12 sign
    # apart, yet their products with the dimension-6 quadric of [6] sign alike.
    (_rank_dropped, {"tensor-cancellation"}),
    # Over (Z/2)^2 with m = 2, the families {0, 0} and {1, 1} both sum to 0.
    (_matching_at_dimension_2, {"quadric-product-matching"}),
    (_matching_swap_half_width, {"quadric-product-matching"}),
    # Faults that keep the keys apart, however wrong or few, are out of the
    # suite's reach.
    (_matching_classes_strictly_rise, set()),
    (_matching_images_shared, set()),
]


def test_every_suite_passes_without_a_fault():
    assert [name for name, run in SUITES.items() if not run().passed] == []


@pytest.mark.parametrize("fault, reporters", CATALOG, ids=[f.__name__.strip("_") for f, _ in CATALOG])
def test_fault_is_reported_by_exactly_its_suites(monkeypatch, fault, reporters):
    fault(monkeypatch)
    assert {name for name, run in SUITES.items() if not run().passed} == reporters
