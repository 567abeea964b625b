"""Byte-pinned counterexample witnesses of the verify suites.

The suites pass on every shipped configuration, so their counterexample
branches never run there.  Each test here breaks the invariant a suite checks
(the isomorphism signature, the isomorphism test or the normal form) and pins
the exact JSON of the witness the suite then reports, so a change in how
witness states are ordered or printed shows up as a byte difference.  The
whole certificate is pinned too, so its params and details stay as they are.
"""

import json

import pytest

import titsmeasure.verify as verify
from titsmeasure.brauer import AbstractGroup
from titsmeasure.motives import MotiveSum

G = AbstractGroup((2, 6))
TRUE_SIGNATURE = MotiveSum.signature


def _coarse(self):
    return (len(self),)


def _by_counts(self):
    return (len(self), self.counts)


def _true_below_three(self):
    return TRUE_SIGNATURE(self) if len(self) <= 2 else (len(self),)


def _apart_at_234(self):
    return (TRUE_SIGNATURE(self), self.key_counts == ((2, 1), (3, 1), (4, 1)))


def _iso_by_length_then_counts(x, y):
    return x.counts == y.counts if len(x) + len(y) >= 4 else len(x) == len(y)


class _Unrewritten:
    """A normal form that rewrites nothing: the key entry ``verify`` calls."""

    def __init__(self, key_terms):
        self.key_terms = tuple(key_terms)

    @classmethod
    def _of_keys(cls, group, key_terms):
        return cls(key_terms)


def _dump(run) -> str:
    return json.dumps({"outcome": run.outcome, "witness": run.witness}, sort_keys=True)


def _full(run) -> str:
    return json.dumps(run.to_payload(), sort_keys=True)


_G_PARAMS = '"group": {"kind": "abstract", "orders": [2, 6]}'

# The full certificate of each pinned counterexample, details and params included.
CERTIFICATES = {
    "relation-coarse": (
        '{"details": {}, "outcome": "counterexample", '
        '"params": {' + _G_PARAMS + ', "m_max": 2}, "suite": "relation-equivalence", '
        '"version": "0.1.0", "witness": {"m": 1, '
        '"same_signature_not_connected": [[[0, 0]], [[0, 1]]]}}'
    ),
    "relation-by-counts": (
        '{"details": {}, "outcome": "counterexample", '
        '"params": {' + _G_PARAMS + ', "m_max": 2}, "suite": "relation-equivalence", '
        '"version": "0.1.0", "witness": {"connected_but_different_signature": '
        '[[[0, 0], [0, 1]], [[0, 3], [0, 4]]], "m": 2}}'
    ),
    "relation-apart-at-234": (
        '{"details": {}, "outcome": "counterexample", '
        '"params": {"group": {"kind": "abstract", "orders": [6]}, "m_max": 3}, '
        '"suite": "relation-equivalence", "version": "0.1.0", '
        '"witness": {"connected_but_different_signature": '
        '[[[0], [1], [2]], [[2], [3], [4]]], "m": 3}}'
    ),
    "sum-exhaustive": (
        '{"details": {}, "outcome": "counterexample", '
        '"params": {"card_max": 2, ' + _G_PARAMS + ', "seed": 3, "trials": 0}, '
        '"suite": "sum-cancellation", "version": "0.1.0", '
        '"witness": {"n": [[0, 0]], "x": [[0, 0], [0, 0]], "y": [[0, 0], [0, 1]]}}'
    ),
    "sum-random": (
        '{"details": {}, "outcome": "counterexample", '
        '"params": {"card_max": 2, ' + _G_PARAMS + ', "seed": 3, "trials": 50}, '
        '"suite": "sum-cancellation", "version": "0.1.0", '
        '"witness": {"n": [[0, 1], [1, 3]], "x": [[1, 3]], "y": [[1, 1]]}}'
    ),
    "tensor": (
        '{"details": {"n4_probe": {"holds": false, "witness": '
        '{"c": [0, 0], "n_dim": 4, "x": [[0, 0]], "y": [[0, 1]]}}}, '
        '"outcome": "counterexample", '
        '"params": {"card_max": 2, ' + _G_PARAMS + ', "n_dim": 5}, '
        '"suite": "tensor-cancellation", "version": "0.1.0", '
        '"witness": {"c": [0, 0], "n_dim": 5, "x": [[0, 0]], "y": [[0, 1]]}}'
    ),
    "matching": (
        '{"details": {}, "outcome": "counterexample", '
        '"params": {"d_max": 1, "m": 2, "n_dim": 6}, '
        '"suite": "quadric-product-matching", "version": "0.1.0", '
        '"witness": {"family_a": [[0], [1]], "family_b": [[1], [0]]}}'
    ),
    "confluence": (
        '{"details": {}, "outcome": "counterexample", '
        '"params": {' + _G_PARAMS + ', "seed": 4, "trials": 20}, '
        '"suite": "normal-form-confluence", "version": "0.1.0", "witness": {'
        '"expected": [[[0, 4], -3], [[1, 5], 1]], '
        '"reached": [[[0, 0], -1], [[0, 2], 1], [[0, 4], -3], [[1, 3], 1]], '
        '"start": [[[0, 4], -3], [[1, 5], 1]], "trial": 0}}'
    ),
}


@pytest.mark.parametrize(
    "signature, expected",
    [
        (
            _coarse,
            '{"outcome": "counterexample", "witness": {"m": 1, '
            '"same_signature_not_connected": [[[0, 0]], [[0, 1]]]}}',
        ),
        (
            _by_counts,
            '{"outcome": "counterexample", "witness": {"connected_but_different_signature": '
            '[[[0, 0], [0, 1]], [[0, 3], [0, 4]]], "m": 2}}',
        ),
    ],
    ids=["coarse", "by-counts"],
)
def test_relation_equivalence_witness(request, monkeypatch, signature, expected):
    monkeypatch.setattr(MotiveSum, "signature", signature)
    run = verify.verify_relation_equivalence(G, 2)
    assert _dump(run) == expected
    assert _full(run) == CERTIFICATES["relation-" + request.node.callspec.id]


def test_relation_witness_states_differ_in_signature(monkeypatch):
    # Over Z/6 only {2, 3, 4} is told apart from its component, whose first
    # two states {0, 1, 2} and {0, 4, 5} share a signature; the witness pairs
    # the component's first state with the first state of another signature.
    monkeypatch.setattr(MotiveSum, "signature", _apart_at_234)
    run = verify.verify_relation_equivalence(AbstractGroup((6,)), 3)
    assert _dump(run) == (
        '{"outcome": "counterexample", "witness": {"connected_but_different_signature": '
        '[[[0], [1], [2]], [[2], [3], [4]]], "m": 3}}'
    )
    assert _full(run) == CERTIFICATES["relation-apart-at-234"]


def test_sum_cancellation_exhaustive_witness(monkeypatch):
    monkeypatch.setattr(MotiveSum, "signature", _true_below_three)
    run = verify.verify_sum_cancellation(G, card_max=2, trials=0, seed=3)
    assert _dump(run) == (
        '{"outcome": "counterexample", "witness": {"n": [[0, 0]], '
        '"x": [[0, 0], [0, 0]], "y": [[0, 0], [0, 1]]}}'
    )
    assert _full(run) == CERTIFICATES["sum-exhaustive"]


def test_sum_cancellation_random_witness(monkeypatch):
    monkeypatch.setattr(verify, "is_isomorphic", _iso_by_length_then_counts)
    run = verify.verify_sum_cancellation(G, card_max=2, trials=50, seed=3)
    assert _dump(run) == (
        '{"outcome": "counterexample", "witness": {"n": [[0, 1], [1, 3]], '
        '"x": [[1, 3]], "y": [[1, 1]]}}'
    )
    assert _full(run) == CERTIFICATES["sum-random"]


def test_tensor_cancellation_witness(monkeypatch):
    monkeypatch.setattr(MotiveSum, "signature", _true_below_three)
    run = verify.verify_tensor_cancellation(G, 5, card_max=2)
    assert _dump(run) == (
        '{"outcome": "counterexample", "witness": {"c": [0, 0], "n_dim": 5, '
        '"x": [[0, 0]], "y": [[0, 1]]}}'
    )
    assert _full(run) == CERTIFICATES["tensor"]


def test_quadric_product_matching_witness(monkeypatch):
    # Two orders of one family share a key, as two distinct families with
    # one decomposition would.
    monkeypatch.setattr(verify, "_matching_keys", lambda *_: iter([((0, 1), 0), ((1, 0), 0)]))
    run = verify.verify_quadric_product_matching(1, 2, 6)
    assert _dump(run) == (
        '{"outcome": "counterexample", "witness": {"family_a": [[0], [1]], "family_b": [[1], [0]]}}'
    )
    assert _full(run) == CERTIFICATES["matching"]


def test_quadric_product_matching_witness_after_a_duplicate_family(monkeypatch):
    # A repeated family is the same family, not a witness, though it meets
    # its own key again.
    families = [((0, 1), 0), ((0, 1), 0), ((1, 0), 0)]
    monkeypatch.setattr(verify, "_matching_keys", lambda *_: iter(families))
    run = verify.verify_quadric_product_matching(1, 2, 6)
    assert _full(run) == CERTIFICATES["matching"]


def test_normal_form_confluence_witness(monkeypatch):
    monkeypatch.setattr(verify, "RingElement", _Unrewritten)
    run = verify.verify_normal_form_confluence(G, trials=20, seed=4)
    assert _dump(run) == (
        '{"outcome": "counterexample", "witness": {'
        '"expected": [[[0, 4], -3], [[1, 5], 1]], '
        '"reached": [[[0, 0], -1], [[0, 2], 1], [[0, 4], -3], [[1, 3], 1]], '
        '"start": [[[0, 4], -3], [[1, 5], 1]], "trial": 0}}'
    )
    assert _full(run) == CERTIFICATES["confluence"]
