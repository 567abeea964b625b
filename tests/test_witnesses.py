"""Byte-pinned counterexample witnesses of the verify suites.

The suites pass on every shipped configuration, so their counterexample
branches never run there.  Each test here breaks the invariant a suite checks
(the isomorphism signature, the isomorphism test or the normal form) and pins
the exact JSON of the witness the suite then reports, so a change in how
witness states are ordered or printed shows up as a byte difference.
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


def _iso_by_length_then_counts(x, y):
    return x.counts == y.counts if len(x) + len(y) >= 4 else len(x) == len(y)


class _Unrewritten:
    """A normal form that rewrites nothing."""

    def __init__(self, group, terms):
        self.terms = terms


def _dump(run) -> str:
    return json.dumps({"outcome": run.outcome, "witness": run.witness}, sort_keys=True)


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
def test_relation_equivalence_witness(monkeypatch, signature, expected):
    monkeypatch.setattr(MotiveSum, "signature", signature)
    assert _dump(verify.verify_relation_equivalence(G, 2)) == expected


def test_sum_cancellation_exhaustive_witness(monkeypatch):
    monkeypatch.setattr(MotiveSum, "signature", _true_below_three)
    run = verify.verify_sum_cancellation(G, card_max=2, trials=0, seed=3)
    assert _dump(run) == (
        '{"outcome": "counterexample", "witness": {"n": [[0, 0]], '
        '"x": [[0, 0], [0, 0]], "y": [[0, 0], [0, 1]]}}'
    )


def test_sum_cancellation_random_witness(monkeypatch):
    monkeypatch.setattr(verify, "is_isomorphic", _iso_by_length_then_counts)
    run = verify.verify_sum_cancellation(G, card_max=2, trials=50, seed=3)
    assert _dump(run) == (
        '{"outcome": "counterexample", "witness": {"n": [[0, 1], [1, 3]], '
        '"x": [[1, 3]], "y": [[1, 1]]}}'
    )


def test_tensor_cancellation_witness(monkeypatch):
    monkeypatch.setattr(MotiveSum, "signature", _true_below_three)
    run = verify.verify_tensor_cancellation(G, 5, card_max=2)
    assert _dump(run) == (
        '{"outcome": "counterexample", "witness": {"c": [0, 0], "n_dim": 5, '
        '"x": [[0, 0]], "y": [[0, 1]]}}'
    )


def test_normal_form_confluence_witness(monkeypatch):
    monkeypatch.setattr(verify, "RingElement", _Unrewritten)
    run = verify.verify_normal_form_confluence(G, trials=20, seed=4)
    assert _dump(run) == (
        '{"outcome": "counterexample", "witness": {'
        '"expected": [[[0, 4], -3], [[1, 5], 1]], '
        '"reached": [[[0, 0], -1], [[0, 2], 1], [[0, 4], -3], [[1, 3], 1]], '
        '"start": [[[0, 4], -3], [[1, 5], 1]], "trial": 0}}'
    )
