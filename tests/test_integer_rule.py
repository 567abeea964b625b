"""One integer rule for documents, library values and suite arguments.

``brauer.is_int`` accepts an ``int`` that is not a ``bool``.  The JSON
schema already applies it; the library constructors, the ``verify_*``
entry points and ``sigma`` apply the same rule, so ``True`` and ``6.0`` are
refused with one ``ValueError`` line instead of being read as 1 and 6.
"""

from fractions import Fraction

import pytest

from titsmeasure import jsonio
from titsmeasure.brauer import CSA, AbstractGroup, is_int
from titsmeasure.quadforms import FormShadow, QuadraticForm
from titsmeasure.rationals import hilbert_symbol
from titsmeasure.sigma import sigma, sigma_fraction
from titsmeasure.varieties import Grassmannian, Involution
from titsmeasure.verify import (
    verify_normal_form_confluence,
    verify_quadric_product_matching,
    verify_relation_equivalence,
    verify_sum_cancellation,
    verify_tensor_cancellation,
)

Z4 = AbstractGroup((4,))
Z2 = AbstractGroup((2,))


def test_the_rule():
    assert [is_int(v) for v in (0, -3, 2**70, True, False, 1.0, "1", None)] == [
        True, True, True, False, False, False, False, False,
    ]
    assert jsonio.is_int is is_int  # the schema reads the same rule


LIBRARY_VALUES = {
    "csa-degree-bool": lambda: CSA(Z4.identity(), True),
    "csa-degree-float": lambda: CSA(Z4.element([1]), 4.0),
    "grassmannian-d-bool": lambda: Grassmannian(True, CSA(Z4.element([1]), 4)),
    "grassmannian-d-float": lambda: Grassmannian(2.0, CSA(Z4.element([1]), 4)),
    "involution-deg-float": lambda: Involution(6.0, Z4.element([2]), Z4.element([1]), Z4.element([3])),
    "shadow-dim-float": lambda: FormShadow(6.0, Z2.element([1])),
    "class-coords-bool": lambda: Z4.element([True]),
    "class-coords-float": lambda: AbstractGroup((2, 4)).element([0, 1.0]),
    "group-order-bool": lambda: AbstractGroup((True, 2)),
    "group-order-float": lambda: AbstractGroup((2.0,)),
    "oracle-index-float": lambda: AbstractGroup((2, 2), index_oracle=(((1, 1), 4.0),)),
    "form-entry-bool": lambda: QuadraticForm((True, Fraction(-1), Fraction(2))),
    "hilbert-bool": lambda: hilbert_symbol(True, -1, "real"),
}


@pytest.mark.parametrize("build", LIBRARY_VALUES.values(), ids=LIBRARY_VALUES.keys())
def test_library_values_refuse_bool_and_float(build):
    with pytest.raises(ValueError) as info:
        build()
    assert "\n" not in str(info.value)


SUITE_ARGUMENTS = {
    "relation-m-max-bool": lambda: verify_relation_equivalence(Z2, True),
    "sum-card-max-float": lambda: verify_sum_cancellation(Z2, card_max=1.5),
    "sum-trials-bool": lambda: verify_sum_cancellation(Z2, card_max=1, trials=True),
    "tensor-card-max-float": lambda: verify_tensor_cancellation(Z2, card_max=1.0),
    "confluence-trials-float": lambda: verify_normal_form_confluence(Z2, trials=2.0),
    "matching-m-float": lambda: verify_quadric_product_matching(2, 2.0, 6),
    "matching-n-float": lambda: verify_quadric_product_matching(2, 2, 6.0),
    "matching-d-max-float": lambda: verify_quadric_product_matching(2.0, 2, 6),
    "sum-seed-none": lambda: verify_sum_cancellation(Z2, seed=None),
    "sum-seed-bool": lambda: verify_sum_cancellation(Z2, seed=True),
    "sum-seed-float": lambda: verify_sum_cancellation(Z2, seed=1.5),
    "sum-seed-str": lambda: verify_sum_cancellation(Z2, seed="x"),
    "confluence-seed-none": lambda: verify_normal_form_confluence(Z2, seed=None),
    "confluence-seed-bool": lambda: verify_normal_form_confluence(Z2, seed=True),
    "confluence-seed-float": lambda: verify_normal_form_confluence(Z2, seed=1.5),
    "confluence-seed-str": lambda: verify_normal_form_confluence(Z2, seed="x"),
    "sigma-m-bool": lambda: sigma("1even", True, 6, 0),
    "sigma-l-float": lambda: sigma_fraction("1even", 5, 6, 2.0),
}


@pytest.mark.parametrize("call", SUITE_ARGUMENTS.values(), ids=SUITE_ARGUMENTS.keys())
def test_suite_arguments_refuse_bool_and_float(call):
    with pytest.raises(ValueError) as info:
        call()
    assert "\n" not in str(info.value)


def test_integer_arguments_keep_their_messages():
    with pytest.raises(ValueError, match=r"^m_max must be at least 1, got 0$"):
        verify_relation_equivalence(Z2, 0)
    with pytest.raises(ValueError, match=r"^product matching is proved for 1 <= m <= 5, got 6$"):
        verify_quadric_product_matching(2, 6, 6)
    with pytest.raises(ValueError, match=r"^m must be >= 1, got 0$"):
        sigma("1even", 0, 6, 0)
    with pytest.raises(ValueError, match=r"^seed must be an integer, got None$"):
        verify_sum_cancellation(Z2, seed=None)


def test_negative_seeds_stay_valid():
    # A seed is any integer; each run records it and a rerun replays it.
    for run in (verify_sum_cancellation(Z2, card_max=1, trials=5, seed=-3),
                verify_normal_form_confluence(Z2, trials=5, seed=-3)):
        assert run.passed and run.params["seed"] == -3
