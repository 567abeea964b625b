"""Exact motivic measures of twisted projective homogeneous varieties.

Brauer classes live in finite abstract models or in the rational Brauer
group; varieties carry multisets of classes whose image in the Burnside-style
quotient ring is the measure.  Everything is exact integer and Fraction
arithmetic, so equality verdicts are decisions, not approximations.
"""

import types

from .brauer import (
    CSA,
    RATIONALS,
    AbstractClass,
    AbstractGroup,
    GroupMismatchError,
    RationalClass,
    ResourceLimitError,
    coprime_indexes,
    generated_subgroup,
)
from .measure_ring import RingElement, augmentation, from_motive_sum
from .motives import MotiveSum, direct_sum, is_isomorphic, tensor
from .quadforms import (
    FormShadow,
    QuadraticForm,
    even_clifford_class,
    hasse_invariant,
    signed_discriminant,
)
from .clifford import even_clifford_class_by_structure
from .rationals import distinct_conic_family, hilbert_symbol, quaternion_class
from .sigma import recurrence_violations, sigma, sigma_fraction
from .varieties import (
    Grassmannian,
    Involution,
    Product,
    Quadric,
    SeveriBrauer,
    compare,
    deduce,
    tits_measure,
)
from .verify import (
    verify_normal_form_confluence,
    verify_quadric_product_matching,
    verify_relation_equivalence,
    verify_sum_cancellation,
    verify_tensor_cancellation,
)
from .version import VERSION as __version__

# The public names are exactly the ones imported above.
__all__ = sorted(
    name for name, value in globals().items()
    if not name.startswith("_") and not isinstance(value, types.ModuleType)
) + ["__version__"]
