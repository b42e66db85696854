"""Sheaves on finite posets: minimal injective resolutions, derived functors,
hypercohomology and discrete microlocal Morse theory, all through poset-labeled
sparse matrices over a prime field."""

from .errors import InputError, OperationNotAllowed, SizeCapExceeded
from .field import GF2, PrimeField
from .poset import (
    LocallyClosedSet,
    MonotoneMap,
    Poset,
    SimplicialComplex,
    mapping_cylinder,
    order_complex,
    skeleton_of_simplex,
    star_subposet,
)
from .matrix import InjectiveComplex, LabeledMatrix, col_op, row_op
from .sheaf import NaturalTransformation, Sheaf, constant_sheaf, hom_dim_injective, injective_hull
from .resolution import (
    cohomology_sheaf_dims,
    is_minimal,
    minimal_resolution_constant,
    minimal_resolution_sheaf,
    order_complex_resolution,
    resolution_step,
    star_complexity,
    star_complexity_bound,
    star_generators,
)
from .derived import (
    ComplexMorphism,
    dualize,
    euler_characteristic,
    hom_space_dims,
    hypercohomology,
    mapping_cone,
    peel,
    proper_pullback,
    proper_pushforward,
    pullback,
    pullback_via_proper_check,
    pushforward,
    same_derived_object,
)
from .morse import (
    MorseAnalysis,
    MorseFunction,
    betti_table,
    compact_support_cohomology,
    critical_elements,
    in_microsupport_shriek,
    in_microsupport_star,
    morse_inequalities,
    multiplicity_oracle,
    supp_shriek,
    supp_star,
    verify_morse_theorem,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
