"""Permutation groups of Reed-Solomon codes over arbitrary evaluation sets."""

from .gf import Field, FieldElement, FieldMismatchError
from .poly import NEG_INF, EvaluationSet, Polynomial, affine_str, compose_mod
from .codes import LinearCode, rref, rs_code, rs_dual_multiplier
from .permgroup import (
    AffineMap,
    GroupReport,
    NotAPermutationError,
    Permutation,
    TheoremReport,
    affine_group,
    brute_force_perm_group,
    check_theorem,
    exhaustive_permutations,
    perm_to_poly,
    permutes,
    poly_to_perm,
)

__version__ = "0.1.0"

__all__ = [
    "AffineMap",
    "EvaluationSet",
    "Field",
    "FieldElement",
    "FieldMismatchError",
    "GroupReport",
    "LinearCode",
    "NEG_INF",
    "NotAPermutationError",
    "Permutation",
    "Polynomial",
    "TheoremReport",
    "affine_group",
    "affine_str",
    "brute_force_perm_group",
    "check_theorem",
    "compose_mod",
    "exhaustive_permutations",
    "perm_to_poly",
    "permutes",
    "poly_to_perm",
    "rref",
    "rs_code",
    "rs_dual_multiplier",
]
