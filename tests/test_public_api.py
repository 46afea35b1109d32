"""The names rsperm exports; the test-only checks live in conftest instead."""

import pytest

import rsperm
from rsperm import LinearCode, codes, permgroup

PUBLIC = sorted(
    "AffineMap EvaluationSet Field FieldElement FieldMismatchError GroupReport"
    " LinearCode NEG_INF NotAPermutationError Permutation Polynomial TheoremReport"
    " affine_group affine_str brute_force_perm_group check_theorem compose_mod"
    " exhaustive_permutations perm_to_poly permutes poly_to_perm rref rs_code"
    " rs_dual_multiplier".split()
)
REMOVED = (
    "group_closure_check homomorphism_check degree_profile DegreeBoundError"
    " codewords min_distance ENUMERATION_CAP".split()
)


def test_all_lists_exactly_the_public_names():
    assert len(PUBLIC) == 24 and sorted(rsperm.__all__) == PUBLIC
    for name in PUBLIC:
        getattr(rsperm, name)


@pytest.mark.parametrize("owner", [rsperm, permgroup, codes, LinearCode])
def test_test_only_checks_are_not_shipped(owner):
    assert [name for name in REMOVED if hasattr(owner, name)] == []
