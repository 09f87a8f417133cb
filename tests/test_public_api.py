"""The public names of the ``twisthom`` package, pinned.

An export added or removed changes this list, so it shows up in review.
"""

import types

import twisthom

PUBLIC = [
    "AcyclicityCertificate", "BlockComplex", "Boundary", "BoundaryError", "CatalogEntry",
    "Cyclo", "EquivariantComplex", "FreeRankObstruction", "GradingError",
    "GroupMismatchError", "GroupPresentation", "GroupRingElt", "HomologyReport",
    "Laurent", "Matrix", "PermAction", "SplitData", "TorsionData", "UnitaryRep",
    "Word", "abelianization", "alexander_data", "catalog_complex",
    "catalog_entry_from_string", "character_from_grading", "circle_product",
    "coinvariants_h0", "connected_sum_dims", "cover_complex",
    "cyclotomic_polynomial", "euler_phi", "evaluate_word", "explicit_rep",
    "fast_rank", "fixed_point_free_check", "fox_derivative", "free_product",
    "free_reduce", "homology_dims", "induce_rep", "invariant_coinvariant_split",
    "laurent_specialize", "make_acyclic_fibered", "permutation_rep",
    "presentation_complex", "quaternion_left_rep", "reidemeister_schreier",
    "select_root_of_unity", "shapiro_compare", "smith_normal_form_int",
    "specialize", "subquotient_dims", "torsion_characters", "torsion_invariants",
    "transitive_actions", "transitive_actions_up_to", "trivial_rep",
    "twisted_homology", "uct_dims", "validate_complex", "verify_grading",
    "verify_rep", "word_from_ints", "word_to_ints",
]


def test_public_names_are_pinned():
    """Submodules are left out: which of them are attributes of the package
    depends on what has been imported before."""
    names = sorted(n for n, v in vars(twisthom).items()
                   if not n.startswith("_") and not isinstance(v, types.ModuleType))
    assert names == PUBLIC
