"""Exact twisted homology of group-equivariant chain complexes.

Computes H_*(C tensor V) for finite free Z[pi]-complexes under unitary
representations with cyclotomic entries, entirely in exact arithmetic, and
implements the constructive acyclification toolkit for 3-manifold complexes:
root-of-unity characters along fibered gradings, induced representations from
finite covers, and character searches over torsion abelianizations.
"""

from .alexander import (AcyclicityCertificate, FreeRankObstruction,
                        GradingError, TorsionData, alexander_data,
                        laurent_specialize, make_acyclic_fibered,
                        select_root_of_unity, torsion_invariants, uct_dims)
from .complexes import (Boundary, CatalogEntry, EquivariantComplex, catalog_complex,
                        catalog_entry_from_string, circle_product,
                        cover_complex, fox_derivative, presentation_complex)
from .groups import (GroupPresentation, GroupRingElt, PermAction, Word,
                     abelianization, free_product, free_reduce,
                     reidemeister_schreier, transitive_actions,
                     transitive_actions_up_to, verify_grading, word_from_ints,
                     word_to_ints)
from .homology import (BlockComplex, BoundaryError, GroupMismatchError,
                       HomologyReport, coinvariants_h0, connected_sum_dims,
                       homology_dims, shapiro_compare, specialize,
                       subquotient_dims, twisted_homology, validate_complex)
from .matrices import Matrix, fast_rank, smith_normal_form_int
from .numbers import Cyclo, Laurent, cyclotomic_polynomial, euler_phi
from .reps import (SplitData, UnitaryRep, character_from_grading, evaluate_word,
                   explicit_rep, fixed_point_free_check, induce_rep,
                   invariant_coinvariant_split, permutation_rep,
                   quaternion_left_rep, torsion_characters, trivial_rep,
                   verify_rep)

__version__ = "0.1.0"
