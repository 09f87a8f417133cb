"""Mutation probes: each row breaks one library function by a monkeypatch
and names the fast checks that must fail under it.

Every check must also pass unpatched, so none of them is vacuous.  A check
fails by an assertion (``pytest.raises`` included) or, where the row says
so, by the error a guard raises.  A check that takes pytest fixtures gets
them by name.

A row whose attribute is ``__code__`` edits the source of one function
(``_edited``) and swaps in the compiled result, so every caller sees the
mutant, whatever name it imported the function under.

Equivalent mutants, listed here because no check can kill them:

- rounding the integer quotient in ``matrices._divide`` instead of refusing
  an inexact one.  ``_pseudo_quotient`` pre-scales by a power of the lead of
  the divisor, which makes every step of its division exact, and in
  ``_divides`` the remainder a - q b is zero exactly when b divides a,
  whatever q is.
"""

import __future__
import functools
import inspect
import textwrap

import numpy as np
import pytest

import test_alexander
import test_certified_rank
import test_cli
import test_complexes
import test_groups
import test_homology
import test_matrices
import test_reps
import test_suites
import test_torsion_reference
from twisthom import alexander, complexes, groups, homology, matrices, reps

ASSERTED = (AssertionError, pytest.fail.Exception)


def _edited(func, old, new):
    """The code of ``func`` with the one occurrence of ``old`` in its source
    replaced by ``new``, compiled at the same file and line numbers."""
    lines, first = inspect.getsourcelines(func)
    source = textwrap.dedent("".join(lines))
    assert source.count(old) == 1, (func.__qualname__, old)
    code = compile("\n" * (first - 1) + source.replace(old, new),
                   inspect.getsourcefile(func), "exec",
                   flags=__future__.annotations.compiler_flag, dont_inherit=True)
    namespace = dict(func.__globals__)
    exec(code, namespace)
    return namespace[func.__name__].__code__
_SUBSPACE_RANKS = homology._subspace_ranks
_WALK = groups.SchreierData.walk


def _one_short(b, basis):
    """Every rank of d_V (I tensor B) one short, as far as it goes."""
    return [max(r - 1, 0) for r in _SUBSPACE_RANKS(b, basis)]


def _fixed_point_free_matches_reference_capped(fixed_point_battery):
    """test_fixed_point_free_matches_reference with every element cap at most
    100.  Each finite image of the battery has at most 12 elements, so the
    answers stay; a closure that never ends stops after 100 elements instead
    of 10 000 (5 s)."""
    test_reps.test_fixed_point_free_matches_reference(
        [(label, rep, min(cap, 100), want) for label, rep, cap, want in fixed_point_battery])


def _trefoil_covers_match_reference():
    """test_covers_match_reference on the covers of the trefoil exterior
    alone (degrees 2 to 7, ten covers), the first of its cases."""
    for name, cx, phi in test_torsion_reference._covers():
        if name.startswith("trefoil_exterior:"):
            test_torsion_reference._assert_same(alexander.laurent_specialize(cx, phi), cx.ranks)


def _rank_mod_p_matches_reference_seeded():
    """test_rank_mod_p_matches_reference_loop and
    test_rank_mod_p_takes_signed_residues on 120 fixed seeded matrices and
    20 of blocks I - P, every other one as residues in [0, p) and the rest
    with signed representatives: a mutant fails it at once, with no
    shrinking."""
    tcr = test_certified_rank
    rng = np.random.default_rng(0)
    cases = []
    for i in range(120):
        p = tcr.RESIDUE_PRIMES[i % 2]
        rows, cols = (int(x) for x in rng.integers(1, 31, 2))
        inner = int(rng.integers(0, min(rows, cols) + 1)) if i % 3 == 0 else None
        cases.append((tcr._residue_matrix(rng, p, rows, cols, (0.05, 0.25, 1.0)[i // 3 % 3],
                                          inner, i % 4 == 1), p))
    for i in range(20):
        p = tcr.RESIDUE_PRIMES[i % 2]
        cases.append((tcr._perm_block_residues(rng, p, (1, 6)[i % 2], 6), p))
    for i, (m, p) in enumerate(cases):
        tcr._assert_kernel_matches_reference(
            tcr._signed_representatives(rng, m, p) if i % 2 else m, p)


def _evaluate_mod_p_matches_horner_seeded():
    """test_evaluate_mod_p_matches_horner on 40 fixed seeded arrays [3, 2, m],
    every conductor, prime and entry size, every other one of Python ints."""
    tcr = test_certified_rank
    rng = np.random.default_rng(0)
    for i in range(40):
        n = tcr.EVALUATION_CONDUCTORS[i % 5]
        p, r = matrices.split_primes(n, 3)[i % 3]
        m = int(rng.integers(1, n + 1))
        lo, hi = tcr._entry_range(tcr.EVALUATION_SIZES[i // 5 % 4], m, p)
        a = rng.integers(lo, hi, (3, 2, m), endpoint=True)
        tcr._assert_evaluation_matches_horner(a.astype(object) if i % 2 else a, p, r)


def _ring_matmul_matches_reference_seeded():
    """test_ring_matmul_matches_cyclic_convolution on 48 fixed seeded cases,
    every conductor under every batching, without shrinking."""
    rng = np.random.default_rng(0)
    for i in range(48):
        n = test_matrices.RING_CONDUCTORS[i % 6]
        ma, mb = (int(x) for x in rng.integers(1, n + 1, 2))
        test_matrices._assert_ring_matmul_matches_reference(*test_matrices._ring_operands(
            rng, ma, mb, test_matrices.RING_BATCHES[i // 6 % 4], i % 7 == 0, i % 5 == 1), n)


# (probe, module, attribute, replacement, how a check dies, killing checks)
MUTANTS = [
    ("no offender fix-up", matrices, "_divides", lambda b, a: True, ASSERTED,
     [test_torsion_reference.test_torsion_that_needs_the_divisibility_step]),
    ("_divides always False", matrices, "_divides", lambda b, a: False, ArithmeticError,
     [test_alexander.test_torsion_invariants_t3]),
    ("unit pivot clears only the first row below it", matrices._snf_poly, "__code__",
     _edited(matrices._snf_poly, "row_op(i, c, (x[0] - v, x[1]), k)",
             "row_op(i, c, (x[0] - v, x[1]), k); break"), ASSERTED,
     [test_matrices.test_snf_poly_random_200, _trefoil_covers_match_reference]),
    ("pseudo-division remainder dropped", matrices._snf_poly, "__code__",
     _edited(matrices._snf_poly, "row_op(i, *_pseudo_quotient(a[i][k], a[k][k]), k)",
             "row_op(i, *_pseudo_quotient(a[i][k], a[k][k]), k); a[i][k] = None"),
     ASSERTED, [test_matrices.test_snf_poly_random_200, _trefoil_covers_match_reference]),
    ("d.d = 0 check always passes", alexander, "_composes_to_zero", lambda a, b: True,
     ASSERTED, [test_alexander.test_torsion_invariants_rejects_non_complex]),
    ("Phi_n never divides in the root choice", alexander, "_divides",
     lambda b, a: False, ASSERTED, [test_alexander.test_select_examples]),
    ("grading weight off by one on nonempty words", alexander, "grading_weight",
     lambda phi, w: groups.grading_weight(phi, w) + bool(w), ASSERTED,
     [test_alexander.test_laurent_specialize_circle,
      test_alexander.test_torsion_invariants_trefoil]),
    ("rank norm bound from the reduced array only", matrices, "_entry_bounds",
     lambda a, red: matrices._l1_norms(red), ASSERTED,
     [test_cli.test_large_prime_conductor_uses_split_primes,
      test_certified_rank.test_prime_count_follows_the_smaller_norm]),
    ("rank norm bound from the assembled array only", matrices, "_entry_bounds",
     lambda a, red: matrices._l1_norms(a), ASSERTED,
     [test_certified_rank.test_prime_count_follows_the_smaller_norm]),
    ("one split prime: Hadamard bound of 0 bits", matrices, "_hadamard_bits",
     lambda l1: 0.0, ASSERTED,
     [functools.partial(test_certified_rank.test_prime_count_is_certified, n)
      for n in (1, 5, 12)]),
    ("_subspace_ranks one short", homology, "_subspace_ranks", _one_short, ASSERTED,
     [test_suites.test_les_suite_sees_every_subspace_rank_off_by_one]),
    ("d.d = 0 check in specialize always passes: homology's ring_matmul gives 0",
     homology, "ring_matmul",
     lambda a, b, n: 0 * matrices.ring_matmul(a, b, n), ASSERTED,
     [test_homology.test_specialize_dd_hard_error,
      test_complexes.test_validate_complex_negative_control]),
    ("relator mask memoized by the relator alone", groups.transitive_actions, "__code__",
     _edited(groups.transitive_actions, "key = (r, tuple([images[g] for g in others]))",
             "key = (r,)"), ASSERTED, [test_groups.test_transitive_actions_match_brute_force]),
    ("orbit split memoized without its stabilizer", groups.transitive_actions, "__code__",
     _edited(groups.transitive_actions, "key = (stab.tobytes(), ok.tobytes())",
             "key = ok.tobytes()"), ASSERTED,
     [test_groups.test_transitive_actions_match_brute_force]),
    # the checks of a row that changes what reidemeister_schreier computes
    # build their own actions: an action keeps the data of its first call
    ("relator walked from coset 0", groups.reidemeister_schreier, "__code__",
     _edited(groups.reidemeister_schreier, "data.walk(r, i)", "data.walk(r, 0)"), ASSERTED,
     [test_groups.test_reidemeister_schreier_matches_reference_on_catalog_actions]),
    ("transversal letter appended instead of prepended", groups.reidemeister_schreier,
     "__code__", _edited(groups.reidemeister_schreier, "((g, e),) + transversal[i]",
                         "transversal[i] + ((g, e),)"), ASSERTED,
     [test_groups.test_reidemeister_schreier_matches_reference_on_catalog_actions]),
    ("cover term walk starts every word at the basepoint", groups.SchreierData, "walk",
     lambda self, w, start: _WALK(self, w, 0), ASSERTED,
     [test_complexes.test_cover_complex_matches_cell_walking_reference]),
    ("torsion polynomial not made primitive", alexander, "_primitive_part", lambda c: c,
     ValueError, [test_alexander.test_torsion_invariants_s1xs2]),
    ("ranks of d_V in place of d_V (I tensor B)", homology, "_subspace_ranks",
     lambda b, basis: [matrices.certified_rank(a, basis.shape[-1]) for a in b.boundaries],
     ASSERTED, [functools.partial(test_homology.test_subspace_dims_match_summands, base)
                for base in ("lens:3,1", "trefoil_exterior")]),
    ("dense lowest terms without the gcd divided out", reps._lowest, "__code__",
     _edited(reps._lowest, "g = math.gcd(den, int(np.gcd.reduce(red, axis=None)))", "g = 1"),
     ASSERTED, [test_homology.test_dense_identities_are_the_identity_bitwise]),
    ("dense lowest terms without the Phi_n reduction", reps._lowest, "__code__",
     _edited(reps._lowest, "_power_basis(n)[:m]", "np.eye(n, dtype=np.int64)[:m]"),
     ASSERTED, [test_homology.test_dense_identities_are_the_identity_bitwise]),
    ("monomial test keeps the first nonzero of a column", reps._monomial_columns, "__code__",
     _edited(reps._monomial_columns, "if any(len(col) != 1 for col in nonzero):",
             "if not all(nonzero):"), ASSERTED, [test_reps.test_verify_rep_examples]),
    ("every trie node multiplies from node 0", reps._node_images, "__code__",
     _edited(reps._node_images, "images[parent]", "images[0]"), homology.BoundaryError,
     [test_homology.test_boundaries_match_independent_assembly]),
    ("block width dim for w in subquotient_dims", homology.subquotient_dims, "__code__",
     _edited(homology.subquotient_dims, "cells * w - ranks[i]", "cells * r.dim - ranks[i]"),
     ASSERTED, [functools.partial(test_homology.test_subspace_dims_match_summands, "lens:3,1")]),
    ("fixed-point check ranks only the generators' images", reps.fixed_point_free_check,
     "__code__", _edited(reps.fixed_point_free_check, "list(seen.values())[1:]",
                         "[imgs.image(g, 1) for g in range(r.group.num_generators)]"),
     ASSERTED, [_fixed_point_free_matches_reference_capped]),
    ("echelon basis rows not scaled to lead 1", matrices._rank_mod_p, "__code__",
     _edited(matrices._rank_mod_p, "x * inv % p", "x"), ASSERTED,
     [_rank_mod_p_matches_reference_seeded]),
    ("a lead residue of p - 1 is stored unscaled", matrices._rank_mod_p, "__code__",
     _edited(matrices._rank_mod_p, "if f != 1:", "if f not in (1, p - 1):"), ASSERTED,
     [_rank_mod_p_matches_reference_seeded]),
    # an unreduced multiple of p is kept as a nonzero lead, and pow refuses to invert it
    ("an out-of-range difference is kept unreduced", matrices._rank_mod_p, "__code__",
     _edited(matrices._rank_mod_p, "y % p", "y"), ValueError,
     [_rank_mod_p_matches_reference_seeded]),
    ("a lead of -1 is stored without negation", matrices._rank_mod_p, "__code__",
     _edited(matrices._rank_mod_p, "{j: -x for", "{j: x for"), ASSERTED,
     [_rank_mod_p_matches_reference_seeded]),
    ("exactness kept after a non-unit lead", matrices._rank_mod_p, "__code__",
     _edited(matrices._rank_mod_p, "inv, exact = pow(f, -1, p), False", "inv = pow(f, -1, p)"),
     ASSERTED, [functools.partial(
         test_certified_rank.test_exact_route_needs_unit_leads_and_no_reduction,
         "a non-unit lead")]),
    ("exactness kept after a reduction mod p", matrices._rank_mod_p, "__code__",
     _edited(matrices._rank_mod_p, "y, exact = y % p, False", "y = y % p"), ASSERTED,
     [functools.partial(test_certified_rank.test_exact_route_needs_unit_leads_and_no_reduction,
                        "a reduction mod p")]),
    ("exact route taken on a reduced residue matrix", matrices.certified_pivots, "__code__",
     _edited(matrices.certified_pivots, "exact and np.may_share_memory(m, red)", "exact"),
     ASSERTED, [functools.partial(test_certified_rank.test_prime_count_is_certified, 1)]),
    ("full rank taken one short", matrices.certified_pivots, "__code__",
     _edited(matrices.certified_pivots, "len(best) == full or", "len(best) + 1 >= full or"),
     ASSERTED, [functools.partial(
         test_certified_rank.test_a_minor_vanishing_at_the_first_prime_takes_more_primes, n)
         for n in (3, 5, 12)]),
    ("max_abs wraps at -2^63", matrices.max_abs, "__code__",
     _edited(matrices.max_abs, "top.view(np.uint64) if top.dtype == np.int64 else top", "top"),
     ASSERTED, [test_certified_rank.test_int64_minimum_is_read_exactly]),
    ("power row of the wrong root", matrices._evaluate_mod_p, "__code__",
     _edited(matrices._evaluate_mod_p, "_power_row(p, r, m)", "_power_row(p, p - r, m)"),
     ASSERTED, [_evaluate_mod_p_matches_horner_seeded]),
    ("ring_matmul adds a wrapped power into a slice", matrices.ring_matmul, "__code__",
     _edited(matrices.ring_matmul, "if s + m > n:", "if False:"), ASSERTED,
     [_ring_matmul_matches_reference_seeded]),
    ("Fox derivative: the inverse letter's prefix one short", complexes._fox_terms,
     "__code__", _edited(complexes._fox_terms, "(g, i + 1, -1)", "(g, i, -1)"),
     ASSERTED, [test_complexes.test_fox_derivative_trefoil,
                test_complexes.test_presentation_complex_matches_reference_on_catalog_groups]),
    ("split check rank T = dim W dropped", reps.invariant_coinvariant_split, "__code__",
     _edited(reps.invariant_coinvariant_split, "if certified_rank(tall, n) != w:", "if False:"),
     ASSERTED, [functools.partial(test_reps.test_split_refuses_non_unitary_reps,
                                  *test_reps.NON_UNITARY_SPLITS[1])]),
    ("split check rank T B = dim W dropped", reps.invariant_coinvariant_split, "__code__",
     _edited(reps.invariant_coinvariant_split,
             "if certified_rank(ring_matmul(tall, basis, n), n) != w:", "if False:"),
     ASSERTED, [functools.partial(test_reps.test_split_refuses_non_unitary_reps,
                                  *test_reps.NON_UNITARY_SPLITS[0])]),
]


def _run(check, request):
    """Call a check, with the pytest fixtures its signature names."""
    names = inspect.signature(check).parameters
    return check(**{name: request.getfixturevalue(name) for name in names})


@pytest.mark.parametrize("probe, module, name, mutant, dies_by, checks", MUTANTS,
                         ids=[row[0] for row in MUTANTS])
def test_mutant_is_killed(request, monkeypatch, probe, module, name, mutant, dies_by,
                          checks):
    for check in checks:
        _run(check, request)
    monkeypatch.setattr(module, name, mutant)
    for check in checks:
        with pytest.raises(dies_by):
            _run(check, request)
