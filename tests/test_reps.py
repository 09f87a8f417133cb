"""Representation constructors, verification, induction, splitting."""

import random
from fractions import Fraction

import pytest

from oracles import (decode_basis, fixed_point_free_reference, matrix_rank,
                     quaternion_regular_action, trivial_action)
from twisthom.complexes import catalog_complex, quaternion_presentation, trefoil_group
from twisthom.groups import (GroupPresentation, PermAction, free_reduce,
                             reidemeister_schreier, transitive_actions, word_power)
from twisthom.matrices import Matrix
from twisthom.numbers import Cyclo
from twisthom.reps import (ImageClosureError, UnitaryRep, _verify_rep_uncached,
                           character_exponents, character_from_grading, evaluate_word,
                           explicit_rep, fixed_point_free_check, induce_rep,
                           invariant_coinvariant_split, permutation_rep,
                           quaternion_left_rep, torsion_characters,
                           trivial_rep, verify_rep)


def test_evaluate_word_examples():
    p5 = GroupPresentation(1, [word_power(0, 5)])
    ch = torsion_characters(p5)[1]
    ident = evaluate_word(ch, ())
    assert ident[0, 0] == Cyclo.one()
    w = word_power(0, 3)
    assert evaluate_word(ch, w)[0, 0] == Cyclo.root_of_unity(5, 3)
    back = evaluate_word(ch, w + tuple((g, -e) for g, e in reversed(w)))
    assert back[0, 0] == Cyclo.one()


def test_character_from_grading_examples():
    z = GroupPresentation(1)
    triv = character_from_grading(z, [0], 5, 1)
    assert evaluate_word(triv, ((0, 1),))[0, 0] == Cyclo.one()
    minus = character_from_grading(z, [1], 2, 1)
    assert evaluate_word(minus, ((0, 1),))[0, 0] == Cyclo.from_rational(-1)
    tre = trefoil_group()
    z6 = character_from_grading(tre, [1, 1], 6, 1)
    assert _verify_rep_uncached(z6)
    with pytest.raises(ValueError):
        character_from_grading(GroupPresentation(1, [word_power(0, 2)]), [1], 3, 1)


def test_torsion_characters_counts_and_validity():
    p5 = GroupPresentation(1, [word_power(0, 5)])
    chars = torsion_characters(p5)
    assert len(chars) == 5
    values = [evaluate_word(c, ((0, 1),))[0, 0] for c in chars]
    assert values == [Cyclo.root_of_unity(5, a) for a in range(5)]
    for free in (GroupPresentation(2), GroupPresentation(0)):
        [ch] = torsion_characters(free)
        assert (ch.dim, ch.conductor, ch.compiled.n) == (1, 1, 1)
        assert character_exponents(ch) == [0] * free.num_generators
    z2z2 = GroupPresentation(2, [word_power(0, 2), word_power(1, 2),
                                 free_reduce([(0, 1), (1, 1), (0, -1), (1, -1)])])
    chars = torsion_characters(z2z2)
    assert len(chars) == 4
    trivial_count = 0
    for c in chars:
        assert _verify_rep_uncached(c)
        if all(evaluate_word(c, ((g, 1),))[0, 0] == Cyclo.one() for g in range(2)):
            trivial_count += 1
    assert trivial_count == 1
    assert all(evaluate_word(chars[0], ((g, 1),))[0, 0] == Cyclo.one() for g in range(2))


def test_relator_regression_on_shipped_reps(word_reference):
    for spec in ["lens:7,3", "t3", "quaternion_q8", "trefoil_exterior"]:
        group = catalog_complex(*_split(spec)).complex.group
        ident = Matrix.identity(1, Cyclo.one(), Cyclo.zero())
        for ch in torsion_characters(group):
            for rel in group.relators:
                assert word_reference(ch, rel) == ident
                assert evaluate_word(ch, rel) == ident
    q8 = quaternion_left_rep()
    ident = Matrix.identity(4, Cyclo.one(), Cyclo.zero())
    for rel in q8.group.relators:
        assert word_reference(q8, rel) == evaluate_word(q8, rel) == ident


def _split(spec):
    if ":" in spec:
        name, rest = spec.split(":")
        return name, [int(x) for x in rest.split(",")]
    return spec, []


def test_permutation_rep_examples():
    z = GroupPresentation(1)
    assert permutation_rep(z, trivial_action(z)).dim == 1
    pr = permutation_rep(z, PermAction(z, [(1, 0)]))
    m = pr.generator_images[0]
    assert m.entries == \
        [[Cyclo.from_rational(x) for x in row] for row in [[0, 1], [1, 0]]]
    q8 = quaternion_presentation()
    reg = permutation_rep(q8, quaternion_regular_action())
    assert reg.dim == 8 and _verify_rep_uncached(reg)


def test_permutation_reps_hold_only_their_actions_tuples():
    """A permutation rep keeps no image dict or pairs of its own (a battery
    holds thousands of reps): its images are its action's permutations and
    inverses, with one tuple of zeros, and ``image`` reads the (perm, exps)
    pair of a letter from them."""
    t3 = catalog_complex("t3").complex.group
    action = PermAction(t3, [(1, 2, 0), (2, 0, 1), (0, 1, 2)])
    imgs = permutation_rep(t3, action).compiled
    assert imgs.perms is action.generator_images and imgs.inverse_perms is action._inverses
    assert len({id(exps) for exps in imgs.exps + imgs.inverse_exps}) == 1
    assert not hasattr(imgs, "__dict__")
    assert all(imgs.image(g, e) == ((action.generator_images if e == 1 else action._inverses)[g],
                                    (0, 0, 0)) for g in range(3) for e in (1, -1))


def test_induce_rep_examples():
    z = GroupPresentation(1)
    a2 = PermAction(z, [(1, 0)])
    ind_triv = induce_rep(z, a2, [Matrix(1, 1, [[Cyclo.one()]])], 1)
    perm = permutation_rep(z, a2)
    assert ind_triv.generator_images == perm.generator_images
    ind = induce_rep(z, a2, [Matrix(1, 1, [[Cyclo.from_rational(-1)]])], 1)
    m = ind.generator_images[0]
    assert m.entries == \
        [[Cyclo.from_rational(x) for x in row] for row in [[0, -1], [1, 0]]]
    sq = evaluate_word(ind, word_power(0, 2))
    assert sq.entries == \
        [[Cyclo.from_rational(x) for x in row] for row in [[-1, 0], [0, -1]]]
    ind1 = induce_rep(z, trivial_action(z), [Matrix(1, 1, [[Cyclo.root_of_unity(3)]])], 1)
    assert ind1.dim == 1
    assert ind1.generator_images[0][0, 0] == Cyclo.root_of_unity(3)


def test_induce_rep_validates_sub_rep():
    z4 = GroupPresentation(1, [word_power(0, 4)])
    a = PermAction(z4, [(1, 0)])
    # schreier generator s = x^2 has order 2 in the subgroup: s -> zeta_3 fails
    with pytest.raises(ValueError):
        induce_rep(z4, a, [Matrix(1, 1, [[Cyclo.root_of_unity(3)]])], 1)
    # non-unitary block
    with pytest.raises(ValueError):
        induce_rep(GroupPresentation(1), PermAction(GroupPresentation(1), [(1, 0)]),
                   [Matrix(1, 1, [[Cyclo.from_rational(2)]])], 1)


def test_induced_reps_dimension_and_unitarity_exhaustive():
    rng = random.Random(4)
    tre = trefoil_group()
    for p in [GroupPresentation(2), tre]:
        for action in transitive_actions(p, 3):
            sub, data = reidemeister_schreier(p, action)
            for sub_dim in (1, 2):
                mats = []
                for _ in range(sub.num_generators):
                    diag = [[Cyclo.zero()] * sub_dim for _ in range(sub_dim)]
                    for i in range(sub_dim):
                        diag[i][i] = Cyclo.root_of_unity(4, rng.randrange(4))
                    mats.append(Matrix(sub_dim, sub_dim, diag))
                try:
                    rep = induce_rep(p, action, mats, sub_dim)
                except ValueError:
                    continue  # random sub-characters may fail rewritten relators
                assert rep.dim == action.degree * sub_dim
                assert _verify_rep_uncached(rep)


def test_verify_rep_examples():
    assert verify_rep(trivial_rep(GroupPresentation(2), 3))
    bad = explicit_rep(GroupPresentation(1), [[[1, 1], [0, 1]]])
    assert not verify_rep(bad)
    bad2 = explicit_rep(GroupPresentation(1, [word_power(0, 2)]),
                        [[[Cyclo.root_of_unity(3)]]])
    assert not verify_rep(bad2)
    # two nonzeros in the first column: never read as a monomial image
    assert not verify_rep(explicit_rep(GroupPresentation(1), [[[1, 0], [1, 1]]]))


def test_verify_rep_rejects_on_both_image_forms():
    """Non-unitary images and relator failures, on monomial and dense images.
    (Monomial images are unitary by construction: roots of unity.)"""
    z = GroupPresentation(1)
    z3 = GroupPresentation(1, [word_power(0, 3)])
    quarter = Cyclo(4, [Fraction(3, 5), Fraction(4, 5)])  # (3 + 4i)/5, not a root
    assert _verify_rep_uncached(explicit_rep(z, [[[quarter]]]))
    assert not _verify_rep_uncached(explicit_rep(z, [[[quarter * 2]]]))
    assert not _verify_rep_uncached(explicit_rep(z, [[[1, 1], [0, 1]]]))
    assert not _verify_rep_uncached(explicit_rep(z3, [[[quarter]]]))
    rotation = [[Fraction(3, 5), Fraction(-4, 5)], [Fraction(4, 5), Fraction(3, 5)]]
    assert not _verify_rep_uncached(explicit_rep(z3, [rotation]))
    assert not _verify_rep_uncached(explicit_rep(z3, [[[Cyclo.root_of_unity(4)]]]))
    assert _verify_rep_uncached(explicit_rep(z3, [[[Cyclo.root_of_unity(3)]]]))
    # a 2-cycle, as an action and induced with identity blocks (both monomial):
    # only the permutation breaks x^3 = 1
    swap = PermAction(z, [(1, 0)])
    one = Matrix.identity(2, Cyclo.one(), Cyclo.zero())
    for rep in (permutation_rep(z, swap), induce_rep(z, swap, [one], 2)):
        assert _verify_rep_uncached(rep)
        moved = UnitaryRep(z3, rep.dim, 1, "moved", rep.compiled)
        assert not _verify_rep_uncached(moved)
        assert not verify_rep(moved)


def test_split_examples():
    """The basis is an integer array [dim V, w, n] at the compiled n."""
    z = GroupPresentation(1)
    s = invariant_coinvariant_split(trivial_rep(z, 3))
    assert s.w_basis.shape == (3, 0, 1)
    p5 = GroupPresentation(1, [word_power(0, 5)])
    s = invariant_coinvariant_split(torsion_characters(p5)[2])
    assert s.w_basis.shape == (1, 1, 5)
    assert decode_basis(s.w_basis)[0, 0] == Cyclo.root_of_unity(5, 2) - 1
    d = explicit_rep(z, [[[1, 0], [0, -1]]])  # monomial at n = 2: x -> -1
    s = invariant_coinvariant_split(d)
    assert s.w_basis.shape == (2, 1, 2)
    w = decode_basis(s.w_basis)
    assert not w[0, 0] and w[1, 0]  # W is the second axis


def test_split_dimensions_random():
    """dim W is the number of nontrivial characters in a diagonal sum, and
    the Bareiss rank of the stacked (alpha(g) - I) agrees."""
    rng = random.Random(41)
    z2z2 = GroupPresentation(2, [word_power(0, 2), word_power(1, 2),
                                 free_reduce([(0, 1), (1, 1), (0, -1), (1, -1)])])
    chars = torsion_characters(z2z2)
    for _ in range(30):
        k = rng.randint(1, 3)
        picks = [rng.choice(chars) for _ in range(k)]
        mats = []
        for g in range(2):
            diag = [[Cyclo.zero()] * k for _ in range(k)]
            for i, c in enumerate(picks):
                diag[i][i] = c.generator_images[g][0, 0]
            mats.append(diag)
        rep = explicit_rep(z2z2, mats)
        s = invariant_coinvariant_split(rep)
        assert s.w_basis.shape[1] == sum(c is not chars[0] for c in picks)
        stacked = Matrix(k, 2 * k, [[m[i][j] - int(i == j) for m in mats for j in range(k)]
                                    for i in range(k)])
        assert matrix_rank(stacked) == s.w_basis.shape[1]
        # the basis spans the same space as the stacked columns
        basis = decode_basis(s.w_basis)
        both = Matrix(k, 2 * k + basis.cols,
                      [stacked.entries[i] + basis.entries[i] for i in range(k)])
        assert matrix_rank(basis) == matrix_rank(both) == s.w_basis.shape[1]


NON_UNITARY_SPLITS = [
    # W = V^G = the first axis
    ([[[1, 1], [0, 1]]], "W meets the invariant vectors"),
    # W is the second axis, but only 0 is invariant
    ([[[1, 0], [1, 1]], [[1, 0], [0, 2]]], "do not have dimension"),
]


@pytest.mark.parametrize("mats, message", NON_UNITARY_SPLITS)
def test_split_refuses_non_unitary_reps(mats, message):
    """V = W + V^G can fail without unitarity; each rep breaks one of the two
    rank checks of the split and passes the other."""
    p = GroupPresentation(len(mats))
    rep = UnitaryRep(p, 2, 1, "explicit", explicit_rep(p, mats).compiled, verified=True)
    with pytest.raises(AssertionError, match=message):
        invariant_coinvariant_split(rep)


def test_fixed_point_free_examples():
    p5 = GroupPresentation(1, [word_power(0, 5)])
    assert fixed_point_free_check(torsion_characters(p5)[1])
    assert not fixed_point_free_check(trivial_rep(p5, 1))
    assert fixed_point_free_check(quaternion_left_rep())


def test_fixed_point_free_cap():
    z = GroupPresentation(1)
    ch = character_from_grading(z, [1], 7, 1)  # finite image, fine
    assert fixed_point_free_check(ch)
    with pytest.raises(ImageClosureError):
        fixed_point_free_check(ch, element_cap=3)


def test_fixed_point_free_matches_reference(fixed_point_battery):
    """The check on the compiled images equals the Cyclo BFS reference on
    characters of Z/n (n <= 12), Q8's left and regular reps, dense
    images (one fixed-point free generator whose square is not), two
    fixed-point free generators whose product is not, an image of infinite
    order and an element cap."""
    for label, rep, cap, expected in fixed_point_battery:
        answers = []
        for check in (fixed_point_free_check, fixed_point_free_reference):
            try:
                answers.append(check(rep, element_cap=cap))
            except ImageClosureError:
                answers.append(ImageClosureError)
        assert answers == [expected, expected], label
