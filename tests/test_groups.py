"""Words, group rings, presentations, actions, Reidemeister-Schreier."""

import gc
import itertools
import random

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from oracles import Ring, reidemeister_schreier_reference, trivial_action
from twisthom.complexes import catalog_complex
from twisthom.groups import (GroupPresentation, GroupRingElt, PermAction,
                             abelianization, free_product, free_reduce,
                             reidemeister_schreier, transitive_actions,
                             transitive_actions_up_to,
                             verify_grading, word_from_ints, word_inverse,
                             word_mul, word_power, word_to_ints)
from twisthom.matrices import Matrix, int_diagonal, smith_normal_form_int


def test_free_reduce_examples():
    assert free_reduce([(0, 1), (0, -1)]) == ()
    assert free_reduce([(0, 1), (1, 1), (1, -1), (0, 1)]) == ((0, 1), (0, 1))
    w = ((0, 1), (1, -1), (0, 1))
    assert free_reduce(w) == w  # already reduced: unchanged


def test_free_reduce_idempotent_random():
    rng = random.Random(2)
    for _ in range(300):
        letters = [(rng.randrange(3), rng.choice([1, -1]))
                   for _ in range(rng.randint(0, 10))]
        once = free_reduce(letters)
        assert free_reduce(once) == once
        assert len(once) <= len(letters)


def test_word_json_round_trip():
    w = word_from_ints([1, -2, 1])
    assert w == ((0, 1), (1, -1), (0, 1))
    assert word_to_ints(w) == [1, -2, 1]
    with pytest.raises(ValueError):
        word_from_ints([0])


def test_group_ring_axioms_random():
    rng = random.Random(7)

    def rand_elt():
        terms = []
        for _ in range(rng.randint(0, 4)):
            w = free_reduce([(rng.randrange(2), rng.choice([1, -1]))
                             for _ in range(rng.randint(0, 4))])
            terms.append((w, rng.randint(-3, 3)))
        return Ring(terms)

    for _ in range(100):
        x, y, z = rand_elt(), rand_elt(), rand_elt()
        assert (x * y) * z == x * (y * z)
        assert x * (y + z) == x * y + x * z
        assert (x + y) * z == x * z + y * z
        assert (x * y).bar() == y.bar() * x.bar()
        assert x.bar().bar() == x
        assert (x * y).augmentation() == x.augmentation() * y.augmentation()


@pytest.mark.parametrize("coeff", [2.9, "7", 2.0])
def test_group_ring_coefficients_must_be_integers(coeff):
    """Coefficients used to go through int(): 2.9 was read as 2 and '7' as 7."""
    with pytest.raises(TypeError):
        GroupRingElt([((), coeff)])
    assert GroupRingElt([(((0, 1),), 7), (((0, 1),), -2)]).terms == {((0, 1),): 5}


def test_abelianization_examples():
    assert abelianization(GroupPresentation(1, [word_power(0, 5)])) == (0, [5])
    t3 = GroupPresentation(3, [
        free_reduce([(0, 1), (1, 1), (0, -1), (1, -1)]),
        free_reduce([(0, 1), (2, 1), (0, -1), (2, -1)]),
        free_reduce([(1, 1), (2, 1), (1, -1), (2, -1)])])
    assert abelianization(t3) == (3, [])
    assert abelianization(GroupPresentation(2)) == (2, [])


def test_free_product_examples():
    p = free_product(GroupPresentation(1, [word_power(0, 2)]),
                     GroupPresentation(1, [word_power(0, 3)]))
    assert p.num_generators == 2
    assert p.relators == (((0, 1), (0, 1)), ((1, 1), (1, 1), (1, 1)))
    q = GroupPresentation(2, [word_power(0, 2)])
    assert free_product(q, GroupPresentation(0)) == q
    t3 = GroupPresentation(3, [
        free_reduce([(0, 1), (1, 1), (0, -1), (1, -1)]),
        free_reduce([(0, 1), (2, 1), (0, -1), (2, -1)]),
        free_reduce([(1, 1), (2, 1), (1, -1), (2, -1)])])
    both = free_product(t3, t3)
    assert both.num_generators == 6 and len(both.relators) == 6


def test_free_product_abelianization_merges():
    rng = random.Random(13)
    for _ in range(50):
        ps = []
        for _ in range(2):
            gens = rng.randint(1, 3)
            rels = []
            for _ in range(rng.randint(0, 2)):
                w = free_reduce([(rng.randrange(gens), rng.choice([1, -1]))
                                 for _ in range(rng.randint(1, 4))])
                if w:
                    rels.append(w)
            ps.append(GroupPresentation(gens, rels))
        b1, t1 = abelianization(ps[0])
        b2, t2 = abelianization(ps[1])
        b, t = abelianization(free_product(ps[0], ps[1]))
        assert b == b1 + b2
        assert sorted(t) == sorted(t1 + t2)
        # block-diagonal relator matrix oracle
        e1, e2 = ps[0].exponent_matrix(), ps[1].exponent_matrix()
        rows = ps[0].num_generators + ps[1].num_generators
        cols = e1.cols + e2.cols
        block = [[0] * cols for _ in range(rows)]
        for i in range(e1.rows):
            for j in range(e1.cols):
                block[i][j] = e1[i, j]
        for i in range(e2.rows):
            for j in range(e2.cols):
                block[e1.rows + i][e1.cols + j] = e2[i, j]
        _, d, _ = smith_normal_form_int(Matrix(rows, cols, block))
        diag = [x for x in int_diagonal(d) if x > 1]
        assert sorted(diag) == sorted(t)


def test_perm_action_validation():
    z4 = GroupPresentation(1, [word_power(0, 4)])
    with pytest.raises(ValueError):
        PermAction(z4, [(1, 2, 0)])  # x^4 is a 3-cycle^4 = 3-cycle, not id
    with pytest.raises(ValueError):
        PermAction(GroupPresentation(2), [(0, 1), (0, 1)])  # intransitive
    a = PermAction(z4, [(1, 0)])
    assert a.degree == 2


def test_reidemeister_schreier_z_index2():
    z = GroupPresentation(1)
    sub, data = reidemeister_schreier(z, PermAction(z, [(1, 0)]))
    assert sub.num_generators == 1 and sub.relators == ()
    assert data.schreier_generator_word(0) == ((0, 1), (0, 1))  # s = x^2


def test_reidemeister_schreier_z4_index2():
    z4 = GroupPresentation(1, [word_power(0, 4)])
    sub, data = reidemeister_schreier(z4, PermAction(z4, [(1, 0)]))
    assert abelianization(sub) == (0, [2])


def test_reidemeister_schreier_index1():
    z4 = GroupPresentation(1, [word_power(0, 4)])
    sub, data = reidemeister_schreier(z4, trivial_action(z4))
    assert sub.num_generators == 1
    assert sub.relators == (word_power(0, 4),)
    assert data.rewrite(word_power(0, 4)) == word_power(0, 4)


def test_schreier_generator_count_and_euler():
    rng = random.Random(19)
    tre = GroupPresentation(2, [free_reduce([(0, 1), (1, 1), (0, 1),
                                             (1, -1), (0, -1), (1, -1)])])
    for p in [GroupPresentation(2), tre]:
        for action in transitive_actions(p, 3):
            sub, data = reidemeister_schreier(p, action)
            d = action.degree
            assert data.num_schreier_generators() == d * p.num_generators - (d - 1)
            # relators can collapse, so Euler multiplicativity needs the raw
            # count; the spanning-tree collapse leaves a single vertex
            raw_relators = d * len(p.relators)
            chi_base = 1 - p.num_generators + len(p.relators)
            chi_cover = 1 - data.num_schreier_generators() + raw_relators
            assert chi_cover == d * chi_base
    _ = rng


def test_rewrite_rejects_outside_words():
    z = GroupPresentation(1)
    _, data = reidemeister_schreier(z, PermAction(z, [(1, 0)]))
    with pytest.raises(ValueError):
        data.rewrite(((0, 1),))  # x moves the basepoint


def test_verify_grading_examples():
    tre = GroupPresentation(2, [free_reduce([(0, 1), (1, 1), (0, 1),
                                             (1, -1), (0, -1), (1, -1)])])
    assert verify_grading(tre, [1, 1])
    assert not verify_grading(GroupPresentation(1, [word_power(0, 2)]), [1])
    assert verify_grading(GroupPresentation(1, [word_power(0, 2)]), [0])


def test_transitive_action_counts():
    f2 = GroupPresentation(2)
    assert [len(transitive_actions(f2, d)) for d in (1, 2, 3)] == [1, 3, 7]
    z6 = GroupPresentation(1, [word_power(0, 6)])
    # transitive Z/6 actions on d points exist iff d | 6
    assert [len(transitive_actions(z6, d)) for d in (1, 2, 3, 4)] == [1, 1, 1, 0]


def test_word_helpers():
    w = word_from_ints([1, 2])
    assert word_inverse(w) == ((1, -1), (0, -1))
    assert word_mul(w, word_inverse(w)) == ()


def test_transitive_actions_of_the_trivial_group():
    # the rank-0 presentation acts transitively only on one point
    g0 = GroupPresentation(0)
    assert [a.degree for a in transitive_actions(g0, 1)] == [1]
    assert transitive_actions(g0, 2) == [] and transitive_actions(g0, 3) == []
    assert len(transitive_actions_up_to(g0, 3)) == 1
    assert transitive_actions(GroupPresentation(2), 0) == []


# ---------------------------------------------------------------------------
# enumeration against a brute-force oracle
# ---------------------------------------------------------------------------

def _word_perm(images, w, d):
    inverses = [tuple(sorted(range(d), key=x.__getitem__)) for x in images]

    def act(i):
        for g, e in reversed(w):
            i = (images if e == 1 else inverses)[g][i]
        return i

    return tuple(act(i) for i in range(d))


def _brute_force_actions(p, d):
    """Every tuple of S_d^g that kills the relators and acts transitively,
    reduced to its lexicographically least simultaneous conjugate, sorted."""
    sym = list(itertools.permutations(range(d)))
    conjugators = [(g, tuple(sorted(range(d), key=g.__getitem__))) for g in sym]
    seen, reps = set(), []
    for images in itertools.product(sym, repeat=p.num_generators):
        if images in seen:
            continue
        if any(_word_perm(images, r, d) != tuple(range(d)) for r in p.relators):
            continue
        orbit, frontier = {0}, [0]
        for i in frontier:
            for x in images:
                if x[i] not in orbit:
                    orbit.add(x[i])
                    frontier.append(x[i])
        conjugates = {tuple(tuple(g[x[gi[i]]] for i in range(d)) for x in images)
                      for g, gi in conjugators}
        seen |= conjugates
        if len(orbit) == d:
            reps.append(min(conjugates))
    return sorted(reps)


def _assert_matches_oracle(p, max_degree):
    for d in range(1, max_degree + 1):
        got = [a.generator_images for a in transitive_actions(p, d)]
        assert got == _brute_force_actions(p, d), (p, d)


def test_transitive_actions_match_brute_force():
    _assert_matches_oracle(GroupPresentation(2), 3)
    _assert_matches_oracle(GroupPresentation(1, [word_power(0, 6)]), 4)
    _assert_matches_oracle(catalog_complex("trefoil_exterior").complex.group, 4)
    _assert_matches_oracle(catalog_complex("t3").complex.group, 3)
    # a relator that reads two images besides the one being chosen
    _assert_matches_oracle(GroupPresentation(3, [word_from_ints([1, 2, 3, -1, -2, -3])]), 4)
    # the same mask (the involutions) meets the full S_d and smaller stabilizers
    _assert_matches_oracle(GroupPresentation(3, [word_power(g, 2) for g in range(3)]), 4)


@st.composite
def presentations(draw):
    gens = draw(st.integers(0, 3))
    relators = []
    if gens:
        for _ in range(draw(st.integers(0, 3))):
            w = free_reduce(draw(st.lists(st.tuples(st.integers(0, gens - 1),
                                                    st.sampled_from((1, -1))),
                                          min_size=1, max_size=6)))
            if w:
                relators.append(w)
    return GroupPresentation(gens, relators)


@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(presentations(), st.integers(1, 4))
def test_transitive_actions_match_brute_force_random(p, d):
    assert [a.generator_images for a in transitive_actions(p, d)] == \
        _brute_force_actions(p, d)


def test_transitive_actions_leave_no_reference_cycles():
    """The backtrack frees everything it built when it returns, without
    waiting for a cyclic garbage collection."""
    tre = catalog_complex("trefoil_exterior").complex.group
    gc.collect()
    gc.disable()
    try:
        assert len(transitive_actions(tre, 6)) == 8
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_enumerated_actions_pass_the_public_constructor():
    t3 = catalog_complex("t3").complex.group
    tre = catalog_complex("trefoil_exterior").complex.group
    for p, max_degree in ((free_product(t3, t3), 4), (tre, 6)):
        for a in transitive_actions_up_to(p, max_degree):
            checked = PermAction(p, a.generator_images)
            assert checked == a and checked.degree == a.degree
            assert checked._inverses == a._inverses


def _assert_schreier_matches_reference(p, action):
    sub, data = reidemeister_schreier(p, action)
    ref_sub, ref = reidemeister_schreier_reference(p, action)
    assert sub == ref_sub
    for field in ("generator_images", "_inverses", "transversal", "pair_index", "pairs"):
        assert getattr(data, field) == getattr(ref, field), field


@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(presentations())
def test_reidemeister_schreier_matches_reference_random(p):
    """Every transitive action of degree <= 3: the relators walked from each
    coset are the conjugates rewritten from the basepoint, and the
    transversal grown by prefixing is the reduced product."""
    for action in transitive_actions_up_to(p, 3):
        _assert_schreier_matches_reference(p, action)


def test_reidemeister_schreier_matches_reference_on_catalog_actions():
    """The trefoil up to degree 4 and t3 up to 3, on actions built here, so
    no result kept on an action from an earlier call answers for them."""
    for spec, max_degree in (("trefoil_exterior", 4), ("t3", 3)):
        p = catalog_complex(spec).complex.group
        for action in transitive_actions_up_to(p, max_degree):
            _assert_schreier_matches_reference(p, action)


def test_reidemeister_schreier_is_kept_on_the_action():
    tre = catalog_complex("trefoil_exterior").complex.group
    action = transitive_actions(tre, 3)[0]
    first = reidemeister_schreier(tre, action)
    assert reidemeister_schreier(tre, action) is first
    # an equal action built apart derives its own, equal, data
    again = reidemeister_schreier(tre, PermAction(tre, action.generator_images))
    assert again is not first and again[0] == first[0]


def test_kept_schreier_data_leaves_no_reference_cycle():
    """The data keeps the action's permutations, not the action, so an
    action and what it keeps are freed without a cyclic collection."""
    tre = catalog_complex("trefoil_exterior").complex.group
    action = transitive_actions(tre, 3)[0]
    _, data = reidemeister_schreier(tre, action)
    assert not any(x is action for x in gc.get_referents(data))
    gc.collect()
    gc.disable()
    try:
        del action, data
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_reidemeister_schreier_refuses_another_presentation():
    z, z4 = GroupPresentation(1), GroupPresentation(1, [word_power(0, 4)])
    action = PermAction(z4, [(1, 0)])
    for _ in range(2):  # before and after the action keeps its data
        with pytest.raises(ValueError):
            reidemeister_schreier(z, action)
        reidemeister_schreier(z4, action)


def test_negative_generator_count_is_refused():
    with pytest.raises(ValueError):
        GroupPresentation(-1)
    assert GroupPresentation(0).num_generators == 0
