"""Fox calculus, circle products, covers, and the validated catalog.

Boundary matrices are stored in right-module coordinates (bar-involuted
classical formulas), so the stored lens entries are x^-1 - 1 and so on; the
homology dimensions pinned here are convention-independent.
"""

import hashlib
import json

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from oracles import (Ring, cover_complex_reference, fox_derivative_reference,
                     presentation_complex_reference, quaternion_regular_action,
                     trivial_action)
from twisthom.complexes import (Boundary, catalog_complex, catalog_entry_from_string,
                                circle_product, cover_complex, fox_derivative,
                                presentation_complex, quaternion_presentation,
                                surface_group, trefoil_group)
from twisthom.groups import (EMPTY_WORD, GroupPresentation, GroupRingElt,
                             PermAction, abelianization, free_reduce,
                             transitive_actions, transitive_actions_up_to,
                             word_from_ints, word_power)
from twisthom.homology import shapiro_compare, twisted_homology, validate_complex
from twisthom.jsonio import complex_to_json
from twisthom.matrices import Matrix, int_diagonal, smith_normal_form_int
from twisthom.numbers import Cyclo
from twisthom.reps import (induce_rep, permutation_rep, torsion_characters, trivial_rep,
                           quaternion_left_rep)


def gr(pairs):
    return GroupRingElt([(word_from_ints(w), c) for c, w in pairs])


def test_fox_derivative_power():
    # d(x^p)/dx = 1 + x + ... + x^(p-1)
    for p in (1, 2, 5):
        d = fox_derivative(word_power(0, p), 0)
        assert d == GroupRingElt([(word_power(0, i), 1) for i in range(p)])


def test_fox_derivative_trefoil():
    a, b = 0, 1
    r = free_reduce([(a, 1), (b, 1), (a, 1), (b, -1), (a, -1), (b, -1)])
    da = fox_derivative(r, a)
    # 1 + ab - abab^-1a^-1
    assert da == gr([(1, []), (1, [1, 2]), (-1, [1, 2, 1, -2, -1])])
    db = fox_derivative(r, b)
    assert db == gr([(1, [1]), (-1, [1, 2, 1, -2]), (-1, [1, 2, 1, -2, -1, -2])])


@settings(max_examples=100, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 2), st.sampled_from((1, -1))), max_size=16))
def test_fox_derivative_matches_letter_by_letter_reference(letters):
    """On unreduced words over three generators, full of cancelling pairs,
    the derivative from prefixes of the reduced word is the reference's,
    which reduces every prefix again."""
    w = tuple(letters)
    for gen in range(3):
        assert fox_derivative(w, gen) == fox_derivative_reference(w, gen)


def test_fox_fundamental_identity():
    # sum_x (dr/dx) (x - 1) = r - 1 in the free group ring
    p = trefoil_group()
    for rel in p.relators:
        total = Ring()
        for g in range(p.num_generators):
            x_minus_1 = Ring([(((g, 1),), 1), (EMPTY_WORD, -1)])
            total = total + Ring(fox_derivative(rel, g).terms) * x_minus_1
        assert total == GroupRingElt([(rel, 1), (EMPTY_WORD, -1)])


def test_presentation_complex_shapes():
    cx = presentation_complex(GroupPresentation(1, [word_power(0, 5)]))
    assert cx.ranks == (1, 1, 1)
    # stored d1 entry is the involute x^-1 - 1
    assert cx.boundaries[0][0, 0] == gr([(1, [-1]), (-1, [])])
    # stored d2 entry is bar(1 + x + ... + x^4)
    assert cx.boundaries[1][0, 0] == GroupRingElt(
        [(word_power(0, -i), 1) for i in range(5)])
    free = presentation_complex(GroupPresentation(2))
    assert free.ranks == (1, 2)


def test_presentation_complex_matches_reference_on_catalog_groups():
    for p in (trefoil_group(), quaternion_presentation(), surface_group(2),
              catalog_complex("t3").complex.group):
        c, ref = presentation_complex(p), presentation_complex_reference(p)
        assert (c.group, c.ranks, c.boundaries) == (ref.group, ref.ranks, ref.boundaries)


def test_presentation_complex_boundary_vanishes():
    tre = presentation_complex(trefoil_group())
    for rep in [trivial_rep(tre.group, 1), trivial_rep(tre.group, 3)]:
        assert validate_complex(tre, rep)
    # noncommutative check: the trefoil group surjects onto S3
    s3 = PermAction(tre.group, [(1, 0, 2), (0, 2, 1)])
    assert validate_complex(tre, permutation_rep(tre.group, s3))


def test_circle_product_point_and_torus():
    point = presentation_complex(GroupPresentation(0))
    # the point complex has an extra degree-1 rank 0; build the real point
    from twisthom.complexes import _point_complex, _circle_complex
    circle = circle_product(_point_complex())
    assert circle.ranks == (1, 1)
    assert circle.boundaries[0][0, 0] == gr([(1, [-1]), (-1, [])])
    torus = circle_product(circle)
    assert torus.ranks == (1, 2, 1)
    assert twisted_homology(torus, trivial_rep(torus.group, 1)).dims == (1, 2, 1)
    _ = point


def test_circle_product_sphere():
    from twisthom.complexes import _sphere_complex
    s1xs2 = circle_product(_sphere_complex())
    assert s1xs2.ranks == (1, 1, 1, 1)
    assert s1xs2.boundaries[1] == Boundary(1, 1)
    assert twisted_homology(s1xs2, trivial_rep(s1xs2.group, 1)).dims == (1, 1, 1, 1)


def test_catalog_entries_regression():
    for spec, closed in [("lens:5,1", True), ("s1xs2", True), ("t3", True),
                         ("s1x_sigma:2", True), ("quaternion_q8", True),
                         ("trefoil_exterior", False), ("handlebody:2", False),
                         ("torus2d", False)]:
        e = catalog_entry_from_string(spec)
        assert e.closed == closed
        dims = twisted_homology(e.complex, trivial_rep(e.complex.group, 1)).dims
        assert dims == e.expected_trivial_dims, spec
        if closed:
            assert e.complex.euler_characteristic() == 0


def test_catalog_examples_from_table():
    assert catalog_complex("lens", [5, 1]).expected_trivial_dims == (1, 0, 0, 1)
    assert catalog_complex("t3").expected_trivial_dims == (1, 3, 3, 1)
    assert catalog_complex("quaternion_q8").expected_trivial_dims == (1, 0, 0, 1)


@pytest.mark.parametrize("spec, parts, dims", [
    ("free_product_of:lens:5,1,t3", ("lens:5,1", "t3"), (1, 3, 3)),
    ("free_product_of:t3,t3", ("t3", "t3"), (1, 6, 6)),
    ("free_product_of:t3,s1xs2", ("t3", "s1xs2"), (1, 4, 3)),
    ("free_product_of:quaternion_q8,t3", ("quaternion_q8", "t3"), (1, 3, 3)),
    ("free_product_of:torus2d,trefoil_exterior", ("torus2d", "trefoil_exterior"), (1, 3, 1)),
    ("free_product_of:handlebody:2", ("handlebody:2",), (1, 2)),
])
def test_free_product_of_parts_and_trivial_dims(spec, parts, dims):
    """A bare integer joins the part before it, and the frozen trivial dims,
    read off the abelianization, agree with the twisted homology."""
    e = catalog_entry_from_string(spec)
    assert e.parameters == parts and e.spec_string() == spec
    assert e.expected_trivial_dims == dims
    assert twisted_homology(e.complex, trivial_rep(e.complex.group, 1)).dims == dims


def test_catalog_rejects_bad_input():
    with pytest.raises(ValueError):
        catalog_complex("lens", [0, 1])
    with pytest.raises(ValueError):
        catalog_complex("lens", [4, 2])  # gcd != 1
    with pytest.raises(ValueError):
        catalog_complex("nonsense")


def test_lens_d3_convention():
    # d3 = bar(x^qbar - 1) with qbar the inverse of q mod p
    cx = catalog_complex("lens", [5, 2]).complex
    qbar = 3  # 2*3 = 6 = 1 mod 5
    assert cx.boundaries[2][0, 0] == GroupRingElt(
        [(word_power(0, -qbar), 1), (EMPTY_WORD, -1)])


def test_quaternion_gates():
    """The oracle gates for the transcribed period-4 resolution."""
    entry = catalog_complex("quaternion_q8")
    cx = entry.complex
    # gate 1: d.d = 0 under the regular representation (faithful on Z[Q8])
    reg = permutation_rep(cx.group, quaternion_regular_action())
    assert validate_complex(cx, reg)
    # gate 2: trivial dims (1,0,0,1)
    assert twisted_homology(cx, trivial_rep(cx.group, 1)).dims == (1, 0, 0, 1)
    # gate 3: integral H1 invariant factors (2,2)
    assert abelianization(quaternion_presentation()) == (0, [2, 2])
    aug = [[Ring(cx.boundaries[1][i, j].terms).augmentation() for j in range(2)]
           for i in range(2)]
    _, d, _ = smith_normal_form_int(Matrix(2, 2, aug))
    assert int_diagonal(d) == [2, 2]
    # regular rep sees the universal cover S^3
    assert twisted_homology(cx, reg).dims == (1, 0, 0, 1)


def test_quaternion_presentation_complex_agrees_in_low_degrees():
    """H0, H1 only depend on the group: full complex vs presentation complex."""
    full = catalog_complex("quaternion_q8").complex
    pres = presentation_complex(full.group)
    for ch in torsion_characters(full.group):
        hf = twisted_homology(full, ch).dims
        hp = twisted_homology(pres, ch).dims
        assert (hf[0], hf[1]) == (hp[0], hp[1])
    r4 = quaternion_left_rep()
    assert twisted_homology(full, r4).dims[:2] == twisted_homology(pres, r4).dims[:2]


def test_lens_presentation_complex_agrees_in_low_degrees():
    for p, q in [(2, 1), (3, 1), (5, 2)]:
        full = catalog_complex("lens", [p, q]).complex
        pres = presentation_complex(full.group)
        for ch in torsion_characters(full.group):
            hf = twisted_homology(full, ch).dims
            hp = twisted_homology(pres, ch).dims
            assert (hf[0], hf[1]) == (hp[0], hp[1])


def test_cover_complex_circle_double():
    from twisthom.complexes import _circle_complex
    circle = _circle_complex()
    cover = cover_complex(circle, PermAction(circle.group, [(1, 0)]))
    assert cover.ranks == (2, 2)
    # the double cover of the circle is a circle: trivial-rep dims (1, 1)
    assert twisted_homology(cover, trivial_rep(cover.group, 1)).dims == (1, 1)


def test_cover_complex_lens41_is_lens21():
    lens4 = catalog_complex("lens", [4, 1]).complex
    cover = cover_complex(lens4, PermAction(lens4.group, [(1, 0)]))
    assert twisted_homology(cover, trivial_rep(cover.group, 1)).dims == (1, 0, 0, 1)
    # and the double cover is L(2,1): its order-2 character acyclifies
    chars = torsion_characters(cover.group)
    assert any(twisted_homology(cover, ch).acyclic for ch in chars[1:])


def test_cover_complex_degree1():
    lens = catalog_complex("lens", [3, 1]).complex
    cover = cover_complex(lens, trivial_action(lens.group))
    assert cover.ranks == lens.ranks
    for ch in torsion_characters(cover.group):
        assert twisted_homology(cover, ch).dims in [(1, 0, 0, 1), (0, 0, 0, 0)]


def test_cover_euler_multiplicativity():
    tre = presentation_complex(trefoil_group())
    s3 = PermAction(tre.group, [(1, 0, 2), (0, 2, 1)])
    cover = cover_complex(tre, s3)
    assert cover.euler_characteristic() == 3 * tre.euler_characteristic()


def test_validate_complex_negative_control():
    cx = catalog_complex("lens", [5, 1]).complex
    corrupt = type(cx)(cx.group, cx.ranks,
                       (cx.boundaries[0], Boundary(1, 1, [((0, 0, EMPTY_WORD), 1)]),
                        cx.boundaries[2]))
    ch = torsion_characters(cx.group)[1]
    assert validate_complex(cx, ch)
    assert not validate_complex(corrupt, ch)


def test_boundary_is_its_sorted_merged_terms():
    """Words are freely reduced, like terms merged, zeros dropped, and the
    terms kept in (row, col, word) order; an entry reads back as a
    GroupRingElt."""
    x, y = ((0, 1),), ((1, 1),)
    b = Boundary(2, 3, [((1, 2, y), 2), ((0, 1, x + ((1, 1), (1, -1))), 3),
                        ((0, 1, ()), 4), ((1, 2, y), -2), ((0, 1, x), -1), ((1, 0, ()), 5)])
    assert b.terms == ((0, 0, 1), (1, 1, 0), (4, 2, 5), ((), x, ()), 6)
    assert list(b.items()) == [((0, 1, ()), 4), ((0, 1, x), 2), ((1, 0, ()), 5)]
    assert b[0, 1] == GroupRingElt([((), 4), (x, 2)])
    assert b[1, 2] == GroupRingElt() and b[0, 0] == GroupRingElt()
    assert b == Boundary(2, 3, [((1, 0, ()), 5), ((0, 1, x), 2), ((0, 1, ()), 4)])
    for bad in ([((2, 0, ()), 1)], [((0, 3, ()), 1)], [((0, 0, ()), 1.5)]):
        with pytest.raises((ValueError, TypeError)):
            Boundary(2, 3, bad)
    with pytest.raises(IndexError):
        b[2, 0]


def test_complex_takes_only_boundaries():
    cx = catalog_complex("lens", [5, 1]).complex
    with pytest.raises(ValueError, match="Boundary"):
        type(cx)(cx.group, cx.ranks, (cx.boundaries[0], Matrix(1, 1, [[GroupRingElt()]]),
                                      cx.boundaries[2]))
    with pytest.raises(ValueError, match="unknown generator"):
        type(cx)(cx.group, (1, 1), (Boundary(1, 1, [((0, 0, ((1, 1),)), 1)]),))


# The sha256 of each catalog complex's JSON (sort_keys), first 16 hex digits:
# the wire format is pinned while the stored form of a boundary may change.
CATALOG_DIGESTS = [
    ("lens:5,1", "47f6bdb500edee42"),
    ("lens:5,2", "a101c286b5173baa"),
    ("lens:1024,1", "63bb561613f26db5"),
    ("s1xs2", "c7478e654d6ffefc"),
    ("t3", "0bb6a3b3d0e3da8f"),
    ("s1x_sigma:2", "48dd6956a3348246"),
    ("quaternion_q8", "70a6937c5720110f"),
    ("trefoil_exterior", "bdb371ede2ffe38a"),
    ("handlebody:0", "318d0037d6e59869"),
    ("handlebody:2", "6303ab99d06787ca"),
    ("torus2d", "b5a964e875eb3f03"),
    ("free_product_of:lens:5,1,t3", "4ca90a58a1c6659d"),
    ("free_product_of:t3,t3", "1f911c89c588056a"),
]


@pytest.mark.parametrize("spec, digest", CATALOG_DIGESTS)
def test_catalog_complex_json_is_pinned(spec, digest):
    blob = json.dumps(complex_to_json(catalog_entry_from_string(spec).complex), sort_keys=True)
    assert hashlib.sha256(blob.encode()).hexdigest()[:16] == digest


def _trusted_builds():
    """The catalog complexes above, and every cover of degree 3 of the
    trefoil exterior and of t3."""
    out = [catalog_entry_from_string(spec).complex for spec, _ in CATALOG_DIGESTS]
    for spec in ("trefoil_exterior", "t3"):
        c = catalog_complex(spec).complex
        out += [cover_complex(c, action) for action in transitive_actions(c.group, 3)]
    return out


def test_trusted_builders_hand_over_reduced_words():
    """The builders skip the free reduction of ``Boundary``: each boundary
    they build is its own rebuild by the public, reducing constructor."""
    for cx in _trusted_builds():
        for b in cx.boundaries:
            assert Boundary(b.rows, b.cols, b.items()) == b


def _assert_cover_matches_reference(c, action):
    cover = cover_complex(c, action)
    group, ranks, boundaries = cover_complex_reference(c, action)
    assert cover.group == group and list(cover.ranks) == ranks
    for b, ref in zip(cover.boundaries, boundaries, strict=True):
        assert len(ref) == b.rows and all(len(row) == b.cols for row in ref)
        for i, row in enumerate(ref):
            for j, entry in enumerate(row):
                assert b[i, j] == entry, (i, j)


def _cover_cases():
    def catalog(spec):
        return catalog_entry_from_string(spec).complex
    tre, t3, s1x = catalog("trefoil_exterior"), catalog("t3"), catalog("s1x_sigma:2")
    q8 = catalog("quaternion_q8")
    return ([(tre, a) for a in transitive_actions_up_to(tre.group, 5)]
            + [(t3, a) for a in transitive_actions_up_to(t3.group, 3)]
            + [(s1x, a) for a in transitive_actions(s1x.group, 2)]
            + [(q8, quaternion_regular_action())])


def test_cover_complex_matches_cell_walking_reference():
    """Every cell of every cover equals the cell-by-cell reference: the
    trefoil up to degree 5, t3 up to 3, s1x_sigma:2 at 2, and Q8's regular
    action (the universal cover)."""
    for c, action in _cover_cases():
        _assert_cover_matches_reference(c, action)


@st.composite
def _presentation(draw):
    gens = draw(st.integers(1, 3))
    letters = st.tuples(st.integers(0, gens - 1), st.sampled_from((1, -1)))
    words = st.lists(letters, min_size=1, max_size=6).map(free_reduce).filter(bool)
    return GroupPresentation(gens, draw(st.lists(words, max_size=3)))


@st.composite
def _presentation_and_action(draw):
    p = draw(_presentation())
    actions = transitive_actions(p, draw(st.integers(1, 3)))
    if not actions:
        actions = transitive_actions(p, 1)
    return p, draw(st.sampled_from(actions))


@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(_presentation_and_action())
def test_cover_complex_matches_reference_on_random_presentations(case):
    p, action = case
    _assert_cover_matches_reference(presentation_complex(p), action)


@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(_presentation())
def test_presentation_complex_matches_pairwise_fox_reference(p):
    """The one Fox pass per relator gives the complex of one reference Fox
    derivative per (generator, relator) pair."""
    c, ref = presentation_complex(p), presentation_complex_reference(p)
    assert (c.group, c.ranks, c.boundaries) == (ref.group, ref.ranks, ref.boundaries)


def test_presentation_complex_reduces_no_prefix(monkeypatch):
    """A genus-64 surface relator of 256 letters: the relator is reduced when
    the presentation is built, and no Fox term is reduced again (642
    reductions when each term went through a GroupRingElt)."""
    from twisthom import complexes, groups
    original, calls = groups.free_reduce, []

    def counted(letters):
        calls.append(None)
        return original(letters)

    for module in (groups, complexes):
        monkeypatch.setattr(module, "free_reduce", counted)
    presentation_complex(surface_group(64))
    assert len(calls) <= 4


def test_cover_complex_reuses_its_callers_schreier_data(monkeypatch):
    """Once the caller has the Reidemeister-Schreier data of an action,
    cover_complex, induce_rep and shapiro_compare build none of their own."""
    from twisthom import groups
    built = []

    class Counted(groups.SchreierData):
        __slots__ = ()

        def __init__(self, *args):
            built.append(None)
            super().__init__(*args)

    monkeypatch.setattr(groups, "SchreierData", Counted)
    tre = presentation_complex(trefoil_group())
    action = PermAction(tre.group, [(1, 0, 2), (0, 2, 1)])
    sub, _ = groups.reidemeister_schreier(tre.group, action)
    assert len(built) == 1
    ident = [Matrix.identity(1, Cyclo.one(), Cyclo.zero())] * sub.num_generators
    cover_complex(tre, action)
    induce_rep(tre.group, action, ident, 1)
    shapiro_compare(tre, action, ident, 1)
    assert len(built) == 1
