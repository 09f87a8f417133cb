"""Fox calculus, circle products, covers, and the validated catalog.

Boundary matrices are stored in right-module coordinates (bar-involuted
classical formulas), so the stored lens entries are x^-1 - 1 and so on; the
homology dimensions pinned here are convention-independent.
"""

import pytest

from twisthom.complexes import (catalog_complex, catalog_entry_from_string,
                                circle_product, cover_complex, fox_derivative,
                                presentation_complex, quaternion_presentation,
                                quaternion_regular_action, trefoil_group)
from twisthom.groups import (EMPTY_WORD, GroupPresentation, GroupRingElt,
                             PermAction, abelianization, free_reduce,
                             word_from_ints, word_power)
from twisthom.homology import twisted_homology, validate_complex
from twisthom.matrices import Matrix, int_diagonal, smith_normal_form_int
from twisthom.reps import (permutation_rep, torsion_characters, trivial_rep,
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


def test_fox_fundamental_identity():
    # sum_x (dr/dx) (x - 1) = r - 1 in the free group ring
    p = trefoil_group()
    for rel in p.relators:
        total = GroupRingElt()
        for g in range(p.num_generators):
            x_minus_1 = GroupRingElt([(((g, 1),), 1), (EMPTY_WORD, -1)])
            total = total + fox_derivative(rel, g) * x_minus_1
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
    assert s1xs2.boundaries[1].is_zero()
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
    aug = [[cx.boundaries[1][i, j].augmentation() for j in range(2)]
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
    from twisthom.groups import trivial_action
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
                       (cx.boundaries[0],
                        Matrix(1, 1, [[GroupRingElt([(EMPTY_WORD, 1)])]]),
                        cx.boundaries[2]))
    ch = torsion_characters(cx.group)[1]
    assert validate_complex(cx, ch)
    assert not validate_complex(corrupt, ch)
