"""Twisted homology: specialization, dims, coinvariants, covers, splits, sums."""

import functools
import gc
import json
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from oracles import (decode_basis, matrix_rank, quaternion_regular_action,
                     ring_matmul_reference, trivial_action)
from twisthom.cli import main
from twisthom.complexes import (Boundary, EquivariantComplex, SpecializationPlan,
                                catalog_complex, catalog_entry_from_string,
                                cover_complex, prefix_trie, presentation_complex,
                                specialization_plan, trefoil_group)
from twisthom.groups import (GroupPresentation, PermAction,
                             free_product, reidemeister_schreier,
                             transitive_actions, word_power)
from twisthom.homology import (BlockComplex, BoundaryError, GroupMismatchError,
                               HomologyReport, _subspace_ranks, coinvariants_h0,
                               connected_sum_dims, homology_dims,
                               shapiro_compare, specialize, subquotient_dims,
                               twisted_homology)
from twisthom.jsonio import rep_to_json
from twisthom.matrices import Matrix, certified_rank, integer_kernel_basis
from twisthom.numbers import Cyclo
from twisthom.reps import (ImageClosureError, SplitData, _as_matrix, _node_images,
                           character_from_grading, evaluate_word, explicit_rep,
                           fixed_point_free_check, induce_rep, invariant_coinvariant_split,
                           permutation_rep, quaternion_left_rep,
                           torsion_characters, trivial_rep)


def _circle():
    from twisthom.complexes import _circle_complex
    return _circle_complex()


def test_specialize_circle():
    circle = _circle()
    b = specialize(circle, trivial_rep(circle.group, 1))
    assert _as_matrix(b.boundaries[0], b.denominators[0], b.conductor)[0, 0] == Cyclo.zero()
    ch = character_from_grading(circle.group, [1], 2, 1)
    b = specialize(circle, ch)
    d1 = _as_matrix(b.boundaries[0], b.denominators[0], b.conductor)
    assert d1[0, 0] == Cyclo.from_rational(-2)


def test_specialize_lens_values():
    # stored entries are involuted, so the character z sees z^-1 - 1 etc.;
    # the homology dims match the classical computation either way
    lens = catalog_complex("lens", [5, 1]).complex
    ch = torsion_characters(lens.group)[1]
    b = specialize(lens, ch)
    z_inv = Cyclo.root_of_unity(5, -1)
    d1, d2, d3 = (_as_matrix(a, den, b.conductor)
                  for a, den in zip(b.boundaries, b.denominators))
    assert d1[0, 0] == z_inv - 1
    assert d2[0, 0] == Cyclo.zero()  # geometric sum of all powers
    assert d3[0, 0] == z_inv - 1
    assert homology_dims(b).dims == (0, 0, 0, 0)


def test_specialize_group_mismatch():
    lens = catalog_complex("lens", [5, 1]).complex
    other = trivial_rep(GroupPresentation(2), 1)
    with pytest.raises(GroupMismatchError):
        specialize(lens, other)


def test_specialize_dd_hard_error():
    cx = catalog_complex("lens", [5, 1]).complex
    corrupt = type(cx)(cx.group, cx.ranks,
                       (cx.boundaries[0], Boundary(1, 1, [((0, 0, ()), 1)]), cx.boundaries[2]))
    with pytest.raises(BoundaryError):
        specialize(corrupt, torsion_characters(cx.group)[1])


def test_homology_examples():
    lens = catalog_complex("lens", [5, 1]).complex
    chars = torsion_characters(lens.group)
    assert twisted_homology(lens, chars[0]).dims == (1, 0, 0, 1)
    for ch in chars[1:]:
        rep = twisted_homology(lens, ch)
        assert rep.dims == (0, 0, 0, 0) and rep.acyclic and rep.euler == 0
    s1xs2 = catalog_complex("s1xs2").complex
    minus = character_from_grading(s1xs2.group, [1], 2, 1)
    assert twisted_homology(s1xs2, minus).dims == (0, 0, 0, 0)


def test_homology_report_invariants():
    lens = catalog_complex("lens", [7, 3]).complex
    h = twisted_homology(lens, trivial_rep(lens.group, 2))
    assert h.euler == sum((-1) ** i * d for i, d in enumerate(h.dims))
    assert not h.acyclic


@pytest.mark.parametrize("dim", [1.9, "2", 2.0], ids=["float", "string", "integral float"])
def test_reported_dims_must_be_integers(dim):
    """A dimension is an integer, not something int() would truncate or parse."""
    with pytest.raises(TypeError):
        HomologyReport([0, dim])
    with pytest.raises(TypeError):
        BlockComplex([dim], [], 1, [])


def test_reported_dims_take_integer_types():
    assert HomologyReport([np.int64(2), 0, True]).dims == (2, 0, 1)
    assert type(HomologyReport([np.int64(2)]).dims[0]) is int
    assert BlockComplex([np.int64(3), 1], [], 1, []).dims == (3, 1)


def test_coinvariants_examples():
    z = GroupPresentation(1)
    assert coinvariants_h0(z, trivial_rep(z, 4)) == 4
    p5 = GroupPresentation(1, [word_power(0, 5)])
    assert coinvariants_h0(p5, torsion_characters(p5)[1]) == 0
    q8 = catalog_complex("quaternion_q8").complex.group
    assert coinvariants_h0(q8, quaternion_left_rep()) == 0
    triv_group = GroupPresentation(0)
    assert coinvariants_h0(triv_group, trivial_rep(triv_group, 3)) == 3


def test_coinvariants_match_chain_h0():
    for spec in ["lens:5,2", "trefoil_exterior", "t3"]:
        from twisthom.complexes import catalog_entry_from_string
        cx = catalog_entry_from_string(spec).complex
        for ch in torsion_characters(cx.group):
            assert coinvariants_h0(cx.group, ch) == twisted_homology(cx, ch).dims[0]


def test_shapiro_examples():
    circle = _circle()
    z = circle.group
    a2 = PermAction(z, [(1, 0)])
    minus = [Matrix(1, 1, [[Cyclo.from_rational(-1)]])]
    dc, di = shapiro_compare(circle, a2, minus, 1)
    assert dc.dims == (0, 0) and di.dims == (0, 0)
    triv = [Matrix(1, 1, [[Cyclo.one()]])]
    dc, di = shapiro_compare(circle, a2, triv, 1)
    assert dc.dims == (1, 1) and di.dims == (1, 1)
    dc, di = shapiro_compare(circle, trivial_action(z),
                             [Matrix(1, 1, [[Cyclo.root_of_unity(3)]])], 1)
    assert dc.dims == di.dims == (0, 0)


def test_shapiro_quaternion_regular():
    """Degree-8 cover of S^3/Q8 by S^3, both routes."""
    cx = catalog_complex("quaternion_q8").complex
    action = quaternion_regular_action()
    sub, _ = __import__("twisthom.groups", fromlist=["reidemeister_schreier"]) \
        .reidemeister_schreier(cx.group, action)
    triv = [Matrix(1, 1, [[Cyclo.one()]])] * sub.num_generators
    dc, di = shapiro_compare(cx, action, triv, 1)
    assert dc.dims == di.dims == (1, 0, 0, 1)


def test_shapiro_two_dimensional_sub_rep():
    """Cover and induction agree for a 2-dim (diagonal) subgroup rep."""
    tre = presentation_complex(trefoil_group())
    s3 = PermAction(tre.group, [(1, 0, 2), (0, 2, 1)])
    from twisthom.groups import reidemeister_schreier
    sub, _ = reidemeister_schreier(tre.group, s3)
    zero, one = Cyclo.zero(), Cyclo.one()
    minus = Cyclo.from_rational(-1)
    mats = []
    for s in range(sub.num_generators):
        mats.append(Matrix(2, 2, [[one, zero], [zero, minus]]))
    try:
        dc, di = shapiro_compare(tre, s3, mats, 2)
    except ValueError:
        pytest.skip("diagonal sub-rep fails a rewritten relator")
    assert dc.dims == di.dims


def test_subquotient_examples():
    circle = _circle()
    z = circle.group
    triv3 = trivial_rep(z, 3)
    s = invariant_coinvariant_split(triv3)
    w, v, wp = subquotient_dims(circle, triv3, s)
    assert w.dims == (0, 0) and v.dims == wp.dims == (3, 3)
    ch = torsion_characters(GroupPresentation(1, [word_power(0, 5)]))[1]
    lens = catalog_complex("lens", [5, 1]).complex
    s = invariant_coinvariant_split(ch)
    w, v, wp = subquotient_dims(lens, ch, s)
    assert v.dims == w.dims and wp.dims == (0, 0, 0, 0)
    d = explicit_rep(z, [[[1, 0], [0, -1]]])
    s = invariant_coinvariant_split(d)
    w, v, wp = subquotient_dims(circle, d, s)
    assert w.dims == (0, 0) and v.dims == (1, 1) and wp.dims == (1, 1)


def test_subquotient_rejects_bad_split():
    circle = _circle()
    d = explicit_rep(circle.group, [[[1, 0], [0, -1]]])
    s = invariant_coinvariant_split(trivial_rep(circle.group, 2))
    with pytest.raises(ValueError):
        subquotient_dims(circle, d, s)


def _character_values(cx, rng):
    """Generator values of a nontrivial character g -> (+-zeta_m)^phi(g), phi a
    random grading; the minus sign at odd m gives order 2m in Q(zeta_m).
    Without gradings (lens:3,1, H1 = Z/3) it takes cube roots of unity."""
    ngens = cx.group.num_generators
    lattice = integer_kernel_basis(cx.group.exponent_matrix().transpose())
    if not lattice:
        return [Cyclo.root_of_unity(3, rng.randrange(1, 3))]
    while True:
        coeffs = [rng.randrange(-2, 3) for _ in lattice]
        phi = [sum(a * v[g] for a, v in zip(coeffs, lattice)) for g in range(ngens)]
        m, sign = rng.choice(((3, -1), (4, 1), (5, -1), (6, 1)))
        values = [sign ** (e % 2) * Cyclo.root_of_unity(m, e) for e in phi]
        if any(x != Cyclo.one() for x in values):
            return values


@pytest.mark.parametrize("base", ["circle", "torus2d", "lens:3,1", "trefoil_exterior", "t3"])
def test_subspace_dims_match_summands(base):
    """On rotated sums of 1-4 characters, some trivial, dims_w is the sum of
    the nontrivial summands' dims and dims_wperp is (trivial summands) x the
    trivial dims; both are computed separately, one character at a time."""
    cx = _circle() if base == "circle" else catalog_entry_from_string(base).complex
    rng = random.Random(f"subspace {base}")
    trivial_dims = twisted_homology(cx, trivial_rep(cx.group, 1)).dims
    for k in range(1, 5):
        for t in range(k + 1):
            summands = [[Cyclo.one()] * cx.group.num_generators for _ in range(t)]
            summands += [_character_values(cx, rng) for _ in range(k - t)]
            rng.shuffle(summands)
            mats = [_diagonal([s[g] for s in summands]) for g in range(cx.group.num_generators)]
            rep = explicit_rep(cx.group, _rotated(mats, k) if k > 1 else mats)
            w, v, q = subquotient_dims(cx, rep, invariant_coinvariant_split(rep))
            want_w = [0] * len(cx.ranks)
            for s in summands:
                if any(x != Cyclo.one() for x in s):
                    d = twisted_homology(cx, explicit_rep(cx.group, [[[x]] for x in s])).dims
                    want_w = [a + b for a, b in zip(want_w, d)]
            case = (k, t, summands)
            assert w.dims == tuple(want_w), case
            assert q.dims == tuple(t * d for d in trivial_dims), case
            assert v.dims == tuple(a + b for a, b in zip(w.dims, q.dims)), case


def test_subquotient_rejects_degenerate_w():
    """W given with a repeated column is refused as degenerate; the span check
    alone would pass it, since [W | stacked] still has rank 2."""
    rep = _backend_reps()["dense"]
    first = invariant_coinvariant_split(rep).w_basis[:, :1]
    with pytest.raises(ValueError, match="degenerate"):
        subquotient_dims(catalog_complex("t3").complex, rep,
                         SplitData(np.concatenate([first, first], axis=1)))


def test_subquotient_rejects_misshapen_basis():
    """A basis at another n, of another dimension or in another format than
    the integer array of the rep's split is refused."""
    t3 = catalog_complex("t3").complex
    rep = _backend_reps()["dense"]
    basis = invariant_coinvariant_split(rep).w_basis
    doubled = np.zeros(basis.shape[:2] + (24,), dtype=basis.dtype)
    doubled[..., ::2] = basis  # the same vectors over Z[x]/(x^24 - 1)
    for bad in (doubled, basis[1:], basis[..., 0], decode_basis(basis)):
        with pytest.raises(ValueError, match="integer array"):
            subquotient_dims(t3, rep, SplitData(bad))


def _rep_file(tmp_path, rep):
    path = tmp_path / "rep.json"
    path.write_text(json.dumps(rep_to_json(rep)))
    return str(path)


def test_no_cyclo_arithmetic_past_the_codec(monkeypatch, tmp_path, fixed_point_battery):
    """Cyclo is only the codec: with its arithmetic disabled, the
    fixed-point-free battery, the split, the subquotient dims and the
    coinvariants (on rotated dense sums of one trivial and two nontrivial
    characters), and the search, acyclify and homology --rep commands run
    and give the answers they give with it."""
    rng = random.Random("integer split")
    cases = []
    for base in ("torus2d", "lens:3,1", "trefoil_exterior", "t3"):
        cx = catalog_entry_from_string(base).complex
        ngens = cx.group.num_generators
        summands = [[Cyclo.one()] * ngens] + [_character_values(cx, rng) for _ in range(2)]
        mats = [_diagonal([s[g] for s in summands]) for g in range(ngens)]
        trivial = twisted_homology(cx, trivial_rep(cx.group, 1))
        cases.append((cx, explicit_rep(cx.group, _rotated(mats, 3)), trivial))
    commands = [["search", "--catalog", "lens:7,1"],
                ["acyclify", "--catalog", "t3", "--phi", "1,0,0"],
                ["homology", "--catalog", "t3", "--rep",
                 _rep_file(tmp_path, _backend_reps()["dense"])]]

    def run(argv):
        out = tmp_path / "out.json"
        return main(argv + ["--out", str(out)]), out.read_text()

    expected = [run(argv) for argv in commands]

    def refuse(*args):
        raise AssertionError("Cyclo arithmetic past the codec")

    for name in ("__mul__", "__rmul__", "__add__", "__radd__", "__sub__", "__rsub__",
                 "__neg__", "conjugate"):
        monkeypatch.setattr(Cyclo, name, refuse)
    for label, rep, cap, want in fixed_point_battery:
        if want is ImageClosureError:
            with pytest.raises(ImageClosureError):
                fixed_point_free_check(rep, element_cap=cap)
        else:
            assert fixed_point_free_check(rep, element_cap=cap) == want, label
    for cx, rep, trivial in cases:
        split = invariant_coinvariant_split(rep)
        assert split.w_basis.shape[1] == 2
        w, v, q = subquotient_dims(cx, rep, split)
        assert q == trivial
        assert coinvariants_h0(cx.group, rep) == v.dims[0] == 1
    assert [run(argv) for argv in commands] == expected


def test_connected_sum_examples():
    s1xs2 = catalog_complex("s1xs2")
    lens3 = catalog_complex("lens", [3, 1])
    minus = character_from_grading(s1xs2.complex.group, [1], 2, 1)
    assert connected_sum_dims(s1xs2, minus, lens3).dims == (0, 0, 0, 0)
    lens5 = catalog_complex("lens", [5, 1])
    z5 = torsion_characters(lens5.complex.group)[1]
    assert connected_sum_dims(lens5, z5, lens3).dims == (0, 0, 0, 0)
    t3 = catalog_complex("t3")
    h = connected_sum_dims(t3, trivial_rep(t3.complex.group, 1), lens3)
    assert h.dims == (1, 3, 3, 1)


def test_connected_sum_rejects_non_rhs():
    t3 = catalog_complex("t3")
    lens5 = catalog_complex("lens", [5, 1])
    with pytest.raises(ValueError):
        connected_sum_dims(lens5, torsion_characters(lens5.complex.group)[1], t3)


def test_connected_sum_pullback_cross_check():
    """The free-product Fox route agrees by construction on H0/H1."""
    q8 = catalog_complex("quaternion_q8")
    lens3 = catalog_complex("lens", [3, 1])
    h = connected_sum_dims(q8, quaternion_left_rep(), lens3)
    assert h.dims == (0, 0, 0, 0)


def test_handlebody_obstruction_identity():
    for g in (1, 2, 3):
        cx = catalog_complex("handlebody", [g]).complex
        for k in (1, 2):
            h = twisted_homology(cx, trivial_rep(cx.group, k))
            assert h.dims[1] - h.dims[0] == (g - 1) * k


def test_free_product_t3_t3_not_acyclic_for_trivial():
    t3 = catalog_complex("t3").complex.group
    cx = presentation_complex(free_product(t3, t3))
    h = twisted_homology(cx, trivial_rep(cx.group, 1))
    assert (h.dims[0], h.dims[1]) != (0, 0)
    assert h.dims == (1, 6, 6)


def _rotated(mats, k):
    """Conjugate by the rational rotation (3/5, 4/5) in the plane of the first
    two coordinates: unitary, dense and with denominators."""
    zero = Cyclo.zero()
    u = [[Cyclo.from_rational(int(i == j)) for j in range(k)] for i in range(k)]
    u[0][0] = u[1][1] = Cyclo.from_rational(Fraction(3, 5))
    u[0][1], u[1][0] = Cyclo.from_rational(Fraction(-4, 5)), Cyclo.from_rational(Fraction(4, 5))
    u = Matrix(k, k, u)
    assert (u @ u.transpose()) == Matrix.identity(k, Cyclo.one(), zero)
    return [u @ m @ u.transpose() for m in mats]


def _diagonal(values):
    k = len(values)
    return Matrix(k, k, [[values[i] if i == j else Cyclo.zero() for j in range(k)]
                         for i in range(k)])


def _assembled(c, dim, image):
    """Boundaries built entry by entry from word images with Cyclo arithmetic."""
    out = []
    for b in c.boundaries:
        entries = [[Cyclo.zero()] * (b.cols * dim) for _ in range(b.rows * dim)]
        for i in range(b.rows):
            for j in range(b.cols):
                for w, coeff in b[i, j].terms.items():
                    img = image(w)
                    for a in range(dim):
                        for bb in range(dim):
                            entries[i * dim + a][j * dim + bb] += coeff * img[a, bb]
        out.append(Matrix(b.rows * dim, b.cols * dim, entries))
    return out


@functools.cache
def _backend_reps():
    """Reps of pi1(T^3): a permutation rep, an explicit diagonal rep, reps
    induced from 2x2 diagonal and rotated blocks and a rotated dense rep;
    and a 1x1 unitary non-root (3 + 4i)/5 of Z."""
    t3 = catalog_complex("t3").complex
    z4, z3 = (lambda e: Cyclo.root_of_unity(4, e)), (lambda e: Cyclo.root_of_unity(3, e))
    perm = permutation_rep(t3.group, PermAction(t3.group, [(1, 2, 0), (2, 0, 1), (0, 1, 2)]))
    action = PermAction(t3.group, [(1, 0), (0, 1), (1, 0)])
    sub, _ = reidemeister_schreier(t3.group, action)
    phis = integer_kernel_basis(sub.exponent_matrix().transpose())
    diagonals = [_diagonal([z4(phis[0][s]), z4(phis[1][s] + 2 * phis[2][s])])
                 for s in range(sub.num_generators)]
    induced = induce_rep(t3.group, action, _rotated(diagonals, 2), 2)
    diagonal = explicit_rep(t3.group, [_diagonal([z4(a), -z3(b)])
                                       for a, b in ((1, 0), (0, 1), (3, 2))])
    dense = explicit_rep(t3.group, _rotated(
        [_diagonal([z4(a), z3(b), Cyclo.one()]) for a, b in ((1, 0), (0, 1), (1, 2))], 3))
    non_root = explicit_rep(GroupPresentation(1), [[[Cyclo(4, [Fraction(3, 5), Fraction(4, 5)])]]])
    return {"permutation": perm, "diagonal": diagonal,
            "induced diagonal": induce_rep(t3.group, action, diagonals, 2),
            "induced 2x2": induced, "dense": dense, "non-root": non_root}


def _block_diagonal(m: Matrix, copies: int) -> Matrix:
    """I_copies tensor m."""
    zero = Cyclo.zero()
    return Matrix(copies * m.rows, copies * m.cols,
                  [[m[i % m.rows, j % m.cols] if i // m.rows == j // m.cols else zero
                    for j in range(copies * m.cols)] for i in range(copies * m.rows)])


@functools.cache
def _assembly_cases():
    """(complex label, complex, rep label, rep): t3 under the backend reps,
    the presentation complex of pi1(T^3) * pi1(T^3), whose words share
    prefixes of length up to 3, and lens:7,2, whose words are chains of up
    to 6 letters; each under a permutation rep, a character and a rep with
    dense rotated blocks."""
    backend = _backend_reps()
    t3 = catalog_complex("t3").complex
    cases = [("t3", t3, name, backend[name])
             for name in ("permutation", "diagonal", "induced diagonal", "induced 2x2", "dense")]
    q8 = catalog_complex("quaternion_q8").complex
    cases.append(("quaternion_q8", q8, "left", quaternion_left_rep()))
    z5, z7 = (lambda e: Cyclo.root_of_unity(5, e)), (lambda e: Cyclo.root_of_unity(7, e))
    fp = presentation_complex(free_product(t3.group, t3.group))
    cycle, swap, fixed = (1, 2, 0), (1, 0, 2), (0, 1, 2)
    cases += [
        ("t3 * t3", fp, "permutation", permutation_rep(
            fp.group, PermAction(fp.group, [cycle, cycle, fixed, swap, fixed, swap]))),
        ("t3 * t3", fp, "character", character_from_grading(fp.group, [1, 2, 0, 1, 0, 3], 5, 1)),
        ("t3 * t3", fp, "dense", explicit_rep(fp.group, _rotated(
            [_diagonal([z5(a), z5(b)])
             for a, b in ((1, 0), (0, 2), (1, 2), (3, 3), (0, 4), (2, 0))], 2)))]
    lens = catalog_complex("lens", [7, 2]).complex
    cases += [
        ("lens:7,2", lens, "permutation",
         permutation_rep(lens.group, PermAction(lens.group, [(1, 2, 3, 4, 5, 6, 0)]))),
        ("lens:7,2", lens, "character", torsion_characters(lens.group)[3]),
        ("lens:7,2", lens, "dense", explicit_rep(lens.group, _rotated(
            [_diagonal([z7(1), z7(2)])], 2)))]
    return cases


def test_boundaries_match_independent_assembly(word_reference):
    """Every compiled form (monomial, dense with denominators) gives the boundaries and ranks of a straight Cyclo assembly from reference
    word images and Bareiss ranks, on complexes whose words are single
    letters, share prefixes or are long chains; so do the ranks of the
    invariant subspace W, read off the dense rep's complex as
    d_V (I tensor B)."""
    kinds = {}
    for label, c, name, r in _assembly_cases():
        b, dim = specialize(c, r), r.dim
        expected = _assembled(c, dim, lambda w: word_reference(r, w))
        assert len(b.boundaries) == len(expected)
        ranks = [0]
        for k, m in enumerate(expected):
            got = _as_matrix(b.boundaries[k], b.denominators[k], b.conductor)
            assert got == m, (label, name, k)
            ranks.append(matrix_rank(m))
            assert certified_rank(b.boundaries[k], b.conductor) == ranks[-1], (label, name, k)
        ranks.append(0)
        want = [dim * cells - ranks[i] - ranks[i + 1] for i, cells in enumerate(c.ranks)]
        assert homology_dims(b).dims == tuple(want), (label, name)
        kinds[label, name] = (type(r.compiled).__name__, b.conductor, max(b.denominators))
    assert kinds == {
        ("t3", "permutation"): ("_Monomial", 1, 1),
        ("t3", "diagonal"): ("_Monomial", 12, 1),
        ("t3", "induced diagonal"): ("_Monomial", 4, 1),
        ("t3", "induced 2x2"): ("_Dense", 4, 25),
        ("t3", "dense"): ("_Dense", 12, 25),
        ("quaternion_q8", "left"): ("_Monomial", 2, 1),
        ("t3 * t3", "permutation"): ("_Monomial", 1, 1),
        ("t3 * t3", "character"): ("_Monomial", 5, 1),
        ("t3 * t3", "dense"): ("_Dense", 5, 25),  # every product in lowest terms
        ("lens:7,2", "permutation"): ("_Monomial", 1, 1),
        ("lens:7,2", "character"): ("_Monomial", 7, 1),
        ("lens:7,2", "dense"): ("_Dense", 7, 25)}

    t3 = catalog_complex("t3").complex
    fp = next(c for label, c, *_ in _assembly_cases() if label == "t3 * t3")
    for d in range(1, 5):
        for n in (1, 3, 4):
            _assert_monomial_boundaries_bitwise(fp, d, n)

    reps = _backend_reps()
    dense = reps["dense"]
    split = invariant_coinvariant_split(dense)
    assert split.w_basis.shape == (3, 2, 12)
    w_basis = decode_basis(split.w_basis)
    expected = _assembled(t3, dense.dim, lambda w: word_reference(dense, w))
    ranks = [matrix_rank(m @ _block_diagonal(w_basis, m.cols // dense.dim))
             for m in expected]
    assert _subspace_ranks(specialize(t3, dense), split.w_basis) == ranks
    ranks = [0] + ranks + [0]
    want = [2 * cells - ranks[i] - ranks[i + 1] for i, cells in enumerate(t3.ranks)]
    assert subquotient_dims(t3, dense, split)[0].dims == tuple(want)


def _monomial_power_images(d: int, n: int) -> list[np.ndarray]:
    """Generator images of pi1(T^3) * pi1(T^3) as integer arrays [d, d, n]
    over Z[x]/(x^n - 1): powers of one monomial matrix per factor, so each
    factor's images commute.  M1 cycles the basis with x^(1 + i) in column
    i, M2 reverses it with x^(2i - 1); every exponent is 0 at n = 1."""
    def monomial(perm, exps):
        m = np.zeros((d, d, n), dtype=object)
        m[perm, np.arange(d), [e % n for e in exps]] = 1
        return m

    m1 = monomial([(i + 1) % d for i in range(d)], [1 + i for i in range(d)])
    m2 = monomial([d - 1 - i for i in range(d)], [2 * i - 1 for i in range(d)])
    eye = monomial(list(range(d)), [0] * d)
    square = ring_matmul_reference(m1, m1, n)
    cube = ring_matmul_reference(ring_matmul_reference(m2, m2, n), m2, n)
    inverse = m1[..., -np.arange(n) % n].transpose(1, 0, 2)
    return [m1, square, inverse, m2, eye, cube]


def _monomial_power_rep(group, d: int, n: int):
    """The explicit rep of ``_monomial_power_images``, with those images."""
    def cyclo(coeffs):
        return next((Cyclo.root_of_unity(n, e) for e, x in enumerate(coeffs) if x), Cyclo.zero())

    images = _monomial_power_images(d, n)
    return explicit_rep(group, [Matrix(d, d, [[cyclo(m[i, j]) for j in range(d)]
                                              for i in range(d)]) for m in images]), images


def _assert_monomial_boundaries_bitwise(c, d: int, n: int):
    """``specialize`` of the t3 * t3 presentation complex under the explicit
    rep of ``_monomial_power_images`` is bitwise the int64 sum, term by
    term, of coefficient times word image, each word multiplied out letter
    by letter with ``ring_matmul_reference``."""
    r, images = _monomial_power_rep(c.group, d, n)
    letters = {}
    for g, m in enumerate(images):
        letters[g, 1], letters[g, -1] = m, m[..., -np.arange(n) % n].transpose(1, 0, 2)
    b = specialize(c, r)
    assert type(r.compiled).__name__ == "_Monomial" and b.conductor == n, (d, n)
    assert b.denominators == (1,) * len(c.boundaries)
    for k, boundary in enumerate(c.boundaries):
        want = np.zeros((boundary.rows * d, boundary.cols * d, n), dtype=object)
        for (i, j, w), coeff in boundary.items():
            image = images[4]  # the identity
            for letter in w:
                image = ring_matmul_reference(image, letters[letter], n)
            want[i * d:(i + 1) * d, j * d:(j + 1) * d] += coeff * image
        got = b.boundaries[k]
        assert got.dtype == np.int64 and got.shape == want.shape, (d, n, k)
        assert got.tobytes() == want.astype(np.int64).tobytes(), (d, n, k)


def test_monomial_scatter_indices_live_on_the_plan():
    """Specializations of one complex under monomial reps of one dim read
    the same scatter index arrays off its plan, whatever their conductor; a
    new dim builds its own, and the plan keeps both."""
    t3 = catalog_complex("t3").complex.group
    fp = presentation_complex(free_product(t3, t3))
    plan = specialization_plan(fp)
    specialize(fp, _monomial_power_rep(fp.group, 2, 1)[0])
    assert list(plan._scatter) == [2]
    first = plan.scatter(2)
    specialize(fp, _monomial_power_rep(fp.group, 2, 4)[0])
    assert plan.scatter(2) is first and list(plan._scatter) == [2]
    specialize(fp, _monomial_power_rep(fp.group, 3, 3)[0])
    assert list(plan._scatter) == [2, 3] and plan.scatter(2) is first
    for old, new in zip(first, plan.scatter(3)):
        assert old[:2] != new[:2]  # the shapes: rows d, cols d
        # i d, j d + arange(d) and the exponents 0 are the dim's own arrays
        assert not any(np.shares_memory(old[k], new[k]) for k in (3, 4, 6))


def test_rotated_lens_boundaries_stay_in_lowest_terms():
    """Dense products are kept in lowest terms, so a word of length 16 under
    a rep with denominator 25 keeps denominator 25, not 25^16: lens:17,1
    under the rotated diag(zeta_17, zeta_17^2) specializes to int64
    boundaries over 25."""
    lens = catalog_complex("lens", [17, 1]).complex
    r = explicit_rep(lens.group, _rotated(
        [_diagonal([Cyclo.root_of_unity(17, 1), Cyclo.root_of_unity(17, 2)])], 2))
    b = specialize(lens, r)
    assert [a.dtype for a in b.boundaries] == [np.int64] * 3
    assert b.denominators == (25, 25, 25)


def test_dense_identities_are_the_identity_bitwise():
    """Every g g^-1 product and every relator's word image of a dense rep is
    the stored identity (I, 1) itself: same dtype, same bytes, den 1."""
    dense = [r for *_, r in _assembly_cases() if type(r.compiled).__name__ == "_Dense"]
    assert len(dense) == 4
    for r in dense:
        imgs = r.compiled
        eye, one = imgs.identity
        products = [imgs.mul(imgs.image(g, 1), imgs.image(g, -1))
                    for g in range(r.group.num_generators)]
        parents, letters, nodes = prefix_trie(r.group.relators)
        images = _node_images(imgs, parents, letters)
        for a, den in products + [images[k] for k in nodes]:
            assert (den, a.dtype, a.tobytes()) == (one, eye.dtype, eye.tobytes())


def test_specialization_plans_live_and_die_with_their_complexes():
    """A complex compiles its plan once and is the only holder of it: after
    200 freshly built covers are specialized and dropped, no complex and no
    plan outlives them, as one would under a plan cache at module level."""
    base = catalog_complex("trefoil_exterior").complex
    actions = transitive_actions(base.group, 3)

    def live():
        gc.collect()
        return sum(isinstance(o, (EquivariantComplex, SpecializationPlan))
                   for o in gc.get_objects())

    before = live()
    for k in range(200):
        cover = cover_complex(base, actions[k % len(actions)])
        specialize(cover, trivial_rep(cover.group, 1))
        assert specialization_plan(cover) is specialization_plan(cover)
    del cover
    assert live() <= before


@st.composite
def _rep_and_word(draw):
    name = draw(st.sampled_from(sorted(_backend_reps())))
    rep = _backend_reps()[name]
    letters = st.tuples(st.integers(0, rep.group.num_generators - 1), st.sampled_from((1, -1)))
    return name, rep, tuple(draw(st.lists(letters, max_size=8)))


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(_rep_and_word())
def test_evaluate_word_matches_reference(word_reference, case):
    """Compiled word images (monomial and dense forms, with denominators and
    non-root entries) equal plain Cyclo matrix products."""
    name, rep, w = case
    assert evaluate_word(rep, w) == word_reference(rep, w), (name, w)


def test_specialize_has_no_int64_wraparound():
    """4 * 2^62 is 0 in int64: the magnitude guard keeps the entry nonzero."""
    p = GroupPresentation(1)
    x = ((0, 1),)
    cx = EquivariantComplex(p, (1, 1), (Boundary(1, 1, [((0, 0, x * k), 2 ** 62)
                                                        for k in range(1, 5)]),))
    assert twisted_homology(cx, trivial_rep(p, 1)).dims == (0, 0)
    assert twisted_homology(cx, character_from_grading(p, [1], 4, 1)).dims == (1, 1)
    # d1.d2 = 2^64 != 0 must not wrap to a passing d.d = 0 check
    big = Boundary(1, 1, [((0, 0, ()), 2 ** 32)])
    with pytest.raises(BoundaryError):
        specialize(EquivariantComplex(p, (1, 1, 1), (big, big)), trivial_rep(p, 1))
