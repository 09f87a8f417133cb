"""The fibered acyclification pipeline over Q[t, t^-1]."""

import functools
import math
import random
from fractions import Fraction

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from oracles import Poly, decode_laurent, divides, encode_laurent, torsion_data

from twisthom.alexander import (AcyclicityCertificate, FreeRankObstruction,
                                GradingError, TorsionData, _composes_to_zero,
                                _monic_laurent, alexander_data, laurent_specialize,
                                make_acyclic_fibered, select_root_of_unity,
                                torsion_invariants, uct_dims)
from twisthom.complexes import catalog_complex, cover_complex
from twisthom.groups import reidemeister_schreier, transitive_actions
from twisthom.homology import twisted_homology
from twisthom.matrices import Matrix
from twisthom.numbers import Laurent, cyclotomic_polynomial
from twisthom.reps import character_from_grading

T = Poly({1: 1})
ONE = Poly({0: 1})


def test_laurent_specialize_circle():
    from twisthom.complexes import _circle_complex
    circle = _circle_complex()
    mats = laurent_specialize(circle, [1])
    # stored coordinates: the boundary is t^-1 - 1, a unit multiple of t - 1
    assert mats[0][0, 0] == (-1, (1, -1))
    assert _monic_laurent(mats[0][0, 0][1]) == T - 1


def test_laurent_specialize_t3():
    t3 = catalog_complex("t3").complex
    mats = [decode_laurent(m) for m in laurent_specialize(t3, [1, 0, 0])]
    for a, b in zip(mats, mats[1:]):
        assert not any(x for row in (a @ b).entries for x in row)


def test_laurent_specialize_trefoil_validates():
    tre = catalog_complex("trefoil_exterior").complex
    mats = laurent_specialize(tre, [1, 1])
    product = decode_laurent(mats[0]) @ decode_laurent(mats[1])
    assert not any(x for row in product.entries for x in row)
    # the Alexander column is proportional to (p, -p) with p ~ t^2 - t + 1
    p = _monic_laurent(mats[1][0, 0][1])
    assert p == Laurent({2: 1, 1: -1, 0: 1})


def test_laurent_specialize_rejects_bad_grading():
    lens = catalog_complex("lens", [5, 1]).complex
    with pytest.raises(GradingError):
        laurent_specialize(lens, [1])


def test_torsion_invariants_s1xs2():
    s = catalog_complex("s1xs2").complex
    td = alexander_data(s, [1])
    assert td.free_ranks == (0, 0, 0, 0)
    assert td.torsion_polys == ((T - 1,), (), (T - 1,), ())


def test_torsion_invariants_trefoil():
    td = alexander_data(catalog_complex("trefoil_exterior").complex, [1, 1])
    assert td.free_ranks == (0, 0, 0)
    assert td.torsion_polys[1] == (Laurent({2: 1, 1: -1, 0: 1}),)
    assert all(divides(p, q) for ps in td.torsion_polys for p, q in zip(ps, ps[1:]))


def test_torsion_invariants_t3():
    td = alexander_data(catalog_complex("t3").complex, [1, 0, 0])
    assert td.torsion_polys[1] == (T - 1, T - 1)
    assert td.free_ranks == (0, 0, 0, 0)


@pytest.mark.parametrize("poly", [
    Laurent({0: -1, 1: 1}),  # a Laurent value, not its integer coefficients
    (3,),  # a unit
    (0, 1),  # zero constant term
    (2, 4),  # content 2
    (1, -1),  # negative leading coefficient
    (1.0, 1),  # a float coefficient
], ids=["laurent", "unit", "zero-constant", "content-2", "negative-lead", "float"])
def test_torsion_data_takes_only_primitive_integer_tuples(poly):
    with pytest.raises(ValueError, match="torsion polynomial"):
        TorsionData([0, 0], [[], [poly]])


@pytest.mark.parametrize("rank", [1.9, "2"], ids=["float", "string"])
def test_torsion_data_takes_only_integer_free_ranks(rank):
    """A free rank is an integer, not something int() would truncate or parse."""
    with pytest.raises(TypeError):
        TorsionData([rank, 0], [[], []])


@pytest.mark.parametrize("rank", [1.9, "2"], ids=["float", "string"])
def test_torsion_invariants_takes_only_integer_ranks(rank):
    with pytest.raises(TypeError):
        torsion_invariants([Matrix(1, 1, [[(0, (-1, 1))]])], [1, rank])


def test_torsion_polys_is_the_monic_view_of_the_stored_integers():
    """The stored tuples are primitive with a positive lead, and the view is
    monic with valuation 0 and encodes back to them."""
    for name, params, phi in (("trefoil_exterior", [], [1, 1]), ("t3", [], [1, 0, 0]),
                              ("s1x_sigma", [2], [0, 0, 0, 0, 1]), ("s1xs2", [], [1])):
        td = alexander_data(catalog_complex(name, params).complex, phi)
        assert any(td.torsion)
        for stored, view in zip(td.torsion, td.torsion_polys):
            assert len(stored) == len(view)
            for c, q in zip(stored, view):
                assert math.gcd(*c) == 1 and c[0] and c[-1] > 0
                assert q.valuation() == 0 and q.terms[q.degree()] == 1
                assert encode_laurent(Matrix(1, 1, [[q]]))[0, 0] == (0, c)
    assert torsion_data(td.free_ranks, td.torsion_polys).torsion == td.torsion


def test_select_examples():
    td = torsion_data([0, 0], [[], [T - 1, Laurent({2: 1, 1: 1, 0: 1})]])
    assert select_root_of_unity(td) == (2, 1)
    td = torsion_data([0, 0], [[], [T + 1]])
    assert select_root_of_unity(td) == (3, 1)
    td = torsion_data([0, 0, 0, 0], [[T - 1], [], [T - 1], []])
    assert select_root_of_unity(td) == (2, 1)
    # degree 0 counts too: a complex from a file may have H_0 torsion 1 + t
    td = torsion_data([0, 0, 0, 0], [[T + 1], [], [T - 1], []])
    assert select_root_of_unity(td) == (3, 1)


def test_select_obstruction():
    td = torsion_data([0, 1, 0], [[T - 1], [], []])
    with pytest.raises(FreeRankObstruction) as e:
        select_root_of_unity(td)
    assert e.value.degree == 1


def test_select_avoids_divisors():
    td = alexander_data(catalog_complex("trefoil_exterior").complex, [1, 1])
    n, a = select_root_of_unity(td)
    phi_n = cyclotomic_polynomial(n)
    for degree in range(1, td.degrees()):
        for p in td.torsion_polys[degree]:
            assert not divides(phi_n, p)


def test_uct_examples():
    s = catalog_complex("s1xs2").complex
    td = alexander_data(s, [1])
    assert uct_dims(td, 2) == [0, 0, 0, 0]
    assert uct_dims(td, 1) == [1, 1, 1, 1]
    tre = alexander_data(catalog_complex("trefoil_exterior").complex, [1, 1])
    assert uct_dims(tre, 6) == [0, 1, 1]


def test_uct_matches_direct_for_all_small_orders():
    cases = [("s1xs2", [], [1]), ("t3", [], [1, 0, 0]),
             ("trefoil_exterior", [], [1, 1]),
             ("s1x_sigma", [2], [0, 0, 0, 0, 1]),
             ("torus2d", [], [1, 0])]
    for name, params, phi in cases:
        cx = catalog_complex(name, params).complex
        td = alexander_data(cx, phi)
        for n in range(1, 13):
            direct = twisted_homology(
                cx, character_from_grading(cx.group, phi, n, 1)).dims
            assert list(direct) == uct_dims(td, n), (name, n)


def test_uct_matches_direct_many_gradings():
    """Both exact routes agree for assorted surjective gradings, n = 1..12."""
    cases = []
    t3 = catalog_complex("t3").complex
    for phi in [(0, 1, 0), (1, 1, 0), (1, 1, 1), (2, 1, 0), (1, -1, 3)]:
        cases.append((t3, list(phi)))
    t2 = catalog_complex("torus2d").complex
    for phi in [(0, 1), (2, 1), (1, -1)]:
        cases.append((t2, list(phi)))
    cases.append((catalog_complex("handlebody", [1]).complex, [1]))
    for cx, phi in cases:
        td = alexander_data(cx, phi)
        for n in range(1, 13):
            direct = twisted_homology(
                cx, character_from_grading(cx.group, phi, n, 1)).dims
            assert list(direct) == uct_dims(td, n), (phi, n)


def test_make_acyclic_fibered_certificates():
    cert = make_acyclic_fibered(catalog_complex("s1xs2").complex, [1])
    assert cert.z_order == 2 and cert.report.dims == (0, 0, 0, 0)
    cert = make_acyclic_fibered(catalog_complex("t3").complex, [1, 0, 0])
    assert cert.z_order == 2
    cert = make_acyclic_fibered(catalog_complex("trefoil_exterior").complex, [1, 1])
    assert cert.z_order == 2
    sg = catalog_complex("s1x_sigma", [2]).complex
    cert = make_acyclic_fibered(sg, [0, 0, 0, 0, 1])
    assert cert.z_order <= 3 and cert.report.acyclic


def test_certificate_self_validation():
    tre = catalog_complex("trefoil_exterior").complex
    cert = make_acyclic_fibered(tre, [1, 1])
    again = twisted_homology(tre, cert.character)
    assert again.dims == cert.report.dims


def test_phi_sign_symmetry():
    tre = catalog_complex("trefoil_exterior").complex
    plus = make_acyclic_fibered(tre, [1, 1])
    minus = make_acyclic_fibered(tre, [-1, -1])
    assert plus.z_order == minus.z_order


def test_non_surjective_grading_rejected():
    s = catalog_complex("s1xs2").complex
    with pytest.raises(GradingError):
        make_acyclic_fibered(s, [2])
    with pytest.raises(GradingError):
        make_acyclic_fibered(s, [0])


def test_free_rank_obstruction_handlebody():
    h2 = catalog_complex("handlebody", [2]).complex
    with pytest.raises(FreeRankObstruction) as e:
        make_acyclic_fibered(h2, [1, 0])
    assert e.value.degree == 1 and e.value.free_rank == 1


def test_certificate_invariants_enforced():
    td = torsion_data([0, 0], [[], [T + 1]])
    s = catalog_complex("s1xs2").complex
    ch = character_from_grading(s.group, [1], 2, 1)
    report = twisted_homology(s, ch)
    with pytest.raises(ValueError):
        AcyclicityCertificate(2, 1, ch, report, td)  # Phi_2 divides t + 1
    with pytest.raises(ValueError):
        AcyclicityCertificate(1, 1, ch, report,
                              torsion_data([0, 0], [[], []]))  # z = 1


def test_torsion_invariants_rejects_mismatched_input():
    with pytest.raises(ValueError):
        torsion_invariants([], [1, 1])


def test_torsion_invariants_rejects_non_complex():
    """The invariant factors of [[1]] and [[1]] alone look fine; d.d = 0 fails."""
    one = Matrix(1, 1, [[(0, (1,))]])
    with pytest.raises(ValueError, match=r"d1\.d2 != 0 over Q\[t, t\^-1\]"):
        torsion_invariants([one, one], [1, 1, 1])
    # the same check through the pipeline, on a specialized complex
    tre = catalog_complex("trefoil_exterior").complex
    mats = laurent_specialize(tre, [1, 1])
    d2 = decode_laurent(mats[1])
    broken = encode_laurent(Matrix(d2.rows, d2.cols, [[x + ONE for x in row] for row in d2.entries]))
    with pytest.raises(ValueError, match="d1.d2 != 0"):
        torsion_invariants([mats[0], broken], tre.ranks)


def test_torsion_invariants_rejects_wrong_shape():
    row = Matrix(1, 2, [[(0, (-1, 1)), None]])
    with pytest.raises(ValueError, match="d1 is 1x2, expected 1x1"):
        torsion_invariants([row], [1, 1])
    with pytest.raises(ValueError, match="d2 is 1x1, expected 2x1"):
        torsion_invariants([row, Matrix(1, 1, [[(0, (1,))]])], [1, 2, 1])


def test_torsion_invariants_rejects_malformed_entries():
    """Entries are None or (int, tuple of ints with nonzero ends); anything
    else is a ValueError naming its boundary, not a failure deep inside the
    elimination."""
    good = Matrix(1, 1, [[(0, (1,))]])
    for bad in (Laurent({0: 1}), (0, (1, 0)), (0, (0, 1)), (0, ()), (0, (Fraction(1, 2),)),
                (0.5, (1,)), 1, (0, [1])):
        with pytest.raises(ValueError, match="d2 has an entry that is not an integer Laurent"):
            torsion_invariants([good, Matrix(1, 1, [[bad]])], [1, 1, 1])


def test_torus2d_is_acyclifiable():
    """T^2 along (1, 0): H_1 is (t-1)-torsion, so z = -1 certifies acyclicity.

    (A free middle rank would be an obstruction; the 2-torus does not have
    one, matching the Kunneth computation with the -1 character.)
    """
    t2 = catalog_complex("torus2d").complex
    td = alexander_data(t2, [1, 0])
    assert td.free_ranks == (0, 0, 0)
    cert = make_acyclic_fibered(t2, [1, 0])
    assert cert.z_order == 2 and cert.report.acyclic


# (catalog entry, parameters, fibration class, cover degrees)
_BASES = (("trefoil_exterior", (), (1, 1), (1, 2, 3, 4, 5)),
          ("t3", (), (1, 0, 0), (1, 2, 3)),
          ("s1x_sigma", (2,), (0, 0, 0, 0, 1), (2,)))


@functools.cache
def _actions(name, params, degree):
    base = catalog_complex(name, list(params)).complex
    return base, transitive_actions(base.group, degree)


def _pulled_back_cover(name, params, phi, degree, k):
    """The k-th transitive cover of the given degree, with phi pulled back to
    its group and divided by the gcd of its values."""
    base, actions = _actions(name, params, degree)
    sub, data = reidemeister_schreier(base.group, actions[k])
    pulled = [sum(e * phi[g] for g, e in data.schreier_generator_word(s))
              for s in range(sub.num_generators)]
    return cover_complex(base, actions[k]), [v // math.gcd(*pulled) for v in pulled]


_FRACTION_OPERATORS = ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__",
                       "__rmul__", "__truediv__", "__rtruediv__", "__floordiv__",
                       "__rfloordiv__", "__mod__", "__rmod__", "__neg__", "__pow__")


def _certificate(cx, phi) -> tuple:
    """What make_acyclic_fibered certifies, or the obstruction it raises."""
    try:
        cert = make_acyclic_fibered(cx, phi)
    except FreeRankObstruction as e:
        return e.degree, e.free_rank
    return (cert.z_order, cert.z_power, cert.report.dims,
            cert.torsion.free_ranks, cert.torsion.torsion_polys)


def test_torsion_invariants_do_no_fraction_arithmetic(monkeypatch):
    """The fibered pipeline runs on integer polynomials: with Fraction
    arithmetic disabled, make_acyclic_fibered (laurent_specialize, the
    elimination and d.d = 0 check of torsion_invariants, the Phi_n tests of
    select_root_of_unity, uct_dims and the certificate) gives the results it
    gives with it, on the catalog entries above and on covers of the trefoil
    and t3.  The monic torsion polynomials only construct Fractions."""
    cases = [(catalog_complex(name, params).complex, phi) for name, params, phi in (
        ("s1xs2", [], [1]), ("trefoil_exterior", [], [1, 1]), ("t3", [], [1, 0, 0]),
        ("t3", [], [1, -1, 3]), ("s1x_sigma", [2], [0, 0, 0, 0, 1]),
        ("torus2d", [], [2, 1]), ("handlebody", [1], [1]), ("handlebody", [2], [1, 0]))]
    cases += [_pulled_back_cover("trefoil_exterior", (), (1, 1), d, k)
              for d, k in ((3, 1), (4, 0), (4, 1))]
    cases += [_pulled_back_cover("t3", (), (1, 0, 0), 3, k) for k in (0, 5, 12)]
    expected = [_certificate(cx, phi) for cx, phi in cases]

    def refuse(*args):
        raise AssertionError("Fraction arithmetic in the fibered pipeline")

    for name in _FRACTION_OPERATORS:
        monkeypatch.setattr(Fraction, name, refuse)
    got = [_certificate(cx, phi) for cx, phi in cases]
    monkeypatch.undo()
    assert got == expected
    assert (1, 1) in got  # the obstruction of handlebody:2
    assert any(r[0] > 2 and r[4][1] for r in got if len(r) == 5)  # Phi_2 | (1 + t)


@st.composite
def _broken_covers(draw):
    name, params, phi, degrees = draw(st.sampled_from(_BASES))
    degree = draw(st.sampled_from(degrees))
    k = draw(st.integers(0, len(_actions(name, params, degree)[1]) - 1))
    cx, pulled = _pulled_back_cover(name, params, phi, degree, k)
    mats = laurent_specialize(cx, pulled)
    t = draw(st.integers(0, len(mats) - 1))
    i, j = draw(st.integers(0, mats[t].rows - 1)), draw(st.integers(0, mats[t].cols - 1))
    extra = Poly({draw(st.integers(-3, 3)): draw(st.integers(-3, 3).filter(bool))
                     for _ in range(draw(st.integers(1, 3)))})
    return cx, mats, t, i, j, extra


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(_broken_covers())
def test_composition_check_can_fail(case):
    """torsion_invariants accepts every specialized cover, and after one entry
    of one boundary is changed it raises exactly when the Matrix product of
    that boundary with a neighbour is no longer zero."""
    cx, mats, t, i, j, extra = case
    torsion_invariants(mats, cx.ranks)
    broken = [decode_laurent(m) for m in mats]
    broken[t].entries[i][j] = broken[t].entries[i][j] + extra
    products = [broken[s] @ broken[s + 1] for s in range(max(0, t - 1), min(t + 1, len(broken) - 1))]
    if not any(x for p in products for row in p.entries for x in row):
        torsion_invariants([encode_laurent(m) for m in broken], cx.ranks)
    else:
        with pytest.raises(ValueError, match=r"d\d\.d\d != 0"):
            torsion_invariants([encode_laurent(m) for m in broken], cx.ranks)


def _sparse_laurent(rng, rows, cols, density=0.4):
    return Matrix(rows, cols, [[Poly({rng.randint(-2, 2): rng.choice((-2, -1, 1, 3))
                                      for _ in range(rng.randint(1, 3))})
                                if rng.random() < density else Poly()
                                for _ in range(cols)] for _ in range(rows)])


def _composes(a: Matrix, b: Matrix) -> bool:
    return _composes_to_zero(encode_laurent(a).entries, encode_laurent(b).entries)


def test_composes_to_zero_matches_the_matrix_product():
    """The sparse d.d = 0 check against the oracle's Matrix product: on random
    sparse pairs; on pairs a = [A, A M] and b = [M C; -C], whose product
    vanishes only by cancellation across several k; and on those pairs with
    one more column of a, holding one nonzero u in row i, and one more row
    of b, holding one nonzero v in column j, so that the product is u v in
    entry (i, j) alone."""
    rng = random.Random(43)
    seen = {True: 0, False: 0}
    for _ in range(150):
        r, m, c = rng.randint(1, 6), rng.randint(1, 6), rng.randint(1, 6)
        a, b = _sparse_laurent(rng, r, m), _sparse_laurent(rng, m, c, 0.3)
        got = _composes(a, b)
        assert got == (not any(x for row in (a @ b).entries for x in row))
        seen[got] += 1
    assert min(seen.values()) >= 10
    for _ in range(60):
        r, m, k, c = (rng.randint(1, 5) for _ in range(4))
        a0, mm, cc = _sparse_laurent(rng, r, m, 0.6), _sparse_laurent(rng, m, k), \
            _sparse_laurent(rng, k, c, 0.6)
        am, mc = a0 @ mm, mm @ cc
        a = Matrix(r, m + k, [ra + rb for ra, rb in zip(a0.entries, am.entries)])
        b = Matrix(m + k, c, mc.entries + [[Poly() - x for x in row] for row in cc.entries])
        assert not any(x for row in (a @ b).entries for x in row)
        assert _composes(a, b)
        i, j = rng.randrange(r), rng.randrange(c)
        u, v = _sparse_laurent(rng, 1, 1, 1)[0, 0], _sparse_laurent(rng, 1, 1, 1)[0, 0]
        a1 = Matrix(r, m + k + 1, [row + [u if s == i else Poly()]
                                   for s, row in enumerate(a.entries)])
        b1 = Matrix(m + k + 1, c, b.entries + [[v if s == j else Poly() for s in range(c)]])
        product = a1 @ b1
        assert [(s, t) for s in range(r) for t in range(c) if product[s, t]] == [(i, j)]
        assert not _composes(a1, b1)
