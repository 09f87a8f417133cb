"""torsion_invariants against an independent reference route.

The reference presents each H_i = ker d_i / im d_{i+1} directly: a free
kernel basis K of d_i, the image of d_{i+1} solved in that basis through the
Smith form of K, and the Smith form of the resulting relation matrix, all
by the transform-tracking elimination of ``oracles`` on ``decode_laurent``
of the integer boundaries.  The library instead reads H_i off the invariant
factors of the boundaries alone, by its own diagonal-only elimination.
"""

import math

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from oracles import (Poly, decode_laurent, encode_laurent, exact_div,
                     kernel_basis_poly, poly_diagonal, smith_normal_form_poly,
                     torsion_data)

from twisthom.alexander import TorsionData, laurent_specialize, torsion_invariants
from twisthom.complexes import catalog_complex, cover_complex
from twisthom.groups import reidemeister_schreier, transitive_actions
from twisthom.matrices import Matrix
from twisthom.numbers import Laurent


def _solve(k: Matrix, b: Matrix) -> Matrix:
    """X with K X = B over Q[t, t^-1], for K of full column rank: with
    U K V = D, X = V (U B row-divided by the diagonal of D)."""
    u, d, v = smith_normal_form_poly(k)
    ub = u @ b
    diag = poly_diagonal(d)
    assert len(diag) == k.cols and all(diag), "kernel basis is not of full column rank"
    assert not any(x for row in ub.entries[k.cols:] for x in row), "B is not in the span"
    y = [[exact_div(ub[i, j], diag[i]) for j in range(b.cols)] for i in range(k.cols)]
    return v @ Matrix(k.cols, b.cols, y)


def reference_torsion(mats, ranks) -> TorsionData:
    """TorsionData of the Laurent matrices mats, by the route above."""
    free_ranks, torsion = [], []
    for i, rank in enumerate(ranks):
        if i == 0:
            kernel = Matrix.identity(rank, Poly({0: 1}), Poly())
        else:
            kernel = kernel_basis_poly(mats[i - 1])
        image = mats[i] if i < len(mats) else None
        if image is None or image.cols == 0 or kernel.cols == 0:
            free_ranks.append(kernel.cols)
            torsion.append(())
            continue
        _, d, _ = smith_normal_form_poly(_solve(kernel, image))
        nonzero = [x for x in poly_diagonal(d) if x]
        free_ranks.append(kernel.cols - len(nonzero))
        torsion.append(tuple(x for x in nonzero if len(x.terms) != 1))
    return torsion_data(free_ranks, torsion)


def _assert_same(mats, ranks):
    """mats in the integer form of laurent_specialize."""
    got = torsion_invariants(mats, ranks)
    want = reference_torsion([decode_laurent(m) for m in mats], ranks)
    assert (got.free_ranks, got.torsion) == (want.free_ranks, want.torsion)
    return got


def _covers():
    """(id, cover complex, pulled-back primitive class) for every cover of
    the trefoil exterior of degree <= 5, of t3 of degree <= 3 and of
    s1x_sigma:2 of degree 2."""
    out = []
    for name, params, phi, degrees in (("trefoil_exterior", [], (1, 1), range(1, 6)),
                                       ("t3", [], (1, 0, 0), range(1, 4)),
                                       ("s1x_sigma", [2], (0, 0, 0, 0, 1), (2,))):
        base = catalog_complex(name, params).complex
        for d in degrees:
            for k, action in enumerate(transitive_actions(base.group, d)):
                sub, data = reidemeister_schreier(base.group, action)
                pulled = [sum(e * phi[g] for g, e in data.schreier_generator_word(s))
                          for s in range(sub.num_generators)]
                g = math.gcd(*pulled)
                out.append((f"{name}:d{d}:{k}", cover_complex(base, action),
                            [v // g for v in pulled]))
    return out


def test_covers_match_reference():
    cases = _covers()
    assert len(cases) == 1 + 1 + 2 + 3 + 2 + 1 + 7 + 13 + 31
    for name, cx, phi in cases:
        td = _assert_same(laurent_specialize(cx, phi), cx.ranks)
        assert not any(td.free_ranks), name


@pytest.mark.parametrize("name, phi", [("torus2d", [1, 0]), ("torus2d", [2, 1]),
                                       ("s1xs2", [1]), ("handlebody:2", [1, 0])])
def test_catalog_entries_match_reference(name, phi):
    name, _, params = name.partition(":")
    cx = catalog_complex(name, [int(p) for p in params.split(",") if p]).complex
    _assert_same(laurent_specialize(cx, phi), cx.ranks)


_FACTORS = (Poly({0: 1}), Poly({0: -1, 1: 1}), Poly({0: 1, 1: 1}),
            Poly({0: 1, 1: 1, 2: 1}), Poly({0: 2, 1: 1}))


@st.composite
def _laurent(draw):
    if not draw(st.integers(0, 2)):
        return Poly()
    return Poly({draw(st.integers(-1, 2)): draw(st.integers(-2, 2))
                    for _ in range(draw(st.integers(1, 2)))})


@st.composite
def _complexes(draw):
    """C_2 -> C_1 -> C_0 with d_2 = K M, K a kernel basis of a random d_1 and
    M a random matrix times a common factor g, so every invariant factor of M
    is a multiple of g: torsion in H_1 is frequent and often not cyclic."""
    r0, r1, r2 = draw(st.integers(0, 2)), draw(st.integers(1, 4)), draw(st.integers(0, 3))
    d1 = Matrix(r0, r1, [[draw(_laurent()) for _ in range(r1)] for _ in range(r0)])
    k = kernel_basis_poly(d1)
    g = draw(st.sampled_from(_FACTORS))
    m = Matrix(k.cols, r2, [[g * draw(_laurent()) for _ in range(r2)] for _ in range(k.cols)])
    d2 = k @ m if k.cols else Matrix(r1, r2, [[Poly()] * r2 for _ in range(r1)])
    return [encode_laurent(d1), encode_laurent(d2)], [r0, r1, r2]


@settings(max_examples=80, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(_complexes())
def test_random_complexes_match_reference(case):
    mats, ranks = case
    _assert_same(mats, ranks)


def test_non_cyclic_torsion():
    """Both routes find H_1 = (Q[t, t^-1]/(t - 1))^2 and a free C_0 killed by d_1."""
    t1 = Laurent({0: -1, 1: 1})
    zero = Laurent()
    d1 = Matrix(1, 3, [[zero, zero, Laurent({0: 1})]])
    d2 = Matrix(3, 2, [[t1, zero], [zero, t1], [zero, zero]])
    td = _assert_same([encode_laurent(d1), encode_laurent(d2)], [1, 3, 2])
    assert td.torsion_polys == ((), (t1, t1), ())
    assert td.free_ranks == (0, 0, 0)


def test_torsion_that_needs_the_divisibility_step():
    """diag(t - 1, t - 2) is diagonal but not a Smith form: the invariant
    factors are 1 and (t - 1)(t - 2), which only the divisibility step of
    the elimination reaches."""
    zero = Laurent()
    d1 = Matrix(2, 2, [[Laurent({0: -1, 1: 1}), zero], [zero, Laurent({0: -2, 1: 1})]])
    td = _assert_same([encode_laurent(d1)], [2, 2])
    assert td.torsion_polys == ((Laurent({0: 2, 1: -3, 2: 1}),), ())
    assert td.free_ranks == (0, 0)
