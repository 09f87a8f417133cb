"""Acceptance criteria, one test per criterion, exact tolerances throughout.

Dimension counts are integers and every comparison is exact; the only
tolerance anywhere is the 1e-8 singular-value threshold of the float oracles
in criterion 7, as stated.  Run with -s to see one line per criterion.
"""

import random

import numpy as np

from oracles import (det_int, det_poly, divides, matrix_rank, poly_diagonal,
                     smith_normal_form_poly)
from test_matrices import invariant_factors
from twisthom.alexander import alexander_data, make_acyclic_fibered, uct_dims
from twisthom.complexes import catalog_complex
from twisthom.groups import free_product
from twisthom.homology import connected_sum_dims, twisted_homology
from twisthom.matrices import Matrix, fast_rank, int_diagonal, smith_normal_form_int
from twisthom.numbers import Cyclo, Laurent, euler_phi
from twisthom.reps import (character_from_grading, fixed_point_free_check,
                           quaternion_left_rep, torsion_characters,
                           trivial_rep)

SEED = 0


def _report(num: int, name: str, ok: bool) -> None:
    print(f"ACCEPTANCE {num} ({name}): {'PASS' if ok else 'FAIL'}")


def test_criterion_1_lens_characters():
    ok = True
    for p, q in [(2, 1), (3, 1), (5, 1), (5, 2), (7, 3)]:
        cx = catalog_complex("lens", [p, q]).complex
        chars = torsion_characters(cx.group)
        ok = ok and len(chars) == p
        ok = ok and twisted_homology(cx, chars[0]).dims == (1, 0, 0, 1)
        for ch in chars[1:]:
            ok = ok and twisted_homology(cx, ch).dims == (0, 0, 0, 0)
    _report(1, "lens spaces acyclic under nontrivial characters", ok)
    assert ok


def test_criterion_2_fibered_pipeline():
    ok = True
    cases = [("s1xs2", [], [1], 2), ("t3", [], [1, 0, 0], 2),
             ("s1x_sigma", [2], [0, 0, 0, 0, 1], None),
             ("trefoil_exterior", [], [1, 1], 2)]
    for name, params, phi, want_n in cases:
        cx = catalog_complex(name, params).complex
        cert = make_acyclic_fibered(cx, phi)
        ok = ok and cert.report.acyclic
        if want_n is not None:
            ok = ok and cert.z_order == want_n
        else:
            ok = ok and cert.z_order <= 3
        td = alexander_data(cx, phi)
        for n in range(1, 13):
            direct = twisted_homology(
                cx, character_from_grading(cx.group, phi, n, 1)).dims
            ok = ok and list(direct) == uct_dims(td, n)
    # trefoil torsion polynomial is t^2 - t + 1 up to units: exact division both ways
    td = alexander_data(catalog_complex("trefoil_exterior").complex, [1, 1])
    (poly,) = td.torsion_polys[1]
    target = Laurent({2: 1, 1: -1, 0: 1})
    ok = ok and divides(poly, target) and divides(target, poly)
    _report(2, "fibered acyclification pipeline", ok)
    assert ok


def test_criterion_3_spherical_q8():
    rep = quaternion_left_rep()
    entry = catalog_complex("quaternion_q8")
    ok = fixed_point_free_check(rep)
    h = twisted_homology(entry.complex, rep)
    ok = ok and h.dims == (0, 0, 0, 0)
    ok = ok and h.euler == 0 == 4 * entry.complex.euler_characteristic()
    _report(3, "quaternion space acyclic under the 4-dim free rep", ok)
    assert ok


def test_criterion_4_lemma_suites(suite_results):
    by = {s["suite"]: s for s in suite_results["suites"]}
    ok = True
    for name in ("euler", "trivialrep", "h0", "shapiro", "les"):
        ok = ok and by[name]["fail"] == 0 and by[name]["pass"] > 0
    ok = ok and by["h0"]["pass"] == 200
    ok = ok and by["les"]["pass"] == 100
    ok = ok and by["shapiro"]["pass"] >= 10  # >= 5 covers, two reps each
    _report(4, "structural lemma suites", ok)
    assert ok, {k: v for k, v in by.items()}


def test_criterion_5_obstructions(suite_results):
    by = {s["suite"]: s for s in suite_results["suites"]}
    ok = by["handlebody"]["fail"] == 0 and by["handlebody"]["pass"] > 600
    free = by["freeproduct"]
    ok = ok and free["fail"] == 0
    # full battery: 1 torsion character + all transitive actions of degree <= 4
    # up to conjugacy (1 + 63 + 595 + 14072) + 50 induced representations
    ok = ok and free["pass"] == 1 + (1 + 63 + 595 + 14072) + 50
    _report(5, "obstruction batteries (boundary and connected-sum)", ok)
    assert ok, by


def test_criterion_6_connected_sums():
    s1xs2 = catalog_complex("s1xs2")
    lens3 = catalog_complex("lens", [3, 1])
    minus = character_from_grading(s1xs2.complex.group, [1], 2, 1)
    ok = connected_sum_dims(s1xs2, minus, lens3).dims == (0, 0, 0, 0)
    lens5 = catalog_complex("lens", [5, 1])
    z5 = torsion_characters(lens5.complex.group)[1]
    ok = ok and connected_sum_dims(lens5, z5, lens3).dims == (0, 0, 0, 0)
    _report(6, "connected-sum dimension formula with cross-check", ok)
    assert ok


def test_criterion_7_kernel_algebra():
    rng = random.Random(SEED)
    ok = True
    # 500 integer SNF instances
    for _ in range(500):
        rows, cols = rng.randint(1, 6), rng.randint(1, 6)
        m = Matrix(rows, cols, [[rng.randint(-5, 5) for _ in range(cols)]
                                for _ in range(rows)])
        u, d, v = smith_normal_form_int(m)
        ok = ok and (u @ m @ v) == d
        ok = ok and abs(det_int(u)) == 1 and abs(det_int(v)) == 1
        diag = int_diagonal(d)
        nonzero = [x for x in diag if x]
        ok = ok and all(x >= 0 for x in diag)
        ok = ok and all(nonzero[i + 1] % nonzero[i] == 0
                        for i in range(len(nonzero) - 1))
        a = np.array([[int(x) for x in row] for row in m.entries], dtype=float)
        ok = ok and len(nonzero) == int(np.linalg.matrix_rank(a, tol=1e-8))
    # 200 polynomial SNF instances
    for _ in range(200):
        rows, cols = rng.randint(1, 4), rng.randint(1, 4)
        m = Matrix(rows, cols,
                   [[Laurent({rng.randint(-1, 3): rng.randint(-3, 3)
                              for _ in range(rng.randint(0, 3))})
                     for _ in range(cols)] for _ in range(rows)])
        u, d, v = smith_normal_form_poly(m)
        ok = ok and (u @ m @ v) == d
        ok = ok and len(det_poly(u).terms) == len(det_poly(v).terms) == 1
        diag = invariant_factors(m)
        ok = ok and diag == poly_diagonal(d)
        nonzero = [x for x in diag if x]
        ok = ok and all(divides(nonzero[i], nonzero[i + 1])
                        for i in range(len(nonzero) - 1))
    # 500 cyclotomic ranks against the float oracle at threshold 1e-8
    for _ in range(500):
        n = rng.randint(1, 12)
        phi = euler_phi(n)
        rows, cols = rng.randint(1, 6), rng.randint(1, 6)
        m = Matrix(rows, cols,
                   [[Cyclo(n, [rng.randint(-2, 2) for _ in range(phi)])
                     for _ in range(cols)] for _ in range(rows)])
        z = np.exp(2j * np.pi / n)
        a = np.array([[sum(float(c) * z ** i for i, c in enumerate(x.coeffs))
                       for x in row] for row in m.entries])
        ok = ok and fast_rank(m) == matrix_rank(m) == int(np.linalg.matrix_rank(a, tol=1e-8))
    _report(7, "exact kernel algebra vs float oracles", ok)
    assert ok


def test_free_product_spot_check():
    """Direct spot check that the double 3-torus battery target is well-posed."""
    t3 = catalog_complex("t3").complex.group
    both = free_product(t3, t3)
    from twisthom.complexes import presentation_complex
    cx = presentation_complex(both)
    h = twisted_homology(cx, trivial_rep(both, 1))
    assert (h.dims[0], h.dims[1]) != (0, 0)
