from fractions import Fraction

import pytest


@pytest.fixture(scope="session")
def suite_results():
    """One full run of the seeded lemma/obstruction suites, shared by tests."""
    from twisthom.suites import run_suites
    return run_suites(seed=0)


@pytest.fixture
def corrupt_euler_fixture(monkeypatch):
    """``suites.standard_entries`` with its first entry, lens:2,1, corrupted:
    d3 dropped to zero keeps chi = 0 but breaks Poincare duality under the
    order-2 character, which the euler suite checks."""
    from twisthom import suites
    from twisthom.complexes import Boundary, CatalogEntry, EquivariantComplex

    entries = suites.standard_entries()
    lens = entries[0]
    c = lens.complex
    bad = EquivariantComplex(c.group, c.ranks, c.boundaries[:2] + (Boundary(1, 1),))
    corrupt = CatalogEntry(lens.name + "~corrupt", lens.parameters, bad,
                           lens.expected_trivial_dims, lens.notes, lens.closed)
    monkeypatch.setattr(suites, "standard_entries", lambda: (corrupt,) + entries[1:])


def _reference_word_image(r, w):
    """alpha(w) from ``r.generator_images`` alone: ``Matrix`` products, with
    each inverse letter taken as the entrywise conjugate transpose.  Shares no
    code with the library's compiled word images."""
    from twisthom.matrices import Matrix
    from twisthom.numbers import Cyclo

    gens = r.generator_images
    out = Matrix.identity(r.dim, Cyclo.one(), Cyclo.zero())
    for g, e in w:
        m = gens[g]
        if e == -1:
            m = Matrix(m.cols, m.rows, [[m[j, i].conjugate() for j in range(m.rows)]
                                        for i in range(m.cols)])
        out = out @ m
    return out


@pytest.fixture(scope="session")
def word_reference():
    """The independent word-image reference ``(rep, word) -> Matrix``."""
    return _reference_word_image


def _rotated_copy(p, mats):
    """explicit_rep of u m u^T for each m, with u the rotation (3/5, 4/5):
    dense images with a denominator."""
    from twisthom.matrices import Matrix
    from twisthom.numbers import Cyclo
    from twisthom.reps import explicit_rep

    c, s = (Cyclo.from_rational(Fraction(x, 5)) for x in (3, 4))
    u, ut = Matrix(2, 2, [[c, -s], [s, c]]), Matrix(2, 2, [[c, s], [-s, c]])
    return explicit_rep(p, [u @ m @ ut for m in mats])


@pytest.fixture(scope="session")
def fixed_point_battery():
    """(label, rep, element_cap, expected) for the fixed-point-free test;
    expected is True, False or ImageClosureError."""
    from oracles import quaternion_regular_action
    from twisthom.complexes import quaternion_presentation
    from twisthom.groups import GroupPresentation, word_from_ints, word_power
    from twisthom.matrices import Matrix
    from twisthom.numbers import Cyclo
    from twisthom.reps import (ImageClosureError, character_from_grading,
                               explicit_rep, permutation_rep,
                               quaternion_left_rep, torsion_characters)

    cases = []
    for n in range(1, 13):
        for a, ch in enumerate(torsion_characters(GroupPresentation(1, [word_power(0, n)]))):
            # every scalar other than 1 fixes no vector
            cases.append((f"Z/{n} character {a}", ch, 10000, a > 0))
    q8 = quaternion_presentation()
    cases.append(("Q8 left rep", quaternion_left_rep(), 10000, True))
    cases.append(("Q8 regular permutation rep",
                  permutation_rep(q8, quaternion_regular_action()), 10000, False))
    zero = Cyclo.zero()
    # the generator fixes nothing, its square fixes the first axis
    z6 = GroupPresentation(1, [word_power(0, 6)])
    g6 = Matrix(2, 2, [[-Cyclo.one(), zero], [zero, Cyclo.root_of_unity(3, 1)]])
    cases.append(("diag(-1, zeta_3) on Z/6", explicit_rep(z6, [g6]), 10000, False))
    cases.append(("rotated diag(-1, zeta_3) on Z/6", _rotated_copy(z6, [g6]), 10000, False))
    z5 = GroupPresentation(1, [word_power(0, 5)])
    g5 = Matrix(2, 2, [[Cyclo.root_of_unity(5, 1), zero], [zero, Cyclo.root_of_unity(5, 2)]])
    cases.append(("rotated diag(zeta_5, zeta_5^2) on Z/5", _rotated_copy(z5, [g5]), 10000, True))
    # Z^2 by diag(zeta_3, zeta_3^2) and diag(zeta_3, zeta_3): both generators
    # and their inverses fix nothing, their product fixes the second axis
    z2 = GroupPresentation(2, [word_from_ints([1, 2, -1, -2])])
    diagonal = [Matrix(2, 2, [[Cyclo.root_of_unity(3, 1), zero],
                              [zero, Cyclo.root_of_unity(3, b)]]) for b in (2, 1)]
    cases.append(("diag(zeta_3, zeta_3^2), diag(zeta_3, zeta_3) on Z^2",
                  explicit_rep(z2, diagonal), 10000, False))
    # a rotation by an angle that is no rational multiple of pi
    z = GroupPresentation(1)
    rotation = explicit_rep(z, [[[Fraction(3, 5), Fraction(-4, 5)],
                                 [Fraction(4, 5), Fraction(3, 5)]]])
    cases.append(("rotation of infinite order", rotation, 64, ImageClosureError))
    seven = character_from_grading(z, [1], 7, 1)
    cases.append(("order 7 under a cap of 3", seven, 3, ImageClosureError))
    cases.append(("order 7", seven, 10000, True))
    return cases
