"""Matrix kernels: the ring product over Z[x]/(x^n - 1), exact ranks and
Smith normal forms, against the independent references in ``oracles``."""

import random
import time
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (Poly, det_int, det_poly, divides, encode_laurent,
                     kernel_basis_poly, matrix_rank, poly_diagonal,
                     ring_matmul_reference, smith_normal_form_poly)
from twisthom import matrices
from twisthom.alexander import _monic_laurent, alexander_data
from twisthom.complexes import catalog_complex
from twisthom.matrices import (Matrix, fast_rank, int_diagonal,
                               integer_kernel_basis, smith_normal_form_int)
from twisthom.numbers import Cyclo, Laurent, euler_phi


def cyclo_to_complex(x: Cyclo) -> complex:
    z = np.exp(2j * np.pi / x.conductor)
    return sum(float(c) * z ** i for i, c in enumerate(x.coeffs))


def float_rank_cyclo(m: Matrix) -> int:
    if m.rows == 0 or m.cols == 0:
        return 0
    a = np.array([[cyclo_to_complex(x) for x in row] for row in m.entries])
    return int(np.linalg.matrix_rank(a, tol=1e-8))


# leading axes of (a, b): none, on either side alone, and on both, broadcast
RING_BATCHES = (((), ()), ((2,), ()), ((), (2,)), ((3, 1), (2,)))
RING_CONDUCTORS = (1, 2, 3, 4, 6, 12)


def _ring_operands(rng, ma: int, mb: int, batch, zero_a: bool, big: bool):
    """Seeded a[*lead_a, i, k, ma] and b[*lead_b, k, j, mb] with i, k, j < 4,
    each coefficient nonzero with probability 1/2: from -3..3, or within 8
    of +-2^62 when ``big`` (a then of object dtype); a all zero when
    ``zero_a``."""
    i, k, j = (int(x) for x in rng.integers(0, 4, 3))

    def operand(shape):
        if big:
            values = rng.integers(2 ** 62 - 8, 2 ** 62, shape) * rng.choice([-1, 1], shape)
        else:
            values = rng.integers(-3, 4, shape)
        return np.where(rng.random(shape) < 0.5, values, 0)

    a, b = operand(batch[0] + (i, k, ma)), operand(batch[1] + (k, j, mb))
    if zero_a:
        a = np.zeros_like(a)
    return (a.astype(object) if big else a), b


def _assert_ring_matmul_matches_reference(a, b, n: int):
    before = a.copy(), b.copy()
    got = matrices.ring_matmul(a, b, n)
    want = ring_matmul_reference(a, b, n)
    assert got.shape == want.shape and np.array_equal(got.astype(object), want)
    assert np.array_equal(a, before[0]) and np.array_equal(b, before[1]), "inputs changed"


@settings(max_examples=80, deadline=None)
@given(st.sampled_from(RING_CONDUCTORS), st.sampled_from(RING_BATCHES), st.booleans(),
       st.booleans(), st.integers(0, 2 ** 32 - 1), st.data())
def test_ring_matmul_matches_cyclic_convolution(n, batch, zero_a, big, seed, data):
    """ring_matmul against explicit cyclic convolutions: a of one coefficient
    or up to n, b of up to n (at m = n every power past x^0 wraps round), an
    all-zero a, a leading axis broadcast on either side, and coefficients
    near 2^62, whose products need Python ints."""
    ma = data.draw(st.sampled_from((1, n)) | st.integers(1, n))
    mb = data.draw(st.integers(1, n))
    a, b = _ring_operands(np.random.default_rng(seed), ma, mb, batch, zero_a, big)
    _assert_ring_matmul_matches_reference(a, b, n)


@pytest.mark.parametrize("top", [2 ** 63, -2 ** 63 - 1])
def test_ring_matmul_by_zero_keeps_python_ints(top):
    """An all-zero b gives zeros, as an all-zero a does.  Its bound used to
    read 0 and cast an a of Python ints past int64 to int64 (OverflowError)."""
    a = np.array([[[top, 1]], [[0, 3]]], dtype=object)
    b = np.zeros((1, 2, 3), np.int64)
    assert not matrices.ring_matmul(a, b, 3).any()
    _assert_ring_matmul_matches_reference(a, b, 3)


def test_rank_degenerate():
    assert matrix_rank(Matrix(0, 0, [])) == 0
    assert matrix_rank(Matrix(0, 3, [])) == 0
    assert matrix_rank(Matrix(3, 0, [[], [], []])) == 0
    assert fast_rank(Matrix(0, 0, [])) == 0
    assert fast_rank(Matrix(0, 3, [])) == 0
    assert fast_rank(Matrix(3, 0, [[], [], []])) == 0


def test_rank_identity():
    assert matrix_rank(Matrix.identity(2)) == 2


def test_rank_zeta3_example():
    z3 = Cyclo.root_of_unity(3)
    m = Matrix(2, 2, [[z3, Cyclo.one()], [Cyclo.one(), z3 * z3]])
    assert matrix_rank(m) == 1
    assert fast_rank(m) == 1
    assert float_rank_cyclo(m) == 1


def test_rank_cyclo_random_vs_float_oracle():
    rng = random.Random(3)
    for _ in range(100):
        n = rng.randint(1, 12)
        phi = euler_phi(n)
        rows = rng.randint(1, 6)
        cols = rng.randint(1, 6)
        m = Matrix(rows, cols,
                   [[Cyclo(n, [rng.randint(-2, 2) for _ in range(phi)])
                     for _ in range(cols)] for _ in range(rows)])
        exact = matrix_rank(m)
        assert exact == fast_rank(m)
        assert exact == float_rank_cyclo(m)


def test_snf_int_examples():
    u, d, v = smith_normal_form_int(Matrix(2, 2, [[2, 0], [0, 3]]))
    assert int_diagonal(d) == [1, 6]
    u, d, v = smith_normal_form_int(Matrix(1, 1, [[0]]))
    assert int_diagonal(d) == [0]
    u, d, v = smith_normal_form_int(Matrix(2, 2, [[1, 2], [3, 4]]))
    assert int_diagonal(d) == [1, 2]


def _check_int_snf(m: Matrix):
    u, d, v = smith_normal_form_int(m)
    assert (u @ m @ v) == d
    assert abs(det_int(u)) == 1
    assert abs(det_int(v)) == 1
    diag = int_diagonal(d)
    assert all(x >= 0 for x in diag)
    nonzero = [x for x in diag if x]
    assert diag[:len(nonzero)] == nonzero  # zeros trail
    for i in range(len(nonzero) - 1):
        assert nonzero[i + 1] % nonzero[i] == 0
    for i in range(d.rows):
        for j in range(d.cols):
            if i != j:
                assert d[i, j] == 0
    a = np.array([[int(x) for x in row] for row in m.entries], dtype=float)
    assert len(nonzero) == int(np.linalg.matrix_rank(a, tol=1e-8)) if m.rows and m.cols else True


def test_snf_int_random_500():
    rng = random.Random(17)
    for _ in range(500):
        rows = rng.randint(1, 6)
        cols = rng.randint(1, 6)
        m = Matrix(rows, cols, [[rng.randint(-5, 5) for _ in range(cols)]
                                for _ in range(rows)])
        _check_int_snf(m)


def invariant_factors(m: Matrix) -> list[Laurent]:
    """The diagonal of the library's ``_snf_poly`` on ``encode_laurent(m)``:
    each nonzero entry as its monic associate, then Laurent() per zero."""
    rows = [list(row) for row in encode_laurent(m).entries]
    return [_monic_laurent(x[1]) if x else Laurent() for x in matrices._snf_poly(rows)]


def test_snf_poly_examples():
    t = Poly({1: 1})
    one = Poly({0: 1})
    m = Matrix(2, 2, [[t - 1, Laurent()], [Laurent(), t - 1]])
    _, d, _ = smith_normal_form_poly(m)
    assert invariant_factors(m) == poly_diagonal(d) == [t - 1, t - 1]
    m = Matrix(1, 1, [[Laurent({1: 2})]])
    _, d, _ = smith_normal_form_poly(m)
    assert invariant_factors(m) == poly_diagonal(d) == [one]
    m = Matrix(2, 2, [[t - 1, one], [Laurent(), t - 1]])
    u, d, v = smith_normal_form_poly(m)
    assert invariant_factors(m) == poly_diagonal(d) == [one, (t - 1) * (t - 1)]
    assert (u @ m @ v) == d


def _random_laurent(rng, max_degree=3):
    return Poly({rng.randint(-1, max_degree): rng.randint(-3, 3)
                    for _ in range(rng.randint(0, 3))})


def _check_poly_snf(m: Matrix):
    """The library's invariant factors equal the diagonal of the oracle's
    U A V = D, whose transforms are checked to be unimodular."""
    u, d, v = smith_normal_form_poly(m)
    assert (u @ m @ v) == d
    assert len(det_poly(u).terms) == len(det_poly(v).terms) == 1
    got = invariant_factors(m)
    assert got == poly_diagonal(d)
    for x in got:
        if x:
            assert x.valuation() == 0 and x.terms[x.degree()] == 1
    nonzero = [x for x in got if x]
    assert [bool(x) for x in got] == [True] * len(nonzero) + [False] * (len(got) - len(nonzero))
    for i in range(len(nonzero) - 1):
        assert divides(nonzero[i], nonzero[i + 1])


def test_snf_poly_random_200():
    rng = random.Random(23)
    for _ in range(200):
        rows = rng.randint(1, 4)
        cols = rng.randint(1, 4)
        m = Matrix(rows, cols, [[_random_laurent(rng) for _ in range(cols)]
                                for _ in range(rows)])
        _check_poly_snf(m)


def _monomial(rng):
    return Poly({rng.randint(-2, 2): rng.choice((-2, -1, 1, 2))})


def _unit_rich(rng) -> Matrix:
    """A 5x5 to 8x8 matrix shaped like a cover boundary: about half its
    entries monomials +-c t^k, and a core of one to three binomials or
    trinomials on the diagonal of its last rows, mixed into the rest by a few
    elementary row and column operations by monomials; sometimes one row is
    a monomial times another.  Its elimination runs a chain of unit steps,
    then non-unit pivots, often with offender fix-ups."""
    rows, cols = rng.randint(5, 8), rng.randint(5, 8)
    t = Poly({1: 1})
    core = rng.sample([t - 1, t + 1, t - 2, t * 2 - 1, t * t + 1, t * t - t + 1], rng.randint(1, 3))
    a = [[_monomial(rng) if rng.random() < 0.5 else Poly() for _ in range(cols)]
         for _ in range(rows)]
    for i, p in enumerate(core):
        a[rows - 1 - i] = [Poly()] * cols
        a[rows - 1 - i][cols - 1 - i] = p
    for _ in range(rng.randint(2, 5)):
        i, j = rng.sample(range(rows), 2)
        q = _monomial(rng)
        a[i] = [x + q * y for x, y in zip(a[i], a[j])]
        i, j = rng.sample(range(cols), 2)
        q = _monomial(rng)
        for row in a:
            row[i] = row[i] + q * row[j]
    if rng.random() < 0.3:
        i, j = rng.sample(range(rows), 2)
        q = _monomial(rng)
        a[i] = [q * y for y in a[j]]
    rng.shuffle(a)
    return Matrix(rows, cols, a)


def test_snf_poly_unit_rich(monkeypatch):
    """Cover boundaries reach 15x15 and are full of units; these matrices
    take the unit step many times before the non-unit pivots and fix-ups,
    and must still give the oracle's invariant factors."""
    fixups = []
    divides_poly = matrices._divides

    def counting(b, a):
        fixups.append(not divides_poly(b, a))
        return not fixups[-1]

    monkeypatch.setattr(matrices, "_divides", counting)
    rng = random.Random(41)
    factors = []
    for _ in range(40):
        m = _unit_rich(rng)
        _check_poly_snf(m)
        factors.append(invariant_factors(m))
    assert any(fixups)
    assert sum(any(not x for x in fs) for fs in factors) >= 5  # rank deficient
    assert sum(any(x and x.degree() > 0 for x in fs) for fs in factors) >= 20  # torsion


def test_snf_poly_pivot_stays_least_in_its_new_cross():
    """When a column swap brings in a smaller entry of the cross, the elimination
    re-chooses the pivot before it divides: it used to divide by the larger pivot
    and fail with StopIteration."""
    t = Poly({1: 1})
    one = Poly({0: 1})
    _check_poly_snf(Matrix(3, 3, [
        [t - 1, Poly(), t * t * 2 - t * 2 - 1],
        [t * t * t - t * 2 + 2, t * t + t - 1, Poly()],
        [t - 1, Poly(), t * t * 2 - t * 2 + 1]]))
    _check_poly_snf(Matrix(3, 3, [
        [-one, t * t * t - t * t - t - 2, -(t * t * t - t * t - t - 2)],
        [one, Poly(), Poly()],
        [one, Poly(), one]]))


def test_snf_poly_without_progress_raises(monkeypatch):
    """With a divisibility test that always fails, every pivot takes in an
    offending row forever; the progress guard raises instead, at once."""
    monkeypatch.setattr(matrices, "_divides", lambda b, a: False)
    start = time.perf_counter()
    with pytest.raises(ArithmeticError, match="no progress in the Smith elimination"):
        alexander_data(catalog_complex("t3").complex, [1, 0, 0])
    assert time.perf_counter() - start < 5


def test_snf_poly_rational_entries():
    """Fraction coefficients, with denominators that differ within a row and
    bare Fraction or int entries, are cleared on entry: the result still
    equals the oracle's."""
    f = Fraction
    _check_poly_snf(Matrix(2, 3, [
        [Laurent({0: f(1, 2), 1: f(1, 3)}), Laurent({1: f(3, 4)}), f(5, 6)],
        [Laurent({0: f(2, 5)}), Laurent({-1: f(-1, 3), 1: f(1, 6)}), 7]]))
    rng = random.Random(29)
    for _ in range(100):
        rows = rng.randint(1, 4)
        cols = rng.randint(1, 4)
        m = Matrix(rows, cols, [[Laurent({rng.randint(-1, 3): f(rng.randint(-3, 3), rng.randint(1, 6))
                                          for _ in range(rng.randint(0, 3))})
                                 for _ in range(cols)] for _ in range(rows)])
        _check_poly_snf(m)


def test_kernel_basis_examples():
    t = Poly({1: 1})
    one = Poly({0: 1})
    k = kernel_basis_poly(Matrix(2, 2, [[one, Laurent()], [Laurent(), one]]))
    assert k.cols == 0
    k = kernel_basis_poly(Matrix(1, 3, [[Laurent()] * 3]))
    assert k.cols == 3
    k = kernel_basis_poly(Matrix(1, 2, [[t - 1, one - t]]))
    assert k.cols == 1
    assert k[0, 0] == one and k[1, 0] == one


def test_kernel_basis_random():
    rng = random.Random(29)
    for _ in range(100):
        rows = rng.randint(1, 3)
        cols = rng.randint(1, 4)
        m = Matrix(rows, cols, [[_random_laurent(rng, 2) for _ in range(cols)]
                                for _ in range(rows)])
        k = kernel_basis_poly(m)
        if k.cols:
            assert not any(x for row in (m @ k).entries for x in row)
        # rank over the fraction field + kernel columns = total columns, with
        # the rank from Bareiss and from the library's invariant factors
        assert k.cols == cols - matrix_rank(m)
        assert k.cols == cols - sum(1 for x in invariant_factors(m) if x)


def test_integer_kernel_basis():
    m = Matrix(1, 3, [[2, -1, 0]])
    basis = integer_kernel_basis(m)
    assert len(basis) == 2
    for v in basis:
        assert 2 * v[0] - v[1] == 0


def test_certified_rank_on_engineered_low_rank():
    """Big-entry rank-deficient products force the multi-prime certificates."""
    rng = random.Random(0)
    from twisthom.matrices import certified_rank
    for _ in range(30):
        n, r = rng.randint(2, 7), rng.randint(1, 3)
        b = [[rng.randint(-10 ** 9, 10 ** 9) for _ in range(r)] for _ in range(n)]
        c = [[rng.randint(-10 ** 9, 10 ** 9) for _ in range(n)] for _ in range(r)]
        a = [[sum(b[i][k] * c[k][j] for k in range(r)) for j in range(n)]
             for i in range(n)]
        got = certified_rank(np.array(a, dtype=object).reshape(n, n, 1), 1)
        assert got == matrix_rank(Matrix(n, n, a))
        assert got <= r
    for _ in range(20):
        cond = rng.choice([3, 4, 5, 7, 8, 12])
        phi = euler_phi(cond)
        n, r = rng.randint(2, 5), rng.randint(1, 2)

        def rc():
            return Cyclo(cond, [rng.randint(-4, 4) for _ in range(phi)])

        b = [[rc() for _ in range(r)] for _ in range(n)]
        c = [[rc() for _ in range(n)] for _ in range(r)]
        a = [[sum((b[i][k] * c[k][j] for k in range(r)), Cyclo.zero())
              for j in range(n)] for i in range(n)]
        m = Matrix(n, n, a)
        assert fast_rank(m) == matrix_rank(m) <= r


def test_fast_rank_matches_spec_rank_random():
    rng = random.Random(31)
    for _ in range(100):
        rows = rng.randint(1, 5)
        cols = rng.randint(1, 5)
        m = Matrix(rows, cols, [[Fraction(rng.randint(-9, 9), rng.randint(1, 4))
                                 for _ in range(cols)] for _ in range(rows)])
        assert fast_rank(m) == matrix_rank(m)
