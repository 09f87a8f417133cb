"""The split-prime certified rank against Bareiss, and its prime count."""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from oracles import matrix_rank, rank_mod_p_reference
from twisthom.complexes import Boundary, catalog_complex
from twisthom.groups import PermAction, reidemeister_schreier
from twisthom import matrices
from twisthom.homology import BoundaryError, specialize, subquotient_dims
from twisthom.matrices import (Matrix, _evaluate_mod_p, _rank_mod_p,
                               certified_rank, fast_rank, lift_cyclo,
                               reduce_cyclotomic, split_primes)
from twisthom.numbers import Cyclo, euler_phi
from twisthom.reps import (explicit_rep, induce_rep, invariant_coinvariant_split,
                           permutation_rep, torsion_characters)

CONDUCTORS = (1, 3, 4, 5, 8, 12, 23)
SETTINGS = settings(max_examples=60, deadline=None,
                    suppress_health_check=[HealthCheck.too_slow])


@st.composite
def cyclo_entries(draw, n: int, rational: bool):
    phi = euler_phi(n)
    if not draw(st.integers(0, 3)):
        return Cyclo.zero(n)
    nums = draw(st.lists(st.integers(-3, 3), min_size=phi, max_size=phi))
    dens = draw(st.lists(st.integers(1, 4) if rational else st.just(1),
                         min_size=phi, max_size=phi))
    return Cyclo(n, [Fraction(a, b) for a, b in zip(nums, dens)])


@st.composite
def cyclo_matrices(draw):
    """A random matrix over Q(zeta_n), or a low-rank product B @ C."""
    n = draw(st.sampled_from(CONDUCTORS))
    side = 3 if n == 23 else 4
    rows, cols = draw(st.integers(1, side)), draw(st.integers(1, side))
    entry = cyclo_entries(n, draw(st.booleans()))

    def matrix(r, c):
        return Matrix(r, c, [[draw(entry) for _ in range(c)] for _ in range(r)])

    if draw(st.booleans()):
        inner = draw(st.integers(1, 2))
        return matrix(rows, inner) @ matrix(inner, cols)
    return matrix(rows, cols)


@SETTINGS
@given(cyclo_matrices())
def test_split_prime_rank_equals_bareiss(m):
    assert fast_rank(m) == matrix_rank(m)


@SETTINGS
@given(st.sampled_from(CONDUCTORS), st.data())
def test_rank_of_stacked_copies(n, data):
    """Stacking a matrix on a Q(zeta_n)-multiple of itself keeps the rank."""
    m = data.draw(cyclo_matrices())
    scale = data.draw(cyclo_entries(n, True))
    stacked = Matrix(2 * m.rows, m.cols, m.entries + [[scale * x for x in row]
                                                      for row in m.entries])
    assert fast_rank(stacked) == fast_rank(m) == matrix_rank(m)


@pytest.mark.parametrize("n", [1, 5, 12])
def test_prime_count_is_certified(n):
    """Entries prod (zeta_n - r_i) vanish modulo each of the first three split
    primes; the certified rank still finds the true rank 2."""
    primes = split_primes(n, 3)
    assert all((p - 1) % n == 0 and 2 ** 30 < p < 2 ** 31 for p, _ in primes)
    zeta = Cyclo.root_of_unity(n) if n > 1 else Cyclo.one()
    entry = Cyclo.one()
    for _, r in primes:
        entry = entry * (zeta - r)
    if n == 1:  # zeta - r is 0 for n = 1: use the primes themselves instead
        entry = Cyclo.from_rational(primes[0][0] * primes[1][0] * primes[2][0])
    m = Matrix(2, 2, [[entry, Cyclo.zero()], [Cyclo.zero(), entry]])
    a, den = lift_cyclo(m.entries, n)
    assert den == 1
    for p, r in primes:
        assert _rank_mod_p(_evaluate_mod_p(a, p, r), p) == []
    assert certified_rank(a, n) == matrix_rank(m) == 2


def test_prime_count_follows_the_smaller_norm(monkeypatch):
    """The certificate bounds each entry by the smaller L1 norm of the array
    as given and of its reduction modulo Phi_n, whichever that is.  At the
    prime n = 31, x^30 reduces to -(1 + x + ... + x^29), of norm 30, and
    1 + x + ... + x^30 + x (norm 32) reduces to x.  A 2 x 2 array of one
    such entry then has H = 2 (two rows of norm sqrt(2)) and asks for 2
    primes, where the larger norm would ask for 11 or 12."""
    n = 31
    counts = []
    original = split_primes

    def recorded(n, count):
        counts.append(count)
        return original(n, count)

    monkeypatch.setattr(matrices, "split_primes", recorded)
    power = np.zeros(n, dtype=np.int64)
    power[n - 1] = 1
    geometric = np.ones(n, dtype=np.int64)
    geometric[1] += 1
    for entry, reduced_norm, given_norm in ((power, n - 1, 1), (geometric, 1, n + 1)):
        a = np.broadcast_to(entry, (2, 2, n))  # rank 1
        red = reduce_cyclotomic(a, n)
        assert np.abs(red[0, 0]).sum() == reduced_norm and np.abs(a[0, 0]).sum() == given_norm
        counts.clear()
        assert certified_rank(a, n) == 1
        assert counts == [2]
        assert certified_rank(red, n) == 1


# the first split prime of n = 1 and of n = 12
RESIDUE_PRIMES = (split_primes(1, 1)[0][0], split_primes(12, 1)[0][0])


def _residue_matrix(rng, p: int, rows: int, cols: int, density: float,
                    inner: int | None, small: bool) -> np.ndarray:
    """A seeded int64 matrix of residues mod p: nonzero with probability
    density, from {+-1, +-2} or from all of F_p; for an ``inner`` size, the
    product mod p of two such factors, of rank at most inner.  About one row
    and one column in five are then zeroed."""
    def factor(r, c):
        values = (rng.choice([1, 2, p - 2, p - 1], (r, c)) if small
                  else rng.integers(1, p, (r, c)))
        return np.where(rng.random((r, c)) < density, values, 0).astype(np.int64)

    if inner is None:
        m = factor(rows, cols)
    else:  # in Python ints: a sum of products of residues overflows int64
        m = (factor(rows, inner).astype(object) @ factor(inner, cols).astype(object)
             % p).astype(np.int64)
    m[rng.random(rows) < 0.2] = 0
    m[:, rng.random(cols) < 0.2] = 0
    return m


def _perm_block_residues(rng, p: int, block_rows: int, block_cols: int, d: int = 4):
    """A seeded residue matrix of d x d blocks, each 0 or I - P for a random
    permutation matrix P (entries 1 and p - 1): the shape of the boundaries
    of pi1(T^3) * pi1(T^3) under its permutation reps of degree 4, 4 x 24
    for d1 and 24 x 24 for d2."""
    m = np.zeros((block_rows * d, block_cols * d), dtype=np.int64)
    for i in range(block_rows):
        for j in range(block_cols):
            if rng.random() < 0.5:
                block = np.eye(d, dtype=np.int64)
                block[np.arange(d), rng.permutation(d)] -= 1
                m[i * d:(i + 1) * d, j * d:(j + 1) * d] = block % p
    return m


def _assert_kernel_matches_reference(m: np.ndarray, p: int):
    before = m.copy()
    assert matrices._rank_mod_p(m, p) == rank_mod_p_reference(m, p)
    assert np.array_equal(m, before), "the kernel changed its input"


@SETTINGS
@given(st.sampled_from(RESIDUE_PRIMES), st.integers(0, 30), st.integers(0, 30),
       st.sampled_from((0.05, 0.25, 1.0)), st.booleans(), st.booleans(),
       st.integers(0, 2 ** 32 - 1), st.data())
def test_rank_mod_p_matches_reference_loop(p, rows, cols, density, small, low_rank,
                                           seed, data):
    """The sparse echelon kernel finds the pivots of the dense column loop on
    sparse, dense and low-rank residue matrices up to 30 x 30, with zero
    rows and columns, and on sparse +-1 matrices of blocks I - P, 4 x 24 and
    24 x 24, and leaves its input as it was."""
    rng = np.random.default_rng(seed)
    blocks = data.draw(st.sampled_from((None, (1, 6), (6, 6))))
    if blocks is not None:
        m = _perm_block_residues(rng, p, *blocks)
    else:
        inner = data.draw(st.integers(0, min(rows, cols))) if low_rank else None
        m = _residue_matrix(rng, p, rows, cols, density, inner, small)
    _assert_kernel_matches_reference(m, p)


def test_rank_of_huge_entries_uses_python_ints():
    big = 2 ** 70 + 1
    m = Matrix(2, 2, [[big, big + 1], [big - 1, big]])
    a, _ = lift_cyclo(m.entries, 1)
    assert a.dtype == object
    assert fast_rank(m) == matrix_rank(m) == 2


def _broken(cx, k):
    """The complex with one extra identity term in entry (0, 0) of d_k."""
    b = cx.boundaries[k]
    broken = Boundary(b.rows, b.cols, list(b.items()) + [((0, 0, ()), 1)])
    return type(cx)(cx.group, cx.ranks, cx.boundaries[:k] + (broken,) + cx.boundaries[k + 1:])


def test_broken_boundary_raises_on_every_path():
    t3 = catalog_complex("t3").complex
    g = t3.group
    z = Cyclo.root_of_unity(4)
    perm = permutation_rep(g, PermAction(g, [(1, 2, 0), (2, 0, 1), (0, 1, 2)]))
    action = PermAction(g, [(1, 0), (0, 1), (0, 1)])
    count = reidemeister_schreier(g, action)[0].num_generators
    induced = induce_rep(g, action, [Matrix(2, 2, [[z, Cyclo.zero()],
                                                   [Cyclo.zero(), z]])] * count, 2)
    dense = explicit_rep(g, [Matrix(2, 2, [[z, Cyclo.zero()], [Cyclo.zero(), Cyclo.one()]])] * 3)
    lens = catalog_complex("lens", [5, 1]).complex
    for cx, rep in ((t3, perm), (t3, induced), (t3, dense),
                    (lens, torsion_characters(lens.group)[2])):
        specialize(cx, rep)
        with pytest.raises(BoundaryError):
            specialize(_broken(cx, 1), rep)
    split = invariant_coinvariant_split(dense)
    subquotient_dims(t3, dense, split)
    with pytest.raises(BoundaryError):
        subquotient_dims(_broken(t3, 1), dense, split)


def test_certified_rank_degenerate_arrays():
    assert certified_rank(np.zeros((0, 3, 1), dtype=np.int64), 1) == 0
    assert certified_rank(np.zeros((2, 2, 4), dtype=np.int64), 5) == 0


def test_too_few_split_primes_raise(monkeypatch):
    """With fewer split primes than the certificate needs there is no
    fallback: the rank is refused."""
    original = split_primes
    monkeypatch.setattr(matrices, "split_primes", lambda n, count: original(n, 1))
    big = Cyclo.from_rational(2 ** 40)  # the certificate needs 11 primes
    a, _ = lift_cyclo([[Cyclo.root_of_unity(5), big], [big, big]], 5)
    with pytest.raises(ValueError, match="split primes"):
        certified_rank(a, 5)
