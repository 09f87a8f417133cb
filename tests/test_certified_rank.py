"""The split-prime certified rank against Bareiss, and its prime count."""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from oracles import (certified_pivots_reference, evaluate_mod_p_reference, matrix_rank,
                     rank_mod_p_reference)
from twisthom.complexes import Boundary, catalog_complex
from twisthom.groups import PermAction, reidemeister_schreier
from twisthom import matrices
from twisthom.homology import BoundaryError, homology_dims, specialize, subquotient_dims
from twisthom.matrices import (Matrix, _evaluate_mod_p, _rank_mod_p, certified_pivots,
                               certified_rank, fast_rank, lift_cyclo, max_abs,
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
    primes; the certified rank still finds the true rank 2.  For n = 1 each
    elimination is exact on a zero matrix, but it is not the integer matrix,
    so the exact route must not take it."""
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
        assert _rank_mod_p(_evaluate_mod_p(a, p, r), p) == ([], True)
    assert certified_rank(a, n) == matrix_rank(m) == 2


def _recorded_requests(monkeypatch) -> list[int]:
    """The counts of every ``split_primes`` request from here on."""
    counts, original = [], split_primes

    def recorded(n, count):
        counts.append(count)
        return original(n, count)

    monkeypatch.setattr(matrices, "split_primes", recorded)
    return counts


def test_prime_count_follows_the_smaller_norm(monkeypatch):
    """The certificate bounds each entry by the smaller L1 norm of the array
    as given and of its reduction modulo Phi_n, whichever that is.  At the
    prime n = 31, x^30 reduces to -(1 + x + ... + x^29), of norm 30, and
    1 + x + ... + x^30 + x (norm 32) reduces to x.  A 2 x 2 array of one
    such entry then has H = 2 (two rows of norm sqrt(2)) and asks for 2
    primes, where the larger norm would ask for 11 or 12.  The one prime
    asked for first is the elimination that runs before the bound."""
    n = 31
    counts = _recorded_requests(monkeypatch)
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
        first, *certificate = counts
        assert first == 1 and certificate == [2]
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


def _signed_representatives(rng, m: np.ndarray, p: int) -> np.ndarray:
    """Representatives in (-p, p) of a seeded row scaling of the residues m,
    which keeps m's pivots.  About one nonzero row in three is scaled to the
    lead p - 1, written -1, and one in five so that one of its entries is
    p//2 or p//2 + 1.  Each other nonzero residue x is then kept or shifted
    to x - p at random, so those two appear as +-(p//2) and +-(p//2 + 1),
    the two sides of the range the kernel keeps unreduced."""
    h = p // 2
    s, leads = m.copy(), []
    for i, row in enumerate(m):
        nonzero, u = row.nonzero()[0], rng.random()
        if not nonzero.size or u >= 1 / 3 + 1 / 5:
            continue
        if u < 1 / 3:
            j, target = nonzero[0], p - 1
            leads.append((i, j))
        else:
            j, target = rng.choice(nonzero), int(rng.choice([h, h + 1]))
        s[i] = row * (target * pow(int(row[j]), -1, p) % p) % p  # below 2^62
    s = np.where((s != 0) & (rng.random(s.shape) < 0.5), s - p, s)
    for i, j in leads:
        s[i, j] = -1
    return s


def _assert_kernel_matches_reference(m: np.ndarray, p: int):
    """The kernel's pivots of m, residues in (-p, p), are the reference's of
    their [0, p) form, and m is left as it was.  An elimination that reports
    itself exact was an integer one, so its rank is that of m over Q."""
    before = m.copy()
    pivots, exact = matrices._rank_mod_p(m, p)
    assert pivots == rank_mod_p_reference(m % p, p)
    assert np.array_equal(m, before), "the kernel changed its input"
    if exact:
        assert len(pivots) == matrix_rank(Matrix(*m.shape, m.tolist()))


def _drawn_residues(p, rows, cols, density, small, low_rank, rng, data) -> np.ndarray:
    blocks = data.draw(st.sampled_from((None, (1, 6), (6, 6))))
    if blocks is not None:
        return _perm_block_residues(rng, p, *blocks)
    inner = data.draw(st.integers(0, min(rows, cols))) if low_rank else None
    return _residue_matrix(rng, p, rows, cols, density, inner, small)


RESIDUE_MATRICES = (st.sampled_from(RESIDUE_PRIMES), st.integers(0, 30), st.integers(0, 30),
                    st.sampled_from((0.05, 0.25, 1.0)), st.booleans(), st.booleans(),
                    st.integers(0, 2 ** 32 - 1), st.data())


@SETTINGS
@given(*RESIDUE_MATRICES)
def test_rank_mod_p_matches_reference_loop(p, rows, cols, density, small, low_rank,
                                           seed, data):
    """The sparse echelon kernel finds the pivots of the dense column loop on
    sparse, dense and low-rank residue matrices up to 30 x 30, with zero
    rows and columns, and on sparse +-1 matrices of blocks I - P, 4 x 24 and
    24 x 24, and leaves its input as it was."""
    rng = np.random.default_rng(seed)
    _assert_kernel_matches_reference(
        _drawn_residues(p, rows, cols, density, small, low_rank, rng, data), p)


@SETTINGS
@given(*RESIDUE_MATRICES)
def test_rank_mod_p_takes_signed_residues(p, rows, cols, density, small, low_rank,
                                          seed, data):
    """The same matrices, their rows rescaled and their representatives
    shifted into (-p, p) at random, with entries at +-(p//2) and
    +-(p//2 + 1) and rows led by -1: the kernel finds the reference's
    pivots of the [0, p) form."""
    rng = np.random.default_rng(seed)
    m = _drawn_residues(p, rows, cols, density, small, low_rank, rng, data)
    _assert_kernel_matches_reference(_signed_representatives(rng, m, p), p)


@pytest.mark.parametrize("p", RESIDUE_PRIMES)
def test_evaluate_mod_p_passes_small_single_coefficients_through(p):
    """Single-coefficient int64 entries up to |a| = p//2 come back as they
    are, as a view; p//2 + 1, object arrays and several coefficients are
    reduced.  Every image is the right residue and lies in (-p, p)."""
    h = p // 2
    small = np.array([[0, 1, -1], [h, -h, 2]], dtype=np.int64)[..., None]
    out = _evaluate_mod_p(small, p, 1)
    assert np.shares_memory(out, small) and np.array_equal(out, small[..., 0])
    r = split_primes(12, 1)[0][1] if p == RESIDUE_PRIMES[1] else 1
    past_half = small + np.array([[0, 0, 0], [1, -1, 0]])[..., None]  # +-(p//2 + 1)
    two_coefficients = np.array([[[3, -h - 1], [h + 1, 0]], [[-1, 1], [2 ** 40, -5]]])
    cases = [(past_half, [1]), (small.astype(object), [1]),
             (small.astype(object) * 2 ** 70, [1]), (two_coefficients, [1, r])]
    for a, powers in cases:
        out = _evaluate_mod_p(a, p, r)
        assert out.dtype == np.int64 and not np.shares_memory(out, a)
        assert np.all(np.abs(out) < p)
        want = sum(a[..., i].astype(object) * x for i, x in enumerate(powers))
        assert np.all((out.astype(object) - want) % p == 0)


def test_rank_leaves_specialized_boundaries_unchanged():
    """At n <= 2 the kernel reads a view of each single-coefficient boundary:
    ``homology_dims`` and ``certified_pivots`` leave them bitwise as they were."""
    t3 = catalog_complex("t3").complex
    g = t3.group
    perm = permutation_rep(g, PermAction(g, [(1, 2, 0), (2, 0, 1), (0, 1, 2)]))
    lens = catalog_complex("lens", [4, 1]).complex
    blocks = [specialize(t3, perm)] + [specialize(lens, ch)
                                       for ch in torsion_characters(lens.group)]
    signs = np.array([[[1], [-1]], [[-1], [1]]], dtype=np.int64)
    for b in blocks:
        before = [a.copy() for a in b.boundaries]
        homology_dims(b)
        for a in b.boundaries:
            matrices.certified_pivots(a, b.conductor)
        assert all(a.dtype == c.dtype and a.tobytes() == c.tobytes()
                   for a, c in zip(b.boundaries, before))
    before = signs.copy()
    assert matrices.certified_pivots(signs, 2) == [0]
    assert signs.tobytes() == before.tobytes()


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
    fallback: the rank is refused.  The array has rank 1 of 2, so the first
    prime does not end the certificate."""
    original = split_primes
    monkeypatch.setattr(matrices, "split_primes", lambda n, count: original(n, 1))
    big = Cyclo.from_rational(2 ** 40)  # the certificate needs 11 primes
    a, _ = lift_cyclo([[big, big], [big, big]], 5)
    with pytest.raises(ValueError, match="split primes"):
        certified_rank(a, 5)


def _cyclo_array(n: int, rows) -> np.ndarray:
    """The integer array a[R, C, n] of rows of coefficient lists over
    Z[x]/(x^n - 1), each padded with zeros to n."""
    return np.array([[c + [0] * (n - len(c)) for c in row] for row in rows], dtype=object)


@pytest.mark.parametrize("n", [3, 5, 12])
def test_full_rank_at_the_first_prime_needs_no_bound(monkeypatch, n):
    """[[x, 2^40], [1, x^2]] has determinant x^3 - 2^40, nonzero over
    Q(zeta_n), and its bound would ask for 3 or 6 primes.  It reaches full
    rank at the first split prime, which no prime can raise: the certificate
    makes the one request for that prime and no other."""
    a = _cyclo_array(n, [[[0, 1], [2 ** 40]], [[1], [0, 0, 1]]])
    counts = _recorded_requests(monkeypatch)
    pivots = certified_pivots(a, n)
    assert counts == [1]
    assert pivots == [0, 1] == certified_pivots_reference(a, n)


# Integer matrices of determinant P1 = 2^31 - 1, the first split prime of
# n = 1 and of n = 2, with every entry in [-P1//2, P1//2]: the elimination
# mod P1 loses one rank, after inverting the lead 4 (4 * 2^29 = 1 mod P1),
# or after reducing differences that leave that range, the last entry of
# the third row becoming P1 - 7 * 10^8 and then P1, which is 0 mod P1.
P1 = RESIDUE_PRIMES[0]
EXACT_ROUTE_TRAPS = {
    "a non-unit lead": [[4, 1], [1, 2 ** 29]],
    "a reduction mod p": [[1, 0, -7 * 10 ** 8], [0, 1, -7 * 10 ** 8],
                          [1, 1, P1 - 14 * 10 ** 8]],
}


@pytest.mark.parametrize("trap", EXACT_ROUTE_TRAPS)
def test_exact_route_needs_unit_leads_and_no_reduction(trap):
    """The first prime's elimination of each trap passes it through as it
    stands but is not exact, so the certificate takes more primes and finds
    the full rank over Q, at n = 1 and n = 2."""
    rows = EXACT_ROUTE_TRAPS[trap]
    a = np.array(rows, dtype=np.int64)[..., None]
    assert P1 == 2 ** 31 - 1 == split_primes(2, 1)[0][0] and max_abs(a) <= P1 // 2
    assert np.shares_memory(_evaluate_mod_p(a, P1, 1), a)  # passed through
    pivots, exact = _rank_mod_p(a[..., 0], P1)
    assert len(pivots) == len(rows) - 1 and not exact
    full = matrix_rank(Matrix(len(rows), len(rows), rows))
    assert full == len(rows)
    for n in (1, 2):
        assert certified_rank(a, n) == full, n


@st.composite
def planted_integer_arrays(draw):
    """A single-coefficient integer array a[R, C, 1] for n = 1 or 2, sparse,
    with entries +-1 alone or from +-1 to 2^40 on both sides of P1//2, and
    with one of the traps above planted at random rows (zero elsewhere) and
    columns.  For n = 2 it may come as a[R, C, 2] = (a + s, s), which
    reduces to a."""
    n = draw(st.sampled_from((1, 2)))
    rows, cols = draw(st.integers(1, 8)), draw(st.integers(1, 8))
    values = st.sampled_from(draw(st.sampled_from((
        (0, 0, 1, -1), (0, 0, 0, 1, -1, 2, -3, P1 // 2, -(P1 // 2), P1 // 2 + 1, 2 ** 40)))))
    a = np.array(draw(st.lists(values, min_size=rows * cols, max_size=rows * cols)),
                 dtype=np.int64).reshape(rows, cols, 1)
    trap = draw(st.sampled_from((None, *EXACT_ROUTE_TRAPS.values())))
    if trap is not None and len(trap) <= min(rows, cols):
        r = draw(st.permutations(range(rows)))[:len(trap)]
        c = draw(st.permutations(range(cols)))[:len(trap)]
        a[r] = 0
        a[np.ix_(r, c, [0])] = np.array(trap)[..., None]
    if n == 2 and draw(st.booleans()):
        s = np.array(draw(st.lists(st.integers(-2, 2), min_size=rows * cols,
                                   max_size=rows * cols))).reshape(rows, cols, 1)
        a = np.concatenate([a + s, s], axis=-1)
    return a, n


def _vanishing_at_the_first_prime(n: int) -> list[int]:
    """The coefficients of x - r over Z[x]/(x^n - 1), r the root of the first
    split prime of n: an entry whose image at that prime alone is 0."""
    return [-split_primes(n, 1)[0][1], 1]


@st.composite
def planted_cyclotomic_arrays(draw):
    """An integer array a[R, C, m] over Z[x]/(x^n - 1), n in {3, 5, 12} and
    m <= n, sparse, with entries from +-1 alone or up to 2^40 (evaluated in
    Python ints), and at random one entry x - r planted alone in its row and
    column, which vanishes at the first split prime only: that prime then
    sees a rank one short."""
    n = draw(st.sampled_from((3, 5, 12)))
    rows, cols, m = draw(st.integers(1, 6)), draw(st.integers(1, 6)), draw(st.integers(2, n))
    values = st.sampled_from(draw(st.sampled_from(((0, 0, 0, 1, -1), (0, 0, 0, 1, -2, 2 ** 40)))))
    a = np.array(draw(st.lists(values, min_size=rows * cols * m, max_size=rows * cols * m)),
                 dtype=object).reshape(rows, cols, m)
    if draw(st.booleans()):
        i, j = draw(st.integers(0, rows - 1)), draw(st.integers(0, cols - 1))
        a[i], a[:, j] = 0, 0
        a[i, j, :2] = _vanishing_at_the_first_prime(n)
    return a.astype(matrices.int_dtype(max_abs(a))), n


@SETTINGS
@given(st.one_of(planted_integer_arrays(), planted_cyclotomic_arrays()))
def test_certified_pivots_match_the_all_primes_loop(case):
    """Neither early return changes a pivot: ``certified_pivots`` returns
    those of the loop that computes the bound first, runs every certified
    prime and evaluates by Horner's rule, at n in {1, 2} (exact route) and
    n in {3, 5, 12} (full rank at the first prime)."""
    a, n = case
    assert certified_pivots(a, n) == certified_pivots_reference(a, n)


@pytest.mark.parametrize("n", [3, 5, 12])
def test_a_minor_vanishing_at_the_first_prime_takes_more_primes(n):
    """diag(x - r, 1), r the root of the first split prime: that prime sees
    rank 1 of 2, one short of full, so the certificate runs on and finds
    rank 2, as the all-primes loop does."""
    a = _cyclo_array(n, [[_vanishing_at_the_first_prime(n), [0]], [[0], [1]]])
    p, r = split_primes(n, 1)[0]
    assert _rank_mod_p(_evaluate_mod_p(reduce_cyclotomic(a, n), p, r), p)[0] == [1]
    assert certified_pivots(a, n) == [0, 1] == certified_pivots_reference(a, n)


def _assert_evaluation_matches_horner(a: np.ndarray, p: int, r: int):
    """``_evaluate_mod_p`` gives int64 residues in (-p, p) of a[R, C, m] at
    zeta_n -> r, those of Horner's rule mod p, and leaves a as it was."""
    before = a.copy()
    out = _evaluate_mod_p(a, p, r)
    assert out.dtype == np.int64 and out.shape == a.shape[:2]
    assert np.all(np.abs(out) < p)
    assert np.array_equal(out % p, evaluate_mod_p_reference(a, p, r))
    assert a.dtype == before.dtype and np.array_equal(a, before)


EVALUATION_CONDUCTORS = (3, 4, 5, 12, 23)
EVALUATION_SIZES = ("one", "int64", "past", "edge")


def _entry_range(size: str, m: int, p: int) -> tuple[int, int]:
    """The entries (lo, hi) of a case: +-1; up to the largest |a| that
    ``_evaluate_mod_p`` sums in int64 for m coefficients (max |a| m p below
    2^62, the bound of ``int_dtype``); up to one past it; or all of int64,
    -2^63 included."""
    last = (2 ** 62 - 1) // (m * p)
    return {"one": (-1, 1), "int64": (-last, last), "past": (-last - 1, last + 1),
            "edge": (-2 ** 63, 2 ** 63 - 1)}[size]


@SETTINGS
@given(st.sampled_from(EVALUATION_CONDUCTORS), st.integers(0, 2), st.integers(0, 3),
       st.integers(0, 3), st.sampled_from(EVALUATION_SIZES), st.booleans(), st.data())
def test_evaluate_mod_p_matches_horner(n, prime, rows, cols, size, python_ints, data):
    """The matmul against the power row is Horner's rule mod p, for m from 1
    to n coefficients, on int64 arrays up to and past the largest entries it
    sums in int64 and over all of int64, and on the same arrays of Python
    ints.  One entry sits at an end of the range."""
    m = data.draw(st.integers(1, n))
    p, r = split_primes(n, 3)[prime]
    lo, hi = _entry_range(size, m, p)
    a = np.array(data.draw(st.lists(st.integers(lo, hi), min_size=rows * cols * m,
                                    max_size=rows * cols * m)),
                 dtype=object).reshape(rows, cols, m)
    if a.size:
        a[0, 0, -1] = data.draw(st.sampled_from((lo, hi)))
    _assert_evaluation_matches_horner(a if python_ints else a.astype(np.int64), p, r)


def test_int64_minimum_is_read_exactly():
    """|-2^63| wraps to -2^63 in int64.  Rows [x1, 1, 1], [x2, 1, 0] and
    [2 zeta, 0, 1] over Q(zeta_3), x1 = -2^63 + zeta and x2 = -2^63 - zeta,
    have rank 2 (row 1 = row 2 + row 3).  Summed in int64, x2 would wrap by
    2^64 at every prime and the rank would read a full 3."""
    assert max_abs(np.array([-2 ** 63, 1], dtype=np.int64)) == 2 ** 63
    a = np.array([[[-2 ** 63, 1], [1, 0], [1, 0]], [[-2 ** 63, -1], [1, 0], [0, 0]],
                  [[0, 2], [0, 0], [1, 0]]], dtype=np.int64)
    assert certified_pivots(a, 3) == [0, 1] == certified_pivots_reference(a, 3)
