"""Dense exact matrices and the normal-form kernels built on them.

A ``Matrix`` stores one scalar domain per instance (Fraction/int, Cyclo or
integer Laurent polynomials).  Everything here is exact, and the kernels run
on integers, with one elimination per ring:

- ranks and column bases over Q and Q(zeta_n): ``certified_pivots``, and
  ``certified_rank``, their count.  It takes an integer array over
  Z[x]/(x^n - 1) as its caller assembled it, reduces it modulo Phi_n itself,
  evaluates it at zeta_n -> r over F_p for split primes p = 1 (mod n), one
  integer matmul against the power row of r, eliminates it, and certifies
  the result with a Hadamard bound on the norms of the minors, each entry
  bounded by the smaller L1 norm of its two representatives.  The
  elimination holds signed residues in (-p, p) and reduces a value mod p
  only when it leaves [-p//2, p//2], so the +-1 of a boundary stays a small
  Python int.  A first elimination that meets the rank's cap, min(R, C) or
  the less a caller proved, or that is an exact one of the integer matrix
  itself, needs no bound; one above the cap raises BoundaryError.  It has
  no fallback: when the interval of split primes cannot supply the
  certified count, it raises ValueError;
- Smith normal form over Z: ``smith_normal_form_int``, with U and V;
- Smith normal form over Q[t, t^-1]: ``_snf_poly``, the diagonal alone, on
  integer Laurent polynomials (below), in Python ints with exact integer
  pseudo-division; a unit pivot c t^v clears its column and drops its row.
  ``alexander`` keeps the ``_primitive_part`` of each non-unit diagonal
  entry of ``laurent_specialize``'s rows as a torsion polynomial.

``Cyclo`` is the one scalar type read here, by ``lift_cyclo``.  Degenerate
shapes (0 rows or columns) are legal everywhere and have rank 0.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from .numbers import Cyclo, as_fraction, cyclotomic_reduction_rows, euler_phi


class BoundaryError(ValueError):
    """Consecutive boundaries do not multiply to zero under a specialization,
    or a rank exceeds the cap that their product proved."""


class Matrix:
    """Immutable dense matrix over a single exact scalar domain."""

    __slots__ = ("rows", "cols", "entries")

    def __init__(self, rows: int, cols: int, entries):
        entries = [list(r) for r in entries]
        if len(entries) != rows or any(len(r) != cols for r in entries):
            raise ValueError(f"bad shape for {rows}x{cols} matrix")
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "cols", cols)
        object.__setattr__(self, "entries", entries)

    def __setattr__(self, *a):
        raise AttributeError("Matrix is immutable")

    @staticmethod
    def identity(n: int, one_scalar=1, zero_scalar=0) -> "Matrix":
        return Matrix(n, n, [[one_scalar if i == j else zero_scalar for j in range(n)]
                             for i in range(n)])

    def __getitem__(self, ij):
        i, j = ij
        return self.entries[i][j]

    def __eq__(self, other):
        if not isinstance(other, Matrix):
            return NotImplemented
        if (self.rows, self.cols) != (other.rows, other.cols):
            return False
        return all(self.entries[i][j] == other.entries[i][j]
                   for i in range(self.rows) for j in range(self.cols))

    def __hash__(self):
        return hash((self.rows, self.cols))

    def __matmul__(self, other: "Matrix") -> "Matrix":
        if self.cols != other.rows:
            raise ValueError(f"shape mismatch {self.rows}x{self.cols} @ {other.rows}x{other.cols}")
        out = []
        for i in range(self.rows):
            row = []
            for j in range(other.cols):
                acc = None
                for k in range(self.cols):
                    term = self.entries[i][k] * other.entries[k][j]
                    acc = term if acc is None else acc + term
                row.append(0 if acc is None else acc)
            out.append(row)
        return Matrix(self.rows, other.cols, out)

    def transpose(self) -> "Matrix":
        return Matrix(self.cols, self.rows,
                      [[self.entries[i][j] for i in range(self.rows)] for j in range(self.cols)])

    def column(self, j: int) -> list:
        return [self.entries[i][j] for i in range(self.rows)]

    def __repr__(self):
        return f"Matrix({self.rows}x{self.cols}, {self.entries!r})"


# ---------------------------------------------------------------------------
# integer arrays over Z[x]/(x^n - 1) and the certified split-prime rank
# ---------------------------------------------------------------------------
#
# An array a[..., m] with m <= n stands for the elements sum_i a[..., i] x^i of
# Z[x]/(x^n - 1), which map onto Z[zeta_n] by x -> zeta_n.  Arrays are int64
# while a bound on every value a computation can reach stays below 2^62, and
# object arrays of Python ints otherwise, so nothing wraps silently.

def int_dtype(bound: int):
    """int64 when no value can reach ``bound`` >= 2^62, else object (Python ints)."""
    return np.int64 if bound < 2 ** 62 else object


def max_abs(a: np.ndarray) -> int:
    """max |a|, exact also at -2^63, whose int64 abs wraps to -2^63 and is
    read back as the uint64 2^63."""
    if not a.size:
        return 0
    top = np.abs(a)
    return int((top.view(np.uint64) if top.dtype == np.int64 else top).max())


def ring_matmul(a: np.ndarray, b: np.ndarray, n: int) -> np.ndarray:
    """Matrix products over Z[x]/(x^n - 1), batched over leading axes:
    a[..., i, k, m] @ b[..., k, j, m'] (m, m' <= n) -> [..., i, j, n].

    Only the powers x^s with a nonzero coefficient somewhere in a are
    multiplied, one integer matmul each.  The product's m' coefficients go
    to x^s .. x^(s+m'-1) as one contiguous slice, and those past x^(n-1)
    wrap round to x^0 as a second slice.  A first product at x^0 with m' = n
    is the output itself, so a single-coefficient a over n = 1 is one matmul.
    An all-zero a or b multiplies nothing: a boundary that specializes to 0
    (d1 of t3 under a trivial rep of dim 1024) would otherwise cost a full
    [1024, 3072] @ [3072, 3072] integer product, and a zero b would give the
    bound 0 and cast an a of Python ints to int64."""
    (k, j), m = b.shape[-3:-1], b.shape[-1]
    sizes = np.abs(a.reshape(-1, a.shape[-1])).max(axis=0, initial=0).tolist()
    powers = [s for s, x in enumerate(sizes) if x]
    if not powers or not (top := max_abs(b)):
        return np.zeros(np.broadcast_shapes(a.shape[:-3], b.shape[:-3]) + (a.shape[-3], j, n),
                        np.int64)
    dtype = int_dtype(max(sizes) * top * k * n)
    a, b = a.astype(dtype, copy=False), b.astype(dtype, copy=False)
    flat = b.reshape(b.shape[:-2] + (j * m,))
    out = None
    for s in powers:
        prod = a[..., s] @ flat
        prod = prod.reshape(prod.shape[:-1] + (j, m))
        if out is None:
            if s == 0 and m == n:
                out = prod
                continue
            out = np.zeros(prod.shape[:-1] + (n,), dtype)
        out[..., s:s + m] += prod[..., :n - s]
        if s + m > n:
            out[..., :s + m - n] += prod[..., n - s:]
    return out


@functools.cache
def _reduction(n: int) -> np.ndarray:
    rows = cyclotomic_reduction_rows(n)
    return np.array(rows, dtype=int_dtype(max(abs(c) for row in rows for c in row)))


@functools.cache
def _growth(n: int, m: int) -> int:
    """The largest L1 norm of a column of the first m reduction rows: reducing
    a[..., m] grows no coefficient by more than this factor."""
    return int(np.abs(_reduction(n)[:m]).sum(axis=0).max())


def reduce_cyclotomic(a: np.ndarray, n: int) -> np.ndarray:
    """Reduce a[..., m] (m <= n) modulo Phi_n: coefficients [..., phi(n)] in the
    power basis 1, zeta_n, ..., zeta_n^(phi(n)-1)."""
    red = _reduction(n)[:a.shape[-1]]
    if red.shape == (1, 1):
        return a
    dtype = int_dtype(max_abs(a) * _growth(n, a.shape[-1]))
    return a.astype(dtype, copy=False) @ red.astype(dtype, copy=False)


def lift_cyclo(entries, n: int) -> tuple[np.ndarray, int]:
    """Integer array a[R, C, n] and a common denominator with entries = a / den.

    Each Cyclo of conductor m | n is lifted to Z[x]/(x^n - 1) by placing its
    coefficient of zeta_m^i at x^(i n/m); no reduction happens.  Rational
    entries are allowed.
    """
    entries = [[x if isinstance(x, Cyclo) else Cyclo.from_rational(as_fraction(x))
                for x in row] for row in entries]
    den = math.lcm(1, *(c.denominator for row in entries for x in row for c in x.coeffs))
    out = np.zeros((len(entries), len(entries[0]) if entries else 0, n), dtype=object)
    for i, row in enumerate(entries):
        for j, x in enumerate(row):
            out[i, j, :len(x.coeffs) * (n // x.conductor):n // x.conductor] = \
                [c.numerator * (den // c.denominator) for c in x.coeffs]
    return out.astype(int_dtype(max_abs(out))), den


def _is_prime(p: int) -> bool:
    """Deterministic Miller-Rabin below 3 215 031 751 (bases 2, 3, 5, 7)."""
    if p in (2, 3, 5, 7):
        return True
    if p < 2 or any(p % q == 0 for q in (2, 3, 5, 7)):
        return False
    d, s = p - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in (2, 3, 5, 7):
        x = pow(a, d, p)
        # a witness: x is not +-1 and no repeated square of it reaches -1
        if x not in (1, p - 1) and all((x := x * x % p) != p - 1 for _ in range(s - 1)):
            return False
    return True


def _root_of_unity_mod(p: int, n: int) -> int:
    """A primitive n-th root of unity modulo the prime p = 1 (mod n)."""
    factors = [q for q in range(2, n + 1) if n % q == 0 and _is_prime(q)]
    for g in range(2, p):
        r = pow(g, (p - 1) // n, p)
        if all(pow(r, n // q, p) != 1 for q in factors):
            return r
    raise AssertionError("no primitive root")


_SPLIT_PRIMES: dict[int, list[tuple[int, int]]] = {}


def split_primes(n: int, count: int) -> list[tuple[int, int]]:
    """Up to ``count`` pairs (p, r): the largest primes 2^30 < p < 2^31 with
    p = 1 (mod n), descending, and r a primitive n-th root of unity mod p.

    With p below 2^31, ``_evaluate_mod_p`` sums m coefficients against the
    powers of r in int64 for every entry below 2^31 / m; the elimination
    itself runs on Python ints.  Fewer pairs come back only when the
    interval runs out of such primes.
    """
    got = _SPLIT_PRIMES.setdefault(n, [])
    step = n if n % 2 == 0 else 2 * n
    p = got[-1][0] - step if got else (2 ** 31 - 2) // step * step + 1
    while len(got) < count and p > 2 ** 30:
        if _is_prime(p):
            got.append((p, _root_of_unity_mod(p, n)))
        p -= step
    return got[:count]


def _rank_mod_p(m: np.ndarray, p: int) -> tuple[list[int], bool]:
    """Pivot columns over F_p of the int64 matrix m (left unchanged), whose
    entries are residues in (-p, p): the leads of an echelon basis {lead:
    rest of its row, scaled to lead 1}, the first independent columns,
    whatever representatives the elimination holds; and whether it was exact.

    The rows are dicts {col: residue} built from the nonzero entries of m
    alone, in row order; zero rows are never built.  Each row is reduced by
    the basis, its lead dropped each step, until its lead is new or it is 0.
    An updated entry is computed over Z and reduced mod p only when it
    leaves [-p//2, p//2], so every entry stays in (-p, p) and is 0 mod p
    exactly when it is 0, which drops it.  The +-1 of a boundary and the
    small values they combine into stay small Python ints.  A row
    whose new lead is 1 is stored as it stands and one whose lead is -1 is
    negated, with no inverse taken; any other lead is scaled by its inverse.
    Exact means neither such an inverse nor a reduction mod p was taken."""
    rows: dict[int, dict[int, int]] = {}
    r, c = m.nonzero()
    for i, j, x in zip(r.tolist(), c.tolist(), m[r, c].tolist()):
        rows.setdefault(i, {})[j] = x
    h, exact = p // 2, True
    basis: dict[int, dict[int, int]] = {}
    for v in rows.values():
        while v:
            lead = min(v)
            f = v.pop(lead)
            if lead not in basis:
                if f == -1:
                    v = {j: -x for j, x in v.items()}
                elif f != 1:
                    inv, exact = pow(f, -1, p), False
                    v = {j: x * inv % p for j, x in v.items()}
                basis[lead] = v
                break
            for j, x in basis[lead].items():  # v -= f * basis row, zeros dropped
                y = v.get(j, 0) - f * x
                if not -h <= y <= h:
                    y, exact = y % p, False
                if y:
                    v[j] = y
                else:
                    del v[j]
        if len(basis) == m.shape[1]:
            break
    return sorted(basis), exact


@functools.cache
def _power_row(p: int, r: int, m: int) -> np.ndarray:
    """(r^0, ..., r^(m-1)) mod p, kept with the prime."""
    return np.array([pow(r, i, p) for i in range(m)], dtype=np.int64)


def _evaluate_mod_p(a: np.ndarray, p: int, r: int) -> np.ndarray:
    """The image of a[R, C, m] under zeta_n -> r in F_p, as an int64 matrix
    of residues in (-p, p) for ``_rank_mod_p``.  A single-coefficient int64
    array whose entries all lie in [-p//2, p//2] is its own image, returned
    as the view a[..., 0] with no copy; any other array is reduced to [0, p).
    More than one coefficient is one integer matmul against the power row
    of r, then one reduction, in int64 when no sum can reach 2^62.
    Balancing those residues would cost more numpy work than their
    elimination saves."""
    m = a.shape[-1]
    if m == 1:
        a = a[..., 0]
        if a.dtype == np.int64 and max_abs(a) <= p // 2:
            return a
        return (a % p).astype(np.int64, copy=False)
    dtype = int_dtype(max_abs(a) * m * p)
    return (a.astype(dtype, copy=False) @ _power_row(p, r, m).astype(dtype, copy=False)
            % p).astype(np.int64, copy=False)


def _l1_norms(a: np.ndarray) -> np.ndarray:
    """Per-entry L1 norms of a[R, C, m]; |sigma(x)| <= L1(x) under every
    embedding sigma of Z[zeta_n], whichever representative x is."""
    if a.dtype == object:
        return np.abs(a).sum(axis=-1)
    if a.shape[-1] == 1:  # the same floats as the sum, without its reduction
        return np.abs(a[..., 0], dtype=np.float64)
    return np.abs(a, dtype=np.float64).sum(axis=-1)  # exact abs at -2^63


def _entry_bounds(a: np.ndarray, red: np.ndarray) -> np.ndarray:
    """Per-entry bounds [R, C]: the smaller L1 norm of each entry's two
    representatives, a[R, C, m] as given and red, its reduction modulo Phi_n."""
    if red is a:  # one coefficient at n <= 2 is its own reduction
        return _l1_norms(a)
    return np.minimum(_l1_norms(red), _l1_norms(a))


def _hadamard_bits(l1: np.ndarray) -> float:
    """log2 of H = prod over nonzero rows of ||row of l1||_2 for entry bounds
    l1[R, C]: |sigma(M)| <= H for every minor M by Hadamard's inequality.

    Each bound is the L1 norm of an integer vector, so a nonzero one is at
    least 1 and so is the squared norm of a nonzero row.  Taking log2 of
    max(squared norm, 1) therefore adds exactly 0 for each zero row and
    leaves every other term as it was, with no filtering of the rows."""
    if l1.dtype == object:
        return sum(0.5 * math.log2(s) for s in (sum(x * x for x in row) for row in l1.tolist()) if s)
    return float(0.5 * np.log2(np.maximum(np.einsum("ij,ij->i", l1, l1), 1)).sum())


def certified_pivots(a: np.ndarray, n: int, cap: int | None = None,
                     red: np.ndarray | None = None) -> list[int]:
    """Columns of the integer array a[R, C, m] over Z[x]/(x^n - 1) (m <= n) that
    form a basis of its column span over Q(zeta_n), where entry (i, j) is
    sum_k a[i, j, k] zeta_n^k.  Their count is the exact rank.  Callers pass
    the array as they assembled it, and ``red``, its reduction modulo Phi_n,
    when they hold it already; otherwise the reduction happens here.

    Each split prime p = 1 (mod n) maps Z[zeta_n] onto F_p by zeta_n -> r, so
    the rank over F_p never exceeds the true rank.  A nonzero minor M keeps
    the true rank unless it lies in the kernel, and then p divides its norm,
    a nonzero integer with |N(M)| <= H^phi(n).  The primes exceed 2^30, so at
    most floor(phi(n) log2(H) / 30) of them can divide it: the maximum rank
    over one more prime than that is exact.  The loop stops early once the
    rank meets its cap.  For n = 1 this is the classical multimodular
    integer rank.  Raises ValueError when 2^30 < p < 2^31 holds fewer than
    the certified count of split primes (about 4 * 10^4 exist for every
    n <= 1024).

    H bounds each entry by the smaller L1 norm of its two representatives,
    as given and reduced modulo Phi_n.  Either side can be the smaller: for
    prime n, reducing one term zeta_n^(n-1) spreads it over n - 1
    coefficients, while 1 + x + ... + x^(n-1) reduces to 0.

    The cap is an upper bound on the rank: min(R, C), or less when the
    caller has proved less (``homology_dims`` has rank-nullity from the
    exact d.d = 0 check), and never above min(R, C).  The first prime runs
    before H, and its pivots are final, with no H and no further
    ``split_primes`` request (early termination; von zur Gathen & Gerhard,
    *Modern Computer Algebra*, ch. 5), in two cases.  At the cap no prime can
    give more, since its rank is a lower bound on the true rank, and the
    pivots are independent over Q(zeta_n) (below).  If ``_evaluate_mod_p``
    passes the reduction through (n <= 2) and ``_rank_mod_p`` is exact, every
    step was an integer row operation with a unit lead, so the rank is that
    over Q.  Otherwise the loop reuses them.  A rank over F_p above the cap
    refutes the caller's proof: BoundaryError.

    The pivots come from the first prime that reaches the maximum.  Columns
    independent over F_p have a minor that is nonzero mod p, hence nonzero:
    they are independent over Q(zeta_n), and there are rank of them.
    """
    rows, cols = a.shape[:2]
    if rows == 0 or cols == 0:
        return []
    red = reduce_cyclotomic(a, n) if red is None else red
    if not red.any():
        return []
    best, done = [], False
    cap = min(rows, cols) if cap is None else min(rows, cols, cap)
    for p, r in split_primes(n, 1):  # the first prime; none for a huge n
        m = _evaluate_mod_p(red, p, r)
        best, exact = _rank_mod_p(m, p)
        # the cap met, or an exact elimination of a view (red passed through)
        done = len(best) >= cap or exact and np.may_share_memory(m, red)
    if not done:
        need = int(euler_phi(n) * _hadamard_bits(_entry_bounds(a, red)) / 30 * (1 + 1e-9)) + 1
        primes = split_primes(n, need)
        if len(primes) < need:
            raise ValueError(f"the rank certificate needs {need} split primes for "
                             f"conductor {n}; only {len(primes)} exist below 2^31")
        for p, r in primes[1:]:
            if len(best) >= cap:
                break
            pivots, _ = _rank_mod_p(_evaluate_mod_p(red, p, r), p)
            if len(pivots) > len(best):
                best = pivots
    if len(best) > cap:
        raise BoundaryError(f"a rank over F_p of {len(best)} exceeds its proven cap {cap}")
    return best


def certified_rank(a: np.ndarray, n: int, cap: int | None = None,
                   red: np.ndarray | None = None) -> int:
    """Exact rank over Q(zeta_n) of the integer array a[R, C, m] over
    Z[x]/(x^n - 1): the count of ``certified_pivots``."""
    return len(certified_pivots(a, n, cap, red))


def fast_rank(m: Matrix) -> int:
    """Exact rank of a Matrix over Q or Q(zeta_n) (Fraction/int or Cyclo
    entries) by ``certified_rank`` of its lift to Z[x]/(x^n - 1)."""
    if m.rows == 0 or m.cols == 0:
        return 0
    n = math.lcm(1, *(getattr(x, "conductor", 1) for row in m.entries for x in row))
    return certified_rank(lift_cyclo(m.entries, n)[0], n)


# ---------------------------------------------------------------------------
# Smith normal form over Z
# ---------------------------------------------------------------------------

def smith_normal_form_int(m: Matrix) -> tuple[Matrix, Matrix, Matrix]:
    """U*A*V = D with U, V of determinant +-1 and D = diag(d_i), d_i >= 0, d_i | d_{i+1}.

    Pivot choice: smallest nonzero absolute value, ties broken by (row, col).
    """
    a = [[int(x) for x in row] for row in m.entries]
    nr, nc = m.rows, m.cols
    u = [[int(i == j) for j in range(nr)] for i in range(nr)]
    v = [[int(i == j) for j in range(nc)] for i in range(nc)]

    def row_op(i1, i2, q):  # row i2 -= q*row i1
        for j in range(nc):
            a[i2][j] -= q * a[i1][j]
        for j in range(nr):
            u[i2][j] -= q * u[i1][j]

    def col_op(j1, j2, q):  # col j2 -= q*col j1
        for i in range(nr):
            a[i][j2] -= q * a[i][j1]
        for i in range(nc):
            v[i][j2] -= q * v[i][j1]

    def swap_rows(i1, i2):
        a[i1], a[i2] = a[i2], a[i1]
        u[i1], u[i2] = u[i2], u[i1]

    def swap_cols(j1, j2):
        for row in a:
            row[j1], row[j2] = row[j2], row[j1]
        for row in v:
            row[j1], row[j2] = row[j2], row[j1]

    k = 0
    while True:
        pivot = None
        best = None
        for i in range(k, nr):
            for j in range(k, nc):
                if a[i][j] and (best is None or abs(a[i][j]) < best):
                    best = abs(a[i][j])
                    pivot = (i, j)
        if pivot is None:
            break
        swap_rows(k, pivot[0])
        if pivot[1] != k:
            swap_cols(k, pivot[1])
        while True:
            # clear column k below the pivot
            done = True
            for i in range(k + 1, nr):
                if a[i][k]:
                    q = a[i][k] // a[k][k]
                    row_op(k, i, q)
                    if a[i][k]:  # remainder smaller than pivot: swap up, retry
                        swap_rows(k, i)
                        done = False
            for j in range(k + 1, nc):
                if a[k][j]:
                    q = a[k][j] // a[k][k]
                    col_op(k, j, q)
                    if a[k][j]:
                        swap_cols(k, j)
                        done = False
            if done and all(a[i][k] == 0 for i in range(k + 1, nr)) \
                    and all(a[k][j] == 0 for j in range(k + 1, nc)):
                break
        # divisibility: pivot must divide the remaining submatrix
        offender = None
        for i in range(k + 1, nr):
            for j in range(k + 1, nc):
                if a[i][j] % a[k][k]:
                    offender = i
                    break
            if offender is not None:
                break
        if offender is not None:
            row_op(offender, k, -1)  # add offending row to pivot row, redo step k
            continue
        k += 1
    # sign normalization
    for i in range(min(nr, nc)):
        if i < nr and i < nc and a[i][i] < 0:
            for j in range(nc):
                a[i][j] = -a[i][j]
            for j in range(nr):
                u[i][j] = -u[i][j]
    return (Matrix(nr, nr, u), Matrix(nr, nc, a), Matrix(nc, nc, v))


def int_diagonal(d: Matrix) -> list[int]:
    return [int(d.entries[i][i]) for i in range(min(d.rows, d.cols))]


def integer_kernel_basis(m: Matrix) -> list[list[int]]:
    """Basis of the integer kernel: columns of V past the SNF rank."""
    _, d, v = smith_normal_form_int(m)
    rank = sum(1 for x in int_diagonal(d) if x)
    return [v.column(j) for j in range(rank, m.cols)]


# ---------------------------------------------------------------------------
# Smith normal form over Q[t, t^-1], on integer Laurent polynomials
# ---------------------------------------------------------------------------
#
# An integer Laurent polynomial is None for zero, or (v, c) for
# t^v (c[0] + c[1] t + ... + c[d] t^d), c a tuple of Python ints with c[0] and
# c[d] nonzero; d is its degree span.  Every nonzero rational is a unit of
# Q[t, t^-1], so a matrix scaled to integers keeps its invariant factors.

def _primitive(xs: list) -> list:
    """xs divided by the gcd of all their coefficients (a positive integer, so
    signs stay) and by t^v, v the least valuation among them."""
    nonzero = [x for x in xs if x]
    if not nonzero:
        return xs
    g = math.gcd(*(q for _, c in nonzero for q in c))
    v = min(x[0] for x in nonzero)
    if g == 1 and v == 0:
        return xs
    return [x and (x[0] - v, x[1] if g == 1 else tuple(q // g for q in x[1])) for x in xs]


def _scaled(s: int, x):
    """s x for an integer s and an integer Laurent polynomial x."""
    return x if s == 1 or x is None else (x[0], tuple(s * a for a in x[1]))


def _scale_sub(s: int, x, q, y):
    """s x - q y for an integer s and integer Laurent polynomials x, q, y."""
    if y is None:
        return _scaled(s, x)
    (vq, cq), (vy, cy) = q, y
    p = [0] * (len(cq) + len(cy) - 1)
    for i, a in enumerate(cq):
        for j, b in enumerate(cy, i):
            p[j] += a * b
    vp = vq + vy
    if x is None:  # the end coefficients of p are products of nonzero ones
        return vp, tuple(-a for a in p)
    vx, cx = x
    lo = min(vx, vp)
    out = [0] * (max(vx + len(cx), vp + len(p)) - lo)
    for i, a in enumerate(cx, vx - lo):
        out[i] = s * a
    for i, a in enumerate(p, vp - lo):
        out[i] -= a
    nonzero = [i for i, a in enumerate(out) if a]
    return (lo + nonzero[0], tuple(out[nonzero[0]:nonzero[-1] + 1])) if nonzero else None


def _divide(a: list, b: tuple) -> tuple[list, list] | None:
    """(q, r) with a = q b + r and len(r) < len(b), for integer coefficient
    lists; None as soon as a coefficient of q is not an integer, so nothing
    is ever rounded."""
    q, r, top = [0] * (len(a) - len(b) + 1), list(a), len(b) - 1
    for m in range(len(q) - 1, -1, -1):
        if r[m + top]:
            q[m], rem = divmod(r[m + top], b[-1])
            if rem:
                return None
            for i, c in enumerate(b, m):
                r[i] -= q[m] * c
    return q, r[:top]


def _pseudo_quotient(x, y) -> tuple[int, tuple]:
    """(s, q) with s = lead(y)^(span x - span y + 1) and s x = q y + r, the
    span of r below that of y: the pseudo-division of Knuth, TAOCP vol. 2,
    4.6.1, whose quotient is integral."""
    (vx, cx), (vy, cy) = x, y
    s = cy[-1] ** (len(cx) - len(cy) + 1)
    div = _divide([s * c for c in cx], cy)
    if div is None:
        raise ArithmeticError("inexact pseudo-division")
    q = div[0]
    first = next(m for m, c in enumerate(q) if c)  # the top one, s lead(x) / lead(y), is not 0
    return s, (vx - vy + first, tuple(q[first:]))


def _primitive_part(c: tuple) -> tuple:
    """The coefficient tuple c divided by its signed content: coprime
    coefficients and a positive leading one."""
    g = math.gcd(*c) if c[-1] > 0 else -math.gcd(*c)
    return c if g == 1 else tuple(q // g for q in c)


def _divides(b: tuple, a: tuple) -> bool:
    """Whether b divides a in Q[t], for coefficient tuples with nonzero constant
    terms and b primitive: by Gauss's lemma the quotient is then integral."""
    div = _divide(a, b)
    return div is not None and not any(div[1])


def _snf_poly(a: list[list]) -> list:
    """The Smith elimination over Q[t, t^-1] on the integer Laurent rows a,
    in place and without U or V: the diagonal, up to units.

    Every row and column is kept primitive: after each operation it is
    divided by the gcd of its coefficients and by the least power of t in it.
    Pivoting picks the entry of least degree span (ties by row, then column).

    A unit pivot c t^v (span 1; cover boundaries are full of them) is found
    by a row-major scan that stops at the first unit, which is that least
    entry.  It clears its column with one exact row operation per nonzero
    entry below it, and then its row is dropped: column k is zero below the
    pivot, so clearing row k by column operations would change row k alone,
    and the unit divides everything, so the diagonal entry stays.

    Any other pivot reduces the entries of its cross one at a time by
    pseudo-division (the primitive polynomial remainder sequence: Knuth,
    TAOCP vol. 2, 4.6.1; Brown, JACM 18, 1971), so all arithmetic is on
    Python ints.  It divides only while it is the least entry of its cross:
    a smaller one is swapped in first, and the cross that comes with it is
    read again before the next division.  A pivot that fails to divide its
    block takes in the row it fails on, and the next pivot has a lower span:
    more such fix-ups at one position than the span of its first pivot raise
    ArithmeticError instead of looping.
    """
    nr, nc = len(a), len(a[0]) if a else 0

    def row_op(i, s, q, k):  # row i = s * row i - q * row k, made primitive
        a[i] = _primitive([_scale_sub(s, x, q, y) if y else _scaled(s, x)
                           for x, y in zip(a[i], a[k])])

    def col_op(j, s, q, k):  # col j = s * col j - q * col k, made primitive
        for row, x in zip(a, _primitive([_scale_sub(s, row[j], q, row[k]) for row in a])):
            row[j] = x

    def swap_cols(j1, j2):
        for row in a:
            row[j1], row[j2] = row[j2], row[j1]

    for i in range(nr):
        a[i] = _primitive(a[i])

    k, budget = 0, None
    while True:
        unit = next(((i, j) for i in range(k, nr) for j, x in enumerate(a[i][k:], k)
                     if x and len(x[1]) == 1), None)
        if unit is not None:  # the least entry: clear its column, drop its row
            i, j = unit
            a[k], a[i] = a[i], a[k]
            swap_cols(k, j)
            v, (c,) = a[k][k]
            for i in range(k + 1, nr):
                if x := a[i][k]:  # c x - (x t^-v) (c t^v) = 0
                    row_op(i, c, (x[0] - v, x[1]), k)
            a[k][k + 1:] = [None] * (nc - k - 1)
            k, budget = k + 1, None
            continue
        block = [(len(a[i][j][1]), i, j) for i in range(k, nr) for j in range(k, nc) if a[i][j]]
        if not block:
            break
        size, i, j = min(block)
        if budget is None:  # the span of the first pivot at position k
            budget = size - 1
        a[k], a[i] = a[i], a[k]
        swap_cols(k, j)
        # Euclid chip-away on the pivot cross: always keep the least-span
        # cross entry at the pivot and reduce one entry per step, so cross
        # spans strictly decrease (a full clearing pass would ping-pong
        # high-degree entries through the cross and blow up degrees).
        while True:
            cross = ([(len(a[i][k][1]), 0, i) for i in range(k + 1, nr) if a[i][k]]
                     + [(len(a[k][j][1]), 1, j) for j in range(k + 1, nc) if a[k][j]])
            if not cross:
                break
            span, in_col, idx = min(cross)
            if span < len(a[k][k][1]):  # a new cross comes with the new pivot
                if in_col:
                    swap_cols(k, idx)
                else:
                    a[k], a[idx] = a[idx], a[k]
                continue
            i = next((i for i in range(k + 1, nr) if a[i][k]), None)
            if i is not None:
                row_op(i, *_pseudo_quotient(a[i][k], a[k][k]), k)
            else:
                j = next(j for j in range(k + 1, nc) if a[k][j])
                col_op(j, *_pseudo_quotient(a[k][j], a[k][k]), k)
        head = a[k][k][1]
        if len(head) > 1:  # a unit divides everything
            head = _primitive_part(head)
            offender = next((i for i in range(k + 1, nr) for j in range(k + 1, nc)
                             if a[i][j] and not _divides(head, a[i][j][1])), None)
            if offender is not None:
                if not budget:
                    raise ArithmeticError(f"no progress in the Smith elimination at {k}")
                budget -= 1
                row_op(k, 1, (0, (-1,)), offender)
                continue
        k, budget = k + 1, None
    return [a[i][i] for i in range(min(nr, nc))]
