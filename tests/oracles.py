"""Exact references for the library's linear algebra, independent of it.

The library has one elimination per ring: the split-prime ``certified_rank``
over Q and Q(zeta_n), ``smith_normal_form_int`` over Z and the diagonal-only
``_snf_poly`` over Q[t, t^-1].  The routines here reach the same answers by
other eliminations and use only ``Matrix``, ``TorsionData`` and the scalar
types ``Cyclo`` and ``Laurent`` of the library.  ``Laurent`` and
``GroupRingElt`` have no arithmetic, so the ring operations of Q[t, t^-1]
and Z[pi] and the division of Q[t, t^-1] live here:

- ``Poly``: a ``Laurent`` with +, - and *; ``poly_divmod`` and ``divides``
  by long division over Fraction;
- ``Ring``: a ``GroupRingElt`` with +, -, *, ``bar`` and ``augmentation``;
- ``cover_complex_reference``: the boundaries of a finite cover, cell by
  cell over ``GroupRingElt`` matrices, one rewrite of T[j]^-1 w T[i] per
  term and coset;
- ``matrix_rank``: fraction-free (Bareiss) elimination over Fraction/int,
  Cyclo or Laurent entries, with the exact division ``cyclo_div`` over
  Q(zeta_n);
- ``rank_mod_p_reference``: pivot columns over F_p of an int64 residue
  matrix by dense column-by-column numpy elimination without inverses, the
  reference for the sparse ``matrices._rank_mod_p``;
- ``ring_matmul_reference``: matrix products over Z[x]/(x^n - 1) as explicit
  cyclic convolutions in Python ints, the reference for
  ``matrices.ring_matmul``;
- ``det_int`` (Bareiss) and ``det_poly`` (cofactor expansion);
- ``smith_normal_form_poly``: U A V = D over Q[t, t^-1] with both
  transforms, by elimination on A bordered with identities, and its own
  content normalization;
- ``kernel_basis_poly``: the columns of that V past the rank;
- ``fixed_point_free_reference``: the image group as ``Matrix`` products of
  ``generator_images`` and their conjugate transposes, each non-identity
  element ranked by ``matrix_rank``;
- ``decode_basis``: an integer array over Z[x]/(x^n - 1) as a ``Matrix``
  of ``Cyclo`` sums of ``Cyclo.root_of_unity``;
- ``decode_laurent``: a matrix of integer Laurent polynomials, as
  ``laurent_specialize`` writes them, as a ``Matrix`` of ``Poly``;
- ``encode_laurent``: its inverse up to a nonzero constant, from ``Laurent``,
  Fraction or int entries: the integer rows that the tests feed
  ``torsion_invariants`` and ``_snf_poly``;
- ``torsion_data``: a hand-built ``TorsionData`` from monic ``Laurent``
  torsion polynomials, each stored as its ``encode_laurent`` coefficients.
"""

import math
from fractions import Fraction

import numpy as np

from twisthom.alexander import TorsionData
from twisthom.groups import (GroupRingElt, reidemeister_schreier, word_inverse,
                             word_mul)
from twisthom.matrices import Matrix
from twisthom.numbers import Cyclo, Laurent, euler_phi
from twisthom.reps import ImageClosureError


class Poly(Laurent):
    """A ``Laurent`` value with the ring operations of Q[t, t^-1]; the other
    operand may be a ``Laurent``, a Fraction or an int."""

    __slots__ = ()

    def __add__(self, other):
        out = dict(self.terms)
        for e, c in _laurent(other).terms.items():
            out[e] = out.get(e, 0) + c
        return Poly(out)

    __radd__ = __add__

    def __neg__(self):
        return Poly({e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        return self + -_laurent(other)

    def __mul__(self, other):
        out = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in _laurent(other).terms.items():
                out[e1 + e2] = out.get(e1 + e2, 0) + c1 * c2
        return Poly(out)

    __rmul__ = __mul__


def _laurent(x) -> Poly:
    if isinstance(x, Poly):
        return x
    return Poly(x.terms if isinstance(x, Laurent) else {0: x})


class Ring(GroupRingElt):
    """A ``GroupRingElt`` with the ring operations of Z[pi]; the other
    operand may be a ``GroupRingElt`` or, for *, an int."""

    __slots__ = ()

    def __add__(self, other):
        out = dict(self.terms)
        for w, c in other.terms.items():
            out[w] = out.get(w, 0) + c
        return Ring(out)

    def __neg__(self):
        return Ring({w: -c for w, c in self.terms.items()})

    def __sub__(self, other):
        return self + -Ring(other.terms)

    def __mul__(self, other):
        if isinstance(other, int):
            return Ring({w: c * other for w, c in self.terms.items()})
        out = {}
        for w1, c1 in self.terms.items():
            for w2, c2 in other.terms.items():
                w = word_mul(w1, w2)
                out[w] = out.get(w, 0) + c1 * c2
        return Ring(out)

    __rmul__ = __mul__

    def bar(self):
        return Ring(GroupRingElt.bar(self).terms)

    def augmentation(self) -> int:
        return sum(self.terms.values())


def cover_complex_reference(c, action):
    """(group, ranks, boundaries) of the cover of c under a transitive
    action, each boundary a list of rows of ``GroupRingElt``: every term q w
    of stored entry (f, e) adds q rewrite(T[j]^-1 w T[i]) to entry
    (f d + j, e d + i), where j = w(i) and d is the degree."""
    sub, data = reidemeister_schreier(c.group, action)
    d = action.degree
    out = []
    for b in c.boundaries:
        acc = {}
        for f in range(b.rows):
            for e in range(b.cols):
                for w, coeff in b[f, e].terms.items():
                    for i in range(d):
                        j = action.apply_word(w, i)
                        h = data.rewrite(word_mul(
                            word_inverse(data.transversal[j]), w, data.transversal[i]))
                        cell = acc.setdefault((f * d + j, e * d + i), {})
                        cell[h] = cell.get(h, 0) + coeff
        out.append([[GroupRingElt(acc.get((i, j))) for j in range(b.cols * d)]
                    for i in range(b.rows * d)])
    return sub, [r * d for r in c.ranks], out


def poly_divmod(a, b) -> tuple[Poly, Poly]:
    """(q, r) with a = q b + r in Q[t, t^-1] and the polynomial part of r
    (r over its valuation) of lower degree than that of b: long division of
    the polynomial parts, whose degree is the Euclidean function."""
    a, b = _laurent(a), _laurent(b)
    if not b:
        raise ZeroDivisionError("Laurent division by zero")
    va, vb, top = (a.valuation() if a else 0), b.valuation(), b.degree() - b.valuation()
    r = {e - va: c for e, c in a.terms.items()}
    q = {}
    for m in range(max(r, default=top - 1) - top, -1, -1):
        c = r.get(m + top, 0) / b.leading_coeff()
        if c:
            q[m + va - vb] = c
            for e, x in b.terms.items():
                r[m + e - vb] = r.get(m + e - vb, 0) - c * x
    return Poly(q), Poly({e + va: c for e, c in r.items()})


def divides(b, a) -> bool:
    """Whether b divides a in Q[t, t^-1]."""
    return not a if not b else not poly_divmod(a, b)[1]


def cyclo_div(a, b) -> Cyclo:
    """a / b in Q(zeta_n), n the lcm of the conductors: the solution x of
    b x = a, by Gauss-Jordan elimination over Fraction on the phi(n) x phi(n)
    matrix of multiplication by b, whose column i holds the Cyclo product
    b zeta_n^i.  Raises ZeroDivisionError when b is 0."""
    a, b = (x if isinstance(x, Cyclo) else Cyclo.from_rational(Fraction(x)) for x in (a, b))
    if not b:
        raise ZeroDivisionError("division by zero in Q(zeta_n)")
    n = math.lcm(a.conductor, b.conductor)
    size = euler_phi(n)
    cols = [(b * Cyclo.root_of_unity(n, i)).embed(n).coeffs for i in range(size)]
    rows = [[col[r] for col in cols] + [a.embed(n).coeffs[r]] for r in range(size)]
    for j in range(size):
        # multiplication by b != 0 is invertible, so a pivot exists
        piv = next(i for i in range(j, size) if rows[i][j])
        rows[j], rows[piv] = rows[piv], rows[j]
        head = rows[j][j]
        rows[j] = [x / head for x in rows[j]]
        for i in range(size):
            if i != j and rows[i][j]:
                f = rows[i][j]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[j])]
    return Cyclo(n, [row[-1] for row in rows])


def exact_div(a, b):
    """a / b for Fraction/int, Cyclo or Laurent values; b must divide a."""
    if isinstance(a, Laurent) or isinstance(b, Laurent):
        q, r = poly_divmod(a, b)
        assert not r, f"{a!r} is not divisible by {b!r}"
        return q
    if isinstance(a, Cyclo) or isinstance(b, Cyclo):
        return cyclo_div(a, b)
    if isinstance(a, int) and isinstance(b, int):
        q, r = divmod(a, b)
        assert r == 0, "inexact integer division in fraction-free elimination"
        return q
    return Fraction(a) / Fraction(b)


def matrix_rank(m: Matrix) -> int:
    """Exact rank by fraction-free (Bareiss) elimination, pivoting on the
    first nonzero entry of the active block (rows, then columns)."""
    a = [row[:] for row in m.entries]
    rank, prev = 0, 1
    while rank < min(m.rows, m.cols):
        pivot = next(((i, j) for i in range(rank, m.rows) for j in range(rank, m.cols)
                      if a[i][j]), None)
        if pivot is None:
            break
        pi, pj = pivot
        a[rank], a[pi] = a[pi], a[rank]
        for row in a:
            row[rank], row[pj] = row[pj], row[rank]
        p = a[rank][rank]
        for i in range(rank + 1, m.rows):
            head = a[i][rank]
            for j in range(rank + 1, m.cols):
                a[i][j] = exact_div(p * a[i][j] - head * a[rank][j], prev)
        prev = p
        rank += 1
    return rank


def rank_mod_p_reference(m: np.ndarray, p: int) -> list[int]:
    """Pivot columns over F_p of the int64 residues m, by elimination on a
    copy.  A row is cleared as pivot * row - head * pivot_row, so no inverse
    is needed."""
    m = m.copy()
    rows, cols = m.shape
    pivots: list[int] = []
    for j in range(cols):
        rank = len(pivots)
        if rank == rows:
            break
        nz = m[rank:, j].nonzero()[0]
        if nz.size == 0:
            continue
        piv = rank + int(nz[0])
        if piv != rank:
            m[[rank, piv]] = m[[piv, rank]]
        # the swap moved a zero of column j to row piv, so one scan serves both
        below = rank + nz[1:]
        if below.size:
            m[below, j:] = (m[below, j:] * m[rank, j] - m[below, j, None] * m[rank, j:]) % p
        pivots.append(j)
    return pivots


def ring_matmul_reference(a: np.ndarray, b: np.ndarray, n: int) -> np.ndarray:
    """a[..., i, k, m] @ b[..., k, j, m'] over Z[x]/(x^n - 1) as an object
    array [..., i, j, n]: entry (i, j) is the sum over k, s and t of
    a[i, k, s] b[k, j, t] x^((s + t) mod n), in Python ints, with the
    leading axes broadcast against each other."""
    lead = np.broadcast_shapes(a.shape[:-3], b.shape[:-3])
    a = np.broadcast_to(a, lead + a.shape[-3:])
    b = np.broadcast_to(b, lead + b.shape[-3:])
    out = np.zeros(lead + (a.shape[-3], b.shape[-2], n), dtype=object)
    for index in np.ndindex(*out.shape[:-1]):
        *batch, i, j = index
        acc = [0] * n
        for k in range(a.shape[-2]):
            for s, x in enumerate(a[(*batch, i, k)].tolist()):
                for t, y in enumerate(b[(*batch, k, j)].tolist()):
                    acc[(s + t) % n] += x * y
        out[index] = acc
    return out


def det_int(m: Matrix) -> int:
    """Exact determinant of a square integer matrix (Bareiss)."""
    n = m.rows
    assert n == m.cols
    if n == 0:
        return 1
    a = [[int(x) for x in row] for row in m.entries]
    sign, prev = 1, 1
    for k in range(n - 1):
        if a[k][k] == 0:
            swap = next((i for i in range(k + 1, n) if a[i][k]), None)
            if swap is None:
                return 0
            a[k], a[swap] = a[swap], a[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[k][k] * a[i][j] - a[i][k] * a[k][j]) // prev
        prev = a[k][k]
    return sign * a[n - 1][n - 1]


def det_poly(m: Matrix) -> Laurent:
    """Determinant of a small square Laurent matrix by cofactor expansion
    along the first row."""
    assert m.rows == m.cols
    a = [[_laurent(x) for x in row] for row in m.entries]

    def cof(rows, cols):
        if not rows:
            return Poly({0: 1})
        total = Poly()
        for idx, c in enumerate(cols):
            if a[rows[0]][c]:
                term = a[rows[0]][c] * cof(rows[1:], cols[:idx] + cols[idx + 1:])
                total = total + term if idx % 2 == 0 else total - term
        return total

    return cof(tuple(range(m.rows)), tuple(range(m.cols)))


def poly_diagonal(d: Matrix) -> list[Poly]:
    return [_laurent(d.entries[i][i]) for i in range(min(d.rows, d.cols))]


def _primitive(vals) -> Poly:
    """The unit c * t^k of Q[t, t^-1] that turns the nonzero entries of vals
    into integer polynomials with coprime coefficients and a nonzero constant
    term somewhere; 1 when every entry is zero."""
    vals = [x for x in vals if x]
    if not vals:
        return Poly({0: 1})
    coeffs = [c for x in vals for c in x.terms.values()]
    scale = Fraction(math.lcm(*(c.denominator for c in coeffs)),
                     math.gcd(*(c.numerator for c in coeffs)))
    return Poly({-min(x.valuation() for x in vals): scale})


def smith_normal_form_poly(m: Matrix) -> tuple[Matrix, Matrix, Matrix]:
    """U*A*V = D over Q[t, t^-1]: U, V unimodular (unit determinant c*t^k),
    D diagonal with its nonzero entries first, each monic with nonzero
    constant term and dividing the next.

    The elimination runs on B = [[A, I_r], [I_c, 0]].  Row operations on its
    first r rows carry U along in the last r columns, and column operations
    on its first c columns carry V along in the last c rows; after each one
    the whole row or column is made primitive.  Each pass moves an entry of
    least degree of the active block to the pivot and divides the rest of
    its row and column by it.  A pivot that fails to divide the block takes
    in the row it fails on.
    """
    r, c = m.rows, m.cols
    one, zero = Poly({0: 1}), Poly()
    b = [[_laurent(x) for x in row] + [one if i == j else zero for j in range(r)]
         for i, row in enumerate(m.entries)]
    b += [[one if i == j else zero for j in range(c)] + [zero] * r for i in range(c)]

    def deg(x: Poly) -> int:
        return x.degree() - x.valuation()

    def scale_row(i, unit):
        b[i] = [unit * x for x in b[i]]

    def scale_col(j, unit):
        for row in b:
            row[j] = unit * row[j]

    def add_row(src, dst, q):  # row dst -= q * row src
        b[dst] = [x - q * y for x, y in zip(b[dst], b[src])]
        scale_row(dst, _primitive(b[dst]))

    def add_col(src, dst, q):  # col dst -= q * col src
        for row in b:
            row[dst] = row[dst] - q * row[src]
        scale_col(dst, _primitive([row[dst] for row in b]))

    k = 0
    while k < min(r, c):
        block = [(deg(b[i][j]), i, j) for i in range(k, r) for j in range(k, c) if b[i][j]]
        if not block:
            break
        _, i, j = min(block)
        b[k], b[i] = b[i], b[k]
        for row in b:
            row[k], row[j] = row[j], row[k]
        p = b[k][k]
        for i in range(k + 1, r):
            if b[i][k]:
                add_row(k, i, poly_divmod(b[i][k], p)[0])
        for j in range(k + 1, c):
            if b[k][j]:
                add_col(k, j, poly_divmod(b[k][j], p)[0])
        if any(b[i][k] for i in range(k + 1, r)) or any(b[k][j] for j in range(k + 1, c)):
            continue  # a remainder of lower degree is left: it becomes the pivot
        bad = next((i for i in range(k + 1, r) for j in range(k + 1, c)
                    if not divides(p, b[i][j])), None)
        if bad is not None:
            add_row(bad, k, -one)
            continue
        k += 1
    for i in range(min(r, c)):
        if b[i][i]:
            scale_row(i, Poly({-b[i][i].valuation(): 1 / b[i][i].leading_coeff()}))
    return (Matrix(r, r, [row[c:] for row in b[:r]]),
            Matrix(r, c, [row[:c] for row in b[:r]]),
            Matrix(c, c, [row[:c] for row in b[r:]]))


def kernel_basis_poly(m: Matrix) -> Matrix:
    """Free basis of the kernel of a Laurent matrix, as columns: the columns
    of V past the rank, where U A V = D.  Each column is scaled so that its
    first nonzero entry is monic with valuation 0."""
    _, d, v = smith_normal_form_poly(m)
    rank = sum(1 for x in poly_diagonal(d) if x)
    cols = []
    for j in range(rank, m.cols):
        col = v.column(j)
        lead = next(x for x in col if x)
        cols.append([x * Poly({-lead.valuation(): 1 / lead.leading_coeff()}) for x in col])
    return Matrix(m.cols, len(cols), [list(row) for row in zip(*cols)] if cols
                  else [[] for _ in range(m.cols)])


def fixed_point_free_reference(r, element_cap: int = 10000) -> bool:
    """True iff no non-identity element of the finite image of r fixes a
    vector, by BFS over Cyclo matrix products.  A generator mapping to the
    identity fails; raises ImageClosureError past element_cap elements."""
    gens = list(r.generator_images)
    ident = Matrix.identity(r.dim, Cyclo.one(), Cyclo.zero())
    if any(m == ident for m in gens):
        return False
    gens += [Matrix(m.cols, m.rows, [[m[j, i].conjugate() for j in range(m.rows)]
                                     for i in range(m.cols)]) for m in gens]

    def key(m):
        return tuple(tuple(x.embed(r.conductor).coeffs for x in row) for row in m.entries)

    seen = {key(ident): ident}
    frontier = [ident]
    while frontier:
        new = []
        for m in frontier:
            for g in gens:
                prod = g @ m
                if key(prod) not in seen:
                    if len(seen) >= element_cap:
                        raise ImageClosureError(f"image closure exceeded {element_cap} elements")
                    seen[key(prod)] = prod
                    new.append(prod)
        frontier = new
    return all(matrix_rank(Matrix(r.dim, r.dim, [[m[i, j] - ident[i, j] for j in range(r.dim)]
                                                 for i in range(r.dim)])) == r.dim
               for m in seen.values() if m != ident)


def decode_basis(a) -> Matrix:
    """The integer array a[R, C, n] over Z[x]/(x^n - 1) as a Matrix over
    Q(zeta_n), by x -> zeta_n."""
    rows, cols, n = a.shape
    powers = [Cyclo.root_of_unity(n, k) for k in range(n)]

    def entry(coeffs):
        out = Cyclo.zero(n)
        for c, z in zip(coeffs, powers):
            if c:
                out = out + int(c) * z
        return out

    return Matrix(rows, cols, [[entry(a[i, j]) for j in range(cols)] for i in range(rows)])


def decode_laurent(m: Matrix) -> Matrix:
    """The integer Laurent entries of m (None for zero, or (v, c) for
    t^v (c[0] + c[1] t + ...)) as a Matrix of Poly."""
    return Matrix(m.rows, m.cols, [[Poly({x[0] + i: q for i, q in enumerate(x[1])} if x else None)
                                    for x in row] for row in m.entries])


def encode_laurent(m: Matrix) -> Matrix:
    """The entries of a matrix over Q[t, t^-1] (Laurent, Fraction or int) times
    the lcm of their denominators, as the integer Laurent polynomials that
    ``torsion_invariants`` reads.  One scalar for the whole matrix keeps
    products of such matrices exact up to a nonzero constant."""
    terms = [[x.terms if isinstance(x, Laurent) else {0: Fraction(x)} if x else {}
              for x in row] for row in m.entries]
    den = math.lcm(1, *(c.denominator for row in terms for x in row for c in x.values()))

    def entry(x: dict):
        if not x:
            return None
        v = min(x)
        c = [0] * (max(x) - v + 1)
        for e, q in x.items():
            c[e - v] = q.numerator * (den // q.denominator)
        return v, tuple(c)

    return Matrix(m.rows, m.cols, [[entry(x) for x in row] for row in terms])


def torsion_data(free_ranks, polys) -> TorsionData:
    """``TorsionData`` of monic torsion polynomials with nonzero constant
    term, each stored as its ``encode_laurent`` coefficients."""
    return TorsionData(free_ranks, [[encode_laurent(Matrix(1, 1, [[p]]))[0, 0][1] for p in ps]
                                    for ps in polys])
