"""Exact references for the library's linear algebra, independent of it.

The library has one elimination per ring: the split-prime ``certified_rank``
over Q and Q(zeta_n), ``smith_normal_form_int`` over Z and the diagonal-only
``_snf_poly`` over Q[t, t^-1].  The routines here reach the same answers by
other eliminations and, but for ``certified_pivots_reference`` and the group
references (which build the library's value types: ``SchreierData``,
``Boundary``, ``EquivariantComplex``), use only ``Matrix``, ``TorsionData``
and the scalar types ``Cyclo`` and ``Laurent`` of the library.  ``Laurent`` and
``GroupRingElt`` have no arithmetic, so the ring operations of Q[t, t^-1]
and Z[pi] and the division of Q[t, t^-1] live here:

- ``Poly``: a ``Laurent`` with +, - and *; ``poly_divmod`` and ``divides``
  by long division over Fraction;
- ``Ring``: a ``GroupRingElt`` with +, -, *, ``bar`` and ``augmentation``;
- ``reidemeister_schreier_reference``: the stabilizer presentation and
  its ``SchreierData`` with every relator conjugated by ``word_mul`` and
  rewritten from the basepoint, the reference for the relator walks of
  ``groups.reidemeister_schreier``;
- ``cover_complex_reference``: the boundaries of a finite cover, cell by
  cell over ``GroupRingElt`` matrices, one rewrite of T[j]^-1 w T[i] per
  term and coset, over ``reidemeister_schreier_reference``;
- ``presentation_complex_reference``: the presentation complex with one
  ``fox_derivative_reference`` per (generator, relator) pair, the
  reference for the single Fox pass of ``complexes.presentation_complex``;
- ``matrix_rank``: fraction-free (Bareiss) elimination over Fraction/int,
  Cyclo or Laurent entries, with the exact division ``cyclo_div`` over
  Q(zeta_n);
- ``rank_mod_p_reference``: pivot columns over F_p of an int64 residue
  matrix by dense column-by-column numpy elimination without inverses, the
  reference for the sparse ``matrices._rank_mod_p``;
- ``certified_pivots_reference``: the certified pivots by the plain
  multimodular loop, the Hadamard bound first and then every certified
  split prime until the rank is full, eliminated by
  ``rank_mod_p_reference``: the reference for the early returns of
  ``matrices.certified_pivots``.  It reads the reduction modulo Phi_n, the
  bound and the primes from ``matrices``, and evaluates at each prime
  itself;
- ``evaluate_mod_p_reference``: the residues of an integer array over
  Z[x]/(x^n - 1) at zeta_n -> r mod p by Horner's rule in Python ints, the
  reference for ``matrices._evaluate_mod_p``;
- ``fox_derivative_reference``: the Fox derivative letter by letter, each
  prefix reduced again by ``word_mul``, the reference for
  ``complexes.fox_derivative``;
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

Two actions that only tests use live here too: ``trivial_action`` (degree 1)
and ``quaternion_regular_action`` (Q8 on itself, from its multiplication
table).
"""

import math
from collections import deque
from fractions import Fraction

import numpy as np

from twisthom import matrices
from twisthom.alexander import TorsionData
from twisthom.complexes import Boundary, EquivariantComplex, quaternion_presentation
from twisthom.groups import (EMPTY_WORD, GroupPresentation, GroupRingElt, PermAction,
                             SchreierData, word_inverse, word_mul)
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


def reidemeister_schreier_reference(p, action):
    """(sub, data) as ``groups.reidemeister_schreier`` gives them, by the
    conjugate-and-rewrite route: the transversal grows by ``word_mul`` of a
    letter and its parent's representative, and each relator r at coset i
    is rewritten from the basepoint as the word T[i]^-1 r T[i]."""
    if action.presentation != p:
        raise ValueError("action does not belong to this presentation")
    d = action.degree
    transversal = [None] * d
    transversal[0] = EMPTY_WORD
    tree, queue = set(), deque([0])
    steps = [(g, 1) for g in range(p.num_generators)] + \
            [(g, -1) for g in range(p.num_generators)]
    while queue:
        i = queue.popleft()
        for g, e in steps:
            j = action.apply_letter(i, g, e)
            if transversal[j] is None:
                transversal[j] = word_mul(((g, e),), transversal[i])
                tree.add((i, g) if e == 1 else (j, g))
                queue.append(j)
    pair_index, pairs = {}, []
    for i in range(d):
        for g in range(p.num_generators):
            if (i, g) in tree:
                pair_index[(i, g)] = None
            else:
                pair_index[(i, g)] = len(pairs)
                pairs.append((i, g))
    data = SchreierData(action, tuple(transversal), pair_index, tuple(pairs))
    relators = []
    for i in range(d):
        for r in p.relators:
            conj = word_mul(word_inverse(transversal[i]), r, transversal[i])
            rewritten = data.rewrite(conj)
            if rewritten:
                relators.append(rewritten)
    return GroupPresentation(len(pairs), relators), data


def presentation_complex_reference(p):
    """The presentation complex pair by pair: d2[x, r] is the bar of
    ``fox_derivative_reference``(r, x), one ``GroupRingElt`` per entry, put
    through the reducing ``Boundary`` constructor."""
    g, r = p.num_generators, len(p.relators)
    d1 = Boundary(1, g, [((0, i, ((i, -1),)), 1) for i in range(g)]
                  + [((0, i, EMPTY_WORD), -1) for i in range(g)])
    d2 = Boundary(g, r, [((i, j, w), c) for i in range(g) for j, rel in enumerate(p.relators)
                         for w, c in fox_derivative_reference(rel, i).bar().terms.items()])
    if r == 0:
        return EquivariantComplex(p, (1, g), (d1,))
    return EquivariantComplex(p, (1, g, r), (d1, d2))


def trivial_action(p):
    """The action of degree 1: the subgroup is the whole group."""
    return PermAction(p, [(0,)] * p.num_generators)


def quaternion_regular_action():
    """The left-regular action of Q8 = <x, y | x^2 y^-2, x y x y^-1> on its
    eight elements x^a y^b, encoded (a, b), from its multiplication table:
    y x^a = x^-a y and y^2 = x^2 (the degree-8 cover by S^3)."""
    def mul(e1, e2):
        (a1, b1), (a2, b2) = e1, e2
        a, b = a1 + (a2 if b1 == 0 else -a2), b1 + b2
        return ((a + 2) % 4, 0) if b == 2 else (a % 4, b)

    elems = [(a, b) for b in range(2) for a in range(4)]
    idx = {e: i for i, e in enumerate(elems)}
    perms = [tuple(idx[mul(g, h)] for h in elems) for g in [(1, 0), (0, 1)]]
    return PermAction(quaternion_presentation(), perms)


def cover_complex_reference(c, action):
    """(group, ranks, boundaries) of the cover of c under a transitive
    action, each boundary a list of rows of ``GroupRingElt``: every term q w
    of stored entry (f, e) adds q rewrite(T[j]^-1 w T[i]) to entry
    (f d + j, e d + i), where j = w(i) and d is the degree."""
    sub, data = reidemeister_schreier_reference(c.group, action)
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
        c = r.get(m + top, 0) / b.terms[b.degree()]
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


def evaluate_mod_p_reference(a: np.ndarray, p: int, r: int) -> np.ndarray:
    """The residues in [0, p) of a[R, C, m] under zeta_n -> r, entry by entry
    by Horner's rule in Python ints."""
    rows, cols = a.shape[:2]
    out = np.zeros((rows, cols), dtype=np.int64)
    for i in range(rows):
        for j in range(cols):
            value = 0
            for c in reversed(a[i, j].tolist()):
                value = (value * r + c) % p
            out[i, j] = value
    return out


def certified_pivots_reference(a: np.ndarray, n: int) -> list[int]:
    """The pivots of ``matrices.certified_pivots`` by the loop with no early
    return: the bound on the norms of the minors first, then one elimination
    per certified split prime, in order, until the rank is full; the pivots
    of the first prime that reaches the maximum."""
    rows, cols = a.shape[:2]
    if rows == 0 or cols == 0:
        return []
    red = matrices.reduce_cyclotomic(a, n)
    if not red.any():
        return []
    bits = matrices._hadamard_bits(matrices._entry_bounds(a, red))
    need = int(euler_phi(n) * bits / 30 * (1 + 1e-9)) + 1
    primes = matrices.split_primes(n, need)
    assert len(primes) == need, "too few split primes"
    best = []
    for p, r in primes:
        pivots = rank_mod_p_reference(evaluate_mod_p_reference(red, p, r), p)
        if len(pivots) > len(best):
            best = pivots
        if len(best) == min(rows, cols):
            break
    return best


def fox_derivative_reference(w, gen: int) -> GroupRingElt:
    """d(w)/d(gen) letter by letter: the running prefix is multiplied by
    each letter and reduced again, and a letter gen^-1 contributes
    -(prefix gen^-1)."""
    terms, prefix = [], EMPTY_WORD
    for g, e in w:
        if g == gen:
            terms.append((prefix, 1) if e == 1 else (word_mul(prefix, ((g, -1),)), -1))
        prefix = word_mul(prefix, ((g, e),))
    return GroupRingElt(terms)


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
            scale_row(i, Poly({-b[i][i].valuation(): 1 / b[i][i].terms[b[i][i].degree()]}))
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
        cols.append([x * Poly({-lead.valuation(): 1 / lead.terms[lead.degree()]}) for x in col])
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
