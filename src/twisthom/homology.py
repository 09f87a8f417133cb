"""Specialization of equivariant complexes and exact twisted homology.

There is one exact backend.  A representation's generator images and their
inverses are compiled once into integers over Z[x]/(x^n - 1), which maps onto
Z[zeta_n] by x -> zeta_n:

* block-monomial images whose blocks are 1x1 roots of unity (characters,
  permutation reps, induced reps of characters) become a permutation plus one
  exponent of x per column, composed in plain Python ints;
* every other image becomes a permutation plus k x k blocks, an integer array
  [d, k, k, n] over a common denominator (a dense rep is a single block).
  Unitary images invert by conjugate transpose; restricted reps bring their
  exact inverses.

Word images are products of these, cached by prefix.  Each boundary is
accumulated as an integer array [R, C, n] and reduced modulo Phi_n once;
consecutive reduced boundaries must multiply to exactly zero in Z[zeta_n],
and a failure is a hard BoundaryError.  Ranks come from the certified split-prime routine
``matrices.certified_rank``.  Arrays hold Python ints wherever a magnitude
bound would leave int64, so no value wraps.
"""

from __future__ import annotations

import functools
import math
from fractions import Fraction

import numpy as np

from .complexes import CatalogEntry, EquivariantComplex, presentation_complex
from .groups import GroupPresentation, PermAction, free_product
from .matrices import (Matrix, certified_rank, fast_rank, in_column_span,
                       int_dtype, lift_cyclo, max_abs, reduce_cyclotomic,
                       ring_matmul, solve_column_combination)
from .numbers import Cyclo, cyclotomic_reduction_rows
from .reps import (SplitData, UnitaryRep, extend_by_identity, induce_rep,
                   restrict_to_span, stacked_alpha_minus_one, trivial_rep,
                   verify_rep)


class GroupMismatchError(ValueError):
    """Representation and complex are defined over different presentations."""


class BoundaryError(ValueError):
    """Consecutive boundaries do not multiply to zero under a specialization."""


class CrossCheckError(AssertionError):
    """Two independent computation routes disagree (internal error)."""


class HomologyReport:
    """Per-degree twisted homology dimensions with the derived Euler number."""

    __slots__ = ("dims", "euler", "acyclic")

    def __init__(self, dims):
        dims = tuple(int(d) for d in dims)
        object.__setattr__(self, "dims", dims)
        object.__setattr__(self, "euler", sum((-1) ** i * d for i, d in enumerate(dims)))
        object.__setattr__(self, "acyclic", all(d == 0 for d in dims))

    def __setattr__(self, *a):
        raise AttributeError("HomologyReport is immutable")

    def __eq__(self, other):
        if not isinstance(other, HomologyReport):
            return NotImplemented
        return self.dims == other.dims

    def __hash__(self):
        return hash(self.dims)

    def to_json(self) -> dict:
        return {"dims": list(self.dims), "euler": self.euler, "acyclic": self.acyclic}

    def __repr__(self):
        return f"HomologyReport(dims={self.dims}, euler={self.euler}, acyclic={self.acyclic})"


class BlockComplex:
    """The complex C_* tensor V: dims per degree plus specialized boundaries.

    ``boundaries[k]`` maps degree k+1 to degree k.  It is an integer array
    [rows, cols, phi(n)] of coefficients in the power basis of zeta_n, where n
    is ``conductor``, and the boundary is that array over ``denominators[k]``.
    """

    __slots__ = ("dims", "boundaries", "conductor", "denominators")

    def __init__(self, dims, boundaries, conductor: int, denominators):
        object.__setattr__(self, "dims", tuple(int(d) for d in dims))
        object.__setattr__(self, "boundaries", tuple(boundaries))
        object.__setattr__(self, "conductor", conductor)
        object.__setattr__(self, "denominators", tuple(denominators))

    def __setattr__(self, *a):
        raise AttributeError("BlockComplex is immutable")

    def boundary_matrix(self, k: int) -> Matrix:
        """Boundary from degree k+1 to degree k as an exact cyclotomic Matrix."""
        a, den, n = self.boundaries[k], self.denominators[k], self.conductor
        return Matrix(a.shape[0], a.shape[1],
                      [[Cyclo(n, [Fraction(int(c), den) for c in e]) for e in row]
                       for row in a.tolist()])


# ---------------------------------------------------------------------------
# generator images compiled over Z[x]/(x^n - 1)
# ---------------------------------------------------------------------------

@functools.cache
def _roots_of_unity(n: int) -> dict:
    """Power-basis coefficients of each root of unity x in Q(zeta_n) -> (m, e)
    with x = zeta_m^e and m its order; for odd n, -zeta_n^e = zeta_2n^(2e + n)."""
    def primitive(m, e):
        g = math.gcd(m, e)
        return m // g, e // g

    rows = cyclotomic_reduction_rows(n)
    table = {} if n % 2 == 0 else {tuple(-c for c in row): primitive(2 * n, (2 * e + n) % (2 * n))
                                   for e, row in enumerate(rows)}
    table.update({row: primitive(n, e) for e, row in enumerate(rows)})
    return table


class _Monomial:
    """Images (perm, exps): column i holds x^exps[i] in row perm[i]."""

    def __init__(self, n: int, dim: int, gens):
        self.n, self.dim = n, dim
        self.identity = (tuple(range(dim)), (0,) * dim)
        self.images = {}
        for g, (perm, exps) in enumerate(gens):
            inv_perm, inv_exps = [0] * dim, [0] * dim
            for i, (row, e) in enumerate(zip(perm, exps)):
                inv_perm[row], inv_exps[row] = i, -e % n
            self.images[g, 1] = (tuple(perm), tuple(exps))
            self.images[g, -1] = (tuple(inv_perm), tuple(inv_exps))

    def mul(self, a, b):
        (pa, ea), (pb, eb), n = a, b, self.n
        return tuple([pa[j] for j in pb]), tuple([(ea[j] + e) % n for j, e in zip(pb, eb)])

    def assemble(self, terms, shape, images):
        rows, cols, coeffs, words, bound = terms
        d = self.dim
        out = np.zeros((shape[0] * d, shape[1] * d, self.n), dtype=int_dtype(bound))
        if words:
            perms = np.array([images[w][0] for w in words], dtype=np.int64).reshape(-1, d)
            exps = np.array([images[w][1] for w in words], dtype=np.int64).reshape(-1, d)
            np.add.at(out, (np.array(rows)[:, None] * d + perms,
                            np.array(cols)[:, None] * d + np.arange(d), exps),
                      np.array(coeffs, dtype=out.dtype)[:, None])
        return out, 1


class _Blocks:
    """Images (perm, blocks, den): column block i holds blocks[i] / den in row
    block perm[i]; blocks is an integer array [d, k, k, n]."""

    def __init__(self, n: int, d: int, k: int, images: dict):
        self.n, self.k, self.dim, self.images = n, k, d * k, images
        eye = np.zeros((d, k, k, n), dtype=np.int64)
        eye[:, np.arange(k), np.arange(k), 0] = 1
        self.identity = (tuple(range(d)), eye, 1)

    def mul(self, a, b):
        (pa, ba, da), (pb, bb, db) = a, b
        return tuple([pa[j] for j in pb]), ring_matmul(ba[list(pb)], bb, self.n), da * db

    def dense(self, img) -> np.ndarray:
        perm, blocks, _ = img
        k = self.k
        out = np.zeros((self.dim, self.dim, self.n), dtype=blocks.dtype)
        for i, row in enumerate(perm):
            out[row * k:(row + 1) * k, i * k:(i + 1) * k] = blocks[i]
        return out

    def assemble(self, terms, shape, images):
        rows, cols, coeffs, words, _ = terms
        den = math.lcm(1, *(images[w][2] for w in words))
        dense, sums = {}, {}
        for i, j, c, w in zip(rows, cols, coeffs, words):
            if w not in dense:
                dense[w] = self.dense(images[w])
            sums[i, j] = sums.get((i, j), 0) + \
                abs(c) * (den // images[w][2]) * max_abs(dense[w])
        dim = self.dim
        out = np.zeros((shape[0] * dim, shape[1] * dim, self.n),
                       dtype=int_dtype(max(sums.values(), default=0)))
        for i, j, c, w in zip(rows, cols, coeffs, words):
            out[i * dim:(i + 1) * dim, j * dim:(j + 1) * dim] += \
                dense[w].astype(out.dtype) * (c * (den // images[w][2]))
        return out, den


def _dagger(img, n: int):
    """Conjugate transpose: x^u -> x^-u on every entry, blocks transposed."""
    perm, blocks, den = img
    q = [0] * len(perm)
    for i, row in enumerate(perm):
        q[row] = i
    conj = blocks[..., -np.arange(n) % n]
    return tuple(q), np.swapaxes(conj[q], -3, -2), den


def _block_images(gens, inverses=None) -> _Blocks:
    """Compile (perm, blocks of Cyclo entries) per generator; inverses default
    to conjugate transposes (unitary images)."""
    every = gens + (inverses or [])
    n = math.lcm(1, *(getattr(x, "conductor", 1) for _, blocks in every
                      for block in blocks for row in block for x in row))
    d, k = len(gens[0][0]), len(gens[0][1][0])

    def lift(perm, blocks):
        a, den = lift_cyclo([row for block in blocks for row in block], n)
        return tuple(perm), a.reshape(d, k, k, n), den

    images = {}
    for g, image in enumerate(gens):
        images[g, 1] = lift(*image)
        images[g, -1] = lift(*inverses[g]) if inverses else _dagger(images[g, 1], n)
    return _Blocks(n, d, k, images)


def _compile(r: UnitaryRep):
    monos = r.monomials
    if monos is None:
        return _block_images([((0,), (m.entries,)) for m in r.generator_images])
    if not monos:
        return _Monomial(1, r.dim, [])
    if len(monos[0].blocks[0]) == 1:
        # one lookup per distinct block: hashing Fraction coefficients is slow
        blocks = {id(b): b[0][0] for m in monos for b in m.blocks}
        root = {i: _roots_of_unity(x.conductor).get(x.coeffs) for i, x in blocks.items()}
        roots = [[root[id(b)] for b in m.blocks] for m in monos]
        if all(x is not None for row in roots for x in row):
            n = math.lcm(*(m for row in roots for m, _ in row))
            return _Monomial(n, r.dim, [(m.perm, [e * (n // o) for o, e in row])
                                        for m, row in zip(monos, roots)])
    return _block_images([(m.perm, m.blocks) for m in monos])


def _word_images(imgs, words) -> dict:
    """Images of the words and of all their prefixes, one product per letter."""
    cache = {(): imgs.identity}
    for w in words:
        i = len(w)
        while w[:i] not in cache:
            i -= 1
        img = cache[w[:i]]
        for t in range(i, len(w)):
            img = imgs.mul(img, imgs.images[w[t]])
            cache[w[:t + 1]] = img
    return cache


def _specialize(c: EquivariantComplex, imgs, under: str) -> BlockComplex:
    images = _word_images(imgs, {w for t in c.terms for w in t[3]})
    n = imgs.n
    assembled = [imgs.assemble(t, (b.rows, b.cols), images)
                 for b, t in zip(c.boundaries, c.terms)]
    reduced = [reduce_cyclotomic(a, n) for a, _ in assembled]
    for t in range(len(reduced) - 1):
        if reduce_cyclotomic(ring_matmul(reduced[t], reduced[t + 1], n), n).any():
            raise BoundaryError(f"d{t + 1}.d{t + 2} != 0 under {under}")
    return BlockComplex([rank * imgs.dim for rank in c.ranks], reduced, n,
                        [den for _, den in assembled])


def specialize(c: EquivariantComplex, r: UnitaryRep) -> BlockComplex:
    """Tensor the complex with the representation: entries sum n_w alpha(w).

    Boundary entries are stored in right-module coordinates, so substitution
    is direct.  Consecutive products are checked to be exactly zero; failure
    raises BoundaryError.
    """
    if r.group != c.group:
        raise GroupMismatchError("representation group differs from complex group")
    if not verify_rep(r):
        raise ValueError("representation fails verification")
    return _specialize(c, _compile(r), "this representation")


def specialize_restricted(c: EquivariantComplex, r: UnitaryRep,
                          basis: Matrix) -> BlockComplex:
    """Specialize under r restricted to the invariant column span of ``basis``.

    The basis need not be orthonormal, so the restricted images are not
    unitary: their inverses are solved exactly instead.
    """
    mats = restrict_to_span(r, basis)
    ident = Matrix.identity(basis.cols, Cyclo.one(), Cyclo.zero())
    inverses = [solve_column_combination(m, ident) for m in mats]
    imgs = _block_images([((0,), (m.entries,)) for m in mats],
                         [((0,), (m.entries,)) for m in inverses])
    return _specialize(c, imgs, "the restricted action")


def homology_dims(b: BlockComplex) -> HomologyReport:
    """dims[i] = dim C_i - rank d_i - rank d_{i+1} (field coefficients)."""
    ranks = [0] + [certified_rank(a, b.conductor) for a in b.boundaries] + [0]
    return HomologyReport([b.dims[i] - ranks[i] - ranks[i + 1]
                           for i in range(len(b.dims))])


def twisted_homology(c: EquivariantComplex, r: UnitaryRep) -> HomologyReport:
    return homology_dims(specialize(c, r))


def validate_complex(c: EquivariantComplex, r: UnitaryRep) -> bool:
    """True iff all consecutive boundary products vanish under r."""
    try:
        specialize(c, r)
        return True
    except BoundaryError:
        return False


# ---------------------------------------------------------------------------
# H0 as coinvariants
# ---------------------------------------------------------------------------

def coinvariants_h0(p: GroupPresentation, r: UnitaryRep) -> int:
    """dim of V / span{alpha(g)v - v}: dim V minus the rank of the stacked
    (alpha(g) - I) over all generators."""
    if r.group != p:
        raise GroupMismatchError("representation group differs from presentation")
    if not verify_rep(r):
        raise ValueError("representation fails verification")
    if p.num_generators == 0:
        return r.dim
    return r.dim - fast_rank(stacked_alpha_minus_one(r))


# ---------------------------------------------------------------------------
# Eckmann-Shapiro comparison
# ---------------------------------------------------------------------------

def shapiro_compare(c: EquivariantComplex, action: PermAction, sub_matrices,
                    sub_dim: int) -> tuple[HomologyReport, HomologyReport]:
    """Homology of the cover under the subgroup rep versus homology of the
    base under the induced rep; the two must agree (raises CrossCheckError)."""
    from .complexes import cover_complex
    from .reps import BlockMonomial, _block_from_matrix

    cover = cover_complex(c, action)
    sub_images = []
    for m in sub_matrices:
        if not isinstance(m, Matrix):
            m = Matrix(sub_dim, sub_dim, m)
        sub_images.append(BlockMonomial((0,), (_block_from_matrix(m),)))
    conductor = math.lcm(1, *(x.conductor for mono in sub_images
                              for row in mono.blocks[0] for x in row))
    sub_rep = UnitaryRep(cover.group, sub_dim, conductor, "explicit",
                         monomials=sub_images)
    dims_cover = twisted_homology(cover, sub_rep)
    induced = induce_rep(c.group, action, sub_matrices, sub_dim)
    dims_induced = twisted_homology(c, induced)
    if dims_cover.dims != dims_induced.dims:
        raise CrossCheckError(
            f"Eckmann-Shapiro mismatch: {dims_cover.dims} vs {dims_induced.dims}")
    return dims_cover, dims_induced


# ---------------------------------------------------------------------------
# subquotient dimensions along the invariant/coinvariant split
# ---------------------------------------------------------------------------

def subquotient_dims(c: EquivariantComplex, r: UnitaryRep, s: SplitData) \
        -> tuple[HomologyReport, HomologyReport, HomologyReport]:
    """(dims of W, dims of V, dims of V/W) for the invariant/coinvariant split.

    V/W is computed through the W-perp model (the action there is exactly
    trivial).  Checks Euler additivity and the long-exact-sequence bounds.
    """
    if s.w_basis.cols + s.wperp_basis.cols != r.dim:
        raise ValueError("split is inconsistent with the representation")
    stacked = stacked_alpha_minus_one(r)
    for j in range(stacked.cols):
        if not in_column_span(s.w_basis, stacked.column(j)):
            raise ValueError("split W does not span the coinvariant directions")
    if fast_rank(s.w_basis) != s.w_basis.cols:
        raise ValueError("split W basis is degenerate")

    dims_v = twisted_homology(c, r)
    if s.w_basis.cols == 0:
        dims_w = HomologyReport([0] * len(c.ranks))
    else:
        dims_w = homology_dims(specialize_restricted(c, r, s.w_basis))
    dims_wperp = twisted_homology(c, trivial_rep(c.group, s.wperp_basis.cols)) \
        if s.wperp_basis.cols else HomologyReport([0] * len(c.ranks))

    if dims_v.euler != dims_w.euler + dims_wperp.euler:
        raise CrossCheckError("Euler characteristic is not additive across the split")
    for i in range(len(dims_v.dims)):
        if dims_v.dims[i] > dims_w.dims[i] + dims_wperp.dims[i]:
            raise CrossCheckError("long-exact-sequence bound violated in degree %d" % i)
    return dims_w, dims_v, dims_wperp


# ---------------------------------------------------------------------------
# connected sums with a rational homology sphere
# ---------------------------------------------------------------------------

RHS_DIMS = (1, 0, 0, 1)


def connected_sum_dims(c1: CatalogEntry, r1: UnitaryRep, c2: CatalogEntry) -> HomologyReport:
    """Twisted dims of the connected sum of c1 and a rational homology sphere.

    The representation on the sum is by definition pulled back from the first
    factor; the result equals the first factor's homology (five-lemma route)
    and its degrees 0 and 1 are cross-checked against the Fox-calculus
    computation on the free product presentation.
    """
    if tuple(c2.expected_trivial_dims) != RHS_DIMS:
        raise ValueError(f"{c2.spec_string()} is not a rational homology sphere")
    if r1.group != c1.complex.group:
        raise GroupMismatchError("representation is not defined on the first summand")
    report = twisted_homology(c1.complex, r1)

    p_sum = free_product(c1.complex.group, c2.complex.group)
    pulled = extend_by_identity(r1, p_sum)
    fox = twisted_homology(presentation_complex(p_sum), pulled)
    if (fox.dims[0], fox.dims[1]) != (report.dims[0], report.dims[1]):
        raise CrossCheckError(
            f"connected-sum cross-check failed: {fox.dims[:2]} vs {report.dims[:2]}")
    return report
