"""Specialization of equivariant complexes and exact twisted homology.

There is one exact backend.  A representation carries its generator images
and their inverses in the one image format of ``reps``: integers over
Z[x]/(x^n - 1), which maps onto Z[zeta_n] by x -> zeta_n, either as a
permutation plus one exponent of x per column or as one dense integer
matrix over a denominator, in lowest terms modulo Phi_n.  Every image is
unitary, so its inverse is its conjugate transpose.  The homology of an
invariant subspace W is read off the specialized complex of V itself
(``subquotient_dims``).

What specializing needs of the complex alone is compiled once per complex
and kept on it (``complexes.specialization_plan``): the prefix trie of all
boundary words with the nodes that end a word, and per boundary the int
arrays (word, row, col, coeff) of its terms.  A specialization takes one
product per trie node (``reps._node_images``) and accumulates each boundary
from the images of the word-end nodes alone as an integer array [R, C, n],
its numerator over Z[x]/(x^n - 1),
kept in that assembled form.  Their reductions modulo Phi_n must multiply
to exactly zero in Z[zeta_n], and a failure is a hard BoundaryError.  Ranks
come from the certified split-prime routine ``matrices.certified_rank``,
which takes the assembled arrays and does its own reduction.  Arrays hold
Python ints wherever a magnitude bound would leave int64, so no value
wraps.
"""

from __future__ import annotations

import operator

import numpy as np

from .complexes import (CatalogEntry, EquivariantComplex, presentation_complex,
                        specialization_plan)
from .groups import GroupPresentation, PermAction, free_product
from .matrices import certified_rank, reduce_cyclotomic, ring_matmul
from .reps import (SplitData, UnitaryRep, _node_images,
                   alpha_minus_one_blocks, explicit_rep, extend_by_identity,
                   induce_rep, trivial_rep, verify_rep)


class GroupMismatchError(ValueError):
    """Representation and complex are defined over different presentations."""


class BoundaryError(ValueError):
    """Consecutive boundaries do not multiply to zero under a specialization."""


class CrossCheckError(AssertionError):
    """Two independent computation routes disagree (internal error)."""


class HomologyReport:
    """Per-degree twisted homology dimensions with the derived Euler number.

    ``dims`` are read through ``operator.index``, so a float or a string
    there is a TypeError."""

    __slots__ = ("dims", "euler", "acyclic")

    def __init__(self, dims):
        dims = tuple(operator.index(d) for d in dims)
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

    ``boundaries[k]`` maps degree k+1 to degree k.  It is the assembled
    numerator, an integer array [rows, cols, n] over Z[x]/(x^n - 1) with n
    the ``conductor`` (x -> zeta_n), not reduced modulo Phi_n; the boundary
    is that array over ``denominators[k]``.  ``dims`` are read through
    ``operator.index`` (TypeError for a float or a string).
    """

    __slots__ = ("dims", "boundaries", "conductor", "denominators")

    def __init__(self, dims, boundaries, conductor: int, denominators):
        object.__setattr__(self, "dims", tuple(operator.index(d) for d in dims))
        object.__setattr__(self, "boundaries", tuple(boundaries))
        object.__setattr__(self, "conductor", conductor)
        object.__setattr__(self, "denominators", tuple(denominators))

    def __setattr__(self, *a):
        raise AttributeError("BlockComplex is immutable")


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
    imgs, plan = r.compiled, specialization_plan(c)
    n = imgs.n
    nodes = _node_images(imgs, plan.parents, plan.letters)
    assembled = imgs.assemble(plan, [nodes[k] for k in plan.ends])
    reduced = [reduce_cyclotomic(a, n) for a, _ in assembled]
    for t in range(len(reduced) - 1):
        if reduce_cyclotomic(ring_matmul(reduced[t], reduced[t + 1], n), n).any():
            raise BoundaryError(f"d{t + 1}.d{t + 2} != 0 under this representation")
    return BlockComplex([rank * imgs.dim for rank in c.ranks], [a for a, _ in assembled], n,
                        [den for _, den in assembled])


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
    """dim of V / span{alpha(g)v - v}: dim V minus the rank of the blocks
    (alpha(g) - I) of all generators, side by side."""
    if r.group != p:
        raise GroupMismatchError("representation group differs from presentation")
    if not verify_rep(r):
        raise ValueError("representation fails verification")
    blocks, n = alpha_minus_one_blocks(r)
    return r.dim - certified_rank(np.concatenate(blocks, axis=1), n)


# ---------------------------------------------------------------------------
# Eckmann-Shapiro comparison
# ---------------------------------------------------------------------------

def shapiro_compare(c: EquivariantComplex, action: PermAction, sub_matrices,
                    sub_dim: int) -> tuple[HomologyReport, HomologyReport]:
    """Homology of the cover under the subgroup rep versus homology of the
    base under the induced rep; the two must agree (raises CrossCheckError)."""
    from .complexes import cover_complex

    cover = cover_complex(c, action)
    sub_rep = explicit_rep(cover.group, sub_matrices, dim=sub_dim)
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

def _subspace_ranks(b: BlockComplex, basis: np.ndarray) -> list[int]:
    """rank of d_k (I tensor B) for every boundary d_k of ``b`` = C tensor V,
    where B = ``basis`` is an integer array [dim V, w, n] over
    Z[x]/(x^n - 1), n the conductor of ``b``: B multiplies each cell's
    column block of the boundaries."""
    dim, w, n = basis.shape
    ranks = []
    for a in b.boundaries:
        rows, cols = a.shape[:2]
        cells = cols // dim
        per_cell = a.reshape(rows, cells, dim, n).swapaxes(0, 1)
        prod = ring_matmul(per_cell, basis, n).swapaxes(0, 1).reshape(rows, cells * w, n)
        ranks.append(certified_rank(prod, n))
    return ranks


def subquotient_dims(c: EquivariantComplex, r: UnitaryRep, s: SplitData) \
        -> tuple[HomologyReport, HomologyReport, HomologyReport]:
    """(dims of W, dims of V, dims of V/W) for the invariant/coinvariant split.

    W is the column span of B = ``s.w_basis``, an integer array [dim V, w, n]
    over Z[x]/(x^n - 1) at the compiled n of r; any other shape is a
    ValueError.  B must have full column rank and hold every (alpha(g) - 1)v,
    which two certified ranks check.  Then W is invariant, and iota_k =
    I_{c_k} tensor B is an injective chain map C_k tensor W -> C_k tensor V:
    d_V iota_{k+1} = iota_k d_W.  Hence rank d_W = rank d_V (I tensor B), and
    C tensor W is read off the one specialization of V.  pi acts trivially on
    V/W, the coinvariants, so C tensor V/W is C tensor the trivial rep of
    dimension dim V - dim W.  Checks Euler additivity and the long-exact-
    sequence bounds.
    """
    blocks, n = alpha_minus_one_blocks(r)
    basis = s.w_basis
    if np.ndim(basis) != 3 or np.shape(basis)[::2] != (r.dim, n):
        raise ValueError(f"split W basis must be an integer array [{r.dim}, w, {n}]")
    w = basis.shape[1]
    if certified_rank(basis, n) != w:
        raise ValueError("split W basis is degenerate")
    if certified_rank(np.concatenate([basis] + blocks, axis=1), n) != w:
        raise ValueError("split W does not span the coinvariant directions")

    b = specialize(c, r)
    dims_v = homology_dims(b)
    ranks = [0] + _subspace_ranks(b, basis) + [0]
    dims_w = HomologyReport([cells * w - ranks[i] - ranks[i + 1]
                             for i, cells in enumerate(c.ranks)])
    dims_q = twisted_homology(c, trivial_rep(c.group, r.dim - w)) \
        if w < r.dim else HomologyReport([0] * len(c.ranks))

    if dims_v.euler != dims_w.euler + dims_q.euler:
        raise CrossCheckError("Euler characteristic is not additive across the split")
    # exactness of ... -> H_i(W) -> H_i(V) -> H_i(V/W) -> H_{i-1}(W) -> ... at
    # H_i(V), at H_i(W) and at H_i(V/W).  Terms out of range are 0: the
    # appended 0 is read both at i + 1 = len(c.ranks) and at i - 1 = -1.
    hv, hw, hq = (list(h.dims) + [0] for h in (dims_v, dims_w, dims_q))
    for i in range(len(c.ranks)):
        if hv[i] > hw[i] + hq[i] or hw[i] > hv[i] + hq[i + 1] or hq[i] > hv[i] + hw[i - 1]:
            raise CrossCheckError("long-exact-sequence bound violated in degree %d" % i)
    return dims_w, dims_v, dims_q


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
