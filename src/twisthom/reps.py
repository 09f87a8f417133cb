"""Unitary representations with cyclotomic entries.

Most constructed representations (characters, permutation and induced
representations) are block-monomial: a permutation of block-columns plus one
unitary block per column.  Words then evaluate in O(length * degree * k^3)
instead of dense matrix products, which is what makes the large permutation
batteries affordable.  Dense generator matrices are materialized on demand.
"""

from __future__ import annotations

import itertools
import math

from .complexes import quaternion_presentation
from .groups import (GroupPresentation, PermAction, Word,
                     abelianization_change_of_basis, perm_inverse,
                     reidemeister_schreier, verify_grading)
from .matrices import (Matrix, column_space_basis, fast_rank, in_column_span,
                       right_kernel_basis_field, solve_column_combination)
from .numbers import Cyclo

Block = tuple[tuple[Cyclo, ...], ...]


def _block_from_matrix(m: Matrix) -> Block:
    return tuple(tuple(x if isinstance(x, Cyclo) else Cyclo.from_rational(x)
                       for x in row) for row in m.entries)


def _block_identity(k: int) -> Block:
    one, zero = Cyclo.one(), Cyclo.zero()
    return tuple(tuple(one if i == j else zero for j in range(k)) for i in range(k))


def _block_mul(a: Block, b: Block) -> Block:
    k = len(a)
    return tuple(tuple(sum((a[i][m] * b[m][j] for m in range(k)), Cyclo.zero())
                       for j in range(k)) for i in range(k))


def _block_conj_transpose(a: Block) -> Block:
    k = len(a)
    return tuple(tuple(a[j][i].conjugate() for j in range(k)) for i in range(k))


def _block_is_identity(a: Block) -> bool:
    return all((a[i][j].is_one() if i == j else not a[i][j])
               for i in range(len(a)) for j in range(len(a)))


class BlockMonomial:
    """A block-monomial matrix: column i carries block ``blocks[i]`` in row ``perm[i]``."""

    __slots__ = ("perm", "blocks")

    def __init__(self, perm, blocks):
        object.__setattr__(self, "perm", tuple(perm))
        object.__setattr__(self, "blocks", tuple(blocks))

    def __setattr__(self, *a):
        raise AttributeError("BlockMonomial is immutable")

    @staticmethod
    def identity(degree: int, k: int) -> "BlockMonomial":
        block = _block_identity(k)
        return BlockMonomial(range(degree), [block] * degree)

    def __matmul__(self, other: "BlockMonomial") -> "BlockMonomial":
        perm = tuple(self.perm[other.perm[i]] for i in range(len(self.perm)))
        blocks = tuple(_block_mul(self.blocks[other.perm[i]], other.blocks[i])
                       for i in range(len(self.perm)))
        return BlockMonomial(perm, blocks)

    def inverse(self) -> "BlockMonomial":
        """Inverse of a block-unitary monomial matrix (blocks invert by dagger)."""
        q = perm_inverse(self.perm)
        blocks = tuple(_block_conj_transpose(self.blocks[q[i]]) for i in range(len(q)))
        return BlockMonomial(q, blocks)

    def is_identity(self) -> bool:
        return all(self.perm[i] == i and _block_is_identity(self.blocks[i])
                   for i in range(len(self.perm)))

    def dense(self) -> Matrix:
        d = len(self.perm)
        k = len(self.blocks[0]) if d else 0
        zero = Cyclo.zero()
        n = d * k
        entries = [[zero] * n for _ in range(n)]
        for i in range(d):
            r = self.perm[i]
            for a in range(k):
                for b in range(k):
                    entries[r * k + a][i * k + b] = self.blocks[i][a][b]
        return Matrix(n, n, entries)


class UnitaryRep:
    """A homomorphism pi -> U(dim) with entries in Q(zeta_conductor)."""

    __slots__ = ("group", "dim", "conductor", "provenance", "monomials",
                 "_dense", "_verified")

    def __init__(self, group: GroupPresentation, dim: int, conductor: int,
                 provenance: str, monomials=None, dense=None):
        if monomials is None and dense is None:
            raise ValueError("need monomial or dense generator images")
        object.__setattr__(self, "group", group)
        object.__setattr__(self, "dim", dim)
        object.__setattr__(self, "conductor", conductor)
        object.__setattr__(self, "provenance", provenance)
        object.__setattr__(self, "monomials",
                           tuple(monomials) if monomials is not None else None)
        object.__setattr__(self, "_dense", tuple(dense) if dense is not None else None)
        object.__setattr__(self, "_verified", None)

    def __setattr__(self, *a):
        raise AttributeError("UnitaryRep is immutable")

    @property
    def generator_images(self) -> tuple[Matrix, ...]:
        if self._dense is None:
            object.__setattr__(self, "_dense",
                               tuple(m.dense() for m in self.monomials))
        return self._dense

    # -- word evaluation -----------------------------------------------------

    def word_monomial(self, w: Word) -> BlockMonomial:
        assert self.monomials is not None
        if self.monomials:
            d = len(self.monomials[0].perm)
            k = len(self.monomials[0].blocks[0]) if d else self.dim
        else:
            d, k = 1, self.dim
        out = BlockMonomial.identity(d, k)
        for g, e in w:
            m = self.monomials[g] if e == 1 else self.monomials[g].inverse()
            out = out @ m
        return out

    def __repr__(self):
        return (f"UnitaryRep(dim={self.dim}, conductor={self.conductor}, "
                f"provenance={self.provenance!r})")


def _dense_conj_transpose(a: Matrix) -> Matrix:
    return Matrix(a.cols, a.rows,
                  [[(a[j, i].conjugate() if isinstance(a[j, i], Cyclo)
                     else Cyclo.from_rational(a[j, i]).conjugate())
                    for j in range(a.rows)] for i in range(a.cols)])


def evaluate_word(r: UnitaryRep, w: Word) -> Matrix:
    """The image alpha(w): inverses evaluate by conjugate-transpose (unitarity)."""
    for g, _ in w:
        if g < 0 or g >= r.group.num_generators:
            raise ValueError(f"generator index {g} out of range")
    if r.monomials is not None:
        return r.word_monomial(w).dense()
    out = Matrix.identity(r.dim, Cyclo.one(), Cyclo.zero())
    for g, e in w:
        m = r.generator_images[g]
        out = out @ (m if e == 1 else _dense_conj_transpose(m))
    return out


# ---------------------------------------------------------------------------
# constructors
# ---------------------------------------------------------------------------

def trivial_rep(p: GroupPresentation, k: int = 1) -> UnitaryRep:
    mono = BlockMonomial((0,), (_block_identity(k),))
    rep = UnitaryRep(p, k, 1, "trivial", monomials=[mono] * p.num_generators)
    object.__setattr__(rep, "_verified", True)
    return rep


def character_from_grading(p: GroupPresentation, phi, z_order: int,
                           z_power: int) -> UnitaryRep:
    """The character g |-> zeta_n^(a * phi(g)) for a verified grading phi."""
    if not verify_grading(p, phi):
        raise ValueError("grading does not vanish on all relators")
    if z_order < 1:
        raise ValueError("root order must be >= 1")
    monos = []
    for g in range(p.num_generators):
        z = Cyclo.root_of_unity(z_order, z_power * phi[g]) if z_order > 1 \
            else Cyclo.one()
        monos.append(BlockMonomial((0,), (((z,),),)))
    rep = UnitaryRep(p, 1, z_order if z_order > 1 else 1, "character",
                     monomials=monos)
    object.__setattr__(rep, "_verified", True)
    return rep


def torsion_characters(p: GroupPresentation) -> list[UnitaryRep]:
    """All characters of the torsion part of H1, trivial character first.

    Invariant factors d_1, ..., d_s give prod(d_i) characters indexed by
    tuples (a_1, ..., a_s) in lexicographic order; all share the conductor
    lcm(d_i), pulled back to generators through the SNF row transform.
    """
    u, diag = abelianization_change_of_basis(p)
    idxs = [i for i, d in enumerate(diag) if d > 1]
    ds = [diag[i] for i in idxs]
    if not ds:
        mono = BlockMonomial((0,), (_block_identity(1),))
        rep = UnitaryRep(p, 1, 1, "character",
                         monomials=[mono] * p.num_generators)
        object.__setattr__(rep, "_verified", True)
        return [rep]
    lcm = math.lcm(*ds)
    out = []
    for a in itertools.product(*[range(d) for d in ds]):
        monos = []
        for j in range(p.num_generators):
            e = sum(a[i] * (lcm // ds[i]) * u[idxs[i], j] for i in range(len(ds)))
            z = Cyclo.root_of_unity(lcm, e)
            monos.append(BlockMonomial((0,), (((z,),),)))
        rep = UnitaryRep(p, 1, lcm, "character", monomials=monos)
        object.__setattr__(rep, "_verified", True)
        out.append(rep)
    return out


def permutation_rep(p: GroupPresentation, action: PermAction) -> UnitaryRep:
    """0/1 permutation matrices of the action; unitary by construction."""
    if action.presentation != p:
        raise ValueError("action does not belong to this presentation")
    block = _block_identity(1)
    monos = [BlockMonomial(img, (block,) * action.degree)
             for img in action.generator_images]
    rep = UnitaryRep(p, action.degree, 1, "permutation", monomials=monos)
    # relators were checked on the permutations, unitarity is structural
    object.__setattr__(rep, "_verified", True)
    return rep


def induce_rep(p: GroupPresentation, action: PermAction, sub_matrices,
               sub_dim: int) -> UnitaryRep:
    """Induction of a stabilizer representation given on Schreier generators.

    ``sub_matrices[m]`` is the unitary sub_dim x sub_dim image of the m-th
    Schreier generator.  The result is block-monomial of dimension
    degree * sub_dim: block (w(i), i) of a generator w is the sub-image of the
    Schreier word carrying coset i to w(i).
    """
    sub, data = reidemeister_schreier(p, action)
    blocks_in = [_block_from_matrix(m) if isinstance(m, Matrix) else _block_from_matrix(Matrix(sub_dim, sub_dim, m))
                 for m in sub_matrices]
    if len(blocks_in) != data.num_schreier_generators():
        raise ValueError(f"need {data.num_schreier_generators()} Schreier images, "
                         f"got {len(blocks_in)}")
    for b in blocks_in:
        if len(b) != sub_dim or any(len(row) != sub_dim for row in b):
            raise ValueError("sub-representation blocks have the wrong size")
        if not _block_is_identity(_block_mul(_block_conj_transpose(b), b)):
            raise ValueError("sub-representation image is not unitary")

    def sub_word_block(w: Word) -> Block:
        out = _block_identity(sub_dim)
        for g, e in w:
            b = blocks_in[g] if e == 1 else _block_conj_transpose(blocks_in[g])
            out = _block_mul(out, b)
        return out

    for r in sub.relators:
        if not _block_is_identity(sub_word_block(r)):
            raise ValueError("sub-representation fails a rewritten relator")

    identity = _block_identity(sub_dim)
    monos = []
    for g in range(p.num_generators):
        cols = []
        for i in range(action.degree):
            idx = data.pair_index[(i, g)]
            cols.append(identity if idx is None else blocks_in[idx])
        monos.append(BlockMonomial(action.generator_images[g], cols))
    conductor = math.lcm(1, *(x.conductor for b in blocks_in for row in b for x in row))
    rep = UnitaryRep(p, action.degree * sub_dim, conductor, "induced",
                     monomials=monos)
    # sub-representation was validated above; induction preserves unitarity
    # and relator identities (checked exhaustively in the test suite)
    object.__setattr__(rep, "_verified", True)
    return rep


def explicit_rep(p: GroupPresentation, matrices, provenance: str = "explicit",
                 dim: int | None = None) -> UnitaryRep:
    """Dense representation from explicit generator matrices; verified on use."""
    dense = []
    for m in matrices:
        if not isinstance(m, Matrix):
            m = Matrix(len(m), len(m[0]) if m else 0, m)
        entries = [[x if isinstance(x, Cyclo) else Cyclo.from_rational(x)
                    for x in row] for row in m.entries]
        m = Matrix(m.rows, m.cols, entries)
        if m.rows != m.cols:
            raise ValueError("generator images must be square")
        if dim is None:
            dim = m.rows
        elif m.rows != dim:
            raise ValueError("generator images must share one dimension")
        dense.append(m)
    if len(dense) != p.num_generators:
        raise ValueError("one matrix per generator required")
    if dim is None:
        raise ValueError("dim is required when the group has no generators")
    conductor = math.lcm(1, *(x.conductor for m in dense for row in m.entries for x in row))
    if dense:
        return UnitaryRep(p, dim, conductor, provenance, dense=dense)
    return UnitaryRep(p, dim, conductor, provenance, monomials=[])


def quaternion_left_rep() -> UnitaryRep:
    """Left multiplication of Q8 on the quaternions: x -> L_i, y -> L_j in O(4).

    Integer orthogonal matrices, so the representation is exactly unitary and
    every non-identity image is fixed-point free.
    """
    li = [[0, -1, 0, 0], [1, 0, 0, 0], [0, 0, 0, -1], [0, 0, 1, 0]]
    lj = [[0, 0, -1, 0], [0, 0, 0, 1], [1, 0, 0, 0], [0, -1, 0, 0]]
    return explicit_rep(quaternion_presentation(), [li, lj], provenance="explicit")


def extend_by_identity(r: UnitaryRep, big_group: GroupPresentation) -> UnitaryRep:
    """Pull a representation back through the projection that kills the extra
    generators of ``big_group`` (the first generators must be r's)."""
    extra = big_group.num_generators - r.group.num_generators
    if extra < 0:
        raise ValueError("target group has fewer generators")
    if r.monomials is not None:
        d = len(r.monomials[0].perm) if r.monomials else 1
        k = r.dim // d if d else r.dim
        ident = BlockMonomial.identity(d if r.monomials else 1, k if r.monomials else r.dim)
        monos = list(r.monomials) + [ident] * extra
        return UnitaryRep(big_group, r.dim, r.conductor, r.provenance, monomials=monos)
    ident = Matrix.identity(r.dim, Cyclo.one(), Cyclo.zero())
    dense = list(r.generator_images) + [ident] * extra
    return UnitaryRep(big_group, r.dim, r.conductor, r.provenance, dense=dense)


# ---------------------------------------------------------------------------
# verification
# ---------------------------------------------------------------------------

def verify_rep(r: UnitaryRep) -> bool:
    """Exact unitarity of all generator images plus identity on all relators."""
    if r._verified is not None:
        return r._verified
    ok = _verify_rep_uncached(r)
    object.__setattr__(r, "_verified", ok)
    return ok


def _verify_rep_uncached(r: UnitaryRep) -> bool:
    if r.monomials is not None:
        for m in r.monomials:
            for b in m.blocks:
                if not _block_is_identity(_block_mul(_block_conj_transpose(b), b)):
                    return False
        for rel in r.group.relators:
            if not r.word_monomial(rel).is_identity():
                return False
        return True
    ident = Matrix.identity(r.dim, Cyclo.one(), Cyclo.zero())
    for m in r.generator_images:
        if _dense_conj_transpose(m) @ m != ident:
            return False
    for rel in r.group.relators:
        if evaluate_word(r, rel) != ident:
            return False
    return True


# ---------------------------------------------------------------------------
# invariant/coinvariant splitting
# ---------------------------------------------------------------------------

class SplitData:
    """Bases of W = span{alpha(g)v - v} and of its orthogonal complement."""

    __slots__ = ("w_basis", "wperp_basis")

    def __init__(self, w_basis: Matrix, wperp_basis: Matrix):
        object.__setattr__(self, "w_basis", w_basis)
        object.__setattr__(self, "wperp_basis", wperp_basis)

    def __setattr__(self, *a):
        raise AttributeError("SplitData is immutable")


def stacked_alpha_minus_one(r: UnitaryRep) -> Matrix:
    """All (alpha(g) - I) side by side: a dim x (dim * num_generators) matrix."""
    k = r.dim
    ident = Matrix.identity(k, Cyclo.one(), Cyclo.zero())
    cols: list[list] = [[] for _ in range(k)]
    for g in range(r.group.num_generators):
        m = r.generator_images[g]
        for i in range(k):
            cols[i].extend(m[i, j] - ident[i, j] for j in range(k))
    return Matrix(k, k * r.group.num_generators, cols)


def invariant_coinvariant_split(r: UnitaryRep) -> SplitData:
    """W = column span of the stacked (alpha(g) - I); W-perp under the standard
    hermitian form.  Checks that W is a submodule and that the action on
    W-perp is exactly trivial (the unitarity argument of the splitting)."""
    if not verify_rep(r):
        raise ValueError("representation fails verification")
    stacked = stacked_alpha_minus_one(r)
    w_basis = column_space_basis(stacked)
    # <v, w> = 0 for all w in W  <=>  conj(W)^T v = 0
    wt = Matrix(w_basis.cols, w_basis.rows,
                [[w_basis[i, j].conjugate() if isinstance(w_basis[i, j], Cyclo)
                  else Cyclo.from_rational(w_basis[i, j])
                  for i in range(w_basis.rows)] for j in range(w_basis.cols)])
    wperp_basis = right_kernel_basis_field(wt, Cyclo.one(), Cyclo.zero())
    if w_basis.cols + wperp_basis.cols != r.dim:
        raise AssertionError("split dimensions do not add up")
    for g in range(r.group.num_generators):
        m = r.generator_images[g]
        for c in range(w_basis.cols):
            img = [sum((m[i, j] * w_basis[j, c] for j in range(r.dim)), Cyclo.zero())
                   for i in range(r.dim)]
            if not in_column_span(w_basis, img):
                raise AssertionError("W is not invariant under the action")
        for c in range(wperp_basis.cols):
            img = [sum((m[i, j] * wperp_basis[j, c] for j in range(r.dim)), Cyclo.zero())
                   for i in range(r.dim)]
            if any(img[i] != wperp_basis[i, c] for i in range(r.dim)):
                raise AssertionError("action on W-perp is not trivial")
    return SplitData(w_basis, wperp_basis)


def restrict_to_span(r: UnitaryRep, basis: Matrix) -> list[Matrix]:
    """Generator matrices of the action restricted to an invariant column span.

    The basis need not be orthonormal (orthonormalizing would need square
    roots outside the cyclotomic field), so the restricted matrices are exact
    but not literally unitary; homology only needs ranks.
    """
    out = []
    for g in range(r.group.num_generators):
        m = r.generator_images[g]
        img = Matrix(r.dim, basis.cols,
                     [[sum((m[i, j] * basis[j, c] for j in range(r.dim)), Cyclo.zero())
                       for c in range(basis.cols)] for i in range(r.dim)])
        out.append(solve_column_combination(basis, img))
    return out


# ---------------------------------------------------------------------------
# fixed-point-free test
# ---------------------------------------------------------------------------

class ImageClosureError(RuntimeError):
    """The BFS closure of the generator images exceeded the element cap."""


def _matrix_key(m: Matrix, conductor: int):
    return tuple(tuple((x if isinstance(x, Cyclo) else Cyclo.from_rational(x))
                       .embed(conductor).coeffs for x in row) for row in m.entries)


def fixed_point_free_check(r: UnitaryRep, element_cap: int = 10000) -> bool:
    """True iff no non-identity element of the (finite) image fixes a vector.

    Materializes the image group by BFS over generator products; raises
    ImageClosureError when it exceeds element_cap (image possibly infinite).
    A generator mapping to the identity fails the check (a presumed-nontrivial
    element fixing everything); kernel elements hidden beyond the generators
    cannot be detected without a word-problem solver, so faithfulness is the
    caller's obligation for non-generator kernel elements.
    """
    if not verify_rep(r):
        raise ValueError("representation fails verification")
    gens = list(r.generator_images)
    ident = Matrix.identity(r.dim, Cyclo.one(), Cyclo.zero())
    if any(m == ident for m in gens):
        return False
    gens += [_dense_conj_transpose(m) for m in gens]
    seen = {_matrix_key(ident, r.conductor): ident}
    frontier = [ident]
    while frontier:
        new = []
        for m in frontier:
            for g in gens:
                prod = g @ m
                key = _matrix_key(prod, r.conductor)
                if key not in seen:
                    if len(seen) >= element_cap:
                        raise ImageClosureError(
                            f"image closure exceeded {element_cap} elements")
                    seen[key] = prod
                    new.append(prod)
        frontier = new
    for key, m in seen.items():
        if m == ident:
            continue
        diff = Matrix(r.dim, r.dim,
                      [[m[i, j] - ident[i, j] for j in range(r.dim)]
                       for i in range(r.dim)])
        if fast_rank(diff) < r.dim:
            return False
    return True
