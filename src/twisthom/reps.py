"""Unitary representations with cyclotomic entries, in one exact image format.

A representation stores its generator images, and their inverses, once, as
integers over Z[x]/(x^n - 1), which maps onto Z[zeta_n] by x -> zeta_n.
``explicit_rep`` and ``induce_rep`` hand one Cyclo matrix per generator to
one rule (``_compile``), which reads the form off the matrices themselves:

* when each column holds one nonzero entry, a root of unity, in rows that
  form a permutation (sums of characters, signed permutations, reps induced
  from those), an image is a permutation plus one exponent of x per column,
  composed in plain Python ints (``_Monomial``);
* otherwise it is one integer array [dim, dim, n] over a denominator
  (``_Dense``), kept in lowest terms modulo Phi_n (``_lowest``): reduced to
  the power basis 1, x, ..., x^(phi(n)-1), zeros past it, and the array and
  its denominator divided by their gcd, after compiling and after every
  product.  Equal matrices are equal images in either form.

Characters, trivial and permutation reps are monomial by construction.
Every image is unitary, so its inverse is always its conjugate transpose
(x^u -> x^-u, transposed; for monomials, the inverse permutation with
negated exponents).
Word images (``evaluate_word``), verification and specialization all multiply
along a prefix trie of their words (``complexes.prefix_trie``), one product
per node (``_node_images``); a permutation rep takes its images and their
inverses from the action.  The split and the fixed-point-free test rank the
same integers (``alpha_minus_one_blocks``).  ``Cyclo`` is a codec only: no
Cyclo arithmetic happens here, and Cyclo matrices are a view on demand.
"""

from __future__ import annotations

import functools
import itertools
import math
from fractions import Fraction
from operator import itemgetter

import numpy as np

from .complexes import prefix_trie, quaternion_presentation
from .groups import (GroupPresentation, PermAction, Word,
                     abelianization_change_of_basis, reidemeister_schreier,
                     verify_grading)
from .matrices import (Matrix, _growth, _reduction, certified_pivots, certified_rank,
                       int_dtype, lift_cyclo, max_abs, ring_matmul)
from .numbers import Cyclo, cyclotomic_reduction_rows

# ---------------------------------------------------------------------------
# generator images over Z[x]/(x^n - 1)
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
    """Images (perm, exps): column i holds x^exps[i] in row perm[i].

    Exponents are written at n / gcd(n, exponents), the lcm of the orders of
    the roots; the inverse of an image is x^-e at the inverse permutation.
    Images are kept as four tuples (perms, exps and the inverses' two), read
    by ``image`` with no dict built: a permutation rep holds its action's.
    """

    __slots__ = ("n", "dim", "perms", "exps", "inverse_perms", "inverse_exps")

    def __init__(self, n: int, dim: int, gens):
        gens = [(tuple(perm), [e % n for e in exps]) for perm, exps in gens]
        g = math.gcd(n, *(e for _, exps in gens for e in exps))
        self.n, self.dim = n // g, dim
        shared = {}

        def stored(t):  # equal tuples are kept once
            t = tuple(t)
            return shared.setdefault(t, t)

        columns = [], [], [], []
        for perm, exps in gens:
            inv_perm, inv_exps = [0] * dim, [0] * dim
            for i, (row, e) in enumerate(zip(perm, exps)):
                inv_perm[row], inv_exps[row] = i, -e // g % self.n
            for column, t in zip(columns, (perm, (e // g for e in exps), inv_perm, inv_exps)):
                column.append(stored(t))
        self.perms, self.exps, self.inverse_perms, self.inverse_exps = map(tuple, columns)

    @classmethod
    def of_permutations(cls, dim: int, perms, inverses):
        """0/1 images (n = 1) of permutations given with their inverses."""
        imgs = cls.__new__(cls)
        imgs.n, imgs.dim, imgs.perms, imgs.inverse_perms = 1, dim, perms, inverses
        imgs.exps = imgs.inverse_exps = ((0,) * dim,) * len(perms)
        return imgs

    def image(self, g: int, e: int):
        """The image (perm, exps) of the letter (g, e), e = +-1."""
        if e == 1:
            return self.perms[g], self.exps[g]
        return self.inverse_perms[g], self.inverse_exps[g]

    @property
    def identity(self):
        return tuple(range(self.dim)), (0,) * self.dim

    def mul(self, a, b):
        (pa, ea), (pb, eb), n = a, b, self.n
        if n == 1:  # every exponent is 0; below dim 2 pa is the only permutation
            return (itemgetter(*pb)(pa) if self.dim > 1 else pa), ea
        return tuple([pa[j] for j in pb]), tuple([(ea[j] + e) % n for j, e in zip(pb, eb)])

    def is_identity(self, img) -> bool:
        return img == self.identity

    def dense(self, img) -> tuple[np.ndarray, int]:
        perm, exps = img
        out = np.zeros((self.dim, self.dim, self.n), dtype=np.int64)
        out[list(perm), np.arange(self.dim), list(exps)] = 1
        return out, 1

    def assemble(self, plan, images) -> list:
        """Each boundary of a ``complexes.SpecializationPlan`` under the
        ``images`` of its words (one per ``plan.ends``), by one scatter of the
        terms' stacked images at the plan's indices for this dim; den 1."""
        d, n = self.dim, self.n
        perms = np.array([p for p, _ in images], dtype=np.int64).reshape(len(images), d)
        if n > 1:  # at n = 1 every exponent is 0: the plan's zeros
            exps = np.array([e for _, e in images], dtype=np.int64).reshape(len(images), d)
        out = []
        for rows, cols, words, i, j, coeffs, zeros in plan.scatter(d):
            a = np.zeros((rows, cols, n), dtype=coeffs.dtype)
            np.add.at(a, (i + perms[words], j, zeros if n == 1 else exps[words]), coeffs)
            out.append((a, 1))
        return out


class _Dense:
    """Images (a, den): the matrix a / den, a an integer array [dim, dim, n]
    in lowest terms modulo Phi_n (``_lowest``): one (a, den) per matrix."""

    __slots__ = ("n", "dim", "images")

    def __init__(self, n: int, dim: int, images: dict):
        self.n, self.dim, self.images = n, dim, images

    def image(self, g: int, e: int):
        """The image of the letter (g, e), e = +-1."""
        return self.images[g, e]

    @property
    def identity(self):
        eye = np.zeros((self.dim, self.dim, self.n), dtype=np.int64)
        eye[np.arange(self.dim), np.arange(self.dim), 0] = 1
        return eye, 1

    def mul(self, a, b):
        return _lowest(ring_matmul(a[0], b[0], self.n), a[1] * b[1], self.n)

    def is_identity(self, img) -> bool:
        return img[1] == 1 and np.array_equal(img[0], self.identity[0])

    def dense(self, img) -> tuple[np.ndarray, int]:
        return img

    def assemble(self, plan, images) -> list:
        """Each boundary of a ``complexes.SpecializationPlan`` under the
        ``images`` of its words (one per ``plan.ends``), over the lcm of the
        terms' denominators."""
        out, dim = [], self.dim
        for rows, cols, index, coeffs in plan.boundaries:
            terms = list(zip(*index.tolist(), coeffs.tolist()))  # (word, i, j, coeff)
            den = math.lcm(1, *(images[w][1] for w, *_ in terms))
            sums = {}
            for w, i, j, c in terms:
                sums[i, j] = sums.get((i, j), 0) + \
                    abs(c) * (den // images[w][1]) * max_abs(images[w][0])
            a = np.zeros((rows * dim, cols * dim, self.n),
                         dtype=int_dtype(max(sums.values(), default=0)))
            for w, i, j, c in terms:
                a[i * dim:(i + 1) * dim, j * dim:(j + 1) * dim] += \
                    images[w][0].astype(a.dtype) * (c * (den // images[w][1]))
            out.append((a, den))
        return out


@functools.cache
def _power_basis(n: int) -> np.ndarray:
    """Row i: x^i (i < n) in the power basis of Z[zeta_n], at width n, so zero
    past x^(phi(n)-1)."""
    rows = _reduction(n)
    return np.pad(rows, ((0, 0), (0, n - rows.shape[1])))


def _lowest(a: np.ndarray, den: int, n: int) -> tuple[np.ndarray, int]:
    """The one dense image form of a / den (a of width m <= n): a reduced
    modulo Phi_n in the power basis, kept at width n, then array and den
    divided by their gcd.  Equal matrices get equal (a, den)."""
    m = a.shape[-1]
    dtype = int_dtype(max_abs(a) * _growth(n, m))
    red = a.astype(dtype, copy=False) @ _power_basis(n)[:m].astype(dtype, copy=False)
    g = math.gcd(den, int(np.gcd.reduce(red, axis=None)))
    red //= g
    return (red.astype(int_dtype(max_abs(red))) if dtype is object else red), den // g


def _monomial_columns(mats):
    """(perm, entries) per matrix (rows) when each column holds one nonzero
    entry and those rows form a permutation, else None."""
    out = []
    for rows in mats:
        nonzero = [[(i, x) for i, x in enumerate(col) if x] for col in zip(*rows)]
        if any(len(col) != 1 for col in nonzero):
            return None
        perm = [col[0][0] for col in nonzero]
        if len(set(perm)) != len(perm):
            return None
        out.append((perm, [col[0][1] for col in nonzero]))
    return out


def _compile(dim: int, mats):
    """The one image rule, from one Cyclo matrix (rows) per generator: a
    ``_Monomial`` when every column of every image holds one nonzero entry, a
    root of unity, in rows that form a permutation; otherwise one integer
    array [dim, dim, n] over a denominator per image (``_Dense``), whose
    inverse is its conjugate transpose (x^u -> x^-u, transposed)."""
    gens = _monomial_columns(mats)
    if gens is not None:
        # one lookup per distinct entry: hashing Fraction coefficients is slow
        entries = {id(x): x for _, xs in gens for x in xs}
        root = {i: _roots_of_unity(x.conductor).get(x.coeffs) for i, x in entries.items()}
        if None not in root.values():
            n = math.lcm(*(m for m, _ in root.values()))
            exps = {i: e * (n // m) for i, (m, e) in root.items()}
            return _Monomial(n, dim, [(perm, [exps[id(x)] for x in xs]) for perm, xs in gens])
    n = math.lcm(1, *(x.conductor for rows in mats for row in rows for x in row))
    images = {}
    for g, rows in enumerate(mats):
        a, den = lift_cyclo(rows, n)
        images[g, 1] = _lowest(a, den, n)
        images[g, -1] = _lowest(a[..., -np.arange(n) % n].transpose(1, 0, 2), den, n)
    return _Dense(n, dim, images)


def _node_images(imgs, parents, letters) -> list:
    """The image of every node of a prefix trie (``complexes.prefix_trie``),
    node 0 the identity: one product per node, its parent's image times the
    image of its letter."""
    images, mul, image = [imgs.identity], imgs.mul, imgs.image
    for parent, (g, e) in zip(parents[1:], letters[1:]):
        images.append(mul(images[parent], image(g, e)))
    return images


def _as_matrix(a: np.ndarray, den: int, c: int) -> Matrix:
    """The integer array a[R, C, n] over Z[x]/(x^n - 1), divided by den, as a
    Matrix of Cyclo entries of conductor c.

    n divides c, or, for odd c, 2c: then x = zeta_2c^s with s = 2c/n odd,
    and zeta_2c = -zeta_c^((c + 1)/2).
    """
    rows, cols, n = a.shape
    reduction = cyclotomic_reduction_rows(c)
    if c % n == 0:
        basis = [reduction[i * (c // n)] for i in range(n)]
    else:
        s = 2 * c // n
        basis = [tuple((-1) ** i * v for v in reduction[i * s * ((c + 1) // 2) % c])
                 for i in range(n)]
    coeffs = a.astype(object) @ np.array(basis, dtype=object).reshape(n, -1)
    cache = {}

    def entry(v):
        v = tuple(v)
        if v not in cache:
            cache[v] = Cyclo(c, [Fraction(x, den) for x in v])
        return cache[v]

    return Matrix(rows, cols, [[entry(v) for v in row] for row in coeffs.tolist()])


class UnitaryRep:
    """A homomorphism pi -> U(dim) with entries in Q(zeta_conductor).

    ``compiled`` holds the generator images and their inverses in the one
    image format of this module.
    """

    __slots__ = ("group", "dim", "conductor", "provenance", "compiled", "_verified")

    def __init__(self, group: GroupPresentation, dim: int, conductor: int,
                 provenance: str, compiled, verified: bool | None = None):
        object.__setattr__(self, "group", group)
        object.__setattr__(self, "dim", dim)
        object.__setattr__(self, "conductor", conductor)
        object.__setattr__(self, "provenance", provenance)
        object.__setattr__(self, "compiled", compiled)
        object.__setattr__(self, "_verified", verified)

    def __setattr__(self, *a):
        raise AttributeError("UnitaryRep is immutable")

    @property
    def generator_images(self) -> tuple[Matrix, ...]:
        """The generator images as Cyclo matrices, derived on every access."""
        imgs = self.compiled
        return tuple(_as_matrix(*imgs.dense(imgs.image(g, 1)), self.conductor)
                     for g in range(self.group.num_generators))

    def __repr__(self):
        return (f"UnitaryRep(dim={self.dim}, conductor={self.conductor}, "
                f"provenance={self.provenance!r})")


def evaluate_word(r: UnitaryRep, w: Word) -> Matrix:
    """The image alpha(w): inverses evaluate by conjugate-transpose (unitarity)."""
    w = tuple(w)
    for g, _ in w:
        if g < 0 or g >= r.group.num_generators:
            raise ValueError(f"generator index {g} out of range")
    parents, letters, (node,) = prefix_trie([w])
    image = _node_images(r.compiled, parents, letters)[node]
    return _as_matrix(*r.compiled.dense(image), r.conductor)


def character_exponents(r: UnitaryRep) -> list[int]:
    """The exponent k of zeta_conductor^k at each generator of a character
    built by ``torsion_characters`` or ``character_from_grading``, whose
    compiled n divides the conductor: its exponent of x times conductor / n."""
    imgs = r.compiled
    return [exps[0] * (r.conductor // imgs.n) for exps in imgs.exps]


# ---------------------------------------------------------------------------
# constructors
# ---------------------------------------------------------------------------

def _cyclo_matrix(m) -> Matrix:
    if not isinstance(m, Matrix):
        m = Matrix(len(m), len(m[0]) if m else 0, m)
    return Matrix(m.rows, m.cols, [[x if isinstance(x, Cyclo) else Cyclo.from_rational(x)
                                    for x in row] for row in m.entries])


def trivial_rep(p: GroupPresentation, k: int = 1) -> UnitaryRep:
    ident = (range(k), [0] * k)
    return UnitaryRep(p, k, 1, "trivial", _Monomial(1, k, [ident] * p.num_generators),
                      verified=True)


def character_from_grading(p: GroupPresentation, phi, z_order: int,
                           z_power: int) -> UnitaryRep:
    """The character g |-> zeta_n^(a * phi(g)) for a verified grading phi."""
    if not verify_grading(p, phi):
        raise ValueError("grading does not vanish on all relators")
    if z_order < 1:
        raise ValueError("root order must be >= 1")
    gens = [((0,), (z_power * phi[g],)) for g in range(p.num_generators)]
    return UnitaryRep(p, 1, z_order, "character", _Monomial(z_order, 1, gens),
                      verified=True)


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
        gens = [((0,), (0,))] * p.num_generators
        return [UnitaryRep(p, 1, 1, "character", _Monomial(1, 1, gens), verified=True)]
    lcm = math.lcm(*ds)
    out = []
    for a in itertools.product(*[range(d) for d in ds]):
        gens = [((0,), (sum(a[i] * (lcm // ds[i]) * u[idxs[i], j] for i in range(len(ds))),))
                for j in range(p.num_generators)]
        out.append(UnitaryRep(p, 1, lcm, "character", _Monomial(lcm, 1, gens),
                              verified=True))
    return out


def permutation_rep(p: GroupPresentation, action: PermAction) -> UnitaryRep:
    """0/1 permutation matrices of the action; unitary by construction."""
    if action.presentation != p:
        raise ValueError("action does not belong to this presentation")
    # relators were checked on the permutations, unitarity is structural
    return UnitaryRep(p, action.degree, 1, "permutation",
                      _Monomial.of_permutations(action.degree, action.generator_images,
                                                action._inverses),
                      verified=True)


def induce_rep(p: GroupPresentation, action: PermAction, sub_matrices,
               sub_dim: int) -> UnitaryRep:
    """Induction of a stabilizer representation given on Schreier generators.

    ``sub_matrices[m]`` is the unitary sub_dim x sub_dim image of the m-th
    Schreier generator.  The result has dimension degree * sub_dim: block
    (w(i), i) of a generator w is the sub-image of the Schreier word carrying
    coset i to w(i).
    """
    sub, data = reidemeister_schreier(p, action)
    mats = [_cyclo_matrix(m) for m in sub_matrices]
    if len(mats) != data.num_schreier_generators():
        raise ValueError(f"need {data.num_schreier_generators()} Schreier images, "
                         f"got {len(mats)}")
    sub_rep = explicit_rep(sub, mats, dim=sub_dim)
    if not verify_rep(sub_rep):
        raise ValueError("sub-representation is not unitary or fails a rewritten relator")
    zero, dim = Cyclo.zero(), action.degree * sub_dim
    identity = Matrix.identity(sub_dim, Cyclo.one(), zero).entries
    images = []
    for g in range(p.num_generators):
        rows = [[zero] * dim for _ in range(dim)]
        for i, target in enumerate(action.generator_images[g]):
            idx = data.pair_index[(i, g)]
            for a, row in enumerate(identity if idx is None else mats[idx].entries):
                rows[target * sub_dim + a][i * sub_dim:(i + 1) * sub_dim] = row
        images.append(rows)
    # induction preserves unitarity and relator identities (checked
    # exhaustively in the test suite)
    return UnitaryRep(p, dim, sub_rep.conductor, "induced", _compile(dim, images),
                      verified=True)


def explicit_rep(p: GroupPresentation, matrices, provenance: str = "explicit",
                 dim: int | None = None) -> UnitaryRep:
    """Representation from explicit generator matrices; verified on use."""
    mats = [_cyclo_matrix(m) for m in matrices]
    for m in mats:
        if m.rows != m.cols:
            raise ValueError("generator images must be square")
        if dim is None:
            dim = m.rows
        elif m.rows != dim:
            raise ValueError("generator images must share one dimension")
    if len(mats) != p.num_generators:
        raise ValueError("one matrix per generator required")
    if dim is None:
        raise ValueError("dim is required when the group has no generators")
    conductor = math.lcm(1, *(x.conductor for m in mats for row in m.entries for x in row))
    return UnitaryRep(p, dim, conductor, provenance,
                      _compile(dim, [m.entries for m in mats]))


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
    if big_group.num_generators < r.group.num_generators:
        raise ValueError("target group has fewer generators")
    imgs, ident = r.compiled, r.compiled.identity
    extra = range(r.group.num_generators, big_group.num_generators)
    compiled = (_Monomial(imgs.n, r.dim, list(zip(imgs.perms, imgs.exps)) + [ident] * len(extra))
                if isinstance(imgs, _Monomial) else _Dense(imgs.n, r.dim, {
                    **imgs.images, **{(g, e): ident for e in (1, -1) for g in extra}}))
    return UnitaryRep(big_group, r.dim, r.conductor, r.provenance, compiled)


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
    """Each generator image times its inverse, the conjugate transpose, is the
    identity, and so is every relator's word image: one image per matrix, so
    the identity is (I, 1) exactly."""
    imgs = r.compiled
    if not all(imgs.is_identity(imgs.mul(imgs.image(g, 1), imgs.image(g, -1)))
               for g in range(r.group.num_generators)):
        return False
    parents, letters, nodes = prefix_trie(r.group.relators)
    images = _node_images(imgs, parents, letters)
    return all(imgs.is_identity(images[k]) for k in nodes)


# ---------------------------------------------------------------------------
# invariant/coinvariant splitting
# ---------------------------------------------------------------------------

class SplitData:
    """A basis of W = span{alpha(g)v - v}: the columns of ``w_basis``, an
    integer array [dim V, w, n] over Z[x]/(x^n - 1), n the rep's compiled n.

    For a unitary rep, V = W + V^G with V^G the invariant vectors, and
    V/W is the module of coinvariants, of dimension dim V - dim W."""

    __slots__ = ("w_basis",)

    def __init__(self, w_basis: np.ndarray):
        object.__setattr__(self, "w_basis", w_basis)

    def __setattr__(self, *a):
        raise AttributeError("SplitData is immutable")


def _minus_identity(imgs, img) -> np.ndarray:
    """den (alpha - I) over Z[x]/(x^n - 1) for an image alpha = a / den."""
    a, den = imgs.dense(img)
    block = a.astype(int_dtype(max_abs(a) + den))
    block[np.arange(imgs.dim), np.arange(imgs.dim), 0] -= den
    return block


def alpha_minus_one_blocks(r: UnitaryRep) -> tuple[list[np.ndarray], int]:
    """The integer blocks den_g (alpha(g) - I) over Z[x]/(x^n - 1), one per
    generator g (one zero block when there is none), and n."""
    imgs = r.compiled
    gens = [imgs.image(g, 1) for g in range(r.group.num_generators)] or [imgs.identity]
    return [_minus_identity(imgs, img) for img in gens], imgs.n


def invariant_coinvariant_split(r: UnitaryRep) -> SplitData:
    """W = span{alpha(g)v - v}, with the columns of the blocks side by side at
    their certified pivots as its basis B.

    Checks V = W + V^G, the splitting of the unitarity argument, by two
    certified ranks of the blocks T stacked one above the other: V^G = ker T
    has dimension dim V - dim W when rank T = dim W, and meets W only in 0
    when rank T B = dim W."""
    if not verify_rep(r):
        raise ValueError("representation fails verification")
    blocks, n = alpha_minus_one_blocks(r)
    side, tall = np.concatenate(blocks, axis=1), np.concatenate(blocks, axis=0)
    basis = side[:, certified_pivots(side, n)]
    w = basis.shape[1]
    if certified_rank(tall, n) != w:
        raise AssertionError("the invariant vectors do not have dimension dim V - dim W")
    if certified_rank(ring_matmul(tall, basis, n), n) != w:
        raise AssertionError("W meets the invariant vectors")
    return SplitData(basis)


# ---------------------------------------------------------------------------
# fixed-point-free test
# ---------------------------------------------------------------------------

class ImageClosureError(RuntimeError):
    """The BFS closure of the generator images exceeded the element cap."""


def fixed_point_free_check(r: UnitaryRep, element_cap: int = 10000) -> bool:
    """True iff no non-identity element alpha = a / den of the (finite) image
    fixes a vector, i.e. den (alpha - I) has full rank.

    Materializes the image group from the compiled images of the generators
    and their inverses, each element keyed by den and the values of its
    dense array, unique per matrix; raises ImageClosureError past element_cap
    elements (image possibly infinite).  A generator mapping to the identity
    fails the check (a presumed-nontrivial element fixing everything); kernel
    elements hidden beyond the generators cannot be detected without a
    word-problem solver, so faithfulness is the caller's obligation for them.
    """
    if not verify_rep(r):
        raise ValueError("representation fails verification")
    imgs, n = r.compiled, r.compiled.n
    if any(imgs.is_identity(imgs.image(g, 1)) for g in range(r.group.num_generators)):
        return False
    gens = [imgs.image(g, e) for g in range(r.group.num_generators) for e in (1, -1)]
    seen, todo = {}, [imgs.identity]
    while todo:
        img = todo.pop()
        a, den = imgs.dense(img)
        key = den, tuple(a.ravel().tolist())
        if key not in seen:
            if len(seen) >= element_cap:
                raise ImageClosureError(f"image closure exceeded {element_cap} elements")
            seen[key] = img
            todo += [imgs.mul(g, img) for g in gens]
    blocks = [_minus_identity(imgs, img) for img in list(seen.values())[1:]]  # not I
    return all(certified_rank(b, n) == r.dim for b in blocks)
