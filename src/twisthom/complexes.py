"""Free equivariant chain complexes over Z[pi] and the 3-manifold catalog.

Boundary matrices are stored in right-module coordinates: the cellular chain
complex of the universal cover is a right Z[pi]-module via sigma*g = g^-1 sigma,
so the stored entry for a classical left-coordinate coefficient c is bar(c)
(words inverted).  With this convention a representation specializes an entry
by substituting alpha(word) directly and consecutive boundaries multiply to
zero for every representation, commutative or not.

Each boundary is stored once, sparse: a ``Boundary`` is its list of terms
coeff * word at (row, col).  Every builder here writes terms, and every
specialization reads them; an entry is a ``GroupRingElt`` made on access.
What specializing needs of a complex alone, the prefix trie of its words and
the index arrays of its terms, is compiled once per complex and kept on it
(``specialization_plan``).
"""

from __future__ import annotations

import math
import operator
from bisect import bisect_left, bisect_right
from itertools import groupby

import numpy as np

from .groups import (EMPTY_WORD, GroupPresentation, GroupRingElt, PermAction,
                     Word, abelianization, free_reduce, reidemeister_schreier,
                     word_inverse, word_power)
from .matrices import int_dtype


class Boundary:
    """A rows x cols matrix over Z[pi], stored as its nonzero terms.

    Built from ((i, j, word), coeff) pairs: words are freely reduced, like
    terms added up and zero sums dropped.  ``terms`` is the form every
    specialization reads: parallel tuples (rows, cols, coeffs, words) with
    one item per term in (row, col, word) order, then the largest sum of
    |coeff| in one entry.  ``b[i, j]`` is entry (i, j) as a GroupRingElt.
    The builders here, whose words are reduced by construction, use
    ``_trusted``, which skips the reduction.
    """

    __slots__ = ("rows", "cols", "terms")

    def __init__(self, rows: int, cols: int, cells=()):
        self._store(rows, cols, [((i, j, free_reduce(w)), c) for (i, j, w), c in cells])

    @classmethod
    def _trusted(cls, rows: int, cols: int, cells) -> "Boundary":
        """A boundary whose words the caller has freely reduced."""
        b = object.__new__(cls)
        b._store(rows, cols, cells)
        return b

    def _store(self, rows: int, cols: int, cells):
        acc: dict[tuple[int, int, Word], int] = {}
        for key, c in cells:
            i, j, _ = key
            if not (0 <= i < rows and 0 <= j < cols):
                raise ValueError(f"term at ({i}, {j}) is outside a {rows}x{cols} boundary")
            acc[key] = acc.get(key, 0) + operator.index(c)
        keys = sorted(k for k, c in acc.items() if c)
        bound = max((sum(abs(acc[k]) for k in entry)
                     for _, entry in groupby(keys, key=lambda k: k[:2])), default=0)
        i, j, w = zip(*keys) if keys else ((), (), ())
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "cols", cols)
        object.__setattr__(self, "terms", (i, j, tuple(acc[k] for k in keys), w, bound))

    def __setattr__(self, *a):
        raise AttributeError("Boundary is immutable")

    def items(self):
        """The terms as ((i, j, word), coeff) pairs, in (row, col, word) order."""
        rows, cols, coeffs, words, _ = self.terms
        return zip(zip(rows, cols, words), coeffs)

    def __getitem__(self, ij) -> GroupRingElt:
        i, j = ij
        if not (0 <= i < self.rows and 0 <= j < self.cols):
            raise IndexError(f"({i}, {j}) is outside a {self.rows}x{self.cols} boundary")
        rows, cols, coeffs, words, _ = self.terms
        lo, hi = bisect_left(rows, i), bisect_right(rows, i)  # row i, then col j in it
        lo, hi = bisect_left(cols, j, lo, hi), bisect_right(cols, j, lo, hi)
        return GroupRingElt(zip(words[lo:hi], coeffs[lo:hi]))

    def __eq__(self, other):
        if not isinstance(other, Boundary):
            return NotImplemented
        return (self.rows, self.cols, self.terms) == (other.rows, other.cols, other.terms)


def _edge(i: int, j: int, gen: int, sign: int = 1) -> list:
    """Cell (i, j) of sign * (x^-1 - 1), the stored form of the classical
    edge boundary (x - 1), x the generator gen."""
    return [((i, j, ((gen, -1),)), sign), ((i, j, EMPTY_WORD), -sign)]


class EquivariantComplex:
    """Finite free Z[pi]-chain complex given by boundary matrices.

    ``boundaries[k]`` is the ``Boundary`` C_{k+1} -> C_k, of shape
    ranks[k] x ranks[k+1], in stored (right-module) coordinates.  The d.d = 0
    identity holds under every specialization; it is checked there, not
    symbolically.  ``_plan`` is the complex's ``SpecializationPlan``, derived
    on its first specialization.
    """

    __slots__ = ("group", "ranks", "boundaries", "_plan")

    def __init__(self, group: GroupPresentation, ranks, boundaries):
        ranks = tuple(operator.index(r) for r in ranks)
        boundaries = tuple(boundaries)
        if any(r < 0 for r in ranks):
            raise ValueError("ranks must be non-negative")
        if len(boundaries) != max(0, len(ranks) - 1):
            raise ValueError("need one boundary matrix per adjacent degree pair")
        for k, b in enumerate(boundaries):
            if not isinstance(b, Boundary) or (b.rows, b.cols) != (ranks[k], ranks[k + 1]):
                raise ValueError(f"boundary {k + 1} must be a {ranks[k]}x{ranks[k + 1]} Boundary")
            if any(g >= group.num_generators for g, _ in set().union(*b.terms[3])):
                raise ValueError("boundary word uses an unknown generator")
        object.__setattr__(self, "group", group)
        object.__setattr__(self, "ranks", ranks)
        object.__setattr__(self, "boundaries", boundaries)
        object.__setattr__(self, "_plan", None)

    def __setattr__(self, *a):
        raise AttributeError("EquivariantComplex is immutable")

    @property
    def top(self) -> int:
        return len(self.ranks) - 1

    def euler_characteristic(self) -> int:
        return sum((-1) ** i * r for i, r in enumerate(self.ranks))

    def __repr__(self):
        return f"EquivariantComplex(ranks={self.ranks}, group={self.group!r})"


# ---------------------------------------------------------------------------
# specialization plan
# ---------------------------------------------------------------------------

def prefix_trie(words) -> tuple[tuple, tuple, list[int]]:
    """The prefix closure of ``words`` as a trie, and the node of each word.

    Node 0 is the empty word; node k >= 1 is the word of node ``parents[k]``
    followed by the letter ``letters[k]`` (both None at node 0), so every
    parent precedes its children.  Evaluating the nodes in order takes one
    product per node (``reps._node_images``).
    """
    parents, letters, children, of_word, found = [None], [None], {}, {}, []
    for w in words:
        k = of_word.get(w)
        if k is None:
            k = 0
            for letter in w:
                child = children.get((k, letter))
                if child is None:
                    child = children[k, letter] = len(parents)
                    parents.append(k)
                    letters.append(letter)
                k = child
            of_word[w] = k
        found.append(k)
    return tuple(parents), tuple(letters), found


class SpecializationPlan:
    """What specializing a complex needs of the complex alone.

    ``parents`` and ``letters`` are the prefix trie of all boundary words
    (``prefix_trie``), and ``ends`` the nodes that end a word, ascending:
    the words' images are those nodes' images, in that order.
    ``boundaries[k]`` is (rows, cols, index, coeffs) for boundary k: its
    shape, an int array [3, terms] holding the position in ``ends`` of each
    term's word, its row and its column, and the terms' coefficients (int64,
    or Python ints where the boundary's entry bound leaves int64).
    """

    __slots__ = ("parents", "letters", "ends", "boundaries", "_scatter")

    def __init__(self, c: EquivariantComplex):
        parents, letters, found = prefix_trie(w for b in c.boundaries for w in b.terms[3])
        ends = tuple(sorted(set(found)))
        position = {node: p for p, node in enumerate(ends)}
        boundaries, start = [], 0
        for b in c.boundaries:
            rows, cols, coeffs, words, bound = b.terms
            stop = start + len(words)
            index = np.array([[position[k] for k in found[start:stop]], rows, cols],
                             dtype=np.int64)
            boundaries.append((b.rows, b.cols, index, np.array(coeffs, dtype=int_dtype(bound))))
            start = stop
        object.__setattr__(self, "parents", parents)
        object.__setattr__(self, "letters", letters)
        object.__setattr__(self, "ends", ends)
        object.__setattr__(self, "boundaries", tuple(boundaries))
        object.__setattr__(self, "_scatter", {})

    def __setattr__(self, *a):
        raise AttributeError("SpecializationPlan is immutable")

    def scatter(self, d: int) -> tuple:
        """Per boundary, the index arrays of ``reps._Monomial.assemble`` for
        monomial images of dim d, built on the first use of d and kept."""
        if d not in self._scatter:
            self._scatter[d] = tuple(
                (rows * d, cols * d, words, i[:, None] * d, j[:, None] * d + np.arange(d),
                 coeffs[:, None], np.zeros((len(words), d), dtype=np.int64))
                for rows, cols, (words, i, j), coeffs in self.boundaries)
        return self._scatter[d]


def specialization_plan(c: EquivariantComplex) -> SpecializationPlan:
    """The plan of ``c``, compiled on first use and kept on the complex, so it
    lives and dies with it."""
    if c._plan is None:
        object.__setattr__(c, "_plan", SpecializationPlan(c))
    return c._plan


# ---------------------------------------------------------------------------
# Fox calculus
# ---------------------------------------------------------------------------

def _fox_terms(w: Word) -> list[tuple[int, int, int]]:
    """(gen, k, sign) per letter of a reduced w: d(w)/d(gen) sums sign * w[:k],
    +w[:i] for gen at i and -w[:i+1] for gen^-1 at i, reduced as they stand."""
    return [(g, i, 1) if e == 1 else (g, i + 1, -1) for i, (g, e) in enumerate(w)]


def fox_derivative(w: Word, gen: int) -> GroupRingElt:
    """Free Fox derivative d(w)/d(gen) in classical left coordinates."""
    w = free_reduce(w)
    return GroupRingElt([(w[:k], sign) for g, k, sign in _fox_terms(w) if g == gen])


def presentation_complex(p: GroupPresentation) -> EquivariantComplex:
    """Three-term complex of the presentation 2-complex, Fox-calculus boundaries.

    Classical coordinates are d1 = (x - 1) and d2[x, r] = dr/dx; the stored
    matrices carry their bar-involutes (right-module coordinates): the inverse
    of a Fox term w[:k] is the last k letters of the inverse of w.
    """
    g, r = p.num_generators, len(p.relators)
    d1 = Boundary._trusted(1, g, [t for i in range(g) for t in _edge(0, i, i)])
    inverses = [word_inverse(w) for w in p.relators]
    d2 = Boundary._trusted(g, r, [((i, j, inverses[j][len(w) - k:]), sign)
                                  for j, w in enumerate(p.relators) for i, k, sign in _fox_terms(w)])
    if r == 0:
        return EquivariantComplex(p, (1, g), (d1,))
    return EquivariantComplex(p, (1, g, r), (d1, d2))


# ---------------------------------------------------------------------------
# circle product (mapping cone over a new central generator)
# ---------------------------------------------------------------------------

def circle_product(c: EquivariantComplex) -> EquivariantComplex:
    """The complex of X x S^1 over G x Z: C'_k = C_k + C_{k-1}.

    The new generator t is central (commutator relators with every old
    generator); the connecting blocks are (-1)^deg (t^-1 - 1) in stored
    coordinates, the Koszul sign making consecutive boundaries anticommute.
    The boundary C'_k -> C'_{k-1} is [[d_k, D_{k-1}], [0, d_{k-1}]], the
    columns of C_k first, the rows of C_{k-1} first.
    """
    p = c.group
    t = p.num_generators
    commutators = [free_reduce([(t, 1), (i, 1), (t, -1), (i, -1)])
                   for i in range(p.num_generators)]
    new_group = GroupPresentation(t + 1, list(p.relators) + commutators)

    n = list(c.ranks) + [0]
    top = c.top
    new_ranks = [n[0]] + [n[k] + n[k - 1] for k in range(1, top + 1)] + [n[top]]

    new_boundaries = []
    for k in range(1, top + 2):
        left = n[k]  # columns of C_k
        cells = []
        if k <= top:  # d_k: C_k -> C_{k-1}
            cells += c.boundaries[k - 1].items()
        # connecting block D_{k-1} = (-1)^(k-1) (t^-1 - 1) I on the C_{k-1} summand
        sign = -1 if (k - 1) % 2 else 1
        for i in range(n[k - 1]):
            cells += _edge(i, left + i, t, sign)
        if k >= 2:  # d_{k-1}: C_{k-1} -> C_{k-2}
            cells += [((n[k - 1] + i, left + j, w), q)
                      for (i, j, w), q in c.boundaries[k - 2].items()]
        new_boundaries.append(Boundary._trusted(new_ranks[k - 1], new_ranks[k], cells))
    return EquivariantComplex(new_group, new_ranks, new_boundaries)


# ---------------------------------------------------------------------------
# finite covers
# ---------------------------------------------------------------------------

def cover_complex(c: EquivariantComplex, action: PermAction) -> EquivariantComplex:
    """The same complex over the basepoint-stabilizer subgroup of a finite cover.

    Each free rank multiplies by the degree; a stored term q w contributes
    q rewrite(T[j]^-1 w T[i]) from lift (cell, i) to lift (cell, j) where
    j = w(i).  Lifts are indexed cell-major: index = cell*degree + coset.
    Each distinct word is walked once from every coset (``SchreierData.walk``).
    """
    if action.presentation != c.group:
        raise ValueError("action is not an action of the complex's group")
    sub, data = reidemeister_schreier(c.group, action)
    d = action.degree
    lifts = {w: [data.walk(w, i) for i in range(d)]
             for w in {w for b in c.boundaries for w in b.terms[3]}}
    new_boundaries = []
    for b in c.boundaries:
        acc: dict[tuple[int, int, Word], int] = {}
        for (f, e, w), q in b.items():
            for i, (j, h) in enumerate(lifts[w]):
                key = (f * d + j, e * d + i, h)
                acc[key] = acc.get(key, 0) + q
        new_boundaries.append(Boundary._trusted(b.rows * d, b.cols * d, acc.items()))
    return EquivariantComplex(sub, [r * d for r in c.ranks], new_boundaries)


# ---------------------------------------------------------------------------
# standard presentations
# ---------------------------------------------------------------------------

def cyclic_group(p: int) -> GroupPresentation:
    return GroupPresentation(1, [word_power(0, p)])


def free_group(g: int) -> GroupPresentation:
    return GroupPresentation(g)


def surface_group(g: int) -> GroupPresentation:
    """<a1, b1, ..., ag, bg | prod [ai, bi]> with a_i = 2i, b_i = 2i+1."""
    rel: list[tuple[int, int]] = []
    for i in range(g):
        a, b = 2 * i, 2 * i + 1
        rel += [(a, 1), (b, 1), (a, -1), (b, -1)]
    return GroupPresentation(2 * g, [free_reduce(rel)])


def torus2_group() -> GroupPresentation:
    return GroupPresentation(2, [free_reduce([(0, 1), (1, 1), (0, -1), (1, -1)])])


def trefoil_group() -> GroupPresentation:
    # a b a b^-1 a^-1 b^-1
    return GroupPresentation(2, [free_reduce([(0, 1), (1, 1), (0, 1),
                                              (1, -1), (0, -1), (1, -1)])])


def quaternion_presentation() -> GroupPresentation:
    """Q8 = <x, y | x^2 y^-2, x y x y^-1>."""
    r1 = free_reduce([(0, 1), (0, 1), (1, -1), (1, -1)])
    r2 = free_reduce([(0, 1), (1, 1), (0, 1), (1, -1)])
    return GroupPresentation(2, [r1, r2])


# ---------------------------------------------------------------------------
# catalog
# ---------------------------------------------------------------------------

class CatalogEntry:
    """A named, validated complex with frozen trivial-representation homology."""

    __slots__ = ("name", "parameters", "complex", "expected_trivial_dims",
                 "notes", "closed")

    def __init__(self, name, parameters, cx, expected_trivial_dims, notes, closed):
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "parameters", tuple(parameters))
        object.__setattr__(self, "complex", cx)
        object.__setattr__(self, "expected_trivial_dims", tuple(expected_trivial_dims))
        object.__setattr__(self, "notes", notes)
        object.__setattr__(self, "closed", closed)
        if closed and cx.euler_characteristic() != 0:
            raise ValueError(f"closed entry {name} has nonzero Euler characteristic")

    def __setattr__(self, *a):
        raise AttributeError("CatalogEntry is immutable")

    def __repr__(self):
        return f"CatalogEntry({self.spec_string()!r}, ranks={self.complex.ranks})"

    def spec_string(self) -> str:
        if self.parameters:
            return f"{self.name}:{','.join(str(x) for x in self.parameters)}"
        return self.name


def _sphere_complex() -> EquivariantComplex:
    return EquivariantComplex(GroupPresentation(0), (1, 0, 1), (Boundary(1, 0), Boundary(0, 1)))


def _point_complex() -> EquivariantComplex:
    return EquivariantComplex(GroupPresentation(0), (1,), ())


def _circle_complex() -> EquivariantComplex:
    return circle_product(_point_complex())


def _lens_complex(p: int, q: int) -> EquivariantComplex:
    qbar = pow(q % p, -1, p) if p > 1 else 0
    group = cyclic_group(p)
    d1 = Boundary._trusted(1, 1, _edge(0, 0, 0))
    # bar(1 + x + ... + x^(p-1)) = sum of x^-i
    d2 = Boundary._trusted(1, 1, [((0, 0, word_power(0, -i)), 1) for i in range(p)])
    d3 = Boundary._trusted(1, 1, [((0, 0, word_power(0, -qbar)), 1), ((0, 0, EMPTY_WORD), -1)])
    return EquivariantComplex(group, (1, 1, 1, 1), (d1, d2, d3))


def _quaternion_complex() -> EquivariantComplex:
    """Rank (1,2,2,1) complex of S^3/Q8 from the period-4 resolution of Q8.

    Classical coordinates (transcribed): d2 columns are the Fox rows of the
    two relators, d3 = (x-1, 1-xy); stored matrices are their bar-involutes.
    Gated by the regression tests: d.d = 0 under the regular representation,
    trivial dims (1,0,0,1), integral H1 invariant factors (2,2).
    """
    p = quaternion_presentation()
    x, y = 0, 1
    d1 = Boundary(1, 2, _edge(0, 0, x) + _edge(0, 1, y))
    d2 = presentation_complex(p).boundaries[1]
    # bar(x - 1) = x^-1 - 1 and bar(1 - xy) = 1 - y^-1 x^-1
    d3 = Boundary(2, 1, _edge(0, 0, x) + [((1, 0, EMPTY_WORD), 1),
                                          ((1, 0, ((y, -1), (x, -1))), -1)])
    return EquivariantComplex(p, (1, 2, 2, 1), (d1, d2, d3))


CATALOG_NAMES = ("lens", "s1xs2", "t3", "s1x_sigma", "quaternion_q8",
                 "trefoil_exterior", "handlebody", "torus2d", "free_product_of")

# Size caps on catalog parameters.  On a 2-core machine lens:1009,1 and
# s1x_sigma:60 build and check in about a second, lens:10007,1 and
# s1x_sigma:200 in over 30 s.  A free product admits at most the generators
# of its largest single part, s1x_sigma:MAX_GENUS (about 2 s to build); eight
# such parts would take 85 s.
MAX_LENS_ORDER = 1024
MAX_GENUS = 64
MAX_FREE_PRODUCT_GENERATORS = 2 * MAX_GENUS + 1


def catalog_complex(name: str, params=()) -> CatalogEntry:
    """Build a validated catalog entry; raises ValueError on unknown input."""
    params = list(params)
    if params and name in ("s1xs2", "t3", "quaternion_q8", "trefoil_exterior", "torus2d"):
        raise ValueError(f"{name} takes no parameters")
    if name == "lens":
        if len(params) != 2:
            raise ValueError("lens requires parameters p,q")
        p, q = int(params[0]), int(params[1])
        if not 0 < p <= MAX_LENS_ORDER:
            raise ValueError(f"lens space requires 0 < p <= {MAX_LENS_ORDER}")
        if math.gcd(p, q) != 1:
            raise ValueError("lens space requires gcd(p, q) = 1")
        return CatalogEntry("lens", (p, q), _lens_complex(p, q), (1, 0, 0, 1),
                            "L(p,q): cyclic group, d3 twisted by the inverse of q mod p",
                            closed=True)
    if name == "s1xs2":
        return CatalogEntry("s1xs2", (), circle_product(_sphere_complex()),
                            (1, 1, 1, 1), "circle times sphere", closed=True)
    if name == "t3":
        cx = circle_product(circle_product(_circle_complex()))
        return CatalogEntry("t3", (), cx, (1, 3, 3, 1), "3-torus as an iterated circle product",
                            closed=True)
    if name == "s1x_sigma":
        if len(params) != 1:
            raise ValueError("s1x_sigma requires a genus parameter")
        g = int(params[0])
        if not 1 <= g <= MAX_GENUS:
            raise ValueError(f"genus must be between 1 and {MAX_GENUS}")
        cx = circle_product(presentation_complex(surface_group(g)))
        return CatalogEntry("s1x_sigma", (g,), cx, (1, 2 * g + 1, 2 * g + 1, 1),
                            "circle times genus-g surface", closed=True)
    if name == "quaternion_q8":
        return CatalogEntry("quaternion_q8", (), _quaternion_complex(), (1, 0, 0, 1),
                            "S^3/Q8 from the period-4 resolution of the quaternion group",
                            closed=True)
    if name == "trefoil_exterior":
        cx = presentation_complex(trefoil_group())
        return CatalogEntry("trefoil_exterior", (), cx, (1, 1, 0),
                            "trefoil knot exterior (presentation 2-complex)", closed=False)
    if name == "handlebody":
        if len(params) != 1:
            raise ValueError("handlebody requires a genus parameter")
        g = int(params[0])
        if not 0 <= g <= MAX_GENUS:
            raise ValueError(f"genus must be between 0 and {MAX_GENUS}")
        cx = presentation_complex(free_group(g))
        return CatalogEntry("handlebody", (g,), cx, (1, g),
                            "genus-g handlebody (free group)", closed=False)
    if name == "torus2d":
        cx = presentation_complex(torus2_group())
        return CatalogEntry("torus2d", (), cx, (1, 2, 1),
                            "2-torus (obstruction example: free middle Alexander rank)",
                            closed=False)
    if name == "free_product_of":
        if not params:
            raise ValueError("free_product_of requires at least one entry name")
        parts = []
        for s in params:
            if str(s).partition(":")[0].strip() == "free_product_of":
                raise ValueError("a free_product_of part cannot be a free_product_of")
            parts.append(catalog_entry_from_string(str(s)))
            if sum(p.complex.group.num_generators for p in parts) > MAX_FREE_PRODUCT_GENERATORS:
                raise ValueError(f"a free product has at most "
                                 f"{MAX_FREE_PRODUCT_GENERATORS} generators")
        group = parts[0].complex.group
        from .groups import free_product as fp
        for part in parts[1:]:
            group = fp(group, part.complex.group)
        cx = presentation_complex(group)
        # Under the trivial rep d1 vanishes and d2 is the relator exponent
        # matrix, of rank g - b1; so the dims are (1, b1, r - g + b1).
        b1 = abelianization(group)[0]
        expected = (1, b1, len(group.relators) - group.num_generators + b1) \
            if group.relators else (1, b1)
        label = ",".join(str(s) for s in params)
        return CatalogEntry("free_product_of", tuple(params), cx, expected,
                            f"presentation complex of the free product of [{label}]",
                            closed=False)
    raise ValueError(f"unknown catalog name: {name!r} (know {CATALOG_NAMES})")


def catalog_entry_from_string(spec: str) -> CatalogEntry:
    """Parse "name" or "name:p1,p2" into a catalog entry.

    The parts of "free_product_of:..." are catalog specs themselves, so each
    bare-integer token joins the named part before it: "lens:5,1,t3" is the
    parts "lens:5,1" and "t3".
    """
    if ":" in spec:
        name, _, rest = spec.partition(":")
        params = [s.strip() for s in rest.split(",") if s.strip()]
        parsed = []
        for s in params:
            try:
                value = int(s)
            except ValueError:
                parsed.append(s)
                continue
            if parsed and isinstance(parsed[-1], str):
                parsed[-1] = f"{parsed[-1]},{value}"
            else:
                parsed.append(value)
        return catalog_complex(name.strip(), parsed)
    return catalog_complex(spec.strip(), ())
