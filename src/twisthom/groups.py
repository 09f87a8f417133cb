"""Finitely presented groups, the integral group ring, and finite covers.

Subgroups only ever appear as basepoint stabilizers of transitive permutation
actions (the covering-space encoding), which keeps every operation total: no
word problem is ever decided, words are only freely reduced and then pushed
through representations or rewritings.
"""

from __future__ import annotations

import itertools
import operator
from collections import deque

import numpy as np

from .matrices import Matrix, int_diagonal, smith_normal_form_int

# A word is a tuple of (generator index, +1/-1) letters, always freely reduced.
Word = tuple[tuple[int, int], ...]

EMPTY_WORD: Word = ()


def free_reduce(letters) -> Word:
    """Freely reduce a letter sequence; idempotent and length-non-increasing."""
    out: list[tuple[int, int]] = []
    for g, e in letters:
        if e not in (1, -1):
            raise ValueError(f"letter exponent must be +-1, got {e}")
        if out and out[-1][0] == g and out[-1][1] == -e:
            out.pop()
        else:
            out.append((g, e))
    return tuple(out)


def word_inverse(w: Word) -> Word:
    return tuple((g, -e) for g, e in reversed(w))


def word_mul(*words: Word) -> Word:
    return free_reduce([l for w in words for l in w])


def word_from_ints(ints) -> Word:
    """Word from signed 1-based generator numbers, e.g. [1, -2, 1]."""
    letters = []
    for v in ints:
        v = int(v)
        if v == 0:
            raise ValueError("0 is not a valid signed generator number")
        letters.append((abs(v) - 1, 1 if v > 0 else -1))
    return free_reduce(letters)


def word_to_ints(w: Word) -> list[int]:
    return [(g + 1) * e for g, e in w]


def word_exponent_sum(w: Word, gen: int) -> int:
    return sum(e for g, e in w if g == gen)


def word_power(g: int, k: int) -> Word:
    return ((g, 1 if k > 0 else -1),) * abs(k)


# ---------------------------------------------------------------------------
# group ring Z[pi]
# ---------------------------------------------------------------------------

class GroupRingElt:
    """Integer combination of freely reduced words; zero coefficients dropped.

    A value: an entry of a ``complexes.Boundary``, made on access.  It has no
    ring arithmetic, only construction, equality, hashing and ``bar``.  A
    coefficient that is not an integer (``operator.index``) raises TypeError.
    """

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        clean: dict[Word, int] = {}
        if terms:
            items = terms.items() if isinstance(terms, dict) else terms
            for w, c in items:
                w = free_reduce(w)
                c = operator.index(c)
                if c:
                    c0 = clean.get(w, 0) + c
                    if c0:
                        clean[w] = c0
                    else:
                        clean.pop(w, None)
        object.__setattr__(self, "terms", dict(sorted(clean.items())))

    def __setattr__(self, *a):
        raise AttributeError("GroupRingElt is immutable")

    def __bool__(self):
        return bool(self.terms)

    def __eq__(self, other):
        if not isinstance(other, GroupRingElt):
            return NotImplemented
        return self.terms == other.terms

    def __hash__(self):
        return hash(tuple(self.terms.items()))

    def bar(self) -> "GroupRingElt":
        """The involution sum n_g g  |->  sum n_g g^-1."""
        return GroupRingElt({word_inverse(w): c for w, c in self.terms.items()})

    def __repr__(self):
        if not self.terms:
            return "0"
        return " + ".join(f"{c}*{word_to_ints(w)}" for w, c in self.terms.items())


# ---------------------------------------------------------------------------
# presentations
# ---------------------------------------------------------------------------

class GroupPresentation:
    """A finitely presented group: generator count plus freely reduced relators."""

    __slots__ = ("num_generators", "relators")

    def __init__(self, num_generators: int, relators=()):
        if num_generators < 0:
            raise ValueError(f"generator count must be >= 0, got {num_generators}")
        relators = tuple(free_reduce(r) for r in relators)
        for r in relators:
            if not r:
                raise ValueError("relators must be nonempty after free reduction")
            if any(g < 0 or g >= num_generators for g, _ in r):
                raise ValueError("relator uses an unknown generator")
        object.__setattr__(self, "num_generators", num_generators)
        object.__setattr__(self, "relators", relators)

    def __setattr__(self, *a):
        raise AttributeError("GroupPresentation is immutable")

    def __eq__(self, other):
        if not isinstance(other, GroupPresentation):
            return NotImplemented
        return (self.num_generators, self.relators) == (other.num_generators, other.relators)

    def __hash__(self):
        return hash((self.num_generators, self.relators))

    def __repr__(self):
        rels = ", ".join(str(word_to_ints(r)) for r in self.relators)
        return f"<{self.num_generators} generators | {rels}>"

    def exponent_matrix(self) -> Matrix:
        """Generators x relators matrix of total exponents (the relator matrix of H1)."""
        return Matrix(self.num_generators, len(self.relators),
                      [[word_exponent_sum(r, g) for r in self.relators]
                       for g in range(self.num_generators)])


def abelianization(p: GroupPresentation) -> tuple[int, list[int]]:
    """(free rank, invariant factors > 1 in divisibility order) of H1 = Z^g / relators."""
    if p.num_generators == 0:
        return 0, []
    _, d, _ = smith_normal_form_int(p.exponent_matrix())
    diag = int_diagonal(d)
    betti = p.num_generators - sum(1 for x in diag if x)
    torsion = [x for x in diag if x > 1]
    return betti, torsion


def abelianization_change_of_basis(p: GroupPresentation):
    """(U, diag) with U the row transform of the SNF of the relator matrix.

    Columns of H1's canonical coordinates are read off as y = U x, so the
    character data of the torsion part pulls back to generator j through
    column j of U.
    """
    u, d, _ = smith_normal_form_int(p.exponent_matrix())
    return u, int_diagonal(d)


def free_product(p1: GroupPresentation, p2: GroupPresentation) -> GroupPresentation:
    """Generators concatenated (p2 shifted), relators concatenated."""
    shift = p1.num_generators
    shifted = [tuple((g + shift, e) for g, e in r) for r in p2.relators]
    return GroupPresentation(p1.num_generators + p2.num_generators,
                             list(p1.relators) + shifted)


# ---------------------------------------------------------------------------
# integer gradings pi -> Z
# ---------------------------------------------------------------------------

def grading_weight(phi, w: Word) -> int:
    return sum(e * phi[g] for g, e in w)


def verify_grading(p: GroupPresentation, phi) -> bool:
    """True iff every relator has total weight zero under phi."""
    if len(phi) != p.num_generators:
        return False
    return all(grading_weight(phi, r) == 0 for r in p.relators)


# ---------------------------------------------------------------------------
# permutation actions (finite-index subgroups as basepoint stabilizers)
# ---------------------------------------------------------------------------

Perm = tuple[int, ...]


def perm_inverse(p: Perm) -> Perm:
    out = [0] * len(p)
    for i, v in enumerate(p):
        out[v] = i
    return tuple(out)


def _transitive(images, degree: int) -> bool:
    """True iff the perms carry 0 to every point (the forward orbit of finitely
    many perms is already closed under their inverses)."""
    orbit, seen = [0], {0}
    for i in orbit:
        for perm in images:
            if perm[i] not in seen:
                seen.add(perm[i])
                orbit.append(perm[i])
    return len(orbit) == degree


class PermAction:
    """Transitive action of a presented group on {0..degree-1}, basepoint 0.

    Encodes the finite-index subgroup Stab(0); the degree is the index.
    ``_schreier`` keeps the result of its first ``reidemeister_schreier``.
    """

    __slots__ = ("presentation", "degree", "generator_images", "_inverses", "_schreier")

    def __init__(self, presentation: GroupPresentation, generator_images):
        images = tuple(tuple(int(x) for x in perm) for perm in generator_images)
        if len(images) != presentation.num_generators:
            raise ValueError("one permutation per generator required")
        degree = len(images[0]) if images else 1
        if degree < 1:
            raise ValueError("degree must be >= 1")
        for perm in images:
            if sorted(perm) != list(range(degree)):
                raise ValueError(f"not a permutation of 0..{degree - 1}: {perm}")
        object.__setattr__(self, "presentation", presentation)
        object.__setattr__(self, "degree", degree)
        object.__setattr__(self, "generator_images", images)
        object.__setattr__(self, "_inverses", tuple(perm_inverse(x) for x in images))
        object.__setattr__(self, "_schreier", None)
        for r in presentation.relators:
            if self.word_perm(r) != tuple(range(degree)):
                raise ValueError(f"relator {word_to_ints(r)} does not act trivially")
        if not _transitive(images, degree):
            raise ValueError("action is not transitive")

    @classmethod
    def _trusted(cls, presentation: GroupPresentation, degree: int, images, inverses):
        """An action whose relators and transitivity the caller has checked."""
        action = object.__new__(cls)
        object.__setattr__(action, "presentation", presentation)
        object.__setattr__(action, "degree", degree)
        object.__setattr__(action, "generator_images", images)
        object.__setattr__(action, "_inverses", inverses)
        object.__setattr__(action, "_schreier", None)
        return action

    def __setattr__(self, *a):
        raise AttributeError("PermAction is immutable")

    def apply_letter(self, point: int, gen: int, exp: int) -> int:
        perm = self.generator_images[gen] if exp == 1 else self._inverses[gen]
        return perm[point]

    def apply_word(self, w: Word, point: int) -> int:
        # letters act as functions composed left to right: w = uv acts as u(v(point))
        for g, e in reversed(w):
            point = self.apply_letter(point, g, e)
        return point

    def word_perm(self, w: Word) -> Perm:
        return tuple(self.apply_word(w, i) for i in range(self.degree))

    def __eq__(self, other):
        if not isinstance(other, PermAction):
            return NotImplemented
        return (self.presentation, self.generator_images) == (other.presentation, other.generator_images)

    def __hash__(self):
        return hash(self.generator_images)

    def __repr__(self):
        return f"PermAction(degree={self.degree}, images={self.generator_images})"


# ---------------------------------------------------------------------------
# Reidemeister-Schreier
# ---------------------------------------------------------------------------

class SchreierData:
    """Transversal and rewriting data for the basepoint stabilizer.

    ``transversal[i]`` is the left coset representative carrying the basepoint
    to coset i (BFS over generators in index order, inverses after positives).
    ``pair_index[(coset, gen)]`` is the Schreier generator index, or None for
    spanning-tree edges.  It keeps the action's permutations, not the action.
    """

    __slots__ = ("generator_images", "_inverses", "transversal", "pair_index", "pairs")

    def __init__(self, action: PermAction, transversal, pair_index, pairs):
        object.__setattr__(self, "generator_images", action.generator_images)
        object.__setattr__(self, "_inverses", action._inverses)
        object.__setattr__(self, "transversal", transversal)
        object.__setattr__(self, "pair_index", pair_index)
        object.__setattr__(self, "pairs", pairs)

    def __setattr__(self, *a):
        raise AttributeError("SchreierData is immutable")

    def num_schreier_generators(self) -> int:
        return len(self.pairs)

    def schreier_generator_word(self, idx: int) -> Word:
        """The Schreier generator as a word in the ambient group."""
        coset, gen = self.pairs[idx]
        target = self.generator_images[gen][coset]
        return word_mul(word_inverse(self.transversal[target]),
                        ((gen, 1),), self.transversal[coset])

    def walk(self, w: Word, start: int) -> tuple[int, Word]:
        """(end, h): the word w read as a path from coset ``start``, letters
        right to left, ends at coset ``end`` = w(start), and h is the reduced
        word of its Schreier generators.  As transversal paths run on the
        spanning tree, h = rewrite(T[end]^-1 w T[start])."""
        images, inverses, pair_index = self.generator_images, self._inverses, self.pair_index
        out_reversed = []
        c = start
        for g, e in reversed(w):
            if e == 1:
                idx = pair_index[(c, g)]
                c = images[g][c]
            else:
                c = inverses[g][c]
                idx = pair_index[(c, g)]
            if idx is not None:
                out_reversed.append((idx, e))
        return c, free_reduce(reversed(out_reversed))

    def rewrite(self, w: Word) -> Word:
        """Express a word stabilizing the basepoint in Schreier generators."""
        end, h = self.walk(w, 0)
        if end != 0:
            raise ValueError("word does not lie in the basepoint stabilizer")
        return h


def reidemeister_schreier(p: GroupPresentation, action: PermAction) -> tuple[GroupPresentation, SchreierData]:
    """Presentation of the basepoint stabilizer plus its rewriting data.

    Schreier generators: one per (coset, generator) pair off the BFS spanning
    tree.  Relators: rewrites of T[i]^-1 r T[i], the walk of each base relator
    r from each coset i, with freely trivial ones dropped.  Kept on the action.
    """
    if action.presentation != p:
        raise ValueError("action does not belong to this presentation")
    if action._schreier is not None:
        return action._schreier
    d = action.degree
    transversal: list[Word | None] = [None] * d
    transversal[0] = EMPTY_WORD
    tree: set[tuple[int, int]] = set()
    queue = deque([0])
    steps = [(g, 1) for g in range(p.num_generators)] + \
            [(g, -1) for g in range(p.num_generators)]
    while queue:
        i = queue.popleft()
        for g, e in steps:
            j = action.apply_letter(i, g, e)
            if transversal[j] is None:
                # reduced: undoing T[i]'s first letter leads to a coset already reached
                transversal[j] = ((g, e),) + transversal[i]
                tree.add((i, g) if e == 1 else (j, g))
                queue.append(j)
    assert all(t is not None for t in transversal)

    pair_index: dict[tuple[int, int], int | None] = {}
    pairs: list[tuple[int, int]] = []
    for i in range(d):
        for g in range(p.num_generators):
            if (i, g) in tree:
                pair_index[(i, g)] = None
            else:
                pair_index[(i, g)] = len(pairs)
                pairs.append((i, g))

    data = SchreierData(action, tuple(transversal), pair_index, tuple(pairs))
    relators = [h for i in range(d) for r in p.relators if (h := data.walk(r, i)[1])]
    object.__setattr__(action, "_schreier", (GroupPresentation(len(pairs), relators), data))
    return action._schreier


# ---------------------------------------------------------------------------
# enumeration of transitive actions up to conjugacy
# ---------------------------------------------------------------------------

def transitive_actions(p: GroupPresentation, degree: int) -> list[PermAction]:
    """All transitive actions of the given degree, one per conjugacy class.

    Backtracks generator by generator; at each level the candidate images are
    deduplicated under the pointwise stabilizer of the earlier images, which
    enumerates orbit representatives exactly (orbits of S_d on tuples split as
    orbits of successive stabilizers).  Deterministic: lexicographically least
    representatives, in lexicographic order.

    S_d is one array ``sym[d!, d]`` in lexicographic order, and perms are its
    row indices.  A relator is evaluated on all d! candidates for its largest
    generator at once, one gather per letter; as it is checked exactly there,
    the leaves need no second check.  Within one call, each relator's mask is
    computed once per tuple of the other images it reads, and each orbit
    split once per (stabilizer, candidate mask).
    """
    if degree < 1:
        return []
    if p.num_generators == 0:
        return [PermAction._trusted(p, 1, (), ())] if degree == 1 else []
    perm_tuples = list(itertools.permutations(range(degree)))
    sym = np.array(perm_tuples, dtype=np.intp)
    inv = np.argsort(sym, axis=1)
    weights = degree ** np.arange(degree - 1, -1, -1)
    keys = sym @ weights  # increasing: sym is in lexicographic order
    inverse = keys.searchsorted(inv @ weights).tolist()
    identity = np.arange(degree)
    start = np.broadcast_to(identity, sym.shape)
    rows = np.arange(len(sym))[:, None]
    perms = {1: sym, -1: inv}
    # per level k: (relator, the generators below k that it reads)
    by_max: dict[int, list[tuple[Word, tuple[int, ...]]]] = {}
    for r in p.relators:
        k = max(g for g, _ in r)
        by_max.setdefault(k, []).append((r, tuple(sorted({g for g, _ in r} - {k}))))
    masks: dict[tuple, np.ndarray] = {}
    splits: dict[tuple[bytes, bytes], list] = {}

    def kills(images: list[int], r: Word) -> np.ndarray:
        k, cur = len(images), start
        for g, e in r:  # cur = cur o letter: the word acts right to left
            cur = cur[rows, perms[e]] if g == k else cur[..., perms[e][images[g]]]
        return (cur == identity).all(axis=1)

    out: list[PermAction] = []
    last = p.num_generators - 1
    # depth first with an explicit stack (children pushed in reverse keep the
    # order); a self-calling closure would leave a reference cycle behind
    stack = [([], np.arange(len(sym)))]
    while stack:
        images, stab = stack.pop()
        k = len(images)
        ok = np.ones(len(sym), dtype=bool)
        for r, others in by_max.get(k, ()):
            key = (r, tuple([images[g] for g in others]))
            mask = masks.get(key)
            if mask is None:
                mask = masks[key] = kills(images, r)
            ok &= mask
        if len(stab) == 1:  # a trivial stabilizer: every orbit is one point
            children = [(x, stab) for x in ok.nonzero()[0].tolist()]
        else:
            # (least x of each stab-orbit of the candidates, its stabilizer)
            key = (stab.tobytes(), ok.tobytes())
            children = splits.get(key)
            if children is None:
                children = splits[key] = []
                seen = np.zeros(len(sym), dtype=bool)
                rows_stab, inv_stab = stab[:, None], inv[stab]
                for x in ok.nonzero()[0].tolist():
                    if seen[x]:
                        continue
                    # the conjugates g x g^-1 over the stabilizer, as row indices
                    orbit = keys.searchsorted(sym[rows_stab, sym[x][inv_stab]] @ weights)
                    seen[orbit] = True
                    children.append((x, stab[orbit == x]))
        if k < last:
            stack.extend((images + [x], s) for x, s in reversed(children))
            continue
        # the last generator: its children are the leaves, in order
        gens = tuple([perm_tuples[i] for i in images])
        invs = tuple([perm_tuples[inverse[i]] for i in images])
        transitive = _transitive(gens, degree)
        for x, _ in children:
            images_x = gens + (perm_tuples[x],)
            if transitive or _transitive(images_x, degree):
                out.append(PermAction._trusted(
                    p, degree, images_x, invs + (perm_tuples[inverse[x]],)))
    return out


def transitive_actions_up_to(p: GroupPresentation, max_degree: int) -> list[PermAction]:
    acts = []
    for d in range(1, max_degree + 1):
        acts.extend(transitive_actions(p, d))
    return acts
