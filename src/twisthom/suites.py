"""Seeded, machine-checkable suites for the structural lemmas and obstructions.

Each suite returns a SuiteReport with pass/fail counts and a capped list of
failure descriptions.  All randomness flows through one random.Random(seed),
so outputs are reproducible bit for bit; the enumerated permutation batteries
are deterministic regardless of the seed.
"""

from __future__ import annotations

import functools
import random

from .complexes import (CatalogEntry, EquivariantComplex, catalog_complex,
                        presentation_complex, trefoil_group)
from .groups import (GroupPresentation, PermAction, free_product, free_reduce,
                     reidemeister_schreier, transitive_actions_up_to)
from .homology import (coinvariants_h0, shapiro_compare, subquotient_dims,
                       twisted_homology)
from .matrices import Matrix, integer_kernel_basis
from .numbers import Cyclo
from .reps import (UnitaryRep, explicit_rep, induce_rep,
                   invariant_coinvariant_split, permutation_rep,
                   torsion_characters, trivial_rep)

MAX_FAILURE_DETAILS = 8
H0_PAIRS = 200  # random presentations in the h0 suite
LES_SPLITS = 100  # seeded splits in the les suite
FREEPRODUCT_INDUCED = 50  # seeded induced reps in the freeproduct suite


class SuiteReport:
    __slots__ = ("name", "passed", "failed", "failures")

    def __init__(self, name: str):
        self.name = name
        self.passed = 0
        self.failed = 0
        self.failures: list[str] = []

    def check(self, ok: bool, describe: str):
        if ok:
            self.passed += 1
        else:
            self.failed += 1
            if len(self.failures) < MAX_FAILURE_DETAILS:
                self.failures.append(describe)

    def run(self, fn, describe: str):
        """Run fn(); exceptions count as failures with their message."""
        try:
            fn()
            self.passed += 1
        except Exception as e:  # suites report, they do not throw
            self.failed += 1
            if len(self.failures) < MAX_FAILURE_DETAILS:
                self.failures.append(f"{describe}: {e}")

    def ok(self) -> bool:
        return self.failed == 0

    def to_json(self) -> dict:
        return {"suite": self.name, "pass": self.passed, "fail": self.failed,
                "failures": list(self.failures)}


# ---------------------------------------------------------------------------
# batteries
# ---------------------------------------------------------------------------

@functools.lru_cache(maxsize=None)
def standard_entries() -> tuple[CatalogEntry, ...]:
    specs = ["lens:2,1", "lens:3,1", "lens:5,1", "lens:5,2", "lens:7,3",
             "s1xs2", "t3", "s1x_sigma:2", "quaternion_q8", "trefoil_exterior",
             "handlebody:1", "handlebody:2", "handlebody:3", "torus2d"]
    from .complexes import catalog_entry_from_string
    return tuple(catalog_entry_from_string(s) for s in specs)


@functools.lru_cache(maxsize=None)
def _cached_actions(p: GroupPresentation, max_degree: int) -> tuple[PermAction, ...]:
    return tuple(transitive_actions_up_to(p, max_degree))


def grading_basis(p: GroupPresentation) -> list[list[int]]:
    """Integer basis of the lattice of valid gradings pi -> Z."""
    return integer_kernel_basis(p.exponent_matrix().transpose())


def seeded_character(p: GroupPresentation, rng: random.Random) -> UnitaryRep:
    """A random character: torsion character when available, else graded."""
    chars = torsion_characters(p)
    basis = grading_basis(p)
    if len(chars) > 1 and (not basis or rng.random() < 0.5):
        return rng.choice(chars)
    if basis:
        from .reps import character_from_grading
        phi = [0] * p.num_generators
        while all(v == 0 for v in phi):
            coeffs = [rng.randint(-2, 2) for _ in basis]
            phi = [sum(c * b[i] for c, b in zip(coeffs, basis))
                   for i in range(p.num_generators)]
            if all(v == 0 for v in phi):
                coeffs = [1] + [0] * (len(basis) - 1)
                phi = list(basis[0])
        return character_from_grading(p, phi, rng.choice([2, 3, 4, 6]), 1)
    return chars[0]


def _diagonal_images(chars: list[UnitaryRep], num_generators: int) -> list[Matrix]:
    """The generator images of the direct sum of the characters chars: one
    diagonal matrix per generator."""
    zero, dim = Cyclo.zero(), len(chars)
    images = [c.generator_images for c in chars]  # each access rebuilds the matrices
    mats = []
    for g in range(num_generators):
        entries = [[zero] * dim for _ in range(dim)]
        for i, image in enumerate(images):
            entries[i][i] = image[g][0, 0]
        mats.append(Matrix(dim, dim, entries))
    return mats


def seeded_sub_character_matrices(sub: GroupPresentation, rng: random.Random,
                                  sub_dim: int) -> list[Matrix]:
    """Diagonal unitary matrices on Schreier generators: a direct sum of
    sub_dim seeded characters of the subgroup presentation."""
    return _diagonal_images([seeded_character(sub, rng) for _ in range(sub_dim)],
                            sub.num_generators)


def seeded_induced_reps(p: GroupPresentation, rng: random.Random, count: int,
                        max_degree: int = 4, max_dim: int = 6) -> list[UnitaryRep]:
    actions = [a for a in _cached_actions(p, max_degree) if a.degree >= 2]
    if not actions:
        return []
    out = []
    for _ in range(count):
        action = rng.choice(actions)
        sub_dim = rng.choice([1, 2]) if 2 * action.degree <= max_dim else 1
        sub, _ = reidemeister_schreier(p, action)
        mats = seeded_sub_character_matrices(sub, rng, sub_dim)
        out.append(induce_rep(p, action, mats, sub_dim))
    return out


def small_rep_battery(p: GroupPresentation, rng: random.Random) -> list[UnitaryRep]:
    """A modest mixed battery per catalog entry: all torsion characters,
    trivial reps of dims 1-2, permutation reps of degree <= 2, two induced."""
    reps: list[UnitaryRep] = []
    reps.extend(torsion_characters(p))
    reps.append(trivial_rep(p, 1))
    reps.append(trivial_rep(p, 2))
    for a in _cached_actions(p, 2):
        reps.append(permutation_rep(p, a))
    reps.extend(seeded_induced_reps(p, rng, 2, max_degree=2, max_dim=4))
    return reps


# ---------------------------------------------------------------------------
# lemma suites
# ---------------------------------------------------------------------------

def euler_suite(seed: int) -> SuiteReport:
    """Twisted Euler characteristic = dim V * chi(X); chi = 0 for closed
    entries, whose dims also obey Poincare duality dims[i] = dims[3 - i]
    (the entries are orientable and the reps unitary)."""
    rep_rng = random.Random(seed)
    report = SuiteReport("euler")
    for entry in standard_entries():
        chi = entry.complex.euler_characteristic()
        if entry.closed:
            report.check(chi == 0, f"{entry.spec_string()}: closed but chi={chi}")
        for rep in small_rep_battery(entry.complex.group, rep_rng):
            h = twisted_homology(entry.complex, rep)
            report.check(h.euler == rep.dim * chi and
                         (not entry.closed or h.dims == h.dims[::-1]),
                         f"{entry.spec_string()} dim={rep.dim}: dims {h.dims}, "
                         f"euler {h.euler} (want {rep.dim * chi})")
    return report


def trivialrep_suite(seed: int) -> SuiteReport:
    """Trivial k-dim rep has dims k * (integral dims over C), per entry."""
    report = SuiteReport("trivialrep")
    for entry in standard_entries():
        base = twisted_homology(entry.complex, trivial_rep(entry.complex.group, 1))
        report.check(base.dims == entry.expected_trivial_dims,
                     f"{entry.spec_string()}: {base.dims} != frozen "
                     f"{entry.expected_trivial_dims}")
        for k in (2, 3):
            h = twisted_homology(entry.complex, trivial_rep(entry.complex.group, k))
            want = tuple(k * d for d in base.dims)
            report.check(h.dims == want,
                         f"{entry.spec_string()} k={k}: {h.dims} != {want}")
    return report


def _random_presentation(rng: random.Random) -> GroupPresentation:
    gens = rng.randint(1, 3)
    relators = []
    for _ in range(rng.randint(0, 3)):
        for _attempt in range(20):
            length = rng.randint(1, 4)
            w = free_reduce([(rng.randrange(gens), rng.choice([1, -1]))
                             for _ in range(length)])
            if w:
                relators.append(w)
                break
    return GroupPresentation(gens, relators)


def h0_suite(seed: int) -> SuiteReport:
    """Coinvariants model of H0 against the chain-level degree-0 homology."""
    rng = random.Random(seed)
    report = SuiteReport("h0")
    for i in range(H0_PAIRS):
        p = _random_presentation(rng)
        rep = seeded_character(p, rng)
        cx = presentation_complex(p)
        h = twisted_homology(cx, rep)
        c0 = coinvariants_h0(p, rep)
        report.check(c0 == h.dims[0],
                     f"pair {i}: coinvariants {c0} != H0 {h.dims[0]} on {p!r}")
    return report


def _shipped_covers() -> list[tuple[str, EquivariantComplex, PermAction]]:
    from .complexes import _circle_complex, catalog_complex
    circle = _circle_complex()
    z = circle.group
    covers = [
        ("circle-index1", circle, PermAction(z, [(0,)])),
        ("circle-index2", circle, PermAction(z, [(1, 0)])),
    ]
    lens4 = catalog_complex("lens", [4, 1]).complex
    covers.append(("lens41-index2", lens4, PermAction(lens4.group, [(1, 0)])))
    tre = presentation_complex(trefoil_group())
    covers.append(("trefoil-index3",
                   tre, PermAction(tre.group, [(1, 0, 2), (0, 2, 1)])))
    t3 = catalog_complex("t3").complex
    acts = [a for a in _cached_actions(t3.group, 2) if a.degree == 2]
    covers.append(("t3-index2", t3, acts[0]))
    f2 = presentation_complex(GroupPresentation(2))
    deg4 = [a for a in _cached_actions(f2.group, 4) if a.degree == 4]
    covers.append(("wedge2-index4", f2, deg4[0]))
    return covers


def shapiro_suite(seed: int) -> SuiteReport:
    """Cover homology under a subgroup rep equals base homology under induction."""
    rng = random.Random(seed)
    report = SuiteReport("shapiro")
    for name, cx, action in _shipped_covers():
        sub, _ = reidemeister_schreier(cx.group, action)
        ident = [Matrix.identity(1, Cyclo.one(), Cyclo.zero())] * sub.num_generators
        report.run(lambda cx=cx, action=action, ident=ident:
                   shapiro_compare(cx, action, ident, 1), f"{name} trivial")
        mats = seeded_sub_character_matrices(sub, rng, 1)
        report.run(lambda cx=cx, action=action, mats=mats:
                   shapiro_compare(cx, action, mats, 1), f"{name} character")
    return report


def _seeded_diag_rep(p: GroupPresentation, rng: random.Random, dim: int) -> UnitaryRep:
    """Direct sum of seeded characters (some trivial), as one unitary rep."""
    chars = [trivial_rep(p, 1) if rng.random() < 0.4 else seeded_character(p, rng)
             for _ in range(dim)]
    return explicit_rep(p, _diagonal_images(chars, p.num_generators), dim=dim)


def les_suite(seed: int) -> SuiteReport:
    """Euler additivity and exactness bounds across 0 -> W -> V -> V/W -> 0."""
    rng = random.Random(seed)
    report = SuiteReport("les")
    from .complexes import _circle_complex
    pool = [_circle_complex(), catalog_complex("torus2d").complex,
            catalog_complex("lens", [3, 1]).complex,
            presentation_complex(trefoil_group())]
    for i in range(LES_SPLITS):
        cx = pool[i % len(pool)]
        rep = _seeded_diag_rep(cx.group, rng, rng.randint(1, 4))

        def one(cx=cx, rep=rep):
            split = invariant_coinvariant_split(rep)
            subquotient_dims(cx, rep, split)

        report.run(one, f"split {i}")
    return report


# ---------------------------------------------------------------------------
# obstruction suites
# ---------------------------------------------------------------------------

def handlebody_suite(seed: int) -> SuiteReport:
    """dims[1] - dims[0] = (g - 1) * dim V for every rep on handlebody(g).

    A transitive permutation rep of degree d has one orbit, so dims[0] = 1
    and dims = (1, d(g - 1) + 1); so does the one (trivial) torsion
    character of the free group, with d = 1."""
    rng = random.Random(seed)
    report = SuiteReport("handlebody")
    for g in (1, 2, 3):
        entry = catalog_complex("handlebody", [g])
        p = entry.complex.group
        transitive = torsion_characters(p) + [permutation_rep(p, a)
                                              for a in _cached_actions(p, 4)]
        for rep in transitive + seeded_induced_reps(p, rng, 10):
            h = twisted_homology(entry.complex, rep)
            want = (g - 1) * rep.dim
            ok = h.dims == (1, want + 1) if rep in transitive else h.dims[1] - h.dims[0] == want
            report.check(ok, f"handlebody({g}) dim={rep.dim}: dims {h.dims}")
    return report


@functools.lru_cache(maxsize=None)
def _free_product_t3_t3() -> EquivariantComplex:
    t3 = catalog_complex("t3").complex.group
    return presentation_complex(free_product(t3, t3))


def freeproduct_suite(seed: int) -> SuiteReport:
    """(dims[0], dims[1]) never (0, 0) for the double 3-torus free product.

    Battery: all torsion characters (the trivial one only, since H1 is free),
    permutation reps of every transitive action of degree <= 4 up to
    conjugacy, plus seeded induced reps of dimension <= 6.
    """
    rng = random.Random(seed)
    report = SuiteReport("freeproduct")
    cx = _free_product_t3_t3()
    p = cx.group
    chi = cx.euler_characteristic()

    def run_rep(rep: UnitaryRep, label: str):
        h = twisted_homology(cx, rep)
        ok = (h.dims[0], h.dims[1]) != (0, 0) and h.euler == rep.dim * chi
        report.check(ok, f"{label}: dims {h.dims[:2]} euler {h.euler}")

    for i, ch in enumerate(torsion_characters(p)):
        run_rep(ch, f"character{i}")
    for i, action in enumerate(_cached_actions(p, 4)):
        run_rep(permutation_rep(p, action), f"perm{i}-deg{action.degree}")
    for i, rep in enumerate(seeded_induced_reps(p, rng, FREEPRODUCT_INDUCED)):
        run_rep(rep, f"induced{i}-dim{rep.dim}")
    return report


# ---------------------------------------------------------------------------
# driver
# ---------------------------------------------------------------------------

SUITES = {
    "euler": euler_suite,
    "trivialrep": trivialrep_suite,
    "h0": h0_suite,
    "shapiro": shapiro_suite,
    "les": les_suite,
    "handlebody": handlebody_suite,
    "freeproduct": freeproduct_suite,
}


def run_suites(seed: int, only: str | None = None) -> dict:
    reports = [fn(seed) for name, fn in SUITES.items() if only is None or name == only]
    if only is not None and not reports:
        raise ValueError(f"unknown suite {only!r} (know {sorted(SUITES)})")
    return {
        "seed": seed,
        "suites": [r.to_json() for r in reports],
        "ok": all(r.ok() for r in reports),
    }
