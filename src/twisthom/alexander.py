"""Acyclicity certificates for fibered-type complexes.

Pipeline: specialize the complex along a surjective grading pi -> Z into
Q[t, t^-1] matrices, present each homology module over that PID (free ranks
plus torsion polynomials), pick the smallest root of unity avoiding every
middle-degree torsion polynomial, and certify acyclicity of the resulting
character both directly and through the universal-coefficient dimension count.
Every step, the tests Phi_n | p included, runs on the integer Laurent
polynomials of ``matrices``: ``TorsionData`` stores each torsion polynomial
as the primitive integer coefficients the Smith elimination returns, and
only its ``torsion_polys`` view, for JSON and the public API, is monic
``Laurent`` values.

The homology modules are read off the boundaries one at a time.  Over the PID
Q[t, t^-1] the image of d_i is a submodule of the free module C_{i-1}, hence
free, so ker d_i is a direct summand of C_i.  Therefore Tors H_i equals
Tors coker d_{i+1}: its torsion polynomials are the non-unit invariant
factors of d_{i+1}, and rank H_i = c_i - rank d_i - rank d_{i+1}.  That
argument needs d.d = 0, which ``torsion_invariants`` checks exactly.
"""

from __future__ import annotations

import functools
import math
import operator
from fractions import Fraction

from .complexes import EquivariantComplex
from .groups import grading_weight, verify_grading
from .homology import CrossCheckError, HomologyReport, twisted_homology
from .matrices import Matrix, _divides, _primitive_part, _snf_poly
from .numbers import Laurent, cyclotomic_coeffs, euler_phi
from .reps import UnitaryRep, character_from_grading


class GradingError(ValueError):
    """The grading does not vanish on relators or is not surjective."""


class FreeRankObstruction(ValueError):
    """A homology module has positive free rank: no character of the fibered
    form can make the complex acyclic."""

    def __init__(self, degree: int, free_rank: int):
        self.degree = degree
        self.free_rank = free_rank
        super().__init__(
            f"H_{degree} over Q[t, t^-1] has free rank {free_rank}; "
            f"no root-of-unity character along this grading is acyclic")


class TorsionData:
    """Free ranks and torsion polynomials of H_*(-; Q[t, t^-1]) per degree.

    ``torsion[i]`` holds the torsion polynomials of degree i as the integers
    the Smith elimination returns: tuples of coefficients, constant term
    first, each primitive (gcd 1) with a nonzero constant term, a positive
    leading coefficient and degree >= 1.  The constructor accepts exactly
    that form and raises ValueError on anything else; ``free_ranks`` are read
    through ``operator.index``, so a float or a string there is a TypeError.
    ``torsion_polys`` is the view of the same polynomials as monic
    ``Laurent`` values.  Data
    computed by torsion_invariants additionally lists them in divisibility
    order (Smith normal form); hand-built instances may not.
    """

    __slots__ = ("free_ranks", "torsion")

    def __init__(self, free_ranks, torsion):
        free_ranks = tuple(operator.index(x) for x in free_ranks)
        torsion = tuple(tuple(ps) for ps in torsion)
        if len(free_ranks) != len(torsion):
            raise ValueError("free_ranks and torsion must align per degree")
        for p in (p for ps in torsion for p in ps):
            if not (type(p) is tuple and len(p) > 1 and all(type(q) is int for q in p)
                    and p[0] and p[-1] > 0 and math.gcd(*p) == 1):
                raise ValueError("a torsion polynomial must be a tuple of at least two "
                                 "coprime ints, constant term nonzero and leading one "
                                 f"positive; got {p!r}")
        object.__setattr__(self, "free_ranks", free_ranks)
        object.__setattr__(self, "torsion", torsion)

    @property
    def torsion_polys(self) -> tuple[tuple[Laurent, ...], ...]:
        """The torsion polynomials as monic ``Laurent`` values, made on access."""
        return tuple(tuple(_monic_laurent(p) for p in ps) for ps in self.torsion)

    def __setattr__(self, *a):
        raise AttributeError("TorsionData is immutable")

    def degrees(self) -> int:
        return len(self.free_ranks)

    def __repr__(self):
        return f"TorsionData(free={self.free_ranks}, torsion={self.torsion_polys})"


@functools.lru_cache(maxsize=1024)
def _ratio(p: int, q: int) -> Fraction:
    """Fraction(p, q), one shared object per recent value: torsion
    polynomials repeat across complexes, and callers may keep many."""
    return Fraction(p, q)


def _monic_laurent(c: tuple) -> Laurent:
    """The monic associate of the polynomial with coefficients c, constant
    term first, as a ``Laurent`` value."""
    return Laurent._of({e: _ratio(q, c[-1]) for e, q in enumerate(c)})


# The torsion elimination is linear in the degree span of the entries, which
# grows with the grading's weights, so wider entries are refused up front.
MAX_LAURENT_SPAN = 1024


def laurent_specialize(c: EquivariantComplex, phi) -> list[Matrix]:
    """Boundary matrices over Q[t, t^-1] under the ring map g -> t^phi(g), read
    from the boundaries' terms with one grading weight per distinct word.

    Entries are integer Laurent polynomials, the form of ``matrices``: None
    for zero, or (v, c) for t^v (c[0] + c[1] t + ... + c[d] t^d), c a tuple
    of Python ints with c[0] and c[d] nonzero.  The d.d = 0 identity is
    checked by ``torsion_invariants``, which every pipeline runs on these
    matrices next.  An entry whose span d exceeds MAX_LAURENT_SPAN raises
    ValueError.
    """
    if not verify_grading(c.group, phi):
        raise GradingError("grading does not vanish on all relators")
    words = {w for b in c.boundaries for w in b.terms[3]}
    weight = {w: grading_weight(phi, w) for w in words}
    mats = []
    for b in c.boundaries:
        sums: list[list[dict]] = [[{} for _ in range(b.cols)] for _ in range(b.rows)]
        for (i, j, w), q in b.items():
            e = weight[w]
            sums[i][j][e] = sums[i][j].get(e, 0) + q
        mats.append(Matrix(b.rows, b.cols, [[_int_laurent(x) for x in row] for row in sums]))
    return mats


def _int_laurent(terms: dict):
    """The integer Laurent polynomial sum q t^e over the items e: q of terms."""
    exps = [e for e, q in terms.items() if q]
    if not exps:
        return None
    v, span = min(exps), max(exps) - min(exps)
    if span > MAX_LAURENT_SPAN:
        raise ValueError(f"a specialized entry spans {span} powers of t; "
                         f"at most {MAX_LAURENT_SPAN} are admitted")
    c = [0] * (span + 1)
    for e in exps:
        c[e - v] = terms[e]
    return v, tuple(c)


def _is_int_laurent(x) -> bool:
    """x is None or (v, c): an int and a tuple of ints whose first and last
    are nonzero."""
    if x is None:
        return True
    return (type(x) is tuple and len(x) == 2 and type(x[0]) is int
            and type(x[1]) is tuple and bool(x[1]) and bool(x[1][0]) and bool(x[1][-1])
            and all(type(q) is int for q in x[1]))


def _composes_to_zero(a: list[list], b: list[list]) -> bool:
    """a @ b == 0 exactly for integer Laurent rows a and b, by sparse rows:
    each nonzero a[i][k] times the nonzero entries of row k of b, its
    coefficients summed per column and power of t of row i of the product."""
    nonzero = [[(j, y) for j, y in enumerate(row) if y] for row in b]
    for row in a:
        acc = {}  # (column, power of t): coefficient, in this row of a @ b
        for x, terms in zip(row, nonzero):
            if x:
                vx, cx = x
                for j, (vy, cy) in terms:
                    for e, p in enumerate(cx, vx + vy):
                        for f, q in enumerate(cy, e):
                            acc[j, f] = acc.get((j, f), 0) + p * q
        if any(acc.values()):
            return False
    return True


def torsion_invariants(mats: list[Matrix], ranks) -> TorsionData:
    """Free ranks and torsion polynomials of each H_i = ker d_i / im d_{i+1}
    over the PID Q[t, t^-1]; ``mats[i]`` is d_{i+1}: C_{i+1} -> C_i, with
    integer Laurent entries as ``laurent_specialize`` writes them.

    Once d.d = 0 holds, ker d_i is a direct summand of C_i (im d_i is free), so
    Tors H_i = Tors coker d_{i+1}.  One Smith elimination per boundary, diagonal
    only, gives everything: the torsion polynomials of H_i are the
    non-unit invariant factors of d_{i+1}, and the free rank is
    c_i - rank d_i - rank d_{i+1}, each rank being the number of nonzero
    factors.  Entries, shapes and d.d = 0 are checked exactly here
    (ValueError), and ``ranks`` are read through ``operator.index``
    (TypeError).  The check of d.d = 0 and the elimination run on the
    integer entries, and each torsion polynomial is the diagonal entry
    divided by its signed content (``_primitive_part``).
    """
    ranks = [operator.index(r) for r in ranks]
    if len(mats) != max(0, len(ranks) - 1):
        raise ValueError("need one matrix per adjacent degree pair")
    for i, m in enumerate(mats):
        if (m.rows, m.cols) != (ranks[i], ranks[i + 1]):
            raise ValueError(f"d{i + 1} is {m.rows}x{m.cols}, "
                             f"expected {ranks[i]}x{ranks[i + 1]}")
        bad = next((x for row in m.entries for x in row if not _is_int_laurent(x)), None)
        if bad is not None:
            raise ValueError(f"d{i + 1} has an entry that is not an integer Laurent "
                             f"polynomial (None or (v, c)): {type(bad).__name__} {bad!r}")
    ints = [[list(row) for row in m.entries] for m in mats]  # _snf_poly works in place
    for t in range(len(mats) - 1):
        if not _composes_to_zero(ints[t], ints[t + 1]):
            raise ValueError(f"d{t + 1}.d{t + 2} != 0 over Q[t, t^-1]")
    factors = [[x for x in _snf_poly(a) if x] for a in ints] + [[]]
    free_ranks = [c - len(factors[i]) - (len(factors[i - 1]) if i else 0)
                  for i, c in enumerate(ranks)]
    torsion = [tuple(_primitive_part(x[1]) for x in fs if len(x[1]) > 1)
               for fs in factors[:len(ranks)]]
    return TorsionData(free_ranks, torsion)


def alexander_data(c: EquivariantComplex, phi) -> TorsionData:
    return torsion_invariants(laurent_specialize(c, phi), c.ranks)


def select_root_of_unity(td: TorsionData) -> tuple[int, int]:
    """Smallest n >= 2 with Phi_n dividing no torsion polynomial in degrees >= 1.

    Degree-0 torsion is the (1 - t) coset pattern, killed by any z != 1, so it
    is excluded from the divisibility test.  Positive free rank anywhere is a
    hard obstruction (the complex is not of the fibered shape).
    """
    for degree, fr in enumerate(td.free_ranks):
        if fr:
            raise FreeRankObstruction(degree, fr)
    polys = [p for ps in td.torsion[1:] for p in ps]
    max_deg = max((len(a) - 1 for a in polys), default=0)
    n = 2
    while euler_phi(n) <= max_deg and any(_divides(cyclotomic_coeffs(n), a) for a in polys):
        n += 1
    return (n, 1)


def uct_dims(td: TorsionData, n: int) -> list[int]:
    """Twisted dims under the character t -> zeta_n via universal coefficients.

    dim H_i = free_i + #{p in torsion_i : Phi_n | p}
                      + #{p in torsion_{i-1} : Phi_n | p},
    the last term being the Tor contribution of the degree below.
    """
    if n < 1:
        raise ValueError("root order must be >= 1")
    phi_n = cyclotomic_coeffs(n)

    def hits(degree: int) -> int:
        if degree < 0:
            return 0
        return sum(1 for p in td.torsion[degree] if _divides(phi_n, p))

    return [td.free_ranks[i] + hits(i) + hits(i - 1) for i in range(td.degrees())]


class AcyclicityCertificate:
    """A root-of-unity character together with the data certifying acyclicity."""

    __slots__ = ("z_order", "z_power", "character", "report", "torsion")

    def __init__(self, z_order: int, z_power: int, character: UnitaryRep,
                 report: HomologyReport, torsion: TorsionData):
        if not report.acyclic:
            raise ValueError("certificate requires an acyclic report")
        if z_order < 2:
            raise ValueError("certificate requires z != 1 (order >= 2)")
        phi_n = cyclotomic_coeffs(z_order)
        for ps in torsion.torsion[1:]:
            for p in ps:
                if _divides(phi_n, p):
                    raise ValueError("certificate root divides a torsion polynomial")
        object.__setattr__(self, "z_order", z_order)
        object.__setattr__(self, "z_power", z_power)
        object.__setattr__(self, "character", character)
        object.__setattr__(self, "report", report)
        object.__setattr__(self, "torsion", torsion)

    def __setattr__(self, *a):
        raise AttributeError("AcyclicityCertificate is immutable")

    def __repr__(self):
        return (f"AcyclicityCertificate(z=zeta_{self.z_order}^{self.z_power}, "
                f"dims={self.report.dims})")


def make_acyclic_fibered(c: EquivariantComplex, phi) -> AcyclicityCertificate:
    """Full pipeline: torsion invariants, root selection, direct verification.

    Requires a surjective grading (gcd of generator images 1).  The direct
    twisted dims must vanish and agree with the universal-coefficient count;
    disagreement is an internal error, not a negative result.
    """
    phi = list(phi)
    if not verify_grading(c.group, phi):
        raise GradingError("grading does not vanish on all relators")
    g = 0
    for v in phi:
        g = math.gcd(g, abs(int(v)))
    if g != 1:
        raise GradingError("grading must be surjective onto Z (gcd of images 1); "
                           "rescale a non-primitive grading before calling")
    mats = laurent_specialize(c, phi)
    td = torsion_invariants(mats, c.ranks)
    n, a = select_root_of_unity(td)
    character = character_from_grading(c.group, phi, n, a)
    report = twisted_homology(c, character)
    expected = uct_dims(td, n)
    if list(report.dims) != expected:
        raise CrossCheckError(
            f"direct dims {report.dims} disagree with UCT dims {expected}")
    if not report.acyclic:
        raise CrossCheckError(
            f"selected character is not acyclic: dims {report.dims}")
    return AcyclicityCertificate(n, a, character, report, td)
