"""JSON encoding/decoding for the CLI wire formats.

Schemas: rationals are strings "a" or "a/b"; cyclotomic numbers are
{"conductor": n, "coeffs": [...]}; Laurent polynomials {"terms": {exp: coeff}};
words are lists of signed 1-based generator numbers; complexes carry their
group, ranks and boundary matrices of [coeff, word] term lists.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .alexander import AcyclicityCertificate, TorsionData
from .complexes import Boundary, EquivariantComplex
from .groups import GroupPresentation, Word, word_from_ints, word_to_ints
from .homology import HomologyReport
from .matrices import Matrix
from .numbers import Cyclo, Laurent
from .reps import UnitaryRep, explicit_rep


class InputError(ValueError):
    """Malformed JSON input (schema violation, bad numbers, bad indices)."""


# Every lens character (order <= MAX_LENS_ORDER) is admitted; larger conductors
# are refused up front, before any per-conductor table of n * phi(n) entries.
MAX_CONDUCTOR = 1024


def check_conductor(n: int) -> int:
    if not 1 <= n <= MAX_CONDUCTOR:
        raise InputError(f"conductor must be between 1 and {MAX_CONDUCTOR}, got {n}")
    return n


# Larger representation dimensions are refused before any image is built: a
# boundary of C tensor V has (dim V)^2 times the entries of C's.
MAX_DIM = 1024


def check_dim(k: int) -> int:
    if not 1 <= k <= MAX_DIM:
        raise InputError(f"representation dimension must be between 1 and {MAX_DIM}, got {k}")
    return k


# Words in input files are capped before any image is built: word images are
# cached by prefix, so a word of L letters costs O(L^2).  lens:1024,1 has a
# relator of exactly this length.
MAX_WORD_LENGTH = 1024


def _json_int(x, what: str) -> int:
    """x itself if it is a JSON integer: bools, floats and strings are refused."""
    if type(x) is not int:
        raise InputError(f"{what} must be an integer, got {x!r}")
    return x


def _word_from_json(obj) -> Word:
    """A word from a list of at most MAX_WORD_LENGTH signed generator numbers."""
    if len(obj) > MAX_WORD_LENGTH:
        raise InputError(f"a word has {len(obj)} letters; at most {MAX_WORD_LENGTH} "
                         "are admitted")
    return word_from_ints(_json_int(v, "a letter") for v in obj)


def fraction_to_str(x: Fraction) -> str:
    x = Fraction(x)
    return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


def fraction_from_str(s) -> Fraction:
    try:
        return Fraction(str(s))
    except (ValueError, ZeroDivisionError) as e:
        raise InputError(f"bad rational {s!r}: {e}") from None


def cyclo_to_json(x: Cyclo) -> dict:
    return {"conductor": x.conductor,
            "coeffs": [fraction_to_str(c) for c in x.coeffs]}


def cyclo_from_json(obj) -> Cyclo:
    try:
        n = check_conductor(_json_int(obj["conductor"], "a conductor"))
        coeffs = [fraction_from_str(c) for c in obj["coeffs"]]
        return Cyclo(n, coeffs)
    except (KeyError, TypeError, ValueError) as e:
        raise InputError(f"bad cyclotomic number {obj!r}: {e}") from None


def laurent_to_json(x: Laurent) -> dict:
    return {"terms": {str(e): fraction_to_str(c) for e, c in x.terms.items()}}


def presentation_to_json(p: GroupPresentation) -> dict:
    return {"num_generators": p.num_generators,
            "relators": [word_to_ints(r) for r in p.relators]}


def presentation_from_json(obj) -> GroupPresentation:
    try:
        return GroupPresentation(_json_int(obj["num_generators"], "num_generators"),
                                 [_word_from_json(r) for r in obj["relators"]])
    except (KeyError, TypeError, ValueError) as e:
        raise InputError(f"bad group presentation: {e}") from None


def _boundary_to_json(b: Boundary) -> list:
    """Rows of entries, each entry a list of [coeff, word] terms."""
    out = [[[] for _ in range(b.cols)] for _ in range(b.rows)]
    for (i, j, w), c in b.items():
        out[i][j].append([c, word_to_ints(w)])
    return out


def complex_to_json(c: EquivariantComplex) -> dict:
    return {
        "group": presentation_to_json(c.group),
        "ranks": list(c.ranks),
        "boundaries": [_boundary_to_json(b) for b in c.boundaries],
    }


def _boundary_from_json(obj, rows: int, cols: int) -> Boundary:
    if len(obj) != rows or any(len(row) != cols for row in obj):
        raise InputError(f"a boundary must be {rows} rows of {cols} entries")
    return Boundary(rows, cols, [((i, j, _word_from_json(w)), _json_int(c, "a coefficient"))
                                 for i, row in enumerate(obj) for j, entry in enumerate(row)
                                 for c, w in entry])


def complex_from_json(obj) -> EquivariantComplex:
    try:
        group = presentation_from_json(obj["group"])
        ranks = [_json_int(r, "a rank") for r in obj["ranks"]]
        boundaries = [_boundary_from_json(b, ranks[k], ranks[k + 1])
                      for k, b in enumerate(obj["boundaries"])]
        return EquivariantComplex(group, ranks, boundaries)
    except InputError:
        raise
    except (KeyError, TypeError, ValueError, IndexError) as e:
        raise InputError(f"bad complex: {e}") from None


def rep_to_json(r: UnitaryRep) -> dict:
    return {
        "dim": r.dim,
        "conductor": r.conductor,
        "generators": [[[cyclo_to_json(m[i, j]) for j in range(m.cols)]
                        for i in range(m.rows)] for m in r.generator_images],
        "provenance": r.provenance,
    }


def rep_from_json(obj, group: GroupPresentation) -> UnitaryRep:
    """Bind a serialized representation to the group of the paired complex."""
    try:
        dim = check_dim(_json_int(obj["dim"], "dim"))
        mats = []
        for rows in obj["generators"]:
            entries = [[cyclo_from_json(x) for x in row] for row in rows]
            mats.append(Matrix(len(rows), len(rows[0]) if rows else 0, entries))
        declared = (check_conductor(_json_int(obj["conductor"], "the conductor"))
                    if "conductor" in obj else None)
        conductor = check_conductor(math.lcm(1, *(x.conductor for m in mats
                                                  for row in m.entries for x in row)))
        if declared not in (None, conductor):
            raise InputError(f"rep conductor {declared} is not the lcm {conductor} "
                             "of its entries' conductors")
        provenance = str(obj.get("provenance", "explicit"))
        return explicit_rep(group, mats, provenance=provenance, dim=dim)
    except InputError:
        raise
    except (KeyError, TypeError, ValueError, IndexError) as e:
        raise InputError(f"bad representation: {e}") from None


def torsion_to_json(td: TorsionData) -> dict:
    return {str(i): {"free_rank": td.free_ranks[i],
                     "polys": [laurent_to_json(p) for p in td.torsion_polys[i]]}
            for i in range(td.degrees())}


def certificate_to_json(cert: AcyclicityCertificate) -> dict:
    return {
        "z_order": cert.z_order,
        "z_power": cert.z_power,
        "character": rep_to_json(cert.character),
        "torsion": torsion_to_json(cert.torsion),
        "dims": list(cert.report.dims),
        "verified": True,
    }


def report_to_json(r: HomologyReport) -> dict:
    return r.to_json()
