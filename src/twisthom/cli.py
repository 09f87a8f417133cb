"""Command-line front door.

Exit codes: 0 success (or acyclifying characters found), 1 input or internal
error, 2 well-formed negative result (obstruction fired, no character found).
Output is canonical JSON (sorted keys), byte-identical across runs for the
same inputs and seed.
"""

from __future__ import annotations

import argparse
import json
import sys

from .alexander import FreeRankObstruction, GradingError, make_acyclic_fibered
from .complexes import CATALOG_NAMES, catalog_entry_from_string
from .groups import GroupPresentation
from .homology import (BoundaryError, GroupMismatchError, twisted_homology)
from .jsonio import (InputError, certificate_to_json, check_conductor,
                     check_dim, complex_from_json, complex_to_json,
                     rep_from_json, report_to_json)
from .numbers import Cyclo
from .reps import (UnitaryRep, character_exponents, explicit_rep, torsion_characters,
                   trivial_rep, verify_rep)
from .suites import SUITES, run_suites

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_NEGATIVE = 2


def _emit(payload: dict, out_path: str | None) -> None:
    text = json.dumps(payload, sort_keys=True, indent=2) + "\n"
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _fail(message: str) -> int:
    sys.stderr.write(f"error: {message}\n")
    return EXIT_ERROR


def _load_complex(args):
    if args.catalog and args.complex:
        raise InputError("give either --catalog or --complex, not both")
    if args.catalog:
        try:
            return catalog_entry_from_string(args.catalog).complex
        except ValueError as e:
            raise InputError(str(e)) from None
    if args.complex:
        try:
            with open(args.complex, encoding="utf-8") as fh:
                return complex_from_json(json.load(fh))
        except OSError as e:
            raise InputError(f"cannot read {args.complex}: {e}") from None
        except json.JSONDecodeError as e:
            raise InputError(f"{args.complex} is not valid JSON: {e}") from None
    raise InputError("a complex is required: --catalog NAME[:params] or --complex FILE")


def _uniform_character(group: GroupPresentation, n: int, a: int) -> UnitaryRep:
    """--character n:a sends every generator to zeta_n^a (relators checked)."""
    z = Cyclo.root_of_unity(n, a) if n > 1 else Cyclo.one()
    rep = explicit_rep(group, [[[z]]] * group.num_generators, "character", dim=1)
    if not verify_rep(rep):
        raise InputError(
            f"character {a}/{n} does not satisfy the relators of this group")
    return rep


def _load_rep(args, group: GroupPresentation) -> UnitaryRep:
    sources = [s for s in (args.character, args.trivial, args.rep) if s is not None]
    if len(sources) != 1:
        raise InputError("exactly one of --character n:a, --trivial k, --rep FILE")
    if args.character is not None:
        try:
            n_str, _, a_str = args.character.partition(":")
            n, a = int(n_str), int(a_str if a_str else "1")
        except ValueError:
            raise InputError(f"--character wants n:a, got {args.character!r}") from None
        check_conductor(n)
        return _uniform_character(group, n, a)
    if args.trivial is not None:
        return trivial_rep(group, check_dim(args.trivial))
    try:
        with open(args.rep, encoding="utf-8") as fh:
            return rep_from_json(json.load(fh), group)
    except OSError as e:
        raise InputError(f"cannot read {args.rep}: {e}") from None
    except json.JSONDecodeError as e:
        raise InputError(f"{args.rep} is not valid JSON: {e}") from None


def _parse_phi(spec: str, group: GroupPresentation) -> list[int]:
    try:
        phi = [int(x) for x in spec.split(",")]
    except ValueError:
        raise InputError(f"--phi wants a comma list of integers, got {spec!r}") from None
    if len(phi) != group.num_generators:
        raise InputError(f"--phi needs {group.num_generators} integers, got {len(phi)}")
    return phi


def cmd_homology(args) -> int:
    try:
        cx = _load_complex(args)
        rep = _load_rep(args, cx.group)
    except InputError as e:
        return _fail(str(e))
    try:
        report = twisted_homology(cx, rep)
    except GroupMismatchError as e:
        return _fail(f"group mismatch: {e}")
    except BoundaryError as e:
        return _fail(f"broken chain complex: {e}")
    except ValueError as e:
        return _fail(str(e))
    _emit(report_to_json(report), args.out)
    return EXIT_OK


def cmd_acyclify(args) -> int:
    try:
        cx = _load_complex(args)
        if args.phi is None:
            raise InputError("--phi a,b,... is required")
        phi = _parse_phi(args.phi, cx.group)
    except InputError as e:
        return _fail(str(e))
    try:
        cert = make_acyclic_fibered(cx, phi)
    except GradingError as e:
        return _fail(str(e))
    except FreeRankObstruction as e:
        _emit({"obstruction": {"degree": e.degree, "free_rank": e.free_rank},
               "reason": str(e), "verified": False}, args.out)
        return EXIT_NEGATIVE
    except ValueError as e:
        return _fail(str(e))
    _emit(certificate_to_json(cert), args.out)
    return EXIT_OK


def cmd_search(args) -> int:
    try:
        cx = _load_complex(args)
    except InputError as e:
        return _fail(str(e))
    chars = torsion_characters(cx.group)
    found = []
    for idx, ch in enumerate(chars):
        report = twisted_homology(cx, ch)
        if report.acyclic:
            found.append({"index": idx, "conductor": ch.conductor,
                          "generator_exponents": character_exponents(ch),
                          "dims": list(report.dims)})
    payload = {"characters_tested": len(chars), "acyclifying": found}
    _emit(payload, args.out)
    return EXIT_OK if found else EXIT_NEGATIVE


def cmd_verify(args) -> int:
    if args.suite is not None and args.suite not in SUITES:
        return _fail(f"unknown suite {args.suite!r}; know {sorted(SUITES)}")
    result = run_suites(args.seed, only=args.suite)
    _emit(result, args.out)
    return EXIT_OK if result["ok"] else EXIT_ERROR


def cmd_catalog(args) -> int:
    if args.catalog:
        try:
            entry = catalog_entry_from_string(args.catalog)
        except ValueError as e:
            return _fail(str(e))
        _emit({"name": entry.name,
               "parameters": list(entry.parameters),
               "expected_trivial_dims": list(entry.expected_trivial_dims),
               "closed": entry.closed,
               "notes": entry.notes,
               "complex": complex_to_json(entry.complex)}, args.out)
        return EXIT_OK
    _emit({"names": list(CATALOG_NAMES),
           "examples": ["lens:5,1", "s1xs2", "t3", "s1x_sigma:2",
                        "quaternion_q8", "trefoil_exterior", "handlebody:2",
                        "torus2d", "free_product_of:t3,t3"]}, args.out)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="twisthom",
        description="Exact twisted homology of equivariant chain complexes "
                    "and acyclicity certificates.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_complex_args(p):
        p.add_argument("--catalog", help="catalog entry NAME[:p1,p2,...]")
        p.add_argument("--complex", help="path to a complex JSON file")
        p.add_argument("--out", help="write JSON output to a file")

    p_hom = sub.add_parser("homology", help="twisted homology dimensions")
    add_complex_args(p_hom)
    p_hom.add_argument("--character", help="1-dim rep n:a sending every generator to zeta_n^a")
    p_hom.add_argument("--trivial", type=int, help="trivial rep of this dimension")
    p_hom.add_argument("--rep", help="path to a representation JSON file")
    p_hom.set_defaults(fn=cmd_homology)

    p_acy = sub.add_parser("acyclify", help="root-of-unity acyclicity certificate")
    add_complex_args(p_acy)
    p_acy.add_argument("--phi", help="grading: comma list, one integer per generator")
    p_acy.set_defaults(fn=cmd_acyclify)

    p_search = sub.add_parser("search", help="search torsion characters for acyclicity")
    add_complex_args(p_search)
    p_search.set_defaults(fn=cmd_search)

    p_verify = sub.add_parser("verify", help="run the lemma/obstruction suites")
    p_verify.add_argument("--seed", type=int, default=0)
    p_verify.add_argument("--suite", help="run only this suite")
    p_verify.add_argument("--out", help="write JSON output to a file")
    p_verify.set_defaults(fn=cmd_verify)

    p_cat = sub.add_parser("catalog", help="list catalog entries or dump one")
    p_cat.add_argument("--catalog", help="entry NAME[:params] to dump")
    p_cat.add_argument("--out", help="write JSON output to a file")
    p_cat.set_defaults(fn=cmd_catalog)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except BrokenPipeError:
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
