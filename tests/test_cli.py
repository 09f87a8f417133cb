"""CLI commands, exit codes, JSON schemas and byte-determinism."""

import hashlib
import json
import os
import random
import subprocess
import sys
import time
from pathlib import Path

import pytest

import twisthom
from twisthom import matrices
from twisthom.alexander import MAX_LAURENT_SPAN, laurent_specialize
from twisthom.cli import main
from twisthom.complexes import (MAX_FREE_PRODUCT_GENERATORS, MAX_GENUS, MAX_LENS_ORDER,
                                catalog_complex, catalog_entry_from_string)
from twisthom.groups import PermAction, GroupPresentation
from twisthom.jsonio import (MAX_CONDUCTOR, MAX_DIM, MAX_WORD_LENGTH, InputError,
                             complex_from_json, complex_to_json, cyclo_from_json,
                             cyclo_to_json, rep_from_json, rep_to_json)
from twisthom.numbers import Cyclo, euler_phi
from twisthom.reps import (evaluate_word, explicit_rep, permutation_rep,
                           torsion_characters)


def run_cli(tmp_path, *argv):
    out = tmp_path / "out.json"
    code = main(list(argv) + ["--out", str(out)])
    data = json.loads(out.read_text()) if out.exists() else None
    return code, data


def test_homology_lens_character(tmp_path):
    code, data = run_cli(tmp_path, "homology", "--catalog", "lens:5,1",
                         "--character", "5:1")
    assert code == 0
    assert data == {"dims": [0, 0, 0, 0], "euler": 0, "acyclic": True}


def test_homology_t3_trivial(tmp_path):
    code, data = run_cli(tmp_path, "homology", "--catalog", "t3", "--trivial", "1")
    assert code == 0 and data["dims"] == [1, 3, 3, 1]


def test_homology_free_product_with_parameterised_part(tmp_path):
    code, data = run_cli(tmp_path, "homology", "--catalog", "free_product_of:lens:5,1,t3",
                         "--trivial", "1")
    assert code == 0 and data["dims"] == [1, 3, 3]


def test_homology_trivial_character(tmp_path):
    code, data = run_cli(tmp_path, "homology", "--catalog", "lens:5,1",
                         "--character", "5:0")
    assert code == 0 and data["dims"] == [1, 0, 0, 1]


def test_homology_bad_inputs(tmp_path):
    code, _ = run_cli(tmp_path, "homology", "--catalog", "lens:0,1",
                      "--trivial", "1")
    assert code == 1
    code, _ = run_cli(tmp_path, "homology", "--catalog", "lens:5,1")
    assert code == 1  # no representation given
    code, _ = run_cli(tmp_path, "homology", "--catalog", "lens:5,1",
                      "--character", "3:1")
    assert code == 1  # character violates the relator x^5


def test_acyclify_certificates(tmp_path):
    code, data = run_cli(tmp_path, "acyclify", "--catalog", "s1xs2", "--phi", "1")
    assert code == 0
    assert data["z_order"] == 2 and data["dims"] == [0, 0, 0, 0]
    assert data["verified"] is True
    code, data = run_cli(tmp_path, "acyclify", "--catalog", "trefoil_exterior",
                         "--phi", "1,1")
    assert code == 0 and data["z_order"] == 2
    assert data["torsion"]["1"]["polys"] == [
        {"terms": {"0": "1", "1": "-1", "2": "1"}}]


def test_acyclify_obstruction_exit2(tmp_path):
    code, data = run_cli(tmp_path, "acyclify", "--catalog", "handlebody:2",
                         "--phi", "1,0")
    assert code == 2
    assert data["obstruction"] == {"degree": 1, "free_rank": 1}


def test_acyclify_bad_grading_exit1(tmp_path):
    code, _ = run_cli(tmp_path, "acyclify", "--catalog", "lens:5,1", "--phi", "1")
    assert code == 1
    code, _ = run_cli(tmp_path, "acyclify", "--catalog", "s1xs2", "--phi", "2")
    assert code == 1  # non-surjective


def test_search_lens(tmp_path):
    code, data = run_cli(tmp_path, "search", "--catalog", "lens:5,1")
    assert code == 0
    assert data["characters_tested"] == 5 and len(data["acyclifying"]) == 4


def test_search_t3_negative(tmp_path):
    code, data = run_cli(tmp_path, "search", "--catalog", "t3")
    assert code == 2 and data["acyclifying"] == []


def test_search_quaternion(tmp_path):
    code, data = run_cli(tmp_path, "search", "--catalog", "quaternion_q8")
    assert code == 0
    assert len(data["acyclifying"]) == 3  # the nontrivial abelian characters


@pytest.mark.parametrize("spec", ["lens:12,5", "quaternion_q8", "lens:4,1"])
def test_search_exponents_decode_the_character(tmp_path, spec):
    """Each reported exponent k is the one with zeta_conductor^k the
    generator's image, decoded from the Cyclo word image.  On lens:4,1 the
    character at index 2 compiles at n = 2 < conductor 4, so an exponent
    left at the compiled n reads 1, not 2."""
    code, data = run_cli(tmp_path, "search", "--catalog", spec)
    assert code == 0 and data["acyclifying"]
    chars = torsion_characters(catalog_entry_from_string(spec).complex.group)
    for found in data["acyclifying"]:
        ch, n = chars[found["index"]], found["conductor"]
        assert n == ch.conductor
        want = []
        for g in range(ch.group.num_generators):
            x = evaluate_word(ch, ((g, 1),))[0, 0]
            want.append(next(k for k in range(n) if Cyclo.root_of_unity(n, k) == x))
        assert found["generator_exponents"] == want, (spec, found["index"])
    if spec == "lens:4,1":
        assert chars[2].compiled.n == 2
        assert [f["generator_exponents"] for f in data["acyclifying"]] == [[1], [2], [3]]


def test_verify_single_suite(tmp_path):
    code, data = run_cli(tmp_path, "verify", "--suite", "shapiro", "--seed", "7")
    assert code == 0
    assert data["seed"] == 7
    assert [s["suite"] for s in data["suites"]] == ["shapiro"]
    assert data["suites"][0]["fail"] == 0


def test_verify_unknown_suite(tmp_path):
    code, _ = run_cli(tmp_path, "verify", "--suite", "nonsense")
    assert code == 1


def test_verify_corrupt_fixture_fails_euler(tmp_path, corrupt_euler_fixture):
    code, data = run_cli(tmp_path, "verify", "--suite", "euler")
    assert code == 1
    assert data["ok"] is False
    euler = [s for s in data["suites"] if s["suite"] == "euler"][0]
    assert euler["fail"] > 0


def test_catalog_listing_and_dump(tmp_path):
    code, data = run_cli(tmp_path, "catalog")
    assert code == 0 and "lens" in data["names"]
    code, data = run_cli(tmp_path, "catalog", "--catalog", "lens:5,1")
    assert code == 0
    assert data["expected_trivial_dims"] == [1, 0, 0, 1]
    cx = complex_from_json(data["complex"])
    assert cx.ranks == (1, 1, 1, 1)


def test_cli_byte_determinism(tmp_path):
    outs = []
    for name in ("a.json", "b.json"):
        out = tmp_path / name
        assert main(["verify", "--suite", "h0", "--seed", "3",
                     "--out", str(out)]) == 0
        outs.append(out.read_bytes())
    assert outs[0] == outs[1]


def test_complex_json_round_trip():
    cx = catalog_complex("trefoil_exterior").complex
    again = complex_from_json(json.loads(json.dumps(complex_to_json(cx))))
    assert again.group == cx.group
    assert again.ranks == cx.ranks
    assert all(again.boundaries[k] == cx.boundaries[k]
               for k in range(len(cx.boundaries)))


def test_rep_json_round_trip(tmp_path):
    p = GroupPresentation(1)
    rep = permutation_rep(p, PermAction(p, [(1, 0)]))
    blob = rep_to_json(rep)
    again = rep_from_json(json.loads(json.dumps(blob)), p)
    assert again.dim == 2
    assert again.generator_images == rep.generator_images
    # and it can be fed back through the CLI
    lens = catalog_complex("lens", [5, 1])
    chars = torsion_characters(lens.complex.group)
    rep_file = tmp_path / "rep.json"
    rep_file.write_text(json.dumps(rep_to_json(chars[1])))
    code, data = run_cli(tmp_path, "homology", "--catalog", "lens:5,1",
                         "--rep", str(rep_file))
    assert code == 0 and data["dims"] == [0, 0, 0, 0]


def test_scalar_json_round_trips():
    x = Cyclo.root_of_unity(12, 7) + Cyclo.from_rational(3)
    assert cyclo_from_json(cyclo_to_json(x)) == x
    with pytest.raises(InputError):
        cyclo_from_json({"conductor": 4, "coeffs": ["1"]})


def test_rep_file_group_mismatch(tmp_path):
    p = GroupPresentation(2)
    rep = permutation_rep(p, PermAction(p, [(1, 0), (0, 1)]))
    rep_file = tmp_path / "rep.json"
    rep_file.write_text(json.dumps(rep_to_json(rep)))
    code, _ = run_cli(tmp_path, "homology", "--catalog", "lens:5,1",
                      "--rep", str(rep_file))
    assert code == 1  # two matrices for a one-generator group


def test_rep_file_conductor_zero(tmp_path, capsys):
    with pytest.raises(InputError):
        cyclo_from_json({"conductor": 0, "coeffs": ["1"]})
    rep_file = tmp_path / "rep.json"
    rep_file.write_text(json.dumps({
        "dim": 1, "conductor": 0, "provenance": "explicit",
        "generators": [[[{"conductor": 0, "coeffs": ["1"]}]]]}))
    code, data = run_cli(tmp_path, "homology", "--catalog", "lens:5,1",
                         "--rep", str(rep_file))
    assert code == 1 and data is None
    assert capsys.readouterr().err.startswith("error: ")


@pytest.mark.parametrize("spec", [
    "lens:1031,1", "lens:10007,1", "s1x_sigma:65", "s1x_sigma:200", "handlebody:65",
    "free_product_of:t3,s1x_sigma:1000000",
    f"free_product_of:handlebody:{MAX_GENUS},handlebody:{MAX_GENUS - 1},t3",
    "free_product_of:t3,free_product_of:t3",
    pytest.param("free_product_of:" * 600 + "t3", id="free_product_of nested 600 deep")])
def test_oversized_catalog_specs_are_refused(tmp_path, capsys, spec):
    """Each family with a size parameter refuses specs above its cap up front;
    a free product refuses more generators than its largest single part,
    s1x_sigma:MAX_GENUS, has, and refuses free products as parts."""
    code, data = run_cli(tmp_path, "homology", "--catalog", spec, "--trivial", "1")
    assert code == 1 and data is None
    assert capsys.readouterr().err.startswith("error: ")


@pytest.mark.parametrize("spec", ["t3:7", "quaternion_q8:1,2", "s1xs2:1", "trefoil_exterior:2",
                                  "torus2d:0", "free_product_of:t3:7,s1xs2"])
def test_catalog_entries_without_parameters_refuse_them(tmp_path, capsys, spec):
    code, data = run_cli(tmp_path, "homology", "--catalog", spec, "--trivial", "1")
    assert code == 1 and data is None
    assert capsys.readouterr().err.startswith("error: ")


def test_catalog_caps_admit_their_largest_specs():
    assert catalog_complex("lens", [MAX_LENS_ORDER, 1]).expected_trivial_dims == (1, 0, 0, 1)
    assert catalog_complex("handlebody", [MAX_GENUS]).complex.group.num_generators == MAX_GENUS
    spec = f"free_product_of:handlebody:{MAX_GENUS},handlebody:{MAX_GENUS - 2},t3"
    assert catalog_entry_from_string(spec).complex.group.num_generators == \
        MAX_FREE_PRODUCT_GENERATORS == 2 * MAX_GENUS + 1


def _root_json(n: int) -> dict:
    return {"conductor": n, "coeffs": ["0", "1"] + ["0"] * (euler_phi(n) - 2)}


@pytest.mark.parametrize("spec", ["10007:1", f"{MAX_CONDUCTOR + 1}:1", "0:1"])
def test_oversized_character_conductor_is_refused(tmp_path, capsys, spec):
    start = time.perf_counter()
    code, data = run_cli(tmp_path, "homology", "--catalog", "t3", "--character", spec)
    assert code == 1 and data is None
    assert capsys.readouterr().err.startswith("error: conductor must be between 1 and 1024")
    assert time.perf_counter() - start < 5


@pytest.mark.parametrize("generators, top", [
    ([_root_json(10007)] * 3, 10007),     # one oversized entry conductor
    ([_root_json(5)] * 3, 10007),         # the rep's own "conductor" field
    ([_root_json(1021), _root_json(1019), {"conductor": 1, "coeffs": ["1"]}],
     1)])  # entries within the cap, but their lcm is 1 040 399
def test_rep_file_oversized_conductor_is_refused(tmp_path, capsys, generators, top):
    rep_file = tmp_path / "rep.json"
    rep_file.write_text(json.dumps({"dim": 1, "conductor": top, "provenance": "explicit",
                                    "generators": [[[g]] for g in generators]}))
    start = time.perf_counter()
    code, data = run_cli(tmp_path, "homology", "--catalog", "t3", "--rep", str(rep_file))
    assert code == 1 and data is None
    assert "conductor must be between 1 and 1024" in capsys.readouterr().err
    assert time.perf_counter() - start < 5


def test_largest_conductor_is_admitted(tmp_path):
    assert MAX_CONDUCTOR == MAX_LENS_ORDER  # every lens character passes
    code, data = run_cli(tmp_path, "homology", "--catalog", f"lens:{MAX_LENS_ORDER},1",
                         "--character", f"{MAX_CONDUCTOR}:1")
    assert code == 0 and data["dims"] == [0, 0, 0, 0]


def test_large_prime_conductor_uses_split_primes(tmp_path, monkeypatch):
    """Under zeta_1009 the complex of t3 is acyclic, so every boundary meets
    its rank-nullity cap at the first split prime: no request asks for more
    than one prime.  (Uncapped, d2 would need up to 152 primes:
    ``test_certified_rank.test_large_prime_conductor_bound_follows_the_unreduced_lift``.)"""
    counts = []
    original = matrices.split_primes

    def recorded(n, count):
        counts.append(count)
        return original(n, count)

    monkeypatch.setattr(matrices, "split_primes", recorded)
    start = time.perf_counter()
    code, data = run_cli(tmp_path, "homology", "--catalog", "t3", "--character", "1009:1")
    assert code == 0 and data["dims"] == [0, 0, 0, 0]
    assert max(counts) == 1
    assert time.perf_counter() - start < 20


def test_rep_file_conductor_must_match_entries(tmp_path, capsys):
    """A rep file's "conductor" field is the lcm of its entries' conductors."""
    rep_file = tmp_path / "rep.json"
    rep_file.write_text(json.dumps({"dim": 1, "conductor": 5, "provenance": "explicit",
                                    "generators": [[[_root_json(4)]]] * 3}))
    code, data = run_cli(tmp_path, "homology", "--catalog", "t3", "--rep", str(rep_file))
    assert code == 1 and data is None
    assert capsys.readouterr().err.startswith(
        "error: rep conductor 5 is not the lcm 4")
    # rep_to_json writes the rep's conductor, also when its images are stored
    # at another order (-zeta_3 is zeta_6)
    t3 = catalog_complex("t3").complex.group
    rep = explicit_rep(t3, [[[-Cyclo.root_of_unity(3)]]] * 3)
    assert rep.conductor == 3 and rep.compiled.n == 6
    assert rep_from_json(json.loads(json.dumps(rep_to_json(rep))), t3).conductor == 3


def test_largest_trivial_dimension_is_admitted(tmp_path):
    """d1 of t3 specializes to 0 under a trivial rep, so its d.d = 0 product
    must cost nothing; multiplying the zero block out takes minutes."""
    start = time.perf_counter()
    code, data = run_cli(tmp_path, "homology", "--catalog", "t3", "--trivial", str(MAX_DIM))
    assert code == 0 and data["dims"] == [MAX_DIM, 3 * MAX_DIM, 3 * MAX_DIM, MAX_DIM]
    assert time.perf_counter() - start < 5


@pytest.mark.parametrize("source", ["trivial", "rep file"])
@pytest.mark.parametrize("dim", [0, MAX_DIM + 1, 100_000_000])
def test_oversized_rep_dimension_is_refused(tmp_path, capsys, source, dim):
    """--trivial k and a rep file's "dim" are capped before any image is
    built; the rep file belongs to a group with no generators, so nothing
    else bounds its "dim"."""
    if source == "trivial":
        argv = ["--catalog", "lens:5,1", "--trivial", str(dim)]
    else:
        cx, rep = tmp_path / "cx.json", tmp_path / "rep.json"
        cx.write_text(json.dumps({"group": {"num_generators": 0, "relators": []},
                                  "ranks": [1], "boundaries": []}))
        rep.write_text(json.dumps({"dim": dim, "generators": []}))
        argv = ["--complex", str(cx), "--rep", str(rep)]
    start = time.perf_counter()
    code, data = run_cli(tmp_path, "homology", *argv)
    assert code == 1 and data is None
    assert capsys.readouterr().err.startswith(
        f"error: representation dimension must be between 1 and {MAX_DIM}")
    assert time.perf_counter() - start < 5


def test_largest_laurent_span_is_admitted(tmp_path):
    """The grading (1024, 1, 0) of t3 specializes entries of span exactly
    MAX_LAURENT_SPAN, and the certificate still comes out."""
    mats = laurent_specialize(catalog_complex("t3").complex, [MAX_LAURENT_SPAN, 1, 0])
    assert max(len(x[1]) - 1 for m in mats for row in m.entries for x in row if x) \
        == MAX_LAURENT_SPAN
    code, data = run_cli(tmp_path, "acyclify", "--catalog", "t3", "--phi",
                         f"{MAX_LAURENT_SPAN},1,0")
    assert code == 0 and data["verified"] and data["dims"] == [0, 0, 0, 0]


@pytest.mark.parametrize("weight", [MAX_LAURENT_SPAN + 1, 1_000_000])
def test_oversized_laurent_span_is_refused(tmp_path, capsys, weight):
    """Specialized entries are dense in the grading's weights; a span past
    the cap is refused before any elimination."""
    start = time.perf_counter()
    code, data = run_cli(tmp_path, "acyclify", "--catalog", "t3", "--phi", f"{weight},1,0")
    assert code == 1 and data is None
    assert capsys.readouterr().err.startswith(
        f"error: a specialized entry spans {weight} powers of t")
    assert time.perf_counter() - start < 5


def _lens3_json():
    return complex_to_json(catalog_complex("lens", [3, 1]).complex)


def _set(path, value):
    def edit(obj):
        *head, last = path
        for key in head:
            obj = obj[key]
        obj[last] = value
    return edit


# Each edit used to be truncated through int() into a different complex that
# was answered with exit 0: the coefficient 2.9 was read as 2, the letter 1.7
# as generator 1 and the ranks "1111" as four ranks.
NON_INTEGERS = {
    "float coefficient": _set(["boundaries", 0, 0, 0, 0, 0], 2.9),
    "bool coefficient": _set(["boundaries", 0, 0, 0, 0, 0], True),
    "string coefficient": _set(["boundaries", 0, 0, 0, 0, 0], "1"),
    "float letter": _set(["boundaries", 0, 0, 0, 0, 1], [1.7]),
    "float relator letter": _set(["group", "relators", 0, 0], 1.9),
    "string ranks": _set(["ranks"], "1111"),
    "float rank": _set(["ranks", 0], 1.0),
    "float num_generators": _set(["group", "num_generators"], 1.0),
    "bool num_generators": _set(["group", "num_generators"], True),
}


@pytest.mark.parametrize("case", sorted(NON_INTEGERS))
def test_complex_json_must_hold_integers(tmp_path, capsys, case):
    blob = _lens3_json()
    NON_INTEGERS[case](blob)
    path = tmp_path / "cx.json"
    path.write_text(json.dumps(blob))
    code, data = run_cli(tmp_path, "homology", "--complex", str(path), "--character", "3:1")
    assert code == 1 and data is None
    assert capsys.readouterr().err.startswith("error: ")
    path.write_text(json.dumps(_lens3_json()))
    assert run_cli(tmp_path, "homology", "--complex", str(path), "--character", "3:1")[0] == 0


@pytest.mark.parametrize("argv", [("homology", "--trivial", "1"), ("search",),
                                  ("acyclify", "--phi", "1")])
def test_negative_generator_count_is_refused(tmp_path, capsys, argv):
    """It used to be read: homology answered dims [1], search died in a
    traceback and acyclify asked for -1 integers."""
    path = tmp_path / "cx.json"
    path.write_text(json.dumps({"group": {"num_generators": -1, "relators": []},
                                "ranks": [1], "boundaries": []}))
    code, data = run_cli(tmp_path, argv[0], "--complex", str(path), *argv[1:])
    assert code == 1 and data is None
    assert capsys.readouterr().err.startswith("error: bad group presentation: ")


def _lens3_character_json():
    return rep_to_json(torsion_characters(catalog_complex("lens", [3, 1]).complex.group)[1])


# Each edit used to be truncated through int() into the same character,
# answered with exit 0: dim 1.9 was read as 1 and either conductor 3.9 as 3.
NON_INTEGER_REPS = {
    "float dim": _set(["dim"], 1.9),
    "bool dim": _set(["dim"], True),
    "float rep conductor": _set(["conductor"], 3.9),
    "string rep conductor": _set(["conductor"], "3"),
    "float entry conductor": _set(["generators", 0, 0, 0, "conductor"], 3.9),
    "string entry conductor": _set(["generators", 0, 0, 0, "conductor"], "3"),
    "bool entry conductor": _set(["generators", 0, 0, 0, "conductor"], True),
}


@pytest.mark.parametrize("case", sorted(NON_INTEGER_REPS))
def test_rep_json_must_hold_integers(tmp_path, capsys, case):
    cx = tmp_path / "cx.json"
    cx.write_text(json.dumps(_lens3_json()))
    blob = _lens3_character_json()
    NON_INTEGER_REPS[case](blob)
    rep = tmp_path / "rep.json"
    rep.write_text(json.dumps(blob))
    code, data = run_cli(tmp_path, "homology", "--complex", str(cx), "--rep", str(rep))
    assert code == 1 and data is None
    assert capsys.readouterr().err.startswith("error: ")
    rep.write_text(json.dumps(_lens3_character_json()))
    assert run_cli(tmp_path, "homology", "--complex", str(cx), "--rep", str(rep))[0] == 0


def test_longest_catalog_words_load_from_a_file(tmp_path):
    """lens:1024,1 has a relator of MAX_WORD_LENGTH letters and boundary
    words of up to 1023; its catalog complex loads through --complex."""
    cx = catalog_complex("lens", [MAX_LENS_ORDER, 1]).complex
    assert max(len(w) for b in cx.boundaries for w in b.terms[3]) == MAX_WORD_LENGTH - 1
    assert max(len(r) for r in cx.group.relators) == MAX_WORD_LENGTH
    path = tmp_path / "cx.json"
    path.write_text(json.dumps(complex_to_json(cx)))
    code, data = run_cli(tmp_path, "homology", "--complex", str(path), "--trivial", "1")
    assert code == 0 and data["dims"] == [1, 0, 0, 1]


@pytest.mark.parametrize("where", ["relator", "boundary"])
@pytest.mark.parametrize("length", [MAX_WORD_LENGTH + 1, 200_000])
def test_overlong_words_are_refused(tmp_path, capsys, where, length):
    """Word images cost O(length^2), so longer words are refused on input."""
    word = [1] * length
    if where == "relator":
        blob = {"group": {"num_generators": 1, "relators": [word]},
                "ranks": [1], "boundaries": []}
    else:
        blob = {"group": {"num_generators": 1, "relators": []},
                "ranks": [1, 1], "boundaries": [[[[[1, word]]]]]}
    path = tmp_path / "cx.json"
    path.write_text(json.dumps(blob))
    start = time.perf_counter()
    code, data = run_cli(tmp_path, "homology", "--complex", str(path), "--trivial", "1")
    assert code == 1 and data is None
    assert f"a word has {length} letters; at most {MAX_WORD_LENGTH}" in capsys.readouterr().err
    assert time.perf_counter() - start < 5


def _edited_catalog_json(spec, path, value):
    """The complex file of a catalog entry with the leaf at ``path`` set to
    ``value``."""
    blob = complex_to_json(catalog_entry_from_string(spec).complex)
    _set(path, value)(blob)
    return blob


def _write(tmp_path, name, blob):
    path = tmp_path / name
    path.write_text(json.dumps(blob))
    return str(path)


def _one_error_line(err: str) -> bool:
    return err.startswith("error: ") and err.count("\n") == 1


def test_largest_catalog_group_loads_from_a_file():
    """The generator cap admits s1x_sigma:MAX_GENUS, 129 generators, and so
    every free product the catalog builds."""
    cx = catalog_entry_from_string(f"s1x_sigma:{MAX_GENUS}").complex
    assert cx.group.num_generators == MAX_FREE_PRODUCT_GENERATORS
    again = complex_from_json(json.loads(json.dumps(complex_to_json(cx))))
    assert again.group == cx.group and again.ranks == cx.ranks
    assert all(again.boundaries[k] == cx.boundaries[k] for k in range(len(cx.boundaries)))


@pytest.mark.parametrize("argv", [("homology", "--trivial", "1"), ("search",)])
@pytest.mark.parametrize("count", [MAX_FREE_PRODUCT_GENERATORS + 1, 10_000, 2 ** 63],
                         ids=["130", "10000", "2^63"])
def test_oversized_generator_count_is_refused(tmp_path, capsys, argv, count):
    """2^63 generators used to overflow in trivial_rep, and 10 000 made
    search run for 18 s."""
    path = _write(tmp_path, "cx.json", _edited_catalog_json(
        "lens:5,2", ["group", "num_generators"], count))
    start = time.perf_counter()
    code, data = run_cli(tmp_path, argv[0], "--complex", path, *argv[1:])
    assert code == 1 and data is None
    assert capsys.readouterr().err == (f"error: bad group presentation: {count} generators; "
                                       f"at most {MAX_FREE_PRODUCT_GENERATORS} are admitted\n")
    assert time.perf_counter() - start < 1


@pytest.mark.parametrize("spec, path, dims", [
    ("lens:5,2", ["boundaries", 1, 0, 0, 0, 0], [1, 0, 0, 1]),
    ("torus2d", ["boundaries", 0, 0, 0, 0, 0], [0, 1, 1])], ids=["lens:5,2 d2", "torus2d d1"])
@pytest.mark.parametrize("top", [2 ** 63, -2 ** 63], ids=["2^63", "-2^63"])
def test_int64_overflowing_coefficient_before_a_zero_boundary(tmp_path, spec, path, dims, top):
    """The next boundary vanishes under the trivial rep, and the d.d = 0
    product by it used to cast this boundary's Python ints to int64."""
    cx = _write(tmp_path, "cx.json", _edited_catalog_json(spec, path, top))
    code, data = run_cli(tmp_path, "homology", "--complex", cx, "--trivial", "1")
    assert code == 0 and data["dims"] == dims


@pytest.mark.parametrize("top", [2 ** 63, 2], ids=["2^63", "2"])
def test_search_on_a_broken_complex_is_refused(tmp_path, capsys, top):
    """d1.d2 != 0 under the nontrivial characters of lens:5,2: search used to
    die in a traceback there (and at 2^63 already under the trivial one)."""
    cx = _write(tmp_path, "cx.json", _edited_catalog_json(
        "lens:5,2", ["boundaries", 1, 0, 0, 0, 0], top))
    code, data = run_cli(tmp_path, "search", "--complex", cx)
    assert code == 1 and data is None
    assert capsys.readouterr().err == \
        "error: broken chain complex: d1.d2 != 0 under this representation\n"


@pytest.mark.parametrize("argv", [("homology", "--catalog", "t3", "--trivial", "1"),
                                  ("search", "--catalog", "lens:5,1"),
                                  ("acyclify", "--catalog", "t3", "--phi", "1,0,0"),
                                  ("catalog",)])
def test_unwritable_out_is_refused(tmp_path, capsys, argv):
    out = tmp_path / "missing" / "out.json"
    assert main(list(argv) + ["--out", str(out)]) == 1
    assert not out.exists()
    err = capsys.readouterr().err
    assert _one_error_line(err) and str(out) in err


def test_acyclify_avoids_roots_of_degree_zero_torsion(tmp_path):
    """d1 of s1xs2 edited to -1 - x^-1 gives H_0 the torsion 1 + t, which
    z = -1 kills; the root choice used to skip degree 0, pick z = -1 and die
    in its own cross-check."""
    cx = _write(tmp_path, "cx.json", _edited_catalog_json(
        "s1xs2", ["boundaries", 0, 0, 0, 1, 0], -1))
    code, data = run_cli(tmp_path, "acyclify", "--complex", cx, "--phi", "1")
    assert code == 0 and data["z_order"] == 3 and data["dims"] == [0, 0, 0, 0]


FUZZ_BASES = ["trefoil_exterior", "t3", "lens:5,2", "s1x_sigma:2", "handlebody:2", "torus2d",
              "quaternion_q8", "s1xs2"]
FUZZ_VALUES = [-1, 0, 2, 3, 2 ** 63, -2 ** 63, 10 ** 6, 1.5, "1", None, [], True]


def _leaves(obj, path=()):
    """The paths of the scalars in a JSON document, in a fixed order."""
    if isinstance(obj, dict):
        for key in sorted(obj):
            yield from _leaves(obj[key], path + (key,))
    elif isinstance(obj, list):
        for i, x in enumerate(obj):
            yield from _leaves(x, path + (i,))
    else:
        yield path


def test_cli_fuzz_one_leaf(tmp_path, capsys):
    """Seeded: 300 runs, each with one leaf of a catalog complex file or of a
    character's rep file set to an edge value.  homology, search and
    acyclify must answer 0 or 2, or refuse with exit 1 and one error: line;
    none may raise or take a second."""
    rng = random.Random(0)
    complexes = {spec: complex_to_json(catalog_entry_from_string(spec).complex)
                 for spec in FUZZ_BASES}
    reps = {spec: rep_to_json(torsion_characters(
        catalog_entry_from_string(spec).complex.group)[-1])
        for spec in ("lens:5,2", "quaternion_q8")}
    cx, rep = str(tmp_path / "cx.json"), str(tmp_path / "rep.json")
    codes = []
    for _ in range(300):
        value = rng.choice(FUZZ_VALUES)
        if rng.random() < 0.25:
            spec = rng.choice(sorted(reps))
            blob = json.loads(json.dumps(reps[spec]))
            path = rng.choice(list(_leaves(blob)))
            _set(path, value)(blob)
            _write(tmp_path, "cx.json", complexes[spec])
            _write(tmp_path, "rep.json", blob)
            runs = [["homology", "--complex", cx, "--rep", rep]]
        else:
            spec = rng.choice(FUZZ_BASES)
            blob = json.loads(json.dumps(complexes[spec]))
            path = rng.choice(list(_leaves(blob)))
            _set(path, value)(blob)
            _write(tmp_path, "cx.json", blob)
            phi = ",".join(["1"] + ["0"] * (complexes[spec]["group"]["num_generators"] - 1))
            runs = [["homology", "--complex", cx, "--trivial", "1"],
                    ["homology", "--complex", cx, "--character", "3:1"],
                    ["search", "--complex", cx],
                    ["acyclify", "--complex", cx, "--phi", phi]]
        for argv in runs:
            start = time.perf_counter()
            code = main(argv)
            seconds = time.perf_counter() - start
            err = capsys.readouterr().err
            case = (spec, path, value, argv[0], code, err)
            assert code in (0, 2) or (code == 1 and _one_error_line(err)), case
            assert seconds < 1, case
            codes.append(code)
    assert {0, 1, 2} <= set(codes)


# sha256 of the stdout of each command at the commit that introduced the pin;
# refactors of the CLI and of the rank must leave them byte-identical.
STDOUT_SHA256 = {
    ("homology", "--catalog", "t3", "--character", "1009:1"):
        "2916cf69866b1c6deca3cb243c9c3209ea82f735219e13d7ae67d0c87ddd2a1f",
    ("search", "--catalog", "lens:512,1"):
        "789022bf7955a879563fa1982a8fcedf46e95bf9875428d511df222295465618",
    ("search", "--catalog", "lens:12,5"):
        "a0dc6ea601a8db8538fe9feb35009a9ae779459c7edc532b4020c16b7a902d72",
    ("acyclify", "--catalog", "t3", "--phi", "1,0,0"):
        "a38a59579b0db924a6a580266f1849f716d7914d174fe0b4eaec18b35009890d",
}


@pytest.mark.parametrize("argv", sorted(STDOUT_SHA256), ids=" ".join)
def test_stdout_is_pinned(capsys, argv):
    assert main(list(argv)) in (0, 2)
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == STDOUT_SHA256[argv]


def test_refusals_as_a_process_end_in_one_error_line(tmp_path):
    """The five inputs that used to end in a traceback or a hang, run as
    ``python -m twisthom.cli``: each exits 1 with one error: line on stderr,
    where an in-process test cannot see what happens at interpreter exit.
    The edited lens file itself is answered under the trivial rep."""
    top = _write(tmp_path, "top.json", _edited_catalog_json(
        "lens:5,2", ["boundaries", 1, 0, 0, 0, 0], 2 ** 63))
    broken = _write(tmp_path, "broken.json", _edited_catalog_json(
        "lens:5,2", ["boundaries", 1, 0, 0, 0, 0], 2))
    gens = [_write(tmp_path, f"gens{count}.json", _edited_catalog_json(
        "lens:5,2", ["group", "num_generators"], count)) for count in (2 ** 63, 10_000)]
    env = dict(os.environ, PYTHONPATH=str(Path(twisthom.__file__).resolve().parents[1]))

    def cli(*argv):
        return subprocess.run([sys.executable, "-m", "twisthom.cli", *argv], env=env,
                              capture_output=True, text=True, timeout=60)

    accepted = cli("homology", "--complex", top, "--trivial", "1")
    assert accepted.returncode == 0 and accepted.stderr == ""
    assert json.loads(accepted.stdout)["dims"] == [1, 0, 0, 1]
    for argv in (["search", "--complex", top],
                 ["search", "--complex", broken],
                 ["homology", "--complex", gens[0], "--trivial", "1"],
                 ["search", "--complex", gens[1]],
                 ["search", "--catalog", "t3", "--out", str(tmp_path / "missing" / "x.json")]):
        done = cli(*argv)
        assert done.returncode == 1 and done.stdout == "", argv
        assert _one_error_line(done.stderr) and "Traceback" not in done.stderr, \
            (argv, done.stderr)
