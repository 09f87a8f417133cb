"""CLI commands, exit codes, JSON schemas and byte-determinism."""

import json
import time

import pytest

from twisthom import matrices
from twisthom.alexander import MAX_LAURENT_SPAN, laurent_specialize
from twisthom.cli import main
from twisthom.complexes import MAX_GENUS, MAX_LENS_ORDER, catalog_complex
from twisthom.groups import PermAction, GroupPresentation
from twisthom.jsonio import (MAX_CONDUCTOR, MAX_DIM, MAX_WORD_LENGTH, InputError,
                             complex_from_json, complex_to_json, cyclo_from_json,
                             cyclo_to_json, rep_from_json, rep_to_json)
from twisthom.numbers import Cyclo, euler_phi
from twisthom.reps import explicit_rep, permutation_rep, torsion_characters


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


def test_verify_single_suite(tmp_path):
    code, data = run_cli(tmp_path, "verify", "--suite", "shapiro", "--seed", "7")
    assert code == 0
    assert data["seed"] == 7
    assert [s["suite"] for s in data["suites"]] == ["shapiro"]
    assert data["suites"][0]["fail"] == 0


def test_verify_unknown_suite(tmp_path):
    code, _ = run_cli(tmp_path, "verify", "--suite", "nonsense")
    assert code == 1


def test_verify_corrupt_fixture_fails_euler(tmp_path):
    code, data = run_cli(tmp_path, "verify", "--suite", "euler",
                         "--corrupt-fixture")
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


@pytest.mark.parametrize("spec", ["lens:1031,1", "lens:10007,1", "s1x_sigma:65",
                                  "s1x_sigma:200", "handlebody:65",
                                  "free_product_of:t3,s1x_sigma:1000000"])
def test_oversized_catalog_specs_are_refused(tmp_path, capsys, spec):
    """Each family with a size parameter refuses specs above its cap up front."""
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
    """Under zeta_1009 the reduced coefficients of t3's boundaries would need
    1 057 primes; the unreduced ones need at most 152, so the rank
    certificate must be read off the unreduced lift."""
    counts = []
    original = matrices.split_primes

    def recorded(n, count):
        counts.append(count)
        return original(n, count)

    monkeypatch.setattr(matrices, "split_primes", recorded)
    start = time.perf_counter()
    code, data = run_cli(tmp_path, "homology", "--catalog", "t3", "--character", "1009:1")
    assert code == 0 and data["dims"] == [0, 0, 0, 0]
    assert 0 < max(counts) <= 152
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
