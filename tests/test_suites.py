"""Shape and determinism of the seeded verification suites."""

import hashlib
import json

import pytest

from twisthom.suites import SUITES, run_suites, seeded_induced_reps
from twisthom.complexes import catalog_complex
from twisthom.groups import free_product
from twisthom.reps import verify_rep, _verify_rep_uncached


def test_suite_names():
    assert set(SUITES) == {"euler", "trivialrep", "h0", "shapiro", "les",
                           "handlebody", "freeproduct"}


def test_verify_seed_0_output_is_pinned(suite_results):
    """The JSON that ``twisthom verify --seed 0`` prints (``cli._emit``) is
    pinned byte for byte by its md5: every pass count, dimension and
    certificate of the seven suites."""
    text = json.dumps(suite_results, sort_keys=True, indent=2) + "\n"
    assert hashlib.md5(text.encode()).hexdigest() == "dd7bedb5eef5c031a39aee795748fca8"


def test_run_suites_filters(suite_results):
    names = [s["suite"] for s in suite_results["suites"]]
    assert names == list(SUITES)
    only = run_suites(seed=0, only="trivialrep")
    assert [s["suite"] for s in only["suites"]] == ["trivialrep"]
    assert only["ok"]


def test_seeded_suites_are_deterministic():
    a = run_suites(seed=5, only="h0")
    b = run_suites(seed=5, only="h0")
    assert a == b
    c = run_suites(seed=6, only="h0")
    assert c["ok"]  # different seed still passes


def test_corrupt_fixture_negative_control(corrupt_euler_fixture):
    result = run_suites(seed=0, only="euler")
    assert not result["ok"]
    assert result["suites"][0]["fail"] > 0


def test_seeded_induced_reps_are_valid():
    import random
    t3 = catalog_complex("t3").complex.group
    p = free_product(t3, t3)
    reps = seeded_induced_reps(p, random.Random(1), 5, max_degree=3)
    assert len(reps) == 5
    for rep in reps:
        assert rep.dim <= 6
        assert verify_rep(rep)
        assert _verify_rep_uncached(rep)  # not just the constructor flag


@pytest.mark.parametrize("name", ["euler", "trivialrep", "h0", "shapiro", "les",
                                  "handlebody"])
def test_suite_fails_under_random_ranks(monkeypatch, suite_results, name):
    """Every lemma suite must be able to fail: with a rank layer that answers
    at random (seeded), it reports failures over its usual number of checks.
    The stub replaces ``certified_rank`` in every module that binds it, so
    the split's ranks in ``reps`` are random too.  freeproduct is left out
    for its runtime (about 10 s per run)."""
    import random
    from twisthom import homology, matrices, reps

    rng = random.Random(0)

    def random_rank(a, n):
        return rng.randint(0, min(a.shape[:2]))

    for module in (matrices, homology, reps):
        monkeypatch.setattr(module, "certified_rank", random_rank)
    report = SUITES[name](0)
    (real,) = [s for s in suite_results["suites"] if s["suite"] == name]
    assert report.passed + report.failed == real["pass"] + real["fail"]
    assert report.failed > 0


def test_les_suite_sees_every_subspace_rank_off_by_one():
    """Every rank of d_V (I tensor B) one short raises dims_w in a pattern
    that keeps the Euler characteristic and the upper bound; the lower bounds
    of the long exact sequence must still catch it.  This is the killing
    check of the "_subspace_ranks one short" row of ``test_mutants.py``:
    all 100 checks pass here, and under that mutant some fail."""
    from twisthom.suites import les_suite

    report = les_suite(0)
    assert (report.passed, report.failed) == (100, 0)
