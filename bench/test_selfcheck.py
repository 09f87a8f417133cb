"""The benchmark's reference checks must be able to fail.

Each workload runs a few verdicts against the unmodified library, traced so
that the step-by-step pipelines run too, and must report no failure.  Then
``homology_dims`` is made to return off-by-one dims, and separately
``specialize`` is made to tensor with the trivial representation of the same
dimension: every workload must then report failed verdicts.  The last tests
check how times are scaled to the calibration kernel's reference speed.
"""

import sys
import time
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH.parent / "src"), str(BENCH)]

import workloads  # noqa: E402
from twisthom import homology, reps  # noqa: E402

LIMIT = 12
NAMES = list(workloads.WORKLOADS)


@pytest.fixture(scope="module")
def states():
    return {}


def run(name: str, states: dict, traced: bool = False) -> workloads.Pass:
    if name not in states:
        states[name] = workloads.WORKLOADS[name][0](0)
    p = workloads.one_pass(name, states[name], traced, limit=LIMIT)
    p.run_checks()
    return p


@pytest.mark.parametrize("name", NAMES)
def test_unmodified_library_passes(name, states):
    p = run(name, states, traced=True)
    assert len(p.latencies) == LIMIT
    assert p.failures == {}
    assert all(t >= 0 for t in p.tracer.self_times().values())


@pytest.mark.parametrize("name", NAMES)
def test_off_by_one_rank_layer_fails(name, states, monkeypatch):
    original = homology.homology_dims

    def off_by_one(b):
        return homology.HomologyReport([d + 1 for d in original(b).dims])

    monkeypatch.setattr(homology, "homology_dims", off_by_one)
    assert run(name, states).failures


@pytest.mark.parametrize("name", NAMES)
def test_broken_specialize_fails(name, states, monkeypatch):
    original = homology.specialize

    def trivialized(c, r):
        return original(c, reps.trivial_rep(c.group, r.dim))

    monkeypatch.setattr(homology, "specialize", trivialized)
    assert run(name, states).failures


def test_times_are_scaled_to_reference_speed():
    """Each segment is scaled by the mean kernel time around it."""
    ref = workloads.calibrate.REFERENCE_S
    p = workloads.Pass(workloads.NullTracer())
    p.marks = [(0.0, 0.0), (1.0, 1.0), (3.0, 2.0), (4.0, 3.0)]
    p.latencies = [0.5, 2.0]
    p.speeds = [(0, ref, ref), (1, 3 * ref, 3 * ref), (3, ref, 2 * ref)]
    walls, cpus, latencies = p.normalized()
    assert walls == pytest.approx([0.5, 1.0, 0.5])
    assert cpus == pytest.approx([0.5, 0.4, 0.4])
    assert latencies == pytest.approx([0.25, 1.0])


def test_setup_is_scaled_to_reference_speed(monkeypatch):
    """A kernel twice as slow as the reference halves the time of a set-up,
    and the kernel's own runs are left out."""
    calibrate = workloads.calibrate
    monkeypatch.setattr(calibrate, "kernel", lambda: time.sleep(2 * calibrate.REFERENCE_S))
    spawned = time.monotonic() - 0.1
    result, total = calibrate.timed_setup(spawned, lambda: time.sleep(0.2) or "done")
    assert result == "done"
    assert 0.11 < total < 0.16
