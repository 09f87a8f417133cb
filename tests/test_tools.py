"""tools/ab.py: one rerun after the set-up race of the benchmark harness, and
no other failure forgiven."""

import importlib.util
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
RACE = "exit 1: error: setup process exited with -14"


def _ab():
    spec = importlib.util.spec_from_file_location("ab", ROOT / "tools" / "ab.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("outcomes, code, reruns", [
    ([RACE, None, None], 0, 1),  # the rerun succeeds
    ([RACE, RACE, None], 1, 1),  # the rerun fails too: a failed run
    (["exit 1: error: boom", None], 1, 0),  # any other failure is not rerun
    (["correct: false: ", None], 1, 0),
])
def test_ab_reruns_the_setup_race_once(monkeypatch, capsys, outcomes, code, reruns):
    """One pair, base first: each outcome is a run's failure line, or None
    for a run that succeeds."""
    ab = _ab()
    names = [m["name"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]]
    runs = iter(outcomes)

    def run_once(side, args):
        why = next(runs)
        return (None, why) if why else ({name: 1.0 for name in names}, "")

    monkeypatch.setattr(ab, "export", lambda revision, dest: None)
    monkeypatch.setattr(ab, "run_once", run_once)
    assert ab.main(["--workload", "cyclo_sweep", "--pairs", "1"]) == code
    out = capsys.readouterr().out
    assert next(runs, "done") == "done"
    assert f"reruns after the set-up race: {reruns}" in out
    assert out.count("RERUN") == reruns
    assert out.count("failed run: ") == code
