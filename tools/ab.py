"""Alternating A/B runs of one benchmark workload: a git revision against this checkout.

    python3 tools/ab.py --workload fibered_covers --seed 0 --seconds 20 --pairs 10 --base HEAD~1

The base revision is exported with ``git archive`` into a temporary directory,
so no git worktree metadata is written.  ``src/twisthom/__pycache__`` is
cleared on both sides first.  Each pair runs ``bench/run.py`` once per side,
the first side alternating from pair to pair, so that the machine's drift
falls on both sides alike.  Every run is printed as it ends.  A run whose
last stderr line ends in ``process exited with -14`` hit the known SIGALRM
race of ``bench/calibrate.py`` (a set-up child killed by its own timer): it is
rerun once on the same side, and the rerun is printed and counted in the
summary.  Any other run that exits non-zero or reports ``correct: false``,
and a rerun that fails again, is listed with its last stderr line, left out
of the statistics, and makes the script exit 1.  For each end-to-end metric
of ``BENCHMARK.json`` the summary gives both medians, the base's
interquartile range (IQR) and the pairs the change wins, ties counting for
neither side.  Standard library only.
"""

from __future__ import annotations

import argparse
import json
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RACE = "process exited with -14"  # the set-up SIGALRM race of bench/calibrate.py


def export(revision: str, dest: Path):
    """The files of ``revision`` under ``dest``, by ``git archive | tar -x``."""
    archive = subprocess.run(["git", "-C", str(ROOT), "archive", revision],
                             capture_output=True, check=True).stdout
    subprocess.run(["tar", "-x", "-C", str(dest)], input=archive, check=True)


def run_once(side: Path, args) -> tuple[dict | None, str]:
    """(metric values, '') of one run, or (None, why it failed)."""
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", args.workload, "--seed", str(args.seed),
         "--seconds", str(args.seconds), "--trace", "0"],
        cwd=side, capture_output=True, text=True)
    lines = proc.stderr.strip().splitlines()
    last = lines[-1] if lines else ""
    if proc.returncode != 0:
        return None, f"exit {proc.returncode}: {last}"
    doc = json.loads(proc.stdout.strip().splitlines()[-1])
    if not doc["correct"]:
        return None, f"correct: false: {last}"
    return {name: m["value"] for name, m in doc["metrics"].items()}, ""


def quartiles(values: list[float]) -> tuple[float, float]:
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q3


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--base", default="HEAD", help="git revision to compare against")
    args = parser.parse_args(argv)
    metrics = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]

    with tempfile.TemporaryDirectory(prefix="ab-base-") as tmp:
        base = Path(tmp)
        export(args.base, base)
        sides = {"base": base, "change": ROOT}
        for path in sides.values():
            shutil.rmtree(path / "src" / "twisthom" / "__pycache__", ignore_errors=True)
        runs = {"base": [], "change": []}
        failures, reruns = [], []
        print(f"{args.workload} seed={args.seed} seconds={args.seconds} "
              f"base={args.base} change={ROOT}")
        for i in range(args.pairs):
            order = ("base", "change") if i % 2 == 0 else ("change", "base")
            for name in order:
                values, why = run_once(sides[name], args)
                if values is None and why.endswith(RACE):
                    reruns.append(f"pair {i} {name}: {why}")
                    print(f"pair {i} {name:<6} RERUN {why}", flush=True)
                    values, why = run_once(sides[name], args)
                runs[name].append(values)
                if values is None:
                    failures.append(f"pair {i} {name}: {why}")
                    print(f"pair {i} {name:<6} FAILED {why}", flush=True)
                else:
                    print(f"pair {i} {name:<6} " + " ".join(
                        f"{m['name']}={values[m['name']]:.6g}" for m in metrics), flush=True)

    pairs = [(b, c) for b, c in zip(runs["base"], runs["change"]) if b and c]
    print(f"\n{'metric':<16} {'base median':>12} {'base IQR':>10} {'change median':>14} "
          f"{'change %':>9} {'wins':>6}")
    for m in metrics:
        name = m["name"]
        b = [r[name] for r in runs["base"] if r]
        c = [r[name] for r in runs["change"] if r]
        if not b or not c:
            print(f"{name:<16} no successful runs on one side")
            continue
        q1, q3 = quartiles(b)
        mb, mc = statistics.median(b), statistics.median(c)
        sign = 1 if m["better"] == "lower" else -1
        wins = sum(sign * (x[name] - y[name]) > 0 for x, y in pairs)
        change = 100 * (mc - mb) / mb if mb else float("nan")
        print(f"{name:<16} {mb:>12.6g} {q3 - q1:>10.3g} {mc:>14.6g} {change:>+8.1f}% "
              f"{wins:>2}/{len(pairs)}")
    print(f"reruns after the set-up race: {len(reruns)}")
    for line in reruns:
        print("rerun: " + line)
    for line in failures:
        print("failed run: " + line)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
