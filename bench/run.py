"""Run one twisthom benchmark workload and print its metrics.

    python3 bench/run.py --workload perm_battery --seed 0 --seconds 20 --trace 0

Each workload runs in fresh single-threaded processes (BLAS and OpenMP pinned
to one thread), importing twisthom from ``src/`` of this checkout.  With
``--trace 0`` the metrics are the end-to-end ones of BENCHMARK.json; with
``--trace 1`` they are the per-layer ones, from spans recorded around the
benchmark's own calls into each module.  Times are scaled to the reference
speed of ``calibrate.py``, whose kernel runs next to the workload, so that the
shared machine's changing speed cancels out.  The last line of stdout is one JSON
object with the keys correct, attempted, failed and metrics; a table for
people goes to stderr, and a traced run writes its spans to ``.bench_out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import calibrate

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
EXPECTED_COUNTS = BENCH / "expected_counts.json"

# Set-up time is the median over up to SETUP_SAMPLES fresh processes (the
# measuring one included), at least 3, as many as start within SETUP_BUDGET_S:
# one process start is too noisy on a shared box.
SETUP_SAMPLES = 9
SETUP_BUDGET_S = 2.0
TIME_LIMIT_S = 170
PINNED_ENV = {
    "OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1",
    "BLIS_NUM_THREADS": "1", "VECLIB_MAXIMUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1", "PYTHONHASHSEED": "0",
}


class BenchError(RuntimeError):
    """The benchmark could not produce a result."""


def environment() -> dict:
    import numpy
    return {"machine": " ".join(platform.uname()), "python": platform.python_version(),
            "numpy": numpy.__version__, "git_sha": git_sha(),
            "nproc": len(os.sched_getaffinity(0))}


def git_sha() -> str | None:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.is_file():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return None


# ---------------------------------------------------------------------------
# child processes
# ---------------------------------------------------------------------------

def child_main(args) -> int:
    """Set the workload up and report how long it took; measure it if asked.

    Set-up runs from the process's spawn to the end of the workload's set-up
    function, at reference speed (see ``calibrate.timed_setup``).
    """
    def set_up():
        sys.path[:0] = [str(SRC), str(BENCH)]
        import twisthom
        if Path(twisthom.__file__).resolve().parent != SRC / "twisthom":
            raise BenchError(f"imported twisthom from {twisthom.__file__}, not {SRC}")
        import workloads
        return workloads, workloads.WORKLOADS[args.workload][0](args.seed)

    (workloads, state), setup_s = calibrate.timed_setup(args.spawned, set_up)
    result = {"setup_s": setup_s}
    if args.child == "measure":
        result.update(workloads.measure(args.workload, state, args.seconds, bool(args.trace)))
        result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(json.dumps(result))
    return 0


def spawn(args, mode: str, deadline: float) -> dict:
    """Run a child to completion; return its JSON result."""
    env = {**os.environ, **PINNED_ENV}
    started = time.monotonic()
    cmd = [sys.executable, str(Path(__file__).resolve()), "--child", mode,
           "--spawned", repr(started), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    try:
        proc = subprocess.run(cmd, env=env, cwd=ROOT, capture_output=True, text=True,
                              timeout=max(1.0, deadline - started))
    except subprocess.TimeoutExpired as e:
        raise BenchError(f"{mode} process exceeded the time limit") from e
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise BenchError(f"{mode} process exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


# ---------------------------------------------------------------------------
# checks and metrics
# ---------------------------------------------------------------------------

def count_problems(workload: str, seed: int, passes: list[dict]) -> list[str]:
    """Counts must repeat across passes and match the pinned values."""
    problems = [f"pass {i}: counts differ from pass 0" for i, p in enumerate(passes)
                if not p.get("counts_repeat", True)]
    pinned = json.loads(EXPECTED_COUNTS.read_text()).get(workload, {})
    want = {**pinned.get("any_seed", {}), **pinned.get(f"seed{seed}", {})}
    counts = passes[0]["counts"]
    problems += [f"count {k} is {counts.get(k, 0)}, pinned {v}"
                 for k, v in sorted(want.items()) if counts.get(k, 0) != v]
    return problems


def end_to_end(spec: dict, setups: list[float], result: dict, attempted: int,
               failed: int) -> dict:
    values = {
        "setup_s": statistics.median(setups),
        "wall_s": result["wall_s"],
        "cpu_s": result["cpu_s"],
        "verdict_ms_p50": result["verdict_ms_p50"],
        "verdict_ms_p90": result["verdict_ms_p90"],
        "peak_rss_mb": result["peak_rss_mb"],
        "pass_frac": (attempted - failed) / attempted,
    }
    return {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
            for m in spec["end_to_end"]}


def per_layer(spec: dict, result: dict) -> dict:
    passes = result["passes"]
    traced = [p for p in passes if p["traced"]]
    plain = [p for p in passes if not p["traced"]]
    counts = passes[0]["counts"]
    values = {
        "trace.overhead_s": min(p["wall_s"] for p in traced)
        - min(p["wall_s"] for p in plain),
        "bench.oracle_s": result["oracle_s"],
    }
    out = {}
    for m in spec["per_layer"]:
        name = m["name"]
        if name in values:
            value = values[name]
        elif m["unit"] == "count":
            value = counts.get(name, 0)
        else:  # a layer's self time: name is "<module>.<step>_s"
            value = statistics.median(p["layers"].get(name[:-2], 0.0) for p in traced)
        out[name] = {"value": value, "unit": m["unit"]}
    return out


def write_trace(args, env: dict, result: dict, metrics: dict) -> Path:
    OUT.mkdir(exist_ok=True)
    path = OUT / f"trace-{args.workload}-seed{args.seed}.json"
    fields = ("name", "start", "end", "parent", "verdict")
    doc = {"workload": args.workload, "seed": args.seed, "environment": env,
           "metrics": metrics,
           "passes": [{k: v for k, v in p.items() if k != "counts"} for p in result["passes"]],
           "spans": [[dict(zip(fields, s)) for s in spans] for spans in result["spans"]]}
    path.write_text(json.dumps(doc))
    return path


def report(args, env: dict, metrics: dict, result: dict, problems: list[str],
           attempted: int, failed: int):
    w = sys.stderr.write
    w(f"twisthom bench: {args.workload} seed={args.seed} trace={args.trace} "
      f"passes={len(result['passes'])} verdicts={attempted} failed={failed}\n")
    w("environment: " + json.dumps(env) + "\n")
    for name, m in metrics.items():
        w(f"  {name:<40} {m['value']:>14.6g} {m['unit']}\n")
    for i, p in enumerate(result["passes"]):
        w(f"  pass {i}{' traced' if p['traced'] else ''}: wall {p['wall_s']:.4f} s at "
          f"reference speed, {p['raw_wall_s']:.4f} s measured\n")
        for f in p["failures"]:
            w(f"  FAIL {f}\n")
    for problem in problems:
        w(f"  CHECK {problem}\n")


def main(argv=None) -> int:
    spec_path = ROOT / "BENCHMARK.json"
    spec = json.loads(spec_path.read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--child", choices=("setup", "measure"), help=argparse.SUPPRESS)
    parser.add_argument("--spawned", type=float, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.child:
        return child_main(args)
    # exit through an exception, so that subprocess.run kills and reaps a child
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(1))
    if not (SRC / "twisthom" / "__init__.py").is_file():
        sys.stderr.write(f"error: no twisthom sources under {SRC}\n")
        return 2

    deadline = time.monotonic() + TIME_LIMIT_S
    try:
        setups = []
        budget_end = time.monotonic() + SETUP_BUDGET_S
        while not args.trace and len(setups) < SETUP_SAMPLES - 1 and (
                len(setups) < 2 or time.monotonic() < budget_end):
            setups.append(spawn(args, "setup", deadline)["setup_s"])
        result = spawn(args, "measure", deadline)
        setups.append(result["setup_s"])
    except BenchError as e:
        sys.stderr.write(f"error: {e}\n")
        return 1

    passes = result["passes"]
    attempted = sum(p["verdicts"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    problems = count_problems(args.workload, args.seed, passes)
    if args.trace:
        metrics = per_layer(spec, result)
    else:
        metrics = end_to_end(spec, setups, result, attempted, failed)
    env = environment()
    report(args, env, metrics, result, problems, attempted, failed)
    sys.stderr.write("  set-up samples: " + " ".join(f"{t:.4f}" for t in setups) + " s\n")
    if args.trace:
        sys.stderr.write(f"spans: {write_trace(args, env, result, metrics)}\n")
    print(json.dumps({"correct": failed == 0 and not problems, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
