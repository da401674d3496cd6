"""caprog benchmark: one workload, one seed, one timed run.

    python3 perfbench/run.py --workload eca_sweep --seed 1 --seconds 40 --trace 0

Run it from the root of a source checkout; it imports caprog from ``src/``
and needs nothing beyond the stdlib and numpy. Every call runs in a fresh
interpreter (see child.py), so set-up time and peak memory belong to the
workload alone. With ``--trace 0`` it reports the end-to-end metrics, with
``--trace 1`` the per-layer split from traced calls (see tracer.py).

Every call's artifacts are hashed and compared with the digests pinned in
pins.json for the running compressor; a seed without pinned digests must
give the same digests on every call. The second-to-last line of output is
a record of the samples, checks and environment (also written under
``.perfbench/``); the last line is the result:

    {"correct": true, "attempted": 6, "failed": 0, "metrics": {...}}
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"

MIN_CALLS = 3  # untraced calls per run, however short --seconds is
MIN_TRACED = 2  # traced calls per traced run, each paired with an untraced one
CHILD_TIMEOUT_S = 170

EXIT_NOT_RUNNABLE = 2
EXIT_INCOMPARABLE = 3

COUNT_CHECKS = (
    "engine.evolve_calls",
    "engine.cells",
    "complexity.compress_calls",
    "complexity.bytes_in",
    "complexity.bytes_out",
    "complexity.distinct_payloads",
)


def child(workload: str, seed: int, traced: bool) -> dict:
    """Set up and call the workload once in a fresh interpreter."""
    # One thread for any math library numpy loads, as befits a one-worker load.
    env = dict(os.environ, PYTHONPATH=str(SRC), OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
    cmd = [sys.executable, str(HERE / "child.py"), "--workload", workload, "--seed", str(seed),
           "--traced", str(int(traced))]
    start = time.time()
    proc = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True,
                          timeout=CHILD_TIMEOUT_S)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"benchmark process exited with {proc.returncode}")
    record = json.loads(lines[-1])
    record["elapsed_s"] = time.time() - start
    return record


def closed_loop(workload: str, seed: int, deadline: float, pattern: tuple[bool, ...],
                minimum: int) -> list[dict]:
    """Rounds of calls, traced as ``pattern`` says, until the next round would
    end after ``deadline``; at least ``minimum`` rounds."""
    calls: list[dict] = []
    rounds = 0
    while rounds < minimum or (
        time.time() + len(pattern) * statistics.median(c["elapsed_s"] for c in calls) <= deadline
    ):
        calls += [child(workload, seed, traced) for traced in pattern]
        rounds += 1
    return calls


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def git_commit() -> str | None:
    git = ROOT / ".git"
    if not (git / "HEAD").is_file():
        return None
    head = (git / "HEAD").read_text().strip()
    if not head.startswith("ref: "):
        return head
    ref = head[5:]
    if (git / ref).is_file():
        return (git / ref).read_text().strip()
    packed = git / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return None


def src_digest() -> str:
    """sha256 over the package sources, naming the code in a checkout without git."""
    digest = hashlib.sha256()
    for path in sorted((SRC / "caprog").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def environment(seed: int) -> dict:
    import zlib

    import numpy

    import caprog
    from caprog.complexity import COMPRESSOR_ID

    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "zlib_runtime": zlib.ZLIB_RUNTIME_VERSION,
        "compressor_id": COMPRESSOR_ID,
        "caprog_version": caprog.__version__,
        "git_commit": git_commit(),
        "src_sha256": src_digest(),
        "seed": seed,
    }


def check_outputs(calls: list[dict], pinned: dict | None) -> tuple[int, dict]:
    """Failed calls, and the digests they were checked against.

    Without pinned digests the first successful call is the reference, so
    every call of the run must agree with it.
    """
    reference = pinned
    if reference is None:
        reference = next((c["digests"] for c in calls if c["error"] is None), {})
    failed = sum(1 for c in calls if c["error"] is not None or c["digests"] != reference)
    return failed, reference


def check_counts(traced: list[dict], expected: dict[str, int]) -> dict:
    """Counts must repeat exactly; a mismatch with the workload's shape is reported."""
    counts = [{name: c["layers"][name] for name in COUNT_CHECKS} for c in traced]
    measured = {name: counts[0][name] for name in expected}
    return {
        "repeat": all(c == counts[0] for c in counts),
        "counts": counts[0],
        "expected": expected,
        "matches_expected": measured == expected,
    }


def end_to_end(workload, calls: list[dict]) -> dict:
    wall = statistics.median(c["wall_s"] for c in calls)
    return {
        "wall_s": {"value": wall, "unit": "s"},
        "cells_per_s": {"value": workload.cells / wall, "unit": "1/s"},
        "setup_s": {"value": statistics.median(c["setup_s"] for c in calls), "unit": "s"},
        "peak_rss_mb": {"value": statistics.median(c["peak_rss_mb"] for c in calls),
                        "unit": "MB"},
    }


def per_layer(calls: list[dict]) -> dict:
    traced = [c for c in calls if c["traced"]]
    plain = [c for c in calls if not c["traced"]]
    metrics = {}
    for name in traced[0]["layers"]:
        value = statistics.median(c["layers"][name] for c in traced)
        unit = "s" if name.endswith("_s") else "ratio" if name.endswith("_frac") else "count"
        metrics[name] = {"value": value, "unit": unit}
    overhead = (statistics.median(c["wall_s"] for c in traced)
                / statistics.median(c["wall_s"] for c in plain) - 1.0)
    metrics["trace.overhead_frac"] = {"value": overhead, "unit": "ratio"}
    return metrics


def main() -> int:
    sys.path.insert(0, str(HERE))
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True, help="length of the timed run")
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()
    start = time.time()
    deadline = start + args.seconds

    if not (SRC / "caprog" / "__init__.py").is_file():
        print(f"not runnable: no caprog sources under {SRC}", file=sys.stderr)
        return EXIT_NOT_RUNNABLE
    sys.path.insert(0, str(SRC))
    env = environment(args.seed)
    pins = json.loads((HERE / "pins.json").read_text())
    if env["compressor_id"] not in pins:
        print(f"incomparable environment: no pinned digests for {env['compressor_id']}; "
              f"pinned: {', '.join(sorted(pins))}", file=sys.stderr)
        return EXIT_INCOMPARABLE
    workload = WORKLOADS[args.workload]
    seed_key = str(args.seed) if workload.seeded else "any"
    pinned = pins[env["compressor_id"]][workload.name].get(seed_key)

    if args.trace:
        calls = closed_loop(workload.name, args.seed, deadline, (False, True), MIN_TRACED)
    else:
        calls = closed_loop(workload.name, args.seed, deadline, (False,), MIN_CALLS)
    failed, reference = check_outputs(calls, pinned)
    correct = failed == 0
    record = {
        "workload": workload.name,
        "seed": args.seed,
        "trace": args.trace,
        "environment": env,
        "digests": {"pinned": pinned is not None, "reference": reference},
        "samples": {
            "wall_s": [c["wall_s"] for c in calls],
            "traced": [c["traced"] for c in calls],
            "setup_s": [c["setup_s"] for c in calls],
        },
        "errors": [c["error"] for c in calls if c["error"] is not None],
        "elapsed_s": time.time() - start,
    }
    if args.trace:
        counts = check_counts([c for c in calls if c["traced"]], workload.expected_counts())
        record["counts_check"] = counts
        correct = correct and counts["repeat"]
        if not counts["matches_expected"]:
            print("note: traced counts differ from the workload's shape; "
                  "a layer may be bypassed or cached", file=sys.stderr)
        metrics = per_layer(calls)
    else:
        metrics = end_to_end(workload, calls)
    OUT.mkdir(exist_ok=True)
    name = f"BENCH_{workload.name}_seed{args.seed}_trace{args.trace}.json"
    (OUT / name).write_text(json.dumps(record, indent=2) + "\n")
    print(json.dumps(record))
    print(json.dumps({"correct": correct, "attempted": len(calls), "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
