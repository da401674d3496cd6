"""One fresh benchmark process: set up a workload and call it once.

Started by run.py, never by hand, with ``--traced 0`` for a plain call and
``--traced 1`` for a call under the tracer. Like a command-line user, each
call gets a fresh interpreter, so set-up is timed once per call. The last
line of standard output is a JSON object with the samples.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import shutil
import sys
import time
import traceback
from contextlib import nullcontext
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
WORK = ROOT / ".perfbench" / "work"


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--traced", type=int, choices=[0, 1], required=True)
    args = parser.parse_args()

    start = time.perf_counter()
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload]
    inputs = workload.prepare(args.seed)
    setup_s = time.perf_counter() - start

    tracer = None
    if args.traced:
        from tracer import Tracer

        tracer = Tracer()
    out = WORK / str(os.getpid())
    shutil.rmtree(out, ignore_errors=True)
    error = None
    with tracer or nullcontext():
        start = time.perf_counter()
        try:
            workload.call(inputs, str(out))
        except Exception as err:  # noqa: BLE001 - a failed call is counted, not fatal
            error = f"{type(err).__name__}: {err}"
        wall_s = time.perf_counter() - start
    if error is not None:
        traceback.print_exc()
    digests = {
        name: hashlib.sha256((out / name).read_bytes()).hexdigest()
        for name in workload.artifacts
        if (out / name).is_file()
    }
    shutil.rmtree(out, ignore_errors=True)
    record = {
        "setup_s": setup_s,
        "wall_s": wall_s,
        "error": error,
        "digests": digests,
        "traced": tracer is not None,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    if tracer is not None:
        record["layers"] = tracer.metrics(wall_s)
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
