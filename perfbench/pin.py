"""Pin the artifact digests of every workload for the running compressor.

    python3 perfbench/pin.py

Runs each workload once (``coeff_wide`` at the default seed), replays the
command-line workloads with ``caprog rerun`` to confirm that the replay
reproduces the same bytes, and stores the digests in pins.json under the
running ``compressor_id``. Pins are made at a commit whose outputs are
known to be right; results under another compressor are not comparable.
"""
from __future__ import annotations

import hashlib
import json
import shutil
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench" / "pin"


def main() -> int:
    sys.path[:0] = [str(HERE), str(ROOT / "src")]
    from caprog import cli
    from caprog.complexity import COMPRESSOR_ID
    from workloads import DEFAULT_SEED, WORKLOADS

    shutil.rmtree(WORK, ignore_errors=True)
    table = {}
    for workload in WORKLOADS.values():
        out = WORK / workload.name
        seed_key = str(DEFAULT_SEED) if workload.seeded else "any"
        workload.call(workload.prepare(DEFAULT_SEED), str(out))
        digests = {name: hashlib.sha256((out / name).read_bytes()).hexdigest()
                   for name in workload.artifacts}
        if not workload.seeded:
            replay = WORK / f"{workload.name}-rerun"
            code = cli.main(["rerun", "--manifest", str(out / "manifest.json"),
                             "--out", str(replay)])
            if code != 0:
                print(f"{workload.name}: caprog rerun exited with {code}", file=sys.stderr)
                return 1
        table[workload.name] = {seed_key: digests}
        print(f"{workload.name}: {digests}", file=sys.stderr)
    path = HERE / "pins.json"
    pins = json.loads(path.read_text()) if path.is_file() else {}
    pins[COMPRESSOR_ID] = table
    path.write_text(json.dumps(pins, indent=2, sort_keys=True) + "\n")
    shutil.rmtree(WORK, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
