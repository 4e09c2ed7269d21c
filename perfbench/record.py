#!/usr/bin/env python3
"""Record the expected output digests and exact counters.

    python3 perfbench/record.py [--seeds 7,11] [--workloads a,b]

Runs each workload for its minimum number of operations on each seed and
writes the run-level output digest and counters to ``digests.json``,
which ``run.py`` then checks every later run of that seed against.  Run
it only when a change is meant to alter the program's outputs, and say
so in the change.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
DEFAULT_SEEDS = "7,11"  # the default seed, and one held out from tuning


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", default=DEFAULT_SEEDS)
    parser.add_argument("--workloads", default="")
    args = parser.parse_args()
    sys.path.insert(0, str(HERE.parent / "src"))
    sys.path.insert(0, str(HERE))
    from workloads import WORKLOADS

    names = args.workloads.split(",") if args.workloads else list(WORKLOADS)
    path = HERE / "digests.json"
    seeds = args.seeds.split(",")
    recorded = json.loads(path.read_text()) if path.exists() else {}
    # drop the entries being re-recorded, so the runs check only
    # themselves (operation against operation, cache against no cache)
    for name in names:
        for seed in seeds:
            recorded.get(name, {}).pop(seed, None)
    path.write_text(json.dumps(recorded, indent=1, sort_keys=True) + "\n")
    for name in names:
        for seed in seeds:
            proc = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", name,
                 "--seed", seed, "--seconds", "0"],
                capture_output=True, text=True, check=True, cwd=HERE.parent,
            )
            *_, line, result = proc.stdout.strip().splitlines()
            if not json.loads(result)["correct"]:
                print(proc.stderr, file=sys.stderr)
                raise SystemExit(f"{name} seed {seed}: run failed its checks")
            report = json.loads(line)
            recorded.setdefault(name, {})[seed] = report["digests"]
            print(f"{name} seed {seed}: {report['digests']['outputs']}")
    path.write_text(json.dumps(recorded, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
