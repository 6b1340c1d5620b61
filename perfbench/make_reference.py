"""Records the seed reference of every workload: outputs and exact counts.

usage, from the root of a checkout of the commit the reference is for:

    python3 perfbench/make_reference.py [WORKLOAD ...]

For each Monte-Carlo seed the benchmark can hand the CLI, it runs one
untraced and one traced CLI process, requires both to succeed with
byte-identical outputs, and stores the outputs and the traced run's exact
counts in perfbench/reference/<workload>.json.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

from check import REL_TOL, source_digest
from run import BENCH, EXACT_COUNTS, git_rev, run_workload
from workloads import SEED_COUNT, WORKLOADS


def main(names: list[str]) -> int:
    root = Path.cwd()
    for name in names or sorted(WORKLOADS):
        seeds = {}
        for seed in range(SEED_COUNT):
            result = run_workload(root, WORKLOADS[name], seed, 0.0, True, None)
            plain, traced = result.runs
            if result.failed:
                print(f"{name} seed {result.cli_seed}: {plain.problems} "
                      f"{traced.problems}", file=sys.stderr)
                return 1
            layers = traced.layers()
            seeds[str(result.cli_seed)] = {
                "files": plain.outputs,
                "counts": {k: layers[k] for k in EXACT_COUNTS},
            }
            print(f"{name} seed {result.cli_seed}: "
                  f"{plain.wall_s:.2f} s untraced, {traced.wall_s:.2f} s traced")
        reference = {"workload": name, "git_rev": git_rev(root),
                     "src_sha256": source_digest(root / "src"),
                     "rel_tol": REL_TOL, "seeds": seeds}
        path = BENCH / "reference" / f"{name}.json"
        path.parent.mkdir(exist_ok=True)
        path.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
