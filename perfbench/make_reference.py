"""Rewrite reference.json: the observables of one pass of every workload at
the default seed.  Run it from the root of a checkout whose results are
trusted; run.py then holds every default-seed pass to these values.

    python3 perfbench/make_reference.py
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import run
import workloads


def main() -> int:
    root = Path.cwd()
    runner = run.Runner(root, workloads.DEFAULT_SEED)
    reference = {}
    for workload in workloads.WORKLOADS:
        result = runner.spawn(workload, root / ".bench_out" / "reference" / workload)
        if result["failures"]:
            print(f"{workload}: {result['failures']}", file=sys.stderr)
            return 1
        reference[workload] = result["observables"]
    run.REFERENCE_FILE.write_text(
        json.dumps(reference, indent=1, sort_keys=True) + "\n")
    print(f"wrote {run.REFERENCE_FILE}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
