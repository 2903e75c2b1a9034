"""Record the deterministic outputs each workload checks against.

    python3 perfbench/record_reference.py

Runs every workload once on seeds 0..REFERENCE_SEEDS-1 and writes
perfbench/reference.json. Run it only at a commit whose model outputs are the
intended ones: every later run is compared with these values.
"""

from __future__ import annotations

import json
import sys

import run
import spec


def main() -> int:
    reference = {}
    for workload in spec.WORKLOADS:
        reference[workload] = {}
        for seed in range(spec.REFERENCE_SEEDS):
            result, error = run.run_process(workload, seed, False, run.PROCESS_TIMEOUT_S)
            if result is None or not all(result["checks"].values()):
                print(f"{workload} seed {seed}: {error or result['checks']}", file=sys.stderr)
                return 1
            reference[workload][str(seed)] = result["values"]
            print(f"{workload} seed {seed}: {result['values']}", flush=True)
    with open(run.HERE / "reference.json", "w", encoding="utf-8") as fh:
        json.dump(reference, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
