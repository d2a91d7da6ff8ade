"""Set up one workload in a fresh interpreter and report how long it took.

    python3 perfbench/make_inputs.py --workload enum-d3 --seed 1 --out DIR

The clock starts before ``hyperpart`` is imported and stops after the
instances and ``plan.json`` are written to DIR, so the set-up time covers the
import, the generator's rejection sampling, the non-partitionable filter of
``colored-caps`` and the JSON output.  The last stdout line is
``{"setup_s": <seconds>}``.
"""

import time

_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import workloads  # noqa: E402  (imports hyperpart)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args()
    workloads.write_plan(workloads.plan(args.workload, args.seed), args.out)
    print(json.dumps({"setup_s": time.perf_counter() - _START}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
