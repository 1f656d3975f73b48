"""Record ``golden.json``: each workload's simulated outputs at the
default seed.

    python3 perfbench/record_golden.py

Re-record only when a change is meant to alter simulated results; a
speed-up must leave the file untouched.
"""

from __future__ import annotations

import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

from workloads import DEFAULT_SEED, WORKLOADS  # noqa: E402


def main() -> None:
    golden = {}
    for name, cls in WORKLOADS.items():
        work = cls(DEFAULT_SEED)
        work.setup()
        golden[name] = {"seed": DEFAULT_SEED, "outputs": work.op()}
    with open(os.path.join(HERE, "golden.json"), "w") as fh:
        json.dump(golden, fh, indent=2, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
