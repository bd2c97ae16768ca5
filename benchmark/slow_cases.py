#!/usr/bin/env python3
"""Time the slow cases that no workload runs, once each.

Run from the root of the repository:

    python3 benchmark/slow_cases.py

Each case is too slow for a run of the benchmark today, so it is timed
here once and its figure recorded in benchmark/README.md.  A case that
a later change makes fast can move into a workload.  Takes about 75 s.
`hyperbinary(1000, n)` is not run: it ran for over 100 s before it was
stopped, and its memo dict grows as O(bits * d^2).
"""

import json
import platform
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from sternseq import dist_table, spectral, t_prefix_sum  # noqa: E402

CASES = (
    ("dist_table(2**1000 - 1, 24)", lambda: dist_table(2 ** 1000 - 1, 24)),
    ("spectral(10)", lambda: spectral(10)),
    ("t_prefix_sum(2**20, 'exact')", lambda: t_prefix_sum(1 << 20, "exact")),
)


def main():
    print(f"# python {platform.python_version()}, {platform.machine()}")
    for name, fn in CASES:
        t0 = time.perf_counter()
        fn()
        seconds = time.perf_counter() - t0
        print(json.dumps({"case": name, "seconds": round(seconds, 2)}),
              flush=True)


if __name__ == "__main__":
    main()
