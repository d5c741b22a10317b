"""One set-up as a CLI user pays it: a fresh interpreter imports durfee.cli
and builds the seeded op list.  Prints the seconds that took.

    python3 -I perfbench/setup_probe.py WORKLOAD SEED
"""

import time

_START = time.perf_counter()

import sys  # noqa: E402
from pathlib import Path  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

from perfbench import checkout, workloads  # noqa: E402

checkout.import_cli()
workloads.build(sys.argv[1], int(sys.argv[2]))
print(time.perf_counter() - _START)
