"""One benchmark set-up, timed: import kendall_walks, build a workload's inputs
and make one small warm-up call.

run.py calls ``timed_setup`` in its own process and runs this file in fresh
interpreters to get more set-up samples:

    python3 benchmarks/setup_probe.py <workload> <seed> <scratch dir>

prints the set-up seconds.  Nothing but the standard library may be imported
before the clock starts.
"""

import sys
import time
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"


def timed_setup(name, seed, scratch):
    """Returns (seconds, workload, inputs)."""
    start = time.perf_counter()
    import kendall_walks  # noqa: F401

    import workloads

    workload = workloads.WORKLOADS[name]
    inputs = workload.build(seed, scratch)
    workload.warm_up(inputs)
    return time.perf_counter() - start, workload, inputs


if __name__ == "__main__":
    sys.path.insert(0, str(SRC))
    print(timed_setup(sys.argv[1], int(sys.argv[2]), sys.argv[3])[0])
