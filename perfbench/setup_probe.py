"""Set-up probe: a fresh process imports the simulator and builds one
workload's inputs, then prints ``ready`` with the host speed it measured.
``run.py`` times several probes from spawn to that line, because a process
can import its modules only once.

    python3 perfbench/setup_probe.py WORKLOAD SEED
"""

import os
import sys

from bench_speed import Speedometer


def main(argv) -> int:
    workload, seed = argv[0], int(argv[1])
    here = os.path.dirname(os.path.abspath(__file__))
    sys.path.insert(0, os.path.join(os.path.dirname(here), "src"))
    with Speedometer() as speed:
        import bench_isccsim

        bench_isccsim.WORKLOADS[workload].build(seed)
    print(f"ready {speed.kernel_s!r} {speed.spent!r}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
