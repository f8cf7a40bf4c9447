"""Set-up probe: one fresh process that imports ucrbm and prepares a workload.

    python3 perfbench/probe.py <workload> <seed> [--oracle]

Prints "ready" once the workload could take its first ITE step; the parent
times the interval from spawning this process to that line.  With
``--oracle`` it then prints the exact ground energy, so the dense
diagonalization never counts towards the workload process's memory.
"""

import sys

from ucrbm import exact_ground
from workloads import WORKLOADS, prepare


def main(argv: list[str]) -> int:
    workload = WORKLOADS[argv[0]]
    h, _ = prepare(workload, int(argv[1]))
    print("ready", flush=True)
    if "--oracle" in argv[2:]:
        print(repr(exact_ground(h)[0]), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
