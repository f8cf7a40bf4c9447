"""Imaginary-time benchmark of ucrbm: one workload per invocation.

    python3 perfbench/run.py --workload exact-tqd6 --seed 0 --seconds 30 --trace 0

Run from the repository root.  ``--trace 0`` reports the end-to-end metrics
from untraced runs; ``--trace 1`` reports the per-layer metrics from a
traced run, after an untraced run of equal length that gives the tracing
overhead.  The last line of standard output is one JSON object; the exit
code is non-zero when a correctness check fails or the package is missing.
"""

import argparse
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORKLOAD_NAMES = ("exact-tqd6", "vmc-tfi10", "ensemble-tfi8")
# One BLAS thread: the steps' matrices are small (P <= 140) and the host is a
# shared 2-core machine, where a second thread adds noise, not speed.
BLAS_THREADS = "1"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    if not (SRC / "ucrbm" / "__init__.py").is_file():
        print(f"perfbench: no ucrbm package under {SRC}", file=sys.stderr)
        return 2

    # Fixed before numpy is first imported; the set-up probes inherit them.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = BLAS_THREADS
    os.environ["UCRBM_NO_NUMBA"] = "1"
    os.environ["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p
    )
    sys.path.insert(0, str(SRC))
    import bench

    return bench.main(args)


if __name__ == "__main__":
    sys.exit(main())
