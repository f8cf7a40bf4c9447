"""Timing comparison of the numba and numpy kernel lanes.

Run with: python benchmarks/bench_kernels.py [--quick]
The jitted lane is warmed up before timing so compilation is excluded.
"""

from __future__ import annotations

import argparse
import time

import numpy as np

from ucrbm import _kernels as kernels
from ucrbm import build_tfi, random_init
from ucrbm.hamiltonians import connected_structure
from ucrbm.spins import all_spin_configs


def _time(fn, repeats=5):
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("--quick", action="store_true", help="smaller workloads")
    args = parser.parse_args()

    if not kernels.HAVE_NUMBA:
        raise SystemExit("numba is not importable; nothing to compare")

    n, m = 10, 10
    k_rows = 20_000 if args.quick else 200_000
    params = random_init(n, m, 0.1, 0, True)
    rng = np.random.default_rng(0)
    zmat = all_spin_configs(n).astype(np.float64)[
        rng.integers(0, 1 << n, size=k_rows)
    ]

    h = build_tfi(n, 0.7)
    struct = connected_structure(h)

    cases = [
        (
            f"logpsi_batch (K={k_rows})",
            lambda: kernels.logpsi_batch_numba(zmat, params.b, params.m, params.w),
            lambda: kernels.logpsi_batch_numpy(zmat, params.b, params.m, params.w),
        ),
        (
            f"local_energy_batch (K={k_rows})",
            lambda: kernels.local_energy_batch_numba(
                zmat, params.b, params.m, params.w,
                struct.flips, struct.word_pref, struct.word_mask, struct.group_ptr,
            ),
            lambda: kernels.local_energy_batch_numpy(
                zmat, params.b, params.m, params.w,
                struct.flips, struct.word_pref, struct.word_mask, struct.group_ptr,
            ),
        ),
    ]

    print(f"{'kernel':<40}{'numba [s]':>12}{'numpy [s]':>12}{'speedup':>10}")
    for name, numba_fn, numpy_fn in cases:
        numba_fn()  # JIT warm-up
        t_nb = _time(numba_fn)
        t_np = _time(numpy_fn)
        print(f"{name:<40}{t_nb:>12.4f}{t_np:>12.4f}{t_np / t_nb:>10.2f}x")


if __name__ == "__main__":
    main()
