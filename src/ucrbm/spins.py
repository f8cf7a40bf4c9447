"""Spin-configuration conventions and helpers.

A spin configuration is a length-N vector with entries +1/-1 (Pauli-Z
eigenvalues).  The computational basis state |0> corresponds to z = +1.
Basis indices are big-endian in the qubit order: qubit 0 is the most
significant bit, so index = sum_i bit_i * 2**(N-1-i) with bit_i = (1-z_i)/2.
"""

from __future__ import annotations

import numpy as np


def as_spins(z) -> np.ndarray:
    """Validate and return a spin vector as an int8 array of +1/-1."""
    z = np.asarray(z)
    if z.ndim != 1:
        raise ValueError(f"spin configuration must be 1-d, got shape {z.shape}")
    out = z.astype(np.int8)
    if not np.all(np.abs(out) == 1) or not np.array_equal(out, z):
        raise ValueError("spin entries must be exactly +1 or -1")
    return out


def spins_to_index(z: np.ndarray) -> int:
    bits = (1 - np.asarray(z, dtype=np.int64)) // 2
    n = bits.shape[0]
    return int(bits @ (1 << np.arange(n - 1, -1, -1, dtype=np.int64)))


def index_to_spins(index: int, n: int) -> np.ndarray:
    bits = (index >> np.arange(n - 1, -1, -1)) & 1
    return (1 - 2 * bits).astype(np.int8)


def all_spin_configs(n: int) -> np.ndarray:
    """(2**n, n) matrix whose row k is the spin configuration of index k."""
    idx = np.arange(1 << n)[:, None]
    bits = (idx >> np.arange(n - 1, -1, -1)[None, :]) & 1
    return (1 - 2 * bits).astype(np.int8)
