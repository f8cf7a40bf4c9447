"""Hot numeric kernels, each with a numba-jitted lane and a pure-numpy lane.

The jitted lane is used when numba imports cleanly and the environment
variable ``UCRBM_NO_NUMBA`` is unset (or "0"); setting it to any other
value forces the numpy lane.  The lanes agree up to floating-point
rounding in the last ulp.

Kernel inputs are plain arrays; the wrapping modules own validation.
"""

from __future__ import annotations

import cmath
import functools
import os

import numpy as np

_LOG_HALF = float(np.log(0.5))


def _env_disabled() -> bool:
    return os.environ.get("UCRBM_NO_NUMBA", "0").lower() not in ("", "0", "false")


try:
    from numba import njit

    HAVE_NUMBA = True
except ImportError:  # pragma: no cover - exercised via the env flag instead
    HAVE_NUMBA = False

USE_NUMBA = HAVE_NUMBA and not _env_disabled()
BACKEND = "numba" if USE_NUMBA else "numpy"


# ---------------------------------------------------------------------------
# numpy lane


def logcosh(x: np.ndarray) -> np.ndarray:
    """Principal-branch log cosh, overflow-safe for large |Re x|."""
    x = np.asarray(x, dtype=np.complex128)
    s = np.where(x.real >= 0.0, 1.0, -1.0)
    sx = s * x
    return sx + np.log(1.0 + np.exp(-2.0 * sx)) + _LOG_HALF


def logpsi_batch_numpy(zmat, b, m, w):
    """Unnormalized log-amplitudes for a (K, N) batch of spin rows."""
    theta = m[None, :] + zmat @ w
    return zmat @ b + logcosh(theta).sum(axis=1)


def local_energy_batch_numpy(zmat, b, m, w, flips, word_pref, word_mask, group_ptr):
    """Local observable sum_g H(z, z*flip_g) * psi(z*flip_g)/psi(z) per row."""
    k_rows, n = zmat.shape
    c_groups = flips.shape[0]
    base = logpsi_batch_numpy(zmat, b, m, w)
    bits = (1.0 - zmat) * 0.5
    parity = (bits @ word_mask.T.astype(np.float64)) % 2.0
    elem_words = (1.0 - 2.0 * parity) * word_pref[None, :]
    elements = np.add.reduceat(elem_words, group_ptr[:-1], axis=1)
    zflip = (zmat[:, None, :] * flips[None, :, :]).reshape(k_rows * c_groups, n)
    lp_flip = logpsi_batch_numpy(zflip, b, m, w).reshape(k_rows, c_groups)
    return (elements * np.exp(lp_flip - base[:, None])).sum(axis=1)


# ---------------------------------------------------------------------------
# numba lane

if HAVE_NUMBA:
    _jit = functools.partial(njit, cache=True, nogil=True)

    @_jit
    def _logcosh1(x):
        if x.real >= 0.0:
            sx = x
        else:
            sx = -x
        return sx + cmath.log(1.0 + cmath.exp(-2.0 * sx)) + _LOG_HALF

    @_jit
    def logpsi_batch_numba(zmat, b, m, w):
        k_rows, n = zmat.shape
        m_hidden = m.shape[0]
        out = np.empty(k_rows, dtype=np.complex128)
        for k in range(k_rows):
            acc = 0.0 + 0.0j
            for i in range(n):
                acc += b[i] * zmat[k, i]
            for j in range(m_hidden):
                th = m[j]
                for i in range(n):
                    th += w[i, j] * zmat[k, i]
                acc += _logcosh1(th)
            out[k] = acc
        return out

    @_jit
    def local_energy_batch_numba(
        zmat, b, m, w, flips, word_pref, word_mask, group_ptr
    ):
        k_rows, n = zmat.shape
        m_hidden = m.shape[0]
        c_groups = flips.shape[0]
        out = np.empty(k_rows, dtype=np.complex128)
        theta = np.empty(m_hidden, dtype=np.complex128)
        for k in range(k_rows):
            for j in range(m_hidden):
                th = m[j]
                for i in range(n):
                    th += w[i, j] * zmat[k, i]
                theta[j] = th
            acc = 0.0 + 0.0j
            for g in range(c_groups):
                elem = 0.0 + 0.0j
                for t in range(group_ptr[g], group_ptr[g + 1]):
                    ch = 1.0
                    for i in range(n):
                        if word_mask[t, i]:
                            ch *= zmat[k, i]
                    elem += word_pref[t] * ch
                dlog = 0.0 + 0.0j
                for i in range(n):
                    if flips[g, i] < 0.0:
                        dlog -= 2.0 * b[i] * zmat[k, i]
                for j in range(m_hidden):
                    thf = theta[j]
                    touched = False
                    for i in range(n):
                        if flips[g, i] < 0.0:
                            thf -= 2.0 * w[i, j] * zmat[k, i]
                            touched = True
                    if touched:
                        dlog += _logcosh1(thf) - _logcosh1(theta[j])
                acc += elem * cmath.exp(dlog)
            out[k] = acc
        return out

else:  # pragma: no cover
    logpsi_batch_numba = None
    local_energy_batch_numba = None


if USE_NUMBA:
    logpsi_batch = logpsi_batch_numba
    local_energy_batch = local_energy_batch_numba
else:
    logpsi_batch = logpsi_batch_numpy
    local_energy_batch = local_energy_batch_numpy
