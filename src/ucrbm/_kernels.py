"""Hot numeric kernels in numpy.

Kernel inputs are plain arrays; the wrapping modules own validation.

``logcosh_sum_tanh`` serves the dense pass of exact mode and vmc: from one
expm1 per hidden angle it gives each row's sum of log cosh theta, for the
amplitudes, and tanh theta, for the derivative moments.  ``logcosh`` is
the principal branch that ``rbm.log_amplitude_batch`` sums for the
log-amplitudes of given rows.  ``local_energy_batch`` serves the ensemble
mode, which has no statevector: it forms each amplitude ratio
psi(z')/psi(z) from the flipped sites alone (the cached-angle update of
Carleo & Troyer, Science 355, 602 (2017)); exact mode and vmc gather H psi
from the full statevector instead.  It takes t = tanh(theta), which the caller computes
once and feeds to the derivative moments too.

The kernel has one lane, the unitary-coupled one (Re w = 0), because the
ensemble mode takes unitary couplings only: the paper's protocol prepares
no other RBM.  The coupling sums over the flipped sites are then imaginary,
so each hidden factor of the ratio needs only cos/sin and cannot overflow.
Flipping site i shifts hidden phase j by 2 Im w_ij z_i, so cos/sin of every
shift come from per-step (M, N + 1) tables of cos/sin(2 Im w): a sign flip
for a group's first site and angle addition for each further one, with no
trig per row.  Each factor is written in real arithmetic into one
preallocated array; the bias exponent is summed over the flipped sites
before its one exp, so it overflows only where the ratio does.
"""

from __future__ import annotations

import numpy as np

BACKEND = "numpy"

_LOG_HALF = float(np.log(0.5))
_TINY = np.finfo(np.float64).tiny  # smallest normal float


def logcosh(x: np.ndarray) -> np.ndarray:
    """Principal-branch log cosh, overflow-safe for large |Re x|."""
    x = np.asarray(x, dtype=np.complex128)
    s = np.where(x.real >= 0.0, 1.0, -1.0)
    sx = s * x
    return sx + np.log(1.0 + np.exp(-2.0 * sx)) + _LOG_HALF


def logcosh_sum_tanh(theta):
    """(sum_j log cosh theta_j per row, tanh theta) of a (K, M) array of
    hidden angles, both from one expm1 per angle.

    With s = sign Re theta (+1 at +-0, as in ``logcosh``) and
    g = exp(-s theta) cosh theta = 1 + expm1(-2 s theta) / 2,
    log cosh theta = s theta + log g and tanh theta =
    -s expm1(-2 s theta) / (2 g), to full relative precision at the
    smallest angles (the exp form s (1 / g - 1) gives 0 for tanh 1e-300).
    A row's sum therefore takes one log, of the product of its g, and its
    imaginary part is defined only modulo 2 pi, which exp does not see.
    |g| <= 1, so the product cannot overflow; a row whose product falls
    below the smallest normal float (many angles near i pi/2) takes the
    per-element sum instead.
    """
    s = np.where(theta.real >= 0.0, 1.0, -1.0)
    x = theta * (-2.0 * s)
    half = np.expm1(x)
    half *= 0.5
    g = half + 1.0
    t = half / g
    t *= -s
    prod = g.prod(axis=1)
    small = np.abs(prod) < _TINY
    prod[small] = 1.0
    total = np.log(prod) - 0.5 * x.sum(axis=1)
    if small.any():
        total[small] = logcosh(theta[small]).sum(axis=1)
    return total, t


def local_energy_batch(zmat, t, b, w, flips, elements, flip_sites):
    """Local observable sum_g H(z, z*flip_g) * psi(z*flip_g)/psi(z) per row
    of a unitary-coupled RBM; Re w is not read.

    ``zmat`` holds U spin rows (float64), ``t`` = tanh(theta) of their
    (U, M) hidden angles and ``elements`` the (U, C) matrix elements
    H(z, z*flip_g).  ``flips`` (C, N) and ``flip_sites`` (C, k) are the
    connected structure's flip signs and flipped sites, padded with N: the
    bias exponent is summed over the signs, and the angle tables are read
    at the sites.
    With d_j = sum_{i flipped} w_ij z_i = i delta_j the ratio is
    exp(-2 sum_{i flipped} b_i z_i) prod_j (cos 2delta_j - i t_j sin 2delta_j).
    """
    u, n = zmat.shape
    mask = 0.5 * (1.0 - flips)  # (C, N): 1 on the sites group g flips
    dlog = -2.0 * ((zmat * b) @ mask.T)
    # Tables of cos/sin(2 Im w_ij), (M, N + 1); the pad column N is the
    # zero shift, (1, 0), and pads z with 1.
    two_w = np.zeros((w.shape[1], n + 1))
    np.multiply(2.0, w.imag.T, out=two_w[:, :n])
    cos_w, sin_w = np.cos(two_w), np.sin(two_w)
    z = np.ones((u, n + 1))
    z[:, :n] = zmat
    # Hidden units lead, (M, U, C): the product over them then runs over
    # contiguous planes, about ten times faster than over the last axis.
    first = flip_sites[:, 0]
    cos = cos_w[:, None, first]  # (M, 1, C): cos is even in z
    sin = sin_w[:, None, first] * z[None, :, first]
    for sites in flip_sites.T[1:]:
        c = cos_w[:, None, sites]
        sz = sin_w[:, None, sites] * z[None, :, sites]
        cos, sin = cos * c - sin * sz, sin * c + cos * sz
    # The factor in real arithmetic, written into one complex array.
    tt = t.T[:, :, None]
    factor = np.empty((w.shape[1], u, flips.shape[0]), dtype=np.complex128)
    re, im = factor.real, factor.imag
    np.multiply(tt.imag, sin, out=re)
    np.add(cos, re, out=re)
    np.multiply(tt.real, sin, out=im)
    # 0 - x rather than -x: a zero keeps the + sign the complex form gave it.
    np.subtract(0.0, im, out=im)
    ratio = np.exp(dlog) * factor.prod(axis=0)
    return (elements * ratio).sum(axis=1)
