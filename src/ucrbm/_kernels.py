"""Hot numeric kernels in numpy.

Kernel inputs are plain arrays; the wrapping modules own validation.

The dense pass of exact mode and vmc has one construction for every
coupling, ``amplitudes_tanh``, with no hidden-angle array: every
x_j = exp(-2 s_j theta_j) is a constant times a product of per-site
factors, so one doubling over the sites gives x and the product-state
factor on all 2^N rows, from N*M complex exponentials in all, and psi and
tanh theta follow from 1 + x and 1 - x.  Where a row's hidden product
leaves the band that the doubling takes as it is, the caller takes the
whole pass in the per-element log form instead: ``logcosh``, the
principal branch that ``rbm.log_amplitude_batch`` sums for the
log-amplitudes of given rows, and np.tanh.  ``local_energy_batch`` serves
the ensemble mode, which has no statevector: it forms each amplitude ratio
psi(z')/psi(z) from the flipped sites alone (the cached-angle update of
Carleo & Troyer, Science 355, 602 (2017)); exact mode and vmc gather H psi
from the full statevector instead.  It takes t = tanh(theta), which the
caller computes once and feeds to the derivative moments too.

``local_energy_batch`` has one lane, the unitary-coupled one (Re w = 0),
because the ensemble mode takes unitary couplings only: the paper's
protocol prepares no other RBM.  The coupling sums over the flipped sites
are then imaginary, so each hidden factor of the ratio needs only cos/sin
and cannot overflow.  Flipping site i shifts hidden phase j by
2 Im w_ij z_i, so cos/sin of every shift come from per-step (M, N + 1)
tables of cos/sin(2 Im w): a sign flip for a group's first site and angle
addition for each further one, with no trig per row.  Each factor is
written in real arithmetic into one preallocated array; the bias exponent
is summed over the flipped sites before its one exp, so it overflows only
where the ratio does.
"""

from __future__ import annotations

import numpy as np

BACKEND = "numpy"

_LOG_HALF = float(np.log(0.5))
_LOG_2 = float(np.log(2.0))
# The band of hidden products that the dense doubling takes as it is: the
# largest amplitude then lies in it too, so the squared norm stays a normal
# float.
_PRODUCT_FLOOR = 2.0**-500
_PRODUCT_CEILING = 2.0**500


def logcosh(x: np.ndarray) -> np.ndarray:
    """Principal-branch log cosh, overflow-safe for large |Re x|."""
    x = np.asarray(x, dtype=np.complex128)
    s = np.where(x.real >= 0.0, 1.0, -1.0)
    sx = s * x
    return sx + np.log(1.0 + np.exp(-2.0 * sx)) + _LOG_HALF


def amplitudes_tanh(b, m, w):
    """(amplitudes up to a positive factor, tanh theta) on the 2^N big-endian
    rows of ``all_spin_configs`` for any complex couplings; tanh theta is the
    (2^N, M) transpose of an (M, 2^N) array.  None where a row's hidden
    product leaves the band that the doubling takes as it is (see below).

    With s_j = sign Re m_j, cosh theta_j = exp(s_j theta_j) (1 + x_j) / 2 and
    x_j = exp(-2 s_j theta_j) = exp(-2 s_j m_j) prod_i exp(-2 s_j w_ij z_i),
    a constant times a product of per-site factors, and
    psi = exp(sum_j s_j m_j) exp(a . z) prod_j (1 + x_j) / 2 with
    a_i = b_i + sum_j s_j w_ij.  One buffer holds x_j / 2 and the product
    state exp(a_i z_i - |Re a_i|), whose factors do not exceed 1: site by
    site, from the last (least significant) to the first, its filled rows
    are copied times the z_i = -1 factors into the next rows and scaled in
    place by the z_i = +1 factors.  The constants exp(-2 s m) / 2 and
    exp(i sum_j s_j Im m_j) ride on the last site's factors;
    exp(sum_j s_j Re m_j + sum_i |Re a_i|) > 0 is dropped.  Then
    tanh theta = s (1 - x) / (1 + x) = s / g - s with g = (1 + x) / 2.
    Near theta = 0 that difference loses the relative precision of
    tanh theta where |theta| is below about 1e-8, while its absolute error
    stays about eps.

    For unitary couplings (Re w = 0) Re theta_j = Re m_j on every row, so
    the site factors of x have unit modulus and |x_j| <= 1.  Otherwise
    |x_j| can exceed 1, and for large |Re w| the factors and their
    products overflow on the way; the caller runs the kernel under
    ``np.errstate(over="ignore", invalid="ignore")``.

    Every row's product of g must be finite and lie in [``_PRODUCT_FLOOR``,
    ``_PRODUCT_CEILING``]: below it (several hidden units with cosh theta
    near 0) the row would lose its relative precision, a g of 0 has no
    tanh, and above it the squared norm could overflow.  Otherwise the
    result is None, before any division, and the caller takes the
    per-element log form.
    """
    n, k = w.shape
    s = np.copysign(1.0, m.real)
    s2 = -2.0 * s
    # Exponents of the site factors: [site, z_i = +1 / -1, column], the
    # hidden columns first and the product state last.
    expo = np.empty((n, 2, k + 1), dtype=np.complex128)
    plus = expo[:, 0]
    np.multiply(w, s2, out=plus[:, :k])
    np.add(b, w @ s, out=plus[:, k])
    np.negative(plus, out=expo[:, 1])
    expo[:, :, k] -= np.abs(plus[:, k : k + 1].real)
    # The constants exp(-2 s m) / 2 and exp(i s . Im m), on the last site.
    expo[-1, :, :k] += m * s2 - _LOG_2
    expo[-1, :, k] += 1j * (s @ m.imag)
    factors = np.exp(expo)
    buf = np.empty((1 << n, k + 1), dtype=np.complex128)
    buf[:2] = factors[-1]
    size = 2
    for i in range(n - 2, -1, -1):
        np.multiply(buf[:size], factors[i, 1], out=buf[size : 2 * size])
        buf[:size] *= factors[i, 0]
        size *= 2
    # g = (1 + x) / 2 with hidden units leading: the product over them
    # then runs over contiguous rows.
    g = np.add(buf[:, :k].T, 0.5, order="C")
    prod = g.prod(axis=0)
    mag = np.abs(prod)
    # min and max propagate NaN, which fails both comparisons
    if not (mag.min() >= _PRODUCT_FLOOR and mag.max() <= _PRODUCT_CEILING):
        return None
    sc = s[:, None]
    t = np.divide(sc, g)
    t -= sc
    prod *= buf[:, k]
    return prod, t.T


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
