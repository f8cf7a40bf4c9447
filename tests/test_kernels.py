import numpy as np
import pytest

from ucrbm import _kernels
from ucrbm.estimators import _local_energies, local_observable
from ucrbm.hamiltonians import (
    TqdParams,
    build_afh,
    build_tfi,
    build_tqd,
    connected_structure,
    load_bundled,
)
from ucrbm.rbm import RbmParams, hidden_angles, random_init
from ucrbm.spins import all_spin_configs

MODELS = {
    "tfi": lambda: build_tfi(4, 0.7),
    "afh": lambda: build_afh(4),  # Y words carry phases
    "tqd": lambda: build_tqd(TqdParams(b_field=0.5)),
    "pauli-file": lambda: load_bundled("lih_four_qubit.txt"),
}


class TestLogcosh:
    def test_matches_naive_on_moderate_arguments(self):
        rng = np.random.default_rng(0)
        x = rng.normal(size=50) + 1j * rng.normal(size=50)
        np.testing.assert_allclose(
            _kernels.logcosh(x), np.log(np.cosh(x)), atol=1e-12
        )

    def test_no_overflow_for_large_real_parts(self):
        x = np.array([1000.0 + 0.3j, -2000.0 + 1.0j])
        out = _kernels.logcosh(x)
        assert np.all(np.isfinite(out.real))
        assert out[0].real == pytest.approx(1000.0 - np.log(2.0))


def assert_matches_oracle(params, h):
    """The batched local energies of every configuration against the
    per-configuration log-amplitude oracle, to 1e-10 relative per row."""
    zmat = all_spin_configs(h.n_qubits)
    rows = zmat.astype(np.float64)
    theta = hidden_angles(params, rows)
    got = _local_energies(params, h, rows, theta, np.tanh(theta))
    ref = np.array([local_observable(params, z, h) for z in zmat])
    assert np.all(np.isfinite(ref))
    assert np.all(np.abs(got - ref) <= 1e-10 * np.abs(ref))


class TestLocalEnergyBatch:
    @pytest.mark.parametrize("unitary", [True, False])
    @pytest.mark.parametrize("model", sorted(MODELS))
    def test_matches_local_observable(self, model, unitary):
        h = MODELS[model]()
        for seed in range(2):
            assert_matches_oracle(random_init(h.n_qubits, 3, 1.5, seed, unitary), h)

    @pytest.mark.parametrize("re_w", [5.0, 20.0, 100.0])
    @pytest.mark.parametrize("model", ["tfi", "afh", "pauli-file"])
    def test_large_real_couplings(self, model, re_w):
        # Each ratio factor cosh(theta - 2d)/cosh(theta) is small where both
        # cosh 2d and tanh(theta) sinh 2d are of order e^{2|Re d|}: the
        # difference of those two loses every digit once Re w is large.
        h = MODELS[model]()
        p = random_init(h.n_qubits, 3, 0.3, 4, False)
        w = p.w + re_w * np.sign(p.w.real)
        assert_matches_oracle(RbmParams(p.b, p.m, w, unitary_coupled=False), h)

    def test_no_hidden_units(self):
        h = build_afh(3)
        assert_matches_oracle(random_init(3, 0, 0.5, 1, True), h)


def complex_form_energies(params, h, rows, theta):
    """The unitary-coupled local energies with each ratio factor built as the
    complex expression cos 2delta - 1j * tanh(theta) * sin 2delta."""
    struct = connected_structure(h)
    flips, n = struct.flips, rows.shape[1]
    shape = (params.n_hidden, rows.shape[0], flips.shape[0])
    mask = 0.5 * (1.0 - flips)
    dlog = -2.0 * ((rows * params.b) @ mask.T)
    flipped = (rows[:, None, :] * mask).reshape(-1, n).T
    two_delta = 2.0 * (params.w.imag.T @ flipped).reshape(shape)
    t = np.tanh(theta).T[:, :, None]
    ratio = np.exp(dlog) * (np.cos(two_delta) - 1j * t * np.sin(two_delta)).prod(axis=0)
    return (struct.elements(rows) * ratio).sum(axis=1)


class TestUnitaryRatio:
    @pytest.mark.parametrize("model", sorted(MODELS))
    def test_matches_complex_expression_bitwise(self, model):
        h = MODELS[model]()
        rows = all_spin_configs(h.n_qubits).astype(np.float64)
        for seed in range(2):
            params = random_init(h.n_qubits, 3, 1.5, seed, True)
            theta = hidden_angles(params, rows)
            got = _local_energies(params, h, rows, theta, np.tanh(theta))
            want = complex_form_energies(params, h, rows, theta)
            assert got.tobytes() == want.tobytes()


class TestBackendSelection:
    def test_backend_is_exported(self):
        assert _kernels.BACKEND == "numpy"
