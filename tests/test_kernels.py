import inspect
import warnings

import numpy as np
import pytest

from ucrbm import _kernels
from ucrbm.estimators import _draw_samples, _local_energies, local_observable
from ucrbm.hamiltonians import (
    PauliHamiltonian,
    TqdParams,
    build_afh,
    build_tfi,
    build_tqd,
    connected_structure,
    load_bundled,
)
from ucrbm.rbm import RbmParams, hidden_angles, log_amplitude_batch, random_init
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
    got = _local_energies(params, h, rows, np.tanh(hidden_angles(params, rows)))
    ref = np.array([local_observable(params, z, h) for z in zmat])
    assert np.all(np.isfinite(ref))
    assert np.all(np.abs(got - ref) <= 1e-10 * np.abs(ref))


class TestLocalEnergyBatch:
    # Unitary couplings only: the kernel has no unrestricted lane.
    @pytest.mark.parametrize("unitary", [True])
    @pytest.mark.parametrize("model", sorted(MODELS))
    def test_matches_local_observable(self, model, unitary):
        h = MODELS[model]()
        for seed in range(2):
            assert_matches_oracle(random_init(h.n_qubits, 3, 1.5, seed, unitary), h)

    def test_perfbench_reads_rows_and_flips_by_position(self):
        # perfbench/tracer.py::_evals counts kernels.local_energy_evals as
        # rows x flip groups from positional arguments 0 and 4 of the kernel;
        # a signature change that moves them would corrupt that count.
        names = list(inspect.signature(_kernels.local_energy_batch).parameters)
        assert (names[0], names[4]) == ("zmat", "flips")

    def test_no_hidden_units(self):
        h = build_afh(3)
        assert_matches_oracle(random_init(3, 0, 0.5, 1, True), h)


def complex_form_ratios(params, h, rows, theta):
    """(U, C) unitary-coupled amplitude ratios with each factor built as the
    complex expression cos 2delta - 1j * tanh(theta) * sin 2delta."""
    struct = connected_structure(h)
    flips, n = struct.flips, rows.shape[1]
    shape = (params.n_hidden, rows.shape[0], flips.shape[0])
    mask = 0.5 * (1.0 - flips)
    dlog = -2.0 * ((rows * params.b) @ mask.T)
    flipped = (rows[:, None, :] * mask).reshape(-1, n).T
    two_delta = 2.0 * (params.w.imag.T @ flipped).reshape(shape)
    t = np.tanh(theta).T[:, :, None]
    return np.exp(dlog) * (np.cos(two_delta) - 1j * t * np.sin(two_delta)).prod(axis=0)


def kernel_ratios(params, h, rows, theta):
    """(U, C) ratios from the kernel, one group at a time: one-hot matrix
    elements make its local energy that group's ratio."""
    struct = connected_structure(h)
    out = np.empty((rows.shape[0], struct.n_groups), dtype=np.complex128)
    for g in range(struct.n_groups):
        onehot = np.zeros_like(out)
        onehot[:, g] = 1.0
        out[:, g] = _kernels.local_energy_batch(
            rows, np.tanh(theta), params.b, params.w, struct.flips, onehot,
            struct.flip_sites,
        )
    return out


# (model, hidden units) of each TestUnitaryRatio case.
RATIO_CASES = {
    **{name: (build, 3) for name, build in MODELS.items()},
    "tfi10": (lambda: build_tfi(10, 0.5), 10),
}


class TestUnitaryRatio:
    # A group that flips at most one site (every group of TFI) takes cos/sin
    # of its site's own table entry: cos is even, sin is odd and doubling is
    # exact, so its ratios equal the complex form's exactly.  Groups that flip
    # several sites add their angles, which rounds differently from trig of
    # the summed angle: they are checked to 1e-13 relative, not bitwise.
    @pytest.mark.parametrize("case", sorted(RATIO_CASES))
    def test_matches_complex_expression_bitwise(self, case):
        build, m = RATIO_CASES[case]
        h = build()
        rows = all_spin_configs(h.n_qubits).astype(np.float64)
        single = (connected_structure(h).flips < 0).sum(axis=1) <= 1
        for seed in range(2):
            params = random_init(h.n_qubits, m, 1.5, seed, True)
            theta = hidden_angles(params, rows)
            got = kernel_ratios(params, h, rows, theta)
            want = complex_form_ratios(params, h, rows, theta)
            assert np.all(got[:, single] == want[:, single])
            multi = ~single
            assert np.all(np.abs(got - want)[:, multi] <= 1e-13 * np.abs(want[:, multi]))
            energies = _local_energies(params, h, rows, np.tanh(theta))
            want_energies = (connected_structure(h).elements(rows) * want).sum(axis=1)
            if single.all():
                assert energies.tobytes() == want_energies.tobytes()
            else:
                assert np.all(np.abs(energies - want_energies) <= 1e-13 * np.abs(want_energies))


class TestUnitaryOverflow:
    def test_large_opposite_biases_on_a_two_site_group(self):
        # -2(b_0 z_0 + b_1 z_1) = 0 on rows with z_0 = z_1, while each site's
        # own exponent is about -+800: exp of the sum is 1, a product of
        # per-site exps would be inf * 0.
        h = PauliHamiltonian(3, ((1.0, "XXI"), (0.5, "ZZI"), (-0.7, "IIX"), (0.3, "ZIZ")))
        p = random_init(3, 2, 0.5, 5, True)
        b = p.b + np.array([400.0, -400.0, 0.0])
        params = RbmParams(b, p.m, p.w, unitary_coupled=True)
        zmat = all_spin_configs(3)
        assert_moderate_rows_match_oracle(params, h, zmat[zmat[:, 0] == zmat[:, 1]])

    def test_couplings_of_many_multiples_of_pi(self):
        h = build_afh(4)
        p = random_init(4, 3, 0.5, 6, True)
        turns = np.random.default_rng(6).integers(-1000, 1000, size=p.w.shape)
        params = RbmParams(p.b, p.m, p.w + 1j * np.pi * turns, unitary_coupled=True)
        assert_moderate_rows_match_oracle(params, h, all_spin_configs(4))


def assert_moderate_rows_match_oracle(params, h, zmat):
    """Finite local energies equal to the log-amplitude oracle to 1e-10
    relative per row, with no RuntimeWarning."""
    rows = zmat.astype(np.float64)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = _local_energies(params, h, rows, np.tanh(hidden_angles(params, rows)))
        ref = np.array([local_observable(params, z, h) for z in zmat])
    assert np.all(np.isfinite(got)) and np.all(np.isfinite(ref))
    assert np.all(np.abs(got - ref) <= 1e-10 * np.abs(ref))


DENSE_MODELS = {
    "tfi10": lambda: build_tfi(10, 0.5),
    "afh8": lambda: build_afh(8),
    "tqd6": lambda: build_tqd(TqdParams(b_field=0.5)),
    "pauli-file": lambda: load_bundled("lih_four_qubit.txt"),
}


class TestDenseLocalEnergy:
    # vmc reads each row's local energy from its dense pass as
    # (H psi)(z)/psi(z).  The oracle is the flipped-site kernel of the
    # ensemble mode for unitary couplings; the kernel reads no Re w, so
    # unrestricted parameters take the log-amplitude oracle: the
    # per-element ``log_amplitude_batch`` of every connected row
    # z * flips[g], weighted by the elements H(z, z * flips[g]), as
    # ``local_observable`` sums them one row at a time.  Every basis row is
    # read through the vmc draw's ``rows_of``.
    @pytest.mark.parametrize("scale", [0.1, 0.7, 1.5])
    @pytest.mark.parametrize("unitary", [True, False])
    @pytest.mark.parametrize("model", sorted(DENSE_MODELS))
    def test_matches_the_flipped_site_kernel(self, model, unitary, scale):
        h = DENSE_MODELS[model]()
        n = h.n_qubits
        for seed in range(2):
            params = random_init(n, n, scale, seed, unitary)
            index = np.arange(1 << n)
            draw = _draw_samples(params, h, 1, np.random.default_rng(0), "vmc")
            rows, _, got = draw.rows_of(index)
            if unitary:
                want = _local_energies(params, h, rows, np.tanh(hidden_angles(params, rows)))
            else:
                struct = connected_structure(h)
                base = log_amplitude_batch(params, rows)
                ratios = np.stack(
                    [np.exp(log_amplitude_batch(params, rows * f) - base) for f in struct.flips],
                    axis=1,
                )
                want = (struct.elements(rows) * ratios).sum(axis=1)
            assert rows.shape[0] == index.shape[0]
            assert np.all(np.abs(got - want) <= 1e-12 * np.abs(want))


class TestBackendSelection:
    def test_backend_is_exported(self):
        assert _kernels.BACKEND == "numpy"
