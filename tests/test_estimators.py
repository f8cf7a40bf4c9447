import numpy as np
import pytest

from conftest import dense_from_terms, random_pauli_hamiltonian

from ucrbm.circuit import enumerate_branches
from ucrbm.errors import DegenerateWeightError, NumericalIntegrityError, SizeCapError
from ucrbm.estimators import (
    C_SIGN,
    Estimate,
    SrSystem,
    compute_a_c_exact,
    compute_a_c_from_log,
    compute_a_c_sampled,
    expectation_ensemble,
    expectation_exact,
    expectation_vmc,
    local_observable,
    read_sample_log,
    write_sample_log,
)
from ucrbm.hamiltonians import (
    PauliHamiltonian,
    TqdParams,
    build_afh,
    build_tfi,
    build_tqd,
    dense_matrix,
)
from ucrbm.rbm import (
    RbmParams,
    VariationalIndex,
    exact_statevector,
    log_derivatives_batch,
    random_init,
)
from ucrbm.spins import all_spin_configs, index_to_spins


def zero_params(n, m):
    return RbmParams(
        b=np.zeros(n, complex), m=np.zeros(m, complex), w=np.zeros((n, m), complex),
        unitary_coupled=True,
    )


class TestLocalObservable:
    def test_identity_hamiltonian_returns_coefficient(self):
        h = PauliHamiltonian(2, ((0.37, "II"),))
        p = random_init(2, 2, 0.4, 0, True)
        for k in range(4):
            assert local_observable(p, index_to_spins(k, 2), h) == pytest.approx(0.37)

    def test_uniform_state_transverse_field(self):
        n = 3
        h = PauliHamiltonian.from_terms(
            [(-0.8, "".join("X" if i == j else "I" for i in range(n))) for j in range(n)]
        )
        p = zero_params(n, 2)
        for k in range(8):
            value = local_observable(p, index_to_spins(k, n), h)
            assert value == pytest.approx(-0.8 * n)

    def test_density_weighted_sum_equals_dense_expectation(self):
        h = build_tfi(3, 0.9)
        p = random_init(3, 3, 0.4, 2, True)
        psi = exact_statevector(p)
        total = 0.0
        for k in range(8):
            total += psi.probabilities()[k] * local_observable(p, index_to_spins(k, 3), h)
        dense = dense_from_terms(h.terms, 3)
        expected = np.vdot(psi.amplitudes, dense @ psi.amplitudes).real
        assert total.real == pytest.approx(expected, abs=1e-10)
        assert abs(total.imag) < 1e-10


class TestExpectationExact:
    def test_uniform_state_tfi(self):
        assert expectation_exact(zero_params(2, 2), build_tfi(2, 0.5)).mean == pytest.approx(-1.0)

    def test_matches_dense_for_random_hamiltonians(self):
        rng = np.random.default_rng(4)
        for seed in range(10):
            h = random_pauli_hamiltonian(rng, 4, 7)
            p = random_init(4, 3, 0.3, seed, False)
            psi = exact_statevector(p)
            expected = np.vdot(psi.amplitudes, dense_from_terms(h.terms, 4) @ psi.amplitudes)
            assert expectation_exact(p, h).mean == pytest.approx(expected.real, abs=1e-10)

    def test_estimate_fields(self):
        est = expectation_exact(zero_params(2, 0), build_tfi(2, 1.0))
        assert est.mode == "exact" and est.std_error == 0.0 and est.n_samples == 0

    def test_rejects_non_finite_value(self, monkeypatch):
        # H psi is a bare array with no finiteness check of its own
        import ucrbm.estimators

        monkeypatch.setattr(
            ucrbm.estimators, "apply_h", lambda h, psi: np.full(4, np.nan, complex)
        )
        with pytest.raises(NumericalIntegrityError, match="non-finite"):
            expectation_exact(zero_params(2, 2), build_tfi(2, 0.5))


class TestExpectationVmc:
    def test_constant_local_energy_has_zero_error(self):
        # the transverse-field part has constant local energy on the uniform
        # state; the ZZ bond would add a per-sample +-1, so it is left out here
        h = PauliHamiltonian(2, ((-0.5, "XI"), (-0.5, "IX")))
        est = expectation_vmc(zero_params(2, 2), h, 200, np.random.default_rng(0))
        assert est.mean == pytest.approx(-1.0)
        assert est.std_error == 0.0
        assert est.mode == "vmc" and est.n_samples == 200

    def test_uniform_state_tfi_within_errors(self):
        est = expectation_vmc(zero_params(2, 2), build_tfi(2, 0.5), 10_000, np.random.default_rng(0))
        assert abs(est.mean - (-1.0)) <= 3 * est.std_error
        assert est.std_error == pytest.approx(0.01, rel=0.2)

    def test_three_sigma_consistency(self):
        h = build_afh(4)
        p = random_init(4, 4, 0.2, 7, True)
        exact = expectation_exact(p, h).mean
        failures = 0
        for seed in range(60):
            est = expectation_vmc(p, h, 4000, np.random.default_rng([10, seed]))
            if abs(est.mean - exact) > 3 * est.std_error:
                failures += 1
        assert failures <= 2

    def test_error_scales_as_inverse_sqrt(self):
        h = build_tfi(3, 0.6)
        p = random_init(3, 3, 0.35, 5, True)
        scaled = []
        for n in (100, 1000, 10000):
            est = expectation_vmc(p, h, n, np.random.default_rng([3, n]))
            scaled.append(est.std_error * np.sqrt(n))
        assert max(scaled) / min(scaled) < 2.0

    def test_rejects_zero_samples(self):
        with pytest.raises(ValueError):
            expectation_vmc(zero_params(2, 1), build_tfi(2, 1.0), 0, np.random.default_rng(0))


class TestExpectationEnsemble:
    def test_zero_parameters_every_sample_exact(self):
        # X-only observable: every run lands on the uniform state and every
        # sampled local energy equals the plus-state expectation exactly
        h = PauliHamiltonian(2, ((-0.5, "XI"), (-0.5, "IX")))
        est = expectation_ensemble(zero_params(2, 2), h, 50, np.random.default_rng(0))
        assert est.mean == pytest.approx(-1.0)
        assert est.std_error == pytest.approx(0.0, abs=1e-15)

    def test_pure_imaginary_hidden_bias_reduces_to_post_selection(self):
        # weights are 0/1, so the weighted mean runs over the all-plus branch only
        p = random_init(2, 2, 0.4, 3, True)
        p = RbmParams(p.b, 1j * p.m.imag, p.w, unitary_coupled=True)
        h = build_tfi(2, 0.8)
        exact = expectation_exact(p, h).mean
        est = expectation_ensemble(p, h, 4000, np.random.default_rng(11))
        assert abs(est.mean - exact) <= 4 * est.std_error

    def test_three_sigma_consistency_with_weights(self):
        h = build_tfi(2, 0.7)
        p = random_init(2, 2, 0.4, 1, True)  # Re(m) != 0 with probability 1
        assert np.max(np.abs(p.m.real)) > 0
        exact = expectation_exact(p, h).mean
        failures = 0
        for seed in range(60):
            est = expectation_ensemble(p, h, 4000, np.random.default_rng([20, seed]))
            if abs(est.mean - exact) > 3 * est.std_error:
                failures += 1
        assert failures <= 2

    def test_degenerate_weights_raise(self):
        # Re(m) = 0 gives zero weight except on the all-plus history; strong
        # couplings make that history rare, so a tiny batch can miss it
        p = RbmParams(
            np.zeros(1, complex), np.array([1.4j]), np.array([[1.5j]]),
            unitary_coupled=True,
        )
        h = PauliHamiltonian(1, ((1.0, "Z"),))
        raised = False
        for seed in range(50):
            try:
                expectation_ensemble(p, h, 1, np.random.default_rng(seed))
            except DegenerateWeightError:
                raised = True
                break
        assert raised

    def test_requires_unitary_couplings(self):
        p = random_init(2, 2, 0.3, 0, False)
        with pytest.raises(ValueError):
            expectation_ensemble(p, build_tfi(2, 1.0), 10, np.random.default_rng(0))

    def test_runs_past_the_statevector_cap(self):
        # the factorized sampler holds no statevector: N = 16 runs although
        # 2^17 amplitudes would exceed the default cap
        h = build_tfi(16, 0.5)
        p = random_init(16, 4, 0.3, 3, True)
        exact = expectation_exact(p, h, cap=16).mean
        est = expectation_ensemble(p, h, 20_000, np.random.default_rng(0))
        assert abs(est.mean - exact) <= 4 * est.std_error
        system = compute_a_c_sampled(
            p, h, 20_000, np.random.default_rng(1), mode="ensemble"
        )
        assert abs(system.energy.mean - exact) <= 4 * system.energy.std_error


class TestComputeAcExact:
    def test_zero_parameter_structure(self):
        p = zero_params(3, 2)
        system = compute_a_c_exact(p, build_tfi(3, 0.5))
        index = VariationalIndex.for_params(p)
        n = 3
        bias_block = system.a[: 2 * n, : 2 * n]
        np.testing.assert_allclose(bias_block, np.eye(2 * n), atol=1e-12)
        np.testing.assert_allclose(system.a[2 * n :, :], 0.0, atol=1e-12)
        assert system.c.shape == (index.size,)

    def test_symmetric_and_psd(self):
        h = build_tfi(3, 0.8)
        for seed in range(100):
            system = compute_a_c_exact(random_init(3, 3, 0.4, seed, seed % 2 == 0), h)
            assert np.array_equal(system.a, system.a.T)
            assert np.linalg.eigvalsh(system.a)[0] >= -1e-8

    def test_c_matches_finite_difference_gradient(self):
        h = build_tfi(3, 0.6)
        step = 1e-5
        for seed in range(3):
            p = random_init(3, 3, 0.3, seed, True)
            index = VariationalIndex.for_params(p)
            theta = index.flatten(p)
            system = compute_a_c_exact(p, h)
            for slot in range(0, index.size, 5):
                bump = np.zeros(index.size)
                bump[slot] = step
                grad = (
                    expectation_exact(index.unflatten(theta + bump), h).mean
                    - expectation_exact(index.unflatten(theta - bump), h).mean
                ) / (2 * step)
                assert system.c[slot] == pytest.approx(-0.5 * grad, abs=1e-6)

    @pytest.mark.parametrize(
        "build",
        [lambda: build_tfi(3, 0.5), lambda: build_afh(4), lambda: build_tqd(TqdParams(b_field=0.5))],
        ids=["tfi3", "afh4", "tqd6"],
    )
    @pytest.mark.parametrize("unitary", [True, False])
    def test_matches_covariance_definition(self, build, unitary):
        # A = Re Cov(O, O) and C = C_SIGN Re Cov(O, E_loc) under p = |psi|^2,
        # with the slot matrix O and E_loc = (H psi)/psi from the dense matrix.
        h = build()
        n = h.n_qubits
        for seed in range(3):
            p = random_init(n, 2, 0.3, seed, unitary)
            psi = exact_statevector(p).amplitudes
            prob = np.abs(psi) ** 2
            eloc = (dense_matrix(h) @ psi) / psi
            o = log_derivatives_batch(p, all_spin_configs(n))
            o_c = o - prob @ o
            a = (o_c.conj().T * prob) @ o_c
            c = C_SIGN * (o_c.conj().T * prob) @ (eloc - prob @ eloc)
            system = compute_a_c_exact(p, h)
            np.testing.assert_allclose(system.a, a.real, rtol=0, atol=1e-12)
            np.testing.assert_allclose(system.c, c.real, rtol=0, atol=1e-12)
            assert system.energy.mean == pytest.approx((prob @ eloc).real, abs=1e-12)

    def test_zero_probability_rows_are_dropped(self):
        # Re b_0 = 400 gives the z_0 = -1 rows probability e^{-1600} = 0.0 and
        # ratios of e^{800} = inf towards z_0 = +1: 0 * inf must not enter.
        p = random_init(3, 3, 0.3, 1, True)
        b = p.b.copy()
        b[0] = 400.0 + 1j * b[0].imag
        p = RbmParams(b, p.m, p.w, unitary_coupled=True)
        h = build_tfi(3, 0.5)
        system = compute_a_c_exact(p, h)
        assert system.energy.mean == pytest.approx(expectation_exact(p, h).mean, abs=1e-12)
        assert np.all(np.isfinite(system.c))

    def test_descent_direction(self):
        # a step along C strictly lowers the energy to first order
        h = build_afh(3)
        dtau = 1e-4
        for seed in range(50):
            p = random_init(3, 3, 0.3, seed, True)
            index = VariationalIndex.for_params(p)
            system = compute_a_c_exact(p, h)
            if np.linalg.norm(system.c) < 1e-12:
                continue
            moved = index.unflatten(index.flatten(p) + dtau * system.c)
            assert expectation_exact(moved, h).mean < system.energy.mean


class TestComputeAcSampled:
    def test_converges_to_exact_structure(self):
        h = build_tfi(3, 0.5)
        p = random_init(3, 3, 0.3, 13, True)
        exact = compute_a_c_exact(p, h)
        sampled = compute_a_c_sampled(p, h, 40_000, np.random.default_rng(3), mode="vmc")
        assert np.max(np.abs(sampled.a - exact.a)) < 0.05
        assert np.max(np.abs(sampled.c - exact.c)) < 0.05
        assert np.array_equal(sampled.a, sampled.a.T)

    def test_one_preparation_per_sample(self):
        h = build_tfi(3, 0.5)
        p = random_init(3, 3, 0.3, 13, True)
        for mode in ("vmc", "ensemble"):
            system = compute_a_c_sampled(p, h, 321, np.random.default_rng(0), mode=mode)
            assert system.n_preparations == 321

    def test_deterministic_under_seed(self):
        h = build_afh(3)
        p = random_init(3, 3, 0.3, 1, True)
        a = compute_a_c_sampled(p, h, 2000, np.random.default_rng(42), mode="ensemble")
        b = compute_a_c_sampled(p, h, 2000, np.random.default_rng(42), mode="ensemble")
        assert np.array_equal(a.a, b.a) and np.array_equal(a.c, b.c)
        assert a.energy.mean == b.energy.mean

    def test_replay_from_log_is_bitwise_identical(self, tmp_path):
        h = build_tfi(3, 0.5)
        p = random_init(3, 3, 0.3, 7, True)
        for mode in ("vmc", "ensemble"):
            log = tmp_path / f"{mode}.log"
            original = compute_a_c_sampled(
                p, h, 500, np.random.default_rng(9), mode=mode, sample_log=log
            )
            replayed = compute_a_c_from_log(p, h, log)
            assert np.array_equal(original.a, replayed.a)
            assert np.array_equal(original.c, replayed.c)
            assert original.energy.mean == replayed.energy.mean
            assert original.energy.std_error == replayed.energy.std_error

    def test_replay_is_independent_of_row_order(self, tmp_path):
        # Shuffled lines, some split into two copies that share the line's
        # weight: each configuration keeps its total weight, so A, C and the
        # energy mean are unchanged.
        h = build_afh(4)
        p = random_init(4, 3, 0.3, 2, True)
        rng = np.random.default_rng(8)
        for mode in ("vmc", "ensemble"):
            log = tmp_path / f"{mode}.log"
            original = compute_a_c_sampled(
                p, h, 600, np.random.default_rng(3), mode=mode, sample_log=log
            )
            smat, zmat, weights = read_sample_log(log)
            split = rng.choice(zmat.shape[0], size=100, replace=False)
            weights[split] *= 0.5
            rows = np.concatenate([np.arange(zmat.shape[0]), split])
            rows = rng.permutation(rows)
            other = tmp_path / f"{mode}-shuffled.log"
            write_sample_log(
                other, None if smat is None else smat[rows], zmat[rows], weights[rows]
            )
            replayed = compute_a_c_from_log(p, h, other)
            np.testing.assert_allclose(replayed.a, original.a, rtol=0, atol=1e-12)
            np.testing.assert_allclose(replayed.c, original.c, rtol=0, atol=1e-12)
            assert replayed.energy.mean == pytest.approx(original.energy.mean, abs=1e-12)

    def test_weight_zero_lines_do_not_move_the_vmc_estimate(self, tmp_path):
        # The standard error is the ratio one in every sampled mode, so
        # records of weight 0 change neither the mean nor its error.
        h = build_tfi(3, 0.5)
        p = random_init(3, 3, 0.3, 7, True)
        log = tmp_path / "vmc.log"
        original = compute_a_c_sampled(
            p, h, 400, np.random.default_rng(9), mode="vmc", sample_log=log
        )
        _, zmat, weights = read_sample_log(log)
        padded = tmp_path / "vmc-padded.log"
        extra = zmat[np.random.default_rng(1).integers(0, zmat.shape[0], 100)]
        write_sample_log(
            padded, None, np.concatenate([zmat, extra]),
            np.concatenate([weights, np.zeros(100)]),
        )
        replayed = compute_a_c_from_log(p, h, padded)
        assert replayed.energy.mean == pytest.approx(original.energy.mean, rel=1e-12)
        assert replayed.energy.std_error == pytest.approx(
            original.energy.std_error, rel=1e-12
        )


class TestStatevectorCap:
    @pytest.mark.parametrize(
        "build",
        [
            lambda p, h: compute_a_c_exact(p, h),
            lambda p, h: compute_a_c_sampled(p, h, 10, np.random.default_rng(0), mode="vmc"),
        ],
        ids=["exact", "vmc"],
    )
    def test_sr_entry_points_refuse_past_the_cap(self, build):
        # N = 15 exceeds the fixed statevector cap of 14
        with pytest.raises(SizeCapError, match="15 qubits"):
            build(random_init(15, 1, 0.1, 0, True), build_tfi(15, 0.5))


class TestSrStructuralIdentities:
    # Each slot's log-derivative is a distinct column x (Re slot) or i*x (Im
    # slot), so A[x_re, x_im] = Re(i Var x) vanishes for any sample set, the
    # Re/Re and Im/Im blocks coincide and the cross blocks are opposite.
    # These must hold bitwise: rounding residue here reads as a bias in c10.

    @pytest.mark.parametrize(
        "mode, unitary",
        [("exact", True), ("exact", False), ("vmc", True), ("vmc", False), ("ensemble", True)],
    )
    def test_pairs_and_blocks_are_bitwise(self, mode, unitary):
        h = build_tfi(3, 1.0)
        for seed in range(3):
            p = random_init(3, 3, 0.3, seed, unitary)
            if mode == "exact":
                a = compute_a_c_exact(p, h).a
            else:
                a = compute_a_c_sampled(p, h, 20_000, np.random.default_rng(seed), mode=mode).a
            labels = VariationalIndex.for_params(p).labels()
            re = [k for k, label in enumerate(labels) if "_re[" in label]
            im = [labels.index(labels[k].replace("_re[", "_im[")) for k in re]
            assert len(re) == (6 if unitary else 15)
            assert np.all(a[re, im] == 0.0)
            assert np.array_equal(a[np.ix_(re, re)], a[np.ix_(im, im)])
            assert np.array_equal(a[np.ix_(re, im)], -a[np.ix_(im, re)])

    @pytest.mark.parametrize(
        "mode, unitary",
        [("exact", True), ("exact", False), ("vmc", True), ("vmc", False), ("ensemble", True)],
    )
    def test_real_form_gather_matches_block_form(self, monkeypatch, mode, unitary):
        # A and C gathered through the cached slot layout equal the np.block
        # real form of S indexed by the slot columns, entry for entry
        import ucrbm.estimators

        real_form = ucrbm.estimators._real_form
        calls = []

        def recording(s, g, layout):
            out = real_form(s, g, layout)
            calls.append((s, g, layout.slots, out))
            return out

        monkeypatch.setattr(ucrbm.estimators, "_real_form", recording)
        h = build_tfi(3, 1.0)
        p = random_init(3, 3, 0.3, 4, unitary)
        if mode == "exact":
            system = compute_a_c_exact(p, h)
        else:
            system = compute_a_c_sampled(p, h, 2000, np.random.default_rng(4), mode=mode)
        system.a
        ((s, g, slots, (a, c)),) = calls
        expected = np.block([[s.real, -s.imag], [s.imag, s.real]])[slots][:, slots]
        assert np.array_equal(a, expected)
        assert np.array_equal(np.signbit(a), np.signbit(expected))
        assert np.array_equal(c, np.concatenate([g.real, g.imag])[slots])
        assert a is system.a and c is system.c


class TestWeightedEstimatorUnbiasedness:
    def test_exact_branch_average_reproduces_expectation(self):
        # numerator/denominator averages over the exact (history, z) law equal
        # the closed-form expectation for small instances
        h = build_tfi(3, 0.7)
        for seed in range(5):
            p = random_init(3, 3, 0.35, seed, True)
            table = enumerate_branches(p)
            numer = 0.0
            denom = 0.0
            for row in range(table.s.shape[0]):
                prob = table.branch_probs[row]
                if prob == 0.0:
                    continue
                w = table.weights[row]
                probs_z = table.states[row].probabilities()
                for k in range(8):
                    if probs_z[k] == 0.0:
                        continue
                    e_loc = local_observable(p, index_to_spins(k, 3), h).real
                    numer += prob * w * probs_z[k] * e_loc
                denom += prob * w
            exact = expectation_exact(p, h).mean
            assert numer / denom == pytest.approx(exact, abs=1e-10)


class TestSampleLog:
    def test_round_trip(self, tmp_path):
        smat = np.array([[1, -1], [-1, -1]], dtype=np.int8)
        zmat = np.array([[1, 1, -1], [-1, 1, 1]], dtype=np.int8)
        weights = np.array([0.25, 1.75])
        path = tmp_path / "samples.log"
        write_sample_log(path, smat, zmat, weights)
        s2, z2, w2 = read_sample_log(path)
        assert np.array_equal(smat, s2) and np.array_equal(zmat, z2)
        assert np.array_equal(weights, w2)

    def test_vmc_log_uses_placeholder(self, tmp_path):
        zmat = np.array([[1, -1]], dtype=np.int8)
        path = tmp_path / "samples.log"
        write_sample_log(path, None, zmat, np.ones(1))
        assert path.read_text().startswith(". ")
        s2, z2, w2 = read_sample_log(path)
        assert s2 is None

    def test_round_trip_without_hidden_units(self, tmp_path):
        h = build_tfi(3, 0.5)
        p = random_init(3, 0, 0.3, 2, True)
        log = tmp_path / "samples.log"
        original = compute_a_c_sampled(
            p, h, 200, np.random.default_rng(4), mode="ensemble", sample_log=log
        )
        smat, zmat, _ = read_sample_log(log)
        assert smat.shape == (200, 0) and zmat.shape == (200, 3)
        replayed = compute_a_c_from_log(p, h, log)
        assert np.array_equal(original.a, replayed.a)
        assert np.array_equal(original.c, replayed.c)
        assert original.energy == replayed.energy

    def test_malformed_log_rejected(self, tmp_path):
        path = tmp_path / "bad.log"
        path.write_text("+- ++\n")
        with pytest.raises(ValueError):
            read_sample_log(path)

    @pytest.mark.parametrize(
        "text",
        [". ++ 1.0\n+- -+ 0.5\n", "+- ++ 1.0\n. -+ 0.5\n"],
        ids=["dot-first", "dot-second"],
    )
    def test_mixed_hidden_outcomes_rejected(self, tmp_path, text):
        # a "." record has no hidden outcomes; one log cannot hold both kinds
        path = tmp_path / "bad.log"
        path.write_text(text)
        with pytest.raises(ValueError, match="sample log line 2"):
            read_sample_log(path)

    @pytest.mark.parametrize(
        "text",
        ["+- ++ 1.0\n+ -+ 0.5\n", "+- ++ 1.0\n+- -+- 0.5\n"],
        ids=["outcome-width", "spin-width"],
    )
    def test_ragged_fields_rejected(self, tmp_path, text):
        path = tmp_path / "bad.log"
        path.write_text(text)
        with pytest.raises(ValueError, match="sample log line 2: .* width"):
            read_sample_log(path)

    @pytest.mark.parametrize(
        "params, match",
        [
            (random_init(3, 2, 0.1, 0, True), "N = 2, the parameters 3"),
            (random_init(2, 3, 0.1, 0, True), "M = 2, the parameters 3"),
            (random_init(2, 2, 0.1, 0, False), "the ensemble mode requires unitary"),
        ],
        ids=["visible-width", "hidden-width", "unrestricted"],
    )
    def test_replay_refuses_a_log_that_does_not_fit(self, tmp_path, params, match):
        path = tmp_path / "samples.log"
        path.write_text("+- ++ 1.0\n-+ -+ 0.5\n")
        with pytest.raises(ValueError, match=match):
            compute_a_c_from_log(params, build_tfi(params.n_visible, 0.5), path)

    @pytest.mark.parametrize("weight", ["nan", "inf", "-0.5", "abc"])
    def test_bad_weight_rejected(self, tmp_path, weight):
        path = tmp_path / "bad.log"
        path.write_text(f"+- ++ 0.5\n+- -+ {weight}\n")
        with pytest.raises(ValueError, match="sample log line 2"):
            read_sample_log(path)


class TestSrSystemValidation:
    def test_rejects_non_finite_a(self):
        with pytest.raises(NumericalIntegrityError):
            SrSystem(np.full((2, 2), np.nan), np.zeros(2), Estimate(0.0, 0.0, 0, "exact"))

    @pytest.mark.parametrize("bad, message", [(np.nan, "non-finite"), (1e-6j, "asymmetric")])
    def test_half_size_system_is_validated(self, monkeypatch, bad, message):
        # unrestricted parameters hand the solver the complex S in place of
        # A: it must be finite and Hermitian, as A must be finite and symmetric
        import ucrbm.estimators

        covariance = ucrbm.estimators._covariance

        def broken(x, wn):
            s, xw = covariance(x, wn)
            s[0, 1] += bad
            return s, xw

        monkeypatch.setattr(ucrbm.estimators, "_covariance", broken)
        with pytest.raises(NumericalIntegrityError, match=message):
            compute_a_c_exact(random_init(2, 2, 0.1, 0, False), build_tfi(2, 0.5))


class TestEstimateValidation:
    def test_rejects_unknown_mode(self):
        with pytest.raises(ValueError):
            Estimate(0.0, 0.0, 1, "approximate")

    def test_rejects_sampled_without_samples(self):
        with pytest.raises(ValueError):
            Estimate(0.0, 0.0, 0, "vmc")

    def test_sign_constant_is_validated_elsewhere(self):
        assert C_SIGN == -1.0
