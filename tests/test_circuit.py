import numpy as np
import pytest
import scipy.linalg

from conftest import kron_chain, SZ, SI

from ucrbm.circuit import (
    BranchTable,
    apply_hidden_block,
    enumerate_branches,
    measure_visible,
    prepare_visible_product,
    project_hidden_outcome,
    recombined_statevector,
    sample_protocol_batch,
    verify_ensemble_identities,
)
from ucrbm.errors import NumericalIntegrityError, ProtocolOrderError, SizeCapError
from ucrbm.rbm import RbmParams, exact_statevector, random_init
from ucrbm.spins import spins_to_index
from ucrbm.statevector import StateVector, fidelity


def zero_params(n, m):
    return RbmParams(
        b=np.zeros(n, complex), m=np.zeros(m, complex), w=np.zeros((n, m), complex),
        unitary_coupled=True,
    )


class TestPrepareVisibleProduct:
    def test_zero_bias_gives_plus_states(self):
        sv = prepare_visible_product(zero_params(2, 0))
        np.testing.assert_allclose(sv.amplitudes, np.full(4, 0.5), atol=1e-15)

    def test_imaginary_bias_is_pure_phase(self):
        p = RbmParams(np.array([1j * np.pi / 4]), np.zeros(0), np.zeros((1, 0)))
        sv = prepare_visible_product(p)
        expected = np.array([np.exp(1j * np.pi / 4), np.exp(-1j * np.pi / 4)]) / np.sqrt(2)
        np.testing.assert_allclose(sv.amplitudes, expected, atol=1e-15)

    def test_real_bias_normalizes_exponentials(self):
        p = RbmParams(np.array([0.5 * np.log(3.0)]), np.zeros(0), np.zeros((1, 0)))
        sv = prepare_visible_product(p)
        np.testing.assert_allclose(
            sv.amplitudes, np.array([3.0, 1.0]) / np.sqrt(10.0), atol=1e-15
        )


class TestApplyHiddenBlock:
    def test_identity_block_is_bitwise_noop(self):
        p = zero_params(2, 1)
        state = prepare_visible_product(p).with_plus_ancilla()
        out = apply_hidden_block(state, p, 0)
        assert np.array_equal(out.amplitudes, state.amplitudes)
        collapsed, prob = project_hidden_outcome(out, 1)
        assert prob == pytest.approx(1.0)
        np.testing.assert_allclose(collapsed.amplitudes, np.full(4, 0.5), atol=1e-14)

    def test_matches_dense_matrix_exponential(self):
        # one visible qubit + ancilla; generator (m_im*I(x)Z + w_im*Z(x)Z)
        m_im, w_im = 0.45, np.pi / 4
        p = RbmParams(
            np.zeros(1, complex), np.array([1j * m_im]), np.array([[1j * w_im]]),
            unitary_coupled=True,
        )
        state = prepare_visible_product(p).with_plus_ancilla()
        out = apply_hidden_block(state, p, 0)
        gen = m_im * kron_chain([SI, SZ]) + w_im * kron_chain([SZ, SZ])
        expected = scipy.linalg.expm(1j * gen) @ state.amplitudes
        np.testing.assert_allclose(out.amplitudes, expected, atol=1e-12)

    def test_unitary_blocks_preserve_norm(self):
        for seed in range(100):
            p = random_init(3, 2, 0.5, seed, True)
            state = prepare_visible_product(p).with_plus_ancilla()
            out = apply_hidden_block(state, p, seed % 2)
            assert abs(out.norm - 1.0) < 1e-12

    def test_rejects_consumed_ancilla(self):
        p = random_init(2, 2, 0.4, 1, True)
        state = prepare_visible_product(p).with_plus_ancilla()
        blocked = apply_hidden_block(state, p, 0)
        with pytest.raises(ProtocolOrderError):
            apply_hidden_block(blocked, p, 1)


class TestSampleHiddenOutcome:
    def test_probabilities_are_complete(self):
        for seed in range(20):
            p = random_init(2, 2, 0.6, seed, True)
            state = prepare_visible_product(p).with_plus_ancilla()
            blocked = apply_hidden_block(state, p, 0)
            _, p_plus = project_hidden_outcome(blocked, 1)
            _, p_minus = project_hidden_outcome(blocked, -1)
            assert abs(p_plus + p_minus - 1.0) < 1e-12

    def test_matches_dense_contraction(self):
        # outcome probabilities against <s| exp(i (pi/4) Z(x)Z) |+> applied densely
        w_im = np.pi / 4
        p = RbmParams(np.zeros(1, complex), np.zeros(1, complex) + 0j,
                      np.array([[1j * w_im]]), unitary_coupled=True)
        state = prepare_visible_product(p).with_plus_ancilla()
        blocked = apply_hidden_block(state, p, 0)
        unitary = scipy.linalg.expm(1j * w_im * kron_chain([SZ, SZ]))
        full = unitary @ state.amplitudes
        grid = full.reshape(2, 2)
        for s in (1, -1):
            bra = np.array([1.0, s]) / np.sqrt(2)
            amps = grid @ bra
            _, prob = project_hidden_outcome(blocked, s)
            assert prob == pytest.approx(float(np.linalg.norm(amps) ** 2), abs=1e-13)


class TestRunRecycleProtocol:
    def test_batch_sampler_frequencies_match_branch_table(self):
        # empirical outcome-history frequencies against enumerated probabilities
        p = random_init(2, 2, 0.5, 11, True)
        table = enumerate_branches(p)
        n_runs = 100_000
        smat, _, _ = sample_protocol_batch(p, n_runs, np.random.default_rng(17))
        keys = (smat == -1) @ np.array([2, 1])
        counts = np.bincount(keys, minlength=4)
        table_keys = (table.s == -1) @ np.array([2, 1])
        for row, key in enumerate(table_keys):
            prob = table.branch_probs[row]
            sigma = np.sqrt(max(prob * (1 - prob), 1e-12) / n_runs)
            assert abs(counts[key] / n_runs - prob) < 4 * sigma + 1e-4


class TestBatchSamplerLaw:
    def test_joint_frequencies_match_branch_table(self):
        # chi-square of the joint (s, z) counts against the gate-level law
        # p(s, z) = branch_probs[s] * |<z|Psi_v^s>|^2; cells expecting fewer
        # than 5 counts are pooled into one
        import scipy.stats

        n_runs = 200_000
        pow2 = np.array([4, 2, 1])
        for seed in range(10):
            p = random_init(3, 3, 0.5, seed, True)
            table = enumerate_branches(p)
            # table rows are in outcome-index order, like the z basis
            assert np.array_equal((table.s == -1) @ pow2, np.arange(8))
            law = table.branch_probs[:, None] * np.stack(
                [state.probabilities() for state in table.states]
            )
            smat, zmat, weights = sample_protocol_batch(
                p, n_runs, np.random.default_rng(seed)
            )
            s_idx = (smat == -1) @ pow2
            counts = np.bincount(8 * s_idx + (zmat == -1) @ pow2, minlength=64)
            expected = law.ravel() * n_runs
            small = expected < 5
            exp_cells = np.append(expected[~small], expected[small].sum())
            obs_cells = np.append(counts[~small], counts[small].sum())
            chi2 = float(np.sum((obs_cells - exp_cells) ** 2 / exp_cells))
            assert chi2 < scipy.stats.chi2.ppf(0.999, df=exp_cells.shape[0] - 1)
            np.testing.assert_allclose(weights, table.weights[s_idx], rtol=1e-12)

    def test_no_hidden_units(self):
        p = random_init(3, 0, 0.5, 4, True)
        smat, zmat, weights = sample_protocol_batch(p, 50, np.random.default_rng(0))
        assert smat.shape == (50, 0) and smat.dtype == np.int8
        assert zmat.shape == (50, 3) and zmat.dtype == np.int8
        assert np.all(np.abs(zmat) == 1)
        assert np.all(weights == 1.0)


class TestEnumerateBranches:
    def test_no_hidden_units_single_branch(self):
        table = enumerate_branches(zero_params(2, 0))
        assert table.s.shape == (1, 0)
        assert table.branch_probs[0] == pytest.approx(1.0)

    def test_zero_parameters_single_live_branch(self):
        # the all-plus history carries probability 1, weight 1 and |+...+>
        for n, m in ((2, 2), (3, 2)):
            table = enumerate_branches(zero_params(n, m))
            live = table.branch_probs > 0
            assert live.sum() == 1
            assert np.all(table.s[np.argmax(live)] == 1)
            assert table.branch_probs[0] == pytest.approx(1.0)
            assert table.weights[0] == 1.0
            np.testing.assert_allclose(
                table.states[0].amplitudes, np.full(2**n, 2 ** (-n / 2)), atol=1e-14
            )

    def test_probabilities_sum_to_one(self):
        for seed in range(10):
            p = random_init(3, 3, 0.5, seed, True)
            table = enumerate_branches(p)
            assert abs(table.branch_probs.sum() - 1.0) < 1e-10

    def test_recombination_reconstructs_closed_form(self):
        for seed in range(20):
            p = random_init(3, 3, 0.4, seed, True)
            rec = recombined_statevector(p, enumerate_branches(p))
            assert fidelity(rec, exact_statevector(p)) >= 1.0 - 1e-10

    def test_rejects_unrestricted_couplings(self):
        # refused before any other check: neither the consumed ancilla nor
        # the hidden cap is reached
        p = random_init(2, 2, 0.3, 0, False)
        fresh = prepare_visible_product(p).with_plus_ancilla()
        consumed = StateVector(3, np.array([1, 0, 0, 0, 0, 0, 0, 0], complex))
        for state in (fresh, consumed):
            with pytest.raises(ValueError, match="unitary couplings"):
                apply_hidden_block(state, p, 0)
        for params in (p, random_init(2, 13, 0.3, 0, False)):
            with pytest.raises(ValueError, match="unitary couplings"):
                enumerate_branches(params)

    def test_hidden_cap(self):
        with pytest.raises(SizeCapError):
            enumerate_branches(zero_params(2, 13))


class TestOrderIndependence:
    def test_permuting_hidden_units_relabels_branches(self):
        p = random_init(2, 3, 0.5, 31, True)
        perm = np.array([2, 0, 1])
        q = RbmParams(p.b, p.m[perm], p.w[:, perm], unitary_coupled=True)
        t_p = enumerate_branches(p)
        t_q = enumerate_branches(q)
        lookup = {tuple(int(v) for v in t_p.s[r]): r for r in range(t_p.s.shape[0])}
        for r in range(t_q.s.shape[0]):
            s_q = t_q.s[r]
            r_p = lookup[tuple(int(s_q[np.argmax(perm == j)]) for j in range(3))]
            assert t_q.branch_probs[r] == pytest.approx(t_p.branch_probs[r_p], abs=1e-12)
            assert t_q.weights[r] == pytest.approx(t_p.weights[r_p], abs=1e-12)
            if t_q.branch_probs[r] > 0:
                f = abs(
                    np.vdot(t_q.states[r].amplitudes, t_p.states[r_p].amplitudes)
                )
                assert f == pytest.approx(1.0, abs=1e-11)


class TestVerifyEnsembleIdentities:
    def test_zero_parameters_exact(self):
        report = verify_ensemble_identities(zero_params(2, 2))
        assert report.max_violation() < 1e-14
        assert report.branch_prob_sum_error < 1e-14

    def test_random_unitary_instances(self):
        for seed in range(25):
            p = random_init(2, 2, 0.4, seed, True)
            report = verify_ensemble_identities(p)
            assert report.max_violation() < 1e-10
            assert report.branch_prob_sum_error < 1e-12

    def test_nontrivial_weights_stay_bounded(self):
        p = random_init(2, 3, 0.5, 3, True)
        # Re m = 0 gives R_+ = 1 and R_- = 0, so every weight is 0 or 1
        q = RbmParams(p.b, 1j * p.m.imag, p.w, unitary_coupled=True)
        for params in (p, q):
            report = verify_ensemble_identities(params)
            table = enumerate_branches(params)
            bound = float(np.prod(np.cosh(params.m.real) ** 2))
            assert np.max(table.weights) <= bound + 1e-12
            assert report.success_prob_error < 1e-10
            assert np.any(np.abs(table.weights - 1.0) > 1e-6)
        assert set(table.weights) <= {0.0, 1.0}

    def test_rejects_unrestricted(self):
        with pytest.raises(ValueError):
            verify_ensemble_identities(random_init(2, 2, 0.3, 0, False))

    def test_refuses_past_the_identity_cap(self):
        # M = 9 exceeds IDENTITY_HIDDEN_CAP = 8 though it is within HIDDEN_CAP
        with pytest.raises(SizeCapError, match="identity check over 9 hidden units"):
            verify_ensemble_identities(zero_params(2, 9))


class TestMeasureVisible:
    def test_basis_state_measures_itself(self):
        amps = np.zeros(4)
        amps[0] = 1.0
        shots = measure_visible(StateVector(2, amps), 25, np.random.default_rng(0))
        assert np.all(shots == 1)

    def test_uniform_state_frequencies(self):
        p = zero_params(3, 0)
        sv = prepare_visible_product(p)
        shots = measure_visible(sv, 100_000, np.random.default_rng(12))
        idx = np.array([spins_to_index(z) for z in shots])
        counts = np.bincount(idx, minlength=8)
        sigma = np.sqrt(0.125 * 0.875 / 100_000)
        assert np.all(np.abs(counts / 100_000 - 0.125) < 4 * sigma)

    def test_chi_square_against_born_rule(self):
        import scipy.stats

        p = random_init(3, 2, 0.5, 9, True)
        sv = exact_statevector(p)
        n_shots = 50_000
        shots = measure_visible(sv, n_shots, np.random.default_rng(4))
        idx = np.array([spins_to_index(z) for z in shots])
        counts = np.bincount(idx, minlength=8)
        expected = sv.probabilities() * n_shots
        chi2 = float(np.sum((counts - expected) ** 2 / expected))
        assert chi2 < scipy.stats.chi2.ppf(0.99, df=7)


class TestBranchTableValidation:
    def test_rejects_bad_probability_sum(self):
        with pytest.raises(NumericalIntegrityError):
            BranchTable(
                s=np.array([[1]], dtype=np.int8),
                branch_probs=np.array([0.5]),
                weights=np.array([1.0]),
                states=(StateVector(1, np.array([1.0, 0.0])),),
            )


class TestStateVectorValidation:
    def test_norm_is_computed_not_passed(self):
        amps = np.array([3.0, 4.0])
        assert StateVector(1, amps).norm == 5.0
        with pytest.raises(TypeError):
            StateVector(1, amps, norm=1.0)
