import numpy as np
import pytest

from conftest import dense_from_terms, kron_chain, random_pauli_hamiltonian, PAULI

from ucrbm.errors import HermiticityError, PauliFileError, SizeCapError
from ucrbm.hamiltonians import (
    BUNDLED_FILES,
    _bits_word,
    _gather_table,
    _word_bits,
    _word_product,
    FermionTerm,
    PauliHamiltonian,
    TqdParams,
    apply_h,
    build_afh,
    build_tfi,
    build_tqd,
    connected_states,
    connected_structure,
    dense_matrix,
    exact_ground,
    jordan_wigner,
    load_bundled,
    load_pauli_file,
    parse_pauli_text,
    save_pauli_file,
)
from ucrbm.spins import index_to_spins, spins_to_index
from ucrbm.statevector import StateVector


def dense_ladder(mode, dagger, n_modes):
    """Fermionic ladder operator as a dense matrix (Z-string convention)."""
    a = np.array([[0, 1], [0, 0]], dtype=complex)  # annihilation on one mode
    op = a.conj().T if dagger else a
    mats = [PAULI["Z"]] * mode + [op] + [PAULI["I"]] * (n_modes - mode - 1)
    return kron_chain(mats)


class TestSpinChainBuilders:
    def test_tfi_terms_explicit(self):
        h = build_tfi(2, 0.5)
        assert set(h.terms) == {(-0.5, "XI"), (-0.5, "IX"), (-1.0, "ZZ")}

    def test_tfi_zero_field_ground_energy(self):
        energy, state = exact_ground(build_tfi(2, 0.0))
        assert energy == pytest.approx(-1.0)
        np.testing.assert_allclose(state.amplitudes, [1, 0, 0, 0], atol=1e-12)

    def test_tfi_needs_two_sites(self):
        with pytest.raises(ValueError):
            build_tfi(1, 0.3)

    def test_afh_ground_energies(self):
        assert exact_ground(build_afh(2))[0] == pytest.approx(-3.0, abs=1e-12)
        assert exact_ground(build_afh(3))[0] == pytest.approx(-4.0, abs=1e-12)

    def test_afh_parity_symmetry(self):
        # global spin flip (product of X) commutes with the chain
        h = build_afh(4)
        dense = dense_matrix(h)
        flip = kron_chain([PAULI["X"]] * 4)
        assert np.max(np.abs(dense @ flip - flip @ dense)) < 1e-12

    def test_builders_are_hermitian(self):
        for h in (build_tfi(5, 0.7), build_afh(4), build_tqd(TqdParams(b_field=0.4))):
            dense = dense_matrix(h)
            assert np.max(np.abs(dense - dense.conj().T)) < 1e-12


class TestJordanWigner:
    def test_number_operator(self):
        h = jordan_wigner([FermionTerm(1.0, ((0, True), (0, False)))], 1)
        assert set(h.terms) == {(0.5, "I"), (-0.5, "Z")}

    def test_hopping_matches_dense_operator(self):
        terms = [
            FermionTerm(1.0, ((0, True), (1, False))),
            FermionTerm(1.0, ((1, True), (0, False))),
        ]
        mapped = dense_matrix(jordan_wigner(terms, 2))
        expected = dense_ladder(0, True, 2) @ dense_ladder(1, False, 2)
        expected = expected + dense_ladder(1, True, 2) @ dense_ladder(0, False, 2)
        assert np.max(np.abs(mapped - expected)) < 1e-12

    def test_complex_hopping_matches_dense_operator(self):
        phi = 0.73
        terms = [
            FermionTerm(np.exp(1j * phi), ((0, True), (1, False))),
            FermionTerm(np.exp(-1j * phi), ((1, True), (0, False))),
        ]
        h = jordan_wigner(terms, 2)
        mapped = dense_matrix(h)
        expected = np.exp(1j * phi) * dense_ladder(0, True, 2) @ dense_ladder(1, False, 2)
        expected = expected + np.exp(-1j * phi) * dense_ladder(1, True, 2) @ dense_ladder(0, False, 2)
        assert np.max(np.abs(mapped - expected)) < 1e-12
        # cos part couples XX+YY, sin part couples YX-XY
        coeffs = dict((w, c) for c, w in h.terms)
        assert coeffs["XX"] == pytest.approx(0.5 * np.cos(phi))
        assert coeffs["YX"] == pytest.approx(0.5 * np.sin(phi))
        assert coeffs["XY"] == pytest.approx(-0.5 * np.sin(phi))

    def test_quartic_term_matches_dense_operator(self):
        term = FermionTerm(2.5, ((1, True), (1, False), (0, True), (0, False)))
        mapped = dense_matrix(jordan_wigner([term], 2))
        expected = (
            2.5
            * dense_ladder(1, True, 2) @ dense_ladder(1, False, 2)
            @ dense_ladder(0, True, 2) @ dense_ladder(0, False, 2)
        )
        assert np.max(np.abs(mapped - expected)) < 1e-12

    def test_rejects_non_hermitian_input(self):
        with pytest.raises(HermiticityError):
            jordan_wigner([FermionTerm(1.0, ((0, True), (1, False)))], 2)

    def test_anticommutation_relations_at_six_modes(self):
        n = 6
        for p in range(n):
            ap = dense_ladder(p, False, n)
            for q in range(n):
                aq_dag = dense_ladder(q, True, n)
                anti = ap @ aq_dag + aq_dag @ ap
                expected = np.eye(1 << n) if p == q else np.zeros((1 << n, 1 << n))
                assert np.max(np.abs(anti - expected)) < 1e-12

    def test_bit_product_matches_dense_product(self):
        # All 16 single-qubit pairs, then random three-qubit word pairs.
        rng = np.random.default_rng(3)
        pairs = [(a, b) for a in "IXYZ" for b in "IXYZ"]
        pairs += [
            tuple("".join(rng.choice(list("IXYZ"), 3)) for _ in range(2))
            for _ in range(64)
        ]
        for w1, w2 in pairs:
            n = len(w1)
            phase, (x3, z3) = _word_product(_word_bits(w1), _word_bits(w2))
            expected = kron_chain([PAULI[c] for c in w1]) @ kron_chain(
                [PAULI[c] for c in w2]
            )
            product = phase * kron_chain([PAULI[c] for c in _bits_word(x3, z3, n)])
            assert np.array_equal(product, expected), (w1, w2)


class TestTqd:
    def test_zero_field_coefficients_real_and_spin_degenerate(self):
        h = build_tqd(TqdParams(b_field=0.0))
        assert h.n_qubits == 6
        dense = dense_matrix(h)
        assert np.max(np.abs(dense.imag)) < 1e-12
        # spectra of (N, Sz) sectors pair up exactly under spin flip
        occ = np.array([[(k >> (5 - i)) & 1 for i in range(6)] for k in range(64)])
        n_tot = occ.sum(axis=1)
        sz2 = occ[:, 0::2].sum(axis=1) - occ[:, 1::2].sum(axis=1)
        worst = 0.0
        for n_val in range(7):
            for s in range(1, 7):
                up = (n_tot == n_val) & (sz2 == s)
                down = (n_tot == n_val) & (sz2 == -s)
                if not up.any():
                    continue
                e_up = np.linalg.eigvalsh(dense[np.ix_(up, up)])
                e_down = np.linalg.eigvalsh(dense[np.ix_(down, down)])
                worst = max(worst, float(np.max(np.abs(e_up - e_down))))
        assert worst < 1e-10

    def test_field_splits_spin_sectors(self):
        h = build_tqd(TqdParams(b_field=1.0))
        dense = dense_matrix(h)
        assert np.max(np.abs(dense.imag)) > 1e-6  # Peierls phases present

    def test_flux_redistribution_is_gauge_invariant(self):
        base = TqdParams(b_field=0.8)
        total = base.phi_per_b * base.b_field
        h_equal = build_tqd(base)
        h_skew = build_tqd(base, bond_phases=(total * 0.6, total * 0.3, total * 0.1))
        e_equal = np.linalg.eigvalsh(dense_matrix(h_equal))
        e_skew = np.linalg.eigvalsh(dense_matrix(h_skew))
        assert np.max(np.abs(e_equal - e_skew)) < 1e-10

    def test_spectrum_periodic_in_one_flux_quantum(self):
        # phi_per_b = 1.25/T: one flux quantum corresponds to 0.8 T, up to the
        # Zeeman term, which is removed here to isolate the orbital effect
        a = build_tqd(TqdParams(b_field=0.4, g_star=0.0))
        b = build_tqd(TqdParams(b_field=0.4 + 0.8, g_star=0.0))
        e_a = np.linalg.eigvalsh(dense_matrix(a))
        e_b = np.linalg.eigvalsh(dense_matrix(b))
        assert np.max(np.abs(e_a - e_b)) < 1e-10

    def test_density_coupling_flag_adds_terms(self):
        base = build_tqd(TqdParams(b_field=0.0))
        with_v = build_tqd(TqdParams(b_field=0.0), include_density_coupling=True)
        assert with_v.n_terms > base.n_terms
        dense = dense_matrix(with_v)
        assert np.max(np.abs(dense - dense.conj().T)) < 1e-12

    def test_rejects_negative_repulsion(self):
        with pytest.raises(ValueError):
            TqdParams(b_field=0.0, u=-1.0)


class TestPauliFileFormat:
    def test_single_term(self):
        h = parse_pauli_text("0.5 ZZ\n")
        assert h.terms == ((0.5, "ZZ"),)
        assert h.n_qubits == 2

    def test_comments_and_blanks_ignored(self):
        h = parse_pauli_text("# header\n\n0.5 ZZ # inline\n-1.0 XI\n")
        assert h.terms == ((0.5, "ZZ"), (-1.0, "XI"))

    def test_round_trip_is_bit_exact(self, tmp_path):
        rng = np.random.default_rng(0)
        for case in range(100):
            h = random_pauli_hamiltonian(rng, 3, 5)
            path = tmp_path / f"h_{case}.txt"
            save_pauli_file(h, path)
            assert load_pauli_file(path).terms == h.terms
            save_pauli_file(load_pauli_file(path), tmp_path / "again.txt")
            assert (tmp_path / "again.txt").read_bytes() == path.read_bytes()

    def test_malformed_line_reports_number(self):
        with pytest.raises(PauliFileError) as err:
            parse_pauli_text("0.5 ZZ\nnot a line at all\n")
        assert err.value.line_number == 2

    @pytest.mark.parametrize("coeff", ["nan", "inf", "-inf", "1e999", "nan+0j", "inf-0j"])
    def test_non_finite_coefficient_reports_number(self, coeff):
        # both the float and the complex route reach the finiteness check
        with pytest.raises(PauliFileError, match="non-finite") as err:
            parse_pauli_text(f"1.0 ZZ\n{coeff} XI\n")
        assert err.value.line_number == 2

    def test_non_real_coefficient_is_hermiticity_error(self):
        with pytest.raises(HermiticityError):
            parse_pauli_text("0.5+0.5j ZZ\n")

    def test_duplicate_word_rejected(self):
        with pytest.raises(PauliFileError):
            parse_pauli_text("0.5 ZZ\n0.25 ZZ\n")

    def test_ragged_words_rejected(self):
        with pytest.raises(PauliFileError):
            parse_pauli_text("0.5 ZZ\n0.25 XYZ\n")

    def test_bad_word_rejected(self):
        with pytest.raises(PauliFileError):
            parse_pauli_text("0.5 ZA\n")

    def test_empty_file_rejected(self):
        with pytest.raises(PauliFileError):
            parse_pauli_text("# nothing here\n")

    def test_bundled_files_load(self):
        for name in BUNDLED_FILES:
            h = load_bundled(name)
            dense = dense_matrix(h)
            assert np.max(np.abs(dense - dense.conj().T)) < 1e-12

    def test_parser_totality_on_random_bytes(self):
        # any text either parses or raises a located parse/Hermiticity error
        rng = np.random.default_rng(0)
        alphabet = "IXYZ0123456789.+-eE# \n\t"
        for _ in range(300):
            text = "".join(
                alphabet[i] for i in rng.integers(0, len(alphabet), size=60)
            )
            try:
                h = parse_pauli_text(text)
                assert h.n_terms >= 1
            except (PauliFileError, HermiticityError):
                pass


class TestApplication:
    def test_identity_term(self):
        h = PauliHamiltonian(2, ((0.7, "II"),))
        state = StateVector(2, np.array([0.5, 0.5, 0.5, 0.5]))
        out = apply_h(h, state)
        np.testing.assert_allclose(out, 0.7 * state.amplitudes, atol=1e-15)
        conn = connected_states(h, np.array([1, -1], dtype=np.int8))
        assert len(conn) == 1
        assert conn[0][1] == pytest.approx(0.7)

    def test_x_flips_basis_state(self):
        h = PauliHamiltonian(3, ((1.0, "XII"),))
        amps = np.zeros(8)
        amps[0] = 1.0  # |000>
        out = apply_h(h, StateVector(3, amps))
        expected = np.zeros(8)
        expected[4] = 1.0  # |100>
        np.testing.assert_allclose(out, expected, atol=1e-15)

    def test_apply_matches_dense_matvec(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            h = random_pauli_hamiltonian(rng, 4, 6)
            state = StateVector(4, rng.normal(size=16) + 1j * rng.normal(size=16))
            out = apply_h(h, state)
            expected = dense_from_terms(h.terms, 4) @ state.amplitudes
            assert np.max(np.abs(out - expected)) < 1e-12

    def test_interleaved_hamiltonians_of_equal_size(self):
        # apply_h keeps a gather table per Hamiltonian: alternating models on
        # the same qubit count must each get their own rows and elements
        rng = np.random.default_rng(12)
        hams = [build_tfi(4, 0.5), build_tfi(4, 1.0), build_afh(4),
                random_pauli_hamiltonian(rng, 4, 9)]
        dense = [dense_matrix(h) for h in hams]
        for _ in range(3):
            for h, mat in zip(hams, dense):
                psi = rng.normal(size=16) + 1j * rng.normal(size=16)
                out = apply_h(h, StateVector(4, psi))
                assert np.max(np.abs(out - mat @ psi)) < 1e-12

    def test_gather_table_is_read_only(self):
        kets, elements = _gather_table(build_afh(3))
        for arr in (kets, elements):
            with pytest.raises(ValueError):
                arr[0, 0] = 0

    def test_connected_states_match_dense_rows(self):
        rng = np.random.default_rng(8)
        h = random_pauli_hamiltonian(rng, 3, 6)
        dense = dense_from_terms(h.terms, 3)
        for k in range(8):
            z = index_to_spins(k, 3)
            row = dense[k]
            reconstructed = np.zeros(8, dtype=complex)
            for z_prime, element in connected_states(h, z):
                reconstructed[spins_to_index(z_prime)] += element
            assert np.max(np.abs(reconstructed - row)) < 1e-12
        assert len(connected_states(h, index_to_spins(0, 3))) <= h.n_terms


STRUCTURE_MODELS = {
    "tfi": lambda: build_tfi(5, 0.7),
    "tfi-zero-field": lambda: build_tfi(4, 0.0),  # diagonal only
    "afh": lambda: build_afh(4),
    "tqd": lambda: build_tqd(TqdParams(b_field=0.3)),
    "tqd-density": lambda: build_tqd(TqdParams(b_field=0.3), include_density_coupling=True),
    **{name: (lambda name=name: load_bundled(name)) for name in BUNDLED_FILES},
    "random": lambda: random_pauli_hamiltonian(np.random.default_rng(3), 5, 12),
}


class TestConnectedStructure:
    @pytest.mark.parametrize("model", sorted(STRUCTURE_MODELS))
    def test_flip_sites_list_each_groups_flipped_sites(self, model):
        h = STRUCTURE_MODELS[model]()
        n = h.n_qubits
        struct = connected_structure(h)
        sites = struct.flip_sites
        assert sites.dtype == np.intp
        assert sites.shape[0] == struct.n_groups
        counts = (struct.flips < 0).sum(axis=1)
        assert sites.shape[1] == max(1, counts.max())
        for g in range(struct.n_groups):
            row = sites[g]
            listed = row[row < n]
            assert np.all(row[listed.size:] == n)  # padding trails
            np.testing.assert_array_equal(listed, np.flatnonzero(struct.flips[g] < 0))
            xor = 0
            for i in listed:
                xor ^= 1 << (n - 1 - int(i))
            assert xor == struct.flip_bits[g]

    def test_diagonal_only_is_all_padding(self):
        h = PauliHamiltonian(3, ((1.0, "ZZI"), (-0.5, "IIZ"), (0.2, "III")))
        sites = connected_structure(h).flip_sites
        assert sites.shape == (1, 1)
        assert sites[0, 0] == 3

    def test_arrays_are_read_only(self):
        struct = connected_structure(build_afh(3))
        for arr in (struct.flips, struct.flip_bits, struct.flip_sites,
                    struct.z_mask, struct.group_pref):
            with pytest.raises(ValueError):
                arr[(0,) * arr.ndim] = 0


class TestExactGround:
    def test_degenerate_tie_break_picks_lowest_index(self):
        energy, state = exact_ground(build_tfi(2, 0.0))
        assert energy == pytest.approx(-1.0)
        np.testing.assert_allclose(state.amplitudes, [1, 0, 0, 0], atol=1e-10)

    def test_singlet_ground_state(self):
        energy, state = exact_ground(build_afh(2))
        assert energy == pytest.approx(-3.0)
        expected = np.array([0.0, 1.0, -1.0, 0.0]) / np.sqrt(2)
        assert abs(np.vdot(state.amplitudes, expected)) == pytest.approx(1.0, abs=1e-12)

    def test_phase_fix_largest_amplitude_real_positive(self):
        for seed in range(5):
            h = random_pauli_hamiltonian(np.random.default_rng(seed), 3, 6)
            _, state = exact_ground(h)
            j = int(np.argmax(np.abs(state.amplitudes)))
            assert state.amplitudes[j].imag == pytest.approx(0.0, abs=1e-12)
            assert state.amplitudes[j].real > 0

    def test_residual_small_for_all_builders(self):
        hams = [
            build_tfi(5, 0.7),
            build_afh(4),
            build_tqd(TqdParams(b_field=0.3)),
            load_bundled("h2_two_qubit.txt"),
            load_bundled("lih_four_qubit.txt"),
        ]
        for h in hams:
            energy, state = exact_ground(h)
            residual = apply_h(h, state) - energy * state.amplitudes
            assert np.linalg.norm(residual) < 1e-10

    def test_cap_enforced(self):
        with pytest.raises(SizeCapError):
            exact_ground(build_tfi(15, 1.0))


class TestPauliHamiltonianValidation:
    def test_rejects_duplicate_words(self):
        with pytest.raises(ValueError):
            PauliHamiltonian(2, ((1.0, "XX"), (0.5, "XX")))

    def test_rejects_bad_word(self):
        with pytest.raises(ValueError):
            PauliHamiltonian(2, ((1.0, "XQ"),))

    def test_rejects_non_finite_coefficient(self):
        with pytest.raises(ValueError):
            PauliHamiltonian(1, ((float("inf"), "Z"),))

    def test_complex_coefficient_matches_the_text_parser(self):
        # a zero imaginary part is dropped, as parse_pauli_text does for "0.5+0j"
        h = PauliHamiltonian(1, ((0.5 + 0j, "X"), (np.complex128(-1.5), "Z")))
        assert h.terms == ((0.5, "X"), (-1.5, "Z"))
        assert all(type(c) is float for c, _ in h.terms)
        assert h == parse_pauli_text("0.5+0j X\n-1.5 Z")

    def test_non_real_coefficient_is_hermiticity_error(self):
        with pytest.raises(HermiticityError, match="'X'"):
            PauliHamiltonian(1, ((0.5 + 1j, "X"),))

    @pytest.mark.parametrize("coeff", ["0.5", None])
    def test_non_numeric_coefficient_names_the_word(self, coeff):
        with pytest.raises(ValueError, match="non-numeric coefficient .* for 'Y'"):
            PauliHamiltonian(1, ((coeff, "Y"),))

    def test_constructor_and_parser_hold_terms_to_one_rule(self):
        # random term sets with bad characters, ragged words, duplicates and
        # complex, non-real and non-finite coefficients, several faults at
        # once among them: both doors accept the same sets as the same terms
        # and refuse the rest with the same kind of error
        words = ["XZ", "ZZ", "IY", "XQ", "XYZ", "Z"]
        coeffs = [0.5, -1.25, 0.0, -1e300, 1 + 0j, 2 - 0j, 0.5 + 1e-3j, 1j,
                  float("nan"), float("-inf"), complex("nan")]

        def outcome(build):
            try:
                return build().terms
            except HermiticityError:
                return HermiticityError
            except PauliFileError:
                return PauliFileError
            except ValueError:
                return ValueError

        rng = np.random.default_rng(3)
        seen = set()
        for _ in range(400):
            k = int(rng.integers(1, 5))
            terms = tuple(
                (coeffs[i], words[j])
                for i, j in zip(rng.integers(0, len(coeffs), k), rng.integers(0, len(words), k))
            )
            text = "".join(f"{c!r} {w}\n" for c, w in terms)
            direct = outcome(lambda: PauliHamiltonian(len(terms[0][1]), terms))
            parsed = outcome(lambda: parse_pauli_text(text))
            assert parsed == {ValueError: PauliFileError}.get(direct, direct), terms
            seen.add(direct if isinstance(direct, type) else tuple)
        assert seen == {tuple, HermiticityError, ValueError}

    @pytest.mark.parametrize(
        "n_qubits, terms, field",
        [(2, (), "terms"), (-1, (), "n_qubits"), (0, ((1.0, ""),), "n_qubits")],
    )
    def test_rejects_no_qubits_or_no_terms(self, n_qubits, terms, field):
        # otherwise exact_ground reads 0.0 for an empty sum while
        # expectation_exact fails in connected_structure, and a negative
        # qubit count fails only in exact_ground's shift
        with pytest.raises(ValueError, match=field):
            PauliHamiltonian(n_qubits, terms)
