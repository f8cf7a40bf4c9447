"""Benchmark Hamiltonians as real-weighted sums of Pauli words.

Provides the spin-chain builders (transverse-field Ising lines and
antiferromagnetic Heisenberg lines, open boundaries, nearest neighbors),
a Jordan-Wigner mapper for fermionic operators, the triple-quantum-dot
Hubbard model with Peierls hopping phases, a plain-text file format, and
matrix-free application plus dense exact diagonalization.

Words are validated as strings; every computation then uses their (x, z)
bit masks from ``_word_bits``: the Jordan-Wigner products, the connected
structure and ``apply_h``.  The dense oracle ``dense_matrix`` keeps its own
Kronecker construction from the characters.
"""

from __future__ import annotations

import functools
import importlib.resources
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import HermiticityError, PauliFileError
from .spins import all_spin_configs, as_spins
from .statevector import DENSE_CAP, StateVector, check_cap

PAULI_CHARS = "IXYZ"
JW_DROP_TOL = 1e-12  # relative; see jordan_wigner

# Bohr magneton in meV per tesla; enters only the quantum-dot builder.
MU_B_MEV_PER_T = 0.05788

_PAULI_MATS = {
    "I": np.eye(2, dtype=np.complex128),
    "X": np.array([[0, 1], [1, 0]], dtype=np.complex128),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=np.complex128),
    "Z": np.array([[1, 0], [0, -1]], dtype=np.complex128),
}


@dataclass(frozen=True)
class PauliHamiltonian:
    """Hermitian operator sum_l c_l P_l with real coefficients c_l.

    Words are unique strings over {I, X, Y, Z}; their common length fixes
    the qubit count.
    """

    n_qubits: int
    terms: tuple[tuple[float, str], ...]

    def __post_init__(self):
        seen = set()
        for coeff, word in self.terms:
            if len(word) != self.n_qubits or any(c not in PAULI_CHARS for c in word):
                raise ValueError(f"bad Pauli word {word!r} for {self.n_qubits} qubits")
            if word in seen:
                raise ValueError(f"duplicate Pauli word {word!r}")
            seen.add(word)
            if not np.isfinite(coeff):
                raise ValueError(f"non-finite coefficient for {word!r}")
        object.__setattr__(
            self, "terms", tuple((float(c), str(w)) for c, w in self.terms)
        )

    @classmethod
    def from_terms(cls, terms) -> "PauliHamiltonian":
        terms = list(terms)
        if not terms:
            raise ValueError("a Hamiltonian needs at least one term")
        return cls(len(terms[0][1]), tuple(terms))

    @property
    def n_terms(self) -> int:
        return len(self.terms)


@dataclass(frozen=True)
class FermionTerm:
    """coefficient * product of ladder operators, e.g. c * d3^dag d0."""

    coefficient: complex
    ops: tuple[tuple[int, bool], ...]  # (mode index, dagger flag), applied right to left


@dataclass(frozen=True)
class TqdParams:
    """Triangular triple-dot Hubbard parameters (energies in meV, field in T)."""

    b_field: float
    t: float = -0.23
    u: float = 50 * 0.23
    e_site: float = -0.23
    g_star: float = -0.44
    phi_per_b: float = 1.25
    v: float = 10 * 0.23  # inter-dot density-density strength, off by default

    def __post_init__(self):
        if self.u < 0:
            raise ValueError("on-site repulsion must be non-negative")
        for value in (self.b_field, self.t, self.u, self.e_site, self.g_star,
                      self.phi_per_b, self.v):
            if not np.isfinite(value):
                raise ValueError("non-finite quantum-dot parameter")


# ---------------------------------------------------------------------------
# spin-chain builders


def build_tfi(n: int, h: float) -> PauliHamiltonian:
    """Open transverse-field Ising chain: -h sum_i X_i - sum_i Z_i Z_{i+1}."""
    if n < 2:
        raise ValueError("the chain needs at least two sites")
    terms = []
    if h != 0.0:
        for i in range(n):
            word = ["I"] * n
            word[i] = "X"
            terms.append((-h, "".join(word)))
    for i in range(n - 1):
        word = ["I"] * n
        word[i] = word[i + 1] = "Z"
        terms.append((-1.0, "".join(word)))
    return PauliHamiltonian(n, tuple(terms))


def build_afh(n: int) -> PauliHamiltonian:
    """Open antiferromagnetic Heisenberg chain: sum_i XX + YY + ZZ."""
    if n < 2:
        raise ValueError("the chain needs at least two sites")
    terms = []
    for i in range(n - 1):
        for pauli in "XYZ":
            word = ["I"] * n
            word[i] = word[i + 1] = pauli
            terms.append((1.0, "".join(word)))
    return PauliHamiltonian(n, tuple(terms))


# ---------------------------------------------------------------------------
# (x, z) bit form of Pauli words


def _word_bits(word: str) -> tuple[int, int]:
    """(x, z) bit masks of a Pauli word, qubit 0 in the most significant bit.

    The word is i^|x & z| X^x Z^z: X sets x, Z sets z, and Y = iXZ sets both.
    """
    x = z = 0
    for c in word:
        x = (x << 1) | (c in "XY")
        z = (z << 1) | (c in "YZ")
    return x, z


def _bits_word(x: int, z: int, n: int) -> str:
    return "".join("IZXY"[2 * (x >> s & 1) + (z >> s & 1)] for s in range(n - 1, -1, -1))


_I_POWERS = (1, 1j, -1, -1j)


def _word_product(
    p1: tuple[int, int], p2: tuple[int, int]
) -> tuple[complex, tuple[int, int]]:
    """P1 P2 = phase * P3 for (x, z) words, with phase
    i^(|x1&z1| + |x2&z2| - |x3&z3| + 2|z1&x2|) (Aaronson & Gottesman 2004)."""
    (x1, z1), (x2, z2) = p1, p2
    x3, z3 = x1 ^ x2, z1 ^ z2
    power = (
        (x1 & z1).bit_count() + (x2 & z2).bit_count() - (x3 & z3).bit_count()
        + 2 * (z1 & x2).bit_count()
    )
    return _I_POWERS[power % 4], (x3, z3)


# ---------------------------------------------------------------------------
# Jordan-Wigner mapping


def _jw_ladder(mode: int, dagger: bool, n_modes: int) -> dict[tuple[int, int], complex]:
    """Pauli expansion of one ladder operator with its Z string."""
    prefix = "Z" * mode
    suffix = "I" * (n_modes - mode - 1)
    sign = -0.5j if dagger else 0.5j
    return {
        _word_bits(prefix + "X" + suffix): 0.5,
        _word_bits(prefix + "Y" + suffix): sign,
    }


def jordan_wigner(terms, n_modes: int) -> PauliHamiltonian:
    """Map a Hermitian sum of fermionic terms onto Pauli words.

    Real coefficients up to ``JW_DROP_TOL`` (relative) are dropped; an imaginary
    one above it means the input is not Hermitian and raises HermiticityError.
    """
    acc: dict[tuple[int, int], complex] = {}
    for term in terms:
        product = {(0, 0): complex(term.coefficient)}
        for mode, dagger in term.ops:
            if not 0 <= mode < n_modes:
                raise ValueError(f"mode {mode} out of range for {n_modes} modes")
            ladder = _jw_ladder(mode, dagger, n_modes)
            new: dict[tuple[int, int], complex] = {}
            for p1, c1 in product.items():
                for p2, c2 in ladder.items():
                    phase, p3 = _word_product(p1, p2)
                    new[p3] = new.get(p3, 0.0) + c1 * c2 * phase
            product = new
        for bits, coeff in product.items():
            acc[bits] = acc.get(bits, 0.0) + coeff

    scale = max((abs(c) for c in acc.values()), default=1.0)
    tol = JW_DROP_TOL * max(1.0, scale)
    bad = max((abs(c.imag) for c in acc.values()), default=0.0)
    if bad > tol:
        raise HermiticityError(
            f"fermionic input is not Hermitian (imaginary residue {bad:.3e})"
        )
    kept = sorted(
        (_bits_word(x, z, n_modes), c.real)
        for (x, z), c in acc.items()
        if abs(c.real) > tol
    )
    if not kept:
        kept = [("I" * n_modes, 0.0)]
    return PauliHamiltonian(n_modes, tuple((c, w) for w, c in kept))


def _number_term(coeff: float, mode: int) -> FermionTerm:
    return FermionTerm(coeff, ((mode, True), (mode, False)))


def build_tqd(
    params: TqdParams,
    include_density_coupling: bool = False,
    bond_phases=None,
) -> PauliHamiltonian:
    """Six-mode triple-dot Hubbard model mapped onto six qubits.

    Modes are indexed 2*site + spin with spin 0 = up (sigma = +1/2) and
    spin 1 = down (sigma = -1/2).  The total Aharonov-Bohm phase
    2*pi*phi_per_b*B is split equally over the directed bonds
    0->1, 1->2, 2->0 unless explicit per-bond fractions are given.
    """
    n_modes = 6
    if bond_phases is None:
        total_flux = params.phi_per_b * params.b_field
        bond_phases = (total_flux / 3.0,) * 3
    if len(bond_phases) != 3:
        raise ValueError("need one phase per triangle bond")

    terms: list[FermionTerm] = []
    for site in range(3):
        for spin_idx, sigma in ((0, +0.5), (1, -0.5)):
            energy = params.e_site + params.g_star * MU_B_MEV_PER_T * params.b_field * sigma
            terms.append(_number_term(energy, 2 * site + spin_idx))
    bonds = ((0, 1), (1, 2), (2, 0))
    for (i, j), phi in zip(bonds, bond_phases):
        hop = params.t * np.exp(2j * np.pi * phi)
        for spin_idx in (0, 1):
            mi, mj = 2 * i + spin_idx, 2 * j + spin_idx
            terms.append(FermionTerm(hop, ((mi, True), (mj, False))))
            terms.append(FermionTerm(np.conj(hop), ((mj, True), (mi, False))))
    for site in range(3):
        up, down = 2 * site, 2 * site + 1
        terms.append(
            FermionTerm(params.u, ((down, True), (down, False), (up, True), (up, False)))
        )
    if include_density_coupling:
        for i in range(3):
            for j in range(i + 1, 3):
                for si in (0, 1):
                    for sj in (0, 1):
                        mi, mj = 2 * i + si, 2 * j + sj
                        terms.append(
                            FermionTerm(
                                params.v,
                                ((mi, True), (mi, False), (mj, True), (mj, False)),
                            )
                        )
    return jordan_wigner(terms, n_modes)


# ---------------------------------------------------------------------------
# text format: one "<coefficient> <word>" per line, '#' comments


def parse_pauli_text(text: str) -> PauliHamiltonian:
    terms: list[tuple[float, str]] = []
    seen: dict[str, int] = {}
    width = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        tokens = line.split()
        if len(tokens) != 2:
            raise PauliFileError(
                f"expected '<coefficient> <word>', got {raw.strip()!r}", lineno
            )
        coeff_tok, word = tokens
        try:
            coeff = float(coeff_tok)
        except ValueError:
            try:
                cval = complex(coeff_tok)
            except ValueError:
                raise PauliFileError(f"bad coefficient {coeff_tok!r}", lineno) from None
            if cval.imag != 0.0:
                raise HermiticityError(
                    f"line {lineno}: coefficient {coeff_tok!r} is not real"
                ) from None
            coeff = cval.real
        if not np.isfinite(coeff):
            raise PauliFileError(f"non-finite coefficient {coeff_tok!r}", lineno)
        if any(c not in PAULI_CHARS for c in word):
            raise PauliFileError(f"bad Pauli word {word!r}", lineno)
        if width is None:
            width = len(word)
        elif len(word) != width:
            raise PauliFileError(
                f"word {word!r} has length {len(word)}, expected {width}", lineno
            )
        if word in seen:
            raise PauliFileError(
                f"duplicate word {word!r} (first seen on line {seen[word]})", lineno
            )
        seen[word] = lineno
        terms.append((coeff, word))
    if not terms:
        raise PauliFileError("no terms found")
    return PauliHamiltonian(width, tuple(terms))


def load_pauli_file(path) -> PauliHamiltonian:
    return parse_pauli_text(Path(path).read_text())


def save_pauli_file(h: PauliHamiltonian, path) -> None:
    lines = [f"{coeff!r} {word}" for coeff, word in h.terms]
    Path(path).write_text("\n".join(lines) + "\n")


BUNDLED_FILES = ("h2_two_qubit.txt", "lih_four_qubit.txt")


def load_bundled(name: str) -> PauliHamiltonian:
    """Load one of the example molecular-style files shipped with the package."""
    if name not in BUNDLED_FILES:
        raise ValueError(f"unknown bundled file {name!r}; have {BUNDLED_FILES}")
    text = importlib.resources.files("ucrbm").joinpath("data", name).read_text()
    return parse_pauli_text(text)


# ---------------------------------------------------------------------------
# matrix-free application and connected configurations


@dataclass(frozen=True)
class ConnectedStructure:
    """Words grouped by their X mask for row-wise application.

    A word with masks (x, z) maps the bra z to the ket z' = z * flips[g],
    g being the group of x.  Row g of ``flip_sites`` lists the sites that
    group g flips in increasing order, padded with N; its width k is the
    most sites any group flips, at least 1, so the identity group is all
    padding.  A word's element is pref * prod of z_i over its Z mask, with
    pref = coeff * (-i)^|x & z|; ``group_pref`` holds each word's pref in
    its group's column, so summing a group is a matmul.  The structure is
    cached and shared, so every array is read-only.
    """

    flips: np.ndarray = field(repr=False)  # (C, N) float64 in {+1, -1}
    flip_bits: np.ndarray = field(repr=False)  # (C,) int64 XOR masks on indices
    flip_sites: np.ndarray = field(repr=False)  # (C, k) intp sites, padded with N
    z_mask: np.ndarray = field(repr=False)  # (N, n_words) float64 in {0, 1}
    group_pref: np.ndarray = field(repr=False)  # (n_words, C) complex128

    def __post_init__(self):
        for array in (self.flips, self.flip_bits, self.flip_sites, self.z_mask,
                      self.group_pref):
            array.flags.writeable = False

    @property
    def n_groups(self) -> int:
        return self.flips.shape[0]

    def elements(self, zmat: np.ndarray) -> np.ndarray:
        """(K, C) matrix elements H(z, z*flip_g) for spin rows zmat."""
        bits = (1.0 - np.asarray(zmat, dtype=np.float64)) * 0.5
        # sign = 1 - 2 parity, formed in place: at 2^14 rows the direct
        # expression's int64 temporaries took half of the call.  The counts
        # are at most N, and the cast to int32 is several times faster.
        parity = (bits @ self.z_mask).astype(np.int32)
        parity &= 1
        sign = parity.astype(np.float64)
        sign *= -2.0
        sign += 1.0
        # The signs are real: one real matmul on the interleaved (Re, Im)
        # columns of group_pref, several times faster than a complex one.
        return (sign @ self.group_pref.view(np.float64)).view(np.complex128)


def _bit_columns(masks, n: int) -> np.ndarray:
    """(len(masks), n) 0/1 matrix of integer masks, column i for qubit i."""
    shifts = np.arange(n - 1, -1, -1)
    return (np.array(masks, dtype=np.int64)[:, None] >> shifts) & 1


@functools.lru_cache(maxsize=64)
def connected_structure(h: PauliHamiltonian) -> ConnectedStructure:
    n = h.n_qubits
    bits = [_word_bits(word) for _, word in h.terms]
    order = sorted({x for x, _ in bits})
    group = {x: g for g, x in enumerate(order)}
    group_pref = np.zeros((h.n_terms, len(order)), dtype=np.complex128)
    for k, ((coeff, _), (x, z)) in enumerate(zip(h.terms, bits)):
        group_pref[k, group[x]] = coeff * (-1j) ** (x & z).bit_count()
    z_mask = _bit_columns([z for _, z in bits], n).T
    columns = _bit_columns(order, n)
    width = max(1, columns.sum(axis=1).max())
    flip_sites = np.full((len(order), width), n, dtype=np.intp)
    for g, row in enumerate(columns):
        sites = np.flatnonzero(row)
        flip_sites[g, : sites.size] = sites
    return ConnectedStructure(
        flips=1.0 - 2.0 * columns,
        flip_bits=np.array(order, dtype=np.int64),
        flip_sites=flip_sites,
        z_mask=np.ascontiguousarray(z_mask, dtype=np.float64),
        group_pref=group_pref,
    )


def connected_states(h: PauliHamiltonian, z) -> list[tuple[np.ndarray, complex]]:
    """Distinct flip patterns reachable from z with summed matrix elements."""
    z = as_spins(z)
    if z.shape[0] != h.n_qubits:
        raise ValueError("configuration length does not match the Hamiltonian")
    struct = connected_structure(h)
    elements = struct.elements(z[None, :].astype(np.float64))[0]
    out = []
    for g in range(struct.n_groups):
        out.append(((z * struct.flips[g]).astype(np.int8), complex(elements[g])))
    return out


@functools.lru_cache(maxsize=8)
def _gather_table(h: PauliHamiltonian) -> tuple[np.ndarray, np.ndarray]:
    """Read-only (2^N, C) ket indices k ^ flip_bits[g] and matrix elements
    H(k, k ^ flip_bits[g]) over every basis index k, built once per
    Hamiltonian for ``apply_h``."""
    struct = connected_structure(h)
    n = h.n_qubits
    kets = np.arange(1 << n)[:, None] ^ struct.flip_bits[None, :]
    elements = struct.elements(all_spin_configs(n))
    kets.flags.writeable = False
    elements.flags.writeable = False
    return kets, elements


def apply_h(h: PauliHamiltonian, state: StateVector) -> np.ndarray:
    """Matrix-free H|state> as a gather over the connected structure:
    (H psi)[k] = sum_g H(k, k ^ flip_bits[g]) psi[k ^ flip_bits[g]].

    H psi is no state, so it comes back as the bare complex amplitude
    array, with no norm and no finiteness check."""
    if state.n_qubits != h.n_qubits:
        raise ValueError("state and Hamiltonian qubit counts differ")
    kets, elements = _gather_table(h)
    out = elements * state.amplitudes[kets]
    return out.sum(axis=1)


def dense_matrix(h: PauliHamiltonian) -> np.ndarray:
    check_cap(h.n_qubits, DENSE_CAP, "dense matrix over {} qubits")
    dim = 1 << h.n_qubits
    out = np.zeros((dim, dim), dtype=np.complex128)
    for coeff, word in h.terms:
        mat = np.ones((1, 1), dtype=np.complex128)
        for c in word:
            mat = np.kron(mat, _PAULI_MATS[c])
        out += coeff * mat
    return out


def exact_ground(h: PauliHamiltonian) -> tuple[float, StateVector]:
    """Lowest eigenvalue and a unit eigenvector of ``dense_matrix(h)``.

    A degenerate ground space is resolved deterministically by projecting the
    lowest-index basis state with non-vanishing weight onto it; the global
    phase makes the largest-magnitude amplitude real positive.
    """
    evals, evecs = np.linalg.eigh(dense_matrix(h))
    e0 = float(evals[0])
    tol = 1e-9 * max(1.0, abs(e0))
    members = evecs[:, evals <= e0 + tol]
    weights = np.abs(members) ** 2
    candidate_mass = weights.sum(axis=1)
    k = int(np.argmax(candidate_mass > 1e-9))
    vec = members @ members[k].conj()
    vec /= np.linalg.norm(vec)
    j = int(np.argmax(np.abs(vec)))
    phase = vec[j] / abs(vec[j])
    vec = vec * phase.conj()
    return e0, StateVector(h.n_qubits, vec)
