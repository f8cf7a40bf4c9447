"""Dense statevector container used by the circuit emulation.

Amplitudes follow the big-endian index convention of :mod:`ucrbm.spins`.
States are immutable after construction; every operation returns a new
instance.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import SizeCapError

SQRT2 = np.sqrt(2.0)

# Size caps.  Every exact oracle grows as 2^N or 2^M, so each refuses past a
# fixed size with a SizeCapError from ``check_cap``; these are the only caps.
STATEVECTOR_CAP = 14  # qubits of a dense statevector (protocol emulation: N + 1)
DENSE_CAP = 14  # qubits of a dense Hamiltonian matrix
HIDDEN_CAP = 12  # hidden units of the 2^M branch enumeration
IDENTITY_HIDDEN_CAP = 8  # hidden units of the ensemble-identity check (4^M pairs)
EXPANSION_CAP = 4  # visible spins of the 2^N x 2^N polynomial expansion


@dataclass(frozen=True)
class StateVector:
    n_qubits: int
    amplitudes: np.ndarray
    norm: float = field(init=False)

    def __post_init__(self):
        amps = np.ascontiguousarray(self.amplitudes, dtype=np.complex128)
        if amps.shape != (1 << self.n_qubits,):
            raise ValueError(
                f"amplitude vector of length {amps.shape} does not match "
                f"{self.n_qubits} qubits"
            )
        if not np.all(np.isfinite(amps.view(np.float64))):
            raise ValueError("non-finite amplitude")
        amps.flags.writeable = False
        object.__setattr__(self, "amplitudes", amps)
        object.__setattr__(self, "norm", float(np.linalg.norm(amps)))

    def normalized(self) -> "StateVector":
        if self.norm == 0.0:
            raise ValueError("cannot normalize the zero vector")
        return StateVector(self.n_qubits, self.amplitudes / self.norm)

    def probabilities(self) -> np.ndarray:
        return np.abs(self.amplitudes) ** 2

    def with_plus_ancilla(self) -> "StateVector":
        """Append a fresh ancilla qubit in |+> as the least significant bit."""
        amps = np.kron(self.amplitudes, np.array([1.0, 1.0]) / SQRT2)
        return StateVector(self.n_qubits + 1, amps)


def overlap(a: StateVector, b: StateVector) -> complex:
    return complex(np.vdot(a.amplitudes, b.amplitudes))


def fidelity(a: StateVector, b: StateVector) -> float:
    """|<a|b>| between the normalized versions of both states."""
    denom = a.norm * b.norm
    if denom == 0.0:
        raise ValueError("fidelity with a zero vector is undefined")
    return abs(overlap(a, b)) / denom


def check_cap(size: int, cap: int, what: str = "statevector over {} qubits") -> None:
    """SizeCapError past ``cap``; ``what`` names the object, ``{}`` its size."""
    if size > cap:
        raise SizeCapError(f"{what.format(size)} exceeds the cap of {cap}")
