"""Exception types shared across the package."""


class UcrbmError(Exception):
    """Base class for all package-specific errors."""


class SizeCapError(UcrbmError, ValueError):
    """A size cap of ``statevector`` (raised by ``check_cap``) was exceeded."""


class ProtocolOrderError(UcrbmError, RuntimeError):
    """A circuit operation was applied out of protocol order (e.g. the
    ancilla was not in |+> when a hidden block was requested)."""


class NumericalIntegrityError(UcrbmError, RuntimeError):
    """An internal consistency check failed (probabilities not summing
    to one, non-finite intermediate, ...)."""


class DegenerateWeightError(UcrbmError, RuntimeError):
    """Every sample in an ensemble batch carried zero weight; the
    self-normalized estimator is undefined.  Retry with more samples."""


class PauliFileError(UcrbmError, ValueError):
    """A Pauli-text file failed to parse; carries the offending line."""

    def __init__(self, message: str, line_number: int | None = None):
        self.line_number = line_number
        if line_number is not None:
            message = f"line {line_number}: {message}"
        super().__init__(message)


class HermiticityError(UcrbmError, ValueError):
    """An operator that must be Hermitian is not."""


class IdentityCheckError(UcrbmError, RuntimeError):
    """A decoupling identity failed its dense proportionality
    certification; carries both diagonals for inspection."""

    def __init__(self, message: str, lhs=None, rhs=None):
        self.lhs = lhs
        self.rhs = rhs
        super().__init__(message)
