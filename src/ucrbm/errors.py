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
    """The weights of a sampled batch cannot carry a self-normalized
    estimate: every sample carried zero weight, or their Kish effective
    sample size (sum w)^2 / sum w^2 is below ``MIN_ESS_FRACTION`` of the
    sample count, so a few runs dominate and the standard error is too
    small to trust.  More samples can mend the first case; the fraction in
    the second tends to a property of the state as the sample count grows."""


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
