"""Unitary-coupled RBM quantum states: closed-form amplitudes, a qubit-recycled
state-preparation emulation, post-selection-free estimators, and an
imaginary-time ground-state solver checked against exact diagonalization."""

__version__ = "0.1.0"

from ._kernels import BACKEND
from .circuit import (
    BranchTable,
    EnsembleIdentityReport,
    enumerate_branches,
    measure_visible,
    prepare_visible_product,
    recombined_statevector,
    verify_ensemble_identities,
)
from .estimators import (
    Estimate,
    SrSystem,
    compute_a_c_exact,
    compute_a_c_sampled,
    expectation_ensemble,
    expectation_exact,
    expectation_vmc,
    local_observable,
)
from .hamiltonians import (
    FermionTerm,
    PauliHamiltonian,
    TqdParams,
    build_afh,
    build_tfi,
    build_tqd,
    exact_ground,
    jordan_wigner,
    load_bundled,
    load_pauli_file,
    save_pauli_file,
)
from .identities import (
    decouple_hidden_pair,
    decouple_monomial,
    decouple_real_coupling,
    rbm_polynomial_coefficients,
    rbm_to_unitary_coupled,
)
from .rbm import (
    RbmParams,
    VariationalIndex,
    exact_statevector,
    log_amplitude,
    log_derivatives,
    r_factor,
    random_init,
)
from .solver import (
    GradCheckReport,
    IteConfig,
    IteTrace,
    grad_check,
    ite_run,
    mean_field_stage,
    sr_update,
)
from .statevector import StateVector, fidelity

__all__ = [
    "BACKEND",
    "BranchTable",
    "EnsembleIdentityReport",
    "Estimate",
    "FermionTerm",
    "GradCheckReport",
    "IteConfig",
    "IteTrace",
    "PauliHamiltonian",
    "RbmParams",
    "SrSystem",
    "StateVector",
    "TqdParams",
    "VariationalIndex",
    "build_afh",
    "build_tfi",
    "build_tqd",
    "compute_a_c_exact",
    "compute_a_c_sampled",
    "decouple_hidden_pair",
    "decouple_monomial",
    "decouple_real_coupling",
    "enumerate_branches",
    "exact_ground",
    "exact_statevector",
    "expectation_ensemble",
    "expectation_exact",
    "expectation_vmc",
    "fidelity",
    "grad_check",
    "ite_run",
    "jordan_wigner",
    "load_bundled",
    "load_pauli_file",
    "local_observable",
    "log_amplitude",
    "log_derivatives",
    "mean_field_stage",
    "measure_visible",
    "prepare_visible_product",
    "r_factor",
    "random_init",
    "rbm_polynomial_coefficients",
    "rbm_to_unitary_coupled",
    "recombined_statevector",
    "save_pauli_file",
    "sr_update",
    "verify_ensemble_identities",
]
