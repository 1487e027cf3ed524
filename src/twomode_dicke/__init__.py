"""Correlation structure and excitation spectrum of the two-mode Dicke model.

Thermodynamic-limit pipeline (classical ground state -> quadratic
fluctuations -> the singular values of one factorization over positions and
momenta as gaps -> both ground-state covariance-matrix blocks from one closed
form in them, 2C_qq 2C_pp = I -> Gaussian correlation measures), a
finite-size exact-diagonalization oracle for validation, and a sweep CLI.
"""

from .errors import (
    BudgetExceededError,
    GoldstoneLineError,
    NearSingularError,
    NonPhysicalError,
    NonPositiveDefiniteError,
    NonSymmetricError,
    NotPureError,
    NotThreeModeError,
    NumericalFailureError,
    TwoModeDickeError,
)
from .gaussian_info import (
    correlation_report,
    renyi2_entropy,
)
from .model import (
    ClassicalGroundState,
    ModelParams,
    Phase,
    classical_ground_state,
    excitation_gaps,
    fluctuation_matrix,
    ground_state_cm,
    ground_state_energy,
    gs_energy_derivative_scan,
)
from .oracle import FiniteSizeResult, TruncationSpec, exact_ground_state
from .symplectic import (
    StandardFormCM,
    standard_form,
    symplectic_eigenvalues,
    symplectic_form,
    williamson,
)

__version__ = "0.1.0"

__all__ = [
    "BudgetExceededError",
    "ClassicalGroundState",
    "FiniteSizeResult",
    "GoldstoneLineError",
    "ModelParams",
    "NearSingularError",
    "NonPhysicalError",
    "NonPositiveDefiniteError",
    "NonSymmetricError",
    "NotPureError",
    "NotThreeModeError",
    "NumericalFailureError",
    "Phase",
    "StandardFormCM",
    "TruncationSpec",
    "TwoModeDickeError",
    "classical_ground_state",
    "correlation_report",
    "exact_ground_state",
    "excitation_gaps",
    "fluctuation_matrix",
    "ground_state_cm",
    "ground_state_energy",
    "gs_energy_derivative_scan",
    "renyi2_entropy",
    "standard_form",
    "symplectic_eigenvalues",
    "symplectic_form",
    "williamson",
]
