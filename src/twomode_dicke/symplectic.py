"""Symplectic linear algebra over canonical quadratures.

Quadratures are ordered (q_1, p_1, ..., q_n, p_n) throughout, so the
symplectic form is the direct sum of n blocks [[0, 1], [-1, 0]].  Routines
operate on real symmetric matrices: quadratic Hamiltonian matrices and
covariance matrices (the latter usually pre-scaled by 2 so the vacuum is the
identity).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    NearSingularError,
    NonPositiveDefiniteError,
    NonSymmetricError,
    NotPureError,
    NotThreeModeError,
    NumericalFailureError,
)

#: Symplectic eigenvalues below this are treated as zero (diverging mode).
GAP_FLOOR = 1e-10

#: Relative tolerance for the symmetry check on inputs.
SYMMETRY_RTOL = 1e-12

#: Purity slacks of standard_form below this, relative to a_1 + a_2 + a_3,
#: are rounding of an exact zero.
_SLACK_RTOL = 1e-14


def symplectic_form(n: int) -> np.ndarray:
    """Return the 2n x 2n symplectic form, one [[0, 1], [-1, 0]] block per mode."""
    if n < 1:
        raise ValueError("need at least one mode")
    return np.kron(np.eye(n), np.array([[0.0, 1.0], [-1.0, 0.0]]))


def _require_symmetric(K):
    K = np.asarray(K, dtype=float)
    if K.ndim != 2 or K.shape[0] != K.shape[1] or K.shape[0] % 2 != 0:
        raise NonSymmetricError(f"expected even-dimensional square matrix, got {K.shape}")
    if not np.isfinite(K).all():
        raise NonSymmetricError("matrix has a NaN or infinite entry")
    scale = max(np.max(np.abs(K)), 1.0)
    if np.max(np.abs(K - K.T)) > SYMMETRY_RTOL * scale:
        raise NonSymmetricError("matrix is not symmetric within tolerance")
    return 0.5 * (K + K.T)


def symplectic_eigenvalues(K) -> np.ndarray:
    """Symplectic spectrum of a symmetric positive semi-definite matrix.

    Returns the n moduli of the paired, purely imaginary eigenvalues of
    Omega @ K, sorted in descending order.
    """
    K = _require_symmetric(K)
    n = K.shape[0] // 2
    vals = np.linalg.eigvals(symplectic_form(n) @ K)
    scale = max(np.max(np.abs(K)), 1.0)
    if np.max(np.abs(vals.real)) > 1e-8 * scale:
        raise NumericalFailureError(
            "eigenvalues of Omega K acquired real parts; input is likely indefinite"
        )
    nu = np.sort(np.abs(vals.imag))[::-1]
    return np.ascontiguousarray(nu[::2])


def williamson(K) -> tuple[np.ndarray, np.ndarray]:
    """Williamson decomposition K = M diag(nu_1, nu_1, ..., nu_n, nu_n) M^T of a
    symmetric positive-definite matrix, with M symplectic: returns (M, nu), nu
    descending.

    The construction diagonalizes the antisymmetric matrix
    A = K^{-1/2} Omega K^{-1/2} through the Hermitian matrix iA, whose
    eigenvalues come in pairs +-mu.  An eigenvector v of mu > 0 gives the
    orthonormal real pair sqrt(2) (Re v, -Im v), on which A acts as the block
    [[0, mu], [-mu, 0]]; degenerate mu need no pairing heuristics, since eigh
    returns an orthonormal basis of each eigenspace.

    nu = 1 / mu inherits eigh's absolute error eps ||A|| in the smallest mu,
    so nu_1 carries a relative error of about eps cond K: 1.4e-10 at
    omega0 / omega = 100 and (lambda_x, lambda_y) = (86, 2) lambda_c, where
    cond K = 7.4e5.  symplectic_eigenvalues is the full-accuracy spectrum.
    """
    K = _require_symmetric(K)
    n = K.shape[0] // 2
    evals, evecs = np.linalg.eigh(K)
    if evals[0] <= 0.0:
        raise NonPositiveDefiniteError(f"smallest eigenvalue {evals[0]:.3e} is not positive")
    inv_sqrt = (evecs / np.sqrt(evals)) @ evecs.T
    omega = symplectic_form(n)

    A = inv_sqrt @ omega @ inv_sqrt
    mu, v = np.linalg.eigh(1j * (0.5 * (A - A.T)))
    # Ascending: the last n are the mu > 0, so nu = 1 / mu comes out descending.
    mu, v = mu[n:], v[:, n:]
    if mu[0] <= 0.0:
        raise NumericalFailureError("iA has fewer than n positive eigenvalues")
    nu = 1.0 / mu
    if nu[-1] < GAP_FLOOR:
        raise NearSingularError(
            f"symplectic eigenvalue {nu[-1]:.3e} below gap floor {GAP_FLOOR:.1e}"
        )
    O = np.empty((2 * n, 2 * n))
    O[:, 0::2] = np.sqrt(2.0) * v.real
    O[:, 1::2] = -np.sqrt(2.0) * v.imag

    # N^T K N = V with N symplectic; M = N^{-T} = Omega^T N Omega.
    N = inv_sqrt @ O * np.repeat(np.sqrt(nu), 2)[None, :]
    M = omega.T @ N @ omega
    return M, nu


# ---------------------------------------------------------------------------
# Three-mode standard form
# ---------------------------------------------------------------------------

#: The modes (i, j) whose off-diagonal block holds the coefficients of index k.
_PAIR_OF_K = ((1, 2), (0, 2), (0, 1))


@dataclass(frozen=True)
class StandardFormCM:
    """Canonical three-mode form of 2C: diagonal blocks a_i I, off blocks diagonal.

    Convention: a_i**2 = det(2C_i) of the single-mode reduction; c-coefficients
    with index k couple the other two modes, e.g. c_3 sits in the (1, 2) block.
    """

    a: np.ndarray
    c_plus: np.ndarray
    c_minus: np.ndarray

    def matrix(self) -> np.ndarray:
        """Assembled 6x6 standard-form matrix (scaled as 2C)."""
        m = np.zeros((6, 6))
        for i in range(3):
            m[2 * i, 2 * i] = m[2 * i + 1, 2 * i + 1] = self.a[i]
        for k, (i, j) in enumerate(_PAIR_OF_K):
            m[2 * i, 2 * j] = m[2 * j, 2 * i] = self.c_plus[k]
            m[2 * i + 1, 2 * j + 1] = m[2 * j + 1, 2 * i + 1] = self.c_minus[k]
        return m


def standard_form(C) -> StandardFormCM:
    """Local standard form of a pure three-mode covariance matrix, in closed form.

    A local symplectic map brings 2C of a pure state to diagonal blocks
    a_i I and off-diagonal blocks diag(c+_k, c-_k), fixed by the local
    invariants a_i = sqrt(det 2C_i) alone (Adesso, Serafini & Illuminati,
    PRA 73, 032345 (2006)).  For the pair (i, j) with third mode k:

        c+-_k = (r_1 +- r_2) / (4 sqrt(a_i a_j)),
        r_1 = sqrt(((a_i - a_j)^2 - (a_k - 1)^2) ((a_i - a_j)^2 - (a_k + 1)^2)),
        r_2 = sqrt(((a_i + a_j)^2 - (a_k - 1)^2) ((a_i + a_j)^2 - (a_k + 1)^2)).

    Which quadrature carries c+ and the signs are a convention: a local
    rotation by pi/2 swaps c+ and c-.  Purity makes the slacks
    a_k - 1 - |a_i - a_j| and a_i + a_j - a_k - 1 nonnegative; r_1 and r_2
    are evaluated as products of linear factors, with a slack that is
    rounding of zero set to zero, so that a decoupled mode gives exact zeros.
    The correlation measures of ``gaussian_info`` do not call this function:
    they follow from the a_i and the cross determinants det gamma directly.
    """
    C = _require_symmetric(C)
    if C.shape[0] != 6:
        raise NotThreeModeError(f"expected a 6x6 matrix, got {C.shape}")
    B = 2.0 * C
    det = np.linalg.det(B)
    if abs(det - 1.0) > 1e-7:
        raise NotPureError(f"det(2C) = {det:.6e} != 1: the closed form holds for pure states")
    q, p, qp = B.diagonal()[0::2], B.diagonal()[1::2], B.diagonal(1)[0::2]
    det_modes = q * p - qp * qp
    if np.any(det_modes <= 0.0):
        raise NonPositiveDefiniteError("single-mode block has nonpositive determinant")
    a = np.sqrt(det_modes)

    ak = a
    ai, aj = a[np.array(_PAIR_OF_K).T]
    floor = _SLACK_RTOL * a.sum()
    d, s = np.abs(ai - aj), ai + aj
    slack_1, slack_2 = ak - 1.0 - d, s - ak - 1.0
    slack_1[slack_1 <= floor] = 0.0
    slack_2[slack_2 <= floor] = 0.0
    r1 = np.sqrt(slack_1 * (ak - 1.0 + d) * (ak + 1.0 - d) * (ak + 1.0 + d))
    r2 = np.sqrt(slack_2 * (s - ak + 1.0) * (s + ak - 1.0) * (s + ak + 1.0))
    root = 4.0 * np.sqrt(ai * aj)
    return StandardFormCM(a=a, c_plus=(r1 + r2) / root, c_minus=(r1 - r2) / root)
