"""Symplectic linear algebra over canonical quadratures.

Quadratures are ordered (q_1, p_1, ..., q_n, p_n) throughout, so the
symplectic form is the direct sum of n blocks [[0, 1], [-1, 0]].  Routines
operate on real symmetric matrices: quadratic Hamiltonian matrices and
covariance matrices (the latter usually pre-scaled by 2 so the vacuum is the
identity).
"""

from __future__ import annotations

import cmath
import itertools
from dataclasses import dataclass

import numpy as np

from .errors import (
    NearSingularError,
    NonPositiveDefiniteError,
    NonSymmetricError,
    NotPureError,
    NotThreeModeError,
    NumericalFailureError,
    PatternFailureError,
)

#: Symplectic eigenvalues below this are treated as zero (diverging mode).
GAP_FLOOR = 1e-10

#: Relative tolerance for the symmetry check on inputs.
SYMMETRY_RTOL = 1e-12


def symplectic_form(n: int) -> np.ndarray:
    """Return the 2n x 2n symplectic form, one [[0, 1], [-1, 0]] block per mode."""
    if n < 1:
        raise ValueError("need at least one mode")
    return np.kron(np.eye(n), np.array([[0.0, 1.0], [-1.0, 0.0]]))


def _require_symmetric(K, rtol=SYMMETRY_RTOL):
    K = np.asarray(K, dtype=float)
    if K.ndim != 2 or K.shape[0] != K.shape[1] or K.shape[0] % 2 != 0:
        raise NonSymmetricError(f"expected even-dimensional square matrix, got {K.shape}")
    scale = max(np.max(np.abs(K)), 1.0)
    if np.max(np.abs(K - K.T)) > rtol * scale:
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


@dataclass(frozen=True)
class WilliamsonDecomposition:
    """Factorization K = M V M^T with M symplectic, V = diag(nu_i, nu_i, ...)."""

    M: np.ndarray
    nu: np.ndarray

    @property
    def V(self) -> np.ndarray:
        return np.diag(np.repeat(self.nu, 2))


def williamson(K, gap_floor: float = GAP_FLOOR) -> WilliamsonDecomposition:
    """Williamson decomposition of a symmetric positive-definite matrix.

    The construction diagonalizes the antisymmetric matrix
    K^{-1/2} Omega K^{-1/2} with a real Schur factorization, which handles
    degenerate symplectic eigenvalues without any pairing heuristics.  SciPy,
    which provides it, is imported here rather than with the module, so that
    the command-line paths, which never call this function, run on NumPy
    alone.
    """
    from scipy.linalg import schur

    K = _require_symmetric(K)
    n = K.shape[0] // 2
    evals, evecs = np.linalg.eigh(K)
    if evals[0] <= 0.0:
        raise NonPositiveDefiniteError(f"smallest eigenvalue {evals[0]:.3e} is not positive")
    inv_sqrt = (evecs / np.sqrt(evals)) @ evecs.T
    omega = symplectic_form(n)

    A = inv_sqrt @ omega @ inv_sqrt
    A = 0.5 * (A - A.T)
    T, O = schur(A, output="real")

    mu = np.empty(n)
    for i in range(n):
        t = T[2 * i, 2 * i + 1]
        if abs(t) < 1e-300:
            raise NumericalFailureError("Schur form degenerated to a zero block")
        if t < 0.0:
            O[:, [2 * i, 2 * i + 1]] = O[:, [2 * i + 1, 2 * i]]
            t = -t
        mu[i] = t

    nu = 1.0 / mu
    order = np.argsort(-nu, kind="stable")
    nu = nu[order]
    if nu[-1] < gap_floor:
        raise NearSingularError(
            f"symplectic eigenvalue {nu[-1]:.3e} below gap floor {gap_floor:.1e}"
        )
    cols = np.empty(2 * n, dtype=int)
    cols[0::2] = 2 * order
    cols[1::2] = 2 * order + 1
    O = O[:, cols]

    # N^T K N = V with N symplectic; M = N^{-T} = Omega^T N Omega.
    N = inv_sqrt @ O * np.repeat(np.sqrt(nu), 2)[None, :]
    M = omega.T @ N @ omega
    return WilliamsonDecomposition(M=M, nu=nu)


# ---------------------------------------------------------------------------
# Three-mode standard form
# ---------------------------------------------------------------------------

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
        pair_of = {2: (0, 1), 1: (0, 2), 0: (1, 2)}
        for k, (i, j) in pair_of.items():
            m[2 * i, 2 * j] = m[2 * j, 2 * i] = self.c_plus[k]
            m[2 * i + 1, 2 * j + 1] = m[2 * j + 1, 2 * i + 1] = self.c_minus[k]
        return m


def _block_diag(blocks) -> np.ndarray:
    """The block-diagonal matrix of 2x2 blocks, one per mode."""
    out = np.zeros((2 * len(blocks), 2 * len(blocks)))
    for i, blk in enumerate(blocks):
        out[2 * i:2 * i + 2, 2 * i:2 * i + 2] = blk
    return out


def _rotation(phi: float) -> np.ndarray:
    c, s = np.cos(phi), np.sin(phi)
    return np.array([[c, -s], [s, c]])


def _inv_sqrt_2x2(B: np.ndarray) -> np.ndarray:
    evals, evecs = np.linalg.eigh(B)
    if evals[0] <= 0.0:
        raise NonPositiveDefiniteError("single-mode block is not positive definite")
    return (evecs / np.sqrt(evals)) @ evecs.T

def _block_parts(X):
    """Split a 2x2 block into its (I, J) and (sigma_z, sigma_x) components.

    Under X -> R(u) X R(v)^T the first component transforms as
    z_minus * exp(i(u - v)) and the second as z_plus * exp(i(u + v)); the
    block is diagonal iff both are real, antidiagonal iff both are imaginary.
    """
    zm = complex(0.5 * (X[0, 0] + X[1, 1]), 0.5 * (X[1, 0] - X[0, 1]))
    zp = complex(0.5 * (X[0, 0] - X[1, 1]), 0.5 * (X[0, 1] + X[1, 0]))
    return zm, zp


_PAIRS = [(0, 1), (0, 2), (1, 2)]


def _candidate_phases(D: np.ndarray, tol: float):
    """Per-mode rotation angles that push every off-diagonal block to diagonal form.

    Phase constraints are solved modulo pi on the doubled angles
    u_m = exp(2i phi_m); the two square-root branches of the seed are both
    returned and validated numerically by the caller.
    """
    diff, summ = {}, {}
    for (i, j) in _PAIRS:
        zm, zp = _block_parts(D[2 * i:2 * i + 2, 2 * j:2 * j + 2])
        if abs(zm) > tol:
            diff[(i, j)] = -cmath.phase(zm)
        if abs(zp) > tol:
            summ[(i, j)] = -cmath.phase(zp)

    # Connected components of the constraint graph: each needs its own seed,
    # and flipping the sign of every u in a component is a symmetry of the
    # constraints that yields a distinct (pi/2-rotated) valid candidate.
    parent = list(range(3))

    def find(m):
        while parent[m] != m:
            parent[m] = parent[parent[m]]
            m = parent[m]
        return m

    edges = sorted(set(diff) | set(summ))
    for (i, j) in edges:
        parent[find(i)] = find(j)

    seeds = {}
    for (i, j) in edges:  # prefer pairs constraining both channels: they fix 2 phi_i
        if (i, j) in diff and (i, j) in summ and find(i) not in seeds:
            base = cmath.exp(1j * (diff[(i, j)] + summ[(i, j)]))
            seeds[find(i)] = (i, (base, -base))
    for (i, j) in edges:  # single-channel components have a continuous gauge freedom
        if find(i) not in seeds:
            ang = diff[(i, j)] if (i, j) in diff else summ[(i, j)]
            v = cmath.exp(1j * ang)
            seeds[find(i)] = (i, (v, -v))

    roots = sorted(seeds)
    candidates = []
    for combo in itertools.product(*(seeds[r][1] for r in roots)):
        u = [None, None, None]
        for r, val in zip(roots, combo):
            u[seeds[r][0]] = val
        for _ in range(3):
            for (i, j), a_ij in diff.items():
                e = cmath.exp(-2j * a_ij)
                if u[i] is not None and u[j] is None:
                    u[j] = u[i] * e
                elif u[j] is not None and u[i] is None:
                    u[i] = u[j] / e
            for (i, j), b_ij in summ.items():
                e = cmath.exp(2j * b_ij)
                if u[i] is not None and u[j] is None:
                    u[j] = e / u[i]
                elif u[j] is not None and u[i] is None:
                    u[i] = e / u[j]
        candidates.append([0.5 * cmath.phase(um) if um is not None else 0.0 for um in u])
    if not candidates:
        candidates.append([0.0, 0.0, 0.0])
    return candidates


def _off_pattern_residual(Y: np.ndarray) -> float:
    res = 0.0
    for (i, j) in _PAIRS:
        blk = Y[2 * i:2 * i + 2, 2 * j:2 * j + 2]
        res = max(res, abs(blk[0, 1]), abs(blk[1, 0]))
    return res


def standard_form(C, pure: bool = False) -> StandardFormCM:
    """Reduce a three-mode covariance matrix to its local standard form.

    The reduction is a local symplectic transform: a symmetric single-mode
    squeezer per block followed by per-mode phase rotations (which subsume the
    single-mode form swaps).  Correlation measures are untouched by either.
    This is the reference reduction; the correlation measures of
    ``gaussian_info`` do not call it, because for a pure state they follow
    from the local invariants ``a`` alone.
    """
    C = _require_symmetric(C)
    if C.shape[0] != 6:
        raise NotThreeModeError(f"expected a 6x6 matrix, got {C.shape}")
    B = 2.0 * C
    if pure and abs(np.linalg.det(B) - 1.0) > 1e-7:
        raise NotPureError("pure flag set but det(2C) != 1")

    a = np.empty(3)
    locals_ = []
    for i in range(3):
        blk = B[2 * i:2 * i + 2, 2 * i:2 * i + 2]
        det = blk[0, 0] * blk[1, 1] - blk[0, 1] * blk[1, 0]
        if det <= 0.0:
            raise NonPositiveDefiniteError("single-mode block has nonpositive determinant")
        a[i] = np.sqrt(det)
        if np.allclose(blk, a[i] * np.eye(2), rtol=0.0, atol=1e-14 * max(a[i], 1.0)):
            locals_.append(np.eye(2))  # degenerate block: keep identity for determinism
        else:
            locals_.append(_inv_sqrt_2x2(blk / a[i]))
    L = _block_diag(locals_)
    D = L @ B @ L.T

    scale = max(np.max(np.abs(D)), 1.0)
    accept = 1e-6 * scale
    trials = []
    for phis in _candidate_phases(D, tol=1e-12 * scale):
        R = _block_diag([_rotation(phi) for phi in phis])
        Y = R @ D @ R.T
        res = _off_pattern_residual(Y)
        trials.append((res, sum(abs(phi) for phi in phis), Y))
    passing = [t for t in trials if t[0] <= accept]
    if passing:
        # Several branches can reach the pattern; take the rotation closest
        # to the identity so inputs already in standard form come back unchanged.
        res, _, Y = min(passing, key=lambda t: t[1])
    else:
        res, _, Y = min(trials, key=lambda t: t[0])
    if res > accept:
        raise PatternFailureError(
            f"off-pattern residual {res:.3e} exceeds tolerance (scale {scale:.3e})"
        )

    pair_of = {2: (0, 1), 1: (0, 2), 0: (1, 2)}
    c_plus = np.empty(3)
    c_minus = np.empty(3)
    for k, (i, j) in pair_of.items():
        c_plus[k] = Y[2 * i, 2 * j]
        c_minus[k] = Y[2 * i + 1, 2 * j + 1]
    return StandardFormCM(a=a, c_plus=c_plus, c_minus=c_minus)
