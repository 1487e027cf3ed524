"""Finite-size exact diagonalization of the two-mode Dicke Hamiltonian.

Serves as an independent numerical check of the thermodynamic-limit results.
The Hamiltonian is built directly in the frame of the classical ground state:
each boson is displaced by its condensate amplitude (an exact operator
substitution a -> a + sqrt(j) alpha) and the spin operators are rotated by the
exact 3x3 rotation R of the vector operator J, which keeps H sparse.  The
truncated Fock cutoff therefore only has to hold O(1) quantum fluctuations,
not the extensive condensate, and the measured quadrature covariance matrix
converges to the analytic ground-state covariance matrix at rate O(1/j).

H is real symmetric.  In every phase the one imaginary term couples the
uncondensed boson's a + a^dag to Jy; conjugating by D = diag(i^n) on that
boson's Fock index maps (q, p) -> (-p, q) there and makes the term real, so H
is built in that frame as a float64 CSR matrix and each truncation is solved
by one real symmetric Lanczos call.  The measured quadratures undo the map.

H at cutoff n_max is exactly the principal block of H at n_max + 2 on the
Fock states <= n_max, so the convergence check builds H once per j, at
n_max + 2, and slices the smaller one out of it.  Its re-solve starts from the
n_max ground vector, zero-padded.

Hilbert space ordering is boson-x (x) boson-y (x) spin; quadratures are
reported in the usual (q_x, p_x, q_y, p_y, Q, P) order with Q, P the
collective-spin quadratures of the rotated frame.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import eigsh

from .errors import BudgetExceededError, NumericalFailureError
from .gaussian_info import CovarianceMatrix
from .model import ClassicalGroundState, ModelParams, Phase, classical_ground_state

#: Largest Hilbert-space dimension the oracle will diagonalize.
DIMENSION_BUDGET = 200_000

#: Strength of the symmetry-breaking field that pins the finite-size ground
#: state onto the classical branch when the condensate is small.
SYMMETRY_BREAKING_FIELD = 1e-4

#: The ground energy must move less than this under n_max -> n_max + 2
#: for the truncation to count as converged.
CONVERGENCE_TOL = 1e-8


@dataclass(frozen=True)
class TruncationSpec:
    """Finite-size control parameters: spin length j and per-boson cutoff."""

    j: float
    n_max: int

    def __post_init__(self):
        if self.j <= 0 or (2.0 * self.j) != round(2.0 * self.j):
            raise ValueError("j must be a positive integer or half-integer")
        if self.n_max < 1:
            raise ValueError("n_max must be at least 1")

    @property
    def dimension(self) -> int:
        return (self.n_max + 1) ** 2 * (int(round(2.0 * self.j)) + 1)


@dataclass(frozen=True)
class FiniteSizeResult:
    """Ground state of the truncated finite-j Hamiltonian, in the classical frame."""

    spec: TruncationSpec
    energy_per_spin: float
    cm: CovarianceMatrix
    means: np.ndarray
    converged: bool
    #: |E(n_max + 2) - E(n_max)| per spin; None if that re-solve did not run.
    resolve_de: float | None


def _boson_ops(n_max: int):
    a = sp.diags(np.sqrt(np.arange(1, n_max + 1)), 1, format="csr")
    return a, a.T


def _spin_ops(j: float):
    """Jx, Ky = i Jy and Jz: all three real."""
    m = np.arange(j, -j - 1.0, -1.0)
    jz = sp.diags(m, 0, format="csr")
    # J+ |j, m> = sqrt(j(j+1) - m(m+1)) |j, m+1>; basis ordered m = j .. -j.
    jp = sp.diags(np.sqrt(j * (j + 1.0) - m[1:] * (m[1:] + 1.0)), 1, format="csr")
    return 0.5 * (jp + jp.T), 0.5 * (jp - jp.T), jz


def _conjugated_mode(gs: ClassicalGroundState) -> int:
    """The boson (0 = x, 1 = y) whose coupling carries Jy in the classical frame.

    It is the uncondensed mode: y in the normal and superradiant-x phases,
    x in the superradiant-y phase.
    """
    return 0 if gs.phase is Phase.SUPERRADIANT_Y else 1


def _rotated_spin_ops(gs: ClassicalGroundState, j: float):
    """U^dag J_a U = sum_b R_ab J_b, U = e^{-i phi Jz} e^{-i theta Jy}, R = R_z(phi) R_y(theta),
    with i U^dag J_a U in place of U^dag J_a U for a = _conjugated_mode(gs).

    The entries of R are exact: cos(theta) as the classical ground state
    computed it, sin(theta) >= 0 for theta in [pi/2, pi], and phi in {0, pi/2}.
    The one row of R with a Jy entry has no other entry, and it is the row of
    the conjugated mode, so all three operators are real.
    """
    ct = gs.cos_theta
    st = np.sqrt((1.0 - ct) * (1.0 + ct))
    cf, sf = (0.0, 1.0) if gs.phase is Phase.SUPERRADIANT_Y else (1.0, 0.0)
    rot = np.array([[cf * ct, -sf, cf * st],
                    [sf * ct, cf, sf * st],
                    [-st, 0.0, ct]])
    jx, ky, jz = _spin_ops(j)
    return tuple(r[0] * jx + r[1] * ky + r[2] * jz for r in rot)


def _hamiltonian(p: ModelParams, spec: TruncationSpec,
                 gs: ClassicalGroundState) -> sp.csr_matrix:
    """Two-mode Dicke Hamiltonian conjugated into the classical frame, as a real
    symmetric matrix.

    The boson displacement is applied as the exact substitution
    a -> a + sqrt(j) alpha, the spin rotation as the exact 3x3 rotation of J;
    an irrelevant constant offset from the displacement is kept so the
    spectrum equals that of the lab-frame Hamiltonian.  The only imaginary
    term, (a + a^dag) Jy on the conjugated mode, is made real by conjugating
    with D = diag(i^n) on that mode's Fock index: D^dag a D = i a, so the term
    becomes (a - a^dag)(i Jy).  Nothing else changes, because a^dag a is
    invariant under D, that mode has zero displacement, and the
    symmetry-breaking field sits only on condensed modes.
    """
    nb = spec.n_max + 1
    ns = int(round(2.0 * spec.j)) + 1
    # pin the Z2-degenerate branch by a weak field on the condensed mode
    h_x = SYMMETRY_BREAKING_FIELD if gs.alpha_x != 0.0 else 0.0
    h_y = SYMMETRY_BREAKING_FIELD if gs.alpha_y != 0.0 else 0.0
    # Condensate amplitude: <a> = sqrt(j/2) * alpha in this normalization.
    dx = np.sqrt(spec.j / 2.0) * gs.alpha_x
    dy = np.sqrt(spec.j / 2.0) * gs.alpha_y

    a, ad = _boson_ops(spec.n_max)
    ib = sp.identity(nb, format="csr")
    x = a + ad
    num_x = ad @ a + dx * x + dx * dx * ib
    num_y = ad @ a + dy * x + dy * dy * ib
    couplings = [x + 2.0 * dx * ib, x + 2.0 * dy * ib]
    couplings[_conjugated_mode(gs)] = a - ad  # D^dag (a + a^dag) D = i (a - a^dag)
    x_x, x_y = couplings
    jx, jy, jz = _rotated_spin_ops(gs, spec.j)
    ispin = sp.identity(ns, format="csr")

    def kron3(A, B, C):
        return sp.kron(sp.kron(A, B, format="csr"), C, format="csr")

    g = 1.0 / np.sqrt(2.0 * spec.j)
    return (
        p.omega * (kron3(num_x, ib, ispin) + kron3(ib, num_y, ispin))
        + p.omega0 * kron3(ib, ib, jz)
        + p.lambda_x * g * kron3(x_x, ib, jx)
        + p.lambda_y * g * kron3(ib, x_y, jy)
        + h_x * kron3(x_x, ib, ispin)
        + h_y * kron3(ib, x_y, ispin)
    )


def _fock_block(bigger: TruncationSpec, n_max: int) -> np.ndarray:
    """Indices of the states of ``bigger`` with both boson numbers <= n_max, in order."""
    nb = bigger.n_max + 1
    ns = int(round(2.0 * bigger.j)) + 1
    return np.arange(bigger.dimension).reshape(nb, nb, ns)[:n_max + 1, :n_max + 1].ravel()


def _ground_vector(H: sp.csr_matrix, v0: np.ndarray | None = None) -> tuple[float, np.ndarray]:
    dim = H.shape[0]
    if v0 is None:
        v0 = np.ones(dim) / np.sqrt(dim)
    try:
        evals, evecs = eigsh(H, k=1, which="SA", v0=v0, maxiter=5000)
    except Exception as exc:  # ArpackNoConvergence and friends
        raise NumericalFailureError(f"sparse eigensolver failed: {exc}") from exc
    return float(evals[0]), evecs[:, 0]


def _measure_cm(psi: np.ndarray, spec: TruncationSpec, gs: ClassicalGroundState):
    """Means and CM of the classical-frame quadratures in the real ground vector psi.

    psi is D^dag times the ground vector of the complex Hamiltonian, so the
    conjugated mode's (q, p) are measured as D^dag (q, p) D = (-p, q).
    """
    nb = spec.n_max + 1
    ns = int(round(2.0 * spec.j)) + 1
    tensor = psi.reshape(nb, nb, ns).astype(complex)

    a, ad = _boson_ops(spec.n_max)
    q = ((a + ad) / np.sqrt(2.0)).toarray()
    pq = (1j * (ad - a) / np.sqrt(2.0)).toarray()
    jx, ky, _ = (op.toarray() for op in _spin_ops(spec.j))
    jy = -1j * ky
    # Sign conventions matching the analytic fluctuation frame.  The spin
    # quadratures are expanded around the pole opposite the rotated z-axis,
    # which flips their sign; each boson additionally carries a phase-dependent
    # pi rotation inherited from how the classical rotation orients the
    # coupling axes (validated against the analytic covariance matrix, whose
    # residual then vanishes as 1/j in every phase).
    sx, sy = {
        Phase.NORMAL: (1.0, -1.0),
        Phase.SUPERRADIANT_X: (-1.0, -1.0),
        Phase.SUPERRADIANT_Y: (1.0, 1.0),
    }[gs.phase]
    bosons = [(sx * q, sx * pq), (sy * q, sy * pq)]
    qc, pc = bosons[_conjugated_mode(gs)]
    bosons[_conjugated_mode(gs)] = (-pc, qc)
    quad_ops = [(op, axis) for axis, pair in enumerate(bosons) for op in pair] + [
        (-jx / np.sqrt(spec.j), 2), (-jy / np.sqrt(spec.j), 2),
    ]

    vectors = []
    for op, axis in quad_ops:
        if axis == 0:
            t = np.einsum("ai,ijk->ajk", op, tensor)
        elif axis == 1:
            t = np.einsum("bj,ajk->abk", op, tensor)
        else:
            t = np.einsum("ck,abk->abc", op, tensor)
        vectors.append(t.reshape(-1))

    flat = tensor.reshape(-1)
    means = np.array([np.real(np.vdot(flat, v)) for v in vectors])
    G = np.empty((6, 6))
    for i in range(6):
        for k in range(i, 6):
            G[i, k] = G[k, i] = np.real(np.vdot(vectors[i], vectors[k]))
    cm = G - np.outer(means, means)
    return means, 0.5 * (cm + cm.T)


def exact_ground_state(p: ModelParams, spec: TruncationSpec,
                       check_convergence: bool = True) -> FiniteSizeResult:
    """Diagonalize the truncated Hamiltonian and measure the classical-frame CM.

    A small symmetry-breaking field pins the finite-size ground state onto the
    branch described by the classical solution whenever the condensate is
    nonzero.  Raises BudgetExceededError when the truncated dimension is too
    large.
    """
    if spec.dimension > DIMENSION_BUDGET:
        raise BudgetExceededError(
            f"dimension {spec.dimension} exceeds budget {DIMENSION_BUDGET}"
        )
    gs = classical_ground_state(p)
    bigger = TruncationSpec(j=spec.j, n_max=spec.n_max + 2)
    resolve = check_convergence and bigger.dimension <= DIMENSION_BUDGET
    if resolve:
        # H(n_max) is exactly the principal block of H(n_max + 2) on Fock states <= n_max
        block = _fock_block(bigger, spec.n_max)
        H_big = _hamiltonian(p, bigger, gs)
        H = H_big[block][:, block]
    else:
        H = _hamiltonian(p, spec, gs)
    energy, psi = _ground_vector(H)
    means, cm = _measure_cm(psi, spec, gs)

    converged, resolve_de = not check_convergence, None
    if resolve:
        v0 = np.zeros(bigger.dimension)
        v0[block] = psi
        energy2, _ = _ground_vector(H_big, v0)
        converged = bool(abs(energy2 - energy) < CONVERGENCE_TOL)
        resolve_de = abs(energy2 - energy) / spec.j

    return FiniteSizeResult(
        spec=spec,
        energy_per_spin=energy / spec.j,
        cm=CovarianceMatrix(("x", "y", "j"), cm),
        means=means,
        converged=converged,
        resolve_de=resolve_de,
    )
