"""Finite-size exact diagonalization of the two-mode Dicke Hamiltonian.

Serves as an independent numerical check of the thermodynamic-limit results.
The Hamiltonian is built directly in the frame of the classical ground state:
each boson is displaced by its condensate amplitude (an exact operator
substitution a -> a + sqrt(j) alpha) and the spin operators are rotated by the
exact 3x3 rotation R of the vector operator J, which keeps every factor of H
tridiagonal.  The truncated Fock cutoff therefore only has to hold O(1)
quantum fluctuations, not the extensive condensate, and the measured
quadrature covariance matrix converges to the analytic ground-state
covariance matrix at rate O(1/j).

Swapping x and y and rotating the spin by pi/2 about z (with a parity on the
uncondensed boson) maps H at (lambda_x, lambda_y) onto H at (lambda_y,
lambda_x), so a superradiant-y point is solved as its superradiant-x mirror
image, and y is always the uncondensed boson.  H is real symmetric: the one
imaginary term couples y's a + a^dag to Jy, and conjugating by D = diag(i^n)
on its Fock index maps (q, p) -> (-p, q) there and makes the term real.  C_qq
and C_pp are then two real Gram matrices over the position (V) and momentum
(T) coordinates of model.stacked_ground_states, mapped back by its frame table.

H is never stored.  It is a sum of Kronecker products of small real factors
(nb x nb boson and ns x ns spin matrices), so it is applied to a state
reshaped to (nb, nb, ns) one tensor axis at a time.  In the classical frame
H is close to diagonal in the Fock (x) Dicke basis, so its lowest eigenpair
is found by Davidson's method preconditioned by diag H, which comes from the
factors' diagonals; the solve starts from the basis state of smallest
diagonal, the classical-frame vacuum.  The convergence check re-solves at
n_max + 2, starting from the n_max ground vector, zero-padded.

Hilbert space ordering is boson-x (x) boson-y (x) spin; quadratures are
reported in the usual (q_x, p_x, q_y, p_y, Q, P) order with Q, P the
collective-spin quadratures of the rotated frame.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import BudgetExceededError, NumericalFailureError
from .gaussian_info import CovarianceMatrix
from .model import (_STACKED_FRAMES, ClassicalGroundState, ModelParams, Phase,
                    classical_ground_state, from_stacked_frame)

#: Largest Hilbert-space dimension the oracle will diagonalize.
DIMENSION_BUDGET = 200_000

#: Strength of the symmetry-breaking field that pins the finite-size ground
#: state onto the classical branch when the condensate is small.
SYMMETRY_BREAKING_FIELD = 1e-4

#: The ground energy must move less than this under n_max -> n_max + 2
#: for the truncation to count as converged.
CONVERGENCE_TOL = 1e-8

#: Largest basis of the Davidson solver.
DAVIDSON_BASIS = 16

#: Iterations, one matvec each, after which the Davidson solver gives up.
MAX_ITERATIONS = 2000

#: The Davidson solver stops once ||H x - theta x|| <= RESIDUAL_TOL eps
#: max|diag H|.  That residual cannot fall below the rounding of applying H:
#: over 355 solves run for 500 matvecs (omega / omega0 from 0.01 to 100, all
#: phases and critical edges, j <= 20, n_max <= 10) the least residual was
#: <= 16 and the stagnated level <= 53.  The energy error is <= ||r||^2 / gap.
RESIDUAL_TOL = 64

_EPS = np.finfo(float).eps


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
    #: ||H psi - E psi|| of the returned ground vector at n_max, the
    #: eigensolver's convergence evidence (in units of H, not per spin).
    residual: float


def _boson_ops(n_max: int):
    a = np.diag(np.sqrt(np.arange(1.0, n_max + 1)), 1)
    return a, a.T


def _spin_ops(j: float):
    """Jx, Ky = i Jy and Jz: all three real."""
    m = np.arange(j, -j - 1.0, -1.0)
    # J+ |j, m> = sqrt(j(j+1) - m(m+1)) |j, m+1>; basis ordered m = j .. -j.
    jp = np.diag(np.sqrt(j * (j + 1.0) - m[1:] * (m[1:] + 1.0)), 1)
    return 0.5 * (jp + jp.T), 0.5 * (jp - jp.T), np.diag(m)


def _rotated_spin_ops(gs: ClassicalGroundState, j: float):
    """U^dag J_a U = sum_b R_ab J_b for U = e^{-i theta Jy}, R = R_y(theta), with
    i U^dag Jy U = Ky in place of U^dag Jy U, so all three operators are real.

    The entries of R are exact: cos(theta) as the classical ground state
    computed it, and sin(theta) >= 0 for theta in [pi/2, pi].
    """
    ct = gs.cos_theta
    st = np.sqrt((1.0 - ct) * (1.0 + ct))
    jx, ky, jz = _spin_ops(j)
    return ct * jx + st * jz, ky, ct * jz - st * jx


def _hamiltonian(p: ModelParams, spec: TruncationSpec, gs: ClassicalGroundState):
    """Two-mode Dicke Hamiltonian conjugated into the classical frame of a
    normal or superradiant-x gs, as the function that applies it to vectors,
    and its diagonal.

    The displacement of mode x is applied as the exact substitution
    a -> a + sqrt(j) alpha, the spin rotation as the exact 3x3 rotation of J;
    an irrelevant constant offset from the displacement is kept so the
    spectrum equals that of the lab-frame Hamiltonian.  The only imaginary
    term, (a + a^dag) Jy on the uncondensed mode y, is made real by
    conjugating with D = diag(i^n) on its Fock index: D^dag a D = i a, so the
    term becomes (a - a^dag)(i Jy).  Nothing else changes, because a^dag a is
    invariant under D, and mode y carries neither a displacement nor the
    symmetry-breaking field.

    H = B_x (x) 1 (x) 1 + 1 (x) B_y (x) 1 + 1 (x) 1 (x) S
        + C_x (x) 1 (x) J_x + 1 (x) C_y (x) J_y,
    every factor real and tridiagonal.  Returns ``(apply, diagonal)``:
    ``apply(v)`` takes v of shape (dimension,) or (k, dimension), one state
    per row, and returns H v in the same shape; ``diagonal`` is diag H, the
    same sum of Kronecker products of the factors' diagonals.
    """
    nb = spec.n_max + 1
    ns = int(round(2.0 * spec.j)) + 1
    # pin the Z2-degenerate branch by a weak field on the condensed mode
    h_x = SYMMETRY_BREAKING_FIELD if gs.alpha_x != 0.0 else 0.0
    # Condensate amplitude: <a> = sqrt(j/2) * alpha in this normalization.
    dx = np.sqrt(spec.j / 2.0) * gs.alpha_x

    a, ad = _boson_ops(spec.n_max)
    ib = np.eye(nb)
    x = a + ad
    number = np.diag(np.arange(float(nb)))
    x_x = x + 2.0 * dx * ib
    x_y = a - ad  # D^dag (a + a^dag) D = i (a - a^dag)
    jx, jy, jz = _rotated_spin_ops(gs, spec.j)

    g = 1.0 / np.sqrt(2.0 * spec.j)
    b_x = p.omega * (number + dx * x + dx * dx * ib) + h_x * x_x
    b_y = p.omega * number
    c_x, c_y = p.lambda_x * g * x_x, p.lambda_y * g * x_y
    # C-contiguous transposes: the stacked matmul with a transposed view is
    # about 10% slower
    spin_t, jx_t, jy_t = (p.omega0 * jz).T.copy(), jx.T.copy(), jy.T.copy()

    def on_x(op, t):
        return (op @ t.reshape(-1, nb, nb * ns)).reshape(t.shape)

    def apply(v: np.ndarray) -> np.ndarray:
        psi = v.reshape(-1, nb, nb, ns)
        out = on_x(b_x, psi)
        out += b_y @ psi
        out += psi @ spin_t
        out += on_x(c_x, psi @ jx_t)
        out += c_y @ (psi @ jy_t)
        return out.reshape(v.shape)

    diagonal = (np.diag(b_x)[:, None, None] + np.diag(b_y)[:, None] + np.diag(spin_t)
                + np.diag(c_x)[:, None, None] * np.diag(jx)
                + np.diag(c_y)[:, None] * np.diag(jy))
    return apply, diagonal.ravel()


def _orthogonalize(V: np.ndarray, w: np.ndarray) -> float:
    """Remove from w, in place, its components along the orthonormal rows of V.

    Classical Gram-Schmidt, repeated while a pass cancels more than 30% of
    the norm (the DGKS criterion).  Returns the norm of what is left; a norm
    of 0.0 means that w lay in the span of V to rounding, and w is then
    zeroed.  That is the case after three such passes, or once what is left
    is no larger than the rounding of a pass, k eps ||w|| for k rows: its
    direction is then set by rounding, not by w.
    """
    norm = np.linalg.norm(w)
    floor = V.shape[0] * _EPS * norm
    for _ in range(3):
        w -= (V @ w) @ V
        before, norm = norm, np.linalg.norm(w)
        if norm <= floor:
            break
        if norm > 0.717 * before:
            return norm
    w[:] = 0.0
    return 0.0


def _fresh_direction(V: np.ndarray) -> np.ndarray:
    """A unit vector orthogonal to the orthonormal rows of V (fewer rows than columns).

    It is the unit vector e_k least covered by the rows, orthogonalized.
    """
    k = int(np.argmin(np.einsum("ij,ij->j", V, V)))
    w = np.zeros(V.shape[1])
    w[k] = 1.0
    return w / _orthogonalize(V, w)


def _ground_vector(apply, diagonal: np.ndarray,
                   v0: np.ndarray | None = None) -> tuple[float, np.ndarray, float]:
    """Lowest eigenvalue, unit eigenvector and residual norm of the real
    symmetric operator ``apply`` whose diagonal is ``diagonal``.

    Davidson's method (J. Comput. Phys. 17, 87 (1975)).  The basis V and its
    image H V grow by one vector per matvec, up to DAVIDSON_BASIS rows; a full
    basis restarts from the two lowest Ritz vectors and their images.  The
    lowest Ritz pair (theta, x) gives r = H x - theta x and the correction
    r / (diag H - theta), its denominator floored at eps max|diag H|, which
    is orthogonalized against V; one that lies in the span of V (as on a
    diagonal H) is replaced by a fresh direction.  The start vector is v0,
    or the basis state of smallest diagonal.  The solve stops once
    ||r|| <= RESIDUAL_TOL eps max|diag H| and returns theta, x and ||r||;
    with V orthonormal, theta is the Rayleigh quotient of x.
    """
    scale = _EPS * np.max(np.abs(diagonal))
    m = min(DAVIDSON_BASIS, diagonal.size)
    V, AV = np.empty((m, diagonal.size)), np.empty((m, diagonal.size))
    if v0 is None:
        V[0] = 0.0
        V[0, np.argmin(diagonal)] = 1.0
    else:
        V[0] = v0 / np.linalg.norm(v0)
    AV[0] = apply(V[0])
    k = 1
    for _ in range(MAX_ITERATIONS):
        theta, Y = np.linalg.eigh(V[:k] @ AV[:k].T)
        x, ax = Y[:, 0] @ V[:k], Y[:, 0] @ AV[:k]
        r = ax - theta[0] * x
        residual = float(np.linalg.norm(r))
        if residual <= RESIDUAL_TOL * scale:
            return float(theta[0]), x / np.linalg.norm(x), residual
        if k == m:
            V[:2], AV[:2] = Y[:, :2].T @ V, Y[:, :2].T @ AV
            k = 2
        shift = diagonal - theta[0]
        t = r / np.copysign(np.maximum(np.abs(shift), scale), shift)
        norm = _orthogonalize(V[:k], t)
        V[k] = t / norm if norm > 0.0 else _fresh_direction(V[:k])
        AV[k] = apply(V[k])
        k += 1
    raise NumericalFailureError(
        f"Davidson eigensolver did not converge in {MAX_ITERATIONS} iterations")


def _measure_cm(psi: np.ndarray, spec: TruncationSpec, phase: Phase, order: list[int]):
    """Means and CM of the classical-frame quadratures in the real ground vector
    psi, for a ground state in ``phase``.

    With q = (a + a^dag) / sqrt(2) and k = (a^dag - a) / sqrt(2), the V
    coordinates are (q on x, q on y, -Jx / sqrt(j)) and the T coordinates
    i (k on x, k on y, Ky / sqrt(j)), in ``order`` ([1, 0, 2] for a mirrored
    solve).  So C_qq = V V^T - m m^T with m = V psi, C_pp = W W^T for the real
    images W of the T coordinates, and the T means are 0.
    """
    nb = spec.n_max + 1
    t = psi.reshape(nb, nb, -1)
    a, ad = _boson_ops(spec.n_max)
    jx, ky, _ = _spin_ops(spec.j)

    def images(boson, spin):
        return np.stack([(boson @ t.reshape(nb, -1)).ravel(), (boson @ t).ravel(),
                         (t @ spin.T).ravel()])[order]

    v = images((a + ad) / np.sqrt(2.0), -jx / np.sqrt(spec.j))
    w = images((ad - a) / np.sqrt(2.0), ky / np.sqrt(spec.j))
    m = v @ psi
    index, sign = _STACKED_FRAMES[phase]
    means = np.zeros(6)
    means[list(index[:3])] = np.array(sign[:3]) * m
    return means, from_stacked_frame(phase, v @ v.T - np.outer(m, m), w @ w.T)


def exact_ground_state(p: ModelParams, spec: TruncationSpec,
                       check_convergence: bool = True) -> FiniteSizeResult:
    """Diagonalize the truncated Hamiltonian and measure the classical-frame CM.

    A small symmetry-breaking field pins the finite-size ground state onto the
    branch described by the classical solution whenever the condensate is
    nonzero; a superradiant-y point is solved with its couplings swapped.
    Raises BudgetExceededError when the truncated dimension is too large.
    """
    if spec.dimension > DIMENSION_BUDGET:
        raise BudgetExceededError(
            f"dimension {spec.dimension} exceeds budget {DIMENSION_BUDGET}"
        )
    gs = frame = classical_ground_state(p)
    order = [0, 1, 2]
    if gs.phase is Phase.SUPERRADIANT_Y:
        p, order = p.with_couplings(p.lambda_y, p.lambda_x), [1, 0, 2]
        frame = classical_ground_state(p)
    energy, psi, residual = _ground_vector(*_hamiltonian(p, spec, frame))
    means, cm = _measure_cm(psi, spec, gs.phase, order)

    bigger = TruncationSpec(j=spec.j, n_max=spec.n_max + 2)
    converged, resolve_de = not check_convergence, None
    if check_convergence and bigger.dimension <= DIMENSION_BUDGET:
        nb = spec.n_max + 1
        v0 = np.zeros((nb + 2, nb + 2, spec.dimension // (nb * nb)))
        v0[:nb, :nb] = psi.reshape(nb, nb, -1)
        energy2, _, _ = _ground_vector(*_hamiltonian(p, bigger, frame), v0.ravel())
        converged = bool(abs(energy2 - energy) < CONVERGENCE_TOL)
        resolve_de = abs(energy2 - energy) / spec.j

    return FiniteSizeResult(
        spec=spec,
        energy_per_spin=energy / spec.j,
        cm=CovarianceMatrix(("x", "y", "j"), cm),
        means=means,
        converged=converged,
        resolve_de=resolve_de,
        residual=residual,
    )
