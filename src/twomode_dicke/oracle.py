"""Finite-size exact diagonalization of the two-mode Dicke Hamiltonian.

Serves as an independent numerical check of the thermodynamic-limit results.
H is solved in units of lambda_c = sqrt(omega omega0), as the sweep is: H /
lambda_c depends on rho = sqrt(omega / omega0) and the couplings in units of
lambda_c alone, so scaling omega and omega0 together changes no solve.
The Hamiltonian is built directly in the frame of the classical ground state:
each boson is displaced by its condensate amplitude (an exact operator
substitution a -> a + sqrt(j) alpha) and the spin is rotated onto the
classical minimum.  There the extensive classical energy and every term
linear in the fluctuations cancel exactly, on paper, so H / lambda_c is
solved as a scalar plus a fluctuation operator, e_const + H_fl, whose
factors are tridiagonal and hold only O(1) terms (see _hamiltonian).  The
truncated Fock cutoff therefore only has to hold O(1) quantum fluctuations,
not the extensive condensate, applying H_fl rounds at their scale, and the
measured quadrature covariance matrix converges to the analytic ground-state
covariance matrix at rate O(1/j).

Swapping x and y and rotating the spin by pi/2 about z (with a parity on one
boson) maps H at (lambda_x, lambda_y) onto H at (lambda_y, lambda_x), so every
point with lambda_y > lambda_x is solved as its mirror image, and y, the boson
of the smaller coupling, is never condensed.  H is real symmetric: the one
imaginary term couples y's a + a^dag to Jy, and conjugating by D = diag(i^n)
on its Fock index maps (q, p) -> (-p, q) there and makes the term real.  C_qq
and C_pp are then two real Gram matrices over the position (V) and momentum
(T) coordinates of model.stacked_ground_states, mapped back by its frame table.

H_fl is never stored.  It is a sum of Kronecker products of small real
factors (nb x nb boson and ns x ns spin matrices), so it is applied to a
state reshaped to (nb, nb, ns) one tensor axis at a time.  It is close to
diagonal in the Fock (x) Dicke basis, so its lowest eigenpair is found by
Davidson's method preconditioned by diag H_fl, which comes from the factors'
diagonals; the solve starts from the basis state of smallest diagonal, the
classical-frame vacuum, where diag H_fl is 0.  The convergence check
re-solves at n_max + 2, starting from the n_max ground vector, zero-padded;
as only its energy is used, it stops once that energy is resolved to about
one rounding unit, which takes about half the matvecs of a full solve.

Hilbert space ordering is boson-x (x) boson-y (x) spin; quadratures are
reported in the usual (q_x, p_x, q_y, p_y, Q, P) order with Q, P the
collective-spin quadratures of the rotated frame.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import BudgetExceededError, NumericalFailureError
from .model import _STACKED_FRAMES, ModelParams, Phase, from_stacked_frame

#: Largest Hilbert-space dimension the oracle will diagonalize.
DIMENSION_BUDGET = 200_000

#: Strength, in units of lambda_c, of the symmetry-breaking field that pins
#: the finite-size ground state onto the classical branch of a condensate.
SYMMETRY_BREAKING_FIELD = 1e-4

#: The ground energy, in units of omega, must move less than this under
#: n_max -> n_max + 2 for the truncation to count as converged.
CONVERGENCE_TOL = 1e-8

#: Largest basis of the Davidson solver.
DAVIDSON_BASIS = 16

#: Iterations, one matvec each, after which the Davidson solver gives up.
MAX_ITERATIONS = 2000

#: The Davidson solver stops once ||H x - theta x|| <= RESIDUAL_TOL eps
#: max|diag H|, H the fluctuation operator H_fl.  That residual cannot fall
#: below the rounding of applying H: over 336 solves run for 500 matvecs
#: (omega / omega0 = 0.01, 1 and 100, all phases and critical edges, j <= 20,
#: n_max <= 10) the least residual was <= 29.  The energy error is
#: <= ||r||^2 / gap, so the n_max + 2 re-solve, whose energy alone is used,
#: may stop before this: at ||r||^2 <= eps |E| gap (see _ground_vector's
#: ``e_const``).
RESIDUAL_TOL = 64

_EPS = np.finfo(float).eps


@dataclass(frozen=True)
class TruncationSpec:
    """Finite-size control parameters: spin length j and per-boson cutoff."""

    j: float
    n_max: int

    def __post_init__(self):
        if not 0 < self.j < math.inf or (2.0 * self.j) != round(2.0 * self.j):
            raise ValueError("j must be a positive integer or half-integer")
        if self.n_max < 1:
            raise ValueError("n_max must be at least 1")

    @property
    def dimension(self) -> int:
        return (self.n_max + 1) ** 2 * (int(round(2.0 * self.j)) + 1)


@dataclass(frozen=True)
class FiniteSizeResult:
    """Ground state of the truncated finite-j Hamiltonian, in the classical frame;
    energies per spin are in units of omega, as the CLI writes them."""

    spec: TruncationSpec
    energy_per_spin: float
    #: (6, 6) covariance matrix over (q_x, p_x, q_y, p_y, Q, P).
    cm: np.ndarray
    means: np.ndarray
    #: |E(n_max + 2) - E(n_max)| per spin; None if that re-solve did not run
    #: or did not converge.
    resolve_de: float | None
    #: ||H psi - E psi|| of the returned ground vector at n_max, the
    #: eigensolver's convergence evidence (in units of lambda_c, not per spin).
    residual: float

    @property
    def converged(self) -> bool:
        """Whether the n_max + 2 re-solve ran and moved the energy by less than
        CONVERGENCE_TOL; False with check_convergence off, over the budget or
        where the re-solve did not converge."""
        return self.resolve_de is not None and self.resolve_de * self.spec.j < CONVERGENCE_TOL


def _boson_ops(n_max: int):
    a = np.diag(np.sqrt(np.arange(1.0, n_max + 1)), 1)
    return a, a.T


def _spin_ops(j: float):
    """Jx, Ky = i Jy and Jz: all three real."""
    m = np.arange(j, -j - 1.0, -1.0)
    # J+ |j, m> = sqrt(j(j+1) - m(m+1)) |j, m+1>; basis ordered m = j .. -j.
    jp = np.diag(np.sqrt(j * (j + 1.0) - m[1:] * (m[1:] + 1.0)), 1)
    return 0.5 * (jp + jp.T), 0.5 * (jp - jp.T), np.diag(m)


@np.errstate(over="ignore", invalid="ignore")
def _hamiltonian(rho: float, a: float, b: float, spec: TruncationSpec):
    """H / lambda_c = e_const + H_fl at rho = sqrt(omega / omega0) and canonical
    couplings a >= b in units of lambda_c, in the classical frame of the normal
    (a <= 1) or superradiant-x minimum.

    A boson costs rho n, the spin Jz / rho.  With a_bar = max(a, 1) the minimum
    has ct = cos(theta) = -a_bar^-2, st = sin(theta) >= 0 and alpha =
    -(a / rho) st.  The frame displaces mode x by the exact substitution
    a -> a + dx, dx = sqrt(j / 2) alpha, and rotates the spin by
    U = e^{-i theta Jy}: U^dag Jz U = ct Jz - st Jx and
    U^dag Jx U = ct Jx + st Jz.  With Jz = j - K, K = diag(0 .. 2j) the
    rotated spin's excitation number, X = a + a^dag and g = 1 / sqrt(2j),
    this is

        H_fl    = rho N_x + rho N_y + (a_bar^2 / rho) K + h X_x
                  + a g X_x (x) (ct Jx - st K) + b g (a - a^dag)_y (x) Ky
        e_const = -(j / 2 rho)(a_bar^2 + a_bar^-2) + 2 h dx,

    h the symmetry-breaking field on a condensed mode x.  The coefficient of
    Jx, a alpha ct - st / rho, and the boson's linear term, rho dx + a g st j,
    vanish identically at the minimum, so neither is formed, and the extensive
    classical energy is the scalar e_const: applying H_fl rounds at the scale
    of the O(1) fluctuations, not at that of j e_gs.  The only imaginary term,
    (a + a^dag) Jy on the uncondensed mode y, is made real by conjugating with
    D = diag(i^n) on its Fock index: D^dag a D = i a, so the term becomes
    (a - a^dag)(i Jy), with Ky = i Jy real.  Nothing else changes, because
    a^dag a is invariant under D, and mode y carries neither a displacement
    nor the field.  Every factor is real and tridiagonal.

    Returns ``(apply, diagonal, e_const)``: ``apply(v)`` takes v of shape
    (dimension,) or (k, dimension), one state per row, and returns H_fl v in
    the same shape; ``diagonal`` is diag H_fl, the sum of the factors'
    diagonals in the order ``apply`` sums the terms.
    """
    nb = spec.n_max + 1
    ns = int(round(2.0 * spec.j)) + 1
    a_bar = max(a, 1.0)
    ct = -(1.0 / a_bar) ** 2
    st = math.sqrt((1.0 - ct) * (1.0 + ct))
    alpha = -(a / rho) * st
    # pin the Z2-degenerate branch by a weak field on the condensed mode
    h_x = SYMMETRY_BREAKING_FIELD if a > 1.0 else 0.0
    # Condensate amplitude: <a> = sqrt(j/2) * alpha in this normalization.
    dx = math.sqrt(spec.j / 2.0) * alpha
    e_const = -(spec.j / (2.0 * rho)) * (a_bar ** 2 + a_bar ** -2) + 2.0 * h_x * dx

    down, up = _boson_ops(spec.n_max)
    x = down + up
    number = np.diag(np.arange(float(nb)))
    jx, ky, _ = _spin_ops(spec.j)
    k = np.arange(float(ns))

    g = 1.0 / np.sqrt(2.0 * spec.j)
    b_x, b_y = rho * number + h_x * x, rho * number
    spin = (a_bar ** 2 / rho) * k
    c_x, c_y = a * g * x, b * g * (down - up)  # D^dag (a + a^dag) D = i (a - a^dag)
    # C-contiguous transposes: the stacked matmul with a transposed view is
    # about 10% slower
    s_x_t, ky_t = (ct * jx - st * np.diag(k)).T.copy(), ky.T.copy()
    if not all(np.isfinite(f).all() for f in (b_x, b_y, c_x, c_y, spin, e_const)):
        raise OverflowError("a factor of the Hamiltonian is not finite")

    def on_x(op, t):
        return (op @ t.reshape(-1, nb, nb * ns)).reshape(t.shape)

    def apply(v: np.ndarray) -> np.ndarray:
        psi = v.reshape(-1, nb, nb, ns)
        out = on_x(b_x, psi)
        out += b_y @ psi
        out += psi * spin
        out += on_x(c_x, psi @ s_x_t)
        out += c_y @ (psi @ ky_t)
        return out.reshape(v.shape)

    diagonal = np.diag(b_x)[:, None, None] + np.diag(b_y)[:, None] + spin
    return apply, diagonal.ravel(), e_const


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


def _ground_vector(apply, diagonal: np.ndarray, v0: np.ndarray | None = None, *,
                   e_const: float | None = None) -> tuple[float, np.ndarray, float]:
    """Lowest eigenvalue, unit eigenvector and residual norm of the real
    symmetric operator ``apply`` whose diagonal is ``diagonal``.

    Davidson's method (J. Comput. Phys. 17, 87 (1975)).  The basis V and its
    image H V grow by one vector per matvec, up to DAVIDSON_BASIS rows, and
    the projection G = V H V^T by one lower-triangle row, G[k, :k+1] =
    H V[:k+1] . V[k]; a full basis restarts from the two lowest Ritz vectors
    and their images, and their 2x2 block of G is formed anew.  The lowest
    Ritz pair (theta, x) gives r = H x - theta x and the correction
    r / (diag H - theta), its denominator floored at eps max|diag H|, which
    is orthogonalized against V; one that lies in the span of V (as on a
    diagonal H) is replaced by a fresh direction.  The start vector is v0,
    or the basis state of smallest diagonal.  The solve stops once
    ||r|| <= RESIDUAL_TOL eps max|diag H| and returns theta, x and ||r||;
    with V orthonormal, theta is the Rayleigh quotient of x.

    The error of theta is about ||r||^2 / (lambda_1 - theta).  A caller that
    uses theta alone passes the constant e_const that its operator leaves out
    of the energy (see _hamiltonian), and the solve also stops once
    ||r||^2 <= eps |theta + e_const| (theta_1 - theta), theta_1 the second
    Ritz value, which puts the energy theta + e_const near one rounding unit
    of its value.  By interlacing theta_1 >= lambda_1 overestimates the gap,
    and no cheap lower bound on lambda_1 exists (Temple's and Lehmann's
    bounds take one as input), so the rule is checked against full solves:
    over 384 warm re-solves (all phases and near the critical and Goldstone
    lines, omega / omega0 from 0.1 to 10, j <= 20, n_max <= 10) theta stayed
    within 2.2 eps max|diag H| of a full solve's, the rounding of applying H.
    After MAX_ITERATIONS matvecs the solve raises NumericalFailureError.
    """
    top = float(np.max(np.abs(diagonal)))
    scale = _EPS * top
    # ||r|| is taken of r times this power of two, exactly, so that the squares
    # of its entries neither overflow (max|diag H| above ~1e154) nor underflow
    unit = math.ldexp(1.0, -math.frexp(top)[1])
    m = min(DAVIDSON_BASIS, diagonal.size)
    V, AV = np.empty((m, diagonal.size)), np.empty((m, diagonal.size))
    G = np.empty((m, m))
    if v0 is None:
        V[0] = 0.0
        V[0, np.argmin(diagonal)] = 1.0
    else:
        V[0] = v0 / np.linalg.norm(v0)
    AV[0] = apply(V[0])
    G[0, 0] = AV[0] @ V[0]
    k = 1
    for _ in range(MAX_ITERATIONS):
        theta, Y = np.linalg.eigh(G[:k, :k], UPLO="L")
        x, ax = Y[:, 0] @ V[:k], Y[:, 0] @ AV[:k]
        r = ax - theta[0] * x
        r_unit = float(np.linalg.norm(r * unit))
        residual = r_unit / unit
        # the energy rule, with every length in units of 1 / unit as ||r|| is
        resolved = e_const is not None and k > 1 and r_unit ** 2 <= (
            _EPS * abs((theta[0] + e_const) * unit) * ((theta[1] - theta[0]) * unit))
        if residual <= RESIDUAL_TOL * scale or resolved:
            return float(theta[0]), x / np.linalg.norm(x), residual
        if k == m:
            V[:2], AV[:2] = Y[:, :2].T @ V, Y[:, :2].T @ AV
            G[:2, :2] = V[:2] @ AV[:2].T
            k = 2
        shift = diagonal - theta[0]
        t = r / np.copysign(np.maximum(np.abs(shift), scale), shift)
        norm = _orthogonalize(V[:k], t)
        V[k] = t / norm if norm > 0.0 else _fresh_direction(V[:k])
        AV[k] = apply(V[k])
        G[k, :k + 1] = AV[:k + 1] @ V[k]
        k += 1
    raise NumericalFailureError(
        f"Davidson eigensolver did not converge in {MAX_ITERATIONS} iterations")


def _measure_cm(psi: np.ndarray, spec: TruncationSpec, frame: tuple):
    """Means and CM of the classical-frame quadratures in the real ground vector
    psi of a solve in ``frame``, the (phase, mirrored) key of _STACKED_FRAMES.

    With q = (a + a^dag) / sqrt(2) and k = (a^dag - a) / sqrt(2), the V
    coordinates are (q on x, q on y, -Jx / sqrt(j)) and the T coordinates
    i (k on x, k on y, Ky / sqrt(j)) of the solve, in the canonical layout.
    So C_qq = V V^T - m m^T with m = V psi, C_pp = W W^T for the real images
    W of the T coordinates, and the T means are 0.
    """
    nb = spec.n_max + 1
    t = psi.reshape(nb, nb, -1)
    a, ad = _boson_ops(spec.n_max)
    jx, ky, _ = _spin_ops(spec.j)

    def images(boson, spin):
        return np.stack([(boson @ t.reshape(nb, -1)).ravel(), (boson @ t).ravel(),
                         (t @ spin.T).ravel()])

    v = images((a + ad) / np.sqrt(2.0), -jx / np.sqrt(spec.j))
    w = images((ad - a) / np.sqrt(2.0), ky / np.sqrt(spec.j))
    m = v @ psi
    index, sign = _STACKED_FRAMES[frame]
    means = np.zeros(6)
    means[list(index[:3])] = np.array(sign[:3]) * m
    return means, from_stacked_frame(frame, v @ v.T - np.outer(m, m), w @ w.T)


def exact_ground_state(p: ModelParams, spec: TruncationSpec,
                       check_convergence: bool = True) -> FiniteSizeResult:
    """Diagonalize the truncated Hamiltonian and measure the classical-frame CM.

    H / lambda_c = e_const + H_fl is solved at the canonical couplings a >= b
    of p in units of lambda_c = rho omega0: a point with lambda_y > lambda_x is
    solved as its mirror image.  e_const is added once to the energy, and
    resolve_de is the difference of the two fluctuation energies.
    Raises BudgetExceededError when the truncated dimension is too large,
    OverflowError where e_const or a factor of H_fl, at n_max or n_max + 2, is
    not finite, and NumericalFailureError where the n_max solve does not
    converge (see _ground_vector); where the n_max + 2 re-solve does not,
    resolve_de is None.
    """
    if spec.dimension > DIMENSION_BUDGET:
        raise BudgetExceededError(
            f"dimension {spec.dimension} exceeds budget {DIMENSION_BUDGET}"
        )
    rho = math.sqrt(p.omega / p.omega0)
    b, a = sorted((p.lambda_x / p.lambda_c, p.lambda_y / p.lambda_c))
    frame = (Phase.SUPERRADIANT_X if a > 1.0 else Phase.NORMAL, p.lambda_y > p.lambda_x)
    apply, diagonal, e_const = _hamiltonian(rho, a, b, spec)
    theta, psi, residual = _ground_vector(apply, diagonal)
    means, cm = _measure_cm(psi, spec, frame)

    bigger = TruncationSpec(j=spec.j, n_max=spec.n_max + 2)
    resolve_de = None
    if check_convergence and bigger.dimension <= DIMENSION_BUDGET:
        nb = spec.n_max + 1
        v0 = np.zeros((nb + 2, nb + 2, spec.dimension // (nb * nb)))
        v0[:nb, :nb] = psi.reshape(nb, nb, -1)
        apply, diagonal, _ = _hamiltonian(rho, a, b, bigger)
        try:
            theta2, _, _ = _ground_vector(apply, diagonal, v0.ravel(), e_const=e_const)
        except NumericalFailureError:
            pass
        else:
            resolve_de = abs(theta2 - theta) / spec.j / rho

    return FiniteSizeResult(
        spec=spec,
        energy_per_spin=(theta + e_const) / spec.j / rho,
        cm=cm,
        means=means,
        resolve_de=resolve_de,
        residual=residual,
    )
