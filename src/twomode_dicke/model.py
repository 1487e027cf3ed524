"""Two-mode Dicke model in the thermodynamic limit.

Classical ground state, phase identification, quadratic fluctuation matrices,
excitation gaps and the ground-state covariance matrix.  Gaps and covariance
matrices come from one exact factorization of the fluctuation matrix,
stacked_ground_states, of which excitation_gaps and ground_state_cm are the
one-point case.  Quadrature ordering is (q_x, p_x, q_y, p_y, Q, P) with Q, P
the collective-spin quadratures.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from enum import Enum

import numpy as np

from . import symplectic
from .errors import GoldstoneLineError, NearSingularError
from .gaussian_info import PURITY_TOL, CovarianceMatrix


class Phase(Enum):
    NORMAL = "normal"
    SUPERRADIANT_X = "superradiant-x"
    SUPERRADIANT_Y = "superradiant-y"


@dataclass(frozen=True)
class ModelParams:
    """Frequencies and couplings; energies are dimensionless multiples of omega."""

    omega: float = 1.0
    omega0: float = 1.0
    lambda_x: float = 0.0
    lambda_y: float = 0.0

    def __post_init__(self):
        if self.omega <= 0.0 or self.omega0 <= 0.0:
            raise ValueError("omega and omega0 must be positive")
        if self.lambda_x < 0.0 or self.lambda_y < 0.0:
            raise ValueError("couplings must be nonnegative")

    @property
    def lambda_c(self) -> float:
        return math.sqrt(self.omega * self.omega0)

    def with_couplings(self, lambda_x: float, lambda_y: float) -> "ModelParams":
        return replace(self, lambda_x=lambda_x, lambda_y=lambda_y)

    def on_goldstone_line(self) -> bool:
        return self.lambda_x == self.lambda_y and self.lambda_x > self.lambda_c


@dataclass(frozen=True)
class ClassicalGroundState:
    """Classical minimum; cos_theta = -(lambda_c / lambda)**2 is exact, theta its arccos."""

    phase: Phase
    alpha_x: float
    alpha_y: float
    theta: float
    phi: float
    energy: float
    cos_theta: float = -1.0


@dataclass(frozen=True)
class ExcitationSpectrum:
    """Normal-mode gaps nu_1 >= nu_2 >= nu_3 >= 0."""

    nu: tuple


def classical_ground_state(p: ModelParams) -> ClassicalGroundState:
    """Minimizer of the classical energy landscape and the ground-state energy."""
    lc = p.lambda_c
    lx, ly = p.lambda_x, p.lambda_y
    if max(lx, ly) <= lc:
        return ClassicalGroundState(
            phase=Phase.NORMAL, alpha_x=0.0, alpha_y=0.0, theta=math.pi, phi=0.0,
            energy=-p.omega0,
        )
    if lx == ly:
        raise GoldstoneLineError(
            "lambda_x = lambda_y above the critical point: ground state is degenerate; "
            "approach the line as a limit"
        )
    if lx > ly:
        ct = -(lc / lx) ** 2
        alpha = -(lx / p.omega) * math.sqrt(1.0 - (lc / lx) ** 4)
        return ClassicalGroundState(
            phase=Phase.SUPERRADIANT_X, alpha_x=alpha, alpha_y=0.0,
            theta=math.acos(ct), phi=0.0,
            energy=_superradiant_energy(p.omega0, lx / lc), cos_theta=ct,
        )
    # the x <-> y mirror image of the superradiant-x minimum, its spin turned by pi/2 about z
    mirror = classical_ground_state(p.with_couplings(ly, lx))
    return replace(mirror, phase=Phase.SUPERRADIANT_Y, alpha_x=0.0, alpha_y=mirror.alpha_x,
                   phi=math.pi / 2.0)


@np.errstate(over="ignore", invalid="ignore")
def _superradiant_energy(omega0: float, x):
    """-(lambda^4 + lambda_c^4) / (2 lambda^2 omega) = -(omega0 / 2)(x^2 + x^-2)
    at x = lambda / lambda_c, so that no power of lambda or lambda_c is formed:
    it neither under- nor overflows where lambda_c does not."""
    return -0.5 * omega0 * (x * x + 1.0 / (x * x))


def ground_state_energy(p: ModelParams) -> float:
    """Ground-state energy per spin; well defined by continuity on the degenerate line."""
    return float(ground_state_energies(p.omega, p.omega0, p.lambda_x, p.lambda_y))


def ground_state_energies(omega: float, omega0: float, lambda_x, lambda_y) -> np.ndarray:
    """ground_state_energy for arrays of couplings."""
    # At x = 1 the superradiant energy is -omega0, that of the normal phase.
    x = np.maximum(np.maximum(lambda_x, lambda_y) / math.sqrt(omega * omega0), 1.0)
    return _superradiant_energy(omega0, x)


def fluctuation_matrix(p: ModelParams) -> np.ndarray:
    """Quadratic-fluctuation matrix K of the stable phase (6x6, symmetric)."""
    gs = classical_ground_state(p)
    w, lc = p.omega, p.lambda_c
    lx, ly = p.lambda_x, p.lambda_y
    K = np.diag([w, w, w, w, 0.0, 0.0])
    if gs.phase is Phase.NORMAL:
        K[4, 4] = K[5, 5] = lc**2 / w
        K[0, 4] = K[4, 0] = lx
        K[2, 5] = K[5, 2] = ly
    elif gs.phase is Phase.SUPERRADIANT_X:
        K[4, 4] = K[5, 5] = lx**2 / w
        K[0, 4] = K[4, 0] = -lc**2 / lx
        K[2, 5] = K[5, 2] = ly
    else:
        K[4, 4] = K[5, 5] = ly**2 / w
        K[2, 4] = K[4, 2] = lc**2 / ly
        K[0, 5] = K[5, 0] = lx
    return K


def excitation_gaps(p: ModelParams) -> ExcitationSpectrum:
    """Normal-mode gaps, sorted descending: stacked_ground_states at one point.

    On the degenerate line lambda_x = lambda_y > lambda_c the soft mode is
    exactly zero.
    """
    _, _, gs = _one_point(p)
    return ExcitationSpectrum(nu=tuple(gs.nu[0].tolist()))


def ground_state_cm(p: ModelParams) -> CovarianceMatrix:
    """Ground-state covariance matrix over modes (x, y, j): stacked_cms at one point.

    Raises NearSingularError where the point has no physical pure Gaussian
    ground state (StackedGroundStates.physical), e.g. at a critical coupling
    or on the degenerate line.
    """
    x, y, gs = _one_point(p)
    if not gs.physical[0]:
        raise NearSingularError(
            f"no pure Gaussian ground state at lambda / lambda_c = ({x[0]!r}, {y[0]!r})")
    return CovarianceMatrix(("x", "y", "j"), stacked_cms(x, y, gs)[0])


def _one_point(p: ModelParams):
    """The couplings of p in units of lambda_c, as 1-element arrays, and their ground state."""
    x, y = np.array([p.lambda_x / p.lambda_c]), np.array([p.lambda_y / p.lambda_c])
    return x, y, stacked_ground_states(p.omega, p.omega0, x, y)


@dataclass(frozen=True)
class StackedGroundStates:
    """Ground-state data of n grid points, as arrays.

    nu is (n, 3), descending; det2 is det(2C) and det2_modes the (n, 3)
    single-mode det(2C_i) of modes x, y, j.  stable is False where the
    fluctuation matrix is not positive definite, nu_3 / lambda_c <
    GAP_FLOOR, or the factorization overflows (nu is NaN there); det2 and
    det2_modes are meaningless there.
    """

    nu: np.ndarray
    det2: np.ndarray
    det2_modes: np.ndarray
    stable: np.ndarray
    #: (n, 3, 3) blocks of 2C over the V and T coordinates of the factorization.
    c_qq: np.ndarray
    c_pp: np.ndarray

    @property
    def physical(self) -> np.ndarray:
        """Where the points have a physical, pure Gaussian ground state.

        Rounding next to a singular point can leave a stable point's 2C
        impure or unphysical, so besides stable this asks for |det(2C) - 1|
        <= PURITY_TOL and every single-mode det(2C_i) >= 1 - PURITY_TOL.
        """
        return (self.stable & (np.abs(self.det2 - 1.0) <= PURITY_TOL)
                & np.all(self.det2_modes >= 1.0 - PURITY_TOL, axis=1))


@np.errstate(over="ignore", invalid="ignore")
def stacked_ground_states(omega: float, omega0: float, x, y) -> StackedGroundStates:
    """Gaps and covariance determinants at 1-D arrays of couplings in units of lambda_c.

    The phase of each point is chosen by mask, with the rules of
    classical_ground_state; a point on the degenerate line x = y > 1 is
    unstable.  Rotating one boson mode by 90 degrees in phase space, a local
    symplectic map that changes no single-mode quantity, makes
    fluctuation_matrix / lambda_c block diagonal over positions and momenta:
    V (+) T, each diag(rho, rho, kappa) plus one boson-spin coupling, with
    rho = sqrt(omega / omega0); the signs of the couplings drop out, since
    (q, p) -> (-q, -p) on one mode flips them.  With Cholesky factors
    V = L_V L_V^T, T = L_T L_T^T and the SVD L_V^T L_T = U diag(sigma) W^T:

        nu = lambda_c sigma,  2C_qq = L_T W sigma^-1 W^T L_T^T,
        2C_pp = L_V U sigma^-1 U^T L_V^T,  2C_qp = 0,

    so det(2C_i) = (2C_qq)_ii (2C_pp)_ii is a product of sums of squares.
    The Cholesky pivots are written in factored form, e.g. (1 - x)(1 + x) / rho,
    and sigma_3 is taken from det(L_V^T L_T) = rho^2 sqrt(pivot_V pivot_T),
    so both stay accurate next to the critical and degenerate lines.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    rho = math.sqrt(omega / omega0)
    normal, sr_x, sr_y = _phase_masks(x, y)
    # Boson-spin couplings in V (to Q) and T (to P), columns (x, y), and pivots.
    g_v, g_t = np.zeros((x.size, 2)), np.zeros((x.size, 2))
    piv_v, piv_t = np.empty(x.size), np.empty(x.size)
    a, b = x[normal], y[normal]
    g_v[normal, 0], g_t[normal, 1] = a, b
    piv_v[normal] = (1.0 - a) * (1.0 + a) / rho
    piv_t[normal] = (1.0 - b) * (1.0 + b) / rho
    for mask, lam, other, col in ((sr_x, x, y, 0), (sr_y, y, x, 1)):
        a, b = lam[mask], other[mask]
        g_v[mask, col] = 1.0 / a
        g_t[mask, 1 - col] = b
        piv_v[mask] = (a - 1.0) * (a + 1.0) * (a * a + 1.0) / (a * a * rho)
        piv_t[mask] = (a - b) * (a + b) / rho

    def cholesky(g, piv):
        L = np.zeros((x.size, 3, 3))
        L[:, 0, 0] = L[:, 1, 1] = math.sqrt(rho)
        L[:, 2, :2] = g / math.sqrt(rho)
        L[:, 2, 2] = np.sqrt(piv)
        return L

    l_v, l_t = cholesky(g_v, piv_v), cholesky(g_t, piv_t)
    # An overflowing pivot or rho leaves L_V^T L_T non-finite: such a point is
    # unstable, with NaN gaps, and the SVD gets the identity in its place.
    m = l_v.transpose(0, 2, 1) @ l_t
    finite = np.isfinite(m).all(axis=(1, 2))
    m[~finite] = l_v[~finite] = l_t[~finite] = np.eye(3)
    u, sigma, wt = np.linalg.svd(m)
    sigma[:, 2] = rho * rho * np.sqrt(piv_v * piv_t) / (sigma[:, 0] * sigma[:, 1])
    sigma[~finite] = math.nan
    nu = math.sqrt(omega * omega0) * sigma
    stable = finite & (piv_v > 0.0) & (piv_t > 0.0) & (sigma[:, 2] >= symplectic.GAP_FLOOR)
    scale = 1.0 / np.sqrt(np.where(stable[:, None], sigma, 1.0))[:, None, :]
    f_q = l_t @ wt.transpose(0, 2, 1) * scale
    f_p = l_v @ u * scale
    c_qq = f_q @ f_q.transpose(0, 2, 1)
    c_pp = f_p @ f_p.transpose(0, 2, 1)
    return StackedGroundStates(
        nu=nu,
        det2=np.linalg.det(c_qq) * np.linalg.det(c_pp),
        det2_modes=c_qq.diagonal(0, 1, 2) * c_pp.diagonal(0, 1, 2),
        stable=stable,
        c_qq=c_qq,
        c_pp=c_pp,
    )


def _phase_masks(x: np.ndarray, y: np.ndarray):
    """Normal, superradiant-x and superradiant-y masks, by the rules of classical_ground_state."""
    normal = np.maximum(x, y) <= 1.0
    sr_x = ~normal & (x >= y)
    return normal, sr_x, ~normal & ~sr_x


#: Per phase, the signed permutation zeta_k = sign_k * xi_index_k from the
#: quadratures xi = (q_x, p_x, q_y, p_y, Q, P) to the coordinates zeta = (V of
#: x, y, j; T of x, y, j) of stacked_ground_states, in which the oracle also
#: measures its CM.  It rotates the boson whose position couples to P by 90
#: degrees, and flips mode x of the superradiant-x phase (coupling to Q < 0).
_STACKED_FRAMES = {
    Phase.NORMAL: ((0, 3, 4, 1, 2, 5), (1.0, -1.0, 1.0, 1.0, 1.0, 1.0)),
    Phase.SUPERRADIANT_X: ((0, 3, 4, 1, 2, 5), (-1.0, -1.0, 1.0, -1.0, 1.0, 1.0)),
    Phase.SUPERRADIANT_Y: ((1, 2, 4, 0, 3, 5), (-1.0, 1.0, 1.0, 1.0, 1.0, 1.0)),
}


def from_stacked_frame(phase: Phase, c_qq: np.ndarray, c_pp: np.ndarray) -> np.ndarray:
    """The CMs over xi = (q_x, p_x, q_y, p_y, Q, P) of points in one phase, from
    their (..., 3, 3) blocks c_qq and c_pp over the V and T coordinates (C_qp = 0),
    by the signed permutation _STACKED_FRAMES[phase]."""
    index, sign = (np.array(t) for t in _STACKED_FRAMES[phase])
    zeta = np.zeros(c_qq.shape[:-2] + (6, 6))
    zeta[..., :3, :3], zeta[..., 3:, 3:] = c_qq, c_pp
    cm = np.empty_like(zeta)
    cm[..., index[:, None], index] = np.outer(sign, sign) * zeta
    return cm


def stacked_cms(x, y, gs: StackedGroundStates) -> np.ndarray:
    """Ground-state covariance matrices C, (n, 6, 6) over modes (x, y, j), of the
    points of stacked_ground_states(omega, omega0, x, y).

    C is (2C_qq (+) 2C_pp) / 2 in the coordinates of the factorization, mapped
    back by from_stacked_frame in each point's phase.  Where gs.stable is
    False the values are meaningless.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    cm = np.empty((x.size, 6, 6))
    for mask, phase in zip(_phase_masks(x, y), Phase):
        cm[mask] = from_stacked_frame(phase, 0.5 * gs.c_qq[mask], 0.5 * gs.c_pp[mask])
    return cm


@dataclass(frozen=True)
class ScanPoint:
    coupling: float
    energy: float
    d1: float
    d2: float


def _jump_index(values: np.ndarray, threshold_factor: float = 10.0):
    """Index of an isolated jump in a sampled function, or None.

    A jump is a single first difference far above the bulk (75th percentile)
    of the others; smooth kinks spread over the grid spacing do not trigger.
    """
    good = np.isfinite(values)
    diffs = np.abs(np.diff(values[good]))
    if diffs.size < 4:
        return None
    scale = max(np.max(np.abs(values[good])), 1.0)
    floor = 1e-9 * scale
    bulk = np.percentile(diffs, 75.0) + floor
    imax = int(np.argmax(diffs))
    if diffs[imax] <= threshold_factor * bulk:
        return None
    # Map back to an index into the original (possibly nan-padded) array.
    return int(np.nonzero(good)[0][imax])


def gs_energy_derivative_scan(p: ModelParams, axis: str, grid):
    """Finite-difference energy derivatives along one coupling axis.

    Returns (points, jumps): one ScanPoint per grid value, with staggered
    forward differences re-centered onto the grid (nan at the edges), and a
    dict flagging the bin of a first-order jump (in dE) and of a
    second-order jump (in d2E).
    """
    grid = np.asarray(grid, dtype=float)
    if grid.size < 5 or np.any(np.diff(grid) <= 0.0) or grid[0] < 0.0:
        raise ValueError("grid must be nonnegative, strictly increasing, with at least 5 points")
    if axis not in ("x", "y"):
        raise ValueError("axis must be 'x' or 'y'")

    lambda_x, lambda_y = (grid, p.lambda_y) if axis == "x" else (p.lambda_x, grid)
    energy = ground_state_energies(p.omega, p.omega0, lambda_x, lambda_y)
    h = np.diff(grid)
    d1_mid = np.diff(energy) / h                      # at midpoints
    d2_grid = np.full(grid.size, np.nan)
    d2_grid[1:-1] = np.diff(d1_mid) / (0.5 * (h[1:] + h[:-1]))
    d1_grid = np.full(grid.size, np.nan)
    d1_grid[1:-1] = 0.5 * (d1_mid[1:] + d1_mid[:-1])

    points = [
        ScanPoint(coupling=float(grid[i]), energy=float(energy[i]),
                  d1=float(d1_grid[i]), d2=float(d2_grid[i]))
        for i in range(grid.size)
    ]
    jumps = {
        "first_order": _jump_index(d1_mid),
        "second_order": _jump_index(d2_grid),
    }
    return points, jumps
