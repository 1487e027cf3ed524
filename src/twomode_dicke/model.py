"""Two-mode Dicke model in the thermodynamic limit.

Classical ground state, phase identification, quadratic fluctuation matrices,
excitation gaps and the ground-state covariance matrix, all from
stacked_ground_states (excitation_gaps and ground_state_cm are its one-point
case): gaps from one exact factorization of the fluctuation matrix, both
covariance-matrix blocks from one closed form in them.  Quadrature ordering
is (q_x, p_x, q_y, p_y, Q, P) with Q, P the collective-spin quadratures.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from enum import Enum

import numpy as np

from . import symplectic
from .errors import GoldstoneLineError, NearSingularError
from .gaussian_info import CovarianceMatrix


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
        # written so that NaN fails; inf passes, and _hamiltonian raises OverflowError on it
        if not (self.omega > 0.0 and self.omega0 > 0.0):
            raise ValueError("omega and omega0 must be positive")
        if not (self.lambda_x >= 0.0 and self.lambda_y >= 0.0):
            raise ValueError("couplings must be nonnegative")

    @property
    def lambda_c(self) -> float:
        """sqrt(omega omega0) as rho omega0: omega omega0 may leave the floats."""
        return math.sqrt(self.omega / self.omega0) * self.omega0

    def with_couplings(self, lambda_x: float, lambda_y: float) -> "ModelParams":
        return replace(self, lambda_x=lambda_x, lambda_y=lambda_y)


@dataclass(frozen=True)
class ClassicalGroundState:
    """Classical minimum; theta is the arccos of cos(theta) = -(lambda_c / lambda)**2."""

    phase: Phase
    alpha_x: float
    alpha_y: float
    theta: float
    phi: float
    energy: float


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
        alpha = -(lx / p.omega) * math.sqrt(1.0 - (lc / lx) ** 4)
        return ClassicalGroundState(
            phase=Phase.SUPERRADIANT_X, alpha_x=alpha, alpha_y=0.0,
            theta=math.acos(-(lc / lx) ** 2), phi=0.0,
            energy=_superradiant_energy(p.omega0, lx / lc),
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
    x, y = np.divide([p.lambda_x, p.lambda_y], p.lambda_c)
    return float(ground_state_energies(p.omega0, x, y))


def ground_state_energies(omega0: float, x, y) -> np.ndarray:
    """ground_state_energy for arrays of couplings x, y in units of lambda_c."""
    # At max(x, y) = 1 the superradiant energy is -omega0, that of the normal phase.
    return _superradiant_energy(omega0, np.maximum(np.maximum(x, y), 1.0))


def fluctuation_matrix(p: ModelParams) -> np.ndarray:
    """Quadratic-fluctuation matrix K of the stable phase (6x6, symmetric)."""
    gs = classical_ground_state(p)
    w, w0, lc = p.omega, p.omega0, p.lambda_c
    lx, ly = p.lambda_x, p.lambda_y
    # lambda_c^2 / omega = omega0, lambda^2 / omega = (lambda / lambda_c)^2 omega0: no squares
    K = np.diag([w, w, w, w, 0.0, 0.0])
    if gs.phase is Phase.NORMAL:
        K[4, 4] = K[5, 5] = w0
        K[0, 4] = K[4, 0] = lx
        K[2, 5] = K[5, 2] = ly
    elif gs.phase is Phase.SUPERRADIANT_X:
        K[4, 4] = K[5, 5] = (lx / lc) ** 2 * w0
        K[0, 4] = K[4, 0] = -lc / (lx / lc)
        K[2, 5] = K[5, 2] = ly
    else:
        K[4, 4] = K[5, 5] = (ly / lc) ** 2 * w0
        K[2, 4] = K[4, 2] = lc / (ly / lc)
        K[0, 5] = K[5, 0] = lx
    return K


def excitation_gaps(p: ModelParams) -> tuple[float, float, float]:
    """Normal-mode gaps (nu_1, nu_2, nu_3), nu_1 >= nu_2 >= nu_3 >= 0:
    stacked_ground_states at one point.

    On the degenerate line lambda_x = lambda_y > lambda_c the soft mode is
    exactly zero.
    """
    _, _, gs = _one_point(p)
    return tuple(gs.nu[0].tolist())


def ground_state_cm(p: ModelParams) -> CovarianceMatrix:
    """Ground-state covariance matrix over modes (x, y, j): stacked_cms at one point.

    Raises NearSingularError where the point is not StackedGroundStates.stable,
    e.g. at a critical coupling or on the degenerate line.
    """
    x, y, gs = _one_point(p)
    if not gs.stable[0]:
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

    nu is (n, 3), descending; entropies the (n, 3) Renyi-2 entropies
    S_i = ln det(2C_i) / 2 >= 0 of modes x, y, j; det_gamma the (n, 3)
    det gamma of the pairs without x, y, j, gamma the 2x2 cross block of 2C
    between the pair (signs in _two_c_qq).  stable is False where the
    fluctuation matrix is not positive definite, nu_3 / lambda_c < GAP_FLOOR,
    or L_V^T L_T or sigma overflows (nu is NaN there), and entropies and
    det_gamma are NaN there; elsewhere 2C is pure, as 2C_qq 2C_pp = I.
    two_c_qq and two_c_pp are the (n, 3, 3) blocks 2C_qq and 2C_pp over the
    V and T coordinates in the canonical layout (the larger coupling's boson,
    the other, j), from which stacked_cms forms the covariance matrices.
    """

    nu: np.ndarray
    entropies: np.ndarray
    det_gamma: np.ndarray
    stable: np.ndarray
    two_c_qq: np.ndarray
    two_c_pp: np.ndarray


@np.errstate(over="ignore", invalid="ignore", divide="ignore")
def stacked_ground_states(omega: float, omega0: float, x, y) -> StackedGroundStates:
    """Gaps, single-mode entropies and covariance-matrix blocks at 1-D arrays
    of couplings in units of lambda_c.

    Each point is factored at its canonical couplings a = max(x, y), b =
    min(x, y): a point with y > x as its exact x <-> y mirror image, modes
    swapped and spin turned by pi/2 about z.  It is normal where a <= 1; a
    point on the degenerate line x = y > 1 is unstable.  Rotating one boson
    mode by 90 degrees in phase space, a local symplectic map that changes no
    single-mode quantity, makes fluctuation_matrix / lambda_c block diagonal
    over positions and momenta: V (+) T, each diag(rho, rho, kappa) plus the
    spin's coupling to one boson, the larger coupling's in V, the other's in
    T, with rho = sqrt(omega / omega0); the signs of the couplings drop out,
    since (q, p) -> (-q, -p) on one mode flips them.  The gaps are nu =
    lambda_c sigma, sigma the singular values of L_V^T L_T for the Cholesky
    factors V = L_V L_V^T, T = L_T L_T^T.  Both blocks come from the closed
    form of _two_c_qq in sigma, rho and the pivots:

        2C_qq = A solves A V A = T,  2C_pp = A^-1 solves B T B = V,  2C_qp = 0,

    the second the first with V and T, and so the bosons, swapped; S_i and
    det gamma come from A and B (_single_mode_invariants).  lambda_c is
    formed as rho omega0, since omega omega0 may leave the floats where
    lambda_c does not.  The Cholesky pivots are written in factored form,
    e.g. (1 - a)(1 + a) / rho, and sigma_3 is taken from det(L_V^T L_T) =
    rho^2 sqrt(pivot_V pivot_T), so both stay accurate next to the critical
    and degenerate lines.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    rho = math.sqrt(omega / omega0)
    a, b = np.maximum(x, y), np.minimum(x, y)
    normal = a <= 1.0
    # Boson a couples to Q in V with g, boson b to P in T with b; the pivots.
    g = np.where(normal, a, 1.0 / a)
    kappa = np.where(normal, 1.0, a * a) / rho
    piv_v = np.where(normal, (1.0 - a) * (1.0 + a) / rho,
                     (a - 1.0) * (a + 1.0) * (a * a + 1.0) / (a * a * rho))
    piv_t = np.where(normal, (1.0 - b) * (1.0 + b) / rho, (a - b) * (a + b) / rho)

    # L_V^T L_T from its five nonzero products: L_V is sqrt(rho) at (0, 0) and
    # (1, 1), g / sqrt(rho) at (2, 0) and sqrt(piv_v) at (2, 2); L_T the same
    # with b / sqrt(rho) at (2, 1) and sqrt(piv_t).  An overflowing pivot or rho
    # leaves it non-finite: such a point is unstable, with NaN gaps, and the SVD
    # gets the identity in its place.
    root = math.sqrt(rho)
    g_v, b_t, root_v, root_t = g / root, b / root, np.sqrt(piv_v), np.sqrt(piv_t)
    m = np.zeros((x.size, 3, 3))
    m[:, 0, 0] = m[:, 1, 1] = root * root
    m[:, 0, 1], m[:, 0, 2] = g_v * b_t, g_v * root_t
    m[:, 2, 1], m[:, 2, 2] = root_v * b_t, root_v * root_t
    finite = np.isfinite(m).all(axis=(1, 2))
    m[~finite] = np.eye(3)
    # Only sigma is read.  svd(m, compute_uv=False) would give sigma_1 and
    # sigma_2 different last bits, and so change every sweep's output bytes.
    sigma = np.linalg.svd(m)[1]
    sigma[:, 2] = rho * rho * np.sqrt(piv_v * piv_t) / (sigma[:, 0] * sigma[:, 1])
    finite &= np.isfinite(sigma).all(axis=1)  # so is one whose sigma_3 overflows
    sigma[~finite] = math.nan
    # det and SVD round apart: where sigma_3 = sigma_2, as at x = y = 0, keep them descending
    np.minimum(sigma[:, 2], sigma[:, 1], out=sigma[:, 2])
    nu = rho * omega0 * sigma
    stable = finite & (piv_v > 0.0) & (piv_t > 0.0) & (sigma[:, 2] >= symplectic.GAP_FLOOR)
    two_c_qq = _two_c_qq(rho, kappa, g, b, piv_v, piv_t, sigma)
    two_c_pp = _two_c_qq(rho, kappa, b, g, piv_t, piv_v, sigma)[:, [[1], [0], [2]], [1, 0, 2]]
    entropies, det_gamma = _single_mode_invariants(two_c_qq, two_c_pp, np.sqrt(piv_t / piv_v))
    for v in (entropies, det_gamma):
        v[~stable] = math.nan
        v[y > x, :2] = v[y > x, 1::-1]
    return StackedGroundStates(nu=nu, entropies=entropies, det_gamma=det_gamma, stable=stable,
                               two_c_qq=two_c_qq, two_c_pp=two_c_pp)


def _two_c_qq(rho, kappa, g, h, piv_v, piv_t, sigma) -> np.ndarray:
    """A = 2C_qq of the canonical modes (a, b, j), (n, 3, 3), from the gaps alone.

    A = (T V)^(1/2) V^-1 solves A V A = T for V = [[rho, 0, g], [0, rho, 0],
    [g, 0, kappa]] and T = [[rho, 0, 0], [0, rho, h], [0, h, kappa]] of
    stacked_ground_states, pivots piv_v = kappa - g^2 / rho and piv_t =
    kappa - h^2 / rho; the square root as the quadratic in T V through the
    sigma_k^2 gives

        A = (e_3 s_1 V^-1 + (s_1^2 - e_2) T - T V T) / prod_{k<l} (sigma_k + sigma_l),

    s_1, e_2, e_3 the elementary symmetric functions of sigma.  With trace(T V)
    = sum sigma_k^2 each entry below is a sum of terms of one sign, so A keeps
    full relative accuracy, as the singular vectors do not; A is homogeneous of
    degree 0 in its inputs, taken in units of sigma_1 so that nothing overflows.
    With B = 2C_pp of stacked_ground_states, A_ab = B_ab = -rho g h / prod,
    so det gamma_ab >= 0 and the bosons are separable (Simon, PRL 84, 2726
    (2000)); A_aj < 0 < B_aj and A_bj >= 0 >= B_bj (positive sums times -g,
    g, h, -h): det gamma_aj < 0 where g > 0, det gamma_bj < 0 where h > 0.
    """
    det_a = np.sqrt(piv_t / piv_v)
    r, kap, g, h, p_v, p_t, s = (v / sigma[:, 0] for v in (rho, kappa, g, h, piv_v, piv_t, sigma.T))
    s_1, e_2 = s[0] + s[1] + s[2], s[0] * s[1] + (s[0] + s[1]) * s[2]
    A = np.empty(sigma.shape + (3,))
    A[:, 0, 0] = r * (s_1 * kap * det_a + r * r + kap * kap + e_2)
    A[:, 1, 1] = r * (s_1 * np.sqrt(p_v * p_t) + r * r + e_2 + kap * p_t)
    A[:, 2, 2] = r * r * (s_1 * det_a + kap + p_t) + kap * e_2
    A[:, 0, 1] = A[:, 1, 0] = -r * g * h
    A[:, 0, 2] = A[:, 2, 0] = -r * g * (s_1 * det_a + kap)
    A[:, 1, 2] = A[:, 2, 1] = h * (r * r + e_2)
    A /= ((s[0] + s[1]) * (s[1] + s[2]) * (s[0] + s[2]))[:, None, None]
    return A


def _single_mode_invariants(A, B, det_a) -> tuple[np.ndarray, np.ndarray]:
    """S_i = log1p(t_i) / 2 of the canonical modes i = (a, b, j) and det gamma
    = A_jk B_jk of the other two j < k, from A = 2C_qq, B = 2C_pp and det A.

    t_i = det(2C_i) - 1 = A_ii (A^-1)_ii - 1 = a_i^T adj(A_-i) a_i / det A
    is the cofactor expansion of det A along row i, with no 1 subtracted;
    a_i is column i of A without its diagonal, A_-i the block of modes j, k.
    """
    i, j, k = np.arange(3), np.array([1, 0, 0]), np.array([2, 2, 1])  # the other modes j < k
    a_ij, a_ik, a_jk = A[:, i, j], A[:, i, k], A[:, j, k]
    t = a_ij * a_ij * A[:, k, k] - 2.0 * a_ij * a_ik * a_jk + a_ik * a_ik * A[:, j, j]
    return 0.5 * np.log1p(t / det_a[:, None]), a_jk * B[:, j, k]


#: Per frame (phase of the canonical point, mirrored: y > x), the signed
#: permutation zeta_k = sign_k * xi_index_k from the quadratures xi = (q_x,
#: p_x, q_y, p_y, Q, P) to the coordinates zeta = (V; T) of
#: stacked_ground_states, each over (boson a, boson b, j), in which the oracle
#: also measures its CM.  It rotates the boson whose position couples to P by
#: 90 degrees, and flips boson a of an unmirrored superradiant point (coupling
#: to Q < 0).  Mirroring swaps the bosons and turns the spin by pi/2 about z,
#: which moves these signs; as 2C_qp = 0, the sign of all of T is free.
_STACKED_FRAMES = {
    (Phase.NORMAL, False): ((0, 3, 4, 1, 2, 5), (1.0, -1.0, 1.0, 1.0, 1.0, 1.0)),
    (Phase.NORMAL, True): ((2, 1, 5, 3, 0, 4), (1.0, 1.0, 1.0, -1.0, 1.0, 1.0)),
    (Phase.SUPERRADIANT_X, False): ((0, 3, 4, 1, 2, 5), (-1.0, -1.0, 1.0, -1.0, 1.0, 1.0)),
    (Phase.SUPERRADIANT_X, True): ((2, 1, 4, 3, 0, 5), (1.0, -1.0, 1.0, 1.0, 1.0, 1.0)),
}


def from_stacked_frame(frame: tuple, c_qq: np.ndarray, c_pp: np.ndarray) -> np.ndarray:
    """The CMs over xi = (q_x, p_x, q_y, p_y, Q, P) of points with one frame, a
    (phase, mirrored) key of _STACKED_FRAMES, from their (..., 3, 3) blocks c_qq
    and c_pp over the V and T coordinates (C_qp = 0), by its signed permutation."""
    index, sign = (np.array(t) for t in _STACKED_FRAMES[frame])
    zeta = np.zeros(c_qq.shape[:-2] + (6, 6))
    zeta[..., :3, :3], zeta[..., 3:, 3:] = c_qq, c_pp
    cm = np.empty_like(zeta)
    cm[..., index[:, None], index] = np.outer(sign, sign) * zeta
    return cm


def stacked_cms(x, y, gs: StackedGroundStates) -> np.ndarray:
    """Ground-state covariance matrices C, (n, 6, 6) over modes (x, y, j), of the
    points of stacked_ground_states(omega, omega0, x, y): (2C_qq (+) 2C_pp) / 2
    from the blocks gs keeps, mapped back by from_stacked_frame in each point's
    frame.  Where gs.stable is False the values are meaningless.
    """
    normal, mirrored = np.maximum(x, y) <= 1.0, np.greater(y, x)
    cm = np.empty(gs.two_c_qq.shape[:1] + (6, 6))
    for frame in _STACKED_FRAMES:
        mask = (normal == (frame[0] is Phase.NORMAL)) & (mirrored == frame[1])
        cm[mask] = from_stacked_frame(frame, 0.5 * gs.two_c_qq[mask], 0.5 * gs.two_c_pp[mask])
    return cm


def _jump_index(values: np.ndarray):
    """Index of an isolated jump in a sampled function, or None.

    A jump is one first difference over 10 times the bulk (75th percentile)
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
    if diffs[imax] <= 10.0 * bulk:
        return None
    # Map back to an index into the original (possibly nan-padded) array.
    return int(np.nonzero(good)[0][imax])


def gs_energy_derivative_scan(p: ModelParams, axis: str, grid):
    """Finite-difference energy derivatives along one coupling axis.

    Returns (scan, jumps): scan holds the arrays "coupling" (the grid),
    "energy", and "d1" and "d2", the staggered forward differences
    re-centered onto the grid (nan at the edges); jumps flags the bin of a
    first-order jump (in dE) and of a second-order jump (in d2E).
    """
    grid = np.array(grid, dtype=float)
    if grid.size < 5 or not (np.all(np.diff(grid) > 0.0) and 0.0 <= grid[0] < grid[-1] < math.inf):
        raise ValueError("grid must be finite, nonnegative, strictly increasing, with 5+ points")
    if axis not in ("x", "y"):
        raise ValueError("axis must be 'x' or 'y'")

    lambda_x, lambda_y = (grid, p.lambda_y) if axis == "x" else (p.lambda_x, grid)
    energy = ground_state_energies(p.omega0, np.divide(lambda_x, p.lambda_c),
                                   np.divide(lambda_y, p.lambda_c))
    h = np.diff(grid)
    d1_mid = np.diff(energy) / h                      # at midpoints
    d2_grid = np.full(grid.size, np.nan)
    d2_grid[1:-1] = np.diff(d1_mid) / (0.5 * (h[1:] + h[:-1]))
    d1_grid = np.full(grid.size, np.nan)
    d1_grid[1:-1] = 0.5 * (d1_mid[1:] + d1_mid[:-1])

    jumps = {
        "first_order": _jump_index(d1_mid),
        "second_order": _jump_index(d2_grid),
    }
    return {"coupling": grid, "energy": energy, "d1": d1_grid, "d2": d2_grid}, jumps
