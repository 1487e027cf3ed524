"""Correlation measures of the pure three-mode Gaussian ground state.

All entropies are Renyi-2 in nats: S = 0.5 * ln det(2C), for parties "x", "y"
(optical modes) and "j" (collective spin).  Purity makes every measure a
function of S_x, S_y, S_j and g_m = det gamma, gamma the 2x2 cross block of 2C
between the modes other than m (eof_from_invariants): report_columns evaluates
them all, on floats or on grid arrays, and correlation_report on one (6, 6)
covariance matrix over (q_x, p_x, q_y, p_y, Q, P).
"""

from __future__ import annotations

import math

import numpy as np

from . import symplectic
from .errors import NonPhysicalError, NotPureError, NotThreeModeError

#: Tolerance on det(2C) = 1 for pure-state checks.
PURITY_TOL = 1e-7


def renyi2_entropy(c) -> float:
    """Renyi-2 entropy 0.5 * ln det(2C) of a covariance matrix C, in nats.

    Raises NonSymmetricError where C is not symmetric and NonPhysicalError
    where det(2C) < 1 beyond PURITY_TOL.
    """
    det2 = float(np.linalg.det(2.0 * symplectic._require_symmetric(c)))
    if det2 < 1.0 - PURITY_TOL:
        raise NonPhysicalError(f"det(2C) = {det2:.6e} < 1; state is unphysical")
    return max(0.5 * math.log(det2), 0.0)


def eof_from_invariants(s_i, s_j, s_k, g_i, g_j, g_k):
    """Renyi-2 Gaussian EoF E(i:j) of a pure three-mode state from S_i, S_j, S_k
    and g_m = det gamma of the pair without m.

    Closed form of Adesso, Girolami & Serafini, PRL 109, 190502 (2012) in
    t = exp(2 S) - 1.  The pair (l, n) has symplectic spectrum (1, exp(S_m)),
    so its Serafini invariant 2 + t_l + t_n + 2 g_m = 2 + t_m gives
    t_m - t_l - t_n = 2 g_m, and no difference of t cancels: u = t_i + t_j -
    t_k = -2 g_k, t_k**2 - d**2 = 4 g_i g_j for d = |t_i - t_j|, d - t_k = 2 g_l
    (l the one of i, j with the larger S).  Clamped to [0, min(S_i, S_j)];
    takes floats or equal-shape arrays, returns a float for float input.
    """
    s_i, s_j, s_k, g_i, g_j, g_k = map(np.asarray, (s_i, s_j, s_k, g_i, g_j, g_k))
    separable = g_k >= 0.0  # t_k >= t_i + t_j (Simon, PRL 84, 2726 (2000))
    cap = np.minimum(s_i, s_j)
    t_i, t_j, t_k = (np.expm1(2.0 * x) for x in (s_i, s_j, s_k))
    decoupled = t_k == 0.0  # k decoupled: (i, j) is a pure two-mode state
    excess = 2.0 * np.where(s_i >= s_j, g_i, g_j)  # d - t_k
    d = t_k + excess
    s = t_i + t_j + 2.0
    near = 2.0 * s * t_k <= d * d + d * np.sqrt(d * d + 8.0 * s)  # t_k <= alpha**2 - 1
    # Every branch is evaluated at every point, on arguments made harmless
    # where the branch is not taken; there d > 0, t_k > 0 and u > 0 hold.
    near_ok = near & ~decoupled & ~separable
    e_near = np.log1p(np.where(near_ok, excess, 0.0) / np.where(near_ok, t_k, 1.0))
    u = np.where(separable, 1.0, -2.0 * g_k)  # t_i + t_j - t_k
    w = 4.0 * g_i * g_j  # t_k**2 - d**2
    q = np.maximum(w + 2.0 * u * t_k, 0.0)  # 4 t_i t_j - u**2, nonnegative on this branch
    root = np.sqrt(np.maximum(q * q + 8.0 * u * w, 0.0))
    # exp(2 E) - 1 = (P - sqrt(delta)) / (8 (1 + t_k)) rationalized with
    # P = q + 4 u and P**2 - delta = 16 (1 + t_k) u**2.
    e_mid = 0.5 * np.log1p(2.0 * u * u / (q + 4.0 * u + root))
    e = np.minimum(np.maximum(np.where(near, e_near, e_mid), 0.0), cap)
    e = np.where(separable, 0.0, np.where(decoupled, cap, e))
    return e if e.ndim else float(e)


def correlation_report(c) -> dict[str, float]:
    """All correlation measures of a pure state, from its (6, 6) covariance
    matrix over (q_x, p_x, q_y, p_y, Q, P): the dict report_columns builds,
    floats keyed by the sweep's column names, so it is a sweep row's report
    cells.  S_m and g_m come from the 2x2 blocks of 2C and their determinants.
    Raises NotThreeModeError unless c is 6x6, NonSymmetricError, and
    NotPureError or NonPhysicalError where the state has no report.

    Entropies and mutual informations are in nats.  tri_x_yj is the genuine
    tripartite entanglement E(x;y:j) = S(j) - E(x:j) - E(y:j) and tri_j_yx
    is E(j;y:x) = S(x) - E(x:j) - E(x:y).
    """
    c = np.asarray(c, dtype=float)
    if c.shape != (6, 6):
        raise NotThreeModeError(f"expected a 6x6 matrix over modes x, y, j, got {c.shape}")
    c = symplectic._require_symmetric(c)
    det2 = float(np.linalg.det(2.0 * c))
    if not abs(det2 - 1.0) <= PURITY_TOL:
        raise NotPureError(f"det(2C) = {det2:.6e} is not 1 within {PURITY_TOL:.0e}")

    s_x, s_y, s_j = (renyi2_entropy(c[i:i + 2, i:i + 2]) for i in (0, 2, 4))
    # g_x, g_y, g_j: the cross blocks of the pairs (y, j), (x, j) and (x, y).
    g = (np.linalg.det(2.0 * c[i:i + 2, k:k + 2]) for i, k in ((2, 4), (0, 4), (0, 2)))
    return report_columns(s_x, s_y, s_j, *map(float, g))


def report_columns(s_x, s_y, s_j, g_x, g_y, g_j) -> dict:
    """The correlation measures, keyed by column name, from S_m and g_m, on floats
    or equal-shape arrays; purity makes each two-mode entropy that of the third mode."""
    e_xj = eof_from_invariants(s_x, s_j, s_y, g_x, g_j, g_y)
    e_yj = eof_from_invariants(s_y, s_j, s_x, g_y, g_j, g_x)
    e_xy = eof_from_invariants(s_x, s_y, s_j, g_x, g_y, g_j)
    return {
        "s_x": s_x, "s_y": s_y, "s_j": s_j,
        "s_xy": s_j, "s_xj": s_y, "s_yj": s_x,
        "mi_xy_j": 2.0 * s_j, "mi_xj_y": 2.0 * s_y, "mi_yj_x": 2.0 * s_x,
        "mi_x_y": s_x + s_y - s_j, "mi_x_j": s_x + s_j - s_y, "mi_y_j": s_y + s_j - s_x,
        "eof_x_j": e_xj, "eof_y_j": e_yj, "eof_x_y": e_xy,
        # Residual anchored at the party written last: E(x;y:j) is anchored
        # at j against the pair (x, y), E(j;y:x) at x against (j, y).
        "tri_x_yj": s_j - e_xj - e_yj,
        "tri_j_yx": s_x - e_xj - e_xy,
    }
