"""Floating-point stability of the two-of-three-mode EoF closed form.

``eof_from_invariants`` is compared with a 50-digit mpmath evaluation of the
same closed form, written in the textbook variables a = exp(S) (Adesso,
Girolami & Serafini, PRL 109, 190502 (2012)), on the same entropies; the
kernel's cross determinants g_m are formed from them at 50 digits (``eof``).
"""

import math

import mpmath as mp
import pytest

from twomode_dicke import model
from twomode_dicke.gaussian_info import eof_from_invariants, renyi2_entropy

TOL = 1e-12
PAIRS = (("x", "j", "y"), ("y", "j", "x"), ("x", "y", "j"))


def eof_reference(s_i, s_j, s_k):
    """E(i:j) from a_m = exp(S_m) at 50 digits, clamped to [0, min(S_i, S_j)]."""
    with mp.workdps(50):
        s_i, s_j, s_k = mp.mpf(s_i), mp.mpf(s_j), mp.mpf(s_k)
        a_i, a_j, a_k = mp.exp(s_i), mp.exp(s_j), mp.exp(s_k)
        cap = min(s_i, s_j)
        if a_k >= mp.sqrt(a_i ** 2 + a_j ** 2 - 1):
            return 0.0
        if a_k == 1:
            return float(cap)
        s, d = a_i ** 2 + a_j ** 2, a_i ** 2 - a_j ** 2
        alpha = mp.sqrt((2 * s + d * d + abs(d) * mp.sqrt(d * d + 8 * s)) / (2 * s))
        if a_k <= alpha:
            g = d * d / (a_k ** 2 - 1) ** 2
        else:
            delta = mp.mpf(1)
            for mu in (1, -1):
                for nu in (1, -1):
                    delta *= (a_i + mu * a_j + nu * a_k) ** 2 - 1
            q_i, q_j, q_k = a_i ** 2, a_j ** 2, a_k ** 2
            beta = (2 * (q_i + q_j + q_k) + 2 * (q_i * q_j + q_i * q_k + q_j * q_k)
                    - (q_i ** 2 + q_j ** 2 + q_k ** 2) - mp.sqrt(max(delta, 0)) - 1)
            g = beta / (8 * q_k)
        e = mp.log(g) / 2 if g > 0 else mp.mpf(0)
        return float(min(max(e, mp.mpf(0)), cap))


def eof(s_i, s_j, s_k):
    """eof_from_invariants at S_i, S_j, S_k, with each g_m = (t_m - t_l - t_n) / 2
    of a pure state formed from them at 50 digits, t = exp(2 S) - 1."""
    with mp.workdps(50):
        t = [mp.expm1(2 * mp.mpf(s)) for s in (s_i, s_j, s_k)]
        g = [float(t_m - sum(t) / 2) for t_m in t]
    return eof_from_invariants(s_i, s_j, s_k, *g)


def local_entropies(omega, omega0, lx_rel, ly_rel):
    base = model.ModelParams(omega=omega, omega0=omega0)
    lc = base.lambda_c
    C = model.ground_state_cm(base.with_couplings(lx_rel * lc, ly_rel * lc))
    return {m: renyi2_entropy(C[i:i + 2, i:i + 2]) for m, i in (("x", 0), ("y", 2), ("j", 4))}


#: (omega, omega0, lambda_x / lambda_c, lambda_y / lambda_c) where the former
#: evaluation failed: a spurious eof_x_j of 13.36 nats with all entropies
#: near 1e-8; a ZeroDivisionError with S_k rounding to 0; and the first
#: point of the 0:10:61 grid where the former numeric standard-form search failed.
RECORDED_POINTS = [
    (0.00489, 23.7, 43.4, 69.1),
    (0.028755790018399164, 32.62715961332268, 81.25, 100.0),
    (1.0, 1.0, 0.33, 9.33),
]


@pytest.mark.parametrize("point", RECORDED_POINTS)
def test_recorded_points_match_reference(point):
    s = local_entropies(*point)
    for i, j, k in PAIRS:
        e = eof(s[i], s[j], s[k])
        assert abs(e - eof_reference(s[i], s[j], s[k])) <= TOL, (i, j, s)
        assert 0.0 <= e <= min(s[i], s[j])


def branch_boundaries(s_i, s_j):
    """t_k at the two branch boundaries, to 50 digits.

    Above t_i + t_j the pair is separable; below alpha**2 - 1 the EoF is
    ln(|t_i - t_j| / t_k); the middle branch lies between them.
    """
    t_i, t_j = mp.expm1(2 * mp.mpf(s_i)), mp.expm1(2 * mp.mpf(s_j))
    s, d = t_i + t_j + 2, t_i - t_j
    return {"separable": t_i + t_j,
            "alpha": (d * d + abs(d) * mp.sqrt(d * d + 8 * s)) / (2 * s)}


@pytest.mark.parametrize("boundary", ["separable", "alpha"])
@pytest.mark.parametrize("s_i, s_j", [(0.3, 0.1), (0.02, 0.5), (2.0, 1.5),
                                      (1e-6, 3e-6), (7.0, 1e-9)])
def test_branches_join_without_tie_tolerance(boundary, s_i, s_j):
    with mp.workdps(50):
        t_k = branch_boundaries(s_i, s_j)[boundary]
        sides_s_k = [float(mp.log1p(t_k * (1 + rel)) / 2) for rel in (-1e-9, 1e-9)]
    sides = []
    for s_k in sides_s_k:
        e = eof(s_i, s_j, s_k)
        assert abs(e - eof_reference(s_i, s_j, s_k)) <= TOL, s_k
        sides.append(e)
    assert abs(sides[0] - sides[1]) <= 1e-8 * max(1.0, min(s_i, s_j))


#: A strongly entangled pair with a weakly coupled third mode.  t_i and t_j
#: near 1e16 agree to the last digits, so forming t_i - t_j or
#: 4 t_i t_j - u**2 from them directly loses the EoF to rounding.
@pytest.mark.parametrize("s", [(18.75, 18.75 - 7e-13, 1e-4), (20.0, 20.0, 1e-3)])
def test_entangled_pair_with_weak_third_mode(s):
    for i, j, k in ((0, 1, 2), (0, 2, 1), (1, 2, 0)):
        e = eof(s[i], s[j], s[k])
        assert abs(e - eof_reference(s[i], s[j], s[k])) <= TOL, (i, j)


def test_decoupled_third_mode():
    # S_k = 0 exactly: the pair is a pure two-mode state.
    assert eof(0.4, 0.4, 0.0) == 0.4
    assert eof(0.0, 0.0, 0.0) == 0.0
    for s_k in (1e-300, 1e-17, 1e-12):
        e = eof(0.4, 0.4 + s_k, s_k)
        assert abs(e - eof_reference(0.4, 0.4 + s_k, s_k)) <= TOL
        assert not math.isnan(e)
