"""The stacked sweep against a 60-digit mpmath evaluation of the same inputs.

Next to the critical lines, on Goldstone-offset rows and deep in the
superradiant phases at omega / omega0 far from 1, ``cli.run_sweep`` (stacked
arrays) and ``cli.evaluate_point`` (per-point Williamson decomposition) can
differ by more than 1e-10.  The reference decides which is right: it builds
the fluctuation matrix of ``model.fluctuation_matrix`` from the program's
inputs (omega, omega0 and the couplings in units of lambda_c, the Goldstone
offset applied exactly) in 60-digit arithmetic, and takes
2C = K^{-1/2} |A| K^{-1/2} with A = K^{1/2} Omega K^{1/2}; at this precision
|A| = sqrt(A^T A) loses nothing.
"""

import math

import mpmath as mp
import pytest

from twomode_dicke import cli

EPSILON = 1e-6
#: Largest error of the stacked path against the reference: entropies in
#: nats (absolute), gaps relative.
S_ATOL = 1e-10
NU_RTOL = 1e-10
#: Where the two float paths differ by more than this, the stacked one must
#: be the closer to the reference.
DECIDE = 1e-10

GROUPS = ("gaps", "mi")


def reference(omega, omega0, x, y):
    """(S_x, S_y, S_j), (nu_1, nu_2, nu_3) at couplings x, y in units of lambda_c."""
    with mp.workdps(60):
        w = mp.mpf(omega)
        lc = mp.sqrt(w * mp.mpf(omega0))
        lx, ly = mp.mpf(x) * lc, mp.mpf(y) * lc
        K = mp.zeros(6, 6)
        for i in range(4):
            K[i, i] = w
        if max(x, y) <= 1:
            K[4, 4] = K[5, 5] = lc**2 / w
            K[0, 4] = K[4, 0] = lx
            K[2, 5] = K[5, 2] = ly
        elif x > y:
            K[4, 4] = K[5, 5] = lx**2 / w
            K[0, 4] = K[4, 0] = -lc**2 / lx
            K[2, 5] = K[5, 2] = ly
        else:
            K[4, 4] = K[5, 5] = ly**2 / w
            K[2, 4] = K[4, 2] = lc**2 / ly
            K[0, 5] = K[5, 0] = lx
        omega_form = mp.zeros(6, 6)
        for m in range(3):
            omega_form[2 * m, 2 * m + 1], omega_form[2 * m + 1, 2 * m] = 1, -1
        k, v = mp.eigsy(K)
        root = v * mp.diag([mp.sqrt(e) for e in k]) * v.T
        inv_root = v * mp.diag([1 / mp.sqrt(e) for e in k]) * v.T
        A = root * omega_form * root
        a2, u = mp.eigsy(A.T * A)
        two_c = inv_root * u * mp.diag([mp.sqrt(e) for e in a2]) * u.T * inv_root
        s = [mp.log(two_c[2 * m, 2 * m] * two_c[2 * m + 1, 2 * m + 1]
                    - two_c[2 * m, 2 * m + 1] ** 2) / 2 for m in range(3)]
        nu = sorted((mp.sqrt(e) for e in a2), reverse=True)[::2]
        return [float(e) for e in s], [float(e) for e in nu]


def both_paths(omega, omega0, x, y):
    table = cli.run_sweep(omega, omega0, (x, x, 1), (y, y, 1), list(GROUPS), EPSILON)
    batched = {c: column.item() for c, column in table.items()}
    scalar = cli.evaluate_point(omega, omega0, x, y, EPSILON, GROUPS)
    assert batched["goldstone_offset"] == scalar["goldstone_offset"]
    y_ref = mp.mpf(y) * (1 - mp.mpf(EPSILON)) if batched["goldstone_offset"] else y
    return batched, scalar, reference(omega, omega0, x, y_ref)


def check(omega, omega0, x, y):
    batched, scalar, (s_ref, nu_ref) = both_paths(omega, omega0, x, y)
    assert not batched["diverged"]
    for col, ref in zip(("s_x", "s_y", "s_j"), s_ref):
        b, s = batched[col], scalar[col]
        assert abs(b - ref) <= S_ATOL, (col, b, ref)
        if scalar["diverged"] or abs(b - s) > DECIDE:
            assert scalar["diverged"] or abs(b - ref) < abs(s - ref), (col, b, s, ref)
    for col, ref in zip(("nu_1", "nu_2", "nu_3"), nu_ref):
        b, s = batched[col], scalar[col]
        assert abs(b - ref) <= NU_RTOL * ref, (col, b, ref)
        if abs(b - s) > DECIDE * ref:
            assert abs(b - ref) < abs(s - ref), (col, b, s, ref)


#: (omega, omega0) pairs: the omega / omega0 ~ 1e-3 and ~ 6e-4 pairs of
#: plane-wide seeds 1 and 2, resonance, and omega / omega0 = 1e3.
FREQUENCIES = [(0.028755790018399164, 32.62715961332268),
               (0.02755032216892976, 45.32528212983377),
               (1.0, 1.0), (10.0, 0.01)]


@pytest.mark.parametrize("omega, omega0", FREQUENCIES)
@pytest.mark.parametrize("coupling", [1.5, 31.25, 68.75, 100.0])
def test_goldstone_offset_rows(omega, omega0, coupling):
    check(omega, omega0, coupling, coupling)


@pytest.mark.parametrize("omega, omega0", FREQUENCIES)
@pytest.mark.parametrize("x, y", [(43.75, 100.0), (62.5, 81.25), (100.0, 43.75)])
def test_deep_superradiance(omega, omega0, x, y):
    check(omega, omega0, x, y)


@pytest.mark.parametrize("omega, omega0", [(1.0, 1.0), (0.01, 10.0), (10.0, 0.01)])
@pytest.mark.parametrize("offset", [1e-2, 1e-4, 1e-6, 1e-8, 1e-10, 1e-12])
def test_critical_line_offsets(omega, omega0, offset):
    for x, y in ((1.0 + offset, 0.3), (1.0 - offset, 0.3),
                 (0.5, 1.0 + offset), (0.2, 1.0 - offset)):
        check(omega, omega0, x, y)


def test_reference_decides_where_the_paths_differ():
    # omega / omega0 = 1e3 at 1e-10 below the critical line: the per-point
    # path's K carries rounding of relative size 1e-16 in entries whose
    # difference sets the soft mode, so its entropies are off by ~1e-5 nats.
    batched, scalar, (s_ref, _) = both_paths(10.0, 0.01, 0.2, 1.0 - 1e-10)
    assert abs(scalar["s_y"] - s_ref[1]) > 1e-6
    assert abs(batched["s_y"] - s_ref[1]) <= S_ATOL
    assert math.isfinite(batched["s_y"])
