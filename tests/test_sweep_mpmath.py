"""The stacked sweep against a 60-digit mpmath evaluation of the same inputs.

Next to the critical lines, on Goldstone-offset rows and deep in the
superradiant phases at omega / omega0 far from 1, ``cli.run_sweep`` must
agree with a reference that builds the fluctuation matrix of
``model.fluctuation_matrix`` from the program's inputs (omega, omega0 and the
couplings in units of lambda_c, the Goldstone offset applied exactly) in
60-digit arithmetic, and takes 2C = K^{-1/2} |A| K^{-1/2} with
A = K^{1/2} Omega K^{1/2}; at this precision |A| = sqrt(A^T A) loses nothing.
On the degenerate line, where K is singular, the gaps of
``model.excitation_gaps`` are checked against the eigenvalues of Omega K.
``model.stacked_cms`` is checked against the same reference 2C, at the
couplings it is given.
"""

import math

import mpmath as mp
import numpy as np
import pytest

from test_eof_mpmath import eof_reference

from twomode_dicke import cli, model
from twomode_dicke.symplectic import symplectic_eigenvalues

EPSILON = 1e-6
#: Largest error of the stacked path against the reference: entropies in
#: nats (absolute), gaps relative.
S_ATOL = 1e-10
NU_RTOL = 1e-10
#: Largest error of stacked_cms, relative to the largest entry of C.
CM_RTOL = 1e-14

GROUPS = ("gaps", "mi")


def fluctuation_matrix(omega, omega0, x, y):
    """K of model.fluctuation_matrix at couplings x, y in units of lambda_c, as an
    mpmath matrix at the working precision; x = y > 1 takes the superradiant-y branch."""
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
    return K


def symplectic_form():
    omega_form = mp.zeros(6, 6)
    for m in range(3):
        omega_form[2 * m, 2 * m + 1], omega_form[2 * m + 1, 2 * m] = 1, -1
    return omega_form


def reference(omega, omega0, x, y, dps=60):
    """(S_x, S_y, S_j), (nu_1, nu_2, nu_3) and 2C (6x6, rounded to floats) at
    couplings x, y in units of lambda_c, in dps-digit arithmetic."""
    with mp.workdps(dps):
        K = fluctuation_matrix(omega, omega0, x, y)
        k, v = mp.eigsy(K)
        root = v * mp.diag([mp.sqrt(e) for e in k]) * v.T
        inv_root = v * mp.diag([1 / mp.sqrt(e) for e in k]) * v.T
        A = root * symplectic_form() * root
        a2, u = mp.eigsy(A.T * A)
        two_c = inv_root * u * mp.diag([mp.sqrt(e) for e in a2]) * u.T * inv_root
        s = [mp.log(two_c[2 * m, 2 * m] * two_c[2 * m + 1, 2 * m + 1]
                    - two_c[2 * m, 2 * m + 1] ** 2) / 2 for m in range(3)]
        nu = sorted((mp.sqrt(e) for e in a2), reverse=True)[::2]
        return [float(e) for e in s], [float(e) for e in nu], np.array(two_c.tolist(), dtype=float)


def reference_gaps(omega, omega0, x, y):
    """(nu_1, nu_2, nu_3) as the moduli of the eigenvalues of Omega K, at 60
    digits; unlike reference, defined where K is singular."""
    with mp.workdps(60):
        ev = mp.eig(symplectic_form() * fluctuation_matrix(omega, omega0, x, y),
                    left=False, right=False)
        return [float(e) for e in sorted((abs(mp.im(e)) for e in ev), reverse=True)[::2]]


def check_cm(omega, omega0, x, y, two_c):
    """stacked_cms at the float couplings x, y against the reference 2C there."""
    xs, ys = np.array([x]), np.array([y])
    cm = model.stacked_cms(xs, ys, model.stacked_ground_states(omega, omega0, xs, ys))[0]
    dev = np.max(np.abs(cm - 0.5 * two_c))
    assert dev <= CM_RTOL * np.max(np.abs(0.5 * two_c)), (x, y, dev)


def check(omega, omega0, x, y, dps=60):
    table = cli.run_sweep(omega, omega0, (x, x, 1), (y, y, 1), list(GROUPS), EPSILON)
    row = {c: column.item() for c, column in table.items()}
    y_ref = mp.mpf(y) * (1 - mp.mpf(EPSILON)) if row["goldstone_offset"] else y
    s_ref, nu_ref, two_c = reference(omega, omega0, x, y_ref, dps)
    assert not row["diverged"]
    for col, ref in zip(("s_x", "s_y", "s_j"), s_ref):
        assert abs(row[col] - ref) <= S_ATOL, (col, row[col], ref)
    for col, ref in zip(("nu_1", "nu_2", "nu_3"), nu_ref):
        assert abs(row[col] - ref) <= NU_RTOL * ref, (col, row[col], ref)
    if row["goldstone_offset"]:
        # the CM at the offset coupling as rounded, since C moves by ~1e-10 per ulp of it here
        y_cm = y * (1.0 - EPSILON)
        check_cm(omega, omega0, x, y_cm, reference(omega, omega0, x, y_cm, dps)[2])
    else:
        check_cm(omega, omega0, x, y, two_c)


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


@pytest.mark.parametrize("x, y", [(1e12, 3e11), (5e11, 1e12), (1e6, 2.0)])
def test_extreme_scale(x, y):
    # omega / omega0 = 1e-4 deep in superradiance, at 80 digits: CM blocks built from
    # the singular vectors were off at the 1e12 points by 2.2e-2 and 1.3e-2 of the
    # largest entry, and unphysical at all three, with nu_min = 1 - 1.4e-2, 1 - 7.8e-3
    # and 1 - 4.1e-9 (det 2C was within 7e-16 of 1, so det 2C alone does not show it)
    check(1e-4, 1.0, x, y, dps=80)
    p = model.ModelParams(1e-4, 1.0)
    cm = model.ground_state_cm(p.with_couplings(x * p.lambda_c, y * p.lambda_c))
    assert symplectic_eigenvalues(2.0 * cm).min() >= 1.0 - 1e-12, (x, y)


@pytest.mark.parametrize("omega, omega0", FREQUENCIES)
@pytest.mark.parametrize("coupling", [1.5, 31.25, 100.0])
def test_goldstone_line_gaps_exact(omega, omega0, coupling):
    # On lambda_x = lambda_y > lambda_c the soft mode is exactly zero and the
    # gapped modes need no limit from either side of the line.
    lc = math.sqrt(omega * omega0)
    nu = model.excitation_gaps(model.ModelParams(omega, omega0, coupling * lc, coupling * lc))
    nu_ref = reference_gaps(omega, omega0, coupling, coupling)
    assert nu[2] == 0.0
    for got, ref in zip(nu[:2], nu_ref[:2]):
        assert abs(got - ref) <= NU_RTOL * ref, (got, ref)


#: Points with small single-mode entropies, down to S_x = 1.85e-6 at the
#: first.  The first two are inside the property-test domain, the second with
#: sigma_1 ~ sigma_2; then omega / omega0 = 100 and omega = omega0.
SMALL_ENTROPY_POINTS = [
    (45.73665833208309, 0.010956493143734267, 7.52069396717365, 3.3452708920188607),
    (82.0446793788478, 0.013511590682720507, 2.9234920507859243, 2.8213732635357602),
    (100.0, 1.0, 4.35, 0.05), (100.0, 1.0, 8.75, 0.1),
    (1.0, 1.0, 5.0, 0.1), (1.0, 1.0, 1.1, 0.5), (1.0, 1.0, 0.5, 0.03),
]


#: E(x:j) lies 3.5e-13 below its cap S_x: an EoF that formed |t_x - t_j|
#: from S_j - S_x = 1.0e-8 reached the cap and wrote tri_x_yj = -3.5e-13
#: here, where the reference is +1.6e-16.
EOF_NEAR_CAP_POINT = (84.3493019412151, 0.01796178051029295, 1.3884076601406337, 58.64233113007366)


@pytest.mark.parametrize("omega, omega0, x, y", SMALL_ENTROPY_POINTS + [EOF_NEAR_CAP_POINT])
def test_residuals_match_reference(omega, omega0, x, y):
    # the monogamy residuals from the 60-digit S and the 50-digit EoF closed form
    table = cli.run_sweep(omega, omega0, (x, x, 1), (y, y, 1), ["mi", "tripartite"], EPSILON)
    row = {c: column.item() for c, column in table.items()}
    s_ref, _, two_c = reference(omega, omega0, x, y)
    s_x, s_y, s_j = s_ref
    for col, ref in zip(("s_x", "s_y", "s_j"), s_ref):
        assert abs(row[col] - ref) <= 1e-12 * ref, (col, row[col], ref)
    check_cm(omega, omega0, x, y, two_c)
    with mp.workdps(60):
        e_xj, e_yj, e_xy = (mp.mpf(eof_reference(*s))
                            for s in ((s_x, s_j, s_y), (s_y, s_j, s_x), (s_x, s_y, s_j)))
        tri_ref = {"tri_x_yj": s_j - e_xj - e_yj, "tri_j_yx": s_x - e_xj - e_xy}
    for col, ref in tri_ref.items():
        assert abs(row[col] - float(ref)) <= 1e-14, (col, row[col], float(ref))
