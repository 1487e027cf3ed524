"""Property tests: every point of the physical domain gives a physical row.

Inputs are log-uniform omega, omega0 in [1e-2, 1e2] and couplings in
[0, 100] lambda_c, evaluated through ``cli.run_sweep`` with all quantity
groups and warnings turned into errors.
"""

import warnings

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from twomode_dicke import cli, model

GOLDSTONE_EPSILON = 1e-6
ADDITIVITY_TOL = 1e-8
#: Over 70 times the most negative residual of seeded scans: -5.3e-23 on
#: 200,000 rows of this domain and -1.4e-17 on 99,999 rows of its edge rays
#: (x = y (1 +- eps), x -> 1, y -> 0, x = 0).  The EoF takes its differences
#: of t from the cross determinants, not from differences of S.
MONOGAMY_TOL = 1e-15
#: Off the diagonal a row and its mirror come from one factorization and are
#: equal, but tri_x_yj subtracts its two EoFs in the other order.  At x = y
#: the point is its own mirror, and s_x, s_y agree to rounding only.
TRI_MIRROR_ATOL = 1e-15
DIAGONAL_MIRROR_TOL = 1e-8
#: t_k - t_i - t_j = 2 det gamma_ij to this times max(t); a seeded scan of
#: 400,000 stable rows at omega / omega0 in {1e-4, 1e-2, 1, 1e2} gave 4.4e-15.
IDENTITY_RTOL = 1e-13
#: Couplings (units of lambda_c) whose det gamma with j is far from underflow.
NORMAL_COUPLING = 1e-100
#: 2C_qq 2C_pp = I to this times max|2C_qq| max|2C_pp|, the scale of the
#: rounding of the product itself (up to ~1e7 next to the critical lines).
INVERSE_RTOL = 1e-13

frequencies = st.floats(-2.0, 2.0).map(lambda e: 10.0 ** e)
couplings = st.floats(0.0, 100.0)

#: Columns that trade places under x <-> y; every other column maps to itself
#: except tri_j_yx = S_x - E(x:j) - E(x:y), which has no mirror column.
SWAPPED = {"s_x": "s_y", "s_xj": "s_yj", "mi_xj_y": "mi_yj_x", "mi_x_j": "mi_y_j",
           "eof_x_j": "eof_y_j"}
SWAPPED.update({b: a for a, b in SWAPPED.items()})
MIRRORED = [c for g in cli.GROUP_ORDER for c in cli.GROUP_COLUMNS[g] if c != "tri_j_yx"]


def row_at(omega, omega0, lx, ly):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        table = cli.run_sweep(omega, omega0, (lx, lx, 1), (ly, ly, 1),
                              list(cli.GROUP_ORDER), GOLDSTONE_EPSILON)
    row = {c: column.item() for c, column in table.items()}
    if row["diverged"]:
        assert max(lx, ly) == 1.0, (lx, ly)
    return row


def assert_physical(r):
    assert r["nu_1"] >= r["nu_2"] >= r["nu_3"] >= 0.0
    assert abs(r["mi_xy_j"] - r["mi_x_j"] - r["mi_y_j"]) <= ADDITIVITY_TOL
    assert abs(r["mi_xj_y"] - r["mi_x_y"] - r["mi_y_j"]) <= ADDITIVITY_TOL
    assert abs(r["mi_yj_x"] - r["mi_x_y"] - r["mi_x_j"]) <= ADDITIVITY_TOL
    assert r["tri_x_yj"] >= -MONOGAMY_TOL
    assert r["tri_j_yx"] >= -MONOGAMY_TOL
    for a, b in (("x", "j"), ("y", "j"), ("x", "y")):
        e = r[f"eof_{a}_{b}"]
        assert 0.0 <= e <= min(r[f"s_{a}"], r[f"s_{b}"]) + MONOGAMY_TOL, (a, b, e)


@given(frequencies, frequencies, couplings, couplings)
# a Goldstone-offset point next to (1, 1): lowering its larger coupling moved it
# onto the critical line lambda_x = 1, and the row was diverged
@example(1.0, 1.0, 1.0, 1.000000000001)
# the decoupled point: sigma_3 from det(L_V^T L_T) rounded 1 ulp above sigma_2
# of the SVD, and nu_2 = 0.19999999999999998 < nu_3 = 0.20000000000000004
@example(0.2, 1.0, 0.0, 0.0)
def test_rows_physical_and_mirror_symmetric(omega, omega0, lx, ly):
    row = row_at(omega, omega0, lx, ly)
    if row["diverged"]:
        return
    assert_physical(row)
    assert row["eof_x_y"] == 0.0  # det gamma_xy >= 0: the separable branch, exactly
    if row["goldstone_offset"] and lx == ly:
        return  # the offset lowers lambda_y of a point that is its own mirror
    twin = row_at(omega, omega0, ly, lx)
    for col in MIRRORED:
        a, b = row[col], twin[SWAPPED.get(col, col)]
        if lx == ly:
            assert abs(a - b) <= DIAGONAL_MIRROR_TOL * max(1.0, abs(a), abs(b)), (col, a, b)
        elif col == "tri_x_yj":
            assert abs(a - b) <= TRI_MIRROR_ATOL, (col, a, b)
        else:
            assert a == b, (col, a, b)


@given(frequencies, frequencies, couplings)
def test_decoupled_mode_leaves_pure_pair(omega, omega0, ly):
    # At lambda_x = 0 mode x is in its vacuum and (y, j) is a pure two-mode state.
    row = row_at(omega, omega0, 0.0, ly)
    if row["diverged"]:
        return
    assert_physical(row)
    assert abs(row["eof_y_j"] - row["s_y"]) <= 1e-10


@given(frequencies, frequencies, couplings, couplings)
def test_cross_determinants_identity_and_signs(omega, omega0, lx, ly):
    # purity: t_k - t_i - t_j = 2 det gamma_ij; det gamma_xy >= 0, so the bosons
    # are separable, and det gamma_xj, det gamma_yj <= 0, < 0 where the boson couples
    gs = model.stacked_ground_states(omega, omega0, np.array([lx]), np.array([ly]))
    if not gs.stable[0]:
        return
    t, g = np.expm1(2.0 * gs.entropies[0]), gs.det_gamma[0]
    residual = np.max(np.abs(2.0 * t - t.sum() - 2.0 * g))
    assert residual <= IDENTITY_RTOL * t.max(), (t, g)
    assert g[2] >= 0.0 and g[1] <= 0.0 and g[0] <= 0.0, g
    for m, coupling in ((1, lx), (0, ly)):
        assert g[m] < 0.0 or coupling < NORMAL_COUPLING, (m, g)


@given(frequencies, frequencies, couplings, couplings)
def test_cm_blocks_are_inverse(omega, omega0, lx, ly):
    # both blocks come from one closed form, so the state is pure by construction
    x, y = np.array([lx]), np.array([ly])
    gs = model.stacked_ground_states(omega, omega0, x, y)
    if not gs.stable[0]:
        return
    a, b = gs.two_c_qq[0], gs.two_c_pp[0]
    residual = np.max(np.abs(a @ b - np.eye(3)))
    assert residual <= INVERSE_RTOL * np.max(np.abs(a)) * np.max(np.abs(b)), residual


@pytest.mark.parametrize("omega, omega0, lx, ly", [
    # S_x ~ 1.85e-6: formed as (2C_qq)_ii (2C_pp)_ii, its 6.6e-10 relative
    # error left tri_x_yj at -1.35e-9, where an 80-digit evaluation gives +3.98e-12
    (45.73665833208309, 0.010956493143734267, 7.52069396717365, 3.3452708920188607),
    # sigma_1 ~ sigma_2: tri_x_yj is +1.56e-11 here
    (82.0446793788478, 0.013511590682720507, 2.9234920507859243, 2.8213732635357602),
])
def test_rows_physical_at_pinned_points(omega, omega0, lx, ly):
    row = row_at(omega, omega0, lx, ly)
    assert not row["diverged"]
    assert_physical(row)
