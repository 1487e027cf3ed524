"""Correlation measures: frozen oracles and identities.

The identities are checked where the measures ship, on the columns of
run_sweep, which evaluates gaussian_info.report_columns on the stacked ground
states; the frozen values on correlation_report, its one-point form.
"""

import itertools
import math
import warnings

import numpy as np
import pytest

from twomode_dicke import model
from twomode_dicke.cli import GROUP_COLUMNS, run_sweep
from twomode_dicke.errors import (
    NonPhysicalError,
    NonSymmetricError,
    NotPureError,
    NotThreeModeError,
)
from twomode_dicke.gaussian_info import (
    correlation_report,
    eof_from_invariants,
    renyi2_entropy,
)
from twomode_dicke.symplectic import standard_form, symplectic_eigenvalues, williamson

VACUUM = 0.5 * np.eye(6)
REPORT_GROUPS = ["mi", "eof", "tripartite"]
EPSILON = 1e-6


def gs_cm(lx, ly, omega=1.0, omega0=1.0):
    return model.ground_state_cm(model.ModelParams(omega, omega0, lx, ly))


class TestRenyi2Entropy:
    def test_vacuum(self):
        assert renyi2_entropy(VACUUM[:2, :2]) == 0.0

    def test_thermal(self):
        nbar = 0.5
        C = (nbar + 0.5) * np.eye(2)
        assert abs(renyi2_entropy(C) - math.log(2.0)) < 1e-12

    def test_global_ground_state_is_pure(self):
        for lx, ly in ((0.5, 0.3), (1.5, 0.5), (0.5, 1.5), (1.2, 0.6)):
            assert abs(renyi2_entropy(gs_cm(lx, ly))) < 1e-7

    def test_rejects_unphysical(self):
        with pytest.raises(NonPhysicalError):
            renyi2_entropy(0.25 * np.eye(2))

    def test_rejects_asymmetric(self):
        C = 0.5 * np.eye(2)
        C[0, 1] = 0.1
        with pytest.raises(NonSymmetricError):
            renyi2_entropy(C)


def sweep_row(lx, ly):
    """The shipped report columns at one point, from a 1x1 run_sweep."""
    table = run_sweep(1.0, 1.0, (lx, lx, 1), (ly, ly, 1), REPORT_GROUPS, EPSILON)
    assert not table["diverged"][0]
    return {c: v.item() for c, v in table.items()}


def block_entropies(table):
    """0.5 ln det(2C) of every mode subset, from stacked_cms at the sweep's points."""
    x = table["lambda_x"]
    y = np.where(table["goldstone_offset"], table["lambda_y"] * (1.0 - EPSILON),
                 table["lambda_y"])
    cms = model.stacked_cms(x, y, model.stacked_ground_states(1.0, 1.0, x, y))
    rows = {"x": [0, 1], "y": [2, 3], "j": [4, 5]}
    out = {}
    for n in (1, 2, 3):
        for modes in itertools.combinations("xyj", n):
            r = sum((rows[m] for m in modes), [])
            with np.errstate(divide="ignore", invalid="ignore"):
                out["".join(modes)] = 0.5 * np.log(np.linalg.det(2.0 * cms[:, r][:, :, r]))
    return out


class TestMutualInformation:
    def test_decoupled_point(self):
        # At zero coupling the ground state is the vacuum: no correlations.
        row = sweep_row(0.0, 0.0)
        for g in REPORT_GROUPS:
            for col in GROUP_COLUMNS[g]:
                assert abs(row[col]) < 1e-12, col

    def test_entropies_are_block_log_dets(self):
        # The report takes the two-mode entropies from the complementary
        # single-mode ones (purity); MI additivity and E(x:yj) = I(x:yj) / 2
        # rest on that.  Here every entropy and MI column is checked against
        # ln det of the blocks of 2C on the 201^2 plane.
        table = run_sweep(1.0, 1.0, (0.0, 2.0, 201), (0.0, 2.0, 201), REPORT_GROUPS, EPSILON)
        ok = ~table["diverged"]
        assert ok.sum() > 0.99 * ok.size
        blk = {k: v[ok] for k, v in block_entropies(table).items()}
        col = {k: v[ok] for k, v in table.items()}
        assert np.max(np.abs(blk["xyj"])) < 1e-11
        for modes in ("x", "y", "j", "xy", "xj", "yj"):
            np.testing.assert_allclose(col[f"s_{modes}"], blk[modes], rtol=0, atol=1e-11)
        for a, b, ab in (("xy", "j", "xyj"), ("xj", "y", "xyj"), ("yj", "x", "xyj"),
                         ("x", "y", "xy"), ("x", "j", "xj"), ("y", "j", "yj")):
            np.testing.assert_allclose(col[f"mi_{a}_{b}"], blk[a] + blk[b] - blk[ab],
                                       rtol=0, atol=1e-11)

    def test_additivity_identities(self):
        row = sweep_row(1.5, 0.5)
        assert abs(row["mi_xy_j"] - row["mi_x_j"] - row["mi_y_j"]) < 1e-12
        assert abs(row["mi_xj_y"] - row["mi_x_y"] - row["mi_y_j"]) < 1e-12

    def test_complementary_bipartition_is_twice_entropy(self):
        row = sweep_row(1.5, 0.5)
        for m, mi in (("x", "mi_yj_x"), ("y", "mi_xj_y"), ("j", "mi_xy_j")):
            assert abs(row[mi] - 2.0 * row[f"s_{m}"]) < 1e-12


class TestEntanglementOfFormation:
    def test_growth_toward_criticality(self):
        # E(j:xy) of the pure state is S_j.
        assert sweep_row(1.05, 0.5)["s_j"] > sweep_row(0.5, 0.5)["s_j"]

    @pytest.mark.parametrize("omega, x_range, y_range, n_ok", [
        # all but the critical line max(x, y) = 1
        (1.0, (0.0, 2.0, 11), (0.0, 2.0, 11), 110),
        # u = t_x + t_y - t_j formed from differences of S rounded positive
        # here and wrote eof_x_y = 3.3e-30
        (1e-4, (0.0011520699531722867,) * 2 + (1,), (26.24527193324355,) * 2 + (1,), 1),
    ], ids=["resonance-grid", "omega-1e-4"])
    def test_intermode_eof_vanishes_on_grid(self, omega, x_range, y_range, n_ok):
        # det gamma_xy = (2C_qq)_xy^2 >= 0: the separable branch, exactly
        table = run_sweep(omega, 1.0, x_range, y_range, ["eof"], EPSILON)
        ok = ~table["diverged"]
        assert ok.sum() == n_ok
        assert np.all(table["eof_x_y"][ok] == 0.0)

    def test_roughly_half_of_mi(self):
        row = sweep_row(1.5, 0.5)
        half = 0.5 * row["mi_x_j"]
        assert abs(row["eof_x_j"] - half) < 0.25 * abs(half)

    def test_pair_order_irrelevant(self):
        gs = model.stacked_ground_states(1.0, 1.0, np.array([1.5]), np.array([0.5]))
        (s_x, s_y, s_j), (g_x, g_y, g_j) = gs.entropies[0], gs.det_gamma[0]
        assert (eof_from_invariants(s_x, s_j, s_y, g_x, g_j, g_y)
                == eof_from_invariants(s_j, s_x, s_y, g_j, g_x, g_y))


class TestTripartiteResidual:
    def test_spec_display_identity(self):
        # with E(x:y) = 0, the residual anchored at x is S(x) - E(x:j)
        row = sweep_row(1.5, 0.5)
        assert row["eof_x_y"] == 0.0
        assert abs(row["tri_j_yx"] - (row["s_x"] - row["eof_x_j"])) < 1e-12

    def test_monogamy_nonnegative(self):
        for lx, ly in ((0.5, 0.3), (1.5, 0.5), (0.9, 0.9), (1.8, 0.3)):
            row = sweep_row(lx, ly)
            # Anchored at j, at x and at y; the last is no report column.
            assert row["tri_x_yj"] >= -1e-9
            assert row["tri_j_yx"] >= -1e-9
            assert row["s_y"] - row["eof_x_y"] - row["eof_y_j"] >= -1e-9

    def test_peaked_near_criticality(self):
        mid = sweep_row(0.99, 0.5)["tri_x_yj"]
        low = sweep_row(0.5, 0.5)["tri_x_yj"]
        high = sweep_row(1.8, 0.5)["tri_x_yj"]
        assert mid > low and mid > high


class TestCorrelationReport:
    def test_frozen_values(self):
        r = correlation_report(gs_cm(1.5, 0.5))
        assert abs(r["s_x"] - 0.02401232445898967) < 1e-10
        assert abs(r["s_y"] - 0.012712974468045939) < 1e-10
        assert abs(r["s_j"] - 0.036425438996017204) < 1e-10
        assert abs(r["mi_xy_j"] - 0.07285087799203574) < 1e-10
        assert abs(r["mi_x_y"] - 0.00029985993101706854) < 1e-10
        assert abs(r["eof_x_j"] - 0.023857092114631773) < 1e-10
        assert abs(r["eof_y_j"] - 0.012557742123687932) < 1e-10
        assert r["eof_x_y"] == 0.0
        assert abs(r["tri_x_yj"] - 1.0604757697499356e-05) < 1e-10
        assert abs(r["tri_j_yx"] - 0.00015523234435789804) < 1e-10

    def test_keys_are_the_report_columns_in_order(self):
        # a one-point report is a sweep row's report cells, keyed alike
        r = correlation_report(gs_cm(1.5, 0.5))
        assert list(r) == [c for g in REPORT_GROUPS for c in GROUP_COLUMNS[g]]
        assert all(type(v) is float for v in r.values())

    def test_tripartite_fields_match_displays(self):
        r = correlation_report(gs_cm(1.5, 0.5))
        assert abs(r["tri_x_yj"] - (r["s_j"] - r["eof_x_j"] - r["eof_y_j"])) < 1e-12
        assert abs(r["tri_j_yx"] - (r["s_x"] - r["eof_x_j"] - r["eof_x_y"])) < 1e-12

    def test_purity_complements(self):
        r = correlation_report(gs_cm(1.2, 0.6))
        assert abs(r["s_xy"] - r["s_j"]) < 1e-8
        assert abs(r["s_xj"] - r["s_y"]) < 1e-8
        assert abs(r["s_yj"] - r["s_x"]) < 1e-8

    def test_coupling_swap_symmetry(self):
        r1 = correlation_report(gs_cm(1.5, 0.5))
        r2 = correlation_report(gs_cm(0.5, 1.5))
        assert abs(r1["s_x"] - r2["s_y"]) < 1e-8
        assert abs(r1["mi_x_j"] - r2["mi_y_j"]) < 1e-8
        assert abs(r1["eof_x_j"] - r2["eof_y_j"]) < 1e-8
        assert abs(r1["mi_xj_y"] - r2["mi_yj_x"]) < 1e-8

    def test_nonnegativity(self):
        r = correlation_report(gs_cm(0.9, 0.7))
        for name, value in r.items():
            assert value >= -1e-9, name

    @pytest.mark.parametrize("shape", [(4, 4), (6, 4)], ids=["4x4", "6x4"])
    def test_rejects_other_than_three_modes(self, shape):
        with pytest.raises(NotThreeModeError):
            correlation_report(0.5 * np.eye(*shape))

    def test_rejects_asymmetric(self):
        C = gs_cm(1.5, 0.5).copy()
        C[0, 4] += 0.1
        with pytest.raises(NonSymmetricError):
            correlation_report(C)

    def test_rejects_mixed(self):
        with pytest.raises(NotPureError):
            correlation_report(VACUUM + 0.5 * np.eye(6))  # thermal, nbar = 0.5


#: Each function that takes a matrix from outside, and a valid input of it.
MATRIX_INPUTS = {
    "renyi2_entropy": (renyi2_entropy, VACUUM[:2, :2]),
    "correlation_report": (correlation_report, VACUUM),
    "williamson": (williamson, np.eye(6)),
    "symplectic_eigenvalues": (symplectic_eigenvalues, np.eye(6)),
    "standard_form": (standard_form, VACUUM),
}


@pytest.mark.parametrize("entries", [[(0, 0)], [(0, 1), (1, 0)]], ids=["diagonal", "off-diagonal"])
@pytest.mark.parametrize("bad", [math.nan, math.inf], ids=["nan", "inf"])
@pytest.mark.parametrize("name", MATRIX_INPUTS)
def test_non_finite_entry_raises_before_any_warning(name, bad, entries):
    # the check comes before any LAPACK call, so it raises rather than
    # warning "invalid value encountered in det" and returning NaN
    function, valid = MATRIX_INPUTS[name]
    matrix = valid.copy()
    for entry in entries:
        matrix[entry] = bad
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        function(valid)
        with pytest.raises(NonSymmetricError, match="NaN or infinite"):
            function(matrix)
