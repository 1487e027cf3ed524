"""Two-mode Dicke model: classical ground state, fluctuations, gaps, scans."""

import math

import numpy as np
import pytest

from twomode_dicke import model
from twomode_dicke.errors import GoldstoneLineError, NearSingularError
from twomode_dicke.model import ModelParams, Phase
from twomode_dicke.symplectic import symplectic_eigenvalues, williamson


class TestModelParams:
    def test_critical_coupling(self):
        assert ModelParams(2.0, 8.0).lambda_c == 4.0

    def test_validation(self):
        with pytest.raises(ValueError):
            ModelParams(omega=-1.0)
        with pytest.raises(ValueError):
            ModelParams(lambda_x=-0.1)
        with pytest.raises(ValueError):
            ModelParams(omega=math.nan)
        with pytest.raises(ValueError):
            ModelParams(lambda_y=math.nan)
        assert ModelParams(lambda_x=math.inf).lambda_x == math.inf


class TestClassicalGroundState:
    def test_normal_phase(self):
        gs = model.classical_ground_state(ModelParams(1.0, 1.0, 0.5, 0.3))
        assert gs.phase is Phase.NORMAL
        assert gs.alpha_x == gs.alpha_y == 0.0
        assert gs.theta == math.pi
        assert gs.energy == -1.0

    def test_superradiant_x_frozen(self):
        gs = model.classical_ground_state(ModelParams(1.0, 1.0, 1.5, 0.5))
        assert gs.phase is Phase.SUPERRADIANT_X
        assert abs(math.cos(gs.theta) + 4.0 / 9.0) < 1e-12
        assert abs(gs.alpha_x + 1.3437096247164249) < 1e-10
        assert gs.alpha_y == 0.0 and gs.phi == 0.0
        assert abs(gs.energy + 1.3472222222222223) < 1e-12

    def test_superradiant_y_mirror(self):
        gs = model.classical_ground_state(ModelParams(1.0, 1.0, 0.5, 1.5))
        assert gs.phase is Phase.SUPERRADIANT_Y
        assert gs.alpha_x == 0.0
        assert abs(gs.phi - math.pi / 2.0) < 1e-12
        assert abs(gs.alpha_y + 1.3437096247164249) < 1e-10

    @pytest.mark.parametrize("scale", [1e-150, 1e-80, 1e80, 1e150])
    @pytest.mark.parametrize("lx, ly", [(2.0, 0.5), (0.5, 2.0), (0.5, 0.3), (30.0, 1.0)])
    def test_energy_is_scale_invariant(self, scale, lx, ly):
        # omega = omega0 = scale: lambda_c^4 under- or overflows, the energy in
        # units of omega does not move.
        ref = model.classical_ground_state(ModelParams(1.0, 1.0, lx, ly)).energy
        gs = model.classical_ground_state(ModelParams(scale, scale, lx * scale, ly * scale))
        assert gs.energy / scale == pytest.approx(ref, rel=1e-15, abs=0.0)

    def test_boundary_continuity(self):
        gs = model.classical_ground_state(ModelParams(1.0, 1.0, 1.0, 0.0))
        assert gs.phase is Phase.NORMAL
        assert gs.alpha_x == 0.0 and gs.energy == -1.0
        # just above: both branch formulas agree in the limit
        above = model.classical_ground_state(ModelParams(1.0, 1.0, 1.0 + 1e-8, 0.0))
        assert abs(above.energy + 1.0) < 1e-7
        assert abs(abs(math.cos(above.theta)) - 1.0) < 1e-7

    def test_goldstone_line_errors(self):
        with pytest.raises(GoldstoneLineError):
            model.classical_ground_state(ModelParams(1.0, 1.0, 1.5, 1.5))

    def test_z2_partner_equivalence(self):
        # the Z2-degenerate partner (alpha > 0) has the same fluctuation matrix
        p = ModelParams(1.0, 1.0, 1.5, 0.5)
        np.testing.assert_array_equal(
            model.fluctuation_matrix(p), model.fluctuation_matrix(p))


class TestFluctuationMatrix:
    def test_decoupled(self):
        K = model.fluctuation_matrix(ModelParams(1.0, 1.0, 0.0, 0.0))
        np.testing.assert_array_equal(K, np.eye(6))

    def test_normal_phase_pattern(self):
        K = model.fluctuation_matrix(ModelParams(1.0, 1.0, 0.8, 0.3))
        assert K[0, 4] == K[4, 0] == 0.8
        assert K[2, 5] == K[5, 2] == 0.3
        assert K[4, 4] == K[5, 5] == 1.0
        assert K[0, 0] == K[1, 1] == K[2, 2] == K[3, 3] == 1.0

    def test_superradiant_x_pattern(self):
        K = model.fluctuation_matrix(ModelParams(1.0, 1.0, 1.5, 0.5))
        assert abs(K[0, 4] + 2.0 / 3.0) < 1e-12
        assert abs(K[4, 4] - 2.25) < 1e-12
        assert K[2, 5] == 0.5

    def test_superradiant_y_pattern(self):
        K = model.fluctuation_matrix(ModelParams(1.0, 1.0, 0.5, 1.5))
        assert abs(K[2, 4] - 2.0 / 3.0) < 1e-12
        assert abs(K[4, 4] - 2.25) < 1e-12
        assert K[0, 5] == 0.5

    def test_positive_definite_off_critical(self):
        for lx, ly in ((0.5, 0.3), (1.5, 0.5), (0.5, 1.5), (0.9, 0.9)):
            K = model.fluctuation_matrix(ModelParams(1.0, 1.0, lx, ly))
            assert np.linalg.eigvalsh(K)[0] > 0.0


class TestExcitationGaps:
    def test_decoupled(self):
        nu = model.excitation_gaps(ModelParams(1.0, 1.0, 0.0, 0.0))
        np.testing.assert_allclose(nu, (1.0, 1.0, 1.0))

    def test_frozen_values(self):
        nu = model.excitation_gaps(ModelParams(1.0, 1.0, 1.5, 0.5))
        np.testing.assert_allclose(
            nu, (2.328425439292532, 0.9511804127801428, 0.8580156152418057),
            atol=1e-10)

    def test_goldstone_mode(self):
        nu = model.excitation_gaps(ModelParams(1.0, 1.0, 1.5, 1.5))
        assert nu[2] == 0.0
        assert nu[0] > nu[1] > 0.5

    def test_goldstone_approach_monotone(self):
        vals = []
        for k in range(2, 6):
            p = ModelParams(1.0, 1.0, 1.5, 1.5 * (1.0 - 10.0 ** (-k)))
            vals.append(model.excitation_gaps(p)[2])
        assert all(b < a for a, b in zip(vals, vals[1:]))
        assert vals[-1] < 1e-2

    def test_coupling_swap_symmetry(self):
        a = model.excitation_gaps(ModelParams(1.0, 1.0, 0.8, 0.3))
        b = model.excitation_gaps(ModelParams(1.0, 1.0, 0.3, 0.8))
        np.testing.assert_allclose(a, b, atol=1e-9)

    def test_second_order_gap_closing(self):
        vals = []
        for k in range(2, 6):
            p = ModelParams(1.0, 1.0, 1.0 - 10.0 ** (-k), 0.3)
            vals.append(model.excitation_gaps(p)[2])
        assert all(b < a for a, b in zip(vals, vals[1:]))


class TestGroundStateCM:
    def test_vacuum(self):
        C = model.ground_state_cm(ModelParams(1.0, 1.0, 0.0, 0.0))
        np.testing.assert_allclose(C, 0.5 * np.eye(6), atol=1e-12)

    def test_pure_and_physical(self):
        C = model.ground_state_cm(ModelParams(1.0, 1.0, 1.2, 0.6))
        assert abs(np.linalg.det(2.0 * C) - 1.0) < 1e-7
        assert symplectic_eigenvalues(2.0 * C)[-1] >= 1.0 - 1e-9

    def test_is_a_float_array_over_three_modes(self):
        C = model.ground_state_cm(ModelParams(1.0, 1.0, 0.5, 0.3))
        assert isinstance(C, np.ndarray) and C.shape == (6, 6) and C.dtype == float

    def test_entropy_divergence_toward_critical(self):
        from twomode_dicke.gaussian_info import renyi2_entropy
        s = [
            renyi2_entropy(
                model.ground_state_cm(ModelParams(1.0, 1.0, lx, 0.0))[:2, :2])
            for lx in (0.9, 0.99, 0.999)
        ]
        assert s[0] < s[1] < s[2]
        assert s[2] > 1.0

    def test_near_goldstone_raises(self):
        with pytest.raises((NearSingularError, GoldstoneLineError)):
            model.ground_state_cm(ModelParams(1.0, 1.0, 1.5, 1.5))

    @pytest.mark.parametrize("omega", [0.075, 1.0, 25.0])
    def test_stacked_cms_match(self, omega):
        points = [(0.5, 0.3), (0.3, 0.5), (1.5, 0.5), (0.5, 1.5), (0.0, 0.0), (2.0, 1.0),
                  (1.0, 2.0)]
        x, y = (np.array(c) for c in zip(*points))
        cms = model.stacked_cms(x, y, model.stacked_ground_states(omega, 1.0, x, y))
        base = ModelParams(omega, 1.0)
        for cm, (a, b) in zip(cms, points):
            p = base.with_couplings(a * base.lambda_c, b * base.lambda_c)
            M, _ = williamson(model.fluctuation_matrix(p))
            ref = 0.5 * np.linalg.inv(M @ M.T)
            assert np.max(np.abs(cm - ref)) <= 1e-13 * max(1.0, np.max(np.abs(ref)))


class TestEnergyDerivativeScan:
    def test_second_order_jump_at_critical(self):
        p = ModelParams(1.0, 1.0, 0.0, 0.3)
        grid = np.linspace(0.5, 1.5, 201)
        scan, jumps = model.gs_energy_derivative_scan(p, "x", grid)
        assert jumps["first_order"] is None
        assert jumps["second_order"] is not None
        lam = scan["coupling"][jumps["second_order"]]
        assert abs(lam - 1.0) < 0.02

    def test_first_order_jump_on_goldstone_crossing(self):
        p = ModelParams(1.0, 1.0, 0.0, 1.5)
        grid = np.linspace(1.2, 1.8, 201)
        scan, jumps = model.gs_energy_derivative_scan(p, "x", grid)
        assert jumps["first_order"] is not None
        lam = scan["coupling"][jumps["first_order"]]
        assert abs(lam - 1.5) < 0.02

    def test_flat_inside_normal_phase(self):
        p = ModelParams(1.0, 1.0, 0.0, 0.3)
        grid = np.linspace(0.1, 0.8, 51)
        scan, jumps = model.gs_energy_derivative_scan(p, "x", grid)
        assert jumps["first_order"] is None and jumps["second_order"] is None
        inner = slice(1, -1)  # d1 and d2 are nan at the edges
        assert np.all(np.abs(scan["d1"][inner]) < 1e-12)
        assert np.all(np.abs(scan["d2"][inner]) < 1e-10)

    def test_energy_continuous_across_second_order_line(self):
        e_below = model.ground_state_energy(ModelParams(1.0, 1.0, 1.0 - 1e-8, 0.3))
        e_above = model.ground_state_energy(ModelParams(1.0, 1.0, 1.0 + 1e-8, 0.3))
        assert abs(e_below - e_above) < 1e-7

    def test_rejects_bad_grid(self):
        p = ModelParams(1.0, 1.0, 0.0, 0.3)
        with pytest.raises(ValueError):
            model.gs_energy_derivative_scan(p, "x", [0.5, 0.4, 0.6, 0.7, 0.8])
        with pytest.raises(ValueError):
            model.gs_energy_derivative_scan(p, "z", np.linspace(0, 1, 11))
        with pytest.raises(ValueError):
            model.gs_energy_derivative_scan(p, "x", np.linspace(-0.5, 1, 11))
        with pytest.raises(ValueError):
            model.gs_energy_derivative_scan(p, "x", [0.5, 0.6, math.nan, 0.7, 0.8])
        with pytest.raises(ValueError):
            model.gs_energy_derivative_scan(p, "x", [0.5, 0.6, 0.7, 0.8, math.inf])

    @pytest.mark.parametrize("axis", ["x", "y"])
    def test_energies_match_one_point_energy(self, axis):
        # The scan evaluates the grid as one array; ground_state_energy is the
        # one-point form, and the two round ** differently by a few ulps.
        p = ModelParams(0.5, 2.0, 0.7, 0.4)
        grid = np.linspace(0.2, 3.0, 57)
        scan, _ = model.gs_energy_derivative_scan(p, axis, grid)
        np.testing.assert_array_equal(scan["coupling"], grid)
        for coupling, energy in zip(scan["coupling"].tolist(), scan["energy"].tolist()):
            q = (p.with_couplings(coupling, p.lambda_y) if axis == "x"
                 else p.with_couplings(p.lambda_x, coupling))
            assert abs(energy - model.ground_state_energy(q)) <= 1e-14 * max(1.0, abs(energy))
