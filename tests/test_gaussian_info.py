"""Correlation measures on Gaussian states: frozen oracles and identities."""

import math

import numpy as np
import pytest

from twomode_dicke import model
from twomode_dicke.errors import (
    NonPhysicalError,
    NotPureError,
    UnknownModeError,
)
from twomode_dicke.gaussian_info import (
    CovarianceMatrix,
    correlation_report,
    eof_pure_bipartition,
    eof_two_of_three,
    mutual_information,
    reduce,
    renyi2_entropy,
    tripartite_residual,
)

VACUUM = CovarianceMatrix(("x", "y", "j"), 0.5 * np.eye(6))


def gs_cm(lx, ly, omega=1.0, omega0=1.0):
    return model.ground_state_cm(model.ModelParams(omega, omega0, lx, ly))


class TestCovarianceMatrix:
    def test_reduce_vacuum(self):
        red = reduce(VACUUM, ("x",))
        assert red.modes == ("x",)
        np.testing.assert_allclose(red.mat, 0.5 * np.eye(2))

    def test_reduce_composition(self):
        C = gs_cm(1.2, 0.6)
        one_step = C.reduce(("x",))
        two_step = C.reduce(("x", "y")).reduce(("x",))
        np.testing.assert_array_equal(one_step.mat, two_step.mat)

    def test_reduce_index_bookkeeping(self):
        C = gs_cm(1.2, 0.6)
        np.testing.assert_array_equal(C.reduce(("j",)).mat, C.mat[4:, 4:])

    def test_reduce_unknown_mode(self):
        with pytest.raises(UnknownModeError):
            VACUUM.reduce(("z",))
        with pytest.raises(UnknownModeError):
            VACUUM.reduce(())

    def test_physicality_and_purity(self):
        C = gs_cm(1.2, 0.6)
        assert C.is_physical()
        assert C.is_pure()
        assert abs(C.det2() - 1.0) < 1e-7

    def test_rejects_dimension_mismatch(self):
        with pytest.raises(ValueError):
            CovarianceMatrix(("x", "y"), 0.5 * np.eye(6))


class TestRenyi2Entropy:
    def test_vacuum(self):
        assert renyi2_entropy(VACUUM.reduce(("x",))) == 0.0

    def test_thermal(self):
        nbar = 0.5
        C = CovarianceMatrix(("x",), (nbar + 0.5) * np.eye(2))
        assert abs(renyi2_entropy(C) - math.log(2.0)) < 1e-12

    def test_global_ground_state_is_pure(self):
        for lx, ly in ((0.5, 0.3), (1.5, 0.5), (0.5, 1.5), (1.2, 0.6)):
            assert abs(renyi2_entropy(gs_cm(lx, ly))) < 1e-7

    def test_rejects_unphysical(self):
        with pytest.raises(NonPhysicalError):
            renyi2_entropy(CovarianceMatrix(("x",), 0.25 * np.eye(2)))


class TestMutualInformation:
    def test_vacuum(self):
        assert abs(mutual_information(VACUUM, (("x", "y"), ("j",)))) < 1e-12

    def test_decoupled_hamiltonian(self):
        C = gs_cm(0.0, 0.0)
        assert abs(mutual_information(C, (("x", "y"), ("j",)))) < 1e-12

    def test_additivity_identities(self):
        C = gs_cm(1.5, 0.5)
        i_xy_j = mutual_information(C, (("x", "y"), ("j",)))
        i_x_j = mutual_information(C, (("x",), ("j",)))
        i_y_j = mutual_information(C, (("y",), ("j",)))
        i_xj_y = mutual_information(C, (("x", "j"), ("y",)))
        i_x_y = mutual_information(C, (("x",), ("y",)))
        assert abs(i_xy_j - i_x_j - i_y_j) < 1e-8
        assert abs(i_xj_y - i_x_y - i_y_j) < 1e-8

    def test_complementary_bipartition_is_twice_entropy(self):
        C = gs_cm(1.5, 0.5)
        s_x = renyi2_entropy(C.reduce(("x",)))
        assert abs(mutual_information(C, (("x",), ("y", "j"))) - 2 * s_x) < 1e-9

    def test_rejects_overlapping_partition(self):
        with pytest.raises(UnknownModeError):
            mutual_information(VACUUM, (("x", "y"), ("y",)))


class TestEofPureBipartition:
    def test_vacuum(self):
        assert eof_pure_bipartition(VACUUM, ("x",)) == 0.0

    def test_equals_half_mutual_information(self):
        C = gs_cm(1.5, 0.5)
        e = eof_pure_bipartition(C, ("x",))
        i = mutual_information(C, (("x",), ("y", "j")))
        assert abs(e - 0.5 * i) < 1e-9

    def test_growth_toward_criticality(self):
        low = eof_pure_bipartition(gs_cm(0.5, 0.5), ("j",))
        high = eof_pure_bipartition(gs_cm(1.05, 0.5), ("j",))
        assert high > low

    def test_rejects_mixed_global_state(self):
        with pytest.raises(NotPureError):
            eof_pure_bipartition(
                CovarianceMatrix(("x", "y", "j"), 0.6 * np.eye(6)), ("x",))


class TestEofTwoOfThree:
    def test_vacuum_all_pairs(self):
        for pair in (("x", "y"), ("x", "j"), ("y", "j")):
            assert eof_two_of_three(VACUUM, pair) == 0.0

    def test_intermode_eof_vanishes_on_grid(self):
        for lx in np.linspace(0.0, 2.0, 11):
            for ly in np.linspace(0.0, 2.0, 11):
                if abs(lx - 1.0) < 0.02 or abs(ly - 1.0) < 0.02:
                    continue
                if abs(lx - ly) < 0.02 and lx > 1.0:
                    continue
                assert eof_two_of_three(gs_cm(lx, ly), ("x", "y")) < 1e-8

    def test_roughly_half_of_mutual_information(self):
        C = gs_cm(1.5, 0.5)
        e = eof_two_of_three(C, ("x", "j"))
        i = mutual_information(C, (("x",), ("j",)))
        assert abs(e - 0.5 * i) < 0.25 * abs(0.5 * i)

    def test_pair_order_irrelevant(self):
        C = gs_cm(1.5, 0.5)
        assert eof_two_of_three(C, ("x", "j")) == eof_two_of_three(C, ("j", "x"))

    def test_rejects_repeated_mode(self):
        with pytest.raises(UnknownModeError):
            eof_two_of_three(VACUUM, ("x", "x"))

    def test_rejects_mixed_global_state(self):
        # The closed form holds for pure three-mode states only.
        with pytest.raises(NotPureError):
            eof_two_of_three(
                CovarianceMatrix(("x", "y", "j"), 0.6 * np.eye(6)), ("x", "j"))


class TestTripartiteResidual:
    def test_vacuum(self):
        assert tripartite_residual(VACUUM, "x", ("y", "j")) == 0.0

    def test_spec_display_identity(self):
        # with E(x:y) = 0, the residual anchored at x is S(x) - E(x:j)
        C = gs_cm(1.5, 0.5)
        res = tripartite_residual(C, "x", ("y", "j"))
        expected = renyi2_entropy(C.reduce(("x",))) - eof_two_of_three(C, ("x", "j"))
        assert abs(res - expected) < 1e-9

    def test_monogamy_nonnegative(self):
        for lx, ly in ((0.5, 0.3), (1.5, 0.5), (0.9, 0.9), (1.8, 0.3)):
            C = gs_cm(lx, ly)
            for anchor, pair in (("x", ("y", "j")), ("j", ("x", "y")), ("y", ("x", "j"))):
                assert tripartite_residual(C, anchor, pair) >= -1e-9

    def test_peaked_near_criticality(self):
        mid = tripartite_residual(gs_cm(0.99, 0.5), "j", ("x", "y"))
        low = tripartite_residual(gs_cm(0.5, 0.5), "j", ("x", "y"))
        high = tripartite_residual(gs_cm(1.8, 0.5), "j", ("x", "y"))
        assert mid > low and mid > high


class TestCorrelationReport:
    def test_frozen_values(self):
        r = correlation_report(gs_cm(1.5, 0.5))
        assert abs(r.s_x - 0.02401232445898967) < 1e-10
        assert abs(r.s_y - 0.012712974468045939) < 1e-10
        assert abs(r.s_j - 0.036425438996017204) < 1e-10
        assert abs(r.mi_xy_j - 0.07285087799203574) < 1e-10
        assert abs(r.mi_x_y - 0.00029985993101706854) < 1e-10
        assert abs(r.eof_x_j - 0.023857092114631773) < 1e-10
        assert abs(r.eof_y_j - 0.012557742123687932) < 1e-10
        assert r.eof_x_y == 0.0
        assert abs(r.tri_x_yj - 1.0604757697499356e-05) < 1e-10
        assert abs(r.tri_j_yx - 0.00015523234435789804) < 1e-10
        assert not r.diverged

    def test_tripartite_fields_match_displays(self):
        r = correlation_report(gs_cm(1.5, 0.5))
        assert abs(r.tri_x_yj - (r.s_j - r.eof_x_j - r.eof_y_j)) < 1e-12
        assert abs(r.tri_j_yx - (r.s_x - r.eof_x_j - r.eof_x_y)) < 1e-12

    def test_purity_complements(self):
        r = correlation_report(gs_cm(1.2, 0.6))
        assert abs(r.s_xy - r.s_j) < 1e-8
        assert abs(r.s_xj - r.s_y) < 1e-8
        assert abs(r.s_yj - r.s_x) < 1e-8

    def test_coupling_swap_symmetry(self):
        r1 = correlation_report(gs_cm(1.5, 0.5))
        r2 = correlation_report(gs_cm(0.5, 1.5))
        assert abs(r1.s_x - r2.s_y) < 1e-8
        assert abs(r1.mi_x_j - r2.mi_y_j) < 1e-8
        assert abs(r1.eof_x_j - r2.eof_y_j) < 1e-8
        assert abs(r1.mi_xj_y - r2.mi_yj_x) < 1e-8

    def test_diverged_report(self):
        r = correlation_report(None, diverged=True)
        assert r.diverged
        assert math.isnan(r.s_x) and math.isnan(r.tri_j_yx)

    def test_nonnegativity(self):
        r = correlation_report(gs_cm(0.9, 0.7))
        for name, value in r.to_dict().items():
            if name == "diverged":
                continue
            assert value >= -1e-9, name

    def test_rejects_wrong_modes(self):
        C = CovarianceMatrix(("x", "y", "z"), 0.5 * np.eye(6))
        with pytest.raises(UnknownModeError):
            correlation_report(C)
