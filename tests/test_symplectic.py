"""Symplectic linear algebra: frozen oracles first, then properties."""

import numpy as np
import pytest
from scipy.linalg import block_diag

from twomode_dicke import model
from twomode_dicke.errors import (
    NearSingularError,
    NonPositiveDefiniteError,
    NonSymmetricError,
    NotPureError,
    NotThreeModeError,
    NumericalFailureError,
)
from twomode_dicke.symplectic import (
    standard_form,
    symplectic_eigenvalues,
    symplectic_form,
    williamson,
)


def random_local_symplectic(rng, squeeze=0.7):
    blocks = []
    for _ in range(3):
        th, ph = rng.uniform(-np.pi, np.pi, 2)
        r = rng.uniform(-squeeze, squeeze)
        r1 = np.array([[np.cos(th), -np.sin(th)], [np.sin(th), np.cos(th)]])
        r2 = np.array([[np.cos(ph), -np.sin(ph)], [np.sin(ph), np.cos(ph)]])
        blocks.append(r1 @ np.diag([np.exp(r), np.exp(-r)]) @ r2)
    return block_diag(*blocks)


class TestSymplecticForm:
    def test_single_mode(self):
        np.testing.assert_array_equal(symplectic_form(1), [[0.0, 1.0], [-1.0, 0.0]])

    def test_three_modes_block_structure(self):
        omega = symplectic_form(3)
        expected = block_diag(*[np.array([[0.0, 1.0], [-1.0, 0.0]])] * 3)
        np.testing.assert_array_equal(omega, expected)

    def test_square_is_minus_identity(self):
        omega = symplectic_form(3)
        np.testing.assert_allclose(omega @ omega, -np.eye(6), atol=0)
        np.testing.assert_array_equal(omega.T, -omega)

    def test_rejects_nonpositive_n(self):
        with pytest.raises(ValueError):
            symplectic_form(0)


class TestSymplecticEigenvalues:
    def test_identity(self):
        np.testing.assert_allclose(symplectic_eigenvalues(np.eye(6)), [1, 1, 1])

    def test_single_mode_squeezed(self):
        np.testing.assert_allclose(symplectic_eigenvalues(np.diag([4.0, 1.0])), [2.0])

    def test_decoupled_fluctuation_matrix(self):
        K = model.fluctuation_matrix(model.ModelParams(1.0, 1.0, 0.0, 0.0))
        np.testing.assert_allclose(symplectic_eigenvalues(K), [1, 1, 1])

    def test_sorted_descending(self):
        nu = symplectic_eigenvalues(np.diag([9.0, 1.0, 1.0, 1.0, 25.0, 1.0]))
        np.testing.assert_allclose(nu, [5.0, 3.0, 1.0])

    def test_rejects_asymmetric(self):
        bad = np.eye(6)
        bad[0, 1] = 1e-3
        with pytest.raises(NonSymmetricError):
            symplectic_eigenvalues(bad)

    def test_rejects_odd_dimension(self):
        with pytest.raises(NonSymmetricError):
            symplectic_eigenvalues(np.eye(3))

    def test_indefinite_input_fails(self):
        with pytest.raises(NumericalFailureError):
            symplectic_eigenvalues(np.diag([1.0, -1.0, 1.0, 1.0, 1.0, 1.0]))

    def test_invariance_under_symplectic_conjugation(self):
        rng = np.random.default_rng(11)
        K = model.fluctuation_matrix(model.ModelParams(1.0, 1.0, 0.8, 0.3))
        ref = symplectic_eigenvalues(K)
        for _ in range(25):
            S = random_local_symplectic(rng)
            np.testing.assert_allclose(
                symplectic_eigenvalues(S @ K @ S.T), ref, atol=1e-8
            )


class TestWilliamson:
    def test_identity(self):
        M, nu = williamson(np.eye(6))
        np.testing.assert_allclose(nu, [1, 1, 1], atol=1e-12)
        np.testing.assert_allclose(M @ np.diag(np.repeat(nu, 2)) @ M.T, np.eye(6), atol=1e-12)

    def test_single_mode_squeezer(self):
        K = np.diag([4.0, 1.0])
        M, nu = williamson(K)
        np.testing.assert_allclose(nu, [2.0], atol=1e-12)
        np.testing.assert_allclose(M @ np.diag(np.repeat(nu, 2)) @ M.T, K, atol=1e-10)
        omega = symplectic_form(1)
        np.testing.assert_allclose(M @ omega @ M.T, omega, atol=1e-10)

    def test_superradiant_fluctuation_matrix(self):
        K = model.fluctuation_matrix(model.ModelParams(1.0, 1.0, 1.5, 0.5))
        M, nu = williamson(K)
        np.testing.assert_allclose(nu, symplectic_eigenvalues(K), atol=1e-9)
        omega = symplectic_form(3)
        np.testing.assert_allclose(M @ omega @ M.T, omega, atol=1e-9)
        np.testing.assert_allclose(M @ np.diag(np.repeat(nu, 2)) @ M.T, K, atol=1e-9)

    def test_random_positive_definite(self):
        rng = np.random.default_rng(5)
        omega = symplectic_form(3)
        for _ in range(50):
            A = rng.normal(size=(6, 6))
            K = A @ A.T + 0.5 * np.eye(6)
            M, nu = williamson(K)
            scale = np.max(np.abs(K))
            assert np.max(np.abs(M @ omega @ M.T - omega)) < 1e-9 * max(scale, 1)
            assert np.max(np.abs(M @ np.diag(np.repeat(nu, 2)) @ M.T - K)) < 1e-9 * scale
            assert np.all(np.diff(nu) <= 1e-12)

    def test_near_singular_raises(self):
        # exactly critical coupling: soft mode below the gap floor
        K = model.fluctuation_matrix(model.ModelParams(1.0, 1.0, 1.0, 0.0))
        with pytest.raises((NearSingularError, NonPositiveDefiniteError)):
            williamson(K)

    def test_nonpositive_raises(self):
        with pytest.raises(NonPositiveDefiniteError):
            williamson(np.diag([1.0, 1.0, 1.0, 1.0, 1.0, -0.1]))


class TestStandardForm:
    def test_vacuum(self):
        sf = standard_form(0.5 * np.eye(6))
        np.testing.assert_allclose(sf.a, [1, 1, 1], atol=1e-12)
        np.testing.assert_allclose(sf.c_plus, 0.0, atol=1e-12)
        np.testing.assert_allclose(sf.c_minus, 0.0, atol=1e-12)
        np.testing.assert_allclose(sf.matrix(), np.eye(6), atol=1e-12)

    def test_idempotence(self):
        C = model.ground_state_cm(model.ModelParams(1.0, 1.0, 1.5, 0.5))
        sf = standard_form(C)
        sf2 = standard_form(sf.matrix() / 2.0)
        np.testing.assert_array_equal(sf.a, sf2.a)
        np.testing.assert_array_equal(sf.c_plus, sf2.c_plus)
        np.testing.assert_array_equal(sf.c_minus, sf2.c_minus)

    def test_local_invariants_match_reductions(self):
        C = model.ground_state_cm(model.ModelParams(1.0, 1.0, 1.2, 0.6))
        sf = standard_form(C)
        for i in range(3):
            blk = 2.0 * C[2 * i:2 * i + 2, 2 * i:2 * i + 2]
            assert abs(sf.a[i] - np.sqrt(np.linalg.det(blk))) < 1e-9

    def test_frozen_values(self):
        C = model.ground_state_cm(model.ModelParams(1.0, 1.0, 1.2, 0.6))
        sf = standard_form(C)
        np.testing.assert_allclose(sf.a, [1.08909564, 1.03578619, 1.12487297], atol=1e-7)
        # Closed-form convention: c+ = (r_1 + r_2) / (4 sqrt(a_i a_j)), so
        # |c+| >= |c-| and c+ >= 0; a local pi/2 rotation would swap them.
        np.testing.assert_allclose(
            sf.c_plus, [0.27634625, 0.43546143, 0.05952531], atol=1e-7)
        np.testing.assert_allclose(
            sf.c_minus, [-0.27513115, -0.43472906, 0.05339615], atol=1e-7)

    def test_pure_state_determinant(self):
        C = model.ground_state_cm(model.ModelParams(1.0, 1.0, 1.2, 0.6))
        sf = standard_form(C)
        assert abs(np.linalg.det(sf.matrix()) - 1.0) < 1e-7

    def test_pair_invariants_match_input(self):
        # det of each off-diagonal block and of each two-mode reduction is
        # invariant under local symplectic maps, so the closed form must
        # reproduce those of the input, not only the a_i.
        rng = np.random.default_rng(17)
        for lx, ly in ((1.2, 0.6), (1.5, 0.5), (0.5, 1.5), (0.8, 0.3), (2.5, 1.7)):
            C = model.ground_state_cm(model.ModelParams(1.0, 1.0, lx, ly))
            L = random_local_symplectic(rng)
            B = 2.0 * L @ C @ L.T
            M = standard_form(B / 2.0).matrix()
            for i, j in ((0, 1), (0, 2), (1, 2)):
                off = np.ix_([2 * i, 2 * i + 1], [2 * j, 2 * j + 1])
                pair = np.ix_(*2 * [[2 * i, 2 * i + 1, 2 * j, 2 * j + 1]])
                assert abs(np.linalg.det(M[off]) - np.linalg.det(B[off])) < 1e-10
                assert abs(np.linalg.det(M[pair]) - np.linalg.det(B[pair])) < 1e-10

    def test_decoupled_mode(self):
        # lambda_x = 0 leaves mode x in vacuum, unconstrained by the others
        C = model.ground_state_cm(model.ModelParams(1.0, 1.0, 0.0, 0.5))
        sf = standard_form(C)
        assert abs(sf.a[0] - 1.0) < 1e-12
        np.testing.assert_allclose(sf.c_plus[1:], 0.0, atol=1e-12)
        np.testing.assert_allclose(sf.c_minus[1:], 0.0, atol=1e-12)
        assert abs(sf.c_plus[0]) > 0.1  # y-j correlation survives

    def test_invariance_under_local_symplectics(self):
        rng = np.random.default_rng(13)
        C = model.ground_state_cm(model.ModelParams(1.0, 1.0, 1.5, 0.5))
        ref = standard_form(C)
        for _ in range(30):
            L = random_local_symplectic(rng)
            sf = standard_form(L @ C @ L.T)
            np.testing.assert_allclose(sf.a, ref.a, atol=1e-8)

    def test_rejects_wrong_dimension(self):
        with pytest.raises(NotThreeModeError):
            standard_form(0.5 * np.eye(4))

    def test_pure_flag_rejects_mixed_state(self):
        with pytest.raises(NotPureError):
            standard_form(np.eye(6))  # thermal, det(2C) = 64
