"""Finite-size exact diagonalization oracle."""

import warnings

import numpy as np
import pytest
from scipy.linalg import expm
from scipy.sparse.linalg import LinearOperator, eigsh

from twomode_dicke import model, oracle
from twomode_dicke.errors import BudgetExceededError
from twomode_dicke.gaussian_info import renyi2_entropy
from twomode_dicke.model import ModelParams
from twomode_dicke.oracle import TruncationSpec, exact_ground_state


class TestTruncationSpec:
    def test_dimension(self):
        assert TruncationSpec(j=10, n_max=4).dimension == 25 * 21

    def test_half_integer_spin_allowed(self):
        assert TruncationSpec(j=2.5, n_max=2).dimension == 9 * 6

    def test_validation(self):
        with pytest.raises(ValueError):
            TruncationSpec(j=0, n_max=4)
        with pytest.raises(ValueError):
            TruncationSpec(j=1.3, n_max=4)
        with pytest.raises(ValueError):
            TruncationSpec(j=2, n_max=0)

    def test_budget_enforced(self):
        with pytest.raises(BudgetExceededError):
            exact_ground_state(ModelParams(1.0, 1.0, 0.1, 0.1),
                               TruncationSpec(j=500, n_max=20))


#: One point of each phase, and the decoupled point.
PHASE_POINTS = {
    "normal": ModelParams(1.0, 1.0, 0.5, 0.3),
    "superradiant-x": ModelParams(1.0, 1.0, 1.5, 0.5),
    "superradiant-y": ModelParams(1.0, 1.0, 0.5, 1.5),
    "decoupled": ModelParams(1.0, 1.0, 0.0, 0.0),
}

#: The uncondensed boson (0 = x, 1 = y) whose coupling carries Jy in the
#: classical frame; the real Hamiltonian is conjugated by diag(i^n) on it.
CONJUGATED_MODE = {"normal": 1, "superradiant-x": 1, "superradiant-y": 0, "decoupled": 1}


def dense_spin_ops(j):
    """Dense complex Jx, Jy, Jz in the basis m = j .. -j."""
    m = np.arange(j, -j - 1.0, -1.0)
    jp = np.diag(np.sqrt(j * (j + 1.0) - m[1:] * (m[1:] + 1.0)), 1)
    return 0.5 * (jp + jp.T), -0.5j * (jp - jp.T), np.diag(m)


def dense_classical_frame_hamiltonian(p, spec):
    """The complex classical-frame Hamiltonian, built densely with np.kron and expm.

    Each boson is displaced by sqrt(j/2) alpha, the spin rotated by
    U = e^{-i phi Jz} e^{-i theta Jy}, and a field SYMMETRY_BREAKING_FIELD
    couples to the quadrature of each condensed boson.
    """
    gs = model.classical_ground_state(p)
    nb = spec.n_max + 1
    a = np.diag(np.sqrt(np.arange(1.0, nb)), 1)
    ib = np.eye(nb)
    jx, jy, jz = dense_spin_ops(spec.j)
    ispin = np.eye(jz.shape[0])
    u = expm(-1j * gs.phi * jz) @ expm(-1j * gs.theta * jy)
    rx, ry, rz = (u.conj().T @ op @ u for op in (jx, jy, jz))
    g = 1.0 / np.sqrt(2.0 * spec.j)
    H = p.omega0 * np.kron(np.kron(ib, ib), rz)
    for alpha, coupling, spin, place in ((gs.alpha_x, p.lambda_x, rx, 0),
                                         (gs.alpha_y, p.lambda_y, ry, 1)):
        d = np.sqrt(spec.j / 2.0) * alpha
        shifted = a + d * ib
        field = oracle.SYMMETRY_BREAKING_FIELD if alpha != 0.0 else 0.0
        ops = [ib, ib]
        ops[place] = shifted.T @ shifted
        H = H + p.omega * np.kron(np.kron(*ops), ispin)
        ops[place] = shifted + shifted.T
        H = H + np.kron(np.kron(*ops), coupling * g * spin + field * ispin)
    return H


class TestSparseBuild:
    @pytest.mark.parametrize("j", [0.5, 1, 5, 20])
    @pytest.mark.parametrize("phase", ["normal", "superradiant-x", "superradiant-y"])
    def test_rotation_matches_dense_conjugation(self, phase, j):
        gs = model.classical_ground_state(PHASE_POINTS[phase])
        jx, jy, jz = dense_spin_ops(j)
        u = expm(-1j * gs.phi * jz) @ expm(-1j * gs.theta * jy)
        # the conjugated mode's spin component comes as i U^dag J U, which is real
        factors = [1.0, 1.0, 1.0]
        factors[CONJUGATED_MODE[phase]] = 1j
        for rotated, op, f in zip(oracle._rotated_spin_ops(gs, j), (jx, jy, jz), factors):
            assert rotated.dtype == np.float64
            np.testing.assert_allclose(rotated.toarray(), f * (u.conj().T @ op @ u),
                                       rtol=0, atol=1e-12)

    @pytest.mark.parametrize("n_max", [1, 3])
    @pytest.mark.parametrize("j", [0.5, 5])
    @pytest.mark.parametrize("phase", sorted(PHASE_POINTS))
    def test_real_hamiltonian_is_conjugated_dense_reference(self, phase, j, n_max):
        p = PHASE_POINTS[phase]
        spec = TruncationSpec(j=j, n_max=n_max)
        H = oracle._hamiltonian(p, spec, model.classical_ground_state(p))
        assert H.format == "csr" and H.dtype == np.float64
        phases = [np.ones(n_max + 1), np.ones(n_max + 1)]
        phases[CONJUGATED_MODE[phase]] = 1j ** np.arange(n_max + 1)
        d = np.kron(np.kron(*phases), np.ones(int(2 * j) + 1))
        reference = d.conj()[:, None] * dense_classical_frame_hamiltonian(p, spec) * d[None, :]
        np.testing.assert_allclose(reference.imag, 0.0, rtol=0, atol=1e-12)
        np.testing.assert_allclose(H.toarray(), reference.real, rtol=0, atol=1e-12)
        assert (H != H.T).nnz == 0

    @pytest.mark.parametrize("n_max", [1, 3])
    @pytest.mark.parametrize("j", [0.5, 5])
    @pytest.mark.parametrize("phase", sorted(PHASE_POINTS))
    def test_cutoff_is_principal_block_of_larger_cutoff(self, phase, j, n_max):
        p = PHASE_POINTS[phase]
        gs = model.classical_ground_state(p)
        bigger = TruncationSpec(j=j, n_max=n_max + 2)
        block = oracle._fock_block(bigger, n_max)
        small = oracle._hamiltonian(p, TruncationSpec(j=j, n_max=n_max), gs)
        sliced = oracle._hamiltonian(p, bigger, gs)[block][:, block]
        assert sliced.shape == small.shape and (sliced != small).nnz == 0

    @pytest.mark.parametrize("j", [5, 20])
    @pytest.mark.parametrize("phase", ["normal", "superradiant-x", "superradiant-y"])
    def test_hamiltonian_stays_sparse(self, phase, j):
        p = PHASE_POINTS[phase]
        H = oracle._hamiltonian(p, TruncationSpec(j=j, n_max=10),
                                model.classical_ground_state(p))
        assert H.nnz / H.shape[0] <= 13

    @pytest.mark.parametrize("n_max", [1, 3, 10])
    @pytest.mark.parametrize("j", [0.5, 2.5, 5])
    @pytest.mark.parametrize("phase", sorted(PHASE_POINTS))
    def test_lanczos_matches_dense_spectrum(self, phase, j, n_max):
        p = PHASE_POINTS[phase]
        H = oracle._hamiltonian(p, TruncationSpec(j=j, n_max=n_max),
                                model.classical_ground_state(p))
        reference = np.linalg.eigvalsh(H.toarray())[0]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            energy, _ = oracle._ground_vector(H)
        assert abs(energy - reference) <= 1e-12 * abs(reference)


class TestWarmResolve:
    @pytest.mark.parametrize("j", [5, 20])
    @pytest.mark.parametrize("phase", ["normal", "superradiant-x", "superradiant-y"])
    def test_warm_and_cold_resolves_agree(self, phase, j, monkeypatch):
        solves = []

        def recording_eigsh(H, **kwargs):
            out = eigsh(H, **kwargs)
            solves.append((H, kwargs["v0"], out))
            return out

        monkeypatch.setattr(oracle, "eigsh", recording_eigsh)
        spec = TruncationSpec(j=j, n_max=8)
        res = exact_ground_state(PHASE_POINTS[phase], spec)
        (_, _, (e_first, psi)), (H_big, v0, (e_warm, _)) = solves

        # the re-solve starts from the first ground vector, zero-padded
        block = oracle._fock_block(TruncationSpec(j=j, n_max=10), 8)
        np.testing.assert_array_equal(v0[block], psi[:, 0])
        assert not np.delete(v0, block).any()
        assert res.resolve_de == abs(e_warm[0] - e_first[0]) / j

        matvecs = []

        def counted_solve(start):
            count = [0]

            def matvec(v):
                count[0] += 1
                return H_big @ v

            op = LinearOperator(H_big.shape, matvec=matvec, dtype=H_big.dtype)
            energy = eigsh(op, k=1, which="SA", v0=start, maxiter=5000)[0][0]
            matvecs.append(count[0])
            return energy

        cold = counted_solve(np.ones(H_big.shape[0]) / np.sqrt(H_big.shape[0]))
        counted_solve(v0)
        assert abs(e_warm[0] - cold) <= 1e-12 * abs(cold)
        assert matvecs[1] < matvecs[0]


class TestDecoupledPoint:
    def test_exact_ground_state_at_zero_coupling(self):
        res = exact_ground_state(ModelParams(1.0, 1.0, 0.0, 0.0),
                                 TruncationSpec(j=4, n_max=3))
        assert abs(res.energy_per_spin + 1.0) < 1e-12
        np.testing.assert_allclose(res.cm.mat[:4, :4], 0.5 * np.eye(4), atol=1e-10)
        np.testing.assert_allclose(res.means, 0.0, atol=1e-10)
        assert res.converged


class TestNormalPhaseConvergence:
    def test_energy_deviation_shrinks_with_j(self):
        p = ModelParams(1.0, 1.0, 0.5, 0.3)
        devs = [
            abs(exact_ground_state(p, TruncationSpec(j=j, n_max=8),
                                   check_convergence=False).energy_per_spin + 1.0)
            for j in (5, 10)
        ]
        assert devs[1] < devs[0]

    def test_cm_deviation_shrinks_when_j_doubles(self):
        p = ModelParams(1.0, 1.0, 0.25, 0.15)  # deep normal phase
        analytic = model.ground_state_cm(p).mat
        devs = [
            np.max(np.abs(
                exact_ground_state(p, TruncationSpec(j=j, n_max=8),
                                   check_convergence=False).cm.mat - analytic))
            for j in (5, 10)
        ]
        assert devs[1] < devs[0]

    def test_entropy_approaches_analytic(self):
        p = ModelParams(1.0, 1.0, 0.5, 0.3)
        target = renyi2_entropy(model.ground_state_cm(p).reduce(("x",)))
        errs = []
        for j in (5, 15):
            res = exact_ground_state(p, TruncationSpec(j=j, n_max=8),
                                     check_convergence=False)
            errs.append(abs(renyi2_entropy(res.cm.reduce(("x",))) - target))
        assert errs[1] < errs[0]
        assert errs[1] < 0.01

    def test_oracle_cm_physical(self):
        p = ModelParams(1.0, 1.0, 0.5, 0.3)
        res = exact_ground_state(p, TruncationSpec(j=10, n_max=8),
                                 check_convergence=False)
        nu = res.cm.symplectic_spectrum()
        assert nu[-1] >= 1.0 - 0.05

    def test_energy_monotone_in_cutoff(self):
        p = ModelParams(1.0, 1.0, 0.5, 0.3)
        energies = [
            exact_ground_state(p, TruncationSpec(j=5, n_max=n),
                               check_convergence=False).energy_per_spin
            for n in (2, 4, 6, 8)
        ]
        assert all(b <= a + 1e-14 for a, b in zip(energies, energies[1:]))

    def test_convergence_flag(self):
        p = ModelParams(1.0, 1.0, 0.5, 0.3)
        res = exact_ground_state(p, TruncationSpec(j=5, n_max=12))
        assert res.converged

    def test_resolve_de_reports_the_cutoff_change(self):
        p = ModelParams(1.0, 1.0, 0.5, 0.3)
        res = exact_ground_state(p, TruncationSpec(j=5, n_max=4))
        bigger = exact_ground_state(p, TruncationSpec(j=5, n_max=6),
                                    check_convergence=False)
        assert bigger.resolve_de is None
        assert res.resolve_de == pytest.approx(
            abs(bigger.energy_per_spin - res.energy_per_spin), rel=1e-12, abs=1e-15)
        assert res.converged == (res.resolve_de * 5 < oracle.CONVERGENCE_TOL)

    def test_resolve_de_none_over_budget(self, monkeypatch):
        spec = TruncationSpec(j=2, n_max=2)
        monkeypatch.setattr(oracle, "DIMENSION_BUDGET", spec.dimension)
        res = exact_ground_state(ModelParams(1.0, 1.0, 0.5, 0.3), spec)
        assert res.resolve_de is None
        assert not res.converged


class TestSuperradiantPhase:
    def test_cm_matches_analytic_at_one_over_j(self):
        p = ModelParams(1.0, 1.0, 1.5, 0.5)
        analytic = model.ground_state_cm(p).mat
        devs = []
        for j in (5, 10, 20):
            res = exact_ground_state(p, TruncationSpec(j=j, n_max=8),
                                     check_convergence=False)
            devs.append(np.max(np.abs(res.cm.mat - analytic)))
        assert devs[2] < devs[1] < devs[0]
        assert devs[2] < 0.01
        # deviation consistent with O(1/j): ratio j=5 to j=20 near 4
        assert devs[0] / devs[2] > 2.5

    def test_energy_matches_classical(self):
        p = ModelParams(1.0, 1.0, 1.5, 0.5)
        res = exact_ground_state(p, TruncationSpec(j=20, n_max=8),
                                 check_convergence=False)
        assert abs(res.energy_per_spin - model.ground_state_energy(p)) < 0.01

    def test_means_vanish_in_classical_frame(self):
        p = ModelParams(1.0, 1.0, 1.5, 0.5)
        res = exact_ground_state(p, TruncationSpec(j=20, n_max=8),
                                 check_convergence=False)
        assert np.max(np.abs(res.means)) < 0.05

    def test_symmetry_breaking_field_independence(self, monkeypatch):
        p = ModelParams(1.0, 1.0, 1.5, 0.5)
        spec = TruncationSpec(j=10, n_max=8)
        res1 = exact_ground_state(p, spec, check_convergence=False)
        monkeypatch.setattr(oracle, "SYMMETRY_BREAKING_FIELD", 2e-4)
        res2 = exact_ground_state(p, spec, check_convergence=False)
        scale = np.max(np.abs(res1.cm.mat))
        assert np.max(np.abs(res1.cm.mat - res2.cm.mat)) < 1e-3 * scale

    def test_superradiant_y_mirror(self):
        px = ModelParams(1.0, 1.0, 1.5, 0.5)
        py = ModelParams(1.0, 1.0, 0.5, 1.5)
        spec = TruncationSpec(j=10, n_max=8)
        rx = exact_ground_state(px, spec, check_convergence=False)
        ry = exact_ground_state(py, spec, check_convergence=False)
        assert abs(rx.energy_per_spin - ry.energy_per_spin) < 1e-6
