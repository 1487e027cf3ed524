"""Finite-size exact diagonalization oracle."""

import math
import warnings

import numpy as np
import pytest
from scipy.linalg import expm

from twomode_dicke import model, oracle
from twomode_dicke.errors import BudgetExceededError, NumericalFailureError
from twomode_dicke.gaussian_info import renyi2_entropy
from twomode_dicke.model import ModelParams
from twomode_dicke.oracle import TruncationSpec, exact_ground_state
from twomode_dicke.symplectic import symplectic_eigenvalues


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
        with pytest.raises(ValueError):
            TruncationSpec(j=math.inf, n_max=4)

    def test_overflowing_hamiltonian_raises(self):
        # at omega / omega0 = 1e-300 and 1e80 lambda_c the spin's excitation
        # cost a^2 / rho leaves the floats; no CLI input with finite gaps is
        # known to reach this
        p = ModelParams(1e-300, 1.0, 1e-70, 0.0)
        with pytest.raises(OverflowError):
            exact_ground_state(p, TruncationSpec(j=1, n_max=1))

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

#: The phase points whose classical frame a solve runs in: a superradiant-y
#: point is solved as its superradiant-x mirror image, so its operator is that
#: of the superradiant-x point, and the block and sparsity tests skip it.
FRAME_PHASES = ["decoupled", "normal", "superradiant-x"]

#: Coupling points of the solver test, in units of lambda_c: the phase points
#: (where lambda_c = 1), both sides of the critical line lambda_x = 1, a point
#: near the Goldstone line and one deep in the superradiant-x phase.
SOLVER_POINTS = {
    **{name: (p.lambda_x, p.lambda_y) for name, p in PHASE_POINTS.items()},
    "below-critical": (0.99, 0.5),
    "above-critical": (1.01, 0.5),
    "near-goldstone": (3.0, 2.9),
    "deep-x": (10.0, 0.1),
}

#: (omega, omega0): resonance and omega / omega0 = 0.01 and 100.
FREQUENCIES = [(1.0, 1.0), (0.01, 1.0), (1.0, 0.01)]

#: The x <-> y mirror map of the classical-frame quadratures (q_x, p_x, q_y,
#: p_y, Q, P) of a superradiant point: the modes swap, and the condensed
#: mode's quadratures change sign.
MIRROR = np.array([2, 3, 0, 1, 4, 5])
MIRROR_SIGN = np.array([1.0, 1.0, -1.0, -1.0, 1.0, 1.0])

#: The mirror map of a normal point, from the frame table: the modes swap, Q
#: and P swap, and both momenta change sign (the sign of every T coordinate
#: is free, as C_qp = 0).
NORMAL_MIRROR = np.array([2, 3, 0, 1, 5, 4])
NORMAL_MIRROR_SIGN = np.array([1.0, -1.0, 1.0, -1.0, 1.0, 1.0])


def mirrored(mat, index, sign):
    """The CM mat under the signed permutation xi_k -> sign_k xi_index_k."""
    return sign[:, None] * mat[np.ix_(index, index)] * sign


def dense_spin_ops(j):
    """Dense complex Jx, Jy, Jz in the basis m = j .. -j."""
    m = np.arange(j, -j - 1.0, -1.0)
    jp = np.diag(np.sqrt(j * (j + 1.0) - m[1:] * (m[1:] + 1.0)), 1)
    return 0.5 * (jp + jp.T), -0.5j * (jp - jp.T), np.diag(m)


def dense_classical_frame_hamiltonian(p, spec):
    """The complex classical-frame Hamiltonian in units of lambda_c, built
    densely with np.kron and expm from the absolute H of p.

    Each boson is displaced by sqrt(j/2) alpha, the spin rotated by
    U = e^{-i phi Jz} e^{-i theta Jy}, and a field SYMMETRY_BREAKING_FIELD
    lambda_c couples to the quadrature of each condensed boson.  In the
    superradiant-y phase this is the phi = pi/2 frame, which the oracle never
    builds.
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
        field = oracle.SYMMETRY_BREAKING_FIELD * p.lambda_c if alpha != 0.0 else 0.0
        ops = [ib, ib]
        ops[place] = shifted.T @ shifted
        H = H + p.omega * np.kron(np.kron(*ops), ispin)
        ops[place] = shifted + shifted.T
        H = H + np.kron(np.kron(*ops), coupling * g * spin + field * ispin)
    return H / p.lambda_c


def canonical(p):
    """rho = sqrt(omega / omega0) and the canonical couplings a >= b, in units
    of lambda_c, that a solve at p works at."""
    x, y = p.lambda_x / p.lambda_c, p.lambda_y / p.lambda_c
    return math.sqrt(p.omega / p.omega0), max(x, y), min(x, y)


def real_dense_reference(p, spec):
    """dense_classical_frame_hamiltonian(p, spec) in the basis of the solve's
    real Hamiltonian: conjugated by diag(i^n) on the uncondensed boson y, and
    at a superradiant-y point first mirrored, i.e. the bosons swapped and a
    parity (-1)^n put on the uncondensed one, so diag((-i)^n) on it."""
    nb, ns = spec.n_max + 1, int(2 * spec.j) + 1
    dense = dense_classical_frame_hamiltonian(p, spec)
    conjugation = 1j
    if model.classical_ground_state(p).phase is model.Phase.SUPERRADIANT_Y:
        dense = dense.reshape(nb, nb, ns, nb, nb, ns).transpose(1, 0, 2, 4, 3, 5)
        dense, conjugation = dense.reshape(nb * nb * ns, -1), -1j
    d = np.kron(np.kron(np.ones(nb), conjugation ** np.arange(nb)), np.ones(ns))
    return d.conj()[:, None] * dense * d[None, :]


def unit_vectors(dimension, start, stop):
    """The unit vectors e_start .. e_stop-1, one per row."""
    e = np.zeros((stop - start, dimension))
    e[np.arange(stop - start), np.arange(start, stop)] = 1.0
    return e


def materialize(apply, dimension, block=256):
    """The dense matrix of a matrix-free operator, applied to blocks of unit vectors."""
    H = np.empty((dimension, dimension))
    for start in range(0, dimension, block):
        stop = min(start + block, dimension)
        H[:, start:stop] = apply(unit_vectors(dimension, start, stop)).T
    return H


def fock_block(bigger, n_max):
    """Indices of the states of ``bigger`` with both boson numbers <= n_max, in order."""
    nb = bigger.n_max + 1
    return np.arange(bigger.dimension).reshape(nb, nb, -1)[:n_max + 1, :n_max + 1].ravel()


def operator(phase, j, n_max):
    """``(apply, diagonal, e_const)`` of the classical-frame Hamiltonian a solve
    at a phase point uses."""
    return oracle._hamiltonian(*canonical(PHASE_POINTS[phase]), TruncationSpec(j=j, n_max=n_max))


def dense_operator(phase, j, n_max):
    apply, diagonal, _ = operator(phase, j, n_max)
    return materialize(apply, diagonal.size)


class TestMatrixFreeOperator:
    @pytest.mark.parametrize("n_max", [1, 3])
    @pytest.mark.parametrize("j", [0.5, 5])
    @pytest.mark.parametrize("phase", sorted(PHASE_POINTS))
    def test_real_hamiltonian_is_conjugated_dense_reference(self, phase, j, n_max):
        apply, diagonal, e_const = operator(phase, j, n_max)
        H = materialize(apply, diagonal.size)
        assert apply(np.ones(diagonal.size)).dtype == np.float64
        # the diagonal sums the factors' diagonals in the order apply sums the terms
        np.testing.assert_array_equal(diagonal, np.diag(H))
        # no factor holds a constant: H_fl vanishes on the classical-frame vacuum
        assert diagonal[0] == 0.0 and diagonal.min() == 0.0
        reference = real_dense_reference(PHASE_POINTS[phase], TruncationSpec(j=j, n_max=n_max))
        np.testing.assert_allclose(reference.imag, 0.0, rtol=0, atol=1e-12)
        np.testing.assert_allclose(H + e_const * np.eye(diagonal.size), reference.real,
                                   rtol=0, atol=1e-12)
        assert np.array_equal(H, H.T)

    @pytest.mark.parametrize("n_max", [1, 3])
    @pytest.mark.parametrize("j", [0.5, 5])
    @pytest.mark.parametrize("phase", FRAME_PHASES)
    def test_cutoff_is_principal_block_of_larger_cutoff(self, phase, j, n_max):
        block = fock_block(TruncationSpec(j=j, n_max=n_max + 2), n_max)
        small = dense_operator(phase, j, n_max)
        sliced = dense_operator(phase, j, n_max + 2)[np.ix_(block, block)]
        assert sliced.shape == small.shape and np.array_equal(sliced, small)

    def test_applies_to_one_vector_and_to_rows(self):
        apply, diagonal, _ = operator("superradiant-x", 2.5, 3)
        v = np.arange(3.0 * diagonal.size).reshape(3, diagonal.size)
        rows = apply(v)
        assert rows.shape == v.shape and apply(v[1]).shape == diagonal.shape
        np.testing.assert_array_equal(apply(v[1]), rows[1])

    @pytest.mark.parametrize("j", [5, 20])
    @pytest.mark.parametrize("phase", ["normal", "superradiant-x"])
    def test_hamiltonian_stays_sparse(self, phase, j):
        apply, diagonal, _ = operator(phase, j, 10)
        dimension = diagonal.size
        nonzeros = 0
        for start in range(0, dimension, 256):
            stop = min(start + 256, dimension)
            nonzeros += np.count_nonzero(apply(unit_vectors(dimension, start, stop)))
        assert nonzeros / dimension <= 13

    @pytest.mark.parametrize("n_max", [1, 3, 10])
    @pytest.mark.parametrize("j", [0.5, 2.5, 5])
    @pytest.mark.parametrize("point", sorted(SOLVER_POINTS))
    @pytest.mark.parametrize("omega, omega0", FREQUENCIES)
    def test_davidson_matches_dense_spectrum(self, omega, omega0, point, j, n_max):
        base = ModelParams(omega=omega, omega0=omega0)
        p = base.with_couplings(*(base.lambda_c * np.array(SOLVER_POINTS[point])))
        spec = TruncationSpec(j=j, n_max=n_max)
        apply, diagonal, e_const = oracle._hamiltonian(*canonical(p), spec)
        # a superradiant-y point is checked against the phi = pi/2 frame it is not solved in
        dense = (dense_classical_frame_hamiltonian(p, spec) if point == "superradiant-y"
                 else materialize(apply, diagonal.size) + e_const * np.eye(diagonal.size))
        reference = np.linalg.eigvalsh(dense)[0]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            theta, psi, _ = oracle._ground_vector(apply, diagonal)
        assert abs(theta + e_const - reference) <= 1e-12 * abs(reference)
        assert abs(np.linalg.norm(psi) - 1.0) <= 1e-14


class TestDavidson:
    def test_invariant_subspace_continues_in_a_fresh_direction(self):
        # The start vector has no component on e_0, the ground state, and
        # spans a three-dimensional invariant subspace; on a diagonal H the
        # Davidson corrections soon lie in the span of the basis.
        diagonal = np.concatenate([[0.0], np.tile([1.0, 2.0, 3.0], 20)])
        v0 = np.ones(diagonal.size)
        v0[0] = 0.0
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            energy, psi, _ = oracle._ground_vector(lambda v: diagonal * v, diagonal, v0)
        assert abs(energy) <= 1e-14
        assert abs(abs(psi[0]) - 1.0) <= 1e-14

    @pytest.mark.parametrize("exponent", [-600, 600])
    def test_scaled_operator(self, exponent):
        # the squares of the residual's entries leave the floats at 2**600 times
        # H (and their sum underflows at 2**-600), unless the norm is scaled
        apply, diagonal, _ = operator("superradiant-x", 5, 10)
        reference, _, _ = oracle._ground_vector(apply, diagonal)
        factor = 2.0 ** exponent
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            energy, _, _ = oracle._ground_vector(lambda v: factor * apply(v), factor * diagonal)
        assert abs(energy / factor - reference) <= 1e-13 * abs(reference)

    def test_gives_up_after_max_iterations(self, monkeypatch):
        monkeypatch.setattr(oracle, "MAX_ITERATIONS", 1)
        apply, diagonal, e_const = operator("superradiant-x", 5, 10)
        for e in (None, e_const):
            with pytest.raises(NumericalFailureError):
                oracle._ground_vector(apply, diagonal, e_const=e)

    @pytest.mark.parametrize("phase", ["normal", "superradiant-x"])
    def test_restart_every_step_matches_dense_spectrum(self, phase, monkeypatch):
        # a basis of 3 restarts after every matvec from the third on, so each
        # step rebuilds the 2x2 block of the projection
        monkeypatch.setattr(oracle, "DAVIDSON_BASIS", 3)
        apply, diagonal, e_const = operator(phase, 5, 4)
        reference = np.linalg.eigvalsh(materialize(apply, diagonal.size))[0] + e_const
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            energy, psi, residual = oracle._ground_vector(apply, diagonal)
        scale = np.finfo(float).eps * np.max(np.abs(diagonal))
        assert abs(energy + e_const - reference) <= 1e-12 * abs(reference)
        assert residual <= oracle.RESIDUAL_TOL * scale
        assert abs(np.linalg.norm(apply(psi) - energy * psi) - residual) <= 16 * scale

    @pytest.mark.parametrize("phase", sorted(PHASE_POINTS))
    def test_result_reports_the_residual(self, phase):
        p, spec = PHASE_POINTS[phase], TruncationSpec(j=5, n_max=8)
        res = exact_ground_state(p, spec)
        apply, diagonal, e_const = operator(phase, spec.j, spec.n_max)
        scale = np.finfo(float).eps * np.max(np.abs(diagonal))
        assert np.isfinite(res.residual) and res.residual <= oracle.RESIDUAL_TOL * scale

        # it is the residual of the returned ground vector, up to rounding
        _, psi, _ = oracle._ground_vector(apply, diagonal)
        energy = res.energy_per_spin * spec.j - e_const
        assert abs(np.linalg.norm(apply(psi) - energy * psi) - res.residual) <= 16 * scale


def counted(apply):
    """``apply`` and a list whose one entry counts its calls."""
    count = [0]

    def counted_apply(v):
        count[0] += 1
        return apply(v)

    return counted_apply, count


def energy_only_bound(diagonal):
    """How far the energy-only re-solve may lie from a full solve: the
    rounding of applying H, which sets the full solve's own energy error."""
    return 16 * np.finfo(float).eps * np.max(np.abs(diagonal))


class TestWarmResolve:
    @pytest.mark.parametrize("j", [5, 20])
    @pytest.mark.parametrize("phase", ["normal", "superradiant-x", "superradiant-y"])
    def test_warm_and_cold_resolves_agree(self, phase, j, monkeypatch):
        solves = []
        ground_vector = oracle._ground_vector

        def recording_ground_vector(apply, diagonal, v0=None, *, e_const=None):
            out = ground_vector(apply, diagonal, v0, e_const=e_const)
            solves.append((apply, diagonal, v0, e_const, out))
            return out

        monkeypatch.setattr(oracle, "_ground_vector", recording_ground_vector)
        res = exact_ground_state(PHASE_POINTS[phase], TruncationSpec(j=j, n_max=8))
        ((_, _, v_first, first_e_const, (e_first, psi, _)),
         (apply_big, diagonal, v0, e_const, (e_warm, _, _))) = solves

        # the re-solve starts from the first ground vector, zero-padded, and
        # only it stops once its energy, relative to the constant of H, is resolved
        assert v_first is None and first_e_const is None
        assert e_const == operator(phase, j, 10)[2]
        block = fock_block(TruncationSpec(j=j, n_max=10), 8)
        np.testing.assert_array_equal(v0[block], psi)
        assert not np.delete(v0, block).any()
        assert res.resolve_de == abs(e_warm - e_first) / j

        matvecs = []

        def counted_solve(start, e_const=None):
            apply, count = counted(apply_big)
            energy, _, _ = ground_vector(apply, diagonal, start, e_const=e_const)
            matvecs.append(count[0])
            return energy

        cold = counted_solve(None)
        full = counted_solve(v0)
        assert counted_solve(v0, e_const) == e_warm
        assert abs(e_warm - full) <= energy_only_bound(diagonal)
        assert abs(e_warm - cold) <= 1e-12 * abs(cold + e_const)
        assert matvecs[1] < matvecs[0]

    @pytest.mark.parametrize("j", [5, 10, 20])
    def test_energy_only_resolve_halves_the_matvecs(self, j):
        # the oracle workload's point (1.5, 0.5) and cutoff n_max = 10
        _, psi, _ = oracle._ground_vector(*operator("superradiant-x", j, 10)[:2])
        bigger = TruncationSpec(j=j, n_max=12)
        v0 = np.zeros(bigger.dimension)
        v0[fock_block(bigger, 10)] = psi
        apply, diagonal, e_const = operator("superradiant-x", j, 12)
        energies, matvecs = [], []
        for e in (None, e_const):
            counted_apply, count = counted(apply)
            energy, _, _ = oracle._ground_vector(counted_apply, diagonal, v0, e_const=e)
            energies.append(energy)
            matvecs.append(count[0])
        assert abs(energies[1] - energies[0]) <= energy_only_bound(diagonal)
        assert 2 * matvecs[1] <= matvecs[0]

    @pytest.mark.parametrize("phase", ["normal", "superradiant-x"])
    def test_energy_rule_is_relative_to_the_total_energy(self, phase):
        # theta is O(1) and e_const extensive: the rule reads eps |theta + e_const|,
        # so the re-solve stops sooner than with |theta| alone (e_const = 0),
        # and its energy is as close to a full solve's
        _, psi, _ = oracle._ground_vector(*operator(phase, 20, 10)[:2])
        bigger = TruncationSpec(j=20, n_max=12)
        v0 = np.zeros(bigger.dimension)
        v0[fock_block(bigger, 10)] = psi
        apply, diagonal, e_const = operator(phase, 20, 12)
        assert abs(e_const) > 10.0
        full, _, _ = oracle._ground_vector(apply, diagonal, v0)
        matvecs = []
        for e in (0.0, e_const):
            counted_apply, count = counted(apply)
            energy, _, _ = oracle._ground_vector(counted_apply, diagonal, v0, e_const=e)
            assert abs(energy - full) <= energy_only_bound(diagonal)
            matvecs.append(count[0])
        assert matvecs[1] < matvecs[0]


class TestFluctuationEnergy:
    @pytest.mark.parametrize("omega, omega0", FREQUENCIES)
    @pytest.mark.parametrize("phase", sorted(PHASE_POINTS))
    def test_constant_is_the_classical_energy(self, phase, omega, omega0, monkeypatch):
        # without the pinning field e_const is j e_gs, the extensive classical
        # energy, in the units of energy_per_spin
        monkeypatch.setattr(oracle, "SYMMETRY_BREAKING_FIELD", 0.0)
        base = ModelParams(omega=omega, omega0=omega0)
        point = PHASE_POINTS[phase]
        p = base.with_couplings(point.lambda_x / point.lambda_c * base.lambda_c,
                                point.lambda_y / point.lambda_c * base.lambda_c)
        rho, a, b = canonical(p)
        expected = model.ground_state_energy(p) / p.omega
        for j in (0.5, 20):
            _, _, e_const = oracle._hamiltonian(rho, a, b, TruncationSpec(j=j, n_max=1))
            assert e_const / j / rho == pytest.approx(expected, rel=4 * np.finfo(float).eps)

    @pytest.mark.parametrize("point", [(0.5, 0.3), (1.5, 0.5), (0.3, 0.8)])
    def test_tends_to_the_zero_point_energy_like_one_over_j(self, point):
        # H_fl is normal-ordered in the classical frame: its ground energy tends
        # to the zero-point energy of the three fluctuation oscillators, minus
        # rho / 2 per boson and kappa / 2 for the spin, kappa = a_bar^2 / rho
        p = ModelParams(1.0, 1.0, *point)
        rho, a, b = canonical(p)
        sigma = model.stacked_ground_states(1.0, 1.0, np.array([point[0]]),
                                            np.array([point[1]])).nu[0]
        limit = 0.5 * sigma.sum() - rho - 0.5 * max(a, 1.0) ** 2 / rho
        excess = []
        for j in (5, 20, 80):
            apply, diagonal, _ = oracle._hamiltonian(rho, a, b, TruncationSpec(j=j, n_max=12))
            theta, _, _ = oracle._ground_vector(apply, diagonal)
            excess.append(theta - limit)
        ratios = [excess[0] / excess[1], excess[1] / excess[2]]
        assert all(3.0 <= r <= 5.0 for r in ratios), (excess, ratios)


class TestExactSymmetry:
    @pytest.mark.parametrize("omega, omega0", FREQUENCIES)
    @pytest.mark.parametrize("point", ["normal", "superradiant-x", "superradiant-y",
                                       "near-goldstone"])
    def test_cms_are_exactly_symmetric(self, point, omega, omega0):
        # the CMs are plain arrays, so their producers must make them symmetric
        base = ModelParams(omega, omega0)
        p = base.with_couplings(*(base.lambda_c * np.array(SOLVER_POINTS[point])))
        res = exact_ground_state(p, TruncationSpec(j=5, n_max=6), check_convergence=False)
        for cm in (model.ground_state_cm(p), res.cm):
            assert cm.shape == (6, 6) and np.array_equal(cm, cm.T)


class TestDecoupledPoint:
    def test_exact_ground_state_at_zero_coupling(self):
        res = exact_ground_state(ModelParams(1.0, 1.0, 0.0, 0.0),
                                 TruncationSpec(j=4, n_max=3))
        assert abs(res.energy_per_spin + 1.0) < 1e-12
        np.testing.assert_allclose(res.cm[:4, :4], 0.5 * np.eye(4), atol=1e-10)
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
        analytic = model.ground_state_cm(p)
        devs = [
            np.max(np.abs(
                exact_ground_state(p, TruncationSpec(j=j, n_max=8),
                                   check_convergence=False).cm - analytic))
            for j in (5, 10)
        ]
        assert devs[1] < devs[0]

    def test_entropy_approaches_analytic(self):
        p = ModelParams(1.0, 1.0, 0.5, 0.3)
        target = renyi2_entropy(model.ground_state_cm(p)[:2, :2])
        errs = []
        for j in (5, 15):
            res = exact_ground_state(p, TruncationSpec(j=j, n_max=8),
                                     check_convergence=False)
            errs.append(abs(renyi2_entropy(res.cm[:2, :2]) - target))
        assert errs[1] < errs[0]
        assert errs[1] < 0.01

    def test_oracle_cm_physical(self):
        p = ModelParams(1.0, 1.0, 0.5, 0.3)
        res = exact_ground_state(p, TruncationSpec(j=10, n_max=8),
                                 check_convergence=False)
        nu = symplectic_eigenvalues(2.0 * res.cm)
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
        spec, bigger = TruncationSpec(j=5, n_max=4), TruncationSpec(j=5, n_max=6)
        res = exact_ground_state(p, spec)
        unchecked = exact_ground_state(p, bigger, check_convergence=False)
        assert unchecked.resolve_de is None and unchecked.converged is False

        # the documented computation: the n_max + 2 re-solve starts from the
        # n_max ground vector, zero-padded, and stops once its energy is resolved
        small, big = (oracle._hamiltonian(*canonical(p), s) for s in (spec, bigger))
        e_const = small[2]
        energy, psi, _ = oracle._ground_vector(*small[:2])
        v0 = np.zeros(bigger.dimension)
        v0[fock_block(bigger, 4)] = psi
        energy2, _, _ = oracle._ground_vector(*big[:2], v0, e_const=e_const)
        assert res.energy_per_spin == (energy + e_const) / 5
        assert res.resolve_de == abs(energy2 - energy) / 5
        assert res.converged == (res.resolve_de * 5 < oracle.CONVERGENCE_TOL)
        full, _, _ = oracle._ground_vector(*big[:2], v0)
        assert abs(energy2 - full) <= energy_only_bound(big[1])

        for e, (apply, diagonal, _) in ((energy, small), (energy2, big)):
            reference = np.linalg.eigvalsh(materialize(apply, diagonal.size))[0] + e_const
            assert abs(e + e_const - reference) <= 1e-12 * abs(reference)

    def test_resolve_de_none_over_budget(self, monkeypatch):
        spec = TruncationSpec(j=2, n_max=2)
        monkeypatch.setattr(oracle, "DIMENSION_BUDGET", spec.dimension)
        res = exact_ground_state(ModelParams(1.0, 1.0, 0.5, 0.3), spec)
        assert res.resolve_de is None
        assert not res.converged

    @pytest.mark.parametrize("omega, omega0", FREQUENCIES)
    def test_normal_mirror(self, omega, omega0):
        # a normal point with lambda_y > lambda_x is solved as its mirror image too
        base = ModelParams(omega, omega0)
        px = base.with_couplings(0.5 * base.lambda_c, 0.3 * base.lambda_c)
        py = base.with_couplings(0.3 * base.lambda_c, 0.5 * base.lambda_c)
        spec = TruncationSpec(j=10, n_max=8)
        rx, ry = exact_ground_state(px, spec), exact_ground_state(py, spec)
        assert ry.energy_per_spin == rx.energy_per_spin and ry.residual == rx.residual
        assert ry.resolve_de == rx.resolve_de and ry.converged == rx.converged
        np.testing.assert_array_equal(
            ry.cm, mirrored(rx.cm, NORMAL_MIRROR, NORMAL_MIRROR_SIGN))
        np.testing.assert_array_equal(ry.means, NORMAL_MIRROR_SIGN * rx.means[NORMAL_MIRROR])
        np.testing.assert_array_equal(
            model.ground_state_cm(py),
            mirrored(model.ground_state_cm(px), NORMAL_MIRROR, NORMAL_MIRROR_SIGN))


class TestSuperradiantPhase:
    def test_cm_matches_analytic_at_one_over_j(self):
        p = ModelParams(1.0, 1.0, 1.5, 0.5)
        analytic = model.ground_state_cm(p)
        devs = []
        for j in (5, 10, 20):
            res = exact_ground_state(p, TruncationSpec(j=j, n_max=8),
                                     check_convergence=False)
            devs.append(np.max(np.abs(res.cm - analytic)))
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
        scale = np.max(np.abs(res1.cm))
        assert np.max(np.abs(res1.cm - res2.cm)) < 1e-3 * scale

    @pytest.mark.parametrize("omega, omega0", FREQUENCIES)
    def test_superradiant_y_mirror(self, omega, omega0):
        base = ModelParams(omega, omega0)
        px = base.with_couplings(1.5 * base.lambda_c, 0.5 * base.lambda_c)
        py = base.with_couplings(0.5 * base.lambda_c, 1.5 * base.lambda_c)
        spec = TruncationSpec(j=10, n_max=8)
        rx, ry = exact_ground_state(px, spec), exact_ground_state(py, spec)
        assert ry.energy_per_spin == rx.energy_per_spin and ry.residual == rx.residual
        assert ry.resolve_de == rx.resolve_de and ry.converged == rx.converged
        np.testing.assert_array_equal(ry.cm, mirrored(rx.cm, MIRROR, MIRROR_SIGN))
        np.testing.assert_array_equal(ry.means, MIRROR_SIGN * rx.means[MIRROR])
        # the analytic CMs obey the same map: both come from one factorization
        np.testing.assert_array_equal(
            model.ground_state_cm(py),
            mirrored(model.ground_state_cm(px), MIRROR, MIRROR_SIGN))

    @pytest.mark.parametrize("n_max", [1, 3])
    @pytest.mark.parametrize("j", [0.5, 2.5, 5])
    @pytest.mark.parametrize("omega, omega0", FREQUENCIES)
    def test_superradiant_y_energy_matches_dense_frame(self, omega, omega0, j, n_max):
        # the mirrored solve against eigvalsh of H / lambda_c built densely in the
        # phi = pi/2 frame; the energy per spin is in units of omega = rho lambda_c
        base = ModelParams(omega, omega0)
        p = base.with_couplings(0.5 * base.lambda_c, 1.5 * base.lambda_c)
        spec = TruncationSpec(j=j, n_max=n_max)
        assert model.classical_ground_state(p).phase is model.Phase.SUPERRADIANT_Y
        reference = np.linalg.eigvalsh(dense_classical_frame_hamiltonian(p, spec))[0]
        res = exact_ground_state(p, spec, check_convergence=False)
        energy = res.energy_per_spin * j * math.sqrt(omega / omega0)
        assert abs(energy - reference) <= 1e-12 * abs(reference)


class TestConvergenceOffResonance:
    @pytest.mark.parametrize("omega, omega0", [(0.1, 1.0), (10.0, 1.0)])
    def test_cm_deviation_halves_when_j_doubles(self, omega, omega0):
        base = ModelParams(omega, omega0)
        devs = {}
        for point in [(0.5, 0.3), (1.5, 0.5), (0.5, 1.5)]:
            p = base.with_couplings(*(base.lambda_c * np.array(point)))
            analytic = model.ground_state_cm(p)
            devs[point] = np.array([
                np.max(np.abs(exact_ground_state(p, TruncationSpec(j=j, n_max=10),
                                                 check_convergence=False).cm - analytic))
                for j in (5, 10, 20)
            ])
            assert devs[point][2] < devs[point][1] < devs[point][0]
            # O(1/j) from j = 10 on; at omega / omega0 = 10 the superradiant
            # j = 5 deviation is O(1) (a near-degenerate doublet)
            assert 1.7 <= devs[point][1] / devs[point][2] <= 2.6
        # the superradiant-y measurement is the mirror image of the superradiant-x one
        np.testing.assert_array_equal(devs[(0.5, 1.5)], devs[(1.5, 0.5)])
