import math

import numpy as np
import pytest

from bosonpe.fock import (
    UNCAPPED,
    DeskCaps,
    DeskScaleError,
    ValidationError,
    enumerate_basis,
    single_particle_rdm,
)
from bosonpe.nonclassical import many_copy_nc_bound_check
from bosonpe.optics import ModeUnitary
from bosonpe.states import (
    CoherentSpinSpec,
    SeparableMixtureSpec,
    classical_nd_state,
    classical_truncation_mass,
    coherent_spin_state,
    is_coherent_spin_pure,
    is_particle_separable_two_qubit,
    noon_state,
    particle_separable_mixture,
    poisson_weights,
    random_free_state,
    random_particle_separable,
)

from helpers import apply_to_pure, haar_unitary, states_equal_up_to_phase


def test_css_all_in_one_mode():
    s = coherent_spin_state(CoherentSpinSpec(np.array([1.0, 0.0]), 3))
    basis = enumerate_basis(2, 3)
    expected = np.zeros(basis.dim)
    expected[basis.index((3, 0))] = 1.0
    assert np.allclose(s.amplitudes, expected)


def test_css_single_particle():
    s = coherent_spin_state(CoherentSpinSpec(np.array([1.0, 1.0]) / math.sqrt(2), 1))
    assert np.allclose(s.amplitudes, np.array([1.0, 1.0]) / math.sqrt(2))


def test_css_two_particles():
    s = coherent_spin_state(CoherentSpinSpec(np.array([1.0, 1.0]) / math.sqrt(2), 2))
    assert np.allclose(s.amplitudes, np.array([0.5, math.sqrt(2) / 2, 0.5]))


def test_css_rotation_covariance():
    rng = np.random.default_rng(15)
    for trial in range(5):
        u = ModeUnitary(haar_unitary(2, rng))
        psi = rng.normal(size=2) + 1j * rng.normal(size=2)
        psi /= np.linalg.norm(psi)
        n = int(rng.integers(1, 5))
        rotated = apply_to_pure(coherent_spin_state(CoherentSpinSpec(psi, n)), u)
        direct = coherent_spin_state(CoherentSpinSpec(u.matrix @ psi, n))
        assert states_equal_up_to_phase(rotated, direct, tol=1e-10)


def test_mixture_single_term_is_pure():
    spec = SeparableMixtureSpec(((1.0, CoherentSpinSpec(np.array([1.0, 0.0]), 2)),))
    state = particle_separable_mixture(spec)
    assert state.purity() == pytest.approx(1.0)


def test_mixture_of_poles():
    spec = SeparableMixtureSpec((
        (0.5, CoherentSpinSpec(np.array([1.0, 0.0]), 2)),
        (0.5, CoherentSpinSpec(np.array([0.0, 1.0]), 2)),
    ))
    state = particle_separable_mixture(spec)
    basis = enumerate_basis(2, 2)
    mat = state.block(2)
    assert mat[basis.index((2, 0)), basis.index((2, 0))] == pytest.approx(0.5)
    assert mat[basis.index((0, 2)), basis.index((0, 2))] == pytest.approx(0.5)
    assert abs(mat[basis.index((1, 1)), basis.index((1, 1))]) < 1e-14


def test_is_coherent_spin_pure():
    assert is_coherent_spin_pure(coherent_spin_state(
        CoherentSpinSpec(np.array([1.0, 0.0]), 3)))
    from bosonpe.fock import fock_state
    assert not is_coherent_spin_pure(fock_state((1, 1)))
    assert not is_coherent_spin_pure(noon_state(2))


def test_ppt_oracle_on_fock_11():
    from bosonpe.fock import fock_state
    block = fock_state((1, 1)).density()
    assert not is_particle_separable_two_qubit(block)


def test_ppt_oracle_on_noon():
    block = noon_state(2).density()
    assert not is_particle_separable_two_qubit(block)
    # the negative PT eigenvalue is exactly -1/2 for the embedded Bell state
    from bosonpe.states import symmetric_two_qubit_embedding
    e = symmetric_two_qubit_embedding()
    rho = e @ block @ e.conj().T
    pt = rho.reshape(2, 2, 2, 2).transpose(2, 1, 0, 3).reshape(4, 4)
    assert np.linalg.eigvalsh(pt).min() == pytest.approx(-0.5, abs=1e-12)


def test_ppt_oracle_accepts_random_mixtures():
    for seed in range(25):
        state = random_particle_separable(2, 2, 4, seed)
        assert is_particle_separable_two_qubit(state.block(2))


def test_ppt_rejects_other_shapes():
    with pytest.raises(ValidationError):
        is_particle_separable_two_qubit(np.eye(4) / 4)


def test_random_separable_deterministic():
    a = random_particle_separable(2, 3, 3, seed=9)
    b = random_particle_separable(2, 3, 3, seed=9)
    assert a.allclose(b, tol=0.0)


def test_classical_vacuum():
    state = classical_nd_state(np.zeros(2))
    assert state.sectors() == [0]


def test_non_finite_coherent_spin_inputs_rejected():
    for psi in ([np.nan, 1.0], [np.inf, 0.0], [0.0, 0.0]):
        with pytest.raises(ValidationError):
            CoherentSpinSpec(np.array(psi), 2)
    a = CoherentSpinSpec(np.array([1.0, 0.0]), 2)
    b = CoherentSpinSpec(np.array([0.6, 0.8j]), 2)
    for w in (float("nan"), float("inf")):
        for terms in [((w, a),), ((w, a), (0.5, b)), ((0.5, a), (w, b))]:
            with pytest.raises(ValidationError):
                SeparableMixtureSpec(terms)


def test_bad_classical_mixtures_rejected():
    a, b = np.array([0.5]), np.array([0.3 + 0.4j])
    bad_mixtures = [
        [(1.2, a), (-0.2, b)],                    # negative weight
        [(0.6, a), (0.6, b)],                     # weights sum to 1.2
        [(0.5, a), (0.4, b)],                     # weights sum to 0.9
        [(float("nan"), a), (1.0, b)],            # weight is not a number
        [],                                       # no term
        [(0.5, a), (0.5, np.array([0.3, 0.4]))],  # mismatched mode counts
        [(0.5, a), (0.5, np.array([np.nan]))],    # amplitude is not a number
        [(1.0, np.array([np.inf, 0.5]))],         # amplitude is infinite
    ]
    entry_points = [
        lambda alpha: classical_nd_state(alpha, n_max=7),
        lambda alpha: classical_truncation_mass(alpha, 7),
        lambda alpha: many_copy_nc_bound_check(alpha, k=2, n_max=7),
    ]
    for alpha in bad_mixtures:
        for call in entry_points:
            with pytest.raises(ValidationError):
                call(alpha)


def test_classical_single_mode_poisson():
    alpha = 0.8
    state = classical_nd_state(np.array([alpha]), n_max=8)
    weights = poisson_weights(alpha**2, 8)
    weights /= weights.sum()
    for n in state.sectors():
        assert state.weight(n) == pytest.approx(weights[n], abs=1e-12)
        # every block is a Fock projector on one mode
        assert state.block(n)[0, 0] == pytest.approx(1.0)


def test_classical_multimode_blocks_are_coherent_spin():
    alpha = np.array([0.5, 0.4 + 0.2j])
    state = classical_nd_state(alpha, n_max=7)
    from bosonpe.fock import PureSectorState
    for n in state.sectors():
        if n == 0:
            continue
        mat = state.block(n)
        evals, evecs = np.linalg.eigh(mat)
        assert evals[-1] == pytest.approx(1.0, abs=1e-10)
        s = PureSectorState(enumerate_basis(2, n, DeskCaps(max_particles=8)), evecs[:, -1])
        rdm = single_particle_rdm(s)
        assert np.trace(rdm @ rdm).real == pytest.approx(1.0, abs=1e-9)


def test_classical_multimode_matches_rotated_single_mode():
    # a mode rotation brings all particles into one mode
    alpha = np.array([0.6, 0.3])
    mu = float(np.vdot(alpha, alpha).real)
    state = classical_nd_state(alpha, n_max=6)
    single = classical_nd_state(np.array([math.sqrt(mu)]), n_max=6)
    for n in state.sectors():
        assert state.weight(n) == pytest.approx(single.weight(n), abs=1e-12)


def test_classical_truncation_guard():
    with pytest.raises(ValidationError):
        classical_nd_state(np.array([2.0]), n_max=3)


def test_random_free_state_builds_its_vacuum_under_the_given_caps():
    state = random_free_state(9, 1, 0, caps=UNCAPPED)
    assert state.modes == 9 and state.sectors() == [0, 1]
    first = np.random.default_rng(0).dirichlet(np.ones(2))[0]
    # the mixture renormalises its weights, so the vacuum weight may move by an ulp
    assert state.weight(0) == pytest.approx(first, rel=1e-15)
    with pytest.raises(DeskScaleError):
        random_free_state(9, 1, 0)
