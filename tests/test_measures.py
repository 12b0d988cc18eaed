import math

import numpy as np
import pytest

from bosonpe.fock import (
    ModePartition,
    ValidationError,
    dephase_local,
    enumerate_basis,
    fock_state,
    mix_states,
    tensor_compose,
)
from bosonpe.optics import ModeUnitary, append_vacuum, apply_mode_unitary, block_direct_sum
from bosonpe.measures import (
    PAULI,
    SingleParticleObservable,
    bloch_observable,
    block_trace_distance,
    collective_generator,
    distance_to_candidate_set,
    e_ssr,
    m_pe_f,
    negativity,
    qfi,
    qfi_matrix,
    qfi_minus_variance,
    sector_negativity,
    single_particle_variance,
    variance_matrix,
)
from bosonpe.states import (
    CoherentSpinSpec,
    coherent_spin_state,
    noon_state,
    random_free_state,
    random_particle_separable,
)

from helpers import (
    first_quantized_sum,
    haar_unitary,
    qfi_finite_difference,
    random_density,
    symmetric_embedding,
)

SZ = SingleParticleObservable(PAULI["z"])


def css_plus_x(n):
    return coherent_spin_state(
        CoherentSpinSpec(np.array([1.0, 1.0]) / math.sqrt(2), n)).to_block_state()


def dense_bloch_grid_mpef(state, n_theta=64, n_phi=128, refine=True):
    """Oracle: dense Bloch grid plus Nelder-Mead polish of the objective."""
    from scipy.optimize import minimize

    def objective(angles):
        theta, phi = angles
        n = (math.sin(theta) * math.cos(phi),
             math.sin(theta) * math.sin(phi),
             math.cos(theta))
        return qfi_minus_variance(state, bloch_observable(n))

    best, best_angles = -np.inf, (0.0, 0.0)
    for theta in np.linspace(0.0, math.pi, n_theta):
        for phi in np.linspace(0.0, 2 * math.pi, n_phi, endpoint=False):
            val = objective((theta, phi))
            if val > best:
                best, best_angles = val, (theta, phi)
    if refine:
        res = minimize(lambda a: -objective(a), np.array(best_angles),
                       method="Nelder-Mead",
                       options={"xatol": 1e-9, "fatol": 1e-12})
        best = max(best, -res.fun)
    return max(best, 0.0)


# --- collective generators ------------------------------------------------


def test_generator_sigma_z_examples():
    g = collective_generator(SZ, 2, 2)
    assert np.allclose(g.sector(1), np.diag([1.0, -1.0]))
    assert np.allclose(g.sector(2), np.diag([2.0, 0.0, -2.0]) / math.sqrt(2))


def test_generator_identity_is_number():
    g = collective_generator(SingleParticleObservable(np.eye(2)), 2, 3)
    for n in (1, 2, 3):
        assert np.allclose(g.sector(n), math.sqrt(n) * np.eye(enumerate_basis(2, n).dim))


@pytest.mark.parametrize("m,n", [(2, 2), (2, 3), (3, 2)])
def test_generator_matches_first_quantization(m, n):
    rng = np.random.default_rng(m * 10 + n)
    h = rng.normal(size=(m, m)) + 1j * rng.normal(size=(m, m))
    h = (h + h.conj().T) / 2
    h /= np.max(np.abs(np.linalg.eigvalsh(h)))
    g = collective_generator(SingleParticleObservable(h), m, n)
    embed = symmetric_embedding(m, n)
    oracle = embed.conj().T @ first_quantized_sum(h, n) @ embed / math.sqrt(n)
    assert np.allclose(g.sector(n), oracle, atol=1e-10)


# --- QFI -------------------------------------------------------------------


def test_qfi_pure_state_examples():
    assert qfi(css_plus_x(4), collective_generator(SZ, 2, 4)) == pytest.approx(4.0)
    assert qfi(noon_state(2).to_block_state(),
               collective_generator(SZ, 2, 2)) == pytest.approx(8.0)


def test_qfi_commuting_state_is_zero():
    basis = enumerate_basis(2, 2)
    from bosonpe.fock import BlockDiagonalState
    maximally_mixed = BlockDiagonalState(2, {2: (1.0, np.eye(basis.dim) / basis.dim)})
    assert qfi(maximally_mixed, collective_generator(SZ, 2, 2)) < 1e-12


def test_qfi_equals_four_variance_for_pure():
    rng = np.random.default_rng(31)
    basis = enumerate_basis(2, 3)
    amps = rng.normal(size=basis.dim) + 1j * rng.normal(size=basis.dim)
    amps /= np.linalg.norm(amps)
    from bosonpe.fock import PureSectorState
    state = PureSectorState(basis, amps).to_block_state()
    g = collective_generator(SZ, 2, 3)
    h23 = g.sector(3)
    rho = state.block(3)
    assert qfi(state, g) == pytest.approx(4.0 * variance_matrix(rho, h23), abs=1e-9)


def test_qfi_matrix_vs_fidelity_curvature():
    # full-rank states only: at rank-deficient points the fidelity curvature
    # and the spectral form are known to differ
    rng = np.random.default_rng(17)
    for _ in range(3):
        rho = random_density(5, rng)
        h = rng.normal(size=(5, 5)) + 1j * rng.normal(size=(5, 5))
        h = (h + h.conj().T) / 2
        assert qfi_matrix(rho, h) == pytest.approx(
            qfi_finite_difference(rho, h), rel=1e-4)


def test_qfi_block_additivity():
    rng = np.random.default_rng(23)
    blocks = {}
    weights = rng.dirichlet(np.ones(3))
    for n, w in enumerate(weights):
        dim = enumerate_basis(2, n).dim
        blocks[n] = (w, random_density(dim, rng))
    from bosonpe.fock import BlockDiagonalState
    state = BlockDiagonalState(2, blocks)
    g = collective_generator(SZ, 2, 2)
    # assemble the direct sum explicitly
    dims = [enumerate_basis(2, n).dim for n in (0, 1, 2)]
    big = np.zeros((sum(dims), sum(dims)), dtype=complex)
    bigh = np.zeros_like(big)
    at = 0
    for n, d in enumerate(dims):
        big[at:at + d, at:at + d] = weights[n] * blocks[n][1]
        bigh[at:at + d, at:at + d] = g.sector(n)
        at += d
    assert qfi(state, g) == pytest.approx(qfi_matrix(big, bigh), abs=1e-9)


def test_qfi_convexity():
    rng = np.random.default_rng(41)
    g = collective_generator(SZ, 2, 3)
    for trial in range(10):
        a = random_free_state(2, 3, seed=trial)
        b = random_free_state(2, 3, seed=trial + 1000)
        lam = rng.uniform()
        mixed = mix_states([(lam, a), (1 - lam, b)])
        assert qfi(mixed, g) <= lam * qfi(a, g) + (1 - lam) * qfi(b, g) + 1e-9


def test_qfi_projector_identity():
    rng = np.random.default_rng(55)
    for trial in range(20):
        dim = int(rng.integers(3, 12))
        rank = int(rng.integers(1, dim))
        rho = random_density(dim, rng, rank=rank)
        h = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
        h = (h + h.conj().T) / 2
        evals, evecs = np.linalg.eigh(rho)
        keep = int(rng.integers(rank, dim + 1))
        proj_vecs = evecs[:, np.argsort(evals)[::-1][:keep]]
        pi = proj_vecs @ proj_vecs.conj().T
        assert np.max(np.abs(pi @ rho - rho)) < 1e-10
        lhs = qfi_matrix(rho, h)
        php = pi @ h @ pi
        rhs = qfi_matrix(rho, php) + 4 * variance_matrix(rho, h) \
            - 4 * variance_matrix(rho, php)
        assert lhs == pytest.approx(rhs, abs=1e-8)


# --- single-particle variances ----------------------------------------------


def test_variance_examples():
    assert single_particle_variance(css_plus_x(3), SZ) == pytest.approx(1.0)
    assert single_particle_variance(
        fock_state((4, 0)).to_block_state(), SZ) == pytest.approx(0.0)
    assert single_particle_variance(
        noon_state(2).to_block_state(), SZ) == pytest.approx(1.0)


def test_variance_mixed_numbers():
    state = mix_states([(0.5, css_plus_x(1)), (0.5, css_plus_x(3))])
    # <sigma_z> = 0 and <sigma_z^2> = 1 in every block
    assert single_particle_variance(state, SZ) == pytest.approx(1.0)


# --- the monotone ------------------------------------------------------------


def test_mpef_zero_on_coherent_spin_states():
    for n in (1, 2, 3, 4):
        assert m_pe_f(css_plus_x(n)).value < 1e-10


def test_mpef_noon_equals_four():
    res = m_pe_f(noon_state(2).to_block_state())
    assert res.value == pytest.approx(4.0, abs=1e-10)
    assert abs(res.bloch[2]) == pytest.approx(1.0)


def test_mpef_matches_dense_grid_oracle():
    state = noon_state(2).to_block_state()
    oracle = dense_bloch_grid_mpef(state, n_theta=48, n_phi=64)
    assert m_pe_f(state).value == pytest.approx(oracle, abs=1e-6)


def test_mpef_zero_on_random_separable():
    for seed in range(30):
        n = 1 + seed % 4
        state = random_particle_separable(2, n, 3, seed)
        assert m_pe_f(state).value < 1e-6


def test_mpef_vacuum_append_invariance():
    state = noon_state(2).to_block_state()
    base = m_pe_f(state)
    padded = append_vacuum(state, 1)
    h_padded = np.zeros((3, 3), dtype=complex)
    h_padded[:2, :2] = base.h
    res = m_pe_f(padded, search="general_restarts", seed=3, n_restarts=4,
                 warm_starts=[h_padded])
    assert res.value == pytest.approx(base.value, abs=1e-8)


def test_mpef_invariant_under_mode_unitaries():
    rng = np.random.default_rng(9)
    state = noon_state(2).to_block_state()
    u = ModeUnitary(haar_unitary(2, rng))
    rotated = apply_mode_unitary(state, u)
    assert m_pe_f(rotated).value == pytest.approx(m_pe_f(state).value, abs=1e-9)


def test_mpef_nonincreasing_under_destructive_measurement():
    # Destructively measure a one-particle ancilla register and store each
    # outcome as one particle in its own flag mode, so the per-sector
    # normalization keeps counting the destroyed particle.  The monotone of
    # the flagged ensemble never exceeds that of the input.
    from bosonpe.fock import BlockDiagonalState, DeskCaps
    from bosonpe.optics import measure_destructive, random_ssr_povm

    sys_a = noon_state(2).to_block_state()
    sys_b = fock_state((2, 0)).to_block_state()
    ancilla_a = fock_state((1, 0)).to_block_state()
    ancilla_b = mix_states([(0.5, fock_state((1, 0)).to_block_state()),
                            (0.5, fock_state((0, 1)).to_block_state())])
    joint = mix_states([
        (0.5, tensor_compose(sys_a, ancilla_a)),
        (0.5, tensor_compose(sys_b, ancilla_b)),
    ])
    part = ModePartition((0, 1), (2, 3))
    povm = random_ssr_povm(2, joint.max_particles, 2, seed=5)
    outcomes = list(measure_destructive(joint, part, povm).values())

    # flagged ensemble on 2 system modes + one flag mode per outcome
    caps = DeskCaps(max_particles=4, max_modes=2 + len(outcomes))
    flagged_parts = []
    for k, (p, post) in enumerate(outcomes):
        flag_occ = [0] * len(outcomes)
        flag_occ[k] = 1  # the measured register held exactly one particle
        flag = fock_state(tuple(flag_occ)).to_block_state()
        flagged_parts.append((p, tensor_compose(post, flag, caps=caps)))
    flagged = mix_states(flagged_parts)

    ens = m_pe_f(flagged, search="two_mode_exact", h_support=2)
    h_joint = np.zeros((4, 4), dtype=complex)
    h_joint[:2, :2] = ens.h[:2, :2]
    before = m_pe_f(joint, search="general_restarts", seed=11, n_restarts=2,
                    warm_starts=[h_joint])
    assert before.value >= ens.value - 1e-8


# --- negativity and SSR entanglement -----------------------------------------


def test_negativity_product_state():
    state = fock_state((1, 0, 1, 0)).to_block_state()
    part = ModePartition((0, 1), (2, 3))
    assert negativity(state, part) < 1e-12


def test_negativity_dephased_single_particle():
    basis = enumerate_basis(2, 1)
    from bosonpe.fock import PureSectorState
    split = PureSectorState(basis, np.array([1.0, 1.0]) / math.sqrt(2)).to_block_state()
    part = ModePartition((0,), (1,))
    assert negativity(dephase_local(split, part), part) < 1e-12
    # before dephasing the single particle is mode-entangled
    assert negativity(split, part) == pytest.approx(0.5, abs=1e-10)


def test_two_copy_bell_block_negativity():
    # two independent particles, each split at a balanced splitter
    from bosonpe.activation import ActivationSpec, activate
    state = tensor_compose(fock_state((1,)).to_block_state(),
                           fock_state((1,)).to_block_state())
    report = activate(ActivationSpec(state))
    key = (1, 1)
    assert report.sectors.probability(key) == pytest.approx(0.5)
    assert sector_negativity(report.sectors.state(key)) == pytest.approx(0.5, abs=1e-10)
    # e_ssr of the dephased joint state picks up the Bell block
    assert report.e_ssr_negativity == pytest.approx(0.25, abs=1e-10)


def test_e_ssr_zero_on_free_states():
    state = random_particle_separable(2, 2, 3, seed=2)
    from bosonpe.activation import ActivationSpec, activate
    report = activate(ActivationSpec(state))
    assert report.e_ssr_negativity < 1e-9


def test_e_ssr_upper_bounded_by_undephased_negativity():
    from bosonpe.activation import ActivationSpec, activate
    for seed in (1, 2, 3):
        state = fock_state((1, 1)).to_block_state()
        report = activate(ActivationSpec(state))
        full = negativity(report.output, report.partition)
        assert report.e_ssr_negativity <= full + 1e-10


def test_e_ssr_negativity_matches_dense_on_dephased():
    from bosonpe.activation import ActivationSpec, activate
    state = fock_state((1, 1)).to_block_state()
    report = activate(ActivationSpec(state))
    part = report.partition
    dephased = dephase_local(report.output, part)
    assert e_ssr(report.output, part) == pytest.approx(
        negativity(dephased, part), abs=1e-10)


def test_e_ssr_invariant_under_local_ssr_unitaries():
    from bosonpe.activation import ActivationSpec, activate
    rng = np.random.default_rng(8)
    state = fock_state((1, 1)).to_block_state()
    report = activate(ActivationSpec(state))
    ua = ModeUnitary(haar_unitary(2, rng))
    ub = ModeUnitary(haar_unitary(2, rng))
    rotated = apply_mode_unitary(report.output, block_direct_sum(ua, ub))
    assert e_ssr(rotated, report.partition) == pytest.approx(
        e_ssr(report.output, report.partition), abs=1e-9)


def test_e_ssr_entropy_variant_requires_pure_sectors():
    state = mix_states([
        (0.5, fock_state((1, 1)).to_block_state()),
        (0.5, fock_state((2, 0)).to_block_state()),
    ])
    from bosonpe.activation import ActivationSpec, activate
    report = activate(ActivationSpec(state))
    with pytest.raises(ValidationError):
        e_ssr(report.output, report.partition, "entanglement_entropy_sectorwise")


def test_e_ssr_variants_vanish_together():
    from bosonpe.activation import ActivationSpec, activate
    free = coherent_spin_state(
        CoherentSpinSpec(np.array([0.8, 0.6]), 2)).to_block_state()
    entangled = fock_state((1, 1)).to_block_state()
    for state, expect_zero in ((free, True), (entangled, False)):
        report = activate(ActivationSpec(state))
        neg = report.e_ssr_negativity
        ent = e_ssr(report.output, report.partition, "entanglement_entropy_sectorwise")
        if expect_zero:
            assert neg < 1e-9 and ent < 1e-9
        else:
            assert neg > 1e-6 and ent > 1e-6


# --- distances ---------------------------------------------------------------


def test_block_trace_distance_basic():
    a = fock_state((1, 0)).to_block_state()
    assert block_trace_distance(a, a) == 0.0
    b = fock_state((0, 1)).to_block_state()
    assert block_trace_distance(a, b) == pytest.approx(1.0)
    # orthogonal supports in different sectors also give distance 1
    c = fock_state((1, 1)).to_block_state()
    assert block_trace_distance(a, c) == pytest.approx(1.0)


def test_block_trace_distance_direct_sum_linearity():
    rng = np.random.default_rng(19)
    from bosonpe.fock import BlockDiagonalState
    weights = rng.dirichlet(np.ones(2))
    blocks_a, blocks_b = {}, {}
    dists = []
    for n, w in zip((1, 2), weights):
        dim = enumerate_basis(2, n).dim
        ra, rb = random_density(dim, rng), random_density(dim, rng)
        blocks_a[n] = (w, ra)
        blocks_b[n] = (w, rb)
        evals = np.linalg.eigvalsh(ra - rb)
        dists.append(w * 0.5 * np.sum(np.abs(evals)))
    a = BlockDiagonalState(2, blocks_a)
    b = BlockDiagonalState(2, blocks_b)
    assert block_trace_distance(a, b) == pytest.approx(sum(dists), abs=1e-12)


def test_distance_to_candidate_set():
    state = noon_state(2).to_block_state()
    candidates = [random_particle_separable(2, 2, 3, seed) for seed in range(5)]
    d = distance_to_candidate_set(state, candidates)
    assert 0.0 < d <= 1.0
    assert d == min(block_trace_distance(state, c) for c in candidates)


def test_mpef_single_mode_is_zero():
    # one mode supports no particle entanglement; the search must return 0
    state = mix_states([(0.4, fock_state((2,)).to_block_state()),
                        (0.6, fock_state((1,)).to_block_state())])
    res = m_pe_f(state, search="general_restarts", seed=1, n_restarts=2)
    assert res.value < 1e-9


def test_mpef_rejects_bad_search_inputs():
    state = append_vacuum(noon_state(2).to_block_state(), 1)
    with pytest.raises(ValidationError):
        m_pe_f(noon_state(2).to_block_state(), n_restarts=-1)
    with pytest.raises(ValidationError):
        m_pe_f(state, search="general_restarts", n_restarts=-1)
    bad_warm_starts = [
        np.eye(2),                                   # smaller than the 3-mode support
        np.full((3, 3), np.nan),                     # not finite
        np.diag([np.inf, 0.0, 0.0]),                 # not finite
        np.triu(np.ones((3, 3))),                    # not Hermitian
        np.ones((3, 4)),                             # not square
        np.ones(3),                                  # not a matrix
    ]
    for w in bad_warm_starts:
        with pytest.raises(ValidationError):
            m_pe_f(state, search="general_restarts", n_restarts=0, warm_starts=[w])
    # a larger warm start is cut to the support
    res = m_pe_f(state, search="general_restarts", n_restarts=0, h_support=2,
                 warm_starts=[np.diag([1.0, -1.0, 0.5])])
    assert res.value == pytest.approx(4.0, abs=1e-8)
