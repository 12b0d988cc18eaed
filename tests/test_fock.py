import json
import math
import tracemalloc

import numpy as np
import pytest

from bosonpe.fock import (
    BlockDiagonalState,
    DeskCaps,
    UNCAPPED,
    DeskScaleError,
    ModePartition,
    SectorState,
    ValidationError,
    dephase_local,
    enumerate_basis,
    fock_state,
    mix_states,
    project_local_number,
    single_particle_rdm,
    state_from_json,
    state_to_json,
    tensor_compose,
    trace_out,
    vacuum_state,
)
from bosonpe.states import CoherentSpinSpec, classical_nd_state, coherent_spin_state

from helpers import recursive_basis_states, symmetric_embedding


def test_enumerate_basis_examples():
    assert enumerate_basis(2, 2).states == ((2, 0), (1, 1), (0, 2))
    assert enumerate_basis(1, 5).states == ((5,),)
    assert enumerate_basis(3, 2).dim == 6


def test_basis_counts_and_order():
    for m in (1, 2, 3, 4):
        for n in (0, 1, 2, 3):
            basis = enumerate_basis(m, n)
            assert basis.dim == math.comb(n + m - 1, m - 1)
            assert all(sum(occ) == n for occ in basis.states)
            assert list(basis.states) == sorted(basis.states, reverse=True)


def test_occupations_match_the_recursive_enumeration_and_rank_inverts_them():
    for m in range(1, 7):
        for n in range(7):
            basis = enumerate_basis(m, n, UNCAPPED)
            occ = basis.occupations
            assert occ.shape == (basis.dim, m) and occ.dtype == np.int64
            assert not occ.flags.writeable
            assert occ.tolist() == [list(s) for s in recursive_basis_states(m, n)]
            assert basis.states == recursive_basis_states(m, n)
            assert np.array_equal(basis.rank(occ), np.arange(basis.dim))


def test_basis_membership():
    basis = enumerate_basis(3, 2)
    assert (1, 0, 1) in basis and np.array([0, 2, 0]) in basis
    assert basis.index(np.array([0, 1, 1])) == 4
    for bad in [(1, 0, 0), (3, -1, 0), (1.5, 0.5, 0), (1, 1), (1, 1, 0, 0)]:
        assert bad not in basis
        with pytest.raises(ValidationError):
            basis.index(bad)


def test_deep_mode_counts_need_no_recursion():
    basis = enumerate_basis(600, 0, UNCAPPED)
    assert basis.dim == 1 and not basis.occupations.any()
    assert isinstance(classical_nd_state(np.full(1500, 1e-6)), BlockDiagonalState)


def test_basis_above_the_entry_bound_is_refused_before_enumerating():
    # 1e6 states pass the support cap, but their 1e6 x 1e6 occupations would not fit
    tracemalloc.start()
    try:
        with pytest.raises(DeskScaleError, match="entries"):
            enumerate_basis(10**6, 1, UNCAPPED)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20


def test_basis_rejects_bad_input():
    with pytest.raises(ValidationError):
        enumerate_basis(0, 2)
    with pytest.raises(DeskScaleError):
        enumerate_basis(2, 7)
    # explicit caps override the desk default
    assert enumerate_basis(2, 7, DeskCaps(max_particles=10)).dim == 8


def test_basis_above_the_support_cap_is_refused_under_any_caps():
    # C(27, 12) = 17383860 states, refused before any is enumerated
    with pytest.raises(DeskScaleError):
        enumerate_basis(16, 12, UNCAPPED)


def test_block_state_validation():
    with pytest.raises(ValidationError):
        BlockDiagonalState(1, {0: (0.5, np.eye(1))})  # weights must sum to 1
    with pytest.raises(ValidationError):
        BlockDiagonalState(1, {1: (1.0, np.array([[2.0]]))})  # trace 2
    bad = np.array([[0.5, 0.5], [(-0.5), 0.5]])  # not Hermitian
    with pytest.raises(ValidationError):
        BlockDiagonalState(2, {1: (1.0, bad)})


def test_sector_state_validation():
    ba, bb = enumerate_basis(2, 1), enumerate_basis(2, 1)
    with pytest.raises(ValidationError, match="trace"):
        SectorState(ba, bb, -np.eye(4))  # trace -4
    with pytest.raises(ValidationError, match="trace"):
        SectorState(ba, bb, 3 * np.eye(4) / 4)  # trace 3
    with pytest.raises(ValidationError, match="PSD"):
        SectorState(ba, bb, np.diag([1.5, -0.5, 0.0, 0.0]))
    with pytest.raises(ValidationError, match="Hermitian"):
        SectorState(ba, bb, np.eye(4) / 4 + 0.1j * np.eye(4, k=1))
    with pytest.raises(ValidationError, match="shape"):
        SectorState(ba, bb, np.eye(3) / 3)
    bell = np.zeros(4)
    bell[[1, 2]] = 1.0 / math.sqrt(2.0)
    sector = SectorState(ba, bb, np.outer(bell, bell))
    assert np.array_equal(sector.matrix, np.outer(bell, bell))
    assert sector.factor().shape == (4, 1)


def test_tiny_blocks_dropped():
    s = BlockDiagonalState(1, {0: (1.0 - 1e-15, np.eye(1)), 1: (1e-15, np.eye(1))})
    assert s.sectors() == [0]
    assert s.weight(0) == pytest.approx(1.0)


def test_tensor_compose_vacuum():
    v = vacuum_state(1)
    vv = tensor_compose(v, v)
    assert vv.modes == 2
    assert vv.sectors() == [0]


def test_tensor_compose_fock():
    one = fock_state((1,)).to_block_state()
    joint = tensor_compose(one, one)
    assert joint.sectors() == [2]
    basis = enumerate_basis(2, 2)
    mat = joint.block(2)
    k = basis.index((1, 1))
    assert mat[k, k] == pytest.approx(1.0)


def test_tensor_compose_convolves_weights():
    half = mix_states([(0.5, vacuum_state(1)), (0.5, fock_state((1,)).to_block_state())])
    joint = tensor_compose(half, half)
    assert joint.weight(0) == pytest.approx(0.25)
    assert joint.weight(1) == pytest.approx(0.5)
    assert joint.weight(2) == pytest.approx(0.25)
    assert joint.mean_particle_number() == pytest.approx(
        2 * half.mean_particle_number())


def test_mix_states_renormalizes_weights_it_accepts():
    # mix_states admits weights summing to 1 within 1e-10, looser than the
    # 1e-12 that BlockDiagonalState demands of block weights
    state = mix_states([(0.5 + 5e-11, vacuum_state(2)),
                        (0.5, fock_state((0, 1)).to_block_state())])
    assert state.weight(0) + state.weight(1) == pytest.approx(1.0, abs=1e-15)
    assert state.weight(0) == pytest.approx(0.5, abs=1e-10)


def test_project_local_number_single_particle():
    basis = enumerate_basis(2, 1)
    amps = np.array([1.0, 1.0]) / math.sqrt(2)
    from bosonpe.fock import PureSectorState
    state = PureSectorState(basis, amps).to_block_state()
    part = ModePartition((0,), (1,))
    dec = project_local_number(state, part)
    assert dec.probability((1, 0)) == pytest.approx(0.5)
    assert dec.probability((0, 1)) == pytest.approx(0.5)


def test_project_local_number_fock():
    state = fock_state((2, 0)).to_block_state()
    dec = project_local_number(state, ModePartition((0,), (1,)))
    assert list(dec.keys()) == [(2, 0)]
    assert dec.probability((2, 0)) == pytest.approx(1.0)


def test_project_probabilities_sum_to_one():
    rng = np.random.default_rng(11)
    psi = rng.normal(size=2) + 1j * rng.normal(size=2)
    spec = CoherentSpinSpec(psi / np.linalg.norm(psi), 3)
    state = coherent_spin_state(spec).to_block_state()
    dec = project_local_number(state, ModePartition((0,), (1,)))
    assert sum(dec.probability(k) for k in dec.keys()) == pytest.approx(1.0, abs=1e-10)


def test_dephase_local_single_particle():
    from bosonpe.fock import PureSectorState
    basis = enumerate_basis(2, 1)
    state = PureSectorState(basis, np.array([1.0, 1.0]) / math.sqrt(2)).to_block_state()
    part = ModePartition((0,), (1,))
    out = dephase_local(state, part)
    mat = out.block(1)
    assert mat[0, 0] == pytest.approx(0.5)
    assert mat[1, 1] == pytest.approx(0.5)
    assert abs(mat[0, 1]) < 1e-14


def test_dephase_idempotent():
    rng = np.random.default_rng(5)
    psi = rng.normal(size=4) + 1j * rng.normal(size=4)
    spec = CoherentSpinSpec(psi / np.linalg.norm(psi), 2)
    state = coherent_spin_state(spec).to_block_state()
    part = ModePartition((0, 2), (1, 3))
    once = dephase_local(state, part)
    twice = dephase_local(once, part)
    assert once.allclose(twice, tol=1e-12)


def test_dephase_keeps_number_eigenstates():
    state = fock_state((1, 2, 0)).to_block_state()
    part = ModePartition((0,), (1, 2))
    assert dephase_local(state, part).allclose(state, tol=1e-14)


def test_single_particle_rdm_examples():
    assert np.allclose(single_particle_rdm(fock_state((3, 0))), np.diag([1.0, 0.0]))
    assert np.allclose(single_particle_rdm(fock_state((1, 1))), np.diag([0.5, 0.5]))
    psi = np.array([1.0, 1.0]) / math.sqrt(2)
    css = coherent_spin_state(CoherentSpinSpec(psi, 3))
    rdm = single_particle_rdm(css)
    assert np.allclose(rdm, np.outer(psi, psi.conj()), atol=1e-12)
    purity = np.trace(rdm @ rdm).real
    assert purity == pytest.approx(1.0, abs=1e-10)
    rdm11 = single_particle_rdm(fock_state((1, 1)))
    assert np.trace(rdm11 @ rdm11).real == pytest.approx(0.5)


def test_single_particle_rdm_vs_first_quantized_trace():
    rng = np.random.default_rng(7)
    m, N = 3, 2
    basis = enumerate_basis(m, N)
    amps = rng.normal(size=basis.dim) + 1j * rng.normal(size=basis.dim)
    amps /= np.linalg.norm(amps)
    from bosonpe.fock import PureSectorState
    state = PureSectorState(basis, amps)
    embed = symmetric_embedding(m, N)
    vec = embed @ amps
    rho_full = np.outer(vec, vec.conj()).reshape(m, m**(N - 1), m, m**(N - 1))
    oracle = np.einsum("ikjk->ij", rho_full)
    assert np.allclose(single_particle_rdm(state), oracle, atol=1e-12)


def test_rdm_rejects_vacuum():
    with pytest.raises(ValidationError):
        single_particle_rdm(fock_state((0, 0)))


def test_trace_out_inverts_padding():
    rng = np.random.default_rng(3)
    psi = rng.normal(size=2) + 1j * rng.normal(size=2)
    state = coherent_spin_state(
        CoherentSpinSpec(psi / np.linalg.norm(psi), 2)).to_block_state()
    from bosonpe.optics import append_vacuum
    padded = append_vacuum(state, 2)
    recovered = trace_out(padded, ModePartition((0, 1), (2, 3)))
    assert recovered.allclose(state, tol=1e-12)


def test_partition_validation():
    with pytest.raises(ValidationError):
        ModePartition((0, 1), (1, 2))
    part = ModePartition((0,), (1,))
    with pytest.raises(ValidationError):
        part.check_covers(3)


def test_json_round_trip_exact():
    rng = np.random.default_rng(2024)
    for _ in range(10):
        blocks = {}
        weights = rng.dirichlet(np.ones(3))
        for n, w in enumerate(weights):
            dim = enumerate_basis(2, n).dim
            g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
            mat = g @ g.conj().T
            blocks[n] = (w, mat / np.trace(mat).real)
        state = BlockDiagonalState(2, blocks)
        doc = state_to_json(state)
        back = state_from_json(doc)
        assert back.modes == state.modes
        for n in state.sectors():
            p1, m1 = state.blocks[n]
            p2, m2 = back.blocks[n]
            assert p1 == p2
            assert np.array_equal(m1, m2)
        # and the serialization itself is stable
        assert state_to_json(back) == doc


def test_json_rejects_garbage():
    with pytest.raises(ValidationError):
        state_from_json(json.dumps({"modes": 1}))


def test_project_local_number_empty_side():
    # degenerate partition: all particles end up on the populated side
    state = fock_state((1, 1)).to_block_state()
    dec = project_local_number(state, ModePartition((), (0, 1)))
    assert list(dec.keys()) == [(0, 2)]
    assert dec.probability((0, 2)) == pytest.approx(1.0)


def _count_cases():
    """(entry point, call) pairs that pass one bad count argument each: a
    float, a bool or a count below its least value, which used to end in
    TypeError, ValueError or IndexError, or (for True) run as 1."""
    from bosonpe import activation, measures, nonclassical, optics, states, witness

    noon = states.noon_state(2).to_block_state()
    spec = nonclassical.ExchangeableSeparableSpec(2, 2, ((1.0, np.array([1.0, 0.0])),))
    data = witness.synthesize_dataset("constant")
    params = witness.WitnessParams(1.0, 1.0)
    alphas = activation.splitter_alphas(optics.balanced_array(2))
    return {
        "m_pe_f n_restarts=1.5": lambda: measures.m_pe_f(noon, "general_restarts",
                                                         n_restarts=1.5),
        "m_pe_f n_restarts=True": lambda: measures.m_pe_f(noon, "general_restarts",
                                                          n_restarts=True),
        "m_pe_f h_support=1.5": lambda: measures.m_pe_f(noon, h_support=1.5),
        "pe_lower_bound n_bootstrap=2.5": lambda: witness.pe_lower_bound(data, params,
                                                                         n_bootstrap=2.5),
        "activation_inequality_check n_candidates=2.5":
            lambda: activation.activation_inequality_check(noon, n_candidates=2.5),
        "m_pe_from_activation n_va_restarts=True":
            lambda: activation.m_pe_from_activation(noon, n_va_restarts=True),
        "synthesize_dataset n_shots=30.5": lambda: witness.synthesize_dataset("css",
                                                                              n_shots=30.5),
        "enumerate_basis N=1.5": lambda: enumerate_basis(2, 1.5),
        "fock_state occupation=1.5": lambda: fock_state((1.5, 1)),
        "fock_state occupation=True": lambda: fock_state((True, 1)),
        "fock_state occupation=-1": lambda: fock_state((-1, 1)),
        "activate_pure_vector occupation=1.5":
            lambda: activation.activate_pure_vector((1.5, 1), optics.balanced_array(2)),
        "activate_pure_vector occupation=-1":
            lambda: activation.activate_pure_vector((-1, 2), optics.balanced_array(2)),
        "local_filter_relation_check occupation=1.5":
            lambda: activation.local_filter_relation_check((1.5, 1), (0.3, 0.4)),
        "local_filter_relation_check occupation=-1":
            lambda: activation.local_filter_relation_check((-1, 2), (0.3, 0.4)),
        "fock_activation_amplitudes occupation=1.5":
            lambda: activation.fock_activation_amplitudes((1.5, 1), alphas, (1, 1)),
        "fock_activation_amplitudes sector=1.5":
            lambda: activation.fock_activation_amplitudes((1, 1), alphas, (1.5, 0.5)),
        "enumerate_basis m=2.0": lambda: enumerate_basis(2.0, 1),
        "CoherentSpinSpec N=1.5": lambda: states.CoherentSpinSpec(np.array([1.0, 0.0]), 1.5),
        "random_particle_separable k=-1": lambda: states.random_particle_separable(2, 2, -1, 0),
        "random_ssr_povm n_outcomes=0": lambda: optics.random_ssr_povm(2, 2, 0, 0),
        "binomial_poisson_distance N=2.5": lambda: nonclassical.binomial_poisson_distance(2.5,
                                                                                          0.1),
        "definetti_classical_approx n_max=-1":
            lambda: nonclassical.definetti_classical_approx(spec, 1, n_max=-1),
        "classical_nd_state n_max=2.5": lambda: states.classical_nd_state(np.array([0.1, 0.1]),
                                                                          n_max=2.5),
        "append_vacuum k=1.5": lambda: optics.append_vacuum(noon, 1.5),
    }


@pytest.mark.parametrize("case", list(_count_cases()))
def test_count_arguments_end_in_validation_error(case):
    with pytest.raises(ValidationError, match="must be (an )?integer"):
        _count_cases()[case]()
