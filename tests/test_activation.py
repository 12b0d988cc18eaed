import math
import tracemalloc

import numpy as np
import pytest

from bosonpe import activation, measures
from bosonpe.cli import main
from bosonpe.fock import (
    BLOCK_DROP_TOL,
    BlockDiagonalState,
    DeskScaleError,
    ModePartition,
    ValidationError,
    dephase_local,
    fock_state,
    mix_states,
    project_local_number,
    state_to_json,
    tensor_compose,
    trace_out,
    vacuum_state,
)
from bosonpe.measures import (
    SingleParticleObservable,
    block_trace_distance,
    e_ssr,
    m_pe_f,
    negativity,
    qfi,
    sector_negativity,
)
from bosonpe.nonclassical import many_copy_nc_bound_check, two_copy_pe_check
from bosonpe.optics import (
    BeamSplitterArray,
    ModeUnitary,
    append_vacuum,
    balanced_array,
    beam_splitter_unitary,
    random_ssr_povm,
)
from bosonpe.activation import (
    ActivationSpec,
    activate,
    activate_pure_vector,
    fock_activation_amplitudes,
    local_filter_relation_check,
    m_pe_from_activation,
    splitter_alphas,
    activation_inequality_check,
)
from bosonpe.states import (
    CoherentSpinSpec,
    classical_nd_state,
    coherent_spin_state,
    noon_state,
    random_free_state,
    random_particle_separable,
)
from bosonpe.witness import WitnessParams, pe_lower_bound, synthesize_dataset

from helpers import (
    compass_round_oracle,
    haar_unitary,
    m_pe_from_activation_oracle,
    random_density,
    serial_m_pe_from_activation,
    splitter_unitary,
)


def test_single_particle_activation_sign():
    basis, vec = activate_pure_vector((1,), balanced_array(1))
    assert basis.states == ((1, 0), (0, 1))
    assert np.allclose(vec, np.array([1.0, -1.0]) / math.sqrt(2))
    report = activate(ActivationSpec(fock_state((1,)).to_block_state()))
    assert report.e_ssr_negativity < 1e-12


def test_fock_11_activation_is_ssr_entangled():
    report = activate(ActivationSpec(fock_state((1, 1)).to_block_state()))
    assert report.ssr_entangled
    assert report.e_ssr_negativity > 1e-6


def test_fig1_postselected_support():
    state = fock_state((2, 2)).to_block_state()
    report = activate(ActivationSpec(state), postselect=(2, 2))
    key, prob, sector = report.postselected
    assert key == (2, 2)
    support = set()
    for i in range(sector.basis_a.dim):
        for j in range(sector.basis_b.dim):
            k = i * sector.basis_b.dim + j
            if abs(sector.matrix[k, k]) > 1e-12:
                support.add((sector.basis_a.states[i], sector.basis_b.states[j]))
    assert support == {((1, 1), (1, 1)), ((2, 0), (0, 2)), ((0, 2), (2, 0))}


def test_activation_faithfulness_catalogue():
    free_inputs = [
        vacuum_state(1),
        fock_state((3, 0)).to_block_state(),
        coherent_spin_state(CoherentSpinSpec(np.array([0.6, 0.8j]), 3)).to_block_state(),
        classical_nd_state(np.array([0.7]), n_max=6),
    ]
    for state in free_inputs:
        report = activate(ActivationSpec(state))
        assert report.e_ssr_negativity <= 1e-9
    entangled_inputs = [
        fock_state((1, 1)).to_block_state(),
        noon_state(2).to_block_state(),
        noon_state(3).to_block_state(),
        fock_state((2, 2)).to_block_state(),
        tensor_compose(fock_state((1,)).to_block_state(),
                       fock_state((1,)).to_block_state()),
    ]
    for state in entangled_inputs:
        report = activate(ActivationSpec(state))
        assert report.e_ssr_negativity >= 1e-6


def test_sector_probabilities_follow_binomial_law():
    # balanced activation of |n> gives P(N_A) = C(N, N_A) / 2^N
    for occ in ((2,), (1, 1), (2, 1), (3, 1)):
        n_tot = sum(occ)
        report = activate(ActivationSpec(fock_state(occ).to_block_state()))
        for na in range(n_tot + 1):
            expected = math.comb(n_tot, na) / 2**n_tot
            assert report.sectors.probability((na, n_tot - na)) == pytest.approx(expected)


def test_closed_form_matches_direct_lift():
    rng = np.random.default_rng(12)
    for occ in ((1,), (2,), (1, 1), (2, 1), (2, 2), (3, 2)):
        m = len(occ)
        n_tot = sum(occ)
        r = rng.uniform(0.2, 0.95, size=m)
        arr = BeamSplitterArray(tuple(r))
        alphas = splitter_alphas(arr)
        basis, vec = activate_pure_vector(occ, arr)
        for na in range(n_tot + 1):
            amps = fock_activation_amplitudes(occ, alphas, (na, n_tot - na))
            # compare against the lifted-unitary amplitudes entry by entry
            rebuilt = np.zeros(basis.dim, dtype=complex)
            for (occ_a, occ_b), amp in amps.items():
                rebuilt[basis.index(occ_a + occ_b)] = amp
            direct = np.zeros(basis.dim, dtype=complex)
            for k, q in enumerate(basis.states):
                qa, qb = q[:m], q[m:]
                if sum(qa) == na:
                    direct[k] = vec[k]
            assert np.max(np.abs(rebuilt - direct)) < 1e-9


def test_closed_form_balanced_single_particle():
    amps = fock_activation_amplitudes(
        (1,), np.array([[1.0], [1.0]]) / math.sqrt(2), (1, 0))
    assert amps[((1,), (0,))] == pytest.approx(1 / math.sqrt(2))
    amps = fock_activation_amplitudes(
        (1,), np.array([[1.0], [1.0]]) / math.sqrt(2), (0, 1))
    assert amps[((0,), (1,))] == pytest.approx(1 / math.sqrt(2))


def test_closed_form_one_sided():
    amps = fock_activation_amplitudes(
        (2, 1), np.array([[1.0, 1.0], [0.0, 0.0]]), (3, 0))
    assert amps[((2, 1), (0, 0))] == pytest.approx(1.0)
    with pytest.raises(ValidationError):
        fock_activation_amplitudes((2, 1), np.array([[1.0, 1.0], [0.0, 0.0]]), (2, 0))


def test_closed_form_three_parties():
    # three-way split of |2>: coefficients (a, b, c), sector probabilities
    # follow the multinomial law
    a, b, c = 0.5, 0.5, 1 / math.sqrt(2)
    alphas = np.array([[a], [b], [c]])
    total = 0.0
    for sector in ((2, 0, 0), (0, 2, 0), (0, 0, 2), (1, 1, 0), (1, 0, 1), (0, 1, 1)):
        amps = fock_activation_amplitudes((2,), alphas, sector)
        total += sum(abs(x) ** 2 for x in amps.values())
    assert total == pytest.approx(1.0)


def test_fig1_caption_amplitude_ratio():
    # (2,2) sector of activated |2,2>: expanding (a1-b1)^2 (a2-b2)^2 / 8 and
    # keeping two A-type operators gives amplitudes 2, 2, 4 on |20>|02>,
    # |02>|20>, |11>|11>, so the |11>|11> term carries twice the amplitude
    alphas = splitter_alphas(balanced_array(2))
    amps = fock_activation_amplitudes((2, 2), alphas, (2, 2))
    a_1111 = amps[((1, 1), (1, 1))]
    a_2002 = amps[((2, 0), (0, 2))]
    a_0220 = amps[((0, 2), (2, 0))]
    assert abs(a_1111 / a_2002) == pytest.approx(2.0)
    assert abs(a_0220) == pytest.approx(abs(a_2002))


def test_local_filter_relation():
    assert local_filter_relation_check((1, 1), (0.6, 0.8))
    assert local_filter_relation_check((2, 1), (0.6, 0.8))
    assert local_filter_relation_check((2, 2), (0.6, 0.8))
    rng = np.random.default_rng(3)
    for _ in range(5):
        r = tuple(rng.uniform(0.15, 0.95, size=2))
        assert local_filter_relation_check((2, 1), r)
    assert local_filter_relation_check((1, 1), (1 / math.sqrt(2),) * 2)


def test_local_filter_rejects_degenerate():
    with pytest.raises(ValidationError):
        local_filter_relation_check((1, 1), (1.0, 0.5))
    with pytest.raises(ValidationError):
        local_filter_relation_check((1, 1), (0.0, 0.5))


def test_activation_inequality_consistency():
    sep = random_particle_separable(2, 2, 3, seed=4)
    rep = activation_inequality_check(sep, seed=1)
    assert rep.consistent
    assert rep.e_ssr_lower <= 1e-9

    rep = activation_inequality_check(fock_state((1, 1)).to_block_state(), seed=1)
    assert rep.consistent
    assert rep.e_ssr_lower > 0

    rep = activation_inequality_check(noon_state(2).to_block_state(), seed=2)
    assert rep.consistent


def test_m_pe_from_activation_free_states():
    psi = np.array([0.8, 0.6])
    state = coherent_spin_state(CoherentSpinSpec(psi, 2)).to_block_state()
    assert m_pe_from_activation(state, n_va_restarts=1, seed=0,
                                grid_step=0.25) < 1e-8


def test_m_pe_from_activation_finds_entanglement():
    state = fock_state((1, 1)).to_block_state()
    val = m_pe_from_activation(state, n_va_restarts=0, seed=0, grid_step=0.25)
    assert val > 1e-3


def test_m_pe_from_activation_budget_monotone():
    state = noon_state(2).to_block_state()
    small = m_pe_from_activation(state, n_va_restarts=0, seed=7, grid_step=0.25)
    bigger = m_pe_from_activation(state, n_va_restarts=2, seed=7, grid_step=0.25)
    assert bigger >= small - 1e-12


def test_m_pe_from_activation_noon2_search_value():
    # the value the benchmark's NOON 2 search reached with a Nelder-Mead
    # refinement; the compass refinement must not fall below it
    state = noon_state(2).to_block_state()
    val = m_pe_from_activation(state, n_va_restarts=1, seed=0)
    assert val >= 0.24999999997750694 - 1e-9


SEARCH_CASES = {
    "noon2": (lambda: noon_state(2).to_block_state(), dict(n_va_restarts=1, seed=0)),
    "fock111": (lambda: fock_state((1, 1, 1)).to_block_state(), dict(n_va_restarts=1, seed=0)),
    "fock210": (lambda: fock_state((2, 1, 0)).to_block_state(), dict(n_va_restarts=1, seed=0)),
    # mixed blocks, scored through the partial transpose
    "free": (lambda: random_free_state(2, 3, 11), dict(n_va_restarts=1, seed=0, grid_step=0.1)),
    "free_two_particles": (lambda: random_free_state(2, 2, 5),
                           dict(n_va_restarts=1, seed=2, grid_step=0.1)),
    "noon2_with_11": (lambda: mix_states([(0.7, noon_state(2).to_block_state()),
                                          (0.3, fock_state((1, 1)).to_block_state())]),
                      dict(n_va_restarts=1, seed=3, grid_step=0.1)),
    "noon3": (lambda: noon_state(3).to_block_state(), dict(n_va_restarts=1, seed=0, grid_step=0.1)),
    # its 3 x 3 (2, 2) sector is scored through the SVD, the 2 x 4 ones in closed form
    "noon4": (lambda: noon_state(4).to_block_state(), dict(n_va_restarts=1, seed=0, grid_step=0.1)),
    # one particle on two modes: every sector is one-sided, nothing is scored
    "css_one_particle": (lambda: coherent_spin_state(
        CoherentSpinSpec(np.array([0.8, 0.6j]), 1)).to_block_state(),
        dict(n_va_restarts=1, seed=0, grid_step=0.1)),
}


@pytest.mark.parametrize("case", sorted(SEARCH_CASES))
def test_m_pe_from_activation_matches_per_candidate_search(case):
    make, kwargs = SEARCH_CASES[case]
    state = make()
    assert abs(m_pe_from_activation(state, **kwargs)
               - m_pe_from_activation_oracle(state, **kwargs)) <= 1e-12


CAP_CORNER = (lambda: fock_state((2, 1, 2, 1)).to_block_state(),
              dict(n_va_restarts=0, grid_step=0.25))


@pytest.mark.parametrize("case", sorted(SEARCH_CASES) + ["cap_corner"])
def test_m_pe_from_activation_equals_the_serial_search_bit_for_bit(case):
    # the stacked restarts follow, bit for bit, the walks they follow alone
    make, kwargs = SEARCH_CASES.get(case, CAP_CORNER)
    state = make()
    assert m_pe_from_activation(state, **kwargs) == serial_m_pe_from_activation(state, **kwargs)


def lockstep_round(blocks, chunk, r, val, step):
    """One compass round of every walk (row of r), run as lockstep passes of
    ``_compass_pass``: a walk leaves the pass set once its round ends."""
    r, val, step, m = r.tolist(), val.tolist(), step.tolist(), r.shape[1]
    pos, improved = [0] * len(r), [False] * len(r)
    live = list(range(len(r)))
    while live:
        moved = activation._compass_pass(blocks, chunk, r, val, step, pos, live)
        for v, move in zip(live, moved):
            improved[v] |= move
        live = [v for v, move in zip(live, moved) if move and pos[v] < m]
    return np.array(r), val, improved


@pytest.mark.parametrize("make", [
    lambda: fock_state((2, 1, 0)).to_block_state(),
    lambda: fock_state((1, 1, 1)).to_block_state(),
    lambda: noon_state(2).to_block_state(),
], ids=["fock210", "fock111", "noon2"])
def test_compass_round_moves_as_the_coordinate_walk(make):
    # twelve walks from random off-grid points, each after its own V_A and at
    # its own step, where a round moves on several coordinates: run in
    # lockstep, each takes the moves of its coordinate walk, bit for bit,
    # whether the passes score their probes one, five or all per call
    state = make()
    m = state.modes
    rng = np.random.default_rng(7)
    vas = [ModeUnitary(haar_unitary(m, rng)) for _ in range(12)]
    blocks = activation._balanced_sectors(append_vacuum(state, m), vas)
    start = rng.uniform(0.05, 0.95, size=(12, m))
    step = rng.choice([0.2, 0.05, 0.01], size=12)
    val = activation._filtered_negativities(blocks, start, np.arange(12))
    want = [compass_round_oracle(blocks, v, start[v], val[v], step[v]) for v in range(12)]
    for chunk in (1, 5, 64):
        got_r, got_val, got_improved = lockstep_round(blocks, chunk, start, val, step)
        for v, (want_r, want_val, want_improved) in enumerate(want):
            assert np.array_equal(got_r[v], want_r)
            assert got_val[v] == want_val and got_improved[v] == want_improved
    assert np.sum(np.count_nonzero(got_r != start, axis=1) >= 2) >= 6


def test_compass_round_on_a_bumpy_score_moves_as_the_coordinate_walk(monkeypatch):
    # a row-wise score with many local maxima, a different one per restart,
    # where both probes of a coordinate can gain and probes meet the clip at
    # either end; forty walks in lockstep
    monkeypatch.setattr(activation, "_filtered_negativities", lambda blocks, r, restart: np.cos(
        23.0 * r + restart[:, None] + np.arange(r.shape[1])).sum(axis=1))
    rng = np.random.default_rng(3)
    start = rng.uniform(1e-6, 1.0 - 1e-6, size=(40, 3))
    start[:, 0] = np.where(np.arange(40) % 3 == 1, 1e-6, start[:, 0])  # free, or at a clip end
    start[:, 0] = np.where(np.arange(40) % 3 == 2, 1.0 - 1e-6, start[:, 0])
    step = rng.choice([0.3, 0.1, 0.02], size=40)
    val = activation._filtered_negativities(None, start, np.arange(40))
    for chunk in (1, 2, 7, 240):
        got_r, got_val, got_improved = lockstep_round(None, chunk, start, val, step)
        for v in range(40):
            want_r, want_val, want_improved = compass_round_oracle(None, v, start[v], val[v],
                                                                   step[v])
            assert np.array_equal(got_r[v], want_r)
            assert got_val[v] == want_val and got_improved[v] == want_improved


@pytest.mark.parametrize("state", [
    coherent_spin_state(CoherentSpinSpec(np.array([0.8, 0.6j]), 1)).to_block_state(),
    mix_states([(0.5, vacuum_state(3)), (0.5, fock_state((0, 1, 0)).to_block_state())]),
    fock_state((3,)).to_block_state(),
], ids=["css_one_particle", "vacuum_or_one", "one_mode"])
def test_m_pe_from_activation_without_two_sided_sectors_scores_nothing(state, monkeypatch):
    # one particle at most, or one mode: every (N_A, N_B) sector has
    # d_A = 1 or d_B = 1, so the search is exactly 0.0 without a candidate
    def refuse(*args):
        raise AssertionError("no sector should be scored")
    monkeypatch.setattr(activation, "_filtered_negativities", refuse)
    assert m_pe_from_activation(state, n_va_restarts=2, seed=1) == 0.0


def test_m_pe_from_activation_at_the_cap_corner():
    # 8 output modes and sector dimension 1716: the search scores the
    # factored balanced output and never builds a dense block
    state = fock_state((2, 1, 2, 1)).to_block_state()
    want = m_pe_from_activation_oracle(state, n_va_restarts=0, grid_step=0.25)
    tracemalloc.start()
    try:
        got = m_pe_from_activation(state, n_va_restarts=0, grid_step=0.25)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 200 * 2**20
    assert abs(got - want) <= 1e-12


@pytest.mark.parametrize("kwargs", [
    dict(grid_step=0), dict(grid_step=0.0), dict(grid_step=float("nan")),
    dict(grid_step=float("inf")), dict(grid_step=1.0), dict(grid_step=1.5),
    dict(grid_step=-0.1), dict(grid_step="0.1"), dict(grid_step=None),
    dict(n_va_restarts=-1), dict(n_va_restarts=1.5), dict(n_va_restarts=True),
    dict(n_va_restarts="2"), dict(seed=-1),
])
def test_m_pe_from_activation_rejects_bad_arguments(kwargs):
    with pytest.raises(ValidationError):
        m_pe_from_activation(fock_state((1, 1)).to_block_state(), **kwargs)


@pytest.mark.parametrize("call", [
    lambda: m_pe_from_activation(noon_state(2).to_block_state(), seed=-1),
    # no two-sided sector, so the search would return 0.0 without a draw
    lambda: m_pe_from_activation(fock_state((1, 0)).to_block_state(), seed=-1),
    lambda: activation_inequality_check(noon_state(2).to_block_state(), seed=-1),
    lambda: random_particle_separable(2, 2, 2, -1),
    lambda: random_free_state(2, 2, np.int64(-3)),
    lambda: random_ssr_povm(2, 2, 2, -1),
    lambda: m_pe_f(noon_state(2).to_block_state(), search="general_restarts", seed=-5),
    lambda: synthesize_dataset("css", n_shots=30, seed=-1),
    lambda: pe_lower_bound(synthesize_dataset("css", n_shots=30), WitnessParams(1.0, 1.0),
                           n_bootstrap=10, seed=-3),
], ids=["search", "search_no_sectors", "inequality", "particle_separable", "free_state",
        "ssr_povm", "mpef", "synthesize", "bootstrap"])
def test_seeded_entry_points_reject_negative_seeds(call):
    with pytest.raises(ValidationError, match="seed"):
        call()


SEEDED_ENTRY_POINTS = {
    "particle_separable": lambda seed: random_particle_separable(2, 2, 2, seed),
    "free_state": lambda seed: random_free_state(2, 2, seed),
    "ssr_povm": lambda seed: random_ssr_povm(2, 2, 2, seed),
    "mpef": lambda seed: m_pe_f(noon_state(2).to_block_state(), search="general_restarts",
                                seed=seed, n_restarts=1),
    "search": lambda seed: m_pe_from_activation(noon_state(2).to_block_state(), n_va_restarts=1,
                                                seed=seed, grid_step=0.25),
    "inequality": lambda seed: activation_inequality_check(noon_state(2).to_block_state(),
                                                           n_candidates=2, seed=seed),
    "bootstrap": lambda seed: pe_lower_bound(synthesize_dataset("css", n_shots=30),
                                             WitnessParams(1.0, 1.0), n_bootstrap=10, seed=seed),
    "synthesize": lambda seed: synthesize_dataset("css", n_shots=30, seed=seed),
}


@pytest.mark.parametrize("seed", [1.5, "7", True], ids=["float", "str", "bool"])
@pytest.mark.parametrize("entry", sorted(SEEDED_ENTRY_POINTS))
def test_seeded_entry_points_take_only_integer_seeds(entry, seed):
    # numpy would end 1.5 and "7" in a bare TypeError and run True as seed 1
    with pytest.raises(ValidationError, match="seed"):
        SEEDED_ENTRY_POINTS[entry](seed)
    SEEDED_ENTRY_POINTS[entry](np.int64(3))


PURE = fock_state((1, 1))
SPLIT = ModePartition((0,), (1,))


@pytest.mark.parametrize("call", [
    lambda: m_pe_f(PURE),
    lambda: qfi(PURE, SingleParticleObservable(np.diag([1.0, -1.0]))),
    lambda: activate(ActivationSpec(PURE)),
    lambda: m_pe_from_activation(PURE),
    lambda: negativity(PURE, SPLIT),
    lambda: e_ssr(PURE, SPLIT),
    lambda: two_copy_pe_check(PURE),
    lambda: append_vacuum(PURE, 1),
    lambda: block_trace_distance(PURE.to_block_state(), PURE),
    lambda: many_copy_nc_bound_check(PURE, 2),
    lambda: project_local_number(PURE, SPLIT),
    lambda: dephase_local(PURE, SPLIT),
    lambda: trace_out(PURE, SPLIT),
    lambda: tensor_compose(PURE.to_block_state(), PURE),
    lambda: state_to_json(PURE),
], ids=["m_pe_f", "qfi", "activate", "search", "negativity", "e_ssr", "two_copy",
        "append_vacuum", "block_trace_distance", "many_copy", "project_local_number",
        "dephase_local", "trace_out", "tensor_compose", "state_to_json"])
def test_pure_sector_states_are_refused_where_they_enter(call):
    with pytest.raises(ValidationError, match=r"\.to_block_state\(\)"):
        call()


def test_m_pe_from_activation_stacks_one_desk_block_of_factors_at_most(monkeypatch):
    # a desk block of 430^2 entries bounds the stacked factors of this rank-35
    # block on the 330-row (8, 4) output sector to 16 V_A per group, so 64
    # restarts run as 5 groups, one after another; the peak is that of one
    # group (about 2.3 MiB of factors), not 65 / 16 of it.  The scorer is
    # stubbed out: the stacks are under test, not the scoring
    state = BlockDiagonalState(4, {4: (1.0, random_density(35, np.random.default_rng(5), 35))})
    monkeypatch.setattr(activation, "_MAX_BLOCK_DIM", 430)
    monkeypatch.setattr(activation, "_filtered_negativities",
                        lambda blocks, r, restart: np.zeros(len(r)))
    m_pe_from_activation(state, n_va_restarts=1, grid_step=0.45)  # the basis tables
    peaks = {}
    for restarts in (15, 64):
        tracemalloc.start()
        try:
            m_pe_from_activation(state, n_va_restarts=restarts, grid_step=0.45)
            peaks[restarts] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert peaks[64] <= 1.1 * peaks[15]


@pytest.mark.parametrize("occupation, grid_step", [
    ((1, 1), 1e-13),    # about 1e26 candidates on the 2-mode product grid
    ((1, 1), 9.9e-4),   # 1010^2 candidates, just above the cap
    ((1, 0, 1), 1e-13),  # the per-coordinate sweep on 3 modes
    ((1, 1), 1e-300),   # about 1e600 candidates, past the float range
    ((1, 1), 5e-324),   # a subnormal step: (1 - step) / step is inf
    ((1, 0, 1), 5e-324),
])
def test_m_pe_from_activation_refuses_huge_grids_before_allocating(occupation, grid_step):
    state = fock_state(occupation).to_block_state()
    tracemalloc.start()
    try:
        with pytest.raises(DeskScaleError):
            m_pe_from_activation(state, n_va_restarts=0, grid_step=grid_step)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20


def test_dephasing_commutes_with_activation_for_number_superpositions():
    # a pure input with coherence across total number: activate the raw
    # superposition and the number-dephased mixture; after local dephasing
    # the outputs agree (cross-sector coherences cannot survive)
    from bosonpe.fock import BlockDiagonalState, ModePartition, dephase_local, mix_states

    c0, c1 = math.sqrt(0.3), math.sqrt(0.7)
    arr = balanced_array(1)
    # raw superposition c0 |0> + c1 |1> on one mode, activated sector by sector
    vec0 = np.array([c0])
    basis1, vec1 = activate_pure_vector((1,), arr)
    vec1 = c1 * vec1
    # build the 2-mode output density with the cross-sector coherence kept,
    # then dephase locally: the (0,0) x (N_A, N_B) cross terms must die
    part = ModePartition((0,), (1,))
    blocks = {0: (c0**2, np.array([[1.0 + 0j]])),
              1: (c1**2, np.outer(vec1, vec1.conj()) / c1**2)}
    dephased_raw = dephase_local(BlockDiagonalState(2, blocks), part)
    mixture = mix_states([
        (c0**2, vacuum_state(1)),
        (c1**2, fock_state((1,)).to_block_state()),
    ])
    dephased_mixed = dephase_local(activate(ActivationSpec(mixture)).output, part)
    assert dephased_raw.allclose(dephased_mixed, tol=1e-10)


def test_cap_corner_activation_stays_factored(capsys):
    # |2,1,2,1> at the default cap corner (8 output modes, 6 particles): the
    # rank-1 output is carried as a factor, never as a 1716 x 1716 block
    spec = ActivationSpec(fock_state((2, 1, 2, 1)).to_block_state())
    report = activate(spec)  # warm-up: the basis tables of the (8, 6) sector
    assert report.e_ssr_negativity == pytest.approx(3.111516952966367, abs=1e-12)
    tracemalloc.start()
    try:
        activate(spec)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 10 * 2**20

    assert main(["activate", "--state", "fock:2,1,2,1", "--table"]) == 0
    rows = [line.split(",") for line in capsys.readouterr().out.strip().splitlines()[1:]]
    assert {(int(na), int(nb)): p for na, nb, p, _ in rows} == {
        key: f"{report.sectors.probability(key):.12g}" for key in report.sectors.keys()}


def test_activation_unitary_is_the_splitter_after_va():
    # one matrix, bit for bit the splitter array after V_A (or alone)
    rng = np.random.default_rng(33)
    for trial in range(60):
        m = 1 + trial % 4
        r = rng.uniform(size=m)
        r[rng.uniform(size=m) < 0.2] = rng.integers(0, 2)  # r = 0 and r = 1 too
        va = None if trial % 3 == 0 else haar_unitary(m, rng)
        u = beam_splitter_unitary(BeamSplitterArray(tuple(r)),
                                  None if va is None else ModeUnitary(va))
        assert np.array_equal(u.matrix, splitter_unitary(r, va))


def count_unitary_checks(monkeypatch) -> list:
    """Count the u†u checks of ModeUnitary from now on: the list's length."""
    calls, check = [], ModeUnitary.__post_init__

    def counted(self):
        calls.append(self.matrix.shape)
        check(self)

    monkeypatch.setattr(ModeUnitary, "__post_init__", counted)
    return calls


@pytest.mark.parametrize("make", [
    lambda: ActivationSpec(fock_state((2, 1)).to_block_state()),
    lambda: ActivationSpec(noon_state(2).to_block_state(),
                           pre_rotation=ModeUnitary(haar_unitary(2, np.random.default_rng(4)))),
    lambda: ActivationSpec(random_free_state(3, 2, 3, 5), array=BeamSplitterArray((0.3, 0.6, 0.9))),
])
def test_activate_checks_one_unitary(make, monkeypatch):
    spec = make()
    calls = count_unitary_checks(monkeypatch)
    activate(spec)
    assert len(calls) == 1


@pytest.mark.parametrize("n_va_restarts", [0, 1, 4])
def test_the_search_checks_at_most_two_unitaries_per_va(n_va_restarts, monkeypatch):
    calls = count_unitary_checks(monkeypatch)
    m_pe_from_activation(fock_state((1, 1, 1)).to_block_state(), n_va_restarts=n_va_restarts,
                         grid_step=0.25)
    assert len(calls) <= 2 * (n_va_restarts + 1)


def test_activate_builds_schmidt_spectra_on_first_read(monkeypatch):
    # activate scores its sectors without a Schmidt spectrum; the first read
    # of .schmidt builds one per sector, and later reads, of it or of
    # e_ssr_entropy, reuse it
    calls = []

    def counted(sector, tol=1e-8):
        calls.append(sector)
        return measures.schmidt_spectrum(sector, tol)
    monkeypatch.setattr(activation, "schmidt_spectrum", counted)
    report = activate(ActivationSpec(fock_state((2, 1)).to_block_state()))
    assert calls == []
    schmidt = report.schmidt
    assert len(calls) == len(report.sectors.entries)
    assert report.schmidt is schmidt
    entropy = report.e_ssr_entropy
    assert report.e_ssr_entropy == entropy
    assert len(calls) == len(report.sectors.entries)
    for key, (p, s) in report.sectors.entries.items():
        assert np.array_equal(schmidt[key], measures.schmidt_spectrum(s))
    assert entropy == sum(p * measures.entanglement_entropy(s)
                          for p, s in report.sectors.entries.values())

    mixed = activate(ActivationSpec(classical_nd_state(0.5)))
    assert mixed.schmidt is None and mixed.e_ssr_entropy is None
    assert len(calls) == len(report.sectors.entries)


@pytest.mark.parametrize("make", [
    lambda: fock_state((1, 1)).to_block_state(),
    lambda: fock_state((2, 1, 1)).to_block_state(),
    lambda: noon_state(3).to_block_state(),
    lambda: random_particle_separable(2, 3, 3, 1),
    lambda: classical_nd_state(0.5),
    lambda: mix_states([(0.5, fock_state((1, 1)).to_block_state()),
                        (0.5, fock_state((2, 0)).to_block_state())]),
], ids=["fock11", "fock211", "noon3", "separable", "classical", "fock_mixture"])
def test_activate_scores_each_sector_by_the_kernel(make):
    # one scorer per sector: activate's negativities are sector_negativity's
    # floats, a one-sided sector scores exactly 0.0, and e_ssr, which sums
    # the same floats in the same order, gives the same total
    report = activate(ActivationSpec(make()))
    one_sided = 0
    for key, (_, s) in report.sectors.entries.items():
        assert report.sector_negativities[key] == sector_negativity(s)
        if min(s.dims) == 1:
            one_sided += 1
            assert report.sector_negativities[key] == 0.0
    assert one_sided >= 2
    assert e_ssr(report.output, report.partition) == report.e_ssr_negativity


def test_pure_output_with_a_mixed_sector_raises_on_reading_schmidt():
    # purity 1 - 2e-11 counts as pure, but the 1e-11 admixture of |0,2> fills
    # the one-sided (0, 2) sector, where |2,0> leaves only 1e-8: that sector
    # is mixed, so its spectrum is refused when read, not inside activate
    eps = 1e-11
    state = mix_states([(1 - eps, fock_state((2, 0)).to_block_state()),
                        (eps, fock_state((0, 2)).to_block_state())])
    report = activate(ActivationSpec(
        state, array=BeamSplitterArray((math.sqrt(1 - 1e-4), 1e-3))))
    assert report.output.purity() >= 1.0 - 1e-10
    assert not report.sectors.state((0, 2)).is_pure()
    assert report.sector_negativities[(0, 2)] == 0.0
    with pytest.raises(ValidationError):
        report.schmidt


def test_filtered_negativities_drop_a_sector_in_some_rows_only():
    # with r_0 = 1e-6 the (3, 1) sector of |3,1> holds about 1.5e-24, under
    # BLOCK_DROP_TOL, while the balanced row keeps it: the stack drops it in
    # that row only, and each row scores as it does alone
    state = fock_state((3, 1)).to_block_state()
    blocks = activation._balanced_sectors(append_vacuum(state, 2), [None])
    r = np.array([[2**-0.5, 2**-0.5], [1e-6, 2**-0.5]])
    restart = np.zeros(2, dtype=int)
    (p_n, occupations, sectors), = blocks
    w = activation._local_filter_weights(occupations, r)
    probs = [p_n * np.sum(np.abs(w[:, rows, None] * f[restart]) ** 2, axis=(1, 2))
             for rows, f, _, _ in sectors]
    assert any(prob[0] >= BLOCK_DROP_TOL > prob[1] for prob in probs)
    both = activation._filtered_negativities(blocks, r, restart)
    for i in range(2):
        assert both[i] == activation._filtered_negativities(blocks, r[i:i + 1], restart[:1])[0]
