import math
import tracemalloc

import numpy as np
import pytest

from bosonpe.fock import (
    UNCAPPED,
    BlockDiagonalState,
    DeskScaleError,
    ModePartition,
    PureSectorState,
    SectorDecomposition,
    ValidationError,
    enumerate_basis,
    fock_state,
    mix_states,
    vacuum_state,
)
from bosonpe.optics import (
    BeamSplitterArray,
    ModeUnitary,
    _sector_slices,
    append_vacuum,
    apply_mode_unitary,
    balanced_array,
    beam_splitter_unitary,
    identity_unitary,
    lift_unitary,
    measure_destructive,
    measure_total_number,
    mode_unitary_from_json,
    random_ssr_povm,
    validate_ssr_povm,
)
from bosonpe.activation import fock_activation_amplitudes
from bosonpe.measures import SingleParticleObservable, bloch_observable
from bosonpe.states import CoherentSpinSpec, coherent_spin_state, is_coherent_spin_pure

from helpers import apply_to_pure, haar_unitary, lift_oracle

U50 = ModeUnitary(np.array([[1, 1], [-1, 1]]) / math.sqrt(2))


def test_mode_unitary_rejects_nonunitary():
    with pytest.raises(ValidationError):
        ModeUnitary(np.array([[1.0, 0.1], [0.0, 1.0]]))


def test_lift_single_particle():
    out = lift_unitary(U50, 1) @ np.array([1.0, 0.0])
    assert np.allclose(out, np.array([1.0, -1.0]) / math.sqrt(2))


def test_lift_hong_ou_mandel():
    out = lift_unitary(U50, 2) @ np.array([0.0, 1.0, 0.0])
    assert np.allclose(out, np.array([1.0, 0.0, -1.0]) / math.sqrt(2), atol=1e-12)


def test_lift_identity():
    for n in range(4):
        assert np.allclose(lift_unitary(identity_unitary(3), n), np.eye(enumerate_basis(3, n).dim))


@pytest.mark.parametrize("m,n", [(2, 0), (2, 1), (2, 2), (2, 3), (3, 2), (3, 3)])
def test_lift_matches_permanent_oracle(m, n):
    rng = np.random.default_rng(100 * m + n)
    u = haar_unitary(m, rng)
    lifted = lift_unitary(ModeUnitary(u), n)
    assert np.allclose(lifted, lift_oracle(u, m, n), atol=1e-10)
    assert np.allclose(lifted.conj().T @ lifted, np.eye(lifted.shape[0]), atol=1e-10)


def test_lift_at_the_cap_corner():
    """The full (8, 6) lift of a Haar unitary is unitary and stays under
    200 MB; applied to a rank-3, full-support block it gives
    W V diag(lam) (W V)† with W that lift."""
    rng = np.random.default_rng(86)
    u = ModeUnitary(haar_unitary(8, rng))
    tracemalloc.start()
    try:
        lifted = lift_unitary(u, 6)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 200 * 2**20
    gram = lifted.conj().T @ lifted
    gram[np.diag_indices_from(gram)] -= 1.0
    assert np.max(np.abs(gram)) < 1e-12
    d = lifted.shape[0]
    V, _ = np.linalg.qr(rng.normal(size=(d, 3)) + 1j * rng.normal(size=(d, 3)))
    lam = np.array([0.5, 0.3, 0.2])
    state = BlockDiagonalState._factored(8, {6: (1.0, V, lam)})
    WV = lifted @ V
    out = apply_mode_unitary(state, u).block(6)
    assert np.max(np.abs(out - (WV * lam) @ WV.conj().T)) < 1e-12


def test_lift_refuses_a_partial_lift_above_the_desk_size():
    # 500 columns of the (8, 8) sector, d = 6435, are 3.2e6 entries (51 MB),
    # more than the 1716**2 of one desk block; the basis itself is allowed
    u = ModeUnitary(haar_unitary(8, np.random.default_rng(8)))
    enumerate_basis(8, 8, UNCAPPED)
    tracemalloc.start()
    try:
        with pytest.raises(DeskScaleError):
            lift_unitary(u, 8, caps=UNCAPPED, columns=range(500))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20


@pytest.mark.parametrize("n", [21, 25])
def test_lift_of_many_particles_in_one_mode(n):
    # |n, 0> splits binomially; prod n_i! would pass 2**63 from n = 21
    u = beam_splitter_unitary(balanced_array(1))
    column = lift_unitary(u, n, caps=UNCAPPED, columns=[0])[:, 0]
    want = [(-1) ** k * math.sqrt(math.comb(n, k) / 2**n) for k in range(n + 1)]
    assert np.max(np.abs(column - want)) <= 1e-12


def test_lift_of_three_hundred_particles_in_one_mode():
    # |N, 0> -> sum_k sqrt(C(N, k)) u00^(N-k) u10^k |N-k, k>, the closed form
    # evaluated in log space; N! overflows a float from N = 171
    N = 300
    u = haar_unitary(2, np.random.default_rng(300))
    column = lift_unitary(ModeUnitary(u), N, caps=UNCAPPED, columns=[0])[:, 0]
    k = np.arange(N + 1)
    log_comb = np.array([math.lgamma(N + 1) - math.lgamma(j + 1) - math.lgamma(N - j + 1)
                         for j in k])
    want = np.exp(0.5 * log_comb + (N - k) * np.log(u[0, 0]) + k * np.log(u[1, 0]))
    assert np.max(np.abs(column - want)) <= 1e-12


def test_lift_preserves_coherent_spin_states():
    rng = np.random.default_rng(21)
    for trial in range(5):
        u = ModeUnitary(haar_unitary(3, rng))
        psi = rng.normal(size=3) + 1j * rng.normal(size=3)
        psi /= np.linalg.norm(psi)
        s = coherent_spin_state(CoherentSpinSpec(psi, 3))
        out = apply_to_pure(s, u)
        assert is_coherent_spin_pure(out, tol=1e-9)


def test_apply_unitary_round_trip():
    rng = np.random.default_rng(4)
    psi = rng.normal(size=2) + 1j * rng.normal(size=2)
    state = coherent_spin_state(
        CoherentSpinSpec(psi / np.linalg.norm(psi), 3)).to_block_state()
    u = ModeUnitary(haar_unitary(2, rng))
    back = apply_mode_unitary(apply_mode_unitary(state, u), u.dagger())
    assert back.allclose(state, tol=1e-10)


def test_apply_unitary_on_vacuum():
    u = ModeUnitary(haar_unitary(2, np.random.default_rng(1)))
    assert apply_mode_unitary(vacuum_state(2), u).allclose(vacuum_state(2))


def test_beam_splitter_presets():
    ident = beam_splitter_unitary(BeamSplitterArray((1.0, 1.0)))
    assert np.allclose(ident.matrix, np.eye(4))
    swap = beam_splitter_unitary(BeamSplitterArray((0.0,)))
    assert np.allclose(np.abs(swap.matrix), np.array([[0, 1], [1, 0]]))
    for bad in ([-1], [3], [1.5], [np.float64(1.0)]):
        with pytest.raises(ValidationError):
            lift_unitary(swap, 2, columns=bad)
    bal = beam_splitter_unitary(balanced_array(1))
    out = lift_unitary(bal, 1) @ np.array([1.0, 0.0])
    assert np.allclose(out, np.array([1.0, -1.0]) / math.sqrt(2))


def test_append_vacuum():
    one = fock_state((1,)).to_block_state()
    padded = append_vacuum(one, 1)
    basis = enumerate_basis(2, 1)
    assert padded.block(1)[basis.index((1, 0)), basis.index((1, 0))] == pytest.approx(1.0)
    assert padded.mean_particle_number() == pytest.approx(one.mean_particle_number())
    with pytest.raises(ValidationError):
        append_vacuum(one, 0)


def test_measure_total_number():
    out = measure_total_number(fock_state((1, 1)).to_block_state())
    assert list(out) == [2]
    p, conditional = out[2]
    assert p == pytest.approx(1.0)

    mixed = mix_states([(0.5, vacuum_state(1)), (0.5, fock_state((2,)).to_block_state())])
    out = measure_total_number(mixed)
    assert out[0][0] == pytest.approx(0.5)
    assert out[2][0] == pytest.approx(0.5)
    # repeated measurement gives identical statistics
    again = measure_total_number(out[2][1])
    assert list(again) == [2]
    assert again[2][0] == pytest.approx(1.0)


def _number_povm(modes: int, n_max: int) -> list[np.ndarray]:
    """Projectors onto each total-number sector of the measured modes."""
    dim = math.comb(modes + n_max, n_max)
    elements = []
    for n, sl in _sector_slices(modes, n_max).items():
        e = np.zeros((dim, dim), dtype=complex)
        e[sl, sl] = np.eye(sl.stop - sl.start)
        elements.append(e)
    return elements


def test_destructive_number_measurement_single_particle():
    basis = enumerate_basis(2, 1)
    state = PureSectorState(basis, np.array([1.0, 1.0]) / math.sqrt(2)).to_block_state()
    part = ModePartition((0,), (1,))
    outcomes = measure_destructive(state, part, _number_povm(1, 1))
    assert outcomes[0][0] == pytest.approx(0.5)
    assert outcomes[1][0] == pytest.approx(0.5)
    # N_B = 0 leaves the particle on A; N_B = 1 leaves the A vacuum
    assert outcomes[0][1].sectors() == [1]
    assert outcomes[1][1].sectors() == [0]


def test_destructive_measurement_rejects_coherence():
    coherent = np.array([[0.5, 0.5], [0.5, 0.5]], dtype=complex)
    rest = np.eye(2) - coherent
    state = fock_state((1, 0)).to_block_state()
    with pytest.raises(ValidationError):
        measure_destructive(state, ModePartition((0,), (1,)), [coherent, rest])


def test_destructive_measurement_preserves_free_states():
    rng = np.random.default_rng(77)
    for trial in range(10):
        psi = rng.normal(size=3) + 1j * rng.normal(size=3)
        psi /= np.linalg.norm(psi)
        state = coherent_spin_state(CoherentSpinSpec(psi, 3)).to_block_state()
        part = ModePartition((0, 1), (2,))
        povm = random_ssr_povm(1, 3, 3, seed=trial)
        for prob, post in measure_destructive(state, part, povm).values():
            for n in post.sectors():
                if n == 0:
                    continue
                mat = post.block(n)
                evals, evecs = np.linalg.eigh(mat)
                assert evals[-1] > 1.0 - 1e-8  # each block stays pure
                vec = evecs[:, -1]
                s = PureSectorState(enumerate_basis(2, n), vec / np.linalg.norm(vec))
                assert is_coherent_spin_pure(s, tol=1e-7)


def test_random_ssr_povm_is_valid():
    povm = random_ssr_povm(2, 3, 4, seed=5)
    validate_ssr_povm(2, 3, povm)


@pytest.mark.parametrize("build", [
    lambda: BlockDiagonalState(2, {1: (1.0, [[math.nan, 0.0], [0.0, 1.0]])}),
    lambda: BlockDiagonalState(2, {1: (math.nan, np.eye(2) / 2)}),
    lambda: BlockDiagonalState(2, {1: (1.0, [[0.5, math.inf], [0.0, 0.5]])}),
    lambda: PureSectorState(enumerate_basis(2, 1), [math.nan, 0.0]),
    lambda: ModeUnitary([[math.nan]]),
    lambda: mode_unitary_from_json('{"modes": 1, "matrix": [[[NaN, 0.0]]]}'),
    lambda: BeamSplitterArray((math.nan,)),
    lambda: SingleParticleObservable([[math.nan]]),
    lambda: bloch_observable([math.nan, 0.0, 1.0]),
    lambda: bloch_observable([0.0, 0.0, 0.0]),
    lambda: validate_ssr_povm(1, 1, [np.diag([math.nan, 0.0]), np.diag([0.0, 1.0])]),
    lambda: SectorDecomposition({(1, 0): (math.nan, None)}),
    lambda: fock_activation_amplitudes((1, 1), [[math.nan, 0.6], [0.6, 0.8]], (1, 1)),
], ids=["block", "block_weight", "block_inf", "pure_state", "unitary", "unitary_json",
        "splitters", "observable", "bloch_nan", "bloch_zero", "povm", "sectors",
        "activation_alphas"])
def test_entry_validators_reject_nan(build):
    # inf - inf inside the checks is NaN, and numpy warns before they reject it
    with pytest.raises(ValidationError), np.errstate(invalid="ignore"):
        build()


def test_mode_unitary_json_round_trip():
    from bosonpe.optics import mode_unitary_from_json, mode_unitary_to_json
    rng = np.random.default_rng(33)
    u = ModeUnitary(haar_unitary(3, rng))
    back = mode_unitary_from_json(mode_unitary_to_json(u))
    assert np.array_equal(back.matrix, u.matrix)
    with pytest.raises(ValidationError):
        mode_unitary_from_json('{"modes": 2}')
