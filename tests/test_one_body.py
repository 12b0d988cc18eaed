"""One-body operators through the cached annihilation maps.

``second_quantized``, ``qfi``, ``single_particle_variance``, ``_mpef_form``
and ``single_particle_rdm`` all act through a_j V and a_i†(.), never through
a dense a_i† a_j tensor.  These tests pin each against the dense tensor of
``helpers.dense_transfer_tensor`` on dense-born, factored and full-rank
blocks, check the algebraic laws of second quantisation, and keep the cap
corner (8 modes, 6 particles) within a few megabytes.
"""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from bosonpe.cli import main
from bosonpe.fock import (
    UNCAPPED,
    BlockDiagonalState,
    PureSectorState,
    enumerate_basis,
    fock_state,
    single_particle_rdm,
)
from bosonpe.measures import (
    SingleParticleObservable,
    _hermitian_from_params,
    _mpef_form,
    _pad_observable,
    collective_generator,
    m_pe_f,
    qfi,
    second_quantized,
    single_particle_variance,
)
from bosonpe.states import CoherentSpinSpec, coherent_spin_state

from helpers import dense_transfer_tensor, qfi_matrix, random_density

FEW = settings(max_examples=25, deadline=None)
TOL = 1e-12


def sq_oracle(f: np.ndarray, m: int, N: int) -> np.ndarray:
    return np.einsum("ij,ijkl->kl", f, dense_transfer_tensor(m, N))


def random_matrix(m: int, rng) -> np.ndarray:
    return rng.normal(size=(m, m)) + 1j * rng.normal(size=(m, m))


def random_observable(m: int, rng) -> np.ndarray:
    h = random_matrix(m, rng)
    h = (h + h.conj().T) / 2
    return h / np.max(np.abs(np.linalg.eigvalsh(h)))


@st.composite
def block_states(draw, max_modes=3, max_particles=3):
    """States on up to 3 modes over sectors N <= 3: dense-born blocks of
    rank <= 3 or of full rank, or blocks born as factors (V, lam)."""
    m = draw(st.integers(1, max_modes))
    kind = draw(st.sampled_from(["dense", "full", "factored"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    sectors = sorted(draw(st.sets(st.integers(0, max_particles), min_size=1, max_size=3)))
    weights = rng.dirichlet(np.ones(len(sectors)))
    blocks = {}
    for p, N in zip(weights, sectors):
        dim = enumerate_basis(m, N, UNCAPPED).dim
        rank = dim if kind == "full" else draw(st.integers(1, min(3, dim)))
        if kind == "factored":
            V = np.linalg.qr(rng.normal(size=(dim, rank)) + 1j * rng.normal(size=(dim, rank)))[0]
            blocks[N] = (p, V, rng.dirichlet(np.ones(rank)))
        else:
            blocks[N] = (p, random_density(dim, rng, rank))
    if kind == "factored":
        return BlockDiagonalState._factored(m, blocks)
    return BlockDiagonalState(m, blocks, caps=UNCAPPED)


def direct_sum(state: BlockDiagonalState, h: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(sum_N p_N rho_N, sum_N SQ(h) / sqrt(N)) as dense matrices over the
    state's sectors, the generator from the dense oracle."""
    mats = [state.weight(N) * state.block(N) for N in state.sectors()]
    gens = [sq_oracle(h, state.modes, N) / math.sqrt(N) if N else np.zeros((1, 1))
            for N in state.sectors()]
    rho = np.zeros((sum(len(a) for a in mats),) * 2, dtype=complex)
    gen = np.zeros_like(rho)
    at = 0
    for a, g in zip(mats, gens):
        rho[at:at + len(a), at:at + len(a)] = a
        gen[at:at + len(a), at:at + len(a)] = g
        at += len(a)
    return rho, gen


def mean_oracle(state: BlockDiagonalState, f: np.ndarray) -> float:
    return sum(state.weight(N) * np.trace(state.block(N) @ sq_oracle(f, state.modes, N)).real / N
               for N in state.sectors() if N)


def objective_oracle(state: BlockDiagonalState, h: np.ndarray) -> float:
    """F(rho, H_h) - 4 V(rho, h) from the dense direct sum and the dense tensor."""
    rho, gen = direct_sum(state, h)
    variance = mean_oracle(state, h @ h) - mean_oracle(state, h) ** 2
    return qfi_matrix(rho, gen) - 4.0 * variance


@FEW
@given(st.integers(1, 3), st.integers(0, 3), st.integers(0, 2**32 - 1))
def test_second_quantized_matches_dense_tensor(m, N, seed):
    f = random_matrix(m, np.random.default_rng(seed))
    assert np.max(np.abs(second_quantized(f, m, N) - sq_oracle(f, m, N))) <= TOL


@FEW
@given(st.integers(1, 3), st.integers(0, 3), st.integers(0, 2**32 - 1))
def test_second_quantization_is_a_lie_homomorphism(m, N, seed):
    rng = np.random.default_rng(seed)
    f, g = random_matrix(m, rng), random_matrix(m, rng)
    sf, sg = second_quantized(f, m, N), second_quantized(g, m, N)
    assert np.max(np.abs(second_quantized(f @ g - g @ f, m, N) - (sf @ sg - sg @ sf))) <= TOL
    assert np.max(np.abs(second_quantized(f.conj().T, m, N) - sf.conj().T)) <= TOL


@FEW
@given(st.data())
def test_qfi_matches_direct_sum(data):
    state = data.draw(block_states())
    h = random_observable(state.modes, np.random.default_rng(data.draw(st.integers(0, 2**32 - 1))))
    obs = SingleParticleObservable(h)
    got = qfi(state, obs)
    assert got == pytest.approx(qfi_matrix(*direct_sum(state, h)), abs=TOL)
    # the benchmark's calling convention reaches the same arithmetic
    assert qfi(state, collective_generator(obs, state.modes, state.max_particles)) == got


@FEW
@given(st.data())
def test_single_particle_variance_matches_dense_tensor(data):
    state = data.draw(block_states())
    h = random_observable(state.modes, np.random.default_rng(data.draw(st.integers(0, 2**32 - 1))))
    want = mean_oracle(state, h @ h) - mean_oracle(state, h) ** 2
    assert single_particle_variance(state, SingleParticleObservable(h)) == pytest.approx(
        want, abs=TOL)


@FEW
@given(st.data())
def test_mpef_form_matches_dense_objective(data):
    # the quadratic form is fixed by its values: M_ab is the polarisation
    # of the dense objective over the parameter basis
    state = data.draw(block_states())
    s = data.draw(st.integers(1, state.modes))
    basis = np.eye(s * s)

    def q(x):
        return objective_oracle(state, _pad_observable(_hermitian_from_params(x, s), state.modes))

    diag = [q(e) for e in basis]
    want = np.array([[diag[a] if a == b else (q(basis[a] + basis[b]) - diag[a] - diag[b]) / 2
                      for b in range(s * s)] for a in range(s * s)])
    assert np.max(np.abs(_mpef_form(state, s) - want)) <= TOL


@FEW
@given(st.integers(1, 3), st.integers(1, 3), st.integers(0, 2**32 - 1))
def test_single_particle_rdm_matches_dense_tensor(m, N, seed):
    rng = np.random.default_rng(seed)
    basis = enumerate_basis(m, N, UNCAPPED)
    psi = rng.normal(size=basis.dim) + 1j * rng.normal(size=basis.dim)
    psi /= np.linalg.norm(psi)
    t = dense_transfer_tensor(m, N)
    want = np.einsum("k,jikl,l->ij", psi.conj(), t, psi) / N
    assert np.max(np.abs(single_particle_rdm(PureSectorState(basis, psi)) - want)) <= TOL


def peak_bytes(fn):
    tracemalloc.start()
    try:
        out = fn()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return out, peak


def test_cap_corner_one_body_stays_small():
    # a coherent spin state at (8 modes, 6 particles): its 1716-dimensional
    # sector is never formed as a matrix
    rng = np.random.default_rng(86)
    psi = rng.normal(size=8) + 1j * rng.normal(size=8)
    psi /= np.linalg.norm(psi)
    state = coherent_spin_state(CoherentSpinSpec(psi, 6)).to_block_state()
    obs = SingleParticleObservable(random_observable(8, rng))

    def run():
        return qfi(state, obs), single_particle_variance(state, obs)

    run()  # warm-up: the basis tables and annihilation maps of (8, 5..6)
    (f, v), peak = peak_bytes(run)
    h = obs.h
    var = (psi.conj() @ h @ h @ psi - (psi.conj() @ h @ psi) ** 2).real
    assert v == pytest.approx(var, abs=1e-12)
    assert f == pytest.approx(4.0 * var, abs=1e-12)
    assert peak < 20 * 2**20


def test_cap_corner_mpef_stays_small(capsys):
    state = fock_state((2, 1, 2, 1, 0, 0, 0, 0)).to_block_state()

    def run():
        return m_pe_f(state, search="general_restarts", n_restarts=0)

    run()
    res, peak = peak_bytes(run)
    assert res.lower <= res.upper
    assert peak < 20 * 2**20
    assert main(["mpef", "--state", "fock:2,1,2,1,0,0,0,0"]) == 0
    capsys.readouterr()
