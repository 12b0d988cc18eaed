"""Every internal state constructor is born factored.

The constructors pinned here (mixtures, tensor products, local dephasing,
partial traces, destructive measurements and the coherent-spin mixtures)
form their blocks' factors directly, through ``fock._column_factors`` where
columns are merged, and never pass the entry validation of
``BlockDiagonalState(...)``.  Each is held blockwise to its earlier dense
body (``tests/helpers.py``) within 1e-13.  A factored block larger than the
desk block size stays factored: asking for it densely raises
DeskScaleError, which a subprocess under a 2 GB address-space limit checks
on an 8-mode classical state whose largest block has dimension 19448.
"""

import math
import os
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

import bosonpe
from bosonpe import fock
from bosonpe.fock import (
    DESK,
    UNCAPPED,
    BlockDiagonalState,
    ModePartition,
    dephase_local,
    enumerate_basis,
    fock_state,
    mix_states,
    tensor_compose,
    trace_out,
)
from bosonpe.nonclassical import ExchangeableSeparableSpec, exchangeable_state
from bosonpe.optics import measure_destructive, random_ssr_povm
from bosonpe.states import (
    CoherentSpinSpec,
    SeparableMixtureSpec,
    _direction_mixture_state,
    classical_nd_state,
    noon_state,
    particle_separable_mixture,
    random_free_state,
)

from helpers import (
    css_mixture_oracle,
    dephase_local_oracle,
    measure_destructive_oracle,
    mix_states_oracle,
    random_density,
    tensor_compose_oracle,
)

TOL = 1e-13


def dense_blocks(state) -> dict:
    return {N: (state.weight(N), state.block(N)) for N in state.sectors()}


def assert_matches(state, oracle: dict):
    assert state.sectors() == sorted(oracle)
    for N, (p, mat) in oracle.items():
        assert np.max(np.abs(state.weight(N) * state.block(N) - p * mat)) <= TOL


def user_state(m: int, sectors, rng, rank=None) -> BlockDiagonalState:
    """A validated dense state with random blocks of the given rank (full
    rank when None) on the given sectors."""
    blocks = {}
    for p, N in zip(rng.dirichlet(np.ones(len(sectors))), sectors):
        dim = enumerate_basis(m, N, UNCAPPED).dim
        blocks[N] = (p, random_density(dim, rng, None if rank is None else min(rank, dim)))
    return BlockDiagonalState(m, blocks, caps=UNCAPPED)


def states_on(m: int, seed: int) -> list:
    """Pure, low-rank, full-rank and free states on m modes."""
    rng = np.random.default_rng(seed)
    return [
        fock_state((1,) + (0,) * (m - 1)).to_block_state(),
        user_state(m, [0, 2], rng, rank=1),
        user_state(m, [1, 2, 3], rng),
        user_state(m, [2], rng, rank=2),
        random_free_state(m, 3, seed),
    ]


@pytest.mark.parametrize("seed", range(3))
def test_mix_states_matches_dense_oracle(seed):
    states = states_on(3, seed)
    rng = np.random.default_rng(seed)
    for k in (1, 2, len(states)):
        # k = len(states) stacks more columns than a 3-mode, N = 1 block has rows
        parts = [states[i] for i in rng.choice(len(states), size=k, replace=False)]
        weights = rng.dirichlet(np.ones(k))
        got = mix_states(list(zip(weights, parts)))
        assert_matches(got, mix_states_oracle(
            [(w, dense_blocks(s)) for w, s in zip(weights, parts)]))


@pytest.mark.parametrize("seed", range(3))
def test_tensor_compose_matches_dense_oracle(seed):
    left, right = states_on(2, seed), states_on(1, seed + 10)
    for s1 in left[1:4]:
        for s2 in (right[0], right[2], noon_state(2).to_block_state()):
            got = tensor_compose(s1, s2, caps=UNCAPPED)
            assert_matches(got, tensor_compose_oracle(
                s1.modes, dense_blocks(s1), s2.modes, dense_blocks(s2)))


PARTITIONS = [((0,), (1, 2)), ((1,), (0, 2)), ((0, 2), (1,)), ((0, 1, 2), ())]


@pytest.mark.parametrize("seed", range(3))
def test_trace_out_and_dephase_local_match_dense_oracles(seed):
    for state in states_on(3, seed):
        blocks = dense_blocks(state)
        for a, b in PARTITIONS:
            part = ModePartition(a, b)
            reduced = measure_destructive_oracle(3, blocks, a, b, None)
            assert_matches(trace_out(state, part), reduced[0][1])
            assert_matches(dephase_local(state, part), dephase_local_oracle(3, blocks, a, b))


@pytest.mark.parametrize("seed", range(3))
def test_measure_destructive_matches_dense_oracle(seed):
    for state in states_on(3, seed):
        blocks = dense_blocks(state)
        for a, b in PARTITIONS[:3] + [((), (0, 1, 2))]:
            # coarse-grained, so that the elements are not projectors
            e0, e1, e2 = random_ssr_povm(len(b), state.max_particles, 3, seed)
            povm = [0.3 * e0 + 0.6 * e1, 0.7 * e0 + 0.4 * e1, e2]
            got = measure_destructive(state, ModePartition(a, b), povm)
            want = measure_destructive_oracle(3, blocks, a, b, povm)
            assert sorted(got) == sorted(want)
            for k, (prob, post) in got.items():
                assert abs(prob - want[k][0]) <= TOL
                assert_matches(post, want[k][1])


@pytest.mark.parametrize("seed", range(4))
def test_direction_mixture_state_matches_dense_oracle(seed):
    rng = np.random.default_rng(seed)
    m, t, n_hi = 3, 4, 6
    dirs = rng.normal(size=(t, m)) + 1j * rng.normal(size=(t, m))
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    directions = list(dirs) + [dirs[0], None]  # a repeated direction, and the vacuum
    weights = rng.uniform(size=(t + 2, n_hi + 1))
    weights[t + 1, 1:] = 0.0
    weights[rng.uniform(size=weights.shape) < 0.3] = 1e-17
    got = _direction_mixture_state(directions, weights, m, UNCAPPED)
    assert_matches(got, css_mixture_oracle(directions, weights, m))


def _one_number_rows(weights, n: int) -> np.ndarray:
    rows = np.zeros((len(weights), n + 1))
    rows[:, n] = weights
    return rows


@pytest.mark.parametrize("m, n, t", [(2, 2, 5), (3, 2, 2), (3, 3, 6), (4, 2, 10)])
def test_particle_separable_mixture_matches_dense_oracle(m, n, t):
    # t >= dim takes the dense branch, t < dim the column kernel
    rng = np.random.default_rng(100 * m + 10 * n + t)
    weights = rng.dirichlet(np.ones(t))
    psis = [rng.normal(size=m) + 1j * rng.normal(size=m) for _ in range(t)]
    psis = [psi / np.linalg.norm(psi) for psi in psis]
    spec = SeparableMixtureSpec(tuple((w, CoherentSpinSpec(psi, n))
                                      for w, psi in zip(weights, psis)))
    got = particle_separable_mixture(spec, caps=UNCAPPED)
    assert_matches(got, css_mixture_oracle(psis, _one_number_rows(weights, n), m))


@pytest.mark.parametrize("n, m", [(2, 3), (4, 3), (3, 4)])
def test_exchangeable_state_matches_dense_oracle(n, m):
    c = np.arange(1.0, m + 1) + 0.5j
    spec = ExchangeableSeparableSpec(n, m, ((0.4, c / np.linalg.norm(c)),
                                            (0.6, np.ones(m) / math.sqrt(m))))
    got = exchangeable_state(spec)
    weights, vectors = zip(*spec.symmetrized_terms())
    assert_matches(got, css_mixture_oracle(vectors, _one_number_rows(weights, n), m))


def test_internal_states_never_run_entry_validation(monkeypatch):
    pair = random_free_state(2, 2, seed=5)
    calls = []
    validate = fock._validate_block
    monkeypatch.setattr(fock, "_validate_block",
                        lambda *args: calls.append(args) or validate(*args))
    random_free_state(3, 4, seed=6)
    classical_nd_state([0.6, 0.3j, 0.2])
    joint = tensor_compose(pair, pair)
    part = ModePartition((0, 1), (2, 3))
    trace_out(joint, part)
    measure_destructive(joint, part, random_ssr_povm(2, joint.max_particles, 3, seed=7))
    assert calls == []
    BlockDiagonalState(1, {0: (1.0, np.eye(1))})  # the entry point still validates
    assert len(calls) == 1


def test_classical_state_builds_only_sectors_with_weight():
    # columns beyond the Poisson support are never enumerated: a far cutoff
    # costs no basis, and a column of zero weight above the caps is no error
    tracemalloc.start()
    try:
        state = classical_nd_state([0.3, 0.3, 0.3], n_max=150)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 << 20
    assert state.sectors() == list(range(12))
    capped = classical_nd_state([0.1, 0.1], n_max=10, caps=DESK)
    assert capped.sectors() == list(range(DESK.max_particles + 1))
    assert capped.allclose(classical_nd_state([0.1, 0.1], n_max=DESK.max_particles), tol=1e-15)


# An 8-mode classical state with |alpha|^2 = 1.44 takes the Poisson cutoff
# n_max = 10, so its largest block has dimension C(17, 10) = 19448 (6 GB as a
# dense complex matrix).  Each block has rank one.
DENSE_GATE_SCRIPT = """
import resource
resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30))
import numpy as np
from bosonpe.cli import main
from bosonpe.fock import DeskScaleError
from bosonpe.states import classical_nd_state
state = classical_nd_state(np.full(8, 0.4242640687))
print(state.sectors()[-1], *state.factor(10)[0].shape)
print(0.0 < state.purity() < 1.0)
try:
    state.block(10)
except DeskScaleError:
    print("refused")
print(main(["activate", "--state", "classical:" + ",".join(["0.4242640687"] * 8)]))
"""


def _run_under_address_limit(script: str) -> list:
    """Run ``script``, which sets its own address-space limit first, in a
    child interpreter on this checkout; the words it prints."""
    src = os.path.dirname(os.path.dirname(bosonpe.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path, OPENBLAS_NUM_THREADS="1")
    proc = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.split()


def test_large_factored_blocks_are_never_made_dense():
    assert _run_under_address_limit(DENSE_GATE_SCRIPT) == \
        ["10", "19448", "1", "True", "refused", "2"]


# Each dense constructor at (8 modes, 10 particles), with caps raised to admit
# the sector, would ask for one 19448 x 19448 complex matrix (5.6 GiB); at
# (8, 6), the cap corner, the matrix is 1716 x 1716 and is built.
DENSE_MATRICES_SCRIPT = """
import resource
resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30))
import numpy as np
from bosonpe.fock import DeskCaps, DeskScaleError
from bosonpe.measures import second_quantized
from bosonpe.optics import ModeUnitary, lift_unitary
from bosonpe.states import css_density
caps = DeskCaps(max_particles=10, max_modes=8)
rng = np.random.default_rng(3)
u = ModeUnitary(np.linalg.qr(rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8)))[0])
for call in (lambda: second_quantized(np.eye(8), 8, 10),
             lambda: lift_unitary(u, 10, caps=caps),
             lambda: css_density(np.ones(8), 10, caps=caps)):
    try:
        call()
    except DeskScaleError:
        print("refused")
print(*second_quantized(np.eye(8), 8, 6).shape, *css_density(np.ones(8), 6).shape)
"""


def test_dense_matrices_above_the_desk_size_are_refused():
    assert _run_under_address_limit(DENSE_MATRICES_SCRIPT) == \
        ["refused"] * 3 + ["1716"] * 4
