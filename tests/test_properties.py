"""Property tests for the column lift, the unchecked internal constructor
and the coherent-spin kernel.

``apply_mode_unitary`` lifts only the columns a block occupies, and it and
``append_vacuum`` build their results without the eigenvalue check.  These
properties pin both against the permanent oracle and against the full block
validation, which user input still goes through.  The vectorised
coherent-spin amplitudes, and the mixture states built from them, are pinned
against the per-basis-state formula.
"""

import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from bosonpe.fock import (
    UNCAPPED,
    BlockDiagonalState,
    ModePartition,
    ValidationError,
    _validate_block,
    enumerate_basis,
    state_from_json,
    trace_out,
)
from bosonpe.optics import ModeUnitary, append_vacuum, apply_mode_unitary, lift_unitary
from bosonpe.states import _css_amplitudes, _direction_mixture_state

from helpers import coherent_spin_amplitudes, haar_unitary, lift_oracle, random_density

FEW = settings(max_examples=20, deadline=None)


@st.composite
def mode_unitaries(draw, max_modes=4):
    m = draw(st.integers(1, max_modes))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    return ModeUnitary(haar_unitary(m, rng))


@st.composite
def padded_states(draw, modes, max_particles=3):
    """Valid states whose blocks are random densities on random index subsets,
    zero elsewhere; one block may be dense."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    sectors = draw(st.sets(st.integers(0, max_particles), min_size=1, max_size=3))
    weights = rng.dirichlet(np.ones(len(sectors)))
    blocks = {}
    for p, N in zip(weights, sorted(sectors)):
        dim = enumerate_basis(modes, N, UNCAPPED).dim
        support = sorted(draw(st.sets(st.integers(0, dim - 1), min_size=1)))
        rank = draw(st.integers(1, len(support)))
        mat = np.zeros((dim, dim), dtype=complex)
        mat[np.ix_(support, support)] = random_density(len(support), rng, rank)
        blocks[N] = (p, mat)
    return BlockDiagonalState(modes, blocks, caps=UNCAPPED)


def assert_blocks_pass_validation(state):
    for N, (_, mat) in state.blocks.items():
        dim = enumerate_basis(state.modes, N, UNCAPPED).dim
        assert np.array_equal(_validate_block(mat, dim, N), mat)


@FEW
@given(st.data())
def test_column_lift_matches_full_lift_and_oracle(data):
    u = data.draw(mode_unitaries())
    N = data.draw(st.integers(0, 3))
    dim = enumerate_basis(u.modes, N, UNCAPPED).dim
    columns = data.draw(st.lists(st.integers(0, dim - 1), min_size=1, max_size=dim))
    part = lift_unitary(u, N, caps=UNCAPPED, columns=columns)
    assert np.array_equal(part, lift_unitary(u, N, caps=UNCAPPED)[:, columns])
    assert np.allclose(part, lift_oracle(u.matrix, u.modes, N)[:, columns], atol=1e-12)


@FEW
@given(st.data())
def test_apply_mode_unitary_on_padded_states_matches_dense_oracle(data):
    u = data.draw(mode_unitaries())
    state = data.draw(padded_states(u.modes))
    out = apply_mode_unitary(state, u)
    assert out.sectors() == state.sectors()
    for N, (p, mat) in state.blocks.items():
        L = lift_oracle(u.matrix, u.modes, N)
        assert out.weight(N) == p
        assert np.max(np.abs(out.block(N) - L @ mat @ L.conj().T)) <= 1e-12
    assert_blocks_pass_validation(out)


@FEW
@given(st.data())
def test_append_vacuum_blocks_pass_validation(data):
    m = data.draw(st.integers(1, 3))
    k = data.draw(st.integers(1, 2))
    state = data.draw(padded_states(m))
    out = append_vacuum(state, k)
    assert out.modes == m + k
    assert_blocks_pass_validation(out)
    back = trace_out(out, ModePartition(tuple(range(m)), tuple(range(m, m + k))))
    assert back.allclose(state, tol=1e-14)


def _block_json(modes, N, mat):
    return json.dumps({"modes": modes, "blocks": [{
        "N": N, "p": 1.0,
        "matrix": [[[float(x.real), float(x.imag)] for x in row] for row in mat],
    }]})


@FEW
@given(st.data())
def test_invalid_user_blocks_still_rejected(data):
    m = data.draw(st.integers(2, 3))
    N = data.draw(st.integers(1, 3))
    dim = enumerate_basis(m, N, UNCAPPED).dim
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    rho = random_density(dim, rng)
    eps = data.draw(st.floats(1e-8, 1e-2))
    defect = data.draw(st.sampled_from(["not_psd", "not_hermitian", "wrong_trace"]))
    if defect == "not_psd":
        evals, evecs = np.linalg.eigh(rho)
        evals[-1] += evals[0] + eps
        evals[0] = -eps
        bad = (evecs * evals) @ evecs.conj().T
    elif defect == "not_hermitian":
        bad = rho.copy()
        bad[0, 1] += eps
    else:
        bad = rho * (1.0 + eps)
    with pytest.raises(ValidationError):
        BlockDiagonalState(m, {N: (1.0, bad)})
    with pytest.raises(ValidationError):
        state_from_json(_block_json(m, N, bad))


@FEW
@given(st.data())
def test_css_kernel_and_mixture_blocks_match_oracle(data):
    m = data.draw(st.integers(1, 4))
    n_hi = data.draw(st.integers(0, 5))
    t = data.draw(st.integers(1, 4))
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    dirs = rng.normal(size=(t, m)) + 1j * rng.normal(size=(t, m))
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    for n in range(n_hi + 1):
        oracle = np.array([coherent_spin_amplitudes(d, n) for d in dirs])
        assert np.max(np.abs(_css_amplitudes(dirs, n, UNCAPPED) - oracle)) <= 1e-13

    # one term with nothing on the modes, and entries the builder skips
    directions = list(dirs) + [None]
    weights = rng.uniform(size=(t + 1, n_hi + 1))
    weights[t, 1:] = 0.0
    weights[rng.uniform(size=weights.shape) < 0.3] = 1e-17
    weights[0, 0] = 1.0
    state = _direction_mixture_state(directions, weights, m, UNCAPPED)
    acc = {}
    for d, row in zip(directions, weights):
        for n, w in enumerate(row):
            if w < 1e-16:
                continue
            amps = np.ones(1) if d is None else coherent_spin_amplitudes(d, n)
            acc[n] = acc.get(n, 0) + w * np.outer(amps, amps.conj())
    total = sum(np.trace(b).real for b in acc.values())
    assert state.sectors() == sorted(acc)
    for n, block in acc.items():
        assert np.max(np.abs(state.weight(n) * state.block(n) - block / total)) <= 1e-12
