"""The metrological monotone as one quadratic form and a certified bracket.

``m_pe_f`` builds M with F(rho, H_h) - 4 V(rho, h) = x^T M x once per state
and searches it by projected ascent.  These tests pin M against the direct
objective, the bracket lower <= upper, the returned observable, and the
budget monotonicity of the seeded search.  The stacked ascent is pinned bit
for bit against its serial loop in ``helpers``.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import bosonpe.measures as measures
from bosonpe.fock import UNCAPPED, BlockDiagonalState, enumerate_basis
from bosonpe.measures import (
    SingleParticleObservable,
    _hermitian_from_params,
    _mpef_form,
    _pad_observable,
    m_pe_f,
    qfi_minus_variance,
)
from bosonpe.optics import append_vacuum
from bosonpe.states import noon_state, random_particle_separable

from helpers import random_density, serial_mpef_restarts

FEW = settings(max_examples=25, deadline=None)

# the parent's Nelder-Mead value on the benchmark's headline state
HEADLINE_NELDER_MEAD = 3.723564460758649


@st.composite
def block_states(draw, max_modes=3, max_particles=3):
    """Mixtures over random sectors N <= 3 of random blocks of rank <= 3."""
    m = draw(st.integers(1, max_modes))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    sectors = draw(st.sets(st.integers(0, max_particles), min_size=1, max_size=3))
    weights = rng.dirichlet(np.ones(len(sectors)))
    blocks = {}
    for p, N in zip(weights, sorted(sectors)):
        dim = enumerate_basis(m, N, UNCAPPED).dim
        blocks[N] = (p, random_density(dim, rng, draw(st.integers(1, min(3, dim)))))
    return BlockDiagonalState(m, blocks, caps=UNCAPPED)


def objective_at(state, h):
    return qfi_minus_variance(state, SingleParticleObservable(_pad_observable(h, state.modes)))


def opnorm(h):
    return float(np.max(np.abs(np.linalg.eigvalsh(h))))


def headline_state():
    rng = np.random.default_rng(1908)
    dim = enumerate_basis(3, 2).dim
    psi = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    psi /= np.linalg.norm(psi)
    return BlockDiagonalState(3, {2: (1.0, np.outer(psi, psi.conj()))})


@FEW
@given(st.data())
def test_form_equals_objective(data):
    state = data.draw(block_states())
    support = data.draw(st.integers(1, state.modes))
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    x = rng.normal(size=support * support)
    norm = opnorm(_hermitian_from_params(x, support))
    x /= norm
    form = _mpef_form(state, support)
    assert np.allclose(form, form.T, atol=0.0)
    want = objective_at(state, _hermitian_from_params(x, support))
    assert x @ form @ x == pytest.approx(want, abs=1e-12)


@FEW
@given(st.data())
def test_bracket_and_returned_observable(data):
    state = data.draw(block_states())
    support = data.draw(st.integers(1, state.modes))
    res = m_pe_f(state, search="general_restarts", h_support=support,
                 seed=data.draw(st.integers(0, 100)), n_restarts=2)
    assert res.value == res.lower
    assert np.isfinite(res.upper) and res.lower <= res.upper
    assert res.h.shape == (state.modes, state.modes)
    assert opnorm(res.h) == pytest.approx(1.0, abs=1e-12)
    assert np.all(res.h[support:, :] == 0) and np.all(res.h[:, support:] == 0)
    redo = max(objective_at(state, res.h[:support, :support]), 0.0)
    assert redo == pytest.approx(res.value, abs=1e-10)


@FEW
@given(st.data())
def test_two_mode_bracket_closes(data):
    state = data.draw(block_states())
    if state.modes < 2:
        state = append_vacuum(state, 2 - state.modes)
    res = m_pe_f(state, search="two_mode_exact", h_support=2)
    assert 0.0 <= res.upper - res.lower <= 1e-12
    redo = max(objective_at(state, res.h[:2, :2]), 0.0)
    assert redo == pytest.approx(res.value, abs=1e-10)


def test_noon_bracket_closes_under_the_general_search():
    # the Frobenius ball of radius sqrt(2) touches the operator-norm ball at
    # sigma_z, so the certified upper bound is the NOON value itself
    noon = noon_state(2).to_block_state()
    for state in (noon, append_vacuum(noon, 1)):
        res = m_pe_f(state, search="general_restarts", h_support=2, seed=0, n_restarts=2)
        assert res.lower == pytest.approx(4.0, abs=1e-12)
        assert res.upper == pytest.approx(4.0, abs=1e-12)


def test_bigger_budget_never_lowers_the_value():
    states = [headline_state(), append_vacuum(noon_state(2).to_block_state(), 1)]
    states += [random_particle_separable(3, 2, 2, seed) for seed in range(3)]
    for state in states:
        for seed in (0, 1):
            values = [m_pe_f(state, search="general_restarts", seed=seed, n_restarts=r).value
                      for r in (0, 2, 4)]
            assert values == sorted(values)


def test_headline_state_beats_nelder_mead():
    res = m_pe_f(headline_state(), search="general_restarts", seed=0, n_restarts=2)
    assert res.value >= HEADLINE_NELDER_MEAD
    assert res.value <= res.upper
    assert objective_at(headline_state(), res.h) == pytest.approx(res.value, abs=1e-10)


def test_free_states_stay_at_zero():
    for seed in range(10):
        state = random_particle_separable(3, 1 + seed % 3, 3, seed)
        res = m_pe_f(state, search="general_restarts", seed=0, n_restarts=2)
        assert res.value < 1e-12


def assert_same_result(got, want):
    assert got.lower == want.lower and got.upper == want.upper
    assert np.array_equal(got.h, want.h)
    assert got.metadata == want.metadata
    assert (got.search, got.bloch) == (want.search, want.bloch)


@settings(max_examples=15, deadline=None)
@given(st.data())
def test_stacked_ascent_matches_the_serial_loop_bit_for_bit(data):
    state = data.draw(block_states())
    support = data.draw(st.integers(1, state.modes))
    seed = data.draw(st.integers(0, 2**32 - 1))
    n_restarts = data.draw(st.integers(0, 5))
    warm = []
    if data.draw(st.booleans()):
        rng = np.random.default_rng(seed)
        a = rng.normal(size=(state.modes, state.modes, 2)) @ np.array([1.0, 1j])
        warm = [a + a.conj().T]
    got = m_pe_f(state, search="general_restarts", seed=seed, n_restarts=n_restarts,
                 warm_starts=warm, h_support=support)
    want = serial_mpef_restarts(state, seed, n_restarts,
                                [w[:support, :support] for w in warm], support)
    assert_same_result(got, want)


def test_capped_and_stopped_starts_share_the_stack(monkeypatch):
    # within three steps some starts stop and the others hit the cap
    monkeypatch.setattr(measures, "MPEF_ASCENT_MAX_ITER", 3)
    noon = noon_state(2).to_block_state()
    for state in (noon, append_vacuum(noon, 1), headline_state()):
        got = m_pe_f(state, search="general_restarts", seed=0, n_restarts=5)
        starts = got.metadata["restarts"]
        assert 2 * starts < got.metadata["nfev"] < 3 * starts
        assert_same_result(got, serial_mpef_restarts(state, 0, 5, [], state.modes))
