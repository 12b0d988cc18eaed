"""Property tests for the column lift and its group law, factored blocks
and the coherent-spin kernel.

``apply_mode_unitary`` lifts only the columns a block's factor occupies, and
it and ``append_vacuum`` return factored blocks that skip the eigenvalue
check.  These properties pin them against the permanent oracle and against
the full block validation, which user input still goes through; the dense
blocks built from factors must pass that validation unchanged.  The
column-factor kernel every internal state constructor uses is pinned against the
dense X X†, with rank-deficient and near-parallel columns.  The whole
factored activation pipeline (local-number projection, Schmidt spectra,
sector negativities) is pinned against a plain dense reference, and so is
the activation search's batched scoring through the local-filter identity;
each row of that scoring is pinned bit for bit to its single-row score, also
when the rows come after different stacked V_A, and the local-filter weights
to their per-column loop.  The search with its restarts in lockstep is pinned
bit for bit to its earlier serial loop, to the same scored rows at one row
per call, and to a value non-decreasing in the restart budget.
That scoring's closed form for two-row pure sectors is pinned against the
SVD, down to near rank one, and the product sectors it skips are checked to
carry no negativity.  Free states activate to zero negativity through that
scoring and through ``activate``, for any V_A and reflectivities (the first
law of the resource theory), and the local-number layout both use keeps each
sector's rows in product order for any partition.
The vectorised coherent-spin amplitudes, and the mixture states built from them,
are pinned against the per-basis-state formula.  The closed-form witness
optimum is checked against the grid the witness search used to scan and
against random parameters.  The int, float, np.int64 and np.float64 forms of
a valid number give bit-identical splitters, witness parameters and states.
"""

import json
import math
from collections import Counter

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from bosonpe import activation
from bosonpe.activation import (
    ActivationSpec,
    _balanced_sectors,
    _filtered_negativities,
    _local_filter_weights,
    activate,
    m_pe_from_activation,
)
from bosonpe.fock import (
    UNCAPPED,
    BlockDiagonalState,
    ModePartition,
    PureSectorState,
    ValidationError,
    _column_factors,
    _local_number_layout,
    _validate_block,
    enumerate_basis,
    project_local_number,
    state_from_json,
    state_to_json,
    trace_out,
)
from bosonpe.measures import (
    _partial_transpose_negativity,
    _pure_negativity,
    _two_row_negativity,
    schmidt_spectrum,
    sector_negativity,
)
from bosonpe.optics import (
    BeamSplitterArray,
    ModeUnitary,
    beam_splitter_unitary,
    append_vacuum,
    apply_mode_unitary,
    lift_unitary,
)
from bosonpe.states import (
    _css_amplitudes,
    _direction_mixture_state,
    classical_nd_state,
    noon_state,
    random_particle_separable,
)
from bosonpe.witness import (
    AxisMoments,
    SpinMoments,
    WitnessParams,
    _optimal_params,
    separability_ratio_from_moments,
)

from helpers import (
    coherent_spin_amplitudes,
    dense_activation,
    dense_local_sectors,
    dense_negativity,
    dense_schmidt,
    haar_unitary,
    lift_oracle,
    local_filter_weights_oracle,
    random_density,
    serial_m_pe_from_activation,
    splitter_unitary,
)

FEW = settings(max_examples=20, deadline=None)


def balanced_blocks(state, vas):
    """The activation search's stacked balanced outputs of ``state``, one per
    V_A of ``vas``."""
    return _balanced_sectors(append_vacuum(state, state.modes), vas)


def score(blocks, r):
    """The search's scores of the rows of r after the first stacked V_A."""
    return _filtered_negativities(blocks, r, np.zeros(len(r), dtype=int))


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
        assert np.array_equal(_validate_block(mat, dim, N)[0], mat)


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
def test_lift_group_homomorphism(data):
    u = data.draw(mode_unitaries())
    v = ModeUnitary(haar_unitary(u.modes, np.random.default_rng(
        data.draw(st.integers(0, 2**32 - 1)))))
    N = data.draw(st.integers(0, 4))
    lhs = lift_unitary(u @ v, N, caps=UNCAPPED)
    rhs = lift_unitary(u, N, caps=UNCAPPED) @ lift_unitary(v, N, caps=UNCAPPED)
    assert np.max(np.abs(lhs - rhs)) < 1e-9


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


REAL_FORMS = (int, float, np.int64, np.float64)
COUNT_FORMS = (int, np.int64)


@FEW
@given(st.data())
def test_number_forms_give_bit_identical_results(data):
    # each checker hands on float(value) or int(value), whatever the form
    r = data.draw(st.lists(st.integers(0, 1), min_size=1, max_size=4))
    arrays = [BeamSplitterArray(tuple(map(form, r))) for form in REAL_FORMS]
    assert len({repr((a.reflectivities, a.transmissivities)) for a in arrays}) == 1
    assert len({beam_splitter_unitary(a).matrix.tobytes() for a in arrays}) == 1
    g = data.draw(st.tuples(st.integers(-10**6, 10**6), st.integers(-10**6, 10**6)))
    params = {repr(WitnessParams(*map(form, g))) for form in REAL_FORMS}
    assert params == {repr(WitnessParams(float(g[0]), float(g[1])))}

    m, N = data.draw(st.integers(1, 3)), data.draw(st.integers(0, 3))
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    rho = random_density(enumerate_basis(m, N, UNCAPPED).dim, rng)
    # the second block weighs zero and is dropped
    states = [BlockDiagonalState(count(m), {count(N): (real(1), rho), count(N + 1): (real(0), [])})
              for count in COUNT_FORMS for real in REAL_FORMS]
    assert all(type(s.modes) is int and [type(n) for n in s.sectors()] == [int]
               and type(s.weight(N)) is float for s in states)
    texts = {state_to_json(s) for s in states}
    assert len(texts) == 1
    doc = json.loads(texts.pop())
    for p in (1, 1.0):
        doc["blocks"][0]["p"] = p
        assert state_to_json(state_from_json(json.dumps(doc))) == state_to_json(states[0])


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
        assert np.max(np.abs(_css_amplitudes(dirs, n) - oracle)) <= 1e-13

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


@FEW
@given(st.data())
def test_column_factors_match_dense_oracle(data):
    # X = B C with B of rank r: rank-deficient when r < min(d, T); a tiny
    # spread around one repeated column makes the columns near parallel
    d = data.draw(st.integers(1, 12))
    T = data.draw(st.integers(1, 16))
    r = data.draw(st.integers(1, min(d, T)))
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    B = rng.normal(size=(d, r)) + 1j * rng.normal(size=(d, r))
    C = rng.normal(size=(r, T)) + 1j * rng.normal(size=(r, T))
    X = B @ C
    if data.draw(st.booleans()):
        spread = data.draw(st.sampled_from([1e-3, 1e-6, 1e-9]))
        X = X[:, :1] + spread * X
    V, mu = _column_factors(X)
    oracle = X @ X.conj().T
    scale = max(1.0, np.max(np.abs(oracle)))
    assert V.shape == (d, len(mu)) and len(mu) <= r
    assert np.all(mu > 0)
    assert np.max(np.abs((V * mu) @ V.conj().T - oracle)) <= 1e-13 * scale
    assert np.max(np.abs(V.conj().T @ V - np.eye(len(mu)))) <= 1e-12


@st.composite
def low_rank_states(draw, max_modes=3, max_particles=3, min_modes=1):
    """(state, its dense blocks, pure?): a pure vector born factored, the same
    given as a dense matrix, or a dense mixture with blocks of rank <= 3
    (pure when it has one block of rank one)."""
    m = draw(st.integers(min_modes, max_modes))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kind = draw(st.sampled_from(["pure_vector", "pure_matrix", "mixed"]))
    if kind == "mixed":
        sectors = sorted(draw(st.sets(st.integers(0, max_particles), min_size=1, max_size=3)))
        blocks = {}
        for p, N in zip(rng.dirichlet(np.ones(len(sectors))), sectors):
            dim = enumerate_basis(m, N, UNCAPPED).dim
            blocks[N] = (p, random_density(dim, rng, min(draw(st.integers(1, 3)), dim)))
        purity = sum(p**2 * np.vdot(mat, mat).real for p, mat in blocks.values())
        return BlockDiagonalState(m, blocks), blocks, purity >= 1.0 - 1e-10
    basis = enumerate_basis(m, draw(st.integers(0, max_particles)), UNCAPPED)
    amps = rng.normal(size=basis.dim) + 1j * rng.normal(size=basis.dim)
    pure = PureSectorState(basis, amps / np.linalg.norm(amps))
    blocks = {pure.particles: (1.0, pure.density())}
    state = pure.to_block_state() if kind == "pure_vector" else BlockDiagonalState(m, blocks)
    return state, blocks, True


def _padded(spectrum, n):
    return np.concatenate([np.sort(spectrum)[::-1], np.zeros(n - len(spectrum))])


def assert_sectors_match_dense(dec, oracle, pure):
    """Probabilities, and probability-weighted sector matrices, negativities
    and Schmidt spectra, agree with the dense slices to 1e-12."""
    for key in set(dec.keys()) | set(oracle):
        p, sector, da, db = oracle.get(key, (0.0, None, 1, 1))
        assert abs(dec.probability(key) - p) <= 1e-12
        if key not in dec.entries:
            continue
        s = dec.state(key)
        assert s.dims == (da, db)
        assert np.max(np.abs(p * (s.matrix - sector))) <= 1e-12
        assert abs(p * (sector_negativity(s) - dense_negativity(sector, da, db))) <= 1e-12
        if pure:
            want = dense_schmidt(sector, da, db)
            got = _padded(schmidt_spectrum(s), len(want))
            assert np.max(np.abs(p * (got - want))) <= 1e-12


def _entropy_bits(probs):
    probs = probs[probs > 0]
    return -np.sum(probs * np.log2(probs))


@FEW
@given(st.data())
def test_factored_activation_matches_dense_oracle(data):
    state, blocks, pure = data.draw(low_rank_states())
    m = state.modes
    r = data.draw(st.lists(st.floats(0.0, 1.0), min_size=m, max_size=m))
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    va = haar_unitary(m, rng) if data.draw(st.booleans()) else None
    report = activate(ActivationSpec(
        state, pre_rotation=None if va is None else ModeUnitary(va),
        array=BeamSplitterArray(tuple(r))))
    out = dense_activation(blocks, m, splitter_unitary(r, va))
    oracle = dense_local_sectors(out, 2 * m, range(m), range(m, 2 * m))

    assert_sectors_match_dense(report.sectors, oracle, pure)
    want = sum(p * dense_negativity(s, da, db) for p, s, da, db in oracle.values())
    assert abs(report.e_ssr_negativity - want) <= 1e-12
    for key, (p, _) in report.sectors.entries.items():
        _, sector, da, db = oracle[key]
        assert abs(p * (report.sector_negativities[key] - dense_negativity(sector, da, db))) \
            <= 1e-12
    assert (report.schmidt is not None) == pure
    if pure:
        want = sum(p * _entropy_bits(dense_schmidt(s, da, db))
                   for p, s, da, db in oracle.values() if p > 0)
        assert abs(report.e_ssr_entropy - want) <= 1e-12
    for N, (p, mat) in out.items():
        assert abs(report.output.weight(N) - p) <= 1e-12
        assert np.max(np.abs(report.output.block(N) - mat)) <= 1e-12


@FEW
@given(st.data())
def test_filtered_negativities_match_activate_and_dense_oracle(data):
    state, blocks, _ = data.draw(low_rank_states())
    m = state.modes
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    va = ModeUnitary(haar_unitary(m, rng))
    r = np.array(data.draw(st.lists(
        st.lists(st.floats(1e-6, 1.0 - 1e-6), min_size=m, max_size=m),
        min_size=2, max_size=2)))
    got = score(balanced_blocks(state, [va]), r)
    assert got.shape == (len(r),)
    for row, val in zip(r, got):
        report = activate(ActivationSpec(state, va, BeamSplitterArray(tuple(row))))
        assert abs(val - report.e_ssr_negativity) <= 1e-12
        out = dense_activation(blocks, m, splitter_unitary(row, va.matrix))
        oracle = dense_local_sectors(out, 2 * m, range(m), range(m, 2 * m))
        want = sum(p * dense_negativity(s, da, db) for p, s, da, db in oracle.values())
        assert abs(val - want) <= 1e-12


@settings(max_examples=25, deadline=None)
@given(st.data())
def test_scoring_rows_do_not_depend_on_their_stack(data):
    """What the lockstep restarts of the activation search rest on: each row
    of a stack of reflectivity vectors, after either of two stacked V_A,
    scores bit for bit as it does alone after its V_A alone, with rows at
    the clip ends whose sectors drop below BLOCK_DROP_TOL among them, and
    the broadcast local-filter weights equal the per-column loop bit for
    bit."""
    state, _, _ = data.draw(low_rank_states())
    m = state.modes
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    vas = [ModeUnitary(haar_unitary(m, rng)) for _ in range(2)]
    r = np.array(data.draw(st.lists(
        st.lists(st.one_of(st.floats(1e-6, 1.0 - 1e-6), st.sampled_from([1e-6, 1.0 - 1e-6])),
                 min_size=m, max_size=m),
        min_size=1, max_size=6)))
    restart = np.array(data.draw(st.lists(st.integers(0, 1), min_size=len(r), max_size=len(r))))
    got = _filtered_negativities(balanced_blocks(state, vas), r, restart)
    alone = [balanced_blocks(state, [va]) for va in vas]
    for i in range(len(r)):
        assert got[i] == score(alone[restart[i]], r[i:i + 1])[0]
    for N in range(state.max_particles + 1):
        occupations = np.array(enumerate_basis(2 * m, N).states)
        for stack in (r, r[0]):
            assert np.array_equal(_local_filter_weights(occupations, stack),
                                  local_filter_weights_oracle(occupations, stack))


@settings(max_examples=10, deadline=None)
@given(low_rank_states(min_modes=2), st.integers(0, 4), st.integers(0, 2**32 - 1),
       st.sampled_from([0.1, 0.25]))
def test_search_equals_the_serial_search(drawn, restarts, seed, grid_step):
    """The stacked restarts of ``m_pe_from_activation`` reach, bit for bit,
    the value of its earlier loop, one V_A after another."""
    kwargs = dict(n_va_restarts=restarts, seed=seed, grid_step=grid_step)
    assert m_pe_from_activation(drawn[0], **kwargs) == serial_m_pe_from_activation(
        drawn[0], **kwargs)


@settings(max_examples=5, deadline=None)
@given(low_rank_states(min_modes=2), st.integers(0, 2**32 - 1))
def test_search_is_non_decreasing_in_the_restart_budget(drawn, seed):
    values = [m_pe_from_activation(drawn[0], n_va_restarts=n, seed=seed, grid_step=0.25)
              for n in range(5)]
    assert values == sorted(values)


@settings(max_examples=5, deadline=None)
@given(low_rank_states(min_modes=2), st.integers(0, 3), st.integers(0, 2**32 - 1))
def test_search_scores_the_rows_of_the_serial_search(drawn, restarts, seed):
    """At one row per scoring call, the lockstep search scores exactly the
    (V_A, reflectivity vector) rows the serial loop scores, each V_A told
    apart by its stacked factor."""
    scored = []

    def counting(blocks, r, restart):
        assert len(r) == 1
        slab = blocks[0][2][0][1][restart[0]]
        scored.append((slab.tobytes(), r[0].tobytes()))
        return _filtered_negativities(blocks, r, restart)

    kwargs = dict(n_va_restarts=restarts, seed=seed, grid_step=0.25)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(activation, "_chunk_size", lambda blocks: 1)
        mp.setattr(activation, "_filtered_negativities", counting)
        got = m_pe_from_activation(drawn[0], **kwargs)
        lockstep, scored[:] = Counter(scored), []
        want = serial_m_pe_from_activation(drawn[0], **kwargs)
    assert got == want and lockstep == Counter(scored)


@settings(max_examples=60, deadline=None)
@given(st.integers(2, 7), st.integers(1, 8), st.booleans(),
       st.sampled_from([1.0, 1e-9, 1e-12, 0.0]), st.integers(0, 2**32 - 1))
def test_two_row_negativity_matches_svd(n, batch, tall, spread, seed):
    """sigma_1 sigma_2 from the 2 x 2 minors equals ((s_1 + s_2)^2 - 1) / 2
    from the SVD within 2e-15, on unit amplitude matrices of shape 2 x n or
    n x 2 up to ``spread`` away from rank one."""
    rng = np.random.default_rng(seed)

    def gauss(*shape):
        return rng.normal(size=shape) + 1j * rng.normal(size=shape)

    amps = gauss(batch, 2, 1) * gauss(batch, 1, n) + spread * gauss(batch, 2, n)
    amps /= np.linalg.norm(amps, axis=(1, 2))[:, None, None]
    if tall:
        amps = np.swapaxes(amps, 1, 2).copy()
    want = _pure_negativity(np.linalg.svd(amps, compute_uv=False))
    assert np.max(np.abs(_two_row_negativity(amps) - want)) <= 2e-15


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 8), st.booleans(), st.integers(1, 8), st.integers(0, 2**32 - 1))
def test_one_sided_sectors_carry_no_negativity(d, tall, rank, seed):
    """Pure and mixed states on a 1 x d or d x 1 sector, the ones the search
    skips, score at most 1e-15 through the SVD and the partial transpose."""
    rng = np.random.default_rng(seed)
    da, db = (d, 1) if tall else (1, d)
    vec = rng.normal(size=d) + 1j * rng.normal(size=d)
    svals = np.linalg.svd((vec / np.linalg.norm(vec)).reshape(da, db), compute_uv=False)
    assert _pure_negativity(svals) <= 1e-15
    rho = random_density(d, rng, min(rank, d)).reshape(da, db, da, db)
    assert _partial_transpose_negativity(rho) <= 1e-15


def test_balanced_sectors_keep_only_two_sided_sectors():
    # NOON 4 on 2 modes: of the 35 rows of the 4-mode, 4-particle sector, the
    # (1, 3), (2, 2) and (3, 1) sectors keep 8 + 9 + 8; (0, 4) and (4, 0) go
    state = noon_state(4).to_block_state()
    ((p, occupations, sectors),) = balanced_blocks(state, [ModeUnitary(np.eye(2))])
    assert p == 1.0
    assert sorted((d_a, d_b) for _, _, d_a, d_b in sectors) == [(2, 4), (3, 3), (4, 2)]
    assert occupations.shape == (25, 4)
    assert all(occ[:2].sum() not in (0, 4) for occ in occupations)


@st.composite
def free_states(draw):
    """Free states on 2 or 3 modes with at most 4 particles: a mixture of one
    to three coherent spin states at N = 2..4, or a mixture of two
    number-dephased coherent states cut at n_max = 4 (mean number at most
    0.15, so the cut drops under 1e-6 of the Poisson mass)."""
    m = draw(st.integers(2, 3))
    seed = draw(st.integers(0, 2**32 - 1))
    if draw(st.booleans()):
        return random_particle_separable(m, draw(st.integers(2, 4)), draw(st.integers(1, 3)),
                                         seed)
    rng = np.random.default_rng(seed)
    alphas = rng.normal(size=(2, m)) + 1j * rng.normal(size=(2, m))
    scale = np.sqrt(rng.uniform(0.05, 0.15, size=2)) / np.linalg.norm(alphas, axis=1)
    alphas *= scale[:, None]
    w = draw(st.floats(0.1, 0.9))
    return classical_nd_state([(w, alphas[0]), (1.0 - w, alphas[1])], n_max=4)


@settings(max_examples=40, deadline=None)
@given(free_states(), st.integers(0, 2**32 - 1), st.data())
def test_free_states_activate_to_zero(state, seed, data):
    """ROADMAP's first law of the resource theory: free in, SSR-separable
    out, for any V_A and reflectivities, through the search's scoring and
    through ``activate``.  The local filter maps the balanced output onto
    the splitter output, a state, so it also keeps every block's trace."""
    m = state.modes
    va = ModeUnitary(haar_unitary(m, np.random.default_rng(seed)))
    r = np.array(data.draw(st.lists(
        st.lists(st.floats(1e-6, 1.0 - 1e-6), min_size=m, max_size=m),
        min_size=1, max_size=4)))
    assert np.all(score(balanced_blocks(state, [va]), r) <= 1e-9)
    report = activate(ActivationSpec(state, va, BeamSplitterArray(tuple(r[0]))))
    assert report.e_ssr_negativity <= 1e-9
    balanced = apply_mode_unitary(append_vacuum(state, m), ModeUnitary(
        splitter_unitary([1.0 / math.sqrt(2.0)] * m, va.matrix)))
    for N in balanced.sectors():
        V, lam = balanced.factor(N)
        w = _local_filter_weights(np.array(enumerate_basis(2 * m, N).states), r)
        assert np.max(np.abs(w**2 @ (np.abs(V) ** 2 @ lam) - 1.0)) <= 1e-12


@st.composite
def partitions(draw):
    """A mode count m <= 4 and a partition of its modes with each side in
    any order, so sides may be non-contiguous or empty."""
    m = draw(st.integers(1, 4))
    a_modes = draw(st.lists(st.integers(0, m - 1), unique=True))
    b_modes = draw(st.permutations([k for k in range(m) if k not in a_modes]))
    return m, ModePartition(tuple(a_modes), tuple(b_modes))


@settings(max_examples=40, deadline=None)
@given(partitions(), st.integers(0, 4))
@example((3, ModePartition((2, 0), (1,))), 3)
@example((2, ModePartition((), (1, 0))), 2)
def test_local_number_layout_is_in_product_order(mp, N):
    """The row at position i * d_B + j of a sector splits into
    ``basis_a.states[i]`` and ``basis_b.states[j]`` (an empty side reads as
    one vacuum mode), and the sectors' rows cover the basis once."""
    m, partition = mp
    states = enumerate_basis(m, N).states
    layout = _local_number_layout(m, N, partition)
    for (na, nb), (rows, ba, bb) in layout.items():
        assert (ba.particles, bb.particles) == (na, nb)
        assert len(rows) == ba.dim * bb.dim
        for k, row in enumerate(rows):
            a = tuple(states[row][i] for i in partition.a_modes) or (0,)
            b = tuple(states[row][i] for i in partition.b_modes) or (0,)
            assert (a, b) == (ba.states[k // bb.dim], bb.states[k % bb.dim])
    rows = np.concatenate([rows for rows, _, _ in layout.values()])
    assert sorted(rows.tolist()) == list(range(len(states)))


@FEW
@given(st.data())
def test_factored_projection_matches_dense_oracle(data):
    state, blocks, pure = data.draw(low_rank_states())
    m = state.modes
    a_modes = sorted(data.draw(st.sets(st.integers(0, m - 1))))
    b_modes = [k for k in range(m) if k not in a_modes]
    dec = project_local_number(state, ModePartition(tuple(a_modes), tuple(b_modes)))
    assert_sectors_match_dense(dec, dense_local_sectors(blocks, m, a_modes, b_modes), pure)


@st.composite
def spin_moments(draw):
    """Valid moments (each axis's 2 x 2 covariance positive definite), with
    a zero covariance and zero <Sx> drawn often; every scale lies in
    [1e-2, 1e2].  No finite parameters attain
    the infimum when region A has zero variance on z or y, when both axes are
    uncorrelated, or when <Sx_B> = 0 and one axis is uncorrelated: the ratio
    then falls towards a limit at infinite gain.  Those moments are left out."""
    def mean():
        return draw(st.sampled_from([0.0, 1.0]) | st.floats(1e-2, 1e2)) \
            * draw(st.sampled_from([-1.0, 1.0]))

    sx = AxisMoments(mean(), mean(), 0.0, 0.0, 0.0, 100)
    uncorrelated = draw(st.sampled_from(["y", "z", None])) if sx.mean_b != 0.0 else None

    def axis(name):
        var_a = draw(st.floats(1e-2, 1e2))
        var_b = draw(st.floats(1e-2, 1e2))
        rho = draw(st.floats(0.01, 0.99)) * draw(st.sampled_from([-1.0, 1.0]))
        if name == uncorrelated:
            rho = 0.0
        return AxisMoments(0.0, 0.0, var_a, var_b, rho * math.sqrt(var_a * var_b), 100)

    return SpinMoments({"x": sx, "y": axis("y"), "z": axis("z")})


def _grid_ratios(m, gs):
    """Separability ratio on the grid gs x gs, vectorised."""
    z, y, x = m.axis("z"), m.axis("y"), m.axis("x")
    gz, gy = gs[:, None], gs[None, :]
    num = 4.0 * (gz * gz * z.var_a + 2.0 * gz * z.cov_ab + z.var_b) \
        * (gy * gy * y.var_a + 2.0 * gy * y.cov_ab + y.var_b)
    den = (np.abs(gz * gy) * abs(x.mean_a) + abs(x.mean_b)) ** 2
    with np.errstate(divide="ignore"):
        return np.where(den > 0, num / den, np.inf)


@settings(max_examples=60, deadline=None)
@given(spin_moments(),
       st.lists(st.tuples(st.floats(-50, 50), st.floats(-50, 50)), max_size=10))
def test_witness_optimum_beats_grid_and_random_points(m, points):
    params = _optimal_params(m)
    best = separability_ratio_from_moments(m, params)
    grid_min = float(_grid_ratios(m, np.arange(-5.0, 5.05, 0.1)).min())
    if not math.isfinite(grid_min):  # <Sx_A> = <Sx_B> = 0: nothing claimable
        assert params == WitnessParams(0.0, 0.0) and best == math.inf
        return
    assert best <= grid_min * (1.0 + 1e-12)
    for gz, gy in points:
        assert best <= separability_ratio_from_moments(m, WitnessParams(gz, gy)) \
            * (1.0 + 1e-12)


def test_witness_optimum_on_an_axis_when_region_a_is_silent():
    # <Sx_A> = 0 and no z variance in region A: g_z drops out of the ratio,
    # the roots and the g_z axis are undefined, and the g_y axis minimum,
    # g_y = -cov_y / var_a(y), is the optimum
    m = SpinMoments({"x": AxisMoments(0.0, 2.0, 0.0, 0.0, 0.0, 100),
                     "y": AxisMoments(0.0, 0.0, 1.0, 1.0, 0.5, 100),
                     "z": AxisMoments(0.0, 0.0, 0.0, 1.0, 0.0, 100)})
    assert _optimal_params(m) == WitnessParams(0.0, -0.5)
    assert separability_ratio_from_moments(m, WitnessParams(0.0, -0.5)) == 0.75
