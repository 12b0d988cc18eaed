import math
import time
from collections import Counter
from itertools import permutations, product

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import stats

from bosonpe.fock import (
    BlockDiagonalState,
    DeskCaps,
    DeskScaleError,
    ModePartition,
    ValidationError,
    trace_out,
    vacuum_state,
)
from bosonpe.fock import fock_state
from bosonpe.measures import block_trace_distance
from bosonpe.nonclassical import (
    ExchangeableSeparableSpec,
    binomial_poisson_distance,
    definetti_classical_approx,
    exchangeable_state,
    many_copy_nc_bound_check,
    two_copy_pe_check,
)
from bosonpe.states import (
    classical_nd_state,
    css_density,
    default_poisson_truncation,
    is_particle_separable_two_qubit,
)

FEW = settings(max_examples=15, deadline=None)


def scipy_tv_distance(N, p, hi=400):
    k = np.arange(hi + 1)
    b = stats.binom.pmf(k, N, p)
    q = stats.poisson.pmf(k, N * p)
    return 0.5 * np.sum(np.abs(b - q)) + 0.5 * stats.poisson.sf(hi, N * p)


def test_binpois_zero_p():
    res = binomial_poisson_distance(50, 0.0)
    assert res.distance == 0.0
    assert res.satisfied


def test_binpois_examples_vs_scipy():
    for N, p in ((20, 0.1), (100, 0.05), (7, 0.5), (1, 0.3)):
        res = binomial_poisson_distance(N, p)
        assert res.distance == pytest.approx(scipy_tv_distance(N, p), abs=1e-12)
        assert res.distance <= p + 1e-12


def test_binpois_bound_on_grid():
    for N in np.linspace(1, 100, 20, dtype=int):
        for p in np.linspace(0.005, 0.5, 20):
            res = binomial_poisson_distance(int(N), float(p))
            assert res.satisfied


def test_binpois_large_n_stability():
    res = binomial_poisson_distance(10000, 0.003)
    assert math.isfinite(res.distance)
    assert res.distance <= 0.003 + 1e-12


def test_exchangeable_spec_validation():
    with pytest.raises(ValidationError):
        ExchangeableSeparableSpec(2, 2, ((1.0, np.array([1.0, 1.0])),))  # not unit
    with pytest.raises(ValidationError):
        ExchangeableSeparableSpec(2, 2, ((0.7, np.array([1.0, 0.0])),))  # weights
    with pytest.raises(ValidationError):  # the classical-mixture tolerance, 1e-12
        ExchangeableSeparableSpec(2, 2, ((0.5 + 5e-11, np.array([1.0, 0.0])),
                                         (0.5, np.array([0.0, 1.0]))))


def test_symmetrized_terms_merge_equal_permutations():
    # oracle: all m! permutations, with equal vectors summed
    c = np.array([0.5, 0.5, 0.5j, math.sqrt(0.25)])
    c = c / np.linalg.norm(c)
    spec = ExchangeableSeparableSpec(2, 4, ((0.3, c), (0.7, np.ones(4) / 2.0)))
    want = Counter()
    for w, vec in spec.terms:
        for perm in permutations(range(4)):
            want[vec[list(perm)].tobytes()] += w / 24
    got = spec.symmetrized_terms()
    assert len(got) == len(want) == 4 + 1
    for w, vec in got:
        assert w == pytest.approx(want[vec.tobytes()], abs=1e-15)


def test_symmetrized_terms_desk_cap():
    generic = np.arange(1.0, 10.0) / np.linalg.norm(np.arange(1.0, 10.0))
    with pytest.raises(DeskScaleError):
        ExchangeableSeparableSpec(2, 9, ((1.0, generic),)).symmetrized_terms()
    uniform = ExchangeableSeparableSpec(2, 12, ((1.0, np.ones(12) / math.sqrt(12)),))
    assert len(uniform.symmetrized_terms()) == 1


def test_definetti_reduction_matches_partial_trace():
    # oracle: literally build the m-mode state and trace out the rest
    spec = ExchangeableSeparableSpec(3, 3, ((1.0, np.ones(3) / math.sqrt(3)),))
    full = exchangeable_state(spec)
    reduced = trace_out(full, ModePartition((0, 1), (2,)))
    res = definetti_classical_approx(spec, 2)
    assert res.rho_reduced.allclose(reduced, tol=1e-10)


def test_definetti_uniform_example():
    spec = ExchangeableSeparableSpec(4, 4, ((1.0, np.ones(4) / 2.0),))
    res = definetti_classical_approx(spec, 1)
    assert res.bound == pytest.approx(0.25)
    assert res.satisfied
    # single mode, diagonal in number: distance equals the classical TV
    oracle = scipy_tv_distance(4, 0.25)
    assert res.distance == pytest.approx(oracle, abs=1e-5)


def test_definetti_all_l_small_grid():
    for m in (2, 3, 4):
        for n in (1, 2, 3, 4):
            spec = ExchangeableSeparableSpec(n, m, ((1.0, np.ones(m) / math.sqrt(m)),))
            for l in range(1, m + 1):
                res = definetti_classical_approx(spec, l)
                assert res.distance - res.truncation_mass <= l / m + 1e-9


def test_definetti_mixture_of_directions():
    c1 = np.array([0.8, 0.6, 0.0])
    c2 = np.array([1.0, 1.0, 1.0]) / math.sqrt(3)
    spec = ExchangeableSeparableSpec(3, 3, ((0.4, c1), (0.6, c2)))
    for l in (1, 2, 3):
        res = definetti_classical_approx(spec, l)
        assert res.satisfied


def test_definetti_sigma_is_classical_structured():
    from bosonpe.fock import PureSectorState, enumerate_basis, single_particle_rdm
    spec = ExchangeableSeparableSpec(3, 3, ((1.0, np.ones(3) / math.sqrt(3)),))
    res = definetti_classical_approx(spec, 2)
    sigma = res.sigma_classical
    for n in sigma.sectors():
        if n == 0:
            continue
        mat = sigma.block(n)
        evals, evecs = np.linalg.eigh(mat)
        assert evals[-1] == pytest.approx(1.0, abs=1e-10)  # rank one
        s = PureSectorState(enumerate_basis(2, n, DeskCaps(max_particles=20)),
                            evecs[:, -1])
        rdm = single_particle_rdm(s)
        assert np.trace(rdm @ rdm).real == pytest.approx(1.0, abs=1e-9)


@st.composite
def exchangeable_specs(draw):
    m = draw(st.integers(1, 4))
    n = draw(st.integers(1, 4))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    k = draw(st.integers(1, 3))
    vecs = rng.normal(size=(k, m)) + 1j * rng.normal(size=(k, m))
    vecs[:, rng.random(m) < 0.3] = 0.0  # some empty modes, so some directions vanish
    vecs[np.all(vecs == 0, axis=1), 0] = 1.0
    weights = rng.dirichlet(np.ones(k))
    return ExchangeableSeparableSpec(
        n, m, tuple((w, v / np.linalg.norm(v)) for w, v in zip(weights, vecs)))


@FEW
@given(exchangeable_specs())
def test_definetti_distance_matches_dense_states(spec):
    # n_max = N + 2 keeps the dense oracle small; every block goes through
    # the same kernel whatever the cutoff
    for l in range(1, spec.m + 1):
        res = definetti_classical_approx(spec, l, n_max=spec.N + 2)
        dense = block_trace_distance(res.rho_reduced, res.sigma_classical)
        assert res.distance == pytest.approx(dense, abs=1e-12)


def dense_many_copy_sigma(terms, k, n_max):
    """The many-copy classical approximation, assembled block by block from
    coherent-spin densities with scipy's Poisson pmf."""
    mus = [float(np.vdot(a, a).real) for _, a in terms]
    joint_cap = max(default_poisson_truncation(k * max(mus)), n_max)
    acc = {}
    for combo in product(range(len(terms)), repeat=k):
        w = math.prod(terms[j][0] for j in combo)
        big_m, mu1 = sum(mus[j] for j in combo), mus[combo[0]]
        for n in range(n_max + 1):
            if big_m == 0:
                q = float(n == 0)
            else:
                q = sum(stats.poisson.pmf(L, big_m) * stats.poisson.pmf(n, L * mu1 / big_m)
                        for L in range(joint_cap + 1))
            if w * q < 1e-16:
                continue
            a1 = terms[combo[0]][1]
            blk = css_density(a1, n, DeskCaps(n_max, 8)) if n else np.ones((1, 1))
            acc[n] = acc.get(n, 0) + w * q * blk
    total = sum(np.trace(b).real for b in acc.values())
    return BlockDiagonalState(terms[0][1].size,
                              {n: (np.trace(b).real / total, b / np.trace(b).real)
                               for n, b in acc.items()},
                              caps=DeskCaps(n_max, 8))


@st.composite
def classical_mixtures(draw):
    m = draw(st.integers(1, 3))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    j = draw(st.integers(1, 3))
    vecs = rng.normal(size=(j, m)) + 1j * rng.normal(size=(j, m))
    vecs *= rng.uniform(0.2, 1.0, size=(j, 1)) / np.linalg.norm(vecs, axis=1, keepdims=True)
    return list(zip(rng.dirichlet(np.ones(j)).tolist(), vecs))


@FEW
@given(classical_mixtures(), st.integers(1, 3))
def test_many_copy_construction_matches_dense_states(terms, k):
    report = many_copy_nc_bound_check(terms, k)
    mus = [float(np.vdot(a, a).real) for _, a in terms]
    n_max = max(default_poisson_truncation(mu) for mu in mus)
    dense = block_trace_distance(classical_nd_state(terms, n_max),
                                 dense_many_copy_sigma(terms, k, n_max))
    assert report.construction_distance == pytest.approx(dense, abs=1e-12)


def test_definetti_eight_modes_feasible():
    # the dense l = 8 block at n = 16 would be C(23, 7) = 245157 wide
    m = 8
    spec = ExchangeableSeparableSpec(4, m, ((0.5, np.eye(m)[0].astype(complex)),
                                            (0.5, np.ones(m) / math.sqrt(m))))
    assert len(spec.symmetrized_terms()) == 9
    t0 = time.perf_counter()
    results = [definetti_classical_approx(spec, l) for l in (8, 4)]
    assert time.perf_counter() - t0 < 1.0
    assert all(res.satisfied for res in results)


def test_definetti_rejects_bad_l():
    spec = ExchangeableSeparableSpec(2, 2, ((1.0, np.ones(2) / math.sqrt(2)),))
    with pytest.raises(ValidationError):
        definetti_classical_approx(spec, 3)


def test_two_copy_vacuum():
    report = two_copy_pe_check(vacuum_state(1))
    assert report.verdict == "separable"
    assert report.e_ssr < 1e-12


def test_two_copy_single_particle_unlocks():
    report = two_copy_pe_check(fock_state((1,)).to_block_state())
    assert report.verdict == "entangled"
    assert report.e_ssr > 1e-6
    # the unlocked correlations sit in the N_A = N_B = 1 block
    key = (1, 1)
    assert report.activation.sectors.probability(key) == pytest.approx(0.5)


def test_two_copy_number_bounded_instance():
    # |1> x |1> = |1,1> on two modes fails the exact separability test
    joint = two_copy_pe_check(fock_state((1,)).to_block_state()).joint
    assert joint.modes == 2 and joint.sectors() == [2]
    assert not is_particle_separable_two_qubit(joint.block(2))


def test_two_copy_classical_stays_free():
    # truncation distorts only the joint blocks beyond the per-copy cutoff,
    # so the residual accessible entanglement is bounded by their weight
    n_max = 5
    state = classical_nd_state(np.array([0.55]), n_max=n_max)
    report = two_copy_pe_check(state)
    tail_weight = sum(p for n, (p, _) in report.joint.blocks.items() if n > n_max)
    assert report.e_ssr <= max(tail_weight, 1e-12)
    assert report.verdict == "undecidable"


def test_tensor_products_of_classical_stay_classical_structured():
    from bosonpe.fock import PureSectorState, enumerate_basis, single_particle_rdm, tensor_compose
    a = classical_nd_state(np.array([0.5]), n_max=5)
    b = classical_nd_state(np.array([0.4 + 0.3j]), n_max=5)
    joint = tensor_compose(a, b, caps=DeskCaps(max_particles=10, max_modes=8))
    # blockwise: every block of a classical product is itself a mixture of
    # coherent-spin projectors; verify via the de Finetti membership property
    # that each block has positive diagonal and, for the pure-direction case,
    # the two-mode product of Poissons is PPT on the (2, 2) sector
    assert is_particle_separable_two_qubit(joint.block(2))


def test_many_copy_classical_certified():
    report = many_copy_nc_bound_check(np.array([0.6]), k=2, n_max=6)
    assert report.certified
    assert report.satisfied
    # classical states are within truncation error of themselves
    assert report.classical_distance_upper_bound <= report.truncation_mass + 1e-12
    assert report.construction_distance <= 0.5 + 1e-9


def test_many_copy_construction_tracks_k():
    for k in (2, 3, 4):
        report = many_copy_nc_bound_check(np.array([0.5]), k=k, n_max=6)
        assert report.construction_distance <= 1.0 / k + 1e-6


def test_many_copy_rejects_short_truncation():
    with pytest.raises(ValidationError, match="Poisson mass"):
        many_copy_nc_bound_check(np.array([1.5]), k=2, n_max=3)


def test_many_copy_mixture_input():
    mixture = [(0.5, np.array([0.5])), (0.5, np.array([0.3 + 0.4j]))]
    report = many_copy_nc_bound_check(mixture, k=3, n_max=6)
    assert report.certified and report.satisfied


def test_many_copy_k1_vacuous():
    report = many_copy_nc_bound_check(vacuum_state(1), k=1)
    assert report.satisfied
    assert report.paper_bound == 1.0


def test_many_copy_bare_state_conditional():
    report = many_copy_nc_bound_check(fock_state((1, 1)).to_block_state(), k=2)
    assert not report.certified
    assert report.satisfied is None
