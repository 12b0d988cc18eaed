import math
import os
import subprocess
import sys
import time
import tracemalloc
from collections import Counter
from itertools import permutations, product

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import bosonpe
from bosonpe import nonclassical
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
    _binomial_logpmf,
    _css_trace_distance,
    binomial_poisson_distance,
    definetti_classical_approx,
    exchangeable_state,
    many_copy_nc_bound_check,
    two_copy_pe_check,
)
from bosonpe.states import (
    _log_factorials,
    classical_nd_state,
    classical_truncation_mass,
    css_density,
    default_poisson_truncation,
    is_particle_separable_two_qubit,
    poisson_weights,
)

from helpers import (
    binomial_pmf_oracle,
    binomial_poisson_oracle,
    binomial_poisson_pmfs_mp,
    binomial_poisson_tv_mp,
    css_trace_distance_loop,
    poisson_pmf_mp,
    poisson_pmf_oracle,
    poisson_weights_masked,
)

FEW = settings(max_examples=15, deadline=None)


def strict():
    """No NaN and no log of zero in the kernels, even at p = 0 or 1, mu = 0."""
    return np.errstate(divide="raise", invalid="raise")


def test_binpois_zero_p():
    res = binomial_poisson_distance(50, 0.0)
    assert res.distance == 0.0
    assert res.satisfied


def test_binpois_examples_vs_mpmath():
    for N, p in ((20, 0.1), (100, 0.05), (7, 0.5), (1, 0.3)):
        res = binomial_poisson_distance(N, p)
        assert res.distance == pytest.approx(binomial_poisson_tv_mp(N, p), abs=1e-14)
        assert res.distance <= p + 1e-12


# error ceilings against the 40-digit oracle: distance, binomial pmf, Poisson pmf
MP_CELLS = {
    (10**5, 0.003): (2.0e-11, 1e-11, 2e-14),
    (10**5, 0.5): (4.0e-11, 1e-12, 5e-13),
    (1000, 0.003): (1e-14, 2.5e-13, 2e-16),
    (1000, 0.5): (2.5e-13, 5e-14, 2e-14),
    (100, 0.05): (5e-15, 1e-14, 5e-16),
}


def test_log_factorials_match_mpmath():
    table = _log_factorials(10**6)
    assert not table.flags.writeable
    with mpmath.workdps(40):
        for k in [*range(70), 100, 1000, 12345, 10**5, 2**17, 10**6]:
            want = mpmath.loggamma(k + 1)
            assert abs(table[k] - want) <= 2 * math.ulp(float(want)), k
    assert np.array_equal(_log_factorials(40), table[:41])


@pytest.mark.parametrize("N, p", list(MP_CELLS))
def test_binomial_and_poisson_pmfs_match_mpmath(N, p):
    b_mp, q_mp = binomial_poisson_pmfs_mp(N, p)
    k = np.arange(b_mp.size + 100)  # 100 points past the window, where both are below 1e-40
    want_b, want_q = (np.pad(x, (0, 100)) for x in (b_mp, q_mp))
    with strict():
        b = np.exp(_binomial_logpmf(k, N, p))
        q = poisson_weights(N * p, k[-1])
    _, b_tol, q_tol = MP_CELLS[N, p]
    assert np.max(np.abs(b - want_b)) <= b_tol
    assert np.max(np.abs(q - want_q)) <= q_tol


@pytest.mark.parametrize("N, p", list(MP_CELLS))
def test_binpois_matches_mpmath_on_cells(N, p):
    with strict():
        d = binomial_poisson_distance(N, p).distance
    assert abs(d - binomial_poisson_tv_mp(N, p)) <= MP_CELLS[N, p][0]


def test_binpois_matches_mpmath_on_criterion_06_grid():
    worst = max(abs(binomial_poisson_distance(N, float(p)).distance
                    - binomial_poisson_tv_mp(N, float(p)))
                for N in range(1, 101) for p in np.linspace(0.005, 0.5, 20))
    assert worst <= 3e-14


def test_kernels_at_point_masses():
    k = np.arange(8)
    with strict():
        for N in (0, 5):
            for p in (0.0, 0.3, 1.0):
                pmf = np.exp(_binomial_logpmf(k, N, p))
                assert math.fsum(pmf) == pytest.approx(1.0, abs=1e-15)
                if p in (0.0, 1.0) or N == 0:
                    assert pmf.tolist() == (k == (N if p == 1.0 else 0)).tolist()
            assert binomial_poisson_distance(N, 0.0).distance == 0.0
        assert binomial_poisson_distance(0, 0.7).distance == 0.0
        # p = 1: the point mass at N against Poisson(N)
        assert binomial_poisson_distance(5, 1.0).distance == pytest.approx(
            binomial_poisson_tv_mp(5, 1.0), abs=1e-15)
        assert poisson_weights(0.0, 7).tolist() == (k == 0).tolist()
        rows = poisson_weights(np.array([0.0, 2.5, 0.0, 40.0]), 7)
    assert rows.shape == (4, 8)
    for row, mu in zip(rows, (0.0, 2.5, 0.0, 40.0)):
        assert np.array_equal(row, poisson_weights(mu, 7))


def test_poisson_and_binpois_bit_identical_to_masked_kernel(monkeypatch):
    # the criterion 06 grid and the mpmath cells, at the support each distance
    # uses; weights compare as raw bytes, distances as float hex
    cells = [(N, float(p)) for N in range(1, 101) for p in np.linspace(0.005, 0.5, 20)]
    cells += list(MP_CELLS)
    distances = [binomial_poisson_distance(N, p).distance for N, p in cells]
    for N, p in cells:
        mu = N * p
        hi = max(N, int(math.ceil(mu + 20.0 * math.sqrt(mu + 1.0) + 25.0)))
        assert poisson_weights(mu, hi).tobytes() == poisson_weights_masked(mu, hi).tobytes()
    means = np.array([0.0, 2.5, 0.0, 40.0])
    assert poisson_weights(means, 60).tobytes() == poisson_weights_masked(means, 60).tobytes()
    monkeypatch.setattr(nonclassical, "poisson_weights", poisson_weights_masked)
    masked = [binomial_poisson_distance(N, p).distance for N, p in cells]
    assert list(map(float.hex, distances)) == list(map(float.hex, masked))


def test_binpois_bound_on_grid():
    for N in np.linspace(1, 100, 20, dtype=int):
        for p in np.linspace(0.005, 0.5, 20):
            res = binomial_poisson_distance(int(N), float(p))
            assert res.satisfied


def test_binpois_large_n_stability():
    res = binomial_poisson_distance(10000, 0.003)
    assert math.isfinite(res.distance)
    assert res.distance <= 0.003 + 1e-12


# N up to 200 keeps the lgamma rounding of package and oracle below 1e-13
ORACLE_N = st.integers(0, 200)
UNIT_P = st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0))
MEANS = st.one_of(st.just(0.0), st.floats(0.0, 200.0))


@FEW
@given(ORACLE_N, UNIT_P)
@example(0, 0.3)
@example(7, 0.0)
@example(7, 1.0)
def test_binomial_kernel_matches_oracle(N, p):
    k = np.arange(N + 4)  # three points above the support, where the pmf is 0
    pmf = np.exp(_binomial_logpmf(k, N, p))
    want = [binomial_pmf_oracle(int(j), N, p) for j in k]
    assert np.max(np.abs(pmf - want)) <= 1e-12


@FEW
@given(MEANS, st.integers(0, 400))
@example(0.0, 5)
def test_poisson_kernel_matches_oracle(mu, n_max):
    want = [poisson_pmf_oracle(k, mu) for k in range(n_max + 1)]
    assert np.max(np.abs(poisson_weights(mu, n_max) - want)) <= 1e-12


@FEW
@given(MEANS, st.integers(0, 400))
@example(0.0, 0)
def test_truncated_poisson_mass_plus_tail_is_one(mu, n_max):
    with mpmath.workdps(40):  # P(X > n_max) = P(n_max + 1, mu), the regularised gamma
        tail = float(mpmath.gammainc(n_max + 1, 0, mu, regularized=True))
    assert abs(math.fsum(poisson_weights(mu, n_max)) + tail - 1.0) <= 1e-12


@FEW
@given(ORACLE_N, UNIT_P)
@example(0, 0.5)
@example(30, 0.0)
@example(30, 1.0)
def test_binpois_matches_oracle(N, p):
    assert binomial_poisson_distance(N, p).distance == pytest.approx(
        binomial_poisson_oracle(N, p), abs=1e-12)


@FEW
@given(st.integers(0, 10**4), UNIT_P)
@example(10**4, 1.0)
def test_binpois_barbour_hall_bound(N, p):
    # d_TV(Bin(N, p), Poi(Np)) <= (1 - e^{-Np}) p (Barbour & Hall 1984)
    d = binomial_poisson_distance(N, p).distance
    assert 0.0 <= d <= (1.0 - math.exp(-N * p)) * p + 1e-12


def test_binpois_huge_n_refused_before_allocation():
    tracemalloc.start()
    try:
        with pytest.raises(DeskScaleError):
            binomial_poisson_distance(10**12, 0.5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20
    assert binomial_poisson_distance(10**6, 1e-6).satisfied  # the cap itself runs


@pytest.mark.parametrize("build", [
    lambda: classical_nd_state([0.1, 0.1], n_max=10**12),
    lambda: classical_truncation_mass([0.1, 0.1], 10**12),
    lambda: many_copy_nc_bound_check([0.1, 0.1], 2, n_max=10**12),
], ids=["classical_nd_state", "classical_truncation_mass", "many_copy_nc_bound_check"])
def test_explicit_poisson_cutoff_refused_before_allocation(build):
    tracemalloc.start()
    try:
        with pytest.raises(DeskScaleError):
            build()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20


def test_import_leaves_scipy_unloaded():
    src = os.path.dirname(os.path.dirname(bosonpe.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    code = ("import sys, bosonpe, bosonpe.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, timeout=120, check=True).stdout
    assert out.strip() == "[]"


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
    oracle = binomial_poisson_tv_mp(4, 0.25)
    assert res.distance == pytest.approx(oracle, abs=1e-5)


def test_definetti_point_mass_rows():
    # e_0 symmetrised keeps p = 1 on l directions, where the binomial is the
    # point mass at N, and p = 0 on the m - l others, which retain nothing:
    # the distance is (l / m)(1 - Poisson_N(N)), up to the 1e-30 tail past n_max
    N, m = 3, 4
    spec = ExchangeableSeparableSpec(N, m, ((1.0, np.eye(m)[0].astype(complex)),))
    gap = 1.0 - float(poisson_pmf_mp(N, N)[N])
    with strict():
        for l in range(1, m + 1):
            res = definetti_classical_approx(spec, l, n_max=N + 40)
            assert res.distance == pytest.approx(l / m * gap, abs=1e-14)


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
    coherent-spin densities with 40-digit mpmath Poisson pmfs."""
    mus = [float(np.vdot(a, a).real) for _, a in terms]
    joint_cap = max(default_poisson_truncation(k * max(mus)), n_max)
    acc = {}
    for combo in product(range(len(terms)), repeat=k):
        w = math.prod(terms[j][0] for j in combo)
        big_m, mu1 = sum(mus[j] for j in combo), mus[combo[0]]
        if big_m == 0:
            qs = [float(n == 0) for n in range(n_max + 1)]
        else:
            with mpmath.workdps(40):
                joint = poisson_pmf_mp(big_m, joint_cap)
                split = [poisson_pmf_mp(mpmath.mpf(L) * mu1 / big_m, n_max)
                         for L in range(joint_cap + 1)]
                qs = [float(mpmath.fsum(joint[L] * split[L][n] for L in range(joint_cap + 1)))
                      for n in range(n_max + 1)]
        for n, q in enumerate(qs):
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


def compared_with_loop(gaps):
    """``_css_trace_distance`` that also runs the per-sector loop oracle on
    the same rows and records the distance gap; the masses must agree."""
    def compare(*args):
        got, want = _css_trace_distance(*args), css_trace_distance_loop(*args)
        assert got[1:] == want[1:]
        gaps.append(abs(got[0] - want[0]))
        return got
    return compare


@FEW
@given(exchangeable_specs(), classical_mixtures(), st.integers(1, 3))
def test_stacked_trace_distance_matches_loop_oracle(spec, terms, k):
    # l = 1 can put several phases in a one-dimensional sector (the
    # _css_block side), empty retained modes a None direction, and Poisson
    # rows that fall below 1e-16 at different n kept terms that change with n
    gaps = []
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(nonclassical, "_css_trace_distance", compared_with_loop(gaps))
        for l in range(1, spec.m + 1):
            definetti_classical_approx(spec, l)
        many_copy_nc_bound_check(terms, k)
    assert len(gaps) == spec.m + 1
    assert max(gaps) <= 1e-15


@pytest.mark.parametrize("entries", [1, 16, 500])
def test_stacked_trace_distance_split_across_chunks(monkeypatch, entries):
    # kept terms: 2 at every l = 1 sector (the _css_block side, next to a
    # None direction); at l = 2, 9 then 8 (8 x 8 powers over 11 sectors); at
    # l = 3, 16 then 15 (13 sectors); at l = 4, 16 (15 sectors); 2 over 6
    # sectors in the many-copy rows.  A stack of 16 entries holds 4 sectors
    # at t = 2, one of 500 holds 7 at t = 8 and 2 at t = 15, so groups split
    # across chunk boundaries
    m = 4
    v = np.array([0.01, 0.01, 0.01, 1.0]) / math.sqrt(1.0003)
    spec = ExchangeableSeparableSpec(4, m, ((0.7, v), (0.3, np.array([0.6, 0.8j, 0.0, 0.0]))))
    mixture = [(0.5, np.array([0.5, 0.3j])), (0.2, np.array([0.0, 0.0])),
               (0.3, np.array([1e-3, 0.0]))]

    def distances():
        return ([definetti_classical_approx(spec, l).distance for l in range(1, m + 1)]
                + [many_copy_nc_bound_check(mixture, k).construction_distance
                   for k in (1, 2, 3)])

    gaps, shapes, whole = [], [], distances()
    eigh = np.linalg.eigh
    monkeypatch.setattr(np.linalg, "eigh", lambda a: shapes.append(a.shape) or eigh(a))
    monkeypatch.setattr(nonclassical, "_CHUNK_ENTRIES", entries)
    monkeypatch.setattr(nonclassical, "_css_trace_distance", compared_with_loop(gaps))
    assert distances() == whole
    assert max(gaps) <= 1e-15
    # no stack above the bound, unless it is a single power
    assert all(math.prod(s) <= max(entries, s[-1] ** 2) for s in shapes)
    assert entries == 1 or any(len(s) == 3 and s[0] > 1 for s in shapes)


def test_stacked_trace_distance_groups_by_kept_terms():
    # two kept terms at every n, but terms 0 and 2 at n = 1..2 and terms 1
    # and 2 at n = 3..4: equal counts, different Gram matrices
    dirs = [np.array([1.0, 0.0]), np.array([0.6, 0.8j]), np.ones(2) / math.sqrt(2.0)]
    rho = np.array([[0.0, 0.2, 0.1, 0.0, 0.0],
                    [0.0, 0.0, 0.0, 0.2, 0.1],
                    [0.1, 0.1, 0.1, 0.05, 0.05]])
    sigma = np.array([[0.0, 0.1, 0.2, 0.0, 0.0],
                      [0.0, 0.0, 0.0, 0.1, 0.2],
                      [0.1, 0.05, 0.05, 0.1, 0.1]])
    args = (dirs, rho, sigma)
    got, want = _css_trace_distance(*args), css_trace_distance_loop(*args)
    assert got[1:] == want[1:]
    assert abs(got[0] - want[0]) <= 1e-15


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
