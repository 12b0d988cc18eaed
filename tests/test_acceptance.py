"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the criterion
summary lines alongside the pytest verdicts.
"""

import math
import time

import numpy as np
import pytest

from bosonpe.fock import (
    BlockDiagonalState,
    DeskCaps,
    enumerate_basis,
    fock_state,
    state_from_json,
    state_to_json,
    tensor_compose,
    vacuum_state,
    ModePartition,
)
from bosonpe.optics import (
    BeamSplitterArray,
    append_vacuum,
    measure_destructive,
    random_ssr_povm,
)
from bosonpe.states import (
    CoherentSpinSpec,
    classical_nd_state,
    coherent_spin_state,
    noon_state,
    random_direction,
    random_free_state,
    random_particle_separable,
)
from bosonpe.measures import m_pe_f, second_quantized
from bosonpe.activation import (
    ActivationSpec,
    activate,
    activate_pure_vector,
    fock_activation_amplitudes,
    local_filter_relation_check,
    splitter_alphas,
    activation_inequality_check,
)
from bosonpe.nonclassical import (
    ExchangeableSeparableSpec,
    binomial_poisson_distance,
    definetti_classical_approx,
)
from bosonpe.witness import (
    WitnessParams,
    optimize_witness_params,
    pe_lower_bound,
    synthesize_dataset,
)

from helpers import qfi_matrix, random_density, variance_matrix
from test_measures import dense_bloch_grid_mpef


def report(criterion: str, ok: bool, detail: str = ""):
    status = "PASS" if ok else "FAIL"
    print(f"[{status}] {criterion}" + (f" ({detail})" if detail else ""))
    assert ok, f"{criterion}: {detail}"


def test_criterion_01_qfi_projector_identity():
    """QFI projector identity on 100 random triples, sector dims <= 35."""
    t0 = time.monotonic()
    rng = np.random.default_rng(2026)
    worst = 0.0
    for _ in range(100):
        dim = int(rng.integers(4, 36))
        rank = int(rng.integers(1, dim))
        rho = random_density(dim, rng, rank=rank)
        h = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
        h = (h + h.conj().T) / 2
        evals, evecs = np.linalg.eigh(rho)
        keep = int(rng.integers(rank, dim + 1))
        vecs = evecs[:, np.argsort(evals)[::-1][:keep]]
        pi = vecs @ vecs.conj().T
        php = pi @ h @ pi
        lhs = qfi_matrix(rho, h)
        rhs = qfi_matrix(rho, php) + 4 * variance_matrix(rho, h) \
            - 4 * variance_matrix(rho, php)
        worst = max(worst, abs(lhs - rhs) / max(1.0, abs(lhs)))
    elapsed = time.monotonic() - t0
    report("criterion 1: QFI projector identity (100 triples, dims <= 35)",
           worst < 1e-8 and elapsed < 10.0,
           f"worst residual {worst:.2e}, {elapsed:.1f} s")


def test_criterion_02_metrological_monotone():
    """Zero on free states; NOON value 4 vs dense oracle; vacuum append."""
    worst_free = 0.0
    rng = np.random.default_rng(77)
    for trial in range(200):
        if trial % 2 == 0:
            n = 1 + trial % 4
            state = random_particle_separable(2, n, 1 + trial % 3, seed=trial)
        else:
            state = random_free_state(2, 4, seed=trial)
        worst_free = max(worst_free, m_pe_f(state).value)
    ok_free = worst_free < 1e-6

    noon = noon_state(2).to_block_state()
    got = m_pe_f(noon)
    oracle = dense_bloch_grid_mpef(noon, n_theta=64, n_phi=128)
    ok_noon = abs(got.value - 4.0) < 1e-4 and abs(got.value - oracle) < 1e-4

    padded = append_vacuum(noon, 1)
    h_pad = np.zeros((3, 3), dtype=complex)
    h_pad[:2, :2] = got.h[:2, :2]
    padded_val = m_pe_f(padded, search="general_restarts", seed=5,
                        n_restarts=4, warm_starts=[h_pad]).value
    ok_append = abs(padded_val - got.value) < 1e-8

    report("criterion 2: metrological monotone",
           ok_free and ok_noon and ok_append,
           f"max over free {worst_free:.2e}, NOON {got.value:.10f} "
           f"(oracle {oracle:.10f}), appended {padded_val:.10f}")


def test_criterion_03_activation_catalogue():
    """Balanced activation: free inputs give zero, entangled inputs do not."""
    t0 = time.monotonic()
    rng = np.random.default_rng(5)
    free_inputs = [
        ("vacuum", vacuum_state(1)),
        ("fock |1,0⟩", fock_state((1, 0)).to_block_state()),
        ("fock |2,0⟩", fock_state((2, 0)).to_block_state()),
        ("fock |3,0⟩", fock_state((3, 0)).to_block_state()),
        ("fock |4,0⟩", fock_state((4, 0)).to_block_state()),
        ("css N=2", coherent_spin_state(
            CoherentSpinSpec(random_direction(2, rng), 2)).to_block_state()),
        ("css N=3", coherent_spin_state(
            CoherentSpinSpec(random_direction(2, rng), 3)).to_block_state()),
        ("classical 1 mode", classical_nd_state(np.array([0.7]), n_max=6)),
        ("classical 2 modes", classical_nd_state(np.array([0.4, 0.3j]), n_max=5)),
    ]
    max_free = 0.0
    for name, state in free_inputs:
        val = activate(ActivationSpec(state)).e_ssr_negativity
        max_free = max(max_free, val)
    ok_free = max_free <= 1e-9

    entangled_inputs = [
        ("fock |1,1⟩", fock_state((1, 1)).to_block_state()),
        ("noon 2", noon_state(2).to_block_state()),
        ("noon 3", noon_state(3).to_block_state()),
        ("fock |2,2⟩", fock_state((2, 2)).to_block_state()),
        ("|1⟩x|1⟩", tensor_compose(fock_state((1,)).to_block_state(),
                                   fock_state((1,)).to_block_state())),
    ]
    min_ent = math.inf
    for name, state in entangled_inputs:
        val = activate(ActivationSpec(state)).e_ssr_negativity
        min_ent = min(min_ent, val)
    ok_ent = min_ent >= 1e-6
    elapsed = time.monotonic() - t0
    report("criterion 3: activation faithfulness catalogue",
           ok_free and ok_ent and elapsed < 30.0,
           f"free max {max_free:.2e}, entangled min {min_ent:.2e}, {elapsed:.1f} s")


def test_criterion_04_closed_form_activation():
    """Closed-form amplitudes match direct lifts; Fig. 1 support exact."""
    rng = np.random.default_rng(404)
    caps = DeskCaps(max_particles=5, max_modes=8)
    worst = 0.0
    inputs = [(n,) for n in range(6)] + \
        [(a, b) for a in range(6) for b in range(6) if 0 < a + b <= 5]
    r_vectors = {1: [tuple(rng.uniform(0.05, 0.98, size=1)) for _ in range(20)],
                 2: [tuple(rng.uniform(0.05, 0.98, size=2)) for _ in range(20)]}
    for occ in inputs:
        m = len(occ)
        n_tot = sum(occ)
        if n_tot == 0:
            continue
        for r in r_vectors[m]:
            arr = BeamSplitterArray(r)
            alphas = splitter_alphas(arr)
            basis, vec = activate_pure_vector(occ, arr, caps=caps)
            rebuilt = np.zeros(basis.dim, dtype=complex)
            for na in range(n_tot + 1):
                for (occ_a, occ_b), amp in fock_activation_amplitudes(
                        occ, alphas, (na, n_tot - na)).items():
                    rebuilt[basis.index(occ_a + occ_b)] = amp
            worst = max(worst, float(np.max(np.abs(rebuilt - vec))))
    ok_form = worst < 1e-9

    rep = activate(ActivationSpec(fock_state((2, 2)).to_block_state()),
                   postselect=(2, 2))
    key, _, sector = rep.postselected
    support = set()
    for i in range(sector.basis_a.dim):
        for j in range(sector.basis_b.dim):
            k = i * sector.basis_b.dim + j
            if abs(sector.matrix[k, k]) > 1e-12:
                support.add((sector.basis_a.states[i], sector.basis_b.states[j]))
    ok_fig1 = support == {((1, 1), (1, 1)), ((2, 0), (0, 2)), ((0, 2), (2, 0))}

    report("criterion 4: closed-form activation amplitudes",
           ok_form and ok_fig1,
           f"worst amplitude deviation {worst:.2e}, Fig.1 support "
           f"{'exact' if ok_fig1 else 'WRONG'}")


def test_criterion_05_local_filter_relation():
    """General-r activation = local filters applied to the balanced output."""
    ok = True
    for occ in ((1, 1), (2, 1), (2, 2)):
        ok = ok and local_filter_relation_check(occ, (0.6, 0.8), tol=1e-9)
    rng = np.random.default_rng(55)
    for _ in range(10):
        r = tuple(rng.uniform(0.1, 0.97, size=2))
        occ = [(1, 1), (2, 1), (2, 2)][int(rng.integers(0, 3))]
        ok = ok and local_filter_relation_check(occ, r, tol=1e-9)
    report("criterion 5: local-filter relation", ok)


def test_criterion_06_binomial_poisson_and_definetti():
    """Distribution bound on the full grid; classical approximation bound."""
    ok_grid = True
    worst_gap = -math.inf
    for N in range(1, 101):
        for p in np.linspace(0.005, 0.5, 20):
            res = binomial_poisson_distance(N, float(p))
            ok_grid = ok_grid and res.satisfied
            worst_gap = max(worst_gap, res.distance - res.bound)

    ok_df = True
    for m in (2, 3, 4):
        for n in (1, 2, 3, 4):
            specs = [
                ExchangeableSeparableSpec(n, m, ((1.0, np.ones(m) / math.sqrt(m)),)),
                ExchangeableSeparableSpec(n, m, (
                    (0.5, np.eye(m)[0].astype(complex)),
                    (0.5, np.ones(m) / math.sqrt(m)),
                )),
            ]
            for spec in specs:
                for l in range(1, m + 1):
                    res = definetti_classical_approx(spec, l)
                    ok_df = ok_df and (res.distance <= res.bound + 1e-6
                                       + res.truncation_mass)
    report("criterion 6: binomial-Poisson and de Finetti bounds",
           ok_grid and ok_df, f"worst distance-bound gap {worst_gap:.2e}")


def test_criterion_07_witness_bounds():
    """Zero-variance arithmetic; squeezed > 5 sigma; css within 3 sigma."""
    t0 = time.monotonic()
    constant = synthesize_dataset("constant")
    res = pe_lower_bound(constant, WitnessParams(1.0, 1.0), n_bootstrap=0)
    ok_arith = abs(res.bound - 10.0 / 220.0) < 1e-12

    squeezed = synthesize_dataset("squeezed", n_atoms=100, n_shots=10000,
                                  seed=7, xi2=0.25)
    params = optimize_witness_params(squeezed)
    res_sq = pe_lower_bound(squeezed, params, n_bootstrap=1000, seed=1)
    ok_sq = res_sq.bound > 5.0 * res_sq.bootstrap_se

    css = synthesize_dataset("css", n_atoms=100, n_shots=10000, seed=7)
    params_css = optimize_witness_params(css)
    res_css = pe_lower_bound(css, params_css, n_bootstrap=1000, seed=1)
    ok_css = res_css.bound <= 3.0 * res_css.bootstrap_se
    elapsed = time.monotonic() - t0

    report("criterion 7: witness bounds",
           ok_arith and ok_sq and ok_css and elapsed < 60.0,
           f"arith {res.bound:.12f}, squeezed {res_sq.bound / res_sq.bootstrap_se:.1f} sigma, "
           f"css {res_css.bound / max(res_css.bootstrap_se, 1e-300):.2f} sigma, {elapsed:.1f} s")


def test_criterion_08_activation_inequality():
    """Accessible-entanglement lower estimate vs measure upper bound."""
    rng = np.random.default_rng(88)
    worst = -math.inf
    ok = True
    for trial in range(50):
        rank = int(rng.integers(1, 4))
        block = random_density(3, rng, rank=rank)
        state = BlockDiagonalState(2, {2: (1.0, block)})
        rep = activation_inequality_check(state, n_candidates=30, seed=trial)
        ok = ok and rep.consistent
        worst = max(worst, rep.e_ssr_lower - rep.m_pe_upper)
    report("criterion 8: activation inequality consistency (50 states)",
           ok, f"max lower-minus-upper {worst:.2e}")


def test_criterion_09_destructive_measurement_freeness():
    """Random SSR measurements keep coherent-spin inputs free."""
    rng = np.random.default_rng(99)
    worst = 1.0
    count = 0
    while count < 100:
        m_a = int(rng.integers(1, 3))
        m_b = int(rng.integers(1, 3))
        n = int(rng.integers(1, 4))
        psi = random_direction(m_a + m_b, rng)
        state = coherent_spin_state(CoherentSpinSpec(psi, n)).to_block_state()
        part = ModePartition(tuple(range(m_a)), tuple(range(m_a, m_a + m_b)))
        povm = random_ssr_povm(m_b, n, int(rng.integers(2, 4)),
                               seed=int(rng.integers(0, 2**31)))
        for prob, post in measure_destructive(state, part, povm).values():
            for sector in post.sectors():
                if sector == 0:
                    continue
                count += 1
                mat = post.block(sector)
                rdm = np.zeros((m_a, m_a), dtype=complex)
                unit = np.zeros((m_a, m_a), dtype=complex)
                for i in range(m_a):
                    for j in range(m_a):
                        unit[j, i] = 1.0
                        rdm[i, j] = np.trace(
                            mat @ second_quantized(unit, m_a, sector)) / sector
                        unit[j, i] = 0.0
                purity = np.trace(rdm @ rdm).real
                worst = min(worst, purity)
    report("criterion 9: destructive measurements preserve free states",
           worst >= 1.0 - 1e-8, f"min post-state 1-RDM purity {worst:.12f}")


def test_criterion_10_serialization_round_trip():
    """State -> JSON -> state is bit-exact for 50 random states."""
    rng = np.random.default_rng(1010)
    ok = True
    for trial in range(50):
        m = int(rng.integers(1, 4))
        n_blocks = int(rng.integers(1, 4))
        ns = rng.choice(np.arange(0, 5), size=n_blocks, replace=False)
        weights = rng.dirichlet(np.ones(n_blocks))
        blocks = {}
        for n, w in zip(ns, weights):
            dim = enumerate_basis(m, int(n)).dim
            blocks[int(n)] = (float(w), random_density(dim, rng))
        state = BlockDiagonalState(m, blocks)
        doc = state_to_json(state)
        back = state_from_json(doc)
        ok = ok and back.modes == state.modes
        for n in state.sectors():
            p1, m1 = state.blocks[n]
            p2, m2 = back.blocks[n]
            ok = ok and (p1 == p2) and np.array_equal(m1, m2)
        ok = ok and state_to_json(back) == doc
    report("criterion 10: bit-exact JSON round trip (50 states)", ok)
