"""Each benchmark check accepts the program's real output and rejects a
deliberately wrong one, so a silent check cannot pass a wrong program.

    python3 -m pytest perfbench/test_checks.py -q
"""

import json
import math
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import bosonpe as bp  # noqa: E402
from bosonpe import nonclassical as bpn  # noqa: E402
from bosonpe import witness as bpw  # noqa: E402

import checks as ck  # noqa: E402
import workloads  # noqa: E402


def _probs(rep):
    return {k: rep.sectors.probability(k) for k in rep.sectors.keys()}


@pytest.fixture(scope="module")
def fock22():
    return bp.activate(bp.ActivationSpec(bp.fock_state((2, 2)).to_block_state()),
                       postselect=(2, 2))


def test_sector_probabilities_reject_1e6_offset(fock22):
    probs = _probs(fock22)
    assert ck.check_sector_probabilities(probs, {4: 1.0}) is None
    wrong = dict(probs)
    wrong[(2, 2)] += 1e-6
    assert ck.check_sector_probabilities(wrong, {4: 1.0}) is not None
    assert ck.check_sector_probabilities(probs, {3: 1.0}) is not None


def test_fock_schmidt_rejects_perturbed_spectrum(fock22):
    assert ck.check_fock_schmidt(fock22.schmidt, (2, 2)) is None
    wrong = {k: v.copy() for k, v in fock22.schmidt.items()}
    wrong[(2, 2)][0] += 1e-6
    assert ck.check_fock_schmidt(wrong, (2, 2)) is not None
    assert ck.check_fock_schmidt(fock22.schmidt, (3, 1)) is not None


def test_fig1_support():
    assert ck.fock_postselected_support((2, 2), 2) == {
        ((1, 1), (1, 1)), ((2, 0), (0, 2)), ((0, 2), (2, 0))}


def test_free_and_entangled_thresholds():
    assert ck.check_free(0.0) is None and ck.check_free(2e-9) is not None
    assert ck.check_entangled(1e-3) is None and ck.check_entangled(1e-7) is not None


def test_permanent_amplitudes_match_hom_and_reject_wrong_rotation():
    bs = np.array([[1, 1], [-1, 1]]) / math.sqrt(2)
    amps = ck.permanent_amplitudes(bs, (1, 1), [(2, 0), (1, 1), (0, 2)])
    assert abs(amps[1]) < 1e-15 and abs(abs(amps[0]) - 1 / math.sqrt(2)) < 1e-15

    wl = workloads.build("activation", 3, str(HERE))
    op = next(o for o in wl.sweep if o.name == "haar_1111")
    rep = op.run()
    assert op.check(rep) is None
    other = workloads.build("activation", 4, str(HERE))
    wrong_op = next(o for o in other.sweep if o.name == "haar_1111")
    assert wrong_op.check(rep) is not None  # output of another V_A


def test_mpef_general_rejects_wrong_value():
    psi = np.array([0.6, 0.0, 0.8j])
    states = bp.enumerate_basis(2, 2).states
    state = bp.BlockDiagonalState(2, {2: (1.0, np.outer(psi, psi.conj()))})
    got = bp.m_pe_f(state, search="general_restarts", seed=0, n_restarts=1)
    assert ck.check_mpef_general(got.value, got.h, psi, states) is None
    assert ck.check_mpef_general(got.value + 1e-6, got.h, psi, states) is not None
    assert ck.check_mpef_general(got.value, 0.5 * got.h, psi, states) is not None


def test_css_fisher_rejects_relative_1e6():
    rng = np.random.default_rng(0)
    psi = rng.normal(size=3) + 1j * rng.normal(size=3)
    psi /= np.linalg.norm(psi)
    h = np.diag([1.0, -0.5, 0.2]).astype(complex)
    state = bp.coherent_spin_state(bp.CoherentSpinSpec(psi, 3)).to_block_state()
    obs = bp.SingleParticleObservable(h)
    f = bp.qfi(state, bp.collective_generator(obs, 3, 3))
    v = bp.single_particle_variance(state, obs)
    assert ck.check_css_fisher(f, v, psi, h) is None
    assert ck.check_css_fisher(f * (1 + 1e-6), v, psi, h) is not None
    assert ck.check_css_fisher(f, v * (1 + 1e-6), psi, h) is not None


@pytest.mark.parametrize("n,p", [(1, 0.3), (20, 0.1), (100, 0.5), (57, 0.005)])
def test_binomial_poisson_lgamma_matches_and_rejects(n, p):
    d = bpn.binomial_poisson_distance(n, p).distance
    assert ck.check_binomial_poisson(d, n, p) is None
    assert ck.check_binomial_poisson(d + 1e-6, n, p) is not None


def test_definetti_checks_reject_wrong_distance():
    terms = ((0.5, np.eye(3)[0].astype(complex)), (0.5, np.ones(3) / math.sqrt(3)))
    res = bpn.definetti_classical_approx(bpn.ExchangeableSeparableSpec(3, 3, terms), 1)
    assert ck.check_definetti_one_mode(res.distance, 3, 3, terms) is None
    assert ck.check_definetti_one_mode(res.distance + 1e-6, 3, 3, terms) is not None
    assert ck.check_definetti(res.distance, 1, 3, res.truncation_mass) is None
    assert ck.check_definetti(0.34, 1, 3, 0.0) is not None


def test_many_copy_bound():
    assert ck.check_many_copy(0.25, 4) is None
    assert ck.check_many_copy(0.25 + 1e-6, 4) is not None
    assert ck.check_many_copy(None, 2) is not None


def _moments(data):
    return workloads._axis_moments(bpw.estimate_moments(data))


def test_moments_reject_a_perturbed_shot():
    data = bpw.synthesize_dataset("squeezed", n_shots=300, seed=2)
    text = bpw.dataset_to_csv(data)
    assert ck.check_moments(_moments(data), text, data.eta_a, data.eta_b) is None
    lines = text.splitlines()
    row = lines[5].split(",")
    row[1] = str(float(row[1]) + 1.0)
    lines[5] = ",".join(row)
    assert ck.check_moments(_moments(data), "\n".join(lines), data.eta_a,
                            data.eta_b) is not None


def test_witness_bound_checks():
    const = bpw.pe_lower_bound(bpw.synthesize_dataset("constant"),
                               bpw.WitnessParams(1.0, 1.0), n_bootstrap=0)
    assert ck.check_constant_bound(const.bound) is None
    assert ck.check_constant_bound(const.bound + 1e-9) is not None

    sq = bpw.synthesize_dataset("squeezed", n_shots=3000, seed=7)
    css = bpw.synthesize_dataset("css", n_shots=3000, seed=7)
    r_sq = bpw.pe_lower_bound(sq, bpw.optimize_witness_params(sq), n_bootstrap=100, seed=1)
    r_css = bpw.pe_lower_bound(css, bpw.optimize_witness_params(css), n_bootstrap=100, seed=1)
    assert ck.check_squeezed_bound(r_sq.bound, r_sq.bootstrap_se) is None
    assert ck.check_squeezed_bound(r_css.bound, r_css.bootstrap_se) is not None
    assert ck.check_css_bound(r_css.bound, r_css.bootstrap_se) is None
    assert ck.check_css_bound(r_sq.bound, r_sq.bootstrap_se) is not None


def test_optimized_ratio_rejects_a_poor_optimum():
    sq = bpw.synthesize_dataset("squeezed", n_shots=3000, seed=7)
    p = bpw.optimize_witness_params(sq)
    spins = ck.spins_from_csv(bpw.dataset_to_csv(sq), sq.eta_a, sq.eta_b)
    assert ck.check_optimized_ratio(spins, p.g_z, p.g_y) is None
    assert ck.check_optimized_ratio(spins, 5.0, -5.0) is not None


def test_cli_json_check_rejects_bound_from_perturbed_shot():
    data = bpw.synthesize_dataset("squeezed", n_shots=300, seed=3)
    params = bpw.optimize_witness_params(data)
    res = bpw.pe_lower_bound(data, params, n_bootstrap=20, seed=1)
    cli_doc = json.loads(json.dumps({"bound": res.bound, "bootstrap_se": res.bootstrap_se}))
    assert ck.check_same_json(cli_doc, {"bound": res.bound,
                                        "bootstrap_se": res.bootstrap_se}) is None
    shots = list(data.shots)
    s = shots[0]
    shots[0] = bpw.ShotRecord(s.setting, s.n1a + 1.0, s.n2a, s.n1b, s.n2b)
    other = bpw.SpinShotDataset(tuple(shots), data.eta_a, data.eta_b,
                                data.n1_a_mean, data.n1_b_mean)
    wrong = bpw.pe_lower_bound(other, params, n_bootstrap=20, seed=1)
    assert ck.check_same_json(cli_doc, {"bound": wrong.bound}) is not None
