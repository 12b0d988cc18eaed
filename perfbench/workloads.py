"""The four workloads: fixed, seeded lists of calls into bosonpe's public API.

Each workload has one headline operation on a fixed input and a sweep of
other operations.  ``--seed`` feeds only inputs whose cost and call counts
do not depend on their values (Haar rotations, directions, phases, shot
noise, bootstrap streams), so every seed runs the same amount of work and
the traced counts repeat exactly.  Every operation's output is checked by
``checks``; building the inputs and warming the program's lazy caches is
set-up, and is not timed with the operations.

Calls go through module attributes (``bpa.activate``, not a name bound at
import) so that the traced run sees them through its wrappers.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

import bosonpe.activation as bpa
import bosonpe.cli as bpc
import bosonpe.fock as bpf
import bosonpe.measures as bpm
import bosonpe.nonclassical as bpn
import bosonpe.optics as bpo
import bosonpe.states as bps
import bosonpe.witness as bpw

import checks as ck

HEADLINE_SEED = 1908  # fixed input of the monotone headline
WITNESS_SEED = 7      # fixed datasets, as in acceptance criterion 7


@dataclass
class Op:
    name: str
    run: Callable[[], Any]
    check: Callable[[Any], str | None]


@dataclass
class Workload:
    name: str
    headline: Op
    sweep: list
    warm: Callable[[], None]
    # samples per pass: a short headline or sweep runs more than once, so
    # that both get several samples in a run and host drift hits them alike
    headline_repeats: int = 1
    sweep_repeats: int = 1
    min_passes: int = 2  # short passes need more of them to outlast host-speed swings

    def schedule(self) -> list:
        """One pass: ``sweep_repeats`` whole sweeps, cut into
        ``headline_repeats`` contiguous shares, each share after one run of
        the headline."""
        k = self.headline_repeats
        ops = self.sweep * self.sweep_repeats
        size, extra = divmod(len(ops), k)
        out, start = [], 0
        for i in range(k):
            end = start + size + (i < extra)
            out += [self.headline] + ops[start:end]
            start = end
        return out


def _haar(m: int, rng) -> np.ndarray:
    z = rng.normal(size=(m, m)) + 1j * rng.normal(size=(m, m))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def _direction(m: int, rng) -> np.ndarray:
    z = rng.normal(size=m) + 1j * rng.normal(size=m)
    return z / np.linalg.norm(z)


def _warm_bases(max_modes: int, max_particles: int):
    for m in range(1, max_modes + 1):
        for n in range(max_particles + 1):
            basis = bpf.enumerate_basis(m, n, bpf.UNCAPPED)
            basis.index(basis.states[0])


# ---------------------------------------------------------------------------
# activation


def _activation_op(name, state, *, occupation=None, va=None, postselect=None,
                   free=False, permanent=None):
    """activate() on one input, with the checks that apply to it."""
    weights = {n: p for n, (p, _) in state.blocks.items()}
    spec = bpa.ActivationSpec(state, pre_rotation=None if va is None else bpo.ModeUnitary(va))

    def run():
        return bpa.activate(spec, postselect=postselect)

    def check(rep):
        probs = {k: rep.sectors.probability(k) for k in rep.sectors.keys()}
        out = [ck.check_sector_probabilities(probs, weights),
               ck.check_free(rep.e_ssr_negativity) if free
               else ck.check_entangled(rep.e_ssr_negativity)]
        if occupation is not None and va is None:
            out.append(ck.check_fock_schmidt(rep.schmidt, occupation))
        if postselect is not None:
            key, _, sector = rep.postselected
            db = sector.basis_b.dim
            support = {(sector.basis_a.states[i], sector.basis_b.states[j])
                       for i in range(sector.basis_a.dim) for j in range(db)
                       if abs(sector.matrix[i * db + j, i * db + j]) > 1e-12}
            want = ck.fock_postselected_support(occupation, postselect[0])
            out.append(None if support == want else
                       f"post-selected support {sorted(support)} != {sorted(want)}")
        if permanent is not None:
            u, states = permanent
            n = sum(occupation)
            amps = ck.permanent_amplitudes(u, tuple(occupation) + (0,) * len(occupation),
                                           states)
            out.append(ck.check_permanent_output(rep.output.block(n), amps))
        return ck.first_failure(*out)

    return Op(name, run, check)


def activation(seed: int, workdir: str) -> Workload:
    rng = np.random.default_rng(seed)
    fock = lambda occ: bpf.fock_state(occ).to_block_state()  # noqa: E731

    va = _haar(4, rng)
    u_total = ck.splitter_matrix([1.0 / math.sqrt(2.0)] * 4)
    u_total[:, :4] = u_total[:, :4] @ va  # V_A on the input modes, then splitters
    out_states = bpf.enumerate_basis(8, 4).states

    classical_alpha = 0.5 * _direction(2, rng)  # mean particle number 0.25
    free_seed = int(rng.integers(0, 2**31))

    headline = _activation_op("fock_2121", fock((2, 1, 2, 1)), occupation=(2, 1, 2, 1))
    sweep = [
        _activation_op("fock_222", fock((2, 2, 2)), occupation=(2, 2, 2)),
        _activation_op("haar_1111", fock((1, 1, 1, 1)), occupation=(1, 1, 1, 1), va=va,
                       permanent=(u_total, out_states)),
        _activation_op("fig1_22", fock((2, 2)), occupation=(2, 2), postselect=(2, 2)),
        _activation_op("noon_3", bps.noon_state(3).to_block_state()),
        _activation_op("yurke_stoler", fock((1,)), occupation=(1,), free=True),
        _activation_op("free_mixed", bps.random_free_state(2, 3, free_seed), free=True),
        _activation_op("classical", bps.classical_nd_state(classical_alpha), free=True),
    ]

    single = fock((1,))

    def two_copy_check(rep):
        probs = {k: rep.activation.sectors.probability(k) for k in rep.activation.sectors.keys()}
        return ck.first_failure(
            None if rep.verdict == "entangled" else f"two-copy verdict {rep.verdict!r}",
            ck.check_entangled(rep.e_ssr),
            ck.check_sector_probabilities(probs, {2: 1.0}),
            ck.check_fock_schmidt(rep.activation.schmidt, (1, 1)),
        )

    sweep.append(Op("two_copy", lambda: bpn.two_copy_pe_check(single), two_copy_check))

    def warm():
        _warm_bases(8, 6)
        bpa.activate(bpa.ActivationSpec(single))

    return Workload("activation", headline, sweep, warm, sweep_repeats=3)


# ---------------------------------------------------------------------------
# monotone


def monotone(seed: int, workdir: str) -> Workload:
    rng = np.random.default_rng(seed)

    # headline: one fixed pure state on the (3 modes, 2 particles) sector
    hrng = np.random.default_rng(HEADLINE_SEED)
    states3 = bpf.enumerate_basis(3, 2).states
    psi3 = hrng.normal(size=len(states3)) + 1j * hrng.normal(size=len(states3))
    psi3 /= np.linalg.norm(psi3)
    state3 = bpf.BlockDiagonalState(3, {2: (1.0, np.outer(psi3, psi3.conj()))})

    def headline_check(res):
        return ck.check_mpef_general(res.value, res.h, psi3, states3)

    headline = Op("mpef_general",
                  lambda: bpm.m_pe_f(state3, search="general_restarts", seed=0, n_restarts=2),
                  headline_check)

    # two-mode exact batch: seeded free states, then NOON 2
    batch = [bps.random_particle_separable(2, 1 + i % 4, 1 + i % 3,
                                           int(rng.integers(0, 2**31)))
             for i in range(12)]
    noon2 = bps.noon_state(2).to_block_state()
    batch.append(noon2)

    def batch_check(values):
        worst = max(values[:-1])
        return ck.first_failure(
            None if worst <= 1e-6 else f"free state gives monotone {worst!r} > 1e-6",
            None if abs(values[-1] - 4.0) <= 1e-8 else f"NOON 2 gives {values[-1]!r}, not 4",
        )

    # vacuum-padded NOON 2 searched from the padded two-mode optimum
    noon_opt = bpm.m_pe_f(noon2)
    padded = bpo.append_vacuum(noon2, 1)
    h_pad = np.zeros((3, 3), dtype=complex)
    h_pad[:2, :2] = noon_opt.h[:2, :2]

    def padded_check(res):
        return None if abs(res.value - noon_opt.value) <= 1e-8 else \
            f"padded search gives {res.value!r}, two-mode value {noon_opt.value!r}"

    # QFI of a coherent spin state at 8 modes and 5 particles
    psi8 = _direction(8, rng)
    css = bps.coherent_spin_state(bps.CoherentSpinSpec(psi8, 5)).to_block_state()
    h8 = rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8))
    h8 = (h8 + h8.conj().T) / 2
    h8 /= np.max(np.abs(np.linalg.eigvalsh(h8)))
    obs8 = bpm.SingleParticleObservable(h8)

    def css_run():
        gen = bpm.collective_generator(obs8, 8, css.max_particles)
        return bpm.qfi(css, gen), bpm.single_particle_variance(css, obs8)

    def search_check(value):
        return None if 1e-6 <= value <= 0.5 else \
            f"activation search on NOON 2 gives {value!r}, outside [1e-6, 0.5]"

    sweep = [
        Op("two_mode_exact", lambda: [bpm.m_pe_f(s).value for s in batch], batch_check),
        Op("noon_padded_warm",
           lambda: bpm.m_pe_f(padded, search="general_restarts", seed=5, n_restarts=0,
                              warm_starts=[h_pad]),
           padded_check),
        Op("css_qfi_8x5", css_run,
           lambda out: ck.check_css_fisher(out[0], out[1], psi8, h8)),
        Op("activation_search",
           lambda: bpa.m_pe_from_activation(noon2, n_va_restarts=1, seed=0),
           search_check),
    ]

    def warm():
        _warm_bases(8, 6)
        for m, top in ((2, 4), (3, 2), (8, 5)):
            for n in range(1, top + 1):
                bpm.second_quantized(np.zeros((m, m)), m, n)

    return Workload("monotone", headline, sweep, warm, headline_repeats=4)


# ---------------------------------------------------------------------------
# classical bounds


def _definetti_specs(n: int, m: int):
    """Criterion 6's two exchangeable specs: uniform, and half e_0 + half uniform."""
    uniform = np.ones(m) / math.sqrt(m)
    return (((1.0, uniform),),
            ((0.5, np.eye(m)[0].astype(complex)), (0.5, uniform)))


def classical_bounds(seed: int, workdir: str) -> Workload:
    rng = np.random.default_rng(seed)
    headline_terms = _definetti_specs(4, 4)[1]
    headline_spec = bpn.ExchangeableSeparableSpec(4, 4, headline_terms)
    headline = Op("definetti_4_4_4",
                  lambda: bpn.definetti_classical_approx(headline_spec, 4),
                  lambda r: ck.check_definetti(r.distance, 4, 4, r.truncation_mass))

    cells = []
    for m in (2, 3, 4):
        for n in (1, 2, 3, 4):
            for terms in _definetti_specs(n, m):
                for l in range(1, m + 1):
                    if m == 4 and l == 4:
                        continue  # the slow column; its hardest cell is the headline
                    cells.append((n, m, l, terms, bpn.ExchangeableSeparableSpec(n, m, terms)))

    def grid_check(results):
        for (n, m, l, terms, _), r in zip(cells, results):
            bad = ck.check_definetti(r.distance, l, m, r.truncation_mass)
            if bad is None and l == 1:
                bad = ck.check_definetti_one_mode(r.distance, n, m, terms)
            if bad is not None:
                return f"cell (m={m}, N={n}, l={l}): {bad}"
        return None

    bp_cells = [(n, float(p)) for n in range(1, 101) for p in np.linspace(0.005, 0.5, 20)]

    def bp_check(results):
        for (n, p), r in zip(bp_cells, results):
            bad = ck.check_binomial_poisson(r.distance, n, p)
            if bad is not None:
                return bad
        return None

    # two-term classical mixture with fixed mean particle numbers 0.25 and 0.16
    mixture = [(0.6, 0.5 * _direction(2, rng)), (0.4, 0.4 * _direction(2, rng))]

    def many_copy_check(reports):
        for rep in reports:
            bad = ck.check_many_copy(rep.classical_distance_upper_bound, rep.k)
            if bad is not None:
                return bad
        return None

    sweep = [
        Op("definetti_grid",
           lambda: [bpn.definetti_classical_approx(spec, l) for _, _, l, _, spec in cells],
           grid_check),
        Op("binomial_poisson_grid",
           lambda: [bpn.binomial_poisson_distance(n, p) for n, p in bp_cells], bp_check),
        Op("many_copy_k1_4",
           lambda: [bpn.many_copy_nc_bound_check(mixture, k) for k in range(1, 5)],
           many_copy_check),
    ]

    def warm():
        _warm_bases(4, 10)
        bpn.binomial_poisson_distance(2, 0.1)
        bpn.definetti_classical_approx(
            bpn.ExchangeableSeparableSpec(1, 2, _definetti_specs(1, 2)[0]), 1)

    return Workload("classical_bounds", headline, sweep, warm)


# ---------------------------------------------------------------------------
# witness


def _axis_moments(moments) -> dict:
    return {a: (x.mean_a, x.mean_b, x.var_a, x.var_b, x.cov_ab, x.n_shots)
            for a, x in moments.axes.items()}


def _capture_cli(argv) -> tuple[int, str]:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = bpc.main(argv)
    return code, buf.getvalue()


def witness(seed: int, workdir: str) -> Workload:
    squeezed = bpw.synthesize_dataset("squeezed", n_atoms=100, n_shots=10000,
                                      seed=WITNESS_SEED, xi2=0.25)
    sq_params = bpw.optimize_witness_params(squeezed)
    sq_spins = ck.spins_from_csv(bpw.dataset_to_csv(squeezed), squeezed.eta_a,
                                 squeezed.eta_b)
    css = bpw.synthesize_dataset("css", n_atoms=100, n_shots=10000, seed=WITNESS_SEED)
    seeded = bpw.synthesize_dataset("squeezed", n_atoms=100, n_shots=3000, seed=seed,
                                    xi2=0.25)

    headline = Op("lower_bound_1e4_shots",
                  lambda: bpw.pe_lower_bound(squeezed, sq_params, n_bootstrap=1000,
                                             seed=seed),
                  lambda r: ck.check_squeezed_bound(r.bound, r.bootstrap_se))

    def shots_check(n):
        def check(data):
            counts = {a: sum(1 for s in data.shots if s.setting == a) for a in "xyz"}
            return None if counts == {a: n // 3 for a in "xyz"} else \
                f"synthesized shots per axis {counts}, expected {n // 3} each"
        return check

    def round_trip():
        text = bpw.dataset_to_csv(seeded)
        back = bpw.dataset_from_csv(text, bpw.dataset_metadata_json(seeded))
        return text, back, bpw.estimate_moments(back)

    def round_trip_check(out):
        text, back, moments = out
        return ck.check_moments(_axis_moments(moments), text, back.eta_a, back.eta_b)

    def css_bound():
        params = bpw.optimize_witness_params(css)
        return bpw.pe_lower_bound(css, params, n_bootstrap=1000, seed=1)

    csv_path = os.path.join(workdir, "shots.csv")
    meta_path = os.path.join(workdir, "shots_meta.json")
    cli_seed = str(seed)

    def cli_run():
        synth = _capture_cli(["witness", "synth", "--model", "squeezed", "--shots", "3000",
                              "--seed", str(WITNESS_SEED), "--out", csv_path])
        bound = _capture_cli(["witness", "bound", "--data", csv_path, "--meta", meta_path,
                              "--optimize", "--bootstrap", "200", "--seed", cli_seed])
        return synth, bound

    def cli_check(out):
        (c1, t1), (c2, t2) = out
        if (c1, c2) != (0, 0):
            return f"CLI exit codes {c1}, {c2}"
        if json.loads(t1)["shots"] != 3000:
            return f"witness synth reports {json.loads(t1)['shots']} shots, not 3000"
        with open(csv_path) as fh, open(meta_path) as fm:
            data = bpw.dataset_from_csv(fh.read(), fm.read())
        params = bpw.optimize_witness_params(data)
        res = bpw.pe_lower_bound(data, params, n_bootstrap=200, seed=int(cli_seed))
        return ck.check_same_json(json.loads(t2), {
            "bound": res.bound, "witness_expectation": res.witness_expectation,
            "normalization": res.normalization, "g_z": params.g_z, "g_y": params.g_y,
            "separability_ratio": bpw.separability_ratio(data, params),
            "bootstrap_se": res.bootstrap_se,
        })

    sweep = [
        Op("synth_squeezed",
           lambda: bpw.synthesize_dataset("squeezed", n_shots=3000, seed=seed, xi2=0.25),
           shots_check(3000)),
        Op("synth_css", lambda: bpw.synthesize_dataset("css", n_shots=3000, seed=seed + 1),
           shots_check(3000)),
        Op("constant_bound",
           lambda: bpw.pe_lower_bound(bpw.synthesize_dataset("constant"),
                                      bpw.WitnessParams(1.0, 1.0), n_bootstrap=0),
           lambda r: ck.check_constant_bound(r.bound)),
        Op("csv_round_trip", round_trip, round_trip_check),
        Op("optimize_params", lambda: bpw.optimize_witness_params(squeezed),
           lambda p: ck.check_optimized_ratio(sq_spins, p.g_z, p.g_y)),
        Op("css_bound_1e4_shots", css_bound,
           lambda r: ck.check_css_bound(r.bound, r.bootstrap_se)),
        Op("cli_synth_bound", cli_run, cli_check),
    ]

    def warm():
        const = bpw.synthesize_dataset("constant")
        bpw.pe_lower_bound(const, bpw.WitnessParams(1.0, 1.0), n_bootstrap=2)
        bpc.build_parser()

    return Workload("witness", headline, sweep, warm, headline_repeats=2,
                    min_passes=14)


WORKLOADS = {
    "activation": activation,
    "monotone": monotone,
    "classical_bounds": classical_bounds,
    "witness": witness,
}


def build(name: str, seed: int, workdir: str) -> Workload:
    return WORKLOADS[name](seed, workdir)
