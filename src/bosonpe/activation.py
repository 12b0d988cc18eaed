"""Activation of particle entanglement into SSR-accessible mode entanglement.

The protocol appends one vacuum mode per input mode, applies an optional
rotation V_A on the input modes followed by an array of beam splitters
coupling input mode i with vacuum mode i, and hands the original modes to
party A and the new modes to party B.  Particle-separable inputs always
yield SSR-separable outputs; any other input yields accessible entanglement
for non-degenerate beam splitters.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from itertools import product

import numpy as np

from .fock import (
    BLOCK_DROP_TOL,
    DESK,
    UNCAPPED,
    BlockDiagonalState,
    DeskCaps,
    FockBasis,
    ModePartition,
    SectorDecomposition,
    ValidationError,
    _MAX_BLOCK_DIM,
    _check_block_state,
    _check_count,
    _check_real,
    _check_seed,
    _counts,
    _gate_support,
    _local_number_layout,
    _pair,
    enumerate_basis,
    project_local_number,
)
from .optics import (
    BeamSplitterArray,
    ModeUnitary,
    _haar_matrix,
    append_vacuum,
    apply_mode_unitary,
    balanced_array,
    beam_splitter_unitary,
    lift_unitary,
)
from .measures import (
    _sector_negativities,
    _shannon_entropy_bits,
    distance_to_candidate_set,
    sector_negativity,
    schmidt_spectrum,
)
from .states import _free_state, _log_multinomial

SSR_ENTANGLED_TOL = 1e-9


@dataclass(frozen=True)
class ActivationSpec:
    """Input state, pre-rotation V_A on its modes, and the splitter array."""

    input_state: BlockDiagonalState
    pre_rotation: ModeUnitary | None = None
    array: BeamSplitterArray | None = None

    def __post_init__(self):
        _check_block_state(self.input_state, "input_state")
        m = self.input_state.modes
        arr = self.array if self.array is not None else balanced_array(m)
        if len(arr) != m:
            raise ValidationError(f"need one beam splitter per mode ({m}), got {len(arr)}")
        if self.pre_rotation is not None and self.pre_rotation.modes != m:
            raise ValidationError("pre-rotation must act on the input modes")
        object.__setattr__(self, "array", arr)


@dataclass(frozen=True)
class ActivationReport:
    """The output, scored once per (N_A, N_B) sector by ``sector_negativity``;
    ``schmidt`` and ``e_ssr_entropy`` are built on first access."""

    output: BlockDiagonalState
    partition: ModePartition
    sectors: SectorDecomposition
    e_ssr_negativity: float
    ssr_entangled: bool
    sector_negativities: dict
    postselected: tuple | None = None

    @cached_property
    def schmidt(self) -> dict | None:
        """Each sector's ``schmidt_spectrum`` if the output's purity is >= 1 - 1e-10."""
        if self.output.purity() < 1.0 - 1e-10:
            return None
        return {key: schmidt_spectrum(s) for key, (_, s) in self.sectors.entries.items()}

    @cached_property
    def e_ssr_entropy(self) -> float | None:
        """The sector-weighted entropy of ``schmidt``; None if that is None."""
        if self.schmidt is None:
            return None
        return sum(p * _shannon_entropy_bits(self.schmidt[key])
                   for key, (p, _) in self.sectors.entries.items())


def activate(spec: ActivationSpec, postselect=None,
             caps: DeskCaps = DESK) -> ActivationReport:
    """Run the protocol and analyse the output across (N_A, N_B) sectors;
    ``postselect``, a pair of particle counts, also reports that sector."""
    if postselect is not None:
        postselect = _counts(_pair(postselect, "postselect"), "a post-selected particle number")
    m = spec.input_state.modes
    padded = append_vacuum(spec.input_state, m, caps=caps)
    out = apply_mode_unitary(padded, beam_splitter_unitary(spec.array, spec.pre_rotation))
    partition = ModePartition(tuple(range(m)), tuple(range(m, 2 * m)))
    dec = project_local_number(out, partition)
    negativities = {key: sector_negativity(s) for key, (_, s) in dec.entries.items()}
    neg = float(sum(p * negativities[key] for key, (p, _) in dec.entries.items()))

    selected = None
    if postselect is not None:
        if postselect not in dec.entries:
            raise ValidationError(f"no weight in sector {postselect}")
        selected = (postselect, *dec.entries[postselect])

    return ActivationReport(
        output=out,
        partition=partition,
        sectors=dec,
        e_ssr_negativity=neg,
        ssr_entangled=neg > SSR_ENTANGLED_TOL,
        sector_negativities=negativities,
        postselected=selected,
    )


def activate_pure_vector(occupation, array: BeamSplitterArray,
                         pre_rotation: ModeUnitary | None = None,
                         caps: DeskCaps = DESK):
    """Activated state vector for a Fock input, on the 2m-mode sector basis."""
    occupation = _counts(occupation)
    m = len(occupation)
    N = sum(occupation)
    basis = enumerate_basis(2 * m, N, caps)
    column = basis.index(occupation + (0,) * m)
    return basis, lift_unitary(beam_splitter_unitary(array, pre_rotation), N, caps=caps,
                               columns=[column])[:, 0]


def fock_activation_amplitudes(occupation, alphas, sector) -> dict:
    """Closed-form amplitudes for splitting a Fock state among parties.

    ``alphas[K][i]`` is the coefficient with which input mode i feeds party
    K's mode i (columns must be normalized: sum_K |alpha_Ki|^2 = 1).  Returns
    the unnormalized amplitudes of the joint state conditioned on the local
    particle numbers in ``sector``; keys are tuples of per-party occupations.
    The squared amplitudes sum to the sector probability.
    """
    occupation = _counts(occupation)
    alphas = np.asarray(alphas, dtype=complex)
    parties, m = alphas.shape
    if m != len(occupation):
        raise ValidationError("alpha columns must match the input modes")
    sector = _counts(sector, "a local particle number")
    if len(sector) != parties:
        raise ValidationError("one local particle number per party")
    col_norms = np.sum(np.abs(alphas) ** 2, axis=0)
    if not np.max(np.abs(col_norms - 1.0)) <= 1e-10:
        raise ValidationError("per-mode coefficients must satisfy sum_K |alpha_Ki|^2 = 1")
    N = sum(occupation)
    if sum(sector) != N:
        raise ValidationError(
            f"sector totals {sector} do not add up to the particle number {N}"
        )

    prefactor = math.sqrt(math.exp(_log_multinomial(N, sector))
                          / math.exp(_log_multinomial(N, occupation)))
    out = {}
    # the ways to split each n_i among the parties, ascending lexicographically
    splits = [enumerate_basis(parties, n_i, UNCAPPED).occupations[::-1].tolist()
              for n_i in occupation]
    for assignment in product(*splits):
        # assignment[i][K] = particles of input mode i sent to party K
        per_party = tuple(
            tuple(assignment[i][K] for i in range(m)) for K in range(parties)
        )
        if tuple(sum(p) for p in per_party) != sector:
            continue
        amp = prefactor
        for K in range(parties):
            amp *= math.sqrt(math.exp(_log_multinomial(sector[K], per_party[K])))
            for i in range(m):
                n_ki = per_party[K][i]
                if n_ki:
                    amp = amp * alphas[K, i] ** n_ki
        out[per_party] = amp
    return out


def splitter_alphas(array: BeamSplitterArray, pre_rotation=None) -> np.ndarray:
    """Per-party substitution coefficients realized by the splitter array.

    Row 0 feeds party A, row 1 party B: the diagonals of the blocks of
    ``beam_splitter_unitary`` that take input mode i to A mode i (r_i) and
    to B mode i (-t_i).  Only valid without a pre-rotation, where each input
    mode feeds exactly one A/B mode pair.
    """
    if pre_rotation is not None:
        raise ValidationError("closed form applies to bare splitter arrays only")
    u, m = beam_splitter_unitary(array).matrix, len(array)
    return np.stack([np.diagonal(u[:m, :m]), np.diagonal(u[m:, :m])])


def _local_filter_weights(occupations: np.ndarray, r: np.ndarray) -> np.ndarray:
    """prod_i (sqrt(2) r_i)^{n_Ai} (sqrt(2) t_i)^{n_Bi} for each row of
    ``occupations`` (the m A modes, then the m B modes), at each reflectivity
    vector of the stack r (..., m): shape (..., len(occupations)).  The
    product runs over the 2m factors in mode order."""
    base = math.sqrt(2.0) * np.concatenate([r, np.sqrt(1.0 - r * r)], axis=-1)
    return np.multiply.reduce(base[..., None, :] ** occupations, axis=-1)


def local_filter_relation_check(occupation, r_vector, tol: float = 1e-9) -> bool:
    """General-r activation equals local filters applied to the balanced one.

    The filters are diagonal with weights prod_i (sqrt(2) r_i)^{n_Ai} on A and
    prod_i (sqrt(2) t_i)^{n_Bi} on B; degenerate splitters are rejected.
    """
    occupation = _counts(occupation)
    m = len(occupation)
    arr = BeamSplitterArray(tuple(r_vector))
    if len(arr) != m:
        raise ValidationError("need one reflectivity per mode")
    r = arr.reflectivities
    t = arr.transmissivities
    if any(x < 1e-12 for x in r) or any(x < 1e-12 for x in t):
        raise ValidationError("degenerate beam splitter: every r_i, t_i must be nonzero")

    basis, eta = activate_pure_vector(occupation, arr)
    _, xi = activate_pure_vector(occupation, balanced_array(m))
    filtered = xi * _local_filter_weights(basis.occupations, np.array(r))
    filtered /= np.linalg.norm(filtered)
    eta = eta / np.linalg.norm(eta)
    return bool(np.max(np.abs(eta - filtered)) <= tol)


def e_ssr_trace_lower_bound(report: ActivationReport) -> float:
    """Rigorous lower bound on the trace-distance SSR-entanglement.

    Per sector, the trace distance to separable states is at least the
    negativity divided by the A-side dimension (the partial transpose blows
    up the trace norm by at most that factor)."""
    total = 0.0
    for key, (p, s) in report.sectors.entries.items():
        total += p * report.sector_negativities[key] / s.dims[0]
    return float(total)


@dataclass(frozen=True)
class ActivationInequalityReport:
    e_ssr_lower: float
    m_pe_upper: float
    consistent: bool
    n_candidates: int


def activation_inequality_check(state: BlockDiagonalState,
                                spec: ActivationSpec | None = None,
                                n_candidates: int = 40,
                                seed=0) -> ActivationInequalityReport:
    """Numerical consistency check of the activation inequality.

    Lower-estimates the accessible entanglement of the activated state and
    upper-bounds the input's distance-based measure via a seeded candidate
    set; flags inconsistency only when the lower bound exceeds the upper.
    Raises ValidationError for fewer than one candidate or a seed that is
    not a nonnegative integer.
    """
    _check_seed(seed)
    _check_count(n_candidates, "n_candidates", 1)
    if spec is None:
        spec = ActivationSpec(state)
    report = activate(spec)
    e_lower = e_ssr_trace_lower_bound(report)

    rng = np.random.default_rng(seed)
    weights = {N: state.weight(N) for N in state.sectors()}
    candidates = [_free_state(state.modes, weights, 3, rng, DESK) for _ in range(n_candidates)]
    m_upper = distance_to_candidate_set(state, candidates)
    return ActivationInequalityReport(
        e_ssr_lower=e_lower,
        m_pe_upper=m_upper,
        consistent=e_lower <= m_upper + 1e-9,
        n_candidates=n_candidates,
    )


def _balanced_sectors(padded: BlockDiagonalState, vas: list) -> list:
    """The balanced-array activations of one input after each V_A of
    ``vas`` (None: the identity), stacked for ``_filtered_negativities``.
    ``padded`` is the input with its m vacuum modes appended.  Per block N:
    (p_N, occupations of the 2m-mode basis rows the sectors use,
    [(rows, F_s, d_A, d_B)] per (N_A, N_B) sector).  F_s, of shape
    (len(vas), sector rows, k), holds for each V_A the sector's rows of the
    block's factor F = V sqrt(lam), in the product order of
    ``fock._local_number_layout``, and the slice ``rows`` picks the same
    rows out of those occupations.  The layout depends only on (m, N) and p_N
    is the input's weight, so both are shared by every V_A; each V_A's
    factor is lifted alone and written into the stack.

    A sector with d_A = 1 or d_B = 1 (N_A = 0, N_B = 0 or m = 1), a product
    sector that ``_sector_negativities`` scores 0.0, is left out, as is a
    block with no other sector."""
    m = padded.modes // 2
    partition = ModePartition(tuple(range(m)), tuple(range(m, 2 * m)))
    layout = []
    for N in padded.sectors():
        used, sectors, start = [], [], 0
        for rows, ba, bb in _local_number_layout(2 * m, N, partition).values():
            if ba.dim == 1 or bb.dim == 1:
                continue
            used.append(rows)
            sectors.append((slice(start, start + len(rows)), ba.dim, bb.dim))
            start += len(rows)
        if sectors:
            used = np.concatenate(used)
            k = padded.factor(N)[1].size
            layout.append((N, used, sectors, np.empty((len(vas), len(used), k), dtype=complex)))

    for v, va in enumerate(vas):
        out = apply_mode_unitary(padded, beam_splitter_unitary(balanced_array(m), va))
        for N, used, _, stack in layout:
            V, lam = out.factor(N)
            stack[v] = (V * np.sqrt(lam))[used]
    return [(padded.weight(N), FockBasis(2 * m, N).occupations[used],
             [(rows, stack[:, rows], d_a, d_b) for rows, d_a, d_b in sectors])
            for N, used, sectors, stack in layout]


def _chunk_size(blocks: list) -> int:
    """Reflectivity vectors per ``_filtered_negativities`` call whose stacked
    sector arrays hold no more entries than one cap-corner dense block."""
    per_vector = 1
    for _, occupations, sectors in blocks:
        per_vector = max(per_vector, len(occupations))
        for _, f, d_a, d_b in sectors:
            d, k = d_a * d_b, f.shape[2]
            # the weighted factor rows, and a dense d x d matrix when k > 1
            per_vector = max(per_vector, d * k, d * d if k > 1 else 1)
    return max(1, _MAX_BLOCK_DIM**2 // per_vector)


def _filtered_negativities(blocks: list, r: np.ndarray, restart: np.ndarray) -> np.ndarray:
    """E_SSR negativity of the activation at each reflectivity vector of the
    stack r (B, m) after V_A number ``restart`` (B,) of the stacked balanced
    outputs of ``_balanced_sectors``.

    The splitter output at r is D(r) xi, with xi the balanced output and
    D(r) the local filter of ``_local_filter_weights``.  Each sector is
    dropped below BLOCK_DROP_TOL, as ``activate`` drops it, and otherwise
    scored by ``measures._sector_negativities`` on its stack of filtered
    factors; the weighted negativities are summed in sector order.  The
    product sectors ``_balanced_sectors`` leaves out would add zero.  Every
    step acts on each row alone, so a row scores as it does in any stack.
    """
    total = np.zeros(len(r))
    for p_n, occupations, sectors in blocks:
        w = _local_filter_weights(occupations, r)
        for rows, f, d_a, d_b in sectors:
            sub = w[:, rows, None] * f[restart]
            tr = (sub.conj() * sub).real.sum(axis=(1, 2))
            prob = p_n * tr
            if np.minimum.reduce(prob) >= BLOCK_DROP_TOL:
                total += prob * _sector_negativities(sub / np.sqrt(tr)[:, None, None], d_a, d_b)
                continue
            keep = np.flatnonzero(prob >= BLOCK_DROP_TOL)
            if keep.size:
                sub = sub[keep] / np.sqrt(tr[keep])[:, None, None]
                total[keep] += prob[keep] * _sector_negativities(sub, d_a, d_b)
    return total


def _grid_points(grid: np.ndarray, m: int, idx: np.ndarray) -> np.ndarray:
    """The grid-phase candidates numbered ``idx`` in search order: the
    product grid^m for m <= 2; otherwise each coordinate in turn swept over
    the grid around the balanced point, then the balanced point itself."""
    if m <= 2:
        return grid[np.stack(np.unravel_index(idx, (len(grid),) * m), axis=-1)]
    out = np.full((len(idx), m), 1.0 / math.sqrt(2.0))
    sweep = idx < m * len(grid)
    out[sweep, idx[sweep] // len(grid)] = grid[idx[sweep] % len(grid)]
    return out


def _compass_pass(blocks: list, chunk: int, r: list, val: list, step: list, pos: list,
                  live: list) -> list:
    """One lockstep pass of the compass walks ``live``, indices into the
    per-walk lists r (coordinate lists), val, step and pos.

    Each live walk tries, for its coordinates pos..m-1 in turn, r_i + step
    and then r_i - step, clipped to [1e-6, 1 - 1e-6] (a probe the clip
    leaves at r_i is skipped).  The probes of all live walks are scored
    together, ``chunk`` rows per ``_filtered_negativities`` call.  Each walk
    moves to its first probe that scores above its val and sets pos past
    that coordinate; its later probes are dropped from the calls still to
    come.  r, val and pos are updated in place; returns, per live walk,
    whether it moved."""
    rows, owners, coords = [], [], []
    for v in live:
        here = r[v]
        for i in range(pos[v], len(here)):
            for delta in (step[v], -step[v]):
                x = min(max(here[i] + delta, 1e-6), 1.0 - 1e-6)
                if x != here[i]:
                    rows.append(here[:i] + [x] + here[i + 1:])
                    owners.append(v)
                    coords.append(i)

    moved = set()
    todo = list(range(len(rows)))
    while todo:
        take, todo = todo[:chunk], todo[chunk:]
        vals = _filtered_negativities(blocks, np.array([rows[j] for j in take]),
                                      np.array([owners[j] for j in take]))
        for j, score in zip(take, vals.tolist()):
            v = owners[j]
            if v not in moved and score > val[v]:
                r[v], val[v], pos[v] = rows[j], score, coords[j] + 1
                moved.add(v)
        todo = [j for j in todo if owners[j] not in moved]
    return [v in moved for v in live]


def _stacked_search(blocks: list, walks: int, m: int, grid: np.ndarray, count: int,
                    grid_step: float) -> list:
    """The best value each of the ``walks`` V_A stacked in ``blocks`` reaches
    on m modes: the grid best of its ``count`` candidates, refined by its
    compass walk.

    The grid candidates of every V_A go in one stack, ``_chunk_size`` rows
    per call, and each V_A keeps the first maximum among its own rows.  The
    compass walks then advance in lockstep, one ``_compass_pass`` per
    scoring round.  A walk whose pass ends its round (a move at the last
    coordinate to visit, or no move) starts its next round at coordinate 0
    in the next pass, at the same step after a round with a move and at
    half the step after one without; it stops once its step falls below
    1e-5.  Each walk thus scores the probes, and makes the moves, it would
    make alone."""
    chunk = _chunk_size(blocks)
    r, val = [None] * walks, [-1.0] * walks
    for lo in range(0, walks * count, chunk):
        row = np.arange(lo, min(lo + chunk, walks * count))
        restart = row // count
        points = _grid_points(grid, m, row % count)
        vals = _filtered_negativities(blocks, points, restart)
        firsts = np.flatnonzero(np.diff(restart, prepend=-1)).tolist()
        for a, b in zip(firsts, [*firsts[1:], len(row)]):
            k = a + int(np.argmax(vals[a:b]))
            v = int(restart[a])
            if vals[k] > val[v]:
                r[v], val[v] = points[k].tolist(), float(vals[k])

    step, pos, gained = [grid_step / 2.0] * walks, [0] * walks, [False] * walks
    live = [v for v in range(walks) if step[v] >= 1e-5]
    while live:
        for v, moved in zip(live, _compass_pass(blocks, chunk, r, val, step, pos, live)):
            gained[v] |= moved
            if not moved or pos[v] == m:  # the round is over
                if not gained[v]:
                    step[v] /= 2.0
                pos[v], gained[v] = 0, False
        live = [v for v in live if step[v] >= 1e-5]
    return val


def m_pe_from_activation(state: BlockDiagonalState, n_va_restarts: int = 4,
                         seed=0, grid_step: float = 0.05) -> float:
    """Best SSR-entanglement (negativity) found over activation unitaries.

    For each V_A (identity plus seeded Haar restarts), sweep the
    reflectivity vector on a coarse grid, then refine the grid best by a
    compass search on [1e-6, 1 - 1e-6]: each coordinate in turn tries
    +step and -step and moves on the first improvement; a step that improves
    nowhere is halved, from grid_step / 2 until it falls below 1e-5.  A lower
    bound on the supremum; deterministic given the seed, and non-decreasing
    in the restart budget for a fixed seed.

    Every candidate is scored through the local-filter identity: the output
    at reflectivities r is D(r) xi, with xi the balanced-array output and
    D(r) diagonal on the 2m-mode basis with entries
    prod_i (sqrt(2) r_i)^{n_Ai} (sqrt(2) t_i)^{n_Bi}.  The vacuum append and
    the balanced splitter are built once; each V_A lifts its xi once, and
    the factors of all V_A are stacked (``_balanced_sectors``).  The restarts
    then search as one: every restart's grid goes in one batch of
    reflectivity vectors, and their compass walks advance in lockstep, each
    pass scoring the +/- probes of every walk's coordinates still to visit
    in one stack (``_stacked_search``).  The scorer takes a restart index
    per row, and a row scores as it does alone, so every restart follows
    the walk it would follow alone.  A group of stacked restarts holds at
    most one desk block (1716^2 entries) of factors; further restarts go in
    further groups, one after another, so many restarts cost time, not
    memory.
    Only sectors with d_A, d_B >= 2 are scored; the others are product
    states.  On one mode, or with no block of two or more particles, there
    is no such sector and the result is 0.0, returned after the argument
    checks without scoring a candidate.
    ``grid_step`` must lie in (0, 1), ``n_va_restarts`` be a nonnegative
    integer and the seed a nonnegative integer; a grid of more than 1e6
    candidates raises DeskScaleError before anything is allocated.
    """
    _check_block_state(state)
    grid_step = _check_real(grid_step, "grid_step", 0.0, 1.0, "()")
    _check_count(n_va_restarts, "n_va_restarts")
    m = state.modes
    n_grid = (1.0 - grid_step) / grid_step  # inf for a subnormal grid_step
    _gate_support(n_grid, "grid points of grid_step=%r", grid_step)
    n_grid = math.ceil(n_grid)  # len(np.arange(grid_step, 1, grid_step))
    count = n_grid**m if m <= 2 else m * n_grid + 1
    _gate_support(count, "grid candidates of grid_step=%r on %d modes", grid_step, m)
    _check_seed(seed)
    if m == 1 or state.max_particles < 2:
        return 0.0
    rng = np.random.default_rng(seed)
    vas = [None] + [ModeUnitary(_haar_matrix(m, rng)) for _ in range(n_va_restarts)]

    padded = append_vacuum(state, m)
    # entries of one V_A's lifted factors, a bound on its share of a stack
    per_va = sum(FockBasis(2 * m, N).dim * padded.factor(N)[1].size
                 for N in padded.sectors())
    group = max(1, _MAX_BLOCK_DIM**2 // per_va)
    best = 0.0
    grid = np.arange(grid_step, 1.0, grid_step)
    for lo in range(0, len(vas), group):
        # the stacks of one group are freed before the next group's are built
        walks = vas[lo:lo + group]
        best = max([best, *_stacked_search(_balanced_sectors(padded, walks), len(walks), m,
                                           grid, count, grid_step)])
    return best
