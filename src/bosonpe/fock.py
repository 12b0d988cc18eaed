"""Number-diagonal bosonic states on a small number of modes.

States are stored as direct sums over total-particle-number sectors, which
enforces the number superselection rule by construction.  The basis within
each sector is the set of occupation vectors in lexicographically descending
order, fixed once and for all so that serialized states are portable.

Everything here is immutable after construction and every operation is a
pure function, so values can be shared freely between threads.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

HERMITICITY_TOL = 1e-12
PSD_TOL = 1e-10
WEIGHT_TOL = 1e-12
BLOCK_DROP_TOL = 1e-14
# Renormalizations below this deviation are skipped so that valid states
# survive a JSON round trip bit for bit.
RENORM_TOL = 1e-13


class ValidationError(ValueError):
    """An input violates a documented precondition."""


class DeskScaleError(ValidationError):
    """A request exceeds the dense desk-scale caps."""


@dataclass(frozen=True)
class DeskCaps:
    """Caps on dense sector sizes.  Override to go beyond desk scale."""

    max_particles: int = 6
    max_modes: int = 8


DESK = DeskCaps()
UNCAPPED = DeskCaps(max_particles=10**9, max_modes=10**9)


def _desk_caps_at_least(particles: int, modes: int) -> DeskCaps:
    """The desk caps, raised where needed to admit (particles, modes)."""
    return DeskCaps(max_particles=max(particles, DESK.max_particles),
                    max_modes=max(modes, DESK.max_modes))


def _freeze(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


@lru_cache(maxsize=None)
def _basis_states(m: int, n: int) -> tuple[tuple[int, ...], ...]:
    if m == 1:
        return ((n,),)
    out = []
    for first in range(n, -1, -1):
        for rest in _basis_states(m - 1, n - first):
            out.append((first,) + rest)
    return tuple(out)


@dataclass(frozen=True)
class FockBasis:
    """Occupation-number basis of the N-particle sector on m modes."""

    modes: int
    particles: int
    states: tuple[tuple[int, ...], ...]

    @property
    def dim(self) -> int:
        return len(self.states)

    def index(self, occupation) -> int:
        return _basis_index(self.modes, self.particles)[tuple(occupation)]

    def __contains__(self, occupation) -> bool:
        return tuple(occupation) in _basis_index(self.modes, self.particles)


@lru_cache(maxsize=None)
def _basis_index(m: int, n: int) -> dict[tuple[int, ...], int]:
    return {occ: i for i, occ in enumerate(_basis_states(m, n))}


def enumerate_basis(m: int, N: int, caps: DeskCaps = DESK) -> FockBasis:
    """Canonical basis of the (m, N) sector, lexicographically descending."""
    if m < 1:
        raise ValidationError(f"need at least one mode, got m={m}")
    if N < 0:
        raise ValidationError(f"particle number must be nonnegative, got N={N}")
    if N > caps.max_particles or m > caps.max_modes:
        raise DeskScaleError(
            f"sector (m={m}, N={N}) exceeds desk caps "
            f"(max_modes={caps.max_modes}, max_particles={caps.max_particles}); "
            "pass explicit DeskCaps to override"
        )
    return FockBasis(m, N, _basis_states(m, N))


def canonical_phase(vec: np.ndarray, tol: float = 1e-12) -> np.ndarray:
    """Rescale a global phase so the first non-tiny amplitude is real positive."""
    for x in vec:
        if abs(x) > tol:
            return vec * (abs(x) / x)
    return vec.copy()


@dataclass(frozen=True)
class PureSectorState:
    """Unit vector in one fixed-N sector."""

    basis: FockBasis
    amplitudes: np.ndarray

    def __post_init__(self):
        amps = np.asarray(self.amplitudes, dtype=complex)
        if amps.shape != (self.basis.dim,):
            raise ValidationError(
                f"expected {self.basis.dim} amplitudes, got shape {amps.shape}"
            )
        nrm = np.linalg.norm(amps)
        if abs(nrm - 1.0) > 1e-12:
            raise ValidationError(f"state not normalized: |norm - 1| = {abs(nrm - 1.0):.3e}")
        object.__setattr__(self, "amplitudes", _freeze(amps))

    @property
    def modes(self) -> int:
        return self.basis.modes

    @property
    def particles(self) -> int:
        return self.basis.particles

    def canonicalized(self) -> "PureSectorState":
        return PureSectorState(self.basis, canonical_phase(self.amplitudes))

    def density(self) -> np.ndarray:
        return np.outer(self.amplitudes, self.amplitudes.conj())

    def to_block_state(self) -> "BlockDiagonalState":
        return BlockDiagonalState(self.modes, {self.particles: (1.0, self.density())})


def _validate_block(mat: np.ndarray, dim: int, N: int) -> np.ndarray:
    if mat.shape != (dim, dim):
        raise ValidationError(f"block N={N} has shape {mat.shape}, expected ({dim}, {dim})")
    if np.max(np.abs(mat - mat.conj().T)) > HERMITICITY_TOL * max(1.0, np.max(np.abs(mat))):
        raise ValidationError(f"block N={N} not Hermitian within {HERMITICITY_TOL}")
    mat = (mat + mat.conj().T) / 2
    evals = np.linalg.eigvalsh(mat)
    if evals.min() < -PSD_TOL:
        raise ValidationError(f"block N={N} not PSD: min eigenvalue {evals.min():.3e}")
    tr = np.trace(mat).real
    if abs(tr - 1.0) > 1e-9:
        raise ValidationError(f"block N={N} trace {tr} not 1")
    return _unit_trace(mat)


def _unit_trace(mat: np.ndarray) -> np.ndarray:
    """Rescale to unit trace unless already within RENORM_TOL of it."""
    tr = np.trace(mat).real
    return mat / tr if abs(tr - 1.0) > RENORM_TOL else mat


class BlockDiagonalState:
    """Mixed bosonic state {N -> (weight p_N, density matrix on sector N)}.

    Block-diagonal in total particle number by construction, i.e. the state
    commutes with the number operator.
    """

    __slots__ = ("modes", "blocks")

    def __init__(self, modes: int, blocks: dict, caps: DeskCaps = DESK):
        if modes < 1:
            raise ValidationError("need at least one mode")
        cleaned = {}
        total = 0.0
        for N, (p, mat) in sorted(blocks.items()):
            p = float(p)
            if p < -WEIGHT_TOL:
                raise ValidationError(f"negative weight {p} for block N={N}")
            total += p
            if p < BLOCK_DROP_TOL:
                continue
            basis = enumerate_basis(modes, int(N), caps)
            cleaned[int(N)] = (p, _validate_block(np.asarray(mat, dtype=complex), basis.dim, N))
        if abs(total - 1.0) > WEIGHT_TOL:
            raise ValidationError(f"block weights sum to {total}, not 1")
        kept = sum(p for p, _ in cleaned.values())
        if not cleaned:
            raise ValidationError("all blocks dropped; state has no weight")
        if abs(kept - 1.0) > RENORM_TOL:
            cleaned = {N: (p / kept, mat) for N, (p, mat) in cleaned.items()}
        object.__setattr__(self, "modes", modes)
        object.__setattr__(self, "blocks", {N: (p, _freeze(mat)) for N, (p, mat) in cleaned.items()})

    @classmethod
    def _trusted(cls, modes: int, blocks: dict) -> "BlockDiagonalState":
        """Build from blocks that are valid by construction, skipping the checks.

        Only for results of operations that map a validated state to a valid
        one (vacuum re-indexing, isometric conjugation): the weights are kept
        as given, and each block is only symmetrised and renormalised exactly
        as ``_validate_block`` would, so a valid block comes out unchanged.
        """
        state = object.__new__(cls)
        object.__setattr__(state, "modes", modes)
        object.__setattr__(state, "blocks", {
            N: (p, _freeze(_unit_trace((mat + mat.conj().T) / 2)))
            for N, (p, mat) in sorted(blocks.items())
        })
        return state

    def __setattr__(self, *_):
        raise AttributeError("BlockDiagonalState is immutable")

    def sectors(self) -> list[int]:
        return sorted(self.blocks)

    @property
    def max_particles(self) -> int:
        return max(self.blocks)

    def weight(self, N: int) -> float:
        return self.blocks.get(N, (0.0, None))[0]

    def block(self, N: int) -> np.ndarray:
        return self.blocks[N][1]

    def mean_particle_number(self) -> float:
        return sum(p * N for N, (p, _) in self.blocks.items())

    def purity(self) -> float:
        # Tr rho^2 = sum_ij |rho_ij|^2 for Hermitian rho
        return sum(p**2 * np.vdot(mat, mat).real for p, mat in self.blocks.values())

    def allclose(self, other: "BlockDiagonalState", tol: float = 1e-10) -> bool:
        if self.modes != other.modes:
            return False
        keys = set(self.blocks) | set(other.blocks)
        for N in keys:
            pa, pb = self.weight(N), other.weight(N)
            if abs(pa - pb) > tol:
                return False
            if pa > tol and pb > tol:
                if np.max(np.abs(pa * self.block(N) - pb * other.block(N))) > tol:
                    return False
        return True


def vacuum_state(modes: int = 1) -> BlockDiagonalState:
    return BlockDiagonalState(modes, {0: (1.0, np.array([[1.0 + 0j]]))})


def fock_state(occupation, caps: DeskCaps = DESK) -> PureSectorState:
    """|n_0, ..., n_{m-1}> as a pure sector state."""
    occupation = tuple(int(x) for x in occupation)
    if any(n < 0 for n in occupation):
        raise ValidationError(f"occupations must be nonnegative: {occupation}")
    basis = enumerate_basis(len(occupation), sum(occupation), caps)
    amps = np.zeros(basis.dim, dtype=complex)
    amps[basis.index(occupation)] = 1.0
    return PureSectorState(basis, amps)


def _normalized_blocks(acc: dict) -> tuple[dict, float]:
    """{N: matrix} -> ({N: (trace / total trace, matrix / trace)}, total trace),
    dropping blocks whose trace is at most BLOCK_DROP_TOL."""
    traces = {N: np.trace(mat).real for N, mat in acc.items()}
    total = sum(traces.values())
    blocks = {N: (tr / total, acc[N] / tr) for N, tr in traces.items() if tr > BLOCK_DROP_TOL}
    return blocks, total


def mix_states(pairs) -> BlockDiagonalState:
    """Convex mixture of block-diagonal states on a common mode count."""
    pairs = list(pairs)
    if not pairs:
        raise ValidationError("empty mixture")
    modes = pairs[0][1].modes
    if any(s.modes != modes for _, s in pairs):
        raise ValidationError("mixture components must share the mode count")
    if abs(sum(w for w, _ in pairs) - 1.0) > 1e-10:
        raise ValidationError("mixture weights must sum to 1")
    acc: dict[int, np.ndarray] = {}
    for w, s in pairs:
        for N, (p, mat) in s.blocks.items():
            acc[N] = acc.get(N, 0) + w * p * mat
    blocks, _ = _normalized_blocks(acc)
    return BlockDiagonalState(modes, blocks, caps=UNCAPPED)


def tensor_compose(s1: BlockDiagonalState, s2: BlockDiagonalState,
                   caps: DeskCaps = DESK) -> BlockDiagonalState:
    """Tensor product re-indexed into the combined (m1 + m2)-mode Fock basis.

    Block N of the output is the weight-convolution over N1 + N2 = N.
    """
    m1, m2 = s1.modes, s2.modes
    m = m1 + m2
    acc: dict[int, np.ndarray] = {}
    for N1, (p1, a) in s1.blocks.items():
        b1 = enumerate_basis(m1, N1, UNCAPPED)
        for N2, (p2, b) in s2.blocks.items():
            b2 = enumerate_basis(m2, N2, UNCAPPED)
            N = N1 + N2
            basis = enumerate_basis(m, N, caps)
            idx = [basis.index(occ1 + occ2) for occ1 in b1.states for occ2 in b2.states]
            small = np.kron(a, b)
            big = acc.setdefault(N, np.zeros((basis.dim, basis.dim), dtype=complex))
            big[np.ix_(idx, idx)] += p1 * p2 * small
    blocks, _ = _normalized_blocks(acc)
    return BlockDiagonalState(m, blocks, caps=caps)


@dataclass(frozen=True)
class ModePartition:
    """Disjoint ordered mode-index sets (A, B) covering all modes."""

    a_modes: tuple[int, ...]
    b_modes: tuple[int, ...]

    def __post_init__(self):
        a = tuple(int(i) for i in self.a_modes)
        b = tuple(int(i) for i in self.b_modes)
        if set(a) & set(b):
            raise ValidationError("partition sides must be disjoint")
        if len(set(a)) != len(a) or len(set(b)) != len(b):
            raise ValidationError("repeated mode index in partition")
        object.__setattr__(self, "a_modes", a)
        object.__setattr__(self, "b_modes", b)

    @property
    def modes(self) -> int:
        return len(self.a_modes) + len(self.b_modes)

    def check_covers(self, modes: int):
        if set(self.a_modes) | set(self.b_modes) != set(range(modes)):
            raise ValidationError(
                f"partition {self.a_modes}|{self.b_modes} does not cover modes 0..{modes - 1}"
            )


def split_occupation(occ, partition: ModePartition):
    return (tuple(occ[i] for i in partition.a_modes),
            tuple(occ[i] for i in partition.b_modes))


@dataclass(frozen=True)
class SectorState:
    """Normalized state on one (N_A, N_B) local-number sector.

    The matrix is indexed by the product basis |n_A> ⊗ |n_B| with row index
    ia * dim_b + ib; ``basis_a`` / ``basis_b`` give the factor bases.
    """

    basis_a: FockBasis
    basis_b: FockBasis
    matrix: np.ndarray

    def __post_init__(self):
        mat = np.asarray(self.matrix, dtype=complex)
        d = self.basis_a.dim * self.basis_b.dim
        if mat.shape != (d, d):
            raise ValidationError(f"sector matrix shape {mat.shape}, expected ({d}, {d})")
        object.__setattr__(self, "matrix", _freeze(mat))

    @property
    def dims(self) -> tuple[int, int]:
        return (self.basis_a.dim, self.basis_b.dim)

    def is_pure(self, tol: float = 1e-8) -> bool:
        return np.vdot(self.matrix, self.matrix).real >= 1.0 - tol

    def pure_vector(self) -> np.ndarray:
        evals, evecs = np.linalg.eigh(self.matrix)
        return evecs[:, -1]


@dataclass(frozen=True)
class SectorDecomposition:
    """Map (N_A, N_B) -> (probability, normalized sector state)."""

    entries: dict

    def __post_init__(self):
        total = sum(p for p, _ in self.entries.values())
        if abs(total - 1.0) > 1e-10:
            raise ValidationError(f"sector probabilities sum to {total}, not 1")

    def probability(self, key) -> float:
        return self.entries.get(tuple(key), (0.0, None))[0]

    def state(self, key) -> SectorState:
        return self.entries[tuple(key)][1]

    def keys(self):
        return sorted(self.entries)


def _sector_layout(state: BlockDiagonalState, partition: ModePartition):
    """For each block N, group basis indices by local numbers (N_A, N_B)."""
    partition.check_covers(state.modes)
    layout = {}
    for N in state.sectors():
        basis = enumerate_basis(state.modes, N, UNCAPPED)
        groups: dict[tuple[int, int], list] = {}
        for i, occ in enumerate(basis.states):
            na, nb = split_occupation(occ, partition)
            groups.setdefault((sum(na), sum(nb)), []).append((i, na, nb))
        layout[N] = groups
    return layout


def project_local_number(state: BlockDiagonalState,
                         partition: ModePartition) -> SectorDecomposition:
    """Local-number projection (P_{N_A} ⊗ P_{N_B}) ρ (P_{N_A} ⊗ P_{N_B})."""
    layout = _sector_layout(state, partition)
    ma, mb = len(partition.a_modes), len(partition.b_modes)
    entries = {}
    for N, (p, mat) in state.blocks.items():
        for (na, nb), members in layout[N].items():
            ba = enumerate_basis(max(ma, 1), na, UNCAPPED)
            bb = enumerate_basis(max(mb, 1), nb, UNCAPPED)
            # empty partition side behaves as a single vacuum mode
            dim_b = bb.dim
            idx = [t[0] for t in members]
            sub = mat[np.ix_(idx, idx)]
            tr = np.trace(sub).real
            prob = p * tr
            if prob < BLOCK_DROP_TOL:
                continue
            d = ba.dim * bb.dim
            big = np.zeros((d, d), dtype=complex)
            pos = [ba.index(t[1] if ma else (0,)) * dim_b + bb.index(t[2] if mb else (0,))
                   for t in members]
            big[np.ix_(pos, pos)] = sub / tr
            entries[(na, nb)] = (prob, SectorState(ba, bb, big))
    return SectorDecomposition(entries)


def dephase_local(state: BlockDiagonalState, partition: ModePartition,
                  caps: DeskCaps = DESK) -> BlockDiagonalState:
    """Remove coherences between different local particle numbers.

    Output is sum over (N_A, N_B) of the two-sided projections; idempotent.
    """
    layout = _sector_layout(state, partition)
    blocks = {}
    for N, (p, mat) in state.blocks.items():
        out = np.zeros_like(mat)
        for members in layout[N].values():
            idx = [t[0] for t in members]
            out[np.ix_(idx, idx)] = mat[np.ix_(idx, idx)]
        blocks[N] = (p, out)
    return BlockDiagonalState(state.modes, blocks, caps=UNCAPPED)


def trace_out(state: BlockDiagonalState, partition: ModePartition) -> BlockDiagonalState:
    """Partial trace over the B side of the partition."""
    layout = _sector_layout(state, partition)
    ma = len(partition.a_modes)
    if ma == 0:
        raise ValidationError("cannot trace out every mode")
    acc: dict[int, np.ndarray] = {}
    for N, (p, mat) in state.blocks.items():
        groups = layout[N]
        for (na, _nb), members in groups.items():
            ba = enumerate_basis(ma, na, UNCAPPED)
            out = acc.setdefault(na, np.zeros((ba.dim, ba.dim), dtype=complex))
            # only terms diagonal in n_B survive the trace
            by_nb: dict[tuple, list] = {}
            for i, a_occ, b_occ in members:
                by_nb.setdefault(b_occ, []).append((i, a_occ))
            for terms in by_nb.values():
                for i, a_occ in terms:
                    for j, a_occ2 in terms:
                        out[ba.index(a_occ), ba.index(a_occ2)] += p * mat[i, j]
    blocks, _ = _normalized_blocks(acc)
    return BlockDiagonalState(ma, blocks, caps=UNCAPPED)


def single_particle_rdm(s: PureSectorState) -> np.ndarray:
    """Single-particle reduced density matrix, entries <a_j† a_i>/N."""
    N = s.particles
    if N < 1:
        raise ValidationError("single-particle RDM needs at least one particle")
    m = s.modes
    lowered_basis = enumerate_basis(m, N - 1, UNCAPPED)
    lowered = np.zeros((m, lowered_basis.dim), dtype=complex)
    for i, occ in enumerate(s.basis.states):
        for mode in range(m):
            if occ[mode] == 0:
                continue
            target = list(occ)
            target[mode] -= 1
            j = lowered_basis.index(tuple(target))
            lowered[mode, j] += math.sqrt(occ[mode]) * s.amplitudes[i]
    rdm = (lowered @ lowered.conj().T) / N
    return (rdm + rdm.conj().T) / 2


def _complex_to_json(mat: np.ndarray) -> list:
    """Complex matrix as nested [[re, im], ...] rows of exact doubles."""
    return [[[float(x.real), float(x.imag)] for x in row] for row in mat]


def _complex_from_json(rows) -> np.ndarray:
    """Inverse of ``_complex_to_json``, bit for bit."""
    return np.array([[complex(re, im) for re, im in row] for row in rows])


def state_to_json(state: BlockDiagonalState) -> str:
    """Serialize to JSON; exact double-precision round trip."""
    blocks = []
    for N in state.sectors():
        p, mat = state.blocks[N]
        blocks.append({"N": N, "p": p, "matrix": _complex_to_json(mat)})
    return json.dumps({"modes": state.modes, "blocks": blocks})


def state_from_json(text: str, caps: DeskCaps = DESK) -> BlockDiagonalState:
    try:
        doc = json.loads(text)
        modes = int(doc["modes"])
        blocks = {}
        for entry in doc["blocks"]:
            blocks[int(entry["N"])] = (float(entry["p"]), _complex_from_json(entry["matrix"]))
    except (KeyError, TypeError, ValueError) as exc:
        raise ValidationError(f"malformed state JSON: {exc}") from exc
    return BlockDiagonalState(modes, blocks, caps=caps)
