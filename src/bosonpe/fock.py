"""Number-diagonal bosonic states on a small number of modes.

States are stored as direct sums over total-particle-number sectors, which
enforces the number superselection rule by construction.  The basis within
each sector is the set of occupation vectors in lexicographically descending
order, fixed once and for all so that serialized states are portable.  Every
block has factors (V, lam) with rho_N = V diag(lam) V† from birth: a dense
block is validated and factored once, where the user hands it in, and every
internal operation forms its factors directly, through ``_column_factors``
where columns are merged.  The dense matrix is built only when asked for.

Everything here is immutable after construction (a lazily built form is
cached, and rebuilding it gives the same value) and every operation is a
pure function, so values can be shared freely between threads.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from functools import lru_cache
from itertools import product

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
# largest dense block at the desk caps: C(8 + 6 - 1, 6) = 1716
_MAX_BLOCK_DIM = math.comb(DESK.max_modes + DESK.max_particles - 1, DESK.max_particles)


def _gate_dense(dim: int, what: str) -> None:
    """Raise DeskScaleError, before a dense dim x dim matrix of ``what`` is
    allocated, when dim exceeds the desk block size."""
    if dim > _MAX_BLOCK_DIM:
        raise DeskScaleError(f"{what} of dimension {dim} exceeds the desk block size "
                             f"{_MAX_BLOCK_DIM}")


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
        if not abs(nrm - 1.0) <= 1e-12:  # a NaN norm fails too
            raise ValidationError(f"state not normalized: |norm - 1| = {abs(nrm - 1.0):.3e}")
        object.__setattr__(self, "amplitudes", _freeze(amps))

    @property
    def modes(self) -> int:
        return self.basis.modes

    @property
    def particles(self) -> int:
        return self.basis.particles

    def density(self) -> np.ndarray:
        return np.outer(self.amplitudes, self.amplitudes.conj())

    def to_block_state(self) -> "BlockDiagonalState":
        """The one-block state, born factored: V is the amplitude column."""
        enumerate_basis(self.modes, self.particles)  # the desk caps still apply
        amps = self.amplitudes
        nrm2 = np.vdot(amps, amps).real
        if abs(nrm2 - 1.0) > RENORM_TOL:
            amps = amps / math.sqrt(nrm2)
        return BlockDiagonalState._factored(
            self.modes, {self.particles: (1.0, amps[:, None], np.ones(1))})


def _eigh_factors(mat: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(V, lam, evals) with mat ~ V diag(lam) V†, from one eigh on the support
    rows: evals are all its eigenvalues, lam those above the numerical-rank
    cutoff (support size times machine epsilon times the largest)."""
    support = np.flatnonzero(np.any(mat != 0, axis=1))
    evals, evecs = np.linalg.eigh(mat[np.ix_(support, support)])
    keep = evals > len(support) * np.finfo(float).eps * evals.max(initial=0.0)
    vecs = np.zeros((mat.shape[0], int(keep.sum())), dtype=complex)
    vecs[support] = evecs[:, keep]
    return vecs, evals[keep], evals


def _validate_block(mat: np.ndarray, dim: int, N: int) -> tuple:
    """(the symmetrised unit-trace block, V, lam), frozen, of a user-supplied
    block; the PSD check reads the eigenvalues of the eigh that gives V, lam."""
    if mat.shape != (dim, dim):
        raise ValidationError(f"block N={N} has shape {mat.shape}, expected ({dim}, {dim})")
    if not np.max(np.abs(mat - mat.conj().T)) <= HERMITICITY_TOL * max(1.0, np.max(np.abs(mat))):
        raise ValidationError(f"block N={N} not Hermitian within {HERMITICITY_TOL}")
    mat = (mat + mat.conj().T) / 2
    tr = np.trace(mat).real
    if not abs(tr - 1.0) <= 1e-9:
        raise ValidationError(f"block N={N} trace {tr} not 1")
    mat = _unit_trace(mat)
    V, lam, evals = _eigh_factors(mat)
    if not evals.min(initial=0.0) >= -PSD_TOL:
        raise ValidationError(f"block N={N} not PSD: min eigenvalue {evals.min():.3e}")
    return _freeze(mat), _freeze(V), _freeze(lam)


def _unit_trace(mat: np.ndarray) -> np.ndarray:
    """Rescale to unit trace unless already within RENORM_TOL of it."""
    tr = np.trace(mat).real
    return mat / tr if abs(tr - 1.0) > RENORM_TOL else mat


def _column_factors(X: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(V, mu) with X X† = V diag(mu) V†, V orthonormal, for columns X (d x T),
    with the cutoff of ``_eigh_factors`` (X X† has the nonzero rows of X as
    support).  For T < d, V = X Q mu^{-1/2} for the eigenpairs (Q, mu) of the
    Gram matrix X†X, read off the thin SVD of X so that V stays orthonormal
    for near-parallel columns; else one eigh of X X†."""
    if X.shape[1] < X.shape[0]:
        V, s, _ = np.linalg.svd(X, full_matrices=False)
        mu = s * s
        keep = mu > np.count_nonzero(X.any(axis=1)) * np.finfo(float).eps * mu.max(initial=0.0)
        return V[:, keep], mu[keep]
    return _eigh_factors(X @ X.conj().T)[:2]


def _normalized_state(modes: int, factors: dict):
    """{N: (V, mu)}, unnormalised blocks V diag(mu) V† -> their normalised
    state without blocks of trace <= BLOCK_DROP_TOL, or None if none is left."""
    kept = {N: float(mu.sum()) for N, (_, mu) in factors.items() if mu.sum() > BLOCK_DROP_TOL}
    norm = sum(kept.values())
    blocks = {N: (tr / norm, factors[N][0], factors[N][1] / tr) for N, tr in kept.items()}
    return BlockDiagonalState._factored(modes, blocks) if kept else None


class BlockDiagonalState:
    """Mixed bosonic state {N -> (weight p_N, density matrix on sector N)}.

    Block-diagonal in total particle number by construction, i.e. the state
    commutes with the number operator.

    Every block has factors (V, lam) with rho_N = V diag(lam) V†, V an
    orthonormal d x r matrix and lam > 0.  ``BlockDiagonalState(...)``
    validates user-supplied dense blocks and factors each by one eigh, keeping
    the validated matrix (so JSON round trips are bit-exact); every state the
    library builds is born factored through ``_factored``.  ``block(N)``,
    ``blocks`` and ``state_to_json`` build an exactly Hermitian dense block
    from the factors on first use, never above the desk block size.  A racing
    second build computes the same value, so states can be shared between
    threads.
    """

    __slots__ = ("modes", "_weights", "_dense", "_factors")

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
        if not abs(total - 1.0) <= WEIGHT_TOL:
            raise ValidationError(f"block weights sum to {total}, not 1")
        kept = sum(p for p, _ in cleaned.values())
        if not cleaned:
            raise ValidationError("all blocks dropped; state has no weight")
        if abs(kept - 1.0) > RENORM_TOL:
            cleaned = {N: (p / kept, b) for N, (p, b) in cleaned.items()}
        object.__setattr__(self, "modes", modes)
        object.__setattr__(self, "_weights", {N: p for N, (p, _) in cleaned.items()})
        object.__setattr__(self, "_dense", {N: b[0] for N, (_, b) in cleaned.items()})
        object.__setattr__(self, "_factors", {N: b[1:] for N, (_, b) in cleaned.items()})

    @classmethod
    def _factored(cls, modes: int, factors: dict) -> "BlockDiagonalState":
        """From {N: (p, V, lam)} that are valid by construction (orthonormal
        V, lam > 0 summing to 1, weights summing to 1); nothing is checked."""
        state = object.__new__(cls)
        object.__setattr__(state, "modes", modes)
        object.__setattr__(state, "_weights", {N: p for N, (p, _, _) in sorted(factors.items())})
        object.__setattr__(state, "_dense", {})
        object.__setattr__(state, "_factors", {
            N: (_freeze(V), _freeze(lam)) for N, (_, V, lam) in factors.items()})
        return state

    def __setattr__(self, *_):
        raise AttributeError("BlockDiagonalState is immutable")

    def sectors(self) -> list[int]:
        return list(self._weights)

    @property
    def max_particles(self) -> int:
        return max(self._weights)

    def weight(self, N: int) -> float:
        return self._weights.get(N, 0.0)

    def block(self, N: int) -> np.ndarray:
        """Dense density matrix of sector N, built from the factors on first use."""
        if N not in self._dense:
            V, lam = self._factors[N]
            _gate_dense(V.shape[0], f"block N={N} (use its factors)")
            # symmetrised in place: at most two d x d arrays are alive at once
            mat = (V * lam) @ V.conj().T
            mat += mat.conj().T
            mat /= 2
            self._dense[N] = _freeze(_unit_trace(mat))
        return self._dense[N]

    @property
    def blocks(self) -> dict:
        """{N: (p_N, dense block)}, every block built on first use."""
        return {N: (p, self.block(N)) for N, p in self._weights.items()}

    def factor(self, N: int) -> tuple[np.ndarray, np.ndarray]:
        """(V, lam) with block N = V diag(lam) V†, V orthonormal, lam > 0."""
        return self._factors[N]

    def mean_particle_number(self) -> float:
        return sum(p * N for N, p in self._weights.items())

    def purity(self) -> float:
        return sum(p**2 * np.sum(self.factor(N)[1] ** 2) for N, p in self._weights.items())

    def allclose(self, other: "BlockDiagonalState", tol: float = 1e-10) -> bool:
        if self.modes != other.modes:
            return False
        keys = set(self._weights) | set(other._weights)
        for N in keys:
            pa, pb = self.weight(N), other.weight(N)
            if abs(pa - pb) > tol:
                return False
            if pa > tol and pb > tol:
                if np.max(np.abs(pa * self.block(N) - pb * other.block(N))) > tol:
                    return False
        return True


def vacuum_state(modes: int = 1) -> BlockDiagonalState:
    return fock_state((0,) * modes).to_block_state()


def fock_state(occupation, caps: DeskCaps = DESK) -> PureSectorState:
    """|n_0, ..., n_{m-1}> as a pure sector state."""
    occupation = tuple(int(x) for x in occupation)
    if any(n < 0 for n in occupation):
        raise ValidationError(f"occupations must be nonnegative: {occupation}")
    basis = enumerate_basis(len(occupation), sum(occupation), caps)
    amps = np.zeros(basis.dim, dtype=complex)
    amps[basis.index(occupation)] = 1.0
    return PureSectorState(basis, amps)


def mix_states(pairs) -> BlockDiagonalState:
    """Convex mixture of block-diagonal states on a common mode count."""
    pairs = list(pairs)
    if not pairs:
        raise ValidationError("empty mixture")
    modes = pairs[0][1].modes
    if any(s.modes != modes for _, s in pairs):
        raise ValidationError("mixture components must share the mode count")
    if not all(w >= 0 for w, _ in pairs) or abs(sum(w for w, _ in pairs) - 1.0) > 1e-10:
        raise ValidationError("mixture weights must be nonnegative and sum to 1")
    columns: dict[int, list] = {}
    for w, s in pairs:
        for N in s.sectors():
            V, lam = s.factor(N)
            columns.setdefault(N, []).append(V * np.sqrt(w * s.weight(N) * lam))
    return _normalized_state(
        modes, {N: _column_factors(np.hstack(cols)) for N, cols in columns.items()})


def tensor_compose(s1: BlockDiagonalState, s2: BlockDiagonalState,
                   caps: DeskCaps = DESK) -> BlockDiagonalState:
    """Tensor product re-indexed into the combined (m1 + m2)-mode Fock basis.

    Block N of the output is the weight-convolution over N1 + N2 = N.
    """
    m1, m2 = s1.modes, s2.modes
    m = m1 + m2
    parts: dict[int, list] = {}
    for N1, N2 in product(s1.sectors(), s2.sectors()):
        (V1, lam1), (V2, lam2) = s1.factor(N1), s2.factor(N2)
        basis = enumerate_basis(m, N1 + N2, caps)
        rows = [basis.index(a + b) for a, b in product(_basis_states(m1, N1),
                                                       _basis_states(m2, N2))]
        V = np.zeros((basis.dim, V1.shape[1] * V2.shape[1]), dtype=complex)
        V[rows] = np.kron(V1, V2)
        mu = s1.weight(N1) * s2.weight(N2) * np.kron(lam1, lam2)
        parts.setdefault(N1 + N2, []).append((V, mu))
    # different (N1, N2) pairs occupy different basis states, so the stacked
    # columns stay orthonormal and need no eigensolve
    return _normalized_state(m, {N: [np.hstack(x) for x in zip(*p)] for N, p in parts.items()})


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


class SectorState:
    """Normalized state on one (N_A, N_B) local-number sector.

    The matrix is indexed by the product basis |n_A> ⊗ |n_B> with row index
    ia * dim_b + ib; ``basis_a`` / ``basis_b`` give the factor bases.  A
    sector made by ``project_local_number`` is born as a factor F with
    matrix = F F† and unit Frobenius norm, and builds its matrix on first
    use; one made from a matrix is factored by one eigh where it is made.
    """

    __slots__ = ("basis_a", "basis_b", "_matrix", "_factor")

    def __init__(self, basis_a: FockBasis, basis_b: FockBasis, matrix: np.ndarray):
        mat = np.asarray(matrix, dtype=complex)
        d = basis_a.dim * basis_b.dim
        if mat.shape != (d, d):
            raise ValidationError(f"sector matrix shape {mat.shape}, expected ({d}, {d})")
        V, lam, _ = _eigh_factors(mat)
        object.__setattr__(self, "basis_a", basis_a)
        object.__setattr__(self, "basis_b", basis_b)
        object.__setattr__(self, "_matrix", _freeze(mat))
        object.__setattr__(self, "_factor", _freeze(V * np.sqrt(lam)))

    @classmethod
    def _factored(cls, basis_a: FockBasis, basis_b: FockBasis,
                  factor: np.ndarray) -> "SectorState":
        """From F of shape (dim_a * dim_b, r) with unit Frobenius norm."""
        sector = object.__new__(cls)
        object.__setattr__(sector, "basis_a", basis_a)
        object.__setattr__(sector, "basis_b", basis_b)
        object.__setattr__(sector, "_matrix", None)
        object.__setattr__(sector, "_factor", _freeze(factor))
        return sector

    def __setattr__(self, *_):
        raise AttributeError("SectorState is immutable")

    @property
    def matrix(self) -> np.ndarray:
        if self._matrix is None:
            f = self._factor
            mat = f @ f.conj().T
            object.__setattr__(self, "_matrix", _freeze((mat + mat.conj().T) / 2))
        return self._matrix

    def factor(self) -> np.ndarray:
        """F with matrix = F F†."""
        return self._factor

    @property
    def dims(self) -> tuple[int, int]:
        return (self.basis_a.dim, self.basis_b.dim)

    def is_pure(self, tol: float = 1e-8) -> bool:
        f = self.factor()
        gram = f.conj().T @ f
        return np.vdot(gram, gram).real >= 1.0 - tol


@dataclass(frozen=True)
class SectorDecomposition:
    """Map (N_A, N_B) -> (probability, normalized sector state)."""

    entries: dict

    def __post_init__(self):
        total = sum(p for p, _ in self.entries.values())
        if not abs(total - 1.0) <= 1e-10:
            raise ValidationError(f"sector probabilities sum to {total}, not 1")

    def probability(self, key) -> float:
        return self.entries.get(tuple(key), (0.0, None))[0]

    def state(self, key) -> SectorState:
        return self.entries[tuple(key)][1]

    def keys(self):
        return sorted(self.entries)


@lru_cache(maxsize=1024)
def _local_number_layout(modes: int, N: int, partition: ModePartition) -> dict:
    """{(N_A, N_B): (rows, pos, basis_a, basis_b)} for the (modes, N) sector:
    the basis indices carrying those local numbers and their positions
    ia * dim_b + ib in the product basis of the two sides.  An empty side
    behaves as a single vacuum mode."""
    ma, mb = len(partition.a_modes), len(partition.b_modes)
    groups: dict[tuple[int, int], tuple[list, list]] = {}
    for i, occ in enumerate(enumerate_basis(modes, N, UNCAPPED).states):
        na, nb = split_occupation(occ, partition)
        na, nb = na if ma else (0,), nb if mb else (0,)
        rows, members = groups.setdefault((sum(na), sum(nb)), ([], []))
        rows.append(i)
        members.append((na, nb))
    layout = {}
    for (na, nb), (rows, members) in groups.items():
        ba = enumerate_basis(max(ma, 1), na, UNCAPPED)
        bb = enumerate_basis(max(mb, 1), nb, UNCAPPED)
        pos = [ba.index(a) * bb.dim + bb.index(b) for a, b in members]
        layout[(na, nb)] = (_freeze(np.array(rows)), _freeze(np.array(pos)), ba, bb)
    return layout


def _sector_factors(state: BlockDiagonalState, partition: ModePartition):
    """Yield ((N_A, N_B), p_N, F, basis_a, basis_b) for every local-number
    sector: F holds the rows of its block's factor V sqrt(lam) that carry
    those local numbers, placed on the product basis."""
    for N in state.sectors():
        V, lam = state.factor(N)
        factor = V * np.sqrt(lam)
        for key, (rows, pos, ba, bb) in _local_number_layout(state.modes, N, partition).items():
            f = np.zeros((ba.dim * bb.dim, factor.shape[1]), dtype=complex)
            f[pos] = factor[rows]
            yield key, state.weight(N), f, ba, bb


def project_local_number(state: BlockDiagonalState,
                         partition: ModePartition) -> SectorDecomposition:
    """Local-number projection (P_{N_A} ⊗ P_{N_B}) ρ (P_{N_A} ⊗ P_{N_B}).

    Each (N_A, N_B) sector takes the rows of V sqrt(lam) of its block that
    carry those local numbers; the squared norm of those rows is the
    sector's trace."""
    partition.check_covers(state.modes)
    entries = {}
    for key, p, f, ba, bb in _sector_factors(state, partition):
        tr = np.vdot(f, f).real
        if p * tr >= BLOCK_DROP_TOL:
            entries[key] = (p * tr, SectorState._factored(ba, bb, f / math.sqrt(tr)))
    return SectorDecomposition(entries)


def dephase_local(state: BlockDiagonalState, partition: ModePartition) -> BlockDiagonalState:
    """Remove coherences between different local particle numbers.

    Output is sum over (N_A, N_B) of the two-sided projections; idempotent.
    """
    partition.check_covers(state.modes)
    factors = {}
    for N in state.sectors():
        V, lam = state.factor(N)
        factor = V * np.sqrt(state.weight(N) * lam)
        cols = []
        for rows, _, _, _ in _local_number_layout(state.modes, N, partition).values():
            cols.append(np.zeros_like(factor))
            cols[-1][rows] = factor[rows]
        factors[N] = _column_factors(np.hstack(cols))
    return _normalized_state(state.modes, factors)


def _local_reduction(state: BlockDiagonalState, partition: ModePartition,
                     b_factors: dict | None = None) -> dict:
    """{N_A: (V, mu)}, the blocks of Tr_B[(1 ⊗ L L†) rho] unnormalised, with
    L = ``b_factors[N_B]`` on each B sector (None: the identity)."""
    columns: dict[int, list] = {}
    for (na, nb), p, f, ba, bb in _sector_factors(state, partition):
        f = math.sqrt(p) * f.reshape(ba.dim, bb.dim, -1)
        if b_factors is not None:
            f = np.einsum("bk,abj->akj", b_factors[nb].conj(), f)
        columns.setdefault(na, []).append(f.reshape(ba.dim, -1))
    return {na: _column_factors(np.hstack(cols)) for na, cols in columns.items()}


def trace_out(state: BlockDiagonalState, partition: ModePartition) -> BlockDiagonalState:
    """Partial trace over the B side of the partition."""
    partition.check_covers(state.modes)
    ma = len(partition.a_modes)
    if ma == 0:
        raise ValidationError("cannot trace out every mode")
    return _normalized_state(ma, _local_reduction(state, partition))


@lru_cache(maxsize=None)
def _annihilation_maps(m: int, N: int) -> tuple[np.ndarray, np.ndarray]:
    """The annihilators a_i from the (m, N) sector to the (m, N - 1) sector,
    N >= 1, as (src, amp) of shape (m, d_{N-1}): a_i maps basis state
    src[i, t] = t + e_i to amp[i, t] = sqrt(t_i + 1) times basis state t,
    and every other basis state of sector N with n_i = 0 to zero."""
    index = _basis_index(m, N)
    lowered = _basis_states(m, N - 1)
    src = np.empty((m, len(lowered)), dtype=np.intp)
    amp = np.empty((m, len(lowered)))
    for t, occ in enumerate(lowered):
        for i in range(m):
            raised = list(occ)
            raised[i] += 1
            src[i, t] = index[tuple(raised)]
            amp[i, t] = math.sqrt(raised[i])
    return _freeze(src), _freeze(amp)


def _annihilate(V: np.ndarray, m: int, N: int, modes: int | None = None) -> np.ndarray:
    """L[i] = a_i V for i < modes (default all m), from the columns of V
    (d_N x r) on the (m, N) sector: shape (modes, d_{N-1}, r)."""
    src, amp = _annihilation_maps(m, N)
    src, amp = src[:modes], amp[:modes]
    return amp[:, :, None] * V[src]


def _create(W: np.ndarray, m: int, N: int) -> np.ndarray:
    """sum_i a_i† W[..., i, :, :] on the (m, N) sector, for W of shape
    (..., k, d_{N-1}, r) with k <= m: shape (..., d_N, r)."""
    src, amp = _annihilation_maps(m, N)
    out = np.zeros(W.shape[:-3] + (len(_basis_states(m, N)), W.shape[-1]), dtype=complex)
    for i in range(W.shape[-3]):
        # src[i] has no repeated index, so the fancy-indexed add is exact
        out[..., src[i], :] += amp[i, :, None] * W[..., i, :, :]
    return out


def single_particle_rdm(s: PureSectorState) -> np.ndarray:
    """Single-particle reduced density matrix, entries <a_j† a_i>/N."""
    N = s.particles
    if N < 1:
        raise ValidationError("single-particle RDM needs at least one particle")
    lowered = _annihilate(s.amplitudes[:, None], s.modes, N)[:, :, 0]
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
        blocks.append({"N": N, "p": state.weight(N), "matrix": _complex_to_json(state.block(N))})
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
