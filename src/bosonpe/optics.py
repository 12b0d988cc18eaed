"""Passive linear unitaries lifted to Fock sectors, and SSR measurements.

Convention, fixed once: a mode unitary u acts on states by the substitution

    a_i†  ->  sum_j u_ji a_j†

so the lift to the one-particle sector is the matrix u itself, and a
coherent spin state along psi maps to one along u @ psi.  For real u this
is the same as reading u as the Heisenberg action u_ij on creation
operators row by row.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .fock import (
    UNCAPPED,
    BlockDiagonalState,
    DeskCaps,
    DESK,
    FockBasis,
    ModePartition,
    ValidationError,
    _annihilation_maps,
    _check_block_state,
    _check_count,
    _check_real,
    _check_seed,
    _complex_from_json,
    _complex_to_json,
    _eigh_factors,
    _gate_dense,
    _local_reduction,
    _normalized_state,
    enumerate_basis,
)

UNITARITY_TOL = 1e-10


@dataclass(frozen=True)
class ModeUnitary:
    """m x m unitary acting on the mode creation operators."""

    matrix: np.ndarray

    def __post_init__(self):
        u = np.asarray(self.matrix, dtype=complex)
        if u.ndim != 2 or u.shape[0] != u.shape[1]:
            raise ValidationError(f"mode unitary must be square, got {u.shape}")
        if not np.max(np.abs(u.conj().T @ u - np.eye(u.shape[0]))) <= UNITARITY_TOL:
            raise ValidationError("matrix is not unitary within 1e-10")
        u.flags.writeable = False
        object.__setattr__(self, "matrix", u)

    @property
    def modes(self) -> int:
        return self.matrix.shape[0]

    def dagger(self) -> "ModeUnitary":
        return ModeUnitary(self.matrix.conj().T)

    def __matmul__(self, other: "ModeUnitary") -> "ModeUnitary":
        return ModeUnitary(self.matrix @ other.matrix)


def identity_unitary(m: int) -> ModeUnitary:
    return ModeUnitary(np.eye(m))


def mode_unitary_to_json(u: ModeUnitary) -> str:
    return json.dumps({"modes": u.modes, "matrix": _complex_to_json(u.matrix)})


def mode_unitary_from_json(text: str) -> ModeUnitary:
    try:
        doc = json.loads(text)
        mat = _complex_from_json(doc["matrix"])
        if mat.shape != (_check_count(doc["modes"], "modes", 1),) * 2:
            raise ValidationError("matrix shape disagrees with the mode count")
    except (KeyError, TypeError, ValueError) as exc:
        raise ValidationError(f"malformed unitary JSON: {exc}") from exc
    return ModeUnitary(mat)


def block_direct_sum(*parts: ModeUnitary) -> ModeUnitary:
    mats = [p.matrix for p in parts]
    total = sum(m.shape[0] for m in mats)
    out = np.zeros((total, total), dtype=complex)
    at = 0
    for m in mats:
        d = m.shape[0]
        out[at:at + d, at:at + d] = m
        at += d
    return ModeUnitary(out)


@dataclass(frozen=True)
class BeamSplitterArray:
    """Parallel beam splitters with reflectivities r_i, t_i = sqrt(1 - r_i^2)."""

    reflectivities: tuple[float, ...]

    def __post_init__(self):
        r = tuple(_check_real(x, "reflectivity", 0.0, 1.0) for x in self.reflectivities)
        object.__setattr__(self, "reflectivities", r)

    @property
    def transmissivities(self) -> tuple[float, ...]:
        return tuple(math.sqrt(1.0 - r * r) for r in self.reflectivities)

    def __len__(self) -> int:
        return len(self.reflectivities)


def balanced_array(m: int) -> BeamSplitterArray:
    return BeamSplitterArray((1.0 / math.sqrt(2.0),) * m)


def beam_splitter_unitary(bs: BeamSplitterArray,
                          pre_rotation: ModeUnitary | None = None) -> ModeUnitary:
    """2m-mode unitary coupling mode i of A with mode i of B, after the
    rotation V_A = ``pre_rotation`` of the m A modes (None: the identity).

    On states: a_i† -> r_i a_i† - t_i b_i†,  b_i† -> t_i a_i† + r_i b_i†,
    i.e. creation operators carry the blocks [[r, t], [-t, r]] in the
    Heisenberg row reading.  r=1 is the identity, r=0 swaps A and B up to sign.
    One checked matrix [[diag(r) V_A, diag(t)], [-diag(t) V_A, diag(r)]].
    """
    m = len(bs)
    if pre_rotation is not None and pre_rotation.modes != m:
        raise ValidationError(f"pre-rotation on {pre_rotation.modes} modes, splitters on {m}")
    r, t = np.array(bs.reflectivities), np.array(bs.transmissivities)
    va = np.eye(m) if pre_rotation is None else pre_rotation.matrix
    return ModeUnitary(np.block([[r[:, None] * va, np.diag(t)], [-t[:, None] * va, np.diag(r)]]))


def lift_unitary(u: ModeUnitary, N: int, caps: DeskCaps = DESK,
                 columns=None) -> np.ndarray:
    """Unitary on the (m, N) sector induced by the mode substitution.

    Column n is prod_i (sum_j u_ji a_j†)^{n_i} |0> / sqrt(prod_i n_i!).  As
    |n> = a_k† |n - e_k> / sqrt(n_k) and u a_k† u† = sum_j u_jk a_j†, it is
    built one particle at a time, in mode order: the p-th particle of mode k
    applies sum_j u_jk a_j† / sqrt(p) (the scatter of the cached annihilation
    maps) to the column one sector below, so no factorial is formed.  Columns
    go in batches whose stacked creation terms are no larger than the result.
    ``columns``, a sequence of basis indices in [0, dim), restricts the
    result to those columns (shape dim x len(columns)).  A sector above
    ``caps`` or of more than 1e6 states, and a result of more entries than
    one desk block (1716 x 1716), raise DeskScaleError before allocating.
    """
    _check_count(N, "N")
    m = u.modes
    basis = enumerate_basis(m, N, caps)
    columns = np.arange(basis.dim) if columns is None else np.asarray(columns)
    if not (columns.ndim == 1 and columns.dtype.kind in "iu"
            and 0 <= columns.min(initial=0) and columns.max(initial=0) < basis.dim):
        raise ValidationError(f"columns must be basis indices in [0, {basis.dim}), "
                              f"got {columns!r}")
    _gate_dense(basis.dim, len(columns), "lift on (m=%d, N=%d)", m, N)
    if N == 0:
        return np.ones((1, len(columns)), dtype=complex)
    occ = basis.occupations[columns]
    # coef[c, l]: column k of u over sqrt(p), the l-th particle of column c the p-th of mode k
    counts = occ.ravel()
    mode = np.repeat(np.arange(occ.size) % m, counts).reshape(len(occ), N)
    p = np.arange(1, mode.size + 1) - np.repeat(np.cumsum(counts) - counts, counts)
    coef = u.matrix.T[mode] / np.sqrt(p).reshape(len(occ), N, 1)
    out = np.empty((basis.dim, len(occ)), dtype=complex)
    batch = max(1, -(-len(occ) * basis.dim // (m * math.comb(m + N - 2, N - 1))))
    for at in range(0, len(occ), batch):
        cf = coef[at:at + batch]
        X = cf[:, 0]  # one particle: basis state i is e_i
        for n in range(2, N + 1):
            src, amp = _annihilation_maps(m, n)
            # u_jk a_j† on X: amp[j, t] u_jk X[c, t] lands on basis state src[j, t]
            terms = X[:, None, :] * cf[:, n - 1, :, None]
            terms *= amp
            X = np.zeros((len(cf), math.comb(m + n - 1, n)), dtype=complex)
            flat = src + X.shape[1] * np.arange(len(cf))[:, None, None]
            np.add.at(X.reshape(-1), flat.ravel(), terms.ravel())
        out[:, at:at + batch] = X.T
    return out


def apply_mode_unitary(state: BlockDiagonalState, u: ModeUnitary) -> BlockDiagonalState:
    """Apply the sector lift of u to every block; weights are unchanged.

    A block V diag(lam) V† maps to W V[S] diag(lam) (W V[S])†, where S is the
    support of V (its rows with a nonzero entry) and W = U[:, S] the lift's
    columns on it.
    """
    if u.modes != state.modes:
        raise ValidationError(f"unitary on {u.modes} modes, state on {state.modes}")
    factors = {}
    for N in state.sectors():
        V, lam = state.factor(N)
        support = np.flatnonzero(np.any(V != 0, axis=1))
        W = lift_unitary(u, N, caps=UNCAPPED, columns=support)
        factors[N] = (state.weight(N), W @ V[support], lam)
    return BlockDiagonalState._factored(state.modes, factors)


def append_vacuum(state: BlockDiagonalState, k: int,
                  caps: DeskCaps = DESK) -> BlockDiagonalState:
    """Append k modes in the vacuum; the rows of each block's V are re-indexed.
    The largest sector, then all padded factors (sum_N d_N r_N entries, one
    desk block at most) are checked first: a refused state builds nothing."""
    _check_block_state(state)
    _check_count(k, "k", 1)
    m = state.modes
    enumerate_basis(m + k, state.max_particles, caps)
    _gate_dense(sum(FockBasis(m + k, N).dim * state.factor(N)[1].size for N in state.sectors()),
                1, "entries of the padded factors on %d modes", m + k)
    factors = {}
    for N in state.sectors():
        V, lam = state.factor(N)
        new = FockBasis(m + k, N)
        big = np.zeros((new.dim, V.shape[1]), dtype=complex)
        big[new.rank(FockBasis(m, N).occupations)] = V
        factors[N] = (state.weight(N), big, lam)
    return BlockDiagonalState._factored(m + k, factors)


def measure_total_number(state: BlockDiagonalState) -> dict:
    """Projective number measurement: N -> (p_N, conditional state)."""
    return {N: (state.weight(N), BlockDiagonalState._factored(
        state.modes, {N: (1.0, *state.factor(N))})) for N in state.sectors()}


def _sector_slices(modes: int, n_max: int) -> dict[int, slice]:
    """N -> rows of sector N in the Fock space of ``modes`` modes with at most
    n_max particles, ordered by sector then canonically within each sector:
    sector N follows the comb(modes + N - 1, modes) rows below it."""
    _check_count(modes, "modes", 1)
    _check_count(n_max, "n_max")
    return {N: slice(math.comb(modes + N - 1, modes), math.comb(modes + N, modes))
            for N in range(n_max + 1)}


def validate_ssr_povm(modes: int, n_max: int, elements, tol: float = 1e-10) -> list:
    """Check POVM elements on the Fock space of ``modes`` modes with at most
    n_max particles are PSD, complete, and commute with the number operator
    (no coherences between sectors).  Returns each element's number blocks as
    factors {N: L}, E_N = L L†, from the eigh that checks PSD."""
    slices = _sector_slices(modes, n_max)
    dim = slices[n_max].stop
    total = np.zeros((dim, dim), dtype=complex)
    factors = []
    for k, E in enumerate(elements):
        E = np.asarray(E, dtype=complex)
        if E.shape != (dim, dim):
            raise ValidationError(f"POVM element {k} has shape {E.shape}, expected {(dim, dim)}")
        if not np.max(np.abs(E - E.conj().T)) <= tol:
            raise ValidationError(f"POVM element {k} not Hermitian")
        off = E.copy()
        factors.append({})
        for N, sl in slices.items():
            V, lam, evals = _eigh_factors((E[sl, sl] + E[sl, sl].conj().T) / 2)
            if evals.min(initial=0.0) < -tol:
                raise ValidationError(f"POVM element {k} not PSD")
            factors[-1][N] = V * np.sqrt(lam)
            off[sl, sl] = 0.0
        if not np.max(np.abs(off)) <= tol:
            raise ValidationError(
                f"POVM element {k} has coherences between particle-number sectors"
            )
        total += E
    if not np.max(np.abs(total - np.eye(dim))) <= 1e-8:
        raise ValidationError("POVM elements do not sum to the identity")
    return factors


def measure_destructive(state: BlockDiagonalState, partition: ModePartition,
                        povm_elements, tol: float = 1e-10) -> dict:
    """Destructively measure the B modes with an SSR-respecting POVM.

    Elements act on the truncated B Fock space (total number up to the
    state's maximum).  Returns outcome -> (probability, post-state on the A
    modes); post-states are Tr_B[(1 ⊗ E_k) rho] / p_k.
    """
    partition.check_covers(state.modes)
    ma, mb = len(partition.a_modes), len(partition.b_modes)
    if mb == 0:
        raise ValidationError("destructive measurement needs at least one measured mode")
    outcomes = {}
    for k, b_factors in enumerate(validate_ssr_povm(
            mb, state.max_particles, povm_elements, tol=tol)):
        reduced = _local_reduction(state, partition, b_factors)
        post = _normalized_state(max(ma, 1), reduced)
        if post is not None:
            outcomes[k] = (sum(float(mu.sum()) for _, mu in reduced.values()), post)
    return outcomes


def _haar_matrix(d: int, rng) -> np.ndarray:
    """A Haar d x d unitary: the Q of Z = QR, Z complex Gaussian with its real
    parts drawn from ``rng`` first, times the phases of R's diagonal, without
    which Q is not Haar (Mezzadri, Notices AMS 54, 592 (2007))."""
    z = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def random_ssr_povm(modes: int, n_max: int, n_outcomes: int, seed) -> list[np.ndarray]:
    """Random SSR-respecting POVM built from Haar rank-1 projectors per sector,
    assigned to outcomes at random."""
    _check_seed(seed)
    _check_count(n_outcomes, "n_outcomes", 1)
    rng = np.random.default_rng(seed)
    slices = _sector_slices(modes, n_max)
    dim = slices[n_max].stop
    elements = [np.zeros((dim, dim), dtype=complex) for _ in range(n_outcomes)]
    for N, sl in slices.items():
        d = sl.stop - sl.start
        q = _haar_matrix(d, rng)
        owners = rng.integers(0, n_outcomes, size=d)
        for col, owner in enumerate(owners):
            v = q[:, col]
            elements[owner][sl, sl] += np.outer(v, v.conj())
    return elements
