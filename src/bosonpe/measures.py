"""Quantum Fisher information, the metrological monotone, and entanglement
measures on number-diagonal states.

The metrological quantity is the excess of the QFI over the free-state limit,

    max over unit-norm single-particle h of  [ F(rho, H) - 4 V(rho, h) ]+

with H acting per sector as the sum of h over particles divided by sqrt(N).
The objective is one quadratic form x^T M x in the real parameters x of h,
built once per state.  On two modes its maximization is exactly a 3x3
eigenvalue problem on the Bloch sphere; for more modes projected ascent over
||h||_op <= 1 gives the lower end of a certified [lower, upper] bracket.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .fock import (
    UNCAPPED,
    BlockDiagonalState,
    ModePartition,
    SectorState,
    ValidationError,
    enumerate_basis,
    project_local_number,
    split_occupation,
)

QFI_EIGENVALUE_CUTOFF = 1e-12

PAULI = {
    "x": np.array([[0, 1], [1, 0]], dtype=complex),
    "y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "z": np.array([[1, 0], [0, -1]], dtype=complex),
}


@dataclass(frozen=True)
class SingleParticleObservable:
    """Hermitian single-particle observable with operator norm at most 1."""

    h: np.ndarray

    def __post_init__(self):
        h = np.asarray(self.h, dtype=complex)
        if h.ndim != 2 or h.shape[0] != h.shape[1]:
            raise ValidationError("observable must be a square matrix")
        if np.max(np.abs(h - h.conj().T)) > 1e-12 * max(1.0, np.max(np.abs(h))):
            raise ValidationError("observable must be Hermitian within 1e-12")
        h = (h + h.conj().T) / 2
        if np.max(np.abs(np.linalg.eigvalsh(h))) > 1.0 + 1e-10:
            raise ValidationError("operator norm must be at most 1")
        h.flags.writeable = False
        object.__setattr__(self, "h", h)

    @property
    def modes(self) -> int:
        return self.h.shape[0]


def bloch_observable(n) -> SingleParticleObservable:
    n = np.asarray(n, dtype=float)
    n = n / np.linalg.norm(n)
    return SingleParticleObservable(n[0] * PAULI["x"] + n[1] * PAULI["y"] + n[2] * PAULI["z"])


@lru_cache(maxsize=None)
def _transfer_tensor(m: int, N: int) -> np.ndarray:
    """T[i, j] = matrix of a_i† a_j on the (m, N) sector."""
    basis = enumerate_basis(m, N, UNCAPPED)
    t = np.zeros((m, m, basis.dim, basis.dim))
    for col, occ in enumerate(basis.states):
        for j in range(m):
            if occ[j] == 0:
                continue
            for i in range(m):
                target = list(occ)
                target[j] -= 1
                amp = math.sqrt(occ[j]) * math.sqrt(target[i] + 1)
                target[i] += 1
                t[i, j, basis.index(tuple(target)), col] += amp
    t.flags.writeable = False
    return t


def second_quantized(f: np.ndarray, m: int, N: int) -> np.ndarray:
    """Matrix of sum_ij f_ij a_i† a_j on the (m, N) sector."""
    return np.einsum("ij,ijkl->kl", np.asarray(f, dtype=complex), _transfer_tensor(m, N))


class CollectiveGenerator:
    """Per-sector matrices realizing (sum over particles of h) / sqrt(N)."""

    __slots__ = ("h", "modes", "_sectors")

    def __init__(self, h: np.ndarray, modes: int, n_max: int):
        h = np.asarray(h, dtype=complex)
        if h.shape != (modes, modes):
            raise ValidationError(f"h must be {modes}x{modes}")
        self.h = h
        self.modes = modes
        self._sectors = {}
        for N in range(n_max + 1):
            self._sectors[N] = self._build(N)

    def _build(self, N: int) -> np.ndarray:
        if N == 0:
            return np.zeros((1, 1), dtype=complex)
        return second_quantized(self.h, self.modes, N) / math.sqrt(N)

    def sector(self, N: int) -> np.ndarray:
        if N not in self._sectors:
            self._sectors[N] = self._build(N)
        return self._sectors[N]


def collective_generator(h: SingleParticleObservable, m: int, n_max: int) -> CollectiveGenerator:
    if h.modes != m:
        raise ValidationError("observable mode count mismatch")
    return CollectiveGenerator(h.h, m, n_max)


def _qfi_weights(mat: np.ndarray, p: float,
                 cutoff: float = QFI_EIGENVALUE_CUTOFF) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvectors of the block and w_ij = 2 (l_i - l_j)^2 / (l_i + l_j) over
    its eigenvalues times p (0 where l_i + l_j <= cutoff): the block's QFI
    for H is sum_ij w_ij |<i|H|j>|^2 in that eigenbasis."""
    evals, evecs = np.linalg.eigh(mat)
    lam = np.clip(evals, 0.0, None) * p
    s = lam[:, None] + lam[None, :]
    d = lam[:, None] - lam[None, :]
    w = np.zeros_like(s)
    mask = s > cutoff
    w[mask] = 2.0 * d[mask] ** 2 / s[mask]
    return evecs, w


def qfi_matrix(rho: np.ndarray, H: np.ndarray,
               cutoff: float = QFI_EIGENVALUE_CUTOFF) -> float:
    """Spectral-form QFI 2 sum (l_i - l_j)^2 / (l_i + l_j) |<i|H|j>|^2."""
    rho = np.asarray(rho, dtype=complex)
    evecs, w = _qfi_weights((rho + rho.conj().T) / 2, 1.0, cutoff)
    Hm = evecs.conj().T @ H @ evecs
    return float(np.sum(w * np.abs(Hm) ** 2).real)


def variance_matrix(rho: np.ndarray, H: np.ndarray) -> float:
    """Operator variance Tr[rho H^2] - Tr[rho H]^2."""
    m1 = np.trace(rho @ H).real
    m2 = np.trace(rho @ H @ H).real
    return float(m2 - m1 * m1)


def qfi(state: BlockDiagonalState, G: CollectiveGenerator) -> float:
    """QFI of the number-block state for a block-diagonal generator.

    Additive over blocks with global eigenvalues p_N * lambda, so the
    eigenvalue cutoff acts on the weighted spectrum.
    """
    if G.modes != state.modes:
        raise ValidationError("generator mode count mismatch")
    total = 0.0
    for N, (p, mat) in state.blocks.items():
        evecs, w = _qfi_weights(mat, p)
        Hm = evecs.conj().T @ G.sector(N) @ evecs
        total += np.sum(w * np.abs(Hm) ** 2).real
    return float(total)


def expectation_single_particle(state: BlockDiagonalState, f: np.ndarray) -> float:
    """<f> = sum_N p_N Tr[rho^(N) SQ(f)] / N; the vacuum block contributes 0."""
    val = 0.0
    for N, (p, mat) in state.blocks.items():
        if N == 0:
            continue
        val += p * np.trace(mat @ second_quantized(f, state.modes, N)).real / N
    return float(val)


def single_particle_variance(state: BlockDiagonalState,
                             h: SingleParticleObservable) -> float:
    """V = <h^2> - <h>^2 with single-particle averages over the blocks."""
    if h.modes != state.modes:
        raise ValidationError("observable mode count mismatch")
    mean = expectation_single_particle(state, h.h)
    mean_sq = expectation_single_particle(state, h.h @ h.h)
    return float(mean_sq - mean * mean)


def qfi_minus_variance(state: BlockDiagonalState, h: SingleParticleObservable) -> float:
    """The objective F(rho, H_h) - 4 V(rho, h), not clipped at zero."""
    G = collective_generator(h, state.modes, state.max_particles)
    return qfi(state, G) - 4.0 * single_particle_variance(state, h)


@dataclass(frozen=True)
class MpefResult:
    """The monotone bracketed as lower <= max_h [F - 4V]+ <= upper; ``h``
    attains ``lower``, and the two coincide for ``two_mode_exact``."""

    lower: float
    upper: float
    h: np.ndarray
    bloch: tuple[float, float, float] | None
    search: str
    metadata: dict = field(default_factory=dict)

    @property
    def value(self) -> float:
        return self.lower


def _pad_observable(h: np.ndarray, modes: int) -> np.ndarray:
    """Embed an observable on the leading modes into the full mode set."""
    if h.shape[0] == modes:
        return h
    out = np.zeros((modes, modes), dtype=complex)
    out[: h.shape[0], : h.shape[0]] = h
    return out


def _hermitian_from_params(x: np.ndarray, m: int) -> np.ndarray:
    h = np.zeros((m, m), dtype=complex)
    k = 0
    for i in range(m):
        h[i, i] = x[k]
        k += 1
    for i in range(m):
        for j in range(i + 1, m):
            h[i, j] = x[k] + 1j * x[k + 1]
            h[j, i] = x[k] - 1j * x[k + 1]
            k += 2
    return h


def _params_from_hermitian(h: np.ndarray) -> np.ndarray:
    m = h.shape[0]
    x = []
    for i in range(m):
        x.append(h[i, i].real)
    for i in range(m):
        for j in range(i + 1, m):
            x.append(h[i, j].real)
            x.append(h[i, j].imag)
    return np.array(x)


def _hermitian_basis(m: int) -> np.ndarray:
    """The m^2 Hermitians g_a with h(x) = sum_a x_a g_a, as (m^2, m, m)."""
    return np.stack([_hermitian_from_params(e, m) for e in np.eye(m * m)])


def _mpef_form(state: BlockDiagonalState, h_support: int) -> np.ndarray:
    """M with F(rho, H_h) - 4 V(rho, h) = x^T M x for h = h(x) on the leading
    ``h_support`` modes.

    The QFI part sums w_kl Re(B_a,kl conj(B_b,kl)) over the eigenbasis of
    each block, with B_a the block's sector matrix of g_a divided by
    sqrt(N); the variance part is -4 (S - mu mu^T) with S_ab = <{g_a, g_b}/2>
    and mu_a = <g_a> single-particle averages over the blocks.
    """
    g = _hermitian_basis(h_support)
    qfi_part = np.zeros((len(g), len(g)))
    one_body = np.zeros((h_support, h_support), dtype=complex)
    for N, (p, mat) in state.blocks.items():
        if N == 0:
            continue
        t = _transfer_tensor(state.modes, N)[:h_support, :h_support]
        one_body += p * np.einsum("ijkl,lk->ij", t, mat) / N
        evecs, w = _qfi_weights(mat, p)
        b = evecs.conj().T @ np.tensordot(g, t, 2) @ evecs / math.sqrt(N)
        b = b.reshape(len(g), -1)
        qfi_part += ((b * w.ravel()) @ b.conj().T).real
    mu = np.einsum("aij,ij->a", g, one_body).real
    second = np.einsum("aij,bjk,ik->ab", g, g, one_body).real
    form = qfi_part - 4.0 * ((second + second.T) / 2 - np.outer(mu, mu))
    return (form + form.T) / 2


def _mpef_two_mode_exact(state: BlockDiagonalState) -> MpefResult:
    """Top eigenpair of the form on the Pauli directions: h = n . sigma has
    operator norm |n|, so the unit Bloch sphere is exactly the feasible set
    of traceless h."""
    paulis = np.stack([_params_from_hermitian(PAULI[a]) for a in ("x", "y", "z")], axis=1)
    evals, evecs = np.linalg.eigh(paulis.T @ _mpef_form(state, 2) @ paulis)
    best = float(evals[-1])
    n = evecs[:, -1]
    h = bloch_observable(n)
    theta = math.acos(max(-1.0, min(1.0, n[2])))
    phi = math.atan2(n[1], n[0])
    return MpefResult(
        lower=max(best, 0.0),
        upper=max(best, 0.0),
        h=_pad_observable(h.h, state.modes),
        bloch=(float(n[0]), float(n[1]), float(n[2])),
        search="two_mode_exact",
        metadata={"objective": best, "theta": theta, "phi": phi},
    )


MPEF_ASCENT_TOL = 1e-14
MPEF_ASCENT_MAX_ITER = 2000


def _mpef_restarts(state: BlockDiagonalState, seed, n_restarts: int,
                   warm_starts, h_support: int) -> MpefResult:
    """Projected gradient ascent of y^T Mf y over ||h||_op <= 1 from every start.

    y are the coordinates of h in the Frobenius-orthonormal basis g_a/|g_a|
    (Mf is M in those coordinates), so clipping the eigenvalues of h to
    [-1, 1] is the Euclidean projection P onto the feasible set, and the step
    y <- P(y + 2 Mf y / L) with L = 2 ||Mf||_2 never lowers the objective.
    Each step is taken from a Nesterov extrapolation of y instead; when that
    would lower the objective, the momentum restarts and the plain step is
    taken, so the ascent stays monotone.  A start ends when a step gains at
    most MPEF_ASCENT_TOL.  Since ||h||_F^2 <= h_support on the feasible set,
    h_support * max(lambda_max(Mf), 0) bounds the monotone from above.
    """
    s = h_support
    g = _hermitian_basis(s)
    scale = np.sqrt(np.einsum("aij,aij->a", g, g.conj()).real)
    unit = (g / scale[:, None, None]).reshape(len(g), -1)
    form = _mpef_form(state, s) / np.outer(scale, scale)
    evals, evecs = np.linalg.eigh(form)
    rate = 1.0 / max(-evals[0], evals[-1], 1e-300)

    def observable(y):
        return (y @ unit).reshape(s, s)

    def project(y):
        """P(y) and its objective."""
        lam, vecs = np.linalg.eigh(observable(y))
        y = (unit.conj() @ ((vecs * np.clip(lam, -1.0, 1.0)) @ vecs.conj().T).ravel()).real
        return y, y @ form @ y

    starts = [_params_from_hermitian(w) * scale for w in warm_starts]
    starts.append(evecs[:, -1])
    rng = np.random.default_rng(seed)
    for _ in range(n_restarts):
        starts.append(rng.normal(size=s * s) * scale)

    top = observable(evecs[:, -1])
    top_norm = np.max(np.abs(np.linalg.eigvalsh(top)))
    best_val, best_h, iterations = evals[-1] / top_norm**2, top / top_norm, 0
    for y in starts:
        y, val = project(y)
        prev, k = y, 0
        for _ in range(MPEF_ASCENT_MAX_ITER):
            iterations += 1
            z = y + k / (k + 3) * (y - prev)
            y_next, val_next = project(z + rate * (form @ z))
            if k and val_next < val:
                k = 0
                y_next, val_next = project(y + rate * (form @ y))
            else:
                k += 1
            prev, y, gain, val = y, y_next, val_next - val, val_next
            if gain <= MPEF_ASCENT_TOL:
                break
        h = observable(y)
        norm = np.max(np.abs(np.linalg.eigvalsh(h)))
        if norm > 1e-9 and val / norm**2 > best_val:
            best_val, best_h = val / norm**2, h / norm
    lower = max(float(best_val), 0.0)
    # h_support * lambda_max bounds the true maximum, which lower attains up
    # to rounding
    upper = max(s * max(float(evals[-1]), 0.0), lower)
    return MpefResult(
        lower=lower,
        upper=upper,
        h=_pad_observable(best_h, state.modes),
        bloch=None,
        search="general_restarts",
        metadata={"restarts": len(starts), "nfev": iterations},
    )


def _check_warm_start(w, h_support: int) -> np.ndarray:
    w = np.asarray(w, dtype=complex)
    if w.ndim != 2 or w.shape[0] != w.shape[1] or w.shape[0] < h_support:
        raise ValidationError(f"a warm start must be a square matrix of at least "
                              f"{h_support}x{h_support}")
    if not np.all(np.isfinite(w)):
        raise ValidationError("a warm start must be finite")
    if np.max(np.abs(w - w.conj().T)) > 1e-12 * max(1.0, np.max(np.abs(w))):
        raise ValidationError("a warm start must be Hermitian within 1e-12")
    return w[:h_support, :h_support]


def m_pe_f(state: BlockDiagonalState, search: str = "auto", seed=0,
           n_restarts: int = 8, warm_starts=None,
           h_support: int | None = None) -> MpefResult:
    """Metrological particle-entanglement monotone as a certified bracket.

    The objective F(rho, H_h) - 4 V(rho, h) is one quadratic form x^T M x in
    the real parameters x of h, built once per state.  ``two_mode_exact``
    (two supported modes) maximizes it exactly over traceless h as the top
    eigenpair on the Bloch sphere, so ``lower == upper``.
    ``general_restarts`` runs projected gradient ascent over ||h||_op <= 1
    from the ``warm_starts``, the top eigenvector of M and ``n_restarts``
    seeded random starts, in that order; ``lower`` is the best value found
    (attained by ``h``) and ``upper`` = h_support * max(lambda_max, 0) of M
    in Frobenius-orthonormal coordinates.  Padded two-mode optima make good
    warm starts after vacuum appends.

    ``h_support`` restricts the observable to the leading modes; trailing
    modes then act as classical number registers that still count toward the
    per-sector 1/sqrt(N) normalization.  This realizes the measure for
    quantum-classical states with a memory: store each measurement record as
    a flag mode holding the measured particle count.

    Raises ValidationError for a negative ``n_restarts`` and for a warm start
    that is not a finite Hermitian of at least h_support x h_support.
    """
    if h_support is None:
        h_support = state.modes
    if not 1 <= h_support <= state.modes:
        raise ValidationError("h_support must select a leading subset of modes")
    if n_restarts < 0:
        raise ValidationError("n_restarts must be nonnegative")
    warm_starts = [_check_warm_start(w, h_support) for w in warm_starts or []]
    if search == "auto":
        search = "two_mode_exact" if h_support == 2 else "general_restarts"
    if search == "two_mode_exact":
        if h_support != 2:
            raise ValidationError("two_mode_exact requires a two-mode support")
        return _mpef_two_mode_exact(state)
    if search == "general_restarts":
        return _mpef_restarts(state, seed, n_restarts, warm_starts, h_support)
    raise ValidationError(f"unknown search mode {search!r}")


# ---------------------------------------------------------------------------
# bipartite entanglement on the truncated joint Fock space


def _joint_layout(state: BlockDiagonalState, partition: ModePartition):
    partition.check_covers(state.modes)
    ma, mb = len(partition.a_modes), len(partition.b_modes)
    a_occs: dict[tuple, int] = {}
    b_occs: dict[tuple, int] = {}
    placements = {}
    for N in state.sectors():
        basis = enumerate_basis(state.modes, N, UNCAPPED)
        rows = []
        for occ in basis.states:
            na, nb = split_occupation(occ, partition)
            na = na if ma else (0,)
            nb = nb if mb else (0,)
            ia = a_occs.setdefault(na, len(a_occs))
            ib = b_occs.setdefault(nb, len(b_occs))
            rows.append((ia, ib))
        placements[N] = rows
    return a_occs, b_occs, placements


def negativity(state: BlockDiagonalState, partition: ModePartition) -> float:
    """(||rho^{T_A}||_1 - 1) / 2 on the truncated joint space."""
    a_occs, b_occs, placements = _joint_layout(state, partition)
    da, db = len(a_occs), len(b_occs)
    rho = np.zeros((da, db, da, db), dtype=complex)
    for N, (p, mat) in state.blocks.items():
        rows = placements[N]
        for i, (ia, ib) in enumerate(rows):
            for j, (ja, jb) in enumerate(rows):
                rho[ia, ib, ja, jb] += p * mat[i, j]
    return _partial_transpose_negativity(rho)


def sector_negativity(sector: SectorState) -> float:
    da, db = sector.dims
    return _partial_transpose_negativity(sector.matrix.reshape(da, db, da, db))


def _partial_transpose_negativity(rho: np.ndarray) -> float:
    """(||rho^{T_A}||_1 - 1) / 2 for rho indexed [a, b, a', b'], clipped at 0."""
    da, db = rho.shape[:2]
    pt = rho.transpose(2, 1, 0, 3).reshape(da * db, da * db)
    evals = np.linalg.eigvalsh((pt + pt.conj().T) / 2)
    return float(max((np.sum(np.abs(evals)) - 1.0) / 2.0, 0.0))


def schmidt_spectrum(sector: SectorState, tol: float = 1e-8) -> np.ndarray:
    """Schmidt coefficients (squared) of a pure sector state."""
    if not sector.is_pure(tol):
        raise ValidationError("sector state is not pure")
    da, db = sector.dims
    vec = sector.pure_vector().reshape(da, db)
    svals = np.linalg.svd(vec, compute_uv=False)
    probs = svals**2
    return probs / probs.sum()


def _shannon_entropy_bits(probs: np.ndarray) -> float:
    """-sum p log2 p over the entries above 1e-15."""
    probs = probs[probs > 1e-15]
    return float(-np.sum(probs * np.log2(probs)))


def entanglement_entropy(sector: SectorState, tol: float = 1e-8) -> float:
    return _shannon_entropy_bits(schmidt_spectrum(sector, tol))


def e_ssr(state: BlockDiagonalState, partition: ModePartition,
          base_measure: str = "negativity") -> float:
    """Entanglement accessible under the local particle-number SSR.

    Negativity variant: negativity of the locally dephased state (computed
    blockwise over (N_A, N_B) sectors).  Entropy variant: probability-weighted
    entanglement entropy per sector; requires every sector to be pure.
    """
    dec = project_local_number(state, partition)
    if base_measure == "negativity":
        return float(sum(p * sector_negativity(s) for p, s in dec.entries.values()))
    if base_measure == "entanglement_entropy_sectorwise":
        total = 0.0
        for p, s in dec.entries.values():
            if not s.is_pure():
                raise ValidationError(
                    "entropy variant requires pure projected sectors"
                )
            total += p * entanglement_entropy(s)
        return float(total)
    raise ValidationError(f"unknown base measure {base_measure!r}")


def block_trace_distance(s1: BlockDiagonalState, s2: BlockDiagonalState) -> float:
    """Trace distance computed blockwise via direct-sum linearity."""
    if s1.modes != s2.modes:
        raise ValidationError("states live on different mode counts")
    total = 0.0
    for N in sorted(set(s1.blocks) | set(s2.blocks)):
        p1, p2 = s1.weight(N), s2.weight(N)
        a = p1 * s1.block(N) if p1 > 0 else 0.0
        b = p2 * s2.block(N) if p2 > 0 else 0.0
        diff = a - b if (p1 > 0 and p2 > 0) else (a if p1 > 0 else -b)
        evals = np.linalg.eigvalsh((diff + diff.conj().T) / 2)
        total += 0.5 * np.sum(np.abs(evals))
    return float(total)


def distance_to_candidate_set(state: BlockDiagonalState, candidates) -> float:
    """Min block trace distance to the supplied particle-separable candidates;
    an upper bound on the distance-based measure."""
    candidates = list(candidates)
    if not candidates:
        raise ValidationError("need at least one candidate")
    return min(block_trace_distance(state, c) for c in candidates)
