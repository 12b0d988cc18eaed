"""Quantum Fisher information, the metrological monotone, and entanglement
measures on number-diagonal states.

The metrological quantity is the excess of the QFI over the free-state limit,

    max over unit-norm single-particle h of  [ F(rho, H) - 4 V(rho, h) ]+

with H acting per sector as the sum of h over particles divided by sqrt(N).
The objective is one quadratic form x^T M x in the real parameters x of h,
built once per state.  On two modes its maximization is exactly a 3x3
eigenvalue problem on the Bloch sphere; for more modes projected ascent over
||h||_op <= 1 gives the lower end of a certified [lower, upper] bracket.

One-body operators sum_ij f_ij a_i† a_j are never held as dense tensors.
Each is applied to a block's factors (V, lam) as sum_i a_i† (sum_j f_ij
a_j V) through the cached annihilation maps of ``fock``, so the QFI, the
single-particle variance and the form M cost O(m^2 d r) per block of
dimension d and rank r, with no d x d eigensolve.  ``second_quantized``
still builds a dense sector matrix for callers that ask for one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .fock import (
    UNCAPPED,
    BlockDiagonalState,
    FockBasis,
    ModePartition,
    SectorState,
    ValidationError,
    _annihilate,
    _annihilation_maps,
    _check_block_state,
    _check_count,
    _check_hermitian,
    _check_seed,
    _create,
    _freeze,
    _gate_dense,
    _local_number_layout,
    enumerate_basis,
    project_local_number,
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
        _check_hermitian(h, 1e-12, "observable")
        h = (h + h.conj().T) / 2
        if not np.max(np.abs(np.linalg.eigvalsh(h))) <= 1.0 + 1e-10:
            raise ValidationError("operator norm must be at most 1")
        h.flags.writeable = False
        object.__setattr__(self, "h", h)

    @property
    def modes(self) -> int:
        return self.h.shape[0]


def bloch_observable(n) -> SingleParticleObservable:
    """n . sigma / |n| for a finite nonzero 3-vector n."""
    n = np.asarray(n, dtype=float)
    norm = np.linalg.norm(n) if n.shape == (3,) else 0.0
    if not 0.0 < norm < math.inf:
        raise ValidationError("a Bloch vector must be a finite nonzero 3-vector")
    return SingleParticleObservable(_bloch_matrix(n / norm))


def _bloch_matrix(n: np.ndarray) -> np.ndarray:
    """n . sigma for a real 3-vector n: Hermitian by construction, with
    operator norm |n|."""
    return n[0] * PAULI["x"] + n[1] * PAULI["y"] + n[2] * PAULI["z"]


def second_quantized(f: np.ndarray, m: int, N: int) -> np.ndarray:
    """Matrix of sum_ij f_ij a_i† a_j on the (m, N) sector, as a dense matrix.

    Each pair (i, j) moves the amplitude of basis state t + e_j of sector
    N - 1 onto t + e_i with sqrt((t_i + 1)(t_j + 1)), read off the
    annihilation maps; the largest intermediate is d_{N-1} x m.  A sector
    above the desk block size (1716) raises DeskScaleError before allocating."""
    f = np.asarray(f, dtype=complex)
    dim = enumerate_basis(m, N, UNCAPPED).dim
    _gate_dense(dim, dim, "second-quantized operator on (m=%d, N=%d)", m, N)
    out = np.zeros((dim, dim), dtype=complex)
    if N == 0:
        return out
    src, amp = _annihilation_maps(m, N)
    for i in range(m):
        # for each t the columns src[:, t] are distinct, as are the rows
        # src[i, t] over t, so no entry is hit twice
        out[src[i][:, None], src.T] += f[i] * (amp[i][:, None] * amp.T)
    return out


def _apply_one_body(f: np.ndarray, V: np.ndarray, m: int, N: int) -> np.ndarray:
    """sum_ij f_ij a_i† (a_j V) on the (m, N) sector, N >= 1, for a stack f
    of shape (..., k, k) on the leading k <= m modes and V of shape (d_N, r):
    shape (..., d_N, r).  Built from L_j = a_j V through the annihilation
    maps, never from a sector matrix."""
    lowered = _annihilate(V, m, N, f.shape[-1])
    return _create(np.einsum("...ij,jtr->...itr", f, lowered), m, N)


def collective_generator(h: SingleParticleObservable, m: int,
                         n_max: int) -> SingleParticleObservable:
    """``h`` itself, after checking that it acts on ``m`` modes: ``qfi`` takes
    the observable directly.  Kept for the benchmark's calling convention
    until the benchmark passes the observable to ``qfi`` itself; ``n_max``
    is unread."""
    if h.modes != m:
        raise ValidationError("observable mode count mismatch")
    return h


def _qfi_weights(mu: np.ndarray) -> np.ndarray:
    """w_kl = 2 (mu_k - mu_l)^2 / (mu_k + mu_l) over eigenvalues mu (0 where
    mu_k + mu_l <= QFI_EIGENVALUE_CUTOFF): a state's QFI for H is sum_kl w_kl
    |<k|H|l>|^2 in its eigenbasis."""
    s = mu[:, None] + mu[None, :]
    d = mu[:, None] - mu[None, :]
    w = np.zeros_like(s)
    mask = s > QFI_EIGENVALUE_CUTOFF
    w[mask] = 2.0 * d[mask] ** 2 / s[mask]
    return w


def _factor_qfi_form(BV: np.ndarray, V: np.ndarray, mu: np.ndarray) -> np.ndarray:
    """Q_ab = sum_kl w_kl Re(<k|B_a|l> conj <k|B_b|l>) over a full eigenbasis
    of rho = V diag(mu) V†, for Hermitian B_a given only BV[a] = B_a V.

    Pairs inside the support S (the columns of V) take the weights of mu;
    a pair of v_k with a vector outside S has weight 2 mu_k, and summing
    |<l|B|v_k>|^2 over those l gives ||(1 - V V†) B v_k||^2.  Pairs outside
    S have weight 0, so no eigenvector outside S is ever formed:
    Q_aa = sum_{k,l in S} w_kl |B_kl|^2 + 4 sum_k mu_k (||B v_k||^2 -
    sum_{l in S} |B_lk|^2).
    """
    inner = V.conj().T @ BV
    outside = (BV - V @ inner) * np.sqrt(4.0 * np.where(mu > QFI_EIGENVALUE_CUTOFF, mu, 0.0))
    inner = inner.reshape(len(BV), -1)
    outside = outside.reshape(len(BV), -1)
    form = (inner * _qfi_weights(mu).ravel()) @ inner.conj().T + outside @ outside.conj().T
    return form.real


def qfi(state: BlockDiagonalState, h: SingleParticleObservable) -> float:
    """QFI of the number-block state for the generator (sum over particles of
    h) / sqrt(N) on each sector N.

    Additive over blocks.  Each block is read as factors (V, lam) with global
    eigenvalues mu = p_N lam, so the eigenvalue cutoff acts on the weighted
    spectrum; h acts on V through the annihilation maps, and no dense block,
    sector matrix or d x d eigensolve is formed.
    """
    _check_block_state(state)
    if h.modes != state.modes:
        raise ValidationError("observable mode count mismatch")
    total = 0.0
    for N in state.sectors():
        if N == 0:
            continue
        V, lam = state.factor(N)
        hv = _apply_one_body(h.h, V, h.modes, N) / math.sqrt(N)
        total += _factor_qfi_form(hv[None], V, state.weight(N) * lam)[0, 0]
    return float(total)


def _one_body(state: BlockDiagonalState, modes: int) -> np.ndarray:
    """<a_i† a_j> / N averaged over the blocks, for i, j < modes: sum over N
    of (p_N / N) sum_k lam_k <a_i v_k, a_j v_k>; the vacuum contributes 0."""
    out = np.zeros((modes, modes), dtype=complex)
    for N in state.sectors():
        if N == 0:
            continue
        V, lam = state.factor(N)
        lowered = _annihilate(V * np.sqrt(lam), state.modes, N, modes)
        out += state.weight(N) / N * np.einsum("itr,jtr->ij", lowered.conj(), lowered)
    return out


def single_particle_variance(state: BlockDiagonalState,
                             h: SingleParticleObservable) -> float:
    """V = <h^2> - <h>^2 with single-particle averages over the blocks."""
    if h.modes != state.modes:
        raise ValidationError("observable mode count mismatch")
    one_body = _one_body(state, state.modes)
    mean = float(np.sum(h.h * one_body).real)
    mean_sq = float(np.sum((h.h @ h.h) * one_body).real)
    return float(mean_sq - mean * mean)


def qfi_minus_variance(state: BlockDiagonalState, h: SingleParticleObservable) -> float:
    """The objective F(rho, H_h) - 4 V(rho, h), not clipped at zero."""
    return qfi(state, h) - 4.0 * single_particle_variance(state, h)


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


@lru_cache(maxsize=None)
def _hermitian_basis(m: int) -> np.ndarray:
    """The m^2 Hermitians g_a with h(x) = sum_a x_a g_a, as (m^2, m, m);
    built on first use per m and read-only."""
    g = np.stack([_hermitian_from_params(e, m) for e in np.eye(m * m)])
    g.flags.writeable = False
    return g


@lru_cache(maxsize=None)
def _pauli_params() -> np.ndarray:
    """The coordinates x of sigma_x, sigma_y, sigma_z as columns, (4, 3);
    built on first use and read-only."""
    paulis = np.stack([_params_from_hermitian(PAULI[a]) for a in ("x", "y", "z")], axis=1)
    paulis.flags.writeable = False
    return paulis


def _mpef_form(state: BlockDiagonalState, h_support: int) -> np.ndarray:
    """M with F(rho, H_h) - 4 V(rho, h) = x^T M x for h = h(x) on the leading
    ``h_support`` modes.

    The QFI part is ``_factor_qfi_form`` over each block's factors (V, lam),
    with B_a the sector matrix of g_a divided by sqrt(N) applied to V through
    the annihilation maps, shape (h_support^2, d, r); the variance part is
    -4 (S - mu mu^T) with S_ab = <{g_a, g_b}/2> and mu_a = <g_a>
    single-particle averages over the blocks.
    """
    g = _hermitian_basis(h_support)
    qfi_part = np.zeros((len(g), len(g)))
    for N in state.sectors():
        if N == 0:
            continue
        V, lam = state.factor(N)
        bv = _apply_one_body(g, V, state.modes, N) / math.sqrt(N)
        qfi_part += _factor_qfi_form(bv, V, state.weight(N) * lam)
    one_body = _one_body(state, h_support)
    mu = np.einsum("aij,ij->a", g, one_body).real
    second = np.einsum("aij,bjk,ik->ab", g, g, one_body).real
    form = qfi_part - 4.0 * ((second + second.T) / 2 - np.outer(mu, mu))
    return (form + form.T) / 2


def _mpef_two_mode_exact(state: BlockDiagonalState) -> MpefResult:
    """Top eigenpair of the form on the Pauli directions: h = n . sigma has
    operator norm |n|, so the unit Bloch sphere is exactly the feasible set
    of traceless h.  That h needs none of ``SingleParticleObservable``'s
    checks."""
    paulis = _pauli_params()
    evals, evecs = np.linalg.eigh(paulis.T @ _mpef_form(state, 2) @ paulis)
    best = float(evals[-1])
    n = evecs[:, -1]
    h = _freeze(_bloch_matrix(n / np.linalg.norm(n)))
    theta = math.acos(max(-1.0, min(1.0, n[2])))
    phi = math.atan2(n[1], n[0])
    return MpefResult(
        lower=max(best, 0.0),
        upper=max(best, 0.0),
        h=_pad_observable(h, state.modes),
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

    The starts advance together as the columns of one stack C, shape
    (S, s^2, 1), with one stacked eigh per step.  Each start keeps its own
    momentum, restart and stopping rule, and every product is taken per
    start, so each start follows the iterates it would follow alone; a
    stopped start leaves the stack.
    """
    s = h_support
    g = _hermitian_basis(s)
    scale = np.sqrt(np.einsum("aij,aij->a", g, g.conj()).real)
    unit = (g / scale[:, None, None]).reshape(len(g), -1)
    unit_conj = unit.conj()
    form = _mpef_form(state, s) / np.outer(scale, scale)
    evals, evecs = np.linalg.eigh(form)
    rate = 1.0 / max(-evals[0], evals[-1], 1e-300)

    def observables(C):
        return (C.mT @ unit).reshape(len(C), s, s)

    def project(C):
        """P(y) for every column y of the stack C, (S, s^2, 1), and the list
        of their objectives."""
        lam, vecs = np.linalg.eigh(observables(C))
        P = (vecs * np.minimum(np.maximum(lam, -1.0), 1.0)[:, None]) @ vecs.conj().mT
        C = (unit_conj @ P.reshape(len(C), -1, 1)).real
        return C, (C.mT @ form @ C).ravel().tolist()

    def step(C):
        return project(C + rate * (form @ C))

    starts = [_params_from_hermitian(w) * scale for w in warm_starts]
    starts.append(evecs[:, -1])
    rng = np.random.default_rng(seed)
    for _ in range(n_restarts):
        starts.append(rng.normal(size=s * s) * scale)

    C, vals = project(np.array(starts)[:, :, None])
    prev, ks, live = C, [0] * len(starts), list(range(len(starts)))
    finals = [None] * len(starts)  # (final column, objective) per start
    iterations = 0
    for _ in range(MPEF_ASCENT_MAX_ITER):
        iterations += len(ks)
        Z = C + np.array([k / (k + 3) for k in ks])[:, None, None] * (C - prev)
        C_next, vals_next = step(Z)
        redo = [i for i, k in enumerate(ks) if k and vals_next[i] < vals[i]]
        ks = [k + 1 for k in ks]
        if redo:
            C_next[redo], redone = step(C[redo])
            for i, val in zip(redo, redone):
                ks[i], vals_next[i] = 0, val
        stop = [b - a <= MPEF_ASCENT_TOL for a, b in zip(vals, vals_next)]
        prev, C, vals = C, C_next, vals_next
        if True in stop:
            keep = []
            for i, stopped in enumerate(stop):
                if stopped:
                    finals[live[i]] = C[i], vals[i]
                else:
                    keep.append(i)
            live, ks, vals = [live[i] for i in keep], [ks[i] for i in keep], [vals[i] for i in keep]
            C, prev = C[keep], prev[keep]
            if not keep:
                break
    for i, start in enumerate(live):
        finals[start] = C[i], vals[i]

    top = (evecs[:, -1] @ unit).reshape(s, s)
    top_norm = np.max(np.abs(np.linalg.eigvalsh(top)))
    best_val, best_h = evals[-1] / top_norm**2, top / top_norm
    hs = observables(np.array([c for c, _ in finals]))
    norms = np.max(np.abs(np.linalg.eigvalsh(hs)), axis=1)
    for h, (_, val), norm in zip(hs, finals, norms):
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
    _check_hermitian(w, 1e-12, "a warm start")
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
    in Frobenius-orthonormal coordinates.  The starts advance together as
    one stack, but each keeps its own momentum, restart and stopping rule,
    so each follows the iterates it would follow alone and the result does
    not depend on how many starts share the stack.  Padded two-mode optima
    make good warm starts after vacuum appends.

    ``h_support`` restricts the observable to the leading modes; trailing
    modes then act as classical number registers that still count toward the
    per-sector 1/sqrt(N) normalization.  This realizes the measure for
    quantum-classical states with a memory: store each measurement record as
    a flag mode holding the measured particle count.

    Raises ValidationError for a state that is not a BlockDiagonalState, a
    seed that is not a nonnegative integer, a negative ``n_restarts``, a
    non-integer count, an ``h_support`` outside [1, modes] and a warm start
    that is not a finite Hermitian of at least h_support x h_support.
    """
    _check_block_state(state)
    _check_seed(seed)
    _check_count(n_restarts, "n_restarts")
    if h_support is None:
        h_support = state.modes
    _check_count(h_support, "h_support", 1)
    if h_support > state.modes:
        raise ValidationError("h_support must select a leading subset of modes")
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


def negativity(state: BlockDiagonalState, partition: ModePartition) -> float:
    """(||rho^{T_A}||_1 - 1) / 2 on the truncated joint space of every local
    occupation, each side ordered by local number, then by the sector basis
    of ``fock._local_number_layout``.  Raises DeskScaleError when that space,
    d_A d_B, is larger than the largest desk block (1716), before building
    the dense matrix."""
    _check_block_state(state)
    partition.check_covers(state.modes)
    layouts = [(N, _local_number_layout(state.modes, N, partition)) for N in state.sectors()]
    dims_a, dims_b = {}, {}
    for _, layout in layouts:
        for (na, nb), (_, ba, bb) in layout.items():
            dims_a[na], dims_b[nb] = ba.dim, bb.dim
    start_a = dict(zip(sorted(dims_a), np.cumsum([0] + [dims_a[n] for n in sorted(dims_a)])))
    start_b = dict(zip(sorted(dims_b), np.cumsum([0] + [dims_b[n] for n in sorted(dims_b)])))
    da, db = sum(dims_a.values()), sum(dims_b.values())
    _gate_dense(da * db, da * db, "joint space d_A x d_B = %d x %d (use the sector measures)",
                da, db)
    rho = np.zeros((da, db, da, db), dtype=complex)
    # each basis state has its own (ia, ib), and blocks of different N share
    # none, so every block fills its entries in one assignment
    for N, layout in layouts:
        ia = np.empty(FockBasis(state.modes, N).dim, dtype=int)
        ib = np.empty_like(ia)
        for (na, nb), (rows, _, bb) in layout.items():
            i = np.arange(len(rows))
            ia[rows], ib[rows] = start_a[na] + i // bb.dim, start_b[nb] + i % bb.dim
        rho[ia[:, None], ib[:, None], ia, ib] = state.weight(N) * state.block(N)
    return float(_partial_transpose_negativity(rho))


def _schmidt_values(sector: SectorState) -> np.ndarray:
    """Singular values of the d_A x d_B amplitude matrix of the sector's
    leading vector: its one-column factor, or the leading left singular
    vector of a wider factor."""
    da, db = sector.dims
    f = sector.factor()
    vec = f[:, 0] if f.shape[1] == 1 else np.linalg.svd(f, full_matrices=False)[0][:, 0]
    return np.linalg.svd(vec.reshape(da, db), compute_uv=False)


def _pure_negativity(svals: np.ndarray) -> np.ndarray:
    """((sum_i s_i)^2 - 1) / 2 over the Schmidt values (last axis) of unit
    vectors (Vidal & Werner, PRA 65, 032314 (2002)), clipped at 0; leading
    axes are a batch."""
    return np.maximum((np.sum(svals, axis=-1) ** 2 - 1.0) / 2.0, 0.0)


def _schmidt_probabilities(svals: np.ndarray) -> np.ndarray:
    probs = svals**2
    return probs / probs.sum()


def _partial_transpose_negativity(rho: np.ndarray) -> np.ndarray:
    """(||rho^{T_A}||_1 - 1) / 2 for rho indexed [..., a, b, a', b'],
    clipped at 0; leading axes are a batch."""
    da, db = rho.shape[-4:-2]
    pt = np.swapaxes(rho, -4, -2).reshape(rho.shape[:-4] + (da * db, da * db))
    evals = np.linalg.eigvalsh((pt + np.swapaxes(pt, -1, -2).conj()) / 2)
    return np.maximum((np.sum(np.abs(evals), axis=-1) - 1.0) / 2.0, 0.0)


def _two_row_negativity(amps: np.ndarray) -> np.ndarray:
    """Negativity sigma_1 sigma_2 of unit vectors from their amplitude
    matrices M, a stack (B, 2, n) or (B, n, 2) (transposed to two rows):
    sqrt(sum_{i<j} |M_0i M_1j - M_0j M_1i|^2), which is sqrt(det M M^dag) by
    Cauchy-Binet and has no cancellation near rank one.  The minors are
    taken over all (i, j), which counts each pair twice."""
    if amps.shape[1] != 2:
        amps = np.swapaxes(amps, 1, 2)
    x = amps[:, 0, :, None] * amps[:, 1, None, :]
    minors = x - np.swapaxes(x, 1, 2)
    return np.sqrt((minors.real**2 + minors.imag**2).sum(axis=(1, 2)) / 2)


def _sector_negativities(factors: np.ndarray, da: int, db: int) -> np.ndarray:
    """Negativities of a stack of (N_A, N_B) sector states F F† from their
    unit-norm factors F, shape (B, d_A d_B, k) in the product order
    i_A * d_B + i_B: a one-column F through the singular values of F as a
    d_A x d_B matrix, in closed form when min(d_A, d_B) = 2
    (``_two_row_negativity``; on 2 x 2, its one minor |a00 a11 - a01 a10|,
    the same floats), a wider one through the partial transpose of
    F F† (Vidal & Werner, PRA 65, 032314 (2002)), which raises
    DeskScaleError first when d_A d_B is larger than one desk block (1716)."""
    if factors.shape[2] == 1 and da == db == 2:
        a = factors[:, :, 0]
        minor = a[:, 0] * a[:, 3] - a[:, 1] * a[:, 2]
        return np.sqrt(minor.real**2 + minor.imag**2)
    if factors.shape[2] == 1 and min(da, db) == 2:
        return _two_row_negativity(factors.reshape(-1, da, db))
    if factors.shape[2] == 1:
        return _pure_negativity(np.linalg.svd(factors.reshape(-1, da, db), compute_uv=False))
    _gate_dense(da * db, da * db, "partial transpose of the d_A x d_B = %d x %d sector",
                da, db)
    mat = factors @ np.swapaxes(factors, 1, 2).conj()
    mat = (mat + np.swapaxes(mat, 1, 2).conj()) / 2
    return _partial_transpose_negativity(mat.reshape(-1, da, db, da, db))


def sector_negativity(sector: SectorState) -> float:
    """Negativity of one (N_A, N_B) sector, from its factor through
    ``_sector_negativities``, the kernel of the activation search."""
    da, db = sector.dims
    return float(_sector_negativities(sector.factor()[None], da, db)[0])


def schmidt_spectrum(sector: SectorState, tol: float = 1e-8) -> np.ndarray:
    """Schmidt coefficients (squared) of a pure sector state: the leading
    left singular vector of its factor, reshaped to d_A x d_B, and that
    matrix's singular values."""
    if not sector.is_pure(tol):
        raise ValidationError("sector state is not pure")
    return _schmidt_probabilities(_schmidt_values(sector))


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
    _check_block_state(s1, "s1")
    _check_block_state(s2, "s2")
    if s1.modes != s2.modes:
        raise ValidationError("states live on different mode counts")
    total = 0.0
    for N in sorted(set(s1.sectors()) | set(s2.sectors())):
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
