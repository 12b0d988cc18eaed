"""Constructors for free (particle-separable), classical, and benchmark states.

A pure free state puts all N particles in one single-particle mode psi; mixed
free states are convex mixtures of those.  Every such state, and every number
block of a classical (Poisson) or exchangeable mixture, comes from one
vectorised kernel: ``_css_amplitudes`` gives the Fock amplitudes of
|css(d, n)> as the rows of a matrix A, one row per direction d, and a block
sum_t c_t |css_t><css_t| = A^T diag(c) A* is born factored from them.
Mixed-state separability is decided exactly only on the two-mode two-particle
sector, via the positive partial transpose criterion on the first-quantized
two-qubit embedding.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .fock import (
    BLOCK_DROP_TOL,
    DESK,
    BlockDiagonalState,
    DeskCaps,
    DeskScaleError,
    PureSectorState,
    ValidationError,
    _column_factors,
    _desk_caps_at_least,
    _eigh_factors,
    _gate_dense,
    _normalized_state,
    enumerate_basis,
    mix_states,
    single_particle_rdm,
    vacuum_state,
)

POISSON_TAIL_TOL = 1e-6
# Largest Poisson cutoff or particle number whose support (one float per n)
# is evaluated densely; criterion 06 reaches N = 1e4.
_MAX_DENSE_SUPPORT = 10**6

# log k! for k = 0..size - 1; entries never change as the table grows
_LOG_FACTORIALS = np.array([math.log(math.factorial(k)) for k in range(32)])
_LOG_FACTORIALS.flags.writeable = False


def _log_factorials(n_max: int) -> np.ndarray:
    """log k! for k = 0..n_max, a read-only view of a module table that
    grows by doubling.  Entries below 32 are the logs of the exact integers
    k!; above, the Stirling series for log Gamma(x) at x = k + 1 through its
    x**-7 term, whose truncation error there is below 2e-17.  Every entry
    is within 2 ulps of log k!."""
    global _LOG_FACTORIALS
    size = _LOG_FACTORIALS.size
    if n_max >= size:
        while size <= n_max:
            size *= 2
        x = np.arange(_LOG_FACTORIALS.size + 1, size + 1, dtype=float)
        inv2 = 1.0 / (x * x)
        series = (1.0 / 12 - inv2 * (1.0 / 360 - inv2 * (1.0 / 1260 - inv2 / 1680))) / x
        table = np.concatenate([_LOG_FACTORIALS, (x - 0.5) * np.log(x) - x
                                + 0.5 * math.log(2.0 * math.pi) + series])
        table.flags.writeable = False
        _LOG_FACTORIALS = table
    return _LOG_FACTORIALS[:n_max + 1]


@dataclass(frozen=True)
class CoherentSpinSpec:
    """All N particles in the single-particle mode psi."""

    psi: np.ndarray
    N: int

    def __post_init__(self):
        psi = np.asarray(self.psi, dtype=complex)
        if psi.ndim != 1 or psi.size < 1:
            raise ValidationError("psi must be a nonempty vector")
        if not abs(np.linalg.norm(psi) - 1.0) <= 1e-12:
            raise ValidationError("psi must be a finite unit vector")
        if self.N < 0:
            raise ValidationError("N must be nonnegative")
        psi.flags.writeable = False
        object.__setattr__(self, "psi", psi)

    @property
    def modes(self) -> int:
        return self.psi.size


@dataclass(frozen=True)
class SeparableMixtureSpec:
    """Convex mixture of coherent spin states sharing one particle number."""

    terms: tuple

    def __post_init__(self):
        parsed = _classical_terms([(w, spec.psi) for w, spec in self.terms])
        terms = tuple((w, spec) for (w, _), (_, spec) in zip(parsed, self.terms))
        n0 = terms[0][1].N
        m0 = terms[0][1].modes
        if any(spec.N != n0 or spec.modes != m0 for _, spec in terms):
            raise ValidationError("all terms must share N and the mode count")
        object.__setattr__(self, "terms", terms)


def _css_amplitudes(dirs: np.ndarray, n: int, caps: DeskCaps) -> np.ndarray:
    """Rows: the Fock amplitudes sqrt(n! / prod n_i!) prod d_i^{n_i} of
    |css(d, n)> for each row d of ``dirs``; a zero row is the vacuum at n = 0
    and vanishes above it; the (rows, dim, modes) powers go 2**20 at a time."""
    occ = np.array(enumerate_basis(dirs.shape[1], n, caps).states)
    log_fact = _log_factorials(n)
    log_multinom = log_fact[n] - np.sum(log_fact[occ], axis=1)
    out = np.empty((len(dirs), len(occ)), dtype=complex)
    chunk = max(1, 2**20 // occ.size)
    for s in range(0, len(dirs), chunk):
        out[s:s + chunk] = np.exp(0.5 * log_multinom) * np.prod(
            dirs[s:s + chunk, None, :] ** occ, axis=2)
    return out


def _css_block(dirs: np.ndarray, coef: np.ndarray, n: int, caps: DeskCaps) -> np.ndarray:
    """sum_t coef[t] |css(dirs[t], n)><css(dirs[t], n)| = A^T diag(coef) A*
    with A = ``_css_amplitudes``; the 1 x 1 block [[sum coef]] at n = 0.
    Rows of zero coefficient are skipped, and A is built a chunk of rows at
    a time so that its (rows, dim, modes) power temporary stays at 2**20
    entries.  A sector above the desk block size (1716) raises DeskScaleError
    before allocating."""
    keep = coef != 0
    dirs, coef = dirs[keep], coef[keep]
    dim = enumerate_basis(dirs.shape[1], n, caps).dim
    _gate_dense(dim, f"coherent-spin block on (m={dirs.shape[1]}, N={n})")
    mat = np.zeros((dim, dim), dtype=complex)
    chunk = max(1, 2**20 // (dim * dirs.shape[1]))
    for s in range(0, coef.size, chunk):
        amps = _css_amplitudes(dirs[s:s + chunk], n, caps)
        mat += amps.T @ (coef[s:s + chunk, None] * amps.conj())
    return mat


def coherent_spin_state(spec: CoherentSpinSpec, caps: DeskCaps = DESK) -> PureSectorState:
    """Amplitudes of (sum_i psi_i a_i†)^N |0> / sqrt(N!) in the canonical basis."""
    amps = _css_amplitudes(spec.psi[None, :], spec.N, caps)[0]
    return PureSectorState(enumerate_basis(spec.modes, spec.N, caps), amps / np.linalg.norm(amps))


def css_density(psi, N: int, caps: DeskCaps = DESK) -> np.ndarray:
    """|css(psi / |psi|, N)><css(psi / |psi|, N)| as a dense sector block."""
    spec = CoherentSpinSpec(_unit_rows([psi])[0], N)
    return _css_block(spec.psi[None, :], np.ones(1), N, caps)


def _unit_rows(vectors) -> np.ndarray:
    """The vectors, each scaled to unit norm, as the rows of a complex array."""
    rows = np.array(vectors, dtype=complex)
    return rows / np.linalg.norm(rows, axis=1, keepdims=True)


def _block_coefficients(weights: np.ndarray) -> tuple[np.ndarray, float]:
    """Per-term weights (terms x n) -> each term's coherent-spin coefficient
    in the state ``_direction_mixture_state`` builds, and the mass kept:
    entries below 1e-16 are skipped, the rest divided by the kept mass, and
    blocks of trace at most BLOCK_DROP_TOL dropped."""
    kept = np.where(weights < 1e-16, 0.0, weights)
    traces = kept.sum(axis=0)
    total = float(traces.sum())
    return np.where(traces > BLOCK_DROP_TOL, kept, 0.0) / total, total


def _direction_mixture_state(directions, weights: np.ndarray, l: int,
                             caps: DeskCaps) -> BlockDiagonalState:
    """sum_t sum_n c[t, n] |css(directions[t], n)><..| on l modes, for
    c = ``_block_coefficients(weights)``; only blocks with a kept term are
    built, from the columns A^T sqrt(c), or by ``_css_block`` when the terms
    are as many as the basis states.  A None direction has no weight above 0."""
    dirs = np.array([np.zeros(l) if d is None else d for d in directions], dtype=complex)
    coef, _ = _block_coefficients(weights)
    factors = {}
    for n in np.flatnonzero(coef.any(axis=0)).tolist():
        c = coef[:, n]
        if np.count_nonzero(c) < enumerate_basis(l, n, caps).dim:
            factors[n] = _column_factors(_css_amplitudes(dirs[c != 0], n, caps).T
                                         * np.sqrt(c[c != 0]))
        else:
            factors[n] = _eigh_factors(_css_block(dirs, c, n, caps))[:2]
    return _normalized_state(l, factors)


def particle_separable_mixture(spec: SeparableMixtureSpec,
                               caps: DeskCaps = DESK) -> BlockDiagonalState:
    """Convex mixture of coherent spin states with a common particle number."""
    n, m = spec.terms[0][1].N, spec.terms[0][1].modes
    rows = np.zeros((len(spec.terms), n + 1))
    rows[:, n] = [w for w, _ in spec.terms]
    return _direction_mixture_state(_unit_rows([cs.psi for _, cs in spec.terms]), rows, m, caps)


def random_direction(m: int, rng) -> np.ndarray:
    z = rng.normal(size=m) + 1j * rng.normal(size=m)
    return z / np.linalg.norm(z)


def random_particle_separable(m: int, N: int, k: int, seed,
                              caps: DeskCaps = DESK) -> BlockDiagonalState:
    """Seeded random k-term mixture of coherent spin states at fixed N."""
    rng = np.random.default_rng(seed)
    weights = rng.dirichlet(np.ones(k))
    terms = tuple(
        (w, CoherentSpinSpec(random_direction(m, rng), N)) for w in weights
    )
    return particle_separable_mixture(SeparableMixtureSpec(terms), caps)


def random_free_state(m: int, max_n: int, seed, k: int = 3,
                      caps: DeskCaps = DESK) -> BlockDiagonalState:
    """Random particle-separable state mixing particle numbers 0..max_n."""
    rng = np.random.default_rng(seed)
    weights = rng.dirichlet(np.ones(max_n + 1))
    parts = []
    for n, w in enumerate(weights):
        if n == 0:
            parts.append((w, vacuum_state(m)))
        else:
            sub = int(rng.integers(0, 2**31))
            parts.append((w, random_particle_separable(m, n, k, sub, caps)))
    return mix_states(parts)


def is_coherent_spin_pure(s: PureSectorState, tol: float = 1e-9) -> bool:
    """A pure symmetric state is |psi>^{⊗N} iff its one-particle RDM is pure."""
    if s.particles < 1:
        raise ValidationError("needs at least one particle")
    rdm = single_particle_rdm(s)
    return np.trace(rdm @ rdm).real >= 1.0 - tol


_SYM_EMBED = None


def symmetric_two_qubit_embedding() -> np.ndarray:
    """Isometry from the (m=2, N=2) sector onto the symmetric two-qubit space:
    |2,0> -> |00>, |1,1> -> (|01>+|10>)/sqrt(2), |0,2> -> |11>."""
    global _SYM_EMBED
    if _SYM_EMBED is None:
        e = np.zeros((4, 3))
        e[0, 0] = 1.0
        e[1, 1] = e[2, 1] = 1.0 / math.sqrt(2.0)
        e[3, 2] = 1.0
        e.flags.writeable = False
        _SYM_EMBED = e
    return _SYM_EMBED


def is_particle_separable_two_qubit(block: np.ndarray, tol: float = 1e-10) -> bool:
    """Exact separability test for a density matrix on the (m=2, N=2) sector.

    Embeds into two first-quantized qubits and applies the PPT criterion,
    which is necessary and sufficient there.  Other sector shapes are
    rejected: separability is undecidable at this scale; use witnesses.
    """
    block = np.asarray(block, dtype=complex)
    if block.shape != (3, 3):
        raise ValidationError(
            "separability is decided only on the (m=2, N=2) sector; "
            "undecidable at this scale; use witnesses"
        )
    e = symmetric_two_qubit_embedding()
    rho = e @ block @ e.conj().T
    # partial transpose on the first qubit
    r = rho.reshape(2, 2, 2, 2)
    pt = r.transpose(2, 1, 0, 3).reshape(4, 4)
    return np.linalg.eigvalsh((pt + pt.conj().T) / 2).min() >= -tol


def poisson_weights(mu, n_max: int) -> np.ndarray:
    """Poisson(mu) pmf over n = 0..n_max in closed form,
    exp(n log mu - log n! - mu) with log n! from ``_log_factorials``; mu = 0
    is the point mass at n = 0.  An array of means gives one row per mean.
    The relative error is a few ulps of the log's terms: about 2e-12 near
    n = 500 and 2e-10 near n = 5e4.  Raises DeskScaleError, before
    allocating, for a cutoff n_max above 1e6."""
    if n_max > _MAX_DENSE_SUPPORT:
        raise DeskScaleError(
            f"n_max={n_max} exceeds the dense support cap {_MAX_DENSE_SUPPORT}")
    rate = np.asarray(mu, dtype=float)[..., None]
    n = np.arange(n_max + 1)
    logs = n * np.log(np.where(rate > 0, rate, 1.0)) - _log_factorials(n_max) - rate
    return np.where(rate > 0, np.exp(logs), n == 0)


def default_poisson_truncation(mu: float) -> int:
    """Smallest cutoff of the form ceil(mu + 6 sqrt(mu)) or above whose
    Poisson tail satisfies the 1e-6 truncation guard (the bare 6-sigma rule
    undershoots for small means).  Raises DeskScaleError, before allocating,
    for a cutoff above 1e6."""
    if mu <= 0:
        return 0
    n_max = int(math.ceil(mu + 6.0 * math.sqrt(mu)))
    if n_max > _MAX_DENSE_SUPPORT:
        raise DeskScaleError(f"Poisson mean {mu:.6g} needs a cutoff n_max={n_max}, which "
                             f"exceeds the dense support cap {_MAX_DENSE_SUPPORT}")
    while poisson_weights(mu, n_max).sum() < 1.0 - POISSON_TAIL_TOL:
        n_max += 1
    return n_max


def _truncated_poisson_weights(mu: float, n_max: int) -> tuple[np.ndarray, float]:
    """Poisson(mu) weights over 0..n_max and their sum; raises ValidationError
    when the truncation keeps less than 1 - 1e-6 of the mass."""
    weights = poisson_weights(mu, n_max)
    mass = weights.sum()
    if mass < 1.0 - POISSON_TAIL_TOL:
        raise ValidationError(
            f"truncation at n_max={n_max} keeps only {mass:.8f} of the "
            f"Poisson mass for mean {mu:.4f}; raise n_max"
        )
    return weights, mass


def _classical_terms(alpha) -> list[tuple[float, np.ndarray]]:
    """One amplitude vector, or a list of (weight, vector) pairs, as a checked
    list of (weight, vector) terms; a parsed list parses to itself."""
    if isinstance(alpha, (list, tuple)) and alpha and isinstance(alpha[0], tuple):
        terms = [(float(w), np.asarray(a, dtype=complex).ravel()) for w, a in alpha]
    else:
        terms = [(1.0, np.asarray(alpha, dtype=complex).ravel())]
    m = terms[0][1].size
    if m == 0:
        raise ValidationError("a classical mixture needs at least one term and one mode")
    if any(a.size != m for _, a in terms):
        raise ValidationError("all coherent vectors must share the mode count")
    if not all(np.all(np.isfinite(a)) for _, a in terms):
        raise ValidationError("coherent amplitudes must be finite")
    if not all(w >= 0 for w, _ in terms):
        raise ValidationError("classical mixture weights must be nonnegative")
    if not abs(sum(w for w, _ in terms) - 1.0) <= 1e-12:
        raise ValidationError("classical mixture weights must sum to 1")
    return terms


def _poisson_rows(terms, n_max: int) -> tuple[list, np.ndarray]:
    """A parsed classical mixture as its directions a / |a| (None for a zero
    vector) and its per-term rows over n = 0..n_max: the term's weight times
    its Poisson(|a|^2) weights of at least 1e-15, over the truncated mass."""
    directions, rows = [], []
    for w, a in terms:
        mu = float(np.vdot(a, a).real)
        weights, mass = _truncated_poisson_weights(mu, n_max)
        directions.append(a / math.sqrt(mu) if mu > 0 else None)
        rows.append(w * np.where(weights < 1e-15, 0.0, weights) / mass)
    return directions, np.array(rows)


def classical_nd_state(alpha, n_max: int | None = None,
                       caps: DeskCaps | None = None) -> BlockDiagonalState:
    """Number-dephased (mixture of) multimode coherent state(s).

    ``alpha`` is one complex amplitude vector or a list of (weight, vector)
    pairs.  Each term becomes a Poisson mixture over total number of coherent
    spin states along alpha/|alpha|, truncated at n_max and renormalized; the
    truncated tail must weigh less than 1e-6.  Raises ValidationError for an
    empty list or vector, a negative weight, weights not summing to 1 within
    1e-12, vectors with different mode counts, or non-finite amplitudes.
    """
    terms = _classical_terms(alpha)
    m = terms[0][1].size
    if n_max is None:
        n_max = max(default_poisson_truncation(float(np.vdot(a, a).real)) for _, a in terms)
    if caps is None:
        caps = _desk_caps_at_least(n_max, m)
    return _direction_mixture_state(*_poisson_rows(terms, n_max), m, caps)


def classical_truncation_mass(alpha, n_max: int) -> float:
    """Poisson tail mass discarded by truncating at n_max (worst term)."""
    tail = 0.0
    for w, a in _classical_terms(alpha):
        mu = float(np.vdot(a, a).real)
        tail += w * (1.0 - poisson_weights(mu, n_max).sum())
    return max(tail, 0.0)


def noon_state(N: int, caps: DeskCaps = DESK) -> PureSectorState:
    """(|N,0> + |0,N>)/sqrt(2) on two modes."""
    if N < 1:
        raise ValidationError("NOON state needs N >= 1")
    basis = enumerate_basis(2, N, caps)
    amps = np.zeros(basis.dim, dtype=complex)
    amps[basis.index((N, 0))] = 1.0 / math.sqrt(2.0)
    amps[basis.index((0, N))] = 1.0 / math.sqrt(2.0)
    return PureSectorState(basis, amps)

