"""Constructors for free (particle-separable), classical, and benchmark states.

A pure free state puts all N particles in one single-particle mode psi; mixed
free states are convex mixtures of those.  Mixed-state separability is decided
exactly only on the two-mode two-particle sector, via the positive partial
transpose criterion on the first-quantized two-qubit embedding.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .fock import (
    DESK,
    BlockDiagonalState,
    DeskCaps,
    PureSectorState,
    ValidationError,
    _desk_caps_at_least,
    canonical_phase,
    enumerate_basis,
    mix_states,
    single_particle_rdm,
    vacuum_state,
)

POISSON_TAIL_TOL = 1e-6


@dataclass(frozen=True)
class CoherentSpinSpec:
    """All N particles in the single-particle mode psi."""

    psi: np.ndarray
    N: int

    def __post_init__(self):
        psi = np.asarray(self.psi, dtype=complex)
        if psi.ndim != 1 or psi.size < 1:
            raise ValidationError("psi must be a nonempty vector")
        if abs(np.linalg.norm(psi) - 1.0) > 1e-12:
            raise ValidationError("psi must be a unit vector")
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
        terms = tuple((float(w), spec) for w, spec in self.terms)
        if not terms:
            raise ValidationError("mixture needs at least one term")
        if any(w < 0 for w, _ in terms):
            raise ValidationError("mixture weights must be nonnegative")
        if abs(sum(w for w, _ in terms) - 1.0) > 1e-12:
            raise ValidationError("mixture weights must sum to 1")
        n0 = terms[0][1].N
        m0 = terms[0][1].modes
        if any(spec.N != n0 or spec.modes != m0 for _, spec in terms):
            raise ValidationError("all terms must share N and the mode count")
        object.__setattr__(self, "terms", terms)


def coherent_spin_state(spec: CoherentSpinSpec, caps: DeskCaps = DESK) -> PureSectorState:
    """Amplitudes of (sum_i psi_i a_i†)^N |0> / sqrt(N!) in the canonical basis."""
    basis = enumerate_basis(spec.modes, spec.N, caps)
    amps = np.empty(basis.dim, dtype=complex)
    logfacts = [math.lgamma(k + 1) for k in range(spec.N + 1)]
    for i, occ in enumerate(basis.states):
        # sqrt(N! / prod n_i!) * prod psi_i^{n_i}
        log_multinom = logfacts[spec.N] - sum(logfacts[n] for n in occ)
        coef = math.exp(0.5 * log_multinom)
        for p, n in zip(spec.psi, occ):
            coef = coef * p**n
        amps[i] = coef
    amps = amps / np.linalg.norm(amps)
    return PureSectorState(basis, amps)


def css_density(psi, N: int, caps: DeskCaps = DESK) -> np.ndarray:
    psi = np.asarray(psi, dtype=complex)
    spec = CoherentSpinSpec(psi / np.linalg.norm(psi), N)
    return coherent_spin_state(spec, caps).density()


def particle_separable_mixture(spec: SeparableMixtureSpec,
                               caps: DeskCaps = DESK) -> BlockDiagonalState:
    """Convex mixture of coherent spin states with a common particle number."""
    n = spec.terms[0][1].N
    m = spec.terms[0][1].modes
    if n == 0:
        return vacuum_state(m)
    basis = enumerate_basis(m, n, caps)
    mat = np.zeros((basis.dim, basis.dim), dtype=complex)
    for w, cs in spec.terms:
        mat += w * coherent_spin_state(cs, caps).density()
    return BlockDiagonalState(m, {n: (1.0, mat)}, caps=caps)


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


def poisson_weights(mu: float, n_max: int) -> np.ndarray:
    n = np.arange(n_max + 1)
    if mu == 0.0:
        w = np.zeros(n_max + 1)
        w[0] = 1.0
        return w
    logs = n * math.log(mu) - mu - np.array([math.lgamma(k + 1) for k in n])
    return np.exp(logs)


def default_poisson_truncation(mu: float) -> int:
    """Smallest cutoff of the form ceil(mu + 6 sqrt(mu)) or above whose
    Poisson tail satisfies the 1e-6 truncation guard (the bare 6-sigma rule
    undershoots for small means)."""
    if mu <= 0:
        return 0
    n_max = int(math.ceil(mu + 6.0 * math.sqrt(mu)))
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
    mus = [float(np.vdot(a, a).real) for _, a in terms]
    if n_max is None:
        n_max = max(default_poisson_truncation(mu) for mu in mus)
    if caps is None:
        caps = _desk_caps_at_least(n_max, m)
    parts = []
    for (w, a), mu in zip(terms, mus):
        weights, mass = _truncated_poisson_weights(mu, n_max)
        direction = a / math.sqrt(mu) if mu > 0 else None
        blocks = {}
        for n, pw in enumerate(weights):
            if pw < 1e-15:
                continue
            block = css_density(direction, n, caps) if n else np.ones((1, 1), dtype=complex)
            blocks[n] = (pw / mass, block)
        parts.append((w, BlockDiagonalState(m, blocks, caps=caps)))
    return mix_states(parts) if len(parts) > 1 else parts[0][1]


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


def states_equal_up_to_phase(a: PureSectorState, b: PureSectorState,
                             tol: float = 1e-10) -> bool:
    if a.basis != b.basis:
        return False
    va = canonical_phase(a.amplitudes)
    vb = canonical_phase(b.amplitudes)
    return bool(np.max(np.abs(va - vb)) <= tol)
