"""Multi-copy unlocking of particle entanglement and classical approximations.

Classical number-diagonal states (Poisson mixtures of coherent spin states
along a direction) are particle-separable, and tensor powers of classical
states stay classical.  Conversely, an exchangeable particle-separable state
on m modes is within trace distance l/m of a classical state on any l of
them, built by replacing per-direction binomial number statistics with
Poisson ones.  That construction, the supporting binomial-Poisson bound, and
the two-copy activation check live here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import permutations, product

import numpy as np
from scipy import stats

from .fock import (
    DESK,
    BlockDiagonalState,
    DeskCaps,
    ValidationError,
    _desk_caps_at_least,
    _normalized_blocks,
    tensor_compose,
    vacuum_state,
)
from .activation import ActivationReport, ActivationSpec, activate
from .measures import block_trace_distance
from .states import (
    _classical_terms,
    classical_nd_state,
    classical_truncation_mass,
    css_density,
    default_poisson_truncation,
    is_particle_separable_two_qubit,
    poisson_weights,
)


@dataclass(frozen=True)
class BinomialPoissonResult:
    distance: float
    bound: float
    satisfied: bool
    mean: float


def binomial_poisson_distance(N: int, p: float) -> BinomialPoissonResult:
    """Total variation distance between Binomial(N, p) and Poisson(Np).

    Log-space pmfs keep the computation stable for N up to 1e4; the Poisson
    tail beyond the evaluated support is added exactly.  The distance never
    exceeds p."""
    if not 0.0 <= p <= 1.0:
        raise ValidationError("p must lie in [0, 1]")
    if N < 0:
        raise ValidationError("N must be nonnegative")
    mu = N * p
    if p == 0.0 or N == 0:
        return BinomialPoissonResult(0.0, p, True, mu)
    hi = max(N, int(math.ceil(mu + 20.0 * math.sqrt(mu + 1.0) + 25.0)))
    k = np.arange(hi + 1)
    with np.errstate(divide="ignore"):
        b = np.exp(stats.binom.logpmf(k, N, p))
        q = np.exp(stats.poisson.logpmf(k, mu))
    tail = float(stats.poisson.sf(hi, mu))
    dist = 0.5 * float(np.sum(np.abs(b - q))) + 0.5 * tail
    return BinomialPoissonResult(dist, p, dist <= p + 1e-12, mu)


@dataclass(frozen=True)
class ExchangeableSeparableSpec:
    """Mixture of N-particle coherent spin states, symmetrized over modes.

    ``terms`` are (weight, single-particle amplitude vector on m modes)
    pairs; the constructor symmetrizes over all mode permutations so the
    resulting state is exchangeable whatever the supplied directions.
    """

    N: int
    m: int
    terms: tuple

    def __post_init__(self):
        if self.N < 0 or self.m < 1:
            raise ValidationError("need N >= 0 and m >= 1")
        terms = []
        for w, c in self.terms:
            c = np.asarray(c, dtype=complex).ravel()
            if c.size != self.m:
                raise ValidationError("amplitude vector length must equal m")
            if abs(np.linalg.norm(c) - 1.0) > 1e-10:
                raise ValidationError("amplitude vectors must be unit norm")
            if w < 0:
                raise ValidationError("weights must be nonnegative")
            terms.append((float(w), c))
        if abs(sum(w for w, _ in terms) - 1.0) > 1e-10:
            raise ValidationError("weights must sum to 1")
        object.__setattr__(self, "terms", tuple(terms))

    def symmetrized_terms(self):
        perms = list(permutations(range(self.m)))
        out = []
        for w, c in self.terms:
            for perm in perms:
                out.append((w / len(perms), c[list(perm)]))
        return out


def exchangeable_state(spec: ExchangeableSeparableSpec,
                       caps: DeskCaps | None = None) -> BlockDiagonalState:
    """The full m-mode state described by ``spec`` (single block at N)."""
    if caps is None:
        caps = _desk_caps_at_least(spec.N, spec.m)
    if spec.N == 0:
        return vacuum_state(spec.m)
    mat = None
    for w, c in spec.symmetrized_terms():
        d = css_density(c, spec.N, caps)
        mat = w * d if mat is None else mat + w * d
    return BlockDiagonalState(spec.m, {spec.N: (1.0, mat)}, caps=caps)


def _direction_mixture_state(terms, l: int, number_weights, n_hi: int,
                             caps: DeskCaps) -> tuple[BlockDiagonalState, float]:
    """Assemble sum_t w_t sum_n weights_t(n) |css(dir_t, n)> on l modes.

    ``number_weights(t)`` returns the weight array over n = 0..n_hi for term
    t.  Returns the normalized state and the total mass kept."""
    acc: dict[int, np.ndarray] = {}
    for t, (w, direction) in enumerate(terms):
        weights = number_weights(t)
        for n in range(n_hi + 1):
            pw = w * weights[n]
            if pw < 1e-16:
                continue
            d = css_density(direction, n, caps) if n else np.ones((1, 1), dtype=complex)
            blk = acc.setdefault(n, np.zeros_like(d))
            blk += pw * d
    blocks, kept = _normalized_blocks(acc)
    return BlockDiagonalState(l, blocks, caps=caps), kept


@dataclass(frozen=True)
class DefinettiResult:
    rho_reduced: BlockDiagonalState
    sigma_classical: BlockDiagonalState
    distance: float
    bound: float
    truncation_mass: float
    satisfied: bool


def definetti_classical_approx(spec: ExchangeableSeparableSpec, l: int,
                               n_max: int | None = None) -> DefinettiResult:
    """Classical approximation of the l-mode reduction of an exchangeable
    particle-separable state, with the trace-distance bound l/m.

    The reduction of each coherent-spin direction carries binomial number
    statistics with success probability equal to the direction's weight on
    the retained modes; the approximation replaces them with Poisson
    statistics of the same mean."""
    if not 1 <= l <= spec.m:
        raise ValidationError(f"need 1 <= l <= m, got l={l}, m={spec.m}")
    terms = []
    for w, c in spec.symmetrized_terms():
        p_ret = min(float(np.sum(np.abs(c[:l]) ** 2)), 1.0)
        if p_ret > 1e-15:
            direction = c[:l] / math.sqrt(p_ret)
        else:
            direction = None
        terms.append((w, direction, p_ret))
    if n_max is None:
        n_max = max(spec.N,
                    max(default_poisson_truncation(spec.N * p) for _, _, p in terms))
    caps = _desk_caps_at_least(n_max, spec.m)

    dir_terms = [(w, d) for w, d, _ in terms]
    binom_w = [np.concatenate([stats.binom.pmf(np.arange(spec.N + 1), spec.N, p),
                               np.zeros(n_max - spec.N)]) if n_max > spec.N
               else stats.binom.pmf(np.arange(n_max + 1), spec.N, p)
               for _, _, p in terms]
    pois_w = [poisson_weights(spec.N * p, n_max) for _, _, p in terms]

    rho, rho_mass = _direction_mixture_state(dir_terms, l, lambda t: binom_w[t],
                                             n_max, caps)
    sigma, sigma_mass = _direction_mixture_state(dir_terms, l, lambda t: pois_w[t],
                                                 n_max, caps)
    truncation = (1.0 - rho_mass) + (1.0 - sigma_mass)
    distance = block_trace_distance(rho, sigma)
    bound = l / spec.m
    return DefinettiResult(
        rho_reduced=rho,
        sigma_classical=sigma,
        distance=distance,
        bound=bound,
        truncation_mass=max(truncation, 0.0),
        satisfied=distance - max(truncation, 0.0) <= bound + 1e-12,
    )


@dataclass(frozen=True)
class TwoCopyReport:
    joint: BlockDiagonalState
    verdict: str
    e_ssr: float
    activation: ActivationReport


def two_copy_pe_check(state: BlockDiagonalState,
                      caps: DeskCaps | None = None) -> TwoCopyReport:
    """Build two copies, activate both through balanced splitters in parallel,
    and report the accessible entanglement of the joint output.

    The separability verdict for the two-copy state is decided only where a
    decision procedure exists (at most one particle, or the two-mode
    two-particle sector); elsewhere it is reported as undecidable."""
    if caps is None:
        caps = DeskCaps(max_particles=2 * state.max_particles + 1,
                        max_modes=max(4 * state.modes, DESK.max_modes))
    joint = tensor_compose(state, state, caps=caps)
    report = activate(ActivationSpec(joint), caps=caps)

    if joint.max_particles == 0:
        verdict = "separable"
    elif joint.max_particles <= 1:
        verdict = "separable"
    elif joint.modes == 2 and joint.max_particles <= 2:
        sep = True
        if 2 in joint.blocks:
            sep = is_particle_separable_two_qubit(joint.block(2))
        verdict = "separable" if sep else "entangled"
    else:
        verdict = "undecidable"
    return TwoCopyReport(joint=joint, verdict=verdict,
                         e_ssr=report.e_ssr_negativity, activation=report)


@dataclass(frozen=True)
class ManyCopyReport:
    k: int
    paper_bound: float
    classical_distance_upper_bound: float | None
    construction_distance: float | None
    truncation_mass: float
    certified: bool
    satisfied: bool | None
    note: str


def many_copy_nc_bound_check(classical_or_state, k: int,
                             n_max: int | None = None) -> ManyCopyReport:
    """Check the many-copy bound: k-copy particle-separability caps the
    trace-distance nonclassicality at 1/k.

    For a classical mixture spec (amplitude vector or (weight, vector)
    pairs) the hypothesis holds for every k and the approximating classical
    state is assembled per the proof: project the k copies on total number,
    approximate each coherent direction's binomial split statistics by
    Poisson ones, and resum.  A bare state is reported as conditional, since
    k-copy separability cannot be decided here."""
    if k < 1:
        raise ValidationError("k must be at least 1")
    bound = 1.0 / k

    if isinstance(classical_or_state, BlockDiagonalState):
        if k == 1:
            return ManyCopyReport(k, 1.0, 1.0, None, 0.0, False, True,
                                  "k=1 bound is vacuous: trace distance never exceeds 1")
        return ManyCopyReport(k, bound, None, None, 0.0, False, None,
                              "hypothesis (k-copy particle-separability) undecidable "
                              "for a bare state at this scale")

    # classical mixture path: [(weight, alpha vector)] or a single vector
    terms = _classical_terms(classical_or_state)
    mus = [float(np.vdot(a, a).real) for _, a in terms]
    if n_max is None:
        n_max = max(default_poisson_truncation(mu) for mu in mus)
    rho = classical_nd_state(terms, n_max)
    rho_tail = classical_truncation_mass(terms, n_max)
    caps = _desk_caps_at_least(n_max, rho.modes)

    # sigma = sum over direction tuples of (product weight) x
    #         sum_L Poisson_M(L) Poisson_{L * mu_1 / M}(n) |css(dir_1, n)>
    dir_terms = []
    weight_fns = []
    joint_cap = max(default_poisson_truncation(k * max(mus)), n_max)
    for combo in product(range(len(terms)), repeat=k):
        w = math.prod(terms[j][0] for j in combo)
        big_m = sum(mus[j] for j in combo)
        mu1 = mus[combo[0]]
        a1 = terms[combo[0]][1]
        direction = a1 / math.sqrt(mu1) if mu1 > 0 else None
        if big_m <= 0:
            weights = np.zeros(n_max + 1)
            weights[0] = 1.0
        else:
            p_ret = min(mu1 / big_m, 1.0)
            joint = poisson_weights(big_m, joint_cap)
            weights = np.zeros(n_max + 1)
            for L, wl in enumerate(joint):
                if wl < 1e-18:
                    continue
                weights += wl * poisson_weights(L * p_ret, n_max)
        dir_terms.append((w, direction))
        weight_fns.append(weights)
    sigma, sigma_mass = _direction_mixture_state(
        dir_terms, rho.modes, lambda t: weight_fns[t], n_max, caps)
    construction = block_trace_distance(rho, sigma)
    truncation = rho_tail + (1.0 - sigma_mass)
    # the truncated input is itself within the tail mass of an exactly
    # classical state, so the tail is also an upper bound on nonclassicality
    upper = min(construction, rho_tail)
    return ManyCopyReport(
        k=k,
        paper_bound=bound,
        classical_distance_upper_bound=float(upper),
        construction_distance=float(construction),
        truncation_mass=float(truncation),
        certified=True,
        satisfied=bool(upper <= bound + 1e-9),
        note="classical input: hypothesis holds for every k",
    )
