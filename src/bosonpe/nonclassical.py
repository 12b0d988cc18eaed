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
from collections import Counter
from dataclasses import dataclass, field
from functools import cached_property
from itertools import product

import numpy as np
from scipy import stats
from scipy.special import gammaln

from .fock import (
    BLOCK_DROP_TOL,
    DESK,
    BlockDiagonalState,
    DeskCaps,
    DeskScaleError,
    ValidationError,
    _desk_caps_at_least,
    _normalized_blocks,
    enumerate_basis,
    tensor_compose,
    vacuum_state,
)
from .activation import ActivationReport, ActivationSpec, activate
from .states import (
    _classical_terms,
    classical_truncation_mass,
    css_density,
    default_poisson_truncation,
    is_particle_separable_two_qubit,
    poisson_weights,
    _truncated_poisson_weights,
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
    pairs, checked by the classical-mixture parser; the constructor
    symmetrizes over all mode permutations so the resulting state is
    exchangeable whatever the supplied directions.
    """

    N: int
    m: int
    terms: tuple

    def __post_init__(self):
        if self.N < 0 or self.m < 1:
            raise ValidationError("need N >= 0 and m >= 1")
        terms = _classical_terms([tuple(t) for t in self.terms])
        for _, c in terms:
            if c.size != self.m:
                raise ValidationError("amplitude vector length must equal m")
            if not abs(np.linalg.norm(c) - 1.0) <= 1e-10:
                raise ValidationError("amplitude vectors must be unit norm")
        object.__setattr__(self, "terms", tuple(terms))

    def symmetrized_terms(self):
        """Each distinct mode permutation of every term once, as (weight,
        vector) pairs.

        A term whose entries take exactly equal values k_v times has
        m!/prod k_v! distinct permutations; each carries the term's weight
        over that count.  Raises DeskScaleError, before enumerating any,
        when the total exceeds the permutation count at the desk mode cap."""
        patterns, counts = [], []
        for w, c in self.terms:
            values = list(dict.fromkeys(c.tolist()))
            labels = sorted(values.index(x) for x in c.tolist())
            counts.append(math.factorial(self.m) // math.prod(
                math.factorial(k) for k in Counter(labels).values()))
            patterns.append((w / counts[-1], np.array(values), labels))
        limit = math.factorial(DESK.max_modes)
        if sum(counts) > limit:
            raise DeskScaleError(
                f"{sum(counts)} distinct mode permutations exceed {limit}, the "
                f"count at the desk mode cap ({DESK.max_modes} modes)")
        return [(w, values[list(order)])
                for w, values, labels in patterns
                for order in _distinct_orderings(labels)]


def _distinct_orderings(labels):
    """The distinct orderings of a sorted list, in lexicographic order."""
    a = list(labels)
    while True:
        yield tuple(a)
        i = len(a) - 2
        while i >= 0 and a[i] >= a[i + 1]:
            i -= 1
        if i < 0:
            return
        j = len(a) - 1
        while a[j] <= a[i]:
            j -= 1
        a[i], a[j] = a[j], a[i]
        a[i + 1:] = reversed(a[i + 1:])


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


def _direction_mixture_state(directions, weights: np.ndarray, l: int,
                             caps: DeskCaps) -> BlockDiagonalState:
    """The dense state sum_t sum_n weights[t, n] |css(directions[t], n)><..|
    on l modes, normalized by its total trace; entries below 1e-16 are
    skipped."""
    acc: dict[int, np.ndarray] = {}
    for direction, row in zip(directions, weights):
        for n, pw in enumerate(row):
            if pw < 1e-16:
                continue
            d = css_density(direction, n, caps) if n else np.ones((1, 1), dtype=complex)
            blk = acc.setdefault(n, np.zeros_like(d))
            blk += pw * d
    blocks, _ = _normalized_blocks(acc)
    return BlockDiagonalState(l, blocks, caps=caps)


def _block_coefficients(weights: np.ndarray) -> tuple[np.ndarray, float]:
    """Per-term weights (terms x n) -> the coefficient of each term's
    coherent-spin projector in the state that ``_direction_mixture_state``
    builds from them, and the total mass kept: entries below 1e-16 are
    skipped, every weight is divided by the kept mass, and blocks of trace at
    most BLOCK_DROP_TOL are dropped, as in ``_normalized_blocks``."""
    kept = np.where(weights < 1e-16, 0.0, weights)
    traces = kept.sum(axis=0)
    total = float(traces.sum())
    return np.where(traces > BLOCK_DROP_TOL, kept, 0.0) / total, total


# largest dense block at the desk caps: C(8 + 6 - 1, 6) = 1716
_MAX_BLOCK_DIM = math.comb(DESK.max_modes + DESK.max_particles - 1, DESK.max_particles)


def _css_amplitudes(dirs: np.ndarray, n: int, caps: DeskCaps) -> np.ndarray:
    """Rows: the Fock amplitudes of |css(d, n)> for each row d of ``dirs``."""
    occ = np.array(enumerate_basis(dirs.shape[1], n, caps).states)
    log_multinom = math.lgamma(n + 1) - np.sum(gammaln(occ + 1), axis=1)
    return np.exp(0.5 * log_multinom) * np.prod(dirs[:, None, :] ** occ, axis=2)


def _css_trace_distance(directions, rho_weights: np.ndarray, sigma_weights: np.ndarray,
                        caps: DeskCaps) -> tuple[float, float, float]:
    """Trace distance between the states ``_direction_mixture_state`` builds
    from ``rho_weights`` and ``sigma_weights`` (per-term rows over n = 0..n_hi,
    term t along ``directions[t]``), with the kept mass of each.

    Block n of the difference is sum_t c_t |css_t^n><css_t^n|, summed over
    the T distinct directions.  Its trace norm is that of G^{1/2} C G^{1/2}
    with G_st = (d_s^dag d_t)^n, a T x T problem, or, when the sector is
    smaller than T, of the block itself built from Fock amplitudes.  A
    direction may be None (nothing on the retained modes) only where its
    weights vanish above n = 0; the vacuum block is a scalar."""
    rho_c, rho_mass = _block_coefficients(rho_weights)
    sigma_c, sigma_mass = _block_coefficients(sigma_weights)
    merged: dict = {}
    for d, row in zip(directions, rho_c - sigma_c):
        key = None if d is None else d.tobytes()
        merged[key] = (d, merged[key][1] + row) if key in merged else (d, row)
    norm = abs(sum(row[0] for _, row in merged.values()))
    live = [(d, row) for d, row in merged.values() if d is not None]
    if not live:
        return 0.5 * float(norm), rho_mass, sigma_mass
    dirs = np.array([d for d, _ in live])
    coef = np.array([row for _, row in live])
    l = dirs.shape[1]
    dims = [math.comb(n + l - 1, n) for n in range(coef.shape[1])]
    for n in range(1, coef.shape[1]):
        t = np.count_nonzero(coef[:, n])
        if min(t, dims[n]) > _MAX_BLOCK_DIM:
            raise DeskScaleError(
                f"block n={n} has {t} directions in a {dims[n]}-dimensional "
                f"sector; both exceed the desk block size {_MAX_BLOCK_DIM}")
    for n in range(1, coef.shape[1]):
        keep = coef[:, n] != 0
        c, d = coef[keep, n], dirs[keep]
        if c.size == 0:
            continue
        if c.size <= dims[n]:
            lam, u = np.linalg.eigh((d.conj() @ d.T) ** n)
            root = (u * np.sqrt(np.clip(lam, 0.0, None))) @ u.conj().T
            mat = root @ (c[:, None] * root)
        else:
            mat = np.zeros((dims[n], dims[n]), dtype=complex)
            # rows per chunk keep the (rows, dim, l) power temporary at 2**20 entries
            chunk = max(1, 2**20 // (dims[n] * l))
            for s in range(0, c.size, chunk):
                amps = _css_amplitudes(d[s:s + chunk], n, caps)
                mat += amps.T @ (c[s:s + chunk, None] * amps.conj())
        norm += np.sum(np.abs(np.linalg.eigvalsh(mat)))
    return 0.5 * float(norm), rho_mass, sigma_mass


@dataclass(frozen=True)
class DefinettiResult:
    """The classical approximation's distance and bound.  ``rho_reduced`` and
    ``sigma_classical`` are built densely, and validated, on first access."""

    distance: float
    bound: float
    truncation_mass: float
    satisfied: bool
    _directions: list = field(repr=False, compare=False)
    _binomial: np.ndarray = field(repr=False, compare=False)
    _poisson: np.ndarray = field(repr=False, compare=False)
    _modes: int = field(repr=False, compare=False)
    _caps: DeskCaps = field(repr=False, compare=False)

    @cached_property
    def rho_reduced(self) -> BlockDiagonalState:
        """The l-mode reduction of the exchangeable state."""
        return _direction_mixture_state(self._directions, self._binomial,
                                        self._modes, self._caps)

    @cached_property
    def sigma_classical(self) -> BlockDiagonalState:
        """The classical state that replaces binomial by Poisson statistics."""
        return _direction_mixture_state(self._directions, self._poisson,
                                        self._modes, self._caps)


def definetti_classical_approx(spec: ExchangeableSeparableSpec, l: int,
                               n_max: int | None = None) -> DefinettiResult:
    """Classical approximation of the l-mode reduction of an exchangeable
    particle-separable state, with the trace-distance bound l/m.

    The reduction of each coherent-spin direction carries binomial number
    statistics with success probability equal to the direction's weight on
    the retained modes; the approximation replaces them with Poisson
    statistics of the same mean.  The distance comes from the Gram data of
    the distinct directions, without building either state."""
    if not 1 <= l <= spec.m:
        raise ValidationError(f"need 1 <= l <= m, got l={l}, m={spec.m}")
    weights, directions, p_rets = [], [], []
    for w, c in spec.symmetrized_terms():
        p_ret = min(float(np.sum(np.abs(c[:l]) ** 2)), 1.0)
        weights.append(w)
        directions.append(c[:l] / math.sqrt(p_ret) if p_ret > 1e-15 else None)
        p_rets.append(p_ret)
    if n_max is None:
        n_max = max(spec.N, max(default_poisson_truncation(spec.N * p) for p in p_rets))
    caps = _desk_caps_at_least(n_max, spec.m)

    w = np.array(weights)[:, None]
    binom_w = w * stats.binom.pmf(np.arange(n_max + 1), spec.N, np.array(p_rets)[:, None])
    pois_w = w * np.array([poisson_weights(spec.N * p, n_max) for p in p_rets])

    distance, rho_mass, sigma_mass = _css_trace_distance(directions, binom_w, pois_w, caps)
    truncation = max((1.0 - rho_mass) + (1.0 - sigma_mass), 0.0)
    bound = l / spec.m
    return DefinettiResult(
        distance=distance,
        bound=bound,
        truncation_mass=truncation,
        satisfied=distance - truncation <= bound + 1e-12,
        _directions=directions,
        _binomial=binom_w,
        _poisson=pois_w,
        _modes=l,
        _caps=caps,
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
    rho_tail = classical_truncation_mass(terms, n_max)
    caps = _desk_caps_at_least(n_max, terms[0][1].size)
    directions = [a / math.sqrt(mu) if mu > 0 else None for (_, a), mu in zip(terms, mus)]
    zeros = np.zeros(n_max + 1)

    # rho = classical_nd_state(terms, n_max): per term, the Poisson weights
    # of at least 1e-15 over the truncated mass
    rows, rho_w, sigma_w = [], [], []
    for (w, _), mu, direction in zip(terms, mus, directions):
        weights, mass = _truncated_poisson_weights(mu, n_max)
        rows.append(direction)
        rho_w.append(w * np.where(weights < 1e-15, 0.0, weights) / mass)
        sigma_w.append(zeros)

    # sigma = sum over direction tuples of (product weight) x
    #         sum_L Poisson_M(L) Poisson_{L * mu_1 / M}(n) |css(dir_1, n)>
    joint_cap = max(default_poisson_truncation(k * max(mus)), n_max)
    for combo in product(range(len(terms)), repeat=k):
        w = math.prod(terms[j][0] for j in combo)
        big_m = sum(mus[j] for j in combo)
        mu1 = mus[combo[0]]
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
        rows.append(directions[combo[0]])
        rho_w.append(zeros)
        sigma_w.append(w * weights)
    construction, _, sigma_mass = _css_trace_distance(rows, np.array(rho_w),
                                                      np.array(sigma_w), caps)
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
