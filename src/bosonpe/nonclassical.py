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

from .fock import (
    DESK,
    UNCAPPED,
    BlockDiagonalState,
    DeskScaleError,
    PureSectorState,
    ValidationError,
    _CHUNK_ENTRIES,
    _check_block_state,
    _check_count,
    _check_real,
    _gate_dense,
    _gate_support,
    tensor_compose,
)
from .activation import ActivationReport, ActivationSpec, activate
from .states import (
    _block_coefficients,
    _classical_terms,
    _css_block,
    _direction_mixture_state,
    _fixed_n_mixture,
    _log_factorials,
    _poisson_rows,
    classical_truncation_mass,
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


def _binomial_logpmf(k, N: int, p):
    """log Binomial(N, p) pmf at integers k >= 0, for p in [0, 1] or an
    array of them that broadcasts against k: log N! - log k! - log (N-k)!
    + k log p + (N-k) log(1-p) with log n! from ``_log_factorials`` when
    0 < p < 1, the point mass at k = 0 (p = 0) or k = N (p = 1), and -inf
    above N, all without a NaN."""
    k = np.asarray(k)
    p = np.asarray(p, dtype=float)
    j = np.minimum(k, N)
    inner = (p > 0) & (p < 1)
    q = np.where(inner, p, 0.5)
    log_fact = _log_factorials(N)
    logs = np.where(inner, log_fact[N] - log_fact[j] - log_fact[N - j]
                    + j * np.log(q) + (N - j) * np.log1p(-q),
                    np.where(j == N * (p == 1), 0.0, -np.inf))
    return np.where(k <= N, logs, -np.inf)


def binomial_poisson_distance(N: int, p: float) -> BinomialPoissonResult:
    """Total variation distance between Binomial(N, p) and Poisson(Np).

    Both pmfs are evaluated in log space over k = 0..hi, with hi at least N
    and 20 standard deviations above the mean: the binomial as
    exp(log N! - log k! - log (N-k)! + k log p + (N-k) log(1-p)) on
    k <= N, and the Poisson as ``poisson_weights``, with log n! from one
    ``_log_factorials`` table.  The Poisson tail past hi, below 1e-80, is
    summed term by term from its first, q_j = q_{j-1} mu / j.  Rounding of
    the logs sets the error.  Against a 40-digit reference it measured at
    most 3.3e-13 at N = 1000 (p = 0.001, 0.003, 0.999 and every multiple of
    0.005 in [0.005, 1]; largest 3.25e-13, at p = 0.999) and at most 4e-11
    at N = 1e5 (p = 0.003, 0.5, 0.9, 0.999).  The distance never exceeds
    p.  Raises DeskScaleError for N above 1e6, before allocating the
    support."""
    p = _check_real(p, "p", 0.0, 1.0)
    _check_count(N, "N")
    _gate_support(N, "binomial N")
    mu = N * p
    if p == 0.0 or N == 0:
        return BinomialPoissonResult(0.0, p, True, mu)
    hi = max(N, int(math.ceil(mu + 20.0 * math.sqrt(mu + 1.0) + 25.0)))
    log_fact = _log_factorials(hi + 1)
    k = np.arange(N + 1)
    if p < 1.0:
        b = np.exp(log_fact[N] - log_fact[:N + 1] - log_fact[N::-1]
                   + k * math.log(p) + (N - k) * math.log1p(-p))
    else:
        b = (k == N) * 1.0
    q = poisson_weights(mu, hi)
    tail, j = 0.0, hi + 1
    term = math.exp(j * math.log(mu) - log_fact[j] - mu)
    while term > 1e-17 * tail:
        tail += term
        j += 1
        term *= mu / j
    dist = 0.5 * float(np.abs(b - q[:N + 1]).sum() + q[N + 1:].sum() + tail)
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
        _check_count(self.N, "N")
        _check_count(self.m, "m", 1)
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


def exchangeable_state(spec: ExchangeableSeparableSpec) -> BlockDiagonalState:
    """The full m-mode state described by ``spec`` (single block at N)."""
    weights, vectors = zip(*spec.symmetrized_terms())
    return _fixed_n_mixture(weights, vectors, spec.N, UNCAPPED)


def _css_trace_distance(directions, rho_weights: np.ndarray,
                        sigma_weights: np.ndarray) -> tuple[float, float, float]:
    """Trace distance between the states ``_direction_mixture_state`` builds
    from ``rho_weights`` and ``sigma_weights`` (per-term rows over n = 0..n_hi,
    term t along ``directions[t]``), with the kept mass of each.

    Block n of the difference is sum_t c_t |css_t^n><css_t^n|, summed over
    the T distinct directions.  Its trace norm is that of G^{1/2} C G^{1/2}
    with G_st = (d_s^dag d_t)^n over the t terms kept at n, a t x t problem,
    or, when the sector is smaller than t, of the block itself built from
    Fock amplitudes.  Sectors that keep the same terms share the Gram matrix
    of their directions: its elementwise powers are stacked, a chunk of
    sectors at a time with at most 2**20 entries in the stack (one sector
    when a single power is larger), and each chunk takes one batched eigh,
    batched square roots and one batched eigvalsh.  Each sector's sum is
    added to the norm in order of n.  A direction may be None (nothing on
    the retained modes) only where its weights vanish above n = 0; the
    vacuum block is a scalar."""
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
    side = int(np.minimum(np.count_nonzero(coef[:, 1:], axis=0), dims[1:]).max(initial=0))
    _gate_dense(side, side, "a block (the smaller of its Gram matrix and sector)")
    sums = np.zeros(coef.shape[1])
    groups: dict = {}
    for n in range(1, coef.shape[1]):
        keep = coef[:, n] != 0
        t = np.count_nonzero(keep)
        if t > dims[n]:
            mat = _css_block(dirs[keep], coef[keep, n], n)
            sums[n] = np.sum(np.abs(np.linalg.eigvalsh(mat)))
        elif t:
            groups.setdefault(keep.tobytes(), (keep, []))[1].append(n)
    for keep, sectors in groups.values():
        d, c = dirs[keep], coef[keep]
        gram = d.conj() @ d.T
        step = max(1, _CHUNK_ENTRIES // gram.size)
        for s in range(0, len(sectors), step):
            ns = np.array(sectors[s:s + step])
            lam, u = np.linalg.eigh(gram ** ns[:, None, None])
            root = (u * np.sqrt(np.clip(lam, 0.0, None))[:, None, :]) @ u.conj().swapaxes(1, 2)
            mats = root @ (c[:, ns].T[:, :, None] * root)
            sums[ns] = np.sum(np.abs(np.linalg.eigvalsh(mats)), axis=1)
    return 0.5 * float(sum(sums[1:].tolist(), norm)), rho_mass, sigma_mass


@dataclass(frozen=True)
class DefinettiResult:
    """The classical approximation's distance and bound.  ``rho_reduced`` and
    ``sigma_classical`` are built, born factored, on first access."""

    distance: float
    bound: float
    truncation_mass: float
    satisfied: bool
    _directions: list = field(repr=False, compare=False)
    _binomial: np.ndarray = field(repr=False, compare=False)
    _poisson: np.ndarray = field(repr=False, compare=False)
    _modes: int = field(repr=False, compare=False)

    @cached_property
    def rho_reduced(self) -> BlockDiagonalState:
        """The l-mode reduction of the exchangeable state."""
        return _direction_mixture_state(self._directions, self._binomial,
                                        self._modes, UNCAPPED)

    @cached_property
    def sigma_classical(self) -> BlockDiagonalState:
        """The classical state that replaces binomial by Poisson statistics."""
        return _direction_mixture_state(self._directions, self._poisson,
                                        self._modes, UNCAPPED)


def definetti_classical_approx(spec: ExchangeableSeparableSpec, l: int,
                               n_max: int | None = None) -> DefinettiResult:
    """Classical approximation of the l-mode reduction of an exchangeable
    particle-separable state, with the trace-distance bound l/m.

    The reduction of each coherent-spin direction carries binomial number
    statistics with success probability equal to the direction's weight on
    the retained modes; the approximation replaces them with Poisson
    statistics of the same mean.  The distance comes from the Gram data of
    the distinct directions, without building either state.  Raises
    DeskScaleError, before allocating, for a cutoff n_max above 1e6."""
    _check_count(l, "l", 1)
    if l > spec.m:
        raise ValidationError(f"need 1 <= l <= m, got l={l}, m={spec.m}")
    weights, directions, p_rets = [], [], []
    for w, c in spec.symmetrized_terms():
        p_ret = min(float(np.sum(np.abs(c[:l]) ** 2)), 1.0)
        weights.append(w)
        directions.append(c[:l] / math.sqrt(p_ret) if p_ret > 1e-15 else None)
        p_rets.append(p_ret)
    if n_max is None:
        n_max = max(spec.N, *map(default_poisson_truncation, {spec.N * p for p in p_rets}))
    _check_count(n_max, "n_max")
    _gate_support(n_max, "cutoff n_max")

    w = np.array(weights)[:, None]
    k = np.arange(n_max + 1)
    binom_w = w * np.exp(_binomial_logpmf(k, spec.N, np.array(p_rets)[:, None]))
    pois_w = w * poisson_weights(spec.N * np.array(p_rets), n_max)

    distance, rho_mass, sigma_mass = _css_trace_distance(directions, binom_w, pois_w)
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
    )


@dataclass(frozen=True)
class TwoCopyReport:
    joint: BlockDiagonalState
    verdict: str
    e_ssr: float
    activation: ActivationReport


def two_copy_pe_check(state: BlockDiagonalState) -> TwoCopyReport:
    """Build two copies, activate both through balanced splitters in parallel,
    and report the accessible entanglement of the joint output.

    The two-copy and activated sectors are sized here and take no caps; the
    support and dense gates bound them.
    The separability verdict for the two-copy state is decided only where a
    decision procedure exists (at most one particle, or the two-mode
    two-particle sector); elsewhere it is reported as undecidable."""
    _check_block_state(state)
    joint = tensor_compose(state, state, caps=UNCAPPED)
    report = activate(ActivationSpec(joint), caps=UNCAPPED)

    if joint.max_particles <= 1:
        verdict = "separable"
    elif joint.modes == 2 and joint.max_particles <= 2:
        sep = joint.weight(2) == 0 or is_particle_separable_two_qubit(joint.block(2))
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
    _check_count(k, "k", 1)
    bound = 1.0 / k

    if isinstance(classical_or_state, (BlockDiagonalState, PureSectorState)):
        _check_block_state(classical_or_state, "classical_or_state")
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
    _check_count(n_max, "n_max")
    rho_tail = classical_truncation_mass(terms, n_max)
    # rho = classical_nd_state(terms, n_max), from the same rows
    directions, rho_rows = _poisson_rows(terms, n_max)
    zeros = np.zeros(n_max + 1)
    rows, rho_w, sigma_w = list(directions), list(rho_rows), [zeros] * len(terms)

    # sigma = sum over direction tuples of (product weight) x
    #         sum_L Poisson_M(L) Poisson_{L * mu_1 / M}(n) |css(dir_1, n)>
    joint_cap = max(default_poisson_truncation(k * max(mus)), n_max)
    for combo in product(range(len(terms)), repeat=k):
        w = math.prod(terms[j][0] for j in combo)
        big_m = sum(mus[j] for j in combo)
        p_ret = min(mus[combo[0]] / big_m, 1.0) if big_m > 0 else 0.0
        joint = poisson_weights(big_m, joint_cap)
        live = np.flatnonzero(joint >= 1e-18)
        weights = joint[live] @ poisson_weights(live * p_ret, n_max)
        rows.append(directions[combo[0]])
        rho_w.append(zeros)
        sigma_w.append(w * weights)
    construction, _, sigma_mass = _css_trace_distance(rows, np.array(rho_w),
                                                      np.array(sigma_w))
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
