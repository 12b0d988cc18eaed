"""Independent oracles used across the test suite.

These deliberately avoid the package's own computational paths: permanents
for lifted unitaries, an explicit first-quantized symmetric embedding for
reduced density matrices and collective generators, a dense a_i† a_j tensor
for one-body operators, the spectral-form QFI and operator variance of dense
matrices, 40-digit mpmath pmfs and distances for the binomial and Poisson
kernels, pure-Python ``math.lgamma`` pmfs summed with ``math.fsum`` as a
second check on them, and per-resample and per-shot loops for the witness bootstrap,
synthetic shot data and CSV text.  The activation search oracle is the search loop with
one full ``activate`` call per candidate, and the oracle of its local-filter weights is
their earlier loop, one power and one product per basis column; that of one compass
round is its earlier walk, one coordinate's +/- pair per scoring call, and the
oracle of the search's lockstep restarts is its earlier serial loop, one V_A after
another, each compass round batched over that V_A's coordinates alone.  The state constructors' oracles
are their earlier dense bodies: every block summed as a d x d matrix, on
{N: (p_N, dense block)} dicts.  The oracle of the stacked de Finetti and
many-copy trace distance is its earlier loop, one Gram eigenproblem per
number sector.  The oracle of the stacked metrological-monotone ascent is
its earlier serial loop, one start after another.  ``apply_to_pure`` is no
oracle: it runs the package's sector lift on a pure sector state, for the
tests of that lift.  The oracle of the stars-and-bars basis is its earlier
recursive enumeration.
"""

import csv
import io
import math
from functools import lru_cache
from itertools import product

import mpmath
import numpy as np

import bosonpe.measures as measures
from bosonpe.fock import (
    DESK,
    UNCAPPED,
    DeskScaleError,
    PureSectorState,
    ValidationError,
    _MAX_BLOCK_DIM,
    enumerate_basis,
)
from bosonpe.optics import lift_unitary
from bosonpe.states import _block_coefficients, _css_block, _log_factorials


@lru_cache(maxsize=None)
def recursive_basis_states(m: int, n: int) -> tuple[tuple[int, ...], ...]:
    """Occupations of the (m, n) sector in descending lexicographic order,
    one leading occupation at a time above the (m - 1)-mode sectors."""
    if m == 1:
        return ((n,),)
    out = []
    for first in range(n, -1, -1):
        for rest in recursive_basis_states(m - 1, n - first):
            out.append((first,) + rest)
    return tuple(out)


def ryser_permanent(a: np.ndarray) -> complex:
    """Ryser's formula, O(2^n n)."""
    n = a.shape[0]
    if n == 0:
        return 1.0 + 0j
    total = 0.0 + 0j
    for subset in range(1, 1 << n):
        cols = [j for j in range(n) if subset >> j & 1]
        prod = np.prod(np.sum(a[:, cols], axis=1))
        total += (-1) ** len(cols) * prod
    return (-1) ** n * total


def lift_oracle(u: np.ndarray, m: int, N: int, columns=None) -> np.ndarray:
    """Sector matrix element <q|U|n> = perm(u[q rows, n cols]) / sqrt(q! n!),
    rows repeated per output occupation, columns per input occupation; only
    the listed basis columns, in that order, when ``columns`` is given."""
    basis = enumerate_basis(m, N, UNCAPPED)
    columns = range(basis.dim) if columns is None else columns
    out = np.zeros((basis.dim, len(columns)), dtype=complex)
    for col, n_occ in enumerate(basis.states[c] for c in columns):
        cols = [i for i in range(m) for _ in range(n_occ[i])]
        for row, q_occ in enumerate(basis.states):
            rows = [j for j in range(m) for _ in range(q_occ[j])]
            sub = u[np.ix_(rows, cols)]
            norm = math.sqrt(
                math.prod(math.factorial(k) for k in q_occ)
                * math.prod(math.factorial(k) for k in n_occ)
            )
            out[row, col] = ryser_permanent(sub) / norm
    return out


def splitter_unitary(reflectivities, va=None) -> np.ndarray:
    """The 2m-mode activation unitary: the beam splitters (r_i, t_i) coupling
    mode i with mode m + i, after va on the first m modes."""
    r = np.asarray(reflectivities, dtype=float)
    t = np.sqrt(1.0 - r**2)
    m = len(r)
    u = np.zeros((2 * m, 2 * m), dtype=complex)
    u[:m, :m] = u[m:, m:] = np.diag(r)
    u[:m, m:] = np.diag(t)
    u[m:, :m] = -np.diag(t)
    if va is not None:
        u[:, :m] = u[:, :m] @ va
    return u


def dense_activation(blocks: dict, m: int, u: np.ndarray) -> dict:
    """Dense reference for the activation output on {N: (p, dense block)}:
    each block re-indexed into 2m modes with modes m..2m-1 empty and
    conjugated by the permanent lift of u, W mat W^dag with W the lift's
    columns of those occupations."""
    out = {}
    for N, (p, mat) in blocks.items():
        old = enumerate_basis(m, N, UNCAPPED)
        new = enumerate_basis(2 * m, N, UNCAPPED)
        idx = [new.index(occ + (0,) * m) for occ in old.states]
        lift = lift_oracle(u, 2 * m, N, columns=idx)
        out[N] = (p, lift @ mat @ lift.conj().T)
    return out


def dense_local_sectors(blocks: dict, modes: int, a_modes, b_modes) -> dict:
    """(N_A, N_B) -> (probability, normalized sector matrix on the product
    basis |n_A> ⊗ |n_B>), sliced from dense blocks; an empty side is one
    vacuum mode.  A sector of trace at most 1e-14, the package's drop
    tolerance, is left zero: dividing by a subnormal trace (a reflectivity
    of 1e-78 gives 2e-311) returns inf, and p times its negativity is below
    1e-13 anyway."""
    out = {}
    for N, (p, mat) in blocks.items():
        groups = {}
        for i, occ in enumerate(enumerate_basis(modes, N, UNCAPPED).states):
            na = tuple(occ[k] for k in a_modes) or (0,)
            nb = tuple(occ[k] for k in b_modes) or (0,)
            groups.setdefault((sum(na), sum(nb)), []).append((i, na, nb))
        for (na, nb), members in groups.items():
            ba = enumerate_basis(max(len(a_modes), 1), na, UNCAPPED)
            bb = enumerate_basis(max(len(b_modes), 1), nb, UNCAPPED)
            idx = [i for i, _, _ in members]
            pos = [ba.index(a) * bb.dim + bb.index(b) for _, a, b in members]
            sub = mat[np.ix_(idx, idx)]
            tr = np.trace(sub).real
            sector = np.zeros((ba.dim * bb.dim,) * 2, dtype=complex)
            if tr > 1e-14:
                sector[np.ix_(pos, pos)] = sub / tr
            out[(na, nb)] = (p * tr, sector, ba.dim, bb.dim)
    return out


def dense_negativity(sector: np.ndarray, da: int, db: int) -> float:
    """(||rho^{T_A}||_1 - 1) / 2 from eigvalsh of the partial transpose."""
    pt = sector.reshape(da, db, da, db).transpose(2, 1, 0, 3).reshape(da * db, da * db)
    return max((np.sum(np.abs(np.linalg.eigvalsh(pt))) - 1.0) / 2.0, 0.0)


def dense_schmidt(sector: np.ndarray, da: int, db: int) -> np.ndarray:
    """Squared Schmidt coefficients of a pure sector, descending, as the
    spectrum of its A-side reduced state, min(da, db) of them."""
    reduced = np.einsum("ibjb->ij", sector.reshape(da, db, da, db))
    return np.clip(np.linalg.eigvalsh(reduced)[::-1][:min(da, db)], 0.0, None)


def dense_transfer_tensor(m: int, N: int) -> np.ndarray:
    """T[i, j] = matrix of a_i† a_j on the (m, N) sector, one basis state and
    one mode pair at a time: m^2 d^2 entries, for small sectors only."""
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
    return t


def coherent_spin_amplitudes(psi, N: int) -> np.ndarray:
    """Fock amplitudes of |psi>^{⊗N} one basis state at a time:
    sqrt(N! / prod n_i!) prod psi_i^{n_i}, with exact factorials."""
    basis = enumerate_basis(len(psi), N, UNCAPPED)
    amps = np.empty(basis.dim, dtype=complex)
    for i, occ in enumerate(basis.states):
        coef = math.sqrt(math.factorial(N) / math.prod(math.factorial(n) for n in occ))
        for p, n in zip(psi, occ):
            coef = coef * p**n
        amps[i] = coef
    return amps


def symmetric_embedding(m: int, N: int) -> np.ndarray:
    """Isometry from the (m, N) sector basis into (C^m)^{⊗N}."""
    basis = enumerate_basis(m, N, UNCAPPED)
    dim_full = m**N
    e = np.zeros((dim_full, basis.dim))
    for col, occ in enumerate(basis.states):
        count = math.factorial(N)
        for k in occ:
            count //= math.factorial(k)
        amp = 1.0 / math.sqrt(count)
        for seq in product(range(m), repeat=N):
            tally = [0] * m
            for s in seq:
                tally[s] += 1
            if tuple(tally) == occ:
                idx = 0
                for s in seq:
                    idx = idx * m + s
                e[idx, col] = amp
    return e


def first_quantized_sum(h: np.ndarray, N: int) -> np.ndarray:
    """sum_i h_i acting on (C^m)^{⊗N}."""
    m = h.shape[0]
    total = np.zeros((m**N, m**N), dtype=complex)
    for i in range(N):
        ops = [np.eye(m)] * N
        ops[i] = h
        term = ops[0]
        for op in ops[1:]:
            term = np.kron(term, op)
        total += term
    return total


def random_density(dim: int, rng, rank: int | None = None) -> np.ndarray:
    rank = rank or dim
    g = rng.normal(size=(dim, rank)) + 1j * rng.normal(size=(dim, rank))
    rho = g @ g.conj().T
    return rho / np.trace(rho).real


def haar_unitary(dim: int, rng) -> np.ndarray:
    z = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def trace_distance(a: np.ndarray, b: np.ndarray) -> float:
    evals = np.linalg.eigvalsh(a - b)
    return 0.5 * float(np.sum(np.abs(evals)))


def fidelity(a: np.ndarray, b: np.ndarray) -> float:
    from scipy.linalg import sqrtm
    ra = sqrtm(a)
    inner = sqrtm(ra @ b @ ra)
    return float(np.trace(inner).real)


def qfi_finite_difference(rho: np.ndarray, h: np.ndarray, eps: float = 1e-4) -> float:
    """-4 d^2/dtheta^2 Fid(rho, e^{-i theta H} rho e^{i theta H}) at 0."""
    from scipy.linalg import expm
    def fid_at(theta):
        u = expm(-1j * theta * h)
        return fidelity(rho, u @ rho @ u.conj().T)
    f0 = fid_at(0.0)
    fp = fid_at(eps)
    fm = fid_at(-eps)
    return -4.0 * (fp - 2.0 * f0 + fm) / eps**2


def qfi_matrix(rho: np.ndarray, H: np.ndarray) -> float:
    """Spectral-form QFI 2 sum (l_i - l_j)^2 / (l_i + l_j) |<i|H|j>|^2 over
    the eigenpairs of rho, leaving out pairs with l_i + l_j <= 1e-12."""
    rho = np.asarray(rho, dtype=complex)
    evals, evecs = np.linalg.eigh((rho + rho.conj().T) / 2)
    mu = np.clip(evals, 0.0, None)
    s = mu[:, None] + mu[None, :]
    d = mu[:, None] - mu[None, :]
    w = np.zeros_like(s)
    mask = s > 1e-12
    w[mask] = 2.0 * d[mask] ** 2 / s[mask]
    Hm = evecs.conj().T @ H @ evecs
    return float(np.sum(w * np.abs(Hm) ** 2))


def variance_matrix(rho: np.ndarray, H: np.ndarray) -> float:
    """Operator variance Tr[rho H^2] - Tr[rho H]^2."""
    m1 = np.trace(rho @ H).real
    m2 = np.trace(rho @ H @ H).real
    return float(m2 - m1 * m1)


def canonical_phase(vec: np.ndarray, tol: float = 1e-12) -> np.ndarray:
    """Rescale a global phase so the first non-tiny amplitude is real positive."""
    for x in vec:
        if abs(x) > tol:
            return vec * (abs(x) / x)
    return vec.copy()


def states_equal_up_to_phase(a, b, tol: float = 1e-10) -> bool:
    """Whether two ``PureSectorState``s share a basis and agree up to a global phase."""
    if a.basis != b.basis:
        return False
    va = canonical_phase(a.amplitudes)
    vb = canonical_phase(b.amplitudes)
    return bool(np.max(np.abs(va - vb)) <= tol)


def apply_to_pure(s, u):
    """The ``PureSectorState`` s after the ``ModeUnitary`` u, through the
    package's sector lift restricted to the support of s."""
    if u.modes != s.modes:
        raise ValidationError("mode count mismatch")
    support = np.flatnonzero(s.amplitudes)
    amps = lift_unitary(u, s.particles, caps=UNCAPPED, columns=support) @ s.amplitudes[support]
    amps = amps / np.linalg.norm(amps)
    return PureSectorState(s.basis, amps)


def binomial_pmf_oracle(k: int, N: int, p: float) -> float:
    """Binomial(N, p) pmf at k from math.lgamma, with 0 log 0 = 0."""
    if not 0 <= k <= N:
        return 0.0
    if p in (0.0, 1.0):
        return float(k == (N if p == 1.0 else 0))
    return math.exp(math.lgamma(N + 1) - math.lgamma(k + 1) - math.lgamma(N - k + 1)
                    + k * math.log(p) + (N - k) * math.log1p(-p))


def poisson_pmf_oracle(k: int, mu: float) -> float:
    """Poisson(mu) pmf at k from math.lgamma, with 0 log 0 = 0."""
    if mu == 0.0:
        return float(k == 0)
    return math.exp(k * math.log(mu) - math.lgamma(k + 1) - mu)


def binomial_poisson_oracle(N: int, p: float) -> float:
    """Total variation distance between Binomial(N, p) and Poisson(Np):
    math.fsum of |b_k - q_k| over k <= 2N + 60, plus the Poisson mass above
    that as 1 - fsum(q_k)."""
    mu = N * p
    ks = range(2 * N + 61)
    q = [poisson_pmf_oracle(k, mu) for k in ks]
    diff = math.fsum(abs(binomial_pmf_oracle(k, N, p) - qk) for k, qk in zip(ks, q))
    return 0.5 * diff + 0.5 * max(1.0 - math.fsum(q), 0.0)


# fixed-point unit of the 40-digit binomial-Poisson oracle: 2**-256, about 1e-77
_FIX = 256


def _binomial_poisson_fixed(N: int, p: float) -> tuple[int, list, list]:
    """Binomial(N, p) and Poisson(Np) pmfs, for N >= 1 and 0 < p < 1 exactly
    as given, on a window k = lo..hi that holds both masses to 40 digits:
    (lo, b, q) with b and q lists of integers in units of 2**-256.

    The start values at k0 = floor(Np) are mpmath numbers at 60 digits.
    The walk out from k0 multiplies by the exact rational ratios
    b_{k+1}/b_k = (N-k) p / ((k+1)(1-p)) and q_{k+1}/q_k = Np / (k+1), each
    floor division losing under one unit, and stops past both modes once
    both pmfs are below 2**-160."""
    a, d = float(p).as_integer_ratio()
    unit, tiny = 1 << _FIX, 1 << (_FIX - 160)
    k0 = N * a // d
    with mpmath.workdps(60):
        big_p, mu = mpmath.mpf(a) / d, mpmath.mpf(N * a) / d
        b0 = int(mpmath.binomial(N, k0) * big_p**k0 * (1 - big_p)**(N - k0) * unit)
        q0 = int(mpmath.exp(-mu) * mu**k0 / mpmath.factorial(k0) * unit)
    up_b, up_q, k = [b0], [q0], k0
    while k <= k0 + 1 or up_b[-1] > tiny or up_q[-1] > tiny:
        up_b.append(up_b[-1] * (N - k) * a // ((k + 1) * (d - a)))
        up_q.append(up_q[-1] * N * a // ((k + 1) * d))
        k += 1
    down_b, down_q, k = [b0], [q0], k0
    while k > 0 and (down_b[-1] > tiny or down_q[-1] > tiny):
        down_b.append(down_b[-1] * k * (d - a) // ((N - k + 1) * a))
        down_q.append(down_q[-1] * k * d // (N * a))
        k -= 1
    return k, down_b[:0:-1] + up_b, down_q[:0:-1] + up_q


def binomial_poisson_pmfs_mp(N: int, p: float) -> tuple[np.ndarray, np.ndarray]:
    """The Binomial(N, p) and Poisson(Np) pmfs over k = 0..hi, each entry
    the float nearest its 40-digit value (``_binomial_poisson_fixed``); both
    pmfs are below 1e-40 past hi."""
    lo, b, q = _binomial_poisson_fixed(N, p)
    pmfs = np.zeros((2, lo + len(b)))
    pmfs[0, lo:] = [x / (1 << _FIX) for x in b]
    pmfs[1, lo:] = [x / (1 << _FIX) for x in q]
    return pmfs[0], pmfs[1]


def binomial_poisson_tv_mp(N: int, p: float) -> float:
    """d_TV(Binomial(N, p), Poisson(Np)) to 40 digits, rounded to a float:
    0 at p = 0 or N = 0, 1 - Poisson_N(N) at p = 1, and otherwise half the
    exact sum of |b_k - q_k| over ``_binomial_poisson_fixed``'s window."""
    if p == 0.0 or N == 0:
        return 0.0
    if p == 1.0:
        return float(1 - poisson_pmf_mp(N, N)[N])
    _, b, q = _binomial_poisson_fixed(N, p)
    return sum(abs(x - y) for x, y in zip(b, q)) / (1 << (_FIX + 1))


def poisson_pmf_mp(mu, n_max: int) -> list:
    """Poisson(mu) pmf at n = 0..n_max as 40-digit mpmath numbers, by
    q_n = q_{n-1} mu / n from q_0 = exp(-mu); ``mu`` may be an mpmath
    number."""
    with mpmath.workdps(40):
        mu = mpmath.mpf(mu)
        q = [mpmath.exp(-mu)]
        for n in range(1, n_max + 1):
            q.append(q[-1] * mu / n)
    return q


def bootstrap_se_oracle(data, params, normalization: float, n_bootstrap: int,
                        seed) -> float:
    """Bootstrap standard error of the witness bound, one resample at a time:
    axis by axis in x, y, z order, n_bootstrap calls of
    rng.integers(0, n, size=n) pick each resample's shots, and the witness is
    rebuilt from np.var and np.mean of the picked spins."""
    spins = {}
    for axis in "xyz":
        rows = [r for r in data.shots if r.setting == axis]
        spins[axis] = (np.array([(r.n1a - r.n2a) / (2.0 * data.eta_a) for r in rows]),
                       np.array([(r.n1b - r.n2b) / (2.0 * data.eta_b) for r in rows]))
    rng = np.random.default_rng(seed)
    picks = {axis: [rng.integers(0, sa.size, size=sa.size) for _ in range(n_bootstrap)]
             for axis, (sa, _) in spins.items()}
    values = np.empty(n_bootstrap)
    for b in range(n_bootstrap):
        picked = {axis: (sa[picks[axis][b]], sb[picks[axis][b]])
                  for axis, (sa, sb) in spins.items()}
        (za, zb), (ya, yb), (xa, xb) = picked["z"], picked["y"], picked["x"]
        witness = (float(np.var(params.g_z * za + zb, ddof=1))
                   + float(np.var(params.g_y * ya + yb, ddof=1))
                   - (abs(params.g_z * params.g_y) * float(np.mean(xa)) + float(np.mean(xb))))
        values[b] = -witness / normalization
    return float(np.std(values, ddof=1))


def synthesize_shots_oracle(model: str, n_atoms: int = 100, split_fraction: float = 0.5,
                            eta: float = 1.0, n_shots: int = 1000, seed=0,
                            xi2: float = 0.25) -> tuple:
    """Shots of the ``css`` or ``squeezed`` Gaussian model one at a time: two
    scalar rng.normal calls per z or y shot (total spin, then the split
    fluctuation) and counts inverted with round()."""
    from bosonpe.witness import ShotRecord

    def counts(spin, atoms):
        detected = round(atoms * eta)
        n1 = min(max(int(round(detected / 2.0 + eta * spin)), 0), detected)
        return float(n1), float(detected - n1)

    xi_z, xi_y = (1.0, 1.0) if model == "css" else (xi2, 1.0 / xi2)
    rng = np.random.default_rng(seed)
    f = split_fraction
    base_var = n_atoms / 4.0
    part_sd = math.sqrt(f * (1.0 - f) * base_var)
    n_a, n_b = f * n_atoms, (1.0 - f) * n_atoms
    per_axis = n_shots // 3
    shots = []
    for axis, xi, k in (("z", xi_z, per_axis), ("y", xi_y, per_axis),
                        ("x", None, n_shots - 2 * per_axis)):
        for _ in range(k):
            if xi is None:
                s_a, s_b = n_a / 2.0, n_b / 2.0
            else:
                total = rng.normal(0.0, math.sqrt(xi * base_var))
                g = rng.normal(0.0, part_sd)
                s_a, s_b = f * total + g, (1.0 - f) * total - g
            shots.append(ShotRecord(axis, *counts(s_a, n_a), *counts(s_b, n_b)))
    return tuple(shots)


def dataset_to_csv_oracle(records) -> str:
    """CSV text of shot records, one ``writer.writerow`` per record: the
    per-record writer that ``dataset_to_csv`` had before datasets were held
    as columns."""
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(["setting", "n1a", "n2a", "n1b", "n2b"])
    for rec in records:
        writer.writerow([rec.setting, rec.n1a, rec.n2a, rec.n1b, rec.n2b])
    return buf.getvalue()


def m_pe_from_activation_oracle(state, n_va_restarts: int = 4, seed=0,
                                grid_step: float = 0.05, caps=DESK) -> float:
    """The activation search with one ``activate`` call per candidate: the
    same V_A draws, grid and compass refinement as ``m_pe_from_activation``,
    each reflectivity vector run through the full protocol."""
    from bosonpe.activation import ActivationSpec, activate
    from bosonpe.optics import BeamSplitterArray, ModeUnitary, identity_unitary

    def e_ssr_for(va, r_vec):
        spec = ActivationSpec(state, pre_rotation=va, array=BeamSplitterArray(tuple(r_vec)))
        return activate(spec, caps=caps).e_ssr_negativity

    m = state.modes
    rng = np.random.default_rng(seed)
    vas = [identity_unitary(m)]
    for _ in range(n_va_restarts):
        z = rng.normal(size=(m, m)) + 1j * rng.normal(size=(m, m))
        q, _ = np.linalg.qr(z)
        vas.append(ModeUnitary(q))

    best = 0.0
    grid = np.arange(grid_step, 1.0, grid_step)
    for va in vas:
        if m <= 2:
            candidates = product(grid, repeat=m)
        else:
            base = [1.0 / math.sqrt(2.0)] * m
            candidates = []
            for i in range(m):
                for g in grid:
                    c = list(base)
                    c[i] = g
                    candidates.append(tuple(c))
            candidates.append(tuple(base))
        best_r, best_val = None, -1.0
        for r_vec in candidates:
            val = e_ssr_for(va, r_vec)
            if val > best_val:
                best_val, best_r = val, list(r_vec)

        step = grid_step / 2.0
        while step >= 1e-5:
            improved = False
            for i in range(m):
                for sign in (1.0, -1.0):
                    probe = list(best_r)
                    probe[i] = min(max(best_r[i] + sign * step, 1e-6), 1.0 - 1e-6)
                    if probe[i] == best_r[i]:
                        continue
                    val = e_ssr_for(va, probe)
                    if val > best_val:
                        best_val, best_r, improved = val, probe, True
                        break
            if not improved:
                step /= 2.0
        best = max(best, best_val)
    return best


def local_filter_weights_oracle(occupations: np.ndarray, r: np.ndarray) -> np.ndarray:
    """The local-filter weights prod_i (sqrt(2) r_i)^{n_Ai} (sqrt(2) t_i)^{n_Bi}
    of ``activation._local_filter_weights``, multiplied in one column of
    ``occupations`` at a time."""
    base = math.sqrt(2.0) * np.concatenate([r, np.sqrt(1.0 - r * r)], axis=-1)
    w = np.ones(r.shape[:-1] + (len(occupations),))
    for j, n_j in enumerate(occupations.T):
        w *= base[..., j, None] ** n_j
    return w


def compass_round_oracle(blocks: list, restart: int, best_r: np.ndarray, best_val,
                         step: float) -> tuple:
    """One round of the activation search's compass refinement for V_A
    number ``restart`` of the stacked ``blocks``, as its earlier loop: each
    coordinate's +step / -step pair scored alone by
    ``activation._filtered_negativities``, moving on the first gain.
    Returns (best_r, best_val, improved)."""
    from bosonpe import activation

    improved = False
    for i in range(len(best_r)):
        probes = []
        for sign in (1.0, -1.0):
            probe = best_r.copy()
            probe[i] = min(max(best_r[i] + sign * step, 1e-6), 1.0 - 1e-6)
            if probe[i] != best_r[i]:
                probes.append(probe)
        if not probes:
            continue
        vals = activation._filtered_negativities(blocks, np.array(probes),
                                                 np.full(len(probes), restart))
        for probe, val in zip(probes, vals):
            if val > best_val:
                best_val, best_r, improved = val, probe, True
                break
    return best_r, best_val, improved


def serial_compass_round(blocks: list, chunk: int, best_r: np.ndarray, best_val,
                         step: float) -> tuple:
    """One compass round of the single V_A of ``blocks`` as the search ran it
    before its restarts went in lockstep: the probes of all coordinates still
    to visit built from the current point and scored together, ``chunk`` per
    call; after a move at coordinate j only j+1..m-1 are rebuilt and scored
    again.  Returns (best_r, best_val, improved)."""
    from bosonpe import activation

    m, start, improved = len(best_r), 0, False
    while start < m:
        r = best_r.tolist()
        rows, coords = [], []
        for i in range(start, m):
            for delta in (step, -step):
                x = min(max(r[i] + delta, 1e-6), 1.0 - 1e-6)
                if x != r[i]:
                    rows.append(r[:i] + [x] + r[i + 1:])
                    coords.append(i)
        probes = np.array(rows)
        for lo in range(0, len(probes), chunk):
            batch = probes[lo:lo + chunk]
            vals = activation._filtered_negativities(blocks, batch,
                                                     np.zeros(len(batch), dtype=int))
            gains = np.flatnonzero(vals > best_val)
            if gains.size:
                k = lo + gains[0]
                best_r, best_val, improved = probes[k], vals[gains[0]], True
                start = coords[k] + 1
                break
        else:
            break
    return best_r, best_val, improved


def serial_m_pe_from_activation(state, n_va_restarts: int = 4, seed=0,
                                grid_step: float = 0.05, caps=DESK) -> float:
    """``activation.m_pe_from_activation`` as it ran before its restarts went
    in lockstep: one V_A after another, each with its own stack of one
    balanced output, its grid in chunks of its own candidates and its compass
    rounds through ``serial_compass_round``.  Arguments are not checked."""
    from bosonpe import activation
    from bosonpe.optics import ModeUnitary, _haar_matrix, append_vacuum, identity_unitary

    m = state.modes
    if m == 1 or state.max_particles < 2:
        return 0.0
    n_grid = math.ceil((1.0 - grid_step) / grid_step)
    count = n_grid**m if m <= 2 else m * n_grid + 1
    rng = np.random.default_rng(seed)
    vas = [identity_unitary(m)]
    vas += [ModeUnitary(_haar_matrix(m, rng)) for _ in range(n_va_restarts)]

    padded = append_vacuum(state, m, caps=caps)
    best = 0.0
    grid = np.arange(grid_step, 1.0, grid_step)
    for va in vas:
        blocks = activation._balanced_sectors(padded, [va])
        chunk = activation._chunk_size(blocks)
        best_r, best_val = None, -1.0
        for start in range(0, count, chunk):
            points = activation._grid_points(grid, m, np.arange(start, min(start + chunk, count)))
            vals = activation._filtered_negativities(blocks, points,
                                                     np.zeros(len(points), dtype=int))
            k = int(np.argmax(vals))
            if vals[k] > best_val:
                best_val, best_r = vals[k], points[k]

        step = grid_step / 2.0
        while step >= 1e-5:
            best_r, best_val, improved = serial_compass_round(blocks, chunk, best_r, best_val,
                                                              step)
            if not improved:
                step /= 2.0
        best = max(best, float(best_val))
    return best


def normalized_dense_blocks(acc: dict) -> tuple[dict, float]:
    """{N: matrix} -> ({N: (trace / total trace, matrix / trace)}, total trace),
    dropping blocks whose trace is at most 1e-14."""
    traces = {N: np.trace(mat).real for N, mat in acc.items()}
    total = sum(traces.values())
    blocks = {N: (tr / total, acc[N] / tr) for N, tr in traces.items() if tr > 1e-14}
    return blocks, total


def mix_states_oracle(pairs) -> dict:
    """Convex mixture of [(w, {N: (p, block)})], summed densely."""
    acc = {}
    for w, blocks in pairs:
        for N, (p, mat) in blocks.items():
            acc[N] = acc.get(N, 0) + w * p * mat
    return normalized_dense_blocks(acc)[0]


def tensor_compose_oracle(m1: int, blocks1: dict, m2: int, blocks2: dict) -> dict:
    """Tensor product of dense blocks re-indexed into the (m1 + m2)-mode basis."""
    m = m1 + m2
    acc = {}
    for N1, (p1, a) in blocks1.items():
        b1 = enumerate_basis(m1, N1, UNCAPPED)
        for N2, (p2, b) in blocks2.items():
            b2 = enumerate_basis(m2, N2, UNCAPPED)
            basis = enumerate_basis(m, N1 + N2, UNCAPPED)
            idx = [basis.index(o1 + o2) for o1 in b1.states for o2 in b2.states]
            big = acc.setdefault(N1 + N2, np.zeros((basis.dim, basis.dim), dtype=complex))
            big[np.ix_(idx, idx)] += p1 * p2 * np.kron(a, b)
    return normalized_dense_blocks(acc)[0]


def _split(occ, a_modes, b_modes):
    return tuple(occ[i] for i in a_modes), tuple(occ[i] for i in b_modes)


def dephase_local_oracle(modes: int, blocks: dict, a_modes, b_modes) -> dict:
    """Each dense block with its entries between different local numbers zeroed."""
    out = {}
    for N, (p, mat) in blocks.items():
        na = [sum(_split(occ, a_modes, b_modes)[0])
              for occ in enumerate_basis(modes, N, UNCAPPED).states]
        same = np.equal.outer(na, na)
        out[N] = (p, np.where(same, mat, 0.0))
    return out


def measure_destructive_oracle(modes: int, blocks: dict, a_modes, b_modes, povm) -> dict:
    """Outcome -> (probability, {N_A: (p, block)}) of Tr_B[(1 ⊗ E_k) rho] / p_k,
    one matrix entry at a time; ``povm=None`` is the partial trace (one
    outcome, E = 1)."""
    ma, mb = len(a_modes), len(b_modes)
    n_max = max(blocks)
    b_states = [occ for n in range(n_max + 1)
                for occ in enumerate_basis(max(mb, 1), n, UNCAPPED).states]
    b_index = {occ: i for i, occ in enumerate(b_states)}
    elements = [np.eye(len(b_states))] if povm is None else povm
    outcomes = {}
    for k, E in enumerate(elements):
        acc = {}
        for N, (p, mat) in blocks.items():
            split = [_split(occ, a_modes, b_modes)
                     for occ in enumerate_basis(modes, N, UNCAPPED).states]
            for i, (na_i, nb_i) in enumerate(split):
                for j, (na_j, nb_j) in enumerate(split):
                    if sum(na_i) != sum(na_j):
                        continue
                    w = E[b_index[nb_j or (0,)], b_index[nb_i or (0,)]]
                    ba = enumerate_basis(max(ma, 1), sum(na_i), UNCAPPED)
                    out = acc.setdefault(sum(na_i), np.zeros((ba.dim, ba.dim), dtype=complex))
                    out[ba.index(na_i or (0,)), ba.index(na_j or (0,))] += p * mat[i, j] * w
        reduced, prob = normalized_dense_blocks(acc)
        if reduced:
            outcomes[k] = (prob, reduced)
    return outcomes


def css_mixture_oracle(directions, weights: np.ndarray, l: int) -> dict:
    """sum_t sum_n weights[t, n] |css(directions[t], n)><..| on l modes from
    per-basis-state amplitudes, entries below 1e-16 skipped, normalized by
    the total trace; a direction None is the vacuum at n = 0."""
    acc = {}
    for d, row in zip(directions, weights):
        for n, w in enumerate(row):
            if w < 1e-16:
                continue
            amps = np.ones(1) if d is None else coherent_spin_amplitudes(d, n)
            acc[n] = acc.get(n, 0) + w * np.outer(amps, amps.conj())
    return normalized_dense_blocks(acc)[0]


def css_trace_distance_loop(directions, rho_weights: np.ndarray,
                            sigma_weights: np.ndarray) -> tuple[float, float, float]:
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
            mat = _css_block(d, c, n)
        norm += np.sum(np.abs(np.linalg.eigvalsh(mat)))
    return 0.5 * float(norm), rho_mass, sigma_mass


def poisson_weights_masked(mu, n_max: int) -> np.ndarray:
    """The Poisson kernel with its zero-mean masks always applied, as
    ``poisson_weights`` computed it before it skipped them for positive
    means: the reference it must match bit for bit."""
    rate = np.asarray(mu, dtype=float)[..., None]
    n = np.arange(n_max + 1)
    logs = n * np.log(np.where(rate > 0, rate, 1.0)) - _log_factorials(n_max) - rate
    return np.where(rate > 0, np.exp(logs), n == 0)


def serial_mpef_restarts(state, seed, n_restarts: int, warm_starts,
                         h_support: int) -> measures.MpefResult:
    """``measures._mpef_restarts`` with its starts run one after another, each
    projection one 2-D eigh: the same starts, momentum restarts, stopping rule
    and best-of selection, reading MPEF_ASCENT_TOL and MPEF_ASCENT_MAX_ITER
    from ``bosonpe.measures`` at call time."""
    s = h_support
    g = measures._hermitian_basis(s)
    scale = np.sqrt(np.einsum("aij,aij->a", g, g.conj()).real)
    unit = (g / scale[:, None, None]).reshape(len(g), -1)
    form = measures._mpef_form(state, s) / np.outer(scale, scale)
    evals, evecs = np.linalg.eigh(form)
    rate = 1.0 / max(-evals[0], evals[-1], 1e-300)

    def observable(y):
        return (y @ unit).reshape(s, s)

    def project(y):
        """P(y) and its objective."""
        lam, vecs = np.linalg.eigh(observable(y))
        y = (unit.conj() @ ((vecs * np.clip(lam, -1.0, 1.0)) @ vecs.conj().T).ravel()).real
        return y, y @ form @ y

    starts = [measures._params_from_hermitian(w) * scale for w in warm_starts]
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
        for _ in range(measures.MPEF_ASCENT_MAX_ITER):
            iterations += 1
            z = y + k / (k + 3) * (y - prev)
            y_next, val_next = project(z + rate * (form @ z))
            if k and val_next < val:
                k = 0
                y_next, val_next = project(y + rate * (form @ y))
            else:
                k += 1
            prev, y, gain, val = y, y_next, val_next - val, val_next
            if gain <= measures.MPEF_ASCENT_TOL:
                break
        h = observable(y)
        norm = np.max(np.abs(np.linalg.eigvalsh(h)))
        if norm > 1e-9 and val / norm**2 > best_val:
            best_val, best_h = val / norm**2, h / norm
    lower = max(float(best_val), 0.0)
    upper = max(s * max(float(evals[-1]), 0.0), lower)
    return measures.MpefResult(
        lower=lower,
        upper=upper,
        h=measures._pad_observable(best_h, state.modes),
        bloch=None,
        search="general_restarts",
        metadata={"restarts": len(starts), "nfev": iterations},
    )
