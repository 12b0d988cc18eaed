"""Independent reference computations and output checks for the benchmark.

Nothing here calls into bosonpe: each check takes the program's output as
plain numbers and compares it with a value computed from first principles
(Ryser permanents, binomial counting, lgamma sums, plain numpy moments) or
with a property the method must have.  A check returns ``None`` when the
output is right and a one-line reason when it is wrong.
"""

from __future__ import annotations

import csv
import io
import math
from itertools import permutations, product

import numpy as np

SECTOR_TOL = 1e-9
FREE_TOL = 1e-9
ENTANGLED_TOL = 1e-6


def _fail(cond: bool, reason: str):
    return None if cond else reason


def first_failure(*results):
    """The first non-None reason among ``results``, or None."""
    for r in results:
        if r is not None:
            return r
    return None


# ---------------------------------------------------------------------------
# activation


def binomial_sector_probs(block_weights: dict) -> dict:
    """P(N_A, N_B) after balanced splitters: each particle of block N goes to
    A or B independently with probability 1/2, whatever the input state."""
    out = {}
    for n, p in block_weights.items():
        for k in range(n + 1):
            out[(k, n - k)] = out.get((k, n - k), 0.0) + p * math.comb(n, k) / 2.0**n
    return out


def check_sector_probabilities(got: dict, block_weights: dict, tol: float = SECTOR_TOL):
    want = binomial_sector_probs(block_weights)
    for key in set(got) | set(want):
        g, w = got.get(key, 0.0), want.get(key, 0.0)
        if abs(g - w) > tol:
            return f"sector {key} probability {g!r}, binomial value {w!r}"
    return None


def fock_splits(occupation, n_a: int):
    """Per-mode splits k of a Fock input with sum(k) = n_a and 0 <= k_i <= n_i."""
    return [k for k in product(*[range(n + 1) for n in occupation]) if sum(k) == n_a]


def fock_schmidt_spectrum(occupation, n_a: int) -> np.ndarray:
    """Squared Schmidt coefficients of the (n_a, N - n_a) sector of a Fock
    input after balanced splitters: prod_i C(n_i, k_i), normalised, sorted
    in descending order.  Distinct splits give orthogonal A and B states."""
    w = np.array([math.prod(math.comb(n, k) for n, k in zip(occupation, ks))
                  for ks in fock_splits(occupation, n_a)], dtype=float)
    return np.sort(w / w.sum())[::-1]


def check_fock_schmidt(schmidt: dict, occupation, tol: float = SECTOR_TOL):
    if schmidt is None:
        return "no Schmidt spectra reported for a pure output"
    total = sum(occupation)
    if set(schmidt) != {(k, total - k) for k in range(total + 1)}:
        return f"Schmidt sectors {sorted(schmidt)} do not cover N={total}"
    for (n_a, _), spectrum in schmidt.items():
        want = fock_schmidt_spectrum(occupation, n_a)
        got = np.sort(np.asarray(spectrum, dtype=float))[::-1]
        if got.size < want.size or np.max(np.abs(got[:want.size] - want)) > tol \
                or np.any(np.abs(got[want.size:]) > tol):
            return f"Schmidt spectrum of sector ({n_a}, {total - n_a}) differs from prod C(n_i, k_i)"
    return None


def fock_postselected_support(occupation, n_a: int) -> set:
    """(A occupation, B occupation) pairs carrying weight in sector n_a."""
    return {(tuple(k), tuple(n - x for n, x in zip(occupation, k)))
            for k in fock_splits(occupation, n_a)}


def check_free(value: float, tol: float = FREE_TOL):
    return _fail(value <= tol, f"free input gives e_ssr_negativity {value!r} > {tol}")


def check_entangled(value: float, tol: float = ENTANGLED_TOL):
    return _fail(value >= tol, f"entangled input gives e_ssr_negativity {value!r} < {tol}")


def ryser_permanent(a: np.ndarray) -> complex:
    """Permanent by Ryser's inclusion-exclusion formula."""
    n = a.shape[0]
    if n == 0:
        return 1.0 + 0j
    total = 0.0 + 0j
    for subset in range(1, 1 << n):
        cols = [j for j in range(n) if subset >> j & 1]
        total += (-1) ** len(cols) * np.prod(a[:, cols].sum(axis=1))
    return (-1) ** n * total


def splitter_matrix(r) -> np.ndarray:
    """2m-mode single-particle matrix of the splitter array: input mode i
    feeds r_i a_i - t_i b_i, vacuum mode i feeds t_i a_i + r_i b_i."""
    m = len(r)
    u = np.zeros((2 * m, 2 * m), dtype=complex)
    for i, ri in enumerate(r):
        ti = math.sqrt(1.0 - ri * ri)
        u[i, i], u[i, m + i], u[m + i, i], u[m + i, m + i] = ri, ti, -ti, ri
    return u


def permanent_amplitudes(u: np.ndarray, occupation, out_states) -> np.ndarray:
    """<s|U|n> = perm(u[rows of s, cols of n]) / sqrt(s! n!) for each s."""
    cols = [i for i, n in enumerate(occupation) for _ in range(n)]
    n_fact = math.prod(math.factorial(n) for n in occupation)
    amps = np.empty(len(out_states), dtype=complex)
    for idx, s in enumerate(out_states):
        rows = [j for j, q in enumerate(s) for _ in range(q)]
        norm = math.sqrt(math.prod(math.factorial(q) for q in s) * n_fact)
        amps[idx] = ryser_permanent(u[np.ix_(rows, cols)]) / norm
    return amps


def check_permanent_output(block: np.ndarray, amps: np.ndarray, tol: float = SECTOR_TOL):
    err = float(np.max(np.abs(block - np.outer(amps, amps.conj()))))
    return _fail(err <= tol, f"output block differs from the permanent state by {err:.3e}")


# ---------------------------------------------------------------------------
# metrological monotone


def sq_matrix(f: np.ndarray, states) -> np.ndarray:
    """sum_ij f_ij a_i^dag a_j on an occupation basis, built entry by entry."""
    index = {s: k for k, s in enumerate(states)}
    m = len(states[0])
    out = np.zeros((len(states), len(states)), dtype=complex)
    for col, occ in enumerate(states):
        for j in range(m):
            if occ[j] == 0:
                continue
            for i in range(m):
                t = list(occ)
                t[j] -= 1
                amp = math.sqrt(occ[j]) * math.sqrt(t[i] + 1)
                t[i] += 1
                out[index[tuple(t)], col] += f[i, j] * amp
    return out


def pure_objective(psi: np.ndarray, h: np.ndarray, states) -> float:
    """F(psi, H_h) - 4 V(h) for a pure N-particle state, with H_h the sum
    of h over particles divided by sqrt(N) and V the single-particle
    variance <h^2>_1 - <h>_1^2."""
    n = sum(states[0])
    S = sq_matrix(h, states)
    H = S / math.sqrt(n)
    mean_h = np.vdot(psi, H @ psi).real
    fisher = 4.0 * (np.vdot(H @ psi, H @ psi).real - mean_h**2)
    one = np.vdot(psi, S @ psi).real / n
    two = np.vdot(psi, sq_matrix(h @ h, states) @ psi).real / n
    return float(fisher - 4.0 * (two - one * one))


def check_mpef_general(value: float, h: np.ndarray, psi: np.ndarray, states,
                       tol: float = 1e-8):
    n = sum(states[0])
    if not 0.0 <= value <= 4.0 * n:
        return f"monotone {value!r} outside [0, 4N]"
    opnorm = float(np.max(np.abs(np.linalg.eigvalsh((h + h.conj().T) / 2))))
    if abs(opnorm - 1.0) > 1e-9:
        return f"returned observable has operator norm {opnorm!r}, not 1"
    redo = max(pure_objective(psi, h, states), 0.0)
    return _fail(abs(redo - value) <= tol,
                 f"monotone {value!r} but its observable gives {redo!r}")


def css_fisher(psi: np.ndarray, h: np.ndarray) -> tuple[float, float]:
    """(QFI, single-particle variance) of a coherent spin state along psi:
    F = 4 (psi^dag h^2 psi - (psi^dag h psi)^2) = 4 V, from m x m data."""
    var = float(np.vdot(psi, h @ h @ psi).real - np.vdot(psi, h @ psi).real ** 2)
    return 4.0 * var, var


def check_css_fisher(fisher: float, variance: float, psi, h, tol: float = 1e-9):
    want_f, want_v = css_fisher(psi, h)
    return first_failure(
        _fail(abs(fisher - want_f) <= tol * max(1.0, want_f),
              f"coherent-spin QFI {fisher!r}, m x m value {want_f!r}"),
        _fail(abs(variance - want_v) <= tol * max(1.0, want_v),
              f"single-particle variance {variance!r}, m x m value {want_v!r}"),
    )


# ---------------------------------------------------------------------------
# nonclassicality bounds


def binomial_poisson_tv(n: int, p: float) -> float:
    """TV(Binomial(n, p), Poisson(np)) from lgamma sums; the Poisson mass
    above n enters exactly as 1 - sum_{k<=n} q_k."""
    mu = n * p
    lq = math.log(1.0 - p) if p < 1.0 else -math.inf
    s_abs = 0.0
    s_q = 0.0
    for k in range(n + 1):
        lb = (math.lgamma(n + 1) - math.lgamma(k + 1) - math.lgamma(n - k + 1)
              + k * math.log(p) + ((n - k) * lq if n - k else 0.0))
        q = math.exp(k * math.log(mu) - mu - math.lgamma(k + 1))
        s_abs += abs(math.exp(lb) - q)
        s_q += q
    return 0.5 * s_abs + 0.5 * max(1.0 - s_q, 0.0)


def check_binomial_poisson(distance: float, n: int, p: float, tol: float = 1e-9):
    want = binomial_poisson_tv(n, p)
    return first_failure(
        _fail(abs(distance - want) <= tol,
              f"TV(Bin({n}, {p}), Poi) = {distance!r}, lgamma value {want!r}"),
        _fail(distance <= p + 1e-12, f"TV(Bin({n}, {p}), Poi) = {distance!r} exceeds p"),
    )


def check_definetti(distance: float, l: int, m: int, truncation: float):
    bound = l / m
    return _fail(0.0 <= distance <= bound + truncation + 1e-12,
                 f"de Finetti distance {distance!r} exceeds l/m = {bound} "
                 f"plus truncation {truncation!r}")


def _poisson_cut(mu: float, tail: float = 1e-6) -> int:
    if mu <= 0:
        return 0
    n = int(math.ceil(mu + 6.0 * math.sqrt(mu)))
    while sum(math.exp(k * math.log(mu) - mu - math.lgamma(k + 1))
              for k in range(n + 1)) < 1.0 - tail:
        n += 1
    return n


def definetti_one_mode_distance(n: int, m: int, terms) -> float:
    """Trace distance of the l = 1 classical approximation, computed as a
    total variation between number distributions on the retained mode: a
    binomial mixture against the Poisson mixture that replaces it, each
    over the m! mode permutations of every term, Poisson truncated and
    renormalised at the same cutoff as the method."""
    splits = []
    perms = list(permutations(range(m)))
    for w, c in terms:
        c = np.asarray(c, dtype=complex)
        for perm in perms:
            splits.append((w / len(perms), min(abs(c[perm[0]]) ** 2, 1.0)))
    n_hi = max([n] + [_poisson_cut(n * p) for _, p in splits])
    b = np.zeros(n_hi + 1)
    q = np.zeros(n_hi + 1)
    for w, p in splits:
        for k in range(n_hi + 1):
            if k <= n:
                b[k] += w * math.comb(n, k) * p**k * (1.0 - p) ** (n - k)
            mu = n * p
            q[k] += w * (math.exp(k * math.log(mu) - mu - math.lgamma(k + 1))
                         if mu > 0 else float(k == 0))
    return 0.5 * float(np.sum(np.abs(b / b.sum() - q / q.sum())))


def check_definetti_one_mode(distance: float, n: int, m: int, terms, tol: float = 1e-9):
    want = definetti_one_mode_distance(n, m, terms)
    return _fail(abs(distance - want) <= tol,
                 f"l=1 de Finetti distance {distance!r}, number-statistics value {want!r}")


def check_many_copy(upper: float, k: int):
    return _fail(upper is not None and 0.0 <= upper <= 1.0 / k + 1e-9,
                 f"{k}-copy upper bound {upper!r} exceeds 1/k")


# ---------------------------------------------------------------------------
# witness


def spins_from_csv(csv_text: str, eta_a: float, eta_b: float) -> dict:
    """axis -> (S_A, S_B) arrays with S = (n1 - n2) / (2 eta), plain numpy."""
    rows = list(csv.reader(io.StringIO(csv_text)))[1:]
    out = {}
    for axis in ("x", "y", "z"):
        sel = np.array([[float(x) for x in r[1:]] for r in rows if r and r[0] == axis])
        if sel.size:
            out[axis] = ((sel[:, 0] - sel[:, 1]) / (2.0 * eta_a),
                         (sel[:, 2] - sel[:, 3]) / (2.0 * eta_b))
    return out


def check_moments(moments: dict, csv_text: str, eta_a: float, eta_b: float,
                  tol: float = 1e-9):
    """``moments`` maps axis -> (mean_a, mean_b, var_a, var_b, cov_ab, n)."""
    spins = spins_from_csv(csv_text, eta_a, eta_b)
    if set(spins) != set(moments):
        return f"moment axes {sorted(moments)} differ from CSV axes {sorted(spins)}"
    for axis, (sa, sb) in spins.items():
        want = (sa.mean(), sb.mean(), sa.var(ddof=1), sb.var(ddof=1),
                float(np.mean((sa - sa.mean()) * (sb - sb.mean()))) * sa.size / (sa.size - 1),
                sa.size)
        for name, g, w in zip(("mean_a", "mean_b", "var_a", "var_b", "cov_ab", "n"),
                              moments[axis], want):
            if abs(g - w) > tol * max(1.0, abs(w)):
                return f"axis {axis} {name} = {g!r}, numpy value {w!r}"
    return None


def separability_ratio(spins: dict, g_z: float, g_y: float) -> float:
    """Left side of the variance-product separability condition."""
    vz = np.var(g_z * spins["z"][0] + spins["z"][1], ddof=1)
    vy = np.var(g_y * spins["y"][0] + spins["y"][1], ddof=1)
    den = (abs(g_z * g_y) * abs(spins["x"][0].mean()) + abs(spins["x"][1].mean())) ** 2
    return float(4.0 * vz * vy / den)


def check_optimized_ratio(spins: dict, g_z: float, g_y: float):
    at_opt = separability_ratio(spins, g_z, g_y)
    at_unit = separability_ratio(spins, 1.0, 1.0)
    return first_failure(
        _fail(at_opt <= at_unit + 1e-12,
              f"optimised ratio {at_opt!r} above the g = (1, 1) ratio {at_unit!r}"),
        _fail(at_opt < 1.0, f"optimised ratio {at_opt!r} does not witness squeezing"),
    )


def check_constant_bound(bound: float):
    return _fail(abs(bound - 10.0 / 220.0) <= 1e-12,
                 f"constant dataset bound {bound!r}, exact value 10/220")


def check_squeezed_bound(bound: float, se: float):
    return _fail(se is not None and se > 0 and bound > 5.0 * se,
                 f"squeezed bound {bound!r} not above 5 standard errors ({se!r})")


def check_css_bound(bound: float, se: float):
    return _fail(se is not None and se > 0 and bound <= 3.0 * se,
                 f"css bound {bound!r} above 3 standard errors ({se!r})")


def check_same_json(cli_doc: dict, in_process: dict):
    for key, want in in_process.items():
        if cli_doc.get(key) != want:
            return f"CLI {key} = {cli_doc.get(key)!r}, in-process value {want!r}"
    return None
