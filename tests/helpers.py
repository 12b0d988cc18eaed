"""Independent oracles used across the test suite.

These deliberately avoid the package's own computational paths: permanents
for lifted unitaries, an explicit first-quantized symmetric embedding for
reduced density matrices and collective generators, and scipy distributions
for classical distances.
"""

import math
from itertools import product

import numpy as np

from bosonpe.fock import UNCAPPED, enumerate_basis


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


def lift_oracle(u: np.ndarray, m: int, N: int) -> np.ndarray:
    """Sector matrix element <q|U|n> = perm(u[q rows, n cols]) / sqrt(q! n!),
    rows repeated per output occupation, columns per input occupation."""
    basis = enumerate_basis(m, N, UNCAPPED)
    out = np.zeros((basis.dim, basis.dim), dtype=complex)
    for col, n_occ in enumerate(basis.states):
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
