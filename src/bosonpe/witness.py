"""Collective-spin witness pipeline: ingest shot data, estimate moments,
optimize witness parameters, and compute the particle-entanglement lower
bound; also generates synthetic datasets.

Spins are computed from counts as S = (N1 - N2) / (2 eta) per region and
axis.  The separability condition

    4 Var(g_z Sz_A + Sz_B) Var(g_y Sy_A + Sy_B)
    ------------------------------------------- >= 1
      (|g_z g_y| |<Sx_A>| + |<Sx_B>|)^2

holds for all separable states and any real g; its linearized form divided
by a spectral normalization lower-bounds the trace-distance measure of
particle entanglement.
"""

from __future__ import annotations

import csv
import io
import itertools
import json
import math
from collections.abc import Mapping
from dataclasses import dataclass

import numpy as np

from .fock import (ValidationError, _MAX_DENSE_SUPPORT, _check_count, _check_real, _check_seed,
                   _freeze, _gate_support)

AXES = ("x", "y", "z")


@dataclass(frozen=True)
class ShotRecord:
    """One shot: its axis and the detected counts n1, n2 of regions A and B."""

    setting: str
    n1a: float
    n2a: float
    n1b: float
    n2b: float

    def __post_init__(self):
        if self.setting not in AXES:
            raise ValidationError(f"setting must be one of {AXES}, got {self.setting!r}")
        for v in (self.n1a, self.n2a, self.n1b, self.n2b):
            if not 0 <= v < math.inf:
                raise ValidationError(f"counts must be finite and nonnegative, got {v!r}")


class SpinShotDataset:
    """Spin shots held as columns: ``axis_codes``, an int8 array of indices
    into ``AXES``, and ``counts``, an (n, 4) float array of n1a, n2a, n1b,
    n2b per shot; both read-only and validated once, where they enter.

    ``SpinShotDataset(shots, eta_a, eta_b, n1_a_mean, n1_b_mean)`` takes a
    sequence of ``ShotRecord`` and converts it to columns once, and
    ``.shots`` builds the records back on first read.  Both stay only for
    the benchmark's calling convention, until the benchmark builds its
    datasets from columns; every computation reads the columns.  The
    efficiencies must lie in (0, 1] and the mean counts must be finite reals
    >= 0."""

    def __init__(self, shots, eta_a: float, eta_b: float, n1_a_mean: float,
                 n1_b_mean: float, description: str = ""):
        shots = tuple(shots)
        if not all(isinstance(s, ShotRecord) for s in shots):
            raise ValidationError("shots must be ShotRecords")
        counts = np.array([(s.n1a, s.n2a, s.n1b, s.n2b) for s in shots], dtype=float)
        self._set(_axis_codes([s.setting for s in shots]), counts.reshape(-1, 4),
                  eta_a, eta_b, n1_a_mean, n1_b_mean, description)

    @classmethod
    def _from_columns(cls, axis_codes: np.ndarray, counts: np.ndarray, eta_a: float,
                      eta_b: float, n1_a_mean: float, n1_b_mean: float,
                      description: str = "") -> SpinShotDataset:
        data = cls.__new__(cls)
        data._set(axis_codes, counts, eta_a, eta_b, n1_a_mean, n1_b_mean, description)
        return data

    def _set(self, axis_codes, counts, eta_a, eta_b, n1_a_mean, n1_b_mean, description):
        eta_a = _check_real(eta_a, "eta_a", 0.0, 1.0, "(]")
        eta_b = _check_real(eta_b, "eta_b", 0.0, 1.0, "(]")
        n1_a_mean = _check_real(n1_a_mean, "n1_a_mean", 0.0)
        n1_b_mean = _check_real(n1_b_mean, "n1_b_mean", 0.0)
        axis_codes = _freeze(np.array(axis_codes, dtype=np.int8))
        counts = _freeze(np.array(counts, dtype=float))
        if not np.all((0 <= axis_codes) & (axis_codes < len(AXES))):
            raise ValidationError(f"axis codes must index {AXES}")
        ok = (0.0 <= counts) & (counts < math.inf)
        if not ok.all():
            raise ValidationError("counts must be finite and nonnegative, "
                                  f"got {float(counts[~ok][0])!r}")
        self.__dict__.update(axis_codes=axis_codes, counts=counts, eta_a=eta_a, eta_b=eta_b,
                             n1_a_mean=n1_a_mean, n1_b_mean=n1_b_mean,
                             description=description, _shots=None)

    def __setattr__(self, *_):
        raise AttributeError("SpinShotDataset is immutable")

    def __len__(self) -> int:
        return self.axis_codes.size

    @property
    def shots(self) -> tuple:
        """The shots as a tuple of ``ShotRecord``, built on first read."""
        if self._shots is None:
            self.__dict__["_shots"] = tuple(
                ShotRecord(AXES[c], *row)
                for c, row in zip(self.axis_codes.tolist(), self.counts.tolist()))
        return self._shots

    def axis_spins(self, axis: str) -> tuple[np.ndarray, np.ndarray]:
        """Per-shot spin values (S_A, S_B) for one measurement axis."""
        if axis not in AXES:
            raise ValidationError(f"axis must be one of {AXES}, got {axis!r}")
        return _spins_by_axis(self)[axis]


_AXIS_CODE = {axis: code for code, axis in enumerate(AXES)}


def _axis_codes(settings: list) -> np.ndarray:
    """Indices into ``AXES`` of setting names; raises ValidationError naming
    the first that is not an axis."""
    codes = np.fromiter((_AXIS_CODE.get(s, -1) for s in settings), np.int8, len(settings))
    bad = np.flatnonzero(codes < 0)
    if bad.size:
        raise ValidationError(f"setting must be one of {AXES}, got {settings[bad[0]]!r}")
    return codes


def _spins_by_axis(data: SpinShotDataset) -> dict:
    """axis -> (S_A, S_B) arrays for every axis, in shot order."""
    c = data.counts
    s_a = (c[:, 0] - c[:, 1]) / (2.0 * data.eta_a)
    s_b = (c[:, 2] - c[:, 3]) / (2.0 * data.eta_b)
    spins = {}
    for code, axis in enumerate(AXES):
        on_axis = data.axis_codes == code
        spins[axis] = (s_a[on_axis], s_b[on_axis])
    return spins


@dataclass(frozen=True)
class AxisMoments:
    mean_a: float
    mean_b: float
    var_a: float
    var_b: float
    cov_ab: float
    n_shots: int

    def combined_variance(self, g: float) -> float:
        """Unbiased sample variance of g * S_A + S_B."""
        return g * g * self.var_a + 2.0 * g * self.cov_ab + self.var_b


@dataclass(frozen=True)
class SpinMoments:
    axes: dict

    def axis(self, name: str) -> AxisMoments:
        if name not in self.axes:
            raise ValidationError(f"axis {name!r} missing from the dataset")
        return self.axes[name]


def estimate_moments(data: SpinShotDataset) -> SpinMoments:
    """Sample means and unbiased variances/covariances of the region spins."""
    return _moments_from_spins(_spins_by_axis(data))


def _moments_from_spins(spins: dict) -> SpinMoments:
    """``estimate_moments`` on the arrays of ``_spins_by_axis``."""
    axes = {}
    for axis, (sa, sb) in spins.items():
        if sa.size == 0:
            continue
        if sa.size >= 2:
            var_a = float(np.var(sa, ddof=1))
            var_b = float(np.var(sb, ddof=1))
            cov = float(np.cov(sa, sb, ddof=1)[0, 1])
        else:
            var_a = var_b = cov = math.nan
        axes[axis] = AxisMoments(float(np.mean(sa)), float(np.mean(sb)),
                                 var_a, var_b, cov, sa.size)
    for axis in AXES:
        if axis not in axes:
            raise ValidationError(f"axis {axis!r} missing from the dataset")
    for axis in ("z", "y"):
        if axes[axis].n_shots < 2:
            raise ValidationError(f"need at least 2 shots on axis {axis!r} for variances")
    return SpinMoments(axes)


@dataclass(frozen=True)
class WitnessParams:
    g_z: float
    g_y: float

    def __post_init__(self):
        object.__setattr__(self, "g_z", _check_real(self.g_z, "g_z"))
        object.__setattr__(self, "g_y", _check_real(self.g_y, "g_y"))


def separability_ratio_from_moments(m: SpinMoments, params: WitnessParams) -> float:
    """``separability_ratio`` on given moments.  A numerator or denominator
    that overflows, at huge gains or spins, raises ``ValidationError``; a
    finite one over a denominator so small that the ratio leaves the float
    range gives +inf, as a vanishing denominator does."""
    num = 4.0 * m.axis("z").combined_variance(params.g_z) \
        * m.axis("y").combined_variance(params.g_y)
    x = m.axis("x")
    root = abs(params.g_z * params.g_y) * abs(x.mean_a) + abs(x.mean_b)
    den = root * root
    if den <= 0.0:
        return math.inf
    ratio = num / den
    if not (math.isfinite(num) and math.isfinite(den)):
        raise ValidationError(f"separability ratio is not finite at g_z={params.g_z!r}, "
                              f"g_y={params.g_y!r}")
    return ratio


def separability_ratio(data: SpinShotDataset, params: WitnessParams) -> float:
    """Left side of the separability condition; values below 1 witness
    entanglement.  A vanishing denominator returns +inf (nothing claimable)."""
    return separability_ratio_from_moments(estimate_moments(data), params)


def witness_normalization(params: WitnessParams, n1_a: float, n1_b: float,
                          eta_a: float, eta_b: float) -> float:
    za = abs(params.g_z) * n1_a / eta_a + n1_b / eta_b
    ya = abs(params.g_y) * n1_a / eta_a + n1_b / eta_b
    xa = abs(params.g_z * params.g_y) * n1_a / eta_a + n1_b / eta_b
    return 0.25 * za * za + 0.25 * ya * ya + xa


@dataclass(frozen=True)
class BoundResult:
    bound: float
    witness_expectation: float
    normalization: float
    params: WitnessParams
    bootstrap_se: float | None
    shots_used: dict


def _bound_from_moments(m: SpinMoments, params: WitnessParams,
                        normalization: float) -> tuple[float, float]:
    x = m.axis("x")
    witness = m.axis("z").combined_variance(params.g_z) \
        + m.axis("y").combined_variance(params.g_y) \
        - (abs(params.g_z * params.g_y) * x.mean_a + x.mean_b)
    return -witness / normalization, witness


# Most indices that one block of bootstrap draws holds.  Row blocks of one
# bound continue the same generator stream, so this bounds memory only: the
# standard error does not depend on it.
_BOOTSTRAP_BLOCK = 2**15


def _resample_sums(rng, values: np.ndarray, n_bootstrap: int,
                   squares: bool) -> tuple[np.ndarray, np.ndarray | None]:
    """Sums, and with ``squares`` sums of squares, of ``n_bootstrap``
    resamples of ``values``.  Row b of the (n_bootstrap, n) index matrix is
    resample b; the matrix is drawn from ``rng`` in row blocks of at most
    ``_BOOTSTRAP_BLOCK`` indices (one row when a row is longer)."""
    n = values.size
    rows = max(1, _BOOTSTRAP_BLOCK // n)
    sums = np.empty(n_bootstrap)
    sq = np.empty(n_bootstrap) if squares else None
    for start in range(0, n_bootstrap, rows):
        stop = min(start + rows, n_bootstrap)
        picked = values[rng.integers(0, n, size=(stop - start, n))]
        picked.sum(axis=1, out=sums[start:stop])
        if squares:
            np.einsum("ij,ij->i", picked, picked, out=sq[start:stop])
    return sums, sq


def _bootstrap_se(spins: dict, params: WitnessParams, normalization: float,
                  n_bootstrap: int, seed) -> float:
    """Standard deviation of the bound over shot resamples within each axis.

    Each axis folds into its witness statistic once: u = g_z S_A + S_B on z,
    g_y S_A + S_B on y and |g_z g_y| S_A + S_B on x.  Each u is centred by its
    full-sample mean, so the one-pass variance (g.g - (sum g)^2 / n) / (n - 1)
    of a resample g does not cancel.  The axes draw their resamples one after
    another, in x, y, z order, from one generator."""
    gains = {"x": abs(params.g_z * params.g_y), "y": params.g_y, "z": params.g_z}
    u = {axis: gains[axis] * sa + sb for axis, (sa, sb) in spins.items()}
    mean_x = u["x"].mean()
    for values in u.values():
        values -= values.mean()
    nx, ny, nz = (u[axis].size for axis in AXES)
    rng = np.random.default_rng(seed)
    # huge gains overflow to a non-finite result, which the caller rejects
    with np.errstate(over="ignore", invalid="ignore"):
        sx, _ = _resample_sums(rng, u["x"], n_bootstrap, squares=False)
        sy, qy = _resample_sums(rng, u["y"], n_bootstrap, squares=True)
        sz, qz = _resample_sums(rng, u["z"], n_bootstrap, squares=True)
        witness = (qz - sz * sz / nz) / (nz - 1) + (qy - sy * sy / ny) / (ny - 1) \
            - (mean_x + sx / nx)
        return float(np.std(-witness / normalization, ddof=1))


def pe_lower_bound(data: SpinShotDataset, params: WitnessParams,
                   counts: dict | None = None, n_bootstrap: int = 1000,
                   seed=0) -> BoundResult:
    """Witness-based lower bound on the trace-distance measure.

    ``counts`` may override the metadata means {"N1_A": ..., "N1_B": ...}
    entering the normalization; it must be a mapping that holds both, each a
    finite real >= 0.
    A normalization or bound that is not finite, at huge gains or counts,
    raises ``ValidationError``.

    The bootstrap standard error resamples shots with replacement within each
    axis.  The stream of ``np.random.default_rng(seed)`` is read axis by
    axis, in x, y, z order: each axis of n shots draws its whole
    (n_bootstrap, n) index matrix with ``rng.integers(0, n, ...)``, row b
    being resample b, so a seed reproduces the standard error.  The matrix
    is drawn in row blocks that bound memory and continue the same stream.
    ``n_bootstrap=0`` skips the bootstrap (``bootstrap_se`` is None); 1 and
    negative counts are rejected, and so is a seed that is not a nonnegative
    integer.  More than 1e6 resamples raise DeskScaleError before anything
    is drawn."""
    _check_seed(seed)
    _check_count(n_bootstrap, "n_bootstrap")
    _gate_support(n_bootstrap, "n_bootstrap")
    if n_bootstrap == 1:
        raise ValidationError(f"n_bootstrap must be 0 or at least 2, got {n_bootstrap}")
    if counts is None:
        n1_a, n1_b = data.n1_a_mean, data.n1_b_mean
    elif not isinstance(counts, Mapping):
        raise ValidationError(f"counts must be a mapping, got {type(counts).__name__}")
    else:
        # a missing entry reads as None, which the check refuses
        n1_a = _check_real(counts.get("N1_A"), "counts['N1_A']", 0.0)
        n1_b = _check_real(counts.get("N1_B"), "counts['N1_B']", 0.0)
    norm = witness_normalization(params, n1_a, n1_b, data.eta_a, data.eta_b)
    if not 0.0 < norm < math.inf:
        raise ValidationError(f"normalization must be positive and finite, got {norm!r}")
    spins = _spins_by_axis(data)
    moments = _moments_from_spins(spins)
    bound, witness = _bound_from_moments(moments, params, norm)
    if not math.isfinite(bound):
        raise ValidationError(f"witness bound is not finite at g_z={params.g_z!r}, "
                              f"g_y={params.g_y!r}")

    se = None
    if n_bootstrap > 0:
        se = _bootstrap_se(spins, params, norm, n_bootstrap, seed)
        if not math.isfinite(se):
            raise ValidationError("bootstrap standard error is not finite")
    shots_used = {axis: moments.axes[axis].n_shots for axis in moments.axes}
    return BoundResult(float(bound), float(witness), float(norm), params, se, shots_used)


def optimize_witness_params(data: SpinShotDataset) -> WitnessParams:
    """The (g_z, g_y) of smallest separability ratio, in closed form.

    With a = |g_z| and b = |g_y| the variances are V_z = A a^2 + B a + C and
    V_y = D b^2 + E b + F, where B = -2|cov_z| and E = -2|cov_y|: each sign is
    set against its covariance.  With k = |<Sx_A>| and c = |<Sx_B>| the best
    a for a fixed b is linear-fractional, a*(b) = (2kbC - Bc) / (2Ac - Bkb),
    and substituting it into the b-stationarity condition leaves a quadratic
    in b.  Every interior optimum is therefore one of its non-negative roots;
    the two axis optima and the origin cover the boundary, and the candidate
    with the smallest ratio is returned.  When every ratio is infinite
    (<Sx_A> = <Sx_B> = 0) the result is (0, 0).

    Degenerate moments can put the infimum at infinite gain, where no finite
    (g_z, g_y) attains it: zero variance of region A on z or y, both axes
    uncorrelated, or <Sx_B> = 0 with an uncorrelated axis.  The best finite
    candidate is returned then.
    """
    return _optimal_params(estimate_moments(data))


def _optimal_params(m: SpinMoments) -> WitnessParams:
    """``optimize_witness_params`` on given moments."""
    z, y, x = m.axis("z"), m.axis("y"), m.axis("x")
    # numpy scalars, so that a zero variance divides to inf or nan under the
    # errstate below instead of raising
    A, B, C, D, E, F, k, c = np.array([
        z.var_a, -2.0 * abs(z.cov_ab), z.var_b,
        y.var_a, -2.0 * abs(y.cov_ab), y.var_b, abs(x.mean_a), abs(x.mean_b)])
    sign_z = -1.0 if z.cov_ab > 0 else 1.0
    sign_y = -1.0 if y.cov_ab > 0 else 1.0

    with np.errstate(divide="ignore", invalid="ignore"):
        roots = np.roots([-(2.0 * B * D * c * k + 2.0 * E * k * k * C),
                          4.0 * A * D * c * c - 4.0 * k * k * F * C,
                          2.0 * k * F * B * c + 2.0 * A * E * c * c])
        # real parts of complex roots are extra points, never wrong ones; a
        # double root may carry a rounding-size imaginary part
        bs = roots.real[roots.real >= 0.0]
        candidates = [((2.0 * k * b * C - B * c) / (2.0 * A * c - B * k * b), b) for b in bs]
        candidates += [(-B / (2.0 * A), 0.0), (0.0, -E / (2.0 * D)), (0.0, 0.0)]
    best, best_ratio = WitnessParams(0.0, 0.0), math.inf
    for a, b in candidates:
        if not (math.isfinite(a) and math.isfinite(b) and a >= 0.0 and b >= 0.0):
            continue
        params = WitnessParams(sign_z * a, sign_y * b)
        try:
            ratio = separability_ratio_from_moments(m, params)
        except ValidationError:
            continue  # the ratio overflows at these gains
        if ratio < best_ratio:
            best, best_ratio = params, ratio
    return best


# ---------------------------------------------------------------------------
# synthetic datasets


# Largest atom number: below it every count is an exact float and the
# detected total round(atoms * eta) fits in int64
_MAX_ATOMS = 2**53
# Fewest shots that put two on each of z and y, the least a bound needs
_MIN_SHOTS = 6


def _counts_from_spin(spin: np.ndarray, atoms: float, eta: float) -> tuple[np.ndarray, np.ndarray]:
    """Invert S = (n1 - n2) / (2 eta) with n1 + n2 = detected atoms, per shot.
    ``np.rint`` and ``round`` both round half to even."""
    detected = round(atoms * eta)
    # through integers, as int(round(...)) went, so that no count is -0.0
    n1 = np.clip(np.rint(detected / 2.0 + eta * spin).astype(np.int64), 0, detected)
    return n1.astype(float), (detected - n1).astype(float)


def synthesize_dataset(model: str, n_atoms: int = 100, split_fraction: float = 0.5,
                       eta: float = 1.0, n_shots: int = 1000, seed=0,
                       xi2: float = 0.25) -> SpinShotDataset:
    """Gaussian collective-spin model datasets, built as columns: the z
    shots, then the y shots, then the x shots.

    ``css`` targets the separability boundary (ratio about 1); ``squeezed``
    reduces the z variance of the total spin by xi2 (and inflates y by 1/xi2)
    so the witness fires; ``constant`` emits the fixed zero-variance dataset
    whose bound is pure arithmetic (10/220 with defaults), whatever the
    sizes, split and efficiency, which are still checked.  Raises
    ValidationError for fewer than 6 shots (the bound needs two on each of z
    and y) or more than 2**53 atoms, and DeskScaleError, before drawing, for
    more than 1e6 shots, and ValidationError for a seed that is not a
    nonnegative integer.
    """
    _check_seed(seed)
    if model not in ("constant", "css", "squeezed"):
        raise ValidationError(f"unknown model {model!r}")
    split_fraction = _check_real(split_fraction, "split_fraction", 0.0, 1.0, "()")
    n_atoms = _check_count(n_atoms, "n_atoms", 0, _MAX_ATOMS)
    _check_count(n_shots, "n_shots", _MIN_SHOTS)
    _gate_support(n_shots, "n_shots")
    eta = _check_real(eta, "eta", 0.0, 1.0, "(]")
    if model == "constant":
        # two shots each on x, z and y
        counts = np.repeat([[10.0, 0.0, 10.0, 0.0], [5.0, 5.0, 5.0, 5.0], [5.0, 5.0, 5.0, 5.0]],
                           2, axis=0)
        return SpinShotDataset._from_columns(np.repeat([0, 2, 1], 2), counts, 1.0, 1.0, 10.0,
                                             10.0, "constant shots: Sx=5 per region, "
                                             "zero variances")
    if model == "css":
        xi_z = xi_y = 1.0
    else:
        xi2 = _check_real(xi2, "xi2", 0.0, 1.0, "(]")
        xi_z, xi_y = xi2, 1.0 / xi2

    rng = np.random.default_rng(seed)
    f = split_fraction
    base_var = n_atoms / 4.0
    part_sd = math.sqrt(f * (1.0 - f) * base_var)
    n_a = f * n_atoms
    n_b = (1.0 - f) * n_atoms
    per_axis = n_shots // 3
    # the remainder goes to x, which draws no random numbers, so the z and y
    # draws do not depend on n_shots mod 3
    plan = (("z", xi_z, per_axis), ("y", xi_y, per_axis), ("x", None, n_shots - 2 * per_axis))
    blocks = []
    for axis, xi, k in plan:
        if xi is None:
            # polarization axis: fully stretched spins, no model noise
            s_a, s_b = np.full(k, n_a / 2.0), np.full(k, n_b / 2.0)
        else:
            # row i holds shot i's (total, g) pair, in the order that one
            # rng.normal call per value would draw them
            total, g = rng.normal(0.0, [math.sqrt(xi * base_var), part_sd], size=(k, 2)).T
            s_a = f * total + g
            s_b = (1.0 - f) * total - g
        blocks.append(np.column_stack(_counts_from_spin(s_a, n_a, eta)
                                      + _counts_from_spin(s_b, n_b, eta)))
    codes = np.repeat([_AXIS_CODE[axis] for axis, _, _ in plan], [k for _, _, k in plan])
    return SpinShotDataset._from_columns(
        codes, np.concatenate(blocks), eta, eta, n_a * eta, n_b * eta,
        f"{model} model, N={n_atoms}, split={f}, xi2={xi2}, eta={eta}")


# ---------------------------------------------------------------------------
# CSV / JSON ingestion

CSV_HEADER = ["setting", "n1a", "n2a", "n1b", "n2b"]


def dataset_to_csv(data: SpinShotDataset) -> str:
    """The shots under ``CSV_HEADER``, one row per shot, each count written
    as its Python float."""
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(CSV_HEADER)
    settings = [AXES[c] for c in data.axis_codes.tolist()]
    writer.writerows(zip(settings, *data.counts.T.tolist()))
    return buf.getvalue()


def dataset_metadata_json(data: SpinShotDataset) -> str:
    return json.dumps({
        "eta_a": data.eta_a,
        "eta_b": data.eta_b,
        "n1_a_mean": data.n1_a_mean,
        "n1_b_mean": data.n1_b_mean,
        "description": data.description,
    })


def dataset_from_csv(csv_text: str, meta_json: str) -> SpinShotDataset:
    """A dataset from CSV rows under ``CSV_HEADER`` and its metadata JSON,
    each count parsed by ``float()``.  Raises DeskScaleError at the first row
    past 1e6 shots, and ValidationError for a row of another length, a count
    that does not parse or is negative or not finite, a setting that is no
    axis, and metadata values the dataset's checks refuse (a JSON true or
    string among them)."""
    try:
        meta = json.loads(meta_json)
        eta_a, eta_b = meta["eta_a"], meta["eta_b"]
        n1_a, n1_b = meta["n1_a_mean"], meta["n1_b_mean"]
    except (KeyError, TypeError, ValueError) as exc:
        raise ValidationError(f"malformed metadata JSON: {exc}") from exc
    reader = csv.reader(io.StringIO(csv_text))
    header = next(reader, None)
    if header is None or [h.strip() for h in header] != CSV_HEADER:
        raise ValidationError(f"CSV header must be {','.join(CSV_HEADER)}")
    # blank lines are skipped; reading stops at the first row past the cap
    rows = list(itertools.islice(filter(None, reader), _MAX_DENSE_SUPPORT + 1))
    if set(map(len, rows)) - {5}:
        raise ValidationError(f"bad CSV row: {next(r for r in rows if len(r) != 5)}")
    _gate_support(len(rows), "CSV shots")
    if not rows:
        raise ValidationError("no shots in CSV")
    settings, *columns = zip(*rows)
    try:
        counts = np.column_stack([np.fromiter(map(float, c), float, len(c)) for c in columns])
    except ValueError as exc:
        raise ValidationError(f"bad count in CSV: {exc}") from exc
    return SpinShotDataset._from_columns(_axis_codes([s.strip() for s in settings]), counts,
                                         eta_a, eta_b, n1_a, n1_b,
                                         str(meta.get("description", "")))
