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
import json
import math
from dataclasses import dataclass

import numpy as np

from .fock import ValidationError

AXES = ("x", "y", "z")


@dataclass(frozen=True)
class ShotRecord:
    setting: str
    n1a: float
    n2a: float
    n1b: float
    n2b: float

    def __post_init__(self):
        if self.setting not in AXES:
            raise ValidationError(f"setting must be one of {AXES}, got {self.setting!r}")
        for v in (self.n1a, self.n2a, self.n1b, self.n2b):
            if v < 0:
                raise ValidationError("counts must be nonnegative")


@dataclass(frozen=True)
class SpinShotDataset:
    shots: tuple
    eta_a: float
    eta_b: float
    n1_a_mean: float
    n1_b_mean: float
    description: str = ""

    def __post_init__(self):
        if not 0.0 < self.eta_a <= 1.0 or not 0.0 < self.eta_b <= 1.0:
            raise ValidationError("detection efficiencies must lie in (0, 1]")
        object.__setattr__(self, "shots", tuple(self.shots))

    def axis_spins(self, axis: str) -> tuple[np.ndarray, np.ndarray]:
        """Per-shot spin values (S_A, S_B) for one measurement axis."""
        sa, sb = [], []
        for rec in self.shots:
            if rec.setting != axis:
                continue
            sa.append((rec.n1a - rec.n2a) / (2.0 * self.eta_a))
            sb.append((rec.n1b - rec.n2b) / (2.0 * self.eta_b))
        return np.array(sa), np.array(sb)


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


def estimate_moments(data: SpinShotDataset,
                     required=("x", "y", "z")) -> SpinMoments:
    """Sample means and unbiased variances/covariances of the region spins."""
    axes = {}
    for axis in AXES:
        sa, sb = data.axis_spins(axis)
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
    for axis in required:
        if axis not in axes:
            raise ValidationError(f"axis {axis!r} missing from the dataset")
    for axis in ("z", "y"):
        if axis in required and axes[axis].n_shots < 2:
            raise ValidationError(f"need at least 2 shots on axis {axis!r} for variances")
    return SpinMoments(axes)


@dataclass(frozen=True)
class WitnessParams:
    g_z: float
    g_y: float

    def __post_init__(self):
        if not (math.isfinite(self.g_z) and math.isfinite(self.g_y)):
            raise ValidationError("witness parameters must be finite")


def separability_ratio_from_moments(m: SpinMoments, params: WitnessParams) -> float:
    num = 4.0 * m.axis("z").combined_variance(params.g_z) \
        * m.axis("y").combined_variance(params.g_y)
    x = m.axis("x")
    den = (abs(params.g_z * params.g_y) * abs(x.mean_a) + abs(x.mean_b)) ** 2
    if den <= 0.0:
        return math.inf
    return num / den


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


def _witness_from_arrays(spins: dict, params: WitnessParams) -> float:
    za, zb = spins["z"]
    ya, yb = spins["y"]
    xa, xb = spins["x"]
    var_z = float(np.var(params.g_z * za + zb, ddof=1))
    var_y = float(np.var(params.g_y * ya + yb, ddof=1))
    return var_z + var_y - (abs(params.g_z * params.g_y) * float(np.mean(xa))
                            + float(np.mean(xb)))


def pe_lower_bound(data: SpinShotDataset, params: WitnessParams,
                   counts: dict | None = None, n_bootstrap: int = 1000,
                   seed=0) -> BoundResult:
    """Witness-based lower bound on the trace-distance measure.

    ``counts`` may override the metadata means {"N1_A": ..., "N1_B": ...}
    entering the normalization.  The bootstrap standard error resamples
    shots within each axis, seeded."""
    n1_a = counts["N1_A"] if counts else data.n1_a_mean
    n1_b = counts["N1_B"] if counts else data.n1_b_mean
    norm = witness_normalization(params, n1_a, n1_b, data.eta_a, data.eta_b)
    if norm <= 0:
        raise ValidationError("normalization must be positive")
    moments = estimate_moments(data)
    bound, witness = _bound_from_moments(moments, params, norm)

    se = None
    if n_bootstrap > 0:
        spins = {axis: data.axis_spins(axis) for axis in AXES}
        rng = np.random.default_rng(seed)
        values = np.empty(n_bootstrap)
        for b in range(n_bootstrap):
            resampled = {}
            for axis, (sa, sb) in spins.items():
                idx = rng.integers(0, sa.size, size=sa.size)
                resampled[axis] = (sa[idx], sb[idx])
            values[b] = -_witness_from_arrays(resampled, params) / norm
        se = float(np.std(values, ddof=1))
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
        params = WitnessParams(sign_z * float(a), sign_y * float(b))
        ratio = separability_ratio_from_moments(m, params)
        if ratio < best_ratio:
            best, best_ratio = params, ratio
    return best


# ---------------------------------------------------------------------------
# synthetic datasets


def _counts_from_spin(spin: float, atoms: float, eta: float) -> tuple[float, float]:
    """Invert S = (n1 - n2) / (2 eta) with n1 + n2 = detected atoms."""
    detected = round(atoms * eta)
    half = detected / 2.0
    n1 = int(round(half + eta * spin))
    n1 = min(max(n1, 0), detected)
    return float(n1), float(detected - n1)


def synthesize_dataset(model: str, n_atoms: int = 100, split_fraction: float = 0.5,
                       eta: float = 1.0, n_shots: int = 1000, seed=0,
                       xi2: float = 0.25) -> SpinShotDataset:
    """Gaussian collective-spin model datasets.

    ``css`` targets the separability boundary (ratio about 1); ``squeezed``
    reduces the z variance of the total spin by xi2 (and inflates y by 1/xi2)
    so the witness fires; ``constant`` emits the fixed zero-variance dataset
    whose bound is pure arithmetic (10/220 with defaults).
    """
    if model == "constant":
        shots = []
        for axis, (n1, n2) in (("x", (10.0, 0.0)), ("z", (5.0, 5.0)), ("y", (5.0, 5.0))):
            for _ in range(2):
                shots.append(ShotRecord(axis, n1, n2, n1, n2))
        return SpinShotDataset(tuple(shots), 1.0, 1.0, 10.0, 10.0,
                               "constant shots: Sx=5 per region, zero variances")
    if model not in ("css", "squeezed"):
        raise ValidationError(f"unknown model {model!r}")
    if not 0.0 < split_fraction < 1.0:
        raise ValidationError("split fraction must lie strictly between 0 and 1")
    if model == "css":
        xi_z = xi_y = 1.0
    else:
        if not 0.0 < xi2 <= 1.0:
            raise ValidationError("xi2 must lie in (0, 1]")
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
    counts = {"z": per_axis, "y": per_axis, "x": n_shots - 2 * per_axis}
    shots = []
    for axis, xi in (("z", xi_z), ("y", xi_y), ("x", None)):
        for _ in range(counts[axis]):
            if axis == "x":
                # polarization axis: fully stretched spins, no model noise
                s_a, s_b = n_a / 2.0, n_b / 2.0
            else:
                total = rng.normal(0.0, math.sqrt(xi * base_var))
                g = rng.normal(0.0, part_sd)
                s_a = f * total + g
                s_b = (1.0 - f) * total - g
            n1a, n2a = _counts_from_spin(s_a, n_a, eta)
            n1b, n2b = _counts_from_spin(s_b, n_b, eta)
            shots.append(ShotRecord(axis, n1a, n2a, n1b, n2b))
    return SpinShotDataset(tuple(shots), eta, eta,
                           n_a * eta, n_b * eta,
                           f"{model} model, N={n_atoms}, split={f}, xi2={xi2}, eta={eta}")


# ---------------------------------------------------------------------------
# CSV / JSON ingestion

CSV_HEADER = ["setting", "n1a", "n2a", "n1b", "n2b"]


def dataset_to_csv(data: SpinShotDataset) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(CSV_HEADER)
    for rec in data.shots:
        writer.writerow([rec.setting, rec.n1a, rec.n2a, rec.n1b, rec.n2b])
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
    try:
        meta = json.loads(meta_json)
        eta_a = float(meta["eta_a"])
        eta_b = float(meta["eta_b"])
        n1_a = float(meta["n1_a_mean"])
        n1_b = float(meta["n1_b_mean"])
    except (KeyError, TypeError, ValueError) as exc:
        raise ValidationError(f"malformed metadata JSON: {exc}") from exc
    reader = csv.reader(io.StringIO(csv_text))
    header = next(reader, None)
    if header is None or [h.strip() for h in header] != CSV_HEADER:
        raise ValidationError(f"CSV header must be {','.join(CSV_HEADER)}")
    shots = []
    for row in reader:
        if not row:
            continue
        if len(row) != 5:
            raise ValidationError(f"bad CSV row: {row}")
        shots.append(ShotRecord(row[0].strip(), float(row[1]), float(row[2]),
                                float(row[3]), float(row[4])))
    if not shots:
        raise ValidationError("no shots in CSV")
    return SpinShotDataset(tuple(shots), eta_a, eta_b, n1_a, n1_b,
                           str(meta.get("description", "")))
