import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import bosonpe.fock
import bosonpe.witness
from bosonpe.fock import DeskScaleError, ValidationError
from bosonpe.witness import (
    AXES,
    CSV_HEADER,
    AxisMoments,
    ShotRecord,
    SpinMoments,
    SpinShotDataset,
    WitnessParams,
    _spins_by_axis,
    dataset_from_csv,
    dataset_metadata_json,
    dataset_to_csv,
    estimate_moments,
    optimize_witness_params,
    pe_lower_bound,
    separability_ratio,
    separability_ratio_from_moments,
    synthesize_dataset,
    witness_normalization,
)
from helpers import bootstrap_se_oracle, dataset_to_csv_oracle, synthesize_shots_oracle


def make_dataset(rows, eta_a=1.0, eta_b=1.0, n1a=10.0, n1b=10.0):
    return SpinShotDataset(tuple(ShotRecord(*r) for r in rows), eta_a, eta_b, n1a, n1b)


def test_moments_constant_shots():
    data = make_dataset([("z", 10, 0, 10, 0)] * 3 + [("y", 5, 5, 5, 5)] * 2
                        + [("x", 5, 5, 5, 5)] * 2)
    m = estimate_moments(data)
    assert m.axis("z").mean_a == pytest.approx(5.0)
    assert m.axis("z").var_a == pytest.approx(0.0)


def test_moments_two_shot_variance():
    data = make_dataset([("z", 2, 0, 1, 1), ("z", 0, 2, 1, 1),
                         ("y", 1, 1, 1, 1), ("y", 1, 1, 1, 1),
                         ("x", 1, 1, 1, 1), ("x", 1, 1, 1, 1)])
    m = estimate_moments(data)
    # spins +1 and -1: mean 0, unbiased variance 2
    assert m.axis("z").mean_a == pytest.approx(0.0)
    assert m.axis("z").var_a == pytest.approx(2.0)


def test_moments_eta_scaling():
    rows = [("z", 6, 2, 3, 3), ("z", 2, 6, 3, 3),
            ("y", 3, 3, 3, 3), ("y", 3, 3, 3, 3),
            ("x", 6, 2, 6, 2), ("x", 6, 2, 6, 2)]
    full = estimate_moments(make_dataset(rows, eta_a=1.0, eta_b=1.0))
    half = estimate_moments(make_dataset(rows, eta_a=0.5, eta_b=0.5))
    assert half.axis("x").mean_a == pytest.approx(2 * full.axis("x").mean_a)
    assert half.axis("z").var_a == pytest.approx(4 * full.axis("z").var_a)


def test_moments_missing_axis_rejected():
    data = make_dataset([("z", 1, 1, 1, 1), ("z", 1, 1, 1, 1)])
    with pytest.raises(ValidationError):
        estimate_moments(data)


def test_moments_single_shot_variance_rejected():
    data = make_dataset([("z", 1, 1, 1, 1), ("y", 1, 1, 1, 1),
                         ("y", 1, 1, 1, 1), ("x", 1, 1, 1, 1)])
    with pytest.raises(ValidationError):
        estimate_moments(data)


def test_separability_ratio_zero_variance():
    data = synthesize_dataset("constant")
    assert separability_ratio(data, WitnessParams(1.0, 1.0)) == 0.0


def test_separability_ratio_zero_denominator():
    data = make_dataset([("z", 2, 0, 1, 1), ("z", 0, 2, 1, 1),
                         ("y", 2, 0, 1, 1), ("y", 0, 2, 1, 1),
                         ("x", 1, 1, 1, 1), ("x", 1, 1, 1, 1)])
    assert separability_ratio(data, WitnessParams(1.0, 1.0)) == math.inf


def test_separability_ratio_vanishing_small_denominator():
    # <Sx_B> = 0 and a tiny gain: the squared denominator is subnormal and
    # the ratio leaves the float range, as for a zero denominator
    y = z = AxisMoments(0.0, 0.0, 1.0, 1.0, -0.5, 100)
    m = SpinMoments({"x": AxisMoments(-1.0, 0.0, 0.0, 0.0, 0.0, 100), "y": y, "z": z})
    assert separability_ratio_from_moments(m, WitnessParams(1.0, 1.2855440584794122e-156)) \
        == math.inf


def test_normalization_example():
    n = witness_normalization(WitnessParams(1.0, 1.0), 10.0, 10.0, 1.0, 1.0)
    assert n == pytest.approx(220.0)


def test_zero_variance_bound_arithmetic():
    data = synthesize_dataset("constant")
    res = pe_lower_bound(data, WitnessParams(1.0, 1.0), n_bootstrap=0)
    assert res.normalization == pytest.approx(220.0, abs=1e-12)
    assert res.bound == pytest.approx(10.0 / 220.0, abs=1e-12)
    assert res.witness_expectation == pytest.approx(-10.0, abs=1e-12)


def test_bound_invariant_under_shot_permutation():
    data = synthesize_dataset("squeezed", n_atoms=60, n_shots=300, seed=5)
    params = WitnessParams(0.8, -0.8)
    base = pe_lower_bound(data, params, n_bootstrap=0).bound
    rng = np.random.default_rng(0)
    shuffled = list(data.shots)
    rng.shuffle(shuffled)
    permuted = SpinShotDataset(tuple(shuffled), data.eta_a, data.eta_b,
                               data.n1_a_mean, data.n1_b_mean)
    assert pe_lower_bound(permuted, params, n_bootstrap=0).bound == pytest.approx(base)


def test_counts_override_metadata():
    data = synthesize_dataset("constant")
    res = pe_lower_bound(data, WitnessParams(1.0, 1.0),
                         counts={"N1_A": 20.0, "N1_B": 20.0}, n_bootstrap=0)
    assert res.normalization == pytest.approx(0.25 * 40**2 * 2 + 40)


@pytest.mark.parametrize("mean", [-5.0, -1, math.nan, math.inf, True, "20", None])
def test_mean_counts_validated_where_they_enter(mean):
    rows = [("z", 2, 0, 1, 1), ("z", 0, 2, 1, 1), ("y", 1, 1, 2, 0), ("y", 1, 1, 0, 2),
            ("x", 2, 0, 2, 0)]
    with pytest.raises(ValidationError, match="n1_a_mean"):
        make_dataset(rows, n1a=mean)
    with pytest.raises(ValidationError, match="n1_b_mean"):
        make_dataset(rows, n1b=mean)


# an integer past the float range would overflow float()
@pytest.mark.parametrize("text", ["-5", "-1e-300", "NaN", "Infinity", "1" + "0" * 400])
def test_metadata_mean_counts_validated(text):
    meta = f'{{"eta_a": 1, "eta_b": 1, "n1_a_mean": {text}, "n1_b_mean": 10}}'
    with pytest.raises(ValidationError, match="n1_a_mean"):
        dataset_from_csv(dataset_to_csv(synthesize_dataset("constant")), meta)


@pytest.mark.parametrize("counts", [
    {"N1_A": 20.0}, {"N1_B": 20.0}, {}, {"N1_A": "20", "N1_B": 20.0},
    {"N1_A": 20.0, "N1_B": -5.0}, {"N1_A": math.nan, "N1_B": 20.0},
    {"N1_A": 20.0, "N1_B": math.inf}, {"N1_A": False, "N1_B": 20.0}, [20.0, 20.0]])
def test_counts_override_validated(counts):
    data = synthesize_dataset("constant")
    with pytest.raises(ValidationError, match="counts"):
        pe_lower_bound(data, WitnessParams(1.0, 1.0), counts=counts, n_bootstrap=0)


def test_optimizer_symmetric_data():
    data = synthesize_dataset("squeezed", n_atoms=100, n_shots=4000, seed=11)
    params = optimize_witness_params(data)
    ratio = separability_ratio(data, params)
    assert ratio < 1.0
    assert abs(abs(params.g_z) - abs(params.g_y)) < 0.25
    # optimization beats the unit choice
    assert ratio <= separability_ratio(data, WitnessParams(1.0, 1.0)) + 1e-12


@pytest.mark.parametrize("model, seed, ratio", [
    ("squeezed", 1, 0.24678952213903574),
    ("squeezed", 2, 0.26008668709748567),
    ("squeezed", 3, 0.25619988148083456),
    ("squeezed", 7, 0.24221784302928012),
    ("css", 1, 0.950583629835986),
    ("css", 2, 0.9996845434922021),
    ("css", 3, 0.9790692023513761),
    ("css", 7, 0.9441903590800592),
])
def test_optimizer_matches_nelder_mead_ratio(model, seed, ratio):
    # ratios a grid plus Nelder-Mead search reached on these datasets
    data = synthesize_dataset(model, n_atoms=100, n_shots=10000, seed=seed, xi2=0.25)
    assert separability_ratio(data, optimize_witness_params(data)) == \
        pytest.approx(ratio, rel=0, abs=1e-12)


def test_optimizer_asymmetric_split():
    data = synthesize_dataset("squeezed", n_atoms=120, split_fraction=2 / 3,
                              n_shots=4000, seed=13)
    params = optimize_witness_params(data)
    assert separability_ratio(data, params) < separability_ratio(
        data, WitnessParams(1.0, 1.0))


def test_optimizer_degenerate_sx():
    data = make_dataset([("z", 2, 0, 1, 1), ("z", 0, 2, 1, 1),
                         ("y", 2, 0, 1, 1), ("y", 0, 2, 1, 1),
                         ("x", 1, 1, 1, 1), ("x", 1, 1, 1, 1)])
    params = optimize_witness_params(data)
    assert separability_ratio(data, params) == math.inf


def test_synthetic_models_statistics():
    squeezed = synthesize_dataset("squeezed", n_atoms=100, n_shots=6000,
                                  seed=42, xi2=0.25)
    params = optimize_witness_params(squeezed)
    res = pe_lower_bound(squeezed, params, n_bootstrap=300, seed=1)
    assert res.bound > 5 * res.bootstrap_se

    css = synthesize_dataset("css", n_atoms=100, n_shots=6000, seed=42)
    params_css = optimize_witness_params(css)
    res_css = pe_lower_bound(css, params_css, n_bootstrap=300, seed=1)
    assert res_css.bound <= 3 * res_css.bootstrap_se


def test_synthesize_keeps_every_shot():
    def shots(n):
        return synthesize_dataset("squeezed", n_atoms=100, n_shots=n, seed=7, xi2=0.25).shots

    full, even = shots(10000), shots(9999)
    assert len(full) == 10000
    assert sum(1 for s in full if s.setting == "x") == 3334
    # the remainder goes to x, which draws no random numbers, so the z and y
    # shots equal those of the 9999-shot dataset, which splits evenly
    assert [s for s in full if s.setting != "x"] == [s for s in even if s.setting != "x"]
    for axis, sums in (("z", (82962.0, 83721.0)), ("y", (83187.0, 82958.0))):
        on_axis = [s for s in full if s.setting == axis]
        assert (sum(s.n1a for s in on_axis), sum(s.n1b for s in on_axis)) == sums


SYNTH_CASES = [
    # model, n_atoms, n_shots (every residue mod 3), seed, eta, split fraction;
    # with 8 or 12 atoms many counts clip at 0 or at the detected total
    ("squeezed", 100, 300, 1, 1.0, 0.5),
    ("squeezed", 100, 301, 2, 0.7, 2 / 3),
    ("squeezed", 100, 3002, 3, 0.45, 0.5),
    ("squeezed", 8, 601, 8, 0.6, 0.25),
    ("css", 100, 299, 4, 1.0, 2 / 3),
    ("css", 100, 3001, 5, 0.8, 0.5),
    ("css", 12, 300, 6, 0.35, 0.25),
]


@pytest.mark.parametrize("model, n_atoms, n_shots, seed, eta, split", SYNTH_CASES)
def test_synthesize_matches_per_shot_loop(model, n_atoms, n_shots, seed, eta, split):
    data = synthesize_dataset(model, n_atoms=n_atoms, split_fraction=split, eta=eta,
                              n_shots=n_shots, seed=seed, xi2=0.25)
    oracle = synthesize_shots_oracle(model, n_atoms=n_atoms, split_fraction=split, eta=eta,
                                     n_shots=n_shots, seed=seed, xi2=0.25)
    assert data.shots == oracle
    # the same text too: Python floats, and no negative zeros
    assert dataset_to_csv(data) == dataset_to_csv(
        SpinShotDataset(oracle, data.eta_a, data.eta_b, data.n1_a_mean, data.n1_b_mean))
    assert dataset_to_csv(data) == dataset_to_csv_oracle(oracle)
    assert_csv_round_trip_is_exact(data)


def assert_csv_round_trip_is_exact(data):
    back = dataset_from_csv(dataset_to_csv(data), dataset_metadata_json(data))
    assert back.axis_codes.tobytes() == data.axis_codes.tobytes()
    assert back.counts.tobytes() == data.counts.tobytes()
    spins, back_spins = _spins_by_axis(data), _spins_by_axis(back)
    for axis in AXES:
        for s, t in zip(spins[axis], back_spins[axis]):
            assert s.tobytes() == t.tobytes()


# nonnegative finite counts, with a negative zero, integers and huge values
COUNTS = st.one_of(st.just(-0.0), st.integers(0, 10**6).map(float),
                   st.floats(0.0, 1e300, allow_nan=False))
RECORDS = st.lists(st.builds(ShotRecord, st.sampled_from(AXES), COUNTS, COUNTS, COUNTS, COUNTS),
                   max_size=20)


@settings(max_examples=60, deadline=None)
@given(RECORDS, st.sampled_from([1.0, 0.35]))
def test_records_round_trip_through_columns(records, eta):
    data = SpinShotDataset(records, eta, 1.0, 10.0, 10.0)
    assert len(data) == len(records)
    assert data.shots == tuple(records)
    assert all(type(v) is float for rec in data.shots for v in (rec.n1a, rec.n2a, rec.n1b, rec.n2b))
    assert dataset_to_csv(data) == dataset_to_csv_oracle(records)
    if records:
        assert_csv_round_trip_is_exact(data)


@pytest.mark.parametrize("model, n_atoms, n_shots, seed, eta, split", SYNTH_CASES)
@pytest.mark.parametrize("gains", [(0.8, -0.8), (-1.3, -0.4), (-0.6, 1.7)])
@pytest.mark.parametrize("n_bootstrap, boot_seed", [(2, 0), (3, 11), (200, 12)])
def test_bootstrap_se_matches_per_resample_loop(model, n_atoms, n_shots, seed, eta, split,
                                                gains, n_bootstrap, boot_seed):
    data = synthesize_dataset(model, n_atoms=n_atoms, split_fraction=split, eta=eta,
                              n_shots=n_shots, seed=seed, xi2=0.25)
    params = WitnessParams(*gains)
    res = pe_lower_bound(data, params, n_bootstrap=n_bootstrap, seed=boot_seed)
    want = bootstrap_se_oracle(data, params, res.normalization, n_bootstrap, boot_seed)
    assert res.bootstrap_se == pytest.approx(want, rel=1e-12, abs=0)


def test_bootstrap_se_matches_per_resample_loop_at_optimum():
    data = synthesize_dataset("squeezed", n_atoms=100, n_shots=10000, seed=7, xi2=0.25)
    params = optimize_witness_params(data)
    res = pe_lower_bound(data, params, n_bootstrap=200, seed=301)
    want = bootstrap_se_oracle(data, params, res.normalization, 200, 301)
    assert res.bootstrap_se == pytest.approx(want, rel=1e-12, abs=0)


def test_bootstrap_memory_does_not_grow_with_resamples():
    data = synthesize_dataset("squeezed", n_atoms=100, n_shots=10000, seed=7, xi2=0.25)
    params = optimize_witness_params(data)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        pe_lower_bound(data, params, n_bootstrap=1000, seed=1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak - before < 2**20


@pytest.mark.parametrize("n_bootstrap", [1, -1, -5])
def test_bootstrap_count_validated(n_bootstrap):
    data = synthesize_dataset("squeezed", n_atoms=60, n_shots=300, seed=5)
    with pytest.raises(ValidationError):
        pe_lower_bound(data, WitnessParams(1.0, 1.0), n_bootstrap=n_bootstrap)
    assert pe_lower_bound(data, WitnessParams(1.0, 1.0), n_bootstrap=0).bootstrap_se is None
    assert pe_lower_bound(data, WitnessParams(1.0, 1.0), n_bootstrap=2).bootstrap_se > 0.0


@pytest.mark.parametrize("n_bootstrap", [10**6 + 1, 300_000_000, 10**10])
def test_bootstrap_count_gated_before_allocating(n_bootstrap):
    # refused before any resample is drawn or any array of n_bootstrap entries is made
    data = synthesize_dataset("squeezed", n_atoms=60, n_shots=300, seed=5)
    with pytest.raises(DeskScaleError, match="n_bootstrap"):
        pe_lower_bound(data, WitnessParams(1.0, 1.0), n_bootstrap=n_bootstrap)


@pytest.mark.parametrize("n_shots", [300, 301, 302])
def test_bootstrap_se_does_not_depend_on_the_block(monkeypatch, n_shots):
    # 1000 resamples are no multiple of the default block's 321 to 327 rows
    data = synthesize_dataset("squeezed", n_atoms=100, n_shots=n_shots, seed=5, xi2=0.25)
    params = optimize_witness_params(data)

    def se():
        return pe_lower_bound(data, params, n_bootstrap=1000, seed=3).bootstrap_se

    default = se()
    # one row per block on every axis: z and y hold n_shots // 3 shots, x the rest
    monkeypatch.setattr(bosonpe.witness, "_BOOTSTRAP_BLOCK", n_shots // 3)
    assert se() == default
    # one block per axis
    monkeypatch.setattr(bosonpe.witness, "_BOOTSTRAP_BLOCK", 1000 * n_shots)
    assert se() == default


@pytest.mark.parametrize("gains", [(1e100, 1e100), (1e200, 1e200), (1e-200, 1e200),
                                   (-1e155, 1e155)])
def test_overflowing_gains_rejected(gains):
    data = synthesize_dataset("squeezed", n_atoms=100, n_shots=300, seed=3)
    params = WitnessParams(*gains)
    with pytest.raises(ValidationError):
        separability_ratio_from_moments(estimate_moments(data), params)
    with pytest.raises(ValidationError):
        # what `bosonpe witness bound` runs: the bound, then the ratio
        pe_lower_bound(data, params, n_bootstrap=0)
        separability_ratio(data, params)


def test_overflowing_bootstrap_rejected():
    # the bound is finite at these gains, but resampled variances overflow
    data = synthesize_dataset("squeezed", n_atoms=100, n_shots=10000, seed=7)
    params = WitnessParams(2e152, 1e-160)
    assert math.isfinite(pe_lower_bound(data, params, n_bootstrap=0).bound)
    with pytest.raises(ValidationError):
        pe_lower_bound(data, params, n_bootstrap=20)


def test_optimizer_skips_overflowing_candidates():
    # region-A spins of 1e-200 on z and 1e-67 on y put some candidate gains
    # so far out that their separability ratio overflows; the optimizer steps
    # over those candidates instead of raising
    rows = [("z", 9e-200, 0, 7, 3), ("z", 7e-200, 0, 3, 7), ("z", 9.5e-200, 0, 3, 7),
            ("y", 2e-67, 0, 6, 4), ("y", 1e-66, 0, 7, 3), ("y", 1.5e-67, 0, 3, 7),
            ("x", 1e-95, 0, 1e-71, 0), ("x", 1e-95, 0, 1e-71, 0)]
    data = make_dataset(rows)
    ratio = separability_ratio(data, optimize_witness_params(data))
    assert math.isfinite(ratio)
    assert ratio <= separability_ratio(data, WitnessParams(0.0, 0.0))


@pytest.mark.parametrize("bad", [{"n_shots": -1}, {"n_atoms": -5}, {"eta": math.nan},
                                 {"eta": math.inf}, {"n_shots": 0}, {"n_shots": 5},
                                 {"n_atoms": 2**53 + 1}])
def test_synthesize_rejects_bad_sizes_and_efficiency(bad):
    with pytest.raises(ValidationError):
        synthesize_dataset("css", **bad)


@pytest.mark.parametrize("bad", [{"n_shots": -1}, {"n_atoms": -5}, {"eta": math.nan},
                                 {"split_fraction": 1.0}, {"n_shots": 10**9},
                                 {"n_shots": 0}, {"n_shots": 5}])
def test_constant_model_checks_the_arguments_it_ignores(bad):
    error = DeskScaleError if bad == {"n_shots": 10**9} else ValidationError
    with pytest.raises(error):
        synthesize_dataset("constant", **bad)
    assert len(synthesize_dataset("constant", n_shots=10**6, n_atoms=0)) == 6


def test_synthesize_at_the_atom_cap():
    # 2**53 atoms: each region's detected total, 2**52, is still an exact count
    counts = synthesize_dataset("css", n_atoms=2**53, n_shots=6).counts
    assert np.all(counts[:, 0] + counts[:, 1] == 2**52)
    assert np.all(counts[:, 2] + counts[:, 3] == 2**52)


def test_synthesize_refuses_shots_above_cap_before_drawing():
    tracemalloc.start()
    try:
        with pytest.raises(DeskScaleError):
            synthesize_dataset("squeezed", n_shots=10**9)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20
    with pytest.raises(DeskScaleError):
        synthesize_dataset("css", n_shots=10**6 + 1)


def test_csv_shot_cap_fires_as_rows_pass_it(monkeypatch):
    data = synthesize_dataset("squeezed", n_atoms=40, n_shots=6, seed=2)
    text, meta = dataset_to_csv(data), dataset_metadata_json(data)
    for module in (bosonpe.fock, bosonpe.witness):
        monkeypatch.setattr(module, "_MAX_DENSE_SUPPORT", 6)
    assert len(dataset_from_csv(text, meta).shots) == 6
    for module in (bosonpe.fock, bosonpe.witness):
        monkeypatch.setattr(module, "_MAX_DENSE_SUPPORT", 5)
    # the sixth row trips the cap before the malformed seventh is read
    with pytest.raises(DeskScaleError):
        dataset_from_csv(text + "z,1,2\n", meta)


def test_csv_shot_cap_is_one_million_rows():
    # the real cap: the row past 1e6 is refused (about 1.5 s of CSV parsing)
    text = ",".join(CSV_HEADER) + "\n" + "z,0,0,0,0\n" * (10**6 + 1)
    with pytest.raises(DeskScaleError):
        dataset_from_csv(text, META_JSON)


META_JSON = '{"eta_a": 1, "eta_b": 1, "n1_a_mean": 10, "n1_b_mean": 10}'
GOOD_ROWS = [("x", 10.0, 0.0, 10.0, 0.0)] * 2 + [("y", 5.0, 5.0, 5.0, 5.0)] * 2 \
    + [("z", 6.0, 4.0, 4.0, 6.0), ("z", 4.0, 6.0, 6.0, 4.0)]


@pytest.mark.parametrize("row", [("w", 1.0, 1.0, 1.0, 1.0), ("z", 1.0, math.nan, 1.0, 1.0),
                                 ("z", 1.0, 1.0, math.inf, 1.0), ("z", 1.0, 1.0, 1.0, -1.0),
                                 ("z", 1.0, 1.0, 1.0), None],
                         ids=["setting", "nan", "inf", "negative", "four_columns", "empty"])
def test_bad_shots_rejected_from_records_and_csv(row):
    def csv_text(rows):
        return ",".join(CSV_HEADER) + "\n" + "".join(",".join(map(str, r)) + "\n" for r in rows)

    # the good rows alone pass both paths
    estimate_moments(SpinShotDataset([ShotRecord(*r) for r in GOOD_ROWS], 1.0, 1.0, 10.0, 10.0))
    estimate_moments(dataset_from_csv(csv_text(GOOD_ROWS), META_JSON))
    rows = [] if row is None else GOOD_ROWS + [row]
    with pytest.raises(ValidationError):
        # a row of the wrong length reaches the constructor as it is
        records = [ShotRecord(*r) if len(r) == 5 else r for r in rows]
        estimate_moments(SpinShotDataset(records, 1.0, 1.0, 10.0, 10.0))
    with pytest.raises(ValidationError):
        estimate_moments(dataset_from_csv(csv_text(rows), META_JSON))


def test_axis_spins_rejects_unknown_axis():
    data = synthesize_dataset("constant")
    assert data.axis_spins("z")[0].tolist() == [0.0, 0.0]
    with pytest.raises(ValidationError):
        data.axis_spins("w")


def test_population_linearization_consistency():
    # whenever the ratio is below 1 on (near-)population moments, the bound
    # numerator is positive
    data = synthesize_dataset("squeezed", n_atoms=100, n_shots=20000,
                              seed=3, xi2=0.25)
    params = optimize_witness_params(data)
    assert separability_ratio(data, params) < 1.0
    res = pe_lower_bound(data, params, n_bootstrap=0)
    assert res.witness_expectation < 0  # numerator -witness > 0
    assert res.bound > 0


def test_bootstrap_error_scaling():
    ses = []
    for n_shots in (1000, 4000, 16000):
        data = synthesize_dataset("squeezed", n_atoms=80, n_shots=n_shots, seed=9)
        res = pe_lower_bound(data, WitnessParams(0.9, -0.9),
                             n_bootstrap=200, seed=2)
        ses.append(res.bootstrap_se)
    for a, b in zip(ses, ses[1:]):
        # quadrupling the shots should halve the error, within a factor 2
        assert b < a
        assert 1.0 < a / b < 4.0


def test_eta_enters_metadata_and_spins():
    data = synthesize_dataset("squeezed", n_atoms=100, n_shots=600, seed=21, eta=0.5)
    assert data.eta_a == 0.5
    assert data.n1_a_mean == pytest.approx(25.0)  # eta * f * N
    m = estimate_moments(data)
    assert m.axis("x").mean_a == pytest.approx(25.0, rel=0.1)


def test_csv_round_trip():
    data = synthesize_dataset("squeezed", n_atoms=40, n_shots=90, seed=2)
    text = dataset_to_csv(data)
    meta = dataset_metadata_json(data)
    back = dataset_from_csv(text, meta)
    assert back.eta_a == data.eta_a
    assert back.n1_b_mean == data.n1_b_mean
    assert len(back.shots) == len(data.shots)
    assert back.shots[0] == data.shots[0]
    base = pe_lower_bound(data, WitnessParams(1.0, 1.0), n_bootstrap=0).bound
    again = pe_lower_bound(back, WitnessParams(1.0, 1.0), n_bootstrap=0).bound
    assert again == pytest.approx(base, abs=1e-14)


def test_csv_rejects_bad_header():
    with pytest.raises(ValidationError):
        dataset_from_csv("a,b,c\n1,2,3\n", '{"eta_a":1,"eta_b":1,"n1_a_mean":1,"n1_b_mean":1}')


def test_shot_record_validation():
    with pytest.raises(ValidationError):
        ShotRecord("w", 1, 1, 1, 1)
    with pytest.raises(ValidationError):
        ShotRecord("z", -1, 1, 1, 1)
    # a non-finite count would reach the optimizer's np.roots as nan or inf
    for bad in (math.nan, math.inf):
        with pytest.raises(ValidationError):
            ShotRecord("z", 1, 1, bad, 1)


@pytest.mark.parametrize("bad", [True, "1", None, 1j, -1.0])
@pytest.mark.parametrize("position", range(4))
def test_shot_record_counts_go_through_the_real_checker(position, bad):
    counts = [1.0, 1.0, 1.0, 1.0]
    counts[position] = bad
    with pytest.raises(ValidationError):
        ShotRecord("x", *counts)


def test_shot_record_stores_its_counts_as_floats():
    record = ShotRecord("x", 1, np.int64(2), np.float64(3.5), 4.0)
    assert (record.n1a, record.n2a, record.n1b, record.n2b) == (1.0, 2.0, 3.5, 4.0)
    assert all(type(v) is float for v in (record.n1a, record.n2a, record.n1b, record.n2b))


def test_bound_below_measure_upper_bound_matched_model():
    # Population-level consistency of the activation inequality: evaluate the
    # witness bound directly on the activated two-particle state via
    # second-quantized spin operators and compare with the candidate-set
    # upper bound on the input's distance measure.
    from scipy.linalg import expm
    from bosonpe.fock import BlockDiagonalState
    from bosonpe.activation import ActivationSpec, activate
    from bosonpe.measures import PAULI, distance_to_candidate_set, second_quantized
    from bosonpe.optics import ModeUnitary, apply_mode_unitary
    from bosonpe.states import (CoherentSpinSpec, coherent_spin_state,
                                random_particle_separable)

    def spin_f(axis, region):
        f = np.zeros((4, 4), dtype=complex)
        i0 = 2 * region
        if axis == "z":
            f[i0, i0], f[i0 + 1, i0 + 1] = 0.5, -0.5
        elif axis == "x":
            f[i0, i0 + 1] = f[i0 + 1, i0] = 0.5
        else:
            f[i0, i0 + 1] = -0.5j
            f[i0 + 1, i0] = 0.5j
        return f

    def population_best_bound(state):
        out = activate(ActivationSpec(state)).output
        mom = {}
        for axis in "zyx":
            fa, fb = spin_f(axis, 0), spin_f(axis, 1)
            ma = mb = qa = qb = ab = 0.0
            for n, (p, mat) in out.blocks.items():
                oa = second_quantized(fa, 4, n)
                ob = second_quantized(fb, 4, n)
                ma += p * np.trace(mat @ oa).real
                mb += p * np.trace(mat @ ob).real
                qa += p * np.trace(mat @ oa @ oa).real
                qb += p * np.trace(mat @ ob @ ob).real
                ab += p * np.trace(mat @ oa @ ob).real
            mom[axis] = (ma, mb, qa - ma * ma, qb - mb * mb, ab - ma * mb)
        n1a = sum(p * np.trace(mat @ second_quantized(
            np.diag([1.0, 0, 0, 0]).astype(complex), 4, n)).real
            for n, (p, mat) in out.blocks.items())
        n1b = sum(p * np.trace(mat @ second_quantized(
            np.diag([0, 0, 1.0, 0]).astype(complex), 4, n)).real
            for n, (p, mat) in out.blocks.items())
        best = -math.inf
        for gz in np.linspace(-2, 2, 41):
            vz = gz * gz * mom["z"][2] + 2 * gz * mom["z"][4] + mom["z"][3]
            for gy in np.linspace(-2, 2, 41):
                vy = gy * gy * mom["y"][2] + 2 * gy * mom["y"][4] + mom["y"][3]
                num = -(vz + vy - (abs(gz * gy) * mom["x"][0] + mom["x"][1]))
                norm = witness_normalization(WitnessParams(gz, gy), n1a, n1b, 1.0, 1.0)
                best = max(best, num / norm)
        return best

    def population_min_ratio(state):
        out = activate(ActivationSpec(state)).output
        mom = {}
        for axis in "zyx":
            fa, fb = spin_f(axis, 0), spin_f(axis, 1)
            ma = mb = qa = qb = ab = 0.0
            for n, (p, mat) in out.blocks.items():
                oa = second_quantized(fa, 4, n)
                ob = second_quantized(fb, 4, n)
                ma += p * np.trace(mat @ oa).real
                mb += p * np.trace(mat @ ob).real
                qa += p * np.trace(mat @ oa @ oa).real
                qb += p * np.trace(mat @ ob @ ob).real
                ab += p * np.trace(mat @ oa @ ob).real
            mom[axis] = (ma, mb, qa - ma * ma, qb - mb * mb, ab - ma * mb)
        best = math.inf
        for gz in np.linspace(-2, 2, 41):
            vz = gz * gz * mom["z"][2] + 2 * gz * mom["z"][4] + mom["z"][3]
            for gy in np.linspace(-2, 2, 41):
                vy = gy * gy * mom["y"][2] + 2 * gy * mom["y"][4] + mom["y"][3]
                den = (abs(gz * gy) * abs(mom["x"][0]) + abs(mom["x"][1])) ** 2
                if den > 0:
                    best = min(best, 4.0 * vz * vy / den)
        return best

    css = coherent_spin_state(CoherentSpinSpec(np.array([1.0, 1.0]) / math.sqrt(2), 2))
    candidates = [random_particle_separable(2, 2, 3, s) for s in range(40)]

    # separable input: the ratio never drops below 1 and the bound is not
    # positive, at population level
    sep = css.to_block_state()
    assert population_min_ratio(sep) >= 1.0 - 1e-9
    assert population_best_bound(sep) <= 1e-10

    # twisted-and-rotated squeezed states: positive bound, below the measure
    saw_positive = False
    for mu in (0.3, 0.6):
        amps = css.amplitudes * np.exp(-1j * mu * np.array([1.0, 0.0, 1.0]))
        state = BlockDiagonalState(2, {2: (1.0, np.outer(amps, amps.conj()))})
        state = apply_mode_unitary(state, ModeUnitary(expm(-1j * (math.pi / 4) * PAULI["x"] / 2)))
        bound = population_best_bound(state)
        upper = distance_to_candidate_set(state, candidates)
        assert bound <= upper + 1e-9
        saw_positive = saw_positive or bound > 0.01
    assert saw_positive
