import math

import numpy as np
import pytest

from macrodml.errors import (
    BadKind,
    ConfigError,
    ExplosiveCoefficients,
    TooFewReps,
)
from macrodml.panel_data import load_fund_meta_csv, load_tscs_csv, write_tscs_csv
from macrodml.preprocess import adf_test, difference_matrix
from macrodml.synth import (
    SynthSpec,
    companion_spectral_radius,
    df_critical_values,
    gen_pipeline_fixture,
    gen_plr,
    gen_unit_root,
    gen_var,
)

VAR2_COEFFS = [
    np.array([[0.5, 0.1], [0.0, 0.4]]),
    np.array([[0.3, 0.0], [0.1, 0.25]]),
]


# ---------------------------------------------------------------------------
# spec validation
# ---------------------------------------------------------------------------

def test_spec_validation():
    with pytest.raises(BadKind):
        SynthSpec(kind="lorenz").validate()
    with pytest.raises(ConfigError):
        SynthSpec(n=0).validate()
    with pytest.raises(ConfigError):
        SynthSpec(noise_sd=0.0).validate()
    with pytest.raises(ConfigError):
        SynthSpec(kind="plr_nonlinear", k_controls=2).validate()
    SynthSpec(kind="plr_nonlinear", k_controls=3).validate()


def test_generators_reject_wrong_kind():
    with pytest.raises(BadKind):
        gen_plr(SynthSpec(kind="random_walk"))
    with pytest.raises(BadKind):
        gen_unit_root("plr_linear", 100, 0)


# ---------------------------------------------------------------------------
# PLR generators
# ---------------------------------------------------------------------------

def test_gen_plr_bit_identical():
    spec = SynthSpec(kind="plr_nonlinear", n=200, seed=42)
    a, _ = gen_plr(spec)
    b, _ = gen_plr(spec)
    assert np.array_equal(a.y, b.y)
    assert np.array_equal(a.d, b.d)
    assert np.array_equal(a.x, b.x)


def test_gen_plr_truth_weights():
    _, truth = gen_plr(SynthSpec(kind="plr_linear", n=50, k_controls=4, seed=0))
    assert np.linalg.norm(truth["a"]) == pytest.approx(1.0, abs=1e-12)
    assert np.linalg.norm(truth["b"]) == pytest.approx(1.0, abs=1e-12)
    assert truth["r2_d_pop"] == 0.5  # noise_sd = 1
    _, truth2 = gen_plr(SynthSpec(kind="plr_linear", n=50, noise_sd=0.5, seed=0))
    assert truth2["r2_d_pop"] == 1.0 / 1.25
    _, truth3 = gen_plr(SynthSpec(kind="plr_nonlinear", n=50, seed=0))
    assert truth3["r2_d_pop"] is None


def test_gen_plr_linear_relation_holds_exactly():
    spec = SynthSpec(kind="plr_linear", theta_true=-2.0, n=300, seed=7)
    problem, truth = gen_plr(spec)
    # recover u = y - theta d - X b and check it is centered noise
    u = problem.y - spec.theta_true * problem.d - problem.x @ truth["b"]
    assert abs(u.mean()) <= 3.0 / math.sqrt(300)
    assert u.std() == pytest.approx(1.0, abs=0.15)


# ---------------------------------------------------------------------------
# unit-root benchmark series
# ---------------------------------------------------------------------------

def test_random_walk_starts_at_zero_and_diffs_to_innovations():
    n = 400
    walk = gen_unit_root("random_walk", n, 21)
    noise = np.random.default_rng(21).standard_normal(n)
    assert walk[0] == 0.0
    # the walk's steps are the seed's leading normals, so the diffs must match
    assert np.allclose(np.diff(walk), noise[: n - 1], atol=1e-12)
    assert np.diff(walk)[0] == noise[0]  # the first step is exact


def test_ar1_is_half_its_last_value_plus_the_shock():
    eps = np.random.default_rng(3).standard_normal(50)
    y = gen_unit_root("ar1", 50, 3)
    assert y[0] == eps[0]
    assert np.array_equal(y[1:], 0.5 * y[:-1] + eps[1:])


# ---------------------------------------------------------------------------
# VAR generator
# ---------------------------------------------------------------------------

def test_companion_radius_hand_values():
    assert companion_spectral_radius([np.array([[0.5]])]) == pytest.approx(0.5)
    r = companion_spectral_radius([np.array([[0.5]]), np.array([[0.3]])])
    assert r == pytest.approx((0.5 + math.sqrt(0.25 + 1.2)) / 2.0, abs=1e-12)


def test_gen_var_shape_and_determinism():
    mat = gen_var(VAR2_COEFFS, 150, 5)
    assert (mat.n_months, len(mat.columns)) == (150, 2)
    assert mat.columns == ["v1", "v2"]
    assert mat.time_index[0] == "2000-01"
    again = gen_var(VAR2_COEFFS, 150, 5)
    assert np.array_equal(mat.values, again.values)


def test_gen_var_zero_coeffs_is_white_noise():
    mat = gen_var([np.zeros((2, 2))], 800, 6)
    for j in range(2):
        col = mat.values[:, j]
        rho1 = np.corrcoef(col[:-1], col[1:])[0, 1]
        assert abs(rho1) <= 3.0 / math.sqrt(800)


def test_gen_var_stationary_mean_near_zero():
    # per-series means are autocorrelated inside, but across independent
    # seeds they are iid, so a plain CLT bound on their average is valid
    reps = 100
    means = np.array([
        gen_var(VAR2_COEFFS, 300, 7_000 + i).values.mean(axis=0)
        for i in range(reps)
    ])
    for j in range(2):
        se = means[:, j].std(ddof=1) / math.sqrt(reps)
        assert abs(means[:, j].mean()) <= 3.0 * se


def test_gen_var_rejects_explosive_and_missing_coeffs():
    with pytest.raises(ExplosiveCoefficients):
        gen_var([np.array([[1.01, 0.0], [0.0, 0.5]])], 50, 0)
    with pytest.raises(ConfigError):
        gen_var([], 50, 0)
    with pytest.raises(ConfigError):
        gen_var([np.ones((2, 3))], 50, 0)


def test_gen_var_round_trips_through_csv(tmp_path):
    mat = gen_var(VAR2_COEFFS, 40, 8)
    path = tmp_path / "var.csv"
    write_tscs_csv(mat, path)
    back = load_tscs_csv(path)
    assert back.columns == mat.columns
    assert np.array_equal(back.values, mat.values)


# ---------------------------------------------------------------------------
# Dickey-Fuller critical values
# ---------------------------------------------------------------------------

def test_df_quantiles_ordered():
    crit = df_critical_values(50, reps=10_000, seed=0)
    assert crit["1%"] < crit["5%"] < crit["10%"] < 0.0


def test_df_guards():
    with pytest.raises(TooFewReps):
        df_critical_values(100, reps=9_999)
    with pytest.raises(ConfigError):
        df_critical_values(10, reps=10_000)


def test_df_pure_function():
    a = df_critical_values(50, reps=10_000, seed=3)
    b = df_critical_values(50, reps=10_000, seed=3)
    assert a == b


@pytest.mark.slow
def test_df_split_half_stability():
    a = df_critical_values(100, reps=40_000, seed=0)
    b = df_critical_values(100, reps=40_000, seed=10_000_000)
    assert abs(a["5%"] - b["5%"]) < 0.05


# ---------------------------------------------------------------------------
# pipeline fixture
# ---------------------------------------------------------------------------

def test_fixture_files_and_truth(tmp_path):
    out = gen_pipeline_fixture(tmp_path / "fx", seed=1, n_funds=3, n_months=80)
    macro = load_tscs_csv(out["macro_csv"])
    funds = load_tscs_csv(out["funds_csv"])
    catalog = load_fund_meta_csv(out["meta_csv"])
    assert macro.columns == ["policy_rate", "ctrl1", "ctrl2", "ctrl3", "junk_rw"]
    assert funds.columns == ["F001", "F002", "F003"]
    assert len(catalog) == 5  # 3 funds + 2 tiny ones for the AUM filter
    assert sum(m.aum_musd < 20 for m in catalog) == 2
    # differencing the stored levels recovers the generated growth series
    growth = difference_matrix(macro)
    assert np.allclose(growth.column("policy_rate"), out["d_growth"][1:], atol=1e-9)


def test_fixture_junk_column_survives_differencing_as_unit_root(tmp_path):
    out = gen_pipeline_fixture(tmp_path / "fx", seed=2)
    growth = difference_matrix(load_tscs_csv(out["macro_csv"]))
    assert not adf_test(growth.column("junk_rw")).stationary
    assert adf_test(growth.column("policy_rate")).stationary


def test_fixture_deterministic(tmp_path):
    a = gen_pipeline_fixture(tmp_path / "a", seed=3, n_funds=3, n_months=60)
    b = gen_pipeline_fixture(tmp_path / "b", seed=3, n_funds=3, n_months=60)
    for key in ("macro_csv", "funds_csv", "meta_csv"):
        with open(a[key], "rb") as fa, open(b[key], "rb") as fb:
            assert fa.read() == fb.read()
