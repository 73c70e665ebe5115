import math
import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from macrodml.errors import (
    ConfigError,
    ConstantColumn,
    InsufficientData,
    NotSymmetric,
    RankDeficient,
    SingularCovariance,
    TooShort,
)
from macrodml.panel_data import TimeSeriesMatrix, to_panel
from macrodml.preprocess import (
    ADF_LEVELS,
    adf_critical_value,
    adf_test,
    correlation_matrix,
    difference_matrix,
    pca_corr,
    schwert_lag,
    screen_stationarity,
    select_lag_var_aic,
)
from macrodml.synth import gen_unit_root, gen_var

from conftest import make_tsm, panel_x


# ---------------------------------------------------------------------------
# differencing
# ---------------------------------------------------------------------------

def test_difference_matrix_shifts_index_and_propagates_nan():
    values = np.array([[1.0, 2.0], [3.0, np.nan], [6.0, 5.0]])
    mat = make_tsm(values, start="2000-01", names=["a", "b"])
    diff = difference_matrix(mat)
    assert diff.time_index == ["2000-02", "2000-03"]
    assert np.array_equal(diff.column("a"), [2.0, 3.0])
    assert np.isnan(diff.column("b")).all()


@given(st.lists(st.floats(-1e6, 1e6), min_size=2, max_size=40))
def test_difference_undoes_cumsum(xs):
    y = np.cumsum(np.asarray(xs))
    assert np.allclose(np.diff(y), xs[1:], atol=1e-6)


# ---------------------------------------------------------------------------
# ADF test
# ---------------------------------------------------------------------------

def test_schwert_lag_values():
    assert schwert_lag(100) == 12
    assert schwert_lag(50) == 10
    assert schwert_lag(500) == 17


def test_adf_affine_invariance(rng):
    y = np.random.default_rng(3).standard_normal(200)
    base = adf_test(y)
    scaled = adf_test(2.5 * y + 7.0)
    assert abs(base.statistic - scaled.statistic) < 1e-9
    assert base.verdict == scaled.verdict
    assert base.lag_order == scaled.lag_order


def test_adf_constant_series_is_singular():
    """A degenerate test regression ends in a typed error, never a statistic
    made of rounding or a division by zero."""
    # the lagged differences are all zero (a constant series), multiples of
    # one another (a noise-free AR(1)) or all the constant (a linear trend):
    # ols_fit's design is rank deficient
    for y in (np.ones(100), 0.9 ** np.arange(100.0), np.arange(100.0)):
        with pytest.raises(RankDeficient, match="design matrix"):
            adf_test(y)
    # a sawtooth of period k + 1 = 13: the constant and 12 lagged differences
    # span every 13-periodic series, the lagged level included
    with pytest.raises(RankDeficient, match="lagged level"):
        adf_test(np.tile(np.arange(13.0), 10)[:120])
    # six sinusoids obey a 12-term linear recurrence, so at k = 12 the 12
    # lagged differences span every such series, the lagged level included;
    # QR rounding leaves its residual near 1e-22 of its sum of squares
    rng = np.random.default_rng(0)
    freqs, phases = rng.uniform(0.2, 2.9, 6), rng.uniform(0.0, 2 * np.pi, 6)
    waves = np.sin(np.outer(np.arange(120.0), freqs) + phases).sum(axis=1)
    with pytest.raises(RankDeficient, match="lagged level is collinear"):
        adf_test(waves)
    # with a trend the level leaves that span, but the difference, a
    # constant plus the waves' differences, stays in it: the regression
    # fits exactly
    with pytest.raises(SingularCovariance, match="exactly"):
        adf_test(waves + 0.05 * np.arange(120.0))


def test_adf_white_noise_rejects_unit_root():
    y = np.random.default_rng(0).standard_normal(500)
    report = adf_test(y)
    assert report.stationary
    assert report.statistic < report.critical_value == adf_critical_value(500, "5%")


def test_adf_random_walk_keeps_unit_root():
    y = gen_unit_root("random_walk", 500, 0)
    report = adf_test(y)
    assert not report.stationary


def test_adf_auto_lag_is_schwert_capped():
    y = np.random.default_rng(1).standard_normal(500)
    assert adf_test(y).lag_order == schwert_lag(500)
    short = np.random.default_rng(1).standard_normal(24)
    assert adf_test(short).lag_order == min(schwert_lag(24), (24 - 4) // 2) == 8


def test_adf_rejects_short_series_and_bad_level():
    with pytest.raises(TooShort):
        adf_test(np.arange(19.0))
    with pytest.raises(ConfigError):
        adf_test(np.random.default_rng(0).standard_normal(30), level="2%")


@pytest.mark.parametrize("n, k", [(120, 12), (24, 8)])  # Schwert's lag; capped at n = 24
def test_adf_matches_direct_regression(n, k):
    y = np.random.default_rng(5).standard_normal(n)
    dy = np.diff(y)
    report = adf_test(y)
    assert report.lag_order == k
    # direct OLS of dy_t on [1, y_{t-1}, dy_{t-1}, ..., dy_{t-k}]
    X = np.column_stack([np.ones(dy.size - k), y[k:-1],
                         *(dy[k - j:dy.size - j] for j in range(1, k + 1))])
    beta, *_ = np.linalg.lstsq(X, dy[k:], rcond=None)
    resid = dy[k:] - X @ beta
    s2 = resid @ resid / (len(X) - X.shape[1])
    cov = s2 * np.linalg.inv(X.T @ X)
    assert abs(report.statistic - beta[1] / math.sqrt(cov[1, 1])) < 1e-9


# ---------------------------------------------------------------------------
# critical values
# ---------------------------------------------------------------------------

def test_critical_values_ordered_within_row():
    for n in (50, 80, 100, 250, 500, 5000):
        crit = {level: adf_critical_value(n, level) for level in ADF_LEVELS}
        assert crit["1%"] < crit["5%"] < crit["10%"]
        assert set(crit) == {"1%", "5%", "10%"}


def test_critical_values_interpolation_brackets():
    for level in ADF_LEVELS:
        a, b = sorted((adf_critical_value(250, level), adf_critical_value(500, level)))
        assert a <= adf_critical_value(330, level) <= b


def test_critical_values_clamped_below_50():
    for level in ADF_LEVELS:
        assert adf_critical_value(25, level) == adf_critical_value(50, level)


def test_critical_values_exact_at_knots():
    assert adf_critical_value(500, "5%") == pytest.approx(-2.867, abs=1e-9)


# ---------------------------------------------------------------------------
# stationarity screen
# ---------------------------------------------------------------------------

def _mixed_matrix():
    noise = np.random.default_rng(11).standard_normal(500)
    walk = gen_unit_root("random_walk", 500, 11)
    ar = gen_unit_root("ar1", 500, 12)
    return make_tsm(np.column_stack([noise, walk, ar]), names=["noise", "walk", "ar"])


def test_screen_drops_only_the_random_walk():
    screen = screen_stationarity(_mixed_matrix())
    assert screen.kept.columns == ["noise", "ar"]
    assert [name for name, _ in screen.dropped] == ["walk"]
    assert set(screen.reports) == {"noise", "walk", "ar"}


def test_screen_removes_nan_per_column():
    mat = _mixed_matrix()
    values = mat.values.copy()
    values[:40, 0] = np.nan  # leading gap in one column only
    screen = screen_stationarity(TimeSeriesMatrix(mat.time_index, mat.columns, values))
    assert "noise" in screen.kept.columns


def test_screen_error_names_the_column():
    mat = make_tsm(np.column_stack([np.ones(100)]), names=["flatline"])
    with pytest.raises(RankDeficient, match="flatline"):
        screen_stationarity(mat)


def test_screen_audit_csv_layout(full_run):
    lines = open(os.path.join(full_run["out"], "adf_screen.csv"), newline="").read().split("\n")
    assert lines[0] == "variable,adf_stat,crit_5pct,verdict"
    names = full_run["fx"]["macro_names"]
    assert len(lines) == len(names) + 2 and lines[-1] == ""
    rows = {line.split(",")[0]: line.split(",") for line in lines[1:-1]}
    assert list(rows) == names
    assert rows["junk_rw"][3] == "non-stationary"
    assert rows["policy_rate"][3] == "stationary"
    for cells in rows.values():
        assert repr(float(cells[1])) == cells[1]
        # the run screens at 5%, so the verdict is the 5% comparison
        assert (float(cells[1]) < float(cells[2])) == (cells[3] == "stationary")


# ---------------------------------------------------------------------------
# VAR lag selection
# ---------------------------------------------------------------------------

VAR2_COEFFS = [
    np.array([[0.5, 0.1], [0.0, 0.4]]),
    np.array([[0.3, 0.0], [0.1, 0.25]]),
]


def test_select_lag_pmax1_returns_1():
    mat = gen_var(VAR2_COEFFS, 200, 0)
    assert select_lag_var_aic(mat, 1) == 1


def test_select_lag_recovers_var2():
    mat = gen_var(VAR2_COEFFS, 400, 0)
    assert select_lag_var_aic(mat, 8) == 2


def _lstsq_aic_lag(values, p_max):
    """The AIC lag order of select_lag_var_aic's docstring, fit by lstsq."""
    T, K = values.shape
    t_eff = T - p_max
    aics = []
    for p in range(1, p_max + 1):
        Z = np.hstack([np.ones((t_eff, 1)), *(values[p_max - j:T - j] for j in range(1, p + 1))])
        coef, *_ = np.linalg.lstsq(Z, values[p_max:], rcond=None)
        resid = values[p_max:] - Z @ coef
        _, logdet = np.linalg.slogdet(resid.T @ resid / (t_eff - (K * p + 1)))
        aics.append(logdet + 2.0 * (K * K * p + K) / t_eff)
    return 1 + int(np.argmin(aics))


@pytest.mark.parametrize("seed", range(4))
def test_select_lag_matches_an_lstsq_reference(seed):
    """Each candidate's fit through ols_fit picks the lag a least-squares
    solver of another kind picks, on VAR(2) draws short enough that AIC
    does not always find 2."""
    mat = gen_var(VAR2_COEFFS, 60 + 40 * seed, seed)
    assert select_lag_var_aic(mat, 6) == _lstsq_aic_lag(mat.values, 6)


def test_select_lag_within_bounds_on_noise():
    for seed in range(5):
        mat = make_tsm(np.random.default_rng(seed).standard_normal((150, 2)))
        assert 1 <= select_lag_var_aic(mat, 6) <= 6


def test_select_lag_needs_complete_data():
    values = np.random.default_rng(0).standard_normal((100, 2))
    values[5, 0] = np.nan
    with pytest.raises(InsufficientData):
        select_lag_var_aic(make_tsm(values), 4)


def test_select_lag_too_short():
    mat = make_tsm(np.random.default_rng(0).standard_normal((12, 2)))
    with pytest.raises(InsufficientData):
        select_lag_var_aic(mat, 5)
    with pytest.raises(ConfigError):
        select_lag_var_aic(mat, 0)


# ---------------------------------------------------------------------------
# lags (built by to_panel) and differences
# ---------------------------------------------------------------------------

def _lag1(matrix):
    """The y_lag1 column to_panel builds for a one-fund matrix, on its months."""
    flat = TimeSeriesMatrix(list(matrix.time_index), ["d"], np.zeros((matrix.n_months, 1)))
    panel = to_panel(matrix, flat, "d", lag_order=1)
    lag = panel_x(panel)[:, panel.x_names.index("y_lag1")]
    return TimeSeriesMatrix([panel.months[t] for t in panel.month_codes], ["lag1"], lag[:, None])


def test_lag_and_difference_commute_on_ramp():
    ramp = make_tsm(3.0 + 2.0 * np.arange(10.0))
    lag_of_diff = _lag1(difference_matrix(ramp))
    diff_of_lag = difference_matrix(_lag1(ramp))
    # both equal the constant slope wherever defined, on the same months
    assert lag_of_diff.time_index == diff_of_lag.time_index == ramp.time_index[2:]
    assert np.array_equal(lag_of_diff.values, diff_of_lag.values)
    assert np.all(lag_of_diff.values == 2.0)


# ---------------------------------------------------------------------------
# correlation and PCA
# ---------------------------------------------------------------------------

def test_correlation_identity_and_antisymmetry():
    x = np.array([0.3, -1.2, 2.2, 0.9, -0.4])
    mat = make_tsm(np.column_stack([x, -x]), names=["x", "neg"])
    corr = correlation_matrix(mat)
    assert corr[0, 0] == 1.0 and corr[1, 1] == 1.0
    assert corr[0, 1] == pytest.approx(-1.0, abs=1e-12)


def test_correlation_hand_value():
    mat = make_tsm(np.column_stack([[1.0, 2.0, 3.0], [1.0, 2.0, 4.0]]))
    corr = correlation_matrix(mat)
    assert corr[0, 1] == pytest.approx(3.0 / math.sqrt(2.0 * 14.0 / 3.0), abs=1e-12)
    assert corr[0, 1] == pytest.approx(0.98198, abs=5e-6)


def test_correlation_pairwise_complete(rng):
    values = rng.standard_normal((30, 2))
    values[:5, 0] = np.nan
    mat = make_tsm(values)
    mask = np.isfinite(values[:, 0])
    a = values[mask, 0] - values[mask, 0].mean()
    b = values[mask, 1] - values[mask, 1].mean()
    expect = float(a @ b / math.sqrt((a @ a) * (b @ b)))
    assert correlation_matrix(mat)[0, 1] == pytest.approx(expect, abs=1e-12)


def test_correlation_constant_column():
    with pytest.raises(ConstantColumn):
        correlation_matrix(make_tsm(np.column_stack([np.ones(5), np.arange(5.0)])))


def test_pca_identity_matrix():
    report = pca_corr(np.eye(3))
    assert np.allclose(report.eigenvalues, 1.0)
    assert np.allclose(report.explained_ratio, 1.0 / 3.0)


def test_pca_two_by_two_hand_values():
    corr = np.array([[1.0, 0.6], [0.6, 1.0]])
    report = pca_corr(corr)
    assert np.allclose(report.eigenvalues, [1.6, 0.4], atol=1e-12)
    s = 1.0 / math.sqrt(2.0)
    assert np.allclose(report.components[:, 0], [s, s], atol=1e-12)
    assert np.allclose(np.abs(report.components[:, 1]), [s, s], atol=1e-12)
    # sign convention: the largest-magnitude loading is positive
    lead = np.argmax(np.abs(report.components[:, 1]))
    assert report.components[lead, 1] > 0
    assert np.allclose(report.explained_ratio, [0.8, 0.2], atol=1e-12)


def test_pca_reconstruction_and_orthonormality(rng):
    mat = make_tsm(rng.standard_normal((200, 4)))
    corr = correlation_matrix(mat)
    report = pca_corr(corr)
    V, w = report.components, report.eigenvalues
    assert np.allclose(V @ np.diag(w) @ V.T, corr, atol=1e-8)
    assert np.allclose(V.T @ V, np.eye(4), atol=1e-8)
    assert abs(w.sum() - 4.0) < 1e-9
    assert report.explained_ratio.sum() == pytest.approx(1.0, abs=1e-12)
    assert np.all(np.diff(w) <= 1e-12)  # descending


def test_pca_rejects_non_symmetric():
    with pytest.raises(NotSymmetric):
        pca_corr(np.array([[1.0, 0.5], [0.1, 1.0]]))
    with pytest.raises(NotSymmetric):
        pca_corr(np.ones((2, 3)))


@settings(max_examples=20, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_pca_explained_sums_to_one(seed):
    mat = make_tsm(np.random.default_rng(seed).standard_normal((50, 3)))
    report = pca_corr(correlation_matrix(mat))
    assert report.explained_ratio.sum() == pytest.approx(1.0, abs=1e-9)
