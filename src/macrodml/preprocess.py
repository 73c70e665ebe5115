"""Statistical preprocessing chain: differencing, unit-root screening,
VAR lag-order selection, and correlation/PCA diagnostics. The ADF and VAR
regressions take their lags from `panel_data.lag_design`, as the panel's
month table does, and fit by learners.ols_fit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    ConfigError,
    ConstantColumn,
    DataError,
    InsufficientData,
    NotSymmetric,
    RankDeficient,
    SingularCovariance,
    TooShort,
)
from .learners import ols_fit, predict
from .panel_data import TimeSeriesMatrix, lag_design

ADF_LEVELS = ("1%", "5%", "10%")

# Dickey-Fuller critical values (constant, no trend) for the t-ratio on the
# lagged level. Simulated with synth.df_critical_values at 200,000
# replications per row (driftless Gaussian random walks, base seed 20240901;
# the infinity row uses n=5000). Regenerate with scripts/make_adf_table.py.
_ADF_CRIT_ROWS: dict[float, dict[str, float]] = {
    50: {"1%": -3.554, "5%": -2.918, "10%": -2.595},
    100: {"1%": -3.493, "5%": -2.891, "10%": -2.582},
    250: {"1%": -3.457, "5%": -2.875, "10%": -2.578},
    500: {"1%": -3.447, "5%": -2.867, "10%": -2.567},
    math.inf: {"1%": -3.435, "5%": -2.856, "10%": -2.563},
}


def adf_critical_value(n: int, level: str) -> float:
    """The table's value at `level`, linear in x = 1/n between knots; below
    n=50 it is the n=50 row (x = 1/50)."""
    x = 1.0 / max(n, 50)
    knots = sorted(_ADF_CRIT_ROWS, reverse=True)  # x ascending: infinity first
    for big, small in zip(knots, knots[1:]):
        x0, x1 = 1.0 / big, 1.0 / small
        if x <= x1:
            w = (x - x0) / (x1 - x0)
            return (1 - w) * _ADF_CRIT_ROWS[big][level] + w * _ADF_CRIT_ROWS[small][level]


@dataclass
class AdfReport:
    """Unit-root test outcome for one series."""

    statistic: float
    lag_order: int
    critical_value: float  # the value at the test's level that the verdict used
    verdict: str  # "stationary" | "non-stationary"

    @property
    def stationary(self) -> bool:
        return self.verdict == "stationary"


@dataclass
class CorrPcaReport:
    eigenvalues: np.ndarray
    components: np.ndarray  # orthonormal columns, one per eigenvalue
    explained_ratio: np.ndarray


@dataclass
class StationarityScreen:
    kept: TimeSeriesMatrix
    dropped: list[tuple[str, AdfReport]]
    reports: dict[str, AdfReport]


def difference_matrix(matrix: TimeSeriesMatrix) -> TimeSeriesMatrix:
    """First-difference every column; the first month drops out.

    NaN propagates: a difference is missing if either endpoint is.
    """
    if matrix.n_months < 2:
        raise TooShort("need at least 2 months to difference")
    return TimeSeriesMatrix(
        matrix.time_index[1:],
        list(matrix.columns),
        matrix.values[1:] - matrix.values[:-1],
    )


def schwert_lag(n: int) -> int:
    """Rule-of-thumb augmentation order: floor(12 * (n/100)^(1/4))."""
    return int(math.floor(12.0 * (n / 100.0) ** 0.25))


def adf_test(series, level: str = "5%") -> AdfReport:
    """Augmented Dickey-Fuller test with a constant and no trend.

    Regresses the first difference on a constant, the lagged level, and k
    lagged differences; the statistic is the t-ratio on the lagged level.
    k is Schwert's lag capped at (n - 4) // 2, so the regression keeps at
    least one residual degree of freedom. The t-ratio is partialled
    out (Frisch-Waugh-Lovell) from one `ols_fit` of the difference and the
    lagged level on the lagged differences (and ols_fit's constant). Raises
    RankDeficient on a rank-deficient regression (a constant series),
    SingularCovariance on an exact fit, whose t-ratio is undefined.
    """
    if level not in ADF_LEVELS:
        raise ConfigError(f"level must be one of {ADF_LEVELS}")
    y = np.asarray(series, dtype=float)
    n = int(y.size)
    if n < 20:
        raise TooShort(f"need at least 20 observations, got {n}")
    k = min(schwert_lag(n), (n - 4) // 2)

    dy = np.diff(y)
    nobs = n - 1 - k
    Z = lag_design(dy, k, k)
    targets = np.stack([dy[k:], y[k:n - 1]])
    e_dy, e_level = targets - predict(ols_fit(Z, targets), Z)
    tol = nobs * np.finfo(float).eps  # sums of squares this small beside their target's are rounding
    ss_level = float(e_level @ e_level)
    if ss_level <= tol * float(targets[1] @ targets[1]):
        raise RankDeficient("the lagged level is collinear with the constant and lags")
    beta = float(e_level @ e_dy) / ss_level
    resid = e_dy - beta * e_level
    ssr = float(resid @ resid)
    if ssr <= tol * float(targets[0] @ targets[0]):
        raise SingularCovariance("the test regression fits exactly; its t-ratio is undefined")
    stat = beta / math.sqrt(ssr / (nobs - k - 2) / ss_level)

    crit = adf_critical_value(n, level)
    verdict = "stationary" if stat < crit else "non-stationary"
    return AdfReport(stat, k, crit, verdict)


def screen_stationarity(vars: TimeSeriesMatrix, level: str = "5%") -> StationarityScreen:
    """Drop every column whose ADF verdict is non-stationary.

    Each column is tested at `adf_test`'s capped Schwert lag. Missing
    values are removed per column before testing. Test errors are
    re-raised with the offending column name attached.
    """
    kept_names: list[str] = []
    dropped: list[tuple[str, AdfReport]] = []
    reports: dict[str, AdfReport] = {}
    for name in vars.columns:
        col = vars.column(name)
        col = col[np.isfinite(col)]
        try:
            report = adf_test(col, level=level)
        except (TooShort, RankDeficient, SingularCovariance) as exc:
            raise type(exc)(f"column {name!r}: {exc}") from exc
        reports[name] = report
        if report.stationary:
            kept_names.append(name)
        else:
            dropped.append((name, report))
    return StationarityScreen(vars.select(kept_names), dropped, reports)


def select_lag_var_aic(vars: TimeSeriesMatrix, p_max: int) -> int:
    """VAR lag order minimizing AIC over p = 1..p_max.

    Each candidate is one `ols_fit` of every equation on the common sample of
    length T_eff = T - p_max (RankDeficient if its lag design is rank
    deficient); AIC(p) = ln det(Sigma_p) + 2(K^2 p + K)/T_eff with the
    degrees-of-freedom-adjusted residual covariance Sigma_p =
    E'E / (T_eff - (K p + 1)). Ties break toward the smaller lag.
    """
    if p_max < 1:
        raise ConfigError("p_max must be >= 1")
    X = vars.values
    if not np.all(np.isfinite(X)):
        raise InsufficientData("lag selection requires a complete (no-missing) matrix")
    T, K = X.shape
    if T - p_max < K * p_max + 2:  # each fit keeps a residual degree of freedom
        raise InsufficientData(f"T={T} is too short for K={K}, p_max={p_max}")
    t_eff = T - p_max
    targets = X[p_max:]

    best_p, best_aic = None, None
    for p in range(1, p_max + 1):
        Z = lag_design(X, p, p_max)
        resid = targets - predict(ols_fit(Z, targets.T), Z).T
        sigma = resid.T @ resid / (t_eff - (K * p + 1))
        sign, logdet = np.linalg.slogdet(sigma)
        if sign <= 0:
            raise SingularCovariance(f"residual covariance singular at p={p}")
        aic = logdet + 2.0 * (K * K * p + K) / t_eff
        if best_aic is None or aic < best_aic:
            best_p, best_aic = p, aic
    return int(best_p)


def correlation_matrix(vars: TimeSeriesMatrix) -> np.ndarray:
    """Pearson correlations with pairwise-complete observations."""
    X = vars.values
    K = X.shape[1]
    finite = np.isfinite(X)
    for j, name in enumerate(vars.columns):
        col = X[finite[:, j], j]
        if col.size and np.ptp(col) == 0.0:
            raise ConstantColumn(f"column {name!r} is constant")
    corr = np.eye(K)
    for i in range(K):
        for j in range(i + 1, K):
            mask = finite[:, i] & finite[:, j]
            if mask.sum() < 2:
                raise DataError(
                    f"columns {vars.columns[i]!r} and {vars.columns[j]!r} share "
                    "fewer than 2 observations"
                )
            a = X[mask, i] - X[mask, i].mean()
            b = X[mask, j] - X[mask, j].mean()
            denom = math.sqrt(float(a @ a) * float(b @ b))
            if denom == 0.0:
                raise ConstantColumn(
                    f"columns {vars.columns[i]!r}/{vars.columns[j]!r} are constant "
                    "on their shared observations"
                )
            corr[i, j] = corr[j, i] = min(1.0, max(-1.0, float(a @ b) / denom))
    return corr


def pca_corr(corr: np.ndarray) -> CorrPcaReport:
    """Eigen-decomposition of a correlation matrix, eigenvalues descending.

    Component signs are fixed so the largest-magnitude loading of each vector
    is positive, making the output independent of the eigen-solver.
    """
    corr = np.asarray(corr, dtype=float)
    if corr.ndim != 2 or corr.shape[0] != corr.shape[1]:
        raise NotSymmetric("correlation matrix must be square")
    if not np.allclose(corr, corr.T, atol=1e-8):
        raise NotSymmetric("correlation matrix must be symmetric")
    eigenvalues, vectors = np.linalg.eigh(corr)
    order = np.argsort(eigenvalues)[::-1]
    eigenvalues = eigenvalues[order]
    vectors = vectors[:, order]
    # numerical noise only; a genuine correlation matrix is PSD
    eigenvalues[(eigenvalues < 0) & (eigenvalues > -1e-10)] = 0.0
    for j in range(vectors.shape[1]):
        lead = np.argmax(np.abs(vectors[:, j]))
        if vectors[lead, j] < 0:
            vectors[:, j] = -vectors[:, j]
    explained = eigenvalues / np.trace(corr)
    return CorrPcaReport(eigenvalues, vectors, explained)
