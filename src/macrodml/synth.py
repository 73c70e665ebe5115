"""Synthetic data generators used as ground-truth oracles in tests and
calibration scripts: partially linear problems with known theta, VAR
processes with known lag order, unit-root benchmark series, Dickey-Fuller
critical-value simulation, and a full on-disk pipeline fixture.

Every generator is a pure function of its arguments (a seed among them),
so repeated calls are bit-identical. Monte Carlo loops stream seeds as
base + replication index, which makes aggregation order-independent.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass

import numpy as np

from .errors import (
    BadKind,
    ConfigError,
    ExplosiveCoefficients,
    TooFewReps,
)
from .dml import PlrProblem
from .panel_data import (
    FundMeta,
    TimeSeriesMatrix,
    month_range,
    write_fund_meta_csv,
    write_tscs_csv,
)

PLR_KINDS = ("plr_linear", "plr_nonlinear")


@dataclass
class SynthSpec:
    """Recipe for one partially linear draw (`gen_plr`)."""

    kind: str = "plr_linear"
    theta_true: float = 0.5
    n: int = 1000
    k_controls: int = 5
    noise_sd: float = 1.0
    seed: int = 0

    def validate(self) -> None:
        if self.kind not in PLR_KINDS:
            raise BadKind(f"kind must be one of {PLR_KINDS}, got {self.kind!r}")
        if self.n < 1:
            raise ConfigError("n must be >= 1")
        if self.noise_sd <= 0:
            raise ConfigError("noise_sd must be positive")
        min_k = 3 if self.kind == "plr_nonlinear" else 1
        if self.k_controls < min_k:
            raise ConfigError(f"{self.kind} needs at least {min_k} controls")


def _plr_weights(k: int) -> tuple[np.ndarray, np.ndarray]:
    """Fixed unit-norm weights: a_j = 1/sqrt(k), b_j = (-1)^j / sqrt(k)."""
    a = np.full(k, 1.0 / math.sqrt(k))
    b = np.array([(-1.0) ** j / math.sqrt(k) for j in range(1, k + 1)])
    return a, b


def gen_plr(spec: SynthSpec) -> tuple[PlrProblem, dict]:
    """Draw one partially linear problem with known effect.

    plr_linear:     d = X a + v,                 y = theta d + X b + u
    plr_nonlinear:  d = sin(X a) + 0.5(X1^2 - 1) + v,
                    y = theta d + cos(X b) + X2 X3 + u

    X is iid standard normal n-by-k; u, v are iid normal(0, noise_sd). For
    the linear kind Var(X a) = 1, so the population R^2 of the treatment
    equation is 1 / (1 + noise_sd^2); it ships in the returned truth dict.
    """
    spec.validate()
    rng = np.random.default_rng(spec.seed)
    n, k = spec.n, spec.k_controls
    X = rng.standard_normal((n, k))
    u = spec.noise_sd * rng.standard_normal(n)
    v = spec.noise_sd * rng.standard_normal(n)
    a, b = _plr_weights(k)
    if spec.kind == "plr_linear":
        d = X @ a + v
        y = spec.theta_true * d + X @ b + u
    else:
        d = np.sin(X @ a) + 0.5 * (X[:, 0] ** 2 - 1.0) + v
        y = spec.theta_true * d + np.cos(X @ b) + X[:, 1] * X[:, 2] + u
    truth = {
        "theta": spec.theta_true,
        "a": a,
        "b": b,
        "r2_d_pop": 1.0 / (1.0 + spec.noise_sd**2) if spec.kind == "plr_linear" else None,
    }
    return PlrProblem(y, d, X), truth


def companion_spectral_radius(coeffs: list[np.ndarray]) -> float:
    """Largest eigenvalue modulus of the VAR companion matrix."""
    coeffs = [np.asarray(A, dtype=float) for A in coeffs]
    K = coeffs[0].shape[0]
    p = len(coeffs)
    comp = np.zeros((K * p, K * p))
    comp[:K] = np.hstack(coeffs)
    if p > 1:
        comp[K:, : K * (p - 1)] = np.eye(K * (p - 1))
    return float(np.max(np.abs(np.linalg.eigvals(comp))))


BURN_IN = 200


def gen_var(coeffs: list[np.ndarray], n: int, seed: int) -> TimeSeriesMatrix:
    """Simulate n months, from 2000-01, of a stationary VAR(p) with iid
    standard normal shocks: x_t = sum_j A_j x_{t-j} + eps_t, A_j = coeffs[j - 1].

    The recursion runs 200 extra steps from zero initial conditions and the
    transient is discarded, so the first returned row is index 0 of the kept
    sample.
    """
    coeffs = [np.asarray(A, dtype=float) for A in coeffs]
    if not coeffs:
        raise ConfigError("coeffs must hold the VAR coefficient matrices")
    K = coeffs[0].shape[0]
    for A in coeffs:
        if A.shape != (K, K):
            raise ConfigError("all coefficient matrices must be square with equal size")
    radius = companion_spectral_radius(coeffs)
    if radius >= 1.0:
        raise ExplosiveCoefficients(f"companion spectral radius {radius:.4f} >= 1")
    p = len(coeffs)
    rng = np.random.default_rng(seed)
    total = n + BURN_IN
    eps = rng.standard_normal((total, K))
    X = np.zeros((total + p, K))
    for t in range(total):
        row = eps[t].copy()
        for j, A in enumerate(coeffs, start=1):
            row += A @ X[p + t - j]
        X[p + t] = row
    names = [f"v{j + 1}" for j in range(K)]
    return TimeSeriesMatrix(month_range("2000-01", n), names, X[p + BURN_IN :])


def gen_unit_root(kind: str, n: int, seed: int) -> np.ndarray:
    """Benchmark series for the unit-root screen, iid standard normal shocks.

    random_walk: y_t = y_{t-1} + e_t with y_0 = 0 included, so the first
    difference is exactly the innovation sequence; ar1: y_t = 0.5 y_{t-1} +
    e_t from y_0 = 0.
    """
    rng = np.random.default_rng(seed)
    if kind == "random_walk":
        y = np.zeros(n)
        y[1:] = np.cumsum(rng.standard_normal(n - 1))
        return y
    if kind != "ar1":
        raise BadKind(f"kind must be random_walk or ar1, got {kind!r}")
    eps = rng.standard_normal(n)
    y = np.empty(n)
    prev = 0.0
    for t in range(n):
        prev = 0.5 * prev + eps[t]
        y[t] = prev
    return y


def _df_tstats(walks: np.ndarray) -> np.ndarray:
    """Dickey-Fuller t-ratio (constant, no augmentation) per row of walks."""
    x = walks[:, :-1]
    dy = np.diff(walks, axis=1)
    m = x.shape[1]
    xc = x - x.mean(axis=1, keepdims=True)
    dyc = dy - dy.mean(axis=1, keepdims=True)
    sxx = np.einsum("ij,ij->i", xc, xc)
    sxy = np.einsum("ij,ij->i", xc, dyc)
    syy = np.einsum("ij,ij->i", dyc, dyc)
    gamma = sxy / sxx
    ssr = syy - gamma * sxy
    s2 = ssr / (m - 2)
    return gamma / np.sqrt(s2 / sxx)


def df_critical_values(n: int, reps: int = 100_000, seed: int = 0) -> dict[str, float]:
    """Monte Carlo critical values of the Dickey-Fuller t-ratio.

    Replication i simulates a driftless Gaussian random walk of length n
    from its own generator seeded at seed + i, runs the constant-included
    level regression, and the 1%/5%/10% empirical quantiles of the t-ratios
    are returned. Per-replication seeding makes the result independent of
    internal batching.
    """
    if reps < 10_000:
        raise TooFewReps(f"need at least 10000 replications, got {reps}")
    if n < 25:
        raise ConfigError("n must be >= 25")
    stats = np.empty(reps)
    batch = 4_000
    walks = np.empty((batch, n))
    done = 0
    while done < reps:
        take = min(batch, reps - done)
        for r in range(take):
            rng = np.random.default_rng(seed + done + r)
            walks[r] = np.cumsum(rng.standard_normal(n))
        stats[done : done + take] = _df_tstats(walks[:take])
        done += take
    q = np.quantile(stats, [0.01, 0.05, 0.10])
    return {"1%": float(q[0]), "5%": float(q[1]), "10%": float(q[2])}


def gen_pipeline_fixture(out_dir, seed: int = 0, n_funds: int = 16, n_months: int = 500) -> dict:
    """Write a complete synthetic input set (macro.csv, funds.csv, meta.csv)
    on n_months months from 1980-01.

    Macro columns are stored as levels whose first differences recover the
    generated stationary growth series, so the pipeline's differencing step
    is exercised for real. The treatment growth is confounded with three
    control growths (d = X a + v); fund returns are

        y_{f,t} = -8.0 * d_t + X_t b + alpha_f + eps_{f,t},

    with v and eps standard normal and fund effects alpha_f normal with sd 0.5.
    One more macro column, junk_rw, is a cumulated random walk, which stays
    non-stationary after differencing and must be dropped by the screen. Two
    extra funds with tiny AUM are included to exercise catalog filtering.
    Returns the paths plus the ground truth tests need.
    """
    rng = np.random.default_rng(seed)
    months = month_range("1980-01", n_months)
    X = rng.standard_normal((n_months, 3))
    a, b = _plr_weights(3)
    d = X @ a + rng.standard_normal(n_months)
    base = -8.0 * d + X @ b

    tickers = [f"F{str(i + 1).zfill(3)}" for i in range(n_funds)]
    alpha = 0.5 * rng.standard_normal(n_funds)
    returns = base[:, None] + alpha[None, :] + rng.standard_normal((n_months, n_funds))

    macro_names = ["policy_rate", "ctrl1", "ctrl2", "ctrl3", "junk_rw"]
    level_cols = [100.0 + np.cumsum(d)] + [10.0 + np.cumsum(X[:, j]) for j in range(3)]
    level_cols.append(np.cumsum(np.cumsum(rng.standard_normal(n_months))))
    macro = TimeSeriesMatrix(months, macro_names, np.column_stack(level_cols))

    funds = TimeSeriesMatrix(months, tickers, returns)

    catalog = [
        FundMeta(t, "FixedIncome", "1979-01", 100.0, "Active") for t in tickers
    ]
    # below any sensible AUM floor; the catalog filter must drop these
    catalog.append(FundMeta("TINY1", "FixedIncome", "1979-01", 5.0, "Active"))
    catalog.append(FundMeta("TINY2", "Equity", "1979-01", 1.0, "Passive"))

    os.makedirs(out_dir, exist_ok=True)
    macro_path = os.path.join(out_dir, "macro.csv")
    funds_path = os.path.join(out_dir, "funds.csv")
    meta_path = os.path.join(out_dir, "meta.csv")
    write_tscs_csv(macro, macro_path)
    write_tscs_csv(funds, funds_path)
    write_fund_meta_csv(catalog, meta_path)

    return {
        "macro_csv": macro_path,
        "funds_csv": funds_path,
        "meta_csv": meta_path,
        "d_growth": d,
        "tickers": tickers,
        "macro_names": macro_names,
    }
