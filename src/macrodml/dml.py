"""Cross-fitted double machine learning for the partially linear model

    y = theta * d + g(x) + u,        d = m(x) + v.

Nuisances g and m are fit on held-out folds; theta solves a score on the
pooled out-of-fold residuals. The default score's derivative in m is not
zero, so errors in m_hat move theta to first order (see `plr_estimate`).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from decimal import Decimal

import numpy as np

from .errors import (
    BadKind,
    ConfigError,
    DataError,
    DegenerateTreatment,
    LengthMismatch,
)
from .learners import (
    HyperParams,
    gbt_fit,
    kfold_split,
    ols_fit,
    predict,
    train_test_folds,
)
from .panel_data import PanelTable, x_rows

Z_975 = 1.959964  # two-sided 5% normal quantile used for all intervals

SCORES = ("orthogonal", "residual_ols")
LEARNER_KINDS = ("linear", "boosted")


@dataclass
class LearnerSpec:
    """Which learner fits both nuisance tasks. Nothing reads `seed`: both
    learners are deterministic, and it stays only because callers pass it."""

    kind: str = "linear"  # "linear" | "boosted"
    params: HyperParams | None = None  # boosted only
    seed: int = 0

    def validate(self) -> None:
        if self.kind not in LEARNER_KINDS:
            raise BadKind(f"learner kind must be one of {LEARNER_KINDS}, got {self.kind!r}")


@dataclass
class PlrProblem:
    """One partially linear regression problem, optionally panel-aware.

    x is the (n, p) control matrix, or for a panel the PanelTable whose rows
    `design_rows` gathers, so a panel's x is never held whole. unit_codes
    gives each row's unit as an integer 0, 1, ..., n_units - 1 (a panel's
    fund codes), so per-fold encoding groups rows by integers; month_codes
    gives each row's month the same way.
    """

    y: np.ndarray
    d: np.ndarray
    x: np.ndarray | PanelTable
    unit_codes: np.ndarray | None = None
    month_codes: np.ndarray | None = None
    n_units: int = field(init=False, default=0, compare=False)

    def __post_init__(self) -> None:
        self.y = np.asarray(self.y, dtype=float)
        self.d = np.asarray(self.d, dtype=float)
        n = self.y.size
        if isinstance(self.x, PanelTable):
            n_x = self.x.n_rows
        else:
            self.x = np.asarray(self.x, dtype=float)
            if self.x.ndim != 2:
                raise DataError("x must be 2-dimensional")
            n_x = self.x.shape[0]
        if self.d.size != n or n_x != n:
            raise LengthMismatch("y, d, and x must have the same number of rows")
        for name in ("unit_codes", "month_codes"):
            if getattr(self, name) is not None:
                codes = np.asarray(getattr(self, name), dtype=np.intp)
                if codes.size != n:
                    raise LengthMismatch(f"{name} must match the number of rows")
                setattr(self, name, codes)
        if self.unit_codes is not None:
            self.n_units = int(self.unit_codes.max()) + 1 if n else 0
        if n and np.ptp(self.d) == 0.0:
            raise DegenerateTreatment("treatment is constant across rows")

    @property
    def n_obs(self) -> int:
        return int(self.y.size)

    def fold_design(self, train):
        """(rows, order, intercept) -> those rows of the design of the fold
        whose training rows are `train`, copied in that memory order: x
        itself, or, for a problem with unit codes, x joined with the unit
        outcome means of the `train` rows (see `design_rows`)."""
        if self.unit_codes is None:
            means = np.empty((self.n_obs, 0))
        else:
            mask = np.zeros(self.n_obs, dtype=bool)
            mask[train] = True
            means = encode_features(self, mask)
        return functools.partial(design_rows, self.x, means)


def problem_from_panel(panel: PanelTable) -> PlrProblem:
    """The panel's arrays and codes, shared, not copied; x is the panel itself."""
    return PlrProblem(panel.y, panel.d, panel, panel.unit_codes, panel.month_codes)


@dataclass
class NuisanceResiduals:
    """Out-of-fold nuisance residuals u = y - g_hat and v = d - m_hat."""

    u: np.ndarray
    v: np.ndarray
    fold_of: np.ndarray
    r2_y: float
    r2_d: float
    g_hat: np.ndarray
    m_hat: np.ndarray


@dataclass
class DmlResult:
    theta: float
    se: float
    t: float
    p: float
    ci_low: float
    ci_high: float
    n: int
    per_1pct: float


def _fit_predict(learner: LearnerSpec, rows_of, targets: dict[str, np.ndarray],
                 preds: dict[str, np.ndarray], train, test) -> None:
    """Fit each task's target in `targets` (task name -> target) on the
    `train` rows and write its predictions on the `test` rows into
    preds[task]; `rows_of(rows, order, intercept)` returns those rows of the
    design (see `design_rows`). An error names the task that failed. The
    predictions are written in place, so none outlives its fold: a fold's
    predictions held into the next fold's fit raised the peak RSS of a
    196,800-row linear run by about 30 MB.

    A linear learner fits every task from one QR of the training rows, copied
    column-major with the intercept column as `ols_fit` takes them, and
    gathers the test rows only after that fit, so the two copies never
    coexist. Only the training rows can make that fit fail, and the first
    task meets it first, so its errors name that task, as they would when
    the tasks are fit in turn.
    """
    if learner.kind == "linear":
        first = next(iter(targets))
        try:
            model = ols_fit(rows_of(train, "F", True),
                            np.stack([target[train] for target in targets.values()]))
            for task, pred in zip(targets, predict(model, rows_of(test))):
                preds[task][test] = pred
        except Exception as exc:
            raise type(exc)(f"{first}-task: {exc}") from exc
        return
    X_tr, X_te = rows_of(train), rows_of(test)
    for task, target in targets.items():
        try:
            preds[task][test] = predict(gbt_fit(X_tr, target[train], learner.params), X_te)
        except Exception as exc:
            raise type(exc)(f"{task}-task: {exc}") from exc


def encode_features(problem: PlrProblem, train_mask: np.ndarray) -> np.ndarray:
    """Each row's unit mean of the outcome over the train_mask rows (target
    encoding of the unit id, a fixed-effect proxy), as the (n, 1) block that
    `design_rows` appends to x.

    Units are grouped by the problem's integer unit codes. A unit with no
    training row gets the mean of all training rows; train_mask must select
    at least one row (a fold complement always does).
    """
    codes = problem.unit_codes
    train_codes, train_y = codes[train_mask], problem.y[train_mask]
    counts = np.bincount(train_codes, minlength=problem.n_units)
    sums = np.bincount(train_codes, weights=train_y, minlength=problem.n_units)
    means = np.where(counts > 0, sums / np.maximum(counts, 1), train_y.mean())
    return means[codes][:, None]


_ROW_BLOCK = 2048  # rows gathered per step of design_rows; a block stays in cache


def design_rows(x: np.ndarray | PanelTable, means: np.ndarray, rows=slice(None),
                order: str = "C", intercept: bool = False) -> np.ndarray:
    """x[rows] with means[rows] appended, and with `intercept` a leading
    column of ones (the design `ols_fit` factors), copied straight into one
    array, so selecting rows never builds the full matrix first. x is a
    matrix or a PanelTable, whose rows `panel_data.x_rows` gathers.

    The rows are copied a block at a time, so `order="F"` (the column-major
    layout `ols_fit`'s QR reads) costs no more than a row-major copy.
    """
    panel = isinstance(x, PanelTable)
    n, p = (x.n_rows, len(x.x_names)) if panel else x.shape
    rows = np.arange(n)[rows]
    lead = int(intercept)
    out = np.empty((rows.size, lead + p + means.shape[1]), order=order)
    out[:, :lead] = 1.0
    for start in range(0, rows.size, _ROW_BLOCK):
        block = rows[start:start + _ROW_BLOCK]
        dest = out[start:start + _ROW_BLOCK]
        if panel:
            x_rows(x, block, dest[:, lead:lead + p])
        else:
            dest[:, lead:lead + p] = x[block]
        dest[:, lead + p:] = means[block]
    return out


def _oof_r2(target: np.ndarray, resid: np.ndarray) -> float:
    centered = target - target.mean()
    tss = float(centered @ centered)
    return 1.0 - float(resid @ resid) / tss if tss > 0 else float("nan")


def cross_fit_nuisance(
    problem: PlrProblem,
    learner: LearnerSpec,
    k: int = 2,
    seed: int = 0,
    g_hat: np.ndarray | None = None,
) -> NuisanceResiduals:
    """Fit both nuisances with K-fold cross-fitting over rows.

    Every row is predicted by models trained on the complement of its fold.
    For problems with unit codes the unit outcome means are recomputed inside
    each training complement, so held-out rows never leak into the means
    they receive; the fold's training and test rows are copied straight from
    x (for a panel, its month table and fund returns) and that column
    (`PlrProblem.fold_design`). The stored r2_y/r2_d are computed on the
    pooled out-of-fold predictions.

    A given `g_hat` is taken as the y task's out-of-fold predictions, made
    on these folds and fold designs (`learners.grid_search_cv`'s winner's
    are), and only the d task is fit.
    """
    learner.validate()
    n = problem.n_obs
    preds = {"y": np.full(n, np.nan), "d": np.full(n, np.nan)}
    targets = {"y": problem.y, "d": problem.d}
    if g_hat is not None:
        preds["y"] = np.array(g_hat, dtype=float)
        if preds["y"].shape != (n,):
            raise LengthMismatch(f"g_hat has shape {preds['y'].shape} for {n} rows")
        del targets["y"]
    fold_of = np.full(n, -1, dtype=np.int64)
    for i, (train, test) in enumerate(train_test_folds(kfold_split(n, k, seed))):
        rows_of = problem.fold_design(train)
        try:
            _fit_predict(learner, rows_of, targets, preds, train, test)
        except Exception as exc:
            raise type(exc)(f"fold {i}, {exc}") from exc
        fold_of[test] = i
    g_hat, m_hat = preds["y"], preds["d"]
    u = problem.y - g_hat
    v = problem.d - m_hat
    return NuisanceResiduals(
        u, v, fold_of, _oof_r2(problem.y, u), _oof_r2(problem.d, v), g_hat, m_hat
    )


def wald_inference(theta: float, se: float) -> tuple[float, float, float, float]:
    """(t, p, ci_low, ci_high) under the normal approximation.

    t is exactly theta/se; p = 2 * (1 - Phi(|t|)) via erfc; the interval uses
    the fixed quantile 1.959964.
    """
    if se <= 0 or not math.isfinite(se):
        raise DegenerateTreatment(f"standard error must be positive, got {se}")
    t = theta / se
    p = math.erfc(abs(t) / math.sqrt(2.0))
    return t, p, theta - Z_975 * se, theta + Z_975 * se


def rescale_per_1pct(theta: float) -> float:
    """Effect of a 1 percentage-point move: theta / 100, as a decimal shift so
    the printed value matches hand-division of the printed theta (binary /100
    can be one ulp off)."""
    return float(Decimal(repr(float(theta))) / 100)


def plr_estimate(
    res: NuisanceResiduals,
    d,
    y,
    score: str = "orthogonal",
) -> DmlResult:
    """Solve the score on pooled residuals and attach Wald inference.

    orthogonal:    theta = sum(v * (y - g_hat)) / sum(v * d),  J = mean(v d)
    residual_ols:  theta = sum(v * u) / sum(v * v),            J = mean(v v)

    psi_i = (target_i - theta * slope_i) * v_i with the matching target and
    slope; SE = sqrt( mean(psi^2) / (n * J^2) ).
    """
    if score not in SCORES:
        raise ConfigError(f"score must be one of {SCORES}, got {score!r}")
    d = np.asarray(d, dtype=float)
    y = np.asarray(y, dtype=float)
    v = res.v
    n = v.size
    if d.size != n or y.size != n:
        raise LengthMismatch("d and y must match the residual length")
    if float(v @ v) < 1e-12 * n:
        raise DegenerateTreatment("treatment residuals are numerically zero")
    if score == "orthogonal":
        target = y - res.g_hat
        jac = float(v @ d) / n
        if abs(jac) < 1e-12:
            raise DegenerateTreatment("score Jacobian mean(v*d) is numerically zero")
        theta = float(v @ target) / (n * jac)
        psi = (target - theta * d) * v
    else:
        u = res.u
        jac = float(v @ v) / n
        theta = float(v @ u) / (n * jac)
        psi = (u - theta * v) * v
    se = math.sqrt(float(psi @ psi) / n / (n * jac * jac))
    t, p, lo, hi = wald_inference(theta, se)
    return DmlResult(
        theta=theta, se=se, t=t, p=p, ci_low=lo, ci_high=hi,
        n=n, per_1pct=rescale_per_1pct(theta),
    )


def run_dml(
    problem: PlrProblem,
    learner: LearnerSpec,
    k: int = 2,
    seed: int = 0,
    score: str = "orthogonal",
    g_hat: np.ndarray | None = None,
) -> tuple[DmlResult, NuisanceResiduals]:
    """End-to-end estimate: cross-fitted nuisances, residuals, score, Wald
    inference. A given `g_hat` is the y task's out-of-fold predictions (see
    `cross_fit_nuisance`)."""
    res = cross_fit_nuisance(problem, learner, k, seed, g_hat)
    return plr_estimate(res, problem.d, problem.y, score=score), res


def residual_diagnostics(res: NuisanceResiduals) -> dict[str, float]:
    """Summary statistics of the out-of-fold outcome residual u: the largest
    |u| and the fraction within one standard deviation of zero (= 0.683 for
    Gaussian residuals).
    """
    sd = float(res.u.std())
    frac = float(np.mean(np.abs(res.u) <= sd)) if sd > 0 else 1.0
    return {"max_abs": float(np.max(np.abs(res.u))) if res.u.size else 0.0,
            "frac_within_1sd": frac}

