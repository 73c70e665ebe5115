"""Cross-fitted double machine learning for the partially linear model

    y = theta * d + g(x) + u,        d = m(x) + v.

Nuisances g and m are fit on held-out folds; theta solves a score on the
pooled out-of-fold residuals. The default score's derivative in m is not
zero, so errors in m_hat move theta to first order (see `plr_estimate`).
"""

from __future__ import annotations

import functools
import math
from dataclasses import astuple, dataclass, field, replace
from decimal import Decimal

import numpy as np

from .errors import (
    BadK,
    BadKind,
    ConfigError,
    DataError,
    DegenerateTreatment,
    LengthMismatch,
    MacrodmlError,
)
from .learners import (
    GroupedRows,
    HyperParams,
    gbt_fit,
    mse,
    ols_fit,
    one_blas_thread,
    predict,
    r2,
    staged_predict,
)
from .panel_data import PanelTable, own_lags, x_rows

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
        if self.kind == "boosted" and self.params is None:
            raise ConfigError("a boosted learner needs its params")


@dataclass
class PlrProblem:
    """One partially linear regression problem, optionally panel-aware.

    x is the (n, p) control matrix, or for a panel the PanelTable whose rows
    `design_rows` gathers, so a panel's x is never held whole; the panel
    alone holds each row's fund and month (its unit and month codes).
    """

    y: np.ndarray
    d: np.ndarray
    x: np.ndarray | PanelTable

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
        # a panel's unused lag slots hold NaN; to_panel keeps only its finite rows
        for name in ("y", "d") if isinstance(self.x, PanelTable) else ("y", "d", "x"):
            if not np.isfinite(getattr(self, name)).all():
                raise DataError(f"{name} holds a non-finite value")
        if n and np.ptp(self.d) == 0.0:
            raise DegenerateTreatment("treatment is constant across rows")

    @property
    def n_obs(self) -> int:
        return int(self.y.size)

    def folds(self, k: int, seed: int = 0):
        """The one fold plan that tuning and cross-fitting share: a seeded
        shuffle of the rows cut into k folds, as the (train, test) row index
        pairs, each fold in turn the test set, and each row's fold.

        Fold sizes differ by at most one; the test sets are disjoint and their
        union is every row. Every index array is sorted.
        """
        n = self.n_obs
        if k < 2 or k > n:
            raise BadK(f"k must satisfy 2 <= k <= n, got k={k}, n={n}")
        fold_of = np.empty(n, dtype=np.int64)
        for i, fold in enumerate(np.array_split(np.random.default_rng(seed).permutation(n), k)):
            fold_of[fold] = i
        pairs = [(np.flatnonzero(fold_of != i), np.flatnonzero(fold_of == i)) for i in range(k)]
        return pairs, fold_of

    def fold_design(self, train):
        """rows -> those rows of the design of the fold whose training rows
        are `train`, as one matrix: x itself, or, for a panel, x joined with
        the fund outcome means of the `train` rows (see `design_rows`). The
        boosted learner fits on it; a linear panel fold takes the same rows
        as month groups (`month_rows`)."""
        if isinstance(self.x, PanelTable):
            means = encode_features(self, train)
        else:
            means = np.empty((self.n_obs, 0))
        return functools.partial(design_rows, self.x, means)


def problem_from_panel(panel: PanelTable) -> PlrProblem:
    """The panel's arrays, shared, not copied; x is the panel itself."""
    return PlrProblem(panel.y, panel.d, panel)


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


def staged_oof(problem: PlrProblem, pairs, task: str, params: HyperParams,
               stages: list[int]) -> dict[int, np.ndarray]:
    """Stage count -> the out-of-fold predictions of the problem's `task`
    target ("y" or "d") by a boosted ensemble of `params` cut after that
    many trees, for each count in `stages`.

    One ensemble of max(stages) trees is fitted per fold on the fold's
    design (`PlrProblem.fold_design`) and predicts the fold's test rows; a
    shorter ensemble is its prefix, because boosting is deterministic and
    stagewise, so its predictions are `staged_predict`'s at that stage, the
    bits a separate fit of that many trees gives. A package error names its
    fold and task.
    """
    target = getattr(problem, task)
    oof = {t: np.empty(problem.n_obs) for t in stages}
    for i, (train, test) in enumerate(pairs):
        rows_of = problem.fold_design(train)
        try:
            model = gbt_fit(rows_of(train), target[train], replace(params, n_trees=max(stages)))
        except MacrodmlError as exc:
            raise type(exc)(f"fold {i}, {task}-task: {exc}") from exc
        for stage, pred in enumerate(staged_predict(model, rows_of(test))):
            if stage in oof:
                oof[stage][test] = pred
    return oof


def encode_features(problem: PlrProblem, train: np.ndarray) -> np.ndarray:
    """Each row's fund mean of the outcome over the `train` rows, a sorted
    index array (target encoding of the fund id, a fixed-effect proxy), as
    the (n, 1) block that `design_rows` appends to x.

    Rows are grouped by the unit codes of the problem's panel x. A fund with
    no training row gets the mean of all training rows; `train` must hold at
    least one row (a fold complement always does).
    """
    panel = problem.x
    train_codes, train_y = panel.unit_codes[train], problem.y[train]
    counts = np.bincount(train_codes, minlength=len(panel.units))
    sums = np.bincount(train_codes, weights=train_y, minlength=len(panel.units))
    means = np.where(counts > 0, sums / np.maximum(counts, 1), train_y.mean())
    return means[panel.unit_codes][:, None]


_ROW_BLOCK = 2048  # rows gathered per step of design_rows; a block stays in cache


def design_rows(x: np.ndarray | PanelTable, means: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """x[rows] with means[rows] appended, copied straight into one
    row-major array a block of rows at a time, so selecting rows never
    builds the full matrix first. x is a matrix or a PanelTable, whose rows
    `panel_data.x_rows` gathers.
    """
    panel = isinstance(x, PanelTable)
    p = len(x.x_names) if panel else x.shape[1]
    rows = np.asarray(rows)
    out = np.empty((rows.size, p + means.shape[1]))
    for start in range(0, rows.size, _ROW_BLOCK):
        block = rows[start:start + _ROW_BLOCK]
        dest = out[start:start + _ROW_BLOCK]
        if panel:
            x_rows(x, block, dest[:, :p])
        else:
            dest[:, :p] = x[block]
        dest[:, p:] = means[block]
    return out


def month_rows(panel: PanelTable, means: np.ndarray, rows: np.ndarray) -> GroupedRows:
    """The rows `design_rows(panel, means, rows)` copies, as month groups
    (`learners.GroupedRows`): every x column but the own-return lags is the
    month's month_x row, so only the lags and the outcome-mean column vary
    within a month, and no x row is gathered."""
    p = panel.lag_order
    varying = np.empty((p + 1, len(rows))).T  # column-major
    own_lags(panel, rows, varying[:, :p])
    varying[:, p] = means[rows, 0]
    shared = np.column_stack([panel.month_x, np.zeros(len(panel.months))])
    return GroupedRows(shared, panel.month_codes[rows], varying,
                       panel.lag_columns + [shared.shape[1] - 1])


def cross_fit_nuisance(
    problem: PlrProblem,
    learner: LearnerSpec,
    k: int = 2,
    seed: int = 0,
    g_hat: np.ndarray | None = None,
) -> NuisanceResiduals:
    """Fit both nuisances with K-fold cross-fitting over rows.

    Every row is predicted by models trained on the complement of its fold.
    For a panel the fund outcome means are recomputed inside each training
    complement, so held-out rows never leak into the means they receive. A
    boosted fold's training and test rows are copied straight from x (for a
    panel, its month table and fund returns) and that column
    (`PlrProblem.fold_design`). A linear fold fits and predicts a
    cross-sectional x's rows, and a panel's rows as month groups
    (`month_rows`), a few rows per month, so no x row is gathered; its
    predictions match the gathered rows' fit to rounding. The stored
    r2_y/r2_d are `learners.r2` of the pooled out-of-fold predictions, so a
    constant target raises ConstantTarget.

    A given `g_hat` is taken as the y task's out-of-fold predictions, made
    on these folds and fold designs (`grid_search_cv`'s winner's are), and
    only the d task is fit.

    A package error names its fold and task. A linear fold fits both tasks
    from one QR, which only the training rows can make fail, and the first
    task meets it first, so its errors name that task, as they would when
    the tasks are fit in turn.
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
    pairs, fold_of = problem.folds(k, seed)
    if learner.kind == "boosted":
        params = learner.params
        for task in targets:
            preds[task] = staged_oof(problem, pairs, task, params, [params.n_trees])[params.n_trees]
    else:
        for i, (train, test) in enumerate(pairs):
            if isinstance(problem.x, PanelTable):
                rows_of = functools.partial(month_rows, problem.x, encode_features(problem, train))
            else:
                rows_of = problem.x.__getitem__
            try:
                model = ols_fit([rows_of(train)], np.stack([t[train] for t in targets.values()]))
            except MacrodmlError as exc:
                raise type(exc)(f"fold {i}, {next(iter(targets))}-task: {exc}") from exc
            for task, pred in zip(targets, predict(model, rows_of(test))):
                preds[task][test] = pred
    g_hat, m_hat = preds["y"], preds["d"]
    return NuisanceResiduals(problem.y - g_hat, problem.d - m_hat, fold_of,
                             r2(problem.y, g_hat), r2(problem.d, m_hat), g_hat, m_hat)


@dataclass
class CvRow:
    """One grid candidate's cross-validated scores and out-of-fold
    predictions; a candidate that failed has none."""

    params: HyperParams
    cv_mse: float
    cv_r2: float
    oof: np.ndarray | None = field(default=None, repr=False, compare=False)


def grid_search_cv(
    problem: PlrProblem,
    grid: list[HyperParams],
    k: int = 2,
    seed: int = 0,
) -> tuple[HyperParams, list[CvRow]]:
    """Pick boosted-tree settings for the y task by k-fold out-of-fold MSE.

    Every candidate is fit on `cross_fit_nuisance`'s folds
    (`PlrProblem.folds`) and fold designs, and each table row keeps its
    candidate's out-of-fold predictions (`CvRow.oof`): the winner's are the
    ones a cross-fit with the winner makes, bit for bit. A candidate's
    scores are the MSE and R^2 of its out-of-fold predictions over all
    rows, as the cross-fit reports its nuisances, so the winner's cv_r2 is
    the boosted r2_y.

    Candidates that differ only in n_trees share one fit per fold of the
    largest (see `staged_oof`). A candidate whose fit raises a package
    error (`MacrodmlError`) on any fold is marked failed (infinite MSE)
    rather than aborting the search; any other exception, a MemoryError say,
    propagates, so the winner never depends on the machine. When a shared
    fit fails, each candidate of its group is scored on its own, so a
    failure marks only the candidates that fail by themselves. Ties break by
    (mse, n_trees, max_depth) so the winner is deterministic; the winner's
    row is the first whose params equal it.
    """
    if not grid:
        raise ConfigError("hyperparameter grid is empty")
    pairs, _ = problem.folds(k, seed)
    y = problem.y

    def score(batch: list[int]) -> list[tuple[float, float, np.ndarray]]:
        for i in batch:
            grid[i].validate()
        stages = [grid[i].n_trees for i in batch]
        oof = staged_oof(problem, pairs, "y", grid[batch[0]], stages)
        return [(mse(y, oof[t]), r2(y, oof[t]), oof[t]) for t in stages]

    groups: dict[tuple, list[int]] = {}
    for i, params in enumerate(grid):
        groups.setdefault(astuple(replace(params, n_trees=0)), []).append(i)
    cv: dict[int, tuple[float, float, np.ndarray] | None] = {}
    for members in groups.values():
        try:
            cv.update(zip(members, score(members)))
        except MacrodmlError:
            # score each alone, so only the candidates that fail by themselves are marked
            for i in members:
                try:
                    cv[i] = score([i])[0]
                except MacrodmlError:
                    cv[i] = None
    table = [
        CvRow(replace(params), float("inf"), float("-inf"))
        if cv[i] is None
        else CvRow(replace(params), *cv[i])
        for i, params in enumerate(grid)
    ]
    best = min(table, key=lambda row: (row.cv_mse, row.params.n_trees, row.params.max_depth))
    return replace(best.params), table


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


def plr_estimate(res: NuisanceResiduals, d, score: str = "orthogonal") -> DmlResult:
    """Solve the score on pooled residuals and attach Wald inference.

    Both scores are psi_i = (u_i - theta * slope_i) * v_i, solved by
    theta = sum(v * u) / sum(v * slope), with J = mean(v * slope), where
    slope = d for orthogonal and slope = v for residual_ols (partialling
    out); SE = sqrt( mean(psi^2) / (n * J^2) ).
    """
    if score not in SCORES:
        raise ConfigError(f"score must be one of {SCORES}, got {score!r}")
    d = np.asarray(d, dtype=float)
    u, v = res.u, res.v
    n = v.size
    if d.size != n:
        raise LengthMismatch("d must match the residual length")
    if float(v @ v) < 1e-12 * n:
        raise DegenerateTreatment("treatment residuals are numerically zero")
    slope = d if score == "orthogonal" else v
    jac = float(v @ slope) / n
    if abs(jac) < 1e-12:
        raise DegenerateTreatment("score Jacobian mean(v*slope) is numerically zero")
    theta = float(v @ u) / (n * jac)
    psi = (u - theta * slope) * v
    se = math.sqrt(float(psi @ psi) / n / (n * jac * jac))
    t, p, lo, hi = wald_inference(theta, se)
    return DmlResult(
        theta=theta, se=se, t=t, p=p, ci_low=lo, ci_high=hi,
        n=n, per_1pct=rescale_per_1pct(theta),
    )


@one_blas_thread()
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
    `cross_fit_nuisance`). Runs on one BLAS thread (`one_blas_thread`), so
    the result does not depend on the core count."""
    res = cross_fit_nuisance(problem, learner, k, seed, g_hat)
    return plr_estimate(res, problem.d, score), res


def residual_diagnostics(res: NuisanceResiduals) -> dict[str, float]:
    """Summary statistics of the out-of-fold outcome residual u: the largest
    |u| and the fraction within one standard deviation of zero (= 0.683 for
    Gaussian residuals).
    """
    sd = float(res.u.std())
    frac = float(np.mean(np.abs(res.u) <= sd)) if sd > 0 else 1.0
    return {"max_abs": float(np.max(np.abs(res.u))) if res.u.size else 0.0,
            "frac_within_1sd": frac}

