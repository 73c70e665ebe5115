"""Nuisance learners: closed-form OLS and from-scratch gradient-boosted
regression trees, plus k-fold utilities and a small grid search.

Both learners are deterministic given their inputs. Trees find splits on
histograms: each ensemble bins every column once, one bin per distinct value
when a column has at most MAX_BINS of them (its splits are then exactly the
greedy midpoint splits) and at most MAX_BINS quantile bins otherwise. Ties
break to the lowest feature index, then the lowest threshold, so refitting
on identical data reproduces the model bit-for-bit. The grid search fits the
largest of the candidates that differ only in n_trees, scores the others on
its stage prefixes and keeps every candidate's out-of-fold predictions.
"""

from __future__ import annotations

import itertools
import json
from collections.abc import Iterator
from dataclasses import astuple, dataclass, field, fields, replace

import numpy as np

from .errors import (
    BadK,
    ConfigError,
    ConstantTarget,
    DimensionMismatch,
    LengthMismatch,
    RankDeficient,
    TooFewRows,
)


@dataclass
class LinearModel:
    """One fitted target, or several fitted on the same features (one row each)."""

    intercept: float | np.ndarray  # (m,) for m targets
    coefficients: np.ndarray  # one weight per feature; (m, features) for m targets


@dataclass
class HyperParams:
    n_trees: int = 100
    max_depth: int = 3
    learning_rate: float = 0.1
    min_samples_leaf: int = 20

    def validate(self) -> None:
        # types first (a grid file's JSON may hold any), so the checks below
        # compare numbers; bool never counts as a number
        for name, value in vars(self).items():
            kinds = (int, float) if name == "learning_rate" else int
            if isinstance(value, bool) or not isinstance(value, kinds):
                raise ConfigError(f"{name} cannot be {type(value).__name__} {value!r}")
        if self.n_trees < 0:
            raise ConfigError("n_trees must be >= 0")
        if self.max_depth < 0:
            raise ConfigError("max_depth must be >= 0")
        if not 0 < self.learning_rate <= 1:
            raise ConfigError("learning_rate must be in (0, 1]")
        if self.min_samples_leaf < 1:
            raise ConfigError("min_samples_leaf must be >= 1")


@dataclass
class RegressionTree:
    """Flat-array binary tree. Leaves point to themselves so vectorized
    routing can run a fixed number of steps."""

    feature: np.ndarray
    threshold: np.ndarray
    left: np.ndarray
    right: np.ndarray
    value: np.ndarray
    depth: int

    def leaf_values(self, flat: np.ndarray, base: np.ndarray) -> np.ndarray:
        """Leaf value of each row whose features start at flat[base[i]]
        (see `staged_predict`)."""
        node = np.zeros(base.size, dtype=np.int64)
        for _ in range(self.depth):
            go_left = flat[base + self.feature[node]] <= self.threshold[node]
            node = np.where(go_left, self.left[node], self.right[node])
        return self.value[node]


@dataclass
class GbtModel:
    base_score: float
    learning_rate: float
    trees: list[RegressionTree] = field(default_factory=list)
    n_features: int = 0


def _as_xy(X, y, multi: bool = False) -> tuple[np.ndarray, np.ndarray]:
    """X as a 2-D array and y as one target, or with `multi` one target per row."""
    X = np.asarray(X, dtype=float)
    if X.ndim == 1:
        X = X[:, None]
    y = np.asarray(y, dtype=float)
    if X.ndim != 2:
        raise DimensionMismatch("X must be 2-dimensional")
    if y.ndim not in ((1, 2) if multi else (1,)) or y.shape[-1] != X.shape[0]:
        raise LengthMismatch(f"y has {y.size} entries for {X.shape[0]} rows of X")
    return X, y


def ols_fit(X, y) -> LinearModel:
    """Least squares on the design X, whose column 0 is the intercept (all
    ones), solved by QR. The model holds column 0's weight as its intercept
    and one coefficient per other column: the features `predict` takes.

    `y` is one target of shape (n,) or m targets of shape (m, n). The design
    is factored once for all targets, and each target is solved on its own,
    so every fit is bit-identical to fitting that target alone.

    The QR reads X column-major, the layout LAPACK factors, so the
    reflectors and the bits of every fit do not depend on X's memory order.
    A column-major X (see `dml.design_rows`) is factored as it is, and
    numpy's copy for the QR is then the only other n-row array the fit
    holds; any other X is first copied column-major. The factorization is
    kept as its Householder reflectors: Q.T @ target is the target with each
    reflector applied in turn, so the n-row Q is never formed.

    Raises RankDeficient when X does not have full column rank -- a constant
    feature beside the intercept is the usual culprit.
    """
    X, y = _as_xy(X, y, multi=True)
    n, k = X.shape
    if not (k and (X[:, 0] == 1.0).all()):
        raise DimensionMismatch("column 0 of an OLS design must be the intercept, all ones")
    if n <= k:
        raise TooFewRows(f"need more than {k} rows to fit {k - 1} features, got {n}")
    h, tau = np.linalg.qr(np.asfortranarray(X), mode="raw")
    R = np.triu(h[:, :k].T)
    diag = np.abs(np.diag(R))
    if diag.min() <= max(n, k) * np.finfo(float).eps * max(diag.max(), 1.0):
        raise RankDeficient("design matrix is rank deficient")
    # Row i of h from column i on is reflector i, whose leading 1 LAPACK
    # leaves implicit (R's diagonal sits there); write it in.
    h[np.arange(k), np.arange(k)] = 1.0
    beta = []
    for target in np.atleast_2d(y):
        t = target.copy()
        for i in range(k):
            v = h[i, i:]
            t[i:] -= (tau[i] * (v @ t[i:])) * v
        beta.append(np.linalg.solve(R, t[:k]))
    beta = np.stack(beta)
    if y.ndim == 1:
        return LinearModel(intercept=float(beta[0, 0]), coefficients=beta[0, 1:])
    return LinearModel(intercept=beta[:, 0], coefficients=beta[:, 1:])


MAX_BINS = 256  # a column with at most this many distinct values is split exactly


@dataclass
class _Bins:
    """One training matrix's columns cut into at most MAX_BINS value ranges.

    codes[i, j] is row i's bin in column j plus j * width, so one flat
    bincount over a node's rows fills every column's histogram. lo[j, b] and
    hi[j, b] are the smallest and largest training value in bin b of column j;
    a column with fewer than `width` bins leaves the rest empty. counts and
    left_n are the row counts of every training row and their running sums
    along each column: the root histogram's counts at every stage. Counts
    are int32 here and in every histogram: half the memory that each node's
    histograms hold as int64, and exact below 2**31 rows.
    """

    codes: np.ndarray  # (n, p) flat bin index
    lo: np.ndarray  # (p, width)
    hi: np.ndarray  # (p, width)
    counts: np.ndarray  # (p, width) int32
    left_n: np.ndarray  # (p, width) int32


def _bin_columns(X: np.ndarray) -> _Bins:
    """One bin per distinct value for columns with at most MAX_BINS of them;
    otherwise at most MAX_BINS quantile bins."""
    n, p = X.shape
    los, his = [], []
    for j in range(p):
        xs = np.sort(X[:, j])
        distinct = np.unique(xs)
        if distinct.size <= MAX_BINS:
            upper = distinct[:-1]
        else:
            upper = np.unique(xs[np.arange(1, MAX_BINS) * n // MAX_BINS])
            upper = upper[upper < xs[-1]]
        # bin b holds the values in (upper[b-1], upper[b]]
        his.append(np.r_[upper, xs[-1]])
        los.append(np.r_[xs[0], xs[np.searchsorted(xs, upper, side="right")]])
    width = max((h.size for h in his), default=1)
    lo = np.full((p, width), np.nan)
    hi = np.full((p, width), np.nan)
    codes = np.empty((n, p), dtype=np.intp)
    for j, (l, h) in enumerate(zip(los, his)):
        lo[j, : l.size] = l
        hi[j, : h.size] = h
        codes[:, j] = np.searchsorted(h[:-1], X[:, j]) + j * width
    counts = np.bincount(codes.ravel(), minlength=lo.size).astype(np.int32).reshape(lo.shape)
    return _Bins(codes, lo, hi, counts, counts.cumsum(axis=1, dtype=np.int32))


def _histogram(bins: _Bins, resid: np.ndarray, rows: np.ndarray):
    """Residual sums, row counts and cumulative row counts (running along each
    column) per (column, bin) over `rows`, a set of distinct row indices.

    When `rows` holds every training row, the counts are the ones `bins`
    holds and the sums are one bincount over all codes, with no row gather.
    """
    shape = bins.lo.shape
    if rows.size == bins.codes.shape[0]:
        sums = np.bincount(bins.codes.ravel(), weights=resid.repeat(shape[0]),
                           minlength=bins.lo.size)
        return sums.reshape(shape), bins.counts, bins.left_n
    flat = bins.codes.take(rows, axis=0).ravel()
    sums = np.bincount(flat, weights=resid[rows].repeat(shape[0]), minlength=bins.lo.size)
    counts = np.bincount(flat, minlength=bins.lo.size).astype(np.int32).reshape(shape)
    return sums.reshape(shape), counts, counts.cumsum(axis=1, dtype=np.int32)


def _best_split(
    bins: _Bins, hist, total: float, n: int, min_leaf: int
) -> tuple[int, float] | None:
    """Best variance-reduction split point over a node's histograms.

    A split point is the upper end of a bin that is non-empty in the node.
    Candidates are scanned in one flat argmax, feature-major with bins
    ascending, so ties break to the lowest feature index and then the lowest
    threshold. The threshold is the midpoint between the left bin's largest
    value and the smallest value of the next bin non-empty in the node; on a
    column with one bin per value that is the exact greedy threshold. Returns
    None when no split has strictly positive gain with both children
    >= min_leaf.
    """
    sums, counts, left_n = hist
    cand = ((counts > 0) & (left_n >= min_leaf) & (left_n <= n - min_leaf)).ravel().nonzero()[0]
    if cand.size == 0:
        return None
    left_sum = sums.cumsum(axis=1).ravel()[cand]
    left_n = left_n.ravel()[cand]
    right_sum = total - left_sum
    gain = (
        left_sum * left_sum / left_n
        + right_sum * right_sum / (n - left_n)
        - total * total / n
    )
    k = int(gain.argmax())
    if not gain[k] > 0.0:
        return None
    j, b = divmod(int(cand[k]), sums.shape[1])
    nxt = b + 1 + int(counts[j, b + 1 :].nonzero()[0][0])
    return j, float((bins.hi[j, b] + bins.lo[j, nxt]) / 2.0)


def _fit_tree(
    X: np.ndarray,
    bins: _Bins,
    resid: np.ndarray,
    max_depth: int,
    min_leaf: int,
    step: np.ndarray,
) -> RegressionTree:
    """Grow one tree on every training row, writing each row's leaf value
    into `step`.

    Only the smaller child of a split gets its own histogram; the larger
    one's is the parent's minus the smaller's, counts and cumulative counts
    included (exact integers). Rows are routed by the stored threshold, read
    from the split column's view, so `predict` sends every training row to
    the leaf it grew in.
    """
    feature: list[int] = []
    threshold: list[float] = []
    left: list[int] = []
    right: list[int] = []
    value: list[float] = []

    def can_split(node_rows: np.ndarray, depth: int) -> bool:
        return depth < max_depth and node_rows.size >= 2 * min_leaf

    # depth first, left child first: (rows, histogram, depth, parent, parent's
    # child list -- left or right -- that gets this node's index)
    rows = np.arange(resid.size)
    stack = [(rows, _histogram(bins, resid, rows) if can_split(rows, 0) else None, 0, 0, None)]
    while stack:
        node_rows, hist, depth, parent, child_of = stack.pop()
        idx = len(feature)
        if child_of is not None:
            child_of[parent] = idx
        total = float(resid[node_rows].sum())
        feature.append(0)
        threshold.append(np.inf)
        left.append(idx)
        right.append(idx)
        value.append(total / node_rows.size)
        split = None if hist is None else _best_split(bins, hist, total, node_rows.size, min_leaf)
        if split is None:
            step[node_rows] = value[idx]
            continue
        feature[idx], threshold[idx] = split
        go_left = X[:, feature[idx]][node_rows] <= threshold[idx]
        children = [node_rows[go_left], node_rows[~go_left]]
        hists = [None, None]
        big = int(children[1].size > children[0].size)
        if can_split(children[big], depth + 1):
            small = _histogram(bins, resid, children[1 - big])
            hists[big] = (hist[0] - small[0], hist[1] - small[1], hist[2] - small[2])
            if can_split(children[1 - big], depth + 1):
                hists[1 - big] = small
        stack.append((children[1], hists[1], depth + 1, idx, right))
        stack.append((children[0], hists[0], depth + 1, idx, left))
    return RegressionTree(
        np.asarray(feature, dtype=np.int64),
        np.asarray(threshold, dtype=float),
        np.asarray(left, dtype=np.int64),
        np.asarray(right, dtype=np.int64),
        np.asarray(value, dtype=float),
        max_depth,
    )


def gbt_fit(X, y, params: HyperParams | None = None) -> GbtModel:
    """Stagewise least-squares boosting on raw residuals (Friedman 2001).

    The model starts at the training mean; each stage fits a depth-limited
    tree to the current residuals on every training row and the prediction
    moves by learning_rate times the leaf mean. Leaf values are stored
    unscaled; the learning rate is applied at prediction time. X is binned
    once for all stages.
    """
    params = params or HyperParams()
    params.validate()
    X, y = _as_xy(X, y)
    n = X.shape[0]
    if n < max(2, 2 * params.min_samples_leaf) and params.n_trees > 0 and params.max_depth > 0:
        raise TooFewRows(
            f"need at least {2 * params.min_samples_leaf} rows to split, got {n}"
        )
    if n < 1:
        raise TooFewRows("need at least 1 row")
    model = GbtModel(
        base_score=float(y.mean()),
        learning_rate=params.learning_rate,
        n_features=X.shape[1],
    )
    fitted = np.full(n, model.base_score)
    bins = _bin_columns(X) if params.n_trees > 0 else None
    step = np.empty(n)
    for _ in range(params.n_trees):
        tree = _fit_tree(X, bins, y - fitted, params.max_depth, params.min_samples_leaf, step)
        model.trees.append(tree)
        fitted += params.learning_rate * step
    return model


def staged_predict(model: GbtModel, X: np.ndarray) -> Iterator[np.ndarray]:
    """The ensemble's prediction on the rows of X after 0, 1, ..., n_trees
    stages, each a new array.

    Routing reads X as one flat row-major array, each row's feature f at its
    offset plus f, with one gather per tree level.
    """
    flat, base = X.ravel(), np.arange(X.shape[0]) * X.shape[1]
    pred = np.full(X.shape[0], model.base_score)
    yield pred
    for tree in model.trees:
        pred = pred + model.learning_rate * tree.leaf_values(flat, base)
        yield pred


def predict(model, X) -> np.ndarray:
    """Evaluate a LinearModel or GbtModel on new rows; a LinearModel of m
    targets gives an (m, rows) array."""
    X = np.asarray(X, dtype=float)
    if X.ndim == 1:
        X = X[:, None]
    if X.ndim != 2:
        raise DimensionMismatch("X must be 2-dimensional")
    if isinstance(model, LinearModel):
        coef = model.coefficients
        if X.shape[1] != coef.shape[-1]:
            raise DimensionMismatch(f"model expects {coef.shape[-1]} features, got {X.shape[1]}")
        if coef.ndim == 2:
            # one row of predictions per target, each computed as a single
            # target's model computes it
            return np.stack([X @ c + b for c, b in zip(coef, model.intercept)])
        return X @ coef + model.intercept
    if isinstance(model, GbtModel):
        if X.shape[1] != model.n_features:
            raise DimensionMismatch(
                f"model expects {model.n_features} features, got {X.shape[1]}"
            )
        for out in staged_predict(model, X):
            pass
        return out
    raise TypeError(f"unsupported model type {type(model).__name__}")


def mse(y_true, y_pred) -> float:
    y_true = np.asarray(y_true, dtype=float)
    y_pred = np.asarray(y_pred, dtype=float)
    if y_true.shape != y_pred.shape:
        raise LengthMismatch("y_true and y_pred must have the same length")
    diff = y_true - y_pred
    return float(diff @ diff / diff.size)


def staged_mse(model: GbtModel, X, y) -> np.ndarray:
    """MSE of the ensemble truncated after 0, 1, ..., n_trees stages.

    With squared-error boosting and learning_rate in (0, 1] each stage can
    only shrink the training loss, so this curve is non-increasing.
    """
    X, y = _as_xy(X, y)
    return np.array([mse(y, pred) for pred in staged_predict(model, X)])


def r2(y_true, y_pred) -> float:
    y_true = np.asarray(y_true, dtype=float)
    y_pred = np.asarray(y_pred, dtype=float)
    if y_true.shape != y_pred.shape:
        raise LengthMismatch("y_true and y_pred must have the same length")
    centered = y_true - y_true.mean()
    tss = float(centered @ centered)
    if tss == 0.0:
        raise ConstantTarget("R^2 undefined for a constant target")
    diff = y_true - y_pred
    return 1.0 - float(diff @ diff) / tss


def kfold_split(n: int, k: int, seed: int = 0) -> list[np.ndarray]:
    """Seeded shuffle of 0..n-1 partitioned into k folds.

    Fold sizes differ by at most one; the folds are disjoint and their union
    is the full index range. Each fold is returned sorted.
    """
    if k < 2 or k > n:
        raise BadK(f"k must satisfy 2 <= k <= n, got k={k}, n={n}")
    rng = np.random.default_rng(seed)
    perm = rng.permutation(n)
    return [np.sort(fold) for fold in np.array_split(perm, k)]


def train_test_folds(folds: list[np.ndarray]) -> list[tuple[np.ndarray, np.ndarray]]:
    """(train, test) index pairs: each fold in turn is the test set."""
    pairs = []
    for i, test in enumerate(folds):
        train = np.sort(np.concatenate([f for j, f in enumerate(folds) if j != i]))
        pairs.append((train, test))
    return pairs


DEFAULT_GRID: list[HyperParams] = [
    HyperParams(n_trees=t, max_depth=d, learning_rate=lr, min_samples_leaf=20)
    for t, d, lr in itertools.product((50, 200), (2, 4), (0.1, 0.3))
]


def grid_from_json(text: str) -> list[HyperParams]:
    """Parse a JSON array of hyperparameter objects into a grid."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"grid JSON is malformed: {exc}") from exc
    if not isinstance(doc, list) or not doc:
        raise ConfigError("grid JSON must be a non-empty array of objects")
    grid = []
    for i, entry in enumerate(doc):
        if not isinstance(entry, dict):
            raise ConfigError(f"grid entry {i} is not an object")
        unknown = set(entry) - {f.name for f in fields(HyperParams)}
        if unknown:
            raise ConfigError(f"grid entry {i} has unknown keys {sorted(unknown)}")
        params = HyperParams(**entry)
        params.validate()
        grid.append(params)
    return grid


@dataclass
class CvRow:
    """One grid candidate's cross-validated scores and out-of-fold
    predictions; a candidate that failed has none."""

    params: HyperParams
    cv_mse: float
    cv_r2: float
    oof: np.ndarray | None = field(default=None, repr=False, compare=False)

    @property
    def failed(self) -> bool:
        return self.oof is None


def _staged_cv_scores(design, y, pairs, n_trees: list[int], params: HyperParams):
    """Mean out-of-fold (mse, r2) and the out-of-fold predictions after each
    of the stage counts in n_trees.

    One ensemble of max(n_trees) trees is fitted per fold on the fold's
    design, `design(train)`'s training rows, and predicts its test rows; a
    shorter ensemble is its prefix, because boosting is deterministic and
    stagewise. Test predictions come from `staged_predict`, as in `predict`,
    so each prediction, and so each score, equals that of a separate fit on
    the same design bit for bit.
    """
    stops = set(n_trees)
    losses = {t: [] for t in stops}
    scores = {t: [] for t in stops}
    oof = {t: np.empty(y.size) for t in stops}
    for train, test in pairs:
        rows_of = design(train)
        model = gbt_fit(rows_of(train), y[train], replace(params, n_trees=max(stops)))
        y_test = y[test]
        for stage, pred in enumerate(staged_predict(model, rows_of(test))):
            if stage in stops:
                losses[stage].append(mse(y_test, pred))
                scores[stage].append(r2(y_test, pred))
                oof[stage][test] = pred
    return [(float(np.mean(losses[t])), float(np.mean(scores[t])), oof[t]) for t in n_trees]


def grid_search_cv(
    X,
    y,
    grid: list[HyperParams] | None = None,
    k: int = 2,
    seed: int = 0,
) -> tuple[HyperParams, list[CvRow]]:
    """Pick boosted-tree settings by k-fold out-of-fold MSE.

    X is the (n, p) feature matrix, or a function of a fold's training rows
    that returns the fold's design: a function of rows that gives their
    features (`dml.PlrProblem.fold_design`). A matrix's fold design gives
    X[rows]. The folds are `kfold_split(n, k, seed)`'s, the ones
    `dml.cross_fit_nuisance` uses, and each table row keeps its candidate's
    out-of-fold predictions (`CvRow.oof`): the winner's are the ones a
    cross-fit with the winner makes, bit for bit.

    Candidates that differ only in n_trees share one fit per fold of the
    largest (see _staged_cv_scores). A candidate whose fit fails on any fold
    is marked failed (infinite MSE) rather than aborting the search; when a
    shared fit fails, each candidate of its group is scored on its own, so a
    failure marks only the candidates that fail by themselves. Ties break by
    (mse, n_trees, max_depth) so the winner is deterministic; the winner's
    row is the first whose params equal it.
    """
    grid = DEFAULT_GRID if grid is None else grid
    if not grid:
        raise ConfigError("hyperparameter grid is empty")
    if callable(X):
        design, y = X, np.asarray(y, dtype=float)
    else:
        X, y = _as_xy(X, y)

        def design(train):
            return X.__getitem__
    pairs = train_test_folds(kfold_split(y.size, k, seed))

    def score(batch: list[int]) -> list[tuple[float, float, np.ndarray]]:
        for i in batch:
            grid[i].validate()
        params = grid[batch[0]]
        return _staged_cv_scores(design, y, pairs, [grid[i].n_trees for i in batch], params)

    groups: dict[tuple, list[int]] = {}
    for i, params in enumerate(grid):
        groups.setdefault(astuple(replace(params, n_trees=0)), []).append(i)
    cv: dict[int, tuple[float, float, np.ndarray] | None] = {}
    for members in groups.values():
        try:
            cv.update(zip(members, score(members)))
        except Exception:
            # score each alone, so only the candidates that fail by themselves are marked
            for i in members:
                try:
                    cv[i] = score([i])[0]
                except Exception:
                    cv[i] = None
    table = [
        CvRow(replace(params), float("inf"), float("-inf"))
        if cv[i] is None
        else CvRow(replace(params), *cv[i])
        for i, params in enumerate(grid)
    ]
    best = min(table, key=lambda row: (row.cv_mse, row.params.n_trees, row.params.max_depth))
    return replace(best.params), table
