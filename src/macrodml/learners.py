"""Nuisance learners: closed-form OLS and from-scratch gradient-boosted
regression trees, plus the default tuning grid. `ols_fit` is the package's
one least-squares solve, and its `_householder_qr` the one QR factorization:
the DML linear learner, the ADF test and the VAR lag search all fit through
it. `one_blas_thread` is the scope the estimation entry points run in.

Both learners are deterministic given their inputs. Trees find splits on
histograms: each ensemble bins every column once, one bin per distinct value
when a column has at most MAX_BINS of them (its splits are then exactly the
greedy midpoint splits) and at most MAX_BINS quantile bins otherwise. Ties
break to the lowest feature index, then the lowest threshold, so refitting
on identical data reproduces the model bit-for-bit.
"""

from __future__ import annotations

import contextlib
import ctypes
import itertools
import json
from collections.abc import Iterable, Iterator
from dataclasses import dataclass, field, fields

import numpy as np

from .errors import (
    ConfigError,
    ConstantTarget,
    DimensionMismatch,
    LengthMismatch,
    RankDeficient,
    TooFewRows,
)


@dataclass
class LinearModel:
    """m targets fitted on the same features, one row each."""

    intercept: np.ndarray  # (m,)
    coefficients: np.ndarray  # (m, features)


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
    routing can run a fixed number of steps: `depth`, the longest
    root-to-leaf path the tree grew, which may be less than its max_depth."""

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


def _blas_thread_calls():
    """(get, set) of the thread count of the OpenBLAS numpy links, or None.

    dlsym on numpy's own linear-algebra extension also searches the libraries
    it links, so no library path is guessed. The names are tried in order:
    numpy >= 2 wheels, then numpy 1.x wheels, each with and without the
    64-bit-integer suffix. Other BLAS libraries (MKL, Accelerate, BLIS) name
    no such pair, and on Windows the lookup does not search dependencies;
    there this returns None."""
    try:
        lib = ctypes.CDLL(np.linalg._umath_linalg.__file__)
    except OSError:
        return None
    for prefix, suffix in (("scipy_openblas", "64_"), ("scipy_openblas", ""),
                           ("openblas", "64_"), ("openblas", "")):
        try:
            get = getattr(lib, f"{prefix}_get_num_threads{suffix}")
            set_ = getattr(lib, f"{prefix}_set_num_threads{suffix}")
        except AttributeError:
            continue
        get.argtypes, get.restype = [], ctypes.c_int
        set_.argtypes, set_.restype = [ctypes.c_int], None
        return get, set_
    return None


BLAS_THREADS = _blas_thread_calls()


@contextlib.contextmanager
def one_blas_thread():
    """Run the block with OpenBLAS on one thread, then give the caller's
    thread count back, also when the block raises. Scopes nest.

    OpenBLAS splits a dot product of more than about 10,000 entries across
    its threads, so its rounding, and with it an estimate's last bits,
    would depend on the machine's core count; and its idle threads spin
    between the pipeline's many small calls. The count is process-wide, so
    a BLAS call made in another thread meanwhile runs on one thread too.
    Where BLAS_THREADS is None this does nothing."""
    if BLAS_THREADS is None:
        yield
        return
    get, set_ = BLAS_THREADS
    caller = get()
    set_(1)
    try:
        yield
    finally:
        set_(caller)


@dataclass
class GroupedRows:
    """The rows of a design X that is never formed whole: each row falls in
    a group, and every column of X but those at `at` holds one value per
    group. Row i is shared[group[i]] with varying[i] written over its
    columns `at`; shared's own entries there are never read. In a fund panel
    the groups are the months and the varying columns the fund's own lags
    (see `dml.month_rows`)."""

    shared: np.ndarray  # (groups, columns)
    group: np.ndarray  # (rows,) each row's group
    varying: np.ndarray  # (rows, len(at)), read fastest column-major
    at: list[int]

    def __len__(self) -> int:
        return self.group.size


GROUP_BLOCK = 4096  # padded group rows a target factored per batched QR


def _householder_qr(Z: np.ndarray, targets=()) -> tuple[np.ndarray, list[np.ndarray]]:
    """R of LAPACK's Householder QR of Z, read column-major, and each target's
    first len(R) entries of Q.T @ target: the target with the reflectors
    applied in turn, so Q is never formed. A stack of matrices gives the
    stack of their R; it takes no targets."""
    h, tau = np.linalg.qr(Z, mode="raw")
    R = np.triu(np.swapaxes(h[..., :tau.shape[-1]], -1, -2))
    # Row i of h from column i on is reflector i, whose leading 1 LAPACK
    # leaves implicit (R's diagonal sits there); write it in.
    diag = np.arange(tau.shape[-1])
    h[..., diag, diag] = 1.0
    heads = []
    for target in targets:
        t = target.copy()
        for i in range(tau.size):
            v = h[i, i:]
            t[i:] -= (tau[i] * (v @ t[i:])) * v
        heads.append(t[:tau.size])
    return R, heads


def _reduce_groups(X: GroupedRows, Y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Rows Z of [1, X], a few per group, and each target's entries for them,
    with the least-squares fit of all of X's rows.

    Group g's rows of [1, X] are [1, V] @ M_g: V holds their varying
    columns, and M_g sends the ones to [1, shared_g] (zero at `at`) and V's
    columns to `at`. For a target y, let R_g = [[R_v, h], [0, r]] be the R of
    the QR of the group's [1, V, y]. Then Z_g = R_v @ M_g with entries h has
    the group's Gram matrix of [1, X] and its [1, X].T @ y, so the stacked
    groups give the same fit. Each target gets its own QR, so its fit does
    not depend on the other targets; R_v comes out of the same steps
    whatever the target, and the first target's is used.

    Each group's rows are copied, in row order, into a column-major block
    padded with zero rows (exact, also for fewer rows than the block has
    columns), and up to GROUP_BLOCK padded rows a target are factored by one
    batched QR. A group with no rows drops out.
    """
    f, m = len(X.at), len(Y)
    width = 1 + f + 1
    sizes = np.bincount(X.group, minlength=len(X.shared))
    present = np.flatnonzero(sizes)
    sizes = sizes[present]
    starts = np.cumsum(sizes) - sizes
    order = np.argsort(X.group, kind="stable")  # the rows by group, in row order within one
    step = max(1, GROUP_BLOCK // max(int(sizes.max(initial=0)), width))
    R = np.empty((m, present.size, width, width))
    for lo in range(0, present.size, step):
        hi = min(lo + step, present.size)
        depth = max(int(sizes[lo:hi].max()), width)
        rows = order[starts[lo]:starts[hi - 1] + sizes[hi - 1]]
        # each row's place: its group's block, then its slot in the group
        pos = np.repeat(np.arange(hi - lo) * (width * depth) - (starts[lo:hi] - starts[lo]),
                        sizes[lo:hi]) + np.arange(rows.size)
        block = np.zeros((m, hi - lo, width, depth))
        flat = block.reshape(-1)
        flat[pos] = 1.0
        for c in range(f):
            flat[pos + (1 + c) * depth] = X.varying[rows, c]
        block[1:, :, :-1] = block[0, :, :-1]
        for j in range(m):
            flat[pos + (j * (hi - lo) * width + width - 1) * depth] = Y[j, rows]
        R[:, lo:hi] = _householder_qr(block.transpose(0, 1, 3, 2))[0]
    at = 1 + np.asarray(X.at, dtype=np.intp)  # X's columns `at` in [1, X]
    M = np.zeros((present.size, 1 + X.shared.shape[1]))
    M[:, 0], M[:, 1:] = 1.0, X.shared[present]
    M[:, at] = 0.0
    Z = R[0, :, :-1, :1] * M[:, None, :]
    Z[:, :, at] = R[0, :, :-1, 1:-1]
    return Z.reshape(-1, Z.shape[2]), R[:, :, :-1, -1].reshape(m, -1)


def ols_fit(blocks: Iterable[np.ndarray | GroupedRows], Y) -> LinearModel:
    """Least squares of each row of Y, an (m, n) array of m targets, on an
    intercept and the features X, the columns `predict` takes, solved by QR.
    The model holds each target's intercept weight and one coefficient per
    column of X.

    X comes as its row blocks in order, each a 2-D array or a GroupedRows:
    `[X]` for a matrix. It is factored a block at a time, a sequential
    tall-skinny QR (Demmel, Grigori, Hoemmen & Langou 2012): each block's
    rows of [1, X] -- a 2-D block copied column-major behind a column of
    ones, a GroupedRows reduced to a few rows per group (`_reduce_groups`)
    -- go under the R of the rows before it, and each target's entries
    under its first entries of Q.T @ target so far, through
    `_householder_qr`. No n-row Q or second n-row design is formed. One 2-D
    block keeps the bits of an unblocked QR of [1, X]; several, or a
    GroupedRows, give the same fit up to rounding. The design is factored
    once for all targets, and each target is solved on its own, so every
    fit is bit-identical to fitting that target alone on the same rows.

    Raises DimensionMismatch for a block that is not 2-D, LengthMismatch for
    a Y that is not 2-D or not one entry per row of X, TooFewRows for no
    more rows than [1, X] has columns, and RankDeficient when [1, X] does
    not have full column rank -- a constant feature is the usual culprit.
    """
    Y = np.asarray(Y, dtype=float)
    if Y.ndim != 2:
        raise LengthMismatch(f"Y must be (targets, rows), got shape {Y.shape}")
    # R of no rows: its one column, the intercept's, broadcasts to any width
    n, R, heads = 0, np.empty((0, 1)), [np.empty(0)] * len(Y)
    for block in blocks:
        if not isinstance(block, GroupedRows):
            block = np.asarray(block, dtype=float)
            if block.ndim != 2:
                raise DimensionMismatch(f"a row block must be 2-dimensional, got {block.ndim}")
        tails = Y[:, n:n + len(block)]
        n += len(block)
        if tails.shape[1] != len(block):
            raise LengthMismatch(f"Y has {Y.shape[1]} entries for at least {n} rows of X")
        # the block's rows of [1, X] under the R of the rows before it;
        # rebinding `block` lets the caller's block go before the QR
        # allocates its own
        if isinstance(block, GroupedRows):
            block, tails = _reduce_groups(block, tails)
            stacked = np.empty((len(R) + len(block), block.shape[1]), order="F")
            stacked[len(R):] = block
        else:
            stacked = np.empty((len(R) + len(block), 1 + block.shape[1]), order="F")
            stacked[len(R):, 0], stacked[len(R):, 1:] = 1.0, block
        stacked[:len(R)] = R
        block, tails = stacked, [np.concatenate(pair) for pair in zip(heads, tails)]
        R, heads = _householder_qr(block, tails)
    k = R.shape[1]
    if n != Y.shape[1]:
        raise LengthMismatch(f"Y has {Y.shape[1]} entries for {n} rows of X")
    if n <= k:
        raise TooFewRows(f"need more than {k} rows to fit {k - 1} features, got {n}")
    if _rank_deficient(R, n):
        raise RankDeficient("design matrix is rank deficient")
    beta = np.stack([np.linalg.solve(R, head) for head in heads])
    return LinearModel(intercept=beta[:, 0], coefficients=beta[:, 1:])


def _rank_deficient(R: np.ndarray, n: int) -> bool:
    """Whether the R of an n-row design's QR has a diagonal entry that is zero
    to rounding beside its largest."""
    diag = np.abs(np.diag(R))
    return diag.min() <= max(n, R.shape[1]) * np.finfo(float).eps * max(diag.max(), 1.0)


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
    grown = 0  # the deepest leaf's depth

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
            grown = max(grown, depth)
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
        grown,
    )


def gbt_fit(X, y, params: HyperParams) -> GbtModel:
    """Stagewise least-squares boosting on raw residuals (Friedman 2001).

    The model starts at the training mean; each stage fits a depth-limited
    tree to the current residuals on every training row and the prediction
    moves by learning_rate times the leaf mean. Leaf values are stored
    unscaled; the learning rate is applied at prediction time. X is binned
    once for all stages.
    """
    params.validate()
    X, y = np.asarray(X, dtype=float), np.asarray(y, dtype=float)
    if X.ndim != 2:
        raise DimensionMismatch("X must be 2-dimensional")
    n = X.shape[0]
    if y.shape != (n,):
        raise LengthMismatch(f"y has shape {y.shape} for {n} rows of X")
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
    """Evaluate a LinearModel or GbtModel on the rows of a 2-D X; a
    LinearModel of m targets gives an (m, rows) array, one row per target,
    and also takes X as a GroupedRows: each group's shared part is
    multiplied out once, and X is never formed."""
    if isinstance(model, LinearModel) and isinstance(X, GroupedRows):
        coef = model.coefficients
        if X.shared.shape[1] != coef.shape[1]:
            raise DimensionMismatch(f"model expects {coef.shape[1]} features, "
                                    f"got {X.shared.shape[1]}")
        keep = np.ones(coef.shape[1], dtype=bool)
        keep[X.at] = False
        shared = X.shared[:, keep]
        return np.stack([(shared @ c[keep])[X.group] + X.varying @ c[X.at] + b
                         for c, b in zip(coef, model.intercept)])
    X = np.asarray(X, dtype=float)
    if X.ndim != 2:
        raise DimensionMismatch("X must be 2-dimensional")
    if isinstance(model, LinearModel):
        coef = model.coefficients
        if X.shape[1] != coef.shape[1]:
            raise DimensionMismatch(f"model expects {coef.shape[1]} features, got {X.shape[1]}")
        return np.stack([X @ c + b for c, b in zip(coef, model.intercept)])
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
