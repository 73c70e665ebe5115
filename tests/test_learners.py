import gc
import json
import time
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from macrodml import dml, learners
from macrodml.dml import PlrProblem, grid_search_cv
from macrodml.errors import (
    BadK,
    ConfigError,
    ConstantTarget,
    DimensionMismatch,
    LengthMismatch,
    RankDeficient,
    TooFewRows,
)
from macrodml.learners import (
    DEFAULT_GRID,
    MAX_BINS,
    GroupedRows,
    HyperParams,
    LinearModel,
    gbt_fit,
    grid_from_json,
    mse,
    ols_fit,
    predict,
    r2,
    staged_predict,
)


# ---------------------------------------------------------------------------
# BLAS threads
# ---------------------------------------------------------------------------

@pytest.mark.skipif(learners.BLAS_THREADS is None, reason="numpy links no OpenBLAS thread calls")
def test_one_blas_thread_runs_on_one_thread_and_restores_the_callers_count():
    get, _ = learners.BLAS_THREADS
    caller = get()
    with learners.one_blas_thread():
        assert get() == 1
        with learners.one_blas_thread():  # scopes nest
            assert get() == 1
        assert get() == 1
    assert get() == caller
    with pytest.raises(ZeroDivisionError):
        with learners.one_blas_thread():
            assert get() == 1
            1 / 0
    assert get() == caller


# ---------------------------------------------------------------------------
# OLS
# ---------------------------------------------------------------------------

BLOCK = 8192  # rows of each block `_blocks` feeds


def _blocks(X):
    """X's BLOCK-row blocks, in order, as a stream."""
    return (X[start:start + BLOCK] for start in range(0, len(X), BLOCK))


def test_ols_hand_example():
    model = ols_fit([[[1.0], [2.0], [3.0]]], [[2.0, 2.0, 4.0]])
    assert model.coefficients[0, 0] == pytest.approx(1.0, abs=1e-12)
    assert model.intercept[0] == pytest.approx(2.0 / 3.0, abs=1e-12)


def test_ols_of_no_features_fits_the_mean():
    model = ols_fit([np.zeros((4, 0))], [[1.0, 2.0, 4.0, 5.0]])
    assert model.intercept[0] == pytest.approx(3.0, abs=1e-12)
    assert model.coefficients.shape == (1, 0)
    assert np.allclose(predict(model, np.zeros((2, 0))), 3.0, atol=1e-12)


def test_ols_residuals_orthogonal(rng):
    X = rng.standard_normal((60, 4))
    y = rng.standard_normal(60)
    model = ols_fit([X], [y])
    resid = y - predict(model, X)[0]
    assert abs(resid.sum()) < 1e-9  # intercept absorbs the mean
    assert np.all(np.abs(X.T @ resid) < 1e-9)


def test_ols_matches_normal_equations(rng):
    X = rng.standard_normal((50, 3))
    y = X @ [1.0, -2.0, 0.5] + 0.1 * rng.standard_normal(50)
    Z = np.column_stack([np.ones(50), X])
    model = ols_fit([X], [y])
    beta = np.linalg.solve(Z.T @ Z, Z.T @ y)
    assert model.intercept[0] == pytest.approx(beta[0], abs=1e-10)
    assert np.allclose(model.coefficients[0], beta[1:], atol=1e-10)


def test_ols_rank_deficient():
    x = np.arange(10.0)
    with pytest.raises(RankDeficient):
        ols_fit([np.column_stack([x, 2.0 * x])], [x])
    with pytest.raises(RankDeficient):
        ols_fit([np.ones((10, 1))], [x])  # constant column collides with intercept


def test_ols_too_few_rows():
    with pytest.raises(TooFewRows):
        ols_fit([np.eye(3)[:, :2]], [np.arange(3.0)])


@pytest.mark.parametrize("n, k, m", [(50, 3, 2), (400, 38, 3), (3 * BLOCK + 5, 38, 2)])
def test_ols_shared_design_matches_single_target_fits(rng, n, k, m):
    X = rng.standard_normal((n, k))
    Y = X[:, :m].T + rng.standard_normal((m, n))
    X_new = rng.standard_normal((n // 2, k))
    shared = ols_fit(_blocks(X), Y)
    assert shared.intercept.shape == (m,) and shared.coefficients.shape == (m, k)
    preds = predict(shared, X_new)
    assert preds.shape == (m, n // 2)
    for j in range(m):
        alone = ols_fit(_blocks(X), Y[j:j + 1].copy())
        assert shared.intercept[j] == alone.intercept[0]
        assert np.array_equal(shared.coefficients[j], alone.coefficients[0])
        assert np.array_equal(preds[j], predict(alone, X_new)[0])


def test_ols_shared_design_checks():
    x = np.arange(10.0)[:, None]
    with pytest.raises(RankDeficient):
        ols_fit([np.column_stack([x, 2.0 * x])], np.stack([x[:, 0], -x[:, 0]]))
    with pytest.raises(LengthMismatch):
        ols_fit([x], np.zeros((2, 9)))
    with pytest.raises(LengthMismatch):
        ols_fit([x], np.zeros((1, 2, 10)))


def test_ols_takes_2d_blocks_and_a_2d_target():
    """A 1-D block is not read as one column, nor a 1-D target as one target."""
    x = np.arange(10.0)
    with pytest.raises(DimensionMismatch):
        ols_fit([x], x[None])
    with pytest.raises(DimensionMismatch):
        ols_fit([x[:5, None], x[5:]], x[None])
    with pytest.raises(LengthMismatch):
        ols_fit([x[:, None]], x)


def test_predict_dimension_checks():
    model = LinearModel(np.zeros(1), np.array([[1.0, 2.0, 3.0]]))
    with pytest.raises(DimensionMismatch):
        predict(model, np.zeros((4, 2)))
    with pytest.raises(DimensionMismatch):
        predict(LinearModel(np.zeros(2), np.ones((2, 3))), np.zeros((4, 2)))
    with pytest.raises(TypeError):
        predict(object(), np.zeros((4, 2)))


def test_predict_takes_a_2d_x(rng):
    """A 1-D X is not read as one column, for either model kind."""
    X = rng.standard_normal((40, 1))
    y = X[:, 0] + rng.standard_normal(40)
    for model in (ols_fit([X], [y]), gbt_fit(X, y, HyperParams(n_trees=2, min_samples_leaf=5))):
        assert predict(model, X).shape[-1] == 40
        with pytest.raises(DimensionMismatch):
            predict(model, X[:, 0])
    with pytest.raises(DimensionMismatch):
        gbt_fit(X[:, 0], y, HyperParams(n_trees=2, min_samples_leaf=5))
    with pytest.raises(LengthMismatch):
        gbt_fit(X, y[None], HyperParams(n_trees=2, min_samples_leaf=5))


# ---------------------------------------------------------------------------
# losses
# ---------------------------------------------------------------------------

def test_mse_r2_hand_values():
    assert mse([0.0, 1.0], [1.0, 1.0]) == 0.5
    y = np.array([1.0, 2.0, 3.0])
    assert r2(y, y) == 1.0
    assert r2(y, np.full(3, 2.0)) == 0.0
    with pytest.raises(ConstantTarget):
        r2(np.ones(3), np.ones(3))
    with pytest.raises(LengthMismatch):
        mse([1.0], [1.0, 2.0])


# ---------------------------------------------------------------------------
# boosted trees
# ---------------------------------------------------------------------------

def test_stump_recovers_group_means_exactly():
    X = np.arange(6.0)[:, None]
    y = np.array([0.0, 0.0, 0.0, 10.0, 10.0, 10.0])
    model = gbt_fit(X, y, HyperParams(n_trees=1, max_depth=1, learning_rate=1.0,
                                      min_samples_leaf=1))
    assert model.trees[0].threshold[0] == 2.5
    assert np.array_equal(predict(model, X), y)


def test_zero_trees_predicts_training_mean():
    rng = np.random.default_rng(1)
    X = rng.standard_normal((30, 2))
    y = rng.standard_normal(30)
    model = gbt_fit(X, y, HyperParams(n_trees=0))
    assert model.base_score == y.mean()
    assert np.all(predict(model, X) == y.mean())
    assert np.array([mse(y, pred) for pred in staged_predict(model, X)]).shape == (1,)


def test_depth_zero_stays_at_mean():
    rng = np.random.default_rng(2)
    X = rng.standard_normal((40, 3))
    y = rng.standard_normal(40)
    model = gbt_fit(X, y, HyperParams(n_trees=8, max_depth=0, learning_rate=0.7))
    assert np.max(np.abs(predict(model, X) - y.mean())) < 1e-12


def test_training_mse_monotone(rng):
    X = rng.standard_normal((200, 3))
    y = np.sin(2.0 * X[:, 0]) + 0.3 * rng.standard_normal(200)
    model = gbt_fit(X, y, HyperParams(n_trees=40, max_depth=2, learning_rate=0.3,
                                      min_samples_leaf=5))
    losses = np.array([mse(y, pred) for pred in staged_predict(model, X)])
    assert losses.shape == (41,)
    assert np.all(np.diff(losses) <= 1e-12)
    assert losses[-1] < losses[0]  # it actually learned something


def test_staged_predict_yields_each_prefix_ensemble(rng):
    X = rng.standard_normal((150, 3))
    y = X[:, 0] * X[:, 1] + 0.3 * rng.standard_normal(150)
    model = gbt_fit(X, y, HyperParams(n_trees=6, max_depth=3, min_samples_leaf=5))
    stages = list(learners.staged_predict(model, X))
    assert len(stages) == 7
    for k, pred in enumerate(stages):
        prefix = replace(model, trees=model.trees[:k])
        assert np.array_equal(pred.view(np.uint64), predict(prefix, X).view(np.uint64))


def test_tie_breaks_lowest_feature_index(rng):
    x = rng.standard_normal(50)
    y = x + 0.01 * rng.standard_normal(50)
    X = np.column_stack([x, x])  # identical columns, identical gains
    model = gbt_fit(X, y, HyperParams(n_trees=1, max_depth=1, learning_rate=1.0,
                                      min_samples_leaf=1))
    root = model.trees[0]
    assert root.left[0] != 0  # the root did split
    assert root.feature[0] == 0


def test_tie_breaks_lowest_threshold():
    # gains tie at thresholds 0.5 and 2.5; the scan keeps the first maximum
    X = np.array([0.0, 1.0, 2.0, 3.0])[:, None]
    y = np.array([0.0, 1.0, 1.0, 2.0])
    model = gbt_fit(X, y, HyperParams(n_trees=1, max_depth=1, learning_rate=1.0,
                                      min_samples_leaf=1))
    assert model.trees[0].threshold[0] == 0.5


def test_min_samples_leaf_blocks_splits():
    # the only value boundaries sit at 4|6 and 8|2, both violating min_leaf=5
    X = np.array([0.0] * 4 + [1.0] * 4 + [2.0] * 2)[:, None]
    y = np.array([0.0] * 4 + [10.0] * 4 + [20.0] * 2)
    model = gbt_fit(X, y, HyperParams(n_trees=1, max_depth=3, learning_rate=1.0,
                                      min_samples_leaf=5))
    # no admissible split: the single tree is one leaf at the residual mean
    assert model.trees[0].left[0] == 0
    assert np.ptp(predict(model, X)) == 0.0


def test_constant_feature_never_splits():
    X = np.ones((30, 1))
    y = np.random.default_rng(3).standard_normal(30)
    model = gbt_fit(X, y, HyperParams(n_trees=3, max_depth=2, min_samples_leaf=1))
    assert np.all(predict(model, X) == predict(model, X)[0])


def _leaf_of(tree, X):
    """Leaf index each row reaches, routed like RegressionTree.predict."""
    node = np.zeros(X.shape[0], dtype=np.int64)
    for _ in range(tree.depth):
        go_left = X[np.arange(X.shape[0]), tree.feature[node]] <= tree.threshold[node]
        node = np.where(go_left, tree.left[node], tree.right[node])
    return node


def _exact_root_split(X, y, min_leaf):
    """Brute-force greedy search over every midpoint between distinct values."""
    n, total = y.size, y.sum()
    found = []
    for j in range(X.shape[1]):
        values = np.unique(X[:, j])
        for lo, hi in zip(values[:-1], values[1:]):
            thr = (lo + hi) / 2.0
            go_left = X[:, j] <= thr
            n_left = int(go_left.sum())
            if n_left < min_leaf or n - n_left < min_leaf:
                continue
            s_left, s_right = y[go_left].sum(), y[~go_left].sum()
            gain = s_left**2 / n_left + s_right**2 / (n - n_left) - total**2 / n
            found.append((gain, j, thr))
    found.sort(key=lambda g: -g[0])
    return found


def test_root_split_matches_exact_search_on_few_valued_columns(rng):
    # every column has at most MAX_BINS distinct values, so binning is exact
    X = rng.integers(0, 60, size=(400, 4)).astype(float)
    y = np.sin(X[:, 2] / 9.0) + 0.5 * (X[:, 0] > 30) + 0.3 * rng.standard_normal(400)
    assert max(np.unique(col).size for col in X.T) <= MAX_BINS
    model = gbt_fit(X, y, HyperParams(n_trees=1, max_depth=1, learning_rate=1.0,
                                      min_samples_leaf=15))
    found = _exact_root_split(X, y - model.base_score, 15)
    (best_gain, j, thr), runner_up = found[0], found[1]
    assert best_gain - runner_up[0] > 1e-9 * best_gain  # no gain ties
    assert model.trees[0].feature[0] == j
    assert model.trees[0].threshold[0] == thr


def test_binned_thresholds_route_training_rows_to_their_leaves(rng):
    X = rng.standard_normal((1000, 3))
    y = X[:, 0] ** 2 + np.sin(3.0 * X[:, 1]) + 0.2 * rng.standard_normal(1000)
    assert min(np.unique(col).size for col in X.T) > MAX_BINS  # really binned
    model = gbt_fit(X, y, HyperParams(n_trees=1, max_depth=4, learning_rate=1.0,
                                      min_samples_leaf=5))
    tree = model.trees[0]
    leaf = _leaf_of(tree, X)
    assert np.unique(leaf).size >= 8
    for node in np.unique(leaf):
        assert model.base_score + tree.value[node] == pytest.approx(
            y[leaf == node].mean(), rel=1e-12, abs=1e-12
        )


def test_gbt_fit_leaves_no_reference_cycles(rng):
    # each tree's working arrays must go when the tree is grown, not wait for
    # the cycle collector; waiting raised peak memory over repeated fits
    X = rng.standard_normal((100, 3))
    y = rng.standard_normal(100)
    gc.collect()
    gc.disable()
    try:
        gbt_fit(X, y, HyperParams(n_trees=5, max_depth=3, min_samples_leaf=5))
        assert gc.collect() == 0
    finally:
        gc.enable()


# The tree code as it stood before the per-ensemble root histogram, carried
# cumulative counts, column-major routing and flat-index prediction; the
# current code must grow and evaluate the same trees bit for bit.

def _ref_histogram(bins, resid, rows):
    shape = bins.lo.shape
    flat = np.take(bins.codes, rows, axis=0).ravel()
    sums = np.bincount(flat, weights=np.repeat(resid[rows], shape[0]), minlength=bins.lo.size)
    counts = np.bincount(flat, minlength=bins.lo.size)
    return sums.reshape(shape), counts.reshape(shape)


def _ref_best_split(bins, hist, total, n, min_leaf):
    sums, counts = hist
    left_n = np.cumsum(counts, axis=1)
    cand = np.flatnonzero((counts > 0) & (left_n >= min_leaf) & (left_n <= n - min_leaf))
    if cand.size == 0:
        return None
    left_sum = np.cumsum(sums, axis=1).ravel()[cand]
    left_n = left_n.ravel()[cand]
    right_sum = total - left_sum
    gain = (
        left_sum * left_sum / left_n
        + right_sum * right_sum / (n - left_n)
        - total * total / n
    )
    k = int(np.argmax(gain))
    if not gain[k] > 0.0:
        return None
    j, b = divmod(int(cand[k]), sums.shape[1])
    nxt = b + 1 + int(np.flatnonzero(counts[j, b + 1 :])[0])
    return j, float((bins.hi[j, b] + bins.lo[j, nxt]) / 2.0)


def _ref_fit_tree(X, bins, resid, rows, max_depth, min_leaf, step):
    feature, threshold, left, right, value = [], [], [], [], []
    grown = 0

    def can_split(node_rows, depth):
        return depth < max_depth and node_rows.size >= 2 * min_leaf

    stack = [(rows, _ref_histogram(bins, resid, rows) if can_split(rows, 0) else None, 0, 0, None)]
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
        split = None if hist is None else _ref_best_split(
            bins, hist, total, node_rows.size, min_leaf)
        if split is None:
            step[node_rows] = value[idx]
            grown = max(grown, depth)
            continue
        feature[idx], threshold[idx] = split
        go_left = X[node_rows, feature[idx]] <= threshold[idx]
        children = [node_rows[go_left], node_rows[~go_left]]
        hists = [None, None]
        big = int(children[1].size > children[0].size)
        if can_split(children[big], depth + 1):
            small = _ref_histogram(bins, resid, children[1 - big])
            hists[big] = (hist[0] - small[0], hist[1] - small[1])
            if can_split(children[1 - big], depth + 1):
                hists[1 - big] = small
        stack.append((children[1], hists[1], depth + 1, idx, right))
        stack.append((children[0], hists[0], depth + 1, idx, left))
    return learners.RegressionTree(
        np.asarray(feature, dtype=np.int64), np.asarray(threshold, dtype=float),
        np.asarray(left, dtype=np.int64), np.asarray(right, dtype=np.int64),
        np.asarray(value, dtype=float), grown,
    )


def _ref_tree_predict(tree, X):
    node = np.zeros(X.shape[0], dtype=np.int64)
    for _ in range(tree.depth):
        go_left = X[np.arange(X.shape[0]), tree.feature[node]] <= tree.threshold[node]
        node = np.where(go_left, tree.left[node], tree.right[node])
    return tree.value[node]


def _ref_gbt_fit(X, y, params):
    """gbt_fit's stage loop over the reference tree code."""
    n = X.shape[0]
    base_score = float(y.mean())
    fitted = np.full(n, base_score)
    bins = learners._bin_columns(X)
    rows = np.arange(n)
    step = np.empty(n)
    trees = []
    for _ in range(params.n_trees):
        resid = y - fitted
        tree = _ref_fit_tree(X, bins, resid, rows, params.max_depth, params.min_samples_leaf, step)
        trees.append(tree)
        fitted += params.learning_rate * step
    return base_score, trees


def _mixed_columns(rng, n):
    """Integer columns (<= 256 values), continuous ones, repeated values."""
    return np.column_stack([
        rng.integers(0, 40, n),                        # few integer values, exact bins
        rng.standard_normal(n),                        # continuous, quantile bins
        np.repeat(rng.standard_normal(n // 10 + 1), 10)[:n],  # each value ten times
        rng.integers(0, 3, n),                         # three values
        np.round(rng.standard_normal(n), 1),           # ties inside quantile bins
    ]).astype(float)


@pytest.mark.parametrize("params", [
    HyperParams(n_trees=25, max_depth=4, learning_rate=0.3, min_samples_leaf=5),
    HyperParams(n_trees=4, max_depth=0),
    HyperParams(n_trees=6, max_depth=5, learning_rate=0.5, min_samples_leaf=300),  # n = 2 * leaf
    HyperParams(n_trees=6, max_depth=5, learning_rate=0.5, min_samples_leaf=299),
    HyperParams(n_trees=8, max_depth=6, learning_rate=0.5, min_samples_leaf=1),
], ids=["dense", "depth0", "leaf_edge", "leaf_edge_minus_1", "leaf_1"])
def test_gbt_matches_the_reference_trees_bit_for_bit(rng, params):
    X = _mixed_columns(rng, 600)
    y = np.sin(X[:, 1]) + 0.05 * X[:, 0] + X[:, 2] * X[:, 3] + rng.standard_normal(600)
    model = gbt_fit(X, y, params)
    base_score, ref_trees = _ref_gbt_fit(X, y, params)
    assert model.base_score == base_score and len(model.trees) == len(ref_trees)
    for tree, ref in zip(model.trees, ref_trees):
        for name in ("feature", "threshold", "left", "right", "value"):
            assert np.array_equal(getattr(tree, name), getattr(ref, name)), name
        assert tree.depth == ref.depth
    X_new = np.vstack([_mixed_columns(rng, 300), X[:50]])
    ref_pred = np.full(X_new.shape[0], base_score)
    for ref in ref_trees:
        ref_pred += params.learning_rate * _ref_tree_predict(ref, X_new)
    assert np.array_equal(predict(model, X_new).view(np.uint64), ref_pred.view(np.uint64))
    assert np.array_equal(predict(model, np.asfortranarray(X_new)), ref_pred)


def _longest_path(tree, node=0):
    """Edges on the longest root-to-leaf path below `node`, walked node by node."""
    if tree.left[node] == node:
        return 0
    return 1 + max(_longest_path(tree, tree.left[node]), _longest_path(tree, tree.right[node]))


def test_tree_depth_is_the_depth_grown_so_predict_never_walks_past_the_leaves(rng):
    """A depth cap the rows never reach costs predict nothing: each tree's
    depth is its longest root-to-leaf path, so a max_depth=10**6 ensemble
    predicts the bits of a max_depth=64 one, and as fast."""
    X = _mixed_columns(rng, 200)
    y = np.sin(X[:, 1]) + X[:, 2] * X[:, 3] + rng.standard_normal(200)
    capped, uncapped = (gbt_fit(X, y, HyperParams(n_trees=20, max_depth=depth,
                                                  learning_rate=0.3, min_samples_leaf=20))
                        for depth in (64, 10**6))
    for tree in capped.trees + uncapped.trees:
        assert tree.depth == _longest_path(tree) < 64
    start = time.perf_counter()
    pred = predict(uncapped, X)
    assert time.perf_counter() - start < 0.5  # 10**6 gathers a tree would take minutes
    assert np.array_equal(pred.view(np.uint64), predict(capped, X).view(np.uint64))


def _ref_ols(Z, y):
    """ols_fit's solve of y on [1, X] from the row-major np.column_stack
    Z = [1, X]: LAPACK's Householder reflectors (leading 1 implicit) applied
    to each target in turn, then R solved."""
    h, tau = np.linalg.qr(Z, mode="raw")
    R = np.triu(h.T[:tau.size])
    beta = []
    for target in np.atleast_2d(y):
        t = target.copy()
        for i in range(tau.size):
            v = np.concatenate([[1.0], h[i, i + 1:]])
            t[i:] -= (tau[i] * (v @ t[i:])) * v
        beta.append(np.linalg.solve(R, t[:tau.size]))
    return np.stack(beta)


@pytest.mark.parametrize("m", [1, 2])
def test_ols_column_major_design_matches_column_stack_bit_for_bit(rng, m):
    X = rng.standard_normal((3000, 39)) * rng.uniform(0.1, 50.0, 39)
    Y = X[:, :m].T + rng.standard_normal((m, 3000))
    beta = _ref_ols(np.column_stack([np.ones(3000), X]), Y)
    for design in (X, np.asfortranarray(X)):
        model = ols_fit([design], Y)
        assert np.array_equal(model.intercept, beta[:, 0])
        assert np.array_equal(model.coefficients, beta[:, 1:])


@pytest.mark.parametrize("m", [1, 2])
def test_ols_matches_lstsq(rng, m):
    for n in (3000, 3 * BLOCK + 100):  # one row block, then four
        X = rng.standard_normal((n, 39)) * rng.uniform(0.1, 50.0, 39)
        Y = X[:, :m].T + rng.standard_normal((m, n))
        Z = np.column_stack([np.ones(n), X])
        model = ols_fit(_blocks(X), Y)
        beta = np.column_stack([model.intercept, model.coefficients])
        for j in range(m):
            ref = np.linalg.lstsq(Z, Y[j], rcond=None)[0]
            assert np.linalg.norm(beta[j] - ref) <= 1e-9 * np.linalg.norm(ref)


def test_ols_takes_the_design_as_its_row_blocks(rng):
    """A design fed as a list of its blocks or as a stream of them gives the
    same bits; the blocks' rows must match Y's."""
    X = rng.standard_normal((2 * BLOCK + 7, 5))
    Y = X[:, :2].T + rng.standard_normal((2, len(X)))
    listed, fed = ols_fit(list(_blocks(X)), Y), ols_fit(_blocks(X), Y)
    assert np.array_equal(listed.intercept, fed.intercept)
    assert np.array_equal(listed.coefficients, fed.coefficients)
    for short in (Y[:, :-1], Y[:, :BLOCK - 1]):
        with pytest.raises(LengthMismatch):
            ols_fit(_blocks(X), short)
    with pytest.raises(LengthMismatch):
        ols_fit(_blocks(X[:-1]), Y)
    with pytest.raises(TooFewRows):
        ols_fit(iter([]), Y[:, :0])


def test_ols_never_holds_a_second_n_row_factor(rng):
    """ols_fit factors its design a block at a time and never copies more
    of it, or forms an n-row Q: on a design of six BLOCK-row blocks its
    traced peak stays below three blocks' bytes."""
    X = np.asfortranarray(rng.standard_normal((6 * BLOCK, 38)))
    Y = np.stack([X[:, 0], X[:, 1]]) + rng.standard_normal((2, len(X)))
    tracemalloc.start()
    try:
        ols_fit(_blocks(X), Y)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 3 * BLOCK * X.shape[1] * X.itemsize


def _grouped(rng, sizes, width=12, at=(2, 5, 11)):
    """GroupedRows of groups with the given row counts, rows in a shuffled
    order, and the matrix they stand for."""
    group = rng.permutation(np.repeat(np.arange(len(sizes)), sizes))
    shared = rng.standard_normal((len(sizes), width)) * rng.uniform(0.5, 20.0, width)
    shared[:, list(at)] = np.nan  # never read
    varying = rng.standard_normal((group.size, len(at)))
    X = GroupedRows(shared, group, varying, list(at))
    dense = shared[group]
    dense[:, list(at)] = varying
    return X, dense


def test_ols_fits_grouped_rows_as_their_rows(rng):
    """A GroupedRows block, with groups of no row, of fewer rows than the
    group blocks are wide and of many, fits and predicts as its rows do, up
    to rounding, also streamed after a 2-D block; each target's fit keeps
    its bits alone."""
    sizes = np.r_[0, 1, 3, rng.integers(20, 60, 30), 0, 2]
    X, dense = _grouped(rng, sizes)
    Y = np.stack([dense @ rng.standard_normal(12), dense[:, 0]]) + rng.standard_normal((2, len(X)))
    want = ols_fit([dense], Y)
    got = ols_fit([X], Y)
    for a, b in ((got.intercept, want.intercept), (got.coefficients, want.coefficients)):
        assert np.abs(a - b).max() <= 1e-12 * np.abs(b).max()
    pred, ref = predict(got, X), predict(want, dense)
    assert pred.shape == ref.shape == (2, len(X))
    assert np.abs(pred - ref).max() <= 1e-12 * np.abs(ref).max()
    for j in range(2):
        alone = ols_fit([X], Y[j:j + 1])
        assert np.array_equal(alone.coefficients[0], got.coefficients[j])
        assert np.array_equal(predict(alone, X)[0], pred[j])
    tail, tail_rows = _grouped(rng, sizes[3:])
    Y2 = np.column_stack([Y[:, :50], Y[:, :len(tail)]])
    streamed, ref = ols_fit([dense[:50], tail], Y2), ols_fit([np.vstack([dense[:50], tail_rows])], Y2)
    assert np.abs(streamed.coefficients - ref.coefficients).max() <= 1e-12 * np.abs(ref.coefficients).max()


def test_grouped_rows_keep_the_fits_checks(rng):
    X, dense = _grouped(rng, [4, 4, 4])
    with pytest.raises(TooFewRows, match="need more than 13 rows to fit 12 features, got 12"):
        ols_fit([X], dense[:, :1].T)
    X, dense = _grouped(rng, rng.integers(5, 9, 12))
    X.shared[:, 0] = 3.0  # a constant shared column collides with the intercept
    dense[:, 0] = 3.0
    for design in (dense, X):
        with pytest.raises(RankDeficient):
            ols_fit([design], dense[:, 1:2].T)
    with pytest.raises(LengthMismatch):
        ols_fit([X], dense[:-1, 1:2].T)
    model = ols_fit([dense[:, 1:]], dense[:, :1].T)
    with pytest.raises(DimensionMismatch):
        predict(model, X)


def test_gbt_refit_is_bit_identical(rng):
    X = rng.standard_normal((120, 3))
    y = rng.standard_normal(120)
    params = HyperParams(n_trees=10, max_depth=2, min_samples_leaf=5)
    a, b = gbt_fit(X, y, params), gbt_fit(X, y, params)
    for name in ("feature", "threshold", "left", "right", "value"):
        assert all(np.array_equal(getattr(s, name), getattr(t, name))
                   for s, t in zip(a.trees, b.trees)), name
    assert np.array_equal(predict(a, X).view(np.uint64), predict(b, X).view(np.uint64))


def test_gbt_too_few_rows():
    with pytest.raises(TooFewRows):
        gbt_fit(np.zeros((5, 1)), np.zeros(5), HyperParams(min_samples_leaf=20))


def test_hyperparams_validation():
    for bad in (
        HyperParams(n_trees=-1),
        HyperParams(max_depth=-1),
        HyperParams(learning_rate=0.0),
        HyperParams(learning_rate=1.5),
        HyperParams(min_samples_leaf=0),
    ):
        with pytest.raises(ConfigError):
            bad.validate()
    HyperParams(n_trees=0, learning_rate=1.0).validate()


# ---------------------------------------------------------------------------
# the fold plan (dml.PlrProblem.folds)
# ---------------------------------------------------------------------------

def _folds(n, k, seed=0):
    """The fold plan of an n-row problem; it reads only the row count."""
    return PlrProblem(np.zeros(n), np.arange(n, dtype=float), np.zeros((n, 0))).folds(k, seed)


def test_kfold_partition_laws():
    pairs, fold_of = _folds(11, 3, seed=4)
    sizes = [test.size for _, test in pairs]
    assert max(sizes) - min(sizes) <= 1 and sum(sizes) == 11
    joined = np.concatenate([test for _, test in pairs])
    assert np.array_equal(np.sort(joined), np.arange(11))
    assert fold_of.dtype == np.int64
    for i, (train, test) in enumerate(pairs):
        assert np.array_equal(test, np.sort(test)) and np.array_equal(train, np.sort(train))
        assert np.all(fold_of[test] == i) and np.all(fold_of[train] != i)


def test_kfold_folds_are_the_sorted_parts_of_a_seeded_permutation():
    parts = np.array_split(np.random.default_rng(7).permutation(23), 4)
    pairs, _ = _folds(23, 4, seed=7)
    for i, (train, test) in enumerate(pairs):
        assert test.tobytes() == np.sort(parts[i]).tobytes()
        assert train.tobytes() == np.sort(np.concatenate(parts[:i] + parts[i + 1:])).tobytes()


def test_kfold_seeded_and_bounds():
    (a, fold_a), (b, fold_b) = _folds(20, 4, seed=1), _folds(20, 4, seed=1)
    assert np.array_equal(fold_a, fold_b)
    assert all(np.array_equal(x, y) for pa, pb in zip(a, b) for x, y in zip(pa, pb))
    assert not np.array_equal(fold_a, _folds(20, 4, seed=2)[1])
    with pytest.raises(BadK):
        _folds(10, 1)
    with pytest.raises(BadK):
        _folds(10, 11)


def test_train_test_folds_complement():
    for train, test in _folds(10, 2, seed=0)[0]:
        assert np.intersect1d(train, test).size == 0
        assert np.array_equal(np.sort(np.concatenate([train, test])), np.arange(10))


@settings(max_examples=30, deadline=None)
@given(
    n=st.integers(min_value=2, max_value=200),
    k=st.integers(min_value=2, max_value=8),
    seed=st.integers(min_value=0, max_value=1000),
)
def test_kfold_laws_hold_generally(n, k, seed):
    if k > n:
        return
    pairs, fold_of = _folds(n, k, seed)
    assert len(pairs) == k
    assert np.array_equal(np.sort(np.concatenate([test for _, test in pairs])), np.arange(n))
    assert np.array_equal(np.bincount(fold_of, minlength=k), [test.size for _, test in pairs])


# ---------------------------------------------------------------------------
# grid search (dml.grid_search_cv over a plain-matrix problem)
# ---------------------------------------------------------------------------

def _problem(X, y):
    """A problem whose fold design gives X's rows; the grid never reads d."""
    return PlrProblem(y, np.arange(len(y), dtype=float), X)


def test_default_grid_shape():
    assert len(DEFAULT_GRID) == 8
    assert all(p.min_samples_leaf == 20 for p in DEFAULT_GRID)


def test_grid_singleton(rng):
    X = rng.standard_normal((80, 2))
    y = rng.standard_normal(80)
    only = HyperParams(n_trees=5, max_depth=1, learning_rate=0.5, min_samples_leaf=5)
    best, table = grid_search_cv(_problem(X, y), [only], k=2)
    assert best == only
    assert len(table) == 1 and table[0].oof is not None


def test_grid_prefers_depth_on_curvature(rng):
    x = rng.uniform(-3.0, 3.0, size=400)
    y = x**2 + 0.1 * rng.standard_normal(400)
    grid = [
        HyperParams(n_trees=50, max_depth=0, learning_rate=0.3, min_samples_leaf=5),
        HyperParams(n_trees=50, max_depth=3, learning_rate=0.3, min_samples_leaf=5),
    ]
    best, table = grid_search_cv(_problem(x[:, None], y), grid, k=2, seed=0)
    assert best.max_depth == 3
    assert table[1].cv_mse < table[0].cv_mse
    assert table[1].cv_r2 > table[0].cv_r2


def test_grid_failure_is_row_not_crash(rng):
    X = rng.standard_normal((60, 2))
    y = rng.standard_normal(60)
    grid = [
        HyperParams(n_trees=2, max_depth=1, min_samples_leaf=5),
        HyperParams(n_trees=2, max_depth=1, min_samples_leaf=10_000),  # cannot fit
    ]
    best, table = grid_search_cv(_problem(X, y), grid, k=2)
    assert best == grid[0]
    assert table[1].oof is None and table[1].cv_mse == float("inf")


def test_grid_tie_prefers_smaller_model(rng):
    X = rng.standard_normal((50, 2))
    y = rng.standard_normal(50)
    # zero trees -> identical predictions, exact tie on cv_mse
    grid = [
        HyperParams(n_trees=0, max_depth=5),
        HyperParams(n_trees=0, max_depth=2),
    ]
    best, table = grid_search_cv(_problem(X, y), grid, k=2)
    assert table[0].cv_mse == table[1].cv_mse
    assert best.max_depth == 2


def test_grid_table_matches_separate_fits(rng):
    X = rng.standard_normal((240, 3))
    y = np.sin(2.0 * X[:, 0]) + X[:, 1] + 0.3 * rng.standard_normal(240)
    best, table = grid_search_cv(_problem(X, y), DEFAULT_GRID, k=2, seed=3)
    pairs = _problem(X, y).folds(2, seed=3)[0]
    for params, row in zip(DEFAULT_GRID, table):
        oof = np.empty(y.size)
        for tr, te in pairs:
            oof[te] = predict(gbt_fit(X[tr], y[tr], params), X[te])
        assert row.params == params and row.oof is not None
        assert row.cv_mse == mse(y, oof) and row.cv_r2 == r2(y, oof)
    assert best == min(table, key=lambda r: (r.cv_mse, r.params.n_trees, r.params.max_depth)).params


def test_grid_keeps_each_candidates_out_of_fold_predictions(rng):
    X = rng.standard_normal((120, 3))
    y = np.sin(2.0 * X[:, 0]) + X[:, 1] + 0.3 * rng.standard_normal(120)
    grid = [
        HyperParams(n_trees=3, max_depth=2, learning_rate=0.3, min_samples_leaf=10),
        HyperParams(n_trees=12, max_depth=2, learning_rate=0.3, min_samples_leaf=10),
        HyperParams(n_trees=5, max_depth=1, learning_rate=0.3, min_samples_leaf=10),
        HyperParams(n_trees=2, max_depth=1, learning_rate=0.1, min_samples_leaf=10_000),
    ]
    best, table = grid_search_cv(_problem(X, y), grid, k=3, seed=1)
    pairs = _problem(X, y).folds(3, seed=1)[0]
    for params, row in zip(grid[:3], table):
        expected = np.empty(120)
        for tr, te in pairs:
            expected[te] = predict(gbt_fit(X[tr], y[tr], params), X[te])
        assert row.oof.tobytes() == expected.tobytes()
    assert table[3].oof is None


def test_grid_fits_largest_of_each_n_trees_group_once_per_fold(rng, monkeypatch):
    fitted = []

    def counting_fit(X, y, params):
        fitted.append(params.n_trees)
        return gbt_fit(X, y, params)

    monkeypatch.setattr(dml, "gbt_fit", counting_fit)
    grid_search_cv(_problem(rng.standard_normal((80, 2)), rng.standard_normal(80)),
                   DEFAULT_GRID, k=2)
    assert sorted(fitted) == [200] * 8  # 4 (depth, rate) groups x 2 folds


def test_grouped_grid_keeps_per_candidate_failures(rng):
    X = rng.standard_normal((60, 2))
    y = rng.standard_normal(60)
    grid = [
        HyperParams(n_trees=0, max_depth=1, learning_rate=0.1, min_samples_leaf=10_000),
        HyperParams(n_trees=2, max_depth=1, learning_rate=0.1, min_samples_leaf=10_000),
    ]
    best, table = grid_search_cv(_problem(X, y), grid, k=2)
    # the 0-tree candidate fits on its own although its group's 2-tree fit fails
    assert table[0].oof is not None and np.isfinite(table[0].cv_mse)
    assert table[1].oof is None and table[1].cv_mse == float("inf")
    assert best == grid[0]


def test_grid_reraises_an_error_that_is_not_the_packages(rng, monkeypatch):
    """Only a package error marks a candidate failed: a MemoryError in one
    (depth, rate) group ends the search rather than handing the win to another."""
    def fit(X, y, params):
        if params.max_depth == 4:
            raise MemoryError("no room for the depth-4 trees")
        return gbt_fit(X, y, params)

    monkeypatch.setattr(dml, "gbt_fit", fit)
    with pytest.raises(MemoryError):
        grid_search_cv(_problem(rng.standard_normal((80, 2)), rng.standard_normal(80)),
                       DEFAULT_GRID, k=2)


def test_grid_from_json_round_trip():
    text = """[
      {"n_trees": 30, "max_depth": 2, "learning_rate": 0.2, "min_samples_leaf": 5},
      {"n_trees": 60, "max_depth": 3, "learning_rate": 0.1, "min_samples_leaf": 10}
    ]"""
    grid = grid_from_json(text)
    assert grid[0] == HyperParams(30, 2, 0.2, 5)
    assert grid[1].n_trees == 60


def test_grid_from_json_rejects_garbage():
    with pytest.raises(ConfigError):
        grid_from_json("not json")
    with pytest.raises(ConfigError):
        grid_from_json("[]")
    with pytest.raises(ConfigError):
        grid_from_json('[{"trees": 5}]')
    with pytest.raises(ConfigError):
        grid_from_json('[{"n_trees": -5}]')


def test_grid_cv_csv_layout(both_run):
    lines = (both_run / "grid_cv.csv").read_text().split("\n")
    assert lines[0] == "n_trees,max_depth,learning_rate,min_samples_leaf,cv_mse,cv_r2"
    assert len(lines) == 3 and lines[2] == ""
    assert lines[1].startswith("15,2,0.3,20,")
    for cell in lines[1].split(",")[4:]:
        assert repr(float(cell)) == cell


def test_grid_winner_prints_the_cross_fits_r2(both_run):
    """The winner's out-of-fold predictions are the boosted g_hat, and both
    tables score them over all rows, so the two print the same R^2."""
    winner = json.loads((both_run / "manifest.json").read_text())["boosted_params"]
    header, *rows = [line.split(",") for line in
                     (both_run / "grid_cv.csv").read_text().splitlines()]
    row = next(r for r in rows if r[:4] == [str(winner[name]) for name in header[:4]])
    r2_header, *r2_rows = [line.split(",") for line in
                           (both_run / "r2.csv").read_text().splitlines()]
    boosted = next(r for r in r2_rows if r[0] == "boosted")
    assert row[header.index("cv_r2")] == boosted[r2_header.index("r2_y")]
