import gc
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from macrodml import learners
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
    HyperParams,
    LinearModel,
    gbt_fit,
    grid_from_json,
    grid_search_cv,
    kfold_split,
    mse,
    ols_fit,
    predict,
    r2,
    staged_mse,
    train_test_folds,
)


# ---------------------------------------------------------------------------
# OLS
# ---------------------------------------------------------------------------

def _with_intercept(X):
    """[1, X]: the design ols_fit takes, column 0 the intercept."""
    X = np.asarray(X, dtype=float)
    return np.column_stack([np.ones(X.shape[0]), X])


def test_ols_hand_example():
    model = ols_fit(_with_intercept([1.0, 2.0, 3.0]), [2.0, 2.0, 4.0])
    assert model.coefficients[0] == pytest.approx(1.0, abs=1e-12)
    assert model.intercept == pytest.approx(2.0 / 3.0, abs=1e-12)


def test_ols_residuals_orthogonal(rng):
    X = rng.standard_normal((60, 4))
    y = rng.standard_normal(60)
    model = ols_fit(_with_intercept(X), y)
    resid = y - predict(model, X)
    assert abs(resid.sum()) < 1e-9  # intercept absorbs the mean
    assert np.all(np.abs(X.T @ resid) < 1e-9)


def test_ols_matches_normal_equations(rng):
    X = rng.standard_normal((50, 3))
    y = X @ [1.0, -2.0, 0.5] + 0.1 * rng.standard_normal(50)
    Z = np.column_stack([np.ones(50), X])
    model = ols_fit(Z, y)
    beta = np.linalg.solve(Z.T @ Z, Z.T @ y)
    assert model.intercept == pytest.approx(beta[0], abs=1e-10)
    assert np.allclose(model.coefficients, beta[1:], atol=1e-10)


def test_ols_rank_deficient():
    x = np.arange(10.0)
    with pytest.raises(RankDeficient):
        ols_fit(_with_intercept(np.column_stack([x, 2.0 * x])), x)
    with pytest.raises(RankDeficient):
        ols_fit(_with_intercept(np.ones((10, 1))), x)  # constant column collides with intercept


def test_ols_too_few_rows():
    with pytest.raises(TooFewRows):
        ols_fit(_with_intercept(np.eye(3)[:, :2]), np.arange(3.0))


@pytest.mark.parametrize("design", [np.arange(20.0).reshape(10, 2), np.zeros((10, 0))])
def test_ols_design_must_lead_with_the_intercept(design):
    with pytest.raises(DimensionMismatch, match="intercept"):
        ols_fit(design, np.arange(10.0))


@pytest.mark.parametrize("n, k, m", [(50, 3, 2), (400, 38, 3)])
def test_ols_shared_design_matches_single_target_fits(rng, n, k, m):
    X = rng.standard_normal((n, k))
    Y = X[:, :m].T + rng.standard_normal((m, n))
    X_new = rng.standard_normal((n // 2, k))
    shared = ols_fit(_with_intercept(X), Y)
    assert shared.intercept.shape == (m,) and shared.coefficients.shape == (m, k)
    preds = predict(shared, X_new)
    assert preds.shape == (m, n // 2)
    for j in range(m):
        alone = ols_fit(_with_intercept(X), Y[j].copy())
        assert shared.intercept[j] == alone.intercept
        assert np.array_equal(shared.coefficients[j], alone.coefficients)
        assert np.array_equal(preds[j], predict(alone, X_new))


def test_ols_shared_design_checks():
    x = np.arange(10.0)
    with pytest.raises(RankDeficient):
        ols_fit(_with_intercept(np.column_stack([x, 2.0 * x])), np.stack([x, -x]))
    with pytest.raises(LengthMismatch):
        ols_fit(_with_intercept(x), np.zeros((2, 9)))
    with pytest.raises(LengthMismatch):
        ols_fit(_with_intercept(x), np.zeros((1, 2, 10)))


def test_predict_dimension_checks():
    model = LinearModel(0.0, np.array([1.0, 2.0, 3.0]))
    with pytest.raises(DimensionMismatch):
        predict(model, np.zeros((4, 2)))
    with pytest.raises(DimensionMismatch):
        predict(LinearModel(np.zeros(2), np.ones((2, 3))), np.zeros((4, 2)))
    with pytest.raises(TypeError):
        predict(object(), np.zeros((4, 2)))


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
    assert staged_mse(model, X, y).shape == (1,)


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
    losses = staged_mse(model, X, y)
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
        np.asarray(value, dtype=float), max_depth,
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


def _ref_ols(Z, y):
    """ols_fit's solve from a row-major np.column_stack design Z: LAPACK's
    Householder reflectors (leading 1 implicit) applied to each target in
    turn, then R solved."""
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
    y = Y[0] if m == 1 else Y
    Z = np.column_stack([np.ones(3000), X])
    beta = _ref_ols(Z, y)
    for design in (Z, np.asfortranarray(Z)):
        model = ols_fit(design, y)
        assert np.array_equal(np.atleast_1d(model.intercept), beta[:, 0])
        assert np.array_equal(np.atleast_2d(model.coefficients), beta[:, 1:])


@pytest.mark.parametrize("m", [1, 2])
def test_ols_matches_lstsq(rng, m):
    X = rng.standard_normal((3000, 39)) * rng.uniform(0.1, 50.0, 39)
    Y = X[:, :m].T + rng.standard_normal((m, 3000))
    Z = np.column_stack([np.ones(3000), X])
    model = ols_fit(Z, Y[0] if m == 1 else Y)
    beta = np.column_stack([np.atleast_1d(model.intercept), np.atleast_2d(model.coefficients)])
    for j in range(m):
        ref = np.linalg.lstsq(Z, Y[j], rcond=None)[0]
        assert np.linalg.norm(beta[j] - ref) <= 1e-9 * np.linalg.norm(ref)


def test_ols_never_holds_a_second_n_row_factor(rng):
    """Given a column-major design, ols_fit holds only numpy's copy of it for
    the QR, never a second design or an n-row Q: its traced peak stays below
    1.5 times the design."""
    X = np.asfortranarray(_with_intercept(rng.standard_normal((20000, 38))))
    Y = np.stack([X[:, 1], X[:, 2]]) + rng.standard_normal((2, 20000))
    tracemalloc.start()
    try:
        ols_fit(X, Y)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.5 * X.nbytes


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
# k-fold utilities
# ---------------------------------------------------------------------------

def test_kfold_partition_laws():
    folds = kfold_split(11, 3, seed=4)
    sizes = [f.size for f in folds]
    assert max(sizes) - min(sizes) <= 1 and sum(sizes) == 11
    joined = np.concatenate(folds)
    assert np.array_equal(np.sort(joined), np.arange(11))
    for f in folds:
        assert np.array_equal(f, np.sort(f))


def test_kfold_seeded_and_bounds():
    assert all(
        np.array_equal(a, b)
        for a, b in zip(kfold_split(20, 4, seed=1), kfold_split(20, 4, seed=1))
    )
    flat1 = np.concatenate(kfold_split(20, 4, seed=1))
    flat2 = np.concatenate(kfold_split(20, 4, seed=2))
    assert not np.array_equal(flat1, flat2)
    with pytest.raises(BadK):
        kfold_split(10, 1)
    with pytest.raises(BadK):
        kfold_split(10, 11)


def test_train_test_folds_complement():
    folds = kfold_split(10, 2, seed=0)
    for train, test in train_test_folds(folds):
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
    folds = kfold_split(n, k, seed)
    assert len(folds) == k
    assert np.array_equal(np.sort(np.concatenate(folds)), np.arange(n))


# ---------------------------------------------------------------------------
# grid search
# ---------------------------------------------------------------------------

def test_default_grid_shape():
    assert len(DEFAULT_GRID) == 8
    assert all(p.min_samples_leaf == 20 for p in DEFAULT_GRID)


def test_grid_singleton(rng):
    X = rng.standard_normal((80, 2))
    y = rng.standard_normal(80)
    only = HyperParams(n_trees=5, max_depth=1, learning_rate=0.5, min_samples_leaf=5)
    best, table = grid_search_cv(X, y, [only], k=2)
    assert best == only
    assert len(table) == 1 and not table[0].failed


def test_grid_prefers_depth_on_curvature(rng):
    x = rng.uniform(-3.0, 3.0, size=400)
    y = x**2 + 0.1 * rng.standard_normal(400)
    grid = [
        HyperParams(n_trees=50, max_depth=0, learning_rate=0.3, min_samples_leaf=5),
        HyperParams(n_trees=50, max_depth=3, learning_rate=0.3, min_samples_leaf=5),
    ]
    best, table = grid_search_cv(x[:, None], y, grid, k=2, seed=0)
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
    best, table = grid_search_cv(X, y, grid, k=2)
    assert best == grid[0]
    assert table[1].failed and table[1].cv_mse == float("inf")


def test_grid_tie_prefers_smaller_model(rng):
    X = rng.standard_normal((50, 2))
    y = rng.standard_normal(50)
    # zero trees -> identical predictions, exact tie on cv_mse
    grid = [
        HyperParams(n_trees=0, max_depth=5),
        HyperParams(n_trees=0, max_depth=2),
    ]
    best, table = grid_search_cv(X, y, grid, k=2)
    assert table[0].cv_mse == table[1].cv_mse
    assert best.max_depth == 2


def test_grid_table_matches_separate_fits(rng):
    X = rng.standard_normal((240, 3))
    y = np.sin(2.0 * X[:, 0]) + X[:, 1] + 0.3 * rng.standard_normal(240)
    best, table = grid_search_cv(X, y, k=2, seed=3)
    pairs = train_test_folds(kfold_split(240, 2, seed=3))
    for params, row in zip(DEFAULT_GRID, table):
        preds = [predict(gbt_fit(X[tr], y[tr], params), X[te]) for tr, te in pairs]
        assert row.params == params and not row.failed
        assert row.cv_mse == float(np.mean([mse(y[te], p) for (_, te), p in zip(pairs, preds)]))
        assert row.cv_r2 == float(np.mean([r2(y[te], p) for (_, te), p in zip(pairs, preds)]))
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
    best, table = grid_search_cv(X, y, grid, k=3, seed=1)
    pairs = train_test_folds(kfold_split(120, 3, seed=1))
    for params, row in zip(grid[:3], table):
        expected = np.empty(120)
        for tr, te in pairs:
            expected[te] = predict(gbt_fit(X[tr], y[tr], params), X[te])
        assert not row.failed and row.oof.tobytes() == expected.tobytes()
    assert table[3].failed and table[3].oof is None
    # a matrix is the fold design that gives X[rows] for any fold
    again = grid_search_cv(lambda train: X.__getitem__, y, grid, k=3, seed=1)[1]
    assert [(r.cv_mse, r.cv_r2) for r in again] == [(r.cv_mse, r.cv_r2) for r in table]


def test_grid_fits_largest_of_each_n_trees_group_once_per_fold(rng, monkeypatch):
    fitted = []

    def counting_fit(X, y, params):
        fitted.append(params.n_trees)
        return gbt_fit(X, y, params)

    monkeypatch.setattr(learners, "gbt_fit", counting_fit)
    grid_search_cv(rng.standard_normal((80, 2)), rng.standard_normal(80), k=2)
    assert sorted(fitted) == [200] * 8  # 4 (depth, rate) groups x 2 folds


def test_grouped_grid_keeps_per_candidate_failures(rng):
    X = rng.standard_normal((60, 2))
    y = rng.standard_normal(60)
    grid = [
        HyperParams(n_trees=0, max_depth=1, learning_rate=0.1, min_samples_leaf=10_000),
        HyperParams(n_trees=2, max_depth=1, learning_rate=0.1, min_samples_leaf=10_000),
    ]
    best, table = grid_search_cv(X, y, grid, k=2)
    # the 0-tree candidate fits on its own although its group's 2-tree fit fails
    assert not table[0].failed and np.isfinite(table[0].cv_mse)
    assert table[1].failed and table[1].cv_mse == float("inf")
    assert best == grid[0]


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
