import math
import os
import subprocess
import sys
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from macrodml.dml import (
    LearnerSpec,
    NuisanceResiduals,
    PlrProblem,
    Z_975,
    cross_fit_nuisance,
    encode_features,
    plr_estimate,
    problem_from_panel,
    rescale_per_1pct,
    residual_diagnostics,
    run_dml,
    wald_inference,
)
from macrodml.errors import (
    BadKind,
    ConfigError,
    ConstantTarget,
    DataError,
    DegenerateTreatment,
    LengthMismatch,
    RankDeficient,
    TooFewRows,
)
from macrodml import dml
from macrodml.learners import (
    HyperParams,
    gbt_fit,
    ols_fit,
    predict,
)
from macrodml.panel_data import PanelTable, to_panel
from macrodml.synth import SynthSpec, gen_plr

from conftest import make_tsm


LINEAR = LearnerSpec("linear")


# ---------------------------------------------------------------------------
# Wald inference arithmetic
# ---------------------------------------------------------------------------

def test_wald_reference_row():
    t, p, lo, hi = wald_inference(-11.97, 2.522)
    assert t == pytest.approx(-4.746233, abs=1e-6)
    assert lo == pytest.approx(-16.913, abs=1e-3)
    assert hi == pytest.approx(-7.027, abs=1e-3)
    assert p == math.erfc(abs(t) / math.sqrt(2.0))
    assert p < 1e-5


def test_wald_ci_uses_fixed_quantile():
    t, p, lo, hi = wald_inference(2.0, 1.0)
    assert lo == 2.0 - Z_975 and hi == 2.0 + Z_975
    assert p == pytest.approx(0.0455, abs=5e-4)


def test_wald_rejects_bad_se():
    for se in (0.0, -1.0, float("nan"), float("inf")):
        with pytest.raises(DegenerateTreatment):
            wald_inference(1.0, se)


def test_per_1pct_decimal_exact():
    assert rescale_per_1pct(-0.025) == -0.00025
    assert rescale_per_1pct(-0.019) == -0.00019
    assert rescale_per_1pct(0.229) == 0.00229
    assert rescale_per_1pct(-11.97) == -0.1197


# ---------------------------------------------------------------------------
# problem construction
# ---------------------------------------------------------------------------

def test_problem_validates_shapes():
    with pytest.raises(LengthMismatch):
        PlrProblem(np.zeros(3), np.zeros(4), np.zeros((3, 1)))
    with pytest.raises(DegenerateTreatment):
        PlrProblem(np.arange(3.0), np.ones(3), np.zeros((3, 1)))
    # a non-finite value is bad data, named, not a numerical failure later
    with pytest.raises(DataError, match="^y holds a non-finite value"):
        PlrProblem([0.0, np.nan, 2.0], np.arange(3.0), np.zeros((3, 1)))
    with pytest.raises(DataError, match="^d holds a non-finite value"):
        PlrProblem(np.arange(3.0), [0.0, np.inf, 2.0], np.zeros((3, 1)))
    with pytest.raises(DataError, match="^x holds a non-finite value"):
        PlrProblem(np.arange(3.0), np.arange(3.0), [[0.0], [np.nan], [1.0]])


def test_problem_from_panel_carries_units():
    panel = PanelTable(["A", "B"], ["2000-01"], [0, 1], [0, 0],
                       np.array([1.0, 2.0]), np.array([0.0, 1.0]),
                       np.zeros((1, 1)), np.zeros((1, 2)), ["x1"], 0)
    problem = problem_from_panel(panel)
    assert problem.x is panel and problem.y is panel.y and problem.d is panel.d
    # the fold designs append each fund's outcome mean, read from the panel's codes
    assert np.array_equal(encode_features(problem, np.arange(2)), [1.0, 2.0])


# ---------------------------------------------------------------------------
# score algebra
# ---------------------------------------------------------------------------

def _manual_residuals(u, v):
    n = u.size
    return NuisanceResiduals(u, v, np.zeros(n, dtype=np.int64), 0.0, 0.0,
                             np.zeros(n), np.zeros(n))


def test_orthogonal_score_hand_computation(rng):
    n = 500
    v = rng.standard_normal(n)
    u = 0.7 * v + 0.1 * rng.standard_normal(n)
    d = v + rng.standard_normal(n)
    y = u.copy()  # with g_hat = 0, u = y - g_hat = y
    res = _manual_residuals(u, v)
    result = plr_estimate(res, d)
    theta = float(v @ y) / float(v @ d)
    assert result.theta == pytest.approx(theta, rel=1e-12)
    psi = (y - theta * d) * v
    jac = float(v @ d) / n
    se = math.sqrt(float(psi @ psi) / n / (n * jac * jac))
    assert result.se == pytest.approx(se, rel=1e-12)
    assert result.t == result.theta / result.se


def test_residual_ols_score_is_projection(rng):
    n = 400
    v = rng.standard_normal(n)
    u = -2.0 * v + 0.2 * rng.standard_normal(n)
    res = _manual_residuals(u, v)
    result = plr_estimate(res, v, score="residual_ols")
    assert result.theta == pytest.approx(float(v @ u) / float(v @ v), rel=1e-12)


def test_score_name_validated(rng):
    res = _manual_residuals(rng.standard_normal(10), rng.standard_normal(10))
    with pytest.raises(ConfigError):
        plr_estimate(res, np.ones(10), score="magic")


def test_degenerate_when_treatment_residual_vanishes():
    n = 50
    res = _manual_residuals(np.random.default_rng(0).standard_normal(n), np.zeros(n))
    with pytest.raises(DegenerateTreatment):
        plr_estimate(res, np.arange(float(n)))


# ---------------------------------------------------------------------------
# FWL equivalence and invariances
# ---------------------------------------------------------------------------

def test_outcome_scale_equivariance():
    problem, _ = gen_plr(SynthSpec(kind="plr_linear", n=400, seed=5))
    base, _ = run_dml(problem, LINEAR, k=2, seed=1)
    scaled = PlrProblem(3.0 * problem.y, problem.d, problem.x)
    out, _ = run_dml(scaled, LINEAR, k=2, seed=1)
    assert out.theta == pytest.approx(3.0 * base.theta, rel=1e-9)
    assert out.se == pytest.approx(3.0 * base.se, rel=1e-9)
    assert out.t == pytest.approx(base.t, rel=1e-9)


def test_treatment_scale_equivariance():
    problem, _ = gen_plr(SynthSpec(kind="plr_linear", n=400, seed=6))
    base, _ = run_dml(problem, LINEAR, k=2, seed=1)
    for factor in (2.0, 1e-6, 1e-9):
        scaled = PlrProblem(problem.y, factor * problem.d, problem.x)
        out, _ = run_dml(scaled, LINEAR, k=2, seed=1)
        assert out.theta == pytest.approx(base.theta / factor, rel=1e-9)
        assert out.t == pytest.approx(base.t, rel=1e-9)


def test_null_effect_covered():
    rng = np.random.default_rng(7)
    x = rng.standard_normal((2000, 3))
    d = x @ [0.4, 0.2, -0.1] + rng.standard_normal(2000)
    y = rng.standard_normal(2000)  # theta = 0
    result, _ = run_dml(PlrProblem(y, d, x), LINEAR, k=2, seed=0)
    assert abs(result.theta) <= 3.0 * result.se


def test_irrelevant_noise_columns_barely_move_theta():
    problem, _ = gen_plr(SynthSpec(kind="plr_linear", n=2000, seed=8))
    base, _ = run_dml(problem, LINEAR, k=2, seed=2)
    noise = np.random.default_rng(99).standard_normal((problem.n_obs, 3))
    wide = PlrProblem(problem.y, problem.d, np.hstack([problem.x, noise]))
    out, _ = run_dml(wide, LINEAR, k=2, seed=2)
    assert abs(out.theta - base.theta) < base.se


# ---------------------------------------------------------------------------
# cross-fitting mechanics
# ---------------------------------------------------------------------------

def test_every_row_predicted_out_of_fold():
    problem, _ = gen_plr(SynthSpec(kind="plr_linear", n=40, seed=9))
    res = cross_fit_nuisance(problem, LINEAR, k=4, seed=0)
    assert np.all(res.fold_of >= 0) and np.unique(res.fold_of).size == 4
    assert np.all(np.isfinite(res.g_hat)) and np.all(np.isfinite(res.m_hat))


def test_treatment_residual_mean_near_zero():
    problem, _ = gen_plr(SynthSpec(kind="plr_linear", n=2000, seed=10))
    res = cross_fit_nuisance(problem, LINEAR, k=2, seed=0)
    n = problem.n_obs
    assert abs(res.v.mean()) <= 3.0 * res.v.std() / math.sqrt(n)


def test_oof_r2_matches_population():
    spec = SynthSpec(kind="plr_linear", n=5000, noise_sd=1.0, seed=11)
    problem, truth = gen_plr(spec)
    res = cross_fit_nuisance(problem, LINEAR, k=2, seed=0)
    assert truth["r2_d_pop"] == 0.5
    assert abs(res.r2_d - truth["r2_d_pop"]) < 0.05
    # the best x-only predictor of y leaves theta*v + u unexplained
    resid_var = spec.theta_true**2 * spec.noise_sd**2 + spec.noise_sd**2
    assert abs(res.r2_y - (1.0 - resid_var / np.var(problem.y))) < 0.05


def test_constant_outcome_raises_constant_target():
    x = np.random.default_rng(13).standard_normal((40, 2))
    problem = PlrProblem(np.full(40, 2.5), x @ [1.0, -0.5] + x[:, 0] ** 2, x)
    with pytest.raises(ConstantTarget):
        cross_fit_nuisance(problem, LINEAR, k=2, seed=0)


def test_run_dml_deterministic():
    problem, _ = gen_plr(SynthSpec(kind="plr_nonlinear", n=600, seed=12))
    spec = LearnerSpec("boosted", HyperParams(n_trees=20, max_depth=2), seed=3)
    a, _ = run_dml(problem, spec, k=2, seed=3)
    b, _ = run_dml(problem, spec, k=2, seed=3)
    assert a.theta == b.theta and a.se == b.se


THREADS_PROBE = """
from macrodml.dml import LearnerSpec, run_dml
from macrodml.synth import SynthSpec, gen_plr
problem, _ = gen_plr(SynthSpec(kind="plr_linear", n=20_000, seed=3))
result, res = run_dml(problem, LearnerSpec("linear"))
print(repr((result.theta, result.se, res.r2_y, res.r2_d)))
"""


@pytest.mark.skipif((os.cpu_count() or 1) < 2, reason="OpenBLAS runs at most one thread a core")
def test_linear_estimate_does_not_depend_on_the_blas_thread_count():
    """OpenBLAS splits a dot product of more than about 10,000 entries
    across its threads, so on 20,000 rows its rounding would follow the
    thread count; run_dml runs on one BLAS thread whatever the caller set."""
    src = os.path.dirname(os.path.dirname(dml.__file__))
    printed = [
        subprocess.run([sys.executable, "-c", THREADS_PROBE], capture_output=True, text=True,
                       check=True, env={**os.environ, "PYTHONPATH": src,
                                        "OPENBLAS_NUM_THREADS": threads}).stdout
        for threads in ("1", "2")
    ]
    assert printed[0] == printed[1]


def test_learner_errors_tagged_with_fold_and_task():
    rng = np.random.default_rng(13)
    x = rng.standard_normal((50, 1))
    X = np.hstack([x, x])  # duplicated column: OLS must fail
    problem = PlrProblem(rng.standard_normal(50), rng.standard_normal(50), X)
    with pytest.raises(RankDeficient, match=r"fold 0, y-task"):
        cross_fit_nuisance(problem, LINEAR, k=2, seed=0)


class _ShapedMemoryError(MemoryError):
    """Built from (shape, dtype), not from one message, as numpy's error for
    a failed allocation is."""

    def __init__(self, shape, dtype):
        super().__init__(f"cannot allocate {shape} of {dtype}")


@pytest.mark.parametrize("learner", [LINEAR, LearnerSpec("boosted", HyperParams(4, 2, 0.3, 10))],
                         ids=["linear", "boosted"])
def test_an_error_that_is_not_the_packages_leaves_a_fold_as_raised(monkeypatch, learner):
    """Only a package error, which takes one message, gets the fold and task
    prefix; any other error propagates as it was raised."""
    raised = _ShapedMemoryError((10**15,), np.dtype(float))

    def fail(*args):
        raise raised

    monkeypatch.setattr(dml, "ols_fit", fail)
    monkeypatch.setattr(dml, "gbt_fit", fail)
    with pytest.raises(_ShapedMemoryError) as caught:
        cross_fit_nuisance(_panel_problem(), learner, k=2, seed=0)
    assert caught.value is raised


def test_the_fold_plan_is_the_one_place_folds_are_decided(monkeypatch):
    """Tuning and cross-fitting both take their folds from PlrProblem.folds:
    given another partition there (by the panel's month codes), the tuned
    winner's out-of-fold predictions are still the cross-fit's g_hat, and
    each row's fold is the patched one."""
    problem = _panel_problem()
    month_fold = (problem.x.month_codes % 3).astype(np.int64)
    assert not np.array_equal(month_fold, problem.folds(3, 1)[1])

    def month_folds(self, k, seed=0):
        fold_of = (self.x.month_codes % k).astype(np.int64)
        return [(np.flatnonzero(fold_of != i), np.flatnonzero(fold_of == i))
                for i in range(k)], fold_of

    monkeypatch.setattr(PlrProblem, "folds", month_folds)
    best, table = dml.grid_search_cv(problem, [HyperParams(8, 2, 0.3, 10)], k=3, seed=1)
    res = cross_fit_nuisance(problem, LearnerSpec("boosted", best), k=3, seed=1)
    assert table[0].oof.tobytes() == res.g_hat.tobytes()
    assert res.fold_of.tobytes() == month_fold.tobytes()
    assert cross_fit_nuisance(problem, LINEAR, k=3, seed=1).fold_of.tobytes() == month_fold.tobytes()


@pytest.mark.parametrize("panel", [False, True])
def test_linear_cross_fit_one_ols_per_fold_matches_separate_fits(monkeypatch, panel):
    """One ols_fit per fold serves both tasks. A cross-sectional fold is fit
    on its rows of x and gives those fits' bits; a panel fold is fit on its
    month groups and matches the fit on its gathered rows to rounding."""
    if panel:
        problem = _panel_problem()
    else:
        problem, _ = gen_plr(SynthSpec(kind="plr_linear", n=300, seed=4))
    calls = []
    monkeypatch.setattr(dml, "ols_fit", lambda X, Y: calls.append(1) or ols_fit(X, Y))
    res = cross_fit_nuisance(problem, LINEAR, k=3, seed=1)
    assert len(calls) == 3  # one fit per fold serves both tasks

    for train, test in problem.folds(3, 1)[0]:
        if panel:  # the whole encoded matrix is the reference for the month groups
            means = encode_features(problem, train)[problem.x.unit_codes]
            X = np.column_stack([problem.x.month_x, means])
        else:
            X = problem.x
        for target, fitted in ((problem.y, res.g_hat), (problem.d, res.m_hat)):
            alone = predict(ols_fit(X[train], [target[train]]), X[test])[0]
            if panel:
                assert np.abs(fitted[test] - alone).max() <= 1e-12 * np.abs(alone).max()
            else:
                assert np.array_equal(fitted[test], alone)


def test_linear_cross_fit_holds_a_few_design_blocks_not_the_fold():
    """A linear panel fold is fit from its month groups, a few rows per
    month, and predicted month by month: on a 58,950-row panel the traced
    peak of a cross-fit stays below 4 * 8,192 rows of the 40-column design
    plus 16 floats per row (residuals, predictions, fold indices, targets),
    where one fold's whole training design is 40 floats per training row."""
    rng = np.random.default_rng(3)
    T, n_funds = 400, 150
    funds = make_tsm(rng.standard_normal((T, n_funds)), names=[f"F{i:03d}" for i in range(n_funds)])
    macro = make_tsm(rng.standard_normal((T, 4)), names=["d", "c1", "c2", "c3"])
    problem = problem_from_panel(to_panel(funds, macro, "d", lag_order=7))
    width = 1 + len(problem.x.x_names) + 1  # intercept, x, unit mean
    n = problem.n_obs
    tracemalloc.start()
    try:
        cross_fit_nuisance(problem, LINEAR, k=2, seed=0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * 8192 * width * 8 + 16 * 8 * n


def _unbalanced_problem(seed=0):
    """A lag-2 panel of 12 funds over 40 months with NaN gaps and funds that
    enter late, so months hold from 1 to 12 rows."""
    rng = np.random.default_rng(seed)
    T, n_funds = 40, 12
    returns = rng.standard_normal((T, n_funds))
    for i in range(n_funds):
        returns[:3 * i, i] = np.nan  # fund i enters in month 3i
    returns[20, 2] = returns[25, 5] = returns[30, 0] = np.nan
    funds = make_tsm(returns, names=[f"F{i:02d}" for i in range(n_funds)])
    macro = make_tsm(rng.standard_normal((T, 3)), names=["d", "c1", "c2"])
    return problem_from_panel(to_panel(funds, macro, "d", lag_order=2))


def _gathered_fold_fit(problem, train, test, targets):
    """Each target's OLS predictions on the test rows from the gathered
    design, the reference for a panel fold's month-group fit."""
    X = np.asarray(problem.x.design(np.arange(problem.n_obs), encode_features(problem, train)))
    return predict(ols_fit(X[train], np.stack([t[train] for t in targets])), X[test])


def test_unbalanced_panel_fits_its_month_groups_as_its_rows():
    """On an unbalanced panel, with folds where a month holds fewer training
    rows than a month group's width and a test month holds no training row,
    the month-group fit predicts what the gathered rows' fit predicts, with
    both tasks or with a given g_hat."""
    problem = _unbalanced_problem()
    panel = problem.x
    width = 1 + panel.lag_order + 1 + 2  # ones, lags, outcome mean, y and d
    counts = np.bincount(panel.month_codes)
    res = cross_fit_nuisance(problem, LINEAR, k=3, seed=2)
    pairs = problem.folds(3, 2)[0]
    sparse = lonely = False
    for train, test in pairs:
        per_month = np.bincount(panel.month_codes[train], minlength=len(counts))
        sparse |= bool(((per_month > 0) & (per_month < width)).any())
        lonely |= bool((per_month[panel.month_codes[test]] == 0).any())
        want = _gathered_fold_fit(problem, train, test, (problem.y, problem.d))
        for fitted, ref in zip((res.g_hat, res.m_hat), want):
            assert np.abs(fitted[test] - ref).max() <= 1e-12 * np.abs(ref).max()
    assert sparse and lonely  # the cases this test is for do occur
    given = cross_fit_nuisance(problem, LINEAR, k=3, seed=2, g_hat=res.g_hat)
    assert given.g_hat.tobytes() == res.g_hat.tobytes()
    assert np.abs(given.m_hat - res.m_hat).max() <= 1e-12 * np.abs(res.m_hat).max()


def test_unbalanced_panel_errors_name_the_fold_and_task():
    """A rank-deficient or too-short month-group fit raises the package
    error of the gathered rows' fit, with its fold and task."""
    problem = _unbalanced_problem()
    month_x = problem.x.month_x.copy()
    month_x[:, 0] = 2.5  # a constant control collides with the intercept
    flat = replace(problem.x, month_x=month_x)
    with pytest.raises(RankDeficient, match=r"^fold 0, y-task: design matrix is rank deficient$"):
        cross_fit_nuisance(problem_from_panel(flat), LINEAR, k=3, seed=2)
    g_hat = cross_fit_nuisance(problem, LINEAR, k=3, seed=2).g_hat
    with pytest.raises(RankDeficient, match=r"^fold 0, d-task: "):
        cross_fit_nuisance(problem_from_panel(flat), LINEAR, k=3, seed=2, g_hat=g_hat)
    rows = np.flatnonzero(problem.x.unit_codes >= 8)[:24]  # 24 rows, 3 funds
    short = PlrProblem(problem.y[rows], problem.d[rows], _subpanel(problem.x, rows))
    with pytest.raises(TooFewRows, match=r"^fold 0, y-task: need more than"):
        cross_fit_nuisance(short, LINEAR, k=2, seed=0)


def _subpanel(panel, rows):
    """The PanelTable of some of a panel's rows."""
    units = np.unique(panel.unit_codes[rows])
    return PanelTable([panel.units[u] for u in units], panel.months,
                      np.searchsorted(units, panel.unit_codes[rows]), panel.month_codes[rows],
                      panel.y[rows], panel.d[rows], panel.month_x, panel.returns[:, units],
                      panel.x_names, panel.lag_order)


@pytest.mark.parametrize("learner", [LINEAR, LearnerSpec("boosted", HyperParams(8, 2, 0.3, 10))],
                         ids=["linear", "boosted"])
def test_given_g_hat_is_taken_and_only_the_d_task_is_fit(monkeypatch, learner):
    problem = _panel_problem()
    full = cross_fit_nuisance(problem, learner, k=3, seed=1)
    targets = []  # the number of targets of each fit
    monkeypatch.setattr(dml, "ols_fit", lambda X, Y: targets.append(len(Y)) or ols_fit(X, Y))
    monkeypatch.setattr(dml, "gbt_fit", lambda X, y, p: targets.append(1) or gbt_fit(X, y, p))
    given = cross_fit_nuisance(problem, learner, k=3, seed=1, g_hat=full.g_hat)
    assert targets == [1, 1, 1]  # each fold fits the d task alone
    for name in ("u", "v", "g_hat", "m_hat", "fold_of", "r2_y", "r2_d"):
        assert np.asarray(getattr(given, name)).tobytes() == np.asarray(getattr(full, name)).tobytes()
    with pytest.raises(LengthMismatch):
        cross_fit_nuisance(problem, learner, k=3, seed=1, g_hat=full.g_hat[:-1])


def test_learner_kind_is_validated():
    problem, _ = gen_plr(SynthSpec(kind="plr_linear", n=50, seed=1))
    with pytest.raises(BadKind):
        run_dml(problem, LearnerSpec("forest"))
    with pytest.raises(ConfigError, match="^a boosted learner needs its params$"):
        run_dml(problem, LearnerSpec("boosted"))


# ---------------------------------------------------------------------------
# unit target encoding
# ---------------------------------------------------------------------------

def _panel(unit_codes, y, d, x):
    """A lag-0 PanelTable with one month per row, so the rows of its x are
    the rows of x; unit_codes, fund-major, number the funds 0, 1, ..."""
    x = np.asarray(x, dtype=float)
    n, p = x.shape
    n_units = int(max(unit_codes)) + 1
    return PanelTable([f"F{u}" for u in range(n_units)], [f"m{t}" for t in range(n)],
                      unit_codes, np.arange(n), y, d, x, np.zeros((n, n_units)),
                      [f"x{j}" for j in range(p)], 0)


def _panel_problem(n_units=6, t_len=30, seed=0):
    rng = np.random.default_rng(seed)
    units = np.repeat(np.arange(n_units), t_len)
    n = n_units * t_len
    x = rng.standard_normal((n, 2))
    d = x @ [0.5, -0.5] + rng.standard_normal(n)
    alpha = np.repeat(rng.standard_normal(n_units), t_len)
    y = 1.0 * d + x @ [1.0, 1.0] + alpha + 0.5 * rng.standard_normal(n)
    return problem_from_panel(_panel(units, y, d, x))


def test_encode_features_shapes():
    problem = _panel_problem()
    n, p = problem.n_obs, len(problem.x.x_names)
    with_y = encode_features(problem, np.ones(n, dtype=bool))
    assert with_y.shape == (len(problem.x.units),)
    assert np.asarray(problem.x.design(np.arange(n), with_y)).shape == (n, p + 1)
    # one outcome mean per unit
    unit0 = problem.x.unit_codes == 0
    assert np.allclose(with_y[0], problem.y[unit0].mean())


def test_fold_rows_are_the_rows_of_the_joined_matrix():
    """A fold's rows, written out, hold the bits of the rows of x joined
    with the fold's fund outcome means for a panel, and are x's rows for a
    cross-sectional x."""
    problem = _panel_problem()
    train = np.flatnonzero(np.arange(problem.n_obs) % 3 > 0)
    joined = np.column_stack([problem.x.month_x,
                              encode_features(problem, train)[problem.x.unit_codes]])
    rows_of = problem.fold_rows(train)
    for rows in (np.array([5, 0, 179, 5]), np.arange(0, problem.n_obs, 2),
                 np.arange(problem.n_obs)):
        got = np.asarray(rows_of(rows))
        assert got.flags.c_contiguous
        assert np.array_equal(got.view(np.uint64), joined[rows].view(np.uint64))
    flat, _ = gen_plr(SynthSpec(kind="plr_linear", n=50, seed=1))
    rows = np.array([3, 0, 49, 3])
    assert np.array_equal(flat.fold_rows(train[train < 50])(rows), flat.x[rows])


def test_design_rows_are_the_rows_of_x_and_the_means():
    """The month groups of any rows of a panel (`PanelTable.design`) are the
    rows of x joined with their funds' outcome means: shared month part,
    lags and outcome mean at their columns, as np.asarray writes them out."""
    problem = _unbalanced_problem()
    means = encode_features(problem, np.arange(problem.n_obs) % 3 > 0)
    rows = np.array([7, 0, problem.n_obs - 1, 7, 40])
    panel = problem.x
    got = panel.design(rows, means)
    dense = got.shared[got.group].copy()
    dense[:, got.at] = got.varying
    x = panel.month_x[panel.month_codes]  # y_lag{j}: the fund's return j months earlier
    for c, name in enumerate(panel.x_names):
        if name.startswith("y_lag"):
            x[:, c] = panel.returns[panel.month_codes - int(name[5:]), panel.unit_codes]
    assert np.array_equal(dense, np.column_stack([x[rows], means[panel.unit_codes[rows]]]))
    assert np.array_equal(np.asarray(got), dense)


def _tiny_problem():
    units = [0, 0, 0, 1, 1]
    y = np.array([1.0, 3.0, 10.0, 4.0, 6.0])
    d = np.array([0.1, 0.2, 0.3, 0.4, 0.5])
    x = np.array([[1.0], [2.0], [9.0], [3.0], [5.0]])
    return problem_from_panel(_panel(units, y, d, x))


def test_encode_features_train_only_arithmetic():
    train = np.array([True, True, False, True, True])
    out = encode_features(_tiny_problem(), train)
    assert out.shape == (2,)
    # unit A: train y {1, 3} -> 2, its held-out row not counted
    assert np.array_equal(out, [2.0, 5.0])


def test_encode_features_unseen_unit_gets_global_mean():
    problem = _tiny_problem()
    train = np.array([True, True, True, False, False])  # B never trains
    out = encode_features(problem, train)
    assert out[1] == problem.y[:3].mean()


def test_encode_features_no_leakage():
    train = np.array([True, True, False, True, True])
    before = encode_features(_tiny_problem(), train)
    bumped = _tiny_problem()
    bumped.y[2] += 1000.0  # held-out row only
    after = encode_features(bumped, train)
    assert np.array_equal(before, after)


@pytest.mark.parametrize("units", [
    [f"U{i % 11}" for i in range(330)],  # "U10" sorts before "U2"
    [("b", "a", "c")[i % 3] for i in range(330)],
    [int(v) for v in np.random.default_rng(5).integers(-3, 40, 330)],
])
def test_encode_features_codes_give_the_string_id_means(rng, units):
    # each id's code is its rank among the sorted distinct ids, as to_panel
    # numbers the funds, and a panel's rows are fund-major
    units = sorted(units)
    code_of = {unit: code for code, unit in enumerate(sorted(set(units)))}
    n = len(units)
    problem = problem_from_panel(_panel([code_of[unit] for unit in units], rng.standard_normal(n),
                                        rng.standard_normal(n), rng.standard_normal((n, 3))))
    for mask in (np.ones(n, dtype=bool), rng.random(n) < 0.5, np.arange(n) < 40):
        got = encode_features(problem, mask)
        # each unit's training-row mean, found row by row on the string ids:
        # bincount adds a unit's rows in row order, as this loop does
        sums, counts = {}, {}
        for unit, y, train in zip(units, problem.y, mask):
            if train:
                sums[unit] = sums.get(unit, 0.0) + y
                counts[unit] = counts.get(unit, 0) + 1
        overall = problem.y[mask].mean()
        ref = np.array([sums[u] / counts[u] if u in counts else overall
                        for u in sorted(code_of)])  # in code order
        assert np.array_equal(got.view(np.uint64), ref.view(np.uint64))


def test_target_encoding_improves_fixed_effect_fit():
    encoded_problem = _panel_problem(seed=3)
    plain_problem = PlrProblem(encoded_problem.y, encoded_problem.d, encoded_problem.x.month_x)
    plain = cross_fit_nuisance(plain_problem, LINEAR, k=2, seed=0)
    encoded = cross_fit_nuisance(encoded_problem, LINEAR, k=2, seed=0)
    assert encoded.r2_y > plain.r2_y


# ---------------------------------------------------------------------------
# diagnostics and serialization
# ---------------------------------------------------------------------------

def test_residual_diagnostics_gaussian_fraction():
    rng = np.random.default_rng(14)
    u = rng.standard_normal(10_000)
    res = _manual_residuals(u, rng.standard_normal(10_000))
    summary = residual_diagnostics(res)
    assert abs(summary["frac_within_1sd"] - 0.683) < 0.03
    assert summary["max_abs"] == np.max(np.abs(u))


def test_results_csv_layout(full_run):
    with open(os.path.join(full_run["out"], "results.csv"), newline="") as fh:
        lines = fh.read().split("\n")
    assert lines[0] == "model,coef,se,t,p,ci_low,ci_high,n,per_1pct"
    assert len(lines) == 3 and lines[2] == ""  # one row, "\n" line ends
    cells = lines[1].split(",")
    assert cells[0] == "linear"
    assert cells[7] == str(16 * (500 - 1 - 7))
    for cell in cells[1:7] + cells[8:]:
        assert repr(float(cell)) == cell  # shortest round-trip text
    assert float(cells[8]) == rescale_per_1pct(float(cells[1]))


def test_residuals_csv_layout(full_run):
    with open(os.path.join(full_run["out"], "nuisance_residuals.csv"), newline="") as fh:
        lines = fh.read().split("\n")
    n = 16 * (500 - 1 - 7)
    assert lines[0] == "row,fold,v"
    assert len(lines) == n + 2 and lines[-1] == ""
    rows = [line.split(",") for line in lines[1:-1]]
    assert [r[0] for r in rows] == [str(i) for i in range(n)]
    assert {r[1] for r in rows} == {"0", "1"}
    for cell in rows[2][2:] + rows[-1][2:]:
        assert repr(float(cell)) == cell
