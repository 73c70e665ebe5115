import math
import os

import numpy as np
import pytest

from macrodml.dml import (
    LearnerSpec,
    NuisanceResiduals,
    PlrProblem,
    Z_975,
    cross_fit_nuisance,
    design_rows,
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
    DegenerateTreatment,
    LengthMismatch,
    RankDeficient,
)
from macrodml import dml
from macrodml.learners import (
    HyperParams,
    gbt_fit,
    kfold_split,
    ols_fit,
    predict,
    train_test_folds,
)
from macrodml.panel_data import PanelTable
from macrodml.synth import SynthSpec, gen_plr


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
    with pytest.raises(LengthMismatch):
        PlrProblem(np.arange(3.0), np.arange(3.0), np.zeros((3, 1)), unit_codes=[0])
    with pytest.raises(LengthMismatch):
        PlrProblem(np.arange(3.0), np.arange(3.0), np.zeros((3, 1)), month_codes=[0, 1])


def test_problem_from_panel_carries_units():
    panel = PanelTable(["A", "B"], ["2000-01"], [0, 1], [0, 0],
                       np.array([1.0, 2.0]), np.array([0.0, 1.0]),
                       np.zeros((1, 1)), np.zeros((1, 2)), ["x1"], 0)
    problem = problem_from_panel(panel)
    assert problem.unit_codes is panel.unit_codes
    assert problem.month_codes is panel.month_codes
    assert problem.x is panel
    assert problem.n_units == 2


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
    y = u.copy()  # with g_hat = 0, target = y
    res = _manual_residuals(u, v)
    result = plr_estimate(res, d, y)
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
    result = plr_estimate(res, v, u, score="residual_ols")
    assert result.theta == pytest.approx(float(v @ u) / float(v @ v), rel=1e-12)


def test_score_name_validated(rng):
    res = _manual_residuals(rng.standard_normal(10), rng.standard_normal(10))
    with pytest.raises(ConfigError):
        plr_estimate(res, np.ones(10), np.ones(10), score="magic")


def test_degenerate_when_treatment_residual_vanishes():
    n = 50
    res = _manual_residuals(np.random.default_rng(0).standard_normal(n), np.zeros(n))
    with pytest.raises(DegenerateTreatment):
        plr_estimate(res, np.arange(float(n)), np.zeros(n))


# ---------------------------------------------------------------------------
# FWL equivalence and invariances
# ---------------------------------------------------------------------------

def test_nosplit_linear_matches_full_ols():
    problem, _ = gen_plr(SynthSpec(kind="plr_linear", theta_true=1.3, n=300, seed=4))
    ones = np.ones(problem.n_obs)
    g_hat, m_hat = predict(ols_fit(np.column_stack([ones, problem.x]),
                                   np.stack([problem.y, problem.d])), problem.x)
    res = NuisanceResiduals(problem.y - g_hat, problem.d - m_hat,
                            np.zeros(problem.n_obs, dtype=np.int64), 0.0, 0.0, g_hat, m_hat)
    result = plr_estimate(res, problem.d, problem.y)
    full = ols_fit(np.column_stack([ones, problem.d, problem.x]), problem.y)
    assert abs(result.theta - full.coefficients[0]) < 1e-8


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
    scaled = PlrProblem(problem.y, 2.0 * problem.d, problem.x)
    out, _ = run_dml(scaled, LINEAR, k=2, seed=1)
    assert out.theta == pytest.approx(base.theta / 2.0, rel=1e-9)
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


def test_run_dml_deterministic():
    problem, _ = gen_plr(SynthSpec(kind="plr_nonlinear", n=600, seed=12))
    spec = LearnerSpec("boosted", HyperParams(n_trees=20, max_depth=2), seed=3)
    a, _ = run_dml(problem, spec, k=2, seed=3)
    b, _ = run_dml(problem, spec, k=2, seed=3)
    assert a.theta == b.theta and a.se == b.se


def test_learner_errors_tagged_with_fold_and_task():
    rng = np.random.default_rng(13)
    x = rng.standard_normal((50, 1))
    X = np.hstack([x, x])  # duplicated column: OLS must fail
    problem = PlrProblem(rng.standard_normal(50), rng.standard_normal(50), X)
    with pytest.raises(RankDeficient, match=r"fold 0, y-task"):
        cross_fit_nuisance(problem, LINEAR, k=2, seed=0)


@pytest.mark.parametrize("panel", [False, True])
def test_linear_cross_fit_one_ols_per_fold_matches_separate_fits(monkeypatch, panel):
    if panel:
        problem = _panel_problem()
    else:
        problem, _ = gen_plr(SynthSpec(kind="plr_linear", n=300, seed=4))
    calls = []
    monkeypatch.setattr(dml, "ols_fit", lambda X, y: calls.append(1) or ols_fit(X, y))
    res = cross_fit_nuisance(problem, LINEAR, k=3, seed=1)
    assert len(calls) == 3  # one fit per fold serves both tasks

    n = problem.n_obs
    for train, test in train_test_folds(kfold_split(n, 3, 1)):
        X = problem.x
        if panel:  # the whole encoded matrix is the reference for the row copies
            X = np.hstack([X, encode_features(problem, np.isin(np.arange(n), train))])
        for target, fitted in ((problem.y, res.g_hat), (problem.d, res.m_hat)):
            design = np.column_stack([np.ones(train.size), X[train]])
            alone = predict(ols_fit(design, target[train]), X[test])
            assert np.array_equal(fitted[test], alone)


@pytest.mark.parametrize("learner", [LINEAR, LearnerSpec("boosted", HyperParams(8, 2, 0.3, 10))],
                         ids=["linear", "boosted"])
def test_given_g_hat_is_taken_and_only_the_d_task_is_fit(monkeypatch, learner):
    problem = _panel_problem()
    full = cross_fit_nuisance(problem, learner, k=3, seed=1)
    targets = []  # the number of targets of each fit
    monkeypatch.setattr(dml, "ols_fit", lambda X, y: targets.append(len(y)) or ols_fit(X, y))
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


# ---------------------------------------------------------------------------
# unit target encoding
# ---------------------------------------------------------------------------

def _panel_problem(n_units=6, t_len=30, seed=0):
    rng = np.random.default_rng(seed)
    units = np.repeat(np.arange(n_units), t_len)
    n = n_units * t_len
    x = rng.standard_normal((n, 2))
    d = x @ [0.5, -0.5] + rng.standard_normal(n)
    alpha = np.repeat(rng.standard_normal(n_units), t_len)
    y = 1.0 * d + x @ [1.0, 1.0] + alpha + 0.5 * rng.standard_normal(n)
    return PlrProblem(y, d, x, unit_codes=units)


def test_encode_features_shapes():
    problem = _panel_problem()
    n, p = problem.x.shape
    with_y = encode_features(problem, np.ones(n, dtype=bool))
    assert with_y.shape == (n, 1)
    assert design_rows(problem.x, with_y).shape == (n, p + 1)
    # the y-mean column is the per-unit outcome mean
    unit0 = problem.unit_codes == problem.unit_codes[0]
    assert np.allclose(with_y[unit0, -1], problem.y[unit0].mean())


def test_design_rows_copies_the_rows_of_the_joined_matrix():
    problem = _panel_problem()
    means = encode_features(problem, np.arange(problem.n_obs) % 3 > 0)
    joined = np.hstack([problem.x, means])
    for rows in (np.array([5, 0, 179, 5]), np.arange(0, problem.n_obs, 2), slice(None)):
        got = design_rows(problem.x, means, rows)
        assert got.flags.c_contiguous
        assert np.array_equal(got.view(np.uint64), joined[rows].view(np.uint64))
        got = design_rows(problem.x, means, rows, order="F")
        assert got.flags.f_contiguous
        assert np.array_equal(got.view(np.uint64), joined[rows].view(np.uint64))
    assert design_rows(problem.x, means[:, :0], slice(3)).shape == (3, problem.x.shape[1])


@pytest.mark.parametrize("order", ["C", "F"])
def test_design_rows_spans_several_row_blocks(rng, order):
    n = 3 * dml._ROW_BLOCK + 5
    x, means = rng.standard_normal((n, 4)), rng.standard_normal((n, 1))
    joined = np.hstack([x, means])
    rows = np.sort(rng.choice(n, size=n - 700, replace=False))
    got = design_rows(x, means, rows, order)
    assert got.flags[{"C": "C_CONTIGUOUS", "F": "F_CONTIGUOUS"}[order]]
    assert np.array_equal(got.view(np.uint64), joined[rows].view(np.uint64))


def _tiny_problem():
    units = [0, 0, 0, 1, 1]
    y = np.array([1.0, 3.0, 10.0, 4.0, 6.0])
    d = np.array([0.1, 0.2, 0.3, 0.4, 0.5])
    x = np.array([[1.0], [2.0], [9.0], [3.0], [5.0]])
    return PlrProblem(y, d, x, unit_codes=units)


def test_encode_features_train_only_arithmetic():
    train = np.array([True, True, False, True, True])
    out = encode_features(_tiny_problem(), train)
    assert out.shape == (5, 1)
    # unit A: train y {1, 3} -> 2 everywhere, including the held-out row
    assert np.array_equal(out[:, 0], [2.0, 2.0, 2.0, 5.0, 5.0])


def test_encode_features_unseen_unit_gets_global_mean():
    problem = _tiny_problem()
    train = np.array([True, True, True, False, False])  # B never trains
    out = encode_features(problem, train)
    assert np.array_equal(out[3:, 0], np.full(2, problem.y[:3].mean()))


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
    # numbers the funds
    code_of = {unit: code for code, unit in enumerate(sorted(set(units)))}
    n = len(units)
    problem = PlrProblem(rng.standard_normal(n), rng.standard_normal(n),
                         rng.standard_normal((n, 3)),
                         unit_codes=[code_of[unit] for unit in units])
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
        ref = np.array([[sums[u] / counts[u] if u in counts else overall] for u in units])
        assert np.array_equal(got.view(np.uint64), ref.view(np.uint64))


def test_target_encoding_improves_fixed_effect_fit():
    encoded_problem = _panel_problem(seed=3)
    plain_problem = PlrProblem(encoded_problem.y, encoded_problem.d, encoded_problem.x)
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
    with open(os.path.join(full_run["out"], "residuals.csv"), newline="") as fh:
        scatter = fh.read().split("\n")
    n = 16 * (500 - 1 - 7)
    assert lines[0] == "row,fold,u,v"
    assert len(lines) == n + 2 and lines[-1] == ""
    rows = [line.split(",") for line in lines[1:-1]]
    assert [r[0] for r in rows] == [str(i) for i in range(n)]
    assert {r[1] for r in rows} == {"0", "1"}
    # u is the scatter's residual column, printed with the same text
    assert [r[2] for r in rows] == [line.split(",")[1] for line in scatter[1:-1]]
    for cell in rows[2][2:] + rows[-1][2:]:
        assert repr(float(cell)) == cell
