"""Synthetic validation suite: the ten criteria behind `macrodml validate`.

`CRITERIA` lists every criterion once: its number, name, required bound,
full replication count and the function that measures it. `run_criterion`
turns an entry into a report row. A Monte Carlo criterion run with fewer
replications than it was calibrated for reports "insufficient reps" instead
of a misleading rate. Replication i of any Monte Carlo loop uses seed base+i,
so the loops are order-independent and splittable across workers.
"""

from __future__ import annotations

import os
import tempfile
import time
from collections.abc import Callable
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .dml import (
    HyperParams,
    LearnerSpec,
    NuisanceResiduals,
    plr_estimate,
    rescale_per_1pct,
    run_dml,
    wald_inference,
)
from .errors import ConfigError
from .learners import gbt_fit, mse, ols_fit, predict, staged_predict
from .preprocess import adf_test, select_lag_var_aic
from .synth import (
    SynthSpec,
    df_critical_values,
    gen_pipeline_fixture,
    gen_plr,
    gen_unit_root,
    gen_var,
)

BOOSTED_PARAMS = HyperParams(n_trees=200, max_depth=4, learning_rate=0.1,
                             min_samples_leaf=20)


@dataclass
class CriterionResult:
    number: int
    name: str
    measured: str
    required: str
    passed: bool
    insufficient: bool = False
    seconds: float = 0.0  # wall time of the criterion; line() omits it

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return (f"[{status}] criterion {self.number:>2} ({self.name}): "
                f"measured {self.measured}; required {self.required}")


def _inference_arithmetic(seed: int, reps: int | None) -> tuple[str, bool]:
    """t and CI reproduce the reference row for coef -11.97, SE 2.522."""
    t, _, lo, hi = wald_inference(-11.97, 2.522)
    ok = abs(t - (-4.747)) <= 1e-3 and abs(lo - (-16.91)) <= 0.01 and abs(hi - (-7.03)) <= 0.01
    return f"t={t:.4f} ci=[{lo:.4f}, {hi:.4f}]", ok


def _rescaling(seed: int, reps: int | None) -> tuple[str, bool]:
    """per-1pct rescaling is an exact decimal shift on reference coefficients."""
    pairs = {-0.025: -0.00025, -0.019: -0.00019, 0.229: 0.00229, -11.97: -0.1197}
    got = {k: rescale_per_1pct(k) for k in pairs}
    exact = sum(got[k] == v for k, v in pairs.items())
    return f"{exact}/4 exact", exact == len(pairs)


def _fwl_equivalence(seed: int, reps: int) -> tuple[str, bool]:
    """The score on in-sample OLS nuisances equals the full-OLS d coefficient
    (Frisch-Waugh-Lovell)."""
    worst = 0.0
    for i in range(reps):
        theta = float(np.random.default_rng(seed + i).uniform(-2.0, 2.0))
        problem, _ = gen_plr(SynthSpec(
            kind="plr_linear", theta_true=theta, n=200, k_controls=5,
            noise_sd=1.0, seed=seed + i,
        ))
        g_hat, m_hat = predict(ols_fit([problem.x], np.stack([problem.y, problem.d])), problem.x)
        res = NuisanceResiduals(problem.y - g_hat, problem.d - m_hat,
                                np.zeros(problem.n_obs, dtype=np.int64),
                                float("nan"), float("nan"), g_hat, m_hat)
        result = plr_estimate(res, problem.d)
        full = ols_fit([np.column_stack([problem.d, problem.x])], [problem.y])
        worst = max(worst, abs(result.theta - float(full.coefficients[0, 0])))
    return f"max |theta_dml - theta_ols| = {worst:.3e} over {reps} instances", worst < 1e-8


def _boosted_consistency(seed: int, reps: int) -> tuple[str, bool]:
    """Cross-fitted boosted nuisances recover theta on the nonlinear DGP."""
    hits = 0
    for i in range(reps):
        problem, _ = gen_plr(SynthSpec(
            kind="plr_nonlinear", theta_true=0.5, n=5000, k_controls=5,
            noise_sd=1.0, seed=seed + i,
        ))
        result, _ = run_dml(
            problem, LearnerSpec("boosted", BOOSTED_PARAMS),
            k=2, seed=seed + i,
        )
        hits += abs(result.theta - 0.5) <= 3.0 * result.se
    return f"within 3 SE in {hits}/{reps} runs", hits / reps >= 0.95


def _ci_coverage(seed: int, reps: int) -> tuple[str, bool]:
    """Nominal 95% CI covers theta at close to nominal rate on the linear DGP."""
    covered = 0
    for i in range(reps):
        problem, _ = gen_plr(SynthSpec(
            kind="plr_linear", theta_true=0.5, n=2000, k_controls=5,
            noise_sd=1.0, seed=seed + i,
        ))
        result, _ = run_dml(problem, LearnerSpec("linear"), k=2, seed=seed + i)
        covered += result.ci_low <= 0.5 <= result.ci_high
    frac = covered / reps
    return f"coverage {covered}/{reps} = {frac:.3f}", 0.90 <= frac <= 0.98


def _learner_contrast(seed: int, reps: int) -> tuple[str, bool]:
    """Boosted nuisances beat linear ones on fit and bias when the DGP is nonlinear."""
    r2_lin, r2_boost, bias_lin, bias_boost = [], [], [], []
    for i in range(reps):
        problem, _ = gen_plr(SynthSpec(
            kind="plr_nonlinear", theta_true=0.5, n=2000, k_controls=5,
            noise_sd=0.5, seed=seed + i,
        ))
        res_l, nuis_l = run_dml(problem, LearnerSpec("linear"), k=2, seed=seed + i)
        res_b, nuis_b = run_dml(
            problem, LearnerSpec("boosted", BOOSTED_PARAMS),
            k=2, seed=seed + i,
        )
        r2_lin.append(nuis_l.r2_y)
        r2_boost.append(nuis_b.r2_y)
        bias_lin.append(abs(res_l.theta - 0.5))
        bias_boost.append(abs(res_b.theta - 0.5))
    gap = float(np.mean(r2_boost) - np.mean(r2_lin))
    mb_l = float(np.mean(bias_lin))
    mb_b = float(np.mean(bias_boost))
    return (f"r2_y gap {gap:.3f}; mean |bias| boosted {mb_b:.4f} vs linear {mb_l:.4f}",
            gap >= 0.10 and mb_b < mb_l)


def _adf_size_power(seed: int, reps: int) -> tuple[str, bool]:
    """ADF rarely rejects a random walk, almost always rejects AR(0.5); the
    5% critical value regenerates near its asymptotic reference."""
    size_hits = 0
    power_hits = 0
    for i in range(reps):
        walk = gen_unit_root("random_walk", 500, seed + i)
        size_hits += adf_test(walk, level="5%").stationary
        ar = gen_unit_root("ar1", 500, seed + i)
        power_hits += adf_test(ar, level="5%").stationary
    size = size_hits / reps
    power = power_hits / reps
    crit5 = df_critical_values(500, reps=100_000, seed=seed)["5%"]
    ok = size <= 0.10 and power >= 0.95 and abs(crit5 - (-2.86)) <= 0.05
    return f"size {size:.3f}, power {power:.3f}, 5% crit {crit5:.3f}", ok


def _lag_recovery(seed: int, reps: int) -> tuple[str, bool]:
    """AIC lag selection recovers the true order of a bivariate VAR(2)."""
    coeffs = [
        np.array([[0.5, 0.1], [0.0, 0.4]]),
        np.array([[0.3, 0.0], [0.1, 0.25]]),
    ]
    hits = 0
    for i in range(reps):
        mat = gen_var(coeffs, 400, seed + i)
        hits += select_lag_var_aic(mat, 8) == 2
    return f"selected p=2 in {hits}/{reps} runs", hits / reps >= 0.90


def _gbt_training_loss(seed: int, reps: int) -> tuple[str, bool]:
    """Boosting never increases training MSE; depth-0 models predict the mean."""
    worst_rise = -np.inf
    worst_mean_gap = 0.0
    for i in range(reps):
        rng = np.random.default_rng(seed + i)
        X = rng.normal(size=(300, 4))
        y = np.sin(X[:, 0]) + X[:, 1] * X[:, 2] + 0.5 * rng.normal(size=300)
        model = gbt_fit(X, y, HyperParams(n_trees=60, max_depth=3,
                                          learning_rate=0.2,
                                          min_samples_leaf=10))
        losses = [mse(y, pred) for pred in staged_predict(model, X)]
        worst_rise = max(worst_rise, float(np.max(np.diff(losses))))
        stump = gbt_fit(X, y, HyperParams(n_trees=5, max_depth=0,
                                          learning_rate=0.5))
        gap = float(np.max(np.abs(predict(stump, X) - y.mean())))
        worst_mean_gap = max(worst_mean_gap, gap)
    ok = worst_rise <= 1e-12 and worst_mean_gap <= 1e-12
    return f"max MSE rise {worst_rise:.3e}; max depth-0 gap {worst_mean_gap:.3e}", ok


def _pipeline_determinism(seed: int, reps: int | None) -> tuple[str, bool]:
    """Re-running the full pipeline with the same config reproduces every
    file it writes byte for byte."""
    from .cli import PipelineConfig, run_pipeline  # local import: cli imports us

    with tempfile.TemporaryDirectory(prefix="macrodml-validate-") as work_dir:
        fixture_dir = os.path.join(work_dir, "fixture")
        gen_pipeline_fixture(fixture_dir, seed=seed)
        out_dir = os.path.join(work_dir, "run")
        config = PipelineConfig(
            funds_csv=os.path.join(fixture_dir, "funds.csv"),
            macro_csv=os.path.join(fixture_dir, "macro.csv"),
            meta_csv=os.path.join(fixture_dir, "meta.csv"),
            treatment_name="policy_rate",
            output_dir=out_dir,
            lag_order=7,
            learner="linear",
            seed=seed,
        )

        def snapshot() -> dict[str, bytes]:
            run_pipeline(config)
            return {path.name: path.read_bytes() for path in Path(out_dir).iterdir()}

        first, second = snapshot(), snapshot()
        names = first.keys() | second.keys()
        same = sum(first.get(name) == second.get(name) for name in names)
        return (f"{same}/{len(names)} output files byte-identical across reruns",
                same == len(names))


@dataclass(frozen=True)
class Criterion:
    number: int
    name: str
    required: str
    full_reps: int | None  # replications its bound needs; None: deterministic
    measure: Callable[[int, int | None], tuple[str, bool]]  # (seed, reps) -> (measured, passed)


CRITERIA = (
    Criterion(1, "inference arithmetic",
              "t=-4.747 (tol 1e-3), ci=[-16.91, -7.03] (tol 0.01)", None, _inference_arithmetic),
    Criterion(2, "per-1pct rescaling", "4/4 exact", None, _rescaling),
    Criterion(3, "FWL equivalence", "< 1e-8 on every instance", 50, _fwl_equivalence),
    Criterion(4, "boosted consistency", "at least 95% of runs", 100, _boosted_consistency),
    Criterion(5, "CI coverage", "in [0.90, 0.98]", 200, _ci_coverage),
    Criterion(6, "learner contrast",
              "gap >= 0.10 and boosted |bias| < linear |bias|", 20, _learner_contrast),
    Criterion(7, "ADF size and power",
              "size <= 0.10, power >= 0.95, crit within -2.86 +/- 0.05", 200, _adf_size_power),
    Criterion(8, "lag-order recovery", "at least 90% of runs", 100, _lag_recovery),
    Criterion(9, "GBT training loss",
              "rise <= 1e-12 and depth-0 gap <= 1e-12", 20, _gbt_training_loss),
    Criterion(10, "pipeline determinism", "every output file byte-identical", None,
              _pipeline_determinism),
)


def run_criterion(criterion: Criterion, seed: int = 0, reps: int | None = None) -> CriterionResult:
    """The criterion's report row, with the wall seconds it took. `reps` of
    None means the full count; fewer than the full count gives an
    "insufficient reps" row without measuring."""
    start = time.perf_counter()
    full = criterion.full_reps
    short = full is not None and reps is not None and reps < full
    if short:
        measured, required, passed = (f"insufficient reps ({reps} < {full})",
                                      f"at least {full} replications", False)
    else:
        measured, passed = criterion.measure(seed, full if reps is None else reps)
        required = criterion.required
    return CriterionResult(criterion.number, criterion.name, measured, required, passed,
                           short, time.perf_counter() - start)


def run_all(seed: int = 0, reps: int | None = None) -> list[CriterionResult]:
    """Every criterion's report row, in order."""
    if seed < 0:
        raise ConfigError("seed must be >= 0")
    if reps is not None and reps < 1:
        raise ConfigError("reps must be >= 1")
    return [run_criterion(criterion, seed, reps) for criterion in CRITERIA]
