"""Synthetic validation suite: the ten checks behind `macrodml validate`.

Each check returns a CriterionResult with the measured value, the required
bound, and a pass flag. Monte Carlo checks take a replication count; passing
fewer replications than the check was calibrated for marks the row
"insufficient reps" instead of reporting a misleading rate. Replication i of
any Monte Carlo loop uses seed base+i, so the loops are order-independent
and splittable across workers.
"""

from __future__ import annotations

import os
import tempfile
import time
from dataclasses import dataclass

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
from .learners import gbt_fit, ols_fit, predict, staged_mse
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

# replications each Monte Carlo check needs for its stated bound to be meaningful
FULL_REPS = {3: 50, 4: 100, 5: 200, 6: 20, 7: 200, 8: 100, 9: 20}


@dataclass
class CriterionResult:
    number: int
    name: str
    measured: str
    required: str
    passed: bool
    insufficient: bool = False
    seconds: float = 0.0  # wall time of the check; run_all sets it, line() omits it

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return (f"[{status}] criterion {self.number:>2} ({self.name}): "
                f"measured {self.measured}; required {self.required}")


def _resolve_reps(number: int, reps: int | None) -> tuple[int, CriterionResult | None]:
    needed = FULL_REPS[number]
    if reps is None:
        return needed, None
    if reps < needed:
        return reps, CriterionResult(
            number=number,
            name="",
            measured=f"insufficient reps ({reps} < {needed})",
            required=f"at least {needed} replications",
            passed=False,
            insufficient=True,
        )
    return reps, None


def check_inference_arithmetic(seed: int = 0) -> CriterionResult:
    """t and CI reproduce the reference row for coef -11.97, SE 2.522."""
    t, _, lo, hi = wald_inference(-11.97, 2.522)
    ok = abs(t - (-4.747)) <= 1e-3 and abs(lo - (-16.91)) <= 0.01 and abs(hi - (-7.03)) <= 0.01
    return CriterionResult(
        1, "inference arithmetic",
        f"t={t:.4f} ci=[{lo:.4f}, {hi:.4f}]",
        "t=-4.747 (tol 1e-3), ci=[-16.91, -7.03] (tol 0.01)",
        ok,
    )


def check_rescaling(seed: int = 0) -> CriterionResult:
    """per-1pct rescaling is an exact decimal shift on reference coefficients."""
    pairs = {-0.025: -0.00025, -0.019: -0.00019, 0.229: 0.00229, -11.97: -0.1197}
    got = {k: rescale_per_1pct(k) for k in pairs}
    ok = all(got[k] == v for k, v in pairs.items())
    return CriterionResult(
        2, "per-1pct rescaling",
        f"{sum(got[k] == v for k, v in pairs.items())}/4 exact",
        "4/4 exact",
        ok,
    )


def check_fwl_equivalence(seed: int = 0, reps: int | None = None) -> CriterionResult:
    """The score on in-sample OLS nuisances equals the full-OLS d coefficient
    (Frisch-Waugh-Lovell)."""
    reps, short = _resolve_reps(3, reps)
    if short is not None:
        short.name = "FWL equivalence"
        return short
    worst = 0.0
    for i in range(reps):
        theta = float(np.random.default_rng(seed + i).uniform(-2.0, 2.0))
        problem, _ = gen_plr(SynthSpec(
            kind="plr_linear", theta_true=theta, n=200, k_controls=5,
            noise_sd=1.0, seed=seed + i,
        ))
        ones = np.ones(problem.n_obs)
        g_hat, m_hat = predict(ols_fit(np.column_stack([ones, problem.x]),
                                       np.stack([problem.y, problem.d])), problem.x)
        res = NuisanceResiduals(problem.y - g_hat, problem.d - m_hat,
                                np.zeros(problem.n_obs, dtype=np.int64),
                                float("nan"), float("nan"), g_hat, m_hat)
        result = plr_estimate(res, problem.d, problem.y)
        full = ols_fit(np.column_stack([ones, problem.d, problem.x]), problem.y)
        worst = max(worst, abs(result.theta - float(full.coefficients[0])))
    return CriterionResult(
        3, "FWL equivalence",
        f"max |theta_dml - theta_ols| = {worst:.3e} over {reps} instances",
        "< 1e-8 on every instance",
        worst < 1e-8,
    )


def check_boosted_consistency(seed: int = 0, reps: int | None = None) -> CriterionResult:
    """Cross-fitted boosted nuisances recover theta on the nonlinear DGP."""
    reps, short = _resolve_reps(4, reps)
    if short is not None:
        short.name = "boosted consistency"
        return short
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
    frac = hits / reps
    return CriterionResult(
        4, "boosted consistency",
        f"within 3 SE in {hits}/{reps} runs",
        "at least 95% of runs",
        frac >= 0.95,
    )


def check_ci_coverage(seed: int = 0, reps: int | None = None) -> CriterionResult:
    """Nominal 95% CI covers theta at close to nominal rate on the linear DGP."""
    reps, short = _resolve_reps(5, reps)
    if short is not None:
        short.name = "CI coverage"
        return short
    covered = 0
    for i in range(reps):
        problem, _ = gen_plr(SynthSpec(
            kind="plr_linear", theta_true=0.5, n=2000, k_controls=5,
            noise_sd=1.0, seed=seed + i,
        ))
        result, _ = run_dml(problem, LearnerSpec("linear"), k=2, seed=seed + i)
        covered += result.ci_low <= 0.5 <= result.ci_high
    frac = covered / reps
    return CriterionResult(
        5, "CI coverage",
        f"coverage {covered}/{reps} = {frac:.3f}",
        "in [0.90, 0.98]",
        0.90 <= frac <= 0.98,
    )


def check_learner_contrast(seed: int = 0, reps: int | None = None) -> CriterionResult:
    """Boosted nuisances beat linear ones on fit and bias when the DGP is nonlinear."""
    reps, short = _resolve_reps(6, reps)
    if short is not None:
        short.name = "learner contrast"
        return short
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
    return CriterionResult(
        6, "learner contrast",
        f"r2_y gap {gap:.3f}; mean |bias| boosted {mb_b:.4f} vs linear {mb_l:.4f}",
        "gap >= 0.10 and boosted |bias| < linear |bias|",
        gap >= 0.10 and mb_b < mb_l,
    )


def check_adf_size_power(seed: int = 0, reps: int | None = None) -> CriterionResult:
    """ADF rarely rejects a random walk, almost always rejects AR(0.5); the
    5% critical value regenerates near its asymptotic reference."""
    reps, short = _resolve_reps(7, reps)
    if short is not None:
        short.name = "ADF size and power"
        return short
    size_hits = 0
    power_hits = 0
    for i in range(reps):
        walk = gen_unit_root(SynthSpec(kind="random_walk", n=500, seed=seed + i))
        size_hits += adf_test(walk, level="5%").stationary
        ar = gen_unit_root(SynthSpec(kind="ar1", n=500, seed=seed + i,
                                     extra={"phi": 0.5}))
        power_hits += adf_test(ar, level="5%").stationary
    size = size_hits / reps
    power = power_hits / reps
    crit5 = df_critical_values(500, reps=100_000, seed=seed)["5%"]
    ok = size <= 0.10 and power >= 0.95 and abs(crit5 - (-2.86)) <= 0.05
    return CriterionResult(
        7, "ADF size and power",
        f"size {size:.3f}, power {power:.3f}, 5% crit {crit5:.3f}",
        "size <= 0.10, power >= 0.95, crit within -2.86 +/- 0.05",
        ok,
    )


def check_lag_recovery(seed: int = 0, reps: int | None = None) -> CriterionResult:
    """AIC lag selection recovers the true order of a bivariate VAR(2)."""
    reps, short = _resolve_reps(8, reps)
    if short is not None:
        short.name = "lag-order recovery"
        return short
    coeffs = [
        np.array([[0.5, 0.1], [0.0, 0.4]]),
        np.array([[0.3, 0.0], [0.1, 0.25]]),
    ]
    hits = 0
    for i in range(reps):
        mat = gen_var(SynthSpec(kind="var", n=400, seed=seed + i,
                                extra={"coeffs": coeffs}))
        hits += select_lag_var_aic(mat, 8) == 2
    frac = hits / reps
    return CriterionResult(
        8, "lag-order recovery",
        f"selected p=2 in {hits}/{reps} runs",
        "at least 90% of runs",
        frac >= 0.90,
    )


def check_gbt_training_loss(seed: int = 0, reps: int | None = None) -> CriterionResult:
    """Boosting never increases training MSE; depth-0 models predict the mean."""
    reps, short = _resolve_reps(9, reps)
    if short is not None:
        short.name = "GBT training loss"
        return short
    worst_rise = -np.inf
    worst_mean_gap = 0.0
    for i in range(reps):
        rng = np.random.default_rng(seed + i)
        X = rng.normal(size=(300, 4))
        y = np.sin(X[:, 0]) + X[:, 1] * X[:, 2] + 0.5 * rng.normal(size=300)
        model = gbt_fit(X, y, HyperParams(n_trees=60, max_depth=3,
                                          learning_rate=0.2,
                                          min_samples_leaf=10))
        losses = staged_mse(model, X, y)
        worst_rise = max(worst_rise, float(np.max(np.diff(losses))))
        stump = gbt_fit(X, y, HyperParams(n_trees=5, max_depth=0,
                                          learning_rate=0.5))
        gap = float(np.max(np.abs(predict(stump, X) - y.mean())))
        worst_mean_gap = max(worst_mean_gap, gap)
    ok = worst_rise <= 1e-12 and worst_mean_gap <= 1e-12
    return CriterionResult(
        9, "GBT training loss",
        f"max MSE rise {worst_rise:.3e}; max depth-0 gap {worst_mean_gap:.3e}",
        "rise <= 1e-12 and depth-0 gap <= 1e-12",
        ok,
    )


def check_pipeline_determinism(seed: int = 0, work_dir: str | None = None) -> CriterionResult:
    """Re-running the full pipeline with the same config reproduces the
    result tables byte for byte."""
    from .cli import PipelineConfig, run_pipeline  # local import: cli imports us

    ctx = None
    if work_dir is None:
        ctx = tempfile.TemporaryDirectory(prefix="macrodml-validate-")
        work_dir = ctx.name
    try:
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
        tracked = ("results.csv", "r2.csv", "per_1pct.csv")

        def snapshot() -> dict[str, bytes]:
            run_pipeline(config)
            out = {}
            for name in tracked:
                with open(os.path.join(out_dir, name), "rb") as fh:
                    out[name] = fh.read()
            return out

        first = snapshot()
        second = snapshot()
        same = sum(first[name] == second[name] for name in tracked)
        return CriterionResult(
            10, "pipeline determinism",
            f"{same}/{len(tracked)} result files byte-identical across reruns",
            f"{len(tracked)}/{len(tracked)} byte-identical",
            same == len(tracked),
        )
    finally:
        if ctx is not None:
            ctx.cleanup()


def _timed(check, *args) -> CriterionResult:
    start = time.perf_counter()
    result = check(*args)
    result.seconds = time.perf_counter() - start
    return result


def run_all(seed: int = 0, reps: int | None = None) -> list[CriterionResult]:
    """Run every acceptance check in order and return the report rows, each
    with the wall seconds its check took."""
    return [
        _timed(check_inference_arithmetic, seed),
        _timed(check_rescaling, seed),
        _timed(check_fwl_equivalence, seed, reps),
        _timed(check_boosted_consistency, seed, reps),
        _timed(check_ci_coverage, seed, reps),
        _timed(check_learner_contrast, seed, reps),
        _timed(check_adf_size_power, seed, reps),
        _timed(check_lag_recovery, seed, reps),
        _timed(check_gbt_training_loss, seed, reps),
        _timed(check_pipeline_determinism, seed),
    ]
