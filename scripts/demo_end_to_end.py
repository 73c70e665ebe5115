"""End-to-end demo on synthetic data with known treatment effects.

Part 1 generates a panel fixture (macro levels whose differences are
stationary growths, one deliberately non-stationary junk column, fund
returns with effect -8.0), runs the full pipeline with the linear learner,
renders the SVG figures, and prints the estimate table. All of it lives in a
temporary directory that is removed when the run ends.

Part 2 shows the boosted learner where it earns its keep: a cross-sectional
partially linear problem with non-linear nuisances, which the linear learner
gets visibly wrong. The panel part deliberately uses the linear learner:
macro regressors repeat across funds within a month, so a deep tree
ensemble can memorize month-level treatment values across row folds and
attenuate the estimate.
"""

import csv
import os
import tempfile

from macrodml.cli import PipelineConfig, emit_plots, run_pipeline
from macrodml.dml import LearnerSpec, run_dml
from macrodml.learners import HyperParams
from macrodml.synth import SynthSpec, gen_pipeline_fixture, gen_plr

THETA_PLR = 0.5
SEED = 0


def panel_demo(work: str) -> None:
    """The panel pipeline on a generated fixture, inputs and outputs under `work`."""
    fx = gen_pipeline_fixture(os.path.join(work, "inputs"), seed=SEED, n_funds=8, n_months=400)
    out_dir = os.path.join(work, "out")
    config = PipelineConfig(
        funds_csv=fx["funds_csv"],
        macro_csv=fx["macro_csv"],
        meta_csv=fx["meta_csv"],
        treatment_name="policy_rate",
        output_dir=out_dir,
        lag_order=7,
        learner="linear",
        seed=SEED,
    )
    manifest = run_pipeline(config)
    emit_plots(out_dir)

    print("== panel pipeline (true effect -8.0) ==")
    print(f"panel: {manifest['panel']['rows']} rows, "
          f"{manifest['panel']['units']} funds, "
          f"dropped {manifest['panel']['dropped_nonstationary']}")
    with open(os.path.join(out_dir, "results.csv"), newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        for row in reader:
            rec = dict(zip(header, row))
            print(f"{rec['model']:>8}: coef {float(rec['coef']):8.4f}  "
                  f"se {float(rec['se']):.4f}  "
                  f"ci [{float(rec['ci_low']):.3f}, {float(rec['ci_high']):.3f}]")


def cross_section_demo() -> None:
    """Linear and boosted nuisances on a non-linear cross-section."""
    print("== non-linear cross-section (true effect 0.5) ==")
    problem, _ = gen_plr(SynthSpec(kind="plr_nonlinear", theta_true=THETA_PLR,
                                   n=4000, noise_sd=0.5, seed=SEED))
    params = HyperParams(n_trees=200, max_depth=4, learning_rate=0.1,
                         min_samples_leaf=20)
    for spec in (LearnerSpec("linear"), LearnerSpec("boosted", params)):
        result, _ = run_dml(problem, spec, k=2, seed=SEED)
        print(f"{spec.kind:>8}: coef {result.theta:8.4f}  se {result.se:.4f}  "
              f"ci [{result.ci_low:.3f}, {result.ci_high:.3f}]")


if __name__ == "__main__":
    # inputs, outputs and figures live only as long as the run
    with tempfile.TemporaryDirectory(prefix="macrodml_demo_") as work:
        panel_demo(work)
    print()
    cross_section_demo()
