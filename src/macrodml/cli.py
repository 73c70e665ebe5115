"""Batch pipeline runner: ingest CSVs, preprocess, tune, estimate, and write
the report tables, plus subcommands for plot rendering and the synthetic
validation suite.

Both `run` and `plots` publish the output directory through one writer,
`_publishing`: each file is written into a hidden sibling of the directory
as it is made, hashed as it is written, listed in manifest.json, and the
sibling is swapped in whole.

Exit codes: 0 success, 1 config error, 2 data error, 3 numerical failure,
4 validation failure.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import platform
import shutil
import sys
from dataclasses import asdict, astuple, dataclass

import numpy as np

from . import __version__, validation
from .dml import (
    SCORES,
    LearnerSpec,
    encode_features,  # noqa: F401 -- not called here; perfbench's tracer wraps it by this name
    grid_search_cv,
    problem_from_panel,
    residual_diagnostics,
    run_dml,
)
from .errors import (
    ConfigError,
    DataError,
    MacrodmlError,
    MalformedRow,
    MissingInput,
    NumericalError,
)
from .learners import DEFAULT_GRID, grid_from_json, one_blas_thread
from .panel_data import (
    IO_BLOCK,
    common_range,
    csv_blocks,
    filter_funds,
    load_fund_meta_csv,
    load_tscs_csv,
    read_input,
    read_numeric_csv,
    to_panel,
)
from .preprocess import (
    ADF_LEVELS,
    correlation_matrix,
    difference_matrix,
    pca_corr,
    screen_stationarity,
    select_lag_var_aic,
)
from .plots import render_corr_heatmap, render_residuals, render_scree

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_DATA = 2
EXIT_NUMERICAL = 3
EXIT_VALIDATION = 4

AUTO_P_MAX = 12
LEARNER_CHOICES = ("linear", "boosted", "both")
RNG_IDENTITY = "numpy.random.default_rng (PCG64)"
PLOT_FILES = ("corr_heatmap.svg", "pca_scree.svg", "residuals_fitted.svg")


#: the types a config field accepts (bool never counts as int); other fields take str
_FIELD_TYPES = {"k": int, "seed": int, "min_aum": (int, float), "lag_order": (int, str),
                "grid_path": (str, type(None))}


@dataclass
class PipelineConfig:
    """One reproducible run: inputs, knobs, output directory.

    Serializable as JSON; command-line flags override file values.
    """

    funds_csv: str = ""
    macro_csv: str = ""
    meta_csv: str = ""
    treatment_name: str = ""
    output_dir: str = ""
    lag_order: int | str = 7  # integer, or "auto" for AIC selection, p_max 12
    learner: str = "both"  # linear | boosted | both
    grid_path: str | None = None
    k: int = 2
    seed: int = 0
    level: str = "5%"
    min_aum: float = 20.0
    score: str = "orthogonal"

    def validate(self) -> None:
        # types first, so the checks below compare values of the right type
        for name, value in vars(self).items():
            if isinstance(value, bool) or not isinstance(value, _FIELD_TYPES.get(name, str)):
                raise ConfigError(f"config field {name} cannot be {type(value).__name__} {value!r}")
        for name in ("funds_csv", "macro_csv", "meta_csv", "treatment_name", "output_dir"):
            if not getattr(self, name):
                raise ConfigError(f"config field {name} is required")
        # a run replaces the whole output directory, so it must hold nothing else
        out = os.path.realpath(self.output_dir)
        for path in (self.funds_csv, self.macro_csv, self.meta_csv, self.grid_path, os.getcwd()):
            if path and os.path.commonpath([out, os.path.realpath(path)]) == out:
                raise ConfigError(f"output_dir {self.output_dir!r} must not contain {path!r}")
        _check_replaceable(out)
        if isinstance(self.lag_order, str) and self.lag_order.lower() == "auto":
            self.lag_order = "auto"
        elif isinstance(self.lag_order, str):
            try:
                self.lag_order = int(self.lag_order)
            except ValueError:
                raise ConfigError(
                    f"lag_order must be an integer or 'auto', got {self.lag_order!r}"
                ) from None
        if self.lag_order != "auto" and self.lag_order < 0:
            raise ConfigError("lag_order must be >= 0")
        if self.learner not in LEARNER_CHOICES:
            raise ConfigError(f"learner must be one of {LEARNER_CHOICES}, got {self.learner!r}")
        if self.k < 2:
            raise ConfigError("k must be >= 2")
        if self.seed < 0:
            raise ConfigError("seed must be >= 0")
        if self.level not in ADF_LEVELS:
            raise ConfigError(f"level must be one of {ADF_LEVELS}, got {self.level!r}")
        if self.score not in SCORES:
            raise ConfigError(f"score must be one of {SCORES}, got {self.score!r}")
        if not self.min_aum >= 0:  # NaN fails too
            raise ConfigError("min_aum must be >= 0")


def config_from_json(path: str) -> PipelineConfig:
    with read_input(path, ConfigError) as fh:
        doc = json.load(fh)
    if not isinstance(doc, dict):
        raise ConfigError("config JSON must be an object")
    known = set(PipelineConfig.__dataclass_fields__)
    unknown = set(doc) - known
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")
    return PipelineConfig(**doc)


def _config_hash(config: PipelineConfig) -> str:
    blob = json.dumps(asdict(config), sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest()


@contextlib.contextmanager
def _publishing(out_dir: str, manifest: dict):
    """The one way files reach an output directory. Yields `write(name,
    pieces)`, which writes the str or bytes pieces as the file `name` in a
    new hidden sibling of out_dir, hashing them as they are written, in
    slices of IO_BLOCK characters or bytes: a long str piece (a figure) is
    never held whole as bytes too. On a clean exit manifest.json is written
    last, `manifest` with those digests under "files", and the sibling is
    swapped in for out_dir, which then holds exactly these files. Any
    failure before the swap removes the sibling and leaves out_dir as it
    was; an OSError raised while the files are staged, written or swapped in
    ends in a ConfigError naming out_dir."""
    out_dir = os.path.realpath(out_dir)
    try:
        parent, base = os.path.split(out_dir)
        os.makedirs(parent, exist_ok=True)
        stage = os.path.join(parent, f".{base}.{os.urandom(8).hex()}")
        retired = stage + ".old"
        os.mkdir(stage)  # mode 0o777 less the umask, as os.makedirs gives
        digests = {}

        def write(name: str, pieces) -> None:
            digest = hashlib.sha256()
            with open(os.path.join(stage, name), "wb") as fh:
                for piece in pieces:
                    for i in range(0, len(piece), IO_BLOCK):
                        # UTF-8 encodes each character on its own, so the
                        # slices' bytes are the piece's
                        data = piece[i:i + IO_BLOCK]
                        data = data.encode() if isinstance(data, str) else data
                        digest.update(data)
                        fh.write(data)
            digests[name] = digest.hexdigest()

        try:
            yield write
            # the hashes cover every file except the manifest itself
            manifest["files"] = dict(sorted(digests.items()))
            write("manifest.json", [json.dumps(manifest, sort_keys=True, indent=2) + "\n"])
            _check_replaceable(out_dir)  # again: the run may have taken a while
            if os.path.lexists(out_dir):
                os.rename(out_dir, retired)
            try:
                os.rename(stage, out_dir)
            except OSError:
                if os.path.lexists(retired):
                    os.rename(retired, out_dir)
                raise
        except BaseException:
            shutil.rmtree(stage, ignore_errors=True)
            raise
        if os.path.lexists(retired):
            try:
                shutil.rmtree(retired)
            except OSError as exc:
                print(f"warning: could not remove the replaced outputs in {retired}: {exc}",
                      file=sys.stderr)
    except OSError as exc:
        raise ConfigError(f"cannot write the outputs in {out_dir!r}: {exc}") from exc


def _check_replaceable(out_dir: str) -> None:
    """Raise ConfigError unless out_dir may be replaced whole: it is absent,
    an empty directory, or an earlier run's output, that is a manifest.json
    and regular files it lists, nothing else."""
    if not os.path.lexists(out_dir):
        return
    if not os.path.isdir(out_dir):
        raise ConfigError(f"output_dir {out_dir!r} is not a directory")
    names = os.listdir(out_dir)
    if not names:
        return
    try:
        with read_input(os.path.join(out_dir, "manifest.json")) as fh:
            known = {"manifest.json", *json.load(fh)["files"].keys()}
    except (DataError, KeyError, TypeError, AttributeError):
        known = set()
    foreign = sorted(
        name for name in names
        if name not in known or not os.path.isfile(os.path.join(out_dir, name))
    )
    if foreign:
        raise ConfigError(
            f"output_dir {out_dir!r} holds files no earlier run wrote "
            f"({', '.join(foreign[:5])}{', ...' if len(foreign) > 5 else ''}); "
            "a run replaces the whole directory, so pick an empty or new one"
        )


@one_blas_thread()
def run_pipeline(config: PipelineConfig) -> dict:
    """Execute the full estimation pipeline and write all artifacts.

    Steps: load + filter -> difference -> stationarity screen -> lag order
    (fixed or AIC) -> panel build -> tuning (boosted only) -> cross-fitted
    estimation per learner -> diagnostics -> tables and manifest. Returns the
    manifest dict. Raises typed errors. Nothing is written before the
    estimates are done, and the tables are then written one by one into a
    staged directory (`_publishing`), so a failure anywhere leaves
    config.output_dir as it was. Runs on one BLAS thread (`one_blas_thread`),
    so the outputs do not depend on the core count.
    """
    config.validate()

    macro = load_tscs_csv(config.macro_csv)
    funds = load_tscs_csv(config.funds_csv)
    catalog = load_fund_meta_csv(config.meta_csv)
    if config.treatment_name not in macro.columns:
        raise DataError(f"treatment {config.treatment_name!r} is not a macro column")

    kept_funds = filter_funds(catalog, config.min_aum)
    tickers = [m.ticker for m in kept_funds if m.ticker in funds.columns]
    if not tickers:
        raise DataError("no funds left after metadata filtering")
    funds = funds.select(tickers)

    # macro levels -> growths over the common months; fund returns are used as-is
    start, end = common_range(macro, funds)
    growth = difference_matrix(macro.restrict(start, end))
    funds = funds.restrict(growth.time_index[0], end)

    screen = screen_stationarity(growth, level=config.level)
    if config.treatment_name not in screen.kept.columns:
        raise DataError(
            f"treatment {config.treatment_name!r} failed the stationarity screen"
        )
    kept = screen.kept

    corr = correlation_matrix(kept)
    pca = pca_corr(corr)

    if config.lag_order == "auto":
        lag = select_lag_var_aic(kept, AUTO_P_MAX)
    else:
        lag = int(config.lag_order)

    panel = to_panel(funds, kept, config.treatment_name, lag)
    if panel.n_rows == 0:
        raise DataError("panel is empty after lag-window construction")
    problem = problem_from_panel(panel)

    # (name, learner, its tuned out-of-fold y predictions or None)
    learners: list[tuple[str, LearnerSpec, np.ndarray | None]] = []
    best_params = None
    if config.learner in ("linear", "both"):
        learners.append(("linear", LearnerSpec("linear"), None))
    if config.learner in ("boosted", "both"):
        if config.grid_path is not None:
            with read_input(config.grid_path, ConfigError) as fh:
                grid = grid_from_json(fh.read())
        else:
            grid = DEFAULT_GRID
        # every candidate is scored on the cross-fit's folds and fold designs,
        # unit means from each fold's training rows only, so the winner's
        # out-of-fold predictions are the y nuisance its cross-fit would fit;
        # a failed winner has none, and its cross-fit raises its error
        best_params, cv_table = grid_search_cv(problem, grid, k=config.k, seed=config.seed)
        tuned_g_hat = next(row.oof for row in cv_table if row.params == best_params)
        learners.append(("boosted", LearnerSpec("boosted", best_params), tuned_g_hat))

    names = [name for name, _, _ in learners]
    fits = [run_dml(problem, spec, k=config.k, seed=config.seed, score=config.score, g_hat=g_hat)
            for _, spec, g_hat in learners]
    results = [result for result, _ in fits]
    diagnostics_res = fits[-1][1]  # the last learner's residuals feed Fig-3 data

    manifest = {
        "config": asdict(config),
        "config_hash": _config_hash(config),
        "rng": RNG_IDENTITY,
        "flags": {"lag_used": lag},
        "panel": {
            "rows": panel.n_rows,
            "units": len(panel.units),
            "x_width": len(panel.x_names),
            # distinct months with a row; the rows of a month share its treatment value
            "months": int(np.count_nonzero(np.bincount(panel.month_codes))),
            "fold_sizes": np.bincount(diagnostics_res.fold_of).tolist(),
            "dropped_nonstationary": [name for name, _ in screen.dropped],
        },
        "boosted_params": None if best_params is None else asdict(best_params),
        "residual_summary": residual_diagnostics(diagnostics_res),
        # the linear solve's last bits depend on the BLAS/LAPACK numpy ships with;
        # under OpenBLAS not on the core count, as the run holds one BLAS thread
        "versions": {"macrodml": __version__, "numpy": np.__version__,
                     "python": platform.python_version()},
    }
    with _publishing(config.output_dir, manifest) as write:
        reports = screen.reports.values()
        write("adf_screen.csv", csv_blocks(
            ["variable", "adf_stat", f"crit_{config.level[:-1]}pct", "verdict"],
            [list(screen.reports), [rep.statistic for rep in reports],
             [rep.critical_value for rep in reports], [rep.verdict for rep in reports]],
        ))
        write("corr.csv", csv_blocks(["variable", *kept.columns], [kept.columns, *corr.T]))
        write("pca.csv", csv_blocks(
            ["component", "eigenvalue", "explained_ratio", *kept.columns],
            [[f"PC{i + 1}" for i in range(len(kept.columns))], pca.eigenvalues,
             pca.explained_ratio, *pca.components],
        ))
        if best_params is not None:
            # HyperParams' fields are the first four columns
            write("grid_cv.csv", csv_blocks(
                ["n_trees", "max_depth", "learning_rate", "min_samples_leaf", "cv_mse", "cv_r2"],
                list(zip(*(astuple(row.params) + (row.cv_mse, row.cv_r2) for row in cv_table))),
            ))
        # DmlResult's fields, in order, are the columns after "model"
        write("results.csv", csv_blocks(
            ["model", "coef", "se", "t", "p", "ci_low", "ci_high", "n", "per_1pct"],
            [names, *zip(*map(astuple, results))],
        ))
        write("r2.csv", csv_blocks(
            ["model", "r2_y", "r2_d"],
            [names, [res.r2_y for _, res in fits], [res.r2_d for _, res in fits]],
        ))
        # u is printed once, as residuals.csv's residual column, in the same row order
        res = diagnostics_res
        write("residuals.csv", csv_blocks(["fitted", "residual"], [res.g_hat, res.u]))
        write("nuisance_residuals.csv", csv_blocks(
            ["row", "fold", "v"], [np.arange(panel.n_rows), res.fold_of, res.v]))
    return manifest


def _column(path: str, table, name: str) -> np.ndarray:
    """The `name` column of the `read_numeric_csv` table read from path."""
    names, _, values = table
    if name not in names:
        raise MalformedRow(f"{path}: no {name!r} column")
    return values[:, names.index(name)]


def emit_plots(output_dir: str) -> list[str]:
    """Render corr_heatmap.svg, pca_scree.svg, residuals_fitted.svg from the
    CSVs a previous `run` left in output_dir, and republish output_dir with
    them added to its manifest.json.

    Every input, the manifest among them, is read and checked, and output_dir
    checked to hold only an earlier run's files (`_check_replaceable`),
    before anything is written, so a bad one leaves output_dir as it was. The
    directory is then published whole through `_publishing`: every other
    file the manifest lists is copied into the stage and hashed again as it
    is copied, then the figures are written, so a write that fails leaves
    output_dir as it was and ends in a ConfigError.
    """
    _, labels, corr = read_numeric_csv(os.path.join(output_dir, "corr.csv"), 0)
    path = os.path.join(output_dir, "pca.csv")
    explained = _column(path, read_numeric_csv(path, 0), "explained_ratio")
    path = os.path.join(output_dir, "residuals.csv")
    table = read_numeric_csv(path)
    fitted, residual = _column(path, table, "fitted"), _column(path, table, "residual")
    manifest_path = os.path.join(output_dir, "manifest.json")
    with read_input(manifest_path) as fh:
        manifest = json.load(fh)
    if not isinstance(manifest, dict) or not isinstance(manifest.get("files"), dict):
        raise MalformedRow(f"{manifest_path}: not a run manifest")
    carried = sorted(manifest["files"].keys() - {*PLOT_FILES, "manifest.json"})
    # a listed name that is not an entry of output_dir ("../x" among them) is never opened
    missing = sorted(set(carried) - set(os.listdir(output_dir)))
    if missing:
        raise MissingInput(f"{manifest_path} lists files {output_dir} does not hold: "
                           f"{', '.join(missing)}")
    _check_replaceable(output_dir)

    figures = (render_corr_heatmap(corr, labels), render_scree(explained),
               render_residuals(fitted, residual))
    with _publishing(output_dir, manifest) as write:
        for name in carried:
            with open(os.path.join(output_dir, name), "rb") as fh:
                write(name, iter(lambda: fh.read(IO_BLOCK), b""))
        for name, svg in zip(PLOT_FILES, figures):
            write(name, [svg])
    return [os.path.join(output_dir, name) for name in PLOT_FILES]


def _reject_argument(message: str):
    raise ConfigError(message)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="macrodml",
        description="cross-fitted DML for macro treatment effects on fund panels",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="execute the estimation pipeline")
    run.add_argument("--config", help="JSON config file")
    # each flag's dest is the PipelineConfig field it overrides
    run.add_argument("--funds", dest="funds_csv", help="fund returns CSV (wide, date column)")
    run.add_argument("--macro", dest="macro_csv", help="macro levels CSV (wide, date column)")
    run.add_argument("--meta", dest="meta_csv", help="fund metadata CSV")
    run.add_argument("--treatment", dest="treatment_name", help="macro column used as treatment")
    run.add_argument("--learner", choices=LEARNER_CHOICES)
    run.add_argument("--lag", dest="lag_order", help="lag order: integer or 'auto'")
    run.add_argument("--k", type=int, help="number of cross-fitting folds")
    run.add_argument("--seed", type=int)
    run.add_argument("--level", choices=ADF_LEVELS, help="ADF level")
    run.add_argument("--grid", dest="grid_path", help="hyperparameter grid JSON file")
    run.add_argument("--out", dest="output_dir", help="output directory")

    plots = sub.add_parser("plots", help="render SVG figures from run outputs")
    plots.add_argument("--out", required=True, help="directory holding run outputs")

    val = sub.add_parser("validate", help="run the synthetic acceptance suite")
    val.add_argument("--seed", type=int, default=0)
    val.add_argument("--reps", type=int, default=None,
                     help="Monte Carlo replication guard (default: full counts)")
    # a rejected argument is a config error (main's `_fail`), not argparse's exit 2
    parser.error = run.error = plots.error = val.error = _reject_argument
    return parser


def _config_from_args(args) -> PipelineConfig:
    config = config_from_json(args.config) if args.config else PipelineConfig()
    for name in PipelineConfig.__dataclass_fields__:
        if getattr(args, name, None) is not None:
            setattr(config, name, getattr(args, name))
    return config


def _fail(exc: Exception, code: int) -> int:
    print(f"code={code} error={type(exc).__name__} message={exc}", file=sys.stderr)
    return code


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        if args.command == "run":
            config = _config_from_args(args)
            manifest = run_pipeline(config)
            print(f"wrote {len(manifest['files']) + 1} files to {config.output_dir}")
            return EXIT_OK
        if args.command == "plots":
            for path in emit_plots(args.out):
                print(f"wrote {path}")
            return EXIT_OK
        results = validation.run_all(seed=args.seed, reps=args.reps)
        for row in results:
            print(f"{row.line()} ({row.seconds:.1f} s)")
        n_pass = sum(r.passed for r in results)
        print(f"{n_pass}/{len(results)} criteria passed")
        if any(r.insufficient for r in results):
            print("insufficient reps for at least one Monte Carlo criterion",
                  file=sys.stderr)
        return EXIT_OK if n_pass == len(results) else EXIT_VALIDATION
    except DataError as exc:
        return _fail(exc, EXIT_DATA)
    except NumericalError as exc:
        return _fail(exc, EXIT_NUMERICAL)
    except MacrodmlError as exc:  # ConfigError, the argument parser's among them
        return _fail(exc, EXIT_CONFIG)


if __name__ == "__main__":
    sys.exit(main())
