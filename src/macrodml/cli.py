"""Batch pipeline runner: ingest CSVs, preprocess, tune, estimate, and write
the report tables, plus subcommands for plot rendering and the synthetic
validation suite.

Exit codes: 0 success, 1 config error, 2 data error, 3 numerical failure,
4 validation failure.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
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
    problem_from_panel,
    residual_diagnostics,
    run_dml,
)
from .errors import (
    ConfigError,
    DataError,
    MacrodmlError,
    MalformedRow,
    NumericalError,
)
from .learners import DEFAULT_GRID, grid_from_json, grid_search_cv
from .panel_data import (
    FundFilter,
    common_range,
    csv_cells,
    csv_text,
    filter_funds,
    load_fund_meta_csv,
    load_tscs_csv,
    read_input,
    to_panel,
)
from .preprocess import (
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
        if self.level not in ("1%", "5%", "10%"):
            raise ConfigError(f"level must be 1%, 5%, or 10%, got {self.level!r}")
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


class _Artifacts:
    """Staged outputs: everything renders to memory first and hits disk only
    after the whole pipeline has succeeded, so failures leave no partials."""

    def __init__(self) -> None:
        self.files: dict[str, str] = {}

    def add(self, name: str, content: str) -> None:
        self.files[name] = content

    def write_out(self, out_dir: str) -> None:
        """Write every file into a new sibling of out_dir, then swap that in
        for out_dir, which ends up holding exactly these files. A failure
        before the swap leaves out_dir as it was and ends in a ConfigError
        (`_writing_to`)."""
        out_dir = os.path.realpath(out_dir)
        with _writing_to(out_dir):
            parent, base = os.path.split(out_dir)
            os.makedirs(parent, exist_ok=True)
            stage = os.path.join(parent, f".{base}.{os.urandom(8).hex()}")
            retired = stage + ".old"
            os.mkdir(stage)  # mode 0o777 less the umask, as os.makedirs gives
            try:
                for name, content in self.files.items():
                    with open(os.path.join(stage, name), "w", encoding="utf-8", newline="") as fh:
                        fh.write(content)
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


@contextlib.contextmanager
def _writing_to(out_dir: str):
    """Turn an OSError raised while the outputs are staged, written or
    swapped in into a ConfigError that names out_dir."""
    try:
        yield
    except OSError as exc:
        raise ConfigError(f"cannot write the outputs in {out_dir!r}: {exc}") from exc


def _check_replaceable(out_dir: str) -> None:
    """Raise ConfigError unless out_dir may be replaced whole: it is absent,
    an empty directory, or an earlier run's output, that is a manifest.json
    and files it lists or `plots` writes, nothing else."""
    if not os.path.lexists(out_dir):
        return
    if not os.path.isdir(out_dir):
        raise ConfigError(f"output_dir {out_dir!r} is not a directory")
    names = os.listdir(out_dir)
    if not names:
        return
    try:
        with read_input(os.path.join(out_dir, "manifest.json")) as fh:
            known = {"manifest.json", *PLOT_FILES, *json.load(fh)["files"].keys()}
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


def run_pipeline(config: PipelineConfig) -> dict:
    """Execute the full estimation pipeline and write all artifacts.

    Steps: load + filter -> difference -> stationarity screen -> lag order
    (fixed or AIC) -> panel build -> tuning (boosted only) -> cross-fitted
    estimation per learner -> tables, diagnostics, and manifest. Returns the
    manifest dict. Raises typed errors; nothing is written on failure.
    """
    config.validate()
    art = _Artifacts()

    macro = load_tscs_csv(config.macro_csv)
    funds = load_tscs_csv(config.funds_csv)
    catalog = load_fund_meta_csv(config.meta_csv)
    if config.treatment_name not in macro.columns:
        raise DataError(f"treatment {config.treatment_name!r} is not a macro column")

    kept_funds = filter_funds(catalog, FundFilter(min_aum=config.min_aum))
    tickers = [m.ticker for m in kept_funds if m.ticker in funds.columns]
    if not tickers:
        raise DataError("no funds left after metadata filtering")
    funds = funds.select(tickers)

    start, end = common_range(macro, funds)
    macro = macro.restrict(start, end)
    funds = funds.restrict(start, end)

    # macro levels -> growths; fund returns are used as-is
    growth = difference_matrix(macro)
    funds = funds.restrict(growth.time_index[0], growth.time_index[-1])

    screen = screen_stationarity(growth, level=config.level)
    reports = screen.reports.values()
    art.add("adf_screen.csv", csv_text(
        ["variable", "adf_stat", "crit_5pct", "verdict"],
        [list(screen.reports), [rep.statistic for rep in reports],
         [rep.critical_values["5%"] for rep in reports], [rep.verdict for rep in reports]],
    ))
    if config.treatment_name not in screen.kept.columns:
        raise DataError(
            f"treatment {config.treatment_name!r} failed the stationarity screen"
        )
    kept = screen.kept

    corr = correlation_matrix(kept)
    pca = pca_corr(corr)
    art.add("corr.csv", csv_text(["variable", *kept.columns], [kept.columns, *corr.T]))
    art.add("pca.csv", csv_text(
        ["component", "eigenvalue", "explained_ratio", *kept.columns],
        [[f"PC{i + 1}" for i in range(len(kept.columns))], pca.eigenvalues,
         pca.explained_ratio, *pca.components],
    ))

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
        best_params, cv_table = grid_search_cv(
            problem.fold_design, problem.y, grid, k=config.k, seed=config.seed
        )
        tuned_g_hat = next(row.oof for row in cv_table if row.params == best_params)
        # HyperParams' fields are the first four columns
        art.add("grid_cv.csv", csv_text(
            ["n_trees", "max_depth", "learning_rate", "min_samples_leaf", "cv_mse", "cv_r2"],
            list(zip(*(astuple(row.params) + (row.cv_mse, row.cv_r2) for row in cv_table))),
        ))
        learners.append(("boosted", LearnerSpec("boosted", best_params), tuned_g_hat))

    names = [name for name, _, _ in learners]
    fits = [run_dml(problem, spec, k=config.k, seed=config.seed, score=config.score, g_hat=g_hat)
            for _, spec, g_hat in learners]
    results = [result for result, _ in fits]
    # DmlResult's fields, in order, are the columns after "model"
    art.add("results.csv", csv_text(
        ["model", "coef", "se", "t", "p", "ci_low", "ci_high", "n", "per_1pct"],
        [names, *zip(*map(astuple, results))],
    ))
    art.add("per_1pct.csv", csv_text(["model", "per_1pct"],
                                     [names, [result.per_1pct for result in results]]))
    art.add("r2.csv", csv_text(
        ["model", "r2_y", "r2_d"],
        [names, [res.r2_y for _, res in fits], [res.r2_d for _, res in fits]],
    ))

    diagnostics_res = fits[-1][1]  # the last learner's residuals feed Fig-3 data
    summary = residual_diagnostics(diagnostics_res)
    u = csv_cells(diagnostics_res.u)  # printed once for both tables
    art.add("residuals.csv", csv_text(["fitted", "residual"], [diagnostics_res.g_hat, u]))
    art.add("nuisance_residuals.csv", csv_text(
        ["row", "fold", "u", "v"],
        [np.arange(panel.n_rows), diagnostics_res.fold_of, u, diagnostics_res.v],
    ))

    manifest = {
        "config": asdict(config),
        "config_hash": _config_hash(config),
        "seed": config.seed,
        "rng": RNG_IDENTITY,
        "flags": {
            "dml_variant": "dml2_pooled_score",
            "score": config.score,
            "mode": "crossfit",
            "fold_mode": "row",
            "unit_y_mean_encoding": True,
            "means_refit_per_fold": True,
            "adf_regression": "constant_no_trend",
            "lag_used": lag,
            "level": config.level,
        },
        "panel": {
            "rows": panel.n_rows,
            "units": problem.n_units,
            "x_width": len(panel.x_names),
            "dropped_nonstationary": [name for name, _ in screen.dropped],
        },
        "boosted_params": None if best_params is None else asdict(best_params),
        "residual_summary": summary,
        # the linear solve's last bits depend on the LAPACK numpy ships with
        "versions": {"macrodml": __version__, "numpy": np.__version__,
                     "python": platform.python_version()},
    }
    # the hashes cover every file except the manifest itself
    manifest["files"] = {name: hashlib.sha256(content.encode()).hexdigest()
                         for name, content in sorted(art.files.items())}
    art.add("manifest.json", json.dumps(manifest, sort_keys=True, indent=2) + "\n")
    art.write_out(config.output_dir)
    return manifest


def _read_numeric_csv(path: str, width: int) -> np.ndarray:
    """The body of a CSV of `width` numeric columns as a (rows, width) array.

    The body is parsed in one pass: every line must hold width - 1 commas,
    and every cell goes through float(), as csv.reader and float() read it,
    so a file `run` wrote comes back with the bits it was written from.
    """
    with read_input(path) as fh:
        body = fh.read().partition("\n")[2]
    if not body:
        return np.empty((0, width))
    if not body.endswith("\n"):
        body += "\n"
    chars = np.frombuffer(body.encode(), dtype=np.uint8)
    seps = chars[(chars == ord(",")) | (chars == ord("\n"))]
    # every line's separators are width - 1 commas and its newline; the body
    # ends in a newline, so any other sequence mismatches somewhere
    line_seps = np.frombuffer(b"," * (width - 1) + b"\n", dtype=np.uint8)
    if seps.size % width or not (seps.reshape(-1, width) == line_seps).all():
        bad = np.flatnonzero(seps != np.resize(line_seps, seps.size))[0]
        line = 2 + np.count_nonzero(seps[:bad] == ord("\n"))
        raise MalformedRow(f"{path} line {line}: expected {width} cells")
    try:
        values = list(map(float, body[:-1].replace("\n", ",").split(",")))
    except ValueError:
        for line, text in enumerate(body[:-1].split("\n"), start=2):
            for cell in text.split(","):
                try:
                    float(cell)
                except ValueError:
                    raise MalformedRow(
                        f"{path} line {line}: cannot parse {cell!r} as a number"
                    ) from None
        raise
    return np.array(values).reshape(-1, width)


def _replace_file(path: str, content: str) -> None:
    """Write `content` to path as UTF-8 through a temporary file beside it and
    os.replace, so path holds either its old bytes or all of the new ones."""
    tmp = f"{path}.{os.urandom(8).hex()}.tmp"
    try:
        with open(tmp, "w", encoding="utf-8", newline="") as fh:
            fh.write(content)
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.remove(tmp)
        raise


def emit_plots(output_dir: str) -> list[str]:
    """Render corr_heatmap.svg, pca_scree.svg, residuals_fitted.svg from the
    CSVs a previous `run` left in output_dir, and add their hashes to its
    manifest.json when it has one.

    Every input is read and checked before any file is written, so a bad one
    leaves output_dir as it was; each figure, then the manifest, replaces its
    file whole (`_replace_file`), and a write that fails ends in a
    ConfigError (`_writing_to`).
    """
    path = os.path.join(output_dir, "corr.csv")
    with read_input(path) as fh:
        rows = list(csv.reader(fh))[1:]
    try:
        labels = [row[0] for row in rows]
        corr = np.array([[float(v) for v in row[1:]] for row in rows])
    except (ValueError, IndexError) as exc:
        raise MalformedRow(f"{path}: {exc}") from None
    heatmap = render_corr_heatmap(corr, labels)

    path = os.path.join(output_dir, "pca.csv")
    with read_input(path) as fh:
        header, *rows = list(csv.reader(fh)) or [[]]
    try:
        at = header.index("explained_ratio")
        explained = np.array([float(row[at]) for row in rows])
    except (ValueError, IndexError) as exc:
        raise MalformedRow(f"{path}: {exc}") from None
    scree = render_scree(explained)

    table = _read_numeric_csv(os.path.join(output_dir, "residuals.csv"), 2)
    scatter = render_residuals(table[:, 0], table[:, 1])

    manifest_path = os.path.join(output_dir, "manifest.json")
    manifest = None
    if os.path.exists(manifest_path):
        with read_input(manifest_path) as fh:
            manifest = json.load(fh)
        if not isinstance(manifest, dict) or not isinstance(manifest.setdefault("files", {}), dict):
            raise MalformedRow(f"{manifest_path}: not a run manifest")

    out_names = []
    with _writing_to(output_dir):
        for name, content in zip(PLOT_FILES, (heatmap, scree, scatter)):
            path = os.path.join(output_dir, name)
            _replace_file(path, content)
            if manifest is not None:
                manifest["files"][name] = hashlib.sha256(content.encode()).hexdigest()
            out_names.append(path)
        if manifest is not None:
            _replace_file(manifest_path, json.dumps(manifest, sort_keys=True, indent=2) + "\n")
    return out_names


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="macrodml",
        description="cross-fitted DML for macro treatment effects on fund panels",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="execute the estimation pipeline")
    run.add_argument("--config", help="JSON config file")
    run.add_argument("--funds", help="fund returns CSV (wide, date column)")
    run.add_argument("--macro", help="macro levels CSV (wide, date column)")
    run.add_argument("--meta", help="fund metadata CSV")
    run.add_argument("--treatment", help="macro column used as treatment")
    run.add_argument("--learner", choices=LEARNER_CHOICES)
    run.add_argument("--lag", help="lag order: integer or 'auto'")
    run.add_argument("--k", type=int, help="number of cross-fitting folds")
    run.add_argument("--seed", type=int)
    run.add_argument("--level", choices=("1%", "5%", "10%"), help="ADF level")
    run.add_argument("--grid", help="hyperparameter grid JSON file")
    run.add_argument("--out", help="output directory")

    plots = sub.add_parser("plots", help="render SVG figures from run outputs")
    plots.add_argument("--out", required=True, help="directory holding run outputs")

    val = sub.add_parser("validate", help="run the synthetic acceptance suite")
    val.add_argument("--seed", type=int, default=0)
    val.add_argument("--reps", type=int, default=None,
                     help="Monte Carlo replication guard (default: full counts)")
    return parser


def _config_from_args(args) -> PipelineConfig:
    config = config_from_json(args.config) if args.config else PipelineConfig()
    overrides = {
        "funds_csv": args.funds,
        "macro_csv": args.macro,
        "meta_csv": args.meta,
        "treatment_name": args.treatment,
        "learner": args.learner,
        "lag_order": args.lag,
        "k": args.k,
        "seed": args.seed,
        "level": args.level,
        "grid_path": args.grid,
        "output_dir": args.out,
    }
    for name, value in overrides.items():
        if value is not None:
            setattr(config, name, value)
    return config


def _fail(exc: Exception, code: int) -> int:
    print(f"code={code} error={type(exc).__name__} message={exc}", file=sys.stderr)
    return code


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
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
    except ConfigError as exc:
        return _fail(exc, EXIT_CONFIG)
    except DataError as exc:
        return _fail(exc, EXIT_DATA)
    except NumericalError as exc:
        return _fail(exc, EXIT_NUMERICAL)
    except MacrodmlError as exc:
        return _fail(exc, EXIT_CONFIG)


if __name__ == "__main__":
    sys.exit(main())
