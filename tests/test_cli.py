import contextlib
import csv
import dataclasses
import hashlib
import io
import json
import os
import pathlib
import platform
import shutil
import subprocess
import sys
import tempfile
import time
import tracemalloc
import xml.etree.ElementTree as ET

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import macrodml
from macrodml import cli, dml, learners, validation

from macrodml.cli import (
    EXIT_CONFIG,
    EXIT_DATA,
    EXIT_NUMERICAL,
    EXIT_OK,
    EXIT_VALIDATION,
    PipelineConfig,
    config_from_json,
    main,
)
from macrodml.dml import LearnerSpec, cross_fit_nuisance
from macrodml.errors import ConfigError
from macrodml.learners import gbt_fit, mse, predict, r2
from macrodml.panel_data import (
    CSV_BLOCK,
    IO_BLOCK,
    TimeSeriesMatrix,
    csv_blocks,
    csv_cells,
    load_tscs_csv,
    read_numeric_csv,
    write_tscs_csv,
)
from macrodml.preprocess import adf_critical_value, difference_matrix

from conftest import BOTH_RUN_GRID, read_csv, run_args


def read_manifest(out_dir):
    with open(os.path.join(out_dir, "manifest.json")) as fh:
        return json.load(fh)


# ---------------------------------------------------------------------------
# end-to-end estimation
# ---------------------------------------------------------------------------

def test_full_run_recovers_true_effect(full_run):
    header, rows = read_csv(os.path.join(full_run["out"], "results.csv"))
    assert header == ["model", "coef", "se", "t", "p", "ci_low", "ci_high", "n", "per_1pct"]
    assert [r[0] for r in rows] == ["linear"]
    coef, se = float(rows[0][1]), float(rows[0][2])
    assert abs(coef - (-8.0)) <= 3.0 * se
    assert float(rows[0][7]) == 16 * (500 - 1 - 7)  # funds x usable months


def test_full_run_manifest_contents(full_run):
    manifest = read_manifest(full_run["out"])
    assert manifest["flags"]["lag_used"] == 7
    # every config value sits once, under "config"; constants of the one
    # cross-fitting path and the one ADF regression are not flags
    assert set(manifest["flags"]) == {"lag_used"}
    assert set(manifest["config"]) == set(PipelineConfig.__dataclass_fields__)
    assert manifest["panel"]["units"] == 16
    assert manifest["panel"]["dropped_nonstationary"] == ["junk_rw"]
    assert manifest["panel"]["months"] == 500 - 1 - 7  # every fund spans the usable months
    _, _, folds = read_numeric_csv(os.path.join(full_run["out"], "nuisance_residuals.csv"))
    assert manifest["panel"]["fold_sizes"] == np.bincount(folds[:, 1].astype(int)).tolist()
    assert sum(manifest["panel"]["fold_sizes"]) == manifest["panel"]["rows"]
    assert manifest["config_hash"] and len(manifest["config_hash"]) == 64
    assert "junk_rw" not in read_csv(os.path.join(full_run["out"], "corr.csv"))[0]


def test_residual_tables_hold_the_estimate(small_fx, tmp_path):
    """residuals.csv's residual column is u and nuisance_residuals.csv holds
    v, row by row, so the partialling-out estimate sum(v*u) / sum(v*v)
    comes back from the two tables."""
    _, fx = small_fx
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"score": "residual_ols"}))
    out = tmp_path / "out"
    assert main(run_args(fx, out, "--config", str(config), "--learner", "linear",
                         "--lag", "2")) == EXIT_OK
    header, rows = read_csv(out / "results.csv")
    coef, n = float(rows[0][header.index("coef")]), int(rows[0][header.index("n")])
    names, _, residuals = read_numeric_csv(out / "residuals.csv")
    u = residuals[:, names.index("residual")]
    names, _, nuisance = read_numeric_csv(out / "nuisance_residuals.csv")
    assert names == ["row", "fold", "v"]
    v = nuisance[:, 2]
    assert u.size == v.size == n == read_manifest(out)["panel"]["rows"]
    assert np.array_equal(nuisance[:, 0], np.arange(n))
    assert float(v @ u) / float(v @ v) == pytest.approx(coef, rel=1e-12)


def test_bare_import_loads_no_submodule_and_no_numpy():
    src = os.path.dirname(os.path.dirname(macrodml.__file__))
    probe = ("import sys, macrodml; "
             "print(sorted(m for m in sys.modules if m == 'numpy' or m.startswith('macrodml.')))")
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": src}, check=True)
    assert proc.stdout == "[]\n"


@pytest.mark.skipif(learners.BLAS_THREADS is None or (os.cpu_count() or 1) < 2,
                    reason="needs numpy's OpenBLAS thread calls and two cores")
def test_the_cli_module_sets_one_blas_thread_unless_the_caller_set_a_count():
    """`python -m macrodml` sets OPENBLAS_NUM_THREADS=1 before numpy loads,
    so OpenBLAS starts one thread; a count the caller set is kept."""
    src = os.path.dirname(os.path.dirname(macrodml.__file__))
    probe = ("import macrodml.__main__; from macrodml import learners; "
             "print(learners.BLAS_THREADS[0]())")
    env = {name: value for name, value in os.environ.items() if name != "OPENBLAS_NUM_THREADS"}
    counts = [subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                             check=True, env={**env, "PYTHONPATH": src, **preset}).stdout
              for preset in ({}, {"OPENBLAS_NUM_THREADS": "2"})]
    assert counts == ["1\n", "2\n"]


@pytest.mark.skipif(learners.BLAS_THREADS is None, reason="numpy links no OpenBLAS thread calls")
def test_run_and_run_dml_hold_one_blas_thread_and_give_the_count_back(small_fx, tmp_path,
                                                                      monkeypatch):
    """run_pipeline from its first read to its last table, and run_dml called
    on its own, run with OpenBLAS on one thread; the caller's count is back
    after each."""
    _, fx = small_fx
    get, _ = learners.BLAS_THREADS
    caller = get()
    seen = []
    for module, name in ((cli, "load_tscs_csv"), (dml, "ols_fit"), (cli, "csv_blocks")):
        real = getattr(module, name)
        monkeypatch.setattr(module, name,
                            lambda *a, real=real, **kw: seen.append(get()) or real(*a, **kw))
    assert main(run_args(fx, tmp_path / "o", "--learner", "linear", "--lag", "2")) == EXIT_OK
    # the two input reads, one fit a fold, one printer a table
    assert seen == [1] * (2 + 2 + 7)
    assert get() == caller
    seen.clear()
    rng = np.random.default_rng(0)
    dml.run_dml(dml.PlrProblem(rng.standard_normal(50), rng.standard_normal(50),
                               rng.standard_normal((50, 2))), LearnerSpec("linear"))
    assert seen == [1, 1] and get() == caller


def test_manifest_records_versions(full_run):
    assert read_manifest(full_run["out"])["versions"] == {
        "macrodml": macrodml.__version__,
        "numpy": np.__version__,
        "python": platform.python_version(),
    }


def test_full_run_writes_all_tables(full_run):
    expected = {
        "adf_screen.csv", "corr.csv", "pca.csv", "results.csv",
        "r2.csv", "residuals.csv", "nuisance_residuals.csv", "manifest.json",
    }
    assert expected <= set(os.listdir(full_run["out"]))


def test_manifest_hashes_match_files(full_run):
    manifest = read_manifest(full_run["out"])
    assert set(manifest["files"]) == {
        n for n in os.listdir(full_run["out"]) if n != "manifest.json"
    }
    for name, digest in manifest["files"].items():
        with open(os.path.join(full_run["out"], name), "rb") as fh:
            assert hashlib.sha256(fh.read()).hexdigest() == digest, name


def test_rerun_is_byte_identical(full_run, tmp_path):
    # a fresh directory: other tests add plots to full_run's, which a rerun would drop
    out = tmp_path / "out"
    args = run_args(full_run["fx"], out, "--learner", "linear", "--lag", "7")
    assert main(args) == EXIT_OK
    before = {name: (out / name).read_bytes() for name in os.listdir(out)}
    assert main(args) == EXIT_OK
    assert {name: (out / name).read_bytes() for name in os.listdir(out)} == before
    for name in read_manifest(out)["files"]:  # the shared run's tables too
        with open(os.path.join(full_run["out"], name), "rb") as fh:
            assert fh.read() == before[name], name


def test_plots_render_and_register_in_manifest(full_run):
    assert main(["plots", "--out", full_run["out"]]) == EXIT_OK
    manifest = read_manifest(full_run["out"])
    for name in ("corr_heatmap.svg", "pca_scree.svg", "residuals_fitted.svg"):
        path = os.path.join(full_run["out"], name)
        assert os.path.exists(path)
        with open(path, "rb") as fh:
            blob = fh.read()
        assert blob.startswith(b"<svg")
        assert manifest["files"][name] == hashlib.sha256(blob).hexdigest()


def test_both_learners_two_result_rows(both_run):
    out = both_run
    _, rows = read_csv(out / "results.csv")
    assert [r[0] for r in rows] == ["linear", "boosted"]
    _, r2_rows = read_csv(out / "r2.csv")
    assert len(r2_rows) == 2
    _, cv_rows = read_csv(out / "grid_cv.csv")
    assert len(cv_rows) == 1
    manifest = read_manifest(out)
    assert manifest["boosted_params"] == {
        "n_trees": 15, "max_depth": 2, "learning_rate": 0.3, "min_samples_leaf": 20,
    }


def test_manifest_counts_only_funds_with_panel_rows(small_fx, tmp_path):
    root, fx = small_fx
    header, rows = read_csv(fx["funds_csv"])
    empty = header.index("F002")  # passes the AUM filter, but every cell is empty
    funds = tmp_path / "funds.csv"
    with open(funds, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(row[:empty] + [""] + row[empty + 1:] for row in rows)
    out = tmp_path / "out"
    rc = main(run_args({**fx, "funds_csv": str(funds)}, out, "--learner", "linear", "--lag", "2"))
    assert rc == EXIT_OK
    panel = read_manifest(out)["panel"]
    assert panel["units"] == len(fx["tickers"]) - 1 == 3
    assert panel["rows"] == 3 * (300 - 1 - 2)  # funds with rows x usable months


def test_auto_lag_selection(small_fx, tmp_path):
    root, fx = small_fx
    out = tmp_path / "out"
    rc = main(run_args(fx, out, "--learner", "linear", "--lag", "auto"))
    assert rc == EXIT_OK
    lag = read_manifest(out)["flags"]["lag_used"]
    assert isinstance(lag, int) and 1 <= lag <= 12


@pytest.mark.parametrize("level", ["1%", "10%"])
def test_adf_screen_prints_the_critical_value_of_its_level(small_fx, tmp_path, level):
    """adf_screen.csv names the --level and prints, per column, the critical
    value its verdict compared against."""
    _, fx = small_fx
    out = tmp_path / "out"
    assert main(run_args(fx, out, "--learner", "linear", "--lag", "2", "--level", level)) == EXIT_OK
    header, rows = read_csv(out / "adf_screen.csv")
    assert header == ["variable", "adf_stat", f"crit_{level[:-1]}pct", "verdict"]
    # the fixture's macro and fund files cover the same complete months
    growth = difference_matrix(load_tscs_csv(fx["macro_csv"]))
    assert [row[0] for row in rows] == growth.columns
    for name, stat, crit, verdict in rows:
        n = int(np.isfinite(growth.column(name)).sum())
        assert float(crit) == adf_critical_value(n, level)
        assert (float(stat) < float(crit)) == (verdict == "stationary")


# ---------------------------------------------------------------------------
# config file handling
# ---------------------------------------------------------------------------

def test_config_json_with_flag_override(small_fx, tmp_path):
    """Every run flag overrides the config-file value of its field and no
    other; a field whose flag is left out, or that has none, keeps its file
    value."""
    root, fx = small_fx
    out, grid = tmp_path / "out", tmp_path / "grid.json"
    grid.write_text(json.dumps([BOTH_RUN_GRID]))
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps({
        "funds_csv": "f.csv", "macro_csv": "m.csv", "meta_csv": "meta.csv",
        "treatment_name": "nope", "output_dir": str(tmp_path / "other"),
        "learner": "boosted", "lag_order": 9, "k": 5, "seed": 1, "level": "1%",
        "grid_path": "g.json", "min_aum": 0.0,
    }))
    flags = run_args(fx, out, "--learner", "linear", "--lag", "3", "--k", "3",
                     "--seed", "2", "--level", "10%", "--grid", str(grid))[1:]
    file_config = config_from_json(str(config_path))
    parser = cli._build_parser()
    with_file = ["run", "--config", str(config_path)]
    assert cli._config_from_args(parser.parse_args(with_file)) == file_config
    for flag, value in zip(flags[::2], flags[1::2]):
        config = cli._config_from_args(parser.parse_args([*with_file, flag, value]))
        changed = [name for name in PipelineConfig.__dataclass_fields__
                   if getattr(config, name) != getattr(file_config, name)]
        assert len(changed) == 1, (flag, changed)
        assert str(getattr(config, changed[0])) == value

    assert main([*with_file, *flags]) == EXIT_OK
    manifest = read_manifest(out)
    assert manifest["config"] == {
        "funds_csv": fx["funds_csv"], "macro_csv": fx["macro_csv"], "meta_csv": fx["meta_csv"],
        "treatment_name": "policy_rate", "output_dir": str(out), "learner": "linear",
        "lag_order": 3, "k": 3, "seed": 2, "level": "10%", "grid_path": str(grid),
        "min_aum": 0.0, "score": "orthogonal",
    }
    assert manifest["flags"]["lag_used"] == 3


def test_config_json_rejects_unknown_keys(tmp_path, capsys):
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"funds_csv": "x.csv", "bogus_knob": 1}))
    with pytest.raises(ConfigError, match="bogus_knob"):
        config_from_json(str(path))
    for key, value in (("fold_mode", "row"), ("unit_means", False), ("outcome_mean", True)):
        path.write_text(json.dumps({"funds_csv": "x.csv", key: value}))
        assert main(["run", "--config", str(path)]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("code=1 error=ConfigError message=unknown config keys")
        assert key in err and err.count("\n") == 1


def test_config_validate_catches_bad_values(small_fx):
    root, fx = small_fx
    base = dict(funds_csv=fx["funds_csv"], macro_csv=fx["macro_csv"],
                meta_csv=fx["meta_csv"], treatment_name="policy_rate",
                output_dir="somewhere")
    for bad in ({"learner": "forest"}, {"k": 1}, {"level": "2%"},
                {"score": "naive"}, {"lag_order": -1}, {"min_aum": -5.0}):
        with pytest.raises(ConfigError):
            PipelineConfig(**base, **bad).validate()
    with pytest.raises(ConfigError, match="orthogonal.*residual_ols"):
        PipelineConfig(**base, score="naive").validate()
    PipelineConfig(**base).validate()


def test_config_validate_parses_an_integer_lag_string(small_fx):
    root, fx = small_fx
    config = PipelineConfig(funds_csv=fx["funds_csv"], macro_csv=fx["macro_csv"],
                            meta_csv=fx["meta_csv"], treatment_name="policy_rate",
                            output_dir="somewhere", lag_order="3")
    config.validate()
    assert config.lag_order == 3 and isinstance(config.lag_order, int)


@pytest.mark.parametrize("bad", [
    {"k": "3"}, {"k": True}, {"k": 2.0}, {"seed": "1"}, {"seed": -1},
    {"min_aum": "x"}, {"min_aum": None}, {"min_aum": float("nan")},
    {"lag_order": 2.5}, {"lag_order": True}, {"lag_order": None},
    {"grid_path": 7}, {"treatment_name": ["policy_rate"]}, {"level": 5},
])
def test_config_file_with_a_wrongly_typed_value_exits_config(small_fx, tmp_path, capsys, bad):
    root, fx = small_fx
    out = tmp_path / "out"
    path = tmp_path / "config.json"
    path.write_text(json.dumps({
        "funds_csv": fx["funds_csv"], "macro_csv": fx["macro_csv"],
        "meta_csv": fx["meta_csv"], "treatment_name": "policy_rate",
        "output_dir": str(out), "learner": "linear", "lag_order": 2, **bad,
    }))
    assert main(["run", "--config", str(path)]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("code=1 error=ConfigError message=")
    assert err.count("\n") == 1 and "Traceback" not in err
    assert not out.exists()


# ---------------------------------------------------------------------------
# exit codes and failure behavior
# ---------------------------------------------------------------------------

def test_missing_treatment_flag_exits_config(small_fx, tmp_path, capsys):
    root, fx = small_fx
    rc = main(["run", "--funds", fx["funds_csv"], "--macro", fx["macro_csv"],
               "--meta", fx["meta_csv"], "--out", str(tmp_path / "o")])
    assert rc == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("code=1 error=ConfigError message=")
    assert err.count("\n") == 1  # single-line report


@pytest.mark.parametrize("argv", [
    ["run", "--k", "abc"], ["run", "--learner", "forest"], ["run", "--level", "2%"],
    ["run", "--bogus", "1"], [], ["validate", "--reps", "x"],
], ids=["k_abc", "learner_forest", "level_2pct", "unknown_flag", "no_subcommand", "reps_x"])
def test_a_rejected_argument_exits_config_with_one_line(argv, capsys):
    """argparse's own rejections end like every other config error: exit 1
    and a single code= line, not the usage text and exit 2 (the data-error
    code)."""
    assert main(argv) == EXIT_CONFIG
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("code=1 error=ConfigError message=")
    assert captured.err.count("\n") == 1 and "usage:" not in captured.err


def test_help_still_exits_zero(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["run", "-h"])
    assert exc.value.code == 0 and "--learner" in capsys.readouterr().out


def test_unknown_treatment_exits_data(small_fx, tmp_path, capsys):
    root, fx = small_fx
    rc = main(run_args(fx, tmp_path / "o", "--treatment", "gdp_surprise"))
    assert rc == EXIT_DATA
    assert capsys.readouterr().err.startswith("code=2 error=DataError")


def test_screened_treatment_exits_data_without_outputs(small_fx, tmp_path, capsys):
    root, fx = small_fx
    out = tmp_path / "o"
    rc = main(run_args(fx, out, "--treatment", "junk_rw", "--learner", "linear"))
    assert rc == EXIT_DATA
    assert capsys.readouterr().err == (
        "code=2 error=DataError message=treatment 'junk_rw' failed the stationarity screen\n")
    assert not out.exists()  # staged writes mean failures leave nothing behind


def test_the_aum_floor_keeps_the_funds_at_it(small_fx, tmp_path, capsys):
    """Every fixture fund holds 100.0: a min_aum of 100.0 keeps all four, one of
    100.5 leaves none and exits data."""
    _, fx = small_fx
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"min_aum": 100.0}))
    out = tmp_path / "kept"
    assert main(run_args(fx, out, "--config", str(config), "--learner", "linear",
                         "--lag", "2")) == EXIT_OK
    assert read_manifest(out)["panel"]["units"] == 4
    capsys.readouterr()
    config.write_text(json.dumps({"min_aum": 100.5}))
    out = tmp_path / "none"
    assert main(run_args(fx, out, "--config", str(config), "--learner", "linear",
                         "--lag", "2")) == EXIT_DATA
    assert capsys.readouterr().err == (
        "code=2 error=DataError message=no funds left after metadata filtering\n")
    assert not out.exists()


def test_missing_config_file_exits_config(tmp_path, capsys):
    assert main(["run", "--config", str(tmp_path / "nope.json")]) == EXIT_CONFIG
    assert "not found" in capsys.readouterr().err


def test_bad_lag_string_exits_config(small_fx, tmp_path, capsys):
    root, fx = small_fx
    rc = main(run_args(fx, tmp_path / "o", "--lag", "seven"))
    assert rc == EXIT_CONFIG


def test_grid_with_a_subsample_key_exits_config(small_fx, tmp_path, capsys):
    root, fx = small_fx
    grid = tmp_path / "grid.json"
    grid.write_text(json.dumps([{**BOTH_RUN_GRID, "subsample": 0.5}]))
    out = tmp_path / "o"
    rc = main(run_args(fx, out, "--learner", "boosted", "--lag", "2", "--grid", str(grid)))
    assert rc == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("code=1 error=ConfigError message=")
    assert "subsample" in err and err.count("\n") == 1
    assert not out.exists()


@pytest.mark.parametrize("entry", [
    {"n_trees": "50"},
    {"learning_rate": "0.1"},
    {"n_trees": 1.5, "max_depth": 2},
    {"max_depth": True},
    {"min_samples_leaf": 20.0},
    {"learning_rate": False},
    {"learning_rate": None},
], ids=["str_trees", "str_rate", "float_trees", "bool_depth", "float_leaf", "bool_rate",
        "null_rate"])
def test_grid_with_a_wrongly_typed_value_exits_config(small_fx, tmp_path, capsys, entry):
    root, fx = small_fx
    grid = tmp_path / "grid.json"
    grid.write_text(json.dumps([entry]))
    out = tmp_path / "o"
    rc = main(run_args(fx, out, "--learner", "boosted", "--lag", "2", "--grid", str(grid)))
    assert rc == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("code=1 error=ConfigError message=") and err.count("\n") == 1
    assert "Traceback" not in err and not out.exists()


def test_lag_longer_than_series_exits_data(small_fx, tmp_path):
    root, fx = small_fx
    proc = subprocess.run(
        [sys.executable, "-m", "macrodml", *run_args(fx, tmp_path / "o", "--lag", "400")],
        capture_output=True, text=True,
    )
    assert proc.returncode == EXIT_DATA
    assert proc.stderr.startswith("code=2 error=DataError message=panel is empty")
    assert proc.stderr.count("\n") == 1
    assert "Traceback" not in proc.stderr


def test_a_lag_of_a_billion_months_exits_data_at_once(small_fx, tmp_path):
    """to_panel rejects a lag window as long as the series before it builds
    any of its names or columns, so a typo costs no memory."""
    root, fx = small_fx
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "macrodml", *run_args(fx, tmp_path / "o", "--lag", "1000000000")],
        capture_output=True, text=True, timeout=120,
    )
    assert time.perf_counter() - start < 20
    assert proc.returncode == EXIT_DATA
    assert proc.stderr == ("code=2 error=DataError message=panel is empty after lag-window "
                           "construction: lag order 1000000000 needs more than 1000000000 "
                           "months, the series has 299\n")
    assert not (tmp_path / "o").exists()


def test_plots_on_empty_dir_exits_data(tmp_path, capsys):
    assert main(["plots", "--out", str(tmp_path)]) == EXIT_DATA
    assert capsys.readouterr().err.startswith("code=2 error=MissingInput")


def test_validate_with_too_few_reps_exits_validation(capsys):
    rc = main(["validate", "--reps", "1"])
    assert rc == EXIT_VALIDATION
    captured = capsys.readouterr()
    lines = [l for l in captured.out.splitlines() if l.startswith(("[PASS", "[FAIL"))]
    assert len(lines) == 10
    assert "insufficient reps" in captured.out
    assert "insufficient reps" in captured.err


def test_validate_prints_each_criterion_seconds(monkeypatch, capsys):
    stubs = [dataclasses.replace(c, measure=lambda seed, reps: ("1", True))
             for c in validation.CRITERIA]
    monkeypatch.setattr(validation, "CRITERIA", stubs)
    results = validation.run_all()
    assert len(results) == 10
    assert all(r.seconds >= 0.0 and not r.line().endswith(" s)") for r in results)
    monkeypatch.setattr(validation, "run_all", lambda seed, reps: results)
    results[0].seconds = 12.345
    assert main(["validate"]) == EXIT_OK
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == f"{results[0].line()} (12.3 s)"
    assert all(line.endswith(" s)") for line in lines[:10])


def test_validate_rejects_a_negative_seed_before_any_criterion():
    proc = subprocess.run([sys.executable, "-m", "macrodml", "validate", "--seed", "-1",
                           "--reps", "1"], capture_output=True, text=True)
    assert proc.returncode == EXIT_CONFIG
    assert proc.stdout == ""  # no criterion ran
    assert proc.stderr == "code=1 error=ConfigError message=seed must be >= 0\n"
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize("reps", ["0", "-3"])
def test_validate_rejects_reps_below_one_before_any_criterion(monkeypatch, capsys, reps):
    ran = []
    monkeypatch.setattr(validation, "run_criterion", lambda *args: ran.append(args))
    assert main(["validate", "--reps", reps]) == EXIT_CONFIG
    captured = capsys.readouterr()
    assert ran == [] and captured.out == ""
    assert captured.err == "code=1 error=ConfigError message=reps must be >= 1\n"


def test_exit_code_reaches_the_shell(small_fx, tmp_path):
    root, fx = small_fx
    shim = "import sys; from macrodml.cli import main; sys.exit(main(sys.argv[1:]))"
    proc = subprocess.run(
        [sys.executable, "-c", shim, "run", "--funds", fx["funds_csv"],
         "--macro", fx["macro_csv"], "--meta", fx["meta_csv"],
         "--treatment", "nope", "--out", str(tmp_path / "o")],
        capture_output=True, text=True,
    )
    assert proc.returncode == EXIT_DATA
    assert proc.stderr.startswith("code=2")


def test_python_dash_m_macrodml_runs_the_cli(small_fx, tmp_path):
    root, fx = small_fx
    proc = subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", "-m", "macrodml", "run",
         "--funds", fx["funds_csv"], "--macro", fx["macro_csv"], "--meta", fx["meta_csv"],
         "--treatment", "nope", "--out", str(tmp_path / "o")],
        capture_output=True, text=True,
    )
    assert proc.returncode == EXIT_DATA
    assert proc.stderr.startswith("code=2")


def _macrodml(*args):
    return subprocess.run([sys.executable, "-m", "macrodml", *args],
                          capture_output=True, text=True)


@pytest.mark.parametrize("missing", ["funds_csv", "macro_csv", "meta_csv"])
def test_missing_input_file_exits_data(small_fx, tmp_path, missing):
    root, fx = small_fx
    proc = _macrodml(*run_args({**fx, missing: str(tmp_path / "absent.csv")}, tmp_path / "o"))
    assert proc.returncode == EXIT_DATA
    assert proc.stderr.startswith("code=2 error=MissingInput message=missing input: ")
    assert "absent.csv" in proc.stderr and proc.stderr.count("\n") == 1
    assert "Traceback" not in proc.stderr


def test_non_numeric_aum_exits_data(small_fx, tmp_path):
    root, fx = small_fx
    lines = open(fx["meta_csv"]).read().split("\n")
    cells = lines[2].split(",")
    cells[3] = "lots"
    lines[2] = ",".join(cells)
    meta = tmp_path / "meta.csv"
    meta.write_text("\n".join(lines))
    proc = _macrodml(*run_args({**fx, "meta_csv": str(meta)}, tmp_path / "o"))
    assert proc.returncode == EXIT_DATA
    assert proc.stderr.startswith(f"code=2 error=MalformedRow message={meta} line 3: ")
    assert "'lots'" in proc.stderr and proc.stderr.count("\n") == 1
    assert "Traceback" not in proc.stderr


def test_meta_csv_missing_column_exits_data(small_fx, tmp_path):
    root, fx = small_fx
    lines = open(fx["meta_csv"]).read().split("\n")
    # the column names an earlier README documented
    lines[0] = lines[0].replace("asset_class", "category").replace("managed", "status")
    meta = tmp_path / "meta.csv"
    meta.write_text("\n".join(lines))
    proc = _macrodml(*run_args({**fx, "meta_csv": str(meta)}, tmp_path / "o"))
    assert proc.returncode == EXIT_DATA
    assert proc.stderr.startswith("code=2 error=MalformedRow message=")
    assert proc.stderr.rstrip().endswith("missing column(s) asset_class, managed")
    assert proc.stderr.count("\n") == 1 and "Traceback" not in proc.stderr


def test_a_month_cell_holding_a_newline_exits_data(small_fx, tmp_path, capsys):
    root, fx = small_fx
    lines = open(fx["macro_csv"]).read().split("\n")
    month, rest = lines[1].split(",", 1)
    lines[1] = f'"{month}\n",{rest}'
    macro = tmp_path / "macro.csv"
    macro.write_text("\n".join(lines))
    assert main(run_args({**fx, "macro_csv": str(macro)}, tmp_path / "o")) == EXIT_DATA
    assert capsys.readouterr().err == (
        f"code=2 error=UnparseableTime message=expected YYYY-MM, got '{month}\\n'\n")


@pytest.mark.parametrize("column, value, error, message", [
    (1, "Bond", "DataError", "unknown asset class 'Bond'"),
    (0, None, "DuplicateColumn", "duplicate ticker {ticker!r}"),
    (2, "1979-13", "UnparseableTime", "month out of range in '1979-13'"),
], ids=["asset_class", "duplicate", "inception"])
def test_meta_row_errors_name_the_file_and_line(small_fx, tmp_path, capsys, column, value,
                                                error, message):
    root, fx = small_fx
    lines = open(fx["meta_csv"]).read().split("\n")
    ticker = lines[1].split(",")[0]
    cells = lines[2].split(",")
    cells[column] = ticker if value is None else value  # None: line 2's ticker again
    lines[2] = ",".join(cells)
    meta = tmp_path / "meta.csv"
    meta.write_text("\n".join(lines))
    assert main(run_args({**fx, "meta_csv": str(meta)}, tmp_path / "o")) == EXIT_DATA
    assert capsys.readouterr().err == (
        f"code=2 error={error} message={meta} line 3: {message.format(ticker=ticker)}\n")


@pytest.mark.parametrize("cells", [4, 6], ids=["short", "long"])
def test_meta_row_of_another_width_exits_data(small_fx, tmp_path, capsys, cells):
    root, fx = small_fx
    lines = open(fx["meta_csv"]).read().split("\n")
    lines[2] = ",".join((lines[2].split(",") + ["x"])[:cells])
    meta = tmp_path / "meta.csv"
    meta.write_text("\n".join(lines))
    assert main(run_args({**fx, "meta_csv": str(meta)}, tmp_path / "o")) == EXIT_DATA
    assert capsys.readouterr().err == (
        f"code=2 error=MalformedRow message={meta} line 3: expected 5 cells\n")


@pytest.mark.parametrize("bad_line, message", [
    ("0.5,oops", "line 4: cannot parse 'oops' as a number"),
    ("0.5,0.25,0.125", "line 4: expected 2 cells"),
    ("0.5", "line 4: expected 2 cells"),
])
def test_plots_on_malformed_residuals_exits_data(full_run, tmp_path, bad_line, message):
    out = tmp_path / "out"
    shutil.copytree(full_run["out"], out)
    lines = (out / "residuals.csv").read_text().split("\n")
    lines[3] = bad_line
    (out / "residuals.csv").write_text("\n".join(lines))
    proc = _macrodml("plots", "--out", str(out))
    assert proc.returncode == EXIT_DATA
    assert proc.stderr.startswith("code=2 error=MalformedRow message=")
    assert proc.stderr.rstrip().endswith(message) and proc.stderr.count("\n") == 1
    assert "Traceback" not in proc.stderr


def test_plots_on_non_numeric_corr_exits_data(full_run, tmp_path):
    out = tmp_path / "out"
    shutil.copytree(full_run["out"], out)
    text = (out / "corr.csv").read_text()
    (out / "corr.csv").write_text(text.replace("1.0", "one", 1))
    proc = _macrodml("plots", "--out", str(out))
    assert proc.returncode == EXIT_DATA
    assert proc.stderr.startswith("code=2 error=MalformedRow message=")
    assert "corr.csv" in proc.stderr and "Traceback" not in proc.stderr


def _replace_cell(text, line, cell, column=1):
    lines = text.split("\n")
    cells = lines[line].split(",")
    cells[column] = cell
    lines[line] = ",".join(cells)
    return "\n".join(lines)


@pytest.mark.parametrize("name, column, cell, message", [
    ("residuals.csv", 1, "", "fitted and residuals must be finite"),
    ("residuals.csv", 1, "nan", "fitted and residuals must be finite"),
    ("residuals.csv", 0, "-inf", "fitted and residuals must be finite"),
    ("pca.csv", 2, "", "explained_ratio must be a non-empty finite vector"),
    ("corr.csv", 2, "", "correlation matrix must be square and finite"),
], ids=["residual_empty", "residual_nan", "fitted_inf", "explained_empty", "corr_empty"])
def test_plots_on_a_non_finite_value_exits_data(full_run, tmp_path, capsys, name, column, cell,
                                                message):
    """An empty cell reads as NaN; no figure draws a value off the plane, and
    the failed call leaves the directory as it was."""
    out = tmp_path / "out"
    shutil.copytree(full_run["out"], out)
    for figure in cli.PLOT_FILES:  # another test may have run plots on the shared run
        (out / figure).unlink(missing_ok=True)
    (out / name).write_text(_replace_cell((out / name).read_text(), 2, cell, column))
    before = _tree_bytes(out)
    assert main(["plots", "--out", str(out)]) == EXIT_DATA
    assert capsys.readouterr().err == f"code=2 error=DataError message={message}\n"
    assert _tree_bytes(out) == before


def test_macro_names_that_need_quotes_or_escapes_run_and_plot(small_fx, tmp_path):
    """A comma and a quote make corr.csv quote a name, which plots reads back
    through csv.reader; & and < are escaped in the heatmap's labels."""
    _, fx = small_fx
    macro = load_tscs_csv(fx["macro_csv"])
    renames = {"ctrl1": 'ctrl1, real "x"', "ctrl2": "r&d<b"}
    path = tmp_path / "macro.csv"
    write_tscs_csv(TimeSeriesMatrix(macro.time_index, [renames.get(c, c) for c in macro.columns],
                                    macro.values), path)
    out = tmp_path / "out"
    args = run_args({**fx, "macro_csv": str(path)}, out, "--learner", "linear", "--lag", "2")
    assert main(args) == EXIT_OK
    assert main(["plots", "--out", str(out)]) == EXIT_OK
    names, labels, _ = read_numeric_csv(out / "corr.csv", 0)
    assert names == labels and set(renames.values()) <= set(labels)
    texts = [el.text for el in ET.parse(out / "corr_heatmap.svg").iter() if el.tag.endswith("text")]
    assert [texts.count(name) for name in renames.values()] == [2, 2]


@pytest.mark.parametrize("aum", ["nan", "inf"])
def test_non_finite_aum_exits_data(small_fx, tmp_path, capsys, aum):
    root, fx = small_fx
    meta = tmp_path / "meta.csv"
    text = open(fx["meta_csv"]).read()
    meta.write_text(text.replace("F001,FixedIncome,1979-01,100.0,",
                                 f"F001,FixedIncome,1979-01,{aum},"))
    assert main(run_args({**fx, "meta_csv": str(meta)}, tmp_path / "o")) == EXIT_DATA
    assert capsys.readouterr().err == (
        f"code=2 error=DataError message={meta} line 2: fund 'F001': aum_musd must be "
        f"finite and >= 0, got {aum}\n")


@pytest.mark.parametrize("flag, content, code, error", [
    ("--funds", None, EXIT_DATA, "MissingInput"),
    ("--meta", None, EXIT_DATA, "MissingInput"),
    ("--grid", None, EXIT_CONFIG, "ConfigError"),
    ("--config", None, EXIT_CONFIG, "ConfigError"),
    ("--funds", lambda text: b"\xff\xfe" + text.encode(), EXIT_DATA, "MalformedRow"),
    ("--funds", lambda text: _replace_cell(text, 5, "x" * 200_000).encode(), EXIT_DATA,
     "MalformedRow"),
    ("--grid", lambda text: b"[" * 100_000, EXIT_CONFIG, "ConfigError"),
], ids=["funds_dir", "meta_dir", "grid_dir", "config_dir", "funds_not_utf8", "funds_huge_cell",
        "grid_nested_too_deep"])
def test_unreadable_input_exits_with_a_typed_error(small_fx, tmp_path, capsys, flag, content,
                                                   code, error):
    """A directory in place of a file, text that is not UTF-8, a cell over
    the csv module's field limit and JSON nested past the recursion limit
    each end in one typed error line."""
    root, fx = small_fx
    path = tmp_path / "input"
    if content is None:
        path.mkdir()
    else:
        path.write_bytes(content(pathlib.Path(fx["funds_csv"]).read_bytes().decode()))
    out = tmp_path / "o"
    rc = main(run_args(fx, out, "--learner", "boosted", "--lag", "2", flag, str(path)))
    assert rc == code
    err = capsys.readouterr().err
    assert err.startswith(f"code={code} error={error} message=") and err.count("\n") == 1
    assert "input" in err and not out.exists()


@pytest.mark.parametrize("name, content", [
    ("manifest.json", b"{bad"),
    ("manifest.json", b"[1]"),
    ("corr.csv", b"variable,a\na,\xff1.0\n"),
], ids=["manifest_not_json", "manifest_not_an_object", "corr_not_utf8"])
def test_plots_on_unreadable_run_output_exits_data(full_run, tmp_path, capsys, name, content):
    """Every input is checked before anything is written: the failed call
    leaves the directory as it found it, with no figure in it."""
    out = tmp_path / "out"
    shutil.copytree(full_run["out"], out)
    for figure in cli.PLOT_FILES:  # another test may have run plots on the shared run
        (out / figure).unlink(missing_ok=True)
    (out / name).write_bytes(content)
    before = {path.name: path.read_bytes() for path in out.iterdir()}
    assert main(["plots", "--out", str(out)]) == EXIT_DATA
    err = capsys.readouterr().err
    assert err.startswith("code=2 error=MalformedRow message=") and err.count("\n") == 1
    assert name in err
    assert {path.name: path.read_bytes() for path in out.iterdir()} == before


def test_outputs_are_utf8_under_an_ascii_locale(small_fx, tmp_path):
    """Macro names outside ASCII reach adf_screen.csv, corr.csv and the
    heatmap. Under a C locale with UTF-8 mode off, run and plots still write
    every file as UTF-8, so its bytes hash to the manifest's entry."""
    _, fx = small_fx
    header, body = pathlib.Path(fx["macro_csv"]).read_text(encoding="utf-8").split("\n", 1)
    macro = tmp_path / "macro.csv"
    header = header.replace("junk_rw", "junk_rw_\u00e9").replace("ctrl1", "ctrl1_\u00e9")
    macro.write_text(header + "\n" + body, encoding="utf-8")
    out = tmp_path / "out"
    env = {**os.environ, "LC_ALL": "C", "PYTHONUTF8": "0", "PYTHONCOERCECLOCALE": "0"}
    for args in (run_args({**fx, "macro_csv": str(macro)}, out, "--learner", "linear", "--lag", "2"),
                 ["plots", "--out", str(out)]):
        proc = subprocess.run([sys.executable, "-X", "utf8=0", "-m", "macrodml", *args],
                              capture_output=True, text=True, env=env)
        assert proc.returncode == EXIT_OK, proc.stderr
    assert "ctrl1_\u00e9" in (out / "corr_heatmap.svg").read_text(encoding="utf-8")
    assert "junk_rw_\u00e9" in (out / "adf_screen.csv").read_text(encoding="utf-8")
    files = read_manifest(out)["files"]
    assert set(files) == set(os.listdir(out)) - {"manifest.json"}
    for name, digest in files.items():
        assert hashlib.sha256((out / name).read_bytes()).hexdigest() == digest, name


_INSERTS = st.one_of(
    st.sampled_from([b",", b'"', b"\n", b"\r", b"\xff", b"\xfe\xff", b"\x00", b"-", b"0",
                     b"e999", b"nan"]),
    st.binary(min_size=1, max_size=4),
)
_MUTATION = st.tuples(
    st.sampled_from(["funds_csv", "macro_csv", "meta_csv"]),
    st.sampled_from(["empty_cell", "insert", "truncate"]),
    st.integers(0, 999),  # where, in thousandths of the file
    _INSERTS,
)


def _mutate(data, op, where, payload):
    at = where * len(data) // 1000
    if op == "truncate":
        return data[:at]
    if op == "insert":
        return data[:at] + payload + data[at:]
    start = max(data.rfind(b",", 0, at), data.rfind(b"\n", 0, at)) + 1
    end = min((i for i in (data.find(b",", at), data.find(b"\n", at)) if i >= 0),
              default=len(data))
    return data[:start] + data[end:]


@settings(max_examples=40, derandomize=True, database=None, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(mutations=st.lists(_MUTATION, min_size=1, max_size=3))
def test_mutated_inputs_end_in_one_typed_error_line(small_fx, mutations):
    """Truncated files, inserted bytes (not UTF-8 among them), commas, quotes
    and emptied cells in the three input CSVs either run or exit 1, 2 or 3
    with a single code= line on stderr, never a traceback."""
    root, fx = small_fx
    files = {key: pathlib.Path(fx[key]).read_bytes()
             for key in ("funds_csv", "macro_csv", "meta_csv")}
    for key, op, where, payload in mutations:
        files[key] = _mutate(files[key], op, where, payload)
    with tempfile.TemporaryDirectory() as tmp:
        paths = {key: os.path.join(tmp, os.path.basename(fx[key])) for key in files}
        for key, data in files.items():
            pathlib.Path(paths[key]).write_bytes(data)
        err = io.StringIO()
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
            rc = main(run_args(paths, os.path.join(tmp, "out"),
                               "--learner", "linear", "--lag", "2"))
    assert rc in (EXIT_OK, EXIT_CONFIG, EXIT_DATA, EXIT_NUMERICAL)
    lines = err.getvalue().splitlines()
    if rc != EXIT_OK:
        assert len([line for line in lines if line.startswith("code=")]) == 1, lines
    assert "Traceback" not in err.getvalue()


# ---------------------------------------------------------------------------
# bulk-formatted tables: the bytes and bits of the per-row path
# ---------------------------------------------------------------------------

SPECIAL_FLOATS = [
    float("nan"), float("inf"), float("-inf"), -0.0, 0.0, 5e-324, -5e-324, 1e-7, 1e16,
    123456789.0, 1.0, -3.0, 2.0**53, 0.1, 1 / 3, -2.5e-310, 1.7976931348623157e308,
]


TEXT_CELLS = ["plain", "a,b", 'say "hi"', "two\nlines", "cr\rcell", " leading", "", '""',
              "naïve ✓ €"]


def _csv_writer_text(header, rows):
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue()


def _table_text(header, columns):
    return "".join(csv_blocks(header, columns))


def test_numeric_table_text_matches_csv_writer():
    rng = np.random.default_rng(3)
    n = len(SPECIAL_FLOATS)
    columns = [
        SPECIAL_FLOATS,
        list(reversed(SPECIAL_FLOATS)),
        (rng.standard_normal(n) * 10.0 ** rng.integers(-12, 12, n)).tolist(),
    ]
    ints = list(range(n))
    assert (_table_text(["i", "a", "b", "c"], [ints, *columns])
            == _csv_writer_text(["i", "a", "b", "c"], zip(ints, *columns)))
    # text cells, in the header and in columns of their own or beside numbers
    text = [TEXT_CELLS[i % len(TEXT_CELLS)] for i in range(n)]
    header = ["name", *TEXT_CELLS[:4], "i"]
    table = [text, SPECIAL_FLOATS, text[::-1], ints, TEXT_CELLS[:1] * n, ints]
    assert _table_text(header, table) == _csv_writer_text(header, zip(*table))
    assert (_table_text(TEXT_CELLS, [[c] for c in TEXT_CELLS])
            == _csv_writer_text(TEXT_CELLS, [TEXT_CELLS]))
    assert _table_text(["a", "b"], [(1.5,), ("x",)]) == "a,b\n1.5,x\n"  # tuples print as lists
    # number cells printed once and handed on as text, and arrays, print the same
    assert (_table_text(["a", "b"], [csv_cells(SPECIAL_FLOATS), ints])
            == _table_text(["a", "b"], [np.array(SPECIAL_FLOATS), np.arange(n)])
            == _table_text(["a", "b"], [SPECIAL_FLOATS, ints]))
    missing = [None, 1.5, None, 2, None]
    assert (_table_text(["a", "b"], [missing, missing[::-1]])
            == _csv_writer_text(["a", "b"], zip(missing, missing[::-1])))
    assert _table_text(["a", "b"], [[], []]) == "a,b\n"
    # a table longer than one block of rows prints as one block would
    n = 2 * CSV_BLOCK + 3
    floats = rng.standard_normal(n) * 10.0 ** rng.integers(-12, 12, n)
    quoted = [TEXT_CELLS[i % len(TEXT_CELLS)] for i in range(n)]
    header = ["i", "x", "printed", "name"]
    table = [np.arange(n), floats, csv_cells(floats[::-1]), quoted]
    assert (_table_text(header, table)
            == _csv_writer_text(header, zip(range(n), floats.tolist(),
                                            floats[::-1].tolist(), quoted)))
    # the header line, then CSV_BLOCK rows at a time (no quoted cell holds a line end)
    pieces = csv_blocks(header[:3], table[:3])
    assert [piece.count("\n") for piece in pieces] == [1, CSV_BLOCK, CSV_BLOCK, 3]


def test_plots_reparse_returns_the_written_bits(full_run, tmp_path, monkeypatch):
    rng = np.random.default_rng(4)
    finite = [v for v in SPECIAL_FLOATS if abs(v) < 1e300]  # nan and inf fail the min/max scale
    fitted = np.concatenate([finite, rng.standard_normal(500) * 1e3])
    resid = np.concatenate([finite[::-1], rng.standard_normal(500) * 1e-5])
    out = tmp_path / "out"
    with cli._publishing(str(out), {}) as write:  # which replaces the whole directory
        for name in ("corr.csv", "pca.csv"):
            write(name, [pathlib.Path(full_run["out"], name).read_bytes()])
        write("residuals.csv",
              csv_blocks(["fitted", "residual"], [fitted.tolist(), resid.tolist()]))
    seen = {}
    real = cli.render_residuals
    monkeypatch.setattr(cli, "render_residuals",
                        lambda f, r: seen.update(f=f, r=r) or real(f, r))
    cli.emit_plots(str(out))
    assert np.array_equal(seen["f"].view(np.uint64), fitted.view(np.uint64))
    assert np.array_equal(seen["r"].view(np.uint64), resid.view(np.uint64))


def test_a_long_str_block_is_written_and_hashed_as_its_utf8_bytes(tmp_path):
    """The writer encodes a str block IO_BLOCK characters at a time: a block
    over IO_BLOCK characters with multi-byte characters on both sides of a
    slice boundary reaches the file, and its manifest digest, as its bytes."""
    block = "a" * (IO_BLOCK - 2) + "é€😀ü" + "z" * 1000
    assert block[IO_BLOCK - 1: IO_BLOCK + 1] == "€😀"
    out = tmp_path / "out"
    with cli._publishing(str(out), {}) as write:
        write("figure.svg", [block])
    data = block.encode()
    assert (out / "figure.svg").read_bytes() == data
    assert read_manifest(out)["files"] == {"figure.svg": hashlib.sha256(data).hexdigest()}


def test_plots_holds_its_figure_and_a_few_blocks_not_whole_copies(tmp_path):
    """plots parses residuals.csv IO_BLOCK characters at a time, formats the
    scatter CSV_BLOCK points at a time and encodes it IO_BLOCK characters at
    a time. On a 60,000-row table (2.4 MB of text, a 5.0 MB figure) its
    traced peak stays below the figure's text twice, as its blocks and their
    join, plus four IO_BLOCKs (one piece's cells or one block's format).
    Parsing the whole body at once and formatting the whole scatter with one
    template takes 3.4 times the figure."""
    rng = np.random.default_rng(6)
    n = 60_000
    out = tmp_path / "out"
    with cli._publishing(str(out), {}) as write:
        write("corr.csv", csv_blocks(["variable", "a", "b"], [["a", "b"], [1.0, 0.5], [0.5, 1.0]]))
        write("pca.csv", csv_blocks(["component", "eigenvalue", "explained_ratio"],
                                    [["PC1", "PC2"], [1.5, 0.5], [0.75, 0.25]]))
        write("residuals.csv", csv_blocks(["fitted", "residual"],
                                          [rng.standard_normal(n), rng.standard_normal(n)]))
    assert (out / "residuals.csv").stat().st_size > 2 * IO_BLOCK
    tracemalloc.start()
    try:
        cli.emit_plots(str(out))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    figure = (out / "residuals_fitted.svg").stat().st_size
    assert peak < 2 * figure + 4 * IO_BLOCK


def test_manifest_is_written_once(small_fx, tmp_path, monkeypatch):
    root, fx = small_fx
    opened = []
    real_open = open

    def tracking_open(path, mode="r", *args, **kwargs):
        if "w" in mode:
            opened.append(os.path.basename(path))
        return real_open(path, mode, *args, **kwargs)

    monkeypatch.setattr("builtins.open", tracking_open)
    assert main(run_args(fx, tmp_path / "o", "--learner", "linear", "--lag", "2")) == EXIT_OK
    assert opened.count("manifest.json") == 1
    assert sorted(opened) == sorted(os.listdir(tmp_path / "o"))


# ---------------------------------------------------------------------------
# the output directory holds exactly the last successful run
# ---------------------------------------------------------------------------

def _assert_holds_exactly_the_manifest(out):
    assert sorted(os.listdir(out)) == sorted([*read_manifest(out)["files"], "manifest.json"])


@pytest.mark.parametrize("first, second", [("both", "linear"), ("linear", "both")])
def test_rerun_into_the_same_dir_leaves_only_its_files(small_fx, tmp_path, first, second):
    root, fx = small_fx
    grid = tmp_path / "grid.json"
    grid.write_text(json.dumps([BOTH_RUN_GRID]))
    out = tmp_path / "o"
    for learner in (first, second):
        args = run_args(fx, out, "--learner", learner, "--lag", "2", "--grid", str(grid))
        assert main(args) == EXIT_OK
        _assert_holds_exactly_the_manifest(out)
        assert main(["plots", "--out", str(out)]) == EXIT_OK
        _assert_holds_exactly_the_manifest(out)
    assert ("grid_cv.csv" in os.listdir(out)) == (second == "both")
    assert sorted(os.listdir(tmp_path)) == ["grid.json", "o"]  # no staging dirs left


def test_failed_run_leaves_previous_outputs_untouched(small_fx, tmp_path, monkeypatch, capsys):
    root, fx = small_fx
    out = tmp_path / "o"
    assert main(run_args(fx, out, "--learner", "linear", "--lag", "2")) == EXIT_OK
    assert main(["plots", "--out", str(out)]) == EXIT_OK
    before = {name: (out / name).read_bytes() for name in os.listdir(out)}
    # the pipeline fails
    assert main(run_args(fx, out, "--treatment", "junk_rw", "--learner", "linear")) == EXIT_DATA
    # writing fails at the swap
    real_rename = os.rename

    def rename(src, dst):
        staged = os.path.basename(src).startswith(".o.") and not src.endswith(".old")
        if staged and dst == os.path.realpath(out):
            raise OSError("swap refused")
        real_rename(src, dst)

    monkeypatch.setattr(os, "rename", rename)
    capsys.readouterr()
    assert main(run_args(fx, out, "--learner", "linear", "--lag", "3")) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("code=1 error=ConfigError message=cannot write the outputs in ")
    assert "swap refused" in err and err.count("\n") == 1
    assert {name: (out / name).read_bytes() for name in os.listdir(out)} == before
    assert os.listdir(tmp_path) == ["o"]


@pytest.mark.parametrize("foreign", ["notes.txt", "subdir/", "manifest.json"])
def test_output_dir_holding_foreign_files_exits_config(small_fx, tmp_path, foreign):
    root, fx = small_fx
    out = tmp_path / "o"
    args = run_args(fx, out, "--learner", "linear", "--lag", "2")
    assert main(args) == EXIT_OK
    if foreign == "manifest.json":  # not one an earlier run wrote
        (out / foreign).write_text("[]\n")
    elif foreign.endswith("/"):
        (out / foreign).mkdir()
        (out / foreign / "keep.txt").write_text("keep\n")
    else:
        (out / foreign).write_text("keep\n")
    before = {p: p.read_bytes() for p in out.rglob("*") if p.is_file()}
    proc = _macrodml(*args)
    assert proc.returncode == EXIT_CONFIG
    assert proc.stderr.startswith("code=1 error=ConfigError message=")
    assert "holds files no earlier run wrote" in proc.stderr
    assert proc.stderr.count("\n") == 1 and "Traceback" not in proc.stderr
    assert {p: p.read_bytes() for p in out.rglob("*") if p.is_file()} == before
    assert sorted(os.listdir(tmp_path)) == ["o"]


def test_empty_output_dir_is_used(small_fx, tmp_path):
    root, fx = small_fx
    out = tmp_path / "o"
    out.mkdir()
    assert main(run_args(fx, out, "--learner", "linear", "--lag", "2")) == EXIT_OK
    _assert_holds_exactly_the_manifest(out)


def test_leftover_replaced_outputs_are_reported(small_fx, tmp_path, monkeypatch, capsys):
    root, fx = small_fx
    args = run_args(fx, tmp_path / "o", "--learner", "linear", "--lag", "2")
    assert main(args) == EXIT_OK

    def rmtree(path, *a, **kw):
        raise OSError("busy")

    monkeypatch.setattr(shutil, "rmtree", rmtree)
    assert main(args) == EXIT_OK
    assert "warning: could not remove the replaced outputs" in capsys.readouterr().err
    left = sorted(os.listdir(tmp_path))
    assert left[0].startswith(".o.") and left[0].endswith(".old") and left[1:] == ["o"]


def test_output_dir_holding_an_input_exits_config(small_fx, tmp_path, capsys):
    root, fx = small_fx
    out = tmp_path / "o"
    out.mkdir()
    meta = out / "meta.csv"
    shutil.copy(fx["meta_csv"], meta)
    assert main(run_args({**fx, "meta_csv": str(meta)}, out)) == EXIT_CONFIG
    assert "must not contain" in capsys.readouterr().err
    assert os.listdir(out) == ["meta.csv"]
    assert main(run_args(fx, meta)) == EXIT_CONFIG  # a file, not a directory
    assert "is not a directory" in capsys.readouterr().err
    assert os.listdir(out) == ["meta.csv"]


def _tree_bytes(path):
    return {p.relative_to(path): None if p.is_dir() else p.read_bytes()
            for p in sorted(path.rglob("*"))}


def test_run_into_a_path_under_a_file_exits_config(small_fx, tmp_path):
    """--out under a regular file (an earlier run's manifest) cannot be
    made: one typed line naming it, and the earlier run is left whole."""
    root, fx = small_fx
    out = tmp_path / "o"
    assert main(run_args(fx, out, "--learner", "linear", "--lag", "2")) == EXIT_OK
    before = _tree_bytes(tmp_path)
    bad = out / "manifest.json" / "out"
    proc = _macrodml(*run_args(fx, bad, "--learner", "linear", "--lag", "2"))
    assert proc.returncode == EXIT_CONFIG
    assert proc.stderr.startswith(
        f"code=1 error=ConfigError message=cannot write the outputs in {str(bad)!r}: ")
    assert proc.stderr.count("\n") == 1 and "Traceback" not in proc.stderr
    assert _tree_bytes(tmp_path) == before  # no stage directory either


def test_plots_with_a_later_figure_path_a_directory_replaces_nothing(full_run, tmp_path, capsys):
    """A figure path that is a directory is a foreign entry, refused before
    anything is written, so the heatmap is not written either."""
    out = tmp_path / "out"
    shutil.copytree(full_run["out"], out)
    for figure in cli.PLOT_FILES:  # another test may have run plots on the shared run
        (out / figure).unlink(missing_ok=True)
    (out / "pca_scree.svg").mkdir()
    before = _tree_bytes(tmp_path)
    assert main(["plots", "--out", str(out)]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith(f"code=1 error=ConfigError message=output_dir {str(out)!r} holds "
                          "files no earlier run wrote (pca_scree.svg)")
    assert err.count("\n") == 1
    assert _tree_bytes(tmp_path) == before


def test_plots_onto_a_directory_exits_config(full_run, tmp_path):
    """A figure's path that is a directory is a foreign entry: one typed line
    naming the output directory; no stage is left and every other file, the
    manifest included, keeps its bytes."""
    out = tmp_path / "out"
    shutil.copytree(full_run["out"], out)
    for figure in cli.PLOT_FILES:  # another test may have run plots on the shared run
        (out / figure).unlink(missing_ok=True)
    (out / "corr_heatmap.svg").mkdir()
    before = _tree_bytes(tmp_path)
    proc = _macrodml("plots", "--out", str(out))
    assert proc.returncode == EXIT_CONFIG
    assert proc.stderr.startswith(f"code=1 error=ConfigError message=output_dir {str(out)!r} ")
    assert "holds files no earlier run wrote" in proc.stderr
    assert proc.stderr.count("\n") == 1 and "Traceback" not in proc.stderr
    assert _tree_bytes(tmp_path) == before


@pytest.mark.parametrize("command, failing", [("run", "nuisance_residuals.csv"),
                                              ("plots", "pca_scree.svg")])
def test_a_write_that_fails_partway_leaves_the_outputs_as_they_were(small_fx, tmp_path,
                                                                    monkeypatch, capsys,
                                                                    command, failing):
    """Every file is written into the stage, so a write that fails after
    others succeeded (a full disk, say) leaves --out and the directory
    holding it byte for byte as they were, with no stage left behind."""
    _, fx = small_fx
    out = tmp_path / "o"
    assert main(run_args(fx, out, "--learner", "linear", "--lag", "2")) == EXIT_OK
    if command == "run":  # no earlier figures for plots, which would rewrite them unchanged
        assert main(["plots", "--out", str(out)]) == EXIT_OK
    before = _tree_bytes(tmp_path)
    real_open = open

    def failing_open(path, mode="r", *args, **kwargs):
        if "w" in mode and os.path.basename(path).startswith(failing):  # or a temporary beside it
            raise OSError(28, "No space left on device")
        return real_open(path, mode, *args, **kwargs)

    monkeypatch.setattr("builtins.open", failing_open)
    capsys.readouterr()
    args = run_args(fx, out, "--learner", "linear", "--lag", "3") if command == "run" else [
        "plots", "--out", str(out)]
    assert main(args) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("code=1 error=ConfigError message=cannot write the outputs in ")
    assert "No space left on device" in err and err.count("\n") == 1
    assert _tree_bytes(tmp_path) == before


@pytest.mark.parametrize("listed", ["results.csv", "../outside.csv"])
def test_plots_on_a_manifest_listing_a_file_it_lacks_exits_data(full_run, tmp_path, capsys,
                                                                 listed):
    """plots copies only the files beside the manifest: a listed one that is
    gone, or a name outside the directory, ends in one typed line and
    nothing is written."""
    out = tmp_path / "out"
    shutil.copytree(full_run["out"], out)
    (tmp_path / "outside.csv").write_text("keep\n")
    manifest = read_manifest(out)
    if listed in manifest["files"]:
        (out / listed).unlink()
    else:
        manifest["files"][listed] = "0" * 64
        (out / "manifest.json").write_text(json.dumps(manifest))
    before = _tree_bytes(tmp_path)
    assert main(["plots", "--out", str(out)]) == EXIT_DATA
    err = capsys.readouterr().err
    assert err == (f"code=2 error=MissingInput message={str(out / 'manifest.json')} lists files "
                   f"{str(out)} does not hold: {listed}\n")
    assert _tree_bytes(tmp_path) == before


def test_plots_without_a_manifest_exits_data_and_writes_nothing(full_run, tmp_path, capsys):
    out = tmp_path / "out"
    shutil.copytree(full_run["out"], out)
    for name in (*cli.PLOT_FILES, "manifest.json"):
        (out / name).unlink(missing_ok=True)
    before = _tree_bytes(tmp_path)
    assert main(["plots", "--out", str(out)]) == EXIT_DATA
    err = capsys.readouterr().err
    assert err.startswith("code=2 error=MissingInput message=") and err.count("\n") == 1
    assert "manifest.json" in err
    assert _tree_bytes(tmp_path) == before


# ---------------------------------------------------------------------------
# tuning on the cross-fit's folds
# ---------------------------------------------------------------------------

# one (max_depth, learning_rate, min_samples_leaf) group each, so both
# candidates share one fit per fold; on the small fixture the longer one wins
# the first grid and the shorter one the second
GROUP_MAX_GRID = [{"n_trees": t, "max_depth": 2, "learning_rate": 0.3, "min_samples_leaf": 20}
                  for t in (3, 25)]
SHORTER_GRID = [{"n_trees": t, "max_depth": 6, "learning_rate": 1.0, "min_samples_leaf": 1}
                for t in (10, 60)]


def _recorded_boosted_run(small_fx, tmp_path, monkeypatch, grid):
    """The arguments and the result of the one run_dml call of a `--learner
    boosted` run over `grid` into tmp_path / "o"."""
    _, fx = small_fx
    grid_path = tmp_path / "grid.json"
    grid_path.write_text(json.dumps(grid))
    calls = []
    real = cli.run_dml

    def recording(*args, **kwargs):
        result = real(*args, **kwargs)
        calls.append((args, kwargs, result))
        return result

    monkeypatch.setattr(cli, "run_dml", recording)
    out = tmp_path / "o"
    args = run_args(fx, out, "--learner", "boosted", "--lag", "2", "--grid", str(grid_path))
    assert main(args) == EXIT_OK
    (call,) = calls
    return call


@pytest.mark.parametrize("grid, winner_trees", [(GROUP_MAX_GRID, 25), (SHORTER_GRID, 10)],
                         ids=["winner_at_group_max", "winner_shorter_than_its_group"])
def test_tuned_residuals_equal_a_cross_fit_of_the_winner(small_fx, tmp_path, monkeypatch,
                                                         grid, winner_trees):
    (problem, spec), kwargs, (_, res) = _recorded_boosted_run(small_fx, tmp_path, monkeypatch, grid)
    assert spec.params.n_trees == winner_trees and kwargs["g_hat"] is not None
    ref = cross_fit_nuisance(problem, LearnerSpec("boosted", spec.params), kwargs["k"], kwargs["seed"])
    for name in ("u", "v", "g_hat", "m_hat", "fold_of", "r2_y", "r2_d"):
        assert np.asarray(getattr(res, name)).tobytes() == np.asarray(getattr(ref, name)).tobytes()


def test_grid_cv_scores_equal_separate_fits_on_the_fold_designs(small_fx, tmp_path, monkeypatch):
    (problem, _), kwargs, _ = _recorded_boosted_run(small_fx, tmp_path, monkeypatch, SHORTER_GRID)
    _, rows = read_csv(tmp_path / "o" / "grid_cv.csv")
    y = problem.y
    pairs = problem.folds(kwargs["k"], kwargs["seed"])[0]
    for entry, row in zip(SHORTER_GRID, rows):
        params = learners.HyperParams(**entry)
        oof = np.empty(y.size)
        for train, test in pairs:
            rows_of = problem.fold_design(train)
            oof[test] = predict(gbt_fit(rows_of(train), y[train], params), rows_of(test))
        assert [float(row[4]), float(row[5])] == [mse(y, oof), r2(y, oof)]


def test_both_run_with_the_default_grid_makes_ten_gbt_fits(small_fx, tmp_path, monkeypatch):
    """8 grid fits (4 groups x 2 folds) and the d task's 2: the winner's
    out-of-fold predictions are the y task's, which is not fit again."""
    _, fx = small_fx
    fitted = []

    def counting_fit(X, y, params):
        fitted.append(params.n_trees)
        return gbt_fit(X, y, params)

    monkeypatch.setattr(learners, "gbt_fit", counting_fit)
    monkeypatch.setattr(dml, "gbt_fit", counting_fit)
    out = tmp_path / "o"
    assert main(run_args(fx, out, "--learner", "both", "--lag", "2")) == EXIT_OK
    winner = read_manifest(out)["boosted_params"]["n_trees"]
    assert fitted == [200] * 8 + [winner] * 2


def test_grid_whose_every_candidate_fails_exits_with_the_fit_error(small_fx, tmp_path, capsys):
    """A failed winner has no out-of-fold predictions, so its cross-fit fits
    it and raises the fit's typed error."""
    _, fx = small_fx
    grid = tmp_path / "grid.json"
    grid.write_text(json.dumps([{**BOTH_RUN_GRID, "min_samples_leaf": 100_000}]))
    out = tmp_path / "o"
    rc = main(run_args(fx, out, "--learner", "both", "--lag", "2", "--grid", str(grid)))
    assert rc == EXIT_DATA
    err = capsys.readouterr().err
    assert err.startswith("code=2 error=TooFewRows message=fold 0, y-task: need at least 200000 rows")
    assert err.count("\n") == 1 and not out.exists()
