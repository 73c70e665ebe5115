import csv
import hashlib
import json
import os
import subprocess
import sys

import pytest

from macrodml.cli import (
    EXIT_CONFIG,
    EXIT_DATA,
    EXIT_OK,
    EXIT_VALIDATION,
    PipelineConfig,
    config_from_json,
    main,
)
from macrodml.errors import ConfigError
from macrodml.synth import gen_pipeline_fixture


def read_csv(path):
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        return header, list(reader)


def read_manifest(out_dir):
    with open(os.path.join(out_dir, "manifest.json")) as fh:
        return json.load(fh)


def run_args(fx, out_dir, *extra):
    return [
        "run",
        "--funds", fx["funds_csv"],
        "--macro", fx["macro_csv"],
        "--meta", fx["meta_csv"],
        "--treatment", "policy_rate",
        "--out", str(out_dir),
        *extra,
    ]


@pytest.fixture(scope="module")
def full_run(tmp_path_factory):
    """One full-size linear run shared by the read-only assertions below."""
    root = tmp_path_factory.mktemp("cli_full")
    fx = gen_pipeline_fixture(root / "inputs", seed=0)
    out = root / "out"
    assert main(run_args(fx, out, "--learner", "linear", "--lag", "7")) == EXIT_OK
    return {"fx": fx, "out": str(out)}


@pytest.fixture(scope="module")
def small_fx(tmp_path_factory):
    # 300 months keeps the ADF screen well-powered under Schwert auto lags
    root = tmp_path_factory.mktemp("cli_small")
    return root, gen_pipeline_fixture(root / "inputs", seed=5, n_funds=4, n_months=300)


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
    assert manifest["flags"]["dml_variant"] == "dml2_pooled_score"
    assert manifest["panel"]["units"] == 16
    assert manifest["panel"]["dropped_nonstationary"] == ["junk_rw"]
    assert manifest["config_hash"] and len(manifest["config_hash"]) == 64
    assert "junk_rw" not in read_csv(os.path.join(full_run["out"], "corr.csv"))[0]


def test_full_run_writes_all_tables(full_run):
    expected = {
        "adf_screen.csv", "corr.csv", "pca.csv", "results.csv", "per_1pct.csv",
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


def test_rerun_is_byte_identical(full_run):
    out = full_run["out"]
    before = {}
    for name in os.listdir(out):
        with open(os.path.join(out, name), "rb") as fh:
            before[name] = fh.read()
    assert main(run_args(full_run["fx"], out, "--learner", "linear", "--lag", "7")) == EXIT_OK
    for name, blob in before.items():
        with open(os.path.join(out, name), "rb") as fh:
            assert fh.read() == blob, name


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


def test_both_learners_two_result_rows(small_fx, tmp_path):
    root, fx = small_fx
    grid_path = tmp_path / "grid.json"
    grid_path.write_text(json.dumps([{
        "n_trees": 15, "max_depth": 2,
        "learning_rate": 0.3, "min_samples_leaf": 20,
    }]))
    out = tmp_path / "out"
    rc = main(run_args(fx, out, "--learner", "both", "--lag", "2",
                       "--grid", str(grid_path)))
    assert rc == EXIT_OK
    _, rows = read_csv(out / "results.csv")
    assert [r[0] for r in rows] == ["linear", "boosted"]
    _, r2_rows = read_csv(out / "r2.csv")
    assert len(r2_rows) == 2
    _, cv_rows = read_csv(out / "grid_cv.csv")
    assert len(cv_rows) == 1
    manifest = read_manifest(out)
    assert manifest["boosted_params"] == {
        "n_trees": 15, "max_depth": 2, "learning_rate": 0.3,
        "min_samples_leaf": 20, "subsample": 1.0,
    }


def test_auto_lag_selection(small_fx, tmp_path):
    root, fx = small_fx
    out = tmp_path / "out"
    rc = main(run_args(fx, out, "--learner", "linear", "--lag", "auto"))
    assert rc == EXIT_OK
    lag = read_manifest(out)["flags"]["lag_used"]
    assert isinstance(lag, int) and 1 <= lag <= 12


# ---------------------------------------------------------------------------
# config file handling
# ---------------------------------------------------------------------------

def test_config_json_with_flag_override(small_fx, tmp_path):
    root, fx = small_fx
    out = tmp_path / "out"
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps({
        "funds_csv": fx["funds_csv"],
        "macro_csv": fx["macro_csv"],
        "meta_csv": fx["meta_csv"],
        "treatment_name": "policy_rate",
        "output_dir": str(out),
        "learner": "linear",
        "lag_order": 3,
        "seed": 1,
    }))
    assert main(["run", "--config", str(config_path), "--seed", "2"]) == EXIT_OK
    manifest = read_manifest(out)
    assert manifest["config"]["seed"] == 2  # flag wins
    assert manifest["config"]["lag_order"] == 3  # file value sticks
    assert manifest["flags"]["lag_used"] == 3


def test_config_json_rejects_unknown_keys(tmp_path):
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"funds_csv": "x.csv", "bogus_knob": 1}))
    with pytest.raises(ConfigError, match="bogus_knob"):
        config_from_json(str(path))


def test_config_validate_catches_bad_values(small_fx):
    root, fx = small_fx
    base = dict(funds_csv=fx["funds_csv"], macro_csv=fx["macro_csv"],
                meta_csv=fx["meta_csv"], treatment_name="policy_rate",
                output_dir="somewhere")
    for bad in ({"learner": "forest"}, {"k": 1}, {"level": "2%"},
                {"fold_mode": "time"}, {"score": "naive"}, {"lag_order": -1},
                {"min_aum": -5.0}):
        with pytest.raises(ConfigError):
            PipelineConfig(**base, **bad).validate()
    PipelineConfig(**base).validate()


def test_fold_mode_alias_normalizes():
    config = PipelineConfig(funds_csv="f", macro_csv="m", meta_csv="c",
                            treatment_name="t", output_dir="o",
                            fold_mode="unitblocked")
    config.validate()
    assert config.fold_mode == "unit"


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
    assert "stationarity" in capsys.readouterr().err
    assert not out.exists()  # staged writes mean failures leave nothing behind


def test_missing_config_file_exits_config(tmp_path, capsys):
    assert main(["run", "--config", str(tmp_path / "nope.json")]) == EXIT_CONFIG
    assert "not found" in capsys.readouterr().err


def test_bad_lag_string_exits_config(small_fx, tmp_path, capsys):
    root, fx = small_fx
    rc = main(run_args(fx, tmp_path / "o", "--lag", "seven"))
    assert rc == EXIT_CONFIG


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
