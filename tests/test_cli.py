import contextlib
import csv
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
from macrodml.learners import gbt_fit, kfold_split, mse, predict, r2, train_test_folds
from macrodml.panel_data import csv_cells, csv_text

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
    assert manifest["flags"]["dml_variant"] == "dml2_pooled_score"
    assert {k: manifest["flags"][k] for k in ("mode", "fold_mode", "unit_y_mean_encoding")} == {
        "mode": "crossfit", "fold_mode": "row", "unit_y_mean_encoding": True}
    assert "unit_x_means_encoding" not in manifest["flags"]
    assert set(manifest["config"]) == set(PipelineConfig.__dataclass_fields__)
    assert manifest["panel"]["units"] == 16
    assert manifest["panel"]["dropped_nonstationary"] == ["junk_rw"]
    assert manifest["config_hash"] and len(manifest["config_hash"]) == 64
    assert "junk_rw" not in read_csv(os.path.join(full_run["out"], "corr.csv"))[0]


def test_bare_import_loads_no_submodule_and_no_numpy():
    src = os.path.dirname(os.path.dirname(macrodml.__file__))
    probe = ("import sys, macrodml; "
             "print(sorted(m for m in sys.modules if m == 'numpy' or m.startswith('macrodml.')))")
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": src}, check=True)
    assert proc.stdout == "[]\n"


def test_manifest_records_versions(full_run):
    assert read_manifest(full_run["out"])["versions"] == {
        "macrodml": macrodml.__version__,
        "numpy": np.__version__,
        "python": platform.python_version(),
    }


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
    def check(*args):
        return validation.CriterionResult(0, "stub", "1", "1", passed=True)

    for name in dir(validation):
        if name.startswith("check_"):
            monkeypatch.setattr(validation, name, check)
    results = validation.run_all()
    assert len(results) == 10
    assert all(r.seconds >= 0.0 and "s)" not in r.line() for r in results)
    monkeypatch.setattr(validation, "run_all", lambda seed, reps: results)
    results[0].seconds = 12.345
    assert main(["validate"]) == EXIT_OK
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == f"{results[0].line()} (12.3 s)"
    assert all(line.endswith(" s)") for line in lines[:10])


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
    assert proc.stderr.startswith("code=2 error=MalformedRow message=line 3: ")
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


def _replace_cell(text, line, cell):
    lines = text.split("\n")
    cells = lines[line].split(",")
    cells[1] = cell
    lines[line] = ",".join(cells)
    return "\n".join(lines)


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


def test_numeric_table_text_matches_csv_writer():
    rng = np.random.default_rng(3)
    n = len(SPECIAL_FLOATS)
    columns = [
        SPECIAL_FLOATS,
        list(reversed(SPECIAL_FLOATS)),
        (rng.standard_normal(n) * 10.0 ** rng.integers(-12, 12, n)).tolist(),
    ]
    ints = list(range(n))
    assert (csv_text(["i", "a", "b", "c"], [ints, *columns])
            == _csv_writer_text(["i", "a", "b", "c"], zip(ints, *columns)))
    # text cells, in the header and in columns of their own or beside numbers
    text = [TEXT_CELLS[i % len(TEXT_CELLS)] for i in range(n)]
    header = ["name", *TEXT_CELLS[:4], "i"]
    table = [text, SPECIAL_FLOATS, text[::-1], ints, TEXT_CELLS[:1] * n, ints]
    assert csv_text(header, table) == _csv_writer_text(header, zip(*table))
    assert (csv_text(TEXT_CELLS, [[c] for c in TEXT_CELLS])
            == _csv_writer_text(TEXT_CELLS, [TEXT_CELLS]))
    assert csv_text(["a", "b"], [(1.5,), ("x",)]) == "a,b\n1.5,x\n"  # tuples print as lists
    # number cells printed once and handed on as text, and arrays, print the same
    assert (csv_text(["a", "b"], [csv_cells(SPECIAL_FLOATS), ints])
            == csv_text(["a", "b"], [np.array(SPECIAL_FLOATS), np.arange(n)])
            == csv_text(["a", "b"], [SPECIAL_FLOATS, ints]))
    missing = [None, 1.5, None, 2, None]
    assert (csv_text(["a", "b"], [missing, missing[::-1]])
            == _csv_writer_text(["a", "b"], zip(missing, missing[::-1])))
    assert csv_text(["a", "b"], [[], []]) == "a,b\n"


def test_plots_reparse_returns_the_written_bits(full_run, tmp_path, monkeypatch):
    rng = np.random.default_rng(4)
    finite = [v for v in SPECIAL_FLOATS if abs(v) < 1e300]  # nan and inf fail the min/max scale
    fitted = np.concatenate([finite, rng.standard_normal(500) * 1e3])
    resid = np.concatenate([finite[::-1], rng.standard_normal(500) * 1e-5])
    out = tmp_path / "out"
    art = cli._Artifacts()
    for name in ("corr.csv", "pca.csv"):  # write_out replaces the whole directory
        art.add(name, open(os.path.join(full_run["out"], name), newline="").read())
    art.add("residuals.csv", csv_text(["fitted", "residual"], [fitted.tolist(), resid.tolist()]))
    art.write_out(str(out))
    seen = {}
    real = cli.render_residuals
    monkeypatch.setattr(cli, "render_residuals",
                        lambda f, r: seen.update(f=f, r=r) or real(f, r))
    cli.emit_plots(str(out))
    assert np.array_equal(seen["f"].view(np.uint64), fitted.view(np.uint64))
    assert np.array_equal(seen["r"].view(np.uint64), resid.view(np.uint64))


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


def test_plots_onto_a_directory_exits_config(full_run, tmp_path):
    """A figure's path that is a directory cannot be replaced: one typed line
    naming the output directory; no temporary file is left and every other
    file, the manifest included, keeps its bytes."""
    out = tmp_path / "out"
    shutil.copytree(full_run["out"], out)
    for figure in cli.PLOT_FILES:  # another test may have run plots on the shared run
        (out / figure).unlink(missing_ok=True)
    (out / "corr_heatmap.svg").mkdir()
    before = _tree_bytes(tmp_path)
    proc = _macrodml("plots", "--out", str(out))
    assert proc.returncode == EXIT_CONFIG
    assert proc.stderr.startswith(
        f"code=1 error=ConfigError message=cannot write the outputs in {str(out)!r}: ")
    assert proc.stderr.count("\n") == 1 and "Traceback" not in proc.stderr
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
    pairs = train_test_folds(kfold_split(problem.n_obs, kwargs["k"], kwargs["seed"]))
    for entry, row in zip(SHORTER_GRID, rows):
        params = learners.HyperParams(**entry)
        losses, scores = [], []
        for train, test in pairs:
            rows_of = problem.fold_design(train)
            pred = predict(gbt_fit(rows_of(train), y[train], params), rows_of(test))
            losses.append(mse(y[test], pred))
            scores.append(r2(y[test], pred))
        assert [float(row[4]), float(row[5])] == [float(np.mean(losses)), float(np.mean(scores))]


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
