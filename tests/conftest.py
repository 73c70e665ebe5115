import csv
import json

import numpy as np
import pytest

from macrodml.cli import EXIT_OK, main
from macrodml.panel_data import TimeSeriesMatrix, month_range
from macrodml.synth import gen_pipeline_fixture


def make_tsm(values, start="2000-01", names=None) -> TimeSeriesMatrix:
    """Wrap a 2-D array as a TimeSeriesMatrix on consecutive months."""
    values = np.asarray(values, dtype=float)
    if values.ndim == 1:
        values = values[:, None]
    if names is None:
        names = [f"c{j + 1}" for j in range(values.shape[1])]
    return TimeSeriesMatrix(month_range(start, values.shape[0]), list(names), values)


def panel_x(panel) -> np.ndarray:
    """The panel's whole x, written out from its month groups
    (`PanelTable.design`, whose last column, the outcome means, is dropped)."""
    rows = np.arange(panel.n_rows)
    return np.asarray(panel.design(rows, np.zeros(len(panel.units))))[:, :-1]


def read_csv(path):
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        return header, list(reader)


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


@pytest.fixture
def rng():
    return np.random.default_rng(0)


@pytest.fixture(scope="session")
def full_run(tmp_path_factory):
    """One full-size linear run shared by the read-only assertions."""
    root = tmp_path_factory.mktemp("cli_full")
    fx = gen_pipeline_fixture(root / "inputs", seed=0)
    out = root / "out"
    assert main(run_args(fx, out, "--learner", "linear", "--lag", "7")) == EXIT_OK
    return {"fx": fx, "out": str(out)}


@pytest.fixture(scope="session")
def small_fx(tmp_path_factory):
    # 300 months keeps the ADF screen well-powered under Schwert auto lags
    root = tmp_path_factory.mktemp("cli_small")
    return root, gen_pipeline_fixture(root / "inputs", seed=5, n_funds=4, n_months=300)


BOTH_RUN_GRID = {"n_trees": 15, "max_depth": 2, "learning_rate": 0.3, "min_samples_leaf": 20}


@pytest.fixture(scope="session")
def both_run(small_fx, tmp_path_factory):
    """A `--learner both` run on the small fixture, tuned over BOTH_RUN_GRID alone."""
    root = tmp_path_factory.mktemp("cli_both")
    _, fx = small_fx
    grid_path = root / "grid.json"
    grid_path.write_text(json.dumps([BOTH_RUN_GRID]))
    out = root / "out"
    rc = main(run_args(fx, out, "--learner", "both", "--lag", "2", "--grid", str(grid_path)))
    assert rc == EXIT_OK
    return out
