"""Wide time-series-cross-section data model, CSV ingestion, and panel reshaping.

The wide form is a months-by-series matrix (fund returns or macro variables);
the long form is one row per (fund, month) with outcome, treatment, and a
control vector including lagged values.
"""

from __future__ import annotations

import csv
import re
from dataclasses import dataclass

import numpy as np

from .errors import (
    DataError,
    DuplicateColumn,
    IndexMismatch,
    MalformedRow,
    MissingInput,
    NonMonotoneTime,
    UnparseableTime,
)

_MONTH_RE = re.compile(r"^(\d{4})-(\d{2})$")

ASSET_CLASSES = ("FixedIncome", "Equity")
MANAGED_STYLES = ("Active", "Passive")


def month_to_int(month: str) -> int:
    """Map 'YYYY-MM' to a running month count (1 month apart <=> difference 1)."""
    m = _MONTH_RE.match(month)
    if not m:
        raise UnparseableTime(f"expected YYYY-MM, got {month!r}")
    year, mon = int(m.group(1)), int(m.group(2))
    if not 1 <= mon <= 12:
        raise UnparseableTime(f"month out of range in {month!r}")
    return year * 12 + (mon - 1)


def int_to_month(count: int) -> str:
    year, mon = divmod(count, 12)
    return f"{year:04d}-{mon + 1:02d}"


def month_range(start: str, n: int) -> list[str]:
    """n consecutive months starting at `start`."""
    base = month_to_int(start)
    return [int_to_month(base + i) for i in range(n)]


def _check_monthly(time_index: list[str]) -> None:
    counts = [month_to_int(t) for t in time_index]
    for prev, cur, month in zip(counts, counts[1:], time_index[1:]):
        if cur != prev + 1:
            raise NonMonotoneTime(
                f"time index must advance by exactly one month, broken at {month!r}"
            )


@dataclass
class TimeSeriesMatrix:
    """Months-by-series matrix; NaN entries are missing values."""

    time_index: list[str]
    columns: list[str]
    values: np.ndarray

    def __post_init__(self) -> None:
        self.values = np.asarray(self.values, dtype=float)
        if self.values.shape != (len(self.time_index), len(self.columns)):
            raise DataError(
                f"value matrix shape {self.values.shape} does not match "
                f"{len(self.time_index)} months x {len(self.columns)} columns"
            )
        if len(set(self.columns)) != len(self.columns):
            raise DuplicateColumn("column names must be unique")
        _check_monthly(self.time_index)

    @property
    def n_months(self) -> int:
        return len(self.time_index)

    def column(self, name: str) -> np.ndarray:
        return self.values[:, self.columns.index(name)]

    def select(self, names: list[str]) -> "TimeSeriesMatrix":
        idx = [self.columns.index(n) for n in names]
        return TimeSeriesMatrix(list(self.time_index), list(names), self.values[:, idx])

    def restrict(self, start: str, end: str) -> "TimeSeriesMatrix":
        """Contiguous sub-range [start, end], both inclusive."""
        lo = self.time_index.index(start)
        hi = self.time_index.index(end)
        return TimeSeriesMatrix(
            self.time_index[lo : hi + 1], list(self.columns), self.values[lo : hi + 1]
        )


def common_range(a: TimeSeriesMatrix, b: TimeSeriesMatrix) -> tuple[str, str]:
    """Overlapping month range of two matrices; IndexMismatch if disjoint."""
    start = max(a.time_index[0], b.time_index[0], key=month_to_int)
    end = min(a.time_index[-1], b.time_index[-1], key=month_to_int)
    if month_to_int(start) > month_to_int(end):
        raise IndexMismatch("time ranges do not overlap")
    return start, end


@dataclass(frozen=True)
class FundMeta:
    """Catalog entry for one fund."""

    ticker: str
    asset_class: str
    inception: str
    aum_musd: float
    managed: str

    def __post_init__(self) -> None:
        if not self.ticker:
            raise DataError("ticker must be non-empty")
        if self.asset_class not in ASSET_CLASSES:
            raise DataError(f"unknown asset class {self.asset_class!r}")
        if self.managed not in MANAGED_STYLES:
            raise DataError(f"unknown management style {self.managed!r}")
        if self.aum_musd < 0:
            raise DataError("aum_musd must be >= 0")
        month_to_int(self.inception)


@dataclass
class FundFilter:
    """Metadata screen; None fields impose no constraint."""

    min_aum: float | None = None
    asset_classes: set[str] | None = None
    managed: str | None = None
    min_inception: str | None = None


@dataclass
class PanelTable:
    """Long-form panel, one row per (fund, month) with complete lag window:
    row i is fund units[unit_codes[i]] (the sorted tickers with a row) in
    month months[month_codes[i]]; rows are fund-major, months ascending."""

    units: list[str]
    months: list[str]
    unit_codes: np.ndarray
    month_codes: np.ndarray
    y: np.ndarray
    d: np.ndarray
    x: np.ndarray
    x_names: list[str]

    def __post_init__(self) -> None:
        self.unit_codes = np.asarray(self.unit_codes, dtype=np.intp)
        self.month_codes = np.asarray(self.month_codes, dtype=np.intp)
        self.y = np.asarray(self.y, dtype=float)
        self.d = np.asarray(self.d, dtype=float)
        self.x = np.asarray(self.x, dtype=float)
        n = self.unit_codes.size
        if not (self.month_codes.size == self.y.size == self.d.size == len(self.x) == n):
            raise DataError("panel column lengths disagree")
        if self.x.shape[1] != len(self.x_names):
            raise DataError("x width does not match x_names")
        step_u = np.diff(self.unit_codes)
        if not np.all((step_u > 0) | ((step_u == 0) & (np.diff(self.month_codes) > 0))):
            raise DataError("rows must be fund-major with months strictly ascending")

    @property
    def n_rows(self) -> int:
        return self.unit_codes.size


# ---------------------------------------------------------------------------
# CSV ingestion
# ---------------------------------------------------------------------------

def open_input(path):
    """Open a text input for reading; a missing file raises MissingInput."""
    try:
        return open(path, newline="")
    except FileNotFoundError:
        raise MissingInput(f"missing input: {path}") from None


def load_tscs_csv(path, time_column: str = "date") -> TimeSeriesMatrix:
    """Load a wide CSV (header row, one time column, one column per series).

    Empty cells become NaN. Column order follows the file.
    """
    with open_input(path) as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise MalformedRow("file has no header row") from None
        if header.count(time_column) != 1:
            raise DataError(f"expected exactly one {time_column!r} column")
        if len(set(header)) != len(header):
            raise DuplicateColumn("column names must be unique")
        t_pos = header.index(time_column)
        names = [h for i, h in enumerate(header) if i != t_pos]

        months: list[str] = []
        rows: list[list[float]] = []
        for lineno, row in enumerate(reader, start=2):
            if len(row) != len(header):
                raise MalformedRow(
                    f"line {lineno}: expected {len(header)} cells, got {len(row)}"
                )
            month = row[t_pos]
            month_to_int(month)  # raises UnparseableTime
            months.append(month)
            cells = []
            for i, cell in enumerate(row):
                if i == t_pos:
                    continue
                if cell == "":
                    cells.append(np.nan)
                else:
                    try:
                        cells.append(float(cell))
                    except ValueError:
                        raise MalformedRow(
                            f"line {lineno}: cannot parse {cell!r} as a number"
                        ) from None
            rows.append(cells)

    values = np.array(rows, dtype=float) if rows else np.empty((0, len(names)))
    return TimeSeriesMatrix(months, names, values)


def write_tscs_csv(matrix: TimeSeriesMatrix, path, time_column: str = "date") -> None:
    """Inverse of load_tscs_csv: NaN as empty cell, full-precision floats."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow([time_column] + matrix.columns)
        for month, row in zip(matrix.time_index, matrix.values):
            writer.writerow([month] + ["" if np.isnan(v) else repr(float(v)) for v in row])


META_COLUMNS = ("ticker", "asset_class", "inception", "aum_musd", "managed")


def load_fund_meta_csv(path) -> list[FundMeta]:
    """Load the fund-metadata sidecar (ticker,asset_class,inception,aum_musd,managed).

    A header without one of those columns raises MalformedRow naming it.
    """
    catalog = []
    seen = set()
    with open_input(path) as fh:
        reader = csv.DictReader(fh)
        missing = [name for name in META_COLUMNS if name not in (reader.fieldnames or ())]
        if missing:
            raise MalformedRow(f"{path}: missing column(s) {', '.join(missing)}")
        for rec in reader:
            try:
                aum = float(rec["aum_musd"])
            except (TypeError, ValueError):
                raise MalformedRow(
                    f"line {reader.line_num}: cannot parse aum_musd "
                    f"{rec['aum_musd']!r} as a number"
                ) from None
            meta = FundMeta(
                ticker=rec["ticker"],
                asset_class=rec["asset_class"],
                inception=rec["inception"],
                aum_musd=aum,
                managed=rec["managed"],
            )
            if meta.ticker in seen:
                raise DuplicateColumn(f"duplicate ticker {meta.ticker!r}")
            seen.add(meta.ticker)
            catalog.append(meta)
    return catalog


def write_fund_meta_csv(catalog: list[FundMeta], path) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(META_COLUMNS)
        for m in catalog:
            writer.writerow([m.ticker, m.asset_class, m.inception, repr(float(m.aum_musd)), m.managed])


# ---------------------------------------------------------------------------
# Operations
# ---------------------------------------------------------------------------

def filter_funds(catalog: list[FundMeta], criteria: FundFilter) -> list[FundMeta]:
    """Subset of the catalog satisfying every criterion, original order kept.

    Thresholds are inclusive (min_aum keeps aum_musd >= min_aum).
    """
    out = []
    for fund in catalog:
        if criteria.min_aum is not None and fund.aum_musd < criteria.min_aum:
            continue
        if criteria.asset_classes is not None and fund.asset_class not in criteria.asset_classes:
            continue
        if criteria.managed is not None and fund.managed != criteria.managed:
            continue
        if criteria.min_inception is not None and month_to_int(fund.inception) < month_to_int(
            criteria.min_inception
        ):
            continue
        out.append(fund)
    return out


def to_panel(
    funds: TimeSeriesMatrix,
    macro: TimeSeriesMatrix,
    treatment_name: str,
    lag_order: int,
) -> PanelTable:
    """Reshape wide data into the long panel the learners consume.

    The macro column `treatment_name` is the treatment and the others, in
    order, the controls. One row per (fund, month) where the fund return, the
    treatment, all controls, and every one of the `lag_order` lags of (return,
    treatment, controls) are present. Months with any missing required value
    are dropped per fund, not globally. Rows are ordered by fund ticker, then
    month. A lag window longer than the series leaves the panel empty.

    The control vector is [controls at t] followed, for each lag j = 1..p,
    by [y_lag{j}, {treatment_name}_lag{j}, <control>_lag{j}...].
    """
    if lag_order < 0:
        raise ValueError("lag_order must be >= 0")
    if macro.time_index != funds.time_index:
        raise IndexMismatch("funds and macro must share the time index")
    if treatment_name not in macro.columns:
        raise DataError(f"treatment {treatment_name!r} is not a macro column")

    p = lag_order
    T = funds.n_months
    at = macro.columns.index(treatment_name)
    d = macro.values[:, at]
    controls = macro.columns[:at] + macro.columns[at + 1:]
    X = np.delete(macro.values, at, axis=1)
    base_ok = np.isfinite(d) & np.all(np.isfinite(X), axis=1)

    x_names = list(controls)
    for j in range(1, p + 1):
        x_names.append(f"y_lag{j}")
        x_names.append(f"{treatment_name}_lag{j}")
        x_names.extend(f"{c}_lag{j}" for c in controls)

    tickers = sorted(funds.columns)
    Y = funds.select(tickers).values
    ok = base_ok[:, None] & np.isfinite(Y)
    # month t is valid when all p + 1 months of its window [t-p, t] are ok
    valid = np.zeros_like(ok)
    if T > p:
        seen = np.zeros((T + 1, len(tickers)), dtype=np.int64)
        np.cumsum(ok, axis=0, out=seen[1:])
        valid[p:] = seen[p + 1 :] - seen[: T - p] == p + 1
    f, t = np.nonzero(valid.T)  # fund-major, months ascending
    has_rows = valid.any(axis=0)
    # renumber the funds with a row 0, 1, ... in ticker order
    unit_of = np.cumsum(has_rows) - 1

    K = X.shape[1]
    x = np.empty((f.size, len(x_names)))
    x[:, :K] = X[t]
    for j in range(1, p + 1):
        col = K + (j - 1) * (K + 2)
        x[:, col] = Y[t - j, f]
        x[:, col + 1] = d[t - j]
        x[:, col + 2 : col + 2 + K] = X[t - j]
    return PanelTable(
        [ticker for ticker, kept in zip(tickers, has_rows.tolist()) if kept],
        list(funds.time_index),
        unit_of[f],
        t,
        Y[t, f],
        d[t],
        x,
        x_names,
    )
