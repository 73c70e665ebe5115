"""Wide time-series-cross-section data model, file I/O, and panel reshaping.

The wide form is a months-by-series matrix (fund returns or macro variables);
the long form is one row per (fund, month) with outcome, treatment, and a
control vector including lagged values, held as a month table and the fund
returns. Every input file is read through `read_input`, every numeric CSV
body is parsed by `read_numeric_csv` and every CSV table is printed by
`csv_blocks`.
"""

from __future__ import annotations

import contextlib
import csv
import io
import re
from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from .errors import (
    ConfigError,
    DataError,
    DuplicateColumn,
    IndexMismatch,
    MacrodmlError,
    MalformedRow,
    MissingInput,
    NonMonotoneTime,
    UnparseableTime,
)
from .learners import GroupedRows

_MONTH_RE = re.compile(r"([0-9]{4})-([0-9]{2})")

ASSET_CLASSES = ("FixedIncome", "Equity")
MANAGED_STYLES = ("Active", "Passive")


def month_to_int(month: str) -> int:
    """Map 'YYYY-MM' to a running month count (1 month apart <=> difference 1).
    The whole cell must match, with ASCII digits only."""
    m = _MONTH_RE.fullmatch(month)
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
    """Overlapping month range of two matrices; IndexMismatch if disjoint
    or either has no months."""
    if not (a.time_index and b.time_index):
        raise IndexMismatch("time ranges do not overlap: a file has no rows")
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
        if not 0 <= self.aum_musd < np.inf:  # NaN fails too
            raise DataError(f"fund {self.ticker!r}: aum_musd must be finite and >= 0, "
                            f"got {self.aum_musd!r}")
        month_to_int(self.inception)


@dataclass
class PanelTable:
    """Long-form panel, one row per (fund, month) with complete lag window:
    row i is fund units[unit_codes[i]] (the sorted tickers with a row) in
    month months[month_codes[i]]; rows are fund-major, months ascending.

    The controls x (one column per x_names entry) are never stored whole.
    Every column but the `lag_order` own-return lags depends on the month
    alone and sits in month_x, one row per month, at its x position; the
    y_lag{j} column of row i is returns[month_codes[i] - j, unit_codes[i]],
    with one returns column per unit. `design` gives any rows of x. Every
    value a row reads must be finite; the others (month_x's lag slots and
    months without a row, returns outside every lag window) may be anything.
    """

    units: list[str]
    months: list[str]
    unit_codes: np.ndarray
    month_codes: np.ndarray
    y: np.ndarray
    d: np.ndarray
    month_x: np.ndarray
    returns: np.ndarray
    x_names: list[str]
    lag_order: int

    def __post_init__(self) -> None:
        self.unit_codes = np.asarray(self.unit_codes, dtype=np.intp)
        self.month_codes = np.asarray(self.month_codes, dtype=np.intp)
        self.y = np.asarray(self.y, dtype=float)
        self.d = np.asarray(self.d, dtype=float)
        self.month_x = np.asarray(self.month_x, dtype=float)
        self.returns = np.asarray(self.returns, dtype=float)
        n = self.unit_codes.size
        if not (self.month_codes.size == self.y.size == self.d.size == n):
            raise DataError("panel column lengths disagree")
        if self.month_x.shape != (len(self.months), len(self.x_names)):
            raise DataError("month_x must hold one row per month and one column per x name")
        if self.returns.shape != (len(self.months), len(self.units)):
            raise DataError("returns must hold one row per month and one column per unit")
        lags = _y_lag_columns(len(self.x_names), self.lag_order)
        if len(lags) != self.lag_order:
            raise DataError(f"{len(self.x_names)} x columns cannot hold {self.lag_order} lags")
        step_u = np.diff(self.unit_codes)
        if not np.all((step_u > 0) | ((step_u == 0) & (np.diff(self.month_codes) > 0))):
            raise DataError("rows must be fund-major with months strictly ascending")
        if n and not (0 <= self.unit_codes[0] <= self.unit_codes[-1] < len(self.units)
                      and self.lag_order <= self.month_codes.min()
                      and self.month_codes.max() < len(self.months)):
            raise DataError("a row's fund or lag window lies outside the panel")
        fixed = np.full(len(self.x_names), True)  # the month_x columns a row reads
        fixed[lags] = False
        read = np.flatnonzero(np.bincount(self.month_codes, minlength=len(self.months)))
        bad = np.argwhere(~np.isfinite(self.month_x[np.ix_(read, fixed)]))
        if bad.size:
            name = self.x_names[np.flatnonzero(fixed)[bad[0, 1]]]
            raise DataError(f"x column {name!r} is not finite in month "
                            f"{self.months[read[bad[0, 0]]]!r}, which a row reads")
        # per fund, the non-finite returns before each month: the lag window
        # [t - p, t) of month t is finite when the counts at t and t - p agree
        p, before = self.lag_order, np.zeros((len(self.months) + 1, len(self.units)), np.intp)
        np.cumsum(~np.isfinite(self.returns), axis=0, out=before[1:])
        dirty = before[p:-1] != before[:-1 - p]  # row t - p: month t's window
        bad = np.flatnonzero(dirty[self.month_codes - p, self.unit_codes])
        if bad.size:
            fund, month = self.units[self.unit_codes[bad[0]]], self.months[self.month_codes[bad[0]]]
            raise DataError(f"fund {fund!r} has a non-finite return in the {p} months "
                            f"before {month!r}, which its row there reads")

    @property
    def n_rows(self) -> int:
        return self.unit_codes.size

    def design(self, rows: np.ndarray, means: np.ndarray) -> GroupedRows:
        """x[rows] with each row's fund mean means[unit_codes[rows]] appended
        (`means` one value per unit), as month groups: every x column but
        the own-return lags is the month's month_x row, so only the lags and
        the mean vary within a month, and no x row is gathered. The values
        and their column order are those of the x `to_panel` describes."""
        p, units = self.lag_order, len(self.units)
        unit_of = self.unit_codes[rows]
        varying = np.empty((p + 1, len(rows))).T  # column-major, each column written whole
        flat = self.returns.ravel()
        at = self.month_codes[rows] * units + unit_of
        for j in range(p):
            at -= units  # the same unit a month earlier
            varying[:, j] = flat.take(at)
        varying[:, p] = means[unit_of]
        shared = np.column_stack([self.month_x, np.zeros(len(self.months))])
        return GroupedRows(shared, self.month_codes[rows], varying,
                           _y_lag_columns(len(self.x_names), p) + [len(self.x_names)])


def _y_lag_columns(width: int, p: int) -> list[int]:
    """x positions of y_lag1..y_lagp in an x of `width` columns laid out as
    `to_panel` describes: K controls, then per lag [y, treatment, K controls].
    Empty (a mismatch) when `width` is not K + p * (K + 2) for some K >= 0."""
    k, extra = divmod(width - 2 * p, p + 1)
    if k < 0 or extra:
        return []
    return [k + (j - 1) * (k + 2) for j in range(1, p + 1)]


def lag_design(X: np.ndarray, p: int, start: int) -> np.ndarray:
    """[X_{t-1}, ..., X_{t-p}] for t = start, ..., len(X) - 1, one row each
    (no column at p = 0): the one builder of lag matrices (the panel's month
    table, the ADF and VAR regressions)."""
    X, T = X.reshape(len(X), -1), len(X)
    t = np.arange(start, T)[:, None] - np.arange(1, p + 1)
    return X[t].reshape(T - start, p * X.shape[1])


# ---------------------------------------------------------------------------
# File I/O
# ---------------------------------------------------------------------------

@contextlib.contextmanager
def read_input(path, error: type[MacrodmlError] | None = None):
    """The input file at `path`, open as UTF-8 text with its line ends as
    they are (newline="", as the csv module reads), for a `with` block that
    reads it. A leading byte-order mark, which Excel's "CSV UTF-8" writes,
    is skipped.

    Every way of reading a file fails with a typed error: one that cannot be
    opened or read raises MissingInput, and text that is not UTF-8 or that
    the block's parse rejects with csv.Error or ValueError (json's errors
    among them), or nests too deep for json (RecursionError), raises
    MalformedRow. Given `error` (ConfigError for a config or grid file),
    each of these raises `error` instead.
    """
    try:
        with open(path, encoding="utf-8-sig", newline="") as fh:
            yield fh
    except OSError as exc:
        reason = "not found" if isinstance(exc, FileNotFoundError) else exc.strerror or exc
        raise (error or MissingInput)(f"missing input: {path} ({reason})") from None
    except (ValueError, csv.Error, RecursionError) as exc:  # UnicodeDecodeError is a ValueError
        raise (error or MalformedRow)(f"{path}: {exc}") from None


IO_BLOCK = 1 << 20  # characters or bytes of file text parsed, encoded or copied at a time


def read_numeric_csv(path, text_column: str | int | None = None):
    """The CSV at `path` as (names, texts, values): `names` the header's
    columns but the text column, `texts` the text column's cells ([] without
    one) and `values` a (rows, len(names)) float array of the other cells.
    `text_column` is a column name, which the header must hold exactly once
    (else DataError), or a position.

    This is the one parser of numeric CSV bodies. The header is read by
    csv.reader, since column names may be quoted. A body holding neither a
    quote nor a \\r is split on commas and newlines in pieces of whole lines,
    each about IO_BLOCK characters, so only one piece's cells are held at a
    time; any other body is read by csv.reader, which reads quoted cells and
    \\r\\n line ends. Either way every row must hold as many cells as the
    header, and every other cell goes through float(), an empty one reading as
    NaN, so a table `csv_blocks` printed comes back with the bits it was
    printed from. A file without a header row, a row of another width and a
    cell float() rejects raise MalformedRow, the last two naming the row's
    line (and the cell's first 40 characters). Of several such rows, the
    first piece's is named, a row of another width before a bad cell.
    """
    with read_input(path) as fh:
        header = next(csv.reader(fh), [])
        if not header:
            raise MalformedRow(f"{path}: file has no header row")
        if isinstance(text_column, str):
            if header.count(text_column) != 1:
                raise DataError(f"expected exactly one {text_column!r} column")
            text_column = header.index(text_column)
        body = fh.read()
        if '"' in body or "\r" in body:
            rows = list(csv.reader(io.StringIO(body, newline="")))
            pieces = [(np.array([len(row) for row in rows], dtype=np.intp),
                       [cell for row in rows for cell in row])]
        else:
            pieces = _split_pieces(body)
    width = len(header)
    names, texts = header, []
    if text_column is not None:
        names = header[:text_column] + header[text_column + 1:]
    blocks, before = [np.empty((0, len(names)))], 0  # `before`: rows of the earlier pieces
    for lengths, cells in pieces:
        bad = np.flatnonzero(lengths != width)
        if bad.size:
            raise MalformedRow(f"{path} line {before + bad[0] + 2}: expected {width} cells")
        if text_column is not None:
            texts += cells[text_column::width]
            del cells[text_column::width]
        if "" in cells:  # an empty cell is a missing value
            cells = [cell or "nan" for cell in cells]
        try:
            values = np.fromiter(map(float, cells), dtype=float, count=len(cells))
        except ValueError:
            for i, cell in enumerate(cells):
                try:
                    float(cell)
                except ValueError:
                    shown = cell if len(cell) <= 40 else cell[:40] + "..."
                    raise MalformedRow(f"{path} line {before + i // len(names) + 2}: "
                                       f"cannot parse {shown!r} as a number") from None
            raise
        blocks.append(values.reshape(lengths.size, len(names)))
        before += lengths.size
        del cells  # before the next piece's are made
    return names, texts, np.concatenate(blocks)


def _split_pieces(body: str) -> Iterator[tuple[np.ndarray, list[str]]]:
    """(cells per row, cells) of a body without quotes or \\r, one piece at a
    time: whole lines, cut at the first newline from the piece's IO_BLOCK-th
    character on. Every line, a last one without its newline among them, is
    a row; the newline that ends a piece is in neither piece."""
    start = 0
    while start < len(body):
        end = body.find("\n", min(start + IO_BLOCK, len(body)) - 1)
        end = len(body) if end < 0 else end
        piece = body[start:end]
        start = end + 1
        chars = np.frombuffer(piece.encode(), dtype=np.uint8)
        # each cell ends in one separator, a comma, a newline or the piece's end
        seps = chars[(chars == ord(",")) | (chars == ord("\n"))]
        ends = np.append(np.flatnonzero(seps == ord("\n")), seps.size)
        yield np.diff(ends, prepend=-1), piece.replace("\n", ",").split(",")


def load_tscs_csv(path) -> TimeSeriesMatrix:
    """Load a wide CSV (header row, one "date" column, one column per series)
    through `read_numeric_csv`. Empty cells become NaN. Column order follows
    the file."""
    names, months, values = read_numeric_csv(path, "date")
    return TimeSeriesMatrix(months, names, values)


_QUOTED = ',"\n'  # a text cell holding any of these is quoted


def _text_cell(cell: str) -> str:
    return '"' + cell.replace('"', '""') + '"' if any(c in cell for c in _QUOTED) else cell


def csv_cells(column) -> list[str]:
    """A column's CSV cells, as `csv_blocks` prints them. A str column quotes a
    cell only when it holds a comma, a quote or a newline, doubling its
    quotes. A number column, a sequence of Python numbers and None or a 1-D
    numpy array, is printed with one repr of it as a list: each float as
    float.__repr__ (its shortest round-trip digits), each int as int.__repr__
    and None as an empty cell. Those cells hold no comma, quote or newline,
    so `csv_blocks` prints a column of them as it is."""
    cells = column.tolist() if isinstance(column, np.ndarray) else list(column)
    if cells and isinstance(cells[0], str):
        text = "".join(cells)
        if any(c in text for c in _QUOTED):  # one scan per character clears most columns
            cells = list(map(_text_cell, cells))
        return cells
    return repr(cells)[1:-1].replace("None", "").split(", ") if cells else []


CSV_BLOCK = 8192  # table rows csv_blocks prints at a time


def csv_blocks(header, columns) -> Iterator[str]:
    """The CSV text of a table given column by column (see `csv_cells`), all
    of one length and each a sequence that slices, as consecutive pieces:
    the header line, then CSV_BLOCK rows at a time. Each block's cells are
    made only when the block is asked for, so a table written block by block
    holds the text and cells of one block at a time. A block is CSV_BLOCK
    rows of every column, so that bound grows with the table's width: the
    401-column, 500-row funds.csv of a 400-fund fixture is one block, and
    `write_tscs_csv` peaks at about 29 MB under tracemalloc writing its
    3.8 MB.

    This is the one writer of every table the package prints. The joined
    pieces are the bytes of the csv module's writer with QUOTE_MINIMAL and
    lineterminator "\\n", as Python 3.11 writes them (a lone \\r is not
    quoted), except that a one-column table writes an empty cell as an empty
    line.
    """
    yield ",".join(csv_cells(header)) + "\n"
    for start in range(0, len(columns[0]) if columns else 0, CSV_BLOCK):
        cells = [csv_cells(column[start:start + CSV_BLOCK]) for column in columns]
        yield "\n".join(map(",".join, zip(*cells))) + "\n"


def write_tscs_csv(matrix: TimeSeriesMatrix, path) -> None:
    """Inverse of load_tscs_csv: NaN as an empty cell, full-precision floats."""
    values = np.where(np.isnan(matrix.values), None, matrix.values)  # Python floats and None
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.writelines(csv_blocks(["date", *matrix.columns], [matrix.time_index, *values.T]))


META_COLUMNS = ("ticker", "asset_class", "inception", "aum_musd", "managed")


def load_fund_meta_csv(path) -> list[FundMeta]:
    """Load the fund-metadata sidecar (ticker,asset_class,inception,aum_musd,managed).

    A header without one of those columns raises MalformedRow naming it.
    Every error a row raises (too few or many cells, an AUM that is not a
    number, a bad field, a repeated ticker) keeps its type and names the
    file and line.
    """
    catalog = []
    seen = set()
    with read_input(path) as fh:
        reader = csv.DictReader(fh)
        missing = [name for name in META_COLUMNS if name not in (reader.fieldnames or ())]
        if missing:
            raise MalformedRow(f"{path}: missing column(s) {', '.join(missing)}")
        for rec in reader:
            try:
                if None in rec or None in rec.values():  # DictReader's marks of a long or short row
                    raise MalformedRow(f"expected {len(reader.fieldnames)} cells")
                try:
                    aum = float(rec["aum_musd"])
                except ValueError:
                    raise MalformedRow(
                        f"cannot parse aum_musd {rec['aum_musd']!r} as a number") from None
                meta = FundMeta(rec["ticker"], rec["asset_class"], rec["inception"], aum,
                                rec["managed"])
                if meta.ticker in seen:
                    raise DuplicateColumn(f"duplicate ticker {meta.ticker!r}")
            except MacrodmlError as exc:
                raise type(exc)(f"{path} line {reader.line_num}: {exc}") from exc
            seen.add(meta.ticker)
            catalog.append(meta)
    return catalog


def write_fund_meta_csv(catalog: list[FundMeta], path) -> None:
    columns = [[getattr(m, name) for m in catalog] for name in META_COLUMNS]
    columns[3] = list(map(float, columns[3]))  # aum_musd prints as a float
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.writelines(csv_blocks(list(META_COLUMNS), columns))


# ---------------------------------------------------------------------------
# Operations
# ---------------------------------------------------------------------------

def filter_funds(catalog: list[FundMeta], min_aum: float) -> list[FundMeta]:
    """The funds of the catalog with aum_musd >= min_aum, original order kept."""
    return [fund for fund in catalog if fund.aum_musd >= min_aum]


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
    month. A lag window as long as the series raises DataError up front.

    The control vector x is [controls at t] followed, for each lag j = 1..p,
    by [y_lag{j}, {treatment_name}_lag{j}, <control>_lag{j}...]. The table
    keeps it as a month table and the fund returns; `PanelTable.design` gives
    its rows.
    """
    if lag_order < 0:
        raise ConfigError("lag_order must be >= 0")
    if macro.time_index != funds.time_index:
        raise IndexMismatch("funds and macro must share the time index")
    if treatment_name not in macro.columns:
        raise DataError(f"treatment {treatment_name!r} is not a macro column")

    p = lag_order
    T = funds.n_months
    if T <= p:
        raise DataError(f"panel is empty after lag-window construction: lag order {p} "
                        f"needs more than {p} months, the series has {T}")
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
    seen = np.zeros((T + 1, len(tickers)), dtype=np.int64)
    np.cumsum(ok, axis=0, out=seen[1:])
    valid = np.zeros_like(ok)
    valid[p:] = seen[p + 1 :] - seen[: T - p] == p + 1
    f, t = np.nonzero(valid.T)  # fund-major, months ascending
    has_rows = valid.any(axis=0)
    # renumber the funds with a row 0, 1, ... in ticker order
    unit_of = np.cumsum(has_rows) - 1

    # x's month-only columns, one row per month: the controls, then each lag
    # of [NaN for y_lag{j}, treatment, controls]; the first p months, whose
    # lag windows reach before the first month, stay NaN, and no row has them
    K = X.shape[1]
    month_x = np.full((T, len(x_names)), np.nan)
    month_x[p:, :K] = X[p:]
    month_x[p:, K:] = lag_design(np.column_stack([np.full(T, np.nan), d, X]), p, p)
    return PanelTable(
        [ticker for ticker, kept in zip(tickers, has_rows.tolist()) if kept],
        list(funds.time_index),
        unit_of[f],
        t,
        Y[t, f],
        d[t],
        month_x,
        Y[:, has_rows],
        x_names,
        p,
    )
