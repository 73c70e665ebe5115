import csv
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from macrodml.errors import (
    ConfigError,
    DataError,
    DuplicateColumn,
    IndexMismatch,
    MalformedRow,
    NonMonotoneTime,
    UnparseableTime,
)
from macrodml import panel_data
from macrodml.panel_data import (
    IO_BLOCK,
    FundMeta,
    PanelTable,
    TimeSeriesMatrix,
    common_range,
    csv_blocks,
    filter_funds,
    int_to_month,
    lag_design,
    load_fund_meta_csv,
    load_tscs_csv,
    month_range,
    read_numeric_csv,
    month_to_int,
    to_panel,
    write_fund_meta_csv,
    write_tscs_csv,
)

from macrodml import dml
from macrodml.dml import design_rows, encode_features, month_rows, problem_from_panel

from conftest import make_tsm, panel_x


# ---------------------------------------------------------------------------
# month arithmetic
# ---------------------------------------------------------------------------

def test_month_to_int_consecutive():
    assert month_to_int("2001-02") - month_to_int("2001-01") == 1
    assert month_to_int("2002-01") - month_to_int("2001-12") == 1


def test_month_rejects_garbage():
    # the last two: a trailing newline, and full-width digits (Unicode \d matched them)
    for bad in ("2019-13", "2019-00", "201-05", "2019/05", "2019-5", "x", "1980-01\n",
                "\uff11\uff19\uff18\uff10-\uff10\uff11"):
        with pytest.raises(UnparseableTime):
            month_to_int(bad)


@given(st.integers(min_value=0, max_value=12 * 9999 - 1))
def test_month_int_round_trip(count):
    assert month_to_int(int_to_month(count)) == count


def test_month_range():
    assert month_range("1999-11", 4) == ["1999-11", "1999-12", "2000-01", "2000-02"]


# ---------------------------------------------------------------------------
# TimeSeriesMatrix
# ---------------------------------------------------------------------------

def test_tsm_rejects_gap_in_index():
    with pytest.raises(NonMonotoneTime):
        TimeSeriesMatrix(["2000-01", "2000-03"], ["a"], np.zeros((2, 1)))


def test_tsm_rejects_duplicate_columns():
    with pytest.raises(DuplicateColumn):
        make_tsm(np.zeros((3, 2)), names=["a", "a"])


def test_tsm_column_select_restrict():
    mat = make_tsm(np.arange(12.0).reshape(4, 3), names=["a", "b", "c"])
    assert np.array_equal(mat.column("b"), [1.0, 4.0, 7.0, 10.0])
    sub = mat.select(["c", "a"])
    assert sub.columns == ["c", "a"]
    assert np.array_equal(sub.values[:, 0], mat.column("c"))
    cut = mat.restrict("2000-02", "2000-03")
    assert cut.time_index == ["2000-02", "2000-03"]
    assert np.array_equal(cut.values, mat.values[1:3])


def test_common_range_overlap_and_disjoint():
    a = make_tsm(np.zeros((5, 1)), start="2000-01")
    b = make_tsm(np.zeros((5, 1)), start="2000-03")
    assert common_range(a, b) == ("2000-03", "2000-05")
    c = make_tsm(np.zeros((2, 1)), start="2010-01")
    with pytest.raises(IndexMismatch):
        common_range(a, c)
    empty = make_tsm(np.zeros((0, 1)))  # a CSV holding only its header
    for pair in ((a, empty), (empty, a)):
        with pytest.raises(IndexMismatch):
            common_range(*pair)


# ---------------------------------------------------------------------------
# CSV round trips
# ---------------------------------------------------------------------------

def test_load_tscs_shape_and_missing(tmp_path):
    path = tmp_path / "wide.csv"
    path.write_text(
        "date,f1,f2\n"
        "2015-01,0.5,\n"
        "2015-02,-0.25,1.0\n"
        "2015-03,0.125,2.5\n"
    )
    mat = load_tscs_csv(path)
    assert (mat.n_months, len(mat.columns)) == (3, 2)
    assert np.isnan(mat.values[0, 1])
    assert mat.column("f1")[1] == -0.25


def test_load_tscs_rejects_bad_cells(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("date,f1\n2015-01,zebra\n")
    with pytest.raises(MalformedRow):
        load_tscs_csv(path)
    path.write_text("date,f1\n2015-01\n")
    with pytest.raises(MalformedRow):
        load_tscs_csv(path)


def test_tscs_round_trip_bitwise(tmp_path, rng):
    values = rng.standard_normal((24, 5))
    values[3, 2] = np.nan
    mat = make_tsm(values, start="1995-06", names=list("abcde"))
    path = tmp_path / "rt.csv"
    write_tscs_csv(mat, path)
    back = load_tscs_csv(path)
    assert back.time_index == mat.time_index
    assert back.columns == mat.columns
    assert np.array_equal(back.values, mat.values, equal_nan=True)


def _cell_by_cell(path):
    """Reference parse: csv.reader rows and one float() per cell, an empty
    cell NaN, as the loader read a wide CSV before the bulk parser."""
    with open(path, encoding="utf-8", newline="") as fh:
        header, *rows = csv.reader(fh)
    values = np.array([[float(cell) if cell else np.nan for cell in row[1:]] for row in rows])
    return header[1:], [row[0] for row in rows], values.reshape(len(rows), len(header) - 1)


def _same_bits(a, b):
    return a.shape == b.shape and np.array_equal(a.view(np.uint64), b.view(np.uint64))


def _quote_every_cell(text):
    return "".join('"' + '","'.join(line.split(",")) + '"\n' for line in text.splitlines())


@pytest.mark.parametrize("name", ["funds_csv", "macro_csv"])
@pytest.mark.parametrize("twin", [
    lambda text: text.replace("\n", "\r\n"),
    _quote_every_cell,
    lambda text: _quote_every_cell(text).replace("\n", "\r\n"),
], ids=["crlf", "quoted", "quoted_crlf"])
def test_load_tscs_twins_keep_the_bits(small_fx, tmp_path, name, twin):
    """CRLF line ends and quoted cells go through csv.reader; a fixture's
    twin loads to the values a cell-by-cell parse gives the file itself."""
    _, fx = small_fx
    text = open(fx[name], encoding="utf-8", newline="").read()
    path = tmp_path / "twin.csv"
    path.write_bytes(twin(text).encode())
    names, months, values = _cell_by_cell(fx[name])
    got = load_tscs_csv(path)
    assert (got.columns, got.time_index) == (names, months)
    assert _same_bits(got.values, values)
    assert _same_bits(load_tscs_csv(fx[name]).values, values)


# spellings float() reads, with the empty cell
_SPELLINGS = ["0.1", "-0.0", "1e-310", "5e-324", " 2.5", "+.5", "1_000", "nan", "-inf",
              "1.7976931348623157e308", "0.30000000000000004", "-7", ""]


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(
    cells=st.lists(st.lists(st.sampled_from(_SPELLINGS), min_size=3, max_size=3), max_size=6),
    newline=st.sampled_from(["\n", "\r\n"]),
    quoting=st.sampled_from([csv.QUOTE_MINIMAL, csv.QUOTE_ALL]),
    final_newline=st.booleans(),
)
def test_numeric_csv_reads_what_a_cell_by_cell_parse_reads(tmp_path_factory, cells, newline,
                                                           quoting, final_newline):
    """Any line end, quoting and spelling float() reads, empty cells among them."""
    path = tmp_path_factory.mktemp("numeric") / "table.csv"
    rows = [["date", "a", 'b "x"', "c,d"]]
    rows += [[f"2000-{i + 1:02d}", *row] for i, row in enumerate(cells)]
    with open(path, "w", encoding="utf-8", newline="") as fh:
        csv.writer(fh, lineterminator=newline, quoting=quoting).writerows(rows)
    if not final_newline:
        path.write_bytes(path.read_bytes()[: -len(newline)])
    names, months, values = _cell_by_cell(path)
    got = read_numeric_csv(path, "date")
    assert got[:2] == (names, months) and _same_bits(got[2], values)


@pytest.mark.parametrize("newline", ["\n", "\r\n"], ids=["lf", "crlf"])
@pytest.mark.parametrize("body, message", [
    ("2015-01,1,2\n2015-02,1\n", "line 3: expected 3 cells"),
    ("2015-01,1,2\n\n", "line 3: expected 3 cells"),
    ("2015-01,1,2,3\n", "line 2: expected 3 cells"),
    ("2015-01,1,2\n2015-02,1,zebra\n", "line 3: cannot parse 'zebra' as a number"),
], ids=["short_row", "blank_row", "long_row", "not_a_number"])
def test_load_tscs_errors_name_the_line(tmp_path, newline, body, message):
    """Both tokenizers (split for plain text, csv.reader for CRLF) report a
    row of another width and a cell that is not a number by its line."""
    path = tmp_path / "bad.csv"
    path.write_bytes(("date,f1,f2\n" + body).replace("\n", newline).encode())
    with pytest.raises(MalformedRow) as info:
        load_tscs_csv(path)
    assert str(info.value) == f"{path} {message}"


def test_a_long_cell_that_is_not_a_number_is_named_by_its_start(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("date,f1\n2015-01," + "x" * 200_000 + "\n")
    with pytest.raises(MalformedRow) as info:
        load_tscs_csv(path)
    assert str(info.value) == f"{path} line 2: cannot parse '{'x' * 40}...' as a number"


@pytest.fixture(scope="module")
def tall_table():
    """(labels, values, text): a label column and three number columns, every
    tenth cell of the second one missing, printed by csv_blocks into a body
    of more than three IO_BLOCK pieces."""
    rng = np.random.default_rng(5)
    n = 60_000
    values = rng.standard_normal((n, 3))
    values[::10, 1] = np.nan
    labels = [f"r{i:06d}" for i in range(n)]
    columns = np.where(np.isnan(values), None, values).T  # Python floats and None
    text = "".join(csv_blocks(["label", "a", "b", "c"], [labels, *columns]))
    assert len(text) > 3 * IO_BLOCK
    return labels, values, text


def test_a_body_of_several_pieces_reads_back_the_printed_bits(tmp_path, tall_table):
    """Pieces cut at newlines join into the table: its text column, empty
    cells as NaN and a last line without its newline."""
    labels, values, text = tall_table
    path = tmp_path / "tall.csv"
    path.write_bytes(text[:-1].encode())
    names, texts, got = read_numeric_csv(path, "label")
    assert (names, texts) == (["a", "b", "c"], labels)
    assert _same_bits(got, values)


@pytest.mark.parametrize("row, message", [
    ("r999999,1.0,2.0", "expected 4 cells"),
    ("r999999,1.0,zebra,2.0", "cannot parse 'zebra' as a number"),
], ids=["short_row", "not_a_number"])
def test_an_error_in_the_last_piece_names_the_file_line(tmp_path, tall_table, row, message):
    """Line numbers carry on across pieces, for the width check and for the
    search that names a bad cell."""
    labels, _, text = tall_table
    path = tmp_path / "bad.csv"
    path.write_bytes((text + row + "\nr1000000,1.0,2.0,3.0\n").encode())
    with pytest.raises(MalformedRow) as info:
        read_numeric_csv(path, "label")
    assert str(info.value) == f"{path} line {len(labels) + 2}: {message}"


def test_a_quoted_body_goes_to_csv_reader_whole(tmp_path, tall_table, monkeypatch):
    """One quoted cell, in the last row, sends the whole body to csv.reader."""
    labels, values, text = tall_table
    monkeypatch.setattr(panel_data, "_split_pieces",
                        lambda body: pytest.fail("a quoted body was split on commas"))
    path = tmp_path / "quoted.csv"
    path.write_bytes((text + '"r,x",1.0,,2.0\n').encode())
    names, texts, got = read_numeric_csv(path, "label")
    assert (names, texts) == (["a", "b", "c"], [*labels, "r,x"])
    assert _same_bits(got, np.vstack([values, [1.0, np.nan, 2.0]]))


def test_numeric_csv_text_column_by_position(tmp_path):
    """A text column given by position may share its name with another column."""
    path = tmp_path / "corr.csv"
    path.write_text("variable,variable,b\nvariable,1.0,0.5\nb,0.5,1.0\n")
    names, labels, values = read_numeric_csv(path, 0)
    assert (names, labels) == (["variable", "b"], ["variable", "b"])
    assert values.tolist() == [[1.0, 0.5], [0.5, 1.0]]
    with pytest.raises(DataError, match="exactly one 'variable' column"):
        read_numeric_csv(path, "variable")
    path.write_text("")
    with pytest.raises(MalformedRow, match="no header row"):
        read_numeric_csv(path)


def test_fund_meta_round_trip(tmp_path):
    catalog = [
        FundMeta("AAA", "FixedIncome", "2001-05", 350.0, "Active"),
        FundMeta("BBB", "Equity", "1999-12", 20.0, "Passive"),
    ]
    path = tmp_path / "meta.csv"
    write_fund_meta_csv(catalog, path)
    assert load_fund_meta_csv(path) == catalog


def test_fund_meta_duplicate_ticker(tmp_path):
    path = tmp_path / "meta.csv"
    path.write_text(
        "ticker,asset_class,inception,aum_musd,managed\n"
        "AAA,Equity,2000-01,10.0,Active\n"
        "AAA,Equity,2000-01,10.0,Active\n"
    )
    with pytest.raises(DuplicateColumn):
        load_fund_meta_csv(path)


@pytest.mark.parametrize("row", ["F1,Equity,100,Active", "F1,Equity,100,Active,2000-01,x"],
                         ids=["short", "long"])
def test_fund_meta_rejects_a_row_of_another_width(tmp_path, row):
    path = tmp_path / "meta.csv"
    path.write_text("ticker,asset_class,aum_musd,managed,inception\n"
                    "F0,Equity,50,Passive,1999-01\n"
                    f"{row}\n")
    with pytest.raises(MalformedRow, match="meta.csv line 3: expected 5 cells$"):
        load_fund_meta_csv(path)


@pytest.mark.parametrize("row, error, message", [
    ("F002,Bond,2000-01,10.0,Active", DataError, "unknown asset class 'Bond'"),
    ("F002,Equity,2000-01,abc,Active", MalformedRow, "cannot parse aum_musd 'abc' as a number"),
    ("F001,Equity,2000-01,10.0,Active", DuplicateColumn, "duplicate ticker 'F001'"),
    ("F002,Equity,1979-13,10.0,Active", UnparseableTime, "month out of range in '1979-13'"),
], ids=["asset_class", "aum", "duplicate", "inception"])
def test_fund_meta_row_errors_name_the_file_and_line(tmp_path, row, error, message):
    path = tmp_path / "meta.csv"
    path.write_text("ticker,asset_class,inception,aum_musd,managed\n"
                    "F001,Equity,2000-01,10.0,Active\n"
                    f"{row}\n")
    with pytest.raises(error) as info:
        load_fund_meta_csv(path)
    assert type(info.value) is error and str(info.value) == f"{path} line 3: {message}"


@pytest.mark.parametrize("aum", ["nan", "inf", "-inf", "-1.0"])
def test_fund_meta_rejects_an_aum_that_is_not_finite_and_non_negative(tmp_path, aum):
    path = tmp_path / "meta.csv"
    path.write_text(
        "ticker,asset_class,inception,aum_musd,managed\n"
        f"AAA,Equity,2000-01,{aum},Active\n"
    )
    with pytest.raises(DataError, match=f"fund 'AAA': aum_musd must be finite and >= 0, got {aum}"):
        load_fund_meta_csv(path)


# ---------------------------------------------------------------------------
# fund filtering
# ---------------------------------------------------------------------------

def _catalog():
    return [
        FundMeta("A", "FixedIncome", "2000-01", 100.0, "Active"),
        FundMeta("B", "FixedIncome", "2005-01", 20.0, "Active"),
        FundMeta("C", "FixedIncome", "2000-01", 19.9, "Active"),
        FundMeta("D", "Equity", "2000-01", 500.0, "Active"),
        FundMeta("E", "FixedIncome", "2000-01", 80.0, "Passive"),
    ]


def test_min_aum_is_inclusive():
    kept = filter_funds(_catalog(), 20.0)
    assert [m.ticker for m in kept] == ["A", "B", "D", "E"]


def test_filter_cascade_is_monotone():
    # raising the AUM floor step by step only ever shrinks the catalog
    catalog = _catalog()
    sizes = [len(filter_funds(catalog, floor)) for floor in (0.0, 20.0, 80.0, 100.0, 200.0, 1e3)]
    assert sizes == [5, 4, 3, 2, 1, 0]


def test_filter_idempotent():
    once = filter_funds(_catalog(), 20.0)
    assert filter_funds(once, 20.0) == once


# ---------------------------------------------------------------------------
# panel construction
# ---------------------------------------------------------------------------

def _with_treatment(controls, d, name="d", at=1):
    """The macro matrix to_panel takes: the controls with the treatment
    column `name` inserted at position `at`."""
    at = min(at, len(controls.columns))
    return TimeSeriesMatrix(
        list(controls.time_index),
        controls.columns[:at] + [name] + controls.columns[at:],
        np.insert(controls.values, at, d, axis=1),
    )


def _full_inputs(T=10, n_funds=3, k=2, seed=0, name="d"):
    """(funds, macro, controls, d): macro holds the controls with the
    treatment `name` between the first control and the rest."""
    rng = np.random.default_rng(seed)
    funds = make_tsm(rng.standard_normal((T, n_funds)),
                     names=[f"F{i}" for i in range(n_funds)])
    controls = make_tsm(rng.standard_normal((T, k)), names=[f"c{j}" for j in range(k)])
    d = rng.standard_normal(T)
    return funds, _with_treatment(controls, d, name), controls, d


def _keys(panel):
    """Each panel row's (ticker, month), read through its codes."""
    return [(panel.units[u], panel.months[t])
            for u, t in zip(panel.unit_codes.tolist(), panel.month_codes.tolist())]


def test_to_panel_row_count_complete_data():
    funds, macro, _, _ = _full_inputs(T=10, n_funds=3)
    panel = to_panel(funds, macro, "d", lag_order=2)
    # each fund contributes T - p complete windows
    assert panel.n_rows == 3 * (10 - 2)
    assert panel_x(panel).shape == (panel.n_rows, len(panel.x_names))


def test_to_panel_p0_keeps_all_complete_rows():
    funds, macro, controls, _ = _full_inputs(T=6, n_funds=2)
    panel = to_panel(funds, macro, "d", lag_order=0)
    assert panel.n_rows == 2 * 6
    assert panel.x_names == controls.columns


def test_to_panel_x_layout_and_values():
    funds, macro, controls, d = _full_inputs(T=8, n_funds=1, k=2, name="rate")
    assert macro.columns == ["c0", "rate", "c1"]
    panel = to_panel(funds, macro, "rate", lag_order=2)
    assert panel.x_names == [
        "c0", "c1",
        "y_lag1", "rate_lag1", "c0_lag1", "c1_lag1",
        "y_lag2", "rate_lag2", "c0_lag2", "c1_lag2",
    ]
    # first panel row sits at t = p; check every lag entry by hand
    t = 2
    y = funds.column("F0")
    X = controls.values
    row = panel_x(panel)[0]
    assert panel.months[panel.month_codes[0]] == funds.time_index[t]
    assert panel.y[0] == y[t] and panel.d[0] == d[t]
    expect = [X[t, 0], X[t, 1],
              y[t - 1], d[t - 1], X[t - 1, 0], X[t - 1, 1],
              y[t - 2], d[t - 2], X[t - 2, 0], X[t - 2, 1]]
    assert np.array_equal(row, expect)


def test_to_panel_missing_month_blocks_windows():
    funds, macro, _, _ = _full_inputs(T=10, n_funds=1)
    y = funds.values.copy()
    y[4, 0] = np.nan  # one missing fund return
    funds = TimeSeriesMatrix(funds.time_index, funds.columns, y)
    panel = to_panel(funds, macro, "d", lag_order=2)
    # rows needing month index 4 (t = 4, 5, 6) all disappear
    assert panel.n_rows == (10 - 2) - 3
    assert set(panel.month_codes.tolist()) == {2, 3, 7, 8, 9}


def test_to_panel_missing_treatment_blocks_all_funds():
    funds, _, controls, d = _full_inputs(T=10, n_funds=2)
    d = d.copy()
    d[9] = np.nan
    panel = to_panel(funds, _with_treatment(controls, d), "d", lag_order=1)
    assert panel.n_rows == 2 * ((10 - 1) - 1)


def test_to_panel_brute_force_enumeration(rng):
    # cross-check the window logic against a direct re-implementation
    T, n_funds, k, p = 12, 2, 2, 3
    funds_v = rng.standard_normal((T, n_funds))
    controls_v = rng.standard_normal((T, k))
    d_v = rng.standard_normal(T)
    # sprinkle missing values everywhere
    funds_v[rng.random((T, n_funds)) < 0.2] = np.nan
    controls_v[rng.random((T, k)) < 0.1] = np.nan
    d_v[rng.random(T) < 0.1] = np.nan

    funds = make_tsm(funds_v, names=["FA", "FB"])
    panel = to_panel(funds, _with_treatment(make_tsm(controls_v), d_v), "d", lag_order=p)

    expected = []
    for f, ticker in enumerate(funds.columns):
        for t in range(p, T):
            window = range(t - p, t + 1)
            ok = all(
                np.isfinite(funds_v[s, f]) and np.isfinite(d_v[s])
                and np.all(np.isfinite(controls_v[s]))
                for s in window
            )
            if ok:
                expected.append((ticker, funds.time_index[t]))
    assert _keys(panel) == sorted(expected)
    assert panel.units == sorted({ticker for ticker, _ in expected})


def _reference_rows(funds_v, names, d_v, controls_v, p):
    """to_panel's rows rebuilt one at a time: (ticker, month index, y, d, x)."""
    rows = []
    for ticker in sorted(names):
        f = names.index(ticker)
        for t in range(p, funds_v.shape[0]):
            window = range(t - p, t + 1)
            if all(
                np.isfinite(funds_v[s, f]) and np.isfinite(d_v[s])
                and np.all(np.isfinite(controls_v[s]))
                for s in window
            ):
                x = list(controls_v[t])
                for j in range(1, p + 1):
                    x += [funds_v[t - j, f], d_v[t - j], *controls_v[t - j]]
                rows.append((ticker, t, funds_v[t, f], d_v[t], x))
    return rows


def _row_loop_case(p):
    """Two funds with gaps, given out of ticker order, their panel at lag p
    and `_reference_rows` of them."""
    rng = np.random.default_rng(40 + p)
    T, k = 14, 2
    names = ["FB", "FA"]  # not in sorted order
    funds_v = rng.standard_normal((T, 2))
    funds_v[[2, 9], 0] = np.nan  # each fund has its own gaps
    funds_v[5, 1] = np.nan
    controls_v = rng.standard_normal((T, k))
    controls_v[12, 1] = np.nan
    d_v = rng.standard_normal(T)
    d_v[0] = np.nan

    funds = make_tsm(funds_v, names=names)
    macro = _with_treatment(make_tsm(controls_v), d_v)
    panel = to_panel(funds, macro, "d", lag_order=p)
    return funds, panel, _reference_rows(funds_v, names, d_v, controls_v, p)


@pytest.mark.parametrize("p", [0, 1, 3])
def test_to_panel_values_match_row_loop(p):
    funds, panel, rows = _row_loop_case(p)
    assert rows and {r[0] for r in rows} == {"FA", "FB"}
    assert panel.units == ["FA", "FB"]
    assert panel.months == funds.time_index
    assert [panel.units[u] for u in panel.unit_codes] == [r[0] for r in rows]
    assert panel.month_codes.tolist() == [r[1] for r in rows]
    assert np.array_equal(panel.y, [r[2] for r in rows])
    assert np.array_equal(panel.d, [r[3] for r in rows])
    ref_x = np.array([r[4] for r in rows])
    x = panel_x(panel)
    assert x.shape == ref_x.shape == (len(rows), len(panel.x_names))
    for c, name in enumerate(panel.x_names):
        assert np.array_equal(x[:, c], ref_x[:, c]), name


@pytest.mark.parametrize("p", [0, 1, 3])
def test_fold_designs_keep_the_row_loop_bits(monkeypatch, p):
    """Every fold's design, gathered block by block from the month table and
    the fund returns, holds the bits of [x, unit means] built from the row
    loop's x; so do its month groups, written out."""
    monkeypatch.setattr(dml, "_ROW_BLOCK", 5)  # several blocks per fold
    _, panel, ref_rows = _row_loop_case(p)
    problem = problem_from_panel(panel)
    x_ref = np.array([r[4] for r in ref_rows])
    n = panel.n_rows
    for train, test in problem.folds(3, seed=2)[0]:
        means = encode_features(problem, train)
        for rows in (train, test, np.arange(n)):
            ref = np.column_stack([x_ref[rows], means[rows]])
            got = design_rows(problem.x, means, rows)
            assert got.flags.c_contiguous
            assert np.array_equal(got.view(np.uint64), ref.view(np.uint64))
            grouped = month_rows(problem.x, means, rows)
            got = grouped.shared[grouped.group]
            got[:, grouped.at] = grouped.varying
            assert np.array_equal(got.view(np.uint64), ref.view(np.uint64))


def test_to_panel_codes_skip_funds_without_rows():
    funds, macro, _, _ = _full_inputs(T=6, n_funds=3)
    y = funds.values.copy()
    y[:, 1] = np.nan  # F1 has no complete month
    y[3, 2] = np.nan
    funds = TimeSeriesMatrix(funds.time_index, funds.columns, y)
    panel = to_panel(funds, macro, "d", lag_order=1)
    assert panel.units == ["F0", "F2"]
    assert panel.unit_codes.tolist() == [0] * 5 + [1] * 3
    assert panel.month_codes.tolist() == [1, 2, 3, 4, 5, 1, 2, 5]
    assert np.array_equal(panel.y, np.r_[y[1:, 0], y[[1, 2, 5], 2]])


@pytest.mark.parametrize("units, months, message", [
    ([0, 1], [0, 0], None),
    ([0, 0], [1, 0], "fund-major"),
    ([0, 0], [1, 1], "fund-major"),
    ([1, 0], [0, 0], "fund-major"),
])
def test_panel_rows_must_be_fund_major_and_unique(units, months, message):
    def build():
        return PanelTable(["A", "B"], ["2000-01", "2000-02"], units, months,
                          np.zeros(2), np.arange(2.0), np.zeros((2, 1)), np.zeros((2, 2)),
                          ["x1"], 0)
    if message is None:
        assert build().n_rows == 2
    else:
        with pytest.raises(DataError, match=message):
            build()


@pytest.mark.parametrize("change, message", [
    (dict(month_x=np.zeros((3, 4))), "one row per month"),
    (dict(returns=np.zeros((2, 1))), "one column per unit"),
    (dict(x_names=["c", "y_lag1", "d_lag1"], month_x=np.zeros((2, 3))), "cannot hold 1 lags"),
    (dict(month_codes=[0, 1]), "lag window"),
    (dict(unit_codes=[0, 2]), "outside the panel"),
    (dict(unit_codes=[0, 1, 1]), "panel column lengths disagree"),
])
def test_panel_table_checks_its_gather_sources(change, message):
    args = dict(units=["A", "B"], months=["2000-01", "2000-02"], unit_codes=[0, 1],
                month_codes=[1, 1], y=np.zeros(2), d=np.arange(2.0), month_x=np.zeros((2, 4)),
                returns=np.zeros((2, 2)), x_names=["c", "y_lag1", "d_lag1", "c_lag1"],
                lag_order=1)
    assert PanelTable(**args).n_rows == 2
    with pytest.raises(DataError, match=message):
        PanelTable(**{**args, **change})


def _series_inputs(values):
    """One fund holding `values`, treatment 10x and one control 100x it."""
    values = np.asarray(values, dtype=float)
    funds = make_tsm(values, names=["F"])
    return funds, _with_treatment(make_tsm(100.0 * values, names=["c"]), 10.0 * values)


def test_to_panel_lag1_is_the_value_one_month_earlier():
    funds, macro = _series_inputs([5.0, 6.0, 7.0])
    panel = to_panel(funds, macro, "d", lag_order=1)
    assert panel.x_names == ["c", "y_lag1", "d_lag1", "c_lag1"]
    assert panel.month_codes.tolist() == [1, 2]
    assert np.array_equal(panel.y, [6.0, 7.0])
    assert np.array_equal(panel_x(panel), [[600.0, 5.0, 50.0, 500.0], [700.0, 6.0, 60.0, 600.0]])


def test_to_panel_p2_keeps_only_the_last_of_three_months():
    funds, macro = _series_inputs([1.0, 2.0, 3.0])
    panel = to_panel(funds, macro, "d", lag_order=2)
    assert panel.month_codes.tolist() == [2]
    assert np.array_equal(panel_x(panel), [[300.0, 2.0, 20.0, 200.0, 1.0, 10.0, 100.0]])


@pytest.mark.parametrize("p", [3, 4, 10, 10**9])
def test_to_panel_lag_window_longer_than_series_is_empty(p):
    funds, macro, _, _ = _full_inputs(T=3, n_funds=2, k=2)
    assert to_panel(funds, macro, "d", lag_order=2).n_rows == 2
    with pytest.raises(DataError, match=f"^panel is empty after lag-window construction: "
                                        f"lag order {p} needs more than {p} months, "
                                        f"the series has 3$"):
        to_panel(funds, macro, "d", lag_order=p)


def test_to_panel_rejects_a_negative_lag():
    funds, macro, _, _ = _full_inputs(T=3, n_funds=2, k=2)
    with pytest.raises(ConfigError, match="^lag_order must be >= 0$"):
        to_panel(funds, macro, "d", lag_order=-1)


def test_lag_design_stacks_the_lags_and_has_no_column_at_lag_zero():
    X = np.arange(12.0).reshape(6, 2)
    assert np.array_equal(lag_design(X, 2, 3), np.hstack([X[2:5], X[1:4]]))
    assert np.array_equal(lag_design(X[:, 0], 1, 1), X[:5, :1])
    assert lag_design(X, 0, 2).shape == (4, 0)
    assert lag_design(X[:, 0], 0, 0).shape == (6, 0)


def test_to_panel_never_holds_the_whole_x():
    """to_panel keeps x as a month table and the fund returns: on a 400-fund
    panel of 492 months at lag 7 (196,800 rows, 38 columns) its traced peak
    stays below half of x's rows x width x 8 bytes."""
    rng = np.random.default_rng(3)
    T, n_funds, p = 499, 400, 7
    funds = make_tsm(rng.standard_normal((T, n_funds)),
                     names=[f"F{i:03d}" for i in range(n_funds)])
    macro = make_tsm(rng.standard_normal((T, 4)), names=["d", "c1", "c2", "c3"])
    tracemalloc.start()
    try:
        panel = to_panel(funds, macro, "d", lag_order=p)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (panel.n_rows, len(panel.x_names)) == (n_funds * (T - p), 38)
    assert peak < 0.5 * panel.n_rows * len(panel.x_names) * 8


def test_to_panel_requires_shared_index():
    funds, macro, _, _ = _full_inputs(T=6, n_funds=1)
    other = make_tsm(macro.values, start="1990-01", names=macro.columns)
    with pytest.raises(IndexMismatch):
        to_panel(funds, other, "d", lag_order=1)
    with pytest.raises(DataError, match="'rate' is not a macro column"):
        to_panel(funds, macro, "rate", lag_order=1)


@settings(max_examples=25, deadline=None)
@given(T=st.integers(min_value=4, max_value=12), p=st.integers(min_value=0, max_value=3))
def test_to_panel_complete_data_row_count_law(T, p):
    if T <= p:
        return
    funds, macro, _, _ = _full_inputs(T=T, n_funds=2, seed=T * 7 + p)
    panel = to_panel(funds, macro, "d", lag_order=p)
    assert panel.n_rows == 2 * (T - p)
    # rows are sorted by ticker then month
    order = [(ticker, month_to_int(month)) for ticker, month in _keys(panel)]
    assert order == sorted(order)
