import csv
import hashlib
import math
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tsattack import (
    ArimaSpec,
    ConfigurationError,
    arima_generate,
    load_config,
    load_series_windows,
    normalize_windows,
    read_series_csv,
    sample_random_arima,
    write_series_csv,
)
from tsattack.data import SeriesWindow, _cells, _write_csv
from tsattack.experiments import load_windows

from conftest import arima_generate_per_window, denormalize_window

CONFIGS = Path(__file__).resolve().parent.parent / "configs"


class TestArimaSpec:
    def test_rejects_nonstationary_ar(self):
        with pytest.raises(ConfigurationError, match="stationary"):
            ArimaSpec(1, 0, 0, [1.2], [], 1.0, 0)

    def test_rejects_unit_root(self):
        with pytest.raises(ConfigurationError, match="stationary"):
            ArimaSpec(1, 0, 0, [1.0], [], 1.0, 0)

    def test_accepts_stationary_ar2(self):
        spec = ArimaSpec(2, 1, 2, [0.5, -0.3], [0.2, 0.1], 1.0, 0)
        assert spec.ar_order == 2

    def test_rejects_coefficient_count_mismatch(self):
        with pytest.raises(ConfigurationError, match="coefficients"):
            ArimaSpec(2, 0, 0, [0.5], [], 1.0, 0)

    def test_rejects_negative_std(self):
        with pytest.raises(ConfigurationError, match="innovation_std"):
            ArimaSpec(0, 0, 0, [], [], -1.0, 0)


@st.composite
def arima_specs(draw):
    """An ArimaSpec of orders 0-3, 0-2 and 0-3.  Each AR coefficient is a
    multiple of 0.001 in [-0.33, 0.33], so their absolute sum stays below 1
    and every root of the AR polynomial lies outside the unit circle (a
    tiny nonzero last coefficient would put a root past np.roots' range)."""
    p, d, q = draw(st.integers(0, 3)), draw(st.integers(0, 2)), draw(st.integers(0, 3))
    ar = draw(st.lists(st.integers(-330, 330).map(lambda k: k / 1000),
                       min_size=p, max_size=p))
    ma = draw(st.lists(st.floats(-2.0, 2.0), min_size=q, max_size=q))
    std = draw(st.sampled_from([0.0, 1.0]) | st.floats(0.0, 100.0))
    return ArimaSpec(p, d, q, ar, ma, std, draw(st.integers(0, 2 ** 32)))


class TestArimaGenerate:
    def test_zero_noise_gives_zero_series(self):
        spec = ArimaSpec(2, 1, 2, [0.5, -0.3], [0.2, 0.1], 0.0, 7)
        for window in arima_generate(spec, 3, 20):
            np.testing.assert_array_equal(window.values, 0.0)

    def test_identity_filter_returns_innovations(self):
        spec = ArimaSpec(0, 0, 0, [], [], 1.0, 11)
        window = arima_generate(spec, 1, 16)[0]
        burn_in = 10
        expected = np.random.default_rng(11).standard_normal(burn_in + 16)[burn_in:]
        np.testing.assert_allclose(window.values, expected)

    def test_shapes_and_ids(self):
        spec = ArimaSpec(2, 1, 2, [0.5, -0.3], [0.2, 0.1], 1.0, 3)
        windows = arima_generate(spec, 5, 50)
        assert len(windows) == 5
        assert all(w.values.shape == (50,) for w in windows)
        assert [w.series_id for w in windows] == [
            f"arima:{i:06d}" for i in range(5)
        ]

    def test_count_zero(self):
        spec = ArimaSpec(0, 0, 0, [], [], 1.0, 3)
        assert arima_generate(spec, 0, 10) == []

    @settings(max_examples=300, deadline=None)
    @given(spec=arima_specs(), count=st.integers(0, 30), horizon=st.integers(1, 120))
    def test_block_equals_per_window_oracle(self, spec, count, horizon):
        # The block, one lfilter and one cumsum per integration, gives each
        # window bit for bit as the window simulated alone does.
        got = arima_generate(spec, count, horizon)
        want = arima_generate_per_window(spec, count, horizon)
        assert [w.series_id for w in got] == [w.series_id for w in want]
        assert [w.values.tobytes() for w in got] == [w.values.tobytes() for w in want]

    def test_window_i_is_window_0_of_seed_plus_i(self):
        # Order-independent: a window depends on its own seed alone.
        spec = ArimaSpec(2, 1, 2, [0.5, -0.3], [0.2, 0.1], 1.0, 3)
        windows = arima_generate(spec, 7, 40)
        for i in (0, 6):
            alone = arima_generate(replace(spec, seed=spec.seed + i), 1, 40)[0]
            assert windows[i].values.tobytes() == alone.values.tobytes()


#: SHA-256 of the windows each shipped config loads (seed 2024): every
#: window's series id, its (offset, factor) scale and its values, as
#: little-endian float64.  A change that moves one bit of the data layer
#: fails here.
SHIPPED_WINDOWS_SHA256 = {
    "arima_constraint": "7bd351e20ff8f68342c93906a85b6f9656d00d07e0220811af387dfb3fea6102",
    "arima_cost": "7bd351e20ff8f68342c93906a85b6f9656d00d07e0220811af387dfb3fea6102",
    "arima_statebox": "93d07d029e1b585d578bb0fa058106159ae6513f434b8d74f001daebd09a7e58",
}


@pytest.mark.parametrize("name", sorted(SHIPPED_WINDOWS_SHA256))
def test_shipped_config_windows_are_pinned(name):
    digest = hashlib.sha256()
    for window in load_windows(load_config(CONFIGS / f"{name}.json")):
        digest.update(window.series_id.encode())
        digest.update(np.asarray(window.scale, dtype="<f8").tobytes())
        digest.update(window.values.astype("<f8").tobytes())
    assert digest.hexdigest() == SHIPPED_WINDOWS_SHA256[name]


class TestSampleRandomArima:
    def test_deterministic(self):
        a = sample_random_arima(42, horizon=30, count=4)
        b = sample_random_arima(42, horizon=30, count=4)
        assert all(np.array_equal(x.values, y.values) for x, y in zip(a, b))

    def test_shape_contract(self):
        windows = sample_random_arima(0, horizon=50, count=100)
        assert len(windows) == 100
        assert all(w.values.shape == (50,) for w in windows)

    def test_windows_pairwise_distinct(self):
        windows = sample_random_arima(1, horizon=8, count=1000)
        seen = {w.values.tobytes() for w in windows}
        assert len(seen) == 1000


class TestLoadSeriesWindows:
    def _write(self, path, rows, header="timestamp,load\n"):
        path.write_text(header + "".join(rows), encoding="utf-8")

    def test_windowing_arithmetic(self, tmp_path):
        f = tmp_path / "demand.csv"
        self._write(f, [f"t{i},{float(i)}\n" for i in range(5)])
        windows = load_series_windows(f, "load", horizon=2, stride=2)
        assert len(windows) == 2
        np.testing.assert_array_equal(windows[0].values, [0.0, 1.0])
        np.testing.assert_array_equal(windows[1].values, [2.0, 3.0])
        assert windows[0].source_id == "demand"
        assert windows[1].start_index == 2

    def test_default_stride_is_horizon(self, tmp_path):
        f = tmp_path / "demand.csv"
        self._write(f, [f"t{i},{float(i)}\n" for i in range(10)])
        windows = load_series_windows(f, "load", horizon=3)
        assert [w.start_index for w in windows] == [0, 3, 6]

    @pytest.mark.parametrize("cell", ["nan", "inf", "-inf", " NaN", "-Infinity", "1e999"])
    def test_rejects_non_finite_cell(self, tmp_path, cell):
        # One nan would make every zscore-global window NaN; the load names
        # the file, column and row instead.
        f = tmp_path / "demand.csv"
        self._write(f, ["t0,1.0\n", f"t1,{cell}\n", "t2,2.0\n"])
        with pytest.raises(ConfigurationError) as excinfo:
            load_series_windows(f, "load", horizon=1)
        assert str(excinfo.value) == (
            f"{f}: non-finite value {cell!r} in column 'load' at row 3")

    def test_insufficient_rows(self, tmp_path):
        f = tmp_path / "short.csv"
        self._write(f, [f"t{i},{float(i)}\n" for i in range(5)])
        with pytest.raises(ConfigurationError, match="insufficient rows"):
            load_series_windows(f, "load", horizon=10)

    def test_missing_column_lists_available(self, tmp_path):
        f = tmp_path / "demand.csv"
        self._write(f, ["t0,1.0\n"])
        with pytest.raises(ConfigurationError, match="timestamp.*load"):
            load_series_windows(f, "power", horizon=1)

    def test_non_numeric_cell_reports_position(self, tmp_path):
        f = tmp_path / "demand.csv"
        self._write(f, ["t0,1.0\n", "t1,oops\n"])
        with pytest.raises(ConfigurationError, match="row 3"):
            load_series_windows(f, "load", horizon=1)


class TestNormalizeWindows:
    def _windows(self, rng, count=4, length=12):
        return [
            SeriesWindow(values=rng.standard_normal(length) * 3 + 5,
                         source_id="w", start_index=i)
            for i in range(count)
        ]

    def test_none_is_identity(self):
        rng = np.random.default_rng(0)
        windows = self._windows(rng)
        out = normalize_windows(windows, "none")
        assert all(np.array_equal(a.values, b.values) for a, b in zip(out, windows))

    def test_zscore_window_statistics(self):
        rng = np.random.default_rng(1)
        for window in normalize_windows(self._windows(rng), "zscore-window"):
            assert abs(window.values.mean()) <= 1e-10
            assert abs(window.values.std() - 1.0) <= 1e-10

    def test_zscore_global_pools_statistics(self):
        rng = np.random.default_rng(2)
        out = normalize_windows(self._windows(rng), "zscore-global")
        pooled = np.concatenate([w.values for w in out])
        assert abs(pooled.mean()) <= 1e-10
        assert abs(pooled.std() - 1.0) <= 1e-10
        assert len({w.scale for w in out}) == 1

    def test_roundtrip(self):
        rng = np.random.default_rng(3)
        windows = self._windows(rng)
        for mode in ("zscore-global", "zscore-window"):
            restored = [denormalize_window(w)
                        for w in normalize_windows(windows, mode)]
            for a, b in zip(restored, windows):
                np.testing.assert_allclose(a.values, b.values, atol=1e-10)

    def test_constant_data_rejected(self):
        windows = [SeriesWindow(values=np.ones(8), source_id="c", start_index=0)]
        with pytest.raises(ConfigurationError, match="constant"):
            normalize_windows(windows, "zscore-window")

    def test_unknown_mode_rejected(self):
        with pytest.raises(ConfigurationError, match="normalization"):
            normalize_windows([], "minmax")

    @given(st.lists(st.floats(-100, 100), min_size=4, max_size=16))
    @settings(max_examples=50, deadline=None)
    def test_roundtrip_property(self, values):
        window = SeriesWindow(values=np.asarray(values), source_id="h",
                              start_index=0)
        if np.std(window.values) <= 1e-12:
            return
        restored = denormalize_window(normalize_windows([window], "zscore-window")[0])
        np.testing.assert_allclose(restored.values, window.values,
                                   atol=1e-8, rtol=1e-10)


class TestSeriesCsvRoundtrip:
    def test_write_read(self, tmp_path):
        windows = sample_random_arima(5, horizon=10, count=3)
        path = tmp_path / "series.csv"
        write_series_csv(windows, path)
        back = read_series_csv(path)
        assert len(back) == 3
        for original, loaded in zip(windows, back):
            np.testing.assert_array_equal(loaded.values, original.values)
            assert loaded.source_id == original.series_id

    def test_write_read_is_bitwise(self, tmp_path):
        # csv quotes the id; tobytes tells -0.0 from 0.0, array_equal does not.
        values = np.array([-0.0, 5e-324, 1.7976931348623157e308, 0.1, 1 / 3])
        window = SeriesWindow(values=values, source_id="demand,MW", start_index=0)
        path = tmp_path / "series.csv"
        write_series_csv([window], path)
        (loaded,) = read_series_csv(path)
        assert loaded.values.tobytes() == values.tobytes()
        assert loaded.source_id == window.series_id == "demand,MW:000000"

    def test_write_rejects_no_windows(self, tmp_path):
        path = tmp_path / "series.csv"
        with pytest.raises(ConfigurationError, match="no windows"):
            write_series_csv([], path)
        assert not path.exists()

    @pytest.mark.parametrize("rows,bad_row,t,window,expected", [
        # Window b skips from t = 0 to t = 5.
        ("a,0,1\nb,0,2\na,1,3\nb,5,4\na,1,7\n", 5, 5, "b", 1),
        # Window a repeats t = 1.
        ("a,0,1\nb,0,2\na,1,3\nb,1,4\na,1,7\n", 6, 1, "a", 2),
        # Window a starts at t = 1.
        ("a,1,1\n", 2, 1, "a", 0),
    ], ids=["skipped", "repeated", "late-start"])
    def test_rejects_a_row_out_of_its_window_order(self, tmp_path, rows, bad_row, t,
                                                   window, expected):
        path = tmp_path / "series.csv"
        path.write_text("window_id,t,value\n" + rows, encoding="utf-8")
        with pytest.raises(ConfigurationError) as info:
            read_series_csv(path)
        assert str(info.value) == (f"{path}: row {bad_row} has t = {t} for window "
                                   f"{window!r}, expected {expected}")

    def test_windows_may_interleave_in_order(self, tmp_path):
        path = tmp_path / "series.csv"
        path.write_text("window_id,t,value\na,0,1\nb,0,2\na,1,3\nb,1,4\n",
                        encoding="utf-8")
        assert [w.values.tolist() for w in read_series_csv(path)] == [[1.0, 3.0], [2.0, 4.0]]

    def test_rejects_a_non_integer_t(self, tmp_path):
        path = tmp_path / "series.csv"
        path.write_text("window_id,t,value\na,0.0,1\n", encoding="utf-8")
        with pytest.raises(ConfigurationError, match="malformed row 2"):
            read_series_csv(path)

    def test_rejects_wrong_header(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a,b,c\n1,2,3\n", encoding="utf-8")
        with pytest.raises(ConfigurationError, match="header"):
            read_series_csv(path)


#: Text cells: the characters the csv module quotes, spaces and non-ASCII.
TEXT = st.text(st.sampled_from([",", '"', "\r", "\n", " ", "a", "Z", "0", ";", "\u00e9",
                                "\u20ac", "\U0001f600"]), max_size=6) | st.text(
    st.characters(blacklist_categories=("Cs",)), max_size=4)
#: Float cells: edge values and any float, written from float64 or float32 arrays.
FLOATS = st.sampled_from([0.0, -0.0, math.inf, -math.inf, math.nan, 5e-324, 1e16,
                          1e-5, 0.1, -2.5]) | st.floats()


@st.composite
def tables(draw):
    """(header, columns, rows): a table of 2-5 columns of text, float64,
    float32 or int cells, and its rows as the csv module is handed them."""
    n_rows = draw(st.integers(0, 6))
    header, columns, cells = [], [], []
    for _ in range(draw(st.integers(2, 5))):
        header.append(draw(TEXT))
        kind = draw(st.sampled_from(["text", "float64", "float32", "int"]))
        if kind == "text":
            column = draw(st.lists(TEXT, min_size=n_rows, max_size=n_rows))
            columns.append(column)
            cells.append(column)
        elif kind == "int":
            column = np.array(draw(st.lists(st.integers(-2 ** 63, 2 ** 63 - 1),
                                            min_size=n_rows, max_size=n_rows)),
                              dtype=np.int64)
            columns.append(column)
            cells.append([int(v) for v in column])
        else:
            with np.errstate(over="ignore"):  # a float32 cell may round to inf
                column = np.array(draw(st.lists(FLOATS, min_size=n_rows, max_size=n_rows)),
                                  dtype=kind)
            columns.append(column)
            cells.append([float(v) for v in column])
    return header, columns, list(zip(*cells)) if n_rows else []


class TestWriteCsv:
    @settings(max_examples=300, deadline=None)
    @given(tables())
    def test_bytes_equal_the_csv_module(self, tmp_path_factory, table):
        # Oracle: csv.writer's default dialect, every numeric cell a Python
        # float (an int column's an int), as the package wrote its rows.  A
        # numeric column handed over already formatted by _cells writes the
        # same bytes.
        header, columns, rows = table
        folder = tmp_path_factory.mktemp("csv")
        _write_csv(folder / "columns.csv", header, columns)
        _write_csv(folder / "formatted.csv", header,
                   [_cells(column) if isinstance(column, np.ndarray) else column
                    for column in columns])
        with open(folder / "rows.csv", "w", newline="", encoding="utf-8") as handle:
            writer = csv.writer(handle)
            writer.writerow(header)
            writer.writerows(rows)
        assert (folder / "columns.csv").read_bytes() == (folder / "rows.csv").read_bytes()
        assert (folder / "formatted.csv").read_bytes() == (folder / "rows.csv").read_bytes()

    @pytest.mark.parametrize("header,columns", [
        (("only",), ([""],)),
        ((), ()),
        (("a", "b"), ([""],)),
    ], ids=["one-column", "no-column", "fewer-columns-than-names"])
    def test_rejects_tables_under_two_columns(self, tmp_path, header, columns):
        # csv writes a one-field empty row as "": no table of the package has one.
        with pytest.raises(ValueError, match="at least two columns"):
            _write_csv(tmp_path / "table.csv", header, columns)
        assert not (tmp_path / "table.csv").exists()

    def test_rejects_columns_of_unequal_length(self, tmp_path):
        with pytest.raises(ValueError):
            _write_csv(tmp_path / "table.csv", ("a", "b"), (["x", "y"], np.zeros(1)))
        assert not (tmp_path / "table.csv").exists()
