import tempfile
import warnings
from datetime import datetime, timedelta, timezone
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fxevent.errors import ConfigError, DataError
from fxevent.market_data import (
    CandleSeries,
    RegimeParams,
    load_csv,
    make_series,
    parse_timestamp,
    save_csv,
    synthetic_series,
)

from conftest import random_walk_series


def write(tmp_path, text, name="series.csv"):
    path = tmp_path / name
    path.write_text(text)
    return path


PRICE = st.floats(min_value=0.0, max_value=1.7e308, exclude_min=True)


@st.composite
def candle_series(draw):
    """A valid series of 1-20 bars: unique timestamps, prices from subnormal to near overflow."""
    ts = sorted(draw(st.lists(st.integers(-(2**40), 2**40), min_size=1, max_size=20, unique=True)))
    rows = []
    for _ in ts:
        lo, a, b, hi = sorted(draw(st.lists(PRICE, min_size=4, max_size=4)))
        rows.append((a, lo, hi, b) if draw(st.booleans()) else (b, lo, hi, a))
    o, l, h, c = map(np.array, zip(*rows))
    return CandleSeries("X", 1e-4, np.array(ts, dtype=np.int64), o, h, l, c)


def assert_same_series(a, b):
    for field in ("timestamps", "opens", "highs", "lows", "closes"):
        assert getattr(a, field).tobytes() == getattr(b, field).tobytes(), field


class TestParseTimestamp:
    @settings(max_examples=100, deadline=None)
    @given(
        epoch=st.integers(0, 4_102_444_800),  # 1970 to 2100
        offset_minutes=st.integers(-14 * 60, 14 * 60),
    )
    def test_epoch_and_iso_forms_agree(self, epoch, offset_minutes):
        utc = datetime.fromtimestamp(epoch, timezone.utc)
        local = utc.astimezone(timezone(timedelta(minutes=offset_minutes)))
        forms = [
            str(epoch),
            utc.strftime("%Y-%m-%dT%H:%M:%SZ"),
            local.isoformat(),
            utc.replace(tzinfo=None).isoformat(),  # naive reads as UTC
        ]
        assert [parse_timestamp(f) for f in forms] == [epoch] * 4


class TestLoadCsv:
    def test_well_formed(self, tmp_path):
        path = write(
            tmp_path,
            "timestamp,open,high,low,close\n"
            "100,1.0,1.2,0.9,1.1\n"
            "200,1.1,1.3,1.0,1.2\n"
            "300,1.2,1.4,1.1,1.3\n"
            "400,1.3,1.5,1.2,1.4\n",
        )
        series = load_csv(path, "EUR/GBP", 1e-4)
        assert len(series) == 4
        assert np.all(np.diff(series.timestamps) > 0)
        assert series.symbol == "EUR/GBP"
        assert series.closes[0] == 1.1

    def test_iso_timestamps(self, tmp_path):
        path = write(
            tmp_path,
            "timestamp,open,high,low,close\n"
            "2020-01-01T00:00:00Z,1.0,1.2,0.9,1.1\n"
            "2020-01-01T00:15:00Z,1.1,1.3,1.0,1.2\n",
        )
        series = load_csv(path, "X")
        assert series.timestamps[0] == 1577836800
        assert series.timestamps[1] - series.timestamps[0] == 900

    def test_invariant_violation_names_row(self, tmp_path):
        path = write(
            tmp_path,
            "timestamp,open,high,low,close\n"
            "100,1.0,1.2,0.9,1.1\n"
            "200,1.1,1.3,1.0,1.2\n"
            "300,1.2,1.25,1.1,1.3\n",  # high < close
        )
        with pytest.raises(DataError, match="line 4"):
            load_csv(path, "X")

    def test_malformed_row_names_line(self, tmp_path):
        path = write(
            tmp_path,
            "timestamp,open,high,low,close\n100,1.0,1.2,0.9,1.1\n200,oops,1.3,1.0,1.2\n",
        )
        with pytest.raises(DataError, match="line 3"):
            load_csv(path, "X")

    def test_duplicate_timestamp_rejected(self, tmp_path):
        path = write(
            tmp_path,
            "timestamp,open,high,low,close\n100,1.0,1.2,0.9,1.1\n100,1.1,1.3,1.0,1.2\n",
        )
        with pytest.raises(DataError, match="duplicate"):
            load_csv(path, "X")

    def test_out_of_order_rows_sorted(self, tmp_path):
        path = write(
            tmp_path,
            "timestamp,open,high,low,close\n200,1.1,1.3,1.0,1.2\n100,1.0,1.2,0.9,1.1\n",
        )
        series = load_csv(path, "X")
        assert list(series.timestamps) == [100, 200]

    def test_volume_column_ignored(self, tmp_path):
        path = write(
            tmp_path,
            "timestamp,open,high,low,close,volume\n100,1.0,1.2,0.9,1.1,555\n",
        )
        assert len(load_csv(path, "X")) == 1

    @pytest.mark.parametrize(
        "row", ["200,nan,1.3,1.0,1.2", "200,1.1,inf,1.0,1.2", "200,1.1,1.3,-inf,1.2", "200,1.1,1.3,1.0,NaN"]
    )
    def test_non_finite_price_names_line(self, tmp_path, row):
        path = write(tmp_path, f"timestamp,open,high,low,close\n100,1.0,1.2,0.9,1.1\n{row}\n")
        with pytest.raises(DataError, match="non-finite price at line 3"):
            load_csv(path, "X")

    def test_blank_lines_skipped(self, tmp_path):
        path = write(tmp_path, "\ntimestamp,open,high,low,close\n\n100,1.0,1.2,0.9,1.1\n\n")
        assert len(load_csv(path, "X")) == 1

    def test_short_row_names_line(self, tmp_path):
        path = write(tmp_path, "timestamp,open,high,low,close\n100,1.0,1.2,0.9,1.1\n200,1.1,1.3\n")
        with pytest.raises(DataError, match="malformed row at line 3"):
            load_csv(path, "X")

    def test_missing_column(self, tmp_path):
        path = write(tmp_path, "timestamp,open,high,low\n100,1.0,1.2,0.9\n")
        with pytest.raises(DataError, match="close"):
            load_csv(path, "X")

    def test_round_trip_identical(self, tmp_path, rng):
        series = random_walk_series(rng, 1000)
        out = tmp_path / "rt.csv"
        save_csv(series, out)
        back = load_csv(out, series.symbol, series.pip_size)
        assert np.array_equal(back.timestamps, series.timestamps)
        for field in ("opens", "highs", "lows", "closes"):
            assert np.array_equal(getattr(back, field), getattr(series, field))

    def test_every_bar_satisfies_invariants(self, tmp_path, rng):
        series = random_walk_series(rng, 500)
        out = tmp_path / "inv.csv"
        save_csv(series, out)
        back = load_csv(out, "X")
        assert np.all(back.highs >= np.maximum(back.opens, back.closes))
        assert np.all(back.lows <= np.minimum(back.opens, back.closes))
        assert np.all(back.lows > 0)

    @settings(max_examples=60, deadline=None)
    @given(series=candle_series(), data=st.data())
    def test_save_load_round_trip_is_bitwise(self, series, data):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "series.csv"
            save_csv(series, path)
            assert_same_series(load_csv(path, "X"), series)
            header, *rows = path.read_text().splitlines()
            rows = data.draw(st.permutations(rows))
            blanks = data.draw(st.lists(st.integers(0, len(rows)), max_size=5))
            for i in sorted(blanks, reverse=True):
                rows.insert(i, "")
            assert_same_series(load_csv(write(Path(tmp), "\n".join([header, *rows]) + "\n"), "X"), series)

    @settings(max_examples=60, deadline=None)
    @given(series=candle_series(), data=st.data())
    def test_non_finite_price_names_its_line(self, series, data):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "series.csv"
            save_csv(series, path)
            lines = path.read_text().splitlines()
            lines[1:1] = [""] * data.draw(st.integers(0, 3))
            row = data.draw(st.sampled_from([i for i, line in enumerate(lines) if line and i > 0]))
            fields = lines[row].split(",")
            fields[data.draw(st.integers(1, 4))] = data.draw(st.sampled_from(["nan", "NaN", "inf", "-inf"]))
            lines[row] = ",".join(fields)
            with pytest.raises(DataError, match=f"non-finite price at line {row + 1} "):
                load_csv(write(Path(tmp), "\n".join(lines) + "\n"), "X")


class TestSyntheticSeries:
    def test_deterministic(self):
        a = synthetic_series(99, 800)
        b = synthetic_series(99, 800)
        for field in ("timestamps", "opens", "highs", "lows", "closes"):
            assert np.array_equal(getattr(a, field), getattr(b, field))

    def test_pure_ramp_strictly_increasing(self):
        regime = RegimeParams(noise_pips=0.0, wick_pips=0.0, notch_down_bars=0, trend="up")
        series = synthetic_series(1, 500, regime)
        assert np.all(np.diff(series.closes) > 0)

    def test_invariants_by_construction(self):
        series = synthetic_series(5, 3000)
        assert np.all(series.highs >= np.maximum(series.opens, series.closes))
        assert np.all(series.lows <= np.minimum(series.opens, series.closes))
        assert np.all(series.lows > 0)
        assert np.all(np.diff(series.timestamps) == 900)

    def test_default_regime_has_pivots(self, synth):
        from fxevent.events import zigzag

        assert len(zigzag(synth)) >= 10

    def test_n_validation(self):
        with pytest.raises(ConfigError):
            synthetic_series(1, 0)

    def test_regime_validation(self):
        with pytest.raises(ConfigError):
            RegimeParams(leg_len=(0, 10))
        with pytest.raises(ConfigError, match="leg_len expects two values"):
            RegimeParams(leg_len=(5, 6, 7))
        with pytest.raises(ConfigError):
            RegimeParams(slope_pips=(0.0, 1.0))
        with pytest.raises(ConfigError):
            RegimeParams(noise_pips=-1.0)
        with pytest.raises(ConfigError):
            synthetic_series(1, 100, RegimeParams(trend="sideways"))


class TestMakeSeries:
    def test_immutable_after_validation(self, walk):
        with pytest.raises(ValueError):
            walk.closes[0] = 2.0

    def test_empty_rejected(self):
        with pytest.raises(DataError):
            make_series("X", 1e-4, [], [], [], [], [])

    def test_bad_pip_size(self):
        with pytest.raises(ConfigError):
            make_series("X", 0.0, [1], [1.0], [1.0], [1.0], [1.0])

    @pytest.mark.parametrize("field", [1, 2, 3, 4])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_price_names_timestamp(self, field, bad):
        columns = [[300, 100, 200], [1.0] * 3, [1.2] * 3, [0.9] * 3, [1.1] * 3]
        columns[field][0] = bad
        with pytest.raises(DataError, match="non-finite price at ts=300"):
            make_series("X", 1e-4, *columns)


class TestCandleSeriesChecks:
    def test_inf_close_rejected_without_numpy_warning(self):
        ts = np.array([100, 200, 300], dtype=np.int64)
        prices = np.array([1.0, 1.1, 1.2])
        closes = prices.copy()
        closes[1] = np.inf
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(DataError, match="non-finite price at ts=200"):
                CandleSeries("X", 1e-4, ts, prices, prices, prices, closes)

    @pytest.mark.parametrize(
        "ts, low, match",
        [
            ([100, 300, 200], 0.9, "not strictly increasing at ts=200"),
            ([100, 100, 200], 0.9, "not strictly increasing at ts=100"),
            ([100, 200, 300], 1.05, "OHLC invariant violated at ts=100"),
        ],
    )
    def test_constructor_names_timestamp(self, ts, low, match):
        ones = np.ones(3)
        with pytest.raises(DataError, match=match):
            CandleSeries("X", 1e-4, np.array(ts, dtype=np.int64), ones, ones * 1.2, ones * low, ones * 1.1)

    def test_make_series_prefixes_source(self):
        with pytest.raises(DataError, match="^feed.csv: OHLC invariant violated at ts=100"):
            make_series("X", 1e-4, [200, 100], [1.0, 1.0], [1.2, 1.2], [0.9, 0.9], [1.1, 1.3], source="feed.csv")
