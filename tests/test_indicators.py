import numpy as np
import pytest
from numpy.lib.stride_tricks import sliding_window_view

import oracles
from fxevent.errors import DataError
from fxevent.indicators import (
    COLUMNS,
    adx,
    bollinger,
    ema,
    feature_matrix,
    macd,
    rsi,
    save_features_csv,
    sma,
    williams_r,
)

from conftest import random_walk_series


def assert_matches(actual, expected, tol=1e-9):
    assert actual.shape == expected.shape
    assert np.array_equal(np.isnan(actual), np.isnan(expected)), "warm-up regions differ"
    mask = ~np.isnan(expected)
    assert np.max(np.abs(actual[mask] - expected[mask]), initial=0.0) < tol


class TestSma:
    def test_small_example(self):
        out = sma(np.array([1.0, 2.0, 3.0, 4.0]), 2)
        assert np.isnan(out[0])
        assert out[1:].tolist() == [1.5, 2.5, 3.5]

    def test_constant_series(self):
        out = sma(np.full(50, 3.7), 9)
        assert np.allclose(out[8:], 3.7)
        assert np.isnan(out[:8]).all()

    def test_matches_oracle(self, rng):
        x = rng.normal(1.1, 0.01, size=500)
        assert_matches(sma(x, 7), oracles.naive_sma(x, 7), tol=1e-12)

    def test_longer_than_series(self):
        assert np.isnan(sma(np.ones(3), 5)).all()


class TestEma:
    def test_constant_fixed_point(self):
        assert np.allclose(ema(np.full(40, 2.5), 10), 2.5)

    def test_period_one_is_identity(self, rng):
        x = rng.normal(size=30)
        assert np.array_equal(ema(x, 1), x)

    def test_hand_unrolled(self):
        out = ema(np.array([1.0, 2.0, 3.0]), 3)  # k = 0.5
        assert out.tolist() == [1.0, 1.5, 2.25]

    def test_empty(self):
        assert ema(np.array([]), 5).size == 0

    def test_defined_from_zero(self, rng):
        x = rng.normal(1.1, 0.01, size=100)
        assert np.isfinite(ema(x, 12)).all()


class TestMacd:
    def test_constant_series_all_zero(self):
        line, signal, hist = macd(np.full(120, 1.3))
        assert np.allclose(line, 0) and np.allclose(signal, 0) and np.allclose(hist, 0)

    def test_histogram_identity(self, rng):
        x = rng.normal(1.1, 0.02, size=300)
        line, signal, hist = macd(x)
        assert np.array_equal(hist, line - signal)

    def test_matches_ema_composition(self):
        x = 1.0 + 0.001 * np.arange(400.0)
        line, signal, hist = macd(x)
        e_line, e_signal, e_hist = oracles.naive_macd(x, 12, 26, 9)
        assert_matches(line, e_line, tol=1e-12)
        assert_matches(signal, e_signal, tol=1e-12)
        assert_matches(hist, e_hist, tol=1e-12)


class TestRsi:
    def test_monotone_rise_is_100(self):
        x = np.linspace(1.0, 2.0, 40)
        out = rsi(x, 14)
        assert np.allclose(out[14:], 100.0)

    def test_monotone_fall_is_0(self):
        x = np.linspace(2.0, 1.0, 40)
        out = rsi(x, 14)
        assert np.allclose(out[14:], 0.0)

    def test_flat_series_is_50(self):
        out = rsi(np.full(30, 1.5), 5)
        assert np.allclose(out[5:], 50.0)

    def test_matches_wilder_oracle(self, rng):
        x = 1.1 + np.cumsum(rng.normal(0, 0.001, size=400))
        assert_matches(rsi(x, 5), oracles.naive_rsi(x, 5))

    def test_bounds(self, rng):
        x = 1.1 + np.cumsum(rng.normal(0, 0.002, size=300))
        out = rsi(x, 14)
        defined = out[~np.isnan(out)]
        assert np.all((defined >= 0) & (defined <= 100))


class TestAdx:
    def test_constant_series_zero(self):
        n = 60
        flat = np.full(n, 1.2)
        out = adx(flat, flat, flat, 5)
        assert np.allclose(out[9:], 0.0)

    def test_matches_wilder_oracle(self, rng):
        walk = random_walk_series(rng, 300)
        expected = oracles.naive_adx(walk.highs, walk.lows, walk.closes, 5)
        assert_matches(adx(walk.highs, walk.lows, walk.closes, 5), expected)

    def test_first_defined_index(self, rng):
        walk = random_walk_series(rng, 100)
        for n in (5, 10):
            out = adx(walk.highs, walk.lows, walk.closes, n)
            assert np.isnan(out[: 2 * n - 1]).all()
            assert np.isfinite(out[2 * n - 1 :]).all()

    def test_bounds(self, rng):
        walk = random_walk_series(rng, 400)
        out = adx(walk.highs, walk.lows, walk.closes, 14)
        defined = out[~np.isnan(out)]
        assert np.all((defined >= 0) & (defined <= 100))


class TestBollinger:
    def test_constant_series_collapses(self):
        lower, middle, upper = bollinger(np.full(60, 1.4))
        assert np.allclose(lower[19:], 1.4)
        assert np.allclose(middle[19:], 1.4)
        assert np.allclose(upper[19:], 1.4)

    def test_symmetry(self, rng):
        x = rng.normal(1.1, 0.01, size=200)
        lower, middle, upper = bollinger(x)
        defined = ~np.isnan(middle)
        assert np.max(np.abs((upper + lower - 2 * middle)[defined])) < 1e-12

    def test_matches_oracle(self, rng):
        x = rng.normal(1.1, 0.01, size=300)
        lo, mid, up = bollinger(x)
        e_lo, e_mid, e_up = oracles.naive_bollinger(x, 20, 2.0)
        assert_matches(lo, e_lo, tol=1e-10)
        assert_matches(mid, e_mid, tol=1e-10)
        assert_matches(up, e_up, tol=1e-10)

    def test_ordering(self, rng):
        x = rng.normal(1.1, 0.02, size=250)
        lower, middle, upper = bollinger(x)
        defined = ~np.isnan(middle)
        assert np.all(lower[defined] <= middle[defined])
        assert np.all(middle[defined] <= upper[defined])

    def test_row_blocks_equal_one_std(self, rng):
        # more windows than one block holds, and a last block cut short
        close = 1.1 + np.cumsum(rng.normal(0.0, 3e-4, size=10_000))
        lower, middle, upper = bollinger(close)
        dev = np.full(len(close), np.nan)
        dev[19:] = sliding_window_view(close, 20).std(axis=1)
        assert lower.tobytes() == (middle - 2.0 * dev).tobytes()
        assert upper.tobytes() == (middle + 2.0 * dev).tobytes()


class TestWilliamsR:
    def test_close_at_high_is_zero(self):
        n = 30
        high = np.linspace(1.0, 1.3, n)
        low = high - 0.02
        out = williams_r(high, low, high.copy(), 14)
        assert np.allclose(out[13:], 0.0)

    def test_close_at_low_is_minus_100(self):
        n = 30
        high = np.linspace(1.3, 1.0, n)
        low = high - 0.02
        out = williams_r(high, low, low.copy(), 14)
        assert np.allclose(out[13:], -100.0)

    def test_flat_window_is_minus_50(self):
        flat = np.full(20, 1.1)
        out = williams_r(flat, flat, flat, 5)
        assert np.allclose(out[4:], -50.0)

    def test_matches_oracle(self, rng):
        walk = random_walk_series(rng, 400)
        expected = oracles.naive_williams_r(walk.highs, walk.lows, walk.closes, 14)
        assert_matches(williams_r(walk.highs, walk.lows, walk.closes, 14), expected, tol=1e-12)

    def test_bounds(self, rng):
        walk = random_walk_series(rng, 300)
        out = williams_r(walk.highs, walk.lows, walk.closes, 14)
        defined = out[~np.isnan(out)]
        assert np.all((defined >= -100) & (defined <= 0))


CANONICAL_COLUMNS = [
    "macd", "macd_signal", "macd_hist",
    "sma5", "sma10", "sma15", "sma20", "sma25", "sma30", "sma36",
    "rsi5", "rsi14", "rsi20", "rsi25",
    "adx5", "adx10", "adx15", "adx20", "adx25", "adx30", "adx35",
    "boll_lower", "boll_middle", "boll_upper",
    "wr5", "wr14", "wr20", "wr25",
]


class TestFeatureMatrix:
    def test_column_names_and_count(self, small_synth):
        fm = feature_matrix(small_synth)
        assert fm.columns == COLUMNS == tuple(CANONICAL_COLUMNS)
        assert fm.values.shape == (len(small_synth), 28)

    def test_constant_series_degenerate_values(self):
        from fxevent.market_data import CandleSeries

        n = 200
        flat = np.full(n, 1.25)
        series = CandleSeries("X", 1e-4, np.arange(n, dtype=np.int64), flat, flat, flat, flat)
        fm = feature_matrix(series)
        row = fm.values[fm.warmup_len]
        named = dict(zip(fm.columns, row))
        assert named["macd"] == 0 and named["macd_signal"] == 0 and named["macd_hist"] == 0
        for col in ("boll_lower", "boll_middle", "boll_upper"):
            assert named[col] == 1.25
        for col in ("rsi5", "rsi14", "rsi20", "rsi25"):
            assert named[col] == 50.0
        for col in ("wr5", "wr14", "wr20", "wr25"):
            assert named[col] == -50.0
        for col in ("adx5", "adx10", "adx15", "adx20", "adx25", "adx30", "adx35"):
            assert named[col] == 0.0

    def test_columns_equal_standalone_ops(self, small_synth):
        fm = feature_matrix(small_synth)
        c, h, l = small_synth.closes, small_synth.highs, small_synth.lows
        col = {name: fm.values[:, i] for i, name in enumerate(fm.columns)}
        line, signal, hist = macd(c)
        assert np.array_equal(col["macd"], line)
        assert np.array_equal(col["macd_signal"], signal)
        assert np.array_equal(col["macd_hist"], hist, equal_nan=True)
        assert np.array_equal(col["sma20"], sma(c, 20), equal_nan=True)
        assert np.array_equal(col["rsi14"], rsi(c, 14), equal_nan=True)
        assert np.array_equal(col["adx35"], adx(h, l, c, 35), equal_nan=True)
        assert np.array_equal(col["wr25"], williams_r(h, l, c, 25), equal_nan=True)

    def test_warmup_is_slowest_adx(self, small_synth):
        fm = feature_matrix(small_synth)
        assert fm.warmup_len == 69  # 2 * 35 - 1
        assert np.isfinite(fm.values[69:]).all()
        assert np.isnan(fm.values[:69]).any(axis=1).all() is np.True_ or np.isnan(
            fm.values[68]
        ).any()

    def test_non_finite_past_warmup_raises(self):
        from fxevent.market_data import CandleSeries

        n = 200
        closes = np.linspace(1.0, 1.2, n)
        closes[150] = 1e300  # a valid bar whose squared deviation overflows the Bollinger std
        series = CandleSeries("X", 1e-4, np.arange(n, dtype=np.int64), closes, closes, closes, closes)
        with pytest.raises(DataError, match="boll_lower is not finite at bar 150"), np.errstate(over="ignore"):
            feature_matrix(series)

    def test_short_series_warns(self):
        from fxevent.market_data import CandleSeries

        n = 30
        flat = np.full(n, 1.1)
        series = CandleSeries("X", 1e-4, np.arange(n, dtype=np.int64), flat, flat, flat, flat)
        with pytest.warns(UserWarning, match="warm-up"):
            fm = feature_matrix(series)
        assert fm.warmup_len == n

    def test_csv_export(self, small_synth, tmp_path):
        import csv

        fm = feature_matrix(small_synth)
        out = tmp_path / "features.csv"
        save_features_csv(small_synth, fm, out)
        with open(out) as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["timestamp", *CANONICAL_COLUMNS]
        assert len(rows) == len(small_synth) + 1
        adx35_col = 1 + CANONICAL_COLUMNS.index("adx35")
        assert rows[1][adx35_col] == ""  # warm-up cell is empty
        assert float(rows[fm.warmup_len + 1][1]) == fm.values[fm.warmup_len, 0]


class TestShiftEquivariance:
    """Windowed kernels are exactly shift-equivariant; recursively-seeded ones
    (EMA-family, RSI, ADX) converge to the suffix computation as the seed washes
    out, so they are compared after a long burn-in."""

    def test_windowed_exact(self, rng):
        walk = random_walk_series(rng, 400)
        k = 57
        assert np.array_equal(sma(walk.closes, 10)[k + 9 :], sma(walk.closes[k:], 10)[9:])
        full = williams_r(walk.highs, walk.lows, walk.closes, 14)[k + 13 :]
        suffix = williams_r(walk.highs[k:], walk.lows[k:], walk.closes[k:], 14)[13:]
        assert np.array_equal(full, suffix)

    def test_recursive_after_burn_in(self, rng):
        x = 1.1 + np.cumsum(rng.normal(0, 0.001, size=2000))
        k = 100
        burn = 1000
        full = ema(x, 20)[k:]
        suffix = ema(x[k:], 20)
        assert np.max(np.abs(full[burn:] - suffix[burn:])) < 1e-9
        full_rsi = rsi(x, 14)[k:]
        suffix_rsi = rsi(x[k:], 14)
        assert np.nanmax(np.abs(full_rsi[burn:] - suffix_rsi[burn:])) < 1e-9
