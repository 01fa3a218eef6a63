"""Memory budgets of the prepare path, measured with tracemalloc.

tracemalloc counts the bytes numpy and Python allocate, the same on every
run, unlike the resident set size, which depends on the allocator and on what
ran before. Each budget is a multiple of the call's result (or input), on a
20k-bar random walk; a transient copy of the whole result breaks it.
"""

import tracemalloc

import numpy as np
import pytest

from fxevent.dataset import Dataset, Sample, build_samples, fit_normalizer, load_dataset, save_dataset
from fxevent.events import ZigZagParams, assemble_sequences, crossovers, retracement_candidates, zigzag
from fxevent.indicators import adx, ema, feature_matrix, rsi, williams_r
from fxevent.market_data import load_csv, save_csv

from conftest import random_walk_series

BARS = 20_000
COLUMN = 8 * BARS  # bytes in one float64 column of the walk


def traced_peak(fn, *args):
    """(fn(*args), the peak bytes allocated while it ran)."""
    tracemalloc.start()
    try:
        result = fn(*args)
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.fixture(scope="module")
def walk20k():
    return random_walk_series(np.random.default_rng(20240811), BARS)


@pytest.fixture(scope="module")
def features20k(walk20k):
    return feature_matrix(walk20k)


def test_feature_matrix_peak_below_1_8x_result(walk20k):
    features, peak = traced_peak(feature_matrix, walk20k)
    assert peak < 1.8 * features.values.nbytes, f"peak {peak / features.values.nbytes:.2f}x the matrix"


@pytest.mark.parametrize(
    "kernel, columns",
    [
        (lambda s: ema(s.closes, 12), 3),
        (lambda s: rsi(s.closes, 14), 8),
        (lambda s: adx(s.highs, s.lows, s.closes, 14), 14),
    ],
    ids=["ema", "rsi", "adx"],
)
def test_recurrence_peak_in_float64_columns(walk20k, kernel, columns):
    # the smoothing loops fill a float64 buffer; a list of boxed floats costs 4 columns
    _, peak = traced_peak(kernel, walk20k)
    assert peak < columns * COLUMN, f"peak {peak / COLUMN:.1f} float64 columns"


def test_ema_copies_none_of_its_input(walk20k):
    # the lone EMA reads the closes through a memoryview; a scaled copy of them is a second column
    _, peak = traced_peak(ema, walk20k.closes, 12)
    assert peak < 1.5 * COLUMN, f"peak {peak / COLUMN:.2f} float64 columns"


# Window extremes come from `sliding_extreme`, whose doubling passes hold two columns whatever the window
# length. On the walk: williams_r 6.0 columns at every n, zigzag 4.0, retracement_candidates 2.3.
@pytest.mark.parametrize("n", [4, 25, 1000])
def test_williams_r_peak_flat_in_its_window(walk20k, n):
    _, peak = traced_peak(williams_r, walk20k.highs, walk20k.lows, walk20k.closes, n)
    assert peak < 6.5 * COLUMN, f"peak {peak / COLUMN:.2f} float64 columns"


@pytest.mark.parametrize("depth", [12, 1000])
def test_zigzag_peak_flat_in_its_depth(walk20k, depth):
    _, peak = traced_peak(zigzag, walk20k, ZigZagParams(depth=depth))
    assert peak < 4.5 * COLUMN, f"peak {peak / COLUMN:.2f} float64 columns"


def test_retracement_candidates_hold_one_side_at_a_time(walk20k):
    _, peak = traced_peak(retracement_candidates, walk20k.closes, 3)
    assert peak < 2.6 * COLUMN, f"peak {peak / COLUMN:.2f} float64 columns"


def test_fit_normalizer_peak_below_1_2x_one_stack(features20k):
    values = features20k.values
    ends = range(features20k.warmup_len + 29, len(values), 20)
    samples = tuple(Sample(values[e - 29 : e + 1], float(values[e, 0]), e, e, e) for e in ends)
    train = Dataset(samples, 30, "train")
    rows = train.windows().reshape(-1, train.n_features)
    stats, peak = traced_peak(fit_normalizer, train)
    assert peak < 1.2 * rows.nbytes, f"peak {peak / rows.nbytes:.2f}x the stacked windows"
    assert stats.feature_mean.tobytes() == rows.mean(axis=0).tobytes()
    assert stats.feature_std.tobytes() == rows.std(axis=0).tobytes()


def test_load_csv_peak_below_2x_its_arrays(walk20k, tmp_path):
    path = tmp_path / "walk.csv"
    save_csv(walk20k, path)
    series, peak = traced_peak(load_csv, path, "RW")
    arrays = sum(getattr(series, f).nbytes for f in ("timestamps", "opens", "highs", "lows", "closes"))
    assert peak < 2 * arrays, f"peak {peak / arrays:.2f}x the five arrays"
    for field in ("timestamps", "opens", "highs", "lows", "closes"):
        assert getattr(series, field).tobytes() == getattr(walk20k, field).tobytes(), field


@pytest.fixture(scope="module")
def samples20k(walk20k, features20k):
    pivots = zigzag(walk20k)
    crosses = crossovers(ema(walk20k.closes, 5), ema(walk20k.closes, 20))
    sequences, _ = assemble_sequences(pivots, crosses, walk20k)
    samples, _ = build_samples(features20k, sequences, 30, walk20k)
    return samples


def test_build_samples_windows_are_read_only_views(features20k, samples20k):
    samples = samples20k
    assert samples
    for s in samples:
        assert np.shares_memory(s.window, features20k.values)
        assert not s.window.flags.writeable


# on the walk (342 windows of 30 x 28): save 0.04x, load 1.07x; the text pair read 0.06x and 1.25x
def test_save_dataset_streams_its_windows(features20k, samples20k, tmp_path):
    ds = Dataset(tuple(samples20k), 30, "train", feature_names=features20k.columns)
    block = ds.windows().nbytes
    _, peak = traced_peak(save_dataset, ds, tmp_path / "ds")
    assert peak < 0.1 * block, f"peak {peak / block:.3f}x the window block"


def test_load_dataset_peak_below_1_2x_its_windows(features20k, samples20k, tmp_path):
    ds = Dataset(tuple(samples20k), 30, "train", feature_names=features20k.columns)
    save_dataset(ds, tmp_path / "ds")
    block = ds.windows().nbytes
    loaded, peak = traced_peak(load_dataset, tmp_path / "ds")
    assert peak < 1.2 * block, f"peak {peak / block:.3f}x the window block"
    assert loaded.windows().tobytes() == ds.windows().tobytes()
