"""The batched indicator and event kernels against the per-bar loops they replaced,
and the recurrent cells' forward steps against the loops they replaced.

Every comparison is bitwise: the same floats, the same events, the same tallies.
"""

import warnings
from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.lib.stride_tricks import sliding_window_view

import oracles
from fxevent.events import (
    BEARISH,
    BULLISH,
    DOWN,
    PEAK,
    TROUGH,
    UP,
    CrossEvent,
    Pivot,
    RetraceParams,
    ZigZagParams,
    assemble_sequences,
    crossovers,
    find_retracement,
    retracement_candidates,
    zigzag,
)
from fxevent import indicators
from fxevent.indicators import (
    ADX_PERIODS,
    RSI_PERIODS,
    SMA_PERIODS,
    WR_PERIODS,
    adx,
    bollinger,
    ema,
    feature_matrix,
    rsi,
    sliding_extreme,
    sma,
    williams_r,
)
from fxevent.market_data import CandleSeries
from fxevent.nn.models import KINDS, BidirectionalLayer, ModelConfig, RecurrentModel

from conftest import random_walk_series

PIP = 1e-4
SETTINGS = settings(max_examples=60)


def quantized(series, quantum_pips):
    """Prices rounded to a grid, so flat runs, ties and zero differences occur often."""
    if quantum_pips == 0:
        return series
    q = quantum_pips * PIP
    o, h, l, c = (np.round(a / q) * q for a in (series.opens, series.highs, series.lows, series.closes))
    return CandleSeries(series.symbol, series.pip_size, series.timestamps.copy(), o, h, l, c)


@st.composite
def walks(draw, max_bars=400):
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    series = random_walk_series(rng, draw(st.integers(1, max_bars)), vol_pips=draw(st.floats(0.5, 20.0)))
    return quantized(series, draw(st.sampled_from([0, 1, 4])))


def same_bits(a, b):
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


@SETTINGS
@given(series=walks(), n=st.integers(1, 40))
def test_recurrences_equal_loops(series, n):
    c, h, l = series.closes, series.highs, series.lows
    assert same_bits(rsi(c, n), oracles.loop_rsi(c, n))
    assert same_bits(adx(h, l, c, n), oracles.loop_adx(h, l, c, n))
    assert same_bits(ema(c, n), oracles.loop_ema(c, n))


def loop_feature_columns(series):
    """The 28 columns from the per-column loops, in `COLUMNS` order."""
    c, h, l = series.closes, series.highs, series.lows
    line = oracles.loop_ema(c, 12) - oracles.loop_ema(c, 26)
    signal = oracles.loop_ema(line, 9)
    return np.column_stack(
        [line, signal, line - signal]
        + [sma(c, p) for p in SMA_PERIODS]
        + [oracles.loop_rsi(c, p) for p in RSI_PERIODS]
        + [oracles.loop_adx(h, l, c, p) for p in ADX_PERIODS]
        + list(bollinger(c))
        + [williams_r(h, l, c, p) for p in WR_PERIODS]
    )


# The blocked loop starts where the 69-bar warm-up ends. Blocks of 1 and 3 bars
# put a block edge, and so a lag of the DX and signal lanes, at nearly every bar
# after it; 64 cuts walks of a few hundred bars into a few blocks with a short
# last one.
@pytest.mark.parametrize("block", [1, 3, 64])
@SETTINGS
@given(series=walks())
def test_feature_matrix_equals_loops_at_block_edges(series, block):
    with pytest.MonkeyPatch.context() as mp, warnings.catch_warnings():
        mp.setattr(indicators, "_BLOCK_ROWS", block)
        warnings.simplefilter("ignore", UserWarning)  # walks shorter than the warm-up
        values = feature_matrix(series).values
    assert same_bits(values, loop_feature_columns(series))


# Every window length of walks of 1-300 bars, quantized so that ties and flat runs are common, and of the
# -inf margins `_window_candidates` pads with; the lengths straddle powers of two, where the doubling stops.
@pytest.mark.parametrize("ufunc, reduce", [(np.maximum, "max"), (np.minimum, "min")], ids=["max", "min"])
def test_sliding_extreme_equals_window_reduce(ufunc, reduce):
    rng = np.random.default_rng(29)
    for bars in [*range(1, 34), 63, 64, 65, 127, 128, 129, 255, 256, 257, 300]:
        series = quantized(random_walk_series(rng, bars, vol_pips=2.0), bars % 3 * 2)
        margin = np.full(bars % 12 + 1, -np.inf)
        for x in (series.highs, series.lows, np.concatenate([margin, -series.lows, margin])):
            for n in range(1, len(x) + 1):
                assert same_bits(sliding_extreme(x, n, ufunc), getattr(sliding_window_view(x, n), reduce)(axis=1))


@SETTINGS
@given(d=st.lists(st.sampled_from([-2.5, -1.0, 0.0, 1.0, 3.0, np.nan, np.inf]), max_size=40))
def test_crossovers_equal_loop_on_sign_paths(d):
    fast, slow = np.array(d, dtype=np.float64), np.zeros(len(d))
    assert crossovers(fast, slow) == oracles.loop_crossovers(fast, slow)


@SETTINGS
@given(
    series=walks(),
    fast=st.integers(1, 8),
    slow=st.integers(2, 25),
    depth=st.integers(1, 12),
    deviation=st.floats(0.5, 20.0),
    backstep=st.integers(0, 4),
    radius=st.integers(1, 4),
    extra=st.integers(1, 60),
)
def test_events_equal_loops_on_walks(series, fast, slow, depth, deviation, backstep, radius, extra):
    c = series.closes
    crosses = crossovers(ema(c, fast), ema(c, slow))
    assert crosses == oracles.loop_crossovers(ema(c, fast), ema(c, slow))
    pivots = zigzag(series, ZigZagParams(depth, deviation, backstep))
    params = RetraceParams(radius, radius + extra)
    got = assemble_sequences(pivots, crosses, series, params)
    assert got == oracles.quadratic_assemble_sequences(pivots, crosses, series, params)
    candidates = retracement_candidates(c, radius)
    for cross in crosses[:20]:
        for direction, trend in ((BULLISH, UP), (BEARISH, DOWN)):
            probe = CrossEvent(cross.index, direction)
            for barrier in (len(c), cross.index, cross.index + radius + 1):
                hit = oracles.loop_find_retracement(series, probe, trend, params, barrier)
                assert find_retracement(series, probe, params, barrier, candidates) == (None if hit is None else hit[0])


@st.composite
def hand_built(draw):
    """A short series with sorted pivot and crossover lists; indices may repeat and coincide."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    series = quantized(random_walk_series(rng, draw(st.integers(1, 60)), vol_pips=8.0), draw(st.sampled_from([0, 4])))
    index = st.integers(0, len(series) - 1)
    pivot_at = sorted(draw(st.lists(index, max_size=10)))
    pivots = [Pivot(i, draw(st.sampled_from([TROUGH, PEAK])), 1.0, i) for i in pivot_at]
    cross_at = sorted(draw(st.lists(index, max_size=16)))
    crosses = [CrossEvent(i, draw(st.sampled_from([BULLISH, BEARISH]))) for i in cross_at]
    params = RetraceParams(draw(st.integers(1, 3)), draw(st.integers(4, 30)))
    return pivots, crosses, series, params


@SETTINGS
@given(case=hand_built())
def test_assemble_equals_quadratic_on_hand_built_lists(case):
    assert assemble_sequences(*case) == oracles.quadratic_assemble_sequences(*case)


LOOP_FORWARDS = {"rnn": oracles.loop_rnn_forward, "lstm": oracles.loop_lstm_forward, "gru": oracles.loop_gru_forward}


def cells(model):
    """Every cell of the stack, both directions of a bidirectional layer."""
    for layer in model.layers:
        yield from (layer.fwd, layer.bwd) if isinstance(layer, BidirectionalLayer) else (layer,)


@pytest.mark.parametrize("T", [1, 7])
@pytest.mark.parametrize("B", [1, 3, 33])
@pytest.mark.parametrize("kind", KINDS)
def test_forward_steps_equal_loops(kind, B, T):
    config = ModelConfig(kind, T, seed=B + T)
    model, reference = RecurrentModel(config), RecurrentModel(config)
    for cell in cells(reference):
        cell.forward = partial(LOOP_FORWARDS[config.cell], cell)
    rng = np.random.default_rng(31 * B + T)
    X = rng.normal(scale=3.0, size=(B, T, config.input_dim))
    X[0, 0] = np.where(np.arange(config.input_dim) % 2, 2000.0, -2000.0)  # gates saturate, exp overflows
    assert same_bits(model.forward_batch(X), reference.forward_batch(X))
    for got, want in zip(cells(model), cells(reference)):
        # the hidden states and the cache arrays backward reads (A, Cs, rhs)
        assert len(got._cache) == len(want._cache)
        assert all(same_bits(a, b) for a, b in zip(got._cache, want._cache))
    dpred = rng.normal(size=B)
    model.backward_batch(dpred)
    reference.backward_batch(dpred)
    for p, q in zip(model.params(), reference.params()):
        assert same_bits(p.grad, q.grad), p.name
