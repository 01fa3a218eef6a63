"""Acceptance suite: one test per criterion, each printing a PASS line with the
measured value once its assertions hold. Run with `pytest tests/test_acceptance.py -v -s`.
"""

import time

import numpy as np
import pytest

import oracles
from conftest import random_walk_series
from fxevent.config import ExperimentConfig, GridConfig
from fxevent.dataset import Dataset, apply_norm, build_samples, fit_normalizer, invert_target
from fxevent.events import (
    BULLISH,
    PEAK,
    TROUGH,
    UP,
    RetraceParams,
    ZigZagParams,
    assemble_sequences,
    crossovers,
    zigzag,
)
from fxevent.experiment import baseline_persistence, cell_seed, run_experiment
from fxevent.indicators import adx, bollinger, ema, feature_matrix, macd, rsi, sma, williams_r
from fxevent.market_data import synthetic_series
from fxevent.metrics import mae, mape, mse, rmse
from fxevent.nn.models import ModelConfig, RecurrentModel, TrainHyper, predict, train


def test_criterion_1_gradient_correctness():
    started = time.perf_counter()
    data = np.random.default_rng(1)
    X = data.normal(size=(3, 5, 28))
    y = data.normal(size=3)
    worst = {}
    for kind in ("rnn", "lstm", "bilstm", "gru"):
        cfg = ModelConfig(kind=kind, n_timesteps=5, input_dim=28, layers=2, hidden=4, seed=11)
        model = RecurrentModel(cfg)
        loss_fn, backward_fn = oracles.loss_closures(model, X, y)
        worst[kind] = oracles.grad_check(loss_fn, backward_fn, model.params(), h=1e-5)
        assert worst[kind] < 1e-4, f"{kind}: max relative error {worst[kind]:.3e}"
    elapsed = time.perf_counter() - started
    assert elapsed < 30.0, f"gradient checks took {elapsed:.1f}s"
    print(
        f"PASS criterion 1: BPTT gradients match finite differences "
        f"(worst {max(worst.values()):.2e} over {list(worst)} in {elapsed:.1f}s)"
    )


def test_criterion_2_metric_fidelity():
    rng = np.random.default_rng(2)
    worst = 0.0
    for _ in range(1000):
        n = int(rng.integers(1, 40))
        t = rng.normal(1.1, 0.1, size=n)
        p = rng.normal(1.1, 0.1, size=n)
        r, m = rmse(t, p), mse(t, p)
        if m > 0:
            worst = max(worst, abs(r * r - m) / m)
    assert worst < 1e-12, f"rmse^2 vs mse relative error {worst:.2e}"

    assert mse([2.0], [1.0]) == 1.0
    assert rmse([2.0], [1.0]) == 1.0
    assert mae([2.0], [1.0]) == 1.0
    assert mape([2.0], [1.0]) == 50.0

    # benchmark-row internal consistency: a 3-decimal MSE of 1.846e-3 brackets
    # the reported RMSE of 42.960e-3
    lo = np.sqrt(1.8455e-3)
    hi = np.sqrt(1.8465e-3)
    assert lo <= 42.960e-3 <= hi
    print(f"PASS criterion 2: metric identities hold (worst rmse^2/mse error {worst:.2e})")


def test_criterion_3_zigzag_oracle_equivalence():
    started = time.perf_counter()
    rng = np.random.default_rng(3)
    checked = 0
    for _ in range(1000):
        n = int(rng.integers(8, 257))
        series = random_walk_series(rng, n, vol_pips=float(rng.uniform(2, 25)))
        depth = int(rng.integers(1, 16))
        deviation = float(rng.uniform(0.5, 40))
        backstep = int(rng.integers(0, 8))
        got = zigzag(series, ZigZagParams(depth, deviation, backstep))
        expected = oracles.zigzag_bruteforce(series, depth, deviation, backstep)
        assert [(p.index, p.kind, p.price, p.confirm_index) for p in got] == expected, (
            f"mismatch at n={n} depth={depth} deviation={deviation} backstep={backstep}"
        )
        checked += len(expected)
    elapsed = time.perf_counter() - started
    assert elapsed < 60.0, f"zigzag equivalence took {elapsed:.1f}s"
    print(
        f"PASS criterion 3: detector == brute-force oracle on 1000 series "
        f"({checked} pivots, {elapsed:.1f}s)"
    )


def test_criterion_4_indicator_oracle_equivalence():
    rng = np.random.default_rng(4)
    worst = {k: 0.0 for k in ("sma", "ema", "macd", "rsi", "adx", "bollinger", "wr")}

    def update(name, got, expected):
        mask = np.isfinite(expected)
        assert np.array_equal(np.isfinite(got), mask), f"{name}: warm-up regions differ"
        if mask.any():
            worst[name] = max(worst[name], float(np.max(np.abs(got[mask] - expected[mask]))))

    for _ in range(100):
        series = random_walk_series(rng, 2000, vol_pips=float(rng.uniform(3, 15)))
        c, h, l = series.closes, series.highs, series.lows
        n_sma = int(rng.choice([5, 10, 15, 20, 25, 30, 36]))
        update("sma", sma(c, n_sma), oracles.naive_sma(c, n_sma))
        n_ema = int(rng.choice([5, 12, 20, 26]))
        update("ema", ema(c, n_ema), oracles.naive_ema(c, n_ema))
        line, signal, hist = macd(c)
        e_line, e_signal, e_hist = oracles.naive_macd(c, 12, 26, 9)
        update("macd", line, e_line)
        update("macd", signal, e_signal)
        update("macd", hist, e_hist)
        n_rsi = int(rng.choice([5, 14, 20, 25]))
        update("rsi", rsi(c, n_rsi), oracles.naive_rsi(c, n_rsi))
        n_adx = int(rng.choice([5, 10, 20, 35]))
        update("adx", adx(h, l, c, n_adx), oracles.naive_adx(h, l, c, n_adx))
        lo_b, mid_b, up_b = bollinger(c)
        e_lo, e_mid, e_up = oracles.naive_bollinger(c, 20, 2.0)
        update("bollinger", lo_b, e_lo)
        update("bollinger", mid_b, e_mid)
        update("bollinger", up_b, e_up)
        n_wr = int(rng.choice([5, 14, 20, 25]))
        update("wr", williams_r(h, l, c, n_wr), oracles.naive_williams_r(h, l, c, n_wr))

    assert max(worst.values()) < 1e-9, f"kernel drift: {worst}"

    # boundary identities
    up_ramp = np.linspace(1.0, 2.0, 50)
    assert np.allclose(rsi(up_ramp, 14)[14:], 100.0)
    series = random_walk_series(np.random.default_rng(44), 500)
    wr = williams_r(series.highs, series.lows, series.closes, 14)
    defined = wr[np.isfinite(wr)]
    assert np.all((defined >= -100.0) & (defined <= 0.0))
    lo_b, mid_b, up_b = bollinger(series.closes)
    m = np.isfinite(mid_b)
    assert np.max(np.abs((up_b + lo_b - 2 * mid_b)[m])) < 1e-12
    print(
        "PASS criterion 4: 7 kernels match naive oracles within 1e-9 "
        f"(worst {max(worst.values()):.2e}); boundary identities hold"
    )


def test_criterion_5_event_sequence_invariants():
    params = RetraceParams()
    total = 0
    for seed in range(100):
        series = synthetic_series(1000 + seed, 1500)
        pivots = zigzag(series)
        crosses = crossovers(ema(series.closes, 5), ema(series.closes, 20))
        sequences, diags = assemble_sequences(pivots, crosses, series, params)
        assert diags.emitted + diags.no_retracement == diags.eligible_crossovers
        assert len(sequences) == diags.emitted
        assert len(sequences) <= len(crosses)
        for s in sequences:
            assert s.pivot.index < s.cross.index < s.retrace_index
            if s.trend == UP:
                assert s.pivot.kind == TROUGH and s.cross.direction == BULLISH
            else:
                assert s.pivot.kind == PEAK and s.cross.direction == "bearish"
            assert s.cross.index < s.retrace_index < s.cross.index + params.lookahead
        total += len(sequences)
    print(f"PASS criterion 5: invariants hold over 100 series ({total} sequences)")


def test_criterion_6_dataset_windowing():
    series = synthetic_series(6, 4000)
    fm = feature_matrix(series)
    crosses = crossovers(ema(series.closes, 5), ema(series.closes, 20))
    sequences, _ = assemble_sequences(zigzag(series), crosses, series)
    for n in (30, 60):
        samples, skipped = build_samples(fm, sequences, n, series)
        assert len(samples) + skipped == len(sequences)
        assert len(samples) > 0
        for s in samples:
            assert s.window.shape == (n, 28)
            start = s.e2_index - n + 1
            assert start >= fm.warmup_len
            assert np.array_equal(s.window, fm.values[start : s.e2_index + 1])
            assert np.isfinite(s.window).all()

    samples, _ = build_samples(fm, sequences, 30, series)
    ds = Dataset(tuple(samples), 30, "train")
    stats = fit_normalizer(ds)
    rng = np.random.default_rng(6)
    worst = 0.0
    for y in rng.normal(1.1, 0.05, size=1000):
        back = invert_target((float(y) - stats.target_mean) / stats.target_std, stats)
        worst = max(worst, abs(back - y) / abs(y))
    assert worst < 1e-12
    print(
        f"PASS criterion 6: windows are verbatim feature slices; "
        f"normalization round-trip error {worst:.2e}"
    )


def test_criterion_7_end_to_end_beats_persistence():
    started = time.perf_counter()
    series = synthetic_series(7, 5000)
    fm = feature_matrix(series)
    crosses = crossovers(ema(series.closes, 5), ema(series.closes, 20))
    sequences, _ = assemble_sequences(zigzag(series), crosses, series)
    assert len(sequences) >= 80, f"only {len(sequences)} sequences detected"

    samples, _ = build_samples(fm, sequences, 30, series)
    cutoff = int(series.timestamps[int(len(series) * 0.8)])
    train_samples = tuple(s for s in samples if s.e2_ts < cutoff)
    test_samples = tuple(s for s in samples if s.e2_ts >= cutoff)
    train_ds = Dataset(train_samples, 30, "train")
    test_ds = Dataset(test_samples, 30, "test")
    stats = fit_normalizer(train_ds)
    train_norm = apply_norm(train_ds, stats)
    test_norm = apply_norm(test_ds, stats)

    config = ModelConfig(kind="lstm", n_timesteps=30, seed=cell_seed(42, "lstm", 30))
    model, report = train(train_norm, 0.1, config, TrainHyper())
    pred = predict(model, test_norm, stats)
    true = test_ds.targets()
    model_mape = mape(true, pred)
    persistence_mape = mape(true, baseline_persistence(test_ds, series))
    elapsed = time.perf_counter() - started
    assert model_mape <= 0.5 * persistence_mape, (
        f"LSTM-30 MAPE {model_mape:.4f}% vs persistence {persistence_mape:.4f}%"
    )
    assert elapsed < 300.0, f"end-to-end run took {elapsed:.1f}s"
    print(
        f"PASS criterion 7: LSTM-30 MAPE {model_mape:.4f}% <= half of persistence "
        f"{persistence_mape:.4f}% ({len(train_ds)} train / {len(test_ds)} test, "
        f"{report.epochs_run} epochs, {elapsed:.1f}s)"
    )


def _experiment_config(out_dir) -> ExperimentConfig:
    cfg = ExperimentConfig()
    cfg.data.synth_n = 2600
    cfg.grid = GridConfig(kinds=("rnn", "lstm"), timesteps=(30,))
    cfg.arch.hidden = 8
    cfg.training.max_epochs = 3
    cfg.out_dir = str(out_dir)
    return cfg


def test_criterion_8_experiment_determinism(tmp_path):
    run_experiment(_experiment_config(tmp_path / "a"))
    run_experiment(_experiment_config(tmp_path / "b"))
    names = sorted(p.name for p in (tmp_path / "a").iterdir())
    assert names == sorted(p.name for p in (tmp_path / "b").iterdir())
    for name in names:
        a = (tmp_path / "a" / name).read_bytes()
        b = (tmp_path / "b" / name).read_bytes()
        assert a == b, f"{name} differs between identical runs"
    print(f"PASS criterion 8: {len(names)} emitted files byte-identical across reruns")


def test_criterion_9_report_structure(tmp_path):
    import json

    cfg = ExperimentConfig()
    cfg.data.synth_n = 2600
    cfg.arch.hidden = 8
    cfg.training.max_epochs = 1
    cfg.out_dir = str(tmp_path / "grid")
    result = run_experiment(cfg)
    assert len(result.cells) == 8
    assert all(c.error is None for c in result.cells)
    report = json.loads((tmp_path / "grid" / "report.json").read_text())
    rows = [(r["model"], r["timesteps"]) for r in report["cells"]]
    expected = [(k, n) for k in ("rnn", "lstm", "bilstm", "gru") for n in (30, 60)]
    assert sorted(rows) == sorted(expected)
    assert len(rows) == 8
    print("PASS criterion 9: default grid emits exactly 8 rows (4 kinds x {30, 60})")
