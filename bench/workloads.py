"""The three benchmark workloads and their output checks.

Each workload builds its inputs from the seed in `setup`, does one unit of
work in `run_pass` (timed by the caller) and checks that unit in `check`,
which returns (operations attempted, operations failed, problems). Calls into
fxevent go through module attributes (`md.load_csv`, `ev.zigzag`, ...) so the
tracer's wrappers see them.
"""

from __future__ import annotations

import hashlib
import json
import shutil
import time
from pathlib import Path

import numpy as np

from fxevent import dataset as ds
from fxevent import events as ev
from fxevent import experiment
from fxevent import indicators as ind
from fxevent import market_data as md
from fxevent.config import ExperimentConfig
from fxevent.nn import models as nm

# Loss curves and predictions must match the stored reference to this relative
# tolerance. Replays on one machine are bitwise equal; the slack absorbs BLAS
# blocking differences only. Dropping any gradient term moves losses by far more.
REFERENCE_RTOL = 1e-9
# A B=1 prediction must equal the batched prediction of the same window to rounding.
BATCH_RTOL = 1e-10

PIP = 1e-4
CROSS_FAST, CROSS_SLOW = 5, 20  # the `fxevent dataset` defaults


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def data_digest(features, pivots, crosses, sequences, windows: np.ndarray) -> dict:
    """Bitwise digest of the feature matrix, the event indices and the windows."""
    events = {
        "pivots": [[p.index, p.kind, p.confirm_index] for p in pivots],
        "crosses": [[c.index, c.direction] for c in crosses],
        "sequences": [[s.pivot.index, s.cross.index, s.retrace_index] for s in sequences],
    }
    return {
        "features": _sha(np.ascontiguousarray(features.values).tobytes()),
        "events": _sha(json.dumps(events).encode()),
        "windows": _sha(np.ascontiguousarray(windows).tobytes()),
    }


def detect_events(series):
    """`feature_matrix`, `zigzag`, two `ema`, `crossovers` and `assemble_sequences` with their defaults."""
    features = ind.feature_matrix(series)
    pivots = ev.zigzag(series)
    fast = ind.ema(series.closes, CROSS_FAST)
    slow = ind.ema(series.closes, CROSS_SLOW)
    crosses = ev.crossovers(fast, slow)
    sequences, _ = ev.assemble_sequences(pivots, crosses, series)
    return features, pivots, crosses, sequences


def _close(a, b, rtol) -> bool:
    a, b = np.asarray(a, dtype=np.float64), np.asarray(b, dtype=np.float64)
    return a.shape == b.shape and bool(np.all(np.abs(a - b) <= rtol * np.abs(b)))


def random_walk(seed: int, n: int, vol_pips: float = 3.0):
    """Geometric Gaussian random walk with valid OHLC: prices stay positive, wicks enclose the body."""
    rng = np.random.default_rng(seed)
    start = 1.10
    closes = start * np.exp(np.cumsum(rng.normal(0.0, vol_pips * PIP / start, size=n)))
    opens = np.concatenate([[start], closes[:-1]])
    wick = np.abs(rng.normal(0.0, 0.5 * vol_pips * PIP / start, size=(2, n)))
    highs = np.maximum(opens, closes) * np.exp(wick[0])
    lows = np.minimum(opens, closes) * np.exp(-wick[1])
    timestamps = 1_420_070_400 + 3600 * np.arange(n, dtype=np.int64)
    return md.make_series("RW", PIP, timestamps, opens, highs, lows, closes)


class Grid:
    """`run_experiment` on the default config, with a fixed epoch count."""

    EPOCHS = 4  # patience = EPOCHS, so early stopping never cuts a cell short

    def __init__(self, seed: int, out: Path, reference: dict):
        self.seed = seed
        self.out = out / "grid"
        self.reference = reference

    def setup(self) -> list[str]:
        cfg = ExperimentConfig(seed=self.seed, out_dir=str(self.out))
        cfg.training.max_epochs = self.EPOCHS
        cfg.training.patience = self.EPOCHS
        self.cfg = cfg
        # The grid's data does not depend on the seed; check it bitwise on every run.
        # The default config uses the default indicator, event and crossover parameters.
        series = md.synthetic_series(cfg.data.synth_seed, cfg.data.synth_n, cfg.regime, cfg.data.symbol)
        features, pivots, crosses, sequences = detect_events(series)
        windows = [ds.Dataset(tuple(ds.build_samples(features, sequences, n, series)[0]), n, "train").windows()
                   for n in cfg.grid.timesteps]
        self.digest = data_digest(features, pivots, crosses, sequences,
                                  np.concatenate([w.reshape(-1) for w in windows]))
        expected = self.reference.get("grid_data")
        if expected is not None and expected != self.digest:
            return [f"grid data {[k for k in expected if expected[k] != self.digest.get(k)]} digest differs from reference"]
        return []

    def run_pass(self):
        shutil.rmtree(self.out, ignore_errors=True)
        return experiment.run_experiment(self.cfg)

    def check(self, result) -> tuple[int, int, list[str]]:
        expected = self.reference.get("grid", {}).get(str(self.seed))
        self.curves = {}
        problems = [f"report file {name} missing" for name in ("manifest.json", "report.json", "report.txt")
                    if not (self.out / name).is_file()]
        if len(result.cells) != 8:
            problems.append(f"expected 8 grid cells, got {len(result.cells)}")
        whole_grid_failed = bool(problems)  # a missing report or a short grid fails every cell
        failed = 0
        for cell in result.cells:
            bad = self._check_cell(cell, f"{cell.kind}.{cell.n_timesteps}", expected)
            problems += bad
            failed += bool(bad)
        return 8, 8 if whole_grid_failed else failed, problems

    def _check_cell(self, cell, tag, expected) -> list[str]:
        if cell.error is not None:
            return [f"{tag}: {cell.error}"]
        m = cell.metrics
        if not np.all(np.isfinite([m.mse, m.rmse, m.mae, m.mape])):
            return [f"{tag}: non-finite metrics"]
        report_path = self.out / f"train_report_{cell.kind}_{cell.n_timesteps}.json"
        if not report_path.is_file() or not (self.out / f"predictions_{cell.kind}_{cell.n_timesteps}.csv").is_file():
            return [f"{tag}: report files missing"]
        report = json.loads(report_path.read_text())
        train, val = report["train_losses"], report["val_losses"]
        self.curves[tag] = {"train": train, "val": val}
        if len(train) != self.EPOCHS or not np.all(np.isfinite(train + val)):
            return [f"{tag}: expected {self.EPOCHS} finite epochs, got {train} / {val}"]
        if not train[-1] < train[0]:
            return [f"{tag}: train loss did not fall ({train[0]} -> {train[-1]})"]
        if expected is not None:
            ref = expected[tag]
            if not (_close(train, ref["train"], REFERENCE_RTOL) and _close(val, ref["val"], REFERENCE_RTOL)):
                return [f"{tag}: loss curve differs from reference"]
        return []

    def reference_entry(self) -> dict:
        return {"grid_data": self.digest, "grid": {str(self.seed): self.curves}}


class Prepare:
    """`fxevent dataset` then the data half of `fxevent train`, on a 100k-bar random walk."""

    BARS = 100_000
    TIMESTEPS = 30

    def __init__(self, seed: int, out: Path, reference: dict):
        self.seed = seed
        self.out = out / f"prepare-{seed}"
        self.reference = reference

    def setup(self) -> list[str]:
        self.out.mkdir(parents=True, exist_ok=True)
        self.csv_path = self.out / "candles.csv"
        md.save_csv(random_walk(self.seed, self.BARS), self.csv_path)
        return []

    def run_pass(self):
        series = md.load_csv(self.csv_path, "RW", PIP)
        features, pivots, crosses, sequences = detect_events(series)
        samples, _ = ds.build_samples(features, sequences, self.TIMESTEPS, series)
        built = ds.Dataset(tuple(samples), self.TIMESTEPS, "train", feature_names=features.columns)
        prefix = self.out / "dataset"
        ds.save_dataset(built, prefix)
        loaded = ds.load_dataset(prefix, role="train")
        stats = ds.fit_normalizer(loaded)
        normed = ds.apply_norm(loaded, stats)
        return features, pivots, crosses, sequences, built, loaded, normed

    def check(self, result) -> tuple[int, int, list[str]]:
        features, pivots, crosses, sequences, built, loaded, normed = result
        problems = []
        windows = built.windows()
        if windows.tobytes() != loaded.windows().tobytes() or built.targets().tobytes() != loaded.targets().tobytes():
            problems.append("dataset read back by load_dataset differs from the one written")
        if not np.all(np.isfinite(features.values[features.warmup_len :])):
            problems.append("non-finite feature past warmup_len")
        if not np.all(np.isfinite(normed.windows())):
            problems.append("non-finite normalized window")
        self.digest = data_digest(features, pivots, crosses, sequences, windows)
        expected = self.reference.get("prepare", {}).get(str(self.seed))
        if expected is not None and expected != self.digest:
            problems.append(f"{[k for k in expected if expected[k] != self.digest.get(k)]} digest differs from reference")
        return 1, int(bool(problems)), problems

    def reference_entry(self) -> dict:
        return {"prepare": {str(self.seed): self.digest}}


class Score:
    """Closed loop, one client: each request is `predict` on one normalized T=30 window."""

    TIMESTEPS = 30
    TRAIN_EPOCHS = 5
    POOL = 128  # requests per pass; the pool is cycled for the whole run

    def __init__(self, seed: int, out: Path, reference: dict):
        self.seed = seed
        self.out = out / "score"
        self.reference = reference

    def _windows(self, series, role):
        features, _, _, sequences = detect_events(series)
        samples, _ = ds.build_samples(features, sequences, self.TIMESTEPS, series)
        return ds.Dataset(tuple(samples), self.TIMESTEPS, role, feature_names=features.columns)

    def setup(self) -> list[str]:
        # Training data is the default synthetic series for every seed, so set-up
        # does the same work on every run; the seed picks the weights and the requests.
        train_raw = self._windows(md.synthetic_series(7, 5000), "train")
        stats = ds.fit_normalizer(train_raw)
        config = nm.ModelConfig("lstm", self.TIMESTEPS, input_dim=train_raw.samples[0].window.shape[1], seed=self.seed)
        hyper = nm.TrainHyper(max_epochs=self.TRAIN_EPOCHS, patience=self.TRAIN_EPOCHS)
        trained, _ = nm.train(ds.apply_norm(train_raw, stats), 0.1, config, hyper)
        self.out.mkdir(parents=True, exist_ok=True)
        path = self.out / f"lstm30-{self.seed}.model.txt"
        nm.save_model(trained, path)
        self.model = nm.load_model(path)
        self.stats = stats

        pool_raw = self._windows(md.synthetic_series(10_000 + self.seed, 10_000), "test")
        if len(pool_raw) < self.POOL:
            return [f"request pool has {len(pool_raw)} windows, need {self.POOL}"]
        pool = ds.apply_norm(ds.Dataset(pool_raw.samples[: self.POOL], self.TIMESTEPS, "test"), stats)
        self.requests = [ds.Dataset((s,), self.TIMESTEPS, "test", stats.fingerprint) for s in pool.samples]
        self.expected = nm.predict(self.model, pool, stats)
        problems = []
        if self.expected.tobytes() != nm.predict(trained, pool, stats).tobytes():
            problems.append("model reloaded by load_model predicts differently from the trained one")
        ref = self.reference.get("score", {}).get(str(self.seed))
        if ref is not None and not _close(self.expected, ref, REFERENCE_RTOL):
            problems.append("batched predictions differ from reference")
        return problems

    def run_pass(self):
        preds = np.empty(len(self.requests))
        latencies = []
        for i, request in enumerate(self.requests):
            t0 = time.perf_counter()
            preds[i] = nm.predict(self.model, request, self.stats)[0]
            latencies.append(time.perf_counter() - t0)
        self.latencies = latencies
        return preds

    def check(self, preds) -> tuple[int, int, list[str]]:
        ok = np.isfinite(preds) & (np.abs(preds - self.expected) <= BATCH_RTOL * np.abs(self.expected))
        failed = int((~ok).sum())
        problems = [f"{failed} B=1 predictions differ from batched predict"] if failed else []
        return len(preds), failed, problems

    def reference_entry(self) -> dict:
        return {"score": {str(self.seed): self.expected.tolist()}}


WORKLOADS = {"grid": Grid, "prepare": Prepare, "score": Score}
