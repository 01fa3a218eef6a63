"""Full pipeline orchestration: data -> features -> events -> datasets -> grid -> reports.

Sequences are detected once on the full series; each one is assigned to the
train or test split by the timestamp of its crossover bar. Metrics are computed
on raw prices after inverting the target normalization. All emitted files are
deterministic for a fixed config (wall-clock timings never reach disk), so two
identical runs produce byte-identical output trees.

Grid cells train in worker processes, one per usable CPU (fewer when fewer
cells train), each a fresh interpreter with one BLAS thread that trains and
predicts the cells it is handed. The parent writes every file, in grid order,
so the output tree does not depend on the worker count or on which cell
finishes first. With one usable CPU the cells train in-process.
"""

from __future__ import annotations

import contextlib
import json
import os
import pickle
import select
import signal
import subprocess
import sys
from collections import deque
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

from . import dataset as ds_mod
from . import events as ev_mod
from .config import ExperimentConfig
from .csvio import write_table
from .errors import ConfigError
from .indicators import ema, feature_matrix
from .market_data import CandleSeries, load_csv, synthetic_series
from .metrics import SCALED_HEADER, MetricsReport
from .nn.models import _CELLS, KINDS, ModelConfig, predict, save_model, train


def cell_seed(global_seed: int, kind: str, n_timesteps: int) -> int:
    """Per-cell seed independent of grid composition: SeedSequence((seed, kind code, n)), rnn 1 to gru 4."""
    ss = np.random.SeedSequence((global_seed, KINDS.index(kind) + 1, n_timesteps))
    return int(ss.generate_state(1)[0])


def resolve_cutoff(series: CandleSeries, cfg: ExperimentConfig) -> int:
    """Timestamp of the first test bar: the bar at `cutoff_fraction` of the series' bar count."""
    return int(series.timestamps[int(len(series) * cfg.split.cutoff_fraction)])


def baseline_persistence(ds: ds_mod.Dataset, series: CandleSeries) -> np.ndarray:
    """No-change forecast: the close at the crossover bar, per sample."""
    for s in ds.samples:
        if s.e2_index < 0:
            raise ConfigError("persistence baseline needs samples with source-series indices")
    return np.array([float(series.closes[s.e2_index]) for s in ds.samples])


def emit_predictions(samples, true, pred, path) -> None:
    """Per-sample prediction CSV ordered by crossover time; enough to re-plot
    predicted-vs-real curves with any tool."""
    true = np.asarray(true, dtype=np.float64)
    pred = np.asarray(pred, dtype=np.float64)
    abs_error = np.abs(true - pred)
    write_table(
        path,
        ["e2_timestamp", "e3_timestamp", "true_price", "predicted_price", "abs_error", "pct_error"],
        [f"{s.e2_ts},{s.e3_ts}" for s in samples],
        np.column_stack([true, pred, abs_error, abs_error / true * 100.0]),
    )


def detect_events(series: CandleSeries) -> tuple[list, list, list, ev_mod.SequenceDiagnostics]:
    """(pivots, crossovers, sequences, diagnostics) under the fixed event definition:
    ZigZag pivots, the crossovers of the fast- and slow-period close EMAs, and the
    setups assembled from them."""
    pivots = ev_mod.zigzag(series)
    closes = series.closes
    crosses = ev_mod.crossovers(ema(closes, ev_mod.CROSS_FAST), ema(closes, ev_mod.CROSS_SLOW))
    sequences, diags = ev_mod.assemble_sequences(pivots, crosses, series)
    return pivots, crosses, sequences, diags


@dataclass
class CellResult:
    kind: str
    n_timesteps: int
    seed: int
    metrics: MetricsReport | None = None
    error: str | None = None
    best_epoch: int = 0
    epochs_run: int = 0


@dataclass
class ExperimentResult:
    out_dir: Path
    cells: list[CellResult] = field(default_factory=list)
    persistence: dict[int, MetricsReport] = field(default_factory=dict)
    diagnostics: dict = field(default_factory=dict)

    @property
    def failed(self) -> list[CellResult]:
        return [c for c in self.cells if c.error is not None]


def _load_series(cfg: ExperimentConfig) -> CandleSeries:
    if cfg.data.csv_path:
        return load_csv(cfg.data.csv_path, cfg.data.symbol, cfg.data.pip_size)
    return synthetic_series(cfg.data.synth_seed, cfg.data.synth_n, cfg.regime, cfg.data.symbol, cfg.data.pip_size)


def run_experiment(cfg: ExperimentConfig) -> ExperimentResult:
    cfg.validate()
    series = _load_series(cfg)
    cutoff = resolve_cutoff(series, cfg)
    out_dir = Path(cfg.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    result = ExperimentResult(out_dir=out_dir)

    features = feature_matrix(series)
    _, _, sequences, diags = detect_events(series)

    result.diagnostics = {
        "bars": len(series),
        "cutoff": cutoff,
        "pivots": diags.pivots,
        "pivots_unmatched": diags.pivots_unmatched,
        "eligible_crossovers": diags.eligible_crossovers,
        "no_retracement": diags.no_retracement,
        "sequences": len(sequences),
    }

    datasets: dict[int, dict] = {}  # the manifest's sample counts, and the error of a degenerate split
    splits: dict[int, dict] = {}  # the data of each split that trains
    for n in sorted(cfg.grid.timesteps):
        samples, skipped = ds_mod.build_samples(features, sequences, n, series)
        train_samples = tuple(s for s in samples if s.e2_ts < cutoff)
        test_samples = tuple(s for s in samples if s.e2_ts >= cutoff)
        datasets[n] = {"skipped": skipped, "train": len(train_samples), "test": len(test_samples)}
        if not train_samples or not test_samples:
            datasets[n]["error"] = f"n={n}: degenerate split (train={len(train_samples)}, test={len(test_samples)})"
            continue
        train_ds = ds_mod.Dataset(train_samples, n, "train", feature_names=features.columns)
        test_ds = ds_mod.Dataset(test_samples, n, "test", feature_names=features.columns)
        stats = ds_mod.fit_normalizer(train_ds)
        splits[n] = dict(train_ds=ds_mod.apply_norm(train_ds, stats), test_ds=ds_mod.apply_norm(test_ds, stats),
                         stats=stats, true=test_ds.targets())
        persist = baseline_persistence(test_ds, series)
        result.persistence[n] = MetricsReport.compute("persistence", n, splits[n]["true"], persist)

    runnable = []  # (cell, split, task) for every cell that trains
    for kind in cfg.grid.kinds:
        for n in cfg.grid.timesteps:
            seed = cell_seed(cfg.seed, kind, n)
            cell = CellResult(kind=kind, n_timesteps=n, seed=seed)
            result.cells.append(cell)
            if n not in splits:
                cell.error = datasets[n]["error"]
                continue
            split = splits[n]
            mc = ModelConfig(kind, n, len(features.columns), cfg.arch.layers, cfg.arch.hidden, seed)
            task = (split["train_ds"], split["test_ds"], split["stats"], mc, cfg.training,
                    cfg.arch.val_fraction, cfg.save_models)
            runnable.append((cell, split, task))

    outcomes = _run_cells([task for _, _, task in runnable])
    for (cell, split, _), (error, report, pred, model) in zip(runnable, outcomes):
        cell.error = error
        if error is not None:
            continue
        try:
            cell.metrics = MetricsReport.compute(cell.kind, cell.n_timesteps, split["true"], pred)
            cell.best_epoch = report.best_epoch
            cell.epochs_run = report.epochs_run
            stem = f"{cell.kind}_{cell.n_timesteps}"
            emit_predictions(
                split["test_ds"].samples, split["true"], pred, out_dir / f"predictions_{stem}.csv"
            )
            (out_dir / f"train_report_{stem}.json").write_text(json.dumps(asdict(report), indent=2) + "\n")
            if cfg.save_models:
                models_dir = out_dir / "models"
                models_dir.mkdir(exist_ok=True)
                model_path = models_dir / f"{stem}.model.npz"
                save_model(model, model_path)
                ds_mod.save_stats(split["stats"], ds_mod.stats_path(model_path))
        except Exception as exc:  # isolate the failing grid cell
            cell.error = f"{type(exc).__name__}: {exc}"

    _write_reports(cfg, result, datasets)
    return result


def _train_cell(task) -> tuple:
    """Train and predict one grid cell: (error, TrainReport, predictions, model or None)."""
    train_ds, test_ds, stats, mc, hyper, val_fraction, keep_model = task
    try:
        model, report = train(train_ds, val_fraction, mc, hyper)
        pred = predict(model, test_ds, stats)
    except Exception as exc:  # isolate the failing grid cell
        return f"{type(exc).__name__}: {exc}", None, None, None
    return None, report, pred, model if keep_model else None


def _usable_cpus() -> int:
    """CPUs this process may run on: its affinity mask, where the OS has one."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _cost(mc: ModelConfig) -> int:
    """Steps x gate blocks x directions, which orders the cells by training time."""
    return mc.n_timesteps * len(_CELLS[mc.cell].GATES) * (2 if mc.bidirectional else 1)


def _run_cells(tasks: list) -> list:
    """_train_cell over tasks, returned in task order.

    With more than one usable CPU and task, each of min(CPUs, tasks) worker
    processes pulls the longest task left whenever it is idle. A worker that
    dies fails the task it held, and a fresh one takes its place while tasks
    are left. Every worker has been waited for when this returns or raises.
    """
    n_workers = min(_usable_cpus(), len(tasks))
    if n_workers <= 1:
        return [_train_cell(task) for task in tasks]
    pending = deque(sorted(range(len(tasks)), key=lambda i: -_cost(tasks[i][3])))
    results = [None] * len(tasks)
    # One BLAS thread per worker, so the workers do not share cores. The path
    # entry is the directory holding this fxevent, which a caller may have
    # put on sys.path rather than installed.
    package_root = str(Path(__file__).resolve().parents[1])
    env = dict(
        os.environ,
        OPENBLAS_NUM_THREADS="1",
        PYTHONPATH=os.pathsep.join(filter(None, (package_root, os.environ.get("PYTHONPATH")))),
    )
    command = [sys.executable, "-c", "from fxevent.experiment import _serve; _serve()"]
    workers = []

    def start():
        proc = subprocess.Popen(command, stdin=subprocess.PIPE, stdout=subprocess.PIPE, env=env)
        workers.append(proc)
        return proc

    def died(proc, i):  # the worker ended without a whole result for task i
        with contextlib.suppress(BrokenPipeError):
            proc.stdin.close()  # a worker still running ends at end of input
        results[i] = (f"worker exited with code {proc.wait()}", None, None, None)
        if pending:
            idle.append(start())

    try:
        idle = [start() for _ in range(n_workers)]
        running = {}  # worker stdout fd -> (worker, task index)
        while pending or running:
            while idle and pending:
                proc, i = idle.pop(), pending.popleft()
                try:
                    pickle.dump(tasks[i], proc.stdin)
                    proc.stdin.flush()
                except BrokenPipeError:
                    died(proc, i)
                    continue
                running[proc.stdout.fileno()] = (proc, i)
            ready, _, _ = select.select(list(running), [], [])
            for fd in ready:
                proc, i = running.pop(fd)
                try:
                    results[i] = pickle.load(proc.stdout)
                except (EOFError, pickle.UnpicklingError):  # no result, or a truncated one
                    died(proc, i)
                else:
                    idle.append(proc)
    finally:
        for proc in workers:
            proc.kill()  # idle or not, no worker has anything left to give
            proc.wait()
            proc.stdout.close()
            with contextlib.suppress(BrokenPipeError):
                proc.stdin.close()
    return results


def _serve() -> None:
    """Worker loop: each pickled task on stdin is answered with _train_cell's pickled result on stdout."""
    signal.signal(signal.SIGINT, signal.SIG_IGN)  # on Ctrl-C the parent ends its workers
    tasks = sys.stdin.buffer
    results = os.fdopen(os.dup(1), "wb")
    os.dup2(2, 1)  # anything else written to stdout goes to stderr, not into the results
    while True:
        try:
            task = pickle.load(tasks)
        except EOFError:
            return
        pickle.dump(_train_cell(task), results)
        results.flush()


def _environment() -> dict:
    """What replay depends on besides the config: the numpy version and its BLAS library and version."""
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {"numpy": np.__version__, "blas": blas.get("name", "?"), "blas_version": blas.get("version", "?")}


def _write_reports(cfg: ExperimentConfig, result: ExperimentResult, datasets: dict) -> None:
    out_dir = result.out_dir

    manifest = {
        "config": {
            "data": asdict(cfg.data),
            "split": asdict(cfg.split),
            "grid": asdict(cfg.grid),
            "model": asdict(cfg.arch),
            "training": asdict(cfg.training),
            "seed": cfg.seed,
        },
        "diagnostics": result.diagnostics,
        "environment": _environment(),
        "datasets": {str(n): counts for n, counts in datasets.items()},
        "cells": [{k: v for k, v in asdict(c).items() if k != "metrics"} for c in result.cells],
    }
    (out_dir / "manifest.json").write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")

    rows = [c.metrics.row() for c in result.cells if c.metrics is not None]
    persistence_rows = [
        {k: v for k, v in m.row().items() if k != "model"} for _, m in sorted(result.persistence.items())
    ]
    report = {
        "symbol": cfg.data.symbol,
        "cells": rows,
        "persistence": persistence_rows,
        "failed": [
            {"model": c.kind, "timesteps": c.n_timesteps, "error": c.error} for c in result.failed
        ],
    }
    (out_dir / "report.json").write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")

    lines = [f"experiment results for {cfg.data.symbol}", "", SCALED_HEADER]
    for c in result.cells:
        if c.metrics is not None:
            lines.append(c.metrics.scaled_row())
        else:
            lines.append(f"{c.kind:<12} {c.n_timesteps:>4} FAILED: {c.error}")
    lines.append("")
    for n, m in sorted(result.persistence.items()):
        lines.append(m.scaled_row())
    (out_dir / "report.txt").write_text("\n".join(lines) + "\n")
