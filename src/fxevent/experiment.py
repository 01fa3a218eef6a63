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
from .nn.models import _CELLS, ModelConfig, predict, save_model, train

_KIND_CODES = {"rnn": 1, "lstm": 2, "bilstm": 3, "gru": 4}


def cell_seed(global_seed: int, kind: str, n_timesteps: int) -> int:
    """Per-cell seed independent of grid composition: SeedSequence((seed, kind, n))."""
    ss = np.random.SeedSequence((global_seed, _KIND_CODES[kind], n_timesteps))
    return int(ss.generate_state(1)[0])


def resolve_cutoff(series: CandleSeries, cfg: ExperimentConfig) -> int:
    if cfg.split.cutoff is not None:
        return int(cfg.split.cutoff)
    frac = cfg.split.cutoff_fraction
    idx = min(len(series) - 1, max(0, int(len(series) * frac)))
    return int(series.timestamps[idx])


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


def detect_events(
    series: CandleSeries,
    zigzag: ev_mod.ZigZagParams,
    fast: int,
    slow: int,
    retrace: ev_mod.RetraceParams,
) -> tuple[list, list, list, ev_mod.SequenceDiagnostics]:
    """(pivots, crossovers, sequences, diagnostics): ZigZag pivots, the crossovers
    of the `fast`- and `slow`-period close EMAs, and the setups assembled from them."""
    pivots = ev_mod.zigzag(series, zigzag)
    crosses = ev_mod.crossovers(ema(series.closes, fast), ema(series.closes, slow))
    sequences, diags = ev_mod.assemble_sequences(pivots, crosses, series, retrace)
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
    if cfg.data.source == "csv":
        return load_csv(cfg.data.csv_path, cfg.data.symbol, cfg.data.pip_size)
    return synthetic_series(cfg.data.synth_seed, cfg.data.synth_n, cfg.regime, cfg.data.symbol)


def run_experiment(cfg: ExperimentConfig) -> ExperimentResult:
    cfg.validate()
    out_dir = Path(cfg.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    result = ExperimentResult(out_dir=out_dir)

    series = _load_series(cfg)
    cutoff = resolve_cutoff(series, cfg)
    features = feature_matrix(series, cfg.indicators)
    _, _, sequences, diags = detect_events(
        series, cfg.zigzag, cfg.events.cross_fast, cfg.events.cross_slow, cfg.retrace
    )
    if cfg.events.causal_filter:
        sequences = ev_mod.filter_causal(sequences, diags)

    result.diagnostics = {
        "bars": len(series),
        "cutoff": cutoff,
        "pivots": diags.pivots,
        "pivots_unmatched": diags.pivots_unmatched,
        "eligible_crossovers": diags.eligible_crossovers,
        "no_retracement": diags.no_retracement,
        "sequences": len(sequences),
        "dropped_noncausal": diags.dropped_noncausal,
    }

    per_n: dict[int, dict] = {}
    for n in sorted(set(cfg.grid.timesteps)):
        samples, skipped = ds_mod.build_samples(features, sequences, n, series)
        train_samples = tuple(s for s in samples if s.e2_ts < cutoff)
        test_samples = tuple(s for s in samples if s.e2_ts >= cutoff)
        entry = {"skipped": skipped, "train": len(train_samples), "test": len(test_samples)}
        if not train_samples or not test_samples:
            entry["error"] = (
                f"n={n}: degenerate split (train={len(train_samples)}, test={len(test_samples)})"
            )
            per_n[n] = entry
            continue
        train_ds = ds_mod.Dataset(train_samples, n, "train", feature_names=features.columns)
        test_ds = ds_mod.Dataset(test_samples, n, "test", feature_names=features.columns)
        stats = ds_mod.fit_normalizer(train_ds)
        entry.update(
            train_ds=ds_mod.apply_norm(train_ds, stats),
            test_ds=ds_mod.apply_norm(test_ds, stats),
            stats=stats,
            true=test_ds.targets(),
            test_raw=test_ds,
        )
        persist = baseline_persistence(test_ds, series)
        result.persistence[n] = MetricsReport.compute("persistence", n, entry["true"], persist)
        per_n[n] = entry

    runnable = []  # (cell, entry, task) for every cell that trains
    for kind in cfg.grid.kinds:
        for n in cfg.grid.timesteps:
            seed = cell_seed(cfg.seed, kind, n)
            cell = CellResult(kind=kind, n_timesteps=n, seed=seed)
            result.cells.append(cell)
            entry = per_n[n]
            if "error" in entry:
                cell.error = entry["error"]
                continue
            try:
                mc = ModelConfig(
                    kind=kind,
                    n_timesteps=n,
                    input_dim=len(features.columns),
                    layers=cfg.arch.layers,
                    hidden=cfg.arch.hidden,
                    seed=seed,
                )
            except ConfigError as exc:
                cell.error = f"{type(exc).__name__}: {exc}"
                continue
            task = (entry["train_ds"], entry["test_ds"], entry["stats"], mc, cfg.training,
                    cfg.arch.val_fraction, cfg.save_models)
            runnable.append((cell, entry, task))

    outcomes = _run_cells([task for _, _, task in runnable])
    for (cell, entry, _), (error, report, pred, model) in zip(runnable, outcomes):
        cell.error = error
        if error is not None:
            continue
        try:
            cell.metrics = MetricsReport.compute(cell.kind, cell.n_timesteps, entry["true"], pred)
            cell.best_epoch = report.best_epoch
            cell.epochs_run = report.epochs_run
            stem = f"{cell.kind}_{cell.n_timesteps}"
            emit_predictions(
                entry["test_raw"].samples, entry["true"], pred, out_dir / f"predictions_{stem}.csv"
            )
            _write_train_report(report, out_dir / f"train_report_{stem}.json")
            if cfg.save_models:
                models_dir = out_dir / "models"
                models_dir.mkdir(exist_ok=True)
                save_model(model, models_dir / f"{stem}.model.txt")
        except Exception as exc:  # isolate the failing grid cell
            cell.error = f"{type(exc).__name__}: {exc}"

    _write_reports(cfg, result, per_n)
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


def _write_train_report(report, path) -> None:
    # wall time deliberately excluded: emitted files must be replay-identical
    payload = {
        "train_losses": report.train_losses,
        "val_losses": report.val_losses,
        "best_epoch": report.best_epoch,
        "epochs_run": report.epochs_run,
    }
    Path(path).write_text(json.dumps(payload, indent=2) + "\n")


def _environment() -> dict:
    """What replay depends on besides the config: the numpy version and its BLAS library."""
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {"numpy": np.__version__, "blas": blas.get("name", "?")}


def _write_reports(cfg: ExperimentConfig, result: ExperimentResult, per_n: dict) -> None:
    out_dir = result.out_dir

    manifest = {
        "config": {
            "data": asdict(cfg.data),
            "regime": asdict(cfg.regime),
            "split": asdict(cfg.split),
            "indicators": asdict(cfg.indicators),
            "zigzag": asdict(cfg.zigzag),
            "events": asdict(cfg.events),
            "retracement": asdict(cfg.retrace),
            "grid": asdict(cfg.grid),
            "model": asdict(cfg.arch),
            "training": asdict(cfg.training),
            "seed": cfg.seed,
        },
        "diagnostics": result.diagnostics,
        "environment": _environment(),
        "datasets": {
            str(n): {k: v for k, v in entry.items() if k in ("skipped", "train", "test", "error")}
            for n, entry in per_n.items()
        },
        "cells": [
            {
                "kind": c.kind,
                "n_timesteps": c.n_timesteps,
                "seed": c.seed,
                "error": c.error,
                "best_epoch": c.best_epoch,
                "epochs_run": c.epochs_run,
            }
            for c in result.cells
        ],
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
