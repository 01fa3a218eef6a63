"""Command-line interface driving the pipeline stage by stage or end to end."""

from __future__ import annotations

import argparse
import csv
import json
import sys
from pathlib import Path

import numpy as np

from . import dataset as ds_mod
from . import events as ev_mod
from .config import DataConfig, EventConfig, ModelArch, load_config, write_example
from .errors import ConfigError, DataError
from .experiment import detect_events, emit_predictions, run_experiment
from .indicators import IndicatorParams, feature_matrix, save_features_csv
from .market_data import DEFAULT_PIP_SIZE, RegimeParams, load_csv, save_csv, synthetic_series
from .metrics import MetricsReport
from .nn.models import KINDS, ModelConfig, TrainHyper, load_model, predict, save_model, train


def _add_series_args(p):
    p.add_argument("--csv", required=True, help="input candle CSV (timestamp,open,high,low,close)")
    p.add_argument("--symbol", default=DataConfig.symbol)
    p.add_argument("--pip-size", type=float, default=DEFAULT_PIP_SIZE)


def _load_series(args):
    return load_csv(args.csv, args.symbol, args.pip_size)


def cmd_synth(args):
    regime = RegimeParams()
    if args.trend != regime.trend or args.noise_pips is not None:
        regime = RegimeParams(
            trend=args.trend,
            noise_pips=regime.noise_pips if args.noise_pips is None else args.noise_pips,
        )
    series = synthetic_series(args.seed, args.n, regime, args.symbol)
    save_csv(series, args.out)
    print(f"wrote {len(series)} candles to {args.out}")
    return 0


def cmd_features(args):
    series = _load_series(args)
    feats = feature_matrix(series, IndicatorParams())
    save_features_csv(series, feats, args.out)
    print(f"wrote {len(feats)} rows x {len(feats.columns)} columns to {args.out} "
          f"(warmup {feats.warmup_len})")
    return 0


def cmd_events(args):
    series = _load_series(args)
    zigzag = ev_mod.ZigZagParams(args.depth, args.deviation_pips, args.backstep)
    pivots, crosses, sequences, diags = detect_events(
        series, zigzag, args.fast, args.slow, ev_mod.RetraceParams()
    )
    with open(args.out, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["kind", "index", "timestamp", "price", "direction"])
        for p in pivots:
            writer.writerow([p.kind, p.index, int(series.timestamps[p.index]), repr(p.price), ""])
        for c in crosses:
            writer.writerow(
                ["cross", c.index, int(series.timestamps[c.index]),
                 repr(float(series.closes[c.index])), c.direction]
            )
        for s in sequences:
            writer.writerow(
                ["retracement", s.retrace_index, int(series.timestamps[s.retrace_index]),
                 repr(s.retrace_price), s.trend]
            )
    print(
        f"{diags.pivots} pivots, {len(crosses)} crossovers, {diags.emitted} sequences "
        f"({diags.no_retracement} without retracement) -> {args.out}"
    )
    return 0


def cmd_dataset(args):
    series = _load_series(args)
    feats = feature_matrix(series, IndicatorParams())
    _, _, sequences, _ = detect_events(
        series, ev_mod.ZigZagParams(), args.fast, args.slow, ev_mod.RetraceParams()
    )
    samples, skipped = ds_mod.build_samples(feats, sequences, args.timesteps, series)
    if not samples:
        print("no samples survived windowing", file=sys.stderr)
        return 1
    ds = ds_mod.Dataset(tuple(samples), args.timesteps, "train", feature_names=feats.columns)
    ds_mod.save_dataset(ds, args.out)
    print(f"wrote {len(ds)} samples ({skipped} skipped) to {args.out}_windows.csv / _targets.csv")
    return 0


def cmd_train(args):
    ds = ds_mod.load_dataset(args.dataset, role="train")
    stats = ds_mod.fit_normalizer(ds)
    normed = ds_mod.apply_norm(ds, stats)
    config = ModelConfig(
        kind=args.kind,
        n_timesteps=ds.n_timesteps,
        input_dim=ds.samples[0].window.shape[1],
        layers=args.layers,
        hidden=args.hidden,
        seed=args.seed,
    )
    hyper = TrainHyper(lr=args.lr, batch_size=args.batch_size, max_epochs=args.epochs,
                       patience=args.patience)
    model, report = train(normed, args.val_fraction, config, hyper)
    save_model(model, args.out)
    _save_stats(stats, Path(args.out).with_suffix(".stats.json"))
    print(
        f"trained {args.kind}/{ds.n_timesteps} for {report.epochs_run} epochs "
        f"(best {report.best_epoch}, {report.wall_time_s:.1f}s) -> {args.out}"
    )
    return 0


def _save_stats(stats, path):
    payload = {
        "feature_mean": list(stats.feature_mean),
        "feature_std": list(stats.feature_std),
        "target_mean": stats.target_mean,
        "target_std": stats.target_std,
    }
    Path(path).write_text(json.dumps(payload) + "\n")


def _load_stats(path):
    try:
        payload = json.loads(Path(path).read_text())
        return ds_mod.NormStats(
            np.array(payload["feature_mean"]),
            np.array(payload["feature_std"]),
            float(payload["target_mean"]),
            float(payload["target_std"]),
        )
    except (ValueError, KeyError, TypeError) as exc:
        raise ConfigError(f"{path}: malformed stats file ({type(exc).__name__}: {exc})") from None


def cmd_evaluate(args):
    model = load_model(args.model)
    stats_path = args.stats or Path(args.model).with_suffix(".stats.json")
    stats = _load_stats(stats_path)
    ds = ds_mod.load_dataset(args.dataset, role="test")
    try:
        normed = ds_mod.apply_norm(ds, stats)
    except ConfigError as exc:
        raise ConfigError(f"{stats_path}: {exc}") from None
    pred = predict(model, normed, stats)
    true = ds.targets()
    report = MetricsReport.compute(model.config.kind, ds.n_timesteps, true, pred)
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    emit_predictions(ds.samples, true, pred,
                     out_dir / f"predictions_{model.config.kind}_{ds.n_timesteps}.csv")
    (out_dir / "metrics.json").write_text(json.dumps(report.row(), indent=2, sort_keys=True) + "\n")
    print(report.scaled_row())
    return 0


def cmd_experiment(args):
    cfg = load_config(args.config)
    if args.out_dir:
        cfg.out_dir = args.out_dir
    result = run_experiment(cfg)
    for cell in result.cells:
        if cell.metrics is not None:
            print(cell.metrics.scaled_row())
    for n, m in sorted(result.persistence.items()):
        print(m.scaled_row())
    for cell in result.failed:
        print(f"FAILED {cell.kind}/{cell.n_timesteps}: {cell.error}", file=sys.stderr)
    print(f"reports in {result.out_dir}")
    return 1 if result.failed else 0


def cmd_init_config(args):
    write_example(args.out)
    print(f"wrote {args.out}")
    return 0


def build_parser():
    parser = argparse.ArgumentParser(prog="fxevent",
                                     description="event-driven forex retracement forecasting")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate a synthetic candle CSV")
    p.add_argument("--seed", type=int, default=DataConfig.synth_seed)
    p.add_argument("--n", type=int, default=DataConfig.synth_n)
    p.add_argument("--symbol", default=DataConfig.symbol)
    p.add_argument("--trend", default=RegimeParams.trend, choices=["alternate", "up", "down"])
    p.add_argument("--noise-pips", type=float, default=None)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("features", help="compute the indicator feature matrix")
    _add_series_args(p)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_features)

    p = sub.add_parser("events", help="dump pivots, crossovers and retracements")
    _add_series_args(p)
    p.add_argument("--depth", type=int, default=ev_mod.ZigZagParams.depth)
    p.add_argument("--deviation-pips", type=float, default=ev_mod.ZigZagParams.deviation_pips)
    p.add_argument("--backstep", type=int, default=ev_mod.ZigZagParams.backstep)
    p.add_argument("--fast", type=int, default=EventConfig.cross_fast)
    p.add_argument("--slow", type=int, default=EventConfig.cross_slow)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_events)

    p = sub.add_parser("dataset", help="build and serialize training windows")
    _add_series_args(p)
    p.add_argument("--timesteps", type=int, default=30)
    p.add_argument("--fast", type=int, default=EventConfig.cross_fast)
    p.add_argument("--slow", type=int, default=EventConfig.cross_slow)
    p.add_argument("--out", required=True, help="output prefix")
    p.set_defaults(func=cmd_dataset)

    p = sub.add_parser("train", help="train one model on a serialized dataset")
    p.add_argument("--dataset", required=True, help="dataset prefix from the dataset command")
    p.add_argument("--kind", default="lstm", choices=list(KINDS))
    p.add_argument("--layers", type=int, default=ModelArch.layers)
    p.add_argument("--hidden", type=int, default=ModelArch.hidden)
    p.add_argument("--seed", type=int, default=ModelConfig.seed)
    p.add_argument("--lr", type=float, default=TrainHyper.lr)
    p.add_argument("--batch-size", type=int, default=TrainHyper.batch_size)
    p.add_argument("--epochs", type=int, default=TrainHyper.max_epochs)
    p.add_argument("--patience", type=int, default=TrainHyper.patience)
    p.add_argument("--val-fraction", type=float, default=ModelArch.val_fraction)
    p.add_argument("--out", required=True, help="model file path")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("evaluate", help="evaluate a trained model on a serialized dataset")
    p.add_argument("--model", required=True)
    p.add_argument("--stats", default=None, help="stats JSON (defaults to <model>.stats.json)")
    p.add_argument("--dataset", required=True)
    p.add_argument("--out-dir", default="eval_out")
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("experiment", help="run the full grid from a config file")
    p.add_argument("--config", required=True)
    p.add_argument("--out-dir", default=None, help="override [output] dir")
    p.set_defaults(func=cmd_experiment)

    p = sub.add_parser("init-config", help="write a fully-documented config.example")
    p.add_argument("--out", default="config.example")
    p.set_defaults(func=cmd_init_config)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, DataError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
