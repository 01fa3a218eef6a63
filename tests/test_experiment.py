import configparser
import csv
import io
import json
import os
import re
from dataclasses import asdict
from pathlib import Path

import numpy as np
import pytest

from fxevent import config as config_mod
from fxevent import experiment
from fxevent.cli import _load_stats, main
from fxevent.config import (
    EXAMPLE,
    DataConfig,
    EventConfig,
    ExperimentConfig,
    GridConfig,
    ModelArch,
    SplitConfig,
    load_config,
    write_example,
)
from fxevent.dataset import Dataset, Sample
from fxevent.errors import ConfigError
from fxevent.events import RetraceParams, ZigZagParams
from fxevent.experiment import (
    baseline_persistence,
    cell_seed,
    emit_predictions,
    resolve_cutoff,
    run_experiment,
)
from fxevent.indicators import IndicatorParams
from fxevent.market_data import RegimeParams
from fxevent.nn.models import TrainHyper


def fast_config(tmp_path, kinds=("lstm",), timesteps=(30,), n=2600, max_epochs=4):
    cfg = ExperimentConfig()
    cfg.data.synth_n = n
    cfg.data.synth_seed = 7
    cfg.grid = GridConfig(kinds=tuple(kinds), timesteps=tuple(timesteps))
    cfg.arch.hidden = 8
    cfg.training.max_epochs = max_epochs
    cfg.out_dir = str(tmp_path / "out")
    return cfg


class TestCellSeed:
    def test_stable_and_distinct(self):
        a = cell_seed(42, "lstm", 30)
        assert a == cell_seed(42, "lstm", 30)
        others = {cell_seed(42, k, n) for k in ("rnn", "lstm", "bilstm", "gru") for n in (30, 60)}
        assert len(others) == 8
        assert cell_seed(43, "lstm", 30) != a

    def test_independent_of_grid_composition(self, tmp_path):
        # the same cell gets the same seed whether or not other cells run
        full = fast_config(tmp_path, kinds=("rnn", "lstm"), timesteps=(30,))
        solo = fast_config(tmp_path, kinds=("lstm",), timesteps=(30,))
        r_full = run_experiment(full)
        r_solo = run_experiment(solo)
        seed_full = next(c.seed for c in r_full.cells if c.kind == "lstm")
        assert seed_full == r_solo.cells[0].seed


class TestBaselinePersistence:
    def test_equals_crossover_close(self, synth):
        from fxevent.dataset import build_samples
        from fxevent.events import assemble_sequences, crossovers, zigzag
        from fxevent.indicators import ema, feature_matrix

        fm = feature_matrix(synth)
        seqs, _ = assemble_sequences(
            zigzag(synth), crossovers(ema(synth.closes, 5), ema(synth.closes, 20)), synth
        )
        samples, _ = build_samples(fm, seqs, 30, synth)
        ds = Dataset(tuple(samples[:10]), 30, "test")
        pred = baseline_persistence(ds, synth)
        assert pred.shape == (10,)
        for p, s in zip(pred, ds.samples):
            assert p == synth.closes[s.e2_index]

    def test_requires_indices(self, synth, rng):
        s = Sample(rng.normal(size=(4, 3)), 1.0, -1, -1, 0, 1)
        with pytest.raises(ConfigError):
            baseline_persistence(Dataset((s,), 4, "test"), synth)

    def test_mae_equals_mean_dip_depth(self, synth):
        # dual path: the generator guarantees a dip after each crossover, so the
        # persistence MAE must equal the mean |crossover close - retracement close|
        # measured directly on the event sequences
        from fxevent.dataset import build_samples
        from fxevent.events import assemble_sequences, crossovers, zigzag
        from fxevent.indicators import ema, feature_matrix
        from fxevent.metrics import mae

        fm = feature_matrix(synth)
        seqs, _ = assemble_sequences(
            zigzag(synth), crossovers(ema(synth.closes, 5), ema(synth.closes, 20)), synth
        )
        samples, _ = build_samples(fm, seqs, 30, synth)
        ds = Dataset(tuple(samples), 30, "test")
        pers_mae = mae(ds.targets(), baseline_persistence(ds, synth))
        kept = {s.e2_index for s in samples}
        depths = [
            abs(synth.closes[q.cross.index] - q.retrace_price)
            for q in seqs
            if q.cross.index in kept
        ]
        assert pers_mae == pytest.approx(np.mean(depths), rel=1e-12)
        assert pers_mae > 0


class TestEmitPredictions:
    def test_columns_and_consistency(self, tmp_path, rng):
        samples = tuple(
            Sample(rng.normal(size=(3, 2)), 1.1, i, i + 1, 1000 + i, 2000 + i) for i in range(5)
        )
        true = rng.normal(1.1, 0.01, size=5)
        pred = rng.normal(1.1, 0.01, size=5)
        path = tmp_path / "pred.csv"
        emit_predictions(samples, true, pred, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "e2_timestamp,e3_timestamp,true_price,predicted_price,abs_error,pct_error"
        assert len(lines) == 6
        for line, t, p in zip(lines[1:], true, pred):
            cols = line.split(",")
            assert float(cols[2]) == t
            assert float(cols[4]) == pytest.approx(abs(t - p), rel=1e-15)
            assert float(cols[5]) == pytest.approx(abs(t - p) / t * 100, rel=1e-15)

    def test_bytes_match_csv_writer(self, tmp_path, rng):
        samples = tuple(
            Sample(rng.normal(size=(3, 2)), 1.1, i, i + 1, 10**9 + i, 10**9 + 60 * i) for i in range(200)
        )
        true = rng.uniform(0.5, 2.0, size=200)
        pred = true + rng.normal(0.0, 0.01, size=200) * rng.integers(0, 2, size=200)  # some exact hits
        out = io.StringIO(newline="")
        writer = csv.writer(out)
        writer.writerow(
            ["e2_timestamp", "e3_timestamp", "true_price", "predicted_price", "abs_error", "pct_error"]
        )
        for s, t, p in zip(samples, true, pred):
            err = abs(float(t) - float(p))
            writer.writerow(
                [s.e2_ts, s.e3_ts, repr(float(t)), repr(float(p)), repr(err), repr(err / float(t) * 100.0)]
            )
        emit_predictions(samples, true, pred, tmp_path / "pred.csv")
        assert (tmp_path / "pred.csv").read_bytes() == out.getvalue().encode()

    def test_mape_reaggregates_from_file(self, tmp_path, rng):
        from fxevent.metrics import mape

        samples = tuple(
            Sample(rng.normal(size=(3, 2)), 1.1, i, i + 1, 1000 + i, 2000 + i) for i in range(50)
        )
        true = rng.normal(1.1, 0.01, size=50)
        pred = rng.normal(1.1, 0.01, size=50)
        path = tmp_path / "pred.csv"
        emit_predictions(samples, true, pred, path)
        pct = [float(line.split(",")[5]) for line in path.read_text().splitlines()[1:]]
        assert np.mean(pct) == pytest.approx(mape(true, pred), abs=1e-9)


class TestRunExperiment:
    def test_single_cell(self, tmp_path):
        cfg = fast_config(tmp_path)
        result = run_experiment(cfg)
        assert len(result.cells) == 1
        cell = result.cells[0]
        assert cell.error is None
        assert cell.metrics is not None
        out = Path(cfg.out_dir)
        manifest = json.loads((out / "manifest.json").read_text())
        assert cell.metrics.n == manifest["datasets"]["30"]["test"]
        assert (out / "report.json").exists()
        assert (out / "report.txt").exists()
        assert (out / "manifest.json").exists()
        assert (out / "predictions_lstm_30.csv").exists()
        assert (out / "train_report_lstm_30.json").exists()

    def test_default_grid_emits_eight_rows(self, tmp_path):
        cfg = fast_config(tmp_path, kinds=("rnn", "lstm", "bilstm", "gru"), timesteps=(30, 60),
                          max_epochs=2)
        result = run_experiment(cfg)
        assert len(result.cells) == 8
        assert all(c.error is None for c in result.cells)
        report = json.loads((Path(cfg.out_dir) / "report.json").read_text())
        assert len(report["cells"]) == 8
        pairs = {(r["model"], r["timesteps"]) for r in report["cells"]}
        assert pairs == {(k, n) for k in ("rnn", "lstm", "bilstm", "gru") for n in (30, 60)}

    def test_deterministic_outputs(self, tmp_path):
        cfg_a = fast_config(tmp_path / "a")
        cfg_b = fast_config(tmp_path / "b")
        run_experiment(cfg_a)
        run_experiment(cfg_b)
        out_a, out_b = Path(cfg_a.out_dir), Path(cfg_b.out_dir)
        files = sorted(p.name for p in out_a.iterdir())
        assert files == sorted(p.name for p in out_b.iterdir())
        for name in files:
            assert (out_a / name).read_bytes() == (out_b / name).read_bytes(), name

    def test_failed_cell_isolated(self, tmp_path):
        # timestep longer than any history forces a windowing failure in one cell
        cfg = fast_config(tmp_path, kinds=("lstm",), timesteps=(30, 2500))
        result = run_experiment(cfg)
        by_n = {c.n_timesteps: c for c in result.cells}
        assert by_n[30].error is None
        assert by_n[2500].error is not None
        assert len(result.failed) == 1

    def test_manifest_records_seeds_and_diagnostics(self, tmp_path):
        cfg = fast_config(tmp_path)
        run_experiment(cfg)
        manifest = json.loads((Path(cfg.out_dir) / "manifest.json").read_text())
        assert manifest["cells"][0]["seed"] == cell_seed(42, "lstm", 30)
        diag = manifest["diagnostics"]
        assert diag["emitted" if "emitted" in diag else "sequences"] >= 1
        assert diag["eligible_crossovers"] == diag["sequences"] + diag["no_retracement"]
        assert manifest["config"]["training"]["max_epochs"] == 4

    def test_persistence_reported(self, tmp_path):
        cfg = fast_config(tmp_path)
        result = run_experiment(cfg)
        assert 30 in result.persistence
        assert result.persistence[30].mape > 0


def tree_bytes(root):
    return {str(p.relative_to(root)): p.read_bytes() for p in sorted(Path(root).rglob("*")) if p.is_file()}


def run_on_cpus(monkeypatch, cfg, cpus):
    monkeypatch.setattr(experiment, "_usable_cpus", lambda: cpus)
    return run_experiment(cfg)


def with_task(monkeypatch, cell, index, value):
    """Replace field `index` of the task of the (kind, n_timesteps) `cell` before the cells run."""
    run_cells = experiment._run_cells

    def patched(tasks):
        return run_cells([
            t[:index] + (value,) + t[index + 1 :] if (t[3].kind, t[3].n_timesteps) == cell else t for t in tasks
        ])

    monkeypatch.setattr(experiment, "_run_cells", patched)


class _ExitOnLoad:
    """Unpickling this ends the process that unpickles it with exit code 3."""

    def __reduce__(self):
        return os._exit, (3,)


class TestWorkers:
    def test_tree_identical_for_one_and_two_workers(self, tmp_path, monkeypatch):
        trees = []
        for cpus in (1, 2):
            cfg = fast_config(tmp_path / str(cpus), kinds=("rnn", "lstm", "bilstm", "gru"),
                              timesteps=(30, 60), max_epochs=2)
            cfg.arch.hidden = 64
            cfg.save_models = True
            result = run_on_cpus(monkeypatch, cfg, cpus)
            assert not result.failed
            trees.append(tree_bytes(cfg.out_dir))
        assert len(trees[0]) == 8 * 3 + 3  # predictions, train report and model per cell; 3 reports
        assert trees[0].keys() == trees[1].keys()
        for name in trees[0]:
            assert trees[0][name] == trees[1][name], name

    def test_cell_error_same_in_worker_as_in_process(self, tmp_path, monkeypatch):
        with_task(monkeypatch, ("gru", 30), 5, 1.5)  # val_fraction out of range: train raises
        errors = []
        for cpus in (1, 2):
            cfg = fast_config(tmp_path / str(cpus), kinds=("rnn", "gru", "lstm"), max_epochs=1)
            result = run_on_cpus(monkeypatch, cfg, cpus)
            errors.append({c.kind: c.error for c in result.cells})
        assert errors[0] == errors[1]
        assert errors[1] == {"rnn": None, "lstm": None,
                             "gru": "ConfigError: val_fraction must be in [0, 1), got 1.5"}

    @pytest.mark.parametrize("dead", [[("lstm", 30)], [("lstm", 30), ("gru", 30)]])
    def test_dead_worker_fails_only_its_cell(self, tmp_path, monkeypatch, dead):
        for cell in dead:  # the longest cells, so every first worker can die
            with_task(monkeypatch, cell, 4, _ExitOnLoad())
        cfg = fast_config(tmp_path, kinds=("rnn", "lstm", "gru"), timesteps=(20, 30), max_epochs=1)
        result = run_on_cpus(monkeypatch, cfg, 2)
        errors = {(c.kind, c.n_timesteps): c.error for c in result.cells}
        assert [errors.pop(cell) for cell in dead] == ["worker exited with code 3"] * len(dead)
        assert set(errors.values()) == {None}
        report = json.loads((Path(cfg.out_dir) / "report.json").read_text())
        assert len(report["cells"]) == 6 - len(dead)


class TestResolveCutoff:
    def test_fraction(self, synth):
        cfg = ExperimentConfig()
        cfg.split.cutoff = None
        cfg.split.cutoff_fraction = 0.8
        cutoff = resolve_cutoff(synth, cfg)
        assert cutoff == int(synth.timestamps[4000])

    def test_explicit_wins(self, synth):
        cfg = ExperimentConfig()
        cfg.split.cutoff = 12345
        cfg.split.cutoff_fraction = None
        assert resolve_cutoff(synth, cfg) == 12345


ALL_KEYS = """\
[data]
source = csv
csv = x.csv
symbol = EURUSD
pip_size = 1e-2
seed = 3
n = 1234
[regime]
start_price = 2.5
pip = 1e-3
leg_len = 10,20
slope_pips = 1.5,3.0
notch_frac = 0.3,0.6
notch_retrace = 0.5,0.7
notch_down_bars = 2
notch_recover_bars = 4
noise_pips = 0.5
wick_pips = 0.2
trend = up
reversion_pips = 100
[split]
cutoff = 2021-01-01T00:00:00Z
[indicators]
macd_fast = 10
macd_slow = 30
macd_signal = 7
boll_window = 15
boll_k = 1.5
sma_periods = 3,6
rsi_periods = 7
adx_periods = 9, 11
wr_periods = 8
[zigzag]
depth = 8
deviation_pips = 3.5
backstep = 2
[crossover]
fast = 4
slow = 15
[events]
causal_filter = true
[retracement]
local_radius = 2
lookahead = 40
[grid]
kinds = lstm, gru
timesteps = 20
[model]
layers = 1
hidden = 16
val_fraction = 0.2
[training]
lr = 0.01
batch_size = 16
max_epochs = 7
patience = 3
clip_norm = 1.0
[output]
dir = somewhere
save_models = true
[run]
seed = 9
"""


class TestConfigFile:
    def test_example_round_trips(self, tmp_path):
        path = tmp_path / "config.example"
        write_example(path)
        assert asdict(load_config(path)) == asdict(ExperimentConfig())

    def test_example_lists_every_key(self):
        # the example's commented-out alternatives count as listed
        parser = configparser.ConfigParser(inline_comment_prefixes=(";", "#"))
        parser.read_string(re.sub(r"(?m)^# (\w+ =)", r"\1", EXAMPLE))
        listed = {(s, k) for s in parser.sections() for k in parser[s]}
        accepted = {(s, k) for s, (_, keys) in config_mod._SECTIONS.items() for k in keys}
        assert listed == accepted

    def test_every_key_sets_its_field(self, tmp_path):
        path = tmp_path / "cfg.ini"
        path.write_text(ALL_KEYS)
        expected = ExperimentConfig(
            data=DataConfig("csv", "x.csv", "EURUSD", 1e-2, 3, 1234),
            regime=RegimeParams(
                2.5, 1e-3, (10, 20), (1.5, 3.0), (0.3, 0.6), (0.5, 0.7), 2, 4, 0.5, 0.2, "up", 100.0
            ),
            split=SplitConfig(cutoff=1609459200, cutoff_fraction=None),
            indicators=IndicatorParams(10, 30, 7, 15, 1.5, (3, 6), (7,), (9, 11), (8,)),
            zigzag=ZigZagParams(8, 3.5, 2),
            events=EventConfig(4, 15, True),
            retrace=RetraceParams(2, 40),
            grid=GridConfig(("lstm", "gru"), (20,)),
            arch=ModelArch(1, 16, 0.2),
            training=TrainHyper(lr=0.01, batch_size=16, max_epochs=7, patience=3, clip_norm=1.0),
            out_dir="somewhere",
            seed=9,
            save_models=True,
        )
        assert asdict(load_config(path)) == asdict(expected)
        path.write_text(ALL_KEYS.replace("cutoff = 2021-01-01T00:00:00Z", "cutoff_fraction = 0.7"))
        assert load_config(path).split == SplitConfig(cutoff=None, cutoff_fraction=0.7)

    @pytest.mark.parametrize(
        "text, match",
        [
            ("[grdi]\nkinds = lstm\n", r"unknown section \[grdi\]"),
            ("[training]\nmax_epoch = 5\n", r"\[training\] unknown key 'max_epoch'"),
            ("[training]\nlr = fast\n", r"\[training\] lr: "),
            ("[events]\ncausal_filter = maybe\n", r"\[events\] causal_filter: "),
            ("[grid]\ntimesteps = 30,x\n", r"\[grid\] timesteps: "),
            ("[split]\ncutoff = soon\n", r"\[split\] cutoff: "),
            ("[regime]\nleg_len = 5,6,7\n", r"\[regime\] leg_len expects two values"),
            ("[training]\nbatch_size = 0\n", r"\[training\] batch_size must be >= 1"),
            ("[training]\nmax_epochs = 0\n", r"\[training\] max_epochs must be >= 1"),
            ("[training]\nlr = 0\n", r"\[training\] lr must be > 0"),
            ("[model]\nhidden = 0\n", r"\[model\] layers and hidden must be >= 1"),
            ("[model]\nlayers = 0\n", r"\[model\] layers and hidden must be >= 1"),
            ("[model]\nval_fraction = 1.5\n", r"\[model\] val_fraction must be in \[0, 1\)"),
            ("[grid]\ntimesteps = 0\n", r"\[grid\] timesteps must all be >= 1"),
            ("[grid]\nkinds = lstm,lstm\n", r"\[grid\] kinds lists a value more than once"),
            ("[grid]\ntimesteps = 30,30\n", r"\[grid\] timesteps lists a value more than once"),
        ],
    )
    def test_bad_input_names_file_section_and_key(self, tmp_path, capsys, text, match):
        path = tmp_path / "bad.ini"
        path.write_text(text)
        with pytest.raises(ConfigError, match=re.escape(str(path)) + ": " + match):
            load_config(path)
        assert main(["experiment", "--config", str(path)]) == 2
        assert capsys.readouterr().err.startswith(f"error: {path}: ")

    def test_overrides(self, tmp_path):
        path = tmp_path / "cfg.ini"
        path.write_text(
            "[grid]\nkinds = lstm\ntimesteps = 30\n"
            "[zigzag]\ndepth = 9\n"
            "[split]\ncutoff = 2020-06-01T00:00:00Z\n"
            "[run]\nseed = 5\n"
        )
        cfg = load_config(path)
        assert cfg.grid.kinds == ("lstm",)
        assert cfg.zigzag.depth == 9
        assert cfg.split.cutoff == 1590969600
        assert cfg.split.cutoff_fraction is None
        assert cfg.seed == 5

    def test_bad_kind_rejected(self, tmp_path):
        path = tmp_path / "cfg.ini"
        path.write_text("[grid]\nkinds = transformer\n")
        with pytest.raises(ConfigError):
            load_config(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError):
            load_config(tmp_path / "nope.ini")


class TestCli:
    def test_synth_features_events_dataset(self, tmp_path, capsys):
        series_csv = tmp_path / "series.csv"
        assert main(["synth", "--seed", "3", "--n", "1500", "--out", str(series_csv)]) == 0
        assert main(["features", "--csv", str(series_csv), "--out", str(tmp_path / "f.csv")]) == 0
        assert main(["events", "--csv", str(series_csv), "--out", str(tmp_path / "e.csv")]) == 0
        assert main([
            "dataset", "--csv", str(series_csv), "--timesteps", "20",
            "--out", str(tmp_path / "ds"),
        ]) == 0
        header = (tmp_path / "e.csv").read_text().splitlines()[0]
        assert header == "kind,index,timestamp,price,direction"
        assert (tmp_path / "ds_windows.csv").exists()
        assert (tmp_path / "ds_targets.csv").exists()

    def test_train_then_evaluate(self, tmp_path):
        series_csv = tmp_path / "series.csv"
        main(["synth", "--seed", "3", "--n", "2000", "--out", str(series_csv)])
        main(["dataset", "--csv", str(series_csv), "--timesteps", "16",
              "--out", str(tmp_path / "ds")])
        model_path = tmp_path / "m.model.txt"
        assert main([
            "train", "--dataset", str(tmp_path / "ds"), "--kind", "rnn", "--hidden", "6",
            "--epochs", "3", "--out", str(model_path),
        ]) == 0
        assert main([
            "evaluate", "--model", str(model_path), "--dataset", str(tmp_path / "ds"),
            "--out-dir", str(tmp_path / "eval"),
        ]) == 0
        metrics = json.loads((tmp_path / "eval" / "metrics.json").read_text())
        assert metrics["model"] == "rnn"
        assert metrics["rmse"] ** 2 == pytest.approx(metrics["mse"], rel=1e-9)

    def test_experiment_command(self, tmp_path):
        cfg_path = tmp_path / "cfg.ini"
        cfg_path.write_text(
            "[data]\nn = 2600\n"
            "[grid]\nkinds = rnn\ntimesteps = 20\n"
            "[model]\nhidden = 6\n"
            "[training]\nmax_epochs = 2\n"
            f"[output]\ndir = {tmp_path / 'out'}\n"
        )
        assert main(["experiment", "--config", str(cfg_path)]) == 0
        assert (tmp_path / "out" / "report.json").exists()

    def test_init_config(self, tmp_path):
        out = tmp_path / "config.example"
        assert main(["init-config", "--out", str(out)]) == 0
        assert load_config(out).validate() is not None

    def test_error_exit_code(self, tmp_path, capsys):
        assert main(["features", "--csv", str(tmp_path / "missing.csv"),
                     "--out", str(tmp_path / "f.csv")]) == 2

    def test_missing_dataset_exit_code(self, tmp_path, capsys):
        assert main(["train", "--dataset", str(tmp_path / "missing"), "--out", str(tmp_path / "m.txt")]) == 2
        assert capsys.readouterr().err.startswith("error: ")

    @pytest.mark.parametrize("flag, match", [("--batch-size", "batch_size"), ("--epochs", "max_epochs")])
    def test_train_rejects_zero_setting(self, tmp_path, capsys, flag, match):
        series_csv = tmp_path / "series.csv"
        main(["synth", "--seed", "3", "--n", "2000", "--out", str(series_csv)])
        main(["dataset", "--csv", str(series_csv), "--timesteps", "16", "--out", str(tmp_path / "ds")])
        capsys.readouterr()
        model_path = tmp_path / "m.model.txt"
        assert main(["train", "--dataset", str(tmp_path / "ds"), flag, "0", "--out", str(model_path)]) == 2
        assert capsys.readouterr().err.startswith(f"error: {match} must be >= 1, got 0")
        assert not model_path.exists()

    def test_stats_feature_count_mismatch(self, tmp_path, capsys):
        series_csv = tmp_path / "series.csv"
        main(["synth", "--seed", "3", "--n", "2000", "--out", str(series_csv)])
        main(["dataset", "--csv", str(series_csv), "--timesteps", "16", "--out", str(tmp_path / "ds")])
        model_path = tmp_path / "m.model.txt"
        main(["train", "--dataset", str(tmp_path / "ds"), "--kind", "rnn", "--hidden", "4",
              "--epochs", "1", "--out", str(model_path)])
        stats_path = tmp_path / "five.stats.json"
        stats_path.write_text(json.dumps(
            {"feature_mean": [0.0] * 5, "feature_std": [1.0] * 5, "target_mean": 1.1, "target_std": 0.01}
        ))
        capsys.readouterr()
        assert main(["evaluate", "--model", str(model_path), "--stats", str(stats_path),
                     "--dataset", str(tmp_path / "ds"), "--out-dir", str(tmp_path / "eval")]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {stats_path}: ")
        assert "5 feature means" in err and "28 features" in err

    @pytest.mark.parametrize(
        "text", ['{"feature_mean": [0.0], "target_mean": 1.1, "target_std": 0.01}', "{not json"]
    )
    def test_malformed_stats_names_file(self, tmp_path, text):
        path = tmp_path / "m.stats.json"
        path.write_text(text)
        with pytest.raises(ConfigError, match=re.escape(str(path))):
            _load_stats(path)

    def test_failed_cell_gives_nonzero_exit(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.ini"
        cfg_path.write_text(
            "[data]\nn = 2600\n"
            "[grid]\nkinds = rnn\ntimesteps = 20,2500\n"  # 2500 cannot window
            "[model]\nhidden = 6\n"
            "[training]\nmax_epochs = 1\n"
            f"[output]\ndir = {tmp_path / 'out'}\n"
        )
        assert main(["experiment", "--config", str(cfg_path)]) == 1
        err = capsys.readouterr().err
        assert "FAILED rnn/2500" in err
