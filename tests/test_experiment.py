import argparse
import configparser
import csv
import io
import json
import os
import re
import warnings
from dataclasses import asdict, fields, is_dataclass
from pathlib import Path

import numpy as np
import pytest

from fxevent import config as config_mod
from fxevent import experiment
from fxevent.cli import build_parser, main
from fxevent.config import (
    DataConfig,
    ExperimentConfig,
    GridConfig,
    ModelArch,
    SplitConfig,
    example_config,
    load_config,
    write_example,
)
from fxevent.dataset import Dataset, Sample, load_dataset, load_stats
from fxevent.errors import ConfigError
from fxevent.events import TROUGH
from fxevent.experiment import (
    baseline_persistence,
    cell_seed,
    detect_events,
    emit_predictions,
    resolve_cutoff,
    run_experiment,
)
from fxevent.market_data import load_csv
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

    @pytest.mark.parametrize("kind, code", [("rnn", 1), ("lstm", 2), ("bilstm", 3), ("gru", 4)])
    def test_kind_codes(self, kind, code):
        # the codes every seed, output tree and bench reference curve was made with
        assert cell_seed(42, kind, 30) == int(np.random.SeedSequence((42, code, 30)).generate_state(1)[0])

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
        s = Sample(rng.normal(size=(4, 3)), 1.0, -1, 0, 1)
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
            abs(synth.closes[q.cross.index] - synth.closes[q.retrace_index])
            for q in seqs
            if q.cross.index in kept
        ]
        assert pers_mae == pytest.approx(np.mean(depths), rel=1e-12)
        assert pers_mae > 0


class TestEmitPredictions:
    def test_columns_and_consistency(self, tmp_path, rng):
        samples = tuple(
            Sample(rng.normal(size=(3, 2)), 1.1, i, 1000 + i, 2000 + i) for i in range(5)
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
            Sample(rng.normal(size=(3, 2)), 1.1, i, 10**9 + i, 10**9 + 60 * i) for i in range(200)
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
            Sample(rng.normal(size=(3, 2)), 1.1, i, 1000 + i, 2000 + i) for i in range(50)
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

    @pytest.mark.parametrize(
        "section, key, value, match",
        [
            ("training", "batch_size", 0, r"training: batch_size must be >= 1, got 0"),
            ("grid", "kinds", ("lstm", "lstm"), r"grid: kinds lists a value more than once"),
        ],
    )
    def test_config_edited_in_place_rejected_before_any_cell(
        self, tmp_path, monkeypatch, section, key, value, match
    ):
        cfg = fast_config(tmp_path)
        setattr(getattr(cfg, section), key, value)
        monkeypatch.setattr(experiment, "_run_cells", lambda tasks: pytest.fail("cells ran"))
        with pytest.raises(ConfigError, match=match):
            run_experiment(cfg)
        assert getattr(getattr(cfg, section), key) == value
        assert not Path(cfg.out_dir).exists()

    def test_manifest_records_seeds_and_diagnostics(self, tmp_path):
        cfg = fast_config(tmp_path)
        run_experiment(cfg)
        manifest = json.loads((Path(cfg.out_dir) / "manifest.json").read_text())
        assert manifest["cells"][0]["seed"] == cell_seed(42, "lstm", 30)
        diag = manifest["diagnostics"]
        assert diag["emitted" if "emitted" in diag else "sequences"] >= 1
        assert diag["eligible_crossovers"] == diag["sequences"] + diag["no_retracement"]
        assert manifest["config"]["training"]["max_epochs"] == 4
        # the replay's bits depend on the BLAS build as well as on its name
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        assert manifest["environment"] == {"numpy": np.__version__, "blas": blas["name"],
                                           "blas_version": blas["version"]}

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
        assert len(trees[0]) == 8 * 4 + 3  # predictions, train report, model and stats per cell; 3 reports
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
        cfg.split.cutoff_fraction = 0.8
        cutoff = resolve_cutoff(synth, cfg)
        assert cutoff == int(synth.timestamps[4000])


ALL_KEYS = """\
[data]
csv = x.csv
symbol = EURUSD
pip_size = 1e-2
seed = 3
n = 1234
[split]
cutoff_fraction = 0.7
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


def float_keys():
    """(section, key) for every key whose field holds a float."""
    cfg = ExperimentConfig()
    for section, (attr, keys) in config_mod._SECTIONS.items():
        target = getattr(cfg, attr) if attr else cfg
        for key, name in keys.items():
            if isinstance(getattr(target, name), float):
                yield pytest.param(section, key, id=f"{section}.{key}")


def float_flags():
    """(command, flag) for every CLI flag whose default is a float."""
    commands = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    for command, parser in commands.choices.items():
        for action in parser._actions:
            if isinstance(action.default, float):
                yield pytest.param(command, action.option_strings[-1], id=f"{command} {action.option_strings[-1]}")


class TestConfigFile:
    def test_example_round_trips(self, tmp_path):
        path = tmp_path / "config.example"
        write_example(path)
        assert asdict(load_config(path)) == asdict(ExperimentConfig())

    def test_example_lists_every_key(self):
        parser = configparser.ConfigParser(inline_comment_prefixes=(";", "#"))
        parser.read_string(example_config())
        listed = {(s, k) for s in parser.sections() for k in parser[s]}
        accepted = {(s, k) for s, (_, keys) in config_mod._SECTIONS.items() for k in keys}
        assert listed == accepted
        assert not any(re.match(r"#\s*\w+ =", line) for line in example_config().splitlines())

    def test_example_notes_name_keys(self):
        # a note cannot outlive its key
        accepted = {f"{s}.{k}" for s, (_, keys) in config_mod._SECTIONS.items() for k in keys}
        assert set(config_mod._NOTES) <= accepted
        printed = [line.split(" ; ", 1)[1] for line in example_config().splitlines() if " ; " in line]
        assert sorted(printed) == sorted(config_mod._NOTES.values())

    def test_every_field_has_exactly_one_key(self):
        # a field no key reaches is a setting only code can change; it belongs in a constant
        reached = [(attr, name) for attr, keys in config_mod._SECTIONS.values() for name in keys.values()]
        cfg = ExperimentConfig()
        settable = []
        for f in fields(cfg):
            section = getattr(cfg, f.name)
            if is_dataclass(section):
                settable += [(f.name, sub.name) for sub in fields(section)]
            else:
                settable.append((None, f.name))
        assert sorted(reached, key=str) == sorted(settable, key=str)

    def test_every_default_has_a_type_the_reader_parses(self):
        # `_parse` reads a str, int, float or bool by its type and a tuple as a comma list of its
        # first element's type, unchecked for finiteness: a float list or a default of any other
        # type (None, say) would need a branch of its own
        cfg = ExperimentConfig()
        for section, (attr, keys) in config_mod._SECTIONS.items():
            target = getattr(cfg, attr) if attr else cfg
            for key, name in keys.items():
                default = getattr(target, name)
                if isinstance(default, tuple):
                    assert {type(v) for v in default} in ({str}, {int}), f"{section}.{key}"
                else:
                    assert type(default) in (str, int, float, bool), f"{section}.{key}"

    def test_readme_config_summary_matches_key_table(self):
        # README states the key and section counts and lists the sections by hand
        readme = " ".join((Path(__file__).parents[1] / "README.md").read_text().split())
        found = re.search(r"(\d+) keys in (\d+) sections, (.*?)\. ", readme)
        assert found, "README lost its '<n> keys in <m> sections, ...' sentence"
        keys, sections, listed = found.groups()
        assert int(keys) == sum(len(k) for _, k in config_mod._SECTIONS.values())
        assert int(sections) == len(config_mod._SECTIONS)
        assert re.findall(r"`\[(\w+)\]`", listed) == list(config_mod._SECTIONS)

    def test_data_pip_size_is_the_synthetic_unit(self, tmp_path):
        # the series starts at 11000 pips, so a JPY-sized pip gives the default series x 100
        path = tmp_path / "cfg.ini"
        path.write_text("[data]\npip_size = 1e-2\n")
        series = experiment._load_series(load_config(path))
        default = experiment._load_series(ExperimentConfig())
        assert series.pip_size == 0.01
        assert np.max(np.abs(series.closes / 1e-2 - default.closes / 1e-4)) < 1e-9

    def test_data_pip_size_too_large_for_start_price(self, tmp_path, capsys):
        # a JPY-sized pip once drove the 1.10 start through zero; the start is now in pips, so the run completes
        path = tmp_path / "cfg.ini"
        path.write_text(f"[data]\npip_size = 1e-2\n[grid]\nkinds = rnn\ntimesteps = 30\n[model]\nhidden = 4\n"
                        f"[training]\nmax_epochs = 1\n[output]\ndir = {tmp_path / 'out'}\n")
        assert main(["experiment", "--config", str(path)]) == 0
        assert capsys.readouterr().err == ""
        assert json.loads((tmp_path / "out" / "manifest.json").read_text())["config"]["data"]["pip_size"] == 0.01

    @pytest.mark.parametrize("body", [None, "timestamp,open,high,low,close\n60,1.1,1.0,1.1,1.1\n"])
    def test_bad_csv_exits_2_before_any_output(self, tmp_path, capsys, body):
        series_csv = tmp_path / "series.csv"
        if body is not None:  # a bar whose high is below its open
            series_csv.write_text(body)
        path = tmp_path / "cfg.ini"
        path.write_text(f"[data]\ncsv = {series_csv}\n[output]\ndir = {tmp_path / 'out'}\n")
        assert main(["experiment", "--config", str(path)]) == 2
        assert str(series_csv) in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_every_key_sets_its_field(self, tmp_path):
        path = tmp_path / "cfg.ini"
        path.write_text(ALL_KEYS)
        expected = ExperimentConfig(
            data=DataConfig("x.csv", "EURUSD", 1e-2, 3, 1234),
            split=SplitConfig(0.7),
            grid=GridConfig(("lstm", "gru"), (20,)),
            arch=ModelArch(1, 16, 0.2),
            training=TrainHyper(lr=0.01, batch_size=16, max_epochs=7, patience=3, clip_norm=1.0),
            out_dir="somewhere",
            seed=9,
            save_models=True,
        )
        assert asdict(load_config(path)) == asdict(expected)

    @pytest.mark.parametrize(
        "text, match",
        [
            ("[grdi]\nkinds = lstm\n", r"unknown section \[grdi\]"),
            # an older config may still hold one of these sections
            ("[events]\ncausal_filter = false\n", r"unknown section \[events\], expected one of data, "),
            ("[indicators]\nmacd_fast = 12\n", r"unknown section \[indicators\], expected one of data, "),
            ("[zigzag]\ndepth = 12\n", r"unknown section \[zigzag\], expected one of data, "),
            ("[crossover]\nfast = 5\n", r"unknown section \[crossover\], expected one of data, "),
            ("[retracement]\nlookahead = 60\n", r"unknown section \[retracement\], expected one of data, "),
            ("[regime]\nleg_len = 36,62\n", r"unknown section \[regime\], expected one of data, "),
            ("[training]\nmax_epoch = 5\n", r"\[training\] unknown key 'max_epoch'"),
            ("[training]\nlr = fast\n", r"\[training\] lr: "),
            ("[output]\nsave_models = maybe\n", r"\[output\] save_models: "),
            ("[grid]\ntimesteps = 30,x\n", r"\[grid\] timesteps: "),
            ("[split]\ncutoff_fraction =\n", r"\[split\] cutoff_fraction: "),
            ("[training]\nbatch_size = 0\n", r"\[training\] batch_size must be >= 1"),
            ("[training]\nmax_epochs = 0\n", r"\[training\] max_epochs must be >= 1"),
            ("[training]\nlr = 0\n", r"\[training\] lr must be > 0"),
            ("[model]\nhidden = 0\n", r"\[model\] layers and hidden must be >= 1"),
            ("[model]\nlayers = 0\n", r"\[model\] layers and hidden must be >= 1"),
            ("[model]\nval_fraction = 1.5\n", r"\[model\] val_fraction must be in \[0, 1\)"),
            ("[grid]\ntimesteps = 0\n", r"\[grid\] timesteps must all be >= 1"),
            ("[grid]\nkinds = lstm,lstm\n", r"\[grid\] kinds lists a value more than once"),
            ("[grid]\ntimesteps = 30,30\n", r"\[grid\] timesteps lists a value more than once"),
            ("[grid]\nkinds =\n", r"\[grid\] kinds and timesteps must each name at least one value"),
            ("[data]\nn = 0\n", r"\[data\] n must be >= 1, got 0"),
            ("[data]\npip_size = 0\n", r"\[data\] pip_size must be > 0, got 0.0"),
            # removed keys: the CSV is used when `csv` is set, and `cutoff_fraction` is the only split
            ("[data]\nsource = csv\n", r"\[data\] unknown key 'source', expected one of csv, "),
            ("[split]\ncutoff = 0\n", r"\[split\] unknown key 'cutoff', expected one of cutoff_fraction$"),
            ("[split]\ncutoff_fraction = 1.5\n", r"\[split\] cutoff_fraction must be in \(0, 1\), got 1.5"),
            ("[training]\npatience = -1\n", r"\[training\] patience must be >= 0, got -1"),
            ("[training]\nclip_norm = -1\n", r"\[training\] clip_norm must be >= 0, got -1.0"),
        ],
    )
    def test_bad_input_names_file_section_and_key(self, tmp_path, capsys, text, match):
        path = tmp_path / "bad.ini"
        path.write_text(text)
        with pytest.raises(ConfigError, match=re.escape(str(path)) + ": " + match):
            load_config(path)
        assert main(["experiment", "--config", str(path), "--out-dir", str(tmp_path / "out")]) == 2
        assert re.match(f"error: {re.escape(str(path))}: {match}", capsys.readouterr().err)
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("bad", ["nan", "inf"])
    @pytest.mark.parametrize("section, key", float_keys())
    def test_non_finite_float_names_file_section_and_key(self, tmp_path, section, key, bad):
        path = tmp_path / "bad.ini"
        path.write_text(f"[{section}]\n{key} = {bad}\n")
        match = f"{re.escape(str(path))}: \\[{section}\\] {key}: not a finite number: '{bad}'$"
        with pytest.raises(ConfigError, match=match):
            load_config(path)

    def test_overrides(self, tmp_path):
        path = tmp_path / "cfg.ini"
        path.write_text(
            "[grid]\nkinds = lstm\ntimesteps = 30\n"
            "[model]\nhidden = 9\n"
            "[split]\ncutoff_fraction = 0.6\n"
            "[run]\nseed = 5\n"
        )
        cfg = load_config(path)
        assert cfg.grid.kinds == ("lstm",)
        assert cfg.arch.hidden == 9
        assert cfg.split.cutoff_fraction == 0.6
        assert cfg.seed == 5

    def test_bad_kind_rejected(self, tmp_path):
        path = tmp_path / "cfg.ini"
        path.write_text("[grid]\nkinds = transformer\n")
        with pytest.raises(ConfigError, match=r"\[grid\] unknown kind in \('transformer',\)"):
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
        capsys.readouterr()
        assert main([
            "dataset", "--csv", str(series_csv), "--timesteps", "20",
            "--out", str(tmp_path / "ds"),
        ]) == 0
        header = (tmp_path / "e.csv").read_text().splitlines()[0]
        assert header == "kind,index,timestamp,price,direction"
        assert re.fullmatch(rf"wrote \d+ samples \(\d+ skipped\) to {re.escape(str(tmp_path))}/ds_windows\.npy / "
                            rf"{re.escape(str(tmp_path))}/ds_targets\.npy\n", capsys.readouterr().out)
        assert (tmp_path / "ds_windows.npy").exists()
        assert (tmp_path / "ds_targets.npy").exists()

    def test_events_retracement_rows(self, tmp_path, capsys):
        series_csv = tmp_path / "series.csv"
        main(["synth", "--seed", "7", "--n", "3000", "--out", str(series_csv)])
        assert main(["events", "--csv", str(series_csv), "--out", str(tmp_path / "e.csv")]) == 0
        series = load_csv(series_csv, DataConfig.symbol)
        _, _, sequences, _ = detect_events(series)
        with open(tmp_path / "e.csv", newline="") as fh:
            rows = [row for row in csv.DictReader(fh) if row["kind"] == "retracement"]
        assert len(rows) == len(sequences) > 0
        for row, seq in zip(rows, sequences):
            index = int(row["index"])
            assert index == seq.retrace_index
            assert row["price"] == repr(float(series.closes[index]))
            assert (row["direction"] == "up") == (seq.pivot.kind == TROUGH)
            assert row["direction"] in ("up", "down")

    @pytest.mark.parametrize("entry", ["run", "data", "synth", "train"])
    def test_negative_seed_exits_2_before_any_output(self, tmp_path, capsys, entry):
        out = tmp_path / "out"
        message = "seed must be >= 0, got -1"
        if entry in ("run", "data"):
            path = tmp_path / "cfg.ini"
            path.write_text(f"[{entry}]\nseed = -1\n[output]\ndir = {out}\n")
            argv = ["experiment", "--config", str(path)]
            message = f"{path}: [{entry}] {message}"
        elif entry == "synth":
            argv = ["synth", "--seed", "-1", "--out", str(out)]
        else:
            main(["synth", "--seed", "3", "--n", "1500", "--out", str(tmp_path / "series.csv")])
            main(["dataset", "--csv", str(tmp_path / "series.csv"), "--timesteps", "20",
                  "--out", str(tmp_path / "ds")])
            capsys.readouterr()
            argv = ["train", "--dataset", str(tmp_path / "ds"), "--seed", "-1", "--out", str(out)]
        assert main(argv) == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()

    @pytest.mark.parametrize("bad", ["nan", "inf"])
    @pytest.mark.parametrize("command, flag", float_flags())
    def test_non_finite_float_flag_exits_2(self, capsys, command, flag, bad):
        with pytest.raises(SystemExit) as exc:
            main([command, f"{flag}={bad}"])
        assert exc.value.code == 2
        assert f"argument {flag}: invalid finite_float value: '{bad}'" in capsys.readouterr().err

    def test_readme_float_flags_match_parser(self):
        # README lists the float flags by hand
        readme = " ".join((Path(__file__).parents[1] / "README.md").read_text().split())
        found = re.search(r"Every float flag \((.*?)\)", readme)
        assert found, "README lost its 'Every float flag (...)' sentence"
        listed = re.findall(r"`(--[\w-]+)`", found.group(1))
        assert sorted(listed) == sorted({param.values[1] for param in float_flags()})

    def test_train_then_evaluate(self, tmp_path):
        series_csv = tmp_path / "series.csv"
        main(["synth", "--seed", "3", "--n", "2000", "--out", str(series_csv)])
        main(["dataset", "--csv", str(series_csv), "--timesteps", "16",
              "--out", str(tmp_path / "ds")])
        model_path = tmp_path / "m.model.npz"
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
        series_csv = tmp_path / "series.csv"
        assert main(["synth", "--seed", "3", "--n", "1500", "--out", str(series_csv)]) == 0
        out.write_text(re.sub(r"(?m)^csv = ", f"csv = {series_csv} ", out.read_text()))
        cfg = load_config(out)
        assert cfg.data.csv_path == str(series_csv)
        assert len(experiment._load_series(cfg)) == 1500

    def test_error_exit_code(self, tmp_path, capsys):
        assert main(["features", "--csv", str(tmp_path / "missing.csv"),
                     "--out", str(tmp_path / "f.csv")]) == 2

    def test_missing_dataset_exit_code(self, tmp_path, capsys):
        assert main(["train", "--dataset", str(tmp_path / "missing"), "--out", str(tmp_path / "m.txt")]) == 2
        assert capsys.readouterr().err.startswith("error: ")

    def test_missing_model_exit_code(self, tmp_path, capsys):
        model_path = tmp_path / "missing.model.npz"
        assert main(["evaluate", "--model", str(model_path), "--dataset", str(tmp_path / "ds"),
                     "--out-dir", str(tmp_path / "eval")]) == 2
        assert capsys.readouterr().err == f"error: [Errno 2] No such file or directory: '{model_path}'\n"

    @pytest.mark.parametrize("flag, match", [("--batch-size", "batch_size"), ("--epochs", "max_epochs")])
    def test_train_rejects_zero_setting(self, tmp_path, capsys, flag, match):
        series_csv = tmp_path / "series.csv"
        main(["synth", "--seed", "3", "--n", "2000", "--out", str(series_csv)])
        main(["dataset", "--csv", str(series_csv), "--timesteps", "16", "--out", str(tmp_path / "ds")])
        capsys.readouterr()
        model_path = tmp_path / "m.model.npz"
        assert main(["train", "--dataset", str(tmp_path / "ds"), flag, "0", "--out", str(model_path)]) == 2
        assert capsys.readouterr().err.startswith(f"error: {match} must be >= 1, got 0")
        assert not model_path.exists()

    @pytest.mark.parametrize(
        "command, flag, value",
        [
            ("events", "--depth", "12"),
            ("events", "--deviation-pips", "5.0"),
            ("events", "--backstep", "3"),
            ("events", "--fast", "5"),
            ("events", "--slow", "20"),
            ("dataset", "--fast", "5"),
            ("dataset", "--slow", "20"),
        ],
    )
    def test_removed_event_flag_exits_2(self, tmp_path, capsys, command, flag, value):
        # the event definition is fixed: a script that still sets it stops, even at the old default
        series_csv = tmp_path / "series.csv"
        main(["synth", "--seed", "3", "--n", "1500", "--out", str(series_csv)])
        capsys.readouterr()
        out = tmp_path / "out"
        with pytest.raises(SystemExit) as exc:
            main([command, "--csv", str(series_csv), flag, value, "--out", str(out)])
        assert exc.value.code == 2
        assert f"unrecognized arguments: {flag} {value}" in capsys.readouterr().err
        assert not list(tmp_path.glob("out*"))

    @pytest.mark.parametrize(
        "command, flag, value",
        [
            ("synth", "--trend", "up"),
            ("synth", "--noise-pips", "0.25"),
            ("evaluate", "--stats", "m.model.stats.json"),
        ],
    )
    def test_removed_flag_exits_2(self, tmp_path, capsys, command, flag, value):
        # the generator is fixed, and evaluate always reads <model>.stats.json
        out = tmp_path / "out"
        argv = (["synth", "--out", str(out)] if command == "synth" else
                ["evaluate", "--model", "m.model.npz", "--dataset", "ds", "--out-dir", str(out)])
        with pytest.raises(SystemExit) as exc:
            main([*argv, flag, value])
        assert exc.value.code == 2
        assert f"unrecognized arguments: {flag} {value}" in capsys.readouterr().err
        assert not out.exists()

    def test_stage_commands_see_the_experiment_events(self, tmp_path):
        series_csv = tmp_path / "series.csv"
        main(["synth", "--seed", "7", "--n", "2600", "--out", str(series_csv)])
        cfg_path = tmp_path / "cfg.ini"
        cfg_path.write_text(
            f"[data]\ncsv = {series_csv}\nsymbol = EURGBP\n"
            "[grid]\nkinds = rnn\ntimesteps = 30\n"
            "[model]\nhidden = 4\n"
            "[training]\nmax_epochs = 1\n"
            f"[output]\ndir = {tmp_path / 'exp'}\n"
        )
        assert main(["experiment", "--config", str(cfg_path)]) == 0
        assert main(["events", "--csv", str(series_csv), "--out", str(tmp_path / "e.csv")]) == 0
        assert main(["dataset", "--csv", str(series_csv), "--timesteps", "30", "--out", str(tmp_path / "ds")]) == 0
        manifest = json.loads((tmp_path / "exp" / "manifest.json").read_text())
        assert manifest["diagnostics"]["bars"] == 2600  # a set `csv` alone selects the file
        assert json.loads((tmp_path / "exp" / "report.json").read_text())["symbol"] == "EURGBP"
        with open(tmp_path / "e.csv", newline="") as fh:
            retracements = sum(row["kind"] == "retracement" for row in csv.DictReader(fh))
        assert retracements == manifest["diagnostics"]["sequences"] > 0
        counts = manifest["datasets"]["30"]
        assert len(load_dataset(tmp_path / "ds")) == counts["train"] + counts["test"]

    def test_stats_feature_count_mismatch(self, tmp_path, capsys):
        series_csv = tmp_path / "series.csv"
        main(["synth", "--seed", "3", "--n", "2000", "--out", str(series_csv)])
        main(["dataset", "--csv", str(series_csv), "--timesteps", "16", "--out", str(tmp_path / "ds")])
        model_path = tmp_path / "m.model.npz"
        main(["train", "--dataset", str(tmp_path / "ds"), "--kind", "rnn", "--hidden", "4",
              "--epochs", "1", "--out", str(model_path)])
        stats_path = tmp_path / "m.model.stats.json"
        stats_path.write_text(json.dumps(
            {"feature_mean": [0.0] * 5, "feature_std": [1.0] * 5, "target_mean": 1.1, "target_std": 0.01}
        ))
        capsys.readouterr()
        assert main(["evaluate", "--model", str(model_path),
                     "--dataset", str(tmp_path / "ds"), "--out-dir", str(tmp_path / "eval")]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {stats_path}: ")
        assert "5 feature means" in err and "28 features" in err

    def test_window_shape_mismatch_names_both_files(self, tmp_path, capsys):
        series_csv = tmp_path / "series.csv"
        main(["synth", "--seed", "3", "--n", "2000", "--out", str(series_csv)])
        for t in (10, 12):
            main(["dataset", "--csv", str(series_csv), "--timesteps", str(t), "--out", str(tmp_path / f"ds{t}")])
        model_path = tmp_path / "m.model.npz"
        main(["train", "--dataset", str(tmp_path / "ds10"), "--kind", "rnn", "--hidden", "4",
              "--epochs", "1", "--out", str(model_path)])
        capsys.readouterr()
        assert main(["evaluate", "--model", str(model_path), "--dataset", str(tmp_path / "ds12"),
                     "--out-dir", str(tmp_path / "eval")]) == 2
        assert capsys.readouterr().err == (f"error: {tmp_path / 'ds12'}_windows.npy holds windows of 12 timesteps "
                                           f"x 28 features, but {model_path} expects 10 x 28\n")
        assert not (tmp_path / "eval").exists()

    def test_stats_checked_against_model_before_normalizing(self, tmp_path, capsys):
        series_csv = tmp_path / "series.csv"
        main(["synth", "--seed", "3", "--n", "2000", "--out", str(series_csv)])
        main(["dataset", "--csv", str(series_csv), "--timesteps", "16", "--out", str(tmp_path / "ds")])
        model_path = tmp_path / "m.model.npz"
        main(["train", "--dataset", str(tmp_path / "ds"), "--kind", "rnn", "--hidden", "4",
              "--epochs", "1", "--out", str(model_path)])
        stats_path = tmp_path / "m.model.stats.json"
        stats = json.loads(stats_path.read_text())
        stats["feature_std"][0] *= 2.0
        stats_path.write_text(json.dumps(stats))
        capsys.readouterr()
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # a numpy warning from normalizing would raise here
            assert main(["evaluate", "--model", str(model_path),
                         "--dataset", str(tmp_path / "ds"), "--out-dir", str(tmp_path / "eval")]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {stats_path}: stats ")
        assert f"do not match {model_path}" in err

    def test_saved_grid_model_evaluates(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.ini"
        cfg_path.write_text(
            "[data]\nn = 2600\n"
            "[grid]\nkinds = lstm\ntimesteps = 20\n"
            "[model]\nhidden = 4\n"
            "[training]\nmax_epochs = 1\n"
            f"[output]\ndir = {tmp_path / 'out'}\nsave_models = true\n"
        )
        assert main(["experiment", "--config", str(cfg_path)]) == 0
        models = tmp_path / "out" / "models"
        assert sorted(p.name for p in models.iterdir()) == ["lstm_20.model.npz", "lstm_20.model.stats.json"]
        series_csv = tmp_path / "series.csv"
        main(["synth", "--n", "2600", "--out", str(series_csv)])
        main(["dataset", "--csv", str(series_csv), "--timesteps", "20", "--out", str(tmp_path / "ds")])
        assert main(["evaluate", "--model", str(models / "lstm_20.model.npz"),
                     "--dataset", str(tmp_path / "ds"), "--out-dir", str(tmp_path / "eval")]) == 0
        assert json.loads((tmp_path / "eval" / "metrics.json").read_text())["model"] == "lstm"

    # file text -> the message after "<path>: "; a file that parses but breaks a
    # NormStats rule reports the rule alone, not as a parse failure
    BAD_STATS = {
        '{"feature_mean": [0.0], "target_mean": 1.1, "target_std": 0.01}':
            "malformed stats file (KeyError: 'feature_std')",
        "{not json":
            "malformed stats file (JSONDecodeError: Expecting property name enclosed in double quotes: "
            "line 1 column 2 (char 1))",
        '{"feature_mean": [0.0], "feature_std": [1.0], "target_mean": "x", "target_std": 0.01}':
            "malformed stats file (ValueError: could not convert string to float: 'x')",
        '{"feature_mean": [0.0], "feature_std": 1.0, "target_mean": 1.1, "target_std": 0.01}':
            "malformed stats file (TypeError: iteration over a 0-d array)",
        '{"feature_mean": [0.0], "feature_std": [1.0], "target_mean": 1.1, "target_std": NaN}':
            "stats hold a non-finite value",
        '{"feature_mean": [0.0, 0.0], "feature_std": [0.0, 0.0], "target_mean": 1.1, "target_std": 0.01}':
            "stats hold a standard deviation that is not positive",
        '{"feature_mean": [0.0], "feature_std": [1.0], "target_mean": 1.1, "target_std": -0.01}':
            "stats hold a standard deviation that is not positive",
    }

    @pytest.mark.parametrize("text", list(BAD_STATS))
    def test_malformed_stats_names_file(self, tmp_path, text):
        path = tmp_path / "m.stats.json"
        path.write_text(text)
        with pytest.raises(ConfigError) as info:
            load_stats(path)
        assert str(info.value) == f"{path}: {self.BAD_STATS[text]}"

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

    def test_degenerate_split_manifest_holds_counts_and_error(self, tmp_path):
        cfg_path = tmp_path / "cfg.ini"
        cfg_path.write_text(
            "[data]\nn = 2600\n"
            "[grid]\nkinds = rnn\ntimesteps = 20,2500\n"  # 2500 cannot window
            "[model]\nhidden = 6\n"
            "[training]\nmax_epochs = 1\n"
            f"[output]\ndir = {tmp_path / 'out'}\n"
        )
        assert main(["experiment", "--config", str(cfg_path)]) == 1
        datasets = json.loads((tmp_path / "out" / "manifest.json").read_text())["datasets"]
        assert sorted(datasets["2500"]) == ["error", "skipped", "test", "train"]
        assert datasets["2500"]["error"].startswith("n=2500: degenerate split")
        assert sorted(datasets["20"]) == ["skipped", "test", "train"]
