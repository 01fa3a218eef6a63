import csv
import hashlib
import io
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from fxevent.cli import main
from fxevent.csvio import format_rows
from fxevent.dataset import (
    Dataset,
    Sample,
    apply_norm,
    build_samples,
    fit_normalizer,
    invert_target,
    load_dataset,
    save_dataset,
)
from fxevent.errors import ConfigError
from fxevent.events import assemble_sequences, crossovers, zigzag
from fxevent.indicators import ema, feature_matrix


@pytest.fixture(scope="module")
def pipeline(synth):
    fm = feature_matrix(synth)
    pivots = zigzag(synth)
    crosses = crossovers(ema(synth.closes, 5), ema(synth.closes, 20))
    sequences, _ = assemble_sequences(pivots, crosses, synth)
    return fm, sequences


class TestBuildSamples:
    def test_window_rows_match_feature_matrix(self, synth, pipeline):
        fm, sequences = pipeline
        samples, _ = build_samples(fm, sequences, 30, synth)
        retrace_at = {q.cross.index: q.retrace_index for q in sequences}
        assert len(samples) > 0
        for s in samples[:10]:
            e2 = s.e2_index
            assert s.window.shape == (30, 28)
            assert np.array_equal(s.window, fm.values[e2 - 29 : e2 + 1])
            assert np.isfinite(s.window).all()
            e3 = retrace_at[e2]
            assert s.target == synth.closes[e3] and s.e3_ts == synth.timestamps[e3]

    def test_short_history_skipped(self, synth, pipeline):
        fm, sequences = pipeline
        # a window length exceeding every crossover index forces skips
        huge_n = max(s.cross.index for s in sequences) + 2
        samples, skipped = build_samples(fm, sequences, huge_n, synth)
        assert samples == []
        assert skipped == len(sequences)

    def test_cardinality_and_order(self, synth, pipeline):
        fm, sequences = pipeline
        samples, skipped = build_samples(fm, sequences, 30, synth)
        assert len(samples) + skipped == len(sequences)
        e2s = [s.e2_index for s in samples]
        assert e2s == sorted(e2s)

    def test_boundary_one_bar_short(self, synth, pipeline):
        fm, sequences = pipeline
        # exactly at the warm-up edge: windows starting inside warmup are dropped
        first_e2 = sequences[0].cross.index
        n_exact = first_e2 - fm.warmup_len + 1
        samples_ok, _ = build_samples(fm, sequences[:1], n_exact, synth)
        samples_short, _ = build_samples(fm, sequences[:1], n_exact + 1, synth)
        assert len(samples_ok) == 1
        assert len(samples_short) == 0


def tiny_dataset(rng, n_samples=6, n=4, n_feat=3):
    samples = []
    for i in range(n_samples):
        window = rng.normal(loc=2.0, scale=1.5, size=(n, n_feat))
        samples.append(Sample(window, float(rng.normal(1.1, 0.05)), 100 + i, 1000 + i, 2000 + i))
    return Dataset(tuple(samples), n, "train")


class TestNormalizer:
    def test_constant_column_guarded(self, rng):
        ds = tiny_dataset(rng)
        windows = [s.window.copy() for s in ds.samples]
        for w in windows:
            w[:, 1] = 7.0
        samples = tuple(
            Sample(w, s.target, s.e2_index, s.e2_ts, s.e3_ts)
            for w, s in zip(windows, ds.samples)
        )
        with pytest.warns(UserWarning, match="constant feature"):
            stats = fit_normalizer(Dataset(samples, ds.n_timesteps, "train"))
        assert stats.feature_mean[1] == 7.0
        assert stats.feature_std[1] == 1.0

    def test_applied_train_set_is_standardized(self, rng):
        ds = tiny_dataset(rng, n_samples=12)
        stats = fit_normalizer(ds)
        normed = apply_norm(ds, stats)
        rows = normed.windows().reshape(-1, 3)
        assert np.max(np.abs(rows.mean(axis=0))) < 1e-9
        assert np.max(np.abs(rows.std(axis=0) - 1.0)) < 1e-9
        assert abs(normed.targets().mean()) < 1e-9

    @pytest.mark.parametrize("n_samples", [1, 40])
    def test_applied_windows_are_read_only_views_of_one_block(self, rng, n_samples):
        stats = fit_normalizer(tiny_dataset(rng, n_samples=12))
        ds = tiny_dataset(rng, n_samples=n_samples)
        normed = apply_norm(ds, stats)
        block = normed.samples[0].window.base
        assert isinstance(block, np.ndarray) and block.shape == (n_samples, 4, 3)
        assert not block.flags.writeable
        for s, raw in zip(normed.samples, ds.samples):
            assert s.window.base is block
            assert not s.window.flags.writeable
            assert s.window.tobytes() == ((raw.window - stats.feature_mean) / stats.feature_std).tobytes()

    def test_hand_computed_two_samples(self):
        w1 = np.array([[1.0, 2.0], [3.0, 4.0]])
        w2 = np.array([[5.0, 6.0], [7.0, 8.0]])
        ds = Dataset(
            (Sample(w1, 10.0, 0, 0, 1), Sample(w2, 20.0, 2, 2, 3)), 2, "train"
        )
        stats = fit_normalizer(ds)
        assert stats.feature_mean.tolist() == [4.0, 5.0]
        assert np.allclose(stats.feature_std, np.sqrt([5.0, 5.0]))
        assert stats.target_mean == 15.0
        assert stats.target_std == 5.0

    def test_empty_dataset_rejected(self):
        with pytest.raises(ConfigError, match="a dataset needs at least one sample"):
            fit_normalizer(Dataset((), 4, "train"))

    def test_round_trip(self, rng):
        ds = tiny_dataset(rng)
        stats = fit_normalizer(ds)
        for y in (1.2345, 0.9, 1.0001):
            assert invert_target((y - stats.target_mean) / stats.target_std, stats) == pytest.approx(y, rel=1e-12)

    def test_identity_parameters(self, rng):
        from fxevent.dataset import NormStats

        stats = NormStats(np.zeros(3), np.ones(3), 0.0, 1.0)
        ds = tiny_dataset(rng)
        normed = apply_norm(ds, stats)
        for a, b in zip(normed.samples, ds.samples):
            assert np.array_equal(a.window, b.window)
            assert a.target == b.target

    def test_train_only_stats_leakage_guard(self, rng):
        # stats fitted before the test set exists cannot depend on it: transforming
        # the same test sample under stats from two different train sets differs,
        # while the stats object itself is frozen and hash-identified
        train_a = tiny_dataset(rng)
        train_b = tiny_dataset(rng)
        stats_a, stats_b = fit_normalizer(train_a), fit_normalizer(train_b)
        assert stats_a.fingerprint != stats_b.fingerprint
        test_ds = tiny_dataset(rng, n_samples=3)
        na = apply_norm(test_ds, stats_a)
        nb = apply_norm(test_ds, stats_b)
        assert not np.array_equal(na.samples[0].window, nb.samples[0].window)
        assert na.norm_fingerprint == stats_a.fingerprint
        with pytest.raises(ValueError):
            stats_a.feature_mean[0] = 99.0  # frozen arrays

    def test_fingerprint_hashed_once_per_stats(self, rng, monkeypatch):
        stats = fit_normalizer(tiny_dataset(rng))
        digest = hashlib.sha256()
        for part in (stats.feature_mean, stats.feature_std, np.float64(stats.target_mean),
                     np.float64(stats.target_std)):
            digest.update(part.tobytes())
        made = []
        sha256 = hashlib.sha256
        monkeypatch.setattr(hashlib, "sha256", lambda: made.append(1) or sha256())
        for _ in range(2):
            assert stats.fingerprint == digest.hexdigest()[:16]
        assert len(made) == 1  # the second read hashed nothing

    def test_metrics_equal_in_raw_space(self, rng):
        # dual path: metrics on inverted predictions == metrics computed rawly
        from fxevent.metrics import mae, mape, mse

        ds = tiny_dataset(rng, n_samples=10)
        stats = fit_normalizer(ds)
        raw_true = ds.targets()
        raw_pred = raw_true + rng.normal(0, 0.01, size=len(raw_true))
        norm_pred = (raw_pred - stats.target_mean) / stats.target_std
        recovered = invert_target(norm_pred, stats)
        assert mse(raw_true, recovered) == pytest.approx(mse(raw_true, raw_pred), rel=1e-12)
        assert mae(raw_true, recovered) == pytest.approx(mae(raw_true, raw_pred), rel=1e-12)
        assert mape(raw_true, recovered) == pytest.approx(mape(raw_true, raw_pred), rel=1e-12)


class TestSerialization:
    def test_round_trip(self, rng, tmp_path, synth, ):
        fm = feature_matrix(synth)
        pivots = zigzag(synth)
        crosses = crossovers(ema(synth.closes, 5), ema(synth.closes, 20))
        sequences, _ = assemble_sequences(pivots, crosses, synth)
        samples, _ = build_samples(fm, sequences[:12], 30, synth)
        ds = Dataset(tuple(samples), 30, "train", feature_names=fm.columns)
        prefix = tmp_path / "ds"
        save_dataset(ds, prefix)
        back = load_dataset(prefix)
        assert len(back) == len(ds)
        assert back.n_timesteps == 30
        assert back.feature_names == fm.columns
        for a, b in zip(back.samples, ds.samples):
            assert np.array_equal(a.window, b.window)
            assert a.target == b.target
            assert (a.e2_ts, a.e3_ts) == (b.e2_ts, b.e3_ts)
            assert a.e2_index == -1  # indices are not wire format

    def test_header_carries_feature_names(self, rng, tmp_path):
        ds = tiny_dataset(rng)
        ds = Dataset(ds.samples, ds.n_timesteps, ds.role, feature_names=("a", "b", "c"))
        save_dataset(ds, tmp_path / "x")
        header = (tmp_path / "x_windows.csv").read_text().splitlines()[0]
        assert header == "sample_id,timestep,a,b,c"
        targets_header = (tmp_path / "x_targets.csv").read_text().splitlines()[0]
        assert targets_header == "sample_id,e2_ts,e3_ts,target"


    def test_golden_bytes(self, tmp_path):
        ds = Dataset(
            (
                Sample(np.array([[0.1, -2.5e-300], [1e16, 3.0]]), 1.1, 5, 1000, 2000),
                Sample(np.array([[-0.0, 123.456], [7.0, 1 / 3]]), 0.86, 6, 1900, 3800),
            ),
            2,
            "train",
            feature_names=("a", "b"),
        )
        save_dataset(ds, tmp_path / "g")
        assert (tmp_path / "g_windows.csv").read_bytes() == (
            b"sample_id,timestep,a,b\r\n"
            b"0,0,0.1,-2.5e-300\r\n"
            b"0,1,1e+16,3.0\r\n"
            b"1,0,-0.0,123.456\r\n"
            b"1,1,7.0,0.3333333333333333\r\n"
        )
        assert (tmp_path / "g_targets.csv").read_bytes() == (
            b"sample_id,e2_ts,e3_ts,target\r\n"
            b"0,1000,2000,1.1\r\n"
            b"1,1900,3800,0.86\r\n"
        )

    @settings(max_examples=40)
    @given(
        windows=st.integers(1, 4).flatmap(
            lambda n: arrays(np.float64, st.tuples(st.just(n), st.integers(1, 3), st.integers(0, 3)),
                             elements=st.floats(allow_nan=False, allow_infinity=False))
        ),
        targets=st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=4, max_size=4),
    )
    def test_round_trip_is_bitwise(self, tmp_path_factory, windows, targets):
        samples = tuple(Sample(w, targets[i], -1, i, 2 * i) for i, w in enumerate(windows))
        prefix = tmp_path_factory.mktemp("rt") / "ds"
        save_dataset(Dataset(samples, windows.shape[1], "train"), prefix)
        back = load_dataset(prefix)
        assert back.windows().tobytes() == windows.tobytes()
        assert back.targets().tobytes() == np.array(targets[: len(windows)]).tobytes()
        assert [(s.e2_ts, s.e3_ts) for s in back.samples] == [(i, 2 * i) for i in range(len(windows))]

    @settings(max_examples=60)
    @given(
        values=arrays(np.float64, st.tuples(st.integers(0, 4), st.integers(0, 4))),
        blank=st.booleans(),
    )
    def test_rows_match_csv_writer(self, values, blank):
        out = io.StringIO(newline="")
        writer = csv.writer(out)
        for i, row in enumerate(values):
            cells = ["" if blank and not np.isfinite(v) else repr(float(v)) for v in row]
            writer.writerow([i, *cells])
        assert format_rows(range(len(values)), values, blank_nonfinite=blank) == out.getvalue()

    def test_missing_target_row_names_file(self, rng, tmp_path):
        save_dataset(tiny_dataset(rng, n_samples=3), tmp_path / "m")
        path = tmp_path / "m_targets.csv"
        lines = path.read_text().splitlines(keepends=True)
        path.write_text("".join(lines[:2] + lines[3:]))  # drop sample 1
        with pytest.raises(ConfigError, match=re.escape(f"{path}: line 3 holds sample 2, expected sample 1")):
            load_dataset(tmp_path / "m")
        path.write_text("".join(lines[:3]))  # drop sample 2, the last
        with pytest.raises(ConfigError, match=re.escape(f"{path}: no row for sample 2")):
            load_dataset(tmp_path / "m")

    def test_shuffled_rows_rejected(self, rng, tmp_path):
        # save_dataset writes samples and timesteps in order; no other order is read
        save_dataset(tiny_dataset(rng, n_samples=5), tmp_path / "s")
        path = tmp_path / "s_windows.csv"
        header, *body = path.read_text().splitlines(keepends=True)
        body[5], body[9] = body[9], body[5]  # sample 1 timestep 1 and sample 2 timestep 1
        path.write_text(header + "".join(body))
        with pytest.raises(ConfigError, match=re.escape(
            f"{path}: line 7 holds sample 2 timestep 1, expected sample 1 timestep 1"
        )):
            load_dataset(tmp_path / "s")

    def test_sample_ids_from_one_rejected(self, rng, tmp_path):
        save_dataset(tiny_dataset(rng, n_samples=3), tmp_path / "o")
        for name in ("windows", "targets"):
            path = tmp_path / f"o_{name}.csv"
            path.write_text(re.sub(r"(?m)^(\d+),", lambda m: f"{int(m[1]) + 1},", path.read_text()))
        with pytest.raises(ConfigError, match=re.escape(
            f"{tmp_path / 'o_windows.csv'}: line 2 holds sample 1 timestep 0, expected sample 0 timestep 0"
        )):
            load_dataset(tmp_path / "o")

    def test_extra_target_row_names_file_and_line(self, rng, tmp_path):
        save_dataset(tiny_dataset(rng, n_samples=3), tmp_path / "e")
        path = tmp_path / "e_targets.csv"
        path.write_text(path.read_text() + "3,1003,2003,1.1\r\n")
        with pytest.raises(ConfigError, match=re.escape(
            f"{path}: line 5 holds sample 3, expected the end of the file"
        ) + "$"):
            load_dataset(tmp_path / "e")

    @pytest.mark.parametrize("name, line, value", [("windows", 3, "nan"), ("targets", 2, "inf")])
    def test_non_finite_value_names_file(self, rng, tmp_path, name, line, value):
        save_dataset(tiny_dataset(rng, n_samples=3), tmp_path / "n")
        path = tmp_path / f"n_{name}.csv"
        lines = path.read_text().splitlines(keepends=True)
        lines[line - 1] = lines[line - 1].rsplit(",", 1)[0] + f",{value}\n"
        path.write_text("".join(lines))
        with pytest.raises(ConfigError, match=f"n_{name}.csv: non-finite"):
            load_dataset(tmp_path / "n")

    @pytest.mark.parametrize(
        "row, error",
        [
            ("1,1001,2001", "malformed row at line 3: the dtype passed requires 4 columns but 3 were found"),
            ("1,1001,2001,abc", "malformed row at line 3: could not convert string 'abc' to float64, column 4."),
            ("x1,1001,2001,1.1", "malformed row at line 3: could not convert string 'x1' to int64, column 1."),
            ("0,1001,2001,1.1", "line 3 holds sample 0, expected sample 1"),  # a second row for sample 0
            ("3,1001,2001,1.1", "line 3 holds sample 3, expected sample 1"),  # a sample without windows
        ],
        # the reasons the row loop once gave, which name the cases
        ids=["1,1001,2001-not enough values", "1,1001,2001,abc-'abc'", "x1,1001,2001,1.1-'x1'",
             "0,1001,2001,1.1-holds sample 0, expected sample 1", "3,1001,2001,1.1-holds sample 3, expected sample 1"],
    )
    def test_malformed_target_row_names_file_and_line(self, rng, tmp_path, capsys, row, error):
        save_dataset(tiny_dataset(rng, n_samples=3), tmp_path / "t")
        path = tmp_path / "t_targets.csv"
        lines = path.read_text().splitlines(keepends=True)
        lines[2] = row + "\r\n"
        path.write_text("".join(lines))
        message = f"{path}: {error}"
        with pytest.raises(ConfigError, match=re.escape(message) + "$"):
            load_dataset(tmp_path / "t")
        assert main(["train", "--dataset", str(tmp_path / "t"), "--out", str(tmp_path / "m.txt")]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"

    @pytest.mark.parametrize("cut", ["row", "field", "last"])
    def test_ragged_windows_name_file(self, rng, tmp_path, cut):
        save_dataset(tiny_dataset(rng, n_samples=3), tmp_path / "r")
        path = tmp_path / "r_windows.csv"
        lines = path.read_text().splitlines(keepends=True)
        if cut == "row":
            del lines[5]  # sample 1 loses one of its four timesteps
            message = re.escape(f"{path}: line 6 holds sample 1 timestep 1, expected sample 1 timestep 0")
        elif cut == "field":
            lines[5] = lines[5].rsplit(",", 1)[0] + "\n"
            message = re.escape(f"{path}: malformed row at line 6: the number of columns changed from 5 to 4")
        else:
            del lines[-1]  # the last sample loses its last timestep
            message = re.escape(f"{path}: line 13 is missing, expected sample 2 timestep 3")
        path.write_text("".join(lines))
        with pytest.raises(ConfigError, match=message):
            load_dataset(tmp_path / "r")

    def test_windows_without_timestep_column_rejected(self, rng, tmp_path, capsys):
        save_dataset(tiny_dataset(rng, n_samples=1), tmp_path / "k")
        path = tmp_path / "k_windows.csv"
        path.write_text("sample_id\r\n0\r\n0\r\n")
        assert main(["train", "--dataset", str(tmp_path / "k"), "--out", str(tmp_path / "m.txt")]) == 2
        assert capsys.readouterr().err == f"error: {path} holds no samples\n"

    @pytest.mark.parametrize(
        "line, column, value, fault, error",
        [
            (2, 0, "0.7", "sample_id or timestep not a 64-bit integer in row [0.7, 0.0]",
             "holds sample 0.7 timestep 0, expected sample 0 timestep 0"),
            (3, 1, "1.5", "sample_id or timestep not a 64-bit integer in row [0.0, 1.5]",
             "holds sample 0 timestep 1.5, expected sample 0 timestep 1"),
            (2, 0, "1e300", "sample_id or timestep not a 64-bit integer in row [1e+300, 0.0]",
             "holds sample 1e+300 timestep 0, expected sample 0 timestep 0"),
            (3, 1, "0", "sample 0 does not hold timesteps 0..3 once each",  # repeated
             "holds sample 0 timestep 0, expected sample 0 timestep 1"),
            (6, 1, "-1", "sample 1 does not hold timesteps 0..3 once each",  # negative
             "holds sample 1 timestep -1, expected sample 1 timestep 0"),
        ],
    )
    def test_misnumbered_windows_name_file(self, rng, tmp_path, line, column, value, fault, error):
        # `fault` says what the edit breaks; `error` is what the message says of the edited line
        save_dataset(tiny_dataset(rng, n_samples=3), tmp_path / "w")
        path = tmp_path / "w_windows.csv"
        lines = path.read_text().splitlines(keepends=True)
        cells = lines[line - 1].split(",")
        cells[column] = value
        lines[line - 1] = ",".join(cells)
        path.write_text("".join(lines))
        with pytest.raises(ConfigError, match=re.escape(f"{path}: line {line} {error}")):
            load_dataset(tmp_path / "w")

    @pytest.mark.parametrize(
        "blank_after, line, edit, error",
        [
            (2, 5, lambda cells: [cells[0], "7", *cells[2:]],
             "line 5 holds sample 0 timestep 7, expected sample 0 timestep 2"),
            (None, 6, lambda cells: cells[:-1], "malformed row at line 6: the number of columns changed from 5 to 4"),
            (2, 7, lambda cells: cells[:-1], "malformed row at line 7: the number of columns changed from 5 to 4"),
            (2, 5, lambda cells: [*cells[:2], "abc", *cells[3:]],
             "malformed row at line 5: could not convert string 'abc' to float64, column 3."),
            (2, 4, lambda cells: ["#" + cells[0], *cells[1:]],
             "malformed row at line 4: could not convert string '#0' to float64, column 1."),
        ],
        ids=["misplaced", "short", "short_after_blank", "not_a_number", "comment"],
    )
    def test_windows_error_names_file_line(self, rng, tmp_path, blank_after, line, edit, error):
        # np.loadtxt skips the blank line, and numbers the rows it reads from 0 or 1
        save_dataset(tiny_dataset(rng, n_samples=3), tmp_path / "b")
        path = tmp_path / "b_windows.csv"
        lines = path.read_text().splitlines()
        if blank_after:
            lines.insert(blank_after, "")
        lines[line - 1] = ",".join(edit(lines[line - 1].split(",")))
        path.write_text("\r\n".join([*lines, ""]))
        with pytest.raises(ConfigError, match=re.escape(f"{path}: {error}") + "$"):
            load_dataset(tmp_path / "b")


    @settings(max_examples=40)
    @given(
        windows=st.integers(1, 4).flatmap(
            lambda n: arrays(np.float64, st.tuples(st.just(n), st.integers(1, 3), st.integers(0, 3)),
                             elements=st.floats(allow_nan=False, allow_infinity=False))
        ),
        eol=st.sampled_from(["\n", "\r\n"]),
        data=st.data(),
    )
    def test_blank_lines_and_line_ends_load_bitwise(self, tmp_path_factory, windows, eol, data):
        samples = tuple(Sample(w, float(i) / 3, -1, i, 2 * i) for i, w in enumerate(windows))
        prefix = tmp_path_factory.mktemp("bl") / "ds"
        save_dataset(Dataset(samples, windows.shape[1], "train"), prefix)
        for name in ("windows", "targets"):
            path = Path(f"{prefix}_{name}.csv")
            header, *rows = path.read_text().splitlines()
            blanks = data.draw(st.lists(st.integers(0, len(rows)), max_size=5))
            for i in sorted(blanks, reverse=True):
                rows.insert(i, "")
            path.write_bytes(eol.join([header, *rows, ""]).encode())
        back = load_dataset(prefix)
        assert back.windows().tobytes() == windows.tobytes()
        assert back.targets().tobytes() == np.array([float(i) / 3 for i in range(len(windows))]).tobytes()
        assert [(s.e2_ts, s.e3_ts) for s in back.samples] == [(i, 2 * i) for i in range(len(windows))]

    # each numpy message form a reader can meet, with a blank line before the
    # bad row: numpy counts a conversion error's row from 0 and the others' from 1
    @pytest.mark.parametrize(
        "at, edit, reason",
        [
            (1, lambda cells: [*cells[:3], "abc", *cells[4:]], "could not convert string 'abc' to float64, column 4."),
            (0, lambda cells: [*cells[:3], "abc", *cells[4:]], "could not convert string 'abc' to float64, column 4."),
            (1, lambda cells: cells[:-1], "the number of columns changed from 5 to 4"),
            (1, lambda cells: [*cells, "1.0"], "the number of columns changed from 5 to 6"),
        ],
        ids=["convert", "convert_first", "short", "long"],
    )
    def test_windows_numpy_message_forms_name_the_line(self, rng, tmp_path, at, edit, reason):
        save_dataset(tiny_dataset(rng, n_samples=2), tmp_path / "f")
        path = tmp_path / "f_windows.csv"
        lines = path.read_text().splitlines()
        lines[1 + at : 2 + at] = ["", ",".join(edit(lines[1 + at].split(",")))]
        path.write_text("\n".join([*lines, ""]))
        with pytest.raises(ConfigError, match=re.escape(f"{path}: malformed row at line {at + 3}: {reason}") + "$"):
            load_dataset(tmp_path / "f")

    @pytest.mark.parametrize(
        "at, row, reason",
        [
            (1, "1,1001,2001,abc", "could not convert string 'abc' to float64, column 4."),
            (1, "1,1001,x,1.1", "could not convert string 'x' to int64, column 3."),
            (0, "0,1001,x,1.1", "could not convert string 'x' to int64, column 3."),
            (1, "1,1001,2001", "the dtype passed requires 4 columns but 3 were found"),
            (0, "0,1001,2001", "the dtype passed requires 4 columns but 3 were found"),
            (1, "1,1001,2001,1.1,7", "the dtype passed requires 4 columns but 5 were found"),
        ],
        ids=["convert_float", "convert_int", "convert_first", "short", "short_first", "long"],
    )
    def test_targets_numpy_message_forms_name_the_line(self, rng, tmp_path, at, row, reason):
        save_dataset(tiny_dataset(rng, n_samples=3), tmp_path / "g")
        path = tmp_path / "g_targets.csv"
        lines = path.read_text().splitlines()
        lines[1 + at : 2 + at] = ["", row]
        path.write_text("\n".join([*lines, ""]))
        with pytest.raises(ConfigError, match=re.escape(f"{path}: malformed row at line {at + 3}: {reason}") + "$"):
            load_dataset(tmp_path / "g")


class TestDatasetInvariants:
    def test_window_immutable(self, rng):
        ds = tiny_dataset(rng)
        with pytest.raises(ValueError):
            ds.samples[0].window[0, 0] = 5.0

    def test_mismatched_window_length_rejected(self, rng):
        s = Sample(np.zeros((3, 2)), 1.0, 0, 0, 1)
        with pytest.raises(ConfigError):
            Dataset((s,), 4, "train")
