import csv
import hashlib
import io
import pickle
import re

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


def records_of(windows, names):
    """The (N, T) records of the windows file: one little-endian float64 field per feature."""
    return np.ascontiguousarray(windows, "<f8").view(np.dtype([(n, "<f8") for n in names]))[..., 0]


TARGET_ROW = np.dtype([("e2_ts", "<i8"), ("e3_ts", "<i8"), ("target", "<f8")])  # one sample's record in the targets file


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
        names = ("a,b", 'q"x', "\xe9t\xe9")  # a comma, a quote and latin-1 letters
        ds = Dataset(ds.samples, ds.n_timesteps, ds.role, feature_names=names)
        save_dataset(ds, tmp_path / "x")
        records = np.load(tmp_path / "x_windows.npy")
        assert records.dtype.names == names and records.shape == (6, 4)
        assert records.view("<f8").reshape(6, 4, 3).tobytes() == ds.windows().tobytes()
        assert np.load(tmp_path / "x_targets.npy").dtype.names == ("e2_ts", "e3_ts", "target")

    def test_default_feature_names(self, rng, tmp_path):
        save_dataset(tiny_dataset(rng), tmp_path / "d")
        assert load_dataset(tmp_path / "d").feature_names == ("f0", "f1", "f2")

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
        header = b"{'descr': [('a', '<f8'), ('b', '<f8')], 'fortran_order': False, 'shape': (2, 2), }"
        header += b" " * (128 - 10 - 1 - len(header)) + b"\n"  # the 8 values start at byte 128, a multiple of 64
        written = (tmp_path / "g_windows.npy").read_bytes()
        assert written == b"\x93NUMPY\x01\x00" + len(header).to_bytes(2, "little") + header + ds.windows().tobytes()
        np.save(tmp_path / "s.npy", records_of(ds.windows(), ("a", "b")))
        assert written == (tmp_path / "s.npy").read_bytes()
        header = b"{'descr': [('e2_ts', '<i8'), ('e3_ts', '<i8'), ('target', '<f8')], 'fortran_order': False, "
        header += b"'shape': (2,), }"
        header += b" " * (192 - 10 - 1 - len(header)) + b"\n"  # numpy's room to grow the count, to a multiple of 64
        written = (tmp_path / "g_targets.npy").read_bytes()
        assert written == b"\x93NUMPY\x01\x00" + len(header).to_bytes(2, "little") + header + (
            np.array([1000, 2000], "<i8").tobytes() + np.float64(1.1).tobytes()
            + np.array([1900, 3800], "<i8").tobytes() + np.float64(0.86).tobytes()
        )
        np.save(tmp_path / "t.npy", np.array([(1000, 2000, 1.1), (1900, 3800, 0.86)], TARGET_ROW))
        assert written == (tmp_path / "t.npy").read_bytes()

    @settings(max_examples=40)
    @given(
        windows=st.integers(1, 4).flatmap(
            lambda n: arrays(np.float64, st.tuples(st.just(n), st.integers(1, 3), st.integers(1, 3)),
                             elements=st.floats(allow_nan=False, allow_infinity=False))
        ),
        targets=st.lists(st.floats(0.0, exclude_min=True, allow_infinity=False), min_size=4, max_size=4),  # closes
        # commas, quotes, backslashes, control and latin-1 letters, all of which the header must carry
        names=st.lists(st.text(st.characters(max_codepoint=255), min_size=1),
                       min_size=3, max_size=3, unique=True),
    )
    def test_round_trip_is_bitwise(self, tmp_path_factory, windows, targets, names):
        names = tuple(names[: windows.shape[2]])
        samples = tuple(Sample(w, targets[i], -1, i, 2 * i) for i, w in enumerate(windows))
        prefix = tmp_path_factory.mktemp("rt") / "ds"
        save_dataset(Dataset(samples, windows.shape[1], "train", feature_names=names), prefix)
        back = load_dataset(prefix)
        assert back.windows().tobytes() == windows.tobytes()
        assert back.targets().tobytes() == np.array(targets[: len(windows)]).tobytes()
        assert [(s.e2_ts, s.e3_ts) for s in back.samples] == [(i, 2 * i) for i in range(len(windows))]
        assert back.feature_names == names

    def test_loaded_windows_are_read_only_views_of_one_block(self, rng, tmp_path):
        save_dataset(tiny_dataset(rng), tmp_path / "v")
        back = load_dataset(tmp_path / "v")
        block = back.samples[0].window.base  # the array np.fromfile read
        assert block.nbytes == 6 * 4 * 3 * 8
        for s in back.samples:
            assert s.window.base is block
            assert not s.window.flags.writeable

    def test_dataset_command_twice_writes_identical_files(self, tmp_path, capsys):
        series_csv = tmp_path / "series.csv"
        assert main(["synth", "--seed", "7", "--n", "3000", "--out", str(series_csv)]) == 0
        for out in ("a", "b"):
            assert main(["dataset", "--csv", str(series_csv), "--timesteps", "20", "--out", str(tmp_path / out)]) == 0
        for name in ("windows.npy", "targets.npy"):
            assert (tmp_path / f"a_{name}").read_bytes() == (tmp_path / f"b_{name}").read_bytes(), name

    @pytest.mark.parametrize(
        "names, error",
        [
            (("a", "", "c"), "feature name '' is empty, repeated or not latin-1 text"),
            (("a", "b", "a"), "feature name 'a' is empty, repeated or not latin-1 text"),
            (("a", "b", "€"), "feature name '€' is empty, repeated or not latin-1 text"),
            (("a", "b"), "a dataset needs one name per feature: 2 names for 3 features"),
        ],
        ids=["empty", "repeated", "not_latin1", "count"],
    )
    def test_bad_feature_names_rejected_before_any_file(self, rng, tmp_path, names, error):
        ds = tiny_dataset(rng)
        ds = Dataset(ds.samples, ds.n_timesteps, ds.role, feature_names=names)
        with pytest.raises(ConfigError, match=re.escape(error) + "$"):
            save_dataset(ds, tmp_path / "n")
        assert list(tmp_path.iterdir()) == []

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

    @pytest.mark.parametrize("name, line, value, message", [
        ("windows", 3, "nan", "non-finite value in sample 0 at timestep 1, feature f2"),
        ("targets", 2, "inf", "non-finite target in sample 0"),
        ("targets", 4, "-inf", "non-finite target in sample 2"),
        ("targets", 3, "nan", "non-finite target in sample 1"),
        # a target is a close: a negative one would score a negative MAPE, a zero one an undefined MAPE
        ("targets", 3, "-1.1", "non-positive target in sample 1"),
        ("targets", 3, "0.0", "non-positive target in sample 1"),
        ("targets", 3, "-0.0", "non-positive target in sample 1"),
    ])
    def test_bad_value_names_file(self, rng, tmp_path, name, line, value, message):
        # `line` counts as the text files did: line 3 held sample 0 timestep 1 of the windows, or sample 1's target
        save_dataset(tiny_dataset(rng, n_samples=3), tmp_path / "n")
        if name == "windows":
            path = tmp_path / "n_windows.npy"
            records = np.load(path)
            records.view("<f8").reshape(3, 4, 3)[0, line - 2, -1] = float(value)  # the row's last value
            with open(path, "wb") as fh:
                np.save(fh, records)
        else:
            path = tmp_path / "n_targets.npy"
            records = np.load(path)
            records["target"][line - 2] = float(value)
            np.save(path, records)
        with pytest.raises(ConfigError, match=re.escape(f"{path}: {message}") + "$"):
            load_dataset(tmp_path / "n")

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_window_names_sample_timestep_feature(self, rng, tmp_path, value):
        ds = tiny_dataset(rng, n_samples=3)
        windows = ds.windows()
        windows[1, 2, 1] = value
        windows[2, 0, 0] = np.nan  # a later one is not the one reported
        save_dataset(Dataset(tuple(Sample(w, 1.0, -1, 0, 0) for w in windows), 4, "train",
                             feature_names=("a", "b", "c")), tmp_path / "n")
        message = f"{tmp_path / 'n_windows.npy'}: non-finite value in sample 1 at timestep 2, feature b"
        with pytest.raises(ConfigError, match=re.escape(message) + "$"):
            load_dataset(tmp_path / "n")

    def test_first_bad_target_is_the_one_named(self, rng, tmp_path):
        save_dataset(tiny_dataset(rng, n_samples=4), tmp_path / "n")
        path = tmp_path / "n_targets.npy"
        records = np.load(path)
        records["target"][1:] = [-1.0, np.nan, 0.0]  # a later non-finite or zero one is not the one reported
        np.save(path, records)
        with pytest.raises(ConfigError, match=re.escape(f"{path}: non-positive target in sample 1") + "$"):
            load_dataset(tmp_path / "n")

    @pytest.mark.parametrize("cut", ["row", "field", "last"])
    def test_ragged_windows_name_file(self, rng, tmp_path, cut):
        # the edits the text format once rejected by line, made to the binary file, which can only come up short
        save_dataset(tiny_dataset(rng, n_samples=3), tmp_path / "r")
        path = tmp_path / "r_windows.npy"
        data = path.read_bytes()
        start = len(data) - 3 * 4 * 3 * 8  # the first value
        row = start + (4 + 1) * 3 * 8  # sample 1 timestep 1
        if cut == "row":
            data = data[:row] + data[row + 3 * 8 :]  # sample 1 loses one of its four timesteps
        elif cut == "field":
            data = data[:row] + data[row + 8 :]  # sample 1 timestep 1 loses a value
        else:
            data = data[: -3 * 8]  # the last sample loses its last timestep
        path.write_bytes(data)
        with pytest.raises(ConfigError, match=re.escape(f"{path}: not a windows file (") + ".*could only read 11 "):
            load_dataset(tmp_path / "r")

    @pytest.mark.parametrize(
        "edit, error",
        [
            (lambda data, at: data[:at] + data[at + 8 :], "not a windows file (Failed to read all data for array. "
             "Expected (3, 4) = 12 elements, could only read 11 elements. (file seems not fully written?))"),
            (lambda data, at: data[:at] + data[at : at + 8] + data[at:],
             "not a windows file (bytes past its 288-byte array)"),
            (lambda data, at: data[:at] + np.float64(np.nan).tobytes() + data[at + 8 :],
             "non-finite value in sample 1 at timestep 0, feature f2"),
        ],
        ids=["short", "long", "not_a_number"],
    )
    def test_windows_error_names_file_line(self, rng, tmp_path, edit, error):
        # the text file's faults a binary file can still hold, made to the last value of sample 1 timestep 0:
        # one value lost, one value written twice (every later value shifts), and a NaN in place of a number
        save_dataset(tiny_dataset(rng, n_samples=3), tmp_path / "b")
        path = tmp_path / "b_windows.npy"
        data = path.read_bytes()
        at = len(data) - 3 * 4 * 3 * 8 + (4 * 3 + 2) * 8
        path.write_bytes(edit(data, at))
        with pytest.raises(ConfigError, match=re.escape(f"{path}: {error}") + "$"):
            load_dataset(tmp_path / "b")

    def test_windows_without_timestep_column_rejected(self, rng, tmp_path, capsys):
        # one record per sample: the file has no timestep axis
        save_dataset(tiny_dataset(rng, n_samples=1), tmp_path / "k")
        path = tmp_path / "k_windows.npy"
        with open(path, "wb") as fh:
            np.save(fh, records_of(np.zeros((3, 2)), ("a", "b")))
        assert main(["train", "--dataset", str(tmp_path / "k"), "--out", str(tmp_path / "m.txt")]) == 2
        assert capsys.readouterr().err == (
            f"error: {path}: holds an array of shape (3,) and dtype [('a', '<f8'), ('b', '<f8')], "
            "expected (samples, timesteps) records of little-endian float64 features\n"
        )

    @pytest.mark.parametrize(
        "write, found",
        [
            (lambda fh: fh.write(b"sample_id,timestep,a\r\n0,0,1.0\r\n"),
             "not a windows file (the magic string is not correct; expected b'\\x93NUMPY', got b'sample')"),
            (lambda fh: fh.write(b""), "not a windows file (EOF: reading magic string, expected 8 bytes got 0)"),
            (lambda fh: fh.write(b"\x93NUMPY\x01\x00\x76\x00{'descr': "),
             "not a windows file (EOF: reading array header, expected 118 bytes got 10)"),
            (lambda fh: np.save(fh, np.array([[1.0, None]], dtype=object)),
             "not a windows file (Object arrays cannot be loaded when allow_pickle=False)"),
            (lambda fh: pickle.dump(np.zeros((2, 2)), fh), "not a windows file (the magic string is not correct"),
            (lambda fh: np.save(fh, np.zeros((2, 3, 2))), "holds an array of shape (2, 3, 2) and dtype float64, "),
            (lambda fh: np.save(fh, records_of(np.zeros((2, 3, 2)), "ab").astype([("a", ">f8"), ("b", ">f8")])),
             "holds an array of shape (2, 3) and dtype [('a', '>f8'), ('b', '>f8')], "),
            (lambda fh: np.save(fh, np.zeros((2, 3), [("a", "<f8"), ("b", "<i8")])),
             "holds an array of shape (2, 3) and dtype [('a', '<f8'), ('b', '<i8')], "),
            (lambda fh: np.save(fh, np.zeros((2, 3), np.dtype({"names": ["a"], "formats": ["<f8"], "itemsize": 16}))),
             "holds an array of shape (2, 3) and dtype {'names': ['a'], 'formats': ['<f8'], 'offsets': [0], "
             "'itemsize': 16}, "),
            (lambda fh: np.save(fh, records_of(np.zeros((2, 3, 2, 2)), "ab")),
             "holds an array of shape (2, 3, 2) and dtype [('a', '<f8'), ('b', '<f8')], "),
            (lambda fh: np.save(fh, records_of(np.zeros((0, 3, 2)), "ab")),
             "holds an array of shape (0, 3) and dtype [('a', '<f8'), ('b', '<f8')], "),
            (lambda fh: np.save(fh, records_of(np.zeros((2, 0, 2)), "ab")),
             "holds an array of shape (2, 0) and dtype [('a', '<f8'), ('b', '<f8')], "),
        ],
        ids=["csv_text", "empty", "short_header", "object", "pickle", "plain_float64", "big_endian", "int_field",
             "padded", "3d", "no_samples", "no_timesteps"],
    )
    def test_invalid_windows_file_names_file(self, rng, tmp_path, capsys, write, found):
        save_dataset(tiny_dataset(rng, n_samples=2), tmp_path / "i")
        path = tmp_path / "i_windows.npy"
        with open(path, "wb") as fh:
            write(fh)
        with pytest.raises(ConfigError, match=re.escape(f"{path}: {found}")):
            load_dataset(tmp_path / "i")
        assert main(["train", "--dataset", str(tmp_path / "i"), "--out", str(tmp_path / "m.txt")]) == 2
        assert capsys.readouterr().err.startswith(f"error: {path}: {found}")

    def test_fortran_order_file_reads_the_same(self, rng, tmp_path):
        ds = tiny_dataset(rng, n_samples=3)
        save_dataset(ds, tmp_path / "f")
        with open(tmp_path / "f_windows.npy", "wb") as fh:
            np.save(fh, np.asfortranarray(records_of(ds.windows(), ("f0", "f1", "f2"))))
        assert load_dataset(tmp_path / "f").windows().tobytes() == ds.windows().tobytes()

    def test_missing_windows_file_not_found(self, rng, tmp_path, capsys):
        save_dataset(tiny_dataset(rng, n_samples=2), tmp_path / "w")
        (tmp_path / "w_windows.npy").unlink()
        assert main(["train", "--dataset", str(tmp_path / "w"), "--out", str(tmp_path / "m.txt")]) == 2
        assert capsys.readouterr().err == (
            f"error: [Errno 2] No such file or directory: '{tmp_path / 'w_windows.npy'}'\n"
        )

    @pytest.mark.parametrize(
        "write, found",
        [
            (lambda fh, r: fh.write(b"sample_id,e2_ts,e3_ts,target\r\n0,1000,2000,1.1\r\n"),
             "not a targets file (the magic string is not correct; expected b'\\x93NUMPY', got b'sample')"),
            (lambda fh, r: fh.write(b""), "not a targets file (EOF: reading magic string, expected 8 bytes got 0)"),
            (lambda fh, r: np.save(fh, r) or fh.write(r[:1].tobytes()),
             "not a targets file (bytes past its 72-byte array)"),
            (lambda fh, r: np.save(fh, np.array([[i, *row] for i, row in enumerate(r.tolist())])),
             "holds an array of shape (3, 4) and dtype float64, "),
            (lambda fh, r: np.save(fh, np.array([(i, *row) for i, row in enumerate(r.tolist())],
                                                [("sample_id", "<i8"), *r.dtype.descr])),
             "holds an array of shape (3,) and dtype [('sample_id', '<i8'), ('e2_ts', '<i8'), ('e3_ts', '<i8'), "
             "('target', '<f8')], "),
            (lambda fh, r: np.save(fh, r.astype([("e2_ts", ">i8"), ("e3_ts", ">i8"), ("target", ">f8")])),
             "holds an array of shape (3,) and dtype [('e2_ts', '>i8'), ('e3_ts', '>i8'), ('target', '>f8')], "),
            (lambda fh, r: np.save(fh, r[:2]), f"holds an array of shape (2,) and dtype {TARGET_ROW}, "),
            (lambda fh, r: np.save(fh, np.concatenate([r, r[-1:]])),
             f"holds an array of shape (4,) and dtype {TARGET_ROW}, "),
            (lambda fh, r: np.save(fh, r.reshape(3, 1)), f"holds an array of shape (3, 1) and dtype {TARGET_ROW}, "),
            (lambda fh, r: fh.write(b"\x93NUMPY\x01\x00\x76\x00{'descr': "),
             "not a targets file (EOF: reading array header, expected 118 bytes got 10)"),
            (lambda fh, r: np.save(fh, np.array([(1000, 2000, None)], dtype=object)),
             "not a targets file (Object arrays cannot be loaded when allow_pickle=False)"),
            (lambda fh, r: pickle.dump(r, fh), "not a targets file (the magic string is not correct"),
            (lambda fh, r: np.save(fh, r.astype([("e2_ts", "<i8"), ("e3_ts", "<i8"), ("target", "<i8")])),
             "holds an array of shape (3,) and dtype [('e2_ts', '<i8'), ('e3_ts', '<i8'), ('target', '<i8')], "),
            (lambda fh, r: np.save(fh, r.astype(np.dtype({"names": list(TARGET_ROW.names),
                                                           "formats": ["<i8", "<i8", "<f8"], "itemsize": 32}))),
             "holds an array of shape (3,) and dtype {'names': ['e2_ts', 'e3_ts', 'target'], "
             "'formats': ['<i8', '<i8', '<f8'], 'offsets': [0, 8, 16], 'itemsize': 32}, "),
            (lambda fh, r: np.save(fh, r[0]), f"holds an array of shape () and dtype {TARGET_ROW}, "),
        ],
        ids=["csv_text", "empty", "bytes_past_array", "float_table", "sample_id_field", "big_endian",
             "missing_record", "extra_record", "2d", "short_header", "object", "pickle", "int_target", "padded",
             "scalar"],
    )
    def test_invalid_targets_file_names_file(self, rng, tmp_path, capsys, write, found):
        save_dataset(tiny_dataset(rng, n_samples=3), tmp_path / "i")
        path = tmp_path / "i_targets.npy"
        records = np.load(path)
        with open(path, "wb") as fh:
            write(fh, records)
        if found.startswith("holds"):  # every layout or count but the one written is rejected the same way
            found += f"expected 3 records of {TARGET_ROW}, one per sample"
        with pytest.raises(ConfigError, match=re.escape(f"{path}: {found}")):
            load_dataset(tmp_path / "i")
        assert main(["train", "--dataset", str(tmp_path / "i"), "--out", str(tmp_path / "m.txt")]) == 2
        assert capsys.readouterr().err.startswith(f"error: {path}: {found}")

    def test_old_targets_csv_is_not_read(self, rng, tmp_path, capsys):
        # earlier versions wrote `<prefix>_targets.csv`; the dataset must be written again
        ds = tiny_dataset(rng, n_samples=2)
        save_dataset(ds, tmp_path / "o")
        (tmp_path / "o_targets.npy").unlink()
        rows = [f"{i},{s.e2_ts},{s.e3_ts},{s.target!r}\r\n" for i, s in enumerate(ds.samples)]
        (tmp_path / "o_targets.csv").write_text("sample_id,e2_ts,e3_ts,target\r\n" + "".join(rows))
        assert main(["train", "--dataset", str(tmp_path / "o"), "--out", str(tmp_path / "m.txt")]) == 2
        assert capsys.readouterr().err == (
            f"error: [Errno 2] No such file or directory: '{tmp_path / 'o_targets.npy'}'\n"
        )


class TestDatasetInvariants:
    def test_window_immutable(self, rng):
        ds = tiny_dataset(rng)
        with pytest.raises(ValueError):
            ds.samples[0].window[0, 0] = 5.0

    def test_mismatched_window_length_rejected(self, rng):
        s = Sample(np.zeros((3, 2)), 1.0, 0, 0, 1)
        with pytest.raises(ConfigError):
            Dataset((s,), 4, "train")

    def test_mismatched_feature_count_rejected(self, rng):
        # the windows file holds the windows' bytes back to back, so every window needs the same width
        samples = (Sample(np.zeros((3, 2)), 1.0, 0, 0, 1), Sample(np.zeros((3, 1)), 1.0, 1, 1, 2))
        with pytest.raises(ConfigError, match=re.escape("sample window has shape (3, 1), dataset expects (3, 2)")):
            Dataset(samples, 3, "train")
