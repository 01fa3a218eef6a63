import csv
import hashlib
import io

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from fxevent.csvio import format_rows
from fxevent.dataset import (
    Dataset,
    Sample,
    apply_norm,
    apply_target,
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
        assert len(samples) > 0
        for s in samples[:10]:
            e2 = s.e2_index
            assert s.window.shape == (30, 28)
            assert np.array_equal(s.window, fm.values[e2 - 29 : e2 + 1])
            assert np.isfinite(s.window).all()
            assert s.target == synth.closes[s.e3_index]

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
        samples.append(Sample(window, float(rng.normal(1.1, 0.05)), 100 + i, 110 + i,
                              1000 + i, 2000 + i))
    return Dataset(tuple(samples), n, "train")


class TestNormalizer:
    def test_constant_column_guarded(self, rng):
        ds = tiny_dataset(rng)
        windows = [s.window.copy() for s in ds.samples]
        for w in windows:
            w[:, 1] = 7.0
        samples = tuple(
            Sample(w, s.target, s.e2_index, s.e3_index, s.e2_ts, s.e3_ts)
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

    def test_hand_computed_two_samples(self):
        w1 = np.array([[1.0, 2.0], [3.0, 4.0]])
        w2 = np.array([[5.0, 6.0], [7.0, 8.0]])
        ds = Dataset(
            (Sample(w1, 10.0, 0, 1, 0, 1), Sample(w2, 20.0, 2, 3, 2, 3)), 2, "train"
        )
        stats = fit_normalizer(ds)
        assert stats.feature_mean.tolist() == [4.0, 5.0]
        assert np.allclose(stats.feature_std, np.sqrt([5.0, 5.0]))
        assert stats.target_mean == 15.0
        assert stats.target_std == 5.0

    def test_empty_dataset_rejected(self):
        with pytest.raises(ConfigError):
            fit_normalizer(Dataset((), 4, "train"))

    def test_round_trip(self, rng):
        ds = tiny_dataset(rng)
        stats = fit_normalizer(ds)
        for y in (1.2345, 0.9, 1.0001):
            assert invert_target(apply_target(y, stats), stats) == pytest.approx(y, rel=1e-12)

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
            assert a.e2_index == -1 and a.e3_index == -1  # indices are not wire format

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
                Sample(np.array([[0.1, -2.5e-300], [1e16, 3.0]]), 1.1, 5, 9, 1000, 2000),
                Sample(np.array([[-0.0, 123.456], [7.0, 1 / 3]]), 0.86, 6, 12, 1900, 3800),
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
        samples = tuple(Sample(w, targets[i], -1, -1, i, 2 * i) for i, w in enumerate(windows))
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
        with pytest.raises(ConfigError, match="m_targets.csv.*sample 1"):
            load_dataset(tmp_path / "m")

    def test_rows_in_any_order(self, rng, tmp_path):
        ds = tiny_dataset(rng, n_samples=5)
        save_dataset(ds, tmp_path / "s")
        path = tmp_path / "s_windows.csv"
        header, *body = path.read_text().splitlines(keepends=True)
        path.write_text(header + "".join(body[i] for i in rng.permutation(len(body))))
        assert load_dataset(tmp_path / "s").windows().tobytes() == ds.windows().tobytes()

    @pytest.mark.parametrize("name, line, value", [("windows", 3, "nan"), ("targets", 2, "inf")])
    def test_non_finite_value_names_file(self, rng, tmp_path, name, line, value):
        save_dataset(tiny_dataset(rng, n_samples=3), tmp_path / "n")
        path = tmp_path / f"n_{name}.csv"
        lines = path.read_text().splitlines(keepends=True)
        lines[line - 1] = lines[line - 1].rsplit(",", 1)[0] + f",{value}\n"
        path.write_text("".join(lines))
        with pytest.raises(ConfigError, match=f"n_{name}.csv: non-finite"):
            load_dataset(tmp_path / "n")

    @pytest.mark.parametrize("cut", ["row", "field"])
    def test_ragged_windows_name_file(self, rng, tmp_path, cut):
        save_dataset(tiny_dataset(rng, n_samples=3), tmp_path / "r")
        path = tmp_path / "r_windows.csv"
        lines = path.read_text().splitlines(keepends=True)
        if cut == "row":
            del lines[5]  # sample 1 loses one of its four timesteps
        else:
            lines[5] = lines[5].rsplit(",", 1)[0] + "\n"
        path.write_text("".join(lines))
        with pytest.raises(ConfigError, match="r_windows.csv"):
            load_dataset(tmp_path / "r")


class TestDatasetInvariants:
    def test_window_immutable(self, rng):
        ds = tiny_dataset(rng)
        with pytest.raises(ValueError):
            ds.samples[0].window[0, 0] = 5.0

    def test_mismatched_window_length_rejected(self, rng):
        s = Sample(np.zeros((3, 2)), 1.0, 0, 1, 0, 1)
        with pytest.raises(ConfigError):
            Dataset((s,), 4, "train")
