import re
import tempfile
import warnings
from datetime import datetime, timedelta, timezone
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fxevent import market_data as md
from fxevent.cli import main
from fxevent.errors import ConfigError, DataError
from fxevent.market_data import (
    DEFAULT_PIP_SIZE,
    SYNTH_START_PIPS,
    SYNTH_START_TS,
    CandleSeries,
    RegimeParams,
    load_csv,
    make_series,
    parse_timestamp,
    save_csv,
    synthetic_series,
)

from conftest import random_walk_series
from oracles import load_csv_rows


def write(tmp_path, text, name="series.csv"):
    path = tmp_path / name
    path.write_text(text)
    return path


PRICE = st.floats(min_value=0.0, max_value=1.7e308, exclude_min=True)


@st.composite
def candle_series(draw):
    """A valid series of 1-20 bars: unique timestamps, prices from subnormal to near overflow."""
    ts = sorted(draw(st.lists(st.integers(-(2**40), 2**40), min_size=1, max_size=20, unique=True)))
    rows = []
    for _ in ts:
        lo, a, b, hi = sorted(draw(st.lists(PRICE, min_size=4, max_size=4)))
        rows.append((a, lo, hi, b) if draw(st.booleans()) else (b, lo, hi, a))
    o, l, h, c = map(np.array, zip(*rows))
    return CandleSeries("X", 1e-4, np.array(ts, dtype=np.int64), o, h, l, c)


def assert_same_series(a, b):
    for field in ("timestamps", "opens", "highs", "lows", "closes"):
        assert getattr(a, field).tobytes() == getattr(b, field).tobytes(), field


class TestParseTimestamp:
    @settings(max_examples=100)
    @given(
        epoch=st.integers(0, 4_102_444_800),  # 1970 to 2100
        offset_minutes=st.integers(-14 * 60, 14 * 60),
    )
    def test_epoch_and_iso_forms_agree(self, epoch, offset_minutes):
        utc = datetime.fromtimestamp(epoch, timezone.utc)
        local = utc.astimezone(timezone(timedelta(minutes=offset_minutes)))
        forms = [
            str(epoch),
            utc.strftime("%Y-%m-%dT%H:%M:%SZ"),
            local.isoformat(),
            utc.replace(tzinfo=None).isoformat(),  # naive reads as UTC
        ]
        assert [parse_timestamp(f) for f in forms] == [epoch] * 4


class TestLoadCsv:
    def test_well_formed(self, tmp_path):
        path = write(
            tmp_path,
            "timestamp,open,high,low,close\n"
            "100,1.0,1.2,0.9,1.1\n"
            "200,1.1,1.3,1.0,1.2\n"
            "300,1.2,1.4,1.1,1.3\n"
            "400,1.3,1.5,1.2,1.4\n",
        )
        series = load_csv(path, "EUR/GBP", 1e-4)
        assert len(series) == 4
        assert np.all(np.diff(series.timestamps) > 0)
        assert series.symbol == "EUR/GBP"
        assert series.closes[0] == 1.1

    def test_iso_timestamps(self, tmp_path):
        path = write(
            tmp_path,
            "timestamp,open,high,low,close\n"
            "2020-01-01T00:00:00Z,1.0,1.2,0.9,1.1\n"
            "2020-01-01T00:15:00Z,1.1,1.3,1.0,1.2\n",
        )
        series = load_csv(path, "X")
        assert series.timestamps[0] == 1577836800
        assert series.timestamps[1] - series.timestamps[0] == 900

    def test_invariant_violation_names_row(self, tmp_path):
        path = write(
            tmp_path,
            "timestamp,open,high,low,close\n"
            "100,1.0,1.2,0.9,1.1\n"
            "200,1.1,1.3,1.0,1.2\n"
            "300,1.2,1.25,1.1,1.3\n",  # high < close
        )
        with pytest.raises(DataError, match="line 4"):
            load_csv(path, "X")

    def test_malformed_row_names_line(self, tmp_path):
        path = write(
            tmp_path,
            "timestamp,open,high,low,close\n100,1.0,1.2,0.9,1.1\n200,oops,1.3,1.0,1.2\n",
        )
        with pytest.raises(DataError, match="line 3"):
            load_csv(path, "X")

    @pytest.mark.parametrize("rows, error", [
        (2, "not UTF-8 text ('utf-8' codec can't decode byte 0xff in position 66: invalid start byte)"),
        (400, "'utf-8' codec can't decode byte 0xff in position "),  # past the first block: read_rows words it
    ], ids=["header_block", "past_first_block"])
    def test_non_utf8_byte_names_file(self, tmp_path, capsys, rows, error):
        lines = [f"{100 * (i + 1)},1.0,1.2,0.9,1.1\n" for i in range(rows)]
        data = ("timestamp,open,high,low,close\n" + "".join(lines)).encode()
        at = data.rindex(b"1.1\n")  # the last close, in the last data row
        path = tmp_path / "series.csv"
        path.write_bytes(data[:at] + b"\xff" + data[at + 1 :])
        with pytest.raises(DataError, match=re.escape(f"{path}: {error}")):
            load_csv(path, "X")
        assert main(["features", "--csv", str(path), "--out", str(tmp_path / "f.csv")]) == 2
        assert capsys.readouterr().err.startswith(f"error: {path}: {error}")

    def test_duplicate_timestamp_rejected(self, tmp_path):
        path = write(
            tmp_path,
            "timestamp,open,high,low,close\n100,1.0,1.2,0.9,1.1\n100,1.1,1.3,1.0,1.2\n",
        )
        with pytest.raises(DataError, match=f"^{re.escape(str(path))}: duplicate timestamp 100$"):
            load_csv(path, "X")

    def test_out_of_order_rows_sorted(self, tmp_path):
        path = write(
            tmp_path,
            "timestamp,open,high,low,close\n200,1.1,1.3,1.0,1.2\n100,1.0,1.2,0.9,1.1\n",
        )
        series = load_csv(path, "X")
        assert list(series.timestamps) == [100, 200]

    def test_volume_column_ignored(self, tmp_path):
        path = write(
            tmp_path,
            "timestamp,open,high,low,close,volume\n100,1.0,1.2,0.9,1.1,555\n",
        )
        assert len(load_csv(path, "X")) == 1

    @pytest.mark.parametrize(
        "row", ["200,nan,1.3,1.0,1.2", "200,1.1,inf,1.0,1.2", "200,1.1,1.3,-inf,1.2", "200,1.1,1.3,1.0,NaN"]
    )
    def test_non_finite_price_names_line(self, tmp_path, row):
        path = write(tmp_path, f"timestamp,open,high,low,close\n100,1.0,1.2,0.9,1.1\n{row}\n")
        with pytest.raises(DataError, match="non-finite price at line 3"):
            load_csv(path, "X")

    def test_blank_lines_skipped(self, tmp_path):
        path = write(tmp_path, "\ntimestamp,open,high,low,close\n\n100,1.0,1.2,0.9,1.1\n\n")
        assert len(load_csv(path, "X")) == 1

    def test_short_row_names_line(self, tmp_path):
        path = write(tmp_path, "timestamp,open,high,low,close\n100,1.0,1.2,0.9,1.1\n200,1.1,1.3\n")
        with pytest.raises(DataError, match="malformed row at line 3"):
            load_csv(path, "X")

    @pytest.mark.parametrize(
        "at, row, reason",
        [
            (1, "200,abc,1.3,1.0,1.2", "could not convert string 'abc' to float64, column 2."),
            (0, "200,abc,1.3,1.0,1.2", "could not convert string 'abc' to float64, column 2."),
            (1, "2x0,1.1,1.3,1.0,1.2", "could not convert string '2x0' to int64, column 1."),
            (1, "200,1.1,1.3,1.0", "invalid column index 4 with 4 columns"),
            (0, "200,1.1,1.3,1.0", "invalid column index 4 with 4 columns"),
        ],
    )
    def test_numpy_message_forms_name_the_line(self, tmp_path, at, row, reason):
        # numpy counts a conversion error's row from 0 and a column-count error's from 1
        lines = ["timestamp,open,high,low,close", "100,1.0,1.2,0.9,1.1", "300,1.2,1.4,1.1,1.3"]
        lines[1 + at : 1 + at] = ["", row]
        path = write(tmp_path, "\n".join(lines) + "\n")
        with pytest.raises(DataError, match=re.escape(f"{path}: malformed row at line {at + 3}: {reason}") + "$"):
            load_csv(path, "X")

    def test_numpy_error_without_a_row_names_the_file(self, tmp_path):
        # the text layer decodes the body a block at a time, so the bad byte must lie past the first block
        rows = [f"{100 * i},1.0,1.2,0.9,1.1" for i in range(1, 2000)]
        path = tmp_path / "latin.csv"
        path.write_bytes("\n".join(["timestamp,open,high,low,close", *rows, "200000,1.\xff0,1.2,0.9,1.1", ""])
                         .encode("latin-1"))
        with pytest.raises(DataError, match=f"^{re.escape(str(path))}: 'utf-8' codec can't decode byte 0xff"):
            load_csv(path, "X")

    def test_oversized_timestamp_is_a_malformed_row(self, tmp_path, capsys):
        path = write(tmp_path, "timestamp,open,high,low,close\n99999999999999999999,1.0,1.2,0.9,1.1\n")
        message = (f"{path}: malformed row at line 2: could not convert string '99999999999999999999' to int64, "
                   "column 1.")
        with pytest.raises(DataError, match=re.escape(message) + "$"):
            load_csv(path, "X")
        assert main(["features", "--csv", str(path), "--out", str(tmp_path / "f.csv")]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"

    def test_missing_column(self, tmp_path):
        path = write(tmp_path, "timestamp,open,high,low\n100,1.0,1.2,0.9\n")
        with pytest.raises(DataError, match="close"):
            load_csv(path, "X")

    def test_round_trip_identical(self, tmp_path, rng):
        series = random_walk_series(rng, 1000)
        out = tmp_path / "rt.csv"
        save_csv(series, out)
        back = load_csv(out, series.symbol, series.pip_size)
        assert np.array_equal(back.timestamps, series.timestamps)
        for field in ("opens", "highs", "lows", "closes"):
            assert np.array_equal(getattr(back, field), getattr(series, field))

    def test_every_bar_satisfies_invariants(self, tmp_path, rng):
        series = random_walk_series(rng, 500)
        out = tmp_path / "inv.csv"
        save_csv(series, out)
        back = load_csv(out, "X")
        assert np.all(back.highs >= np.maximum(back.opens, back.closes))
        assert np.all(back.lows <= np.minimum(back.opens, back.closes))
        assert np.all(back.lows > 0)

    @settings(max_examples=60)
    @given(series=candle_series(), data=st.data())
    def test_save_load_round_trip_is_bitwise(self, series, data):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "series.csv"
            save_csv(series, path)
            assert_same_series(load_csv(path, "X"), series)
            header, *rows = path.read_text().splitlines()
            rows = data.draw(st.permutations(rows))
            blanks = data.draw(st.lists(st.integers(0, len(rows)), max_size=5))
            for i in sorted(blanks, reverse=True):
                rows.insert(i, "")
            assert_same_series(load_csv(write(Path(tmp), "\n".join([header, *rows]) + "\n"), "X"), series)

    @settings(max_examples=60)
    @given(series=candle_series(), data=st.data())
    def test_non_finite_price_names_its_line(self, series, data):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "series.csv"
            save_csv(series, path)
            lines = path.read_text().splitlines()
            lines[1:1] = [""] * data.draw(st.integers(0, 3))
            row = data.draw(st.sampled_from([i for i, line in enumerate(lines) if line and i > 0]))
            fields = lines[row].split(",")
            fields[data.draw(st.integers(1, 4))] = data.draw(st.sampled_from(["nan", "NaN", "inf", "-inf"]))
            lines[row] = ",".join(fields)
            with pytest.raises(DataError, match=f"non-finite price at line {row + 1} "):
                load_csv(write(Path(tmp), "\n".join(lines) + "\n"), "X")


# Edits to one line of a save_csv file. np.loadtxt rejects each of them, or
# reads it as the row loop does; either way load_csv must give what the row
# loop gives.
LINE_EDITS = ("blank", "spaces", "comment", "plus", "pad", "underscore", "dot_zero", "quote", "extra", "nan",
              "infinity", "iso", "oversized")


def edit_line(line, edit, draw):
    """The lines that replace `line` (`timestamp,open,high,low,close`) under `edit`."""
    fields = line.split(",")
    ts = fields[0]
    if edit == "blank":
        return ["", line]
    if edit == "spaces":
        return [" \t ", line]
    if edit == "comment":
        return ["# " + line, line]
    if edit == "plus":
        fields[0] = "+" + ts
    elif edit == "pad":
        i = draw(st.integers(0, 4))
        fields[i] = f"  {fields[i]} "
    elif edit == "underscore":
        fields[0] = ts[:-1] + "_" + ts[-1] if len(ts.lstrip("-")) > 1 else ts
    elif edit == "dot_zero":
        fields[0] = ts + ".0"
    elif edit == "quote":
        i = draw(st.integers(0, 4))
        fields[i] = f'"{fields[i]}"'
    elif edit == "extra":
        fields.append(str(draw(st.integers(0, 999))))
    elif edit in ("nan", "infinity"):
        values = ["nan", "NaN"] if edit == "nan" else ["Infinity", "inf", "-inf"]
        fields[draw(st.integers(1, 4))] = draw(st.sampled_from(values))
    elif edit == "iso":
        epoch = draw(st.integers(0, 4_102_444_800))
        fields[0] = datetime.fromtimestamp(epoch, timezone.utc).strftime("%Y-%m-%dT%H:%M:%SZ")
    elif edit == "oversized":  # 20 digits, past int64 either way
        fields[0] = draw(st.sampled_from(["", "-"])) + str(draw(st.integers(10**19, 10**20 - 1)))
    return [",".join(fields)]


def load_outcome(load, path):
    """The bytes of the five arrays `load` reads from `path`, or its error message up to a malformed row's reason."""
    try:
        series = load(path, "X")
    except DataError as exc:
        return re.sub(r"(malformed row at line \d+): .*", r"\1", str(exc), flags=re.DOTALL)
    return [(getattr(series, f).dtype.str, getattr(series, f).tobytes())
            for f in ("timestamps", "opens", "highs", "lows", "closes")]


class TestLoadCsvReaders:
    """load_csv must agree with the csv row loop of `oracles.load_csv_rows` on every file."""

    @settings(max_examples=150)
    @given(series=candle_series(), data=st.data())
    def test_column_parse_equals_row_loop(self, series, data):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "series.csv"
            save_csv(series, path)
            header, *rows = path.read_text().splitlines()
            edits = data.draw(st.lists(st.tuples(st.integers(0, len(rows) - 1), st.sampled_from(LINE_EDITS)),
                                       max_size=3, unique_by=lambda e: e[0]))
            for i, edit in sorted(edits, reverse=True):
                rows[i : i + 1] = edit_line(rows[i], edit, data.draw)
            eol = data.draw(st.sampled_from(["\r\n", "\n"]))
            path.write_bytes(eol.join([header, *rows, ""]).encode())
            assert load_outcome(load_csv, path) == load_outcome(load_csv_rows, path)


class TestTimestampReads:
    """numpy's int64 read of the timestamps and the `parse_timestamp` re-read that any rejected line sends the
    whole body through both give what the row loop gives, on a file long enough that numpy reads it in blocks."""

    BARS = 60_010
    LATE = 60_000  # the data row edited below; it sits on line LATE + 2

    @pytest.fixture(scope="class")
    def epoch_lines(self, tmp_path_factory):
        path = tmp_path_factory.mktemp("epoch") / "series.csv"
        save_csv(random_walk_series(np.random.default_rng(29), self.BARS), path)
        return path.read_text().splitlines()

    @pytest.fixture(scope="class")
    def epoch_outcome(self, epoch_lines, tmp_path_factory):
        return load_outcome(load_csv_rows, write(tmp_path_factory.mktemp("plain"), "\n".join(epoch_lines) + "\n"))

    def outcome(self, tmp_path, lines, converted=None):
        """load_csv's outcome on `lines`, checked against the row loop's; `converted` counts parse_timestamp calls."""
        path = write(tmp_path, "\n".join(lines) + "\n")
        calls = []
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(md, "parse_timestamp", lambda text: calls.append(text) or parse_timestamp(text))
            got = load_outcome(load_csv, path)
        assert got == load_outcome(load_csv_rows, path)
        if converted is not None:
            assert len(calls) == converted
        return got

    def edited(self, lines, row, field, text):
        """`lines` with field `field` of data row `row` set to `text`."""
        lines = list(lines)
        fields = lines[1 + row].split(",")
        fields[field] = text
        lines[1 + row] = ",".join(fields)
        return lines

    def with_iso_row(self, lines, row):
        """`lines` with the timestamp of data row `row` written in ISO-8601."""
        ts = int(lines[1 + row].split(",")[0])
        return self.edited(lines, row, 0, datetime.fromtimestamp(ts, timezone.utc).strftime("%Y-%m-%dT%H:%M:%SZ"))

    def test_epoch_seconds_are_read_by_numpy(self, tmp_path, epoch_lines, epoch_outcome):
        assert self.outcome(tmp_path, epoch_lines, converted=0) == epoch_outcome

    def test_late_iso_row_rereads_the_same_series(self, tmp_path, epoch_lines, epoch_outcome):
        lines = self.with_iso_row(epoch_lines, self.LATE)
        assert self.outcome(tmp_path, lines, converted=self.BARS) == epoch_outcome

    # the forms README names: numpy reads all but the `_`-separated one, which sends the body to the re-read
    @pytest.mark.parametrize("form, converted", [
        ("+{}", 0), ("{}_{}", BARS), ("  {} ", 0), ('"{}"', 0),
    ], ids=["plus", "underscore", "padded", "quoted"])
    def test_readme_timestamp_forms(self, tmp_path, epoch_lines, epoch_outcome, form, converted):
        lines = epoch_lines
        for row in (0, self.LATE, self.BARS - 1):
            ts = lines[1 + row].split(",")[0]
            lines = self.edited(lines, row, 0, form.format(ts[:-1], ts[-1]) if "_" in form else form.format(ts))
        assert self.outcome(tmp_path, lines, converted=converted) == epoch_outcome

    @pytest.mark.parametrize("price, error", [
        ("abc", "malformed row at line {}"),
        ("nan", "non-finite price at line {} (o=nan "),
    ])
    def test_bad_price_after_an_iso_row_names_its_line(self, tmp_path, epoch_lines, price, error):
        lines = self.edited(self.with_iso_row(epoch_lines, self.LATE), self.LATE + 2, 1, price)
        got = self.outcome(tmp_path, lines)
        assert got.startswith(f"{tmp_path / 'series.csv'}: {error.format(self.LATE + 4)}")

    def test_oversized_late_timestamp_keeps_its_message(self, tmp_path, epoch_lines):
        # int() reads it but no int64 holds it: the row loop names the line, and README gives numpy's reason
        lines = self.edited(epoch_lines, self.LATE, 0, "99999999999999999999")
        path = tmp_path / "series.csv"
        assert self.outcome(tmp_path, lines) == f"{path}: malformed row at line {self.LATE + 2}"
        message = (f"{path}: malformed row at line {self.LATE + 2}: could not convert string "
                   "'99999999999999999999' to int64, column 1.")
        with pytest.raises(DataError, match=re.escape(message) + "$"):
            load_csv(path, "X")

    @pytest.mark.parametrize("ts", ["99999999999999999999", "-99999999999999999999"])
    def test_oversized_timestamp_after_an_iso_row_names_its_line(self, tmp_path, epoch_lines, ts):
        lines = self.edited(self.with_iso_row(epoch_lines, self.LATE), self.LATE + 2, 0, ts)
        assert self.outcome(tmp_path, lines) == f"{tmp_path / 'series.csv'}: malformed row at line {self.LATE + 4}"


class TestSyntheticSeries:
    def test_deterministic(self):
        a = synthetic_series(99, 800)
        b = synthetic_series(99, 800)
        for field in ("timestamps", "opens", "highs", "lows", "closes"):
            assert np.array_equal(getattr(a, field), getattr(b, field))

    def test_pure_ramp_strictly_increasing(self):
        regime = RegimeParams(noise_pips=0.0, wick_pips=0.0, notch_down_bars=0, trend="up")
        series = synthetic_series(1, 500, regime)
        assert np.all(np.diff(series.closes) > 0)

    def test_invariants_by_construction(self):
        series = synthetic_series(5, 3000)
        assert np.all(series.highs >= np.maximum(series.opens, series.closes))
        assert np.all(series.lows <= np.minimum(series.opens, series.closes))
        assert np.all(series.lows > 0)
        assert np.all(np.diff(series.timestamps) == 900)

    def test_default_regime_has_pivots(self, synth):
        from fxevent.events import zigzag

        assert len(zigzag(synth)) >= 10

    def test_n_validation(self):
        with pytest.raises(ConfigError):
            synthetic_series(1, 0)
        with pytest.raises(ConfigError, match="pip_size > 0, got n 10 and pip_size 0.0"):
            synthetic_series(1, 10, pip_size=0.0)  # a zero pip would divide by zero in the level pull

    def test_regime_without_counter_move_needs_no_recovery(self):
        RegimeParams(notch_down_bars=0, notch_recover_bars=0)

    @pytest.mark.parametrize(
        "params, message",
        [
            (dict(leg_len=(0, 10)), "leg_len range invalid: (0, 10)"),
            (dict(slope_pips=(0.0, 1.0)), "slope_pips range invalid: (0.0, 1.0)"),
            (dict(noise_pips=-1.0), "noise_pips, wick_pips and reversion_pips must be >= 0"),
            (dict(trend="sideways"), "unknown trend mode 'sideways'"),
            (dict(notch_recover_bars=0), "notch_recover_bars must be >= 1 when the counter-move is enabled"),
            (dict(notch_frac=(-1.0, -0.5)), "notch_frac needs 0 < low <= high < 1, got (-1.0, -0.5)"),
            (dict(notch_frac=(5.0, 6.0)), "notch_frac needs 0 < low <= high < 1, got (5.0, 6.0)"),
            (dict(notch_frac=(0.6, 0.4)), "notch_frac needs 0 < low <= high < 1, got (0.6, 0.4)"),
            (dict(notch_retrace=(-1.0, -0.5)), "notch_retrace needs 0 < low <= high, got (-1.0, -0.5)"),
            (dict(notch_retrace=(0.9, 0.5)), "notch_retrace needs 0 < low <= high, got (0.9, 0.5)"),
            (dict(notch_down_bars=100), "the dip fits in no leg: it starts at bar 24 at the earliest (leg_len high "
             "x notch_frac low), and 24 + notch_down_bars 100 + notch_recover_bars 3 > leg_len high 62"),
            (dict(leg_len=(5, 6, 7)), "leg_len expects two values (low, high), got (5, 6, 7)"),
        ],
        ids=lambda v: ",".join(v) if isinstance(v, dict) else None,
    )
    def test_regime_validation(self, params, message):
        with pytest.raises(ConfigError) as exc:
            RegimeParams(**params)
        assert str(exc.value) == message

    def test_default_start_is_exactly_1_10(self):
        # the default series, and every digest made from it, rest on this product being exact
        assert SYNTH_START_PIPS * DEFAULT_PIP_SIZE == 1.10
        assert synthetic_series(3, 50).opens[0] == 1.10

    @pytest.mark.parametrize("pip_size", [1e-5, 1e-3, 1e-2, 1.0])
    def test_prices_scale_with_pip_size(self, pip_size):
        # the series opens at SYNTH_START_PIPS pips, so in pips every pip_size gives the default series
        scaled = synthetic_series(3, 2000, pip_size=pip_size)
        default = synthetic_series(3, 2000)
        assert scaled.pip_size == pip_size
        for field in ("opens", "highs", "lows", "closes"):
            in_pips = getattr(scaled, field) / pip_size
            assert np.max(np.abs(in_pips - getattr(default, field) / DEFAULT_PIP_SIZE)) < 1e-9, field

    def test_runaway_regime_names_the_bar(self):
        # with no pull back to the start, the legs drive the price through zero
        n = 10_000
        with pytest.raises(DataError) as exc:
            synthetic_series(1, n, RegimeParams(trend="down", reversion_pips=0.0))
        found = re.fullmatch(r"OHLC invariant violated at ts=(\d+) \(o=\S+ h=\S+ l=(\S+) c=\S+\)", str(exc.value))
        assert found, str(exc.value)
        bar, rest = divmod(int(found[1]) - SYNTH_START_TS, 900)
        assert rest == 0 and 0 < bar < n
        assert float(found[2]) <= 0


class TestMakeSeries:
    def test_immutable_after_validation(self, walk):
        with pytest.raises(ValueError):
            walk.closes[0] = 2.0

    def test_empty_rejected(self):
        with pytest.raises(DataError):
            make_series("X", 1e-4, [], [], [], [], [])

    def test_bad_pip_size(self):
        with pytest.raises(ConfigError):
            make_series("X", 0.0, [1], [1.0], [1.0], [1.0], [1.0])

    @pytest.mark.parametrize("field", [1, 2, 3, 4])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_price_names_timestamp(self, field, bad):
        columns = [[300, 100, 200], [1.0] * 3, [1.2] * 3, [0.9] * 3, [1.1] * 3]
        columns[field][0] = bad
        with pytest.raises(DataError, match="non-finite price at ts=300"):
            make_series("X", 1e-4, *columns)


class TestCandleSeriesChecks:
    def test_inf_close_rejected_without_numpy_warning(self):
        ts = np.array([100, 200, 300], dtype=np.int64)
        prices = np.array([1.0, 1.1, 1.2])
        closes = prices.copy()
        closes[1] = np.inf
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(DataError, match="non-finite price at ts=200"):
                CandleSeries("X", 1e-4, ts, prices, prices, prices, closes)

    @pytest.mark.parametrize(
        "ts, low, match",
        [
            ([100, 300, 200], 0.9, "not strictly increasing at ts=200"),
            ([100, 100, 200], 0.9, "not strictly increasing at ts=100"),
            ([100, 200, 300], 1.05, "OHLC invariant violated at ts=100"),
        ],
    )
    def test_constructor_names_timestamp(self, ts, low, match):
        ones = np.ones(3)
        with pytest.raises(DataError, match=match):
            CandleSeries("X", 1e-4, np.array(ts, dtype=np.int64), ones, ones * 1.2, ones * low, ones * 1.1)

    def test_first_bad_bar_is_named(self):
        # an OHLC violation at ts=100 comes before the NaN at ts=200, as a file's first bad line does
        prices = np.array([1.0, 1.1, 1.2])
        closes = np.array([1.5, np.nan, 1.2])
        with pytest.raises(DataError, match=r"^OHLC invariant violated at ts=100 \(o=1.0 h=1.0 l=1.0 c=1.5\)$"):
            CandleSeries("X", 1e-4, np.array([100, 200, 300]), prices, prices, prices, closes)

    def test_make_series_prefixes_source(self):
        with pytest.raises(DataError, match="^feed.csv: OHLC invariant violated at ts=100"):
            make_series("X", 1e-4, [200, 100], [1.0, 1.0], [1.2, 1.2], [0.9, 0.9], [1.1, 1.3], source="feed.csv")
