"""CSV reading and writing shared by the candle, feature and predictions files.

The one CSV body the program reads, the candles, goes through `read_rows`,
its one `np.loadtxt` call: comma separated, `"` quotes read, empty lines
skipped, no comment lines.

Rows come out byte for byte as the default `csv.writer` dialect writes them:
fields joined by commas, each line ending in CRLF, floats as their shortest
round-trip `repr`. Headers of column names go through `csv.writer` (it quotes
odd names), and numeric bodies are written as text blocks of rows, which keeps
the per-cell cost out of the csv module without holding a whole file in memory.
"""

from __future__ import annotations

import csv
import re
import warnings
from math import isfinite

import numpy as np

CHUNK_ROWS = 4096  # rows per block written by `write_table`


def _cell(v: float) -> str:
    return repr(v) if isfinite(v) else ""


def format_rows(keys, values: np.ndarray, blank_nonfinite: bool = False) -> str:
    """CRLF-terminated lines `<key>,<v0>,<v1>,...`, one per row of the 2-D `values`.

    Each key is the row's leading field(s), already joined by commas. With
    `blank_nonfinite`, NaN and infinite cells are written as empty fields.
    """
    values = np.asarray(values, dtype=np.float64)
    sep = "," if values.shape[1] else ""  # a row without values is the key alone
    cell = _cell if blank_nonfinite else repr
    return "".join(f"{k}{sep}{','.join(map(cell, row))}\r\n" for k, row in zip(keys, values.tolist()))


def write_table(path, header, keys: np.ndarray, values: np.ndarray, blank_nonfinite: bool = False) -> None:
    """Write `header`, then one line per row: its key followed by the row of `values`.

    A key is an integer, or a string of leading fields already joined by commas.
    """
    keys = np.asarray(keys).tolist()
    with open(path, "w", newline="") as fh:
        csv.writer(fh).writerow(header)
        for lo in range(0, len(keys), CHUNK_ROWS):
            hi = lo + CHUNK_ROWS
            fh.write(format_rows(keys[lo:hi], values[lo:hi], blank_nonfinite))


class RowError(ValueError):
    """A line of a CSV body that numpy rejected; `row` is its data row (from 0), or None if numpy named none."""

    def __init__(self, message: str, row: int | None = None):
        super().__init__(message)
        self.row = row


# np.loadtxt names a data row, counted from 0 in a conversion error and from 1
# in the column-count error that a read with `usecols` gives
_AT_ROW = re.compile(r"(.*) at row (\d+)(.*)", re.DOTALL)
_ROW_FROM_1 = "invalid column index"


def read_rows(path, fh, header_line: int, dtype, **loadtxt_args) -> np.ndarray:
    """The rest of `fh`, the body of the CSV file `path` whose header is line `header_line`, as `dtype` rows.

    A line numpy rejects raises RowError: `malformed row at line L: <numpy's
    reason>`, carrying the data row; a numpy message without a row number is
    raised as it is.
    """
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)  # an empty body reads as no rows; callers report it
        try:
            return np.loadtxt(fh, dtype=dtype, delimiter=",", comments=None, quotechar='"', **loadtxt_args)
        except ValueError as exc:
            text = str(exc)
    found = _AT_ROW.fullmatch(text)
    if found is None:
        raise RowError(text) from None
    row = int(found[2]) - text.startswith(_ROW_FROM_1)
    line = line_of_row(path, header_line, row)
    raise RowError(f"malformed row at line {line}: {found[1]}{found[3]}", row) from None


def line_of_row(path, header_line: int, row: int) -> int:
    """The line of `path` that holds data row `row` (from 0) of the body after line `header_line`.

    Counts the empty lines that np.loadtxt skips; a `row` past the last one
    names the line after the last row. Read only to word an error.
    """
    last = header_line
    with open(path) as fh:
        for number, text in enumerate(fh, start=1):
            if number > header_line and text != "\n":
                if row == 0:
                    return number
                row, last = row - 1, number
    return last + 1
