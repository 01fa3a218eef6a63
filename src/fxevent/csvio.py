"""CSV row blocks shared by the candle, feature, dataset and predictions writers.

Rows come out byte for byte as the default `csv.writer` dialect writes them:
fields joined by commas, each line ending in CRLF, floats as their shortest
round-trip `repr`. Callers write the header through `csv.writer` (it quotes
odd column names) and the numeric body as text blocks, one per sample or
chunk of rows, which keeps the per-cell cost out of the csv module without
holding a whole file in memory.
"""

from __future__ import annotations

import csv
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
