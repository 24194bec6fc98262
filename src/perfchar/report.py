"""Deterministic file emission: plot-data CSV, atomic writes, sidecar metadata.

Data files never contain timestamps; identical inputs must produce
byte-identical outputs. Run timestamps go into a sidecar ``*.meta.json``.
``emit_plot_data`` orders rows by every column from left to right: numbers
(bools as 0 and 1) before blanks, strings by code point. A text cell holding
a comma, a double quote or a line break, or led by a ``#`` that would read as a
comment, is quoted as ``csv`` quotes it.
"""

from __future__ import annotations

import json
import os
import re
import tempfile
from datetime import datetime, timezone
from itertools import chain
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from .exceptions import ParameterError

BLOCK_ROWS = 1 << 12  # rows of a data file whose cell text is held at once

_NEEDS_QUOTES = re.compile('[,"\r\n]|^\\s*#')


def atomic_write_text(path: str | Path, text: str | Iterable[str]) -> Path:
    """Write text, or its pieces in turn, via a temp file in the target directory, then rename."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp_name = tempfile.mkstemp(dir=path.parent, prefix=f".{path.name}.", suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="") as handle:
            handle.writelines([text] if isinstance(text, str) else text)
        os.replace(tmp_name, path)
    except BaseException:
        try:
            os.unlink(tmp_name)
        except OSError:
            pass
        raise
    return path


def ranks(values: Sequence[str]) -> tuple[np.ndarray, dict[str, int]]:
    """Each string's rank in sorted(set(values)), a sort key in code point order; and each distinct string's rank."""
    position = {value: i for i, value in enumerate(sorted(set(values)))}
    return np.fromiter(map(position.__getitem__, values), np.intp, len(values)), position


def _keys_and_cells(column) -> tuple[np.ndarray, np.ndarray | list[str]]:
    """Sort key of one column, and its cells.

    A float array is its own key, an int or bool array is keyed as float64,
    and a sequence of str by rank. The cells are an int or float array, or
    else a list of text, where a str holding a comma, a double quote or a
    line break, or led by a ``#`` after any blanks, is quoted as csv quotes it.
    """
    if isinstance(column, np.ndarray) and column.dtype.kind in "biuf":
        key = column if column.dtype.kind == "f" else column.astype(float)
        if column.dtype.kind != "b":
            return key, column
        return key, list(map(("false", "true").__getitem__, column.tolist()))
    column = list(column)
    key, position = ranks(column)
    distinct = "".join(position)  # one scan of the distinct strings settles a column that nothing quotes
    if not any(map(distinct.__contains__, ',"\r\n#')):
        return key, column
    quoted = {value: '"' + value.replace('"', '""') + '"' for value in position if _NEEDS_QUOTES.search(value)}
    return key, list(map(quoted.get, column, column)) if quoted else column


def _text(cells: np.ndarray | list[str], order: np.ndarray) -> list[str]:
    """The text of each cell, in ``order``; a NaN float is blank."""
    if isinstance(cells, list):
        return list(map(cells.__getitem__, order.tolist()))
    cells = cells[order]
    if cells.dtype.kind != "f" or not (blank := np.isnan(cells)).any():
        return list(map(repr, cells.tolist()))
    if blank.all():
        return [""] * len(cells)
    text = list(map(repr, cells.tolist()))
    return list(map({"nan": ""}.get, text, text))  # repr gives "nan" for every NaN, a negative one too


def emit_plot_data(columns: Sequence, path: str | Path, header: Sequence[str]) -> Path:
    """Write plot data as CSV: a header, then the rows of ``columns`` in sorted order.

    A column is a sequence of str, or a numpy int, bool or float array whose
    NaN cells are blank; an infinite cell is a ParameterError. Floats are
    written by repr, bools as true/false; equal rows keep their order.
    """
    n = len(columns[0]) if len(columns) else 0
    if not n:
        raise ParameterError("refusing to emit an empty series")
    if len(columns) != len(header) or any(len(column) != n for column in columns):
        raise ParameterError(f"columns of {sorted(set(map(len, columns)))} cells "
                             f"under a header of width {len(header)}")
    keys, cells = zip(*map(_keys_and_cells, columns))
    infinite = next((name for name, key in zip(header, keys) if np.isinf(key).any()), None)
    if infinite is not None:
        raise ParameterError(f"{path}: column {infinite} holds an infinite value")
    order = np.lexsort(keys[::-1])
    # Text is made a block of rows at a time, so that a large table never holds a str per cell.
    blocks = ("\n".join(map(",".join, zip(*(_text(column, rows) for column in cells)))) + "\n"
              for rows in np.split(order, range(BLOCK_ROWS, n, BLOCK_ROWS)))
    return atomic_write_text(path, chain([",".join(header) + "\n"], blocks))


def write_sidecar_metadata(data_path: str | Path, payload: dict) -> Path:
    """Record run provenance (timestamp included) next to a data file."""
    data_path = Path(data_path)
    meta = {
        "written_at": datetime.now(timezone.utc).isoformat(),
        "data_file": data_path.name,
        **payload,
    }
    sidecar = data_path.with_name(data_path.name + ".meta.json")
    return atomic_write_text(sidecar, json.dumps(meta, indent=2, sort_keys=True) + "\n")


def gnuplot_loglog_script(
    series: Sequence[tuple[str, str]], output_png: str, title: str, xlabel: str, ylabel: str
) -> str:
    """A minimal gnuplot script plotting CSV series on log-log axes.

    Each series is a (file name, using clause) pair, e.g. ``("f.csv", "2:3 with linespoints")``.
    """
    plots = ", ".join(f"'{name}' using {using} title '{Path(name).stem}'" for name, using in series)
    return (
        "set datafile separator ','\n"
        "set logscale xy\n"
        f"set title '{title}'\n"
        f"set xlabel '{xlabel}'\n"
        f"set ylabel '{ylabel}'\n"
        f"set terminal pngcairo size 900,600\n"
        f"set output '{output_png}'\n"
        f"plot {plots}\n"
    )
