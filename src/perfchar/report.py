"""Deterministic file emission: plot-data CSV, atomic writes, sidecar metadata.

Data files never contain timestamps; identical inputs must produce
byte-identical outputs. Run timestamps go into a sidecar ``*.meta.json``.
"""

from __future__ import annotations

import json
import os
import tempfile
from datetime import datetime, timezone
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from .exceptions import ParameterError


def format_value(value) -> str:
    """Stable text form: full-precision floats, plain ints, strings as-is."""
    if isinstance(value, (bool, np.bool_)):
        return str(bool(value)).lower()
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    return "" if value is None else str(value)


def atomic_write_text(path: str | Path, text: str) -> Path:
    """Write via a temp file in the target directory, then rename into place."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp_name = tempfile.mkstemp(dir=path.parent, prefix=f".{path.name}.", suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="") as handle:
            handle.write(text)
        os.replace(tmp_name, path)
    except BaseException:
        try:
            os.unlink(tmp_name)
        except OSError:
            pass
        raise
    return path


def _row_sort_key(row: Sequence):
    key = []
    for value in row:
        if isinstance(value, (bool, np.bool_)):
            key.append((0, float(bool(value)), ""))
        elif isinstance(value, (int, float, np.integer, np.floating)):
            key.append((0, float(value), ""))
        else:
            key.append((1, 0.0, "" if value is None else str(value)))
    return tuple(key)


def _column_keys(column: tuple) -> list:
    """Keys that order one column as _row_sort_key does; mixed columns go cell by cell."""
    types = set(map(type, column))
    if types == {str}:
        return list(column)
    if types <= {int, float}:
        return list(map(float, column))
    return [_row_sort_key((value,))[0] for value in column]


def _column_text(column: tuple) -> list[str]:
    """format_value of each cell of one column."""
    types = set(map(type, column))
    if types == {str}:
        return list(column)
    if types == {float}:
        return list(map(float.__repr__, column))
    return list(map(format_value, column))


def emit_plot_data(
    rows: Iterable[Sequence], path: str | Path, header: Sequence[str]
) -> Path:
    """Write plot data as CSV: a header, then rows in _row_sort_key order via format_value."""
    rows = [tuple(r) for r in rows]
    if not rows:
        raise ParameterError("refusing to emit an empty series")
    width = len(header)
    for row in rows:
        if len(row) != width:
            raise ParameterError(f"row {row!r} does not match header width {width}")
    columns = list(zip(*rows))
    # A stable sort of row indices by per-column keys orders rows as
    # sorted(rows, key=_row_sort_key) does, ties included.
    order = sorted(range(len(rows)), key=list(zip(*map(_column_keys, columns))).__getitem__)
    cells = list(zip(*map(_column_text, columns)))
    lines = [",".join(header), *(",".join(cells[i]) for i in order), ""]
    return atomic_write_text(path, "\n".join(lines))


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
    data_files: Sequence[str], output_png: str, title: str, xlabel: str, ylabel: str
) -> str:
    """A minimal gnuplot script plotting CSV series on log-log axes."""
    plots = ", ".join(
        f"'{name}' using 1:2 with linespoints title '{Path(name).stem}'"
        for name in data_files
    )
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
