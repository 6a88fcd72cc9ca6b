"""Report emission: records.csv, summary.json, and plot-ready series CSVs.

Outputs are byte-deterministic for a given stats object: records are sorted
by key, CSVs are written by :func:`tsattack.data._write_csv` (floats as the
shortest repr that reads back bitwise), and JSON keys are sorted.  The CSVs
are handed over by columns, each cell formatted once: records.csv as one
column per Record field, where each distinct value (by bit pattern) of a
numeric column is formatted once, since the ``*_orig`` columns repeat per
window and ``delta`` per pair; and each series file as its ``t``,
``original`` and ``attacked`` columns, where the ``t`` cells are formatted
once and a window's ``original`` cells once for all of that window's files,
and go to the writer as formatted tuples; only one window's cells are held
at a time.  ``series/`` holds exactly this report's files: an earlier
report's ``*.csv`` there are removed first, and a ``series/`` they leave
empty goes too, so the directory reads as a new one's.
"""

from __future__ import annotations

import contextlib
import json
import operator
from dataclasses import fields
from pathlib import Path
from typing import Dict

import numpy as np

from . import __version__
from .data import _cells, _write_csv
from .experiments import Record, ScenarioStats

#: records.csv columns: the Record fields, in their order.
RECORD_COLUMNS = tuple(field.name for field in fields(Record))
#: The records.csv columns written as text: the str fields of Record.
_TEXT_COLUMNS = frozenset(field.name for field in fields(Record) if field.type == "str")


def _repeated_cells(column) -> tuple:
    """:func:`tsattack.data._cells` of a numeric column of records, with each
    distinct float formatted once: values are told apart by bit pattern, so
    -0.0 and 0.0, and NaNs of different payloads, stay apart."""
    bits, inverse = np.unique(np.array(column, dtype=float).view(np.int64),
                              return_inverse=True)
    texts = _cells(bits.view(float))
    return tuple(map(texts.__getitem__, inverse.tolist()))


def emit_report(stats: ScenarioStats, out_dir) -> Dict[str, str]:
    """Write records.csv, summary.json, and per-series attack CSVs.

    The str record fields are text; the other record fields and series
    values of any numeric type are written as ``repr(float(v))``.  The
    ``*.csv`` files of an earlier report in ``out_dir/series`` are removed
    (no other file there is touched), so ``series/`` holds this report's
    dumps only.  summary.json is strict JSON: a NaN or infinity in it is a ValueError,
    raised before anything is written.  Returns the paths written, keyed by
    artifact name.
    """
    summary = {
        "version": __version__,
        "seed": stats.seed,
        "n_windows": stats.n_windows,
        "config": stats.config,
        "aggregates": list(stats.aggregates),
        "p_values": list(stats.p_values),
    }
    summary_text = json.dumps(summary, indent=2, sort_keys=True, allow_nan=False) + "\n"
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    paths = {}

    records_path = out / "records.csv"
    ordered = sorted(stats.records, key=lambda r: (r.series_id, r.delta, r.scenario))
    columns = (list(zip(*map(operator.attrgetter(*RECORD_COLUMNS), ordered)))
               or [()] * len(RECORD_COLUMNS))
    _write_csv(records_path, RECORD_COLUMNS,
               [list(column) if name in _TEXT_COLUMNS else _repeated_cells(column)
                for name, column in zip(RECORD_COLUMNS, columns)])
    paths["records"] = str(records_path)

    summary_path = out / "summary.json"
    with open(summary_path, "w", encoding="utf-8") as handle:
        handle.write(summary_text)
    paths["summary"] = str(summary_path)

    series_dir = out / "series"
    if series_dir.is_dir():  # an earlier report's; a new directory costs one stat
        for stale in series_dir.glob("*.csv"):
            if stale.is_file():
                stale.unlink()
        with contextlib.suppress(OSError):  # kept if it holds other files
            series_dir.rmdir()
    if stats.series_dumps:
        series_dir.mkdir(exist_ok=True)
        t_cells = original = original_cells = None
        for dump in stats.series_dumps:
            if t_cells is None or len(t_cells) != len(dump.original):
                t_cells = _cells(np.arange(len(dump.original)))
            if dump.original is not original:  # a window's dumps share its series
                original = dump.original
                original_cells = _cells(original.astype(float, copy=False))
            safe_id = dump.series_id.replace(":", "_").replace("/", "_")
            name = f"{safe_id}__{dump.scenario}__delta{repr(float(dump.delta))}.csv"
            _write_csv(series_dir / name, ("t", "original", "attacked"),
                       (t_cells, original_cells, dump.attacked.astype(float, copy=False)))
        paths["series_dir"] = str(series_dir)
    return paths
