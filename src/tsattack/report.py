"""Report emission: records.csv, summary.json, and plot-ready series CSVs.

Outputs are byte-deterministic for a given stats object: records are sorted
by key, CSVs are written by :func:`tsattack.data._write_csv` (floats as the
shortest repr that reads back bitwise), and JSON keys are sorted.
"""

from __future__ import annotations

import json
import operator
from dataclasses import fields
from pathlib import Path
from typing import Dict

from . import __version__
from .data import _write_csv
from .experiments import Record, ScenarioStats

#: records.csv columns: the Record fields, in their order.
RECORD_COLUMNS = tuple(field.name for field in fields(Record))


def emit_report(stats: ScenarioStats, out_dir) -> Dict[str, str]:
    """Write records.csv, summary.json, and per-series attack CSVs.

    Non-str record fields and series values of any numeric type are written
    as ``repr(float(v))``.  summary.json is strict JSON: a NaN or infinity in
    it is a ValueError, raised before anything is written.  Returns the paths
    written, keyed by artifact name.
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
    _write_csv(records_path, RECORD_COLUMNS,
               ([v if isinstance(v, str) else float(v) for v in row]
                for row in map(operator.attrgetter(*RECORD_COLUMNS), ordered)))
    paths["records"] = str(records_path)

    summary_path = out / "summary.json"
    with open(summary_path, "w", encoding="utf-8") as handle:
        handle.write(summary_text)
    paths["summary"] = str(summary_path)

    if stats.series_dumps:
        series_dir = out / "series"
        series_dir.mkdir(exist_ok=True)
        for dump in stats.series_dumps:
            safe_id = dump.series_id.replace(":", "_").replace("/", "_")
            name = f"{safe_id}__{dump.scenario}__delta{repr(float(dump.delta))}.csv"
            _write_csv(series_dir / name, ("t", "original", "attacked"),
                       zip(range(len(dump.original)),
                           dump.original.astype(float, copy=False).tolist(),
                           dump.attacked.astype(float, copy=False).tolist()))
        paths["series_dir"] = str(series_dir)
    return paths
