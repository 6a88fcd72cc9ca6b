"""Report emission: records.csv, summary.json, and plot-ready series CSVs.

Outputs are byte-deterministic for a given stats object: records are sorted
by key, floats are written with shortest-roundtrip repr, and JSON keys are
sorted.
"""

from __future__ import annotations

import csv
import json
from dataclasses import fields
from pathlib import Path
from typing import Dict

from . import __version__
from .experiments import Record, ScenarioStats

#: records.csv columns: the Record fields, in their order.
RECORD_COLUMNS = tuple(field.name for field in fields(Record))


def _fmt(value) -> str:
    if isinstance(value, str):
        return value
    return repr(float(value))


def emit_report(stats: ScenarioStats, out_dir) -> Dict[str, str]:
    """Write records.csv, summary.json, and per-series attack CSVs.

    Returns the paths written, keyed by artifact name.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    paths = {}

    records_path = out / "records.csv"
    ordered = sorted(stats.records, key=lambda r: (r.series_id, r.delta, r.scenario))
    with open(records_path, "w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow(RECORD_COLUMNS)
        for record in ordered:
            writer.writerow([_fmt(getattr(record, col)) for col in RECORD_COLUMNS])
    paths["records"] = str(records_path)

    summary_path = out / "summary.json"
    summary = {
        "version": __version__,
        "seed": stats.seed,
        "n_windows": stats.n_windows,
        "config": stats.config,
        "aggregates": list(stats.aggregates),
        "p_values": list(stats.p_values),
    }
    with open(summary_path, "w", encoding="utf-8") as handle:
        json.dump(summary, handle, indent=2, sort_keys=True)
        handle.write("\n")
    paths["summary"] = str(summary_path)

    if stats.series_dumps:
        series_dir = out / "series"
        series_dir.mkdir(exist_ok=True)
        for dump in stats.series_dumps:
            safe_id = dump.series_id.replace(":", "_").replace("/", "_")
            name = f"{safe_id}__{dump.scenario}__delta{_fmt(dump.delta)}.csv"
            with open(series_dir / name, "w", newline="", encoding="utf-8") as handle:
                writer = csv.writer(handle)
                writer.writerow(["t", "original", "attacked"])
                for t, (orig, adv) in enumerate(zip(dump.original, dump.attacked)):
                    writer.writerow([t, _fmt(orig), _fmt(adv)])
        paths["series_dir"] = str(series_dir)
    return paths
