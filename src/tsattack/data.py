"""Series sources (ARIMA windows, demand CSVs) and the package's one CSV
writer, :func:`_write_csv`, which takes a table by its columns."""

from __future__ import annotations

import csv
import re
from dataclasses import dataclass, replace
from pathlib import Path
from typing import List, Sequence, Tuple

import numpy as np
from scipy.signal import lfilter

from .errors import ConfigurationError

#: Margin by which AR roots must clear the unit circle.
STATIONARITY_MARGIN = 1e-6

NORMALIZATION_MODES = ("none", "zscore-global", "zscore-window")


@dataclass(frozen=True, eq=False)
class ArimaSpec:
    """Parameters of an ARIMA(ar_order, diff_order, ma_order) generator."""

    ar_order: int
    diff_order: int
    ma_order: int
    ar_coeffs: np.ndarray
    ma_coeffs: np.ndarray
    innovation_std: float
    seed: int

    def __post_init__(self):
        object.__setattr__(self, "ar_coeffs", np.asarray(self.ar_coeffs, dtype=float).ravel())
        object.__setattr__(self, "ma_coeffs", np.asarray(self.ma_coeffs, dtype=float).ravel())
        for name in ("ar_order", "diff_order", "ma_order"):
            if getattr(self, name) < 0:
                raise ConfigurationError(f"{name} must be nonnegative")
        if self.ar_coeffs.size != self.ar_order:
            raise ConfigurationError(
                f"expected {self.ar_order} AR coefficients, got {self.ar_coeffs.size}"
            )
        if self.ma_coeffs.size != self.ma_order:
            raise ConfigurationError(
                f"expected {self.ma_order} MA coefficients, got {self.ma_coeffs.size}"
            )
        if self.innovation_std < 0:
            raise ConfigurationError("innovation_std must be nonnegative")
        if not _ar_stationary(self.ar_coeffs):
            raise ConfigurationError(
                "AR polynomial is not stationary (root inside or on the unit circle)"
            )


def _ar_stationary(ar_coeffs: np.ndarray) -> bool:
    """All roots of 1 - phi_1 z - ... - phi_p z^p strictly outside the unit disc."""
    if ar_coeffs.size == 0:
        return True
    poly = np.concatenate([[-c for c in ar_coeffs[::-1]], [1.0]])
    roots = np.roots(poly)
    return bool(np.all(np.abs(roots) > 1.0 + STATIONARITY_MARGIN))


@dataclass(frozen=True, eq=False)
class SeriesWindow:
    """One fixed-horizon window of a series, with its normalization scale."""

    values: np.ndarray
    source_id: str
    start_index: int
    scale: Tuple[float, float] = (0.0, 1.0)  # (offset, factor)

    def __post_init__(self):
        object.__setattr__(self, "values", np.asarray(self.values, dtype=float).ravel())
        if self.scale[1] <= 0:
            raise ConfigurationError("scale factor must be positive")

    @property
    def series_id(self) -> str:
        return f"{self.source_id}:{self.start_index:06d}"


def arima_generate(spec: ArimaSpec, count: int, horizon: int) -> List[SeriesWindow]:
    """Simulate `count` independent windows of length `horizon`.

    ARMA is simulated on the differenced scale with a burn-in of
    10 * (orders + 1) steps, then integrated diff_order times.  Window i uses
    the derived seed spec.seed + i, so generation is reproducible and
    order-independent.
    """
    if horizon < 1:
        raise ConfigurationError(f"horizon must be >= 1, got {horizon}")
    if count < 0:
        raise ConfigurationError(f"count must be >= 0, got {count}")
    orders = spec.ar_order + spec.diff_order + spec.ma_order
    burn_in = 10 * (orders + 1)
    ma_poly = np.concatenate([[1.0], spec.ma_coeffs])
    ar_poly = np.concatenate([[1.0], -spec.ar_coeffs])
    windows = []
    for i in range(count):
        rng = np.random.default_rng(spec.seed + i)
        innovations = spec.innovation_std * rng.standard_normal(burn_in + horizon)
        series = lfilter(ma_poly, ar_poly, innovations)[burn_in:]
        for _ in range(spec.diff_order):
            series = np.cumsum(series)
        windows.append(SeriesWindow(values=series, source_id="arima", start_index=i))
    return windows


def sample_random_arima(seed: int, horizon: int, count: int) -> List[SeriesWindow]:
    """Windows from a randomly parameterized ARIMA(2, 1, 2) process.

    AR/MA coefficients are drawn uniformly from [-0.9, 0.9] and resampled
    until the AR polynomial is stationary (bounded at 1000 tries);
    innovation std is 1.  One parameter draw covers the whole dataset.
    """
    rng = np.random.default_rng(seed)
    for _ in range(1000):
        ar = rng.uniform(-0.9, 0.9, size=2)
        ma = rng.uniform(-0.9, 0.9, size=2)
        if _ar_stationary(ar):
            spec = ArimaSpec(
                ar_order=2, diff_order=1, ma_order=2,
                ar_coeffs=ar, ma_coeffs=ma,
                innovation_std=1.0, seed=seed,
            )
            return arima_generate(spec, count, horizon)
    raise ConfigurationError("failed to draw a stationary AR polynomial in 1000 tries")


def load_series_windows(path, column_name: str, horizon: int, stride: int = None) -> List[SeriesWindow]:
    """Slide fixed-length windows over one numeric column of a CSV file.

    The file must have a header row and rows in time order.  Partial tail
    windows are dropped.  Default stride is the horizon (non-overlapping
    windows, so downstream paired statistics stay independent).
    """
    if horizon < 1:
        raise ConfigurationError(f"horizon must be >= 1, got {horizon}")
    if stride is None:
        stride = horizon
    if stride < 1:
        raise ConfigurationError(f"stride must be >= 1, got {stride}")
    path = Path(path)
    with open(path, newline="", encoding="utf-8") as handle:
        reader = csv.reader(handle)
        try:
            header = next(reader)
        except StopIteration:
            raise ConfigurationError(f"{path}: empty file") from None
        header = [name.strip() for name in header]
        if column_name not in header:
            raise ConfigurationError(
                f"{path}: column {column_name!r} not found; available: {header}"
            )
        col = header.index(column_name)
        values = []
        for row_number, row in enumerate(reader, start=2):
            if not row:
                continue
            try:
                values.append(float(row[col]))
            except (ValueError, IndexError):
                cell = row[col] if col < len(row) else "<missing>"
                raise ConfigurationError(
                    f"{path}: non-numeric value {cell!r} in column "
                    f"{column_name!r} at row {row_number}"
                ) from None
    if len(values) < horizon:
        raise ConfigurationError(
            f"{path}: insufficient rows ({len(values)}) for horizon {horizon}"
        )
    data = np.asarray(values, dtype=float)
    windows = []
    for start in range(0, len(data) - horizon + 1, stride):
        windows.append(
            SeriesWindow(
                values=data[start:start + horizon],
                source_id=path.stem,
                start_index=start,
            )
        )
    return windows


def normalize_windows(windows: Sequence[SeriesWindow], mode: str) -> List[SeriesWindow]:
    """Shift/scale windows; the applied (offset, factor) is stored per window.

    zscore-global uses the mean/std of the whole dataset, zscore-window the
    per-window statistics.  Constant data cannot be z-scored.
    """
    if mode not in NORMALIZATION_MODES:
        raise ConfigurationError(
            f"unknown normalization mode {mode!r}; expected one of {NORMALIZATION_MODES}"
        )
    if mode == "none" or not windows:
        return list(windows)
    if mode == "zscore-global":
        pooled = np.concatenate([w.values for w in windows])
        offset = float(np.mean(pooled))
        factor = float(np.std(pooled))
        if factor <= 1e-12:
            raise ConfigurationError("cannot z-score constant data")
        return [
            replace(w, values=(w.values - offset) / factor, scale=(offset, factor))
            for w in windows
        ]
    out = []
    for w in windows:
        offset = float(np.mean(w.values))
        factor = float(np.std(w.values))
        if factor <= 1e-12:
            raise ConfigurationError(
                f"cannot z-score constant window {w.series_id}"
            )
        out.append(
            replace(w, values=(w.values - offset) / factor, scale=(offset, factor))
        )
    return out


#: A text cell holding one of these is quoted, as the csv module's default
#: dialect quotes it (QUOTE_MINIMAL: delimiter, quote character, CR, LF).
_NEEDS_QUOTES = re.compile('[,"\r\n]')


def _text_cells(column) -> list:
    """The str cells of a text column, quoted where the csv module would
    quote them, with every ``"`` doubled."""
    cells = list(column)
    if _NEEDS_QUOTES.search("".join(cells)) is None:
        return cells
    return ['"' + cell.replace('"', '""') + '"' if _NEEDS_QUOTES.search(cell) else cell
            for cell in cells]


def _cells(column) -> tuple:
    """The formatted cells of one numeric column, as a tuple: an integer
    array's cells are its ints, any other array's ``repr(float(v))``, which
    reads back bitwise."""
    if column.dtype.kind in "iu":
        return tuple(map(str, column.tolist()))
    return tuple(map(repr, column.astype(float, copy=False).tolist()))


def _write_csv(path, header, columns) -> None:
    """Write a table, given by its header and its columns of equal length, in
    one write: byte for byte what ``csv.writer``'s default dialect writes for
    the header and the rows, with every numeric cell a Python float (an
    integer array's an int).  A numpy array is numeric and formatted by
    :func:`_cells`; a tuple is a column :func:`_cells` already formatted,
    written as it is, since none of its cells needs quotes; any other
    sequence is text, of str cells, quoted where the csv module quotes.  A
    table has at least two columns, so no row is the one empty field the csv
    module writes as ``""``."""
    if len(header) < 2 or len(columns) != len(header):
        raise ValueError(f"expected a header and columns of at least two columns, "
                         f"got {len(header)} names and {len(columns)} columns")
    cells = [column if isinstance(column, tuple)
             else _cells(column) if isinstance(column, np.ndarray) else _text_cells(column)
             for column in columns]
    lines = [",".join(_text_cells(header))]
    lines += map(",".join, zip(*cells, strict=True))
    lines.append("")
    with open(path, "w", newline="", encoding="utf-8") as handle:
        handle.write("\r\n".join(lines))


def write_series_csv(windows: Sequence[SeriesWindow], path) -> None:
    """Write windows as rows (window_id, t, value) in :func:`_write_csv`'s format;
    no windows is an error, as :func:`read_series_csv` rejects a file with no rows."""
    if not windows:
        raise ConfigurationError(f"{path}: no windows to write")
    _write_csv(path, ("window_id", "t", "value"),
               ([window.series_id for window in windows for _ in range(len(window.values))],
                np.concatenate([np.arange(len(window.values)) for window in windows]),
                np.concatenate([window.values for window in windows])))


def read_series_csv(path) -> List[SeriesWindow]:
    """Read windows written by :func:`write_series_csv` (order-preserving, not empty).

    Each row's ``t`` must be the next index of its window (0, 1, 2, ...), so
    a repeated, skipped or out-of-order row is an error naming the file and
    the row.
    """
    path = Path(path)
    groups: dict = {}
    with open(path, newline="", encoding="utf-8") as handle:
        reader = csv.reader(handle)
        header = next(reader, None)
        if header is None or [h.strip() for h in header[:3]] != ["window_id", "t", "value"]:
            raise ConfigurationError(
                f"{path}: expected header window_id,t,value, got {header}"
            )
        for row_number, row in enumerate(reader, start=2):
            if not row:
                continue
            try:
                t, value = int(row[1]), float(row[2])
            except (ValueError, IndexError):
                raise ConfigurationError(
                    f"{path}: malformed row {row_number}: {row}"
                ) from None
            values = groups.setdefault(row[0], [])
            if t != len(values):
                raise ConfigurationError(
                    f"{path}: row {row_number} has t = {t} for window {row[0]!r}, "
                    f"expected {len(values)}"
                )
            values.append(value)
    if not groups:
        raise ConfigurationError(f"{path}: no rows after the header")
    return [
        SeriesWindow(values=np.asarray(vals), source_id=window_id, start_index=0)
        for window_id, vals in groups.items()
    ]
