"""CSV ingestion and plot-ready output files.

Curve files carry the grid times as a header row and one curve per subsequent
row.  All floats are written with 17 significant digits so a round trip
through disk is value-preserving.
"""

from __future__ import annotations

import csv
import json
from pathlib import Path

import numpy as np

from .errors import ParseError, RaggedRows
from .penalties import TimeGrid, build_time_grid

FLOAT_FMT = "%.17g"


def load_curves(path) -> tuple[TimeGrid, np.ndarray]:
    """Read a curves CSV: header of times, one curve per row."""
    path = Path(path)
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    rows = [row for row in rows if row and any(cell.strip() for cell in row)]
    if len(rows) < 2:
        raise ParseError(f"{path}: expected a header row of times and at least one curve")
    header = rows[0]
    try:
        times = [float(cell) for cell in header]
    except ValueError as exc:
        bad = next(i for i, cell in enumerate(header) if not _is_float(cell))
        raise ParseError(f"{path}: header column {bad + 1} is not numeric") from exc
    grid = build_time_grid(times)
    p = grid.p
    data = np.empty((len(rows) - 1, p))
    for i, row in enumerate(rows[1:], start=1):
        if len(row) != p:
            raise RaggedRows(f"{path}: row {i + 1} has {len(row)} cells, expected {p}")
        for j, cell in enumerate(row):
            try:
                data[i - 1, j] = float(cell)
            except ValueError as exc:
                raise ParseError(
                    f"{path}: row {i + 1}, column {j + 1} is not numeric: {cell!r}"
                ) from exc
    bad = np.argwhere(~np.isfinite(data))
    if bad.size:
        raise ParseError(
            f"{path}: row {bad[0, 0] + 2}, column {bad[0, 1] + 1} is not finite")
    return grid, data


def _is_float(cell: str) -> bool:
    try:
        float(cell)
        return True
    except ValueError:
        return False


def write_curves(path, grid, matrix: np.ndarray) -> None:
    """Write a curves CSV; ``grid`` may be a TimeGrid or a bare time vector."""
    times = grid.points if isinstance(grid, TimeGrid) else np.asarray(grid)
    matrix = np.atleast_2d(np.asarray(matrix, dtype=float))
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow([FLOAT_FMT % v for v in times])
        for row in matrix:
            writer.writerow([FLOAT_FMT % v for v in row])


def write_table(path, header: list[str], columns: list[np.ndarray]) -> None:
    """Column-oriented CSV with a named header (e.g. time,estimate,lower,upper)."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in zip(*columns):
            writer.writerow([FLOAT_FMT % v for v in row])


def write_summary(path, summary: dict) -> None:
    with open(path, "w") as fh:
        json.dump(_jsonable(summary), fh, indent=2, sort_keys=True)
        fh.write("\n")


def _jsonable(value):
    if isinstance(value, dict):
        return {k: _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, np.ndarray):
        return value.tolist()
    if isinstance(value, (np.floating, np.integer)):
        return value.item()
    return value
