"""Row views and per-cell writers for the CLI's columns, for tests that check
one row or one cell at a time.

`icobattery.cli` computes and writes whole columns; these turn them back
into one dict per grid point, with None for an undefined efficiency, and
write them as CSV through `csv.writer`, formatting every cell on its own.
"""
from __future__ import annotations

import csv
import math

import numpy as np

from icobattery import cli
from icobattery.thermo import python_values


def _values(column) -> list:
    column = np.asarray(column)
    return python_values(column) if column.dtype.kind == "f" else column.tolist()


def rows(columns, names) -> list[dict]:
    """One dict per grid point, keyed by `names`, from the columns `columns`."""
    return [dict(zip(names, cells)) for cells in zip(*(_values(columns[k]) for k in names))]


def sweep_rows(config: cli.SweepConfig) -> list[dict]:
    """The rows `sweep` writes, in grid order: every ROW_FIELDS entry, plus
    max_engine_dev with --engine both."""
    names = cli.ROW_FIELDS + (("max_engine_dev",) if config.engine == "both" else ())
    return [row for cols in cli._sweep_columns(config) for row in rows(cols, names)]


def _fmt(value) -> str:
    """The per-cell rule write_csv follows, type by type."""
    if value is None:
        return ""
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    return str(value)


def reference_csv(path, fieldnames, columns) -> None:
    """write_csv one cell at a time: every entry through _fmt, NaN as None."""
    def cell(v):
        return _fmt(None if isinstance(v, (float, np.floating)) and math.isnan(v) else v)

    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(fieldnames)
        writer.writerows(zip(*([cell(v) for v in columns[k]] for k in fieldnames)))


def reference_sweep_csv(path, config: cli.SweepConfig) -> None:
    """The file `sweep` writes, from the columns of every batch joined, each
    cell formatted on its own: every N and every t of every row too."""
    names = cli.ROW_FIELDS + (("max_engine_dev",) if config.engine == "both" else ())
    batches = list(cli._sweep_columns(config))
    reference_csv(path, names, {k: np.concatenate([b[k] for b in batches]) for k in names})
