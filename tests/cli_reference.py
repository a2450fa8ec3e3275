"""Row views of the CLI's columns, for tests that check one row at a time.

`icobattery.cli` computes and writes whole columns; these turn them back
into one dict per grid point, with None for an undefined efficiency.
"""
from __future__ import annotations

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
