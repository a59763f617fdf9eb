"""Deterministic output formatting shared by the CSV/JSON emitters.

Numbers are written with 12 significant digits, '.' decimal separator, and
'\\n' line endings, so repeated runs with the same configuration produce
byte-identical files.
"""

from __future__ import annotations

import json

import numpy as np


def format_value(v) -> str:
    return f"{float(v):.12g}"


def _lines(header, rows):
    # one %-format per row; "%.12g" % v matches format_value(v) for every float
    row_format = ",".join(["%.12g"] * len(header)) + "\n"
    yield ",".join(header) + "\n"
    yield from (row_format % tuple(row.tolist()) for row in np.asarray(rows, dtype=float))


def csv_text(header, rows) -> str:
    return "".join(_lines(header, rows))


def write_csv(file, header, rows) -> None:
    with open(file, "w", newline="") as fh:
        fh.writelines(_lines(header, rows))


def json_text(obj) -> str:
    return json.dumps(obj, indent=2) + "\n"
