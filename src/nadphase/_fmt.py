"""Deterministic output formatting shared by the CSV/JSON emitters.

Numbers are written with 12 significant digits, '.' decimal separator, and
'\\n' line endings, so repeated runs with the same configuration produce
byte-identical files.
"""

from __future__ import annotations

import json


def format_value(v) -> str:
    return f"{float(v):.12g}"


def _lines(header, rows):
    yield ",".join(header) + "\n"
    yield from (",".join(map(format_value, row)) + "\n" for row in rows)


def csv_text(header, rows) -> str:
    return "".join(_lines(header, rows))


def write_csv(file, header, rows) -> None:
    with open(file, "w", newline="") as fh:
        fh.writelines(_lines(header, rows))


def json_text(obj) -> str:
    return json.dumps(obj, indent=2) + "\n"
