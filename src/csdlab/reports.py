"""Result records and deterministic table serialization.

A RunReport captures everything the compute command can say about one
group. Tables are emitted as JSON (array of objects), CSV (header plus
rows), or aligned text. `emit_rows` is the one place a degree becomes
text: every `Fraction` cell is rendered as "num/den", or as a
6-significant-digit decimal (round-half-even) when requested. Output is
byte-identical across repeated runs.
"""

from __future__ import annotations

import csv
import io
import json
from dataclasses import dataclass
from decimal import ROUND_HALF_EVEN, Decimal, localcontext
from fractions import Fraction
from typing import Sequence

REPORT_FIELDS = (
    "group",
    "order",
    "l1",
    "lattice",
    "csd",
    "sd",
    "ndeg",
    "cdeg",
    "d",
    "csd_star",
    "is_iwasawa",
    "wall_ms",
)

FORMATS = ("json", "csv", "text")


@dataclass
class RunReport:
    """One group's computed degrees; optional fields are None when skipped."""

    group: str
    order: int
    l1: int
    csd: Fraction
    d: Fraction
    lattice: int | None = None
    sd: Fraction | None = None
    ndeg: Fraction | None = None
    cdeg: Fraction | None = None
    csd_star: Fraction | None = None
    is_iwasawa: bool | None = None
    wall_ms: float | None = None

    def cells(self, decimal: bool = False) -> dict[str, object]:
        """Field-name -> JSON-ready value, in REPORT_FIELDS order."""
        cells = {name: _json_cell(getattr(self, name), decimal) for name in REPORT_FIELDS}
        if self.wall_ms is not None:
            cells["wall_ms"] = round(self.wall_ms, 3)
        return cells


def decimal_str(value: Fraction) -> str:
    """Decimal expansion with 6 significant digits, ties to even."""
    with localcontext() as ctx:
        ctx.prec = 6
        ctx.rounding = ROUND_HALF_EVEN
        quot = Decimal(value.numerator) / Decimal(value.denominator)
    return str(quot)


def degree_str(value: Fraction | None, decimal: bool = False) -> str | None:
    if value is None:
        return None
    if decimal:
        return decimal_str(value)
    return f"{value.numerator}/{value.denominator}"


def _json_cell(value: object, decimal: bool) -> object:
    """A cell's JSON value: a Fraction is a degree and becomes its text."""
    if isinstance(value, Fraction):
        return degree_str(value, decimal)
    return value


def _flat_cell(value: object, absent: str) -> str:
    """A JSON cell value as text or csv; `absent` marks a missing value."""
    if value is None:
        return absent
    if isinstance(value, bool):
        return "true" if value else "false"
    return str(value)


def emit_rows(
    fields: Sequence[str], rows: Sequence[dict[str, object]], fmt: str, decimal: bool = False
) -> bytes:
    """Serialize rows (dicts over `fields`) as a deterministic table.

    Fraction cells are degrees, rendered by `degree_str`; a missing key is
    an absent value (null, an empty csv cell, or "-" in text).
    """
    shaped = [[_json_cell(row.get(name), decimal) for name in fields] for row in rows]
    if fmt == "json":
        objects = [dict(zip(fields, line)) for line in shaped]
        return (json.dumps(objects, indent=2) + "\n").encode()
    if fmt == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(fields)
        writer.writerows([_flat_cell(cell, "") for cell in line] for line in shaped)
        return buf.getvalue().encode()
    if fmt == "text":
        table = [list(fields)] + [[_flat_cell(cell, "-") for cell in line] for line in shaped]
        widths = [max(len(line[i]) for line in table) for i in range(len(fields))]
        lines = [
            "  ".join(cell.ljust(widths[i]) for i, cell in enumerate(line)).rstrip()
            for line in table
        ]
        return ("\n".join(lines) + "\n").encode()
    raise ValueError(f"unknown format {fmt!r}, expected one of {FORMATS}")


def emit(reports: Sequence[RunReport], fmt: str, decimal: bool = False) -> bytes:
    """Serialize RunReports with the fixed field order."""
    return emit_rows(REPORT_FIELDS, [r.cells(decimal) for r in reports], fmt)
