"""Result records and deterministic table serialization.

A RunReport captures everything the compute command can say about one
group. Tables are emitted as JSON (array of objects), CSV (header plus
rows), or aligned text. A row is a sequence of cells in the order of the
table's fields, with None for an absent cell. `emit_rows` is the one
place a degree becomes text: every `Fraction` cell is rendered as
"num/den", or as a 6-significant-digit decimal (round-half-even) when
requested. Output is byte-identical across repeated runs.
"""

from __future__ import annotations

import io
from decimal import ROUND_HALF_EVEN, Decimal, localcontext
from fractions import Fraction
from typing import Iterable, Sequence

from ._record import Record

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


class RunReport(Record):
    """One group's computed degrees; optional fields are None when skipped."""

    __slots__ = (
        "group", "order", "l1", "csd", "d", "lattice", "sd", "ndeg", "cdeg", "csd_star",
        "is_iwasawa", "wall_ms",
    )

    def __init__(
        self,
        group: str,
        order: int,
        l1: int,
        csd: Fraction,
        d: Fraction,
        lattice: int | None = None,
        sd: Fraction | None = None,
        ndeg: Fraction | None = None,
        cdeg: Fraction | None = None,
        csd_star: Fraction | None = None,
        is_iwasawa: bool | None = None,
        wall_ms: float | None = None,
    ):
        self._fill(group, order, l1, csd, d, lattice, sd, ndeg, cdeg, csd_star, is_iwasawa, wall_ms)

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
    try:
        return f"{value.numerator}/{value.denominator}"
    except ValueError:  # past the int-to-str digit limit; an int becomes a Decimal exactly
        return f"{Decimal(value.numerator)}/{Decimal(value.denominator)}"


def _json_cell(value: object, decimal: bool) -> object:
    """A cell's JSON value: a Fraction is a degree and becomes its text."""
    return degree_str(value, decimal) if isinstance(value, Fraction) else value


def _flat_cell(value: object, decimal: bool, absent: str) -> str:
    """A cell as text or csv; `absent` marks a missing value."""
    if value is None:
        return absent
    if isinstance(value, bool):
        return "true" if value else "false"
    return str(_json_cell(value, decimal))


def emit_rows(
    fields: Sequence[str], rows: Iterable[Sequence[object]], fmt: str, decimal: bool = False
) -> bytes:
    """Serialize rows as a deterministic table.

    Each row holds its cells in `fields` order; None is an absent value
    (null, an empty csv cell, or "-" in text), and a Fraction cell is a
    degree, rendered by `degree_str`. `rows` may be any iterable, such as
    a generator; it is read once, after the format is checked.
    """
    if fmt not in FORMATS:
        raise ValueError(f"unknown format {fmt!r}, expected one of {FORMATS}")
    if fmt == "json":
        import json  # loaded only for the formats that need it, like csv below

        objects = [dict(zip(fields, [_json_cell(c, decimal) for c in row])) for row in rows]
        return (json.dumps(objects, indent=2) + "\n").encode()
    absent = "" if fmt == "csv" else "-"
    lines = ([_flat_cell(c, decimal, absent) for c in row] for row in rows)
    if fmt == "csv":
        import csv

        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(fields)
        writer.writerows(lines)
        return buf.getvalue().encode()
    table = [list(fields), *lines]
    widths = [max(len(line[i]) for line in table) for i in range(len(fields))]
    text = "\n".join(
        "  ".join(cell.ljust(w) for cell, w in zip(line, widths)).rstrip() for line in table
    )
    return (text + "\n").encode()


def emit(reports: Sequence[RunReport], fmt: str, decimal: bool = False) -> bytes:
    """Serialize RunReports with the fixed field order."""
    return emit_rows(REPORT_FIELDS, (r.cells(decimal).values() for r in reports), fmt)
