import json
from fractions import Fraction

import pytest

from csdlab.reports import (
    REPORT_FIELDS,
    RunReport,
    decimal_str,
    degree_str,
    emit,
    emit_rows,
)


def sample_report():
    return RunReport(
        group="D(8)",
        order=8,
        l1=7,
        csd=Fraction(41, 49),
        d=Fraction(5, 8),
        lattice=10,
        sd=Fraction(23, 25),
        ndeg=Fraction(3, 5),
        cdeg=Fraction(7, 10),
        csd_star=Fraction(41, 49),
        is_iwasawa=False,
    )


def test_decimal_six_significant_digits_half_even():
    assert decimal_str(Fraction(41, 49)) == "0.836735"
    assert decimal_str(Fraction(7, 8)) == "0.875"
    assert decimal_str(Fraction(1)) == "1"
    assert decimal_str(Fraction(1, 3)) == "0.333333"
    assert decimal_str(Fraction(2, 3)) == "0.666667"
    # exact ties round to the even neighbor
    assert decimal_str(Fraction(1234565, 10**7)) == "0.123456"
    assert decimal_str(Fraction(1234575, 10**7)) == "0.123458"


def test_degree_str():
    assert degree_str(Fraction(41, 49)) == "41/49"
    assert degree_str(Fraction(1)) == "1/1"
    assert degree_str(None) is None
    assert degree_str(Fraction(41, 49), decimal=True) == "0.836735"


def test_emit_json_keys_are_field_names():
    data = json.loads(emit([sample_report()], "json"))
    assert isinstance(data, list) and len(data) == 1
    assert tuple(data[0].keys()) == REPORT_FIELDS
    assert data[0]["csd"] == "41/49"
    assert data[0]["is_iwasawa"] is False
    assert data[0]["wall_ms"] is None


def test_emit_csv_header_and_row():
    text = emit([sample_report()], "csv").decode()
    lines = text.splitlines()
    assert len(lines) == 2
    assert lines[0] == ",".join(REPORT_FIELDS)
    cells = lines[1].split(",")
    assert cells[0] == "D(8)"
    assert cells[4] == "41/49"
    assert cells[10] == "false"
    assert cells[11] == ""


def test_emit_text_alignment():
    out = emit([sample_report()], "text").decode()
    lines = out.splitlines()
    assert lines[0].startswith("group")
    assert "41/49" in lines[1]
    assert lines[1].rstrip() == lines[1]


def test_emit_decimal_mode():
    data = json.loads(emit([sample_report()], "json", decimal=True))
    assert data[0]["csd"] == "0.836735"
    assert data[0]["d"] == "0.625"


def test_emit_deterministic():
    reports = [sample_report(), sample_report()]
    assert emit(reports, "json") == emit(reports, "json")
    assert emit(reports, "csv") == emit(reports, "csv")
    assert emit(reports, "text") == emit(reports, "text")


def test_emit_rows_rejects_unknown_format():
    with pytest.raises(ValueError):
        emit_rows(("a",), [{"a": 1}], "yaml")


def test_emit_rows_missing_keys_render_as_absent():
    fields = ("a", "b", "c", "d")
    rows = [{"a": 1, "c": Fraction(41, 49), "d": True}]
    out = emit_rows(fields, rows, "csv").decode()
    assert out.splitlines()[1] == "1,,41/49,true"
    out = emit_rows(fields, rows, "csv", decimal=True).decode()
    assert out.splitlines()[1] == "1,,0.836735,true"
    out = emit_rows(fields, rows, "text").decode()
    assert out.splitlines()[1].split() == ["1", "-", "41/49", "true"]
    out = emit_rows(fields, rows, "text", decimal=True).decode()
    assert out.splitlines()[1].split() == ["1", "-", "0.836735", "true"]
    data = json.loads(emit_rows(fields, rows, "json"))
    assert data == [{"a": 1, "b": None, "c": "41/49", "d": True}]
    data = json.loads(emit_rows(fields, rows, "json", decimal=True))
    assert data == [{"a": 1, "b": None, "c": "0.836735", "d": True}]
