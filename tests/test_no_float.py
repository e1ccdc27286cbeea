"""Floats never enter megalie: not in the source, not in a report."""

import ast
import pathlib

import pytest

from megalie.algebra import algebra_from_brackets
from megalie.analysis import analyze

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "megalie"


def floats_in_source(path):
    """(line, what) of every float literal and every use of the name `float`."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
        if isinstance(node, ast.Constant) and isinstance(node.value, (float, complex)):
            found.append((node.lineno, repr(node.value)))
        elif isinstance(node, ast.Name) and node.id == "float":
            found.append((node.lineno, "float"))
    return found


def floats_in_report(obj, where="report"):
    if isinstance(obj, float):
        return [where]
    if isinstance(obj, dict):
        items = obj.items()
    elif isinstance(obj, (list, tuple)):
        items = enumerate(obj)
    else:
        return []
    return [hit for key, value in items for hit in floats_in_report(value, f"{where}[{key!r}]")]


def test_source_has_no_float():
    files = sorted(SRC.glob("*.py"))
    assert files
    found = {path.name: hits for path in files if (hits := floats_in_source(path))}
    assert found == {}


def test_scan_sees_floats(tmp_path):
    sample = tmp_path / "sample.py"
    sample.write_text("x = 0.5\ny = float(1)\nz = 1\n", encoding="utf-8")
    assert floats_in_source(sample) == [(1, "0.5"), (2, "float")]
    assert floats_in_report({"a": [1, {"b": 0.5}]}) == ["report['a'][1]['b']"]


def filiform(n):
    names = [f"e{i}" for i in range(1, n + 1)]
    return algebra_from_brackets(f"L{n}", names, {(0, i): {i + 1: 1} for i in range(1, n - 1)})


@pytest.mark.parametrize("name", ["m5", "sl2d", "L8"])
def test_report_has_no_float(name, request):
    g = filiform(8) if name == "L8" else request.getfixturevalue(name)
    assert floats_in_report(analyze(g)) == []
