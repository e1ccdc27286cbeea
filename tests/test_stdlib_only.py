"""megalie runs on the standard library alone: no runtime dependency enters src."""

import ast
import pathlib
import sys

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "megalie"


def outside_stdlib(path):
    """(line, module) of every absolute import whose top-level package is not in the standard library."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
        if isinstance(node, ast.Import):
            modules = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            modules = [node.module]
        else:
            continue
        found += [(node.lineno, m) for m in modules if m.split(".")[0] not in sys.stdlib_module_names]
    return found


def test_source_imports_only_the_standard_library():
    files = sorted(SRC.glob("*.py"))
    assert files
    found = {path.name: hits for path in files if (hits := outside_stdlib(path))}
    assert found == {}


def test_scan_sees_third_party_imports(tmp_path):
    sample = tmp_path / "sample.py"
    sample.write_text(
        "from __future__ import annotations\nimport json, sympy\nfrom numpy.linalg import inv\n"
        "from . import poly\nfrom .linalg import rat\nif True:\n    import hypothesis\n",
        encoding="utf-8",
    )
    assert outside_stdlib(sample) == [(2, "sympy"), (3, "numpy.linalg"), (7, "hypothesis")]
