"""The committed reports in out/ pin the analysis output byte for byte."""

import hashlib
import json
import pathlib

import pytest

from megalie import cli
from megalie.algebra import algebra_from_dict
from megalie.analysis import analyze, canonical_json

ROOT = pathlib.Path(__file__).resolve().parent.parent
FIXTURES = ROOT / "fixtures"
GOLDEN = ROOT / "out"


@pytest.mark.parametrize("name", ["m5", "sl2d"])
def test_api_report_matches_golden(name):
    data = json.loads((FIXTURES / f"{name}.json").read_text(encoding="utf-8"))
    report = canonical_json(analyze(algebra_from_dict(data)))
    assert report == (GOLDEN / f"{name}_analysis.json").read_text(encoding="utf-8")


@pytest.mark.parametrize("name, code", [("m5", 0), ("sl2d", 3)])
def test_cli_report_matches_golden(name, code, capsys, monkeypatch):
    # The CLI adds the input digest right after "tool"; everything else is
    # the API report.
    monkeypatch.chdir(ROOT)
    fixture = f"fixtures/{name}.json"
    assert cli.main(["analyze", fixture]) == code
    golden = json.loads((GOLDEN / f"{name}_analysis.json").read_text(encoding="utf-8"))
    digest = hashlib.sha256((ROOT / fixture).read_bytes()).hexdigest()
    expected = {"tool": golden.pop("tool"), "input": {"sha256": digest}, **golden}
    assert capsys.readouterr().out == canonical_json(expected)
