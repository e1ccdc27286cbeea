"""The committed reports in out/ pin the analysis output byte for byte."""

import hashlib
import itertools
import json
import pathlib
import re

import pytest

import megalie
from megalie import cli, vectorfield
from megalie.algebra import algebra_from_brackets, algebra_from_dict, change_basis
from megalie.analysis import analyze, canonical_json
from megalie.linalg import Matrix
from megalie.poly import Poly

ROOT = pathlib.Path(__file__).resolve().parent.parent
FIXTURES = ROOT / "fixtures"
GOLDEN = ROOT / "out"


def test_package_and_reports_carry_one_version():
    # every report names __version__, so a golden change bumps it; the
    # packaged version must move with it
    text = (ROOT / "pyproject.toml").read_text(encoding="utf-8")
    match = re.search(r'^version = "([^"]+)"$', text, re.MULTILINE)
    assert match is not None
    assert match.group(1) == megalie.__version__


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


def filiform(n):
    names = [f"e{i}" for i in range(1, n + 1)]
    return algebra_from_brackets(f"L{n}", names, {(0, i): {i + 1: 1} for i in range(1, n - 1)})


def heisenberg(k):
    names = [f"x{i}" for i in range(1, k + 1)] + [f"y{i}" for i in range(1, k + 1)] + ["z"]
    return algebra_from_brackets(f"h{k}", names, {(i, k + i): {2 * k: 1} for i in range(k)})


def diagonal(n):
    names = [f"e{i}" for i in range(n)]
    return algebra_from_brackets(f"diag{n}", names, {(0, i): {i: i} for i in range(1, n)})


def abelian(n):
    return algebra_from_brackets(f"ab{n}", [f"x{i}" for i in range(n)], {})


def fixture(name):
    return algebra_from_dict(json.loads((FIXTURES / f"{name}.json").read_text(encoding="utf-8")))


def rational_conjugate(g):
    """g in the basis given by the rows of a unit upper-triangular matrix whose
    entries above the diagonal cycle through 1/2, -2/3, 3/5, so that the
    structure constants and the lattice members' RREF rows have denominators."""
    n, above = g.dim, itertools.cycle(("1/2", "-2/3", "3/5"))
    rows = [[next(above) if j > i else int(i == j) for j in range(n)] for i in range(n)]
    return change_basis(g, Matrix(rows))


def wave6():
    fields = [(k, vectorfield.realize_family(k)) for k in ("Du", "Dt", "Pt", "F1", "F2")]
    one = Poly.const(vectorfield.FAMILY_VARIABLES, 1)
    fields.append(("G1", vectorfield.realize_family("G", one)))
    return vectorfield.extract_structure(fields, name="wave6")


# sha256 of canonical_json(analyze(g)) for the benchmark's algebras, built as
# in bench/workloads.py, for L24, whose closure answers the most transporters
# from containment, and for h4 and diag9, whose 8x8 block determinants
# (40,320 terms each) are the largest expansion, for the abelian ab7 and ab8,
# whose one diagonal block is the whole 7x7 and 8x8 matrix, and for rational
# conjugates of m5 and L6 (solved) and of sl2d (residual), whose structure
# constants have denominators.  A change that alters any report byte changes
# these.
REPORT_SHA256 = {
    "L8": (lambda: filiform(8), "c5a878146a322ac6e2879a2528ac7f06dae924ca0c7d15e9ca4bafd8102a4c84"),
    "L10": (lambda: filiform(10), "c6f31549028ca7ccd2e5e056886a0611ee857b70cbf647069c3e271102c02a12"),
    "L12": (lambda: filiform(12), "430e51e3240d4fa461ddd50ea78027b426e3a375377d7012cbecbf2ac15dfdfc"),
    "L16": (lambda: filiform(16), "d3015c0574043cb7bb72942099c049a5d261b90688b758afb404de7ad9d344a1"),
    "L24": (lambda: filiform(24), "2b234ded042ee646e7943fc3cbc1281b984166783871e3cf50cdde2964f0c3a2"),
    "wave6": (wave6, "2e7f30097ba9f99008bc3d28636b677253d7ebf7b557b8232d52557ce6142a1f"),
    "h3": (lambda: heisenberg(3), "9c6da13e175856704edf997d87e701011ea81db396b1adbc4453972127c8fa46"),
    "diag8": (lambda: diagonal(8), "a9f2cc6e578d2bdf1ff20eb65590e19222cd1141fd4aebd33f1dc13611be8dd6"),
    "h4": (lambda: heisenberg(4), "5eae7d99f40bfdbf535911231f27e1afe0c900205dac5bebb929b809584126b1"),
    "diag9": (lambda: diagonal(9), "c2862556e2d9fdaf487f0b6539471ade0078e1f2c4752b196521a9fb95a29896"),
    "ab7": (lambda: abelian(7), "658cb881af8cc9f00cf515c8971a9f870d6f95caa8996f89ffe2bdda24b31522"),
    "ab8": (lambda: abelian(8), "222f11e0f35d3bff01624222b4ee1509393fc9f0f0d7fde97dae6871f7dc6189"),
    "m5/rational": (lambda: rational_conjugate(fixture("m5")), "53d8e9f2d9cc79f9d3872172a0d2c6d3b80555cbb1de7286a9d9edc28f6f95e2"),
    "L6/rational": (lambda: rational_conjugate(filiform(6)), "a6eb9ebf9eddcc14d1713712aa36af81ec934161aaea59c8727ead951b2ce7aa"),
    "sl2d/rational": (lambda: rational_conjugate(fixture("sl2d")), "49f28f8090c7a9e0cdac1a93d919e505bf51d80c065dcef38f2fbcb98b5e2f60"),
}


@pytest.mark.parametrize("name", sorted(REPORT_SHA256))
def test_report_digest_is_pinned(name):
    build, digest = REPORT_SHA256[name]
    report = canonical_json(analyze(build()))
    assert hashlib.sha256(report.encode("utf-8")).hexdigest() == digest


# sha256 of the report on the closure path the default budget does not take:
# a pass budget that cuts the closure short (wave6 has 6 members after one
# pass and 11 after two, and reaches its fixpoint in the fourth).
OPTIONS_SHA256 = {
    "L10/budget=1": (
        lambda: filiform(10),
        1,
        "22213df9e0ec44ef708f858202748161a00f44630741d73eae05c7710956e0bf",
    ),
    "wave6/budget=1": (
        wave6,
        1,
        "01981779aa261ae405e5142745493144e0e4e0cd2c24f415c9f7b2b9d7cdba4b",
    ),
    "wave6/budget=2": (
        wave6,
        2,
        "87d068b640b3dcdbbf6e8691b1b37ee56b9e11f7b9163f35ca258850c86d0344",
    ),
}


@pytest.mark.parametrize("name", sorted(OPTIONS_SHA256))
def test_option_report_digest_is_pinned(name):
    build, budget, digest = OPTIONS_SHA256[name]
    report = canonical_json(analyze(build(), budget=budget))
    assert hashlib.sha256(report.encode("utf-8")).hexdigest() == digest
