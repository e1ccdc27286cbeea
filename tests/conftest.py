import json
import pathlib

import pytest

from megalie.algebra import algebra_from_brackets, algebra_from_dict

ROOT = pathlib.Path(__file__).resolve().parent.parent
FIXTURES = ROOT / "fixtures"


def dense(row, n):
    """A sparse row {column: value} as the tuple of its n entries."""
    return tuple(row.get(k, 0) for k in range(n))


@pytest.fixture(scope="session")
def fixtures_dir() -> pathlib.Path:
    return FIXTURES


@pytest.fixture(scope="session")
def m5():
    data = json.loads((FIXTURES / "m5.json").read_text())
    return algebra_from_dict(data)


@pytest.fixture(scope="session")
def sl2d():
    data = json.loads((FIXTURES / "sl2d.json").read_text())
    return algebra_from_dict(data)


@pytest.fixture(scope="session")
def heisenberg():
    return algebra_from_brackets("heisenberg", ["e1", "e2", "e3"], {(0, 1): {2: 1}})


@pytest.fixture(scope="session")
def sl2():
    # basis (e, h, f): [h,e] = 2e, [h,f] = -2f, [e,f] = h
    return algebra_from_brackets(
        "sl2", ["e", "h", "f"], {(1, 0): {0: 2}, (1, 2): {2: -2}, (0, 2): {1: 1}}
    )


@pytest.fixture(scope="session")
def abelian3():
    return algebra_from_brackets("abelian3", ["x", "y", "z"], {})


def _rational_conjugate(g):
    """g in the basis of a unit upper-triangular matrix whose entries above the
    diagonal cycle through 1/2, -2/3, 3/5 (denominators in every constant)."""
    from itertools import cycle

    from megalie.algebra import change_basis
    from megalie.linalg import Matrix

    n, above = g.dim, cycle(("1/2", "-2/3", "3/5"))
    rows = [[next(above) if j > i else int(i == j) for j in range(n)] for i in range(n)]
    return change_basis(g, Matrix(rows))


@pytest.fixture(scope="session")
def reference_lattices():
    """{name: (algebra, closure)} for L6-L12, wave6, the six-field span with
    the u-scaling, h3, diag8, and a rational conjugate of each."""
    from megalie.megaideals import closure
    from megalie.poly import Poly
    from megalie.vectorfield import FAMILY_VARIABLES, extract_structure, realize_family

    one = Poly.const(FAMILY_VARIABLES, 1)
    spans = {
        "wave6": [(k, realize_family(k)) for k in ("Du", "Dt", "Pt", "F1", "F2")]
        + [("G1", realize_family("G", one))],
        "m6": [("G1", realize_family("G", one))]
        + [(k, realize_family(k)) for k in ("F1", "F2", "Pt", "Dt", "Du")],
    }
    algebras = {
        f"L{n}": algebra_from_brackets(
            f"L{n}", [f"e{i}" for i in range(1, n + 1)], {(0, i): {i + 1: 1} for i in range(1, n - 1)}
        )
        for n in range(6, 13)
    }
    algebras.update({name: extract_structure(fields, name=name) for name, fields in spans.items()})
    names = [f"x{i}" for i in range(1, 4)] + [f"y{i}" for i in range(1, 4)] + ["z"]
    algebras["h3"] = algebra_from_brackets("h3", names, {(i, 3 + i): {6: 1} for i in range(3)})
    names = [f"e{i}" for i in range(8)]
    algebras["diag8"] = algebra_from_brackets("diag8", names, {(0, i): {i: i} for i in range(1, 8)})
    for name in list(algebras):
        algebras[f"{name}/rational"] = _rational_conjugate(algebras[name])
    return {name: (g, closure(g)) for name, g in algebras.items()}
