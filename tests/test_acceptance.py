"""Acceptance gate: every criterion at its stated tolerance, one line each.

All comparisons are exact rational equality (zero tolerance).  Run with
`pytest tests/test_acceptance.py -v -s` to see the per-criterion lines.
"""

import json
import random
import subprocess
import sys
import time
from fractions import Fraction

from megalie.algebra import (
    LieAlgebra,
    algebra_from_brackets,
    algebra_to_dict,
    change_basis,
    validate,
)
from megalie.analysis import canonical_json
from megalie.automorphisms import (
    enumerate_coordinate_megaideals,
    solve_in_adapted_basis,
    substitute_parameters,
)
from megalie.linalg import Matrix, Subspace, unit_vector
from megalie.megaideals import TRANSPORTER_COMPLETENESS_NOTE, MegaidealVerdict, closure, verify_megaideal
from megalie.poly import parse_poly
from megalie.vectorfield import (
    FAMILY_VARIABLES,
    NotClosed,
    PolyVectorField,
    extract_structure,
    lie_bracket,
    pointmap_from_dict,
    realize_family,
    verify_homomorphism,
)

V = FAMILY_VARIABLES


def xpoly(text):
    return parse_poly(text, V)


def span(n, *rows):
    return Subspace.spanned_by(n, rows)


def matvec(m, v):
    """m times the column vector v, one dot product per row."""
    return tuple(sum((x * y for x, y in zip(row, v, strict=True)), Fraction(0)) for row in m.entries)


def report(number, label, elapsed=None):
    suffix = f" ({elapsed:.3f}s)" if elapsed is not None else ""
    print(f"[PASS] criterion {number}: {label}{suffix}")


def family_fields():
    fields = {
        "Du": realize_family("Du"),
        "Dt": realize_family("Dt"),
        "Pt": realize_family("Pt"),
        "F1": realize_family("F1"),
        "F2": realize_family("F2"),
    }
    for k, suffix in enumerate(("1", "x", "x2", "x3")):
        param = xpoly("1" if k == 0 else ("x" if k == 1 else f"x^{k}"))
        fields[f"D{suffix}"] = realize_family("D", param)
        fields[f"G{suffix}"] = realize_family("G", param)
    return fields


def test_criterion_1_commutation_table():
    start = time.perf_counter()
    fam = family_fields()
    params = {"1": xpoly("1"), "x": xpoly("x"), "x2": xpoly("x^2"), "x3": xpoly("x^3")}
    for p in params:
        assert lie_bracket(fam[f"G{p}"], fam["Du"]) == fam[f"G{p}"]
    assert lie_bracket(fam["F1"], fam["Du"]) == fam["F1"]
    assert lie_bracket(fam["F2"], fam["Du"]) == fam["F2"]
    assert lie_bracket(fam["Dt"], fam["F1"]) == fam["F1"]
    assert lie_bracket(fam["Dt"], fam["F2"]) == fam["F2"].scaled(2)
    assert lie_bracket(fam["Pt"], fam["Dt"]) == fam["Pt"]
    assert lie_bracket(fam["Pt"], fam["F1"]) == fam["G1"]
    assert lie_bracket(fam["Pt"], fam["F2"]) == fam["F1"].scaled(2)
    for p, pp in params.items():
        for q, qq in params.items():
            dd = pp * qq.derivative("x") - pp.derivative("x") * qq
            expected = PolyVectorField(V, {}) if dd.is_zero() else realize_family("D", dd)
            assert lie_bracket(fam[f"D{p}"], fam[f"D{q}"]) == expected
            gg = pp * qq.derivative("x")
            expected = PolyVectorField(V, {}) if gg.is_zero() else realize_family("G", gg)
            assert lie_bracket(fam[f"D{p}"], fam[f"G{q}"]) == expected
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    report(1, "commutation table reproduced exactly", elapsed)


def test_criterion_2_extraction_fidelity(fixtures_dir, m5, sl2d):
    start = time.perf_counter()
    fam = family_fields()
    extracted = extract_structure(
        [(n, fam[n]) for n in ("G1", "F1", "F2", "Pt", "Dt")], name="m5"
    )
    shipped = (fixtures_dir / "m5.json").read_text(encoding="utf-8")
    assert canonical_json(algebra_to_dict(extracted)) == shipped
    extracted_sl2d = extract_structure(
        [(n, fam[n]) for n in ("D1", "Dx", "Dx2")], name="sl2d"
    )
    shipped_sl2d = (fixtures_dir / "sl2d.json").read_text(encoding="utf-8")
    assert canonical_json(algebra_to_dict(extracted_sl2d)) == shipped_sl2d
    try:
        extract_structure([("Dx2", fam["Dx2"]), ("Dx3", fam["Dx3"])])
        raise AssertionError("expected NotClosed")
    except NotClosed:
        pass
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    report(2, "extraction byte-identical to fixtures; NotClosed raised", elapsed)


def test_criterion_3_closure_and_literal_transporter(m5):
    from megalie.algebra import transporter
    from megalie.analysis import analyze

    start = time.perf_counter()
    lattice = closure(m5)
    e = [unit_vector(5, i) for i in range(5)]
    expected = {
        span(5, e[0]),
        span(5, e[0], e[1]),
        span(5, e[0], e[1], e[2]),
        span(5, e[0], e[1], e[2], e[3]),
    }
    assert {m for m in lattice.members if not m.is_zero() and not m.is_full()} == expected
    # literal transporter value: [Pt, F2] = 2 F1 escapes <G1>, so Pt and F2
    # are excluded; the result is <G1, F1>, not the larger invariant span
    # <G1, F1, Pt> (which only the enumeration route of criterion 5 finds)
    mprime = span(5, e[0], e[1], e[2], e[3])
    assert transporter(m5, mprime, mprime, span(5, e[0])) == span(5, e[0], e[1])
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    # the pitfall note travels with every lattice report
    assert TRANSPORTER_COMPLETENESS_NOTE in analyze(m5)["lattice"]["notes"]
    report(3, "closure members exact; literal transporter value documented", elapsed)


def test_criterion_4_automorphism_solve(m5):
    start = time.perf_counter()
    basis, shape, system, param = solve_in_adapted_basis(m5, closure(m5))
    elapsed = time.perf_counter() - start
    assert param.residual_equations == ()

    def P(text):
        return parse_poly(text, shape.unknowns)

    a = param.assignments
    # verbatim relations
    assert a["a55"] == P("1")
    assert a["a34"] == P("0")
    assert a["a24"] == P("a44*a35")
    assert a["a14"] == P("a44*a25") - P("a45") * a["a24"]
    # derived relations (independent hand elimination committed in
    # tests/test_automorphisms.py::hand_elimination_oracle)
    assert a["a11"] == P("a33*a44^2")
    assert a["a22"] == P("a33*a44")
    assert a["a12"] == P("a45*a33*a44")
    assert a["a23"] == P("2*a45*a33")
    assert a["a13"] == P("a45^2*a33")
    assert len(param.free_parameters) == 6
    assert elapsed < 1.0
    report(4, "automorphism relations and 6 free parameters, residual-free", elapsed)


def test_criterion_5_invariant_enumeration(m5):
    start = time.perf_counter()
    basis, shape, system, param = solve_in_adapted_basis(m5, closure(m5))
    found = enumerate_coordinate_megaideals(param, basis)
    elapsed = time.perf_counter() - start
    proper = [s for _, s in found if 0 < s.dim < 5]
    assert len(proper) == 5
    e = [unit_vector(5, i) for i in range(5)]
    pt_span = span(5, e[0], e[1], e[3])  # <G1, F1, Pt>
    assert pt_span in proper
    assert elapsed < 1.0
    report(5, "exactly 5 proper invariant coordinate spans, incl. <G1,F1,Pt>", elapsed)


def _random_invertible(rng, n):
    while True:
        m = Matrix([[rng.randint(-2, 2) for _ in range(n)] for _ in range(n)])
        try:
            m.inverse()
        except ValueError:  # singular
            continue
        return m


def _corrupt_single_entry(g, rng):
    n = g.dim
    while True:
        i, j, k = rng.randrange(n), rng.randrange(n), rng.randrange(n)
        if i != j:
            break
    c = {(a, b): dict(enumerate(g.c[a][b])) for a in range(n) for b in range(n)}
    c[(i, j)][k] += 1
    return LieAlgebra(g.name, g.basis_names, c)


def test_criterion_6_property_suites(m5, sl2d, heisenberg, sl2, abelian3, fixtures_dir):
    start = time.perf_counter()
    rng = random.Random(20250810)

    # (a) fuzz: 200 conjugates of known-valid algebras accepted, single-entry
    # corruptions rejected
    bases = [
        abelian3,
        heisenberg,
        sl2,
        m5,
        algebra_from_brackets("aff1", ["h", "e"], {(0, 1): {1: 1}}),
    ]
    for case in range(200):
        g = bases[case % len(bases)]
        conjugated = change_basis(g, _random_invertible(rng, g.dim))
        assert validate(conjugated).ok
        corrupted = _corrupt_single_entry(conjugated, rng)
        assert not validate(corrupted).ok
    t_a = time.perf_counter() - start
    report("6a", "200 valid tensors accepted, corruptions rejected", t_a)

    # (b) every lattice member on every fixture passes verification
    for g in (m5, sl2d, heisenberg, sl2, abelian3):
        for member in closure(g).members:
            assert verify_megaideal(g, member) == MegaidealVerdict(True, True)
    report("6b", "all lattice members ideal + derivation-invariant")

    # (c) 20 sampled automorphisms per solved parametrization preserve brackets
    for g in (m5, heisenberg):
        basis, shape, system, param = solve_in_adapted_basis(g, closure(g))
        adapted = change_basis(g, basis.change_of_basis)
        n = g.dim
        samples = 0
        while samples < 20:
            values = {
                name: Fraction(rng.randint(-9, 9), rng.randint(1, 9))
                for name in param.free_parameters
            }
            try:
                a = substitute_parameters(param, values)
            except ValueError:
                continue
            samples += 1
            for i in range(n):
                for j in range(n):
                    lhs = matvec(a, adapted.bracket(unit_vector(n, i), unit_vector(n, j)))
                    rhs = adapted.bracket(matvec(a, unit_vector(n, i)), matvec(a, unit_vector(n, j)))
                    assert lhs == rhs
    report("6c", "20 sampled automorphisms per solved fixture preserve brackets")

    # (d) push-forward homomorphism checks for the three shipped maps
    fam = family_fields()
    named = [(n, fam[n]) for n in ("G1", "F1", "F2", "Pt", "Dt")]
    for map_name in ("tshift", "uscale", "ugauge"):
        data = json.loads((fixtures_dir / "maps" / f"{map_name}.json").read_text())
        pm = pointmap_from_dict(data)
        outcome = verify_homomorphism(pm, named)
        assert outcome["ok"] and outcome["pairs"] == 10
    report("6d", "3 shipped point maps push forward homomorphically")

    # (e) dimension identity on 500 random subspace pairs
    for _ in range(500):
        n = rng.randint(1, 8)
        rows_a = [[Fraction(rng.randint(-4, 4)) for _ in range(n)] for _ in range(rng.randint(0, n))]
        rows_b = [[Fraction(rng.randint(-4, 4)) for _ in range(n)] for _ in range(rng.randint(0, n))]
        a, b = Subspace.spanned_by(n, rows_a), Subspace.spanned_by(n, rows_b)
        assert a.sum(b).dim + a.intersect(b).dim == a.dim + b.dim
    total = time.perf_counter() - start
    assert total < 30.0
    report("6e", "sum/intersect dimension identity on 500 pairs", total)


def test_criterion_7_determinism(fixtures_dir):
    start = time.perf_counter()
    for fixture in ("m5.json", "sl2d.json"):
        first = subprocess.run(
            [sys.executable, "-m", "megalie", "analyze", str(fixtures_dir / fixture)],
            capture_output=True,
        )
        second = subprocess.run(
            [sys.executable, "-m", "megalie", "analyze", str(fixtures_dir / fixture)],
            capture_output=True,
        )
        assert first.stdout == second.stdout
        assert first.stdout  # non-empty reports
    elapsed = time.perf_counter() - start
    report(7, "consecutive analyze runs byte-identical per fixture", elapsed)
