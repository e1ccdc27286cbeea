import gc
import random
from dataclasses import replace
from fractions import Fraction
from itertools import combinations

import pytest

from conftest import _rational_conjugate, dense
from megalie.algebra import NotNilpotent, _exp_ad, algebra_from_brackets, change_basis, derivations
from megalie.automorphisms import (
    ResidualSystem,
    _mismatch,
    _symbolic_det,
    adapted_basis,
    check_invariant,
    enumerate_coordinate_megaideals,
    inner_consistency,
    shape_from_flag,
    solve_in_adapted_basis,
    structure_equations,
    substitute_parameters,
    triangular_solve,
)
from megalie.linalg import AmbientMismatch, Matrix, Subspace, unit_vector
from megalie.megaideals import MegaidealVerdict, closure
from megalie.poly import ExpansionError, Poly, parse_poly


def span(n, *rows):
    return Subspace.spanned_by(n, rows)


def matvec(m, v):
    """m times the column vector v, one dot product per row."""
    return tuple(sum((x * y for x, y in zip(row, v, strict=True)), Fraction(0)) for row in m.entries)


@pytest.fixture(scope="module")
def m5_solution(m5):
    lattice = closure(m5)
    return solve_in_adapted_basis(m5, lattice)


class TestAdaptedBasis:
    def test_m5_identity_chain(self, m5):
        basis = adapted_basis(m5, closure(m5))
        assert [s.dim for s in basis.flag] == [1, 2, 3, 4, 5]
        assert basis.change_of_basis == Matrix([[int(i == j) for j in range(5)] for i in range(5)])
        assert basis.block_sizes == (1, 1, 1, 1, 1)
        assert basis.extra_coordinate_members == ()

    def test_trivial_lattice_single_block(self, sl2d):
        basis = adapted_basis(sl2d, closure(sl2d))
        assert basis.block_sizes == (3,)

    def test_diagonal_member_sent_to_first_coordinate(self, abelian3):
        g2 = algebra_from_brackets("ab2", ["x", "y"], {})
        lattice = closure(g2, seeds=[span(2, [1, 1])])
        basis = adapted_basis(g2, lattice)
        assert basis.change_of_basis.entries[0] == (Fraction(1), Fraction(1))
        # flag-prefix property: each flag member spanned by a row prefix
        for member in basis.flag:
            prefix = span(2, *basis.change_of_basis.entries[: member.dim])
            assert prefix == member


class TestExtraCoordinateMembers:
    def test_incomparable_member_cuts_the_shape(self, abelian3):
        # seeds <e1> and <e2> both enter the lattice; the greedy chain can
        # use only one of them, and the other must surface as an extra
        # coordinate constraint that zeroes more of the pattern
        lattice = closure(abelian3, seeds=[span(3, [1, 0, 0]), span(3, [0, 1, 0])])
        basis = adapted_basis(abelian3, lattice)
        assert basis.extra_coordinate_members
        shape = shape_from_flag(basis)
        for coords in basis.extra_coordinate_members:
            for j in coords:
                for i in range(3):
                    if i not in coords:
                        assert shape.pattern[i][j] is None
        # with both lines invariant the matrix is forced diagonal-ish:
        # strictly fewer unknowns than the chain alone would allow
        chain_only = sum(
            1
            for i in range(3)
            for j in range(3)
            if j >= i  # upper triangular from the full flag
        )
        assert len(shape.unknowns) < chain_only


class TestShape:
    def test_full_flag_upper_triangular(self, m5_solution):
        _, shape, _, _ = m5_solution
        assert len(shape.unknowns) == 15
        for i in range(5):
            for j in range(5):
                assert (shape.pattern[i][j] is None) == (i > j)
        assert [c.to_str() for c in shape.side_conditions] == [
            "a11",
            "a22",
            "a33",
            "a44",
            "a55",
        ]

    def test_single_block_full_matrix_with_det(self, sl2d):
        basis = adapted_basis(sl2d, closure(sl2d))
        shape = shape_from_flag(basis)
        assert len(shape.unknowns) == 9
        assert len(shape.side_conditions) == 1
        det = shape.side_conditions[0]
        assert {sum(e) for e in det.terms} == {3} and len(det.terms) == 6

    def test_two_block_flag(self, abelian3):
        lattice = closure(abelian3, seeds=[span(3, [1, 0, 0], [0, 1, 0])])
        basis = adapted_basis(abelian3, lattice)
        shape = shape_from_flag(basis)
        assert shape.pattern[2][0] is None and shape.pattern[2][1] is None
        assert shape.pattern[0][2] is not None


class TestSymbolicDet:
    def test_minors_are_freed_on_return(self):
        # without a garbage collection, only the determinant itself survives
        entries = [[f"a{i}{j}" for j in range(5)] for i in range(5)]
        names = tuple(name for row in entries for name in row)

        def polys_alive():
            return sum(isinstance(o, Poly) for o in gc.get_objects())

        gc.collect()
        gc.disable()
        try:
            before = polys_alive()
            det = _symbolic_det(entries, names)
            after = polys_alive()
        finally:
            gc.enable()
        assert len(det.terms) == 120
        assert after - before == 1

    def test_no_polynomial_products_or_sums(self, monkeypatch):
        entries = [[f"a{i}{j}" for j in range(6)] for i in range(6)]
        names = tuple(name for row in entries for name in row)
        calls = []
        for method in ("__mul__", "__add__"):
            original = getattr(Poly, method)

            def counted(self, other, method=method, original=original):
                calls.append(method)
                return original(self, other)

            monkeypatch.setattr(Poly, method, counted)
        det = _symbolic_det(entries, names)
        assert calls == []
        assert len(det.terms) == 720

    def test_full_9x9_grid_past_the_bound_raises(self):
        entries = [[f"a{i}{j}" for j in range(9)] for i in range(9)]
        names = tuple(name for row in entries for name in row)
        with pytest.raises(ExpansionError, match="past 100000 permutations"):
            _symbolic_det(entries, names)


class TestStructureEquations:
    def test_abelian_empty(self, abelian3):
        basis = adapted_basis(abelian3, closure(abelian3))
        system = structure_equations(abelian3, shape_from_flag(basis))
        assert system.equations == ()

    def test_heisenberg_wedge(self, heisenberg):
        basis, shape, system, param = solve_in_adapted_basis(heisenberg, closure(heisenberg))
        # adapted order puts the center first: [e2~, e3~] = e1~ forces
        # a11 = a22 a33 - a23 a32 (the 2x2 block wedge)
        wedge = parse_poly("a22*a33 - a23*a32 - a11", shape.unknowns)
        assert wedge.content_normalized() in [e.content_normalized() for e in system.equations]
        assert param.assignments["a11"] == parse_poly("a22*a33 - a23*a32", shape.unknowns)
        assert param.residual_equations == ()

    def test_m5_equation_count_and_a55(self, m5_solution):
        _, shape, system, _ = m5_solution
        assert len(system.equations) == 12
        a44_eq = parse_poly("a44*a55 - a44", shape.unknowns).content_normalized()
        assert a44_eq in [e.content_normalized() for e in system.equations]


def hand_elimination_oracle(unknowns):
    """Independent by-hand solution of the M5 bracket compatibility system.

    Upper-triangular A with A q_j = sum_{i<=j} a_ij q_i, brackets
    [q4,q5]=q4, [q5,q2]=q2, [q5,q3]=2q3, [q4,q2]=q1, [q4,q3]=2q2,
    diagonal entries nonzero.  Expanding A[q_i,q_j] = [A q_i, A q_j]:

      (2,4): a11 = a22 a44
      (2,5): a12 = a22 a45          and   a22 (a55 - 1) = 0
      (3,4): 2 a12 = a23 a44        and   a22 = a33 a44
      (3,5): 2 a13 = a23 a45,  2 a23 = a23 a55 + 2 a33 a45,  a33 (a55-1) = 0
      (4,5): a14 = a44 a25 - a24 a45
             a24 = 2 a44 a35 - a24 a55 - 2 a34 a45
             3 a34 = 0  (after a55 = 1)
             a44 (a55 - 1) = 0

    a44 != 0 forces a55 = 1; then a34 = 0, a24 = a44 a35,
    a23 = 2 a33 a45, a13 = a33 a45^2, a22 = a33 a44, a12 = a33 a44 a45,
    a11 = a33 a44^2, a14 = a44 a25 - a44 a35 a45.  Free: a15 a25 a33 a35
    a44 a45.
    """

    def P(text):
        return parse_poly(text, unknowns)

    return {
        "a55": P("1"),
        "a34": P("0"),
        "a24": P("a44*a35"),
        "a23": P("2*a33*a45"),
        "a13": P("a33*a45^2"),
        "a22": P("a33*a44"),
        "a12": P("a33*a44*a45"),
        "a11": P("a33*a44^2"),
        "a14": P("a44*a25 - a44*a35*a45"),
    }


class TestTriangularSolveM5:
    def test_matches_hand_elimination(self, m5_solution):
        _, shape, _, param = m5_solution
        expected = hand_elimination_oracle(shape.unknowns)
        assert param.residual_equations == ()
        assert set(param.assignments) == set(expected)
        for name, poly in expected.items():
            assert param.assignments[name] == poly, name
        assert param.free_parameters == ("a15", "a25", "a33", "a35", "a44", "a45")

    def test_division_audit_only_nonzero_factors(self, m5_solution):
        _, shape, _, param = m5_solution
        allowed = {"a11", "a22", "a33", "a44", "a55"}
        for record in param.division_audit:
            factors = parse_poly(record["divided_by"], shape.unknowns).monomial_variables()
            assert factors is not None
            assert set(factors) <= allowed

    def test_substituting_back_kills_equations(self, m5_solution):
        _, shape, system, param = m5_solution
        for eq in system.equations:
            assert eq.substitute(param.assignments).is_zero()


class TestTriangularSolveOther:
    def test_bare_solve_carries_its_shape(self, heisenberg):
        basis = adapted_basis(heisenberg, closure(heisenberg))
        shape = shape_from_flag(basis)
        system = structure_equations(basis.algebra, shape)
        assert system.shape is shape
        param = triangular_solve(system)
        assert param.shape is shape
        assert param.shape.side_conditions == shape.side_conditions
        free = param.free_parameters
        entry = Poly(free, {exps: m[0, 0] for exps, m in param.form.items() if (0, 0) in m})
        assert entry == parse_poly("a22*a33 - a23*a32", free)
        assert not any((1, 0) in m for m in param.form.values())

    def test_abelian_everything_free(self, abelian3):
        basis, shape, system, param = solve_in_adapted_basis(abelian3, closure(abelian3))
        assert param.assignments == {}
        assert len(param.free_parameters) == 9

    def test_sl2_residuals_remain(self, sl2d):
        basis, shape, system, param = solve_in_adapted_basis(sl2d, closure(sl2d))
        assert param.residual_equations
        # sound partial solve: substituting assignments into the original
        # equations leaves exactly the residual set
        leftovers = []
        for eq in system.equations:
            reduced = eq.substitute(param.assignments).content_normalized()
            if not reduced.is_zero():
                leftovers.append(reduced)
        assert sorted(e.to_str() for e in leftovers) == sorted(
            e.to_str() for e in param.residual_equations
        )


class TestTriangularSolveColumns:
    """The scan reads columns, so it needs the equations over shape.unknowns."""

    def test_equations_over_other_variables_rejected(self, m5_solution):
        _, shape, system, _ = m5_solution
        reordered = tuple(reversed(shape.unknowns))
        for variables in (reordered, shape.unknowns[:-1], shape.unknowns + ("z",)):
            equations = system.equations + (Poly.var(variables, variables[0]),)
            with pytest.raises(ValueError, match="not over the shape's unknowns"):
                triangular_solve(replace(system, equations=equations))

    def test_solve_makes_no_name_lookups(self, monkeypatch):
        names = [f"e{i}" for i in range(1, 17)]
        g = algebra_from_brackets("L16", names, {(0, i): {i + 1: 1} for i in range(1, 15)})
        basis = adapted_basis(g, closure(g))
        system = structure_equations(basis.algebra, shape_from_flag(basis))
        calls = []
        original = Poly.mentions
        monkeypatch.setattr(Poly, "mentions", lambda p, name: calls.append(name) or original(p, name))
        param = triangular_solve(system)
        assert calls == []
        assert param.assignments and param.residual_equations == ()


class TestSampledAutomorphisms:
    def _sample(self, param, rng):
        while True:
            values = {
                name: Fraction(rng.randint(-9, 9), rng.randint(1, 9))
                for name in param.free_parameters
            }
            try:
                return substitute_parameters(param, values)
            except ValueError:
                continue

    def test_twenty_samples_preserve_brackets(self, m5, heisenberg):
        rng = random.Random(42)
        for g in (m5, heisenberg):
            lattice = closure(g)
            basis, shape, system, param = solve_in_adapted_basis(g, lattice)
            adapted = change_basis(g, basis.change_of_basis)
            n = g.dim
            for _ in range(20):
                a = self._sample(param, rng)
                for i in range(n):
                    for j in range(n):
                        lhs = matvec(a, adapted.bracket(unit_vector(n, i), unit_vector(n, j)))
                        rhs = adapted.bracket(matvec(a, unit_vector(n, i)), matvec(a, unit_vector(n, j)))
                        assert lhs == rhs


class TestInvariantEnumeration:
    def test_m5_exactly_five_proper(self, m5_solution):
        basis, shape, system, param = m5_solution
        found = enumerate_coordinate_megaideals(param, basis)
        proper = [s for _, s in found if 0 < s.dim < 5]
        e = [unit_vector(5, i) for i in range(5)]
        expected = {
            span(5, e[0]),
            span(5, e[0], e[1]),
            span(5, e[0], e[1], e[2]),
            span(5, e[0], e[1], e[3]),
            span(5, e[0], e[1], e[2], e[3]),
        }
        assert set(proper) == expected
        assert len(proper) == 5

    @pytest.mark.parametrize("name", ["m5", "L8"])
    def test_matches_check_invariant_scan(self, name, m5):
        # filiform L8: [e1, ei] = e(i+1) for 2 <= i <= 7
        filiform = algebra_from_brackets(
            "L8", [f"e{i}" for i in range(1, 9)], {(0, i): {i + 1: 1} for i in range(1, 7)}
        )
        g = m5 if name == "m5" else filiform
        basis, _, _, param = solve_in_adapted_basis(g, closure(g))
        scanned = []
        for size in range(g.dim + 1):
            for subset in combinations(range(g.dim), size):
                if check_invariant(param, span(g.dim, *[unit_vector(g.dim, j) for j in subset])):
                    rows = [basis.change_of_basis.entries[j] for j in subset]
                    scanned.append((subset, Subspace.spanned_by(g.dim, rows)))
        found = enumerate_coordinate_megaideals(param, basis)
        assert found == scanned
        assert len(found) > 2

    def test_enumerated_spaces_pass_verification(self, m5, m5_solution):
        from megalie.megaideals import verify_megaideal

        basis, _, _, param = m5_solution
        for _, s in enumerate_coordinate_megaideals(param, basis):
            assert verify_megaideal(m5, s) == MegaidealVerdict(True, True)

    def test_check_invariant_examples(self, m5_solution):
        _, shape, _, param = m5_solution
        assert check_invariant(param, Subspace.full(5))
        # A F1 has G1 component a12 = a33 a44 a45, not identically zero
        assert not check_invariant(param, span(5, [0, 1, 0, 0, 0]))
        with pytest.raises(AmbientMismatch):
            check_invariant(param, Subspace.full(4))

    def test_flag_members_invariant(self, m5_solution):
        basis, _, _, param = m5_solution
        for member in basis.flag:
            assert check_invariant(param, member)

    def test_flag_prefixes_invariant_in_adapted_coordinates(self, heisenberg, m5):
        # the flag shows up as coordinate prefixes of the adapted basis,
        # and those prefixes are fixed identically in the parameters
        for g in (heisenberg, m5):
            basis, shape, system, param = solve_in_adapted_basis(g, closure(g))
            boundary = 0
            for size in basis.block_sizes:
                boundary += size
                prefix = span(g.dim, *[unit_vector(g.dim, k) for k in range(boundary)])
                assert check_invariant(param, prefix)

    def test_residual_system_refused(self, sl2d):
        basis, shape, system, param = solve_in_adapted_basis(sl2d, closure(sl2d))
        with pytest.raises(ResidualSystem):
            enumerate_coordinate_megaideals(param, basis)
        with pytest.raises(ResidualSystem):
            check_invariant(param, Subspace.full(3))
        with pytest.raises(ResidualSystem):  # before the names are checked
            substitute_parameters(param, {})
        with pytest.raises(ResidualSystem):
            inner_consistency(sl2d, param, basis)

    def test_enumeration_cap(self, m5_solution):
        basis, _, _, param = m5_solution
        with pytest.raises(ValueError):
            enumerate_coordinate_megaideals(param, basis, max_dim=4)


class TestConjugatedPresentations:
    def test_conjugated_m5_solves_in_any_presentation(self, m5):
        # the pipeline must not depend on the input basis: conjugate the
        # fixture by random invertible matrices and run everything.  The
        # chain members always show up among the invariant coordinate
        # spans; the non-chain span <G1,F1,Pt> is found exactly when the
        # adapted basis happens to expose it as a coordinate span (the
        # fixture basis does; a random presentation need not).
        rng = random.Random(99)
        for _ in range(4):
            while True:
                b = Matrix([[rng.randint(-2, 2) for _ in range(5)] for _ in range(5)])
                try:
                    b.inverse()
                except ValueError:  # singular
                    continue
                break
            g = change_basis(m5, b)
            lattice = closure(g)
            assert [e.subspace.dim for e in lattice.entries] == [0, 1, 2, 3, 4, 5]
            basis, shape, system, param = solve_in_adapted_basis(g, lattice)
            assert param.residual_equations == ()
            assert len(param.free_parameters) == 6
            found = enumerate_coordinate_megaideals(param, basis)
            proper = [s for _, s in found if 0 < s.dim < 5]
            assert 4 <= len(proper) <= 5
            for member in lattice.members[1:-1]:
                assert member in proper
            from megalie.megaideals import verify_megaideal

            for _, s in found:
                assert verify_megaideal(g, s) == MegaidealVerdict(True, True)
            assert inner_consistency(g, param, basis)["ok"]


class TestSixDimensionalExtension:
    def test_span_with_extra_scaling_direction(self):
        # adjoin the u-scaling generator to the five-dimensional span: the
        # lattice acquires incomparable members, the flag is again full,
        # and the solve still terminates residual-free
        from megalie.poly import parse_poly
        from megalie.vectorfield import FAMILY_VARIABLES, extract_structure, realize_family

        fields = [
            ("G1", realize_family("G", parse_poly("1", FAMILY_VARIABLES))),
            ("F1", realize_family("F1")),
            ("F2", realize_family("F2")),
            ("Pt", realize_family("Pt")),
            ("Dt", realize_family("Dt")),
            ("Du", realize_family("Du")),
        ]
        g = extract_structure(fields, name="m6")
        lattice = closure(g)
        dims = [e.subspace.dim for e in lattice.entries]
        assert dims == [0, 1, 2, 3, 3, 4, 4, 4, 5, 5, 5, 5, 6]
        members = set(lattice.members)
        e = [unit_vector(g.dim, i) for i in range(6)]
        assert span(6, e[0], e[1], e[2]) in members  # <G1,F1,F2>
        assert span(6, e[0], e[1], e[3]) in members  # <G1,F1,Pt>, constructively
        basis, shape, system, param = solve_in_adapted_basis(g, lattice)
        assert param.residual_equations == ()
        assert len(param.free_parameters) == 6
        found = enumerate_coordinate_megaideals(param, basis)
        proper = [s for _, s in found if 0 < s.dim < 6]
        assert len(proper) == 8
        assert inner_consistency(g, param, basis)["ok"]


class TestInnerConsistency:
    def test_m5_all_matched(self, m5, m5_solution):
        basis, _, _, param = m5_solution
        report = inner_consistency(m5, param, basis)
        assert report["ok"]
        # G1, F1, F2, Pt have nilpotent adjoints; Dt does not
        assert len(report["checks"]) == 12
        by_element = {c["element"] for c in report["checks"]}
        assert by_element == {"G1", "F1", "F2", "Pt"}

    def test_pt_match_pins_a45(self, m5, m5_solution):
        basis, _, _, param = m5_solution
        report = inner_consistency(m5, param, basis)
        pt_checks = {c["t"]: c for c in report["checks"] if c["element"] == "Pt"}
        assert pt_checks["1"]["parameters"]["a45"] == "1"
        assert pt_checks["-1"]["parameters"]["a45"] == "-1"
        assert pt_checks["1/2"]["parameters"]["a45"] == "1/2"

    def test_abelian_identity_only(self, abelian3):
        basis, shape, system, param = solve_in_adapted_basis(abelian3, closure(abelian3))
        report = inner_consistency(abelian3, param, basis)
        assert report["ok"]
        for check in report["checks"]:
            assert all(
                value == ("1" if name in ("a11", "a22", "a33") else "0")
                for name, value in check["parameters"].items()
            )

    def test_heisenberg_unitriangular_consistent(self, heisenberg):
        basis, shape, system, param = solve_in_adapted_basis(heisenberg, closure(heisenberg))
        report = inner_consistency(heisenberg, param, basis)
        assert report["ok"]

    def test_wrong_assignment_reports_the_entry(self, m5, m5_solution):
        # a12 one too large: every inner automorphism now disagrees at row 1, column 2
        basis, shape, _, param = m5_solution
        a12 = param.assignments["a12"] + parse_poly("1", shape.unknowns)
        wrong = replace(param, assignments={**param.assignments, "a12": a12})
        report = inner_consistency(m5, wrong, basis)
        assert not report["ok"]
        assert len(report["checks"]) == 12
        for check in report["checks"]:
            assert check["matched"] is False and "parameters" not in check
            mismatch = check["mismatch"]
            assert (mismatch["row"], mismatch["col"]) == (1, 2)
            assert Fraction(mismatch["expected"]) == Fraction(mismatch["actual"]) + 1
        # exp(ad G1) reads off a45 = 0, so a12 = a33*a44*a45 is 0 there
        first = report["checks"][0]
        assert (first["element"], first["t"]) == ("G1", "1")
        assert first["mismatch"] == {"row": 1, "col": 2, "expected": "1", "actual": "0"}

    def test_matching_substitutes_nothing(self, m5, m5_solution, monkeypatch):
        # side conditions are tested at the unknowns read off each matrix
        basis, _, _, param = m5_solution
        calls = []
        original = Poly.substitute

        def counted(self, mapping):
            calls.append(self)
            return original(self, mapping)

        monkeypatch.setattr(Poly, "substitute", counted)
        assert inner_consistency(m5, param, basis)["ok"]
        assert calls == []

    def test_side_conditions_are_not_evaluated(self, m5, m5_solution, monkeypatch):
        # each diagonal block's rank decides, not its determinant expanded term by term
        basis, _, _, param = m5_solution
        calls = []
        original = Poly.evaluate

        def counted(self, values):
            calls.append(self)
            return original(self, values)

        monkeypatch.setattr(Poly, "evaluate", counted)
        assert inner_consistency(m5, param, basis)["ok"]
        values = {name: 1 for name in param.free_parameters}
        substitute_parameters(param, values)
        with pytest.raises(ValueError, match="side condition"):
            substitute_parameters(param, {**values, "a44": 0})
        assert calls == []

    def test_vanishing_side_condition_is_reported(self, m5_solution):
        # every entry matches, but a44 = 0 makes the first block a11 = a33*a44^2 singular
        _, _, _, param = m5_solution
        point = [Fraction(0) if name == "a44" else Fraction(1) for name in param.free_parameters]
        assert _mismatch(param, param.matrix_at(point), point) == {"side_condition": "a33*a44^2"}
        point = [Fraction(1)] * len(param.free_parameters)
        assert _mismatch(param, param.matrix_at(point), point) is None


def _wave6():
    from megalie.vectorfield import FAMILY_VARIABLES, extract_structure, realize_family

    fields = [(k, realize_family(k)) for k in ("Du", "Dt", "Pt", "F1", "F2")]
    fields.append(("G1", realize_family("G", parse_poly("1", FAMILY_VARIABLES))))
    return extract_structure(fields, name="wave6")


class TestAdaptedAlgebra:
    @pytest.mark.parametrize("name", ["m5", "L8", "wave6"])
    def test_inner_automorphisms_match_in_adapted_basis(self, name, m5):
        # B^-T exp(t ad e_i) B^T, conjugated in the original basis, is
        # exp(t ad' x_i) in the adapted algebra with x_i = row i of B^-1
        if name == "m5":
            g = m5
        elif name == "L8":
            g = algebra_from_brackets(
                "L8", [f"e{i}" for i in range(1, 9)], {(0, i): {i + 1: 1} for i in range(1, 7)}
            )
        else:
            g = _wave6()
        basis = adapted_basis(g, closure(g))
        b = basis.change_of_basis
        assert basis.inverse == b.inverse()
        assert basis.algebra.c == change_basis(g, b).c
        b_t, b_t_inv = (Matrix(list(zip(*m.entries))) for m in (b, b.inverse()))
        matched = 0
        for i in range(g.dim):
            try:
                original = _exp_ad(g, unit_vector(g.dim, i))
            except NotNilpotent:
                with pytest.raises(NotNilpotent):
                    _exp_ad(basis.algebra, basis.inverse.entries[i])
                continue
            adapted = _exp_ad(basis.algebra, basis.inverse.entries[i])
            for t in (Fraction(1), Fraction(-1), Fraction(1, 2)):
                assert adapted(t) == b_t_inv @ original(t) @ b_t
                matched += 1
        assert matched > 0

    def test_analyze_inverts_once(self, m5, monkeypatch):
        from megalie.analysis import analyze

        calls = []
        original = Matrix.inverse

        def counted(self):
            calls.append(self)
            return original(self)

        monkeypatch.setattr(Matrix, "inverse", counted)
        analyze(m5)
        assert len(calls) == 1

    def test_analyze_makes_no_matvec(self, monkeypatch):
        # the adapted algebra is one product of the stacked brackets with the
        # inverse, not one matrix-vector product per bracket pair
        from megalie.analysis import analyze

        calls = []
        original = Matrix.__matmul__

        def counted(self, other):
            if other.cols == 1:  # a matrix-vector product
                calls.append(other)
            return original(self, other)

        monkeypatch.setattr(Matrix, "__matmul__", counted)
        g = algebra_from_brackets(
            "L10", [f"e{i}" for i in range(1, 11)], {(0, i): {i + 1: 1} for i in range(1, 9)}
        )
        analyze(g)
        assert calls == []


class TestFreeParameters:
    @pytest.mark.parametrize("name, dim", [("m5", 6), ("wave6", 6), ("L8", 15), ("L10", 19), ("L16", 31)])
    def test_solved_system_has_dim_der_free_parameters(self, name, dim, m5):
        # Der(g) is the Lie algebra of Aut(g), so a solved parametrization of
        # Aut(g) has exactly dim Der(g) free parameters
        if name == "m5":
            g = m5
        elif name == "wave6":
            g = _wave6()
        else:
            n = int(name[1:])
            g = algebra_from_brackets(name, [f"e{i}" for i in range(1, n + 1)], {(0, i): {i + 1: 1} for i in range(1, n - 1)})
        _, _, _, param = solve_in_adapted_basis(g, closure(g))
        assert param.solved
        assert len(param.free_parameters) == derivations(g).dim == dim


def kernel(rows, width):
    """The null space of a rational matrix, from its RREF: one vector per free column."""
    if not rows:
        return Subspace.full(width)
    reduced, pivots = Matrix(rows, cols=width).rref_with_pivots()
    vectors = []
    for f in (c for c in range(width) if c not in pivots):
        t = [Fraction(0)] * width
        t[f] = Fraction(1)
        for r, p in enumerate(pivots):
            t[p] = -reduced.entries[r][f]
        vectors.append(t)
    return Subspace.spanned_by(width, vectors)


class TestTangentIdentity:
    """The tangent space of the automorphism equations at A = I is Der(g).

    A(t) = I + tD solves A[x,y] = [Ax,Ay] to first order exactly when D is
    a derivation, so the Jacobian of the structure equations at the
    identity, over the shape's unknowns, has Der(g) of the adapted algebra
    as its kernel, once every derivation is known to vanish off the shape.
    """

    @staticmethod
    def jacobian_at_identity(system):
        shape = system.shape
        identity = {name: Fraction(int(i == j)) for i, row in enumerate(shape.pattern) for j, name in enumerate(row) if name}
        return [
            [eq.derivative(name).evaluate(identity) if eq.mentions(name) else Fraction(0) for name in shape.unknowns]
            for eq in system.equations
        ]

    def assert_identity(self, g):
        """Check the identity on g; return the kernel dimension and whether the system solved."""
        basis, shape, system, param = solve_in_adapted_basis(g, closure(g))
        n = g.dim
        der = derivations(basis.algebra)
        cells = [(i, j) for i, row in enumerate(shape.pattern) for j, name in enumerate(row) if name]
        off_shape = [(i, j) for i, row in enumerate(shape.pattern) for j, name in enumerate(row) if not name]
        rows = [dense(row, n * n) for row in der.rows]
        for row in rows:
            assert all(row[i * n + j] == 0 for i, j in off_shape), g.name
        restricted = Subspace.spanned_by(len(cells), [[row[i * n + j] for i, j in cells] for row in rows])
        tangent = kernel(self.jacobian_at_identity(system), len(shape.unknowns))
        assert tangent == restricted, g.name
        assert tangent.dim == der.dim, g.name
        if param.solved:
            assert len(param.free_parameters) == derivations(g).dim, g.name
        return tangent.dim, param.solved

    def test_named_algebras(self, m5, sl2d):
        def filiform(n):
            return algebra_from_brackets(f"L{n}", [f"e{i}" for i in range(1, n + 1)], {(0, i): {i + 1: 1} for i in range(1, n - 1)})

        def diagonal(n):
            return algebra_from_brackets(f"diag{n}", [f"e{i}" for i in range(n)], {(0, i): {i: i} for i in range(1, n)})

        h3_names = [f"x{i}" for i in range(1, 4)] + [f"y{i}" for i in range(1, 4)] + ["z"]
        h3 = algebra_from_brackets("h3", h3_names, {(i, 3 + i): {6: 1} for i in range(3)})
        cases = [m5, sl2d, _wave6(), filiform(8), filiform(10), h3, diagonal(5), diagonal(8)]
        dims = [self.assert_identity(g)[0] for g in cases]
        assert dims == [6, 3, 6, 15, 19, 28, 8, 14]

    def test_graded_nilpotent_draws(self):
        from test_megaideals import graded_nilpotent

        drawn = [g for g in map(graded_nilpotent, range(60)) if g is not None][:40]
        assert len(drawn) == 40
        solved = sum(self.assert_identity(g)[1] for g in drawn)
        assert solved >= 27


def reference_extra_members(lattice, basis):
    """The extra coordinate members as each member's basis times the inverse,
    kept when every row of its RREF is a unit vector."""
    n = basis.inverse.rows
    chain_set = set(basis.flag)
    extras = []
    for member in lattice.members:
        if member in chain_set or member.is_zero():
            continue
        transformed = Subspace.spanned_by(n, (member.basis @ basis.inverse).entries)
        if all(sum(x != 0 for x in row) == 1 for row in transformed.basis.entries):
            extras.append(transformed.pivots)
    return tuple(sorted(set(extras)))


class TestExtraMembersAgainstReference:
    def test_containment_matches_the_transformed_basis(self, reference_lattices):
        found = 0
        for name, (g, lattice) in reference_lattices.items():
            basis = adapted_basis(g, lattice)
            assert basis.extra_coordinate_members == reference_extra_members(lattice, basis), name
            found += len(basis.extra_coordinate_members)
        assert found > 0


def reference_entries(param):
    """The solved matrix as a grid of polynomials over all unknowns: the
    assignment, the free unknown itself, or zero where the shape forces it."""
    variables = param.shape.unknowns
    zero = Poly.zero(variables)
    rows = []
    for pattern_row in param.shape.pattern:
        row = []
        for name in pattern_row:
            if name is None:
                row.append(zero)
            elif name in param.assignments:
                row.append(param.assignments[name])
            else:
                row.append(Poly.var(variables, name))
        rows.append(tuple(row))
    return tuple(rows)


def reference_check_invariant(param, s):
    """check_invariant as a loop over the polynomial grid: for each basis row
    v of s and each monomial, the coefficient vector of A v must lie in s."""
    n = param.shape.dim
    entries = reference_entries(param)
    for v in s.basis.entries:
        by_monomial = {}
        for i in range(n):
            for j in range(n):
                if v[j] != 0:
                    for exps, coeff in entries[i][j].terms.items():
                        by_monomial.setdefault(exps, [0] * n)[i] += coeff * v[j]
        if not all(s.contains(column) for column in by_monomial.values()):
            return False
    return True


def repeated_row_points(param, point):
    """point with the first row of a k x k diagonal block (k >= 2) copied onto
    its second, once for each such block whose cells are all free parameters;
    that block is singular there, though no parameter is zero."""
    free = {name: k for k, name in enumerate(param.free_parameters)}
    pattern, ends = param.shape.pattern, param.shape.blocks
    for a, b in zip((0, *ends), ends):
        if b - a > 1 and all(pattern[i][j] in free for i in range(a, b) for j in range(a, b)):
            copied = list(point)
            for j in range(a, b):
                copied[free[pattern[a + 1][j]]] = point[free[pattern[a][j]]]
            yield copied


@pytest.fixture(scope="module")
def block_lattices():
    """{name: (algebra, closure)} whose shapes have k x k diagonal blocks, k >= 2:
    Heisenberg dim 3 (block sizes 1, 2), ab2, ab4, h1 + ab1 (1, 1, 2) and ab3
    closed with a 2-dimensional seed (2, 1)."""

    def abelian(n):
        return algebra_from_brackets(f"ab{n}", [f"x{i}" for i in range(n)], {})

    algebras = {
        "heisenberg3": (algebra_from_brackets("heisenberg3", ["x", "y", "z"], {(0, 1): {2: 1}}), ()),
        "ab2": (abelian(2), ()),
        "ab4": (abelian(4), ()),
        "h1+ab1": (algebra_from_brackets("h1+ab1", ["x", "y", "z", "w"], {(0, 1): {2: 1}}), ()),
        "ab3/seed": (abelian(3), (span(3, (1, 0, 0), (0, 1, 0)),)),
    }
    return {name: (g, closure(g, seeds)) for name, (g, seeds) in algebras.items()}


class TestSolvedFormAgainstReference:
    def test_evaluation_side_conditions_and_invariance(self, reference_lattices, block_lattices):
        rng = random.Random(16)
        solved = vanished = singular_blocks = 0
        verdicts = set()
        for name, (g, lattice) in {**reference_lattices, **block_lattices}.items():
            basis, _, _, param = solve_in_adapted_basis(g, lattice)
            if not param.solved:
                continue
            solved += 1
            n, free = g.dim, param.free_parameters
            entries = reference_entries(param)
            conditions = param.shape.side_conditions

            def expected_condition(point):
                values = dict(zip(free, point))
                matrix = param.matrix_at(point)
                assert matrix.entries == tuple(tuple(e.evaluate(values) for e in row) for row in entries), name
                expected = next(
                    (c for c in conditions if c.substitute(param.assignments).evaluate(values) == 0), None
                )
                assert param.vanishing_condition(matrix) == expected, name
                return expected

            for trial in range(6):
                point = [Fraction(rng.choice((-1, 1)) * rng.randint(1, 9), rng.randint(1, 9)) for _ in free]
                if trial % 2:  # a zero parameter reaches the vanishing branch too
                    point[rng.randrange(len(point))] = Fraction(0)
                vanished += expected_condition(point) is not None
                for repeated in repeated_row_points(param, point):
                    assert expected_condition(repeated) is not None, name
                    singular_blocks += 1
            for member in lattice.members:
                adapted = Subspace.spanned_by(n, (member.basis @ basis.inverse).entries)
                assert check_invariant(param, adapted), name
                assert reference_check_invariant(param, adapted), name
            for _ in range(6):
                k = rng.randint(1, n - 1)
                coordinates = span(n, *[unit_vector(g.dim, j) for j in rng.sample(range(n), k)])
                spanned = span(n, *[[rng.randint(-2, 2) for _ in range(n)] for _ in range(k)])
                for s in (coordinates, spanned):
                    verdicts.add(verdict := check_invariant(param, s))
                    assert verdict == reference_check_invariant(param, s), name
            # an invariant coordinate span plus one more coordinate: each leak decides
            invariant = [coords for coords, _ in enumerate_coordinate_megaideals(param, basis)]
            for coords in rng.sample(invariant[1:-1], min(2, len(invariant) - 2)):
                for j in (j for j in range(n) if j not in coords):
                    s = span(n, *[unit_vector(g.dim, k) for k in (*coords, j)])
                    verdicts.add(verdict := check_invariant(param, s))
                    assert verdict == reference_check_invariant(param, s), name
        assert solved >= 23 and vanished > 0 and singular_blocks >= 30 and verdicts == {True, False}


class TestMatrixAt:
    def test_int_evaluation_matches_the_cells(self, m5, reference_lattices):
        # matrix_at sums every cell over one int denominator; the reference
        # evaluates each cell's polynomial in Fractions
        rng = random.Random(26)
        algebras = {name: reference_lattices[name][0] for name in ("L8", "L10", "wave6", "L6/rational")}
        algebras.update({"m5": m5, "m5/rational": _rational_conjugate(m5)})
        seen, denominators = set(), 0
        for name, g in algebras.items():
            _, _, _, param = solve_in_adapted_basis(g, closure(g))
            free, entries = param.free_parameters, reference_entries(param)
            assert param.solved and free, name
            denominators += any(q.denominator > 1 for cells in param.form.values() for q in cells.values())
            for trial in range(8):
                point = [Fraction(rng.randint(-9, 9), rng.randint(1, 4)) for _ in free]
                if trial % 2:
                    point[rng.randrange(len(point))] = Fraction(0)
                seen.update((x > 0, x < 0, x.denominator > 1) for x in point)
                got = param.matrix_at(point).entries
                values = dict(zip(free, point))
                assert got == tuple(tuple(e.evaluate(values) for e in row) for row in entries), name
                assert all(type(x) is Fraction for row in got for x in row), name
        assert denominators == 2  # the conjugates' forms have non-integral coefficients
        # (positive, negative, non-integral): zero, and non-integral of both signs
        assert {(False, False, False), (False, True, True), (True, False, True)} <= seen


class TestSubstituteParameters:
    def test_missing_parameter_is_named(self, m5_solution):
        _, _, _, param = m5_solution
        values = {name: 1 for name in param.free_parameters if name != "a33"}
        with pytest.raises(ValueError, match="a33"):
            substitute_parameters(param, values)

    def test_names_that_are_not_free_parameters_are_named(self, m5_solution):
        _, _, _, param = m5_solution
        values = {name: 1 for name in param.free_parameters}
        values.update(a11=1, a99=1)  # a solved unknown and a typo
        with pytest.raises(ValueError, match="a11") as info:
            substitute_parameters(param, values)
        assert "a99" in str(info.value)

    def test_vanishing_side_condition_is_named_unsubstituted(self, m5_solution):
        # a44 = 0 makes a11 = a33*a44^2 the first side condition to vanish
        _, _, _, param = m5_solution
        values = {name: 1 for name in param.free_parameters}
        values["a44"] = 0
        with pytest.raises(ValueError, match=r"^side condition a11 vanishes$"):
            substitute_parameters(param, values)


class TestFloatsRefused:
    def test_substitute_parameters(self, m5_solution):
        _, _, _, param = m5_solution
        values = {name: 1 for name in param.free_parameters}
        substitute_parameters(param, values)
        values[param.free_parameters[0]] = 0.1
        with pytest.raises(TypeError):
            substitute_parameters(param, values)
