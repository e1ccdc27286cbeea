import gc
import random
from fractions import Fraction
from itertools import combinations

import pytest

from megalie.algebra import NotNilpotent, algebra_from_brackets, change_basis, exp_ad_nilpotent
from megalie.automorphisms import (
    ResidualSystem,
    _symbolic_det,
    adapted_basis,
    check_invariant,
    enumerate_coordinate_megaideals,
    inner_consistency,
    shape_from_flag,
    solve_in_adapted_basis,
    structure_equations,
    substitute_parameters,
)
from megalie.linalg import Matrix, Subspace
from megalie.megaideals import closure
from megalie.poly import Poly, parse_poly


def span(n, *rows):
    return Subspace.spanned_by(n, rows)


@pytest.fixture(scope="module")
def m5_solution(m5):
    lattice = closure(m5)
    return solve_in_adapted_basis(m5, lattice)


class TestAdaptedBasis:
    def test_m5_identity_chain(self, m5):
        basis = adapted_basis(m5, closure(m5))
        assert [s.dim for s in basis.flag] == [1, 2, 3, 4, 5]
        assert basis.change_of_basis == Matrix.identity(5)
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
        names = tuple(f"a{i}{j}" for i in range(5) for j in range(5))
        entries = [[Poly.var(names, f"a{i}{j}") for j in range(5)] for i in range(5)]

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
                        lhs = a.matvec(adapted.bracket(adapted.basis_vector(i), adapted.basis_vector(j)))
                        rhs = adapted.bracket(a.matvec(adapted.basis_vector(i)), a.matvec(adapted.basis_vector(j)))
                        assert lhs == rhs


class TestInvariantEnumeration:
    def test_m5_exactly_five_proper(self, m5, m5_solution):
        basis, shape, system, param = m5_solution
        found = enumerate_coordinate_megaideals(m5, param, basis)
        proper = [s for s in found if 0 < s.dim < 5]
        expected = {
            span(5, m5.basis_vector(0)),
            span(5, m5.basis_vector(0), m5.basis_vector(1)),
            span(5, m5.basis_vector(0), m5.basis_vector(1), m5.basis_vector(2)),
            span(5, m5.basis_vector(0), m5.basis_vector(1), m5.basis_vector(3)),
            span(5, m5.basis_vector(0), m5.basis_vector(1), m5.basis_vector(2), m5.basis_vector(3)),
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
                if check_invariant(param, span(g.dim, *[g.basis_vector(j) for j in subset])):
                    rows = [basis.change_of_basis.entries[j] for j in subset]
                    scanned.append((Subspace.spanned_by(g.dim, rows), f"aut-invariant{list(subset)}"))
        found = enumerate_coordinate_megaideals(g, param, basis)
        assert [(s, s.provenance) for s in found] == scanned
        assert len(found) > 2

    def test_enumerated_spaces_pass_verification(self, m5, m5_solution):
        from megalie.megaideals import verify_megaideal

        basis, _, _, param = m5_solution
        for s in enumerate_coordinate_megaideals(m5, param, basis):
            assert verify_megaideal(m5, s).ok

    def test_check_invariant_examples(self, m5_solution):
        _, shape, _, param = m5_solution
        assert check_invariant(param, Subspace.full(5))
        # A F1 has G1 component a12 = a33 a44 a45, not identically zero
        assert not check_invariant(param, span(5, [0, 1, 0, 0, 0]))

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
                prefix = span(g.dim, *[g.basis_vector(k) for k in range(boundary)])
                assert check_invariant(param, prefix)

    def test_residual_system_refused(self, sl2d):
        basis, shape, system, param = solve_in_adapted_basis(sl2d, closure(sl2d))
        with pytest.raises(ResidualSystem):
            enumerate_coordinate_megaideals(sl2d, param, basis)
        with pytest.raises(ResidualSystem):
            check_invariant(param, Subspace.full(3))

    def test_enumeration_cap(self, m5, m5_solution):
        basis, _, _, param = m5_solution
        with pytest.raises(ValueError):
            enumerate_coordinate_megaideals(m5, param, basis, max_dim=4)


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
            found = enumerate_coordinate_megaideals(g, param, basis)
            proper = [s for s in found if 0 < s.dim < 5]
            assert 4 <= len(proper) <= 5
            for member in lattice.members[1:-1]:
                assert member in proper
            from megalie.megaideals import verify_megaideal

            for s in found:
                assert verify_megaideal(g, s).ok
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
        e = [g.basis_vector(i) for i in range(6)]
        assert span(6, e[0], e[1], e[2]) in members  # <G1,F1,F2>
        assert span(6, e[0], e[1], e[3]) in members  # <G1,F1,Pt>, constructively
        basis, shape, system, param = solve_in_adapted_basis(g, lattice)
        assert param.residual_equations == ()
        assert len(param.free_parameters) == 6
        found = enumerate_coordinate_megaideals(g, param, basis)
        proper = [s for s in found if 0 < s.dim < 6]
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
        b_t, b_t_inv = b.transpose(), b.inverse().transpose()
        matched = 0
        for i in range(g.dim):
            for t in (1, -1, Fraction(1, 2)):
                try:
                    reference = b_t_inv @ exp_ad_nilpotent(g, g.basis_vector(i), t) @ b_t
                except NotNilpotent:
                    with pytest.raises(NotNilpotent):
                        exp_ad_nilpotent(basis.algebra, basis.inverse.entries[i], t)
                    continue
                assert exp_ad_nilpotent(basis.algebra, basis.inverse.entries[i], t) == reference
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
