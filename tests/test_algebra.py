from fractions import Fraction

import pytest

from megalie.algebra import (
    FormatError,
    NotAnIdeal,
    NotNilpotent,
    ad,
    algebra_from_brackets,
    algebra_from_dict,
    algebra_to_dict,
    bracket_subspaces,
    center,
    centralizer,
    change_basis,
    derivations,
    derived_series,
    exp_ad_nilpotent,
    killing_form,
    lower_central_series,
    nilradical_approx,
    normalizer,
    quotient,
    radical,
    subalgebra,
    transporter,
    upper_central_series,
    validate,
)
from megalie.linalg import Matrix, Subspace


def span(n, *rows):
    return Subspace.spanned_by(n, rows)


def M5_SUBSPACES(m5):
    n = m5.dim
    return {
        "z": span(n, [1, 0, 0, 0, 0]),
        "m2": span(n, [1, 0, 0, 0, 0], [0, 1, 0, 0, 0]),
        "m3": span(n, [1, 0, 0, 0, 0], [0, 1, 0, 0, 0], [0, 0, 1, 0, 0]),
        "mprime": span(n, [1, 0, 0, 0, 0], [0, 1, 0, 0, 0], [0, 0, 1, 0, 0], [0, 0, 0, 1, 0]),
    }


class TestValidate:
    def test_heisenberg_valid(self, heisenberg):
        assert validate(heisenberg).ok

    def test_m5_valid(self, m5):
        assert validate(m5).ok

    def test_antisymmetry_violation_located(self):
        g = algebra_from_brackets("bad", ["a", "b", "c"], {(0, 1): {2: 1}})
        # overwrite one side only
        c = [[list(row) for row in plane] for plane in g.c]
        c[1][0][2] = Fraction(1)
        g = type(g)(g.name, g.basis_names, tuple(tuple(tuple(r) for r in p) for p in c))
        report = validate(g)
        assert not report.ok
        assert (0, 1, 2) in {(i, j, k) for i, j, k, _, _ in report.antisymmetry_violations}

    def test_jacobi_violation(self):
        # [e1,e2]=e3, [e1,e3]=e1 fails Jacobi on (e1,e2,e3)
        g = algebra_from_brackets("bad", ["e1", "e2", "e3"], {(0, 1): {2: 1}, (0, 2): {0: 1}})
        report = validate(g)
        assert report.antisymmetry_violations == ()
        assert report.jacobi_residuals


class TestAd:
    def test_abelian_zero(self, abelian3):
        assert ad(abelian3, [1, 2, 3]).is_zero()

    def test_m5_pt_action(self, m5):
        # ad_Pt: Dt -> Pt, F1 -> G1, F2 -> 2 F1
        a = ad(m5, [0, 0, 0, 1, 0])
        assert a.matvec([0, 0, 0, 0, 1]) == (0, 0, 0, 1, 0)
        assert a.matvec([0, 1, 0, 0, 0]) == (1, 0, 0, 0, 0)
        assert a.matvec([0, 0, 1, 0, 0]) == (0, 2, 0, 0, 0)

    def test_sl2_h_diagonal(self, sl2):
        assert ad(sl2, [0, 1, 0]) == Matrix([[2, 0, 0], [0, 0, 0], [0, 0, -2]])


class TestBracketSubspaces:
    def test_zero_side(self, m5):
        assert bracket_subspaces(m5, m5.full_space(), m5.zero_space()).is_zero()

    def test_m5_derived(self, m5):
        s = M5_SUBSPACES(m5)
        assert bracket_subspaces(m5, m5.full_space(), m5.full_space()) == s["mprime"]
        assert bracket_subspaces(m5, s["mprime"], s["mprime"]) == s["m2"]


class TestCentersAndFriends:
    def test_m5_center(self, m5):
        assert center(m5) == span(5, [1, 0, 0, 0, 0])

    def test_m5_centralizer_of_m2(self, m5):
        s = M5_SUBSPACES(m5)
        assert centralizer(m5, m5.full_space(), s["m2"]) == s["m3"]

    def test_normalizer_of_center_is_everything(self, m5):
        s = M5_SUBSPACES(m5)
        assert normalizer(m5, m5.full_space(), s["z"]) == m5.full_space()

    def test_transporter_special_cases(self, m5):
        s = M5_SUBSPACES(m5)
        full, zero = m5.full_space(), m5.zero_space()
        assert transporter(m5, full, full, full) == full
        assert transporter(m5, full, s["m2"], zero) == centralizer(m5, full, s["m2"])


class TestSeries:
    def test_heisenberg_derived(self, heisenberg):
        report = derived_series(heisenberg)
        assert [t.dim for t in report.terms] == [3, 1, 0]
        assert report.stabilized

    def test_m5_derived_against_bracket_oracle(self, m5):
        report = derived_series(m5)
        # oracle: apply the subspace bracket directly
        d1 = bracket_subspaces(m5, m5.full_space(), m5.full_space())
        d2 = bracket_subspaces(m5, d1, d1)
        d3 = bracket_subspaces(m5, d2, d2)
        assert list(report.terms) == [m5.full_space(), d1, d2, d3]
        assert d3.is_zero()  # solvable

    def test_m5_upper_central_stops_at_center(self, m5):
        report = upper_central_series(m5)
        assert list(report.terms) == [span(5, [1, 0, 0, 0, 0])]
        assert report.stabilized

    def test_upper_central_matches_transporter_route(self, m5, heisenberg, sl2):
        # independent route: Z_{k+1} = {x : [x, g] <= Z_k}
        for g in (m5, heisenberg, sl2):
            report = upper_central_series(g)
            previous = g.zero_space()
            for term in report.terms:
                assert transporter(g, g.full_space(), g.full_space(), previous) == term
                previous = term

    def test_sl2_lower_central_constant(self, sl2):
        report = lower_central_series(sl2)
        assert [t.dim for t in report.terms] == [3]


class TestQuotient:
    def test_heisenberg_mod_center(self, heisenberg):
        q, proj = quotient(heisenberg, span(3, [0, 0, 1]))
        assert q.dim == 2
        assert all(all(all(x == 0 for x in row) for row in plane) for plane in q.c)
        assert proj.rows == 2

    def test_m5_mod_center(self, m5):
        q, proj = quotient(m5, span(5, [1, 0, 0, 0, 0]))
        assert q.basis_names == ("F1", "F2", "Pt", "Dt")
        assert validate(q).ok
        # [Pt, F1] dies, [Pt, F2] survives as 2 F1
        assert q.bracket([0, 0, 1, 0], [1, 0, 0, 0]) == (0, 0, 0, 0)
        assert q.bracket([0, 0, 1, 0], [0, 1, 0, 0]) == (2, 0, 0, 0)

    def test_full_quotient_is_zero_algebra(self, m5):
        q, _ = quotient(m5, m5.full_space())
        assert q.dim == 0

    def test_not_an_ideal(self, m5):
        with pytest.raises(NotAnIdeal):
            quotient(m5, span(5, [0, 0, 0, 1, 0]))  # <Pt> is not an ideal

    def test_quotient_is_valid_algebra(self, m5, heisenberg):
        for g, ideal in ((m5, span(5, [1, 0, 0, 0, 0], [0, 1, 0, 0, 0])), (heisenberg, span(3, [0, 0, 1]))):
            q, _ = quotient(g, ideal)
            assert validate(q).ok


class TestKillingRadical:
    def test_killing_m5(self, m5):
        # only Dt has a non-nilpotent adjoint; trace(ad_Dt^2) = 1 + 4 + 1
        k = killing_form(m5)
        assert all(
            k.entries[i][j] == (6 if (i, j) == (4, 4) else 0)
            for i in range(5)
            for j in range(5)
        )

    def test_killing_symmetry_invariance(self, m5, sl2):
        for g in (m5, sl2):
            k = killing_form(g)
            n = g.dim
            assert k == k.transpose()
            for i in range(n):
                for j in range(n):
                    for l in range(n):
                        left = k.matvec(g.bracket(g.basis_vector(i), g.basis_vector(j)))[l]
                        right = sum(
                            k.entries[i][m] * g.bracket(g.basis_vector(j), g.basis_vector(l))[m]
                            for m in range(n)
                        )
                        assert left == right

    def test_radical_semisimple(self, sl2):
        assert radical(sl2).is_zero()

    def test_radical_solvable_is_everything(self, m5):
        assert radical(m5) == m5.full_space()

    def test_radical_of_sl2_plus_line(self, sl2):
        g = algebra_from_brackets(
            "sl2+z",
            ["e", "h", "f", "z"],
            {(1, 0): {0: 2}, (1, 2): {2: -2}, (0, 2): {1: 1}},
        )
        assert radical(g) == span(4, [0, 0, 0, 1])

    def test_radical_properties(self, m5, sl2, heisenberg):
        from megalie.algebra import is_ideal

        for g in (m5, sl2, heisenberg):
            r = radical(g)
            assert is_ideal(g, r)
            if r.dim:
                sub, _ = subalgebra(g, r)
                assert derived_series(sub).last.is_zero()
            nil, _ = nilradical_approx(g)
            assert r.contains_subspace(nil)


class TestNilradical:
    def test_nilpotent_algebra(self, heisenberg):
        nil, status = nilradical_approx(heisenberg)
        assert status == "exact"
        assert nil == heisenberg.full_space()

    def test_affine_line(self):
        g = algebra_from_brackets("aff1", ["h", "e"], {(0, 1): {1: 1}})
        nil, status = nilradical_approx(g)
        assert status == "exact"
        assert nil == span(2, [0, 1])

    def test_documented_stall(self):
        # rotation-plus-scaling action: all pairwise ad-traces vanish but
        # the algebra is not nilpotent, so the refinement stalls honestly
        g = algebra_from_brackets(
            "stall", ["h", "e1", "e2"], {(0, 1): {1: 1, 2: 1}, (0, 2): {1: -1, 2: 1}}
        )
        assert validate(g).ok
        nil, status = nilradical_approx(g)
        assert status == "stalled"
        assert nil == g.full_space()


class TestDerivationsExp:
    def test_abelian_derivations(self, abelian3):
        assert len(derivations(abelian3)) == 9

    def test_leibniz_property(self, m5, heisenberg, sl2):
        for g in (m5, heisenberg, sl2):
            n = g.dim
            for d in derivations(g):
                for i in range(n):
                    for j in range(n):
                        lhs = d.matvec(g.bracket(g.basis_vector(i), g.basis_vector(j)))
                        rhs_parts = [
                            g.bracket(d.matvec(g.basis_vector(i)), g.basis_vector(j)),
                            g.bracket(g.basis_vector(i), d.matvec(g.basis_vector(j))),
                        ]
                        rhs = tuple(a + b for a, b in zip(*rhs_parts))
                        assert lhs == rhs

    def test_exp_ad_m5_example(self, m5):
        e = exp_ad_nilpotent(m5, [0, 0, 0, 1, 0], 1)
        assert e.matvec([0, 0, 0, 0, 1]) == (0, 0, 0, 1, 1)  # Dt -> Dt + Pt
        assert e.matvec([0, 1, 0, 0, 0]) == (1, 1, 0, 0, 0)  # F1 -> F1 + G1
        assert e.matvec([0, 0, 1, 0, 0]) == (1, 2, 1, 0, 0)  # F2 -> F2 + 2F1 + G1

    def test_exp_ad_not_nilpotent(self, sl2):
        with pytest.raises(NotNilpotent):
            exp_ad_nilpotent(sl2, [0, 1, 0], 1)
        # decided from the powers of ad_x, not from the scaled series
        with pytest.raises(NotNilpotent):
            exp_ad_nilpotent(sl2, [0, 1, 0], 0)

    def test_exp_ad_is_automorphism(self, m5, heisenberg):
        for g in (m5, heisenberg):
            n = g.dim
            for idx in range(n):
                if not ad(g, g.basis_vector(idx)).power(n).is_zero():
                    continue
                for t in (1, -1, Fraction(1, 2)):
                    e = exp_ad_nilpotent(g, g.basis_vector(idx), t)
                    for i in range(n):
                        for j in range(n):
                            lhs = e.matvec(g.bracket(g.basis_vector(i), g.basis_vector(j)))
                            rhs = g.bracket(e.matvec(g.basis_vector(i)), e.matvec(g.basis_vector(j)))
                            assert lhs == rhs


class TestChangeBasis:
    def test_conjugated_algebra_stays_valid(self, m5):
        b = Matrix(
            [
                [1, 1, 0, 0, 0],
                [0, 1, 0, 2, 0],
                [0, 0, 1, 0, 0],
                [0, 0, 0, 1, 0],
                [0, 0, 1, 0, 1],
            ]
        )
        g2 = change_basis(m5, b)
        assert validate(g2).ok
        # identity change of basis is a no-op
        assert change_basis(m5, Matrix.identity(5)).c == m5.c


class TestFileFormat:
    def test_roundtrip(self, m5):
        assert algebra_from_dict(algebra_to_dict(m5)).c == m5.c

    def test_indices_accepted(self):
        g = algebra_from_dict(
            {"name": "h", "basis": ["a", "b", "c"], "brackets": [{"left": 0, "right": 1, "result": {"2": "1"}}]}
        )
        assert g.bracket([1, 0, 0], [0, 1, 0]) == (0, 0, 1)

    @pytest.mark.parametrize("k", [-1, 3])
    def test_builder_rejects_component_index_out_of_range(self, k):
        with pytest.raises(FormatError, match="component index"):
            algebra_from_brackets("bad", ["a", "b", "c"], {(0, 1): {k: 1}})

    def test_inconsistent_double_supply(self):
        data = {
            "name": "bad",
            "basis": ["a", "b"],
            "brackets": [
                {"left": "a", "right": "b", "result": {"a": "1"}},
                {"left": "b", "right": "a", "result": {"a": "1"}},
            ],
        }
        with pytest.raises(FormatError):
            algebra_from_dict(data)

    def test_consistent_double_supply(self):
        data = {
            "name": "ok",
            "basis": ["a", "b"],
            "brackets": [
                {"left": "a", "right": "b", "result": {"a": "1"}},
                {"left": "b", "right": "a", "result": {"a": "-1"}},
            ],
        }
        g = algebra_from_dict(data)
        assert g.bracket([1, 0], [0, 1]) == (1, 0)

    def test_duplicate_bracket_rejected(self):
        data = {
            "name": "bad",
            "basis": ["a", "b"],
            "brackets": [
                {"left": "a", "right": "b", "result": {"a": "1"}},
                {"left": "a", "right": "b", "result": {"a": "1"}},
            ],
        }
        with pytest.raises(FormatError):
            algebra_from_dict(data)

    def test_nonzero_self_bracket_rejected(self):
        data = {
            "name": "bad",
            "basis": ["a"],
            "brackets": [{"left": "a", "right": "a", "result": {"a": "1"}}],
        }
        with pytest.raises(FormatError):
            algebra_from_dict(data)

    def test_bad_rational_rejected(self):
        data = {
            "name": "bad",
            "basis": ["a", "b"],
            "brackets": [{"left": "a", "right": "b", "result": {"a": "1.5"}}],
        }
        with pytest.raises(FormatError):
            algebra_from_dict(data)
