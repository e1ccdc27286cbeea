import operator
from fractions import Fraction
from functools import reduce

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from megalie.algebra import (
    FormatError,
    LieAlgebra,
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
    ValidationReport,
    transporter,
    upper_central_series,
    validate,
)
from megalie.automorphisms import AutShape, structure_equations
from megalie.linalg import AmbientMismatch, Matrix, Subspace, format_rat, kernel
from megalie.poly import Poly


def span(n, *rows):
    return Subspace.spanned_by(n, rows)


def matvec(m, v):
    """m times the column vector v, one dot product per row."""
    return tuple(sum((x * y for x, y in zip(row, v, strict=True)), Fraction(0)) for row in m.entries)


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
        c = {(i, j): dict(enumerate(g.c[i][j])) for i in range(3) for j in range(3)}
        c[(1, 0)][2] = Fraction(1)
        g = type(g)(g.name, g.basis_names, c)
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
        assert matvec(a, [0, 0, 0, 0, 1]) == (0, 0, 0, 1, 0)
        assert matvec(a, [0, 1, 0, 0, 0]) == (1, 0, 0, 0, 0)
        assert matvec(a, [0, 0, 1, 0, 0]) == (0, 2, 0, 0, 0)

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
                        left = matvec(k, g.bracket(g.basis_vector(i), g.basis_vector(j)))[l]
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
            term = r  # the derived series of r, inside g
            while not term.is_zero():
                nxt = bracket_subspaces(g, term, term)
                assert nxt != term, "radical is not solvable"
                term = nxt
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
                        lhs = matvec(d, g.bracket(g.basis_vector(i), g.basis_vector(j)))
                        rhs_parts = [
                            g.bracket(matvec(d, g.basis_vector(i)), g.basis_vector(j)),
                            g.bracket(g.basis_vector(i), matvec(d, g.basis_vector(j))),
                        ]
                        rhs = tuple(a + b for a, b in zip(*rhs_parts))
                        assert lhs == rhs

    def test_exp_ad_m5_example(self, m5):
        e = exp_ad_nilpotent(m5, [0, 0, 0, 1, 0], 1)
        assert matvec(e, [0, 0, 0, 0, 1]) == (0, 0, 0, 1, 1)  # Dt -> Dt + Pt
        assert matvec(e, [0, 1, 0, 0, 0]) == (1, 1, 0, 0, 0)  # F1 -> F1 + G1
        assert matvec(e, [0, 0, 1, 0, 0]) == (1, 2, 1, 0, 0)  # F2 -> F2 + 2F1 + G1

    def test_exp_ad_not_nilpotent(self, sl2):
        with pytest.raises(NotNilpotent):
            exp_ad_nilpotent(sl2, [0, 1, 0], 1)
        # decided from the bracket chains, not from the weighed series
        with pytest.raises(NotNilpotent):
            exp_ad_nilpotent(sl2, [0, 1, 0], 0)

    def test_exp_ad_checks_its_arguments(self, m5):
        with pytest.raises(AmbientMismatch):
            exp_ad_nilpotent(m5, [0, 0, 0, 1], 1)
        with pytest.raises(TypeError):
            exp_ad_nilpotent(m5, [0, 0, 0, 0.5, 0], 1)
        with pytest.raises(TypeError):
            exp_ad_nilpotent(m5, [0, 0, 0, 1, 0], 0.5)

    def test_exp_ad_is_automorphism(self, m5, heisenberg):
        for g in (m5, heisenberg):
            n = g.dim
            for idx in range(n):
                a = ad(g, g.basis_vector(idx))
                if not reduce(operator.matmul, [a] * n).is_zero():
                    continue
                for t in (1, -1, Fraction(1, 2)):
                    e = exp_ad_nilpotent(g, g.basis_vector(idx), t)
                    for i in range(n):
                        for j in range(n):
                            lhs = matvec(e, g.bracket(g.basis_vector(i), g.basis_vector(j)))
                            rhs = g.bracket(matvec(e, g.basis_vector(i)), matvec(e, g.basis_vector(j)))
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

    @pytest.mark.parametrize("order", [((0, 1), (1, 0)), ((1, 0), (0, 1))])
    def test_builder_rejects_inconsistent_orientations(self, order):
        brackets = {pair: {2: 1} for pair in order}
        with pytest.raises(FormatError, match=r"^brackets \(a,b\) and \(b,a\) are inconsistent$"):
            algebra_from_brackets("bad", ["a", "b", "c"], brackets)

    def test_result_key_given_twice_rejected(self):
        data = {
            "name": "bad",
            "basis": ["a", "b", "c"],
            "brackets": [{"left": "a", "right": "b", "result": {"c": "1", "2": "5"}}],
        }
        with pytest.raises(FormatError, match=r"brackets\[0\]\.result.*given twice"):
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

    def test_nonzero_self_bracket_diagnosed_by_builder(self):
        data = {"basis": ["a"], "brackets": [{"left": "a", "right": "a", "result": {"a": "1"}}]}
        with pytest.raises(FormatError, match=r"bracket \[a,a\] must be zero"):
            algebra_from_dict(data)

    def test_bad_rational_rejected(self):
        data = {
            "name": "bad",
            "basis": ["a", "b"],
            "brackets": [{"left": "a", "right": "b", "result": {"a": "1.5"}}],
        }
        with pytest.raises(FormatError):
            algebra_from_dict(data)


class TestStoredForm:
    """The constants are stored once, sparse; the dense `c` is a cached view."""

    def test_dense_view_built_on_first_read(self, m5):
        g = algebra_from_dict(algebra_to_dict(m5))
        # the readers of the constants go through the sparse index
        assert validate(g).ok and derivations(g) and algebra_to_dict(g) == algebra_to_dict(m5)
        assert ad(g, (0, 0, 0, 1, 0)) == ad(m5, (0, 0, 0, 1, 0))
        assert "c" not in vars(g)
        assert g.c == m5.c and "c" in vars(g) and g.c is g.c

    def test_equal_by_value_in_any_order_or_orientation(self):
        names = ["a", "b", "c"]
        half = Fraction(1, 2)
        g = algebra_from_brackets("g", names, {(0, 1): {2: 1}, (0, 2): {1: -half}})
        h = algebra_from_brackets("g", names, {(2, 0): {1: "1/2"}, (1, 0): {2: -1, 0: 0}})
        mirrored = {(2, 0): {1: half}, (1, 0): {2: -1}, (0, 2): {1: -half}, (0, 1): {2: 1}}
        raw = LieAlgebra("g", ("a", "b", "c"), mirrored)
        assert g == h == raw and hash(g) == hash(h) == hash(raw)
        assert g != algebra_from_brackets("g", names, {(0, 1): {2: 2}, (0, 2): {1: -half}})


# ---------------------------------------------------------------------------
# dense reference: every structure constant read entry by entry from c, the
# way the bracket calculus read them before the sparse index existed


def dense_bracket(g, x, y):
    n = g.dim
    out = [Fraction(0)] * n
    for i in range(n):
        for j in range(n):
            for k in range(n):
                out[k] += Fraction(x[i]) * Fraction(y[j]) * g.c[i][j][k]
    return tuple(out)


def dense_ad(g, x):
    n = g.dim
    cols = [dense_bracket(g, x, g.basis_vector(j)) for j in range(n)]
    return Matrix([[cols[j][k] for j in range(n)] for k in range(n)])


def dense_validate(g):
    n, c = g.dim, g.c
    anti = [
        (i, j, k, c[i][j][k], c[j][i][k])
        for i in range(n)
        for j in range(i, n)
        for k in range(n)
        if c[i][j][k] != -c[j][i][k]
    ]
    jacobi = []
    for i in range(n):
        for j in range(i + 1, n):
            for l in range(j + 1, n):
                for m in range(n):
                    res = Fraction(0)
                    for k in range(n):
                        res += c[i][j][k] * c[k][l][m]
                        res += c[j][l][k] * c[k][i][m]
                        res += c[l][i][k] * c[k][j][m]
                    if res != 0:
                        jacobi.append((i, j, l, m, res))
    return ValidationReport(tuple(anti), tuple(jacobi))


def dense_killing_form(g):
    n, c = g.dim, g.c
    return Matrix(
        [
            [sum((c[i][l][k] * c[j][k][l] for l in range(n) for k in range(n)), Fraction(0))
             for j in range(n)]
            for i in range(n)
        ]
    )


def dense_derivations(g):
    n, c = g.dim, g.c
    rows = []
    for i in range(n):
        for j in range(i + 1, n):
            for m in range(n):
                row = [Fraction(0)] * (n * n)
                for k in range(n):
                    row[m * n + k] += c[i][j][k]
                for l in range(n):
                    row[l * n + i] -= c[l][j][m]
                    row[l * n + j] -= c[i][l][m]
                rows.append(row)
    solutions = kernel(Matrix(rows, cols=n * n))
    return [
        Matrix([[row[a * n + b] for b in range(n)] for a in range(n)])
        for row in solutions.basis.entries
    ]


def dense_algebra_to_dict(g):
    n, names = g.dim, g.basis_names
    brackets = [
        {
            "left": names[i],
            "right": names[j],
            "result": {names[k]: format_rat(g.c[i][j][k]) for k in range(n) if g.c[i][j][k] != 0},
        }
        for i in range(n)
        for j in range(i + 1, n)
        if any(x != 0 for x in g.c[i][j])
    ]
    return {"name": g.name, "basis": list(names), "brackets": brackets}


def dense_structure_equations(g, shape):
    n, c, pattern, variables = g.dim, g.c, shape.pattern, shape.unknowns

    def exps(*names):
        return tuple(names.count(v) for v in variables)

    equations, seen = [], set()
    for i in range(n):
        for j in range(i + 1, n):
            for m in range(n):
                terms = {}
                for k in range(n):
                    if c[i][j][k] != 0 and pattern[m][k] is not None:
                        e = exps(pattern[m][k])
                        terms[e] = terms.get(e, Fraction(0)) + c[i][j][k]
                for p in range(n):
                    for q in range(n):
                        if c[p][q][m] != 0 and None not in (pattern[p][i], pattern[q][j]):
                            e = exps(pattern[p][i], pattern[q][j])
                            terms[e] = terms.get(e, Fraction(0)) - c[p][q][m]
                poly = Poly(variables, terms).content_normalized()
                key = frozenset(poly.terms.items())
                if not poly.is_zero() and key not in seen:
                    seen.add(key)
                    equations.append(poly)
    return equations


COEFFS = st.sampled_from([0, 0, 0, 0, 1, -1, 2, Fraction(1, 2), Fraction(-3, 2)])


@st.composite
def invertible(draw, n):
    """L @ U, L unit lower triangular, U upper triangular with diagonal +-1."""
    below = [
        [draw(st.integers(-2, 2)) if i > j else int(i == j) for j in range(n)] for i in range(n)
    ]
    above = [[draw(st.integers(-2, 2)) if i < j else 0 for j in range(n)] for i in range(n)]
    for i in range(n):
        above[i][i] = draw(st.sampled_from([1, -1]))
    return Matrix(below) @ Matrix(above)


@st.composite
def antisymmetric(draw):
    """algebra_from_brackets on random constants; Jacobi mostly fails."""
    n = draw(st.integers(2, 5))
    brackets = {
        (i, j): {k: draw(COEFFS) for k in range(n)} for i in range(n) for j in range(i + 1, n)
    }
    return algebra_from_brackets("random", [f"e{i}" for i in range(n)], brackets)


@st.composite
def raw_tensor(draw):
    """A directly constructed tensor, neither antisymmetric nor zero on the diagonal."""
    n = draw(st.integers(1, 4))
    c = {(i, j): {k: Fraction(draw(COEFFS)) for k in range(n)} for i in range(n) for j in range(n)}
    return LieAlgebra("raw", tuple(f"e{i}" for i in range(n)), c)


@st.composite
def shape_for(draw, n):
    """An automorphism shape over n: a random zero pattern of distinct unknowns."""
    pattern = tuple(
        tuple(f"a{m}{k}" if draw(st.integers(0, 3)) else None for k in range(n)) for m in range(n)
    )
    unknowns = tuple(name for row in pattern for name in row if name is not None)
    return AutShape(n, pattern, unknowns, ())


def vectors(n):
    return st.lists(COEFFS, min_size=n, max_size=n)


class TestDenseReference:
    """The sparse index reproduces the dense reading of c exactly."""

    def check(self, data, g):
        n = g.dim
        x, y = data.draw(vectors(n)), data.draw(vectors(n))
        assert g.bracket(x, y) == dense_bracket(g, x, y)
        assert ad(g, x) == dense_ad(g, x)
        report = validate(g)
        assert report == dense_validate(g)  # both lists, in (i, j, l, m) order
        assert killing_form(g) == dense_killing_form(g)
        assert derivations(g) == dense_derivations(g)
        assert algebra_to_dict(g) == dense_algebra_to_dict(g)
        shape = data.draw(shape_for(n))
        got = structure_equations(g, shape)
        want = dense_structure_equations(g, shape)
        assert [list(p.terms.items()) for p in got.equations] == [
            list(p.terms.items()) for p in want
        ]
        return report

    @given(data=st.data())
    @settings(max_examples=25, deadline=None)
    def test_conjugated_fixtures(self, data, m5, sl2d, heisenberg, sl2):
        g = data.draw(st.sampled_from([m5, sl2d, heisenberg, sl2]))
        g = change_basis(g, data.draw(invertible(g.dim)))
        assert self.check(data, g).ok

    @given(data=st.data(), g=antisymmetric())
    @settings(max_examples=40, deadline=None)
    def test_antisymmetric_tensors(self, data, g):
        assert not self.check(data, g).antisymmetry_violations

    @given(data=st.data(), g=raw_tensor())
    @settings(max_examples=40, deadline=None)
    def test_non_antisymmetric_tensors(self, data, g):
        self.check(data, g)

    def test_jacobi_failures_are_exercised(self):
        g = algebra_from_brackets(
            "nojacobi", ["a", "b", "c"], {(0, 1): {0: 1}, (1, 2): {1: 1}, (0, 2): {2: 2}}
        )
        report = validate(g)
        assert report == dense_validate(g) and report.jacobi_residuals

    def test_diagonal_is_read(self):
        g = LieAlgebra("diag", ("a", "b"), {(0, 0): {0: Fraction(1)}})
        assert g.bracket((1, 0), (1, 0)) == (1, 0)
        assert ad(g, (1, 0)) == dense_ad(g, (1, 0)) == Matrix([[1, 0], [0, 0]])
