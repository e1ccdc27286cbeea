"""Differential oracles: the exact kernels against sympy and a reference solver.

sympy is used by tests only; without it this module is skipped.  Random
fields have degree <= 3 and small rational coefficients; each result of
megalie is converted to a sympy expression and compared after expansion.
RREF, kernels and block determinants are compared with sympy.Matrix,
exact division with sympy.div, the graded-lex term order with the key it
was first defined by, and the triangular elimination with a restart-loop
reference.
"""

import json
from fractions import Fraction
from math import lcm

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import _rational_conjugate
from megalie.algebra import algebra_from_brackets, change_basis
from megalie.automorphisms import (
    _symbolic_det,
    adapted_basis,
    shape_from_flag,
    structure_equations,
    triangular_solve,
)
from megalie.linalg import Matrix, Subspace
from megalie.megaideals import closure
from megalie.poly import Poly
from megalie.vectorfield import (
    FAMILY_VARIABLES,
    PolyVectorField,
    lie_bracket,
    pointmap_from_dict,
    pushforward,
)

sympy = pytest.importorskip("sympy")

MAPS = ("tshift", "uscale", "ugauge")
coeffs = st.fractions(min_value=Fraction(-3), max_value=Fraction(3), max_denominator=4)


def polys(variables, max_degree=3, max_terms=4):
    """Polynomials over `variables`: each monomial is a multiset of <= max_degree variables."""
    n = len(variables)

    def exponents(indices):
        return tuple(indices.count(i) for i in range(n))

    monomials = st.lists(st.integers(0, n - 1), max_size=max_degree).map(exponents)
    return st.dictionaries(monomials, coeffs, max_size=max_terms).map(
        lambda terms: Poly(variables, terms)
    )


def fields(variables):
    return st.fixed_dictionaries({}, optional={v: polys(variables) for v in variables}).map(
        lambda comps: PolyVectorField(variables, comps)
    )


def to_sympy(p: Poly):
    symbols = sympy.symbols(p.variables)
    return sympy.Add(
        *(
            sympy.Rational(c.numerator, c.denominator)
            * sympy.Mul(*(s**e for s, e in zip(symbols, exps)))
            for exps, c in p.terms.items()
        )
    )


def same(p: Poly, expr) -> bool:
    return sympy.expand(to_sympy(p) - expr) == 0


def field_to_sympy(q: PolyVectorField) -> list:
    return [to_sympy(q.components[v]) if v in q.components else sympy.Integer(0) for v in q.variables]


def assert_field_equals(q: PolyVectorField, expected: list) -> None:
    for v, expr in zip(q.variables, expected):
        actual = q.components.get(v, Poly.zero(q.variables))
        assert same(actual, expr), (v, actual, expr)


VARS3 = ("x", "y", "z")
VARS4 = ("x", "y", "z", "w")


class TestBracket:
    @pytest.mark.parametrize("variables", [VARS3, VARS4], ids=["3vars", "4vars"])
    @given(data=st.data())
    @settings(max_examples=40, deadline=None)
    def test_lie_bracket(self, variables, data):
        q1 = data.draw(fields(variables))
        q2 = data.draw(fields(variables))
        symbols = sympy.symbols(variables)
        a, b = field_to_sympy(q1), field_to_sympy(q2)
        expected = [
            sum(
                a[j] * sympy.diff(b[i], z) - b[j] * sympy.diff(a[i], z)
                for j, z in enumerate(symbols)
            )
            for i in range(len(symbols))
        ]
        assert_field_equals(lie_bracket(q1, q2), expected)


@pytest.fixture(scope="module")
def shipped_maps(fixtures_dir):
    return {
        name: pointmap_from_dict(json.loads((fixtures_dir / "maps" / f"{name}.json").read_text()))
        for name in MAPS
    }


class TestPushforward:
    @pytest.mark.parametrize("name", MAPS)
    @given(q=fields(FAMILY_VARIABLES))
    @settings(max_examples=25, deadline=None)
    def test_pushforward_under_shipped_map(self, shipped_maps, name, q):
        pm = shipped_maps[name]
        symbols = sympy.symbols(FAMILY_VARIABLES)
        forward = [to_sympy(pm.forward[v]) for v in FAMILY_VARIABLES]
        inverse = dict(zip(symbols, (to_sympy(pm.inverse[v]) for v in FAMILY_VARIABLES)))
        comps = field_to_sympy(q)
        expected = [
            sum(comps[j] * sympy.diff(fwd, z) for j, z in enumerate(symbols)).subs(
                inverse, simultaneous=True
            )
            for fwd in forward
        ]
        assert_field_equals(pushforward(pm, q), expected)


class TestPoly:
    @given(a=polys(VARS4), b=polys(VARS4))
    @settings(max_examples=60, deadline=None)
    def test_mul(self, a, b):
        assert same(a * b, sympy.expand(to_sympy(a) * to_sympy(b)))

    @given(data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_substitute(self, data):
        p = data.draw(polys(VARS4))
        mapped = data.draw(st.lists(st.sampled_from(VARS4), unique=True, max_size=4))
        mapping = {name: data.draw(polys(VARS4, max_degree=2, max_terms=3)) for name in mapped}
        symbols = dict(zip(VARS4, sympy.symbols(VARS4)))
        images = {symbols[name]: to_sympy(image) for name, image in mapping.items()}
        expected = sympy.expand(to_sympy(p).subs(images, simultaneous=True))
        assert same(p.substitute(mapping), expected)


# ---------------------------------------------------------------------------
# the graded-lex order, against the key it was first defined by


def reference_sort_key(exps):
    # ascending order of this key is descending graded lex: the first term leads
    return (-sum(exps), tuple(-e for e in exps))


def render_in_order(p: Poly, order) -> str:
    """p printed term by term in the given order, each term printed on its own."""
    first, *rest = order
    text = Poly(p.variables, {first: p.terms[first]}).to_str()
    for exps in rest:
        c = p.terms[exps]
        text += (" - " if c < 0 else " + ") + Poly(p.variables, {exps: abs(c)}).to_str()
    return text


VARS8 = tuple(f"v{i}" for i in range(8))


class TestTermOrder:
    @given(data=st.data())
    @settings(max_examples=80, deadline=None)
    def test_matches_reference_key(self, data):
        variables = VARS8[: data.draw(st.integers(1, 8))]
        nonzero = polys(variables, max_degree=4, max_terms=8).filter(lambda p: not p.is_zero())
        p = data.draw(nonzero)
        order = sorted(p.terms, key=reference_sort_key)
        assert p.leading_term() == (order[0], p.terms[order[0]])
        assert p.to_str() == render_in_order(p, order)


# ---------------------------------------------------------------------------
# block determinants


def block_det(pattern):
    """_symbolic_det of a grid of unknown names (None = zero) and sympy's Laplace det."""
    names = tuple(dict.fromkeys(name for row in pattern for name in row if name))
    symbols = dict(zip(names, sympy.symbols(names)))
    matrix = sympy.Matrix([[symbols[name] if name else 0 for name in row] for row in pattern])
    return _symbolic_det(pattern, names), sympy.expand(matrix.det(method="laplace"))


@st.composite
def zero_patterns(draw):
    """Square grids of distinct unknowns a<i>_<j> with random zeros, up to 6x6."""
    size = draw(st.integers(1, 6))
    kept = st.booleans() if size < 6 else st.sampled_from([False, True, True])
    return [
        [f"a{i}_{j}" if draw(kept) else None for j in range(size)] for i in range(size)
    ]


class TestSymbolicDet:
    @given(pattern=zero_patterns())
    @settings(max_examples=40, deadline=None)
    def test_distinct_unknowns(self, pattern):
        det, expected = block_det(pattern)
        assert same(det, expected)

    @pytest.mark.parametrize(
        "pattern",
        [
            # circulant: a^3 + b^3 + c^3 - 3*a*b*c, three permutations share a*b*c
            [["a", "b", "c"], ["c", "a", "b"], ["b", "c", "a"]],
            [["a", "a"], ["a", "a"]],  # every term cancels
            [["a", "b", "c"], [None, None, None], ["d", "e", "f"]],  # a zero row
            [["a", None, "b"], ["c", None, "d"], ["e", None, "f"]],  # a zero column
        ],
        ids=["repeated", "cancelling", "zero-row", "zero-column"],
    )
    def test_special_blocks(self, pattern):
        det, expected = block_det(pattern)
        assert same(det, expected)


def rational(q: Fraction):
    return sympy.Rational(q.numerator, q.denominator)


def fraction(r) -> Fraction:
    return Fraction(int(r.p), int(r.q))


@st.composite
def matrices(draw):
    rows, cols = draw(st.integers(1, 5)), draw(st.integers(1, 5))
    entry = st.sampled_from([0, 0, 0, 1, -1, 2, Fraction(1, 2), Fraction(-3, 4)])
    return Matrix([[draw(entry) for _ in range(cols)] for _ in range(rows)])


def sympy_matrix(m: Matrix):
    return sympy.Matrix(m.rows, m.cols, [rational(x) for row in m.entries for x in row])


class TestLinearAlgebra:
    @given(m=matrices())
    @settings(max_examples=80, deadline=None)
    def test_rref_and_rank(self, m):
        reduced, pivots = m.rref_with_pivots()
        expected, expected_pivots = sympy_matrix(m).rref()
        assert pivots == expected_pivots
        assert len(pivots) == sympy_matrix(m).rank()
        assert [list(row) for row in reduced.entries] == [
            [fraction(expected[i, j]) for j in range(m.cols)] for i in range(len(pivots))
        ]

    @given(m=matrices())
    @settings(max_examples=80, deadline=None)
    def test_kernel_spans_nullspace(self, m):
        null = sympy_matrix(m).nullspace()
        expected = Subspace.spanned_by(m.cols, [[fraction(x) for x in v] for v in null])
        def integral(row):
            # the row times the lcm of its denominators, which keeps the kernel
            d = lcm(*(x.denominator for x in row))
            return [int(x * d) for x in row]

        # the one kernel solve takes the image of each unit vector: a column of m
        rows = [integral(row) for row in m.entries]
        got = Subspace.full(m.cols)._where_zero(
            {i: row[j] for i, row in enumerate(rows) if row[j]} for j in range(m.cols)
        )
        assert got == expected and got.dim == len(null)


class TestExactDiv:
    @given(data=st.data())
    @settings(max_examples=80, deadline=None)
    def test_against_sympy_div(self, data):
        nonzero = polys(VARS3, max_degree=2, max_terms=3).filter(lambda p: not p.is_zero())
        divisor = data.draw(nonzero)
        dividend = data.draw(polys(VARS3))
        if data.draw(st.booleans()):
            dividend = dividend * divisor  # exact in about half the draws
        symbols = sympy.symbols(VARS3)
        quotient, remainder = sympy.div(to_sympy(dividend), to_sympy(divisor), *symbols)
        got = dividend.exact_div(divisor)
        assert (got is None) == (sympy.expand(remainder) != 0)
        if got is not None:
            assert same(got, quotient)


# ---------------------------------------------------------------------------
# the restart-loop elimination, kept as the reference for triangular_solve


def reference_triangular_solve(equations, unknowns, inequations):
    """Eliminate soundly, restarting the scan after every solved unknown."""
    atoms, seen_atoms = [], set()
    for condition in inequations:
        candidates = []
        mono_vars = condition.monomial_variables()
        if mono_vars is not None:
            candidates += [Poly.var(condition.variables, name) for name in mono_vars]
        if not condition.is_constant():
            candidates.append(condition.content_normalized())
        for p in candidates:
            key = frozenset(p.terms.items())
            if key not in seen_atoms:
                seen_atoms.add(key)
                atoms.append(p)

    def known_nonzero(p):
        if p.is_zero():
            return False
        while not p.is_constant():
            for atom in atoms:
                q = p.exact_div(atom)
                if q is not None and not q.is_zero():
                    p = q
                    break
            else:
                return False
        return p.constant_value() != 0

    equations = [eq.content_normalized() for eq in equations if not eq.is_zero()]
    assignments, audit = {}, []
    progress = True
    while progress:
        progress = False
        for eq_index, eq in enumerate(equations):
            for name in unknowns:
                if name in assignments or not eq.mentions(name):
                    continue
                decomposition = eq.linear_decompose(name)
                if decomposition is None:
                    continue
                coeff, rest = decomposition
                if not known_nonzero(coeff):
                    continue
                quotient = rest.exact_div(coeff)
                if quotient is None:
                    continue
                solution = -quotient
                if not coeff.is_constant():
                    audit.append(
                        {
                            "equation": eq.to_str(),
                            "unknown": name,
                            "divided_by": coeff.content_normalized().to_str(),
                        }
                    )
                substitution = {name: solution}
                assignments = {k: v.substitute(substitution) for k, v in assignments.items()}
                assignments[name] = solution
                reduced = [
                    other.substitute(substitution).content_normalized()
                    for pos, other in enumerate(equations)
                    if pos != eq_index
                ]
                equations = [r for r in reduced if not r.is_zero()]
                progress = True
                break
            if progress:
                break
    residual, seen = [], set()
    for eq in equations:
        key = frozenset(eq.terms.items())
        if key not in seen:
            seen.add(key)
            residual.append(eq)
    free = tuple(name for name in unknowns if name not in assignments)
    return assignments, free, tuple(residual), tuple(audit)


def _filiform(n):
    names = [f"e{i}" for i in range(1, n + 1)]
    return algebra_from_brackets(f"L{n}", names, {(0, i): {i + 1: 1} for i in range(1, n - 1)})


def _heisenberg(k):
    names = [f"x{i}" for i in range(1, k + 1)] + [f"y{i}" for i in range(1, k + 1)] + ["z"]
    return algebra_from_brackets(f"h{k}", names, {(i, k + i): {2 * k: 1} for i in range(k)})


@st.composite
def unit_triangular_conjugator(draw, n):
    """L @ U with unit diagonals and small integer entries: always invertible."""
    small = st.integers(-1, 1)
    below = [[draw(small) if i > j else int(i == j) for j in range(n)] for i in range(n)]
    above = [[draw(small) if i < j else int(i == j) for j in range(n)] for i in range(n)]
    return Matrix(below) @ Matrix(above)


def assert_matches_reference(g):
    basis = adapted_basis(g, closure(g))
    shape = shape_from_flag(basis)
    system = structure_equations(basis.algebra, shape)
    param = triangular_solve(system)
    assignments, free, residual, audit = reference_triangular_solve(
        system.equations, shape.unknowns, shape.side_conditions
    )
    assert list(param.assignments.items()) == list(assignments.items())
    assert param.free_parameters == free
    assert param.residual_equations == residual
    assert param.division_audit == audit
    assert param.shape is shape


class TestTriangularSolveReference:
    @given(data=st.data())
    @settings(max_examples=25, deadline=None)
    def test_matches_restart_loop(self, data, m5, sl2d):
        g = data.draw(st.sampled_from([m5, sl2d, _heisenberg(3), _filiform(6)]))
        assert_matches_reference(change_basis(g, data.draw(unit_triangular_conjugator(g.dim))))

    # L12 and L16: many unknowns, and each equation has only a few of them as
    # columns.  The rational conjugates put fractions into back-substituted
    # assignments, and m5's rewrites equations mid-solve; h3 and sl2d end
    # with a residual system.
    @pytest.mark.parametrize("name", ["L12", "L16", "sl2d", "h3", "m5/rational", "L6/rational", "sl2d/rational"])
    def test_matches_restart_loop_on(self, name, m5, sl2d):
        base, _, conjugate = name.partition("/")
        g = _filiform(int(base[1:])) if base[0] == "L" else {"m5": m5, "sl2d": sl2d, "h3": _heisenberg(3)}[base]
        assert_matches_reference(_rational_conjugate(g) if conjugate else g)
