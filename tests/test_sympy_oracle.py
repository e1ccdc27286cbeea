"""Differential oracle: the polynomial and vector-field kernels against sympy.

sympy is used by tests only; without it this module is skipped.  Random
fields have degree <= 3 and small rational coefficients; each result of
megalie is converted to a sympy expression and compared after expansion.
"""

import json
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
