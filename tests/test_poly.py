from fractions import Fraction
from math import gcd, lcm

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from megalie.poly import ExpansionError, Poly, PolyError, parse_poly, substitute_all

VARS = ("x", "y", "z")


def P(text, variables=VARS):
    return parse_poly(text, variables)


class TestParse:
    def test_basic_terms(self):
        p = P("x^2 - 1/2*x", ("x",))
        assert p.terms == {(2,): Fraction(1), (1,): Fraction(-1, 2)}

    def test_multivar(self):
        p = parse_poly("u_x*f + 2", ("t", "x", "u", "u_x", "f", "g"))
        assert len(p.terms) == 2

    def test_parens_and_unary_minus(self):
        assert P("-(x - y)*2") == P("2*y - 2*x")

    def test_constant(self):
        assert P("7/3").constant_value() == Fraction(7, 3)

    def test_unknown_variable_position(self):
        with pytest.raises(PolyError) as info:
            P("x + w")
        assert info.value.position == 4

    def test_syntax_error_position(self):
        with pytest.raises(PolyError) as info:
            P("x + ")
        assert info.value.position == 4

    def test_bad_exponent(self):
        with pytest.raises(PolyError):
            P("x^-2")
        with pytest.raises(PolyError):
            P("x^1/2")
        with pytest.raises(PolyError):
            P("2^3")

    def test_zero_denominator(self):
        with pytest.raises(PolyError):
            P("1/0")

    def test_nesting_is_bounded(self):
        assert P("(" * 100 + "x" + ")" * 100) == P("x")
        for depth in (101, 5000):
            with pytest.raises(PolyError, match="nested deeper than 100") as info:
                P("(" * depth + "x" + ")" * depth)
            assert info.value.position == 100

    def test_degree_is_bounded(self):
        assert P("x^100") == P("x") ** 100
        assert P("x^50*y^25*(z^25 + 1)") == P("x^50*y^25*z^25 + x^50*y^25")
        assert P("x^0100 + y^100 - y^100") == P("x") ** 100
        for text, position in [
            ("x^101", 2),
            ("1 + x^" + "9" * 5000, 6),  # past the int-string digit limit
            ("x^60*y^41", 4),
            ("x^50*(y^25 + z)*(y^25*z + 1)*x", 15),
            ("(x^40*y^40)*(z^20 + 1)*(x + 1)", 22),
        ]:
            with pytest.raises(PolyError, match="degree above 100") as info:
                P(text)
            assert info.value.position == position

    def test_product_expansion_is_bounded(self):
        # the 26th product passes 10^5 term pairs in all; the degree stays far below 100
        factor = "(x + y + z + 1)"
        assert len(P("*".join([factor] * 20)).terms) == 1771
        with pytest.raises(PolyError, match="products expand past 100000 term pairs") as info:
            P("*".join([factor] * 40))
        assert info.value.position == 26 * (len(factor) + 1) - 1

    def test_substitution_expansion_is_bounded(self):
        mapping = {"x": P("x + y + z + 1")}
        assert P("x^12").substitute(mapping) == mapping["x"] ** 12
        with pytest.raises(ExpansionError, match="substitution expands past 100000 term pairs"):
            P("x^100").substitute(mapping)
        # the bound counts every product of one substitute_all call
        polys = [P("x^16"), P("x^17"), P("x^18")]
        for p in polys:
            p.substitute(mapping)  # 30000 to 40000 pairs each
        with pytest.raises(ExpansionError):
            substitute_all(polys, mapping)

    @pytest.mark.parametrize("text", ["٣", "x + ٣", "x^٣", "1/٣", "²"])
    def test_only_ascii_digits(self, text):
        with pytest.raises(PolyError, match="unexpected character"):
            P(text)


class TestArithmetic:
    def test_product(self):
        assert P("x + y") * P("x - y") == P("x^2 - y^2")

    def test_derivative(self):
        assert P("x^3").derivative("x") == P("3*x^2")
        assert P("x*y^2 + z").derivative("y") == P("2*x*y")

    def test_substitute_composition(self):
        p = P("x^2 + y")
        image = p.substitute({"x": P("y + 1"), "y": P("z")})
        assert image == P("y^2 + 2*y + 1 + z")

    def test_evaluate(self):
        p = P("x^2*y - 3")
        assert p.evaluate({"x": Fraction(2), "y": Fraction(1, 4)}) == Fraction(-2)

    def test_exact_division(self):
        product = P("x + y") * P("x*y - 2")
        assert product.exact_div(P("x + y")) == P("x*y - 2")
        assert P("x^2 + 1").exact_div(P("x + 1")) is None

    def test_linear_decompose(self):
        p = P("2*y*x + z - 1")
        coeff, rest = p.linear_decompose("x")
        assert coeff == P("2*y")
        assert rest == P("z - 1")
        assert P("x^2 + x").linear_decompose("x") is None
        assert P("y + 1").linear_decompose("x") is None

    def test_content_normalized(self):
        assert P("2/3*x - 4/3").content_normalized() == P("x - 2")
        assert (-P("x - 2")).content_normalized() == P("x - 2")


class TestFloatsRefused:
    # 0.1 is not 1/10 in binary; every rational entry point refuses it
    def test_constructors_and_scaling(self):
        with pytest.raises(TypeError):
            Poly(VARS, {(1, 0, 0): 0.1})
        with pytest.raises(TypeError):
            Poly.const(VARS, 0.1)
        with pytest.raises(TypeError):
            P("x").scaled(0.1)

    def test_evaluate(self):
        with pytest.raises(TypeError):
            P("x + y").evaluate({"x": 0.1, "y": 1})

    def test_bool_is_zero_or_one(self):
        assert Poly.const(VARS, True) == P("1")
        assert P("x").scaled(False).is_zero()
        assert Poly(VARS, {(1, 0, 0): Fraction(1, 2)}) == P("1/2*x")


class TestComputedOnce:
    def test_leading_term_scanned_once(self, monkeypatch):
        import megalie.poly

        calls = []
        original = megalie.poly._monomial_sort_key

        def counted(exps):
            calls.append(exps)
            return original(exps)

        monkeypatch.setattr(megalie.poly, "_monomial_sort_key", counted)
        p = P("x*y + 3*z^2 - x + 1")
        assert p.leading_term() == ((1, 1, 0), Fraction(1))
        assert calls
        calls.clear()
        assert p.leading_term() == ((1, 1, 0), Fraction(1))
        assert calls == []

    def test_content_normalized_keeps_a_normalized_polynomial(self, monkeypatch):
        calls = []
        original = Poly.scaled

        def counted(self, q):
            calls.append(q)
            return original(self, q)

        monkeypatch.setattr(Poly, "scaled", counted)
        p = P("2*x*y - 3*z + 1")
        assert p.content_normalized() is p
        assert calls == []
        assert P("-4*x*y + 6*z - 2").content_normalized() == p
        assert calls == [Fraction(-1, 2)]

    def test_substitute_rejects_images_over_other_variables(self):
        with pytest.raises(ValueError):
            P("x + y").substitute({"x": P("u", ("u", "x", "y", "z"))})

    def test_substitute_makes_no_variable_polynomials(self, monkeypatch):
        calls = []
        original = Poly.var

        def counted(variables, name):
            calls.append(name)
            return original(variables, name)

        p, image = P("x^2*y + y*z - 3"), P("y + 1")
        expected = P("y^3 + 2*y^2 + y + y*z - 3")
        monkeypatch.setattr(Poly, "var", staticmethod(counted))
        assert p.substitute({"x": image}) == expected
        assert calls == []

    def test_power_by_squaring(self, monkeypatch):
        calls = []
        original = Poly.__mul__

        def counted(self, other):
            calls.append(other)
            return original(self, other)

        x = P("x")
        binomial = P("x + 2*y")
        expected = [P("1")]
        for _ in range(20):
            expected.append(expected[-1] * binomial)
        monkeypatch.setattr(Poly, "__mul__", counted)
        assert x**4096 == Poly(VARS, {(4096, 0, 0): 1})
        assert len(calls) <= 2 * 13
        for k in range(21):
            calls.clear()
            assert binomial**k == expected[k]
            assert len(calls) <= k  # never more products than k repeated ones


class TestPrinting:
    @pytest.mark.parametrize(
        "text,expected",
        [
            ("0", "0"),
            ("x - x", "0"),
            ("y + x", "x + y"),
            ("x*y + x^2", "x^2 + x*y"),
            ("-x + 3", "-x + 3"),
            ("-1/2*x*y", "-1/2*x*y"),
            ("x^2*1", "x^2"),
        ],
    )
    def test_canonical_strings(self, text, expected):
        assert P(text).to_str() == expected


coeffs = st.fractions(min_value=Fraction(-9), max_value=Fraction(9), max_denominator=6)
exponent_tuples = st.tuples(
    st.integers(min_value=0, max_value=3),
    st.integers(min_value=0, max_value=3),
    st.integers(min_value=0, max_value=3),
)
polys = st.dictionaries(exponent_tuples, coeffs, max_size=6).map(lambda d: Poly(VARS, d))


class TestProperties:
    @given(polys)
    @settings(max_examples=120, deadline=None)
    def test_print_parse_roundtrip(self, p):
        assert parse_poly(p.to_str(), VARS) == p

    @given(polys, polys)
    @settings(max_examples=60, deadline=None)
    def test_exact_div_recovers_factor(self, a, b):
        if a.is_zero() or b.is_zero():
            return
        assert (a * b).exact_div(b) == a

    @given(polys, polys)
    @settings(max_examples=60, deadline=None)
    def test_product_rule(self, a, b):
        lhs = (a * b).derivative("x")
        rhs = a.derivative("x") * b + a * b.derivative("x")
        assert lhs == rhs


# ---------------------------------------------------------------------------
# Coefficients are ints where integral and Fractions only where a denominator
# survives.  The reference below is the all-Fraction arithmetic of the
# polynomial core on plain {exponents: Fraction} dicts, with `/` for division.


def ref_clean(terms):
    return {e: Fraction(c) for e, c in terms.items() if c}


def ref_add(a, b, sign=1):
    out = dict(a)
    for e, c in b.items():
        out[e] = out.get(e, Fraction(0)) + sign * c
    return ref_clean(out)


def ref_mul(a, b):
    out = {}
    for e1, c1 in a.items():
        for e2, c2 in b.items():
            key = tuple(x + y for x, y in zip(e1, e2))
            out[key] = out.get(key, Fraction(0)) + c1 * c2
    return ref_clean(out)


def ref_scaled(a, q):
    return ref_clean({e: Fraction(q) * c for e, c in a.items()})


def ref_derivative(a, idx):
    out = {}
    for e, c in a.items():
        if e[idx]:
            out[e[:idx] + (e[idx] - 1,) + e[idx + 1 :]] = c * e[idx]
    return ref_clean(out)


def ref_substitute(a, images):
    """images: {variable index: reference terms}."""
    out = {}
    for e, c in a.items():
        term = {tuple(0 if i in images else x for i, x in enumerate(e)): c}
        for idx, image in images.items():
            for _ in range(e[idx]):
                term = ref_mul(term, image)
        out = ref_add(out, term)
    return out


def ref_lead(a):
    e = max(a, key=lambda e: (sum(e), e))
    return e, a[e]


def ref_exact_div(a, b):
    if all(sum(e) == 0 for e in b):
        return ref_scaled(a, 1 / b[(0,) * len(VARS)])
    quotient, remainder = {}, dict(a)
    lead_e, lead_c = ref_lead(b)
    while remainder:
        r_e, r_c = ref_lead(remainder)
        diff = tuple(x - y for x, y in zip(r_e, lead_e))
        if any(d < 0 for d in diff):
            return None
        step = {diff: r_c / lead_c}
        quotient = ref_add(quotient, step)
        remainder = ref_add(remainder, ref_mul(step, b), -1)
    return quotient


def ref_content_normalized(a):
    if not a:
        return a
    scale = Fraction(
        lcm(*(c.denominator for c in a.values())), gcd(*(c.numerator for c in a.values()))
    )
    return ref_scaled(a, scale if ref_lead(a)[1] > 0 else -scale)


def fraction_poly(terms):
    """A Poly holding the reference terms as they are, every coefficient a Fraction."""
    p = object.__new__(Poly)
    object.__setattr__(p, "variables", VARS)
    object.__setattr__(p, "terms", dict(terms))
    object.__setattr__(p, "_lead", None)
    return p


def assert_matches(result, reference):
    for c in result.terms.values():
        assert type(c) is int or (type(c) is Fraction and c.denominator != 1), repr(c)
    expected = fraction_poly(reference)
    assert all(type(c) is Fraction for c in expected.terms.values())
    assert result.terms == expected.terms
    assert result == expected
    assert result.to_str() == expected.to_str()
    assert hash(result) == hash(expected)


def term_text(e, c):
    factors = [f"{name}^{k}" for name, k in zip(VARS, e) if k]
    return "*".join([f"({c})" if c < 0 else str(c)] + factors)


# ints (some past the range of a float), rationals with a denominator, and
# integral Fractions such as 4/2
mixed_coeffs = st.one_of(
    st.integers(min_value=-12, max_value=12),
    st.integers(min_value=-(10**400), max_value=10**400),
    coeffs,
    st.builds(Fraction, st.integers(min_value=-12, max_value=12), st.sampled_from([1, 2, 3])),
)
mixed_terms = st.dictionaries(exponent_tuples, mixed_coeffs, max_size=5)
int_terms = st.dictionaries(
    exponent_tuples, st.integers(min_value=-5, max_value=5), min_size=1, max_size=4
).filter(lambda d: any(d.values()))


class TestIntegerCoefficientsAgainstReference:
    @given(mixed_terms)
    @settings(max_examples=80, deadline=None)
    def test_construct_and_parse(self, terms):
        reference = ref_clean(terms)
        assert_matches(Poly(VARS, terms), reference)
        text = " + ".join(term_text(e, Fraction(c)) for e, c in terms.items()) or "0"
        assert_matches(parse_poly(text, VARS), reference)
        assert_matches(parse_poly(Poly(VARS, terms).to_str(), VARS), reference)

    @given(mixed_terms, mixed_terms, mixed_coeffs)
    @settings(max_examples=80, deadline=None)
    def test_arithmetic(self, a, b, q):
        pa, pb = Poly(VARS, a), Poly(VARS, b)
        ra, rb = ref_clean(a), ref_clean(b)
        assert_matches(pa + pb, ref_add(ra, rb))
        assert_matches(pa - pb, ref_add(ra, rb, -1))
        assert_matches(-pa, ref_scaled(ra, -1))
        assert_matches(pa * pb, ref_mul(ra, rb))
        assert_matches(pa.scaled(q), ref_scaled(ra, q))
        for idx, name in enumerate(VARS):
            assert_matches(pa.derivative(name), ref_derivative(ra, idx))
        assert_matches(pa.content_normalized(), ref_content_normalized(ra))

    @given(mixed_terms, mixed_terms, mixed_terms)
    @settings(max_examples=60, deadline=None)
    def test_substitute(self, a, x_image, z_image):
        images = {0: ref_clean(x_image), 2: ref_clean(z_image)}
        mapping = {"x": Poly(VARS, x_image), "z": Poly(VARS, z_image)}
        assert_matches(Poly(VARS, a).substitute(mapping), ref_substitute(ref_clean(a), images))

    @given(mixed_terms, int_terms, st.sampled_from([2, 3, -5]))
    @settings(max_examples=80, deadline=None)
    def test_exact_div(self, a, b, factor):
        # divisors with int coefficients and a leading coefficient that is not +-1
        divisor = Poly(VARS, b).scaled(factor)
        rb = ref_clean(divisor.terms)
        assert abs(ref_lead(rb)[1]) > 1
        for dividend in (Poly(VARS, a) * divisor, Poly(VARS, a)):
            reference = ref_exact_div(ref_clean(dividend.terms), rb)
            quotient = dividend.exact_div(divisor)
            if reference is None:
                assert quotient is None
            else:
                assert_matches(quotient, reference)

    def test_exact_div_by_a_non_monic_int_polynomial(self):
        # the quotient of int polynomials has denominators: 1/3 is no float
        quotient = P("x^2 - 1").exact_div(P("3*x + 3"))
        assert_matches(quotient, {(1, 0, 0): Fraction(1, 3), (0, 0, 0): Fraction(-1, 3)})
        assert_matches(P("6*x^2 + 4*x").exact_div(P("3*x + 2")), {(1, 0, 0): Fraction(2)})
        # a / b of two ints this large has no float value at all
        big = 10**400
        product = P(f"{big}*x*y + 1") * P("3*x + 1")
        quotient = product.exact_div(P("3*x + 1"))
        assert_matches(quotient, {(1, 1, 0): Fraction(big), (0, 0, 0): Fraction(1)})
        assert P("x^2 + 1").exact_div(P("3*x")) is None
