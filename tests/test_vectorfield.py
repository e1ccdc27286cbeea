import json
import random
import re
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from megalie.poly import Poly, parse_poly
from megalie.vectorfield import (
    FAMILY_VARIABLES,
    LinearlyDependent,
    NotClosed,
    PointMap,
    PolyVectorField,
    extract_structure,
    fields_from_dict,
    fields_to_dict,
    lie_bracket,
    pointmap_from_dict,
    pushforward,
    realize_family,
    verify_homomorphism,
)

V = FAMILY_VARIABLES


def fp(text):
    return parse_poly(text, V)


def xpoly(text):
    return parse_poly(text, V)


@pytest.fixture(scope="module")
def family():
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


class TestRealize:
    def test_gauge_with_linear_parameter(self):
        # second derivative vanishes, so no g component survives
        g = realize_family("G", xpoly("x"))
        assert g == PolyVectorField(V, {"u": fp("x"), "u_x": fp("1")})

    def test_translation(self):
        assert realize_family("D", xpoly("1")) == PolyVectorField(V, {"x": fp("1")})

    def test_quadratic_x_scaling(self):
        d = realize_family("D", xpoly("x^2"))
        assert d == PolyVectorField(
            V,
            {
                "x": fp("x^2"),
                "u_x": fp("-2*x*u_x"),
                "f": fp("4*x*f"),
                "g": fp("2*u_x*f"),
            },
        )

    def test_parameter_must_be_in_x_only(self):
        with pytest.raises(ValueError):
            realize_family("D", fp("t"))
        with pytest.raises(ValueError):
            realize_family("Pt", xpoly("x"))
        with pytest.raises(ValueError):
            realize_family("G")


class TestBracket:
    def test_pt_f2_gives_twice_f1(self, family):
        assert lie_bracket(family["Pt"], family["F2"]) == family["F1"].scaled(2)

    def test_dx_dx2(self, family):
        # x * (x^2)' - (x)' * x^2 = x^2
        assert lie_bracket(family["Dx"], family["Dx2"]) == family["Dx2"]

    def test_self_bracket_vanishes(self, family):
        for fld in family.values():
            assert lie_bracket(fld, fld).is_zero()

    def test_full_commutation_table(self, family):
        params = ["1", "x", "x2", "x3"]
        xof = {"1": xpoly("1"), "x": xpoly("x"), "x2": xpoly("x^2"), "x3": xpoly("x^3")}
        # [G(p), Du] = G(p); [F1, Du] = F1; [F2, Du] = F2
        for p in params:
            assert lie_bracket(family[f"G{p}"], family["Du"]) == family[f"G{p}"]
        assert lie_bracket(family["F1"], family["Du"]) == family["F1"]
        assert lie_bracket(family["F2"], family["Du"]) == family["F2"]
        # [Dt, F1] = F1; [Dt, F2] = 2 F2; [Pt, Dt] = Pt
        assert lie_bracket(family["Dt"], family["F1"]) == family["F1"]
        assert lie_bracket(family["Dt"], family["F2"]) == family["F2"].scaled(2)
        assert lie_bracket(family["Pt"], family["Dt"]) == family["Pt"]
        # [Pt, F1] = G(1); [Pt, F2] = 2 F1
        assert lie_bracket(family["Pt"], family["F1"]) == family["G1"]
        assert lie_bracket(family["Pt"], family["F2"]) == family["F1"].scaled(2)
        # [D(p), D(q)] = D(p q' - p' q) and [D(p), G(q)] = G(p q')
        for p in params:
            for q in params:
                pp, qq = xof[p], xof[q]
                dd = pp * qq.derivative("x") - pp.derivative("x") * qq
                expected_d = PolyVectorField(V, {}) if dd.is_zero() else realize_family("D", dd)
                assert lie_bracket(family[f"D{p}"], family[f"D{q}"]) == expected_d
                gg = pp * qq.derivative("x")
                expected_g = PolyVectorField(V, {}) if gg.is_zero() else realize_family("G", gg)
                assert lie_bracket(family[f"D{p}"], family[f"G{q}"]) == expected_g


class TestExtract:
    def test_m5_constants(self, family, m5):
        names = ["G1", "F1", "F2", "Pt", "Dt"]
        g = extract_structure([(n, family[n]) for n in names], name="m5")
        assert g.c == m5.c
        assert g.basis_names == tuple(names)

    def test_sl2d_constants(self, family, sl2d):
        g = extract_structure([(n, family[n]) for n in ("D1", "Dx", "Dx2")], name="sl2d")
        assert g.c == sl2d.c

    def test_not_closed(self, family):
        with pytest.raises(NotClosed) as info:
            extract_structure([("Dx2", family["Dx2"]), ("Dx3", family["Dx3"])])
        assert {info.value.left, info.value.right} == {"Dx2", "Dx3"}
        # the escaping bracket is the x^4 scaling field
        assert info.value.bracket == realize_family("D", xpoly("x^4"))

    def test_linearly_dependent(self, family):
        doubled = family["F1"].scaled(2)
        with pytest.raises(LinearlyDependent):
            extract_structure([("F1", family["F1"]), ("FF", doubled)])

    def test_abstract_brackets_match_concrete(self, family):
        names = ["G1", "F1", "F2", "Pt", "Dt"]
        fields = [family[n] for n in names]
        g = extract_structure([(n, family[n]) for n in names])
        for i in range(5):
            for j in range(5):
                concrete = lie_bracket(fields[i], fields[j])
                coords = g.bracket(g.basis_vector(i), g.basis_vector(j))
                rebuilt = PolyVectorField(V, {})
                for k, c in enumerate(coords):
                    if c:
                        rebuilt = rebuilt + fields[k].scaled(c)
                assert rebuilt == concrete


class TestPointMap:
    def test_identity(self, family):
        pm = PointMap.identity(V)
        assert pushforward(pm, family["Dt"]) == family["Dt"]

    def test_time_shift_mixes_dt_and_pt(self, family):
        pm = PointMap(V, {"t": fp("t + 3")}, {"t": fp("t - 3")})
        pushed = pushforward(pm, family["Dt"])
        assert pushed == family["Dt"] - family["Pt"].scaled(3)

    def test_u_scaling_scales_g1(self, family):
        pm = PointMap(
            V,
            {"u": fp("2*u"), "u_x": fp("2*u_x"), "g": fp("2*g")},
            {"u": fp("1/2*u"), "u_x": fp("1/2*u_x"), "g": fp("1/2*g")},
        )
        assert pushforward(pm, family["G1"]) == family["G1"].scaled(2)

    def test_mismatched_inverse_rejected(self):
        with pytest.raises(ValueError):
            PointMap(V, {"t": fp("t + 1")}, {"t": fp("t + 1")})

    def test_pushforward_functorial(self, family):
        pm1 = PointMap(V, {"t": fp("t + 1")}, {"t": fp("t - 1")})
        pm2 = PointMap(
            V,
            {"u": fp("2*u"), "u_x": fp("2*u_x"), "g": fp("2*g")},
            {"u": fp("1/2*u"), "u_x": fp("1/2*u_x"), "g": fp("1/2*g")},
        )
        composite = pm1.then(pm2)
        for name in ("Dt", "F2", "Gx2", "Dx2"):
            q = family[name]
            assert pushforward(pm2, pushforward(pm1, q)) == pushforward(composite, q)

    def test_verify_homomorphism(self, family):
        pm = PointMap(V, {"t": fp("t + 1")}, {"t": fp("t - 1")})
        names = ["G1", "F1", "F2", "Pt", "Dt"]
        report = verify_homomorphism(pm, [(n, family[n]) for n in names])
        assert report["ok"]
        assert report["pairs"] == 10


class TestFileFormats:
    def test_fields_roundtrip(self, family):
        named = [("Pt", family["Pt"]), ("Gx2", family["Gx2"])]
        data = fields_to_dict(V, named)
        variables, loaded = fields_from_dict(json.loads(json.dumps(data)))
        assert variables == V
        assert loaded == named

    def test_pointmap_file_roundtrip(self, fixtures_dir):
        data = json.loads((fixtures_dir / "maps" / "ugauge.json").read_text())
        pm = pointmap_from_dict(data)
        assert pm.forward["u"] == fp("u + x^2")

    def test_corrupted_map_file_rejected(self):
        data = {
            "variables": list(V),
            "forward": {"t": "t + 1"},
            "inverse": {"t": "t + 2"},
        }
        with pytest.raises(ValueError):
            pointmap_from_dict(data)

    @pytest.mark.parametrize(
        "data, path",
        [
            ([], "file"),
            ({"variables": ["x"], "fields": {"X": {}}}, "'fields'"),
            ({"variables": ["x"], "fields": [1]}, "fields[0]"),
            ({"variables": ["x"], "fields": [{"name": "X", "components": ["x"]}]}, "fields[0].components"),
            ({"variables": ["x"], "fields": [{"name": "X", "components": {"x": 5}}]}, "fields[0].components.x"),
        ],
    )
    def test_malformed_fields_file_names_its_path(self, data, path):
        with pytest.raises(ValueError, match=re.escape(path)):
            fields_from_dict(data)

    @pytest.mark.parametrize("loader", [fields_from_dict, pointmap_from_dict])
    def test_duplicate_variable_names_rejected(self, loader):
        with pytest.raises(ValueError, match=re.escape("variables[2]: duplicate variable name 'x'")):
            loader({"variables": ["x", "y", "x"]})

    @pytest.mark.parametrize(
        "data, path",
        [
            ("x", "file"),
            ({"variables": ["x"], "forward": ["x"]}, "forward"),
            ({"variables": ["x"], "inverse": {"x": None}}, "inverse.x"),
        ],
    )
    def test_malformed_map_file_names_its_path(self, data, path):
        with pytest.raises(ValueError, match=re.escape(path)):
            pointmap_from_dict(data)


# random polynomial fields in 3 variables, degree <= 3
SMALL_VARS = ("x", "y", "z")
small_coeff = st.fractions(min_value=Fraction(-4), max_value=Fraction(4), max_denominator=3)
small_exps = st.tuples(
    st.integers(min_value=0, max_value=2),
    st.integers(min_value=0, max_value=2),
    st.integers(min_value=0, max_value=1),
)
small_poly = st.dictionaries(small_exps, small_coeff, max_size=3).map(
    lambda d: Poly(SMALL_VARS, d)
)
small_field = st.fixed_dictionaries(
    {}, optional={name: small_poly for name in SMALL_VARS}
).map(lambda comps: PolyVectorField(SMALL_VARS, comps))


class TestBracketProperties:
    @given(small_field, small_field)
    @settings(max_examples=40, deadline=None)
    def test_antisymmetry(self, q1, q2):
        assert lie_bracket(q1, q2) == lie_bracket(q2, q1).scaled(-1)

    @given(small_field, small_field, small_field)
    @settings(max_examples=30, deadline=None)
    def test_bilinearity(self, q1, q2, q3):
        lhs = lie_bracket(q1 + q2.scaled(3), q3)
        rhs = lie_bracket(q1, q3) + lie_bracket(q2, q3).scaled(3)
        assert lhs == rhs

    @given(small_field, small_field, small_field)
    @settings(max_examples=25, deadline=None)
    def test_jacobi(self, q1, q2, q3):
        total = (
            lie_bracket(lie_bracket(q1, q2), q3)
            + lie_bracket(lie_bracket(q2, q3), q1)
            + lie_bracket(lie_bracket(q3, q1), q2)
        )
        assert total.is_zero()


class TestClosedFormDG:
    def test_bracket_matches_gauge_of_product_derivative(self):
        # [D(p), G(q)] = G(p q') for polynomial parameters of degree <= 4
        rng = random.Random(7)
        for _ in range(25):
            p = Poly(
                ("x",), {(k,): Fraction(rng.randint(-3, 3)) for k in range(rng.randint(1, 5))}
            )
            q = Poly(
                ("x",), {(k,): Fraction(rng.randint(-3, 3)) for k in range(rng.randint(1, 5))}
            )
            if p.is_zero() or q.is_zero():
                continue
            left = lie_bracket(realize_family("D", p), realize_family("G", q))
            product = p * q.derivative("x")
            expected = PolyVectorField(V, {}) if product.is_zero() else realize_family("G", product)
            assert left == expected


class TestFusedKernel:
    """apply_to, lie_bracket and pushforward add product terms into one dict."""

    @staticmethod
    def reference_apply(q, h):
        # the plain definition: sum over v of Q^v * dh/dv, one Poly per product
        total = Poly.zero(q.variables)
        for name, p in q.components.items():
            total = total + p * h.derivative(name)
        return total

    @given(small_field, small_poly)
    @settings(max_examples=60, deadline=None)
    def test_apply_to_matches_reference(self, q, h):
        assert q.apply_to(h) == self.reference_apply(q, h)

    def test_apply_to_lifts_a_polynomial_over_fewer_variables(self, family):
        assert family["Dx2"].apply_to(parse_poly("x^3", ("x",))) == fp("3*x^4")

    def test_bracket_builds_no_product_or_sum(self, family, monkeypatch):
        left, right = family["Dx3"], family["Gx2"]
        calls = []
        for name in ("__mul__", "__add__"):
            original = getattr(Poly, name)

            def counted(self, other, name=name, original=original):
                calls.append(name)
                return original(self, other)

            monkeypatch.setattr(Poly, name, counted)
        bracket = lie_bracket(left, right)
        assert calls == []
        monkeypatch.undo()
        # [D(x^3), G(x^2)] = G(x^3 * 2x)
        assert bracket == realize_family("G", xpoly("2*x^4"))

    def test_cancelled_terms_are_dropped(self, family, fixtures_dir):
        assert lie_bracket(family["Du"], family["Du"]).components == {}
        pm = pointmap_from_dict(json.loads((fixtures_dir / "maps" / "ugauge.json").read_text()))
        results = [lie_bracket(a, b) for a in family.values() for b in family.values()]
        results += [pushforward(pm, fld) for fld in family.values()]
        for fld in results:
            for p in fld.components.values():
                assert p.terms and 0 not in p.terms.values()
