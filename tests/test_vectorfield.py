import collections
import fractions
import itertools
import json
import random
import re
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import megalie.vectorfield as vectorfield
from megalie.algebra import algebra_from_brackets
from megalie.linalg import Matrix, unit_vector
from megalie.poly import MAX_PAIRS, ExpansionError, Poly, parse_poly
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
    pointmap_to_dict,
    pushforward,
    realize_family,
    verify_homomorphism,
)

V = FAMILY_VARIABLES


def fp(text):
    return parse_poly(text, V)


def xpoly(text):
    return parse_poly(text, V)


def load_map(fixtures_dir, name):
    return pointmap_from_dict(json.loads((fixtures_dir / "maps" / f"{name}.json").read_text()))


def wave_generators():
    """Du, Dt, Pt, F1, F2 and D(x^k), G(x^k) for k <= 8: 23 named fields."""
    named = [(kind, realize_family(kind)) for kind in ("Du", "Dt", "Pt", "F1", "F2")]
    for k in range(9):
        param = xpoly(f"x^{k}")
        named += [(f"D{k}", realize_family("D", param)), (f"G{k}", realize_family("G", param))]
    return named


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
                coords = g.bracket(unit_vector(g.dim, i), unit_vector(g.dim, j))
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

    def test_undeclared_component_rejected(self):
        # a component for a name outside the variables is an error, as in
        # PolyVectorField, not a silently dropped entry
        with pytest.raises(ValueError, match="component variable 'tt' not declared"):
            PointMap(V, {"tt": fp("t + 1")}, {"tt": fp("t - 1")})
        with pytest.raises(ValueError, match="component variable 'tt' not declared"):
            PointMap(V, {}, {"tt": fp("t")})

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

    def test_equality_sees_the_maps(self, fixtures_dir):
        tshift = pointmap_from_dict(json.loads((fixtures_dir / "maps" / "tshift.json").read_text()))
        identity = PointMap.identity(V)
        assert tshift != identity
        assert len({tshift, identity}) == 2
        reloaded = pointmap_from_dict(pointmap_to_dict(tshift))
        assert reloaded == tshift and hash(reloaded) == hash(tshift)
        # missing components are the identity, so an explicit one changes nothing
        explicit = PointMap(V, {"x": fp("x")}, {})
        assert explicit == identity and hash(explicit) == hash(identity)

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

    def test_components_dict_in_variable_order(self):
        # components given out of order, one of them zero: rendered in V's order, zero dropped
        field = PolyVectorField(V, {V[-1]: fp("t + 1"), V[0]: fp("x^2"), V[1]: fp("0")})
        assert list(field.components_dict().items()) == [(V[0], "x^2"), (V[-1], "t + 1")]
        assert PolyVectorField(V, {}).components_dict() == {}

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
            p = Poly(V, {(0, k, 0, 0, 0, 0): Fraction(rng.randint(-3, 3)) for k in range(rng.randint(1, 5))})
            q = Poly(V, {(0, k, 0, 0, 0, 0): Fraction(rng.randint(-3, 3)) for k in range(rng.randint(1, 5))})
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

    @staticmethod
    def reference_substitute(p, mapping):
        # sum of coefficient * prod image^e, by Poly products and sums
        total = Poly.zero(p.variables)
        for exps, coeff in p.terms.items():
            term = Poly.const(p.variables, coeff)
            for name, e in zip(p.variables, exps):
                term = term * mapping[name] ** e
            total = total + term
        return total

    @given(small_field, small_poly)
    @settings(max_examples=60, deadline=None)
    def test_apply_to_matches_reference(self, q, h):
        assert q.apply_to(h) == self.reference_apply(q, h)

    @given(small_field, small_field)
    @settings(max_examples=60, deadline=None)
    def test_bracket_matches_reference(self, q1, q2):
        # [Q1, Q2]^i = Q1(Q2^i) - Q2(Q1^i)
        zero = Poly.zero(SMALL_VARS)
        expected = {
            name: self.reference_apply(q1, q2.components.get(name, zero))
            - self.reference_apply(q2, q1.components.get(name, zero))
            for name in SMALL_VARS
        }
        assert lie_bracket(q1, q2) == PolyVectorField(SMALL_VARS, expected)

    def test_pushforward_matches_reference(self, family, fixtures_dir):
        # (T_* Q)^i = sum_j Q^j d(forward^i)/dz_j, substituted with the completed inverse
        shipped = [load_map(fixtures_dir, name) for name in ("tshift", "uscale", "ugauge")]
        composites = [a.then(b) for a, b in itertools.permutations(shipped, 2)]
        for pm in shipped + composites + [PointMap.identity(V)]:
            for q in family.values():
                expected = {
                    name: self.reference_substitute(self.reference_apply(q, pm.forward[name]), pm.inverse)
                    for name in V
                }
                assert pushforward(pm, q) == PolyVectorField(V, expected)

    def test_bracket_pair_budget(self):
        # 2 * n1 * n2 term pairs are counted before any is formed; fields along
        # x with components in y and z only bracket to zero without expanding
        def along_x(count):
            exps = [(0, a, b) for a in range(16) for b in range(16)][:count]
            return PolyVectorField(SMALL_VARS, {"x": Poly(SMALL_VARS, dict.fromkeys(exps, 1))})

        assert 2 * 250 * 200 == MAX_PAIRS
        assert lie_bracket(along_x(250), along_x(200)).is_zero()
        with pytest.raises(ExpansionError, match="expands past 100000 term pairs"):
            lie_bracket(along_x(250), along_x(201))

    def test_polynomials_over_other_variables_are_refused(self, family):
        # a polynomial over ("x",) is not re-expressed over the six variables
        x_only = parse_poly("x^3", ("x",))
        assert family["Dx2"].apply_to(fp("x^3")) == fp("3*x^4")
        with pytest.raises(ValueError, match="not over the field's variables"):
            family["Dx2"].apply_to(x_only)
        with pytest.raises(ValueError, match="not over the field's variables"):
            PolyVectorField(V, {"x": x_only})
        with pytest.raises(ValueError, match="not over FAMILY_VARIABLES"):
            realize_family("D", x_only)
        with pytest.raises(ValueError, match="not over the map's variables"):
            PointMap(V, {"x": x_only}, {})

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


class TestIntegerCoefficients:
    def test_bracket_and_pushforward_construct_no_fraction(self, fixtures_dir):
        # The wave generators, the D(x^k), G(x^k) parameters and the tshift
        # and ugauge maps all have int coefficients, so brackets and
        # push-forwards run on ints: no Fraction code runs at all.
        named = wave_generators()
        maps = [load_map(fixtures_dir, name) for name in ("tshift", "ugauge")]
        entered = []

        def watch(frame, event, arg):
            if event == "call" and frame.f_code.co_filename == fractions.__file__:
                entered.append(frame.f_code.co_name)

        sys.setprofile(watch)
        try:
            brackets = [lie_bracket(a, b) for _, a in named for _, b in named]
            reports = [verify_homomorphism(pm, named) for pm in maps]
        finally:
            sys.setprofile(None)
        assert len(brackets) == 23 * 23
        assert any(not br.is_zero() for br in brackets)
        assert all(report["ok"] and report["pairs"] == 23 * 22 // 2 for report in reports)
        assert not entered, f"Fraction code entered: {sorted(set(entered))}"


class TestSavedWork:
    def test_verify_homomorphism_pushes_only_moved_coordinates_and_nonzero_brackets(
        self, fixtures_dir, monkeypatch
    ):
        # tshift moves t alone; T_* 0 = 0, so a zero bracket is compared as it is
        tshift = load_map(fixtures_dir, "tshift")
        named = wave_generators()
        mappings, pushed = [], []
        substitute_all, pushforward = vectorfield.substitute_all, vectorfield.pushforward

        def recorded_substitute_all(polys, mapping):
            mappings.append(mapping)
            return substitute_all(polys, mapping)

        def recorded_pushforward(pm, q):
            pushed.append(q)
            return pushforward(pm, q)

        monkeypatch.setattr(vectorfield, "substitute_all", recorded_substitute_all)
        monkeypatch.setattr(vectorfield, "pushforward", recorded_pushforward)
        report = verify_homomorphism(tshift, named)
        monkeypatch.undo()
        assert report == {"ok": True, "pairs": 253, "failures": []}
        assert mappings and all(mapping.keys() == {"t"} for mapping in mappings)
        assert all(image != Poly.var(V, name) for m in mappings for name, image in m.items())
        fields = [fld for _, fld in named]
        brackets = [lie_bracket(a, b) for a, b in itertools.combinations(fields, 2)]
        nonzero = [br for br in brackets if not br.is_zero()]
        assert len(nonzero) == 124
        assert pushed == fields + nonzero

    def test_pushforward_forms_no_identity_products(self, fixtures_dir):
        # 20,001 terms in the five coordinates tshift fixes: substituting the
        # completed inverse would form 5 one-pair products per term, past the
        # 100,000-pair budget; only t is substituted, and no term mentions it
        exps = itertools.product(range(1, 30), repeat=4)
        terms = {(0, a, b, c, d, 1): 1 for a, b, c, d in itertools.islice(exps, 20001)}
        q = PolyVectorField(V, {"x": Poly(V, terms)})
        assert pushforward(load_map(fixtures_dir, "tshift"), q) == q


# reference: a kernel solve for dependence, then one solve per bracket


def reference_kernel_rows(a):
    """Basis of {v : a @ v = 0}, one free coordinate set to 1 per row."""
    reduced, pivots = a.rref_with_pivots()
    rows = []
    for f in (c for c in range(a.cols) if c not in pivots):
        v = [Fraction(0)] * a.cols
        v[f] = Fraction(1)
        for r, p in enumerate(pivots):
            v[p] = -reduced.entries[r][f]
        rows.append(tuple(v))
    return rows


def reference_solve(a, b):
    """One solution of a @ x = b with the free coordinates zero, or None."""
    aug = Matrix([list(row) + [b[i]] for i, row in enumerate(a.entries)], cols=a.cols + 1)
    reduced, pivots = aug.rref_with_pivots()
    if a.cols in pivots:
        return None
    x = [Fraction(0)] * a.cols
    for r, p in enumerate(pivots):
        x[p] = reduced.entries[r][a.cols]
    return tuple(x)


def reference_flatten(fld, keys):
    """The coefficients of fld at the (variable, exponents) keys."""
    return [fld.components[v].terms.get(exps, 0) if v in fld.components else 0 for v, exps in keys]


def reference_extract(named_fields, name=""):
    names = [n for n, _ in named_fields]
    fields = [fld for _, fld in named_fields]
    m = len(fields)
    brackets = {(i, j): lie_bracket(fields[i], fields[j]) for i, j in itertools.combinations(range(m), 2)}
    every = fields + list(brackets.values())
    keys = sorted({(v, exps) for fld in every for v, p in fld.components.items() for exps in p.terms})
    if not keys:
        raise LinearlyDependent({n: Fraction(1) for n in names})
    transposed = Matrix(list(zip(*(reference_flatten(fld, keys) for fld in fields))), cols=m)
    dependence = reference_kernel_rows(transposed)
    if dependence:
        witness = dependence[0]
        raise LinearlyDependent({names[k]: witness[k] for k in range(m) if witness[k] != 0})
    constants = {}
    for (i, j), br in brackets.items():
        coords = reference_solve(transposed, reference_flatten(br, keys))
        if coords is None:
            raise NotClosed(names[i], names[j], br)
        constants[(i, j)] = dict(enumerate(coords))
    return algebra_from_brackets(name or ",".join(names), names, constants)


def outcome(extract, named_fields):
    try:
        g = extract(named_fields)
    except LinearlyDependent as exc:
        return ("LinearlyDependent", tuple(exc.relation.items()))
    except NotClosed as exc:
        return ("NotClosed", exc.left, exc.right, exc.bracket)
    return ("closed", g.name, g.basis_names, g.c)


class TestExtractAgainstReference:
    def test_fixture_subsets(self, fixtures_dir):
        # every 2- and 3-subset of the fixture fields, and each again with a
        # scaled copy of one of its fields put in at a position that varies
        _, named = fields_from_dict(json.loads((fixtures_dir / "wave_eq_family.json").read_text()))
        subsets = [list(s) for size in (2, 3) for s in itertools.combinations(named, size)]
        for k, subset in enumerate(list(subsets)):
            copy = ("copy", subset[k % len(subset)][1].scaled(Fraction(-3, 2)))
            subsets.append(subset[: k % 4] + [copy] + subset[k % 4 :])
        kinds = collections.Counter()
        for subset in subsets:
            expected = outcome(reference_extract, subset)
            assert outcome(extract_structure, subset) == expected, [n for n, _ in subset]
            kinds[expected[0]] += 1
        assert set(kinds) == {"closed", "NotClosed", "LinearlyDependent"}

    def test_zero_fields(self):
        zero = PolyVectorField(V, {})
        for subset in ([("Z", zero)], [("Z", zero), ("Y", zero)], [("Pt", realize_family("Pt")), ("Z", zero)]):
            assert outcome(extract_structure, subset) == outcome(reference_extract, subset)

    def test_one_elimination(self, monkeypatch):
        fields = [(k, realize_family(k)) for k in ("Du", "Dt", "Pt", "F1", "F2")]
        fields.append(("G1", realize_family("G", xpoly("1"))))
        calls = []
        original = Matrix.rref_with_pivots

        def counted(self):
            calls.append((self.rows, self.cols))
            return original(self)

        monkeypatch.setattr(Matrix, "rref_with_pivots", counted)
        extract_structure(fields, name="wave6")
        assert len(calls) == 1
