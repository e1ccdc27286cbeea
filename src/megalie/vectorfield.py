"""Polynomial vector fields, Lie brackets, and push-forwards.

Fields live over a declared variable list; components are exact
polynomials.  The module also realizes the standard generators of the
equivalence algebra of the nonlinear wave equation class
u_tt = f(x, u_x) u_xx + g(x, u_x) over the coordinates (t, x, u, u_x, f, g),
extracts structure constants from a closed span of fields, and pushes
fields forward under explicit invertible polynomial point maps.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Mapping, Sequence

from .algebra import LieAlgebra, algebra_from_brackets, validate
from .linalg import Matrix, format_rat, rat, solve as linear_solve
from .poly import Exponents, Poly, parse_poly

FAMILY_VARIABLES = ("t", "x", "u", "u_x", "f", "g")


class NotClosed(ValueError):
    """A pairwise bracket escapes the span of the given fields."""

    def __init__(self, left: str, right: str, bracket: "PolyVectorField"):
        super().__init__(
            f"bracket [{left},{right}] is outside the span of the given fields"
        )
        self.left = left
        self.right = right
        self.bracket = bracket


class LinearlyDependent(ValueError):
    """The given fields admit a nontrivial linear relation."""

    def __init__(self, relation: dict[str, Fraction]):
        pretty = ", ".join(f"{name}: {format_rat(c)}" for name, c in relation.items())
        super().__init__(f"fields are linearly dependent ({pretty})")
        self.relation = relation


class PolyVectorField:
    """Vector field with polynomial components; zero components omitted."""

    __slots__ = ("variables", "components")

    def __init__(self, variables: Sequence[str], components: Mapping[str, Poly]):
        object.__setattr__(self, "variables", tuple(variables))
        clean = {}
        for name, p in components.items():
            if name not in self.variables:
                raise ValueError(f"component variable {name!r} not declared")
            if p.variables != self.variables:
                p = p.lift(self.variables)
            if not p.is_zero():
                clean[name] = p
        object.__setattr__(self, "components", clean)

    def __setattr__(self, name, value):
        raise AttributeError("PolyVectorField is immutable")

    def is_zero(self) -> bool:
        return not self.components

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, PolyVectorField)
            and self.variables == other.variables
            and self.components == other.components
        )

    def __hash__(self) -> int:
        return hash((self.variables, frozenset(self.components.items())))

    def __repr__(self) -> str:
        body = " + ".join(
            f"({p.to_str()})@{name}" for name, p in sorted(self.components.items())
        )
        return f"PolyVectorField({body or '0'})"

    def apply_to(self, h: Poly) -> Poly:
        """Directional derivative Q(h) = sum_v component_v * dh/dv."""
        if h.variables != self.variables:
            h = h.lift(self.variables)
        return Poly._from_terms(self.variables, self._add_applied({}, h, 1))

    def _add_applied(self, out: dict[Exponents, Fraction], h: Poly, sign: int) -> dict:
        """Add sign * Q(h) into the term dict `out` and return it.

        Each product term goes straight into `out`; h must be over
        self.variables.  No derivative, product or sum polynomial is built,
        and cancelled terms stay in `out` as zeros.
        """
        for name, p in self.components.items():
            idx = self.variables.index(name)
            for exps, coeff in h.terms.items():
                e = exps[idx]
                if not e:
                    continue
                lowered = exps[:idx] + (e - 1,) + exps[idx + 1 :]
                d = coeff * (sign * e)
                for pe, pc in p.terms.items():
                    key = tuple(map(operator.add, pe, lowered))
                    c = out.get(key)
                    out[key] = pc * d if c is None else c + pc * d
        return out

    def __add__(self, other: "PolyVectorField") -> "PolyVectorField":
        if self.variables != other.variables:
            raise ValueError("fields over different variable lists")
        merged = dict(self.components)
        for name, p in other.components.items():
            merged[name] = merged[name] + p if name in merged else p
        return PolyVectorField(self.variables, merged)

    def __sub__(self, other: "PolyVectorField") -> "PolyVectorField":
        return self + other.scaled(Fraction(-1))

    def scaled(self, q) -> "PolyVectorField":
        q = Fraction(rat(q))
        return PolyVectorField(
            self.variables, {name: p.scaled(q) for name, p in self.components.items()}
        )


def lie_bracket(q1: PolyVectorField, q2: PolyVectorField) -> PolyVectorField:
    """[Q1, Q2]^i = Q1(Q2^i) - Q2(Q1^i), exactly."""
    if q1.variables != q2.variables:
        raise ValueError("fields over different variable lists")
    components = {}
    for name in q1.variables:
        terms: dict[Exponents, Fraction] = {}
        if name in q2.components:
            q1._add_applied(terms, q2.components[name], 1)
        if name in q1.components:
            q2._add_applied(terms, q1.components[name], -1)
        p = Poly._from_terms(q1.variables, terms)
        if not p.is_zero():
            components[name] = p
    return PolyVectorField(q1.variables, components)


# ---------------------------------------------------------------------------
# the equivalence-algebra generator family


def _family_poly(text: str) -> Poly:
    return parse_poly(text, FAMILY_VARIABLES)


def realize_family(kind: str, param: Poly | None = None) -> PolyVectorField:
    """Generators of the wave-equation equivalence algebra.

    kind is one of 'Du', 'Dt', 'Pt', 'F1', 'F2' (no parameter) or 'D', 'G'
    (parameter polynomial in x only):

        Du   = u du + u_x du_x + g dg
        Dt   = t dt - 2f df - 2g dg
        Pt   = dt
        D(p) = p dx - p_x u_x du_x + 2 p_x f df + p_xx u_x f dg
        G(p) = p du + p_x du_x - p_xx f dg
        F1   = t du
        F2   = t^2 du + 2 dg
    """
    v = FAMILY_VARIABLES
    if kind in ("D", "G"):
        if param is None:
            raise ValueError(f"kind {kind!r} needs a parameter polynomial in x")
        p = param if param.variables == v else param.lift(v)
        for name in v:
            if name != "x" and p.mentions(name):
                raise ValueError("parameter polynomial may involve x only")
        px = p.derivative("x")
        pxx = px.derivative("x")
        u_x = _family_poly("u_x")
        f = _family_poly("f")
        if kind == "D":
            return PolyVectorField(
                v,
                {
                    "x": p,
                    "u_x": -(px * u_x),
                    "f": (px * f).scaled(2),
                    "g": pxx * u_x * f,
                },
            )
        return PolyVectorField(v, {"u": p, "u_x": px, "g": -(pxx * f)})
    if param is not None:
        raise ValueError(f"kind {kind!r} takes no parameter")
    table = {
        "Du": {"u": "u", "u_x": "u_x", "g": "g"},
        "Dt": {"t": "t", "f": "-2*f", "g": "-2*g"},
        "Pt": {"t": "1"},
        "F1": {"u": "t"},
        "F2": {"u": "t^2", "g": "2"},
    }
    if kind not in table:
        raise ValueError(f"unknown generator kind {kind!r}")
    return PolyVectorField(v, {name: _family_poly(text) for name, text in table[kind].items()})


# ---------------------------------------------------------------------------
# structure extraction


def _flatten_basis(fields: Sequence[PolyVectorField], extra: Sequence[PolyVectorField]):
    variables = fields[0].variables
    keys = set()
    for fld in list(fields) + list(extra):
        for name, p in fld.components.items():
            idx = variables.index(name)
            for exps in p.terms:
                keys.add((idx, exps))
    return sorted(keys, key=lambda key: (key[0], sum(key[1]), tuple(-e for e in key[1])))


def _flatten(fld: PolyVectorField, keys) -> list[Fraction]:
    variables = fld.variables
    out = []
    for idx, exps in keys:
        p = fld.components.get(variables[idx])
        out.append(p.terms.get(exps, Fraction(0)) if p is not None else Fraction(0))
    return out


def extract_structure(named_fields: Sequence[tuple[str, PolyVectorField]], name: str = "") -> LieAlgebra:
    """Structure constants of a span of fields closed under the bracket.

    Fields and all pairwise brackets are flattened over the joint monomial
    basis; each bracket is solved exactly for its coordinates in the span.
    Raises LinearlyDependent (with a witness relation) or NotClosed (with
    the offending pair).  The resulting constants are cross-checked against
    the Jacobi identity.
    """
    names = [n for n, _ in named_fields]
    fields = [fld for _, fld in named_fields]
    if not fields:
        raise ValueError("no fields given")
    if len(set(names)) != len(names):
        raise ValueError("duplicate field names")
    variables = fields[0].variables
    for fld in fields:
        if fld.variables != variables:
            raise ValueError("fields over different variable lists")
    m = len(fields)
    brackets = {}
    for i in range(m):
        for j in range(i + 1, m):
            brackets[(i, j)] = lie_bracket(fields[i], fields[j])
    keys = _flatten_basis(fields, list(brackets.values()))
    rows = [_flatten(fld, keys) for fld in fields]
    span = Matrix(rows, cols=len(keys)) if keys else Matrix([], cols=0)
    transposed = span.transpose()
    dependence = transposed.kernel_rows() if keys else [tuple([Fraction(1)] * m)]
    if dependence:
        witness = dependence[0]
        raise LinearlyDependent(
            {names[k]: witness[k] for k in range(m) if witness[k] != 0}
        )
    constants = {}
    for (i, j), br in brackets.items():
        coords = linear_solve(transposed, _flatten(br, keys))
        if coords is None:
            raise NotClosed(names[i], names[j], br)
        constants[(i, j)] = dict(enumerate(coords))
    algebra = algebra_from_brackets(name or ",".join(names), names, constants)
    report = validate(algebra)
    if not report.ok:
        raise RuntimeError("extracted constants failed the Jacobi cross-check")
    return algebra


# ---------------------------------------------------------------------------
# point maps and push-forwards


@dataclass(frozen=True)
class PointMap:
    """Invertible polynomial change of coordinates.

    Both directions are explicit; missing components default to the
    identity.  Composition in both orders is verified to be the identity
    at construction time, exactly.
    """

    variables: tuple[str, ...]
    forward: Mapping[str, Poly] = field(compare=False)
    inverse: Mapping[str, Poly] = field(compare=False)

    def __post_init__(self):
        forward = self._complete(self.forward)
        inverse = self._complete(self.inverse)
        object.__setattr__(self, "forward", forward)
        object.__setattr__(self, "inverse", inverse)
        for name in self.variables:
            roundtrip = forward[name].substitute(inverse)
            if roundtrip != Poly.var(self.variables, name):
                raise ValueError(f"forward o inverse is not the identity on {name!r}")
            roundtrip = inverse[name].substitute(forward)
            if roundtrip != Poly.var(self.variables, name):
                raise ValueError(f"inverse o forward is not the identity on {name!r}")

    def _complete(self, mapping: Mapping[str, Poly]) -> dict[str, Poly]:
        out = {}
        for name in self.variables:
            p = mapping.get(name)
            if p is None:
                p = Poly.var(self.variables, name)
            elif p.variables != self.variables:
                p = p.lift(self.variables)
            out[name] = p
        return out

    @staticmethod
    def identity(variables: Sequence[str]) -> "PointMap":
        return PointMap(tuple(variables), {}, {})

    def then(self, second: "PointMap") -> "PointMap":
        """Composite map: apply self first, then second."""
        if self.variables != second.variables:
            raise ValueError("maps over different variable lists")
        forward = {
            name: second.forward[name].substitute(self.forward) for name in self.variables
        }
        inverse = {
            name: self.inverse[name].substitute(second.inverse) for name in self.variables
        }
        return PointMap(self.variables, forward, inverse)


def pushforward(pm: PointMap, q: PolyVectorField) -> PolyVectorField:
    """Induced field: (T_* Q)^i = (sum_j Q^j d(forward^i)/dz_j) o inverse = Q(forward^i) o inverse."""
    if pm.variables != q.variables:
        raise ValueError("map and field over different variable lists")
    components = {}
    for name in pm.variables:
        total = q.apply_to(pm.forward[name])
        if not total.is_zero():
            components[name] = total.substitute(pm.inverse)
    return PolyVectorField(pm.variables, components)


def verify_homomorphism(
    pm: PointMap, named_fields: Sequence[tuple[str, PolyVectorField]]
) -> dict:
    """Check [T_*Q, T_*Q'] = T_*[Q, Q'] exactly for all pairs."""
    pushed = {name: pushforward(pm, fld) for name, fld in named_fields}
    failures = []
    pairs = 0
    for i in range(len(named_fields)):
        for j in range(i + 1, len(named_fields)):
            left_name, left = named_fields[i]
            right_name, right = named_fields[j]
            pairs += 1
            lhs = lie_bracket(pushed[left_name], pushed[right_name])
            rhs = pushforward(pm, lie_bracket(left, right))
            if lhs != rhs:
                failures.append((left_name, right_name))
    return {"ok": not failures, "pairs": pairs, "failures": failures}


# ---------------------------------------------------------------------------
# file formats


def _variables(data) -> tuple[str, ...]:
    if not isinstance(data, Mapping):
        raise ValueError("file must be a JSON object")
    variables = data.get("variables")
    if not isinstance(variables, list) or not all(isinstance(v, str) for v in variables):
        raise ValueError("'variables' must be a list of strings")
    seen = set()
    for pos, name in enumerate(variables):
        if name in seen:
            raise ValueError(f"variables[{pos}]: duplicate variable name {name!r}")
        seen.add(name)
    return tuple(variables)


def _polys(raw, variables: tuple[str, ...], context: str) -> dict[str, Poly]:
    """Parse a {variable: polynomial string} object found at the JSON path `context`."""
    if not isinstance(raw, Mapping):
        raise ValueError(f"{context}: must be an object")
    out = {}
    for var, text in raw.items():
        if var not in variables:
            raise ValueError(f"{context}: unknown variable {var!r}")
        if not isinstance(text, str):
            raise ValueError(f"{context}.{var}: must be a polynomial string")
        out[var] = parse_poly(text, variables)
    return out


def fields_from_dict(data: Mapping) -> tuple[tuple[str, ...], list[tuple[str, PolyVectorField]]]:
    """Vector-field file: {"variables": [...], "fields": [{"name", "components"}]}."""
    variables = _variables(data)
    entries = data.get("fields", [])
    if not isinstance(entries, list):
        raise ValueError("'fields' must be a list")
    out = []
    seen = set()
    for pos, entry in enumerate(entries):
        if not isinstance(entry, Mapping):
            raise ValueError(f"fields[{pos}]: must be an object")
        name = entry.get("name")
        if not isinstance(name, str) or not name:
            raise ValueError(f"fields[{pos}]: missing name")
        if name in seen:
            raise ValueError(f"fields[{pos}]: duplicate field name {name!r}")
        seen.add(name)
        components = _polys(entry.get("components", {}), variables, f"fields[{pos}].components")
        out.append((name, PolyVectorField(variables, components)))
    return variables, out


def fields_to_dict(variables: Sequence[str], named_fields: Sequence[tuple[str, PolyVectorField]]) -> dict:
    entries = []
    for name, fld in named_fields:
        components = {
            var: fld.components[var].to_str()
            for var in variables
            if var in fld.components
        }
        entries.append({"name": name, "components": components})
    return {"variables": list(variables), "fields": entries}


def pointmap_from_dict(data: Mapping) -> PointMap:
    """Point-map file: {"variables": [...], "forward": {...}, "inverse": {...}}."""
    variables = _variables(data)
    forward = _polys(data.get("forward", {}), variables, "forward")
    inverse = _polys(data.get("inverse", {}), variables, "inverse")
    return PointMap(variables, forward, inverse)


def pointmap_to_dict(pm: PointMap) -> dict:
    identity = {name: Poly.var(pm.variables, name) for name in pm.variables}
    return {
        "variables": list(pm.variables),
        "forward": {
            name: pm.forward[name].to_str()
            for name in pm.variables
            if pm.forward[name] != identity[name]
        },
        "inverse": {
            name: pm.inverse[name].to_str()
            for name in pm.variables
            if pm.inverse[name] != identity[name]
        },
    }
