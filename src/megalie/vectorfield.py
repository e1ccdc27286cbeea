"""Polynomial vector fields, Lie brackets, and push-forwards.

Fields and point maps live over a declared variable list.  Their
components, a family parameter and a polynomial a field is applied to are
exact polynomials over that same list; one over any other list is refused
with ValueError.  The module also realizes the standard generators of the
equivalence algebra of the nonlinear wave equation class
u_tt = f(x, u_x) u_xx + g(x, u_x) over the coordinates (t, x, u, u_x, f, g),
extracts structure constants from a closed span of fields, and pushes
fields forward under explicit invertible polynomial point maps.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from functools import cached_property
from fractions import Fraction
from itertools import combinations
from typing import Mapping, Sequence

from .algebra import LieAlgebra, algebra_from_brackets, validate
from .linalg import Matrix, format_rat, rat
from .poly import (
    MAX_DEGREE,
    MAX_PAIRS,
    Coefficient,
    ExpansionError,
    Exponents,
    Poly,
    parse_poly,
    substitute_all,
)

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
                raise ValueError(f"component {name!r} is not over the field's variables")
            if not p.is_zero():
                clean[name] = p
        object.__setattr__(self, "components", clean)

    def __setattr__(self, name, value):
        raise AttributeError("PolyVectorField is immutable")

    def is_zero(self) -> bool:
        return not self.components

    def components_dict(self) -> dict[str, str]:
        """The nonzero components as {variable: polynomial text}, in variable order."""
        return {v: self.components[v].to_str() for v in self.variables if v in self.components}

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
            raise ValueError("polynomial is not over the field's variables")
        _check_pairs(len(h.terms) * sum([len(p.terms) for p in self.components.values()]))
        terms: dict[Exponents, Coefficient] = {}
        _derive(self, [(terms, h)], 1)
        return Poly._from_terms(self.variables, terms)

    def __add__(self, other: "PolyVectorField") -> "PolyVectorField":
        if self.variables != other.variables:
            raise ValueError("fields over different variable lists")
        merged = dict(self.components)
        for name, p in other.components.items():
            merged[name] = merged[name] + p if name in merged else p
        return PolyVectorField(self.variables, merged)

    def __sub__(self, other: "PolyVectorField") -> "PolyVectorField":
        return self + other.scaled(-1)

    def scaled(self, q) -> "PolyVectorField":
        q = rat(q)
        return PolyVectorField(
            self.variables, {name: p.scaled(q) for name, p in self.components.items()}
        )


def _derive(q: PolyVectorField, targets: list[tuple[dict, Poly]], sign: int) -> None:
    """Add sign * Q(h) into the term dict `out` for each (out, h) of targets.

    The one kernel of apply_to and lie_bracket.  Each product term goes
    straight into `out`: no derivative, product or sum polynomial is built,
    and cancelled terms stay in `out` as zeros.  h must be over q.variables;
    the caller bounds the term pairs first (_check_pairs).
    """
    along = [(idx, q.components[v].terms.items()) for idx, v in enumerate(q.variables) if v in q.components]
    for out, h in targets:
        for idx, p_terms in along:
            for exps, coeff in h.terms.items():
                e = exps[idx]
                if not e:
                    continue
                lowered = exps[:idx] + (e - 1,) + exps[idx + 1 :]
                d = coeff * (sign * e)
                for pe, pc in p_terms:
                    key = tuple(map(operator.add, pe, lowered))
                    c = out.get(key)
                    out[key] = pc * d if c is None else c + pc * d


def _check_pairs(pairs: int) -> None:
    if pairs > MAX_PAIRS:
        raise ExpansionError(f"derivative along a field expands past {MAX_PAIRS} term pairs")


def lie_bracket(q1: PolyVectorField, q2: PolyVectorField) -> PolyVectorField:
    """[Q1, Q2]^i = Q1(Q2^i) - Q2(Q1^i), exactly.

    Fields of n1 and n2 terms form 2 * n1 * n2 term pairs; past MAX_PAIRS,
    or for a bracket of degree above MAX_DEGREE (no parse could read it
    back), ExpansionError is raised.
    """
    if q1.variables != q2.variables:
        raise ValueError("fields over different variable lists")
    n1, n2 = [sum([len(p.terms) for p in q.components.values()]) for q in (q1, q2)]
    _check_pairs(2 * n1 * n2)
    touched = {n: {} for n in q1.variables if n in q1.components or n in q2.components}
    _derive(q1, [(touched[n], p) for n, p in q2.components.items()], 1)
    _derive(q2, [(touched[n], p) for n, p in q1.components.items()], -1)
    components = {n: Poly._from_terms(q1.variables, terms) for n, terms in touched.items() if terms}
    if any(p.degree() > MAX_DEGREE for p in components.values()):
        raise ExpansionError(f"bracket of degree above {MAX_DEGREE}")
    return PolyVectorField(q1.variables, components)


# ---------------------------------------------------------------------------
# the equivalence-algebra generator family


def _family_poly(text: str) -> Poly:
    return parse_poly(text, FAMILY_VARIABLES)


def realize_family(kind: str, param: Poly | None = None) -> PolyVectorField:
    """Generators of the wave-equation equivalence algebra.

    kind is one of 'Du', 'Dt', 'Pt', 'F1', 'F2' (no parameter) or 'D', 'G'
    (parameter polynomial over FAMILY_VARIABLES, in x only):

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
        if param.variables != v:
            raise ValueError("parameter polynomial is not over FAMILY_VARIABLES")
        for name in v:
            if name != "x" and param.mentions(name):
                raise ValueError("parameter polynomial may involve x only")
        px = param.derivative("x")
        pxx = px.derivative("x")
        u_x = _family_poly("u_x")
        f = _family_poly("f")
        if kind == "D":
            return PolyVectorField(
                v,
                {
                    "x": param,
                    "u_x": -(px * u_x),
                    "f": (px * f).scaled(2),
                    "g": pxx * u_x * f,
                },
            )
        return PolyVectorField(v, {"u": param, "u_x": px, "g": -(pxx * f)})
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


def extract_structure(named_fields: Sequence[tuple[str, PolyVectorField]], name: str = "") -> LieAlgebra:
    """Structure constants of a span of fields closed under the bracket.

    The m fields, then the brackets of the pairs i < j, are the columns of
    one matrix, a row per (variable, exponents) key of their terms in any
    order (which changes neither the RREF nor its pivots), reduced once.
    The first field column without a pivot raises LinearlyDependent (the
    relation sets that field to 1); else the first pivot past the fields is
    the first bracket outside their span, raising NotClosed for its pair;
    else bracket k has coordinates column m + k of the first m rows.  The
    constants are cross-checked against the Jacobi identity.
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
    pairs = list(combinations(range(m), 2))
    brackets = [lie_bracket(fields[i], fields[j]) for i, j in pairs]
    rows: dict[tuple, dict[int, Coefficient]] = {}  # (variable, exponents) -> {column: coefficient}
    for column, fld in enumerate(fields + brackets):
        for variable, p in fld.components.items():
            for exps, q in p.terms.items():
                rows.setdefault((variable, exps), {})[column] = q
    if not rows:
        # every field is zero
        raise LinearlyDependent({n: Fraction(1) for n in names})
    width = m + len(pairs)
    matrix = Matrix([[row.get(k, 0) for k in range(width)] for row in rows.values()], cols=width)
    reduced, pivots = matrix.rref_with_pivots()
    free = next((f for f in range(m) if f >= len(pivots) or pivots[f] != f), None)
    if free is not None:
        # columns 0 .. free-1 are the pivots of rows 0 .. free-1
        relation = {names[r]: -row[free] for r, row in enumerate(reduced.entries[:free]) if row[free]}
        raise LinearlyDependent({**relation, names[free]: Fraction(1)})
    if len(pivots) > m:
        k = pivots[m] - m
        raise NotClosed(names[pairs[k][0]], names[pairs[k][1]], brackets[k])
    constants = {
        pair: {r: reduced.entries[r][m + k] for r in range(m)} for k, pair in enumerate(pairs)
    }
    algebra = algebra_from_brackets(name or ",".join(names), names, constants)
    report = validate(algebra)
    if not report.ok:
        raise RuntimeError("extracted constants failed the Jacobi cross-check")
    return algebra


# ---------------------------------------------------------------------------
# point maps and push-forwards


@dataclass(frozen=True, eq=False)
class PointMap:
    """Invertible polynomial change of coordinates.

    Both directions are explicit; missing components default to the
    identity.  Composition in both orders is verified to be the identity
    at construction time, exactly.  Two maps are equal when their
    variables and their completed forward and inverse maps are.
    """

    variables: tuple[str, ...]
    forward: Mapping[str, Poly]
    inverse: Mapping[str, Poly]

    def __post_init__(self):
        forward = self._complete(self.forward)
        inverse = self._complete(self.inverse)
        object.__setattr__(self, "forward", forward)
        object.__setattr__(self, "inverse", inverse)
        moved_forward, moved_inverse = self._moved
        for name in self.variables:
            if name in moved_forward or name in moved_inverse:
                identity = Poly.var(self.variables, name)
                if forward[name].substitute(moved_inverse) != identity:
                    raise ValueError(f"forward o inverse is not the identity on {name!r}")
                if inverse[name].substitute(moved_forward) != identity:
                    raise ValueError(f"inverse o forward is not the identity on {name!r}")

    @cached_property
    def _moved(self) -> tuple[dict[str, Poly], dict[str, Poly]]:
        """The forward and the inverse components that are not the identity."""
        return tuple(
            {name: p for name, p in mapping.items() if p != Poly.var(self.variables, name)}
            for mapping in (self.forward, self.inverse)
        )

    def _key(self) -> tuple:
        # the completed maps list every variable, in the order of `variables`
        return (self.variables, tuple(self.forward.values()), tuple(self.inverse.values()))

    def __eq__(self, other) -> bool:
        return isinstance(other, PointMap) and self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())

    def _complete(self, mapping: Mapping[str, Poly]) -> dict[str, Poly]:
        for name in mapping:
            if name not in self.variables:
                raise ValueError(f"component variable {name!r} not declared")
        out = {}
        for name in self.variables:
            p = mapping.get(name)
            if p is None:
                p = Poly.var(self.variables, name)
            elif p.variables != self.variables:
                raise ValueError(f"map component {name!r} is not over the map's variables")
            out[name] = p
        return out

    @staticmethod
    def identity(variables: Sequence[str]) -> "PointMap":
        return PointMap(tuple(variables), {}, {})

    def then(self, second: "PointMap") -> "PointMap":
        """Composite map: apply self first, then second."""
        if self.variables != second.variables:
            raise ValueError("maps over different variable lists")
        # a coordinate the outer map fixes keeps the inner map's component
        first_forward, first_inverse = self._moved
        second_forward, second_inverse = second._moved
        forward = {**first_forward, **{n: p.substitute(first_forward) for n, p in second_forward.items()}}
        inverse = {**second_inverse, **{n: p.substitute(second_inverse) for n, p in first_inverse.items()}}
        return PointMap(self.variables, forward, inverse)


def pushforward(pm: PointMap, q: PolyVectorField) -> PolyVectorField:
    """Induced field: (T_* Q)^i = (sum_j Q^j d(forward^i)/dz_j) o inverse = Q(forward^i) o inverse.

    Q(z_i) = Q^i where the map fixes z_i; only the moved coordinates are substituted.
    """
    if pm.variables != q.variables:
        raise ValueError("map and field over different variable lists")
    forward, inverse = pm._moved
    totals = {n: q.apply_to(forward[n]) if n in forward else q.components.get(n) for n in pm.variables}
    names = [name for name, total in totals.items() if total is not None and not total.is_zero()]
    images = substitute_all([totals[name] for name in names], inverse)
    # past the parser's bound the result could not be read back in
    if any(image.degree() > MAX_DEGREE for image in images):
        raise ExpansionError(f"push-forward of degree above {MAX_DEGREE}")
    return PolyVectorField(pm.variables, dict(zip(names, images)))


def verify_homomorphism(
    pm: PointMap, named_fields: Sequence[tuple[str, PolyVectorField]]
) -> dict:
    """Check [T_*Q, T_*Q'] = T_*[Q, Q'] exactly for all pairs; T_* 0 = 0 is not pushed."""
    pushed = {name: pushforward(pm, fld) for name, fld in named_fields}
    failures = []
    pairs = 0
    for i in range(len(named_fields)):
        for j in range(i + 1, len(named_fields)):
            left_name, left = named_fields[i]
            right_name, right = named_fields[j]
            pairs += 1
            lhs = lie_bracket(pushed[left_name], pushed[right_name])
            bracket = lie_bracket(left, right)
            rhs = bracket if bracket.is_zero() else pushforward(pm, bracket)
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
    entries = [{"name": name, "components": fld.components_dict()} for name, fld in named_fields]
    return {"variables": list(variables), "fields": entries}


def pointmap_from_dict(data: Mapping) -> PointMap:
    """Point-map file: {"variables": [...], "forward": {...}, "inverse": {...}}."""
    variables = _variables(data)
    forward = _polys(data.get("forward", {}), variables, "forward")
    inverse = _polys(data.get("inverse", {}), variables, "inverse")
    return PointMap(variables, forward, inverse)


def pointmap_to_dict(pm: PointMap) -> dict:
    forward, inverse = ({name: p.to_str() for name, p in moved.items()} for moved in pm._moved)
    return {"variables": list(pm.variables), "forward": forward, "inverse": inverse}
