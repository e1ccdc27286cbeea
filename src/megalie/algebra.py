"""Finite-dimensional Lie algebras given by rational structure constants.

A LieAlgebra is a tensor c[i][j][k] with [Q_i, Q_j] = sum_k c[i][j][k] Q_k.
The module validates antisymmetry and the Jacobi identity exactly, and
provides the bracket calculus used everywhere else: adjoint matrices,
brackets of subspaces, centralizers/normalizers, the three structural
series, quotients and changes of basis, the Killing form, the radical, a
nilradical approximation, derivations, and exponentials of nilpotent
adjoints.  Every structure tensor is built by algebra_from_brackets.

The dense tensor `c` is the stored input form, kept for API and benchmark
compatibility.  Everything else reads the constants through one sparse
index of the nonzero ones, built with the algebra (see LieAlgebra); only
the antisymmetry check reads `c`, because it checks the raw input.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations
from typing import Mapping, Sequence

from .linalg import (
    AmbientMismatch,
    Matrix,
    Subspace,
    Vector,
    format_rat,
    kernel,
    rat,
    unit_vector,
    vec,
    vec_dot,
)


class NotAnIdeal(ValueError):
    """A subspace fails the ideal condition [g, s] <= s."""


class NotNilpotent(ValueError):
    """The adjoint of the given element is not nilpotent."""


class FormatError(ValueError):
    """Malformed algebra description (file format or builder input)."""


Tensor = tuple[tuple[Vector, ...], ...]


@dataclass(frozen=True)
class LieAlgebra:
    """Structure constants c[i][j][k] with [Q_i, Q_j] = sum_k c[i][j][k] Q_k.

    `c` is the stored input form, kept as the dataclass field for API
    compatibility.  The bracket calculus reads the constants only through
    `_nonzero`, built once from `c`: every ordered pair (i, j) whose row
    c[i][j] has a nonzero entry, both orientations and the diagonal
    included, mapped to that row's nonzero entries ((k, q), ...) in
    increasing k.  Keeping every pair keeps a directly constructed tensor
    exact even when it is not antisymmetric.
    """

    name: str
    basis_names: tuple[str, ...]
    c: Tensor  # c[i][j][k], antisymmetric in (i, j)
    _nonzero: dict[tuple[int, int], tuple[tuple[int, Fraction], ...]] = field(
        init=False, compare=False, repr=False
    )

    def __post_init__(self):
        nonzero = {}
        for i, plane in enumerate(self.c):
            for j, row in enumerate(plane):
                entries = tuple((k, q) for k, q in enumerate(row) if q != 0)
                if entries:
                    nonzero[(i, j)] = entries
        object.__setattr__(self, "_nonzero", nonzero)

    @property
    def dim(self) -> int:
        return len(self.basis_names)

    def bracket(self, x: Sequence, y: Sequence) -> Vector:
        x, y = vec(x), vec(y)
        n = self.dim
        if len(x) != n or len(y) != n:
            raise AmbientMismatch("bracket arguments must have length dim")
        out = [Fraction(0)] * n
        for (i, j), row in self._nonzero.items():
            if x[i] and y[j]:
                f = x[i] * y[j]
                for k, q in row:
                    out[k] += f * q
        return tuple(out)

    def basis_vector(self, i: int) -> Vector:
        return unit_vector(self.dim, i)

    def full_space(self) -> Subspace:
        return Subspace.full(self.dim)

    def zero_space(self) -> Subspace:
        return Subspace.zero(self.dim)


def algebra_from_brackets(
    name: str,
    basis_names: Sequence[str],
    brackets: Mapping[tuple[int, int], Mapping[int, object]],
) -> LieAlgebra:
    """Build an algebra from sparse brackets {(i, j): {k: coeff}}.

    The antisymmetric counterparts are filled in automatically; this is the
    one builder of the structure tensor, used by every loader.
    """
    names = tuple(basis_names)
    n = len(names)
    c = [[[Fraction(0)] * n for _ in range(n)] for _ in range(n)]
    for (i, j), result in brackets.items():
        if not (0 <= i < n and 0 <= j < n):
            raise FormatError(f"bracket index ({i},{j}) out of range")
        for k in result:
            if not 0 <= k < n:
                raise FormatError(f"bracket ({i},{j}) component index {k} out of range")
        if i == j:
            if any(rat(v) != 0 for v in result.values()):
                raise FormatError(f"bracket [{names[i]},{names[i]}] must be zero")
            continue
        for k, value in result.items():
            q = rat(value)
            c[i][j][k] = q
            c[j][i][k] = -q
    tensor = tuple(tuple(tuple(row) for row in plane) for plane in c)
    return LieAlgebra(name, names, tensor)


# ---------------------------------------------------------------------------
# validation


@dataclass(frozen=True)
class ValidationReport:
    antisymmetry_violations: tuple[tuple[int, int, int, Fraction, Fraction], ...]
    jacobi_residuals: tuple[tuple[int, int, int, int, Fraction], ...]

    @property
    def ok(self) -> bool:
        return not self.antisymmetry_violations and not self.jacobi_residuals


def validate(g: LieAlgebra) -> ValidationReport:
    """Exact antisymmetry and Jacobi check.

    Jacobi is checked on distinct unordered triples i < j < l; other index
    orders carry no extra information once antisymmetry holds, and when
    antisymmetry fails the report already fails on that list.
    """
    n = g.dim
    anti = []
    for i in range(n):
        for j in range(i, n):
            for k in range(n):
                if g.c[i][j][k] != -g.c[j][i][k]:
                    anti.append((i, j, k, g.c[i][j][k], g.c[j][i][k]))
    jacobi = []
    rows = g._nonzero
    for i, j, l in combinations(range(n), 3):
        # component m of [[Q_i,Q_j],Q_l] + [[Q_j,Q_l],Q_i] + [[Q_l,Q_i],Q_j]
        res = [Fraction(0)] * n
        for a, b, d in ((i, j, l), (j, l, i), (l, i, j)):
            for k, q in rows.get((a, b), ()):
                for m, p in rows.get((k, d), ()):
                    res[m] += q * p
        jacobi.extend((i, j, l, m, r) for m, r in enumerate(res) if r != 0)
    return ValidationReport(tuple(anti), tuple(jacobi))


# ---------------------------------------------------------------------------
# bracket calculus


def ad(g: LieAlgebra, x: Sequence) -> Matrix:
    """Matrix of y -> [x, y] in the algebra basis (column action)."""
    x = vec(x)
    n = g.dim
    if len(x) != n:
        raise AmbientMismatch("bracket arguments must have length dim")
    m = [[Fraction(0)] * n for _ in range(n)]
    for (i, j), row in g._nonzero.items():
        if x[i]:
            for k, q in row:
                m[k][j] += x[i] * q
    return Matrix(m)


def bracket_subspaces(g: LieAlgebra, a: Subspace, b: Subspace, provenance: str = "") -> Subspace:
    """Span of [x, y] over basis pairs x in a, y in b."""
    vectors = [
        g.bracket(u, v)
        for u in a.basis.entries
        for v in b.basis.entries
    ]
    return Subspace.spanned_by(g.dim, vectors, provenance)


def transporter(
    g: LieAlgebra,
    within: Subspace,
    of: Subspace,
    into: Subspace,
    provenance: str = "",
) -> Subspace:
    """{x in `within` : [x, b] in `into` for every basis vector b of `of`}.

    One kernel solve: x = sum t_i w_i over the basis of `within`, and
    [x, b] lies in `into` exactly when its remainder against `into`,
    sum t_i into.reduce([w_i, b]), is zero.  This is the workhorse behind
    centralizers (into = 0), normalizers (into = of), the upper central
    series and the general invariant-subspace constructor.
    """
    images = [
        tuple(x for b in of.basis.entries for x in into.reduce(g.bracket(w, b)))
        for w in within.basis.entries
    ]
    return within.where_zero(images, provenance)


def center(g: LieAlgebra, provenance: str = "Z(g)") -> Subspace:
    return transporter(g, g.full_space(), g.full_space(), g.zero_space(), provenance)


def centralizer(g: LieAlgebra, within: Subspace, of: Subspace, provenance: str = "") -> Subspace:
    return transporter(g, within, of, g.zero_space(), provenance)


def normalizer(g: LieAlgebra, within: Subspace, of: Subspace, provenance: str = "") -> Subspace:
    return transporter(g, within, of, of, provenance)


def is_ideal(g: LieAlgebra, s: Subspace) -> bool:
    return s.contains_subspace(bracket_subspaces(g, g.full_space(), s))


# ---------------------------------------------------------------------------
# structural series


@dataclass(frozen=True)
class SeriesReport:
    kind: str  # 'derived' | 'lower_central' | 'upper_central'
    terms: tuple[Subspace, ...]
    stabilized: bool

    @property
    def last(self) -> Subspace:
        return self.terms[-1]


def derived_series(g: LieAlgebra) -> SeriesReport:
    terms = [g.full_space()]
    while True:
        nxt = bracket_subspaces(g, terms[-1], terms[-1])
        if nxt == terms[-1]:
            return SeriesReport("derived", tuple(terms), True)
        terms.append(nxt)


def lower_central_series(g: LieAlgebra) -> SeriesReport:
    terms = [g.full_space()]
    while True:
        nxt = bracket_subspaces(g, g.full_space(), terms[-1])
        if nxt == terms[-1]:
            return SeriesReport("lower_central", tuple(terms), True)
        terms.append(nxt)


def upper_central_series(g: LieAlgebra) -> SeriesReport:
    """Ascending central series Z_1 <= Z_2 <= ... with Z_{k+1} = {x : [x, g] <= Z_k}.

    Each term is one transporter solve; Z_1 is the center.
    """
    full = g.full_space()
    terms = [center(g)]
    while not terms[-1].is_full():
        nxt = transporter(g, full, full, terms[-1])
        if nxt == terms[-1]:
            break
        terms.append(nxt)
    return SeriesReport("upper_central", tuple(terms), True)


# ---------------------------------------------------------------------------
# quotients and changes of basis


def _induced_algebra(g: LieAlgebra, name: str, names, vectors, coordinates) -> LieAlgebra:
    """g's bracket on the new basis `vectors`, read back through `coordinates`.

    coordinates maps an ambient vector to its coefficients over `vectors`;
    only the pairs i < j are bracketed.
    """
    brackets = {
        (i, j): dict(enumerate(coordinates(g.bracket(vectors[i], vectors[j]))))
        for i, j in combinations(range(len(vectors)), 2)
    }
    return algebra_from_brackets(name, names, brackets)


def quotient(g: LieAlgebra, ideal: Subspace) -> tuple[LieAlgebra, Matrix]:
    """Quotient algebra on the non-pivot coordinates plus the projection map.

    The complement basis is the set of coordinates that are not pivot
    columns of the ideal's RREF basis, taken in increasing order, which
    makes the construction deterministic.
    """
    if not is_ideal(g, ideal):
        raise NotAnIdeal("quotient requires an ideal")
    n = g.dim
    pivots = ideal.pivots
    pivot_set = set(pivots)
    complement = [j for j in range(n) if j not in pivot_set]
    proj_rows = []
    for q in complement:
        row = [Fraction(0)] * n
        row[q] = Fraction(1)
        for r, p in enumerate(pivots):
            row[p] = -ideal.basis.entries[r][q]
        proj_rows.append(row)
    proj = Matrix(proj_rows, cols=n)
    names = tuple(g.basis_names[q] for q in complement)
    vectors = [g.basis_vector(q) for q in complement]
    return _induced_algebra(g, f"{g.name}/{ideal.dim}d", names, vectors, proj.matvec), proj


def change_basis(g: LieAlgebra, b: Matrix) -> LieAlgebra:
    """Structure constants in the new basis given by the rows of b."""
    if b.rows != g.dim or b.cols != g.dim:
        raise ValueError("change of basis must be square of the algebra dimension")
    return _induced_algebra(g, g.name, g.basis_names, b.entries, b.inverse().transpose().matvec)


# ---------------------------------------------------------------------------
# Killing form, radical, nilradical


def killing_form(g: LieAlgebra) -> Matrix:
    """K[i][j] = trace(ad_i ad_j); symmetric and invariant.

    The trace is summed straight from the nonzero structure constants,
    sum over k, l of c[i][l][k] c[j][k][l].
    """
    n = g.dim
    terms = [{} for _ in range(n)]  # terms[i][(l, k)] = c[i][l][k], nonzero
    for (i, l), row in g._nonzero.items():
        for k, q in row:
            terms[i][(l, k)] = q
    form = [[Fraction(0)] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            t = sum(
                (q * terms[j][(k, l)] for (l, k), q in terms[i].items() if (k, l) in terms[j]),
                Fraction(0),
            )
            form[i][j] = t
            form[j][i] = t
    return Matrix(form)


def _killing_orthogonal(
    k: Matrix, within: Subspace, against: Subspace, provenance: str = ""
) -> Subspace:
    """{x in `within` : K(x, y) = 0 for every basis vector y of `against`}."""
    k_against = [k.matvec(y) for y in against.basis.entries]
    images = [tuple(vec_dot(w, ky) for ky in k_against) for w in within.basis.entries]
    return within.where_zero(images, provenance)


def radical(g: LieAlgebra, provenance: str = "rad(g)") -> Subspace:
    """Maximal solvable ideal, via K-orthogonality to the derived algebra.

    Over a field of characteristic zero the radical equals
    {x : K(x, [g, g]) = 0}, which is one exact kernel computation.
    """
    full = g.full_space()
    return _killing_orthogonal(
        killing_form(g), full, bracket_subspaces(g, full, full), provenance
    )


def nilradical_approx(g: LieAlgebra, provenance: str = "nil(g)") -> tuple[Subspace, str]:
    """Iterative over-approximation of the nilradical.

    Start from the radical and repeatedly keep the part of the current term
    that is K-orthogonal to the whole term, trace(ad_x ad_y) = 0 for y in
    its basis.  Each term is an ideal containing the nilradical.  Status is
    'exact' when the fixed point is nilpotent, otherwise 'stalled' (the
    over-approximation is still returned).
    """
    k = killing_form(g)
    full = g.full_space()
    current = _killing_orthogonal(k, full, bracket_subspaces(g, full, full))
    while not current.is_zero():
        nxt = _killing_orthogonal(k, current, current)
        if nxt == current:
            break
        current = nxt
    # nilpotency of the fixed point, using ambient brackets
    term = current
    while True:
        nxt = bracket_subspaces(g, current, term)
        if nxt == term:
            break
        term = nxt
    status = "exact" if term.is_zero() else "stalled"
    return current.with_provenance(provenance), status


# ---------------------------------------------------------------------------
# derivations and nilpotent exponentials


def derivations(g: LieAlgebra) -> list[Matrix]:
    """Basis of matrices D with D[x,y] = [Dx,y] + [x,Dy] on all basis pairs.

    The unknowns are the n^2 entries of D in row-major order; the Leibniz
    constraints on pairs i < j give one exact kernel computation.
    """
    n = g.dim
    # Equation (i, j, m), i < j, reads
    #   sum_k c[i][j][k] D[m][k] - sum_l c[l][j][m] D[l][i] - sum_l c[i][l][m] D[l][j] = 0,
    # so each nonzero constant enters it in up to three places.
    equations: dict[tuple[int, int, int], dict[int, Fraction]] = {}

    def add(i, j, m, unknown, q):
        eq = equations.setdefault((i, j, m), {})
        eq[unknown] = eq.get(unknown, 0) + q

    for (a, b), row in g._nonzero.items():
        for k, q in row:
            if a < b:  # c[i][j][k] with (i, j) = (a, b), for every m
                for m in range(n):
                    add(a, b, m, m * n + k, q)
            for i in range(b):  # c[l][j][m] with (l, j, m) = (a, b, k), for every i < j
                add(i, b, k, a * n + i, -q)
            for j in range(a + 1, n):  # c[i][l][m] with (i, l, m) = (a, b, k), for every j > i
                add(a, j, k, b * n + j, -q)
    rows = []
    for key in sorted(equations):
        row = [Fraction(0)] * (n * n)
        for unknown, q in equations[key].items():
            row[unknown] = q
        rows.append(row)
    solutions = kernel(Matrix(rows, cols=n * n))
    return [
        Matrix([[row[a * n + b] for b in range(n)] for a in range(n)])
        for row in solutions.basis.entries
    ]


def _exp_ad(g: LieAlgebra, x: Sequence):
    """t -> exp(t ad_x), with the nonzero powers of ad_x multiplied once.

    NotNilpotent is raised here when none of the first dim powers vanishes.
    """
    a = ad(g, x)
    powers = []
    term = Matrix.identity(g.dim)
    for _ in range(g.dim):
        term = term @ a
        if term.is_zero():
            break
        powers.append(term)
    else:
        raise NotNilpotent("ad_x is not nilpotent")

    def at(t: Fraction) -> Matrix:
        result = Matrix.identity(g.dim)
        factorial = 1
        for k, power in enumerate(powers, 1):
            factorial *= k
            result = result + power.scaled(t**k / factorial)
        return result

    return at


def exp_ad_nilpotent(g: LieAlgebra, x: Sequence, t) -> Matrix:
    """exp(t ad_x) as an exact rational matrix; requires (ad_x)^dim = 0."""
    return _exp_ad(g, x)(rat(t))


# ---------------------------------------------------------------------------
# JSON-facing (de)serialization of the algebra file format


def _resolve_basis_ref(ref, names: Sequence[str], context: str) -> int:
    if isinstance(ref, bool):
        raise FormatError(f"{context}: boolean is not a basis reference")
    if isinstance(ref, int):
        if not 0 <= ref < len(names):
            raise FormatError(f"{context}: index {ref} out of range 0..{len(names) - 1}")
        return ref
    if isinstance(ref, str):
        if ref in names:
            return names.index(ref)
        if ref.isdigit():
            return _resolve_basis_ref(int(ref), names, context)
        raise FormatError(f"{context}: unknown basis name {ref!r}")
    raise FormatError(f"{context}: bad basis reference {ref!r}")


def algebra_from_dict(data: Mapping) -> LieAlgebra:
    """Load the algebra file format.

    {"name": str, "basis": [str...], "brackets": [{"left": nameOrIndex,
    "right": nameOrIndex, "result": {nameOrIndex: rationalString}}...]}

    Integer references are 0-based positions in the basis array.  Omitted
    brackets are zero; antisymmetric counterparts are filled in; supplying
    both (i, j) and (j, i) inconsistently is a load error.
    """
    if not isinstance(data, Mapping):
        raise FormatError("algebra file must be a JSON object")
    name = data.get("name", "unnamed")
    if not isinstance(name, str):
        raise FormatError("'name' must be a string")
    basis = data.get("basis")
    if not isinstance(basis, list) or not all(isinstance(b, str) for b in basis):
        raise FormatError("'basis' must be a list of strings")
    if not basis:
        raise FormatError("'basis' must be nonempty")
    if len(set(basis)) != len(basis):
        raise FormatError("duplicate basis names")
    names = tuple(basis)
    n = len(names)
    seen: dict[tuple[int, int], Vector] = {}
    for pos, entry in enumerate(data.get("brackets", [])):
        context = f"brackets[{pos}]"
        if not isinstance(entry, Mapping):
            raise FormatError(f"{context}: must be an object")
        i = _resolve_basis_ref(entry.get("left"), names, f"{context}.left")
        j = _resolve_basis_ref(entry.get("right"), names, f"{context}.right")
        result = entry.get("result", {})
        if not isinstance(result, Mapping):
            raise FormatError(f"{context}.result: must be an object")
        value = [Fraction(0)] * n
        for key, text in result.items():
            k = _resolve_basis_ref(key, names, f"{context}.result key")
            try:
                value[k] = rat(text)
            except (ValueError, TypeError) as exc:
                raise FormatError(f"{context}.result[{key!r}]: {exc}") from exc
        value = tuple(value)
        if i == j:
            if any(x != 0 for x in value):
                raise FormatError(f"{context}: bracket of a basis vector with itself must be zero")
            continue
        if (i, j) in seen:
            raise FormatError(f"{context}: bracket ({names[i]},{names[j]}) supplied twice")
        seen[(i, j)] = value
    for (i, j), value in seen.items():
        opposite = seen.get((j, i))
        if opposite is not None and any(a != -b for a, b in zip(value, opposite)):
            raise FormatError(
                f"brackets ({names[i]},{names[j]}) and ({names[j]},{names[i]}) are inconsistent"
            )
    return algebra_from_brackets(
        name, names, {pair: dict(enumerate(value)) for pair, value in seen.items()}
    )


def algebra_to_dict(g: LieAlgebra) -> dict:
    """Serialize with nonzero brackets for i < j, keys in basis order."""
    names = g.basis_names
    brackets = [
        {
            "left": names[i],
            "right": names[j],
            "result": {names[k]: format_rat(q) for k, q in row},
        }
        for (i, j), row in g._nonzero.items()
        if i < j
    ]
    return {"name": g.name, "basis": list(names), "brackets": brackets}
