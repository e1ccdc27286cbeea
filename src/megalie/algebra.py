"""Finite-dimensional Lie algebras given by rational structure constants.

A LieAlgebra holds constants c_ijk with [Q_i, Q_j] = sum_k c_ijk Q_k.
The module validates antisymmetry and the Jacobi identity exactly, and
provides the bracket calculus used everywhere else: adjoint matrices,
brackets of subspaces, centralizers/normalizers, the three structural
series, quotients and changes of basis, the Killing form, the radical, a
nilradical approximation, derivations, and exponentials of nilpotent
adjoints.  Every structure tensor is built by algebra_from_brackets, the
one builder that checks its input and fills in the antisymmetric
counterparts.

The constants are stored once, as a sparse index of the nonzero ones (see
LieAlgebra), and every reader, the antisymmetry check included, reads
that index; the dense tensor `c` is a view built on first read.  The
index holds int numerators over one common denominator, so brackets of
int rows, the closure's transporter solves and the derivation equations
run on ints; the readers that report constants divide at the boundary.
"""

from __future__ import annotations

from dataclasses import InitVar, dataclass, field
from fractions import Fraction
from functools import cached_property
from itertools import chain, combinations
from math import lcm
from typing import Mapping, Sequence

from .linalg import (
    AmbientMismatch,
    Matrix,
    Subspace,
    Vector,
    format_rat,
    rat,
    unit_vector,
    vec,
)


class NotAnIdeal(ValueError):
    """A subspace fails the ideal condition [g, s] <= s."""


class NotNilpotent(ValueError):
    """The adjoint of the given element is not nilpotent."""


class FormatError(ValueError):
    """Malformed algebra description (file format or builder input)."""


Tensor = tuple[tuple[Vector, ...], ...]
Constants = Mapping[tuple[int, int], Mapping[int, object]]


@dataclass(frozen=True)
class LieAlgebra:
    """Structure constants c_ijk with [Q_i, Q_j] = sum_k c_ijk Q_k.

    The constructor takes them sparse, {(i, j): {k: c_ijk}}, exactly as
    given: it mirrors and checks nothing, so that `validate` can report a
    raw table (algebra_from_brackets is the checked builder).  They are
    stored once, as `_nonzero`: every ordered pair (i, j) with a nonzero
    constant, in increasing (i, j), mapped to that row's nonzero entries
    ((k, q), ...) in increasing k.  Each q is an int, the constant times
    `_denominator`, the lcm of all denominators (1 when every constant is
    an integer).  That form is canonical, so equality and hashing read it.
    """

    name: str
    basis_names: tuple[str, ...]
    constants: InitVar[Constants]
    _nonzero: dict[tuple[int, int], tuple[tuple[int, int], ...]] = field(init=False)
    _denominator: int = field(init=False)

    def __post_init__(self, constants: Constants):
        d = lcm(*(q.denominator for row in constants.values() for q in row.values()))
        nonzero = {
            key: tuple((k, q.numerator * (d // q.denominator)) for k, q in sorted(row.items()) if q)
            for key, row in sorted(constants.items())
            if any(row.values())
        }
        object.__setattr__(self, "_nonzero", nonzero)
        object.__setattr__(self, "_denominator", d)

    def __hash__(self) -> int:
        return hash((self.name, self.basis_names, self._denominator, tuple(self._nonzero.items())))

    @cached_property
    def c(self) -> Tensor:
        """The dense tensor c[i][j][k] of Fractions, built on first read."""
        n = self.dim
        c = [[[Fraction(0)] * n for _ in range(n)] for _ in range(n)]
        for (i, j), row in self._nonzero.items():
            for k, q in row:
                c[i][j][k] = Fraction(q, self._denominator)
        return tuple(tuple(map(tuple, plane)) for plane in c)

    @property
    def dim(self) -> int:
        return len(self.basis_names)

    def bracket(self, x: Sequence, y: Sequence) -> Vector:
        x, y = vec(x), vec(y)
        if len(x) != self.dim or len(y) != self.dim:
            raise AmbientMismatch("bracket arguments must have length dim")
        return tuple(Fraction(v, self._denominator) for v in self._bracket(x, y))

    def _bracket(self, x: Sequence, y: Sequence) -> tuple:
        """bracket() times `_denominator`, unchecked; walks only the nonzero entries.

        Int rows give an int row.
        """
        out = [0] * self.dim
        ys = [(j, b) for j, b in enumerate(y) if b]
        for i, a in enumerate(x):
            if a:
                for j, b in ys:
                    row = self._nonzero.get((i, j))
                    if row:
                        f = a * b
                        for k, q in row:
                            out[k] += f * q
        return tuple(out)

    def basis_vector(self, i: int) -> Vector:
        return unit_vector(self.dim, i)

    def full_space(self) -> Subspace:
        return Subspace.full(self.dim)

    def zero_space(self) -> Subspace:
        return Subspace.zero(self.dim)


def algebra_from_brackets(name: str, basis_names: Sequence[str], brackets: Constants) -> LieAlgebra:
    """Build an algebra from sparse brackets {(i, j): {k: coeff}}, checked.

    This is the one checked builder, used by every loader: every index must
    lie in range, [x, x] must be zero, and a pair given in both orientations
    must agree.  The antisymmetric counterparts are filled in.
    """
    names = tuple(basis_names)
    n = len(names)
    constants: dict[tuple[int, int], dict[int, Fraction]] = {}
    for (i, j), result in brackets.items():
        if not (0 <= i < n and 0 <= j < n):
            raise FormatError(f"bracket index ({i},{j}) out of range")
        for k in result:
            if not 0 <= k < n:
                raise FormatError(f"bracket ({i},{j}) component index {k} out of range")
        row = {k: q for k, value in result.items() if (q := rat(value))}
        if i == j and row:
            raise FormatError(f"bracket [{names[i]},{names[i]}] must be zero")
        if constants.setdefault((i, j), row) != row:
            a, b = names[min(i, j)], names[max(i, j)]
            raise FormatError(f"brackets ({a},{b}) and ({b},{a}) are inconsistent")
        constants[(j, i)] = {k: -q for k, q in row.items()}
    return LieAlgebra(name, names, constants)


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
    n, rows = g.dim, g._nonzero
    anti = []
    for i, j in sorted({(min(pair), max(pair)) for pair in rows}):
        ij, ji = dict(rows.get((i, j), ())), dict(rows.get((j, i), ()))
        for k in sorted(ij.keys() | ji.keys()):
            a, b = ij.get(k, 0), ji.get(k, 0)
            if a != -b:
                anti.append((i, j, k, Fraction(a, g._denominator), Fraction(b, g._denominator)))
    jacobi = []
    square = g._denominator**2
    for i, j, l in combinations(range(n), 3):
        # component m of [[Q_i,Q_j],Q_l] + [[Q_j,Q_l],Q_i] + [[Q_l,Q_i],Q_j], times square
        res = [0] * n
        for a, b, d in ((i, j, l), (j, l, i), (l, i, j)):
            for k, q in rows.get((a, b), ()):
                for m, p in rows.get((k, d), ()):
                    res[m] += q * p
        jacobi.extend((i, j, l, m, Fraction(r, square)) for m, r in enumerate(res) if r)
    return ValidationReport(tuple(anti), tuple(jacobi))


# ---------------------------------------------------------------------------
# bracket calculus


def ad(g: LieAlgebra, x: Sequence) -> Matrix:
    """Matrix of y -> [x, y] in the algebra basis (column action)."""
    x = vec(x)
    n = g.dim
    if len(x) != n:
        raise AmbientMismatch("bracket arguments must have length dim")
    x = tuple(v / g._denominator for v in x)
    m = [[Fraction(0)] * n for _ in range(n)]
    for (i, j), row in g._nonzero.items():
        if x[i]:
            for k, q in row:
                m[k][j] += x[i] * q
    return Matrix(m)


def _bracket_images(g: LieAlgebra, a: Subspace, b: Subspace) -> list[list[tuple[int, ...]]]:
    """The bracket table of (a, b): [[w, v] for v in b.rows] for each w in a.rows.

    The rows are the canonical int rows, so every bracket is an int row (times
    the algebra's common denominator, which changes no span or solve).
    """
    if a.ambient_dim != g.dim or b.ambient_dim != g.dim:
        raise AmbientMismatch("subspaces must lie in the algebra")
    return [[g._bracket(w, v) for v in b.rows] for w in a.rows]


def _span_of_images(g: LieAlgebra, images: list) -> Subspace:
    return Subspace._from_rows(g.dim, [v for row in images for v in row])


def bracket_subspaces(g: LieAlgebra, a: Subspace, b: Subspace) -> Subspace:
    """Span of [x, y] over basis pairs x in a, y in b."""
    return _span_of_images(g, _bracket_images(g, a, b))


def _transport(within: Subspace, images: list, into: Subspace) -> Subspace:
    """transporter(g, within, of, into) from images = _bracket_images(g, within, of).

    _reduce is linear, so the remainders of row i are the images of within.rows[i].
    """
    rows = [tuple(chain.from_iterable(map(into._reduce, row))) for row in images]
    return within._where_zero(zip(*rows))


def transporter(g: LieAlgebra, within: Subspace, of: Subspace, into: Subspace) -> Subspace:
    """{x in `within` : [x, b] in `into` for every basis vector b of `of`}.

    The bracket table of (within, of), then one kernel solve: x = sum t_i w_i
    over the basis of `within` lies here exactly when sum t_i of the
    remainders of [w_i, b] against `into` is zero.  The megaideal closure
    keeps each member pair's table and solves every `into` from it through
    `_transport`.  This is the workhorse behind centralizers (into = 0),
    normalizers (into = of), the upper central series and the general
    invariant-subspace constructor.
    """
    within._check_ambient(into)
    return _transport(within, _bracket_images(g, within, of), into)


def center(g: LieAlgebra) -> Subspace:
    return transporter(g, g.full_space(), g.full_space(), g.zero_space())


def centralizer(g: LieAlgebra, within: Subspace, of: Subspace) -> Subspace:
    return transporter(g, within, of, g.zero_space())


def normalizer(g: LieAlgebra, within: Subspace, of: Subspace) -> Subspace:
    return transporter(g, within, of, of)


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


def _induced_algebra(g: LieAlgebra, name: str, names, vectors, to_new: Matrix) -> LieAlgebra:
    """g's bracket on the new basis `vectors`, read back through `to_new`.

    A row of ambient coordinates times to_new gives its coefficients over
    `vectors`.  The brackets of all pairs i < j are stacked as rows and
    multiplied by to_new once.
    """
    pairs = list(combinations(range(len(vectors)), 2))
    stacked = Matrix._from_rows((g.bracket(vectors[i], vectors[j]) for i, j in pairs), g.dim)
    coordinates = (stacked @ to_new).entries
    brackets = {pair: dict(enumerate(row)) for pair, row in zip(pairs, coordinates)}
    return algebra_from_brackets(name, names, brackets)


def quotient(g: LieAlgebra, ideal: Subspace) -> tuple[LieAlgebra, Matrix]:
    """Quotient algebra on the non-pivot coordinates plus the projection map.

    The complement basis is the set of coordinates that are not pivot
    columns of the ideal's RREF basis, taken in increasing order, which
    makes the construction deterministic.
    """
    if not is_ideal(g, ideal):
        raise NotAnIdeal("quotient requires an ideal")
    complement = [j for j in range(g.dim) if j not in ideal.pivots]
    # row j: basis vector j modulo the ideal, in the complement coordinates
    reduced = (ideal.reduce(g.basis_vector(j)) for j in range(g.dim))
    to_new = Matrix._from_rows((tuple(r[q] for q in complement) for r in reduced), len(complement))
    names = tuple(g.basis_names[q] for q in complement)
    vectors = [g.basis_vector(q) for q in complement]
    algebra = _induced_algebra(g, f"{g.name}/{ideal.dim}d", names, vectors, to_new)
    return algebra, to_new.transpose()


def change_basis(g: LieAlgebra, b: Matrix) -> LieAlgebra:
    """Structure constants in the new basis given by the rows of b."""
    if b.rows != g.dim or b.cols != g.dim:
        raise ValueError("change of basis must be square of the algebra dimension")
    return _induced_algebra(g, g.name, g.basis_names, b.entries, b.inverse())


# ---------------------------------------------------------------------------
# Killing form, radical, nilradical


def _killing_numerators(g: LieAlgebra) -> list[list[int]]:
    """trace(ad_i ad_j) times the square of the common denominator, as int rows.

    The trace is summed straight from the nonzero structure constants,
    sum over k, l of c[i][l][k] c[j][k][l].
    """
    n = g.dim
    terms = [{} for _ in range(n)]  # terms[i][(l, k)] = c[i][l][k], nonzero
    for (i, l), row in g._nonzero.items():
        for k, q in row:
            terms[i][(l, k)] = q
    form = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            t = sum(q * terms[j][(k, l)] for (l, k), q in terms[i].items() if (k, l) in terms[j])
            form[i][j] = form[j][i] = t
    return form


def killing_form(g: LieAlgebra) -> Matrix:
    """K[i][j] = trace(ad_i ad_j); symmetric and invariant."""
    square = g._denominator**2
    return Matrix([[Fraction(t, square) for t in row] for row in _killing_numerators(g)])


def _killing_orthogonal(k: list[list[int]], within: Subspace, against: Subspace) -> Subspace:
    """{x in `within` : K(x, y) = 0 for every y in `against`}; k is K times a positive int."""
    conditions = []
    for y in against.rows:
        ky = [sum(a * b for a, b in zip(row, y)) for row in k]
        conditions.append([sum(a * b for a, b in zip(w, ky)) for w in within.rows])
    return within._where_zero(conditions)


def radical(g: LieAlgebra) -> Subspace:
    """Maximal solvable ideal, via K-orthogonality to the derived algebra.

    Over a field of characteristic zero the radical equals
    {x : K(x, [g, g]) = 0}, which is one exact kernel computation.
    """
    full = g.full_space()
    return _killing_orthogonal(_killing_numerators(g), full, bracket_subspaces(g, full, full))


def nilradical_approx(g: LieAlgebra) -> tuple[Subspace, str]:
    """Iterative over-approximation of the nilradical.

    Start from the radical and repeatedly keep the part of the current term
    that is K-orthogonal to the whole term, trace(ad_x ad_y) = 0 for y in
    its basis.  Each term is an ideal containing the nilradical.  Status is
    'exact' when the fixed point is nilpotent, otherwise 'stalled' (the
    over-approximation is still returned).
    """
    k = _killing_numerators(g)
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
    return current, status


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
    # so each nonzero constant enters it in up to three places.  It is linear
    # in c, so the int constants of _nonzero give it times the common denominator.
    equations: dict[tuple[int, int, int], dict[int, int]] = {}

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
        row = [0] * (n * n)
        for unknown, q in equations[key].items():
            row[unknown] = q
        rows.append(row)
    solutions = Subspace.full(n * n)._where_zero(rows)
    return [
        Matrix([[row[a * n + b] for b in range(n)] for a in range(n)])
        for row in solutions.basis.entries
    ]


def _exp_ad(g: LieAlgebra, x: Sequence):
    """t -> exp(t ad_x), from the bracket chains [x, [x, ... e_j]] computed once.

    Column j of exp(t ad_x) is the sum over k of t^k/k! (ad_x)^k e_j.  The
    chains run on int rows: x times the lcm d of its denominators is an int
    row, so the k-th bracket of e_j is (d * g._denominator)^k (ad_x)^k e_j,
    and each t weighs it by t^k / (k! (d * g._denominator)^k).
    NotNilpotent is raised here when a chain is still nonzero after dim
    brackets, that is, when (ad_x)^dim != 0.
    """
    x = vec(x)
    n = g.dim
    if len(x) != n:
        raise AmbientMismatch("bracket arguments must have length dim")
    d = lcm(*(v.denominator for v in x))
    scaled = tuple(v.numerator * (d // v.denominator) for v in x)
    chains = []  # (k, j, the k-th bracket of e_j) for each nonzero one
    for j in range(n):
        row = tuple(int(i == j) for i in range(n))
        for k in range(1, n + 1):
            row = g._bracket(scaled, row)
            if not any(row):
                break
            chains.append((k, j, row))
        else:
            raise NotNilpotent("ad_x is not nilpotent")
    scale = d * g._denominator

    def at(t: Fraction) -> Matrix:
        weights = [Fraction(1)]
        for k in range(1, n + 1):
            weights.append(weights[-1] * t / (k * scale))
        rows = [list(unit_vector(n, i)) for i in range(n)]
        for k, j, chain in chains:
            for i, q in enumerate(chain):
                if q:
                    rows[i][j] += weights[k] * q
        return Matrix._from_rows(map(tuple, rows), n)

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
        if ref.isascii() and ref.isdigit():
            # int() refuses digit strings longer than the interpreter's limit
            if len(ref.lstrip("0")) > len(str(len(names))):
                raise FormatError(f"{context}: index out of range 0..{len(names) - 1}")
            return _resolve_basis_ref(int(ref), names, context)
        raise FormatError(f"{context}: unknown basis name {ref!r}")
    raise FormatError(f"{context}: bad basis reference {ref!r}")


def algebra_from_dict(data: Mapping) -> LieAlgebra:
    """Load the algebra file format.

    {"name": str, "basis": [str...], "brackets": [{"left": nameOrIndex,
    "right": nameOrIndex, "result": {nameOrIndex: rationalString}}...]}

    Integer references are 0-based positions in the basis array.  Omitted
    brackets are zero.  This loader checks the shape, the references, the
    rationals and that no pair or result key is given twice;
    algebra_from_brackets fills in the antisymmetric counterparts and
    rejects a nonzero [x, x] and a pair given inconsistently in both orders.
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
    brackets = data.get("brackets", [])
    if not isinstance(brackets, list):
        raise FormatError("'brackets' must be a list")
    seen: dict[tuple[int, int], dict[int, Fraction]] = {}
    for pos, entry in enumerate(brackets):
        context = f"brackets[{pos}]"
        if not isinstance(entry, Mapping):
            raise FormatError(f"{context}: must be an object")
        i = _resolve_basis_ref(entry.get("left"), names, f"{context}.left")
        j = _resolve_basis_ref(entry.get("right"), names, f"{context}.right")
        result = entry.get("result", {})
        if not isinstance(result, Mapping):
            raise FormatError(f"{context}.result: must be an object")
        row = {}
        for key, text in result.items():
            k = _resolve_basis_ref(key, names, f"{context}.result key")
            if k in row:
                raise FormatError(f"{context}.result[{key!r}]: component {names[k]} given twice")
            try:
                row[k] = rat(text)
            except (ValueError, TypeError) as exc:
                raise FormatError(f"{context}.result[{key!r}]: {exc}") from exc
        if (i, j) in seen:
            raise FormatError(f"{context}: bracket ({names[i]},{names[j]}) supplied twice")
        seen[(i, j)] = row
    return algebra_from_brackets(name, names, seen)


def algebra_to_dict(g: LieAlgebra) -> dict:
    """Serialize with nonzero brackets for i < j, keys in basis order."""
    names = g.basis_names
    brackets = [
        {
            "left": names[i],
            "right": names[j],
            "result": {names[k]: format_rat(Fraction(q, g._denominator)) for k, q in row},
        }
        for (i, j), row in g._nonzero.items()
        if i < j
    ]
    return {"name": g.name, "basis": list(names), "brackets": brackets}
