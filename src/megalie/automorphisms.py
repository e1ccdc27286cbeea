"""Parametrized automorphism groups from invariant-subspace constraints.

Pipeline: pick a maximal chain of lattice members and build a basis in
which every chain member is a coordinate prefix (adapted basis), inverting
the change of basis once and re-expressing the algebra in it once; deduce
the zero pattern this forces on automorphism matrices plus nonvanishing
block-determinant side conditions; generate the quadratic bracket
compatibility equations A[Qi,Qj] = [AQi,AQj]; and run a sound triangular
elimination: only equations that are linear in a single unknown whose
coefficient is a declared-nonzero factor (or a nonzero rational) are
solved, every division is audited, and whatever cannot be eliminated this
way is reported as a residual system rather than forced.

A solved parametrization keeps one form of its matrix, A = sum of x^e M_e
over monomials in the free parameters x.  A subspace is invariant when
each M_e keeps it; the invariant coordinate subspaces are enumerated
(2^n scans) from the form's zero pattern; one evaluation at a point, with
the side conditions tested at the unknowns read off the numeric matrix,
serves substitute_parameters and the match of inner automorphisms
exp(t ad_x), computed inside the adapted algebra, against the form.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import combinations
from math import prod
from typing import Sequence

from .algebra import LieAlgebra, NotNilpotent, _exp_ad, _induced_algebra
from .linalg import Matrix, Subspace, format_rat, rat
from .megaideals import MegaidealLattice
from .poly import MAX_PAIRS, ExpansionError, Poly


MAX_ENUM_DIM = 16  # default dimension cap of the 2^n invariant-span scan
T_VALUES = (Fraction(1), Fraction(-1), Fraction(1, 2))  # the t of each exp(t ad_x) check


class ResidualSystem(ValueError):
    """An operation needs a fully solved parametrization."""


@dataclass(frozen=True)
class AdaptedBasis:
    """Basis in which a chain of invariant subspaces sits as prefixes.

    change_of_basis (B) rows are the new basis vectors in the old
    coordinates; inverse is B^-1, so a row vector's new coordinates are
    that row times inverse, and row i of inverse is old basis vector i in
    the new coordinates.  algebra is the algebra re-expressed in the new
    basis; the basis change is computed once, here, and the shape,
    equations and inner-automorphism check all work in it.  flag is the
    chosen chain (old coordinates, ascending, ending at the full space).
    extra_coordinate_members are new-coordinate index sets of non-chain
    lattice members that happen to be coordinate subspaces in the new
    basis.
    """

    change_of_basis: Matrix
    inverse: Matrix
    algebra: LieAlgebra
    flag: tuple[Subspace, ...]
    extra_coordinate_members: tuple[tuple[int, ...], ...] = ()

    @property
    def dim(self) -> int:
        return self.change_of_basis.rows

    @property
    def block_sizes(self) -> tuple[int, ...]:
        """The dims the flag gains member by member: the diagonal block sizes."""
        dims = [0] + [member.dim for member in self.flag]
        return tuple(b - a for a, b in zip(dims, dims[1:]))


@dataclass(frozen=True)
class AutShape:
    """Zero pattern and nonvanishing conditions for automorphism matrices."""

    dim: int
    pattern: tuple[tuple[str | None, ...], ...]  # None = forced zero
    unknowns: tuple[str, ...]  # row-major order of appearance
    side_conditions: tuple[Poly, ...]  # each required nonzero


@dataclass(frozen=True)
class PolySystem:
    """Bracket-compatibility equations over shape, its unknowns and side conditions."""

    shape: AutShape
    equations: tuple[Poly, ...]


@dataclass(frozen=True)
class AutParametrization:
    """Result of the elimination over shape.

    assignments map solved unknowns to polynomials in the free parameters;
    residual_equations are the constraints elimination could not touch
    (empty means fully solved); division_audit records every division by a
    non-constant factor together with the side condition justifying it.
    """

    shape: AutShape
    assignments: dict[str, Poly]
    residual_equations: tuple[Poly, ...]
    division_audit: tuple[dict, ...]

    @property
    def solved(self) -> bool:
        return not self.residual_equations

    @property
    def side_conditions(self) -> tuple[Poly, ...]:
        return self.shape.side_conditions

    @property
    def free_parameters(self) -> tuple[str, ...]:
        return tuple(name for name in self.shape.unknowns if name not in self.assignments)

    @cached_property
    def form(self) -> dict[tuple[int, ...], dict[tuple[int, int], Fraction]]:
        """A = sum of x^e M_e over the free parameters x, as {e: {(i, j): nonzero M_e[i][j]}}.

        Built on first read; raises ResidualSystem when residual equations remain.
        """
        if not self.solved:
            raise ResidualSystem("parametrization has residual equations")
        unknowns = self.shape.unknowns
        # assignments mention no solved unknown, so e keeps the free exponents only
        free = [k for k, name in enumerate(unknowns) if name not in self.assignments]
        form: dict = {}
        for i, row in enumerate(self.shape.pattern):
            for j, name in enumerate(row):
                if name is not None:
                    entry = self.assignments[name] if name in self.assignments else Poly.var(unknowns, name)
                    for exps, coeff in entry.terms.items():
                        form.setdefault(tuple(exps[k] for k in free), {})[i, j] = coeff
        return form

    def matrix_at(self, point: Sequence[Fraction]) -> Matrix:
        """The numeric matrix at point, the free parameters' values in order."""
        n = self.shape.dim
        rows = [[Fraction(0)] * n for _ in range(n)]
        for exps, entries in self.form.items():
            value = prod(x**e for x, e in zip(point, exps) if e)
            for (i, j), coeff in entries.items():
                rows[i][j] += coeff * value
        return Matrix._from_rows(map(tuple, rows), n)

    def vanishing_condition(self, matrix: Matrix) -> Poly | None:
        """The first side condition that is zero at the unknowns read off matrix, or None.

        At matrix_at(point), that is the first one whose substitution
        by the assignments vanishes at point.
        """
        cells = zip(self.shape.pattern, matrix.entries)
        values = {name: x for names, row in cells for name, x in zip(names, row) if name is not None}
        return next((c for c in self.side_conditions if c.evaluate(values) == 0), None)


def _unknown_name(i: int, j: int, n: int) -> str:
    if n <= 9:
        return f"a{i + 1}{j + 1}"
    return f"a{i + 1}_{j + 1}"


# ---------------------------------------------------------------------------
# adapted bases


def adapted_basis(g: LieAlgebra, lattice: MegaidealLattice) -> AdaptedBasis:
    """Greedy maximal chain through the lattice, realized as basis prefixes.

    From the zero subspace, repeatedly step to the smallest-dimension
    member strictly containing the current one (ties broken by the
    canonical RREF order).  The new basis extends along the chain using the
    chain members' RREF rows, so each chain member is spanned by a prefix.
    """
    n = g.dim
    members = sorted(lattice.members, key=lambda s: s.sort_key())
    chain: list[Subspace] = []
    current = Subspace.zero(n)
    while not current.is_full():
        step = None
        for candidate in members:
            if candidate.dim <= current.dim:
                continue
            if candidate.contains_subspace(current) and candidate != current:
                step = candidate
                break
        if step is None:
            step = Subspace.full(n)
        chain.append(step)
        current = step
    rows: list = []
    span = Subspace.zero(n)
    for member in chain:
        for row in member.basis.entries:
            if not span.contains(row):
                rows.append(row)
                span = span.sum(Subspace.spanned_by(n, [row]))
    basis = Matrix(rows, cols=n)
    inverse = basis.inverse()
    chain_set = set(chain)
    extras = []
    for member in lattice.members:
        if member in chain_set or member.is_zero():
            continue
        # member.dim independent new basis rows inside the member span it
        inside = tuple(k for k, row in enumerate(rows) if member.contains(row))
        if len(inside) == member.dim:
            extras.append(inside)
    algebra = _induced_algebra(g, g.name, g.basis_names, basis.entries, inverse)
    return AdaptedBasis(basis, inverse, algebra, tuple(chain), tuple(sorted(set(extras))))


def _symbolic_det(block: Sequence[Sequence[str | None]], variables: tuple[str, ...]) -> Poly:
    """Determinant of a grid of unknown names, None for a forced zero, over variables.

    Each permutation that avoids the zeros contributes +-1 times a product
    of unknowns; contributions are added, so a repeated unknown stays
    exact.  No polynomial is multiplied.  Past MAX_PAIRS such permutations
    (8! = 40,320 fit, a full 9x9 grid does not), ExpansionError is raised.
    """
    index = {name: k for k, name in enumerate(variables)}
    # positions[i][j]: index in `variables` of the unknown at (i, j), None for zero
    positions = [[None if name is None else index[name] for name in row] for row in block]
    terms: dict[tuple[int, ...], int] = {}
    cols = tuple(range(len(block)))
    _add_permutation_terms(positions, 0, cols, 1, [0] * len(variables), terms)
    return Poly._from_terms(variables, terms)


def _add_permutation_terms(positions, row, cols, sign, exps, terms, expanded=0) -> int:
    """Add sign times the products of rows row.. over the free columns cols into terms.

    Taking the column at position pos of cols for this row flips the sign
    when pos is odd, as in Laplace's expansion along the row.  exps holds
    the exponents of the product chosen so far and is restored before
    returning.  expanded counts the permutations added before this call;
    the count after it is returned, and ExpansionError is raised instead
    of adding one past MAX_PAIRS.
    """
    if row == len(positions):
        if expanded == MAX_PAIRS:
            raise ExpansionError(f"block determinant expands past {MAX_PAIRS} permutations")
        key = tuple(exps)
        c = terms.get(key)
        terms[key] = sign if c is None else c + sign
        return expanded + 1
    for pos, col in enumerate(cols):
        index = positions[row][col]
        if index is None:
            continue
        exps[index] += 1
        rest = cols[:pos] + cols[pos + 1 :]
        flipped = -sign if pos % 2 else sign
        expanded = _add_permutation_terms(positions, row + 1, rest, flipped, exps, terms, expanded)
        exps[index] -= 1
    return expanded


def shape_from_flag(basis: AdaptedBasis) -> AutShape:
    """Zero pattern allowed by flag invariance plus block-det conditions.

    An invariant coordinate subspace with index set J forces a[i][j] = 0
    for j in J, i not in J.  Flag prefixes make the matrix block upper
    triangular; extra coordinate members cut further.  Every diagonal
    block contributes its determinant as a nonvanishing side condition.
    """
    n = basis.dim
    boundaries = [member.dim for member in basis.flag]
    invariant_sets = [set(range(boundary)) for boundary in boundaries]
    invariant_sets += [set(coords) for coords in basis.extra_coordinate_members]
    allowed = [[True] * n for _ in range(n)]
    for js in invariant_sets:
        for j in js:
            for i in range(n):
                if i not in js:
                    allowed[i][j] = False
    pattern = []
    unknowns = []
    for i in range(n):
        row = []
        for j in range(n):
            if allowed[i][j]:
                name = _unknown_name(i, j, n)
                row.append(name)
                unknowns.append(name)
            else:
                row.append(None)
        pattern.append(tuple(row))
    variables = tuple(unknowns)
    conditions = []
    start = 0
    for boundary in boundaries:
        block = [row[start:boundary] for row in pattern[start:boundary]]
        conditions.append(_symbolic_det(block, variables))
        start = boundary
    return AutShape(n, tuple(pattern), variables, tuple(conditions))


# ---------------------------------------------------------------------------
# structure equations


def structure_equations(g: LieAlgebra, shape: AutShape) -> PolySystem:
    """Bracket compatibility A[Qi,Qj] - [AQi,AQj] = 0 componentwise.

    One polynomial per pair i < j and component m: the linear part comes
    from A applied to the structure constants, the quadratic part from the
    bracket of the images.  Identically zero equations are dropped and
    duplicates (after content normalization) are kept once, in generation
    order.
    """
    if shape.dim != g.dim:
        raise ValueError("shape dimension does not match the algebra")
    n = g.dim
    variables = shape.unknowns
    # The nonzero c[p][q][m] of each component m, in (p, q) order.  The index
    # holds them times g._denominator; every equation is linear in c, and
    # content normalization takes that positive factor out again.
    component = [[] for _ in range(n)]
    for (p, q), row in g._nonzero.items():
        for m, coeff in row:
            component[m].append((p, q, coeff))
    equations: dict[Poly, None] = {}  # insertion-ordered set
    for i in range(n):
        for j in range(i + 1, n):
            for m in range(n):
                terms: dict = {}
                for k, coeff in g._nonzero.get((i, j), ()):
                    name = shape.pattern[m][k]
                    if name is None:
                        continue
                    exps = _variable_exps(variables, {name: 1})
                    terms[exps] = terms.get(exps, 0) + coeff
                for p, q, coeff in component[m]:
                    name_p, name_q = shape.pattern[p][i], shape.pattern[q][j]
                    if name_p is None or name_q is None:
                        continue
                    counts = {name_p: 1}
                    counts[name_q] = counts.get(name_q, 0) + 1
                    exps = _variable_exps(variables, counts)
                    terms[exps] = terms.get(exps, 0) - coeff
                poly = Poly(variables, terms).content_normalized()
                if not poly.is_zero():
                    equations.setdefault(poly)
    return PolySystem(shape, tuple(equations))


def _variable_exps(variables: tuple[str, ...], counts: dict[str, int]) -> tuple[int, ...]:
    return tuple(counts.get(name, 0) for name in variables)


# ---------------------------------------------------------------------------
# triangular elimination


def _nonzero_atoms(inequations: Sequence[Poly]) -> list[Poly]:
    """Irreducible factors known nonzero from the side conditions.

    A condition that is a single monomial makes each of its variables
    nonzero; any condition is itself usable as an atomic factor.
    """
    atoms: dict[Poly, None] = {}  # insertion-ordered set
    for condition in inequations:
        mono_vars = condition.monomial_variables()
        if mono_vars is not None:
            for name in mono_vars:
                atoms.setdefault(Poly.var(condition.variables, name))
        if not condition.is_constant():
            atoms.setdefault(condition.content_normalized())
    return list(atoms)


def _known_nonzero(p: Poly, atoms: Sequence[Poly]) -> bool:
    """Whether p is a nonzero rational times a product of atoms."""
    while not p.is_constant():
        for atom in atoms:
            q = p.exact_div(atom)
            if q is not None and not q.is_zero():
                p = q
                break
        else:
            return False
    return p.constant_value() != 0


def _first_step(
    equations: Sequence[Poly], unknowns: Sequence[str], atoms: Sequence[Poly]
) -> tuple[int, str, Poly, Poly] | None:
    """The first solvable (equation index, unknown, coefficient, solution), or None."""
    for index, eq in enumerate(equations):
        for name in unknowns:
            if not eq.mentions(name):
                continue
            decomposition = eq.linear_decompose(name)
            if decomposition is None:
                continue
            coeff, rest = decomposition
            if not _known_nonzero(coeff, atoms):
                continue
            quotient = rest.exact_div(coeff)
            if quotient is not None:
                return index, name, coeff, -quotient
    return None


def triangular_solve(system: PolySystem) -> AutParametrization:
    """Eliminate unknowns one at a time, soundly.

    A step solves an equation of the form c * x + r = 0 where x is a
    single unknown, c is a product of declared-nonzero factors (or a
    nonzero rational), and c divides r exactly in the polynomial ring.
    Each step takes the first such unknown, scanning the equations in
    order and each one's unknowns in shape order.  The assignment is
    substituted everywhere before the next scan, so no solutions are
    gained or lost under the shape's side conditions, and a solved
    unknown appears in no equation again.  Anything left over is returned
    as the residual system.
    """
    shape = system.shape
    atoms = _nonzero_atoms(shape.side_conditions)
    equations = [eq.content_normalized() for eq in system.equations if not eq.is_zero()]
    assignments: dict[str, Poly] = {}
    audit: list[dict] = []
    while (step := _first_step(equations, shape.unknowns, atoms)) is not None:
        index, name, coeff, solution = step
        if not coeff.is_constant():
            audit.append(
                {
                    "equation": equations[index].to_str(),
                    "unknown": name,
                    "divided_by": coeff.content_normalized().to_str(),
                }
            )
        # Only polynomials that mention the unknown change; the equations are
        # content-normalized already, so the others are kept as they are.
        substitution = {name: solution}
        assignments = {
            key: value.substitute(substitution) if value.mentions(name) else value
            for key, value in assignments.items()
        }
        assignments[name] = solution
        new_equations = []
        for pos, other in enumerate(equations):
            if pos == index:
                continue
            if other.mentions(name):
                other = other.substitute(substitution).content_normalized()
                if other.is_zero():
                    continue
            new_equations.append(other)
        equations = new_equations
    residual = tuple(dict.fromkeys(equations))  # deduplicated, in order
    return AutParametrization(shape, assignments, residual, tuple(audit))


def solve_in_adapted_basis(
    g: LieAlgebra, lattice: MegaidealLattice
) -> tuple[AdaptedBasis, AutShape, PolySystem, AutParametrization]:
    """Full chain: adapted basis, shape, equations, elimination.

    The equations are generated from basis.algebra, the algebra in the
    adapted basis, so the shape's zero pattern and the structure constants
    agree.
    """
    basis = adapted_basis(g, lattice)
    shape = shape_from_flag(basis)
    system = structure_equations(basis.algebra, shape)
    return basis, shape, system, triangular_solve(system)


def substitute_parameters(param: AutParametrization, values: dict) -> Matrix:
    """Numeric automorphism matrix at the given free-parameter values.

    values must name every free parameter and nothing else.  Raises
    ValueError when a side condition vanishes at the values (the matrix
    would be singular, outside the parametrized group).
    """
    param.form  # a residual system raises ResidualSystem before any other check
    free = param.free_parameters
    missing = [name for name in free if name not in values]
    unknown = [name for name in values if name not in free]
    if missing or unknown:
        raise ValueError(f"values must name the free parameters: missing {missing}, not free {unknown}")
    matrix = param.matrix_at([rat(values[name]) for name in free])
    condition = param.vanishing_condition(matrix)
    if condition is not None:
        raise ValueError(f"side condition {condition.to_str()} vanishes")
    return matrix


# ---------------------------------------------------------------------------
# invariance checks under the solved parametrization


def check_invariant(param: AutParametrization, s: Subspace) -> bool:
    """Whether A maps s into s identically in the free parameters.

    s is given in the coordinates the parametrization acts on (the adapted
    basis).  A v lies in s identically exactly when every M_e of the
    solved form maps v into s.
    """
    n = param.shape.dim
    grids = ([[m.get((i, j), 0) for j in range(n)] for i in range(n)] for m in param.form.values())
    return all(s.is_invariant_under(Matrix(grid)) for grid in grids)


def enumerate_coordinate_megaideals(
    g: LieAlgebra,
    param: AutParametrization,
    basis: AdaptedBasis,
    max_dim: int = MAX_ENUM_DIM,
) -> list[tuple[tuple[int, ...], Subspace]]:
    """All coordinate spans (in the adapted basis) fixed by every A.

    Scans all 2^n subsets in (popcount, index) order and returns each
    invariant one as a pair: its coordinates J in the adapted basis, and
    its span in ambient coordinates.  The span of the coordinates J is
    invariant exactly when A[i][j] is the zero polynomial for every j in J
    and every i outside J.  The zero and full spans are included; they
    are invariant trivially.
    """
    form = param.form
    n = param.shape.dim
    if n > max_dim:
        raise ValueError(f"enumeration capped at dimension {max_dim}")
    leaks = [0] * n  # bit i of leaks[j] is set when A[i][j] is not the zero polynomial
    for i, j in (cell for entries in form.values() for cell in entries):
        leaks[j] |= 1 << i
    results = []
    for size in range(n + 1):
        for subset in combinations(range(n), size):
            inside = sum(1 << j for j in subset)
            if any(leaks[j] & ~inside for j in subset):
                continue
            ambient_rows = [basis.change_of_basis.entries[j] for j in subset]
            results.append((subset, Subspace.spanned_by(g.dim, ambient_rows)))
    return results


# ---------------------------------------------------------------------------
# consistency against inner automorphisms


def _mismatch(param: AutParametrization, matrix: Matrix, point: list) -> dict | None:
    """The first matrix entry or side condition that point violates, or None."""
    expected = param.matrix_at(point)
    for i, (want, got) in enumerate(zip(expected.entries, matrix.entries)):
        for j, (a, b) in enumerate(zip(want, got)):
            if a != b:
                return {"row": i + 1, "col": j + 1, "expected": format_rat(a), "actual": format_rat(b)}
    condition = param.vanishing_condition(matrix)
    return None if condition is None else {"side_condition": condition.substitute(param.assignments).to_str()}


def inner_consistency(
    g: LieAlgebra,
    param: AutParametrization,
    basis: AdaptedBasis,
) -> dict:
    """Match exp(t ad_x) against the parametrization for basis x, t in T_VALUES.

    Every inner automorphism must satisfy the parametrization for some
    rational parameter values; the free parameters sit at their own matrix
    positions, so candidate values can be read off directly and then
    verified against every entry and side condition.  Any mismatch is a
    soundness failure and is reported.

    The check runs inside basis.algebra: the change of basis is an algebra
    isomorphism, so exp(t ad e_i) in the adapted basis is exp(t ad' x_i)
    there, where x_i is row i of basis.inverse.  The bracket chains of
    ad' x_i are computed once per basis element and weighed for each t.
    """
    param.form  # a residual system raises ResidualSystem before any other check
    free = param.free_parameters
    # row-major, as the unknowns are ordered, so in the order of free
    free_positions = [
        (i, j) for i, row in enumerate(param.shape.pattern) for j, name in enumerate(row) if name in free
    ]
    checks = []
    for idx in range(g.dim):
        try:
            exp_at = _exp_ad(basis.algebra, basis.inverse.entries[idx])
        except NotNilpotent:
            continue
        for t in T_VALUES:
            adapted = exp_at(t)
            point = [adapted.entries[i][j] for i, j in free_positions]
            mismatch = _mismatch(param, adapted, point)
            entry = {"element": g.basis_names[idx], "t": format_rat(t), "matched": mismatch is None}
            if mismatch is None:
                entry["parameters"] = {name: format_rat(x) for name, x in zip(free, point)}
            else:
                entry["mismatch"] = mismatch
            checks.append(entry)
    return {"ok": all(c["matched"] for c in checks), "checks": checks}
