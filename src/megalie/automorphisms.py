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

With a solved parametrization the invariant coordinate subspaces can be
enumerated exhaustively (2^n scans), and inner automorphisms exp(t ad_x)
can be matched against the parametrization as a consistency check; they
are computed inside the adapted algebra, so no matrix is conjugated back.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction
from itertools import combinations
from typing import Sequence

from .algebra import LieAlgebra, NotNilpotent, _exp_ad, _induced_algebra
from .linalg import Matrix, Subspace, format_rat
from .megaideals import MegaidealLattice
from .poly import Poly


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
    block_sizes: tuple[int, ...]
    extra_coordinate_members: tuple[tuple[int, ...], ...] = ()

    @property
    def dim(self) -> int:
        return self.change_of_basis.rows


@dataclass(frozen=True)
class AutShape:
    """Zero pattern and nonvanishing conditions for automorphism matrices."""

    dim: int
    pattern: tuple[tuple[str | None, ...], ...]  # None = forced zero
    unknowns: tuple[str, ...]  # row-major order of appearance
    side_conditions: tuple[Poly, ...]  # each required nonzero


@dataclass(frozen=True)
class PolySystem:
    unknowns: tuple[str, ...]
    equations: tuple[Poly, ...]
    inequations: tuple[Poly, ...]


@dataclass(frozen=True)
class AutParametrization:
    """Result of the elimination.

    assignments map solved unknowns to polynomials in the free parameters;
    residual_equations are the constraints elimination could not touch
    (empty means fully solved); division_audit records every division by a
    non-constant factor together with the side condition justifying it.
    The shape is attached by solve_in_adapted_basis; a bare
    triangular_solve leaves it None.
    """

    shape: AutShape | None
    assignments: dict[str, Poly]
    free_parameters: tuple[str, ...]
    residual_equations: tuple[Poly, ...]
    side_conditions: tuple[Poly, ...]
    division_audit: tuple[dict, ...]

    @property
    def solved(self) -> bool:
        return not self.residual_equations

    def matrix_entries(self) -> tuple[tuple[Poly, ...], ...]:
        """The automorphism matrix with polynomial entries."""
        if self.shape is None:
            raise ValueError("parametrization has no shape attached")
        variables = self.shape.unknowns
        zero = Poly.zero(variables)
        rows = []
        for i in range(self.shape.dim):
            row = []
            for j in range(self.shape.dim):
                name = self.shape.pattern[i][j]
                if name is None:
                    row.append(zero)
                elif name in self.assignments:
                    row.append(self.assignments[name])
                else:
                    row.append(Poly.var(variables, name))
            rows.append(tuple(row))
        return tuple(rows)


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
    block_sizes = []
    previous = 0
    for member in chain:
        block_sizes.append(member.dim - previous)
        previous = member.dim
    inverse = basis.inverse()
    chain_set = set(chain)
    extras = []
    for member in lattice.members:
        if member in chain_set or member.is_zero():
            continue
        # an RREF basis spans a coordinate subspace when each row is a unit vector
        transformed = Subspace(n, member.basis @ inverse)
        if all(sum(x != 0 for x in row) == 1 for row in transformed.basis.entries):
            extras.append(transformed.pivots)
    algebra = _induced_algebra(g, g.name, g.basis_names, basis.entries, inverse.transpose().matvec)
    return AdaptedBasis(
        basis, inverse, algebra, tuple(chain), tuple(block_sizes), tuple(sorted(set(extras)))
    )


def _symbolic_det(entries: list[list[Poly]], variables: tuple[str, ...]) -> Poly:
    """Determinant by Laplace expansion with memoized column subsets."""
    size = len(entries)
    memo: dict[tuple[int, ...], Poly] = {(): Poly.const(variables, 1)}

    def minor(cols: tuple[int, ...]) -> Poly:
        if cols in memo:
            return memo[cols]
        row = size - len(cols)
        total = Poly.zero(variables)
        for pos, col in enumerate(cols):
            entry = entries[row][col]
            if entry.is_zero():
                continue
            rest = cols[:pos] + cols[pos + 1 :]
            sub = minor(rest)
            term = entry * sub
            total = total + term if pos % 2 == 0 else total - term
        memo[cols] = total
        return total

    det = minor(tuple(range(size)))
    # minor refers to itself through its closure, a reference cycle that
    # would keep every memoized minor alive until the next full collection
    memo.clear()
    return det


def shape_from_flag(basis: AdaptedBasis) -> AutShape:
    """Zero pattern allowed by flag invariance plus block-det conditions.

    An invariant coordinate subspace with index set J forces a[i][j] = 0
    for j in J, i not in J.  Flag prefixes make the matrix block upper
    triangular; extra coordinate members cut further.  Every diagonal
    block contributes its determinant as a nonvanishing side condition.
    """
    n = basis.dim
    invariant_sets: list[set[int]] = []
    boundary = 0
    boundaries = []
    for size in basis.block_sizes:
        boundary += size
        boundaries.append(boundary)
        invariant_sets.append(set(range(boundary)))
    for coords in basis.extra_coordinate_members:
        invariant_sets.append(set(coords))
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
        block = []
        for i in range(start, boundary):
            row = []
            for j in range(start, boundary):
                name = pattern[i][j]
                row.append(Poly.var(variables, name) if name else Poly.zero(variables))
            block.append(row)
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
    # the nonzero c[p][q][m] of each component m, in (p, q) order
    component = [[] for _ in range(n)]
    for (p, q), row in g._nonzero.items():
        for m, coeff in row:
            component[m].append((p, q, coeff))
    equations = []
    seen = set()
    for i in range(n):
        for j in range(i + 1, n):
            for m in range(n):
                terms: dict = {}
                for k, coeff in g._nonzero.get((i, j), ()):
                    name = shape.pattern[m][k]
                    if name is None:
                        continue
                    exps = _variable_exps(variables, {name: 1})
                    terms[exps] = terms.get(exps, Fraction(0)) + coeff
                for p, q, coeff in component[m]:
                    name_p, name_q = shape.pattern[p][i], shape.pattern[q][j]
                    if name_p is None or name_q is None:
                        continue
                    counts = {name_p: 1}
                    counts[name_q] = counts.get(name_q, 0) + 1
                    exps = _variable_exps(variables, counts)
                    terms[exps] = terms.get(exps, Fraction(0)) - coeff
                poly = Poly(variables, terms).content_normalized()
                if poly.is_zero():
                    continue
                key = frozenset(poly.terms.items())
                if key in seen:
                    continue
                seen.add(key)
                equations.append(poly)
    return PolySystem(variables, tuple(equations), shape.side_conditions)


def _variable_exps(variables: tuple[str, ...], counts: dict[str, int]) -> tuple[int, ...]:
    return tuple(counts.get(name, 0) for name in variables)


# ---------------------------------------------------------------------------
# triangular elimination


def _nonzero_atoms(inequations: Sequence[Poly]) -> list[Poly]:
    """Irreducible factors known nonzero from the side conditions.

    A condition that is a single monomial makes each of its variables
    nonzero; any condition is itself usable as an atomic factor.
    """
    atoms: list[Poly] = []
    seen = set()

    def push(p: Poly) -> None:
        key = frozenset(p.terms.items())
        if key not in seen:
            seen.add(key)
            atoms.append(p)

    for condition in inequations:
        mono_vars = condition.monomial_variables()
        if mono_vars is not None:
            for name in mono_vars:
                push(Poly.var(condition.variables, name))
        if not condition.is_constant():
            push(condition.content_normalized())
    return atoms


def _known_nonzero(p: Poly, atoms: Sequence[Poly]) -> Poly | None:
    """If p is (nonzero rational) * product of atoms, return p; else None."""
    if p.is_zero():
        return None
    current = p
    while not current.is_constant():
        for atom in atoms:
            q = current.exact_div(atom)
            if q is not None and not q.is_zero():
                current = q
                break
        else:
            return None
    return p if current.constant_value() != 0 else None


def triangular_solve(system: PolySystem) -> AutParametrization:
    """Eliminate unknowns one at a time, soundly.

    A step solves an equation of the form c * x + r = 0 where x is a
    single unknown, c is a product of declared-nonzero factors (or a
    nonzero rational), and c divides r exactly in the polynomial ring.
    The assignment is substituted everywhere before the next scan, so no
    solutions are gained or lost under the declared inequations.  Anything
    left over is returned as the residual system.
    """
    atoms = _nonzero_atoms(system.inequations)
    equations: list[Poly] = [
        eq.content_normalized() for eq in system.equations if not eq.is_zero()
    ]
    assignments: dict[str, Poly] = {}
    audit: list[dict] = []
    progress = True
    while progress:
        progress = False
        for eq_index, eq in enumerate(equations):
            for name in system.unknowns:
                if name in assignments or not eq.mentions(name):
                    continue
                decomposition = eq.linear_decompose(name)
                if decomposition is None:
                    continue
                coeff, rest = decomposition
                invertible = _known_nonzero(coeff, atoms)
                if invertible is None:
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
                assignments = {
                    key: value.substitute(substitution) for key, value in assignments.items()
                }
                assignments[name] = solution
                new_equations = []
                for pos, other in enumerate(equations):
                    if pos == eq_index:
                        continue
                    reduced = other.substitute(substitution).content_normalized()
                    if not reduced.is_zero():
                        new_equations.append(reduced)
                equations = new_equations
                progress = True
                break
            if progress:
                break
    residual = []
    seen = set()
    for eq in equations:
        key = frozenset(eq.terms.items())
        if key not in seen:
            seen.add(key)
            residual.append(eq)
    free = tuple(name for name in system.unknowns if name not in assignments)
    return AutParametrization(
        shape=None,
        assignments=assignments,
        free_parameters=free,
        residual_equations=tuple(residual),
        side_conditions=system.inequations,
        division_audit=tuple(audit),
    )


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
    param = replace(triangular_solve(system), shape=shape)
    return basis, shape, system, param


def substitute_parameters(param: AutParametrization, values: dict) -> Matrix:
    """Numeric automorphism matrix at the given free-parameter values.

    Raises ValueError when a side condition vanishes at the values (the
    matrix would be singular, outside the parametrized group).
    """
    if not param.solved:
        raise ResidualSystem("parametrization has residual equations")
    values = {name: Fraction(v) for name, v in values.items()}
    for condition in param.side_conditions:
        if condition.substitute(param.assignments).evaluate(values) == 0:
            raise ValueError(f"side condition {condition.to_str()} vanishes")
    entries = param.matrix_entries()
    n = param.shape.dim
    return Matrix([[entries[i][j].evaluate(values) for j in range(n)] for i in range(n)])


# ---------------------------------------------------------------------------
# invariance checks under the solved parametrization


def check_invariant(param: AutParametrization, s: Subspace) -> bool:
    """Whether A maps s into s identically in the free parameters.

    s is given in the coordinates the parametrization acts on (the adapted
    basis).  A v lies in s identically exactly when, for every monomial
    in the parameters, the vector of its coefficients in A v lies in s.
    """
    if not param.solved:
        raise ResidualSystem("parametrization has residual equations")
    n = param.shape.dim
    if s.ambient_dim != n:
        raise ValueError("subspace has wrong ambient dimension")
    entries = param.matrix_entries()
    for v in s.basis.entries:
        by_monomial: dict[tuple[int, ...], list[Fraction]] = {}
        for i in range(n):
            for j in range(n):
                if v[j] != 0:
                    for exps, coeff in entries[i][j].terms.items():
                        by_monomial.setdefault(exps, [Fraction(0)] * n)[i] += coeff * v[j]
        if not all(s.contains(column) for column in by_monomial.values()):
            return False
    return True


def enumerate_coordinate_megaideals(
    g: LieAlgebra,
    param: AutParametrization,
    basis: AdaptedBasis,
    max_dim: int = 16,
) -> list[Subspace]:
    """All coordinate spans (in the adapted basis) fixed by every A.

    Scans all 2^n subsets in (popcount, index) order and returns the
    invariant ones, converted back to ambient coordinates.  The span of
    the coordinates J is invariant exactly when A[i][j] is the zero
    polynomial for every j in J and every i outside J.  The zero and full
    spans are included; they are invariant trivially.
    """
    if not param.solved:
        raise ResidualSystem("parametrization has residual equations")
    n = param.shape.dim
    if n > max_dim:
        raise ValueError(f"enumeration capped at dimension {max_dim}")
    entries = param.matrix_entries()
    # bit i of leaks[j] is set when A[i][j] is not the zero polynomial
    leaks = [sum(1 << i for i in range(n) if not entries[i][j].is_zero()) for j in range(n)]
    results = []
    for size in range(n + 1):
        for subset in combinations(range(n), size):
            inside = sum(1 << j for j in subset)
            if any(leaks[j] & ~inside for j in subset):
                continue
            ambient_rows = [basis.change_of_basis.entries[j] for j in subset]
            results.append(
                Subspace.spanned_by(
                    g.dim,
                    ambient_rows,
                    provenance=f"aut-invariant{list(subset)}",
                )
            )
    return results


# ---------------------------------------------------------------------------
# consistency against inner automorphisms


def _mismatch(entries, matrix: Matrix, values: dict, conditions) -> dict | None:
    """The first matrix entry or side condition that `values` violate, or None."""
    for i, row in enumerate(matrix.entries):
        for j, actual in enumerate(row):
            expected = entries[i][j].evaluate(values)
            if expected != actual:
                return {
                    "row": i + 1,
                    "col": j + 1,
                    "expected": format_rat(expected),
                    "actual": format_rat(actual),
                }
    for condition in conditions:
        if condition.evaluate(values) == 0:
            return {"side_condition": condition.to_str()}
    return None


def inner_consistency(
    g: LieAlgebra,
    param: AutParametrization,
    basis: AdaptedBasis,
    t_values: Sequence = (1, -1, Fraction(1, 2)),
) -> dict:
    """Match exp(t ad_x) against the parametrization for basis x, small t.

    Every inner automorphism must satisfy the parametrization for some
    rational parameter values; the free parameters sit at their own matrix
    positions, so candidate values can be read off directly and then
    verified against every entry and side condition.  Any mismatch is a
    soundness failure and is reported.

    The check runs inside basis.algebra: the change of basis is an algebra
    isomorphism, so exp(t ad e_i) in the adapted basis is exp(t ad' x_i)
    there, where x_i is row i of basis.inverse.  The powers of ad' x_i are
    multiplied once per basis element and summed for each t.
    """
    if not param.solved:
        raise ResidualSystem("parametrization has residual equations")
    free_positions = {
        name: (i, j)
        for i, row in enumerate(param.shape.pattern)
        for j, name in enumerate(row)
        if name in param.free_parameters
    }
    entries = param.matrix_entries()
    conditions = [c.substitute(param.assignments) for c in param.side_conditions]
    checks = []
    for idx in range(g.dim):
        try:
            exp_at = _exp_ad(basis.algebra, basis.inverse.entries[idx])
        except NotNilpotent:
            continue
        for t in t_values:
            t = Fraction(t)
            adapted = exp_at(t)
            values = {
                name: adapted.entries[i][j] for name, (i, j) in free_positions.items()
            }
            mismatch = _mismatch(entries, adapted, values, conditions)
            entry = {
                "element": g.basis_names[idx],
                "t": format_rat(t),
                "matched": mismatch is None,
            }
            if mismatch is None:
                entry["parameters"] = {
                    name: format_rat(values[name]) for name in param.free_parameters
                }
            else:
                entry["mismatch"] = mismatch
            checks.append(entry)
    return {"ok": all(c["matched"] for c in checks), "checks": checks}
