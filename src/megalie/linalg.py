"""Exact linear algebra over the rationals.

Dense matrices with Fraction entries, reduced row echelon form, kernels,
and canonical subspace arithmetic.  All values are immutable, all results
are exact; no floating point enters anywhere.  Subspaces are kept in RREF
with leading coefficient 1, so two subspaces are equal precisely when
their basis matrices are entry-wise equal.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable, Sequence

Vector = tuple[Fraction, ...]

_RATIONAL_RE = re.compile(r"^-?\d+(?:/\d+)?$")


class AmbientMismatch(ValueError):
    """Combining vectors or subspaces of different ambient dimensions."""


def rat(value: int | str | Fraction) -> Fraction:
    """Coerce an int, Fraction, or literal like '-3/2' to a Fraction.

    The accepted literal grammar is ['-'] digits ['/' digits] with a
    nonzero denominator.
    """
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        text = value.strip()
        if not _RATIONAL_RE.match(text):
            raise ValueError(f"bad rational literal {value!r}")
        num, _, den = text.partition("/")
        if den and int(den) == 0:
            raise ValueError(f"zero denominator in rational literal {value!r}")
        return Fraction(int(num), int(den)) if den else Fraction(int(num))
    raise TypeError(f"cannot interpret {type(value).__name__} as a rational")


def format_rat(q: Fraction) -> str:
    # Fraction.__str__ is 'p/q' or 'p', which is exactly the literal grammar.
    return str(q)


def vec(values: Iterable) -> Vector:
    return tuple(rat(v) for v in values)


def vec_add(a: Vector, b: Vector) -> Vector:
    return tuple(x + y for x, y in zip(a, b, strict=True))


def vec_sub(a: Vector, b: Vector) -> Vector:
    return tuple(x - y for x, y in zip(a, b, strict=True))


def vec_scale(q: Fraction, a: Vector) -> Vector:
    return tuple(q * x for x in a)


def vec_dot(a: Vector, b: Vector) -> Fraction:
    return sum((x * y for x, y in zip(a, b, strict=True)), Fraction(0))


def unit_vector(n: int, i: int) -> Vector:
    return tuple(Fraction(1 if j == i else 0) for j in range(n))


def zero_vector(n: int) -> Vector:
    return (Fraction(0),) * n


class Matrix:
    """Immutable dense matrix over the rationals."""

    __slots__ = ("rows", "cols", "entries")

    def __init__(self, entries: Sequence[Sequence], cols: int | None = None):
        data = tuple(tuple(rat(x) for x in row) for row in entries)
        if data:
            width = len(data[0])
            if any(len(row) != width for row in data):
                raise ValueError("ragged rows in matrix")
            if cols is not None and cols != width:
                raise ValueError("cols argument disagrees with row width")
            cols = width
        elif cols is None:
            raise ValueError("empty matrix needs an explicit column count")
        object.__setattr__(self, "entries", data)
        object.__setattr__(self, "rows", len(data))
        object.__setattr__(self, "cols", cols)

    def __setattr__(self, name, value):
        raise AttributeError("Matrix is immutable")

    # -- construction -----------------------------------------------------

    @staticmethod
    def zeros(rows: int, cols: int) -> "Matrix":
        return Matrix([[0] * cols for _ in range(rows)], cols=cols)

    @staticmethod
    def identity(n: int) -> "Matrix":
        return Matrix([[1 if i == j else 0 for j in range(n)] for i in range(n)])

    # -- basics ------------------------------------------------------------

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Matrix)
            and self.cols == other.cols
            and self.entries == other.entries
        )

    def __hash__(self) -> int:
        return hash((self.cols, self.entries))

    def __repr__(self) -> str:
        body = "; ".join(" ".join(format_rat(x) for x in row) for row in self.entries)
        return f"Matrix({self.rows}x{self.cols}: {body})"

    def row(self, i: int) -> Vector:
        return self.entries[i]

    def col(self, j: int) -> Vector:
        return tuple(row[j] for row in self.entries)

    def is_zero(self) -> bool:
        return all(x == 0 for row in self.entries for x in row)

    def transpose(self) -> "Matrix":
        return Matrix(
            [[self.entries[i][j] for i in range(self.rows)] for j in range(self.cols)],
            cols=self.rows,
        )

    # -- arithmetic ---------------------------------------------------------

    def __add__(self, other: "Matrix") -> "Matrix":
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ValueError("shape mismatch in matrix addition")
        return Matrix(
            [vec_add(a, b) for a, b in zip(self.entries, other.entries)],
            cols=self.cols,
        )

    def __sub__(self, other: "Matrix") -> "Matrix":
        return self + other.scaled(Fraction(-1))

    def scaled(self, q) -> "Matrix":
        q = rat(q)
        return Matrix([vec_scale(q, row) for row in self.entries], cols=self.cols)

    def __matmul__(self, other: "Matrix") -> "Matrix":
        if self.cols != other.rows:
            raise ValueError("shape mismatch in matrix product")
        cols = [other.col(j) for j in range(other.cols)]
        return Matrix(
            [[vec_dot(row, c) for c in cols] for row in self.entries],
            cols=other.cols,
        )

    def matvec(self, v: Sequence) -> Vector:
        v = vec(v)
        if len(v) != self.cols:
            raise AmbientMismatch("vector length does not match matrix columns")
        return tuple(vec_dot(row, v) for row in self.entries)

    def power(self, k: int) -> "Matrix":
        if self.rows != self.cols:
            raise ValueError("power of a non-square matrix")
        result = Matrix.identity(self.rows)
        base = self
        while k:
            if k & 1:
                result = result @ base
            base = base @ base if k > 1 else base
            k >>= 1
        return result

    # -- elimination ---------------------------------------------------------

    def rref_with_pivots(self) -> tuple["Matrix", tuple[int, ...]]:
        """Reduced row echelon form with zero rows removed, plus pivot columns."""
        m = [list(row) for row in self.entries]
        pivots: list[int] = []
        r = 0
        for c in range(self.cols):
            pivot_row = None
            for i in range(r, len(m)):
                if m[i][c] != 0:
                    pivot_row = i
                    break
            if pivot_row is None:
                continue
            m[r], m[pivot_row] = m[pivot_row], m[r]
            inv = Fraction(1) / m[r][c]
            m[r] = [x * inv for x in m[r]]
            for i in range(len(m)):
                if i != r and m[i][c] != 0:
                    f = m[i][c]
                    m[i] = [a - f * b for a, b in zip(m[i], m[r])]
            pivots.append(c)
            r += 1
            if r == len(m):
                break
        return Matrix(m[:r], cols=self.cols), tuple(pivots)

    def rref(self) -> "Matrix":
        return self.rref_with_pivots()[0]

    def rank(self) -> int:
        return self.rref_with_pivots()[0].rows

    def kernel_rows(self) -> list[Vector]:
        """Basis of {v : self @ v = 0}, one free coordinate set to 1 per row."""
        reduced, pivots = self.rref_with_pivots()
        pivot_set = set(pivots)
        free = [c for c in range(self.cols) if c not in pivot_set]
        rows = []
        for f in free:
            v = [Fraction(0)] * self.cols
            v[f] = Fraction(1)
            for r, p in enumerate(pivots):
                v[p] = -reduced.entries[r][f]
            rows.append(tuple(v))
        return rows

    def inverse(self) -> "Matrix":
        if self.rows != self.cols:
            raise ValueError("inverse of a non-square matrix")
        n = self.rows
        aug = Matrix(
            [list(self.entries[i]) + [1 if j == i else 0 for j in range(n)] for i in range(n)]
        )
        reduced, pivots = aug.rref_with_pivots()
        if pivots != tuple(range(n)):
            raise ValueError("matrix is singular")
        return Matrix([row[n:] for row in reduced.entries], cols=n)


def solve(a: Matrix, b: Sequence) -> Vector | None:
    """One exact solution of a @ x = b, or None when inconsistent.

    Free coordinates are set to zero, which makes the answer deterministic.
    """
    b = vec(b)
    if len(b) != a.rows:
        raise ValueError("right-hand side length mismatch")
    aug = Matrix([list(row) + [b[i]] for i, row in enumerate(a.entries)], cols=a.cols + 1)
    reduced, pivots = aug.rref_with_pivots()
    if a.cols in pivots:
        return None
    x = [Fraction(0)] * a.cols
    for r, p in enumerate(pivots):
        x[p] = reduced.entries[r][a.cols]
    return tuple(x)


@dataclass(frozen=True, eq=False)
class Subspace:
    """Linear subspace of Q^n with a canonical RREF basis.

    Equality and hashing look only at the ambient dimension and the basis
    matrix; the provenance string records how the space was constructed
    and never affects identity.
    """

    ambient_dim: int
    basis: Matrix
    provenance: str = field(default="", compare=False)

    def __post_init__(self):
        if self.basis.cols != self.ambient_dim:
            raise AmbientMismatch("basis width does not match ambient dimension")
        if self.basis.rref() != self.basis:
            raise ValueError("subspace basis must be the reduced row echelon form")

    @staticmethod
    def spanned_by(ambient_dim: int, vectors: Iterable[Sequence], provenance: str = "") -> "Subspace":
        rows = [vec(v) for v in vectors]
        for row in rows:
            if len(row) != ambient_dim:
                raise AmbientMismatch("generator length does not match ambient dimension")
        basis = Matrix(rows, cols=ambient_dim).rref()
        return Subspace(ambient_dim, basis, provenance)

    @staticmethod
    def zero(ambient_dim: int, provenance: str = "0") -> "Subspace":
        return Subspace(ambient_dim, Matrix([], cols=ambient_dim), provenance)

    @staticmethod
    def full(ambient_dim: int, provenance: str = "g") -> "Subspace":
        return Subspace(ambient_dim, Matrix.identity(ambient_dim), provenance)

    # -- identity ----------------------------------------------------------

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Subspace)
            and self.ambient_dim == other.ambient_dim
            and self.basis == other.basis
        )

    def __hash__(self) -> int:
        return hash((self.ambient_dim, self.basis))

    def __repr__(self) -> str:
        rows = "; ".join(" ".join(format_rat(x) for x in row) for row in self.basis.entries)
        return f"Subspace(dim {self.dim} of Q^{self.ambient_dim}: [{rows}])"

    @property
    def dim(self) -> int:
        return self.basis.rows

    def sort_key(self) -> tuple:
        return (self.dim, tuple(x for row in self.basis.entries for x in row))

    def with_provenance(self, provenance: str) -> "Subspace":
        return Subspace(self.ambient_dim, self.basis, provenance)

    def is_zero(self) -> bool:
        return self.dim == 0

    def is_full(self) -> bool:
        return self.dim == self.ambient_dim

    # -- membership and comparison ------------------------------------------

    def _check_ambient(self, other: "Subspace") -> None:
        if self.ambient_dim != other.ambient_dim:
            raise AmbientMismatch("subspaces live in different ambient spaces")

    def reduce(self, v: Sequence) -> Vector:
        """Remainder of v after elimination against the RREF basis."""
        v = list(vec(v))
        if len(v) != self.ambient_dim:
            raise AmbientMismatch("vector length does not match ambient dimension")
        for row in self.basis.entries:
            p = next(i for i, x in enumerate(row) if x == 1)
            if v[p] != 0:
                f = v[p]
                v = [a - f * b for a, b in zip(v, row)]
        return tuple(v)

    def contains(self, v: Sequence) -> bool:
        return all(x == 0 for x in self.reduce(v))

    def contains_subspace(self, other: "Subspace") -> bool:
        self._check_ambient(other)
        return all(self.contains(row) for row in other.basis.entries)

    def coordinates(self, v: Sequence) -> Vector | None:
        """Coefficients of v over the RREF basis rows, or None if outside."""
        v = vec(v)
        coeffs = []
        residue = list(v)
        for row in self.basis.entries:
            p = next(i for i, x in enumerate(row) if x == 1)
            c = residue[p]
            coeffs.append(c)
            if c != 0:
                residue = [a - c * b for a, b in zip(residue, row)]
        if any(x != 0 for x in residue):
            return None
        return tuple(coeffs)

    # -- lattice operations ---------------------------------------------------

    def sum(self, other: "Subspace", provenance: str = "") -> "Subspace":
        self._check_ambient(other)
        return Subspace.spanned_by(
            self.ambient_dim,
            list(self.basis.entries) + list(other.basis.entries),
            provenance,
        )

    def intersect(self, other: "Subspace", provenance: str = "") -> "Subspace":
        """Intersection via the kernel of the stacked coordinate system.

        Solve x . A - y . B = 0 over the joint coefficient space and map the
        solutions back through A.
        """
        self._check_ambient(other)
        da, db = self.dim, other.dim
        if da == 0 or db == 0:
            return Subspace.zero(self.ambient_dim, provenance)
        system = Matrix(
            [
                [self.basis.entries[i][c] for i in range(da)]
                + [-other.basis.entries[j][c] for j in range(db)]
                for c in range(self.ambient_dim)
            ],
            cols=da + db,
        )
        vectors = []
        for w in system.kernel_rows():
            combo = zero_vector(self.ambient_dim)
            for i in range(da):
                if w[i] != 0:
                    combo = vec_add(combo, vec_scale(w[i], self.basis.entries[i]))
            vectors.append(combo)
        return Subspace.spanned_by(self.ambient_dim, vectors, provenance)

    def constraint_matrix(self) -> Matrix:
        """Matrix W with {v : W @ v = 0} equal to this subspace.

        Rows of W span the orthogonal complement under the standard dot
        product, which over Q cuts out exactly the original row space.
        """
        return Matrix(self.basis.kernel_rows(), cols=self.ambient_dim)


def kernel(m: Matrix, provenance: str = "") -> Subspace:
    """Null space {v : m @ v = 0} as a canonical subspace of Q^cols."""
    return Subspace.spanned_by(m.cols, m.kernel_rows(), provenance)
