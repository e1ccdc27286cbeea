"""Exact linear algebra over the rationals.

Dense matrices with Fraction entries, reduced row echelon form, kernels,
and canonical subspace arithmetic.  All values are immutable, all results
are exact; no floating point enters anywhere.  Subspaces are kept in RREF
with leading coefficient 1, so two subspaces are equal precisely when
their basis matrices are entry-wise equal.  A Subspace is row-reduced
once, when it is built, and keeps its pivot columns for reduction and
coordinates.  Subspace.where_zero -- the part of a space that a linear
map sends to zero -- is the one kernel solve behind intersections,
kernels and every constructor in the algebra module.
"""

from __future__ import annotations

import copy
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
            if m[r][c] != 1:
                inv = Fraction(1) / m[r][c]
                m[r] = [x * inv for x in m[r]]
            for i in range(len(m)):
                if i != r and m[i][c] != 0:
                    f = m[i][c]
                    m[i] = [a - f * b if b else a for a, b in zip(m[i], m[r])]
            pivots.append(c)
            r += 1
            if r == len(m):
                break
        return Matrix(m[:r], cols=self.cols), tuple(pivots)

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
    """Linear subspace of Q^n, kept as the RREF of its basis.

    The constructor row-reduces the basis it is given, once, and stores
    the pivot columns next to it; every later operation reads those.
    Equality and hashing look only at the ambient dimension and the basis
    matrix; the provenance string records how the space was constructed
    and never affects identity.
    """

    ambient_dim: int
    basis: Matrix
    provenance: str = field(default="", compare=False)
    pivots: tuple[int, ...] = field(init=False, compare=False)

    def __post_init__(self):
        if self.basis.cols != self.ambient_dim:
            raise AmbientMismatch("basis width does not match ambient dimension")
        basis, pivots = self.basis.rref_with_pivots()
        object.__setattr__(self, "basis", basis)
        object.__setattr__(self, "pivots", pivots)

    @staticmethod
    def spanned_by(ambient_dim: int, vectors: Iterable[Sequence], provenance: str = "") -> "Subspace":
        rows = [tuple(v) for v in vectors]
        if any(len(row) != ambient_dim for row in rows):
            raise AmbientMismatch("generator length does not match ambient dimension")
        return Subspace(ambient_dim, Matrix(rows, cols=ambient_dim), provenance)

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
        """The same space under another name; basis and pivots are shared."""
        twin = copy.copy(self)
        object.__setattr__(twin, "provenance", provenance)
        return twin

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
        v = vec(v)
        if len(v) != self.ambient_dim:
            raise AmbientMismatch("vector length does not match ambient dimension")
        for p, row in zip(self.pivots, self.basis.entries):
            f = v[p]
            if f != 0:
                v = tuple(a - f * b if b else a for a, b in zip(v, row))
        return v

    def contains(self, v: Sequence) -> bool:
        return all(x == 0 for x in self.reduce(v))

    def contains_subspace(self, other: "Subspace") -> bool:
        self._check_ambient(other)
        return all(self.contains(row) for row in other.basis.entries)

    def coordinates(self, v: Sequence) -> Vector | None:
        """Coefficients of v over the RREF basis rows, or None if outside.

        The coefficient of row r is v at pivot r, since every other row is
        zero there.
        """
        v = vec(v)
        if not self.contains(v):
            return None
        return tuple(v[p] for p in self.pivots)

    # -- lattice operations ---------------------------------------------------

    def where_zero(self, images: Sequence[Sequence], provenance: str = "") -> "Subspace":
        """{sum t_i b_i : sum t_i images[i] = 0} over the basis rows b_i.

        images[i] is the image of basis row i under some linear map, and
        the result is the part of this space that the map sends to zero:
        one kernel solve in the coordinates of this space, mapped back.
        Every subspace constructor that cuts out a space by linear
        conditions goes through here.
        """
        rows = [row for row in zip(*images) if any(x != 0 for x in row)]
        if not rows:
            return self.with_provenance(provenance)
        vectors = []
        for t in Matrix(rows, cols=self.dim).kernel_rows():
            combo = zero_vector(self.ambient_dim)
            for ti, b in zip(t, self.basis.entries):
                if ti != 0:
                    combo = vec_add(combo, vec_scale(ti, b))
            vectors.append(combo)
        return Subspace(self.ambient_dim, Matrix(vectors, cols=self.ambient_dim), provenance)

    def sum(self, other: "Subspace", provenance: str = "") -> "Subspace":
        self._check_ambient(other)
        return Subspace.spanned_by(
            self.ambient_dim,
            list(self.basis.entries) + list(other.basis.entries),
            provenance,
        )

    def intersect(self, other: "Subspace", provenance: str = "") -> "Subspace":
        """The part of this space whose remainder against `other` is zero."""
        self._check_ambient(other)
        return self.where_zero([other.reduce(w) for w in self.basis.entries], provenance)


def kernel(m: Matrix, provenance: str = "") -> Subspace:
    """Null space {v : m @ v = 0} as a canonical subspace of Q^cols."""
    return Subspace.full(m.cols).where_zero([m.col(j) for j in range(m.cols)], provenance)
