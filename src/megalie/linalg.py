"""Exact linear algebra over the rationals.

Canonical subspace arithmetic on int rows, and Matrix, the boundary type
with Fraction entries (input, products, inverses, RREF).  All values are
immutable, all results are exact; no floating point enters anywhere.

Internal rows are int tuples.  A Subspace keeps its canonical form as
primitive int rows, each RREF row times the lcm of its denominators, so
every pivot is a positive integer and two subspaces are equal precisely
when their rows are.  A Subspace is a plain value, that form and its
pivot columns with the Fraction basis cached, and carries no label: the
report names what it prints.  It is row-reduced once, when spanned_by or
the trusted _from_rows builds it.  One fraction-free Gauss-Jordan
routine, _echelon, does every elimination: subspace construction, the
kernel solve of Subspace._where_zero, and Matrix.rref_with_pivots, which
scales each row to integers and divides by the pivots at the end.
_where_zero -- the part of a space that a linear map sends to zero, read
from the int images of the canonical rows -- is the one kernel solve
behind intersections and every constructor in the algebra module.
Subspace._keeps, a map's nonzero entries applied to the canonical rows,
is the one invariance test, behind verify_megaideal (each derivation's
cells) and check_invariant (the cells of the solved form).

Values become Fractions at the boundary, where they are checked and
coerced: Matrix(...), Subspace.spanned_by, Subspace.basis and contains.
The trusted internal paths check nothing:
Subspace._from_rows, _reduce and _where_zero take int rows,
Matrix._from_rows Fraction rows.
"""

from __future__ import annotations

import re
from fractions import Fraction
from math import gcd, lcm
from typing import Iterable, Mapping, Sequence

Vector = tuple[Fraction, ...]
IntRow = tuple[int, ...]

_RATIONAL_RE = re.compile(r"-?[0-9]+(?:/[0-9]+)?")


class AmbientMismatch(ValueError):
    """Combining vectors or subspaces of different ambient dimensions."""


def rat(value: int | str | Fraction) -> Fraction:
    """Coerce an int, Fraction, or literal like '-3/2' to a Fraction.

    The accepted literal grammar is ['-'] digits ['/' digits] with a
    nonzero denominator.  A bool is an int to Python but never a rational
    here: a JSON true must not load as 1.  The whole text must match, so
    padding such as " 1" or "1\n" is refused.
    """
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int) and not isinstance(value, bool):
        return Fraction(value)
    if isinstance(value, str):
        if not _RATIONAL_RE.fullmatch(value):
            raise ValueError(f"bad rational literal {value!r}")
        num, _, den = value.partition("/")
        if den and int(den) == 0:
            raise ValueError(f"zero denominator in rational literal {value!r}")
        return Fraction(int(num), int(den)) if den else Fraction(int(num))
    raise TypeError(f"cannot interpret {type(value).__name__} as a rational")


def format_rat(q: int | Fraction) -> str:
    # str of an int or a Fraction is 'p/q' or 'p', which is exactly the literal grammar.
    return str(q)


def vec(values: Iterable) -> Vector:
    return tuple(rat(v) for v in values)


def unit_vector(n: int, i: int) -> Vector:
    return tuple(Fraction(1 if j == i else 0) for j in range(n))


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

    @staticmethod
    def _from_rows(rows: Iterable[Vector], cols: int) -> "Matrix":
        """Trusted constructor: rows must be `cols`-wide Fraction tuples; nothing is checked."""
        m = object.__new__(Matrix)
        data = tuple(rows)
        object.__setattr__(m, "entries", data)
        object.__setattr__(m, "rows", len(data))
        object.__setattr__(m, "cols", cols)
        return m

    def __setattr__(self, name, value):
        raise AttributeError("Matrix is immutable")

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

    # -- arithmetic ---------------------------------------------------------

    def __matmul__(self, other: "Matrix") -> "Matrix":
        if self.cols != other.rows:
            raise ValueError("shape mismatch in matrix product")
        rows = []
        for row in self.entries:
            acc = (Fraction(0),) * other.cols
            for a, b in zip(row, other.entries):
                if a:
                    acc = tuple(x + a * y if y else x for x, y in zip(acc, b))
            rows.append(acc)
        return Matrix._from_rows(rows, other.cols)

    # -- elimination ---------------------------------------------------------

    def rref_with_pivots(self) -> tuple["Matrix", tuple[int, ...]]:
        """Reduced row echelon form with zero rows removed, plus pivot columns.

        Each row is scaled to integers, which leaves the RREF unchanged, the
        rows are reduced fraction-free by _echelon, and each reduced row is
        divided by its pivot at the end.
        """
        rows, pivots = _echelon(map(_integral, self.entries), self.cols)
        return _normalized(rows, pivots, self.cols), pivots

    def inverse(self) -> "Matrix":
        if self.rows != self.cols:
            raise ValueError("inverse of a non-square matrix")
        n = self.rows
        aug = (row + unit_vector(n, i) for i, row in enumerate(self.entries))
        reduced, pivots = Matrix._from_rows(aug, 2 * n).rref_with_pivots()
        if pivots != tuple(range(n)):
            raise ValueError("matrix is singular")
        return Matrix._from_rows((row[n:] for row in reduced.entries), n)


# ---------------------------------------------------------------------------
# the integer core


def _integral(row: Iterable) -> tuple[int, ...]:
    """The smallest positive multiple of a rational row with int entries."""
    row = tuple(row)
    d = lcm(*(x.denominator for x in row))
    return tuple(x.numerator * (d // x.denominator) for x in row)


def _echelon(rows: Iterable[Sequence[int]], cols: int) -> tuple[list[IntRow], tuple[int, ...]]:
    """Fraction-free Gauss-Jordan elimination of int rows; the one elimination.

    Returns one row per pivot column, in increasing pivot order: primitive
    (the gcd of its entries is taken out), positive at its pivot and zero in
    every other pivot column.  That is each RREF row times the lcm of its
    denominators, so the result is exactly as canonical as the RREF.

    A reduced row is zero exactly when its gcd is 0, and it is dropped at
    that step; a row of `done` never becomes zero, being independent of
    the pivot row.
    """
    rest = [tuple(row) for row in rows if any(row)]
    done: list[IntRow] = []
    pivots: list[int] = []
    for c in range(cols):
        if not rest:
            break
        i = next((i for i, row in enumerate(rest) if row[c]), None)
        if i is None:
            continue
        p = rest.pop(i)
        g = gcd(*p) if p[c] > 0 else -gcd(*p)
        if g != 1:
            p = tuple(x // g for x in p)
        a = p[c]
        for group in (done, rest):
            for k, row in enumerate(group):
                b = row[c]
                if b:
                    if a == 1:
                        row = tuple(x - b * y for x, y in zip(row, p))
                    else:
                        row = tuple(a * x - b * y for x, y in zip(row, p))
                    g = gcd(*row)
                    if g > 1:
                        row = tuple(x // g for x in row)
                    group[k] = row if g else None
        rest = [row for row in rest if row is not None]
        done.append(p)
        pivots.append(c)
    return done, tuple(pivots)


def _combination(coefficients: Iterable[int], rows: Iterable[IntRow], width: int) -> list[int]:
    """sum c_i rows[i] over the nonzero c_i, for int rows of the given width."""
    out = [0] * width
    for c, row in zip(coefficients, rows):
        if c:
            out = [x + c * y for x, y in zip(out, row)]
    return out


def _normalized(rows: Sequence[IntRow], pivots: Sequence[int], cols: int) -> Matrix:
    """The RREF of canonical rows: each row divided by its pivot, as Fractions."""
    return Matrix._from_rows(
        (
            tuple(map(Fraction, row)) if row[p] == 1 else tuple(Fraction(x, row[p]) for x in row)
            for p, row in zip(pivots, rows)
        ),
        cols,
    )


class Subspace:
    """Linear subspace of Q^n in canonical form, and nothing else.

    The form is the RREF of the basis with each row times the lcm of its
    denominators: primitive int rows with positive pivots (`rows`), and the
    pivot columns (`pivots`).  It is built once, when the space is built,
    and every later operation reads it.  `basis`, the RREF as a Fraction
    matrix, is derived from the rows on first use and cached.  Equality
    looks only at the ambient dimension and the rows, and hashing at the
    ambient dimension and the pivots.  A space carries no label: the report
    names what it prints.

    There are two constructors: spanned_by checks and coerces its vectors,
    and the trusted _from_rows takes int rows.
    """

    __slots__ = ("ambient_dim", "rows", "pivots", "_basis")

    def __new__(cls, *args, **kwargs):
        raise TypeError("Subspace has no public constructor; use Subspace.spanned_by")

    @staticmethod
    def _from_rows(ambient_dim: int, rows: Iterable[Sequence[int]]) -> Subspace:
        """Trusted constructor: the span of int rows of the ambient length."""
        space = object.__new__(Subspace)
        space.__post_init__(ambient_dim, *_echelon(rows, ambient_dim))
        return space

    def __post_init__(self, ambient_dim: int, rows, pivots: tuple[int, ...]):
        """Every constructor ends here, with the canonical rows and their pivots.

        bench/layers.py traces this name to count the subspaces built.
        """
        object.__setattr__(self, "ambient_dim", ambient_dim)
        object.__setattr__(self, "rows", tuple(rows))
        object.__setattr__(self, "pivots", pivots)
        object.__setattr__(self, "_basis", None)

    def __setattr__(self, name, value):
        raise AttributeError("Subspace is immutable")

    @staticmethod
    def spanned_by(ambient_dim: int, vectors: Iterable[Sequence]) -> "Subspace":
        """The span of rational vectors of length ambient_dim, checked and coerced."""
        rows = [vec(v) for v in vectors]
        if any(len(row) != ambient_dim for row in rows):
            raise AmbientMismatch("generator length does not match ambient dimension")
        return Subspace._from_rows(ambient_dim, map(_integral, rows))

    @staticmethod
    def zero(ambient_dim: int) -> "Subspace":
        return Subspace._from_rows(ambient_dim, ())

    @staticmethod
    def full(ambient_dim: int) -> "Subspace":
        """The whole space: its unit rows are already canonical, so nothing is eliminated."""
        space = object.__new__(Subspace)
        units = ((0,) * i + (1,) + (0,) * (ambient_dim - i - 1) for i in range(ambient_dim))
        space.__post_init__(ambient_dim, units, tuple(range(ambient_dim)))
        return space

    # -- identity ----------------------------------------------------------

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Subspace)
            and self.ambient_dim == other.ambient_dim
            and self.rows == other.rows
        )

    def __hash__(self) -> int:
        # equal subspaces have equal canonical rows, hence equal pivots
        return hash((self.ambient_dim, self.pivots))

    def __repr__(self) -> str:
        rows = "; ".join(" ".join(format_rat(x) for x in row) for row in self.basis.entries)
        return f"Subspace(dim {self.dim} of Q^{self.ambient_dim}: [{rows}])"

    @property
    def basis(self) -> Matrix:
        if self._basis is None:
            basis = _normalized(self.rows, self.pivots, self.ambient_dim)
            object.__setattr__(self, "_basis", basis)
        return self._basis

    @property
    def dim(self) -> int:
        return len(self.rows)

    def sort_key(self) -> tuple:
        return (self.dim, tuple(x for row in self.basis.entries for x in row))

    def is_zero(self) -> bool:
        return self.dim == 0

    def is_full(self) -> bool:
        return self.dim == self.ambient_dim

    # -- membership and comparison ------------------------------------------

    def _check_ambient(self, other: "Subspace") -> None:
        if self.ambient_dim != other.ambient_dim:
            raise AmbientMismatch("subspaces live in different ambient spaces")

    def _reduce(self, v: Sequence[int]) -> IntRow:
        """The remainder of an int row of the ambient length, fraction-free and unchecked.

        The remainder comes out times the product of the pivot entries,
        whatever v is: a row whose pivot is not 1 scales v even where v[p]
        is 0.  So _reduce is linear, and remainders of different vectors
        can be added.
        """
        if not any(v):
            return tuple(v)
        for p, row in zip(self.pivots, self.rows):
            f, a = v[p], row[p]
            if a == 1:
                if f:
                    v = tuple(x - f * y for x, y in zip(v, row))
            elif f:
                v = tuple(a * x - f * y for x, y in zip(v, row))
            else:
                v = tuple(a * x for x in v)
        return tuple(v)

    def contains(self, v: Sequence) -> bool:
        v = vec(v)
        if len(v) != self.ambient_dim:
            raise AmbientMismatch("vector length does not match ambient dimension")
        return not any(self._reduce(_integral(v)))

    def contains_subspace(self, other: "Subspace") -> bool:
        self._check_ambient(other)
        return not any(any(self._reduce(row)) for row in other.rows)

    def _keeps(self, cells: Mapping[tuple[int, int], int | Fraction]) -> bool:
        """Whether the map with nonzero entries cells = {(i, j): m[i][j]} keeps this space.

        The one invariance test: the entries times the lcm of their
        denominators, one positive factor for every image, act on each
        canonical int row, and each image must reduce to zero.
        """
        scale = lcm(*(q.denominator for q in cells.values()))
        scaled = [(i, j, q.numerator * (scale // q.denominator)) for (i, j), q in cells.items()]
        for row in self.rows:
            image = [0] * self.ambient_dim
            for i, j, q in scaled:
                image[i] += q * row[j]
            if any(self._reduce(image)):
                return False
        return True

    # -- lattice operations ---------------------------------------------------

    def _where_zero(self, conditions: Iterable[Sequence[int]]) -> "Subspace":
        """{sum t_i rows[i] : sum t_i e[i] = 0 for every condition e}, on int conditions.

        Condition e lists, for each canonical row, one int component of its
        image: the images are taken of `rows`, not of the basis rows.
        """
        reduced, pivots = _echelon(conditions, self.dim)
        if not pivots:
            return self
        # kernel vector of free column f: t_f = m, t_p = -e[f] m / e[p] on each reduced e
        m = lcm(*(e[p] for p, e in zip(pivots, reduced)))
        vectors = []
        for f in (c for c in range(self.dim) if c not in pivots):
            t = [0] * self.dim
            t[f] = m
            for p, e in zip(pivots, reduced):
                t[p] = -e[f] * (m // e[p])
            vectors.append(_combination(t, self.rows, self.ambient_dim))
        return Subspace._from_rows(self.ambient_dim, vectors)

    def sum(self, other: "Subspace") -> "Subspace":
        self._check_ambient(other)
        return Subspace._from_rows(self.ambient_dim, self.rows + other.rows)

    def intersect(self, other: "Subspace") -> "Subspace":
        """The part of this space whose remainder against `other` is zero."""
        self._check_ambient(other)
        return self._where_zero(zip(*map(other._reduce, self.rows)))

