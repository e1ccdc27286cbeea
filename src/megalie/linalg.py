"""Exact linear algebra over the rationals.

Canonical subspace arithmetic on int rows, and Matrix, the boundary type
with Fraction entries (input, products, inverses, RREF).  All values are
immutable, all results are exact; no floating point enters anywhere.

Internal rows are sparse: a dict {column: int} holding only the nonzero
entries, never changed once built (like Poly.terms).  A Subspace keeps
its canonical form as primitive int rows, each RREF row times the lcm of
its denominators, so every pivot is a positive integer, the least column
of its row, and two subspaces are equal precisely when their rows are.
A Subspace is a plain value, that form and its pivot columns with the
dense Fraction basis cached, and carries no label: the report names what
it prints.  It is row-reduced once, when spanned_by or the trusted
_from_rows builds it.  One fraction-free Gauss-Jordan routine, _echelon,
does every elimination: subspace construction, the kernel solve of
Subspace._where_zero, and Matrix.rref_with_pivots, which scales each row
to integers and divides by the pivots at the end.  _where_zero -- the
part of a space that a linear map sends to zero, given the int image of
each canonical row -- is the one kernel solve behind intersections and
every constructor in the algebra module.
Subspace._keeps, a map's nonzero entries applied to the canonical rows,
is the one invariance test, behind verify_megaideal (each derivation's
cells) and check_invariant (the cells of the solved form).

Values become Fractions at the boundary, where they are checked and
coerced: Matrix(...), Subspace.spanned_by, Subspace.basis and contains.
The trusted internal paths check nothing: Subspace._from_rows and
_reduce take sparse int rows, _where_zero sparse int images,
Matrix._from_rows dense Fraction rows.
"""

from __future__ import annotations

import re
from fractions import Fraction
from math import gcd, lcm
from typing import Iterable, Mapping, Sequence

Vector = tuple[Fraction, ...]
Row = dict[int, int]  # column -> nonzero int; never changed once built

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
        rows, pivots = _echelon(map(_integral, self.entries))
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


def _integral(row: Iterable) -> Row:
    """The smallest positive multiple of a rational row with int entries, as a sparse row."""
    row = tuple(row)
    d = lcm(*(x.denominator for x in row))
    return {k: x.numerator * (d // x.denominator) for k, x in enumerate(row) if x}


def _axpy(a: int, x: Row, b: int, y: Row) -> Row:
    """a x + b y as a new row, for a != 0: an entry that cancels is dropped."""
    out = {k: a * v for k, v in x.items()} if a != 1 else dict(x)
    for k, v in y.items():
        if s := out.get(k, 0) + b * v:
            out[k] = s
        else:
            del out[k]
    return out


def _echelon(rows: Iterable[Row]) -> tuple[list[Row], tuple[int, ...]]:
    """Fraction-free Gauss-Jordan elimination of int rows; the one elimination.

    Returns one row per pivot column, in increasing pivot order: primitive
    (the gcd of its entries is taken out), positive at its pivot and zero in
    every other pivot column.  That is each RREF row times the lcm of its
    denominators, so the result is exactly as canonical as the RREF.  Each
    pivot is the least column present in a remaining row, taken from the
    first such row: the leftmost-first order of dense elimination.

    A reduced row is zero exactly when it has no entry, and it is dropped
    at that step; a row of `done` never becomes zero, being independent of
    the pivot row.  The given rows are never changed.
    """
    rest = [row for row in rows if row]
    done: list[Row] = []
    pivots: list[int] = []
    while rest:
        c = min(map(min, rest))
        p = rest.pop(next(i for i, row in enumerate(rest) if c in row))
        g = gcd(*p.values()) if p[c] > 0 else -gcd(*p.values())
        if g != 1:
            p = {j: x // g for j, x in p.items()}
        a = p[c]
        for group in (done, rest):
            for k, row in enumerate(group):
                if b := row.get(c):
                    row = _axpy(a, row, -b, p)
                    g = gcd(*row.values())
                    group[k] = {j: x // g for j, x in row.items()} if g > 1 else row
        rest = [row for row in rest if row]
        done.append(p)
        pivots.append(c)
    return done, tuple(pivots)


def _normalized(rows: Sequence[Row], pivots: Sequence[int], cols: int) -> Matrix:
    """The RREF of canonical rows: each row divided by its pivot, as dense Fraction rows."""
    out = []
    for p, row in zip(pivots, rows):
        dense = [Fraction(0)] * cols
        for k, x in row.items():
            dense[k] = Fraction(x, row[p])
        out.append(tuple(dense))
    return Matrix._from_rows(out, cols)


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
    and the trusted _from_rows takes sparse int rows.  full and _where_zero
    build rows that are already canonical, and skip the elimination.
    """

    __slots__ = ("ambient_dim", "rows", "pivots", "_basis")

    def __new__(cls, *args, **kwargs):
        raise TypeError("Subspace has no public constructor; use Subspace.spanned_by")

    @staticmethod
    def _from_rows(ambient_dim: int, rows: Iterable[Row]) -> Subspace:
        """Trusted constructor: the span of int rows with columns in range(ambient_dim)."""
        space = object.__new__(Subspace)
        space.__post_init__(ambient_dim, *_echelon(rows))
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
        units = ({i: 1} for i in range(ambient_dim))
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

    def _reduce(self, v: Row) -> Row:
        """The remainder of an int row in the ambient space, fraction-free and unchecked.

        The remainder comes out times the product of the pivot entries,
        whatever v is: a row whose pivot is not 1 scales v even where v
        has no entry at it.  So _reduce is linear, and remainders of
        different vectors can be added.
        """
        for p, row in zip(self.pivots, self.rows):
            if not v:
                break
            f, a = v.get(p), row[p]
            if f:
                v = _axpy(a, v, -f, row)
            elif a != 1:
                v = {k: a * x for k, x in v.items()}
        return v

    def contains(self, v: Sequence) -> bool:
        v = vec(v)
        if len(v) != self.ambient_dim:
            raise AmbientMismatch("vector length does not match ambient dimension")
        return not self._reduce(_integral(v))

    def contains_subspace(self, other: "Subspace") -> bool:
        self._check_ambient(other)
        return not any(map(self._reduce, other.rows))

    def _keeps(self, cells: Mapping[tuple[int, int], int | Fraction]) -> bool:
        """Whether the map with nonzero entries cells = {(i, j): m[i][j]} keeps this space.

        The one invariance test: the entries times the lcm of their
        denominators, one positive factor for every image, act on each
        canonical int row, and each image must reduce to zero.
        """
        scale = lcm(*(q.denominator for q in cells.values()))
        columns: dict[int, list[tuple[int, int]]] = {}  # j -> [(i, m[i][j] * scale), ...]
        for (i, j), q in cells.items():
            columns.setdefault(j, []).append((i, q.numerator * (scale // q.denominator)))
        for row in self.rows:
            image: dict[int, int] = {}
            for j, x in row.items():
                for i, q in columns.get(j, ()):
                    image[i] = image.get(i, 0) + q * x
            if self._reduce({i: y for i, y in image.items() if y}):
                return False
        return True

    # -- lattice operations ---------------------------------------------------

    def _where_zero(self, images: Iterable[Row]) -> "Subspace":
        """{sum t_i rows[i] : sum t_i images[i] = 0}, from the int image of each canonical row.

        The images are taken of `rows`, not of the basis rows.  Each image is
        tagged with its row, shifted past the last image column, and one
        elimination of the tagged rows leaves the kernel in the rows whose
        pivot lands on a tag: their image part is zero, and their tag part
        is the canonical form of the kernel.
        """
        images = list(images)
        width = 1 + max((k for image in images for k in image), default=-1)
        if not width:
            return self
        tags = ({width + k: x for k, x in row.items()} for row in self.rows)
        rows, pivots = _echelon({**image, **tag} for image, tag in zip(images, tags))
        space = object.__new__(Subspace)
        space.__post_init__(
            self.ambient_dim,
            ({k - width: x for k, x in row.items()} for p, row in zip(pivots, rows) if p >= width),
            tuple(p - width for p in pivots if p >= width),
        )
        return space

    def sum(self, other: "Subspace") -> "Subspace":
        self._check_ambient(other)
        return Subspace._from_rows(self.ambient_dim, self.rows + other.rows)

    def intersect(self, other: "Subspace") -> "Subspace":
        """The part of this space whose remainder against `other` is zero."""
        self._check_ambient(other)
        return self._where_zero(map(other._reduce, self.rows))

