import copy
import math
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import dense
from megalie import linalg
from megalie.algebra import derivations, transporter
from megalie.linalg import AmbientMismatch, Matrix, Subspace, rat
from megalie.megaideals import closure


def F(x):
    return Fraction(x)


def matvec(m, v):
    """m times the column vector v, one dot product per row."""
    return tuple(sum((x * y for x, y in zip(row, v, strict=True)), Fraction(0)) for row in m.entries)


def cells(m):
    """The nonzero entries of m as {(i, j): m[i][j]}, the map form _keeps reads."""
    return {(i, j): x for i, row in enumerate(m.entries) for j, x in enumerate(row) if x}


def identity(n):
    return Matrix([[int(i == j) for j in range(n)] for i in range(n)])


def kernel(m):
    """{v : m @ v = 0}, by the engine's one kernel solve: _where_zero on the full space.

    The image of unit vector j is column j of m, once each row of m is
    scaled to ints, which keeps the kernel.
    """
    rows = [lcm_scaled(row) for row in m.entries]
    return Subspace.full(m.cols)._where_zero(
        {i: row[j] for i, row in enumerate(rows) if j in row} for j in range(m.cols)
    )


class TestRat:
    def test_literals(self):
        assert rat("-3/2") == Fraction(-3, 2)
        assert rat("0") == 0
        assert rat("7") == 7

    @pytest.mark.parametrize(
        "bad",
        ["1/0", "1.5", "a", "1e3", "--2", "3/", "٣", "1/٣", "²", True, False]
        + [" 1", "1 ", "1\n", "\u00a01", "1/ 2", "- 1"],
    )
    def test_rejects(self, bad):
        # a bool is an int to Python, but a JSON true is not the rational 1
        with pytest.raises(TypeError if isinstance(bad, bool) else ValueError):
            rat(bad)


class TestRref:
    def test_rank_one_collapse(self):
        assert Matrix([[2, 4], [1, 2]]).rref_with_pivots() == (Matrix([[1, 2]]), (0,))

    def test_identity_fixed(self):
        assert identity(3).rref_with_pivots() == (identity(3), (0, 1, 2))

    def test_hand_reduction(self):
        # R3 -= R1; R3 += R2; R1 -= R2
        m = Matrix([[1, 1, 0], [0, 1, 1], [1, 0, -1]])
        assert m.rref_with_pivots() == (Matrix([[1, 0, -1], [0, 1, 1]]), (0, 1))


class TestKernel:
    def test_zero_matrix(self):
        assert kernel(Matrix([[0, 0, 0], [0, 0, 0]])) == Subspace.full(3)

    def test_identity(self):
        assert kernel(identity(3)) == Subspace.zero(3)

    def test_multiply_back(self):
        m = Matrix([[1, 2, 3]])
        k = kernel(m)
        assert k.dim == 2
        for v in k.basis.entries:
            assert matvec(m, v) == (F(0),)


class TestSubspaceOps:
    def test_sum_of_axes(self):
        e1 = Subspace.spanned_by(3, [[1, 0, 0]])
        e2 = Subspace.spanned_by(3, [[0, 1, 0]])
        assert e1.sum(e2) == Subspace.spanned_by(3, [[1, 0, 0], [0, 1, 0]])

    def test_intersect_planes(self):
        a = Subspace.spanned_by(3, [[1, 0, 0], [0, 1, 0]])
        b = Subspace.spanned_by(3, [[0, 1, 0], [0, 0, 1]])
        assert a.intersect(b) == Subspace.spanned_by(3, [[0, 1, 0]])

    def test_intersect_skew_planes(self):
        # a(1,1,0) + b(0,0,1) = c(1,0,0) + d(0,1,1) forces a=c=d=b
        a = Subspace.spanned_by(3, [[1, 1, 0], [0, 0, 1]])
        b = Subspace.spanned_by(3, [[1, 0, 0], [0, 1, 1]])
        assert a.intersect(b) == Subspace.spanned_by(3, [[1, 1, 1]])

    def test_contains(self):
        s = Subspace.spanned_by(3, [[1, 1, 0], [0, 0, 1]])
        assert s.contains([2, 2, 5]) and s.contains(["1/2", "1/2", -3])
        assert not s.contains([1, 0, 0]) and not s.contains(["0", "1", "0"])

    def test_ambient_mismatch(self):
        a = Subspace.spanned_by(2, [[1, 0]])
        b = Subspace.spanned_by(3, [[1, 0, 0]])
        with pytest.raises(AmbientMismatch):
            a.sum(b)
        with pytest.raises(AmbientMismatch):
            a.intersect(b)
        with pytest.raises(AmbientMismatch):
            a.contains([1, 0, 0])

    def test_where_zero_maps_kernel_back(self):
        # canonical rows (1,2,0,0), (0,0,1,-1); the map sends them to 1 and 2
        s = Subspace.spanned_by(4, [[1, 2, 0, 0], [0, 0, 1, -1]])
        cut = s._where_zero([{0: 1}, {0: 2}])
        assert cut == Subspace.spanned_by(4, [[2, 4, -1, 1]])

    def test_where_zero_of_zero_map_is_whole_space(self):
        s = Subspace.spanned_by(3, [[1, 1, 0]])
        assert s._where_zero([{}]) is s
        assert Subspace.full(2)._where_zero([{}, {}]) == Subspace.full(2)
        assert Subspace.zero(3)._where_zero([]) == Subspace.zero(3)


class TestCanonicalForm:
    def test_constructor_canonicalizes_basis(self):
        s = Subspace.spanned_by(3, [[2, 4, 0], [1, 2, 1], [3, 6, 1]])
        assert s.basis == Matrix([[1, 2, 0], [0, 0, 1]])
        assert s.pivots == (0, 2)
        assert s == Subspace.spanned_by(3, [[0, 0, 1], [1, 2, 0]])

    def test_equal_subspaces_hash_alike(self):
        s = Subspace.spanned_by(3, [[2, 4, 0], [1, 2, 1], [3, 6, 1]])
        t = Subspace.spanned_by(3, [[0, 0, 1], [1, 2, 0]])
        assert s == t and hash(s) == hash(t)
        same_pivots = Subspace.spanned_by(3, [[1, 3, 0], [0, 0, 1]])
        assert same_pivots != s and len({s, t, same_pivots}) == 2

    def test_bare_constructor_points_to_spanned_by(self):
        with pytest.raises(TypeError, match=r"Subspace\.spanned_by"):
            Subspace()

    def test_plain_value_with_one_checked_constructor(self):
        # the canonical form and the cached basis, no label, no public __init__
        assert Subspace.__slots__ == ("ambient_dim", "rows", "pivots", "_basis")
        assert "__init__" not in vars(Subspace) and not hasattr(Subspace, "with_provenance")
        with pytest.raises(TypeError):
            Subspace(3, Matrix([[1, 0, 0]]))
        s = Subspace.spanned_by(3, [("1/2", 1, 0), (F(1), 2, 0)])
        assert s.rows == ({0: 1, 1: 2},) and s.pivots == (0,)
        with pytest.raises(AmbientMismatch):
            Subspace.spanned_by(3, [(1, 0, 0), (1, 0)])
        with pytest.raises(ValueError):
            Subspace.spanned_by(2, [("1/0", 1)])
        with pytest.raises(TypeError):
            Subspace.spanned_by(2, [(0.5, 1)])

    def test_spanned_by_reduces_once(self, monkeypatch):
        calls = []
        original = linalg._echelon

        def counting(rows):
            rows = list(rows)
            calls.append(len(rows))
            return original(rows)

        monkeypatch.setattr(linalg, "_echelon", counting)
        s = Subspace.spanned_by(4, [[1, 2, 0, 0], [2, 4, 1, 0], [0, 0, 3, 0]])
        assert calls == [3]
        s._reduce({0: 1, 1: 1, 2: 1, 3: 1})
        s.contains([1, 1, 1, 1])
        assert calls == [3]
        # membership and remainders run on the int rows; the Fraction basis stays unbuilt
        assert s._basis is None
        assert s.pivots == (0, 2)


entry = st.fractions(min_value=Fraction(-6), max_value=Fraction(6), max_denominator=4)


def matrices(rows, cols):
    return st.lists(
        st.lists(entry, min_size=cols, max_size=cols), min_size=rows, max_size=rows
    ).map(Matrix)


@st.composite
def subspace_pairs(draw):
    n = draw(st.integers(min_value=1, max_value=5))
    ra = draw(st.integers(min_value=0, max_value=n))
    rb = draw(st.integers(min_value=0, max_value=n))
    rows_a = draw(st.lists(st.lists(entry, min_size=n, max_size=n), min_size=ra, max_size=ra))
    rows_b = draw(st.lists(st.lists(entry, min_size=n, max_size=n), min_size=rb, max_size=rb))
    return Subspace.spanned_by(n, rows_a), Subspace.spanned_by(n, rows_b)


class TestProperties:
    @given(matrices(3, 4))
    @settings(max_examples=60, deadline=None)
    def test_rref_idempotent(self, m):
        r, pivots = m.rref_with_pivots()
        assert r.rref_with_pivots() == (r, pivots)

    @given(subspace_pairs())
    @settings(max_examples=80, deadline=None)
    def test_dimension_identity(self, pair):
        a, b = pair
        assert a.sum(b).dim + a.intersect(b).dim == a.dim + b.dim

    @given(matrices(3, 5))
    @settings(max_examples=60, deadline=None)
    def test_kernel_soundness(self, m):
        for v in kernel(m).basis.entries:
            assert all(x == 0 for x in matvec(m, v))

    @given(subspace_pairs(), st.randoms(use_true_random=False))
    @settings(max_examples=60, deadline=None)
    def test_equality_canonical_under_permutation(self, pair, rng):
        a, _ = pair
        generators = list(a.basis.entries)
        rng.shuffle(generators)
        assert Subspace.spanned_by(a.ambient_dim, generators) == a

    def test_bulk_dimension_identity(self):
        # 500 seeded random pairs in ambient dimension up to 8
        rng = random.Random(20240817)
        for _ in range(500):
            n = rng.randint(1, 8)
            rows_a = [
                [Fraction(rng.randint(-4, 4)) for _ in range(n)]
                for _ in range(rng.randint(0, n))
            ]
            rows_b = [
                [Fraction(rng.randint(-4, 4)) for _ in range(n)]
                for _ in range(rng.randint(0, n))
            ]
            a = Subspace.spanned_by(n, rows_a)
            b = Subspace.spanned_by(n, rows_b)
            assert a.sum(b).dim + a.intersect(b).dim == a.dim + b.dim


class TestMatrixBasics:
    def test_inverse_roundtrip(self):
        m = Matrix([[1, 2], [3, 5]])
        assert m @ m.inverse() == identity(2)

    def test_singular_inverse_raises(self):
        with pytest.raises(ValueError):
            Matrix([[1, 2], [2, 4]]).inverse()

    def test_power(self):
        m = Matrix([[0, 1], [0, 0]])
        zero = Matrix([[0, 0], [0, 0]])
        assert m != zero and m @ m == zero
        assert identity(2) @ m == m @ identity(2) == m


class TestCoercionBoundary:
    """Outside values become Fractions at the checked entry points, and the
    trusted internal paths hand back nothing else."""

    @staticmethod
    def fractions_only(rows):
        return all(type(x) is Fraction for row in rows for x in row)

    def test_matrix_literals(self):
        m = Matrix([[1, "1/2"]])
        assert m.entries == ((F(1), Fraction(1, 2)),)
        assert self.fractions_only(m.entries)
        assert self.fractions_only((m @ Matrix([[2], ["-3"]])).entries)

    def test_bracket_of_ints_and_strings(self, m5):
        pairs = [([1, 0, 0, 1, 0], [0, 0, 1, 0, 1]), (["1", "0", "2/3", 0, 0], [0, "-1", 0, "1/2", 1])]
        for x, y in pairs:
            assert self.fractions_only([m5.bracket(x, y)])
        assert m5.bracket([0, 0, 1, 0, 0], ["0", "0", "0", "1", "0"]) == m5.bracket(
            [F(0), F(0), F(1), F(0), F(0)], [F(0), F(0), F(0), F(1), F(0)]
        )

    def test_where_zero_with_int_images(self):
        # the solve runs on the int images of the unit rows; the basis handed
        # out is still made of Fraction rows
        got = Subspace.full(3)._where_zero([{0: 1}, {0: 2}, {0: 3}])
        assert got.dim == 2
        assert self.fractions_only(got.basis.entries)
        got = Subspace.full(3)._where_zero([{0: 1}, {0: 1}, {1: 2}])
        assert got == Subspace.spanned_by(3, [(1, -1, 0)])
        assert self.fractions_only(got.basis.entries)
        # the kernel rows come out already reduced, with int entries
        got = Subspace.full(3)._where_zero([{}, {0: 1}, {0: -1}])
        assert got.basis.entries == ((1, 0, 0), (0, 1, 1))
        assert self.fractions_only(got.basis.entries)
        assert Subspace.full(2)._where_zero([{}, {}]) == Subspace.full(2)

    def test_full_is_the_canonical_identity(self):
        # full builds its unit rows and pivots without elimination
        for n in range(1, 6):
            full, spanned = Subspace.full(n), Subspace.spanned_by(n, identity(n).entries)
            assert full == spanned and full.pivots == spanned.pivots == tuple(range(n))
            assert full.rows == spanned.rows and all(type(x) is int for row in full.rows for x in row.values())
            assert hash(full) == hash(spanned) and full.is_full()
        assert Subspace.full(0) == Subspace.zero(0) and Subspace.full(0).is_full()

    def test_subspace_brackets_check_ambient(self, m5):
        from megalie.algebra import bracket_subspaces, transporter

        small, full = Subspace.full(3), m5.full_space()
        for args in ((small, full, full), (full, small, full), (full, full, small)):
            with pytest.raises(AmbientMismatch):
                transporter(m5, *args)
        with pytest.raises(AmbientMismatch):
            bracket_subspaces(m5, full, small)


# ---------------------------------------------------------------------------
# the Fraction Gauss-Jordan loop that the integer core replaced, kept as the
# reference: RREF, reduction against an RREF basis, and the kernel solve on it


def reference_rref(rows, cols):
    """RREF of Fraction rows with zero rows removed, plus pivot columns."""
    m = [list(row) for row in rows]
    pivots = []
    r = 0
    for c in range(cols):
        pivot_row = next((i for i in range(r, len(m)) if m[i][c] != 0), None)
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
    return [tuple(row) for row in m[:r]], tuple(pivots)


def reference_reduce(basis, pivots, v):
    for p, row in zip(pivots, basis):
        f = v[p]
        if f:
            v = tuple(a - f * b for a, b in zip(v, row))
    return v


def reference_where_zero(basis, cols, images):
    """{sum t_i basis[i] : sum t_i images[i] = 0}, as (RREF, pivots)."""
    dim = len(basis)
    reduced, pivots = reference_rref([row for row in zip(*images) if any(row)], dim)
    vectors = []
    for f in (c for c in range(dim) if c not in pivots):
        t = [Fraction(0)] * dim
        t[f] = Fraction(1)
        for r, p in enumerate(pivots):
            t[p] = -reduced[r][f]
        vectors.append([sum(t[i] * basis[i][k] for i in range(dim)) for k in range(cols)])
    return reference_rref(vectors, cols)


def lcm_scaled(row):
    """A rational row times the lcm of its denominators, as a sparse int row."""
    row = list(row)
    d = math.lcm(*(x.denominator for x in row))
    return {k: int(x * d) for k, x in enumerate(row) if x}


rational = st.fractions(min_value=Fraction(-9), max_value=Fraction(9), max_denominator=12)


@st.composite
def rational_rows(draw, cols):
    """Rows with denominators, negative and non-unit pivots, zero and repeated rows."""
    row = st.lists(rational | st.just(Fraction(0)), min_size=cols, max_size=cols)
    rows = draw(st.lists(row, max_size=6))
    for _ in range(draw(st.integers(0, 3))):
        at = draw(st.integers(0, len(rows)))
        scale = draw(rational)
        source = rows[draw(st.integers(0, len(rows) - 1))] if rows else [Fraction(0)] * cols
        rows.insert(at, [scale * x for x in source])
    return rows


@st.composite
def rational_spaces(draw):
    cols = draw(st.integers(1, 6))
    return cols, draw(rational_rows(cols))


class TestIntegerCoreAgainstReference:
    """The fraction-free core gives exactly the Fraction loop's RREF, pivots,
    remainders and kernels, and its canonical rows are the RREF rows times
    the lcm of their denominators."""

    @given(rational_spaces())
    @settings(max_examples=100, deadline=None)
    # rows that cancel to zero at a later pivot, and repeated rows
    @example((3, [list(map(Fraction, row)) for row in ((1, 1, 0), (0, 1, 1), (1, 2, 1))]))
    @example((3, [list(map(Fraction, row)) for row in [(1, 2, 3), (0, 1, 1)] * 2 + [(2, 4, 6)]]))
    def test_rref_and_canonical_rows(self, space):
        cols, rows = space
        basis, pivots = reference_rref(rows, cols)
        assert Matrix._from_rows(map(tuple, rows), cols).rref_with_pivots() == (
            Matrix._from_rows(basis, cols),
            pivots,
        )
        s = Subspace.spanned_by(cols, rows)
        assert s.basis == Matrix._from_rows(basis, cols) and s.pivots == pivots
        assert s.rows == tuple(map(lcm_scaled, basis))
        assert all(type(x) is int for row in s.rows for x in row.values())
        from_reference = Subspace.spanned_by(cols, basis[::-1])
        assert from_reference == s and hash(from_reference) == hash(s)
        # the trusted int path reaches the same canonical rows from unreduced ints
        from_ints = Subspace._from_rows(cols, map(lcm_scaled, rows))
        assert from_ints.rows == s.rows and from_ints.pivots == pivots
        shifted = Subspace.spanned_by(cols, [[x + 1 for x in row] for row in basis])
        assert (shifted == s) == (shifted.basis == s.basis)

    @pytest.mark.parametrize("n", [1, 2, 5, 12])
    def test_full_is_the_span_of_the_units(self, n):
        units = [[int(i == j) for j in range(n)] for i in range(n)]
        full = Subspace.full(n)
        assert full == Subspace.spanned_by(n, units)
        assert full.rows == tuple({i: 1} for i in range(n)) and full.pivots == tuple(range(n))

    @given(rational_spaces(), st.data())
    @settings(max_examples=100, deadline=None)
    def test_reduce(self, space, data):
        cols, rows = space
        s = Subspace.spanned_by(cols, rows)
        basis, pivots = reference_rref(rows, cols)
        vector = st.lists(rational, min_size=cols, max_size=cols)
        u, w = data.draw(vector), data.draw(vector)
        # u times the lcm d of its denominators, reduced on the int rows, comes
        # out as d times the remainder times the product of the pivot entries
        d = math.lcm(*(x.denominator for x in u))
        scale = d * math.prod(row[p] for p, row in zip(pivots, s.rows))
        expected = reference_reduce(basis, pivots, tuple(u))
        assert dense(s._reduce(lcm_scaled(u)), cols) == tuple(x * scale for x in expected)
        assert s.contains(u) == (not any(expected))
        # on int rows the remainder is one fixed multiple of the true one, so it is linear
        iu, iw, total = (lcm_scaled(x * 720720 for x in v) for v in (u, w, map(sum, zip(u, w))))
        remainders = (dense(s._reduce(v), cols) for v in (iu, iw))
        assert dense(s._reduce(total), cols) == tuple(map(sum, zip(*remainders)))

    @given(rational_spaces(), st.data())
    @settings(max_examples=100, deadline=None)
    def test_where_zero(self, space, data):
        cols, rows = space
        s = Subspace.spanned_by(cols, rows)
        width = data.draw(st.integers(0, 4))
        images = data.draw(
            st.lists(st.lists(rational, min_size=width, max_size=width), min_size=s.dim, max_size=s.dim)
        )
        # images[i] is the image of canonical row i; all times one lcm, to ints
        canonical = [tuple(map(Fraction, dense(row, cols))) for row in s.rows]
        basis, pivots = reference_where_zero(canonical, cols, images)
        d = math.lcm(*(x.denominator for image in images for x in image))
        got = s._where_zero(lcm_scaled(x * d for x in image) for image in images)
        assert got.basis == Matrix._from_rows(basis, cols) and got.pivots == pivots
        assert got == Subspace.spanned_by(cols, basis)

    @given(rational_spaces(), st.data())
    @settings(max_examples=100, deadline=None)
    def test_keeps(self, space, data):
        """_keeps on the nonzero cells of m agrees with m applied to each RREF row."""
        cols, rows = space
        # dense, or mostly zero with zero rows and columns, or the zero matrix
        zero = st.just(Fraction(0))
        cell = data.draw(st.sampled_from([rational, st.one_of(zero, zero, zero, rational), zero]))
        entries = st.lists(st.lists(cell, min_size=cols, max_size=cols), min_size=cols, max_size=cols)
        m = Matrix(data.draw(entries))
        basis, pivots = reference_rref(rows, cols)
        images = (matvec(m, row) for row in basis)
        expected = not any(any(reference_reduce(basis, pivots, image)) for image in images)
        keeps = Subspace.spanned_by(cols, rows)._keeps(cells(m))
        assert keeps == expected
        # the zero matrix keeps every space
        assert keeps or any(x for row in m.entries for x in row)
        # P B P^-1 keeps the span of P's first k columns when B keeps that of e_0 .. e_k-1
        k = data.draw(st.integers(0, cols))
        block = [[data.draw(rational) if i < k or j >= k else 0 for j in range(cols)] for i in range(cols)]
        unit_lower = [[data.draw(rational) if i > j else int(i == j) for j in range(cols)] for i in range(cols)]
        block, p = Matrix(block), Matrix(unit_lower)
        first_columns = [[row[j] for row in p.entries] for j in range(k)]
        assert Subspace.spanned_by(cols, first_columns)._keeps(cells(p @ block @ p.inverse()))


def assert_canonical_rows(s):
    """Sparse canonical rows: nonzero ints only, columns in the ambient range,
    and the least column of each row its pivot, with a positive value."""
    assert len(s.rows) == len(s.pivots)
    for p, row in zip(s.pivots, s.rows):
        assert all(type(x) is int and x != 0 for x in row.values()), row
        assert all(0 <= k < s.ambient_dim for k in row), row
        assert min(row) == p and row[p] > 0, row


class TestSparseRows:
    """Every result has sparse canonical rows, and no operation changes the
    row dicts it is given: each is compared with a deep copy taken before."""

    @given(st.data())
    @settings(max_examples=100, deadline=None)
    def test_subspace_operations(self, data):
        cols = data.draw(st.integers(1, 6))
        rows = data.draw(rational_rows(cols))
        a, b = Subspace.spanned_by(cols, rows), Subspace.spanned_by(cols, data.draw(rational_rows(cols)))
        value = st.integers(-4, 4).filter(bool)
        images = [data.draw(st.dictionaries(st.integers(0, 3), value)) for _ in a.rows]
        # unreduced int rows: negative leading entries and a common factor
        ints = [{0: -2, cols: 4}, {cols + 1: -3}] + [lcm_scaled(row) for row in rows]
        operands = (ints, a.rows, b.rows, images)
        before = copy.deepcopy(operands)
        results = [
            Subspace._from_rows(cols + 2, ints),
            a.sum(b),
            a.intersect(b),
            b.intersect(a),
            a._where_zero(images),
        ]
        assert operands == before
        for s in results + [a, b]:
            assert_canonical_rows(s)

    def test_algebra_operations(self, m5, reference_lattices):
        for g, lattice in [(m5, closure(m5)), reference_lattices["L6/rational"], reference_lattices["h3"]]:
            members = lattice.members
            for call in (
                lambda: [transporter(g, a, b, c) for a in members[:4] for b in members for c in members[-3:]],
                lambda: [derivations(g)],
                lambda: closure(g, members[1:4], budget=1).members,
            ):
                before = copy.deepcopy(([s.rows for s in members], g._nonzero))
                results = call()
                assert ([s.rows for s in members], g._nonzero) == before, g.name
                for s in results:
                    assert_canonical_rows(s)
