import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from megalie.linalg import AmbientMismatch, Matrix, Subspace, kernel, rat


def F(x):
    return Fraction(x)


class TestRat:
    def test_literals(self):
        assert rat("-3/2") == Fraction(-3, 2)
        assert rat("0") == 0
        assert rat("7") == 7

    @pytest.mark.parametrize("bad", ["1/0", "1.5", "a", "1e3", "--2", "3/"])
    def test_rejects(self, bad):
        with pytest.raises(ValueError):
            rat(bad)


class TestRref:
    def test_rank_one_collapse(self):
        assert Matrix([[2, 4], [1, 2]]).rref_with_pivots() == (Matrix([[1, 2]]), (0,))

    def test_identity_fixed(self):
        assert Matrix.identity(3).rref_with_pivots() == (Matrix.identity(3), (0, 1, 2))

    def test_hand_reduction(self):
        # R3 -= R1; R3 += R2; R1 -= R2
        m = Matrix([[1, 1, 0], [0, 1, 1], [1, 0, -1]])
        assert m.rref_with_pivots() == (Matrix([[1, 0, -1], [0, 1, 1]]), (0, 1))


class TestKernel:
    def test_zero_matrix(self):
        assert kernel(Matrix.zeros(2, 3)) == Subspace.full(3)

    def test_identity(self):
        assert kernel(Matrix.identity(3)) == Subspace.zero(3)

    def test_multiply_back(self):
        m = Matrix([[1, 2, 3]])
        k = kernel(m)
        assert k.dim == 2
        for v in k.basis.entries:
            assert m.matvec(v) == (F(0),)


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
        assert s.contains([2, 2, 5])
        assert not s.contains([1, 0, 0])

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
        # basis rows (1,2,0,0), (0,0,1,-1); the map sends them to 1 and 2
        s = Subspace.spanned_by(4, [[1, 2, 0, 0], [0, 0, 1, -1]])
        cut = s.where_zero([(F(1),), (F(2),)], provenance="cut")
        assert cut == Subspace.spanned_by(4, [[2, 4, -1, 1]])
        assert cut.provenance == "cut"

    def test_where_zero_of_zero_map_is_whole_space(self):
        s = Subspace.spanned_by(3, [[1, 1, 0]])
        assert s.where_zero([(F(0), F(0))], provenance="p") == s
        assert s.where_zero([()]) == s
        assert Subspace.zero(3).where_zero([]) == Subspace.zero(3)

    def test_coordinates(self):
        s = Subspace.spanned_by(3, [[1, 1, 0], [0, 0, 1]])
        assert s.coordinates([2, 2, 5]) == (F(2), F(5))
        assert s.coordinates([1, 0, 0]) is None


class TestCanonicalForm:
    def test_constructor_canonicalizes_basis(self):
        s = Subspace(3, Matrix([[2, 4, 0], [1, 2, 1], [3, 6, 1]]))
        assert s.basis == Matrix([[1, 2, 0], [0, 0, 1]])
        assert s.pivots == (0, 2)
        assert s == Subspace.spanned_by(3, [[0, 0, 1], [1, 2, 0]])

    def test_spanned_by_reduces_once(self, monkeypatch):
        calls = []
        original = Matrix.rref_with_pivots

        def counting(self):
            calls.append(self.rows)
            return original(self)

        monkeypatch.setattr(Matrix, "rref_with_pivots", counting)
        s = Subspace.spanned_by(4, [[1, 2, 0, 0], [2, 4, 1, 0], [0, 0, 3, 0]])
        assert len(calls) == 1
        renamed = s.with_provenance("renamed")
        s.reduce([1, 1, 1, 1])
        s.coordinates([1, 2, 1, 0])
        assert len(calls) == 1
        assert renamed == s and renamed.pivots == s.pivots == (0, 2)
        assert renamed.provenance == "renamed" and s.provenance == ""


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
            assert all(x == 0 for x in m.matvec(v))

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
        assert m @ m.inverse() == Matrix.identity(2)

    def test_singular_inverse_raises(self):
        with pytest.raises(ValueError):
            Matrix([[1, 2], [2, 4]]).inverse()

    def test_power(self):
        m = Matrix([[0, 1], [0, 0]])
        assert not m.is_zero() and (m @ m).is_zero()
        assert Matrix.identity(2) @ m == m @ Matrix.identity(2) == m
