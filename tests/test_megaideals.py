import fractions
import itertools
import random
import sys
import weakref
from collections import Counter
from dataclasses import replace
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import megalie.algebra
from conftest import dense
from megalie.algebra import (
    NotAnIdeal,
    algebra_from_brackets,
    bracket_subspaces,
    center,
    change_basis,
    derivations,
    derived_series,
    is_ideal,
    lower_central_series,
    nilradical_approx,
    transporter,
    upper_central_series,
    validate,
)
from megalie.linalg import Matrix, Subspace, unit_vector
from megalie.megaideals import (
    TRANSPORTER_COMPLETENESS_NOTE,
    MegaidealVerdict,
    closure,
    essential_filter,
    verify_megaideal,
)


def span(n, *rows):
    return Subspace.spanned_by(n, rows)


def matvec(m, v):
    """m times the column vector v, one dot product per row."""
    return tuple(sum((x * y for x, y in zip(row, v, strict=True)), Fraction(0)) for row in m.entries)


def filiform(n):
    """L_n: [e1, ei] = e(i+1) for 2 <= i < n."""
    names = [f"e{i}" for i in range(1, n + 1)]
    return algebra_from_brackets(f"L{n}", names, {(0, i): {i + 1: 1} for i in range(1, n - 1)})


def rebind(monkeypatch, original, replacement):
    """Replace every binding of `original` inside the megalie package."""
    for module in [m for name, m in sys.modules.items() if name.split(".")[0] == "megalie"]:
        for attr in [a for a, value in vars(module).items() if value is original]:
            monkeypatch.setattr(module, attr, replacement)


def matrix_units(name, cells):
    """The span of the matrix units E_ij, (i, j) in cells, under the commutator;
    a Lie algebra when the cells are closed under composition."""
    index = {cell: k for k, cell in enumerate(cells)}
    brackets = {}
    for x, (i, j) in enumerate(cells):
        for y, (k, l) in enumerate(cells[x + 1 :], x + 1):
            # [E_ij, E_kl] = delta_jk E_il - delta_li E_kj
            row = Counter()
            if j == k:
                row[index[(i, l)]] += 1
            if l == i:
                row[index[(k, j)]] -= 1
            if any(row.values()):
                brackets[(x, y)] = {key: v for key, v in row.items() if v}
    names = [f"E{i + 1}{j + 1}" for i, j in cells]
    return algebra_from_brackets(name, names, brackets)


def upper_triangular(n):
    """b_n, the upper-triangular n x n matrices, in the basis E_ij for i <= j."""
    return matrix_units(f"b{n}", [(i, j) for i in range(n) for j in range(i, n)])


def m5_chain(m5):
    e = [unit_vector(5, i) for i in range(5)]
    return {
        1: span(5, e[0]),
        2: span(5, e[0], e[1]),
        3: span(5, e[0], e[1], e[2]),
        4: span(5, e[0], e[1], e[2], e[3]),
    }


class TestTransporter:
    def test_whole_algebra_fixed_point(self, m5):
        full = m5.full_space()
        assert transporter(m5, full, full, full) == full

    def test_centralizer_special_case(self, m5):
        # into = 0 reduces the transporter to the centralizer
        chain = m5_chain(m5)
        got = transporter(m5, m5.full_space(), chain[2], m5.zero_space())
        assert got == chain[3]

    def test_literal_value_on_m5(self, m5):
        # {x in m' : [x, m'] <= <q1>}: the brackets [Pt,F2] = 2 F1 and
        # [F2,Pt] = -2 F1 land outside <G1>, so Pt and F2 are excluded and
        # the literal transporter is <G1, F1> -- even though the larger
        # span <G1, F1, Pt> is invariant under every automorphism (the
        # enumeration route in test_automorphisms confirms that).  The
        # constructor must not be "fixed" to include Pt.
        chain = m5_chain(m5)
        got = transporter(m5, chain[4], chain[4], chain[1])
        assert got == chain[2]


class TestClosure:
    def test_abelian_only_trivial(self, abelian3):
        lattice = closure(abelian3)
        assert [e.subspace.dim for e in lattice.entries] == [0, 3]
        assert lattice.reached_fixpoint

    def test_m5_exact_member_set(self, m5):
        lattice = closure(m5)
        chain = m5_chain(m5)
        expected = {chain[1], chain[2], chain[3], chain[4]}
        assert {m for m in lattice.members if not m.is_zero() and not m.is_full()} == expected
        assert lattice.reached_fixpoint
        assert lattice.passes_used <= 2

    def test_sl2d_simple(self, sl2d):
        lattice = closure(sl2d)
        assert [e.subspace.dim for e in lattice.entries] == [0, 3]
        # brute-force oracle: no coordinate span is an invariant ideal
        n = sl2d.dim
        for size in range(1, n):
            for subset in itertools.combinations(range(n), size):
                candidate = span(n, *[unit_vector(sl2d.dim, j) for j in subset])
                assert verify_megaideal(sl2d, candidate) != MegaidealVerdict(True, True)

    def test_closure_idempotent(self, m5, sl2d, heisenberg):
        for g in (m5, sl2d, heisenberg):
            lattice = closure(g)
            again = closure(g, seeds=lattice.members)
            assert set(again.members) == set(lattice.members)

    def test_seed_must_be_ideal(self, m5):
        with pytest.raises(NotAnIdeal):
            closure(m5, seeds=[span(5, unit_vector(5, 3))])

    def test_lattice_closed_under_binary_ops(self, m5, heisenberg):
        for g in (m5, heisenberg):
            members = set(closure(g).members)
            for a in members:
                for b in members:
                    assert a.sum(b) in members
                    assert a.intersect(b) in members
                    assert bracket_subspaces(g, a, b) in members

    def test_budget_truncation_reported(self, m5):
        lattice = closure(m5, budget=1)
        # one pass cannot both generate and confirm the fixpoint
        assert not lattice.reached_fixpoint
        assert lattice.passes_used == 1

    def test_provenance_labels_deterministic(self, m5):
        first = closure(m5)
        second = closure(m5)
        assert [e.provenance for e in first.entries] == [e.provenance for e in second.entries]
        assert [e.aliases for e in first.entries] == [e.aliases for e in second.entries]

    def test_seed_provenance_names_the_seed_position(self):
        g = algebra_from_brackets("ab4", ["a", "b", "c", "d"], {})
        a, b = unit_vector(g.dim, 0), unit_vector(g.dim, 1)
        lattice = closure(g, seeds=[span(4, a), span(4, b), span(4, a, b)], budget=1)
        # sorted by RREF, <b> comes before <a>
        assert [e.provenance for e in lattice.entries] == ["0", "seed1", "seed0", "seed2", "g"]

    def test_fourth_derived_term_and_alias_cap(self):
        """b5, the upper-triangular 5x5 matrices: g'''' = 0 is printed der4(g)."""
        lattice = closure(upper_triangular(5), budget=1)
        zero = lattice.entries[0]
        assert zero.provenance == "0"
        assert zero.aliases == (
            "der4(g)", "[0,0]", "[0,g]", "int(0,g)", "[0,m10]", "int(0,m10)", "[0,m8]", "int(0,m8)"
        )
        assert [e.provenance for e in lattice.entries] == [
            "0", "g'''", "Z(g)", "m1+m2", "[m10,m8]", "C(m10;m8)", "tp(g,m10,m1)", "C(g;m8)",
            "g''", "m8+m2", "g'", "nil(g)", "C(g;m1)", "g",
        ]


class TestEssentialFilter:
    def test_sum_flagged(self):
        g = algebra_from_brackets("ab4", ["a", "b", "c", "d"], {})
        lattice = closure(
            g, seeds=[span(4, [1, 0, 0, 0]), span(4, [0, 1, 0, 0]), span(4, [1, 0, 0, 0], [0, 1, 0, 0])]
        )
        filtered = essential_filter(lattice)
        verdict = {e.subspace: e.essential for e in filtered.entries}
        assert verdict[span(4, [1, 0, 0, 0])]
        assert verdict[span(4, [0, 1, 0, 0])]
        assert not verdict[span(4, [1, 0, 0, 0], [0, 1, 0, 0])]

    def test_m5_chain_all_essential(self, m5):
        filtered = essential_filter(closure(m5))
        assert all(e.essential for e in filtered.entries)

    def test_trivial_lattice_unchanged(self, sl2d):
        filtered = essential_filter(closure(sl2d))
        assert all(e.essential for e in filtered.entries)


class TestVerifyMegaideal:
    def test_invariant_span_with_pt(self, m5):
        # <G1, F1, Pt> is an ideal and derivation-invariant
        s = span(5, unit_vector(5, 0), unit_vector(5, 1), unit_vector(5, 3))
        verdict = verify_megaideal(m5, s)
        assert verdict.is_ideal
        assert verdict.is_derivation_invariant

    def test_non_ideal_detected(self, m5):
        verdict = verify_megaideal(m5, span(5, unit_vector(5, 1)))
        assert not verdict.is_ideal

    def test_full_space_trivially_ok(self, m5):
        assert verify_megaideal(m5, m5.full_space()) == MegaidealVerdict(True, True)

    def test_every_lattice_member_passes(self, m5, sl2d, heisenberg, sl2, abelian3):
        for g in (m5, sl2d, heisenberg, sl2, abelian3):
            for member in closure(g).members:
                assert verify_megaideal(g, member) == MegaidealVerdict(True, True)

    def test_ideal_but_not_derivation_invariant(self, abelian3):
        # every line in an abelian algebra is an ideal, none is invariant
        # under the full derivation algebra gl_3
        s = span(3, [1, 0, 0])
        verdict = verify_megaideal(abelian3, s)
        assert verdict.is_ideal
        assert not verdict.is_derivation_invariant


class TestCoordinateOracle:
    def test_lattice_misses_no_coordinate_invariant_ideal(
        self, heisenberg, sl2d, sl2, abelian3
    ):
        # brute force at dim <= 4: in the lattice-adapted basis, every
        # coordinate span that is an ideal and derivation-invariant must
        # already be a lattice member.  (At dim 5 this deliberately breaks:
        # the M5 span <G1,F1,Pt> is invariant but not constructor-reachable,
        # which is exactly what the enumeration route is for.)
        from megalie.automorphisms import adapted_basis

        aff1 = algebra_from_brackets("aff1", ["h", "e"], {(0, 1): {1: 1}})
        for g in (heisenberg, sl2d, sl2, abelian3, aff1):
            assert g.dim <= 4
            lattice = closure(g)
            members = set(lattice.members)
            basis = adapted_basis(g, lattice)
            rows = basis.change_of_basis.entries
            for size in range(g.dim + 1):
                for subset in itertools.combinations(range(g.dim), size):
                    candidate = span(g.dim, *[rows[j] for j in subset])
                    if verify_megaideal(g, candidate) == MegaidealVerdict(True, True):
                        assert candidate in members


def coordinates(s, v):
    """v over the RREF basis rows of s, which contains it: v at the pivot columns."""
    assert s.contains(v)
    return tuple(v[p] for p in s.pivots)


class TestLatticeLifting:
    def test_members_of_members_lift_to_invariant_subspaces(self, m5, heisenberg):
        # closure inside a lattice member, lifted along the inclusion,
        # lands on subspaces that pass the necessary megaideal conditions
        for g in (m5, heisenberg):
            for member in closure(g).members:
                if member.dim == 0 or member.dim > 6:
                    continue
                # the bracket restricted to the member, on its RREF basis rows
                vectors = member.basis.entries
                small = algebra_from_brackets(
                    "member",
                    [f"s{k}" for k in range(member.dim)],
                    {
                        (i, j): dict(enumerate(coordinates(member, g.bracket(u, v))))
                        for (i, u), (j, v) in itertools.combinations(enumerate(vectors), 2)
                    },
                )
                for inner in closure(small).members:
                    rows = [
                        tuple(sum(t * v[k] for t, v in zip(row, vectors)) for k in range(g.dim))
                        for row in inner.basis.entries
                    ]
                    lifted = Subspace.spanned_by(g.dim, rows)
                    assert verify_megaideal(g, lifted) == MegaidealVerdict(True, True)


def dense_matmul(a, b):
    """Matrix.__matmul__ as a dense product: one dot product per entry."""
    columns = Matrix([[row[j] for row in b.entries] for j in range(b.cols)], cols=b.rows)
    return Matrix([matvec(columns, row) for row in a.entries], cols=b.cols)


def derivation_matrices(g, der):
    """Each canonical row of der = derivations(g), the row-major cells of one basis derivation, as a Matrix."""
    n = g.dim
    rows = (dense(row, n * n) for row in der.rows)
    return [Matrix([row[a * n : (a + 1) * n] for a in range(n)]) for row in rows]


def dense_verify(g, s, der):
    """verify_megaideal as a dense loop: matvec(d, row) and s.contains per basis row."""
    deriv_ok = True
    for d in derivation_matrices(g, der):
        for row in s.basis.entries:
            if not s.contains(matvec(d, row)):
                deriv_ok = False
                break
        if not deriv_ok:
            break
    return is_ideal(g, s), deriv_ok


def dense_transporter(g, within, of, into):
    """The transporter through the checked bracket: for each canonical row w of
    `within`, the remainders against `into` of [w, b] over the rows b of `of`,
    all times the algebra's common denominator, so they are int rows, laid
    end to end as the image of w."""
    n = g.dim

    def remainder(w, b):
        bracket = g.bracket(dense(w, n), dense(b, n))
        return dense(into._reduce({k: int(y * g._denominator) for k, y in enumerate(bracket) if y}), n)

    images = ([x for b in of.rows for x in remainder(w, b)] for w in within.rows)
    return within._where_zero({k: x for k, x in enumerate(image) if x} for image in images)


@st.composite
def triangular_basis(draw, n, rational=False):
    """L @ U, L unit lower and U upper triangular: a random change of basis.

    With `rational`, the entries of U include 1/2, -2/3 and 3/5 and its
    diagonal 2 and -1/3, so the structure constants and the members' RREF
    rows have denominators and the canonical int rows non-unit pivots.
    """
    small, sign = st.integers(-2, 2), st.sampled_from([1, -1])
    if rational:
        small = small | st.sampled_from([Fraction(1, 2), Fraction(-2, 3), Fraction(3, 5)])
        sign = st.sampled_from([1, -1, 2, Fraction(-1, 3)])
    below = [[draw(st.integers(-2, 2)) if i > j else int(i == j) for j in range(n)] for i in range(n)]
    above = [[draw(small) if i < j else draw(sign) if i == j else 0 for j in range(n)] for i in range(n)]
    return dense_matmul(Matrix(below), Matrix(above))


def spans(n):
    rows = st.lists(st.integers(-2, 2), min_size=n, max_size=n)
    return st.lists(rows, max_size=n).map(lambda r: Subspace.spanned_by(n, r))


class TestDenseReference:
    """The sparse derivation check, product and shared transporter solve agree
    exactly with their dense formulas."""

    @given(data=st.data())
    @settings(max_examples=12, deadline=None)
    def test_random_conjugates(self, data, m5, sl2d):
        base = data.draw(st.sampled_from([m5, sl2d, filiform(6)]))
        b = data.draw(triangular_basis(base.dim, rational=data.draw(st.booleans())))
        g = change_basis(base, b)
        # The lattice of base in the coordinates of g, where v = x @ b.  Every
        # solve of the closure of g is an intersection of two of these members
        # or a transporter on three of them with dim(into) <= dim(of), so those
        # are checked first: a wrong solve fails here instead of growing the
        # closure without end.
        inverse = b.inverse()
        lattice = [
            Subspace.spanned_by(g.dim, (m.basis @ inverse).entries) for m in closure(base).members
        ]
        for within, of in itertools.product(lattice, repeat=2):
            meet = within.intersect(of)
            assert within.contains_subspace(meet) and of.contains_subspace(meet)
            assert meet.dim == within.dim + of.dim - within.sum(of).dim
        for within, of, into in itertools.product(lattice, repeat=3):
            if into.dim <= of.dim:
                assert transporter(g, within, of, into) == dense_transporter(g, within, of, into)
        der = derivations(g)
        members = list(closure(g).members)
        assert set(members) == set(lattice)
        drawn = data.draw(st.lists(spans(g.dim), min_size=2, max_size=3))
        spaces = members + drawn
        for s in spaces:
            verdict = verify_megaideal(g, s, der)
            assert (verdict.is_ideal, verdict.is_derivation_invariant) == dense_verify(g, s, der)
        assert all(verify_megaideal(g, s, der) == MegaidealVerdict(True, True) for s in members)
        row = st.lists(st.integers(-2, 2), min_size=g.dim, max_size=g.dim)
        for d in derivation_matrices(g, der)[:3]:
            other = Matrix(data.draw(st.lists(row, min_size=g.dim, max_size=g.dim)))
            assert d @ other == dense_matmul(d, other)
            assert other @ d == dense_matmul(other, d)
        for _ in range(6):
            a, b, c = (data.draw(st.sampled_from(spaces)) for _ in range(3))
            assert transporter(g, a, b, c) == dense_transporter(g, a, b, c)

    def test_false_verdicts_are_exercised(self, m5, sl2d, abelian3):
        # lines are not derivation-invariant here; the abelian line is an ideal
        for g in (m5, sl2d, filiform(6), abelian3):
            g = change_basis(g, Matrix([[int(j >= i) for j in range(g.dim)] for i in range(g.dim)]))
            line = span(g.dim, range(1, g.dim + 1))
            verdict = verify_megaideal(g, line)
            assert not verdict.is_derivation_invariant
            got = (verdict.is_ideal, verdict.is_derivation_invariant)
            assert got == dense_verify(g, line, derivations(g))
            assert verdict.is_ideal == (g.name == "abelian3")


class TestNote:
    def test_completeness_note_is_attached_to_reports(self, m5):
        from megalie.analysis import analyze

        report = analyze(m5)
        assert TRANSPORTER_COMPLETENESS_NOTE in report["lattice"]["notes"]


class TestComputedOnce:
    def test_analyze_solves_derivations_once(self, m5, monkeypatch):
        from megalie.analysis import analyze

        calls = []
        original = megalie.algebra.derivations

        def counted(g):
            calls.append(g)
            return original(g)

        rebind(monkeypatch, original, counted)
        analyze(m5)
        assert len(calls) == 1

    @staticmethod
    def outside_series(monkeypatch, *fns):
        """A flag list that is non-empty while one of `fns` runs.

        The structural series and the radical's chain run their own bracket
        computations and transporter solves before the passes; recorders
        skip the calls made under them.
        """
        active = []

        def guarded(fn):
            def call(*args, **kwargs):
                active.append(fn)
                try:
                    return fn(*args, **kwargs)
                finally:
                    active.pop()

            return call

        for fn in fns:
            rebind(monkeypatch, fn, guarded(fn))
        return active

    def test_closure_solves_each_member_triple_once(self, monkeypatch):
        # Every solve of the passes goes through algebra._transport with the
        # bracket table of one pair (g, b).  The closure keeps that table in
        # b's record while it runs, so the table's identity names b.
        solved = []
        original = megalie.algebra._transport
        in_series = self.outside_series(monkeypatch, megalie.algebra.upper_central_series)

        def recorded(within, images, into):
            if not in_series:
                solved.append((within, id(images), into))
            return original(within, images, into)

        rebind(monkeypatch, original, recorded)
        lattice = closure(filiform(6))
        assert lattice.reached_fixpoint
        repeated = [triple for triple, count in Counter(solved).items() if count > 1]
        assert solved
        assert not repeated, f"{len(repeated)} member triples solved more than once"

    def test_closure_solves_only_what_containment_leaves(self, monkeypatch, reference_lattices):
        # tp(a, b, c) = int(a, tp(g, b, c)), and tp(g, b, c) is g without a
        # solve once c contains [g, b], so each pair (b, c) is solved at most
        # once.  Solving every restricted triple took 405 solves on L8, 726 on
        # L10 and 1,313 on wave6; skipping only those with [a, b] <= c, 48,
        # 80 and 530.
        calls = []
        original = megalie.algebra._transport
        in_series = self.outside_series(monkeypatch, megalie.algebra.upper_central_series)

        def recorded(*args):
            if not in_series:
                calls.append(args)
            return original(*args)

        rebind(monkeypatch, original, recorded)
        for g, solves in ((filiform(8), 27), (filiform(10), 44), (reference_lattices["wave6"][0], 63)):
            calls.clear()
            closure(g)
            assert len(calls) == solves, g.name

    def test_closure_brackets_each_member_pair_once(self, monkeypatch):
        # Each member b's record holds the one table of (g, b), which every
        # transporter and the product [g, b] read; any other product [a, b]
        # is spanned once, so no pair of members is bracketed twice.
        pairs = []
        original = megalie.algebra._bracket_images
        in_series = self.outside_series(
            monkeypatch,
            megalie.algebra.derived_series,
            megalie.algebra.lower_central_series,
            megalie.algebra.upper_central_series,
            megalie.algebra._nilradical_chain,
        )

        def recorded(g, a, b):
            if not in_series:
                pairs.append((a, b))
            return original(g, a, b)

        rebind(monkeypatch, original, recorded)
        lattice = closure(filiform(6))
        assert lattice.reached_fixpoint and lattice.passes_used > 1
        repeated = [pair for pair, count in Counter(pairs).items() if count > 1]
        assert pairs
        assert not repeated, f"{len(repeated)} member pairs bracketed more than once"

    def test_closure_keeps_only_the_tables_of_g(self, monkeypatch):
        # The closure keeps one bracket table per member b, that of (g, b).
        # Any other pair's table is dropped once its span [a, b] is taken,
        # so none is alive at a solve of the passes.
        class Table(list):
            pass  # a list that a weak reference can follow

        built = []  # (a, weak reference to the table of (a, b))
        alive = []  # per solve, the tables of pairs (a, b) with a != g still alive
        bracket_images, transport = megalie.algebra._bracket_images, megalie.algebra._transport
        in_series = self.outside_series(monkeypatch, megalie.algebra.upper_central_series)
        g = filiform(8)
        full = g.full_space()

        def recorded_images(g, a, b):
            table = Table(bracket_images(g, a, b))
            built.append((a, weakref.ref(table)))
            return table

        def recorded_transport(*args):
            if not in_series:
                alive.append(sum(a != full and table() is not None for a, table in built))
            return transport(*args)

        rebind(monkeypatch, bracket_images, recorded_images)
        rebind(monkeypatch, transport, recorded_transport)
        lattice = closure(g)
        assert lattice.reached_fixpoint and lattice.passes_used > 1
        assert alive and any(a != full for a, _ in built)
        assert max(alive) == 0, f"{max(alive)} tables of pairs (a, b) with a != g alive at a solve"

    @staticmethod
    def counted(monkeypatch, original):
        """The argument tuples of every call of `original` made through the megalie package."""
        calls = []

        def recorded(*args):
            calls.append(args)
            return original(*args)

        rebind(monkeypatch, original, recorded)
        return calls

    def test_closure_builds_the_killing_form_once(self, monkeypatch, m5, sl2d):
        # the radical is the first term of the nilradical's chain, which reads one Killing form
        calls = self.counted(monkeypatch, megalie.algebra._killing_numerators)
        for g in (m5, sl2d, filiform(8), upper_triangular(4)):
            calls.clear()
            closure(g)
            assert len(calls) == 1, g.name

    def test_upper_central_series_brackets_g_once(self, monkeypatch, m5):
        # every term is solved on the one bracket table of (g, g)
        calls = self.counted(monkeypatch, megalie.algebra._bracket_images)
        for g in (m5, upper_triangular(4), filiform(12)):
            calls.clear()
            report = upper_central_series(g)
            full = g.full_space()
            assert calls == [(g, full, full)], g.name
        assert len(report.terms) == 11  # the last is L12 itself


class TestIntegerCore:
    def test_transport_constructs_no_fraction(self):
        # The closure brackets and solves on the members' canonical int rows
        # with the algebra's int constants: no Fraction code runs at all.
        g = filiform(8)
        members = closure(g).members
        entered = []

        def watch(frame, event, arg):
            if event == "call" and frame.f_code.co_filename == fractions.__file__:
                entered.append(frame.f_code.co_name)

        solved = []
        sys.setprofile(watch)
        try:
            for a in members:
                for b in members:
                    images = megalie.algebra._bracket_images(g, a, b)
                    solved.extend(megalie.algebra._transport(a, images, c) for c in members)
        finally:
            sys.setprofile(None)
        assert len(solved) == len(members) ** 3 > 1
        assert not entered, f"Fraction code entered: {sorted(set(entered))}"

    def test_derivation_check_constructs_no_fraction(self):
        # Der(g) is solved and handed to verify_megaideal as int rows of Q^{n^2}
        g = filiform(8)
        members = closure(g).members
        entered = []

        def watch(frame, event, arg):
            if event == "call" and frame.f_code.co_filename == fractions.__file__:
                entered.append(frame.f_code.co_name)

        sys.setprofile(watch)
        try:
            der = derivations(g)
            verdicts = [verify_megaideal(g, s, der) for s in members]
        finally:
            sys.setprofile(None)
        assert der.dim == 15 and len(members) > 2
        assert verdicts == [MegaidealVerdict(True, True)] * len(members)
        assert not entered, f"Fraction code entered: {sorted(set(entered))}"


def reference_essential_filter(lattice):
    """essential_filter as every pair of proper members, summed and compared."""
    entries = lattice.entries
    spaces = [e.subspace for e in entries]
    proper = [i for i, s in enumerate(spaces) if not s.is_full() and not s.is_zero()]
    flagged = []
    for i, entry in enumerate(entries):
        inessential = False
        for a in proper:
            if a == i:
                continue
            if not spaces[i].contains_subspace(spaces[a]):
                continue
            for b in proper:
                if b == i or b < a:
                    continue
                if spaces[a].sum(spaces[b]) == spaces[i]:
                    inessential = True
                    break
            if inessential:
                break
        flagged.append(replace(entry, essential=not inessential))
    return replace(lattice, entries=tuple(flagged))


class TestEssentialFilterAgainstReference:
    def test_flags_match_every_pair(self, reference_lattices):
        inessential = 0
        for name, (g, lattice) in reference_lattices.items():
            filtered = essential_filter(lattice)
            assert filtered == reference_essential_filter(lattice), name
            inessential += sum(not e.essential for e in filtered.entries)
        # the comparison covers members that are sums, not only essential ones
        assert inessential > 0


FIXPOINT_BUDGET = 16  # passes enough for every algebra TestClosureAgainstReference closes


def reference_closures(g, budgets, full_transporter):
    """{budget: closure(g, budget, full_transporter)} for each of budgets, from
    the pass loop that builds every derivation over all members and keeps
    those whose tuple no earlier pass built (a done set)."""
    from megalie.algebra import (
        _bracket_images,
        _span_of_images,
        _transport,
        derived_series,
        lower_central_series,
        nilradical_approx,
        radical,
        upper_central_series,
    )
    from megalie.megaideals import _ALIAS_CAP, LatticeEntry, MegaidealLattice

    store = {}

    def add(space, derivation):
        known = store.get(space)
        if known is None:
            store[space] = [derivation]
            return True
        if derivation not in known and len(known) <= _ALIAS_CAP:
            known.append(derivation)
        return False

    add(Subspace.zero(g.dim), ("0",))
    add(Subspace.full(g.dim), ("g",))
    series = (derived_series(g), lower_central_series(g), upper_central_series(g))
    derived, lower, upper = series
    for k, term in enumerate(derived.terms[1:], 1):
        add(term, ("g" + "'" * k if k <= 3 else f"der{k}(g)",))
    for k, term in enumerate(lower.terms[1:], 1):
        add(term, (f"lcs{k + 1}(g)",))
    add(upper.terms[0], ("Z(g)",))
    for k, term in enumerate(upper.terms[1:], 1):
        add(term, (f"ucs{k + 1}(g)",))
    add(radical(g), ("rad(g)",))
    nil, status = nilradical_approx(g)
    if status == "exact":
        add(nil, ("nil(g)",))

    def lattice(reached_fixpoint, passes):
        members = list(store)
        order = sorted(range(len(members)), key=lambda i: members[i].sort_key())
        labels = [""] * len(members)
        for pos, i in enumerate(order):
            space = members[i]
            labels[i] = "0" if space.is_zero() else "g" if space.is_full() else f"m{pos}"
        entries = []
        for i in order:
            provenance, *aliases = (t.format(*(labels[k] for k in ops)) for t, *ops in store[members[i]])
            entries.append(LatticeEntry(members[i], provenance, tuple(aliases)))
        return MegaidealLattice(tuple(entries), reached_fixpoint, passes, series)

    results = {0: lattice(False, 0)}
    table, done = {}, set()
    passes = 0
    while passes < max(budgets):
        passes += 1
        members = list(store)
        count = len(members)
        derivations = []
        for a in range(count):
            for b in range(a, count):
                derivations.append(("[{},{}]", a, b))
                if a < b:
                    derivations += [("{}+{}", a, b), ("int({},{})", a, b)]
        for a, b in itertools.product(range(count), repeat=2):
            derivations += [("C({};{})", a, b), ("N({};{})", a, b)]
        for a, b, c in itertools.product(range(count), repeat=3):
            if full_transporter or members[c].dim <= members[b].dim:
                derivations.append(("tp({},{},{})", a, b, c))

        def images(a, b):
            if (a, b) not in table:
                table[(a, b)] = _bracket_images(g, members[a], members[b])
            return table[(a, b)]

        build = {
            "[{},{}]": lambda a, b: _span_of_images(g, images(a, b)),
            "{}+{}": lambda a, b: members[a].sum(members[b]),
            "int({},{})": lambda a, b: members[a].intersect(members[b]),
            "C({};{})": lambda a, b: _transport(members[a], images(a, b), members[0]),
            "N({};{})": lambda a, b: _transport(members[a], images(a, b), members[b]),
            "tp({},{},{})": lambda a, b, c: _transport(members[a], images(a, b), members[c]),
        }
        candidates = []
        for template, *operands in derivations:
            if (template, *operands) not in done:
                done.add((template, *operands))
                candidates.append((build[template](*operands), (template, *operands)))
        added = False
        for space, derivation in candidates:
            if add(space, derivation):
                added = True
        results[passes] = lattice(not added, passes)
        if not added:
            break
    # past a fixpoint, a larger budget runs the same passes
    return {budget: results[min(budget, passes)] for budget in budgets}


def graded_nilpotent(seed):
    """A random positively graded algebra, or None when the draw breaks Jacobi.

    Each basis vector gets a weight in 1..4 and [e_i, e_j] a small int
    combination of the basis vectors of weight w_i + w_j, so every draw
    that satisfies Jacobi is nilpotent.
    """
    rng = random.Random(seed)
    n = rng.randint(4, 8)
    weights = sorted(rng.randint(1, 4) for _ in range(n))
    brackets = {}
    for i, j in itertools.combinations(range(n), 2):
        row = {k: rng.choice((-1, 0, 1, 1, 2)) for k in range(n) if weights[k] == weights[i] + weights[j]}
        brackets[(i, j)] = {k: q for k, q in row.items() if q}
    g = algebra_from_brackets(f"graded{seed}", [f"e{i}" for i in range(n)], brackets)
    return g if validate(g).ok else None


class TestClosureAgainstReference:
    """closure builds in each pass only the derivations that name a member the
    previous pass found; the done-set loop must find the same lattice.

    Both loops bracket the same member pairs and solve the same
    transporters, so the tests share one memo of each and every distinct
    table and solve is computed once.
    """

    @pytest.fixture(autouse=True)
    def shared_work(self, monkeypatch):
        def memoized(original, key):
            memo = {}

            def call(*args):
                k = key(*args)
                if k not in memo:
                    memo[k] = original(*args)
                return memo[k]

            rebind(monkeypatch, original, call)

        memoized(megalie.algebra._bracket_images, lambda g, a, b: (g, a, b))
        def frozen(images):
            return tuple(tuple(tuple(sorted(image.items())) for image in row) for row in images)

        memoized(megalie.algebra._transport, lambda a, images, c: (a, frozen(images), c))

    @staticmethod
    def assert_same(g, budgets=(0, 1, 2, 4)):
        reference = reference_closures(g, budgets, False)
        for budget in budgets:
            got, want = closure(g, budget=budget), reference[budget]
            where = f"{g.name} budget={budget}"
            # entries compare members, provenance and aliases
            assert got.entries == want.entries, where
            assert got.passes_used == want.passes_used, where
            assert got.reached_fixpoint == want.reached_fixpoint, where

    @staticmethod
    def assert_full_family_adds_nothing(g, budget=FIXPOINT_BUDGET):
        """At a fixpoint the transporters over every member triple, not only
        those with dim c <= dim b, find no member that closure misses."""
        got, full = closure(g, budget=budget), reference_closures(g, (budget,), True)[budget]
        assert got.reached_fixpoint and full.reached_fixpoint, g.name
        assert got.members == full.members, g.name

    def test_reference_lattices_and_b4(self, reference_lattices):
        for g in [g for g, _ in reference_lattices.values()] + [upper_triangular(4)]:
            self.assert_same(g)
            self.assert_full_family_adds_nothing(g)

    def test_full_transporter_changes_a_provenance(self):
        # strictly upper-triangular 5x5 matrices without E45, plus E55: after
        # one pass the full family derives a member differently, but at the
        # fixpoint it has found no other member
        cells = [(0, 1), (0, 2), (0, 3), (0, 4), (1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (4, 4)]
        g = matrix_units("p5", cells)
        restricted, full = (reference_closures(g, (1,), flag)[1] for flag in (False, True))
        assert [e.provenance for e in restricted.entries] != [e.provenance for e in full.entries]
        self.assert_same(g, budgets=(0, 1))
        self.assert_full_family_adds_nothing(g)

    def test_graded_nilpotent(self):
        drawn = [g for g in map(graded_nilpotent, range(60)) if g is not None][:40]
        assert len(drawn) == 40
        for g in drawn:
            self.assert_same(g)
            self.assert_full_family_adds_nothing(g)


class TestContainmentIdentities:
    """The identities closure answers from containment, checked by solving:
    tp(a, b, c) = a whenever [a, b] <= c; tp(a, b, c) = int(a, T) with
    T = tp(g, b, c), which is a when T contains a and T when a contains T;
    and for a <= b, a + b = b and int(a, b) = a."""

    @staticmethod
    def assert_identities(g, members):
        from megalie.algebra import _bracket_images, _span_of_images, _transport

        full = g.full_space()
        whole = {c: {b: _transport(full, _bracket_images(g, full, b), c) for b in members} for c in members}
        answered = nested = 0
        meets = Counter()
        for a, b in itertools.product(members, repeat=2):
            images = _bracket_images(g, a, b)
            product = _span_of_images(g, images)
            for c in members:
                got, t = _transport(a, images, c), whole[c][b]
                assert got == a.intersect(t), g.name
                if c.contains_subspace(product):
                    assert got == a, g.name
                    answered += 1
                if t.contains_subspace(a):
                    assert got == a, g.name
                    meets["a"] += 1
                if a.contains_subspace(t):
                    assert got == t, g.name
                    meets["T"] += 1
            if b.contains_subspace(a):
                assert (a.sum(b), a.intersect(b)) == (b, a), g.name
                assert (b.sum(a), b.intersect(a)) == (b, a), g.name
                nested += 1
        return answered, nested, meets

    def test_reference_lattices(self, reference_lattices):
        for g, lattice in reference_lattices.values():
            answered, nested, meets = self.assert_identities(g, lattice.members)
            # more nested pairs than the pairs (a, a): some distinct members are nested
            assert answered and nested > len(lattice.members), g.name
            # both containment cases of the meet occur
            assert meets["a"] and meets["T"], g.name

    def test_graded_nilpotent(self):
        drawn = [g for g in map(graded_nilpotent, range(60)) if g is not None][:40]
        assert len(drawn) == 40
        for g in drawn:
            self.assert_identities(g, closure(g).members)

    def test_zero_dimensional_algebra(self):
        # 0 = g is the one member, and its index is 0, not the 1 it has otherwise
        g = algebra_from_brackets("point", [], {})
        lattice = closure(g)
        assert lattice.reached_fixpoint and lattice.members == (Subspace.zero(0),)
        assert lattice.entries[0].provenance == "0"


# ---------------------------------------------------------------------------
# the hand-written loops that _until_fixed replaced, kept as references


def reference_series(g):
    """The derived, lower central and upper central terms, each from its own loop."""
    full = g.full_space()
    derived = [full]
    while True:
        nxt = bracket_subspaces(g, derived[-1], derived[-1])
        if nxt == derived[-1]:
            break
        derived.append(nxt)
    lower = [full]
    while True:
        nxt = bracket_subspaces(g, g.full_space(), lower[-1])
        if nxt == lower[-1]:
            break
        lower.append(nxt)
    upper = [center(g)]
    while not upper[-1].is_full():
        nxt = transporter(g, full, full, upper[-1])
        if nxt == upper[-1]:
            break
        upper.append(nxt)
    return tuple(derived), tuple(lower), tuple(upper)


def reference_nilradical(g):
    """The Killing refinement from the radical, then the nilpotency test of its fixed point."""
    from megalie.algebra import _killing_numerators, _killing_orthogonal

    k = _killing_numerators(g)
    full = g.full_space()
    current = _killing_orthogonal(k, full, bracket_subspaces(g, full, full))
    while not current.is_zero():
        nxt = _killing_orthogonal(k, current, current)
        if nxt == current:
            break
        current = nxt
    term = current
    while True:
        nxt = bracket_subspaces(g, current, term)
        if nxt == term:
            break
        term = nxt
    return current, "exact" if term.is_zero() else "stalled"


def reference_chain(g, lattice):
    """The greedy chain: from 0, step to the first member strictly containing the current one."""
    members = (*lattice.members, Subspace.full(g.dim))
    chain = []
    current = Subspace.zero(g.dim)
    while not current.is_full():
        current = next(m for m in members if m.dim > current.dim and m.contains_subspace(current))
        chain.append(current)
    return tuple(chain)


class TestFixpointsAgainstReference:
    def test_series_nilradical_and_chain(self, reference_lattices, sl2, abelian3):
        from megalie.automorphisms import adapted_basis

        # rotation plus scaling: the refinement stalls (see test_documented_stall)
        brackets = {(0, 1): {1: 1, 2: 1}, (0, 2): {1: -1, 2: 1}}
        stall = algebra_from_brackets("stall", ["h", "e1", "e2"], brackets)
        drawn = [g for g in map(graded_nilpotent, range(60)) if g is not None][:40]
        cases = list(reference_lattices.values())
        cases += [(g, closure(g)) for g in [*drawn, sl2, abelian3, upper_triangular(4), stall]]
        statuses, reaches_g = Counter(), Counter()
        for g, lattice in cases:
            series = (derived_series(g), lower_central_series(g), upper_central_series(g))
            assert tuple(s.terms for s in series) == reference_series(g), g.name
            reaches_g[series[2].terms[-1].is_full()] += 1
            nil = nilradical_approx(g)
            assert nil == reference_nilradical(g), g.name
            statuses[nil[1]] += 1
            assert adapted_basis(g, lattice).flag == reference_chain(g, lattice), g.name
        # both ends of the upper series and both statuses are compared
        assert reaches_g[True] and reaches_g[False]
        assert statuses["exact"] and statuses["stalled"]
