import fractions
import itertools
import random
import sys
from collections import Counter
from dataclasses import replace
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import megalie.algebra
from megalie.algebra import (
    NotAnIdeal,
    algebra_from_brackets,
    bracket_subspaces,
    change_basis,
    derivations,
    is_ideal,
    transporter,
    validate,
)
from megalie.linalg import Matrix, Subspace
from megalie.megaideals import (
    TRANSPORTER_COMPLETENESS_NOTE,
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
    e = [m5.basis_vector(i) for i in range(5)]
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
                candidate = span(n, *[sl2d.basis_vector(j) for j in subset])
                assert not verify_megaideal(sl2d, candidate).ok

    def test_closure_idempotent(self, m5, sl2d, heisenberg):
        for g in (m5, sl2d, heisenberg):
            lattice = closure(g)
            again = closure(g, seeds=lattice.members)
            assert set(again.members) == set(lattice.members)

    def test_seed_must_be_ideal(self, m5):
        with pytest.raises(NotAnIdeal):
            closure(m5, seeds=[span(5, m5.basis_vector(3))])

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
        a, b = g.basis_vector(0), g.basis_vector(1)
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
        s = span(5, m5.basis_vector(0), m5.basis_vector(1), m5.basis_vector(3))
        verdict = verify_megaideal(m5, s)
        assert verdict.is_ideal
        assert verdict.is_derivation_invariant

    def test_non_ideal_detected(self, m5):
        verdict = verify_megaideal(m5, span(5, m5.basis_vector(1)))
        assert not verdict.is_ideal

    def test_full_space_trivially_ok(self, m5):
        assert verify_megaideal(m5, m5.full_space()).ok

    def test_every_lattice_member_passes(self, m5, sl2d, heisenberg, sl2, abelian3):
        for g in (m5, sl2d, heisenberg, sl2, abelian3):
            for member in closure(g).members:
                assert verify_megaideal(g, member).ok

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
                    if verify_megaideal(g, candidate).ok:
                        assert candidate in members


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
                        (i, j): dict(enumerate(member.coordinates(g.bracket(u, v))))
                        for (i, u), (j, v) in itertools.combinations(enumerate(vectors), 2)
                    },
                )
                for inner in closure(small).members:
                    rows = [
                        tuple(sum(t * v[k] for t, v in zip(row, vectors)) for k in range(g.dim))
                        for row in inner.basis.entries
                    ]
                    lifted = Subspace.spanned_by(g.dim, rows)
                    assert verify_megaideal(g, lifted).ok


def dense_matmul(a, b):
    """Matrix.__matmul__ as a dense product: one dot product per entry."""
    return Matrix([matvec(b.transpose(), row) for row in a.entries], cols=b.cols)


def dense_verify(g, s, derivs):
    """verify_megaideal as a dense loop: matvec(d, row) and s.contains per basis row."""
    deriv_ok = True
    for d in derivs:
        for row in s.basis.entries:
            if not s.contains(matvec(d, row)):
                deriv_ok = False
                break
        if not deriv_ok:
            break
    return is_ideal(g, s), deriv_ok


def dense_transporter(g, within, of, into):
    """The transporter's images through the checked bracket and reduce."""
    images = [
        tuple(x for b in of.basis.entries for x in into.reduce(g.bracket(w, b)))
        for w in within.basis.entries
    ]
    return within.where_zero(images)


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
        derivs = derivations(g)
        members = list(closure(g).members)
        assert set(members) == set(lattice)
        drawn = data.draw(st.lists(spans(g.dim), min_size=2, max_size=3))
        spaces = members + drawn
        for s in spaces:
            verdict = verify_megaideal(g, s, derivs)
            assert (verdict.is_ideal, verdict.is_derivation_invariant) == dense_verify(g, s, derivs)
        assert all(verify_megaideal(g, s, derivs).ok for s in members)
        row = st.lists(st.integers(-2, 2), min_size=g.dim, max_size=g.dim)
        for d in derivs[:3]:
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

        The structural series, radical and nilradical run their own bracket
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
        # bracket table of one member pair.  The closure keeps each pair's
        # table alive while it runs, so the table's identity names the pair.
        solved = []
        original = megalie.algebra._transport
        in_series = self.outside_series(
            monkeypatch, megalie.algebra.upper_central_series, megalie.algebra.center
        )

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

    def test_closure_brackets_each_member_pair_once(self, monkeypatch):
        # Lie products and transporters of all passes read one bracket table
        # per member pair, so no pair of members is bracketed twice.
        pairs = []
        original = megalie.algebra._bracket_images
        in_series = self.outside_series(
            monkeypatch,
            megalie.algebra.derived_series,
            megalie.algebra.lower_central_series,
            megalie.algebra.upper_central_series,
            megalie.algebra.radical,
            megalie.algebra.nilradical_approx,
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
        return MegaidealLattice(g, tuple(entries), reached_fixpoint, passes, series)

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
        memoized(megalie.algebra._transport, lambda a, images, c: (a, tuple(map(tuple, images)), c))

    @staticmethod
    def assert_same(g, budgets=(0, 1, 2, 4)):
        for full in (False, True):
            reference = reference_closures(g, budgets, full)
            for budget in budgets:
                got, want = closure(g, budget=budget, full_transporter=full), reference[budget]
                where = f"{g.name} budget={budget} full_transporter={full}"
                # entries compare members, provenance and aliases
                assert got.entries == want.entries, where
                assert got.passes_used == want.passes_used, where
                assert got.reached_fixpoint == want.reached_fixpoint, where

    def test_reference_lattices_and_b4(self, reference_lattices):
        for g, _ in reference_lattices.values():
            self.assert_same(g)
        self.assert_same(upper_triangular(4))

    def test_full_transporter_changes_a_provenance(self):
        # strictly upper-triangular 5x5 matrices without E45, plus E55
        cells = [(0, 1), (0, 2), (0, 3), (0, 4), (1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (4, 4)]
        g = matrix_units("p5", cells)
        restricted, full = (closure(g, budget=1, full_transporter=flag) for flag in (False, True))
        assert [e.provenance for e in restricted.entries] != [e.provenance for e in full.entries]
        self.assert_same(g, budgets=(0, 1))

    def test_graded_nilpotent(self):
        drawn = [g for g in map(graded_nilpotent, range(60)) if g is not None][:40]
        assert len(drawn) == 40
        for g in drawn:
            self.assert_same(g)
