import itertools
import sys
from collections import Counter

import pytest

import megalie.algebra
from megalie.algebra import (
    NotAnIdeal,
    algebra_from_brackets,
    bracket_subspaces,
    transporter,
)
from megalie.linalg import Subspace
from megalie.megaideals import (
    TRANSPORTER_COMPLETENESS_NOTE,
    closure,
    essential_filter,
    verify_megaideal,
)


def span(n, *rows):
    return Subspace.spanned_by(n, rows)


def filiform(n):
    """L_n: [e1, ei] = e(i+1) for 2 <= i < n."""
    names = [f"e{i}" for i in range(1, n + 1)]
    return algebra_from_brackets(f"L{n}", names, {(0, i): {i + 1: 1} for i in range(1, n - 1)})


def rebind(monkeypatch, original, replacement):
    """Replace every binding of `original` inside the megalie package."""
    for module in [m for name, m in sys.modules.items() if name.split(".")[0] == "megalie"]:
        for attr in [a for a, value in vars(module).items() if value is original]:
            monkeypatch.setattr(module, attr, replacement)


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

    def test_closure_solves_each_member_triple_once(self, monkeypatch):
        # The structural series run their own transporter solves before the
        # passes; only the solves made by the passes themselves are counted.
        solved = []
        in_series = []
        original = megalie.algebra.transporter

        def recorded(g, within, of, into, provenance=""):
            if not in_series:
                solved.append((within, of, into))
            return original(g, within, of, into, provenance)

        def guarded(fn):
            def call(*args, **kwargs):
                in_series.append(fn)
                try:
                    return fn(*args, **kwargs)
                finally:
                    in_series.pop()

            return call

        for fn in (megalie.algebra.upper_central_series, megalie.algebra.center):
            rebind(monkeypatch, fn, guarded(fn))
        rebind(monkeypatch, original, recorded)
        lattice = closure(filiform(6))
        assert lattice.reached_fixpoint
        repeated = [triple for triple, count in Counter(solved).items() if count > 1]
        assert solved
        assert not repeated, f"{len(repeated)} member triples solved more than once"
