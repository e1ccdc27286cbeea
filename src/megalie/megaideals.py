"""Fixpoint closure of automorphism-invariant subspace constructors.

A megaideal (fully characteristic ideal) is a subspace invariant under
every automorphism of the algebra.  The engine grows a lattice of such
subspaces from constructors that are invariant by construction: the
structural series, center, radical, exact nilradical approximations,
pairwise Lie products, sums, intersections, and the transporter
{x in i0 : [x, i1] <= i2}, whose special cases i2 = 0 and i2 = i1 are the
centralizer and the normalizer.

Each member is reported with the first derivation that produced it (its
provenance) and up to _ALIAS_CAP later ones (its aliases).  A derivation
is stored as its own printed form: a format template and the member
indices that fill it, such as ("[{},{}]", a, b) for the product [a, b].

The passes are semi-naive, as in the evaluation of recursive rules by
Bancilhon and Ramakrishnan (1986): a pass builds a derivation only when one
of its operands is a member that the previous pass found, since every
derivation over older members was built by an earlier pass.

The constructor family is sound but not complete: a subspace can be
invariant under every automorphism without arising from any constructor
(the automorphism-enumeration route in the automorphisms module finds
those).  In particular transporter(i0, i1, i2) must be read literally; see
TRANSPORTER_COMPLETENESS_NOTE.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from itertools import combinations
from typing import Sequence

from .algebra import (
    LieAlgebra,
    NotAnIdeal,
    SeriesReport,
    _bracket_images,
    _span_of_images,
    _transport,
    derivations,
    derived_series,
    is_ideal,
    lower_central_series,
    nilradical_approx,
    radical,
    upper_central_series,
)
from .linalg import Matrix, Subspace

TRANSPORTER_COMPLETENESS_NOTE = (
    "transporter(i0, i1, i2) = {x in i0 : [x, i1] subset of i2} is evaluated "
    "literally and exactly; the constructor family is sound but not complete, "
    "so an automorphism-invariant subspace may be absent from the constructive "
    "lattice and still be produced by the automorphism-enumeration route."
)

_ALIAS_CAP = 8
PASS_BUDGET = 4  # default number of closure passes


@dataclass(frozen=True)
class LatticeEntry:
    subspace: Subspace
    provenance: str
    aliases: tuple[str, ...]
    essential: bool = True


@dataclass(frozen=True)
class MegaidealLattice:
    algebra: LieAlgebra
    entries: tuple[LatticeEntry, ...]  # sorted by (dim, lexicographic RREF)
    reached_fixpoint: bool
    passes_used: int
    series: tuple[SeriesReport, ...]  # derived, lower central, upper central

    @property
    def members(self) -> tuple[Subspace, ...]:
        return tuple(entry.subspace for entry in self.entries)


@dataclass(frozen=True)
class MegaidealVerdict:
    is_ideal: bool
    is_derivation_invariant: bool
    notes: tuple[str, ...] = ()

    @property
    def ok(self) -> bool:
        return self.is_ideal and self.is_derivation_invariant


def verify_megaideal(
    g: LieAlgebra, s: Subspace, derivs: Sequence[Matrix] | None = None
) -> MegaidealVerdict:
    """Necessary conditions: ideal, and invariant under every derivation.

    Derivation invariance covers the connected component of the
    automorphism group; it is necessary for megaideal status, not
    sufficient.  derivs is the basis of derivations(g); it is computed
    when not given.
    """
    ideal_ok = is_ideal(g, s)
    derivs = derivations(g) if derivs is None else derivs
    deriv_ok = all(s.is_invariant_under(d) for d in derivs)
    notes = ("derivation invariance is necessary, not sufficient",)
    return MegaidealVerdict(ideal_ok, deriv_ok, notes)


def closure(
    g: LieAlgebra,
    seeds: Sequence[Subspace] = (),
    budget: int = PASS_BUDGET,
    full_transporter: bool = False,
) -> MegaidealLattice:
    """Close {0, g} plus the seeds under the invariant constructors.

    Seeds must be ideals.  Constructors applied once up-front: the derived,
    lower central, and upper central series, the center, the radical, and
    the nilradical approximation (exact results only).  Constructors
    iterated over the current members each pass: pairwise Lie products,
    sums, intersections, and transporters tp(a, b, c) over member triples,
    of which the centralizer C(a;b) = tp(a, b, 0) and the normalizer
    N(a;b) = tp(a, b, b) are named cases.  Transporter triples are
    restricted to dim(c) <= dim(b) unless full_transporter is set; the
    restriction always keeps C and N.

    A derivation is (template, *operands), such as ("tp({},{},{})", a, b, c)
    or ("Z(g)",), where each operand is the index of a member in insertion
    order.  Each member keeps its derivations in the order found: the first
    is its provenance, up to _ALIAS_CAP more are its aliases.  Once the
    members are sorted and labelled, each derivation is printed by filling
    its template with the labels of its operands.

    Members are append-only.  A pass that starts with `count` members, of
    which the first `old` were members when the previous pass began (old = 0
    on the first pass), builds exactly the derivations with an operand index
    >= old, in the order a rebuild over all members would list them.  Each
    member pair (a, b) is bracketed once, into a table [[w, v] for v in b]
    for w in a kept for all passes; [a, b] is its span.
    Each pass solves its new transporter triples once, into one dict:
    tp(a, b, c) is one solve on the table's remainders against c, and
    C(a;b) and N(a;b) read the triples (a, b, 0) and (a, b, b).  A pass
    that adds no member is the fixpoint.

    Stops at a fixpoint or after `budget` passes; a truncated run is
    reported through reached_fixpoint=False on the result.
    """
    n = g.dim
    store: dict[Subspace, list[tuple]] = {}  # member -> [provenance, *aliases]

    def add(space: Subspace, derivation: tuple) -> None:
        known = store.get(space)
        if known is None:
            store[space] = [derivation]
        elif derivation not in known and len(known) <= _ALIAS_CAP:
            known.append(derivation)

    add(Subspace.zero(n), ("0",))
    add(Subspace.full(n), ("g",))
    for pos, seed in enumerate(seeds):
        if seed.ambient_dim != n:
            raise NotAnIdeal("seed has wrong ambient dimension")
        if not is_ideal(g, seed):
            raise NotAnIdeal(f"seed {pos} is not an ideal")
        add(seed, (f"seed{pos}",))

    series = (derived_series(g), lower_central_series(g), upper_central_series(g))
    derived, lower, upper = series
    for k, term in enumerate(derived.terms):
        if k:
            add(term, ("g" + "'" * k if k <= 3 else f"der{k}(g)",))
    for k, term in enumerate(lower.terms):
        if k:
            add(term, (f"lcs{k + 1}(g)",))
    add(upper.terms[0], ("Z(g)",))
    for k, term in enumerate(upper.terms):
        if k:
            add(term, (f"ucs{k + 1}(g)",))
    add(radical(g), ("rad(g)",))
    nil, status = nilradical_approx(g)
    if status == "exact":
        add(nil, ("nil(g)",))

    table: dict[tuple[int, int], list] = {}
    old = passes = 0
    reached_fixpoint = False
    while passes < budget:
        passes += 1
        members = list(store)
        count = len(members)

        def images(a: int, b: int) -> list:
            if (a, b) not in table:
                table[(a, b)] = _bracket_images(g, members[a], members[b])
            return table[(a, b)]

        # every triple that names a new member, in (a, b, c) order, solved once
        solved = {
            (a, b, c): _transport(members[a], images(a, b), members[c])
            for a in range(count)
            for b in range(count)
            for c in range(0 if max(a, b) >= old else old, count)
            if full_transporter or members[c].dim <= members[b].dim
        }
        for a in range(count):
            for b in range(max(a, old), count):
                add(_span_of_images(g, images(a, b)), ("[{},{}]", a, b))
                if a < b:
                    add(members[a].sum(members[b]), ("{}+{}", a, b))
                    add(members[a].intersect(members[b]), ("int({},{})", a, b))
        for a in range(count):
            for b in range(0 if a >= old else old, count):
                add(solved[a, b, 0], ("C({};{})", a, b))
                add(solved[a, b, b], ("N({};{})", a, b))
        for triple, space in solved.items():
            add(space, ("tp({},{},{})", *triple))
        if len(store) == count:
            reached_fixpoint = True
            break
        old = count

    members = list(store)
    order = sorted(range(len(members)), key=lambda i: members[i].sort_key())
    labels = [""] * len(members)
    for pos, i in enumerate(order):
        space = members[i]
        labels[i] = "0" if space.is_zero() else "g" if space.is_full() else f"m{pos}"

    def render(derivation: tuple) -> str:
        template, *operands = derivation
        return template.format(*(labels[i] for i in operands))

    entries = []
    for i in order:
        provenance, *aliases = map(render, store[members[i]])
        entries.append(LatticeEntry(members[i], provenance, tuple(aliases)))
    return MegaidealLattice(g, tuple(entries), reached_fixpoint, passes, series)


def essential_filter(lattice: MegaidealLattice) -> MegaidealLattice:
    """Flag members that are sums of two other proper members.

    Those give no constraints beyond their summands.  Nothing is removed;
    only the essential flags change.  A pair a, b is tried only when both
    lie strictly inside member i and dim a + dim b >= dim i: a + b = i
    needs both, since dim(a + b) <= dim a + dim b.
    """
    spaces = [e.subspace for e in lattice.entries]
    proper = [s for s in spaces if not s.is_full() and not s.is_zero()]
    flagged = []
    for entry, whole in zip(lattice.entries, spaces):
        inside = [a for a in proper if a.dim < whole.dim and whole.contains_subspace(a)]
        inessential = any(
            a.dim + b.dim >= whole.dim and a.sum(b) == whole for a, b in combinations(inside, 2)
        )
        flagged.append(replace(entry, essential=not inessential))
    return replace(lattice, entries=tuple(flagged))
