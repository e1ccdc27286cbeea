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
derivation over older members was built by an earlier pass.  Exact
identities answer most constructors without a solve, though every
derivation is still recorded: tp(a, b, c) = int(a, tp(g, b, c)), which is
a when tp(g, b, c) contains a and tp(g, b, c) when a contains it, so each
(b, c) needs one solve at most; and a <= b gives a + b = b and int(a, b) = a.

The constructor family is sound but not complete, and the transporter is
read literally; see TRANSPORTER_COMPLETENESS_NOTE.
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
    _nilradical_chain,
    _span_of_images,
    _transport,
    bracket_subspaces,
    derivations,
    derived_series,
    is_ideal,
    lower_central_series,
    upper_central_series,
)
from .linalg import Subspace

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


def verify_megaideal(g: LieAlgebra, s: Subspace, der: Subspace | None = None) -> MegaidealVerdict:
    """Necessary conditions: ideal, and invariant under every derivation.

    Derivation invariance covers the connected component of the
    automorphism group; it is necessary for megaideal status, not
    sufficient.  der is derivations(g), computed when not given; each of
    its int rows is the row-major cells of one basis derivation, which
    Subspace._keeps applies to s.
    """
    der = derivations(g) if der is None else der
    cells = ({divmod(k, g.dim): q for k, q in row.items()} for row in der.rows)
    return MegaidealVerdict(is_ideal(g, s), all(map(s._keeps, cells)))


def closure(g: LieAlgebra, seeds: Sequence[Subspace] = (), budget: int = PASS_BUDGET) -> MegaidealLattice:
    """Close {0, g} plus the seeds under the invariant constructors.

    Seeds must be ideals.  Constructors applied once up-front: the derived,
    lower central, and upper central series, the center, the radical, and
    the nilradical approximation (exact results only).  Constructors
    iterated over the current members each pass: pairwise Lie products,
    sums, intersections, and transporters tp(a, b, c) over member triples,
    of which the centralizer C(a;b) = tp(a, b, 0) and the normalizer
    N(a;b) = tp(a, b, b) are named cases.  Transporter triples are
    restricted to dim(c) <= dim(b), which keeps C and N and loses nothing at
    a fixpoint: members are ideals, so [a, b] <= b, and
    tp(a, b, c) = tp(a, b, int(c, [a, b])), a restricted triple once [a, b]
    and int(c, [a, b]) are members.

    A derivation is (template, *operands), such as ("tp({},{},{})", a, b, c)
    or ("Z(g)",), each operand the index of a member in insertion order.  A
    member keeps its derivations in the order found: its provenance, then up
    to _ALIAS_CAP aliases, printed once the members are sorted and labelled
    by filling each template with the labels of its operands.

    Members are append-only.  A pass that starts with `count` members, of
    which the first `old` were members when the previous pass began (old = 0
    on the first pass), builds exactly the derivations with an operand index
    >= old, in the order a rebuild over all members would list them.  Each
    member b has one record, built in the pass that finds it and kept for
    all passes: the bracket table [[w, v] for v in b] for w in g of (g, b),
    its span [g, b], and the transporters tp(g, b, c) solved on it.  Each
    pass answers its new transporter triples once, as tp(a, b, c) =
    int(a, T) with T = tp(g, b, c), since [a, b] <= c exactly when a <= T.
    T is g when c contains [g, b], else one solve on b's table; int(a, T)
    is a when T contains a, T when a contains T, else one intersection,
    kept by (a, T) for all passes.  Any other Lie product [a, b] is spanned
    once, in the one pass that lists the pair, and not kept.  C(a;b) and
    N(a;b) read the triples (a, b, 0) and (a, b, b).  A nested pair a <= b
    gives a + b = b and int(a, b) = a with no elimination.  A pass that
    adds no member is the fixpoint.

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
    for k, term in enumerate(derived.terms[1:], 1):
        add(term, ("g" + "'" * k if k <= 3 else f"der{k}(g)",))
    for k, term in enumerate(lower.terms[1:], 1):
        add(term, (f"lcs{k + 1}(g)",))
    for k, term in enumerate(upper.terms):
        add(term, (f"ucs{k + 1}(g)" if k else "Z(g)",))
    chain, status = _nilradical_chain(g, lower)
    add(chain[0], ("rad(g)",))
    if status == "exact":
        add(chain[-1], ("nil(g)",))

    records: list[tuple[list, Subspace, dict]] = []  # per member b: table of (g, b), [g, b], {c: tp(g, b, c)}
    meets: dict[tuple[int, Subspace], Subspace] = {}  # (a, t) -> int(a, t)
    whole = list(store).index(Subspace.full(n))
    old = passes = 0
    reached_fixpoint = False
    while passes < budget:
        passes += 1
        members = list(store)
        count = len(members)
        full = members[whole]
        for b in range(old, count):
            table = _bracket_images(g, full, members[b])
            records.append((table, _span_of_images(g, table), {}))

        def tp(a: int, b: int, c: int) -> Subspace:
            table, span, transporters = records[b]
            if c not in transporters:
                into = members[c]
                transporters[c] = full if into.contains_subspace(span) else _transport(full, table, into)
            t, s = transporters[c], members[a]
            if (a, t) not in meets:
                meets[a, t] = s if t.contains_subspace(s) else t if s.contains_subspace(t) else s.intersect(t)
            return meets[a, t]

        for a in range(count):
            for b in range(max(a, old), count):
                product = records[b][1] if a == whole else bracket_subspaces(g, members[a], members[b])
                add(product, ("[{},{}]", a, b))
                if a < b:
                    small, big = sorted((members[a], members[b]), key=lambda s: s.dim)
                    nested = big.contains_subspace(small)
                    add(big if nested else small.sum(big), ("{}+{}", a, b))
                    add(small if nested else small.intersect(big), ("int({},{})", a, b))
        for a in range(count):
            for b in range(0 if a >= old else old, count):
                add(tp(a, b, 0), ("C({};{})", a, b))
                add(tp(a, b, b), ("N({};{})", a, b))
        # every triple that names a new member, in (a, b, c) order
        for a in range(count):
            for b in range(count):
                for c in range(0 if max(a, b) >= old else old, count):
                    if members[c].dim <= members[b].dim:
                        add(tp(a, b, c), ("tp({},{},{})", a, b, c))
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
    return MegaidealLattice(tuple(entries), reached_fixpoint, passes, series)


def essential_filter(lattice: MegaidealLattice) -> MegaidealLattice:
    """Flag members that are sums of two other proper members.

    Those give no constraints beyond their summands.  Nothing is removed;
    only the essential flags change.  A pair a, b is summed only when both
    lie strictly inside member i, dim a + dim b >= dim i, and b does not
    contain a: a + b = i needs all three, since dim(a + b) <= dim a + dim b
    and a <= b gives a + b = b.  Members are sorted by dimension, so the
    later of a pair never lies strictly inside the earlier.
    """
    spaces = [e.subspace for e in lattice.entries]
    proper = [s for s in spaces if not s.is_full() and not s.is_zero()]
    flagged = []
    for entry, whole in zip(lattice.entries, spaces):
        inside = [a for a in proper if a.dim < whole.dim and whole.contains_subspace(a)]
        inessential = any(
            a.dim + b.dim >= whole.dim and not b.contains_subspace(a) and a.sum(b) == whole
            for a, b in combinations(inside, 2)
        )
        flagged.append(replace(entry, essential=not inessential))
    return replace(lattice, entries=tuple(flagged))
