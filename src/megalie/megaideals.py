"""Fixpoint closure of automorphism-invariant subspace constructors.

A megaideal (fully characteristic ideal) is a subspace invariant under
every automorphism of the algebra.  The engine grows a lattice of such
subspaces from constructors that are invariant by construction: the
structural series, center, radical, exact nilradical approximations,
pairwise Lie products, sums, intersections, and the transporter
{x in i0 : [x, i1] <= i2}, whose special cases i2 = 0 and i2 = i1 are the
centralizer and the normalizer.

The constructor family is sound but not complete: a subspace can be
invariant under every automorphism without arising from any constructor
(the automorphism-enumeration route in the automorphisms module finds
those).  In particular transporter(i0, i1, i2) must be read literally; see
TRANSPORTER_COMPLETENESS_NOTE.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable, Sequence

from .algebra import (
    LieAlgebra,
    NotAnIdeal,
    SeriesReport,
    bracket_subspaces,
    derivations,
    derived_series,
    is_ideal,
    lower_central_series,
    nilradical_approx,
    radical,
    transporter,
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
    deriv_ok = True
    for d in derivations(g) if derivs is None else derivs:
        for row in s.basis.entries:
            if not s.contains(d.matvec(row)):
                deriv_ok = False
                break
        if not deriv_ok:
            break
    notes = ("derivation invariance is necessary, not sufficient",)
    return MegaidealVerdict(ideal_ok, deriv_ok, notes)


class _Builder:
    """Append-only member store with canonical dedup and provenance."""

    def __init__(self, g: LieAlgebra):
        self.g = g
        self.spaces: list[Subspace] = []
        self.prov: list[tuple] = []
        self.aliases: list[list[tuple]] = []
        self.index: dict[Subspace, int] = {}

    def add(self, space: Subspace, prov: tuple) -> bool:
        known = self.index.get(space)
        if known is not None:
            if prov != self.prov[known] and prov not in self.aliases[known]:
                if len(self.aliases[known]) < _ALIAS_CAP:
                    self.aliases[known].append(prov)
            return False
        self.index[space] = len(self.spaces)
        self.spaces.append(space)
        self.prov.append(prov)
        self.aliases.append([])
        return True


def _render(prov: tuple, labels: dict[int, str]) -> str:
    kind = prov[0]
    if kind == "zero":
        return "0"
    if kind == "full":
        return "g"
    if kind == "seed":
        return f"seed{prov[1]}"
    if kind == "derived":
        k = prov[1]
        return "g" + "'" * k if k <= 3 else f"der{k}(g)"
    if kind == "lcs":
        return f"lcs{prov[1]}(g)"
    if kind == "ucs":
        return f"ucs{prov[1]}(g)"
    if kind == "center":
        return "Z(g)"
    if kind == "radical":
        return "rad(g)"
    if kind == "nilradical":
        return "nil(g)"
    ops = tuple(labels[i] for i in prov[1:])
    if kind == "bracket":
        return f"[{ops[0]},{ops[1]}]"
    if kind == "sum":
        return f"{ops[0]}+{ops[1]}"
    if kind == "intersect":
        return f"int({ops[0]},{ops[1]})"
    if kind == "centralizer":
        return f"C({ops[0]};{ops[1]})"
    if kind == "normalizer":
        return f"N({ops[0]};{ops[1]})"
    if kind == "transporter":
        return f"tp({ops[0]},{ops[1]},{ops[2]})"
    raise ValueError(f"unknown provenance kind {kind!r}")


def closure(
    g: LieAlgebra,
    seeds: Sequence[Subspace] = (),
    budget: int = 4,
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
    restriction always keeps C and N.  Each member triple is solved once.

    Stops at a fixpoint or after `budget` passes; a truncated run is
    reported through reached_fixpoint=False on the result.
    """
    n = g.dim
    builder = _Builder(g)
    builder.add(Subspace.zero(n), ("zero",))
    builder.add(Subspace.full(n), ("full",))
    for pos, seed in enumerate(seeds):
        if seed.ambient_dim != n:
            raise NotAnIdeal("seed has wrong ambient dimension")
        if not is_ideal(g, seed):
            raise NotAnIdeal(f"seed {pos} is not an ideal")
        builder.add(seed, ("seed", pos))

    series = (derived_series(g), lower_central_series(g), upper_central_series(g))
    derived, lower, upper = series
    for k, term in enumerate(derived.terms):
        if k:
            builder.add(term, ("derived", k))
    for k, term in enumerate(lower.terms):
        if k:
            builder.add(term, ("lcs", k + 1))
    builder.add(upper.terms[0], ("center",))
    for k, term in enumerate(upper.terms):
        if k:
            builder.add(term, ("ucs", k + 1))
    builder.add(radical(g), ("radical",))
    nil, status = nilradical_approx(g)
    if status == "exact":
        builder.add(nil, ("nilradical",))

    done: set[tuple] = set()
    passes = 0
    reached_fixpoint = False
    while passes < budget:
        passes += 1
        count = len(builder.spaces)
        members = list(builder.spaces)
        candidates: list[tuple[Subspace, tuple]] = []
        solved: dict[tuple[int, int, int], Subspace] = {}  # this pass only

        def tp(a: int, b: int, c: int) -> Subspace:
            if (a, b, c) not in solved:
                solved[(a, b, c)] = transporter(g, members[a], members[b], members[c])
            return solved[(a, b, c)]

        def emit(op: tuple, build: Callable[[], Subspace]) -> None:
            if op not in done:
                done.add(op)
                candidates.append((build(), op))

        for a in range(count):
            for b in range(a, count):
                emit(("bracket", a, b), lambda: bracket_subspaces(g, members[a], members[b]))
                if a < b:
                    emit(("sum", a, b), lambda: members[a].sum(members[b]))
                    emit(("intersect", a, b), lambda: members[a].intersect(members[b]))
        for a in range(count):
            for b in range(count):
                emit(("centralizer", a, b), lambda: tp(a, b, 0))
                emit(("normalizer", a, b), lambda: tp(a, b, b))
        for a in range(count):
            for b in range(count):
                for c in range(count):
                    if full_transporter or members[c].dim <= members[b].dim:
                        emit(("transporter", a, b, c), lambda: tp(a, b, c))

        added = False
        for space, op in candidates:
            if builder.add(space, op):
                added = True
        if not added:
            reached_fixpoint = True
            break

    order = sorted(range(len(builder.spaces)), key=lambda i: builder.spaces[i].sort_key())
    labels: dict[int, str] = {}
    for new_pos, old in enumerate(order):
        space = builder.spaces[old]
        if space.is_zero():
            labels[old] = "0"
        elif space.is_full():
            labels[old] = "g"
        else:
            labels[old] = f"m{new_pos}"
    entries = []
    for old in order:
        prov = _render(builder.prov[old], labels)
        aliases = tuple(_render(p, labels) for p in builder.aliases[old])
        entries.append(
            LatticeEntry(builder.spaces[old].with_provenance(prov), prov, aliases)
        )
    return MegaidealLattice(g, tuple(entries), reached_fixpoint, passes, series)


def essential_filter(lattice: MegaidealLattice) -> MegaidealLattice:
    """Flag members that are sums of two other proper members.

    Those give no constraints beyond their summands.  Nothing is removed;
    only the essential flags change.
    """
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
