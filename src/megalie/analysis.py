"""End-to-end analysis pipeline and deterministic report assembly.

analyze() runs validation, the structural series, the megaideal closure
with essentiality flags, the adapted basis, the automorphism shape and
equations, the triangular elimination, the invariant coordinate-subspace
enumeration, and the inner-automorphism consistency check, and returns a
plain dict ready for JSON serialization.  All orderings are fixed, all
numbers are rational strings: identical inputs give byte-identical
reports.
"""

from __future__ import annotations

import json
from . import __version__
from .algebra import LieAlgebra, algebra_to_dict, derivations, validate
from .automorphisms import MAX_ENUM_DIM, enumerate_coordinate_megaideals, inner_consistency, solve_in_adapted_basis
from .linalg import Matrix, Subspace, format_rat
from .megaideals import (
    PASS_BUDGET,
    TRANSPORTER_COMPLETENESS_NOTE,
    closure,
    essential_filter,
    verify_megaideal,
)


def matrix_rows(m: Matrix) -> list[list[str]]:
    return [[format_rat(x) for x in row] for row in m.entries]


def subspace_dict(s: Subspace, label: str = "") -> dict:
    """A subspace's dimension and RREF basis, under the label the report gives it."""
    out = {"dim": s.dim, "basis": matrix_rows(s.basis)}
    if label:
        out["provenance"] = label
    return out


def _series_dict(report) -> dict:
    """The series terms; only the first is labelled: g, or Z(g) for the upper central series."""
    first = "Z(g)" if report.kind == "upper_central" else "g"
    return {
        "kind": report.kind,
        "terms": [subspace_dict(t, "" if k else first) for k, t in enumerate(report.terms)],
        "stabilized": True,  # every series runs to its fixpoint (_until_fixed)
    }


def validation_dict(report) -> dict:
    return {
        "ok": report.ok,
        "antisymmetry_violations": [
            {
                "indices": [i, j, k],
                "c_ijk": format_rat(a),
                "c_jik": format_rat(b),
            }
            for (i, j, k, a, b) in report.antisymmetry_violations
        ],
        "jacobi_residuals": [
            {"indices": [i, j, l, m], "residual": format_rat(r)}
            for (i, j, l, m, r) in report.jacobi_residuals
        ],
    }


def analyze(
    g: LieAlgebra, *, budget: int = PASS_BUDGET, max_enum_dim: int = MAX_ENUM_DIM, input_digest: str | None = None
) -> dict:
    """The report of g: at most `budget` closure passes, and the invariant
    coordinate subspaces enumerated up to dimension `max_enum_dim`."""
    report: dict = {
        "tool": {"name": "megalie", "version": __version__},
    }
    if input_digest is not None:
        report["input"] = {"sha256": input_digest}
    report["algebra"] = algebra_to_dict(g)
    validation = validate(g)
    report["validation"] = validation_dict(validation)
    if not validation.ok:
        report["note"] = "analysis skipped: the structure constants are not a Lie algebra"
        return report

    lattice = essential_filter(closure(g, budget=budget))
    report["series"] = {series.kind: _series_dict(series) for series in lattice.series}

    derivs = derivations(g)
    members = []
    for entry in lattice.entries:
        verdict = verify_megaideal(g, entry.subspace, derivs)
        members.append(
            {
                **subspace_dict(entry.subspace, entry.provenance),
                "aliases": list(entry.aliases),
                "essential": entry.essential,
                "verdict": {
                    "is_ideal": verdict.is_ideal,
                    "is_derivation_invariant": verdict.is_derivation_invariant,
                },
            }
        )
    report["lattice"] = {
        "members": members,
        "reached_fixpoint": lattice.reached_fixpoint,
        "passes": lattice.passes_used,
        "notes": [TRANSPORTER_COMPLETENESS_NOTE],
    }

    basis, shape, system, param = solve_in_adapted_basis(g, lattice)
    report["adapted_basis"] = {
        "change_of_basis": matrix_rows(basis.change_of_basis),
        "flag_dims": [s.dim for s in basis.flag],
        "block_sizes": list(basis.block_sizes),
        "extra_coordinate_members": [list(c) for c in basis.extra_coordinate_members],
    }
    aut: dict = {
        "shape": [[name if name else "0" for name in row] for row in shape.pattern],
        "side_conditions": [c.to_str() for c in shape.side_conditions],
        "equations": [e.to_str() for e in system.equations],
        "assignments": {
            name: param.assignments[name].to_str()
            for name in shape.unknowns
            if name in param.assignments
        },
        "free_parameters": list(param.free_parameters),
        "residual_equations": [e.to_str() for e in param.residual_equations],
        "division_audit": list(param.division_audit),
    }
    if not param.solved:
        aut["invariant_coordinate_subspaces"] = None
        aut["note"] = "enumeration skipped: residual equations remain"
        report["automorphisms"] = aut
        report["inner_consistency"] = None
        return report
    if g.dim > max_enum_dim:
        aut["invariant_coordinate_subspaces"] = None
        aut["note"] = f"enumeration skipped: dimension exceeds cap {max_enum_dim}"
    else:
        invariant = enumerate_coordinate_megaideals(param, basis, max_enum_dim)
        aut["invariant_coordinate_subspaces"] = [
            subspace_dict(s, f"aut-invariant{list(coordinates)}") for coordinates, s in invariant
        ]
    report["automorphisms"] = aut
    report["inner_consistency"] = inner_consistency(g, param, basis)
    return report


def canonical_json(obj) -> str:
    """The one serialization used for every report and fixture file."""
    return json.dumps(obj, indent=2, ensure_ascii=False) + "\n"
