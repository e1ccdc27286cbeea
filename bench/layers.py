"""Which megalie functions the traced run wraps, and the per-layer metrics.

Each target is 'module:attribute' with the span name it is recorded under.
Span names are grouped by layer (analysis, megaideals/algebra, linalg,
automorphisms, poly, vectorfield, cli); a per-layer time is the self time
of its spans, so the reported times split the traced round between layers
instead of counting nested work twice.
"""

from __future__ import annotations

from spans import Recorder

# Constructors whose calls made directly from closure() count as
# megaideals.constructor_calls.
CONSTRUCTOR_SPANS = {
    "algebra.transporter",
    "algebra.centralizer",
    "algebra.normalizer",
    "algebra.center",
    "algebra.radical",
    "algebra.nilradical",
    "algebra.bracket_subspaces",
    "analysis.series",
    "linalg.subspace_sum",
    "linalg.subspace_intersect",
}

# (name, unit, better) of every per-layer metric, in report order.
METRICS = [
    ("analysis.validate_s", "s", "lower"),
    ("analysis.series_s", "s", "lower"),
    ("analysis.closure_s", "s", "lower"),
    ("analysis.essential_s", "s", "lower"),
    ("analysis.verify_s", "s", "lower"),
    ("analysis.report_s", "s", "lower"),
    ("megaideals.constructor_calls", "count", "lower"),
    ("megaideals.passes", "count", "lower"),
    ("megaideals.yield", "members/call", "higher"),
    ("algebra.transporter_calls", "count", "lower"),
    ("algebra.transporter_s", "s", "lower"),
    ("algebra.bracket_subspaces_calls", "count", "lower"),
    ("algebra.derivations_calls", "count", "lower"),
    ("algebra.derivations_s", "s", "lower"),
    ("linalg.rref_calls", "count", "lower"),
    ("linalg.rref_s", "s", "lower"),
    ("linalg.rref_cells", "count", "lower"),
    ("linalg.subspaces_built", "count", "lower"),
    ("automorphisms.adapted_basis_s", "s", "lower"),
    ("automorphisms.shape_s", "s", "lower"),
    ("automorphisms.equations_s", "s", "lower"),
    ("automorphisms.elim_s", "s", "lower"),
    ("automorphisms.side_condition_terms", "count", "lower"),
    ("automorphisms.unknowns", "count", "lower"),
    ("automorphisms.solved_unknowns", "count", "higher"),
    ("automorphisms.residual_equations", "count", "lower"),
    ("automorphisms.enum_s", "s", "lower"),
    ("automorphisms.inner_s", "s", "lower"),
    ("automorphisms.check_invariant_calls", "count", "lower"),
    ("poly.exact_div_calls", "count", "lower"),
    ("poly.exact_div_s", "s", "lower"),
    ("poly.leading_term_calls", "count", "lower"),
    ("poly.leading_term_s", "s", "lower"),
    ("poly.add_s", "s", "lower"),
    ("poly.substitute_calls", "count", "lower"),
    ("poly.substitute_s", "s", "lower"),
    ("poly.max_terms", "count", "lower"),
    ("poly.mul_calls", "count", "lower"),
    ("poly.mul_s", "s", "lower"),
    ("vectorfield.bracket_calls", "count", "lower"),
    ("vectorfield.bracket_s", "s", "lower"),
    ("vectorfield.pushforward_calls", "count", "lower"),
    ("vectorfield.pushforward_s", "s", "lower"),
    ("vectorfield.extract_s", "s", "lower"),
    ("cli.main_s", "s", "lower"),
    ("cli.report_bytes", "bytes", "lower"),
    ("trace.overhead_s", "s", "lower"),
    ("trace.absent_targets", "count", "lower"),
]


class LayerTrace:
    """Patches the targets, records one traced round, reduces to METRICS."""

    def __init__(self):
        self.recorder = Recorder()
        self.counts = {
            "passes": 0,
            "new_members": 0,
            "rref_cells": 0,
            "side_condition_terms": 0,
            "unknowns": 0,
            "solved_unknowns": 0,
            "residual_equations": 0,
            "max_terms": 0,
        }

    # -- hooks reading the wrapped calls' arguments and results ----------------

    def _closure(self, args, lattice):
        self.counts["passes"] += lattice.passes_used
        self.counts["new_members"] += len(lattice.entries) - 2

    def _rref(self, args, result):
        matrix = args[0]
        self.counts["rref_cells"] += matrix.rows * matrix.cols

    def _shape(self, args, shape):
        self.counts["unknowns"] += len(shape.unknowns)
        self.counts["side_condition_terms"] += sum(len(c.terms) for c in shape.side_conditions)

    def _elim(self, args, param):
        self.counts["solved_unknowns"] += len(param.assignments)
        self.counts["residual_equations"] += len(param.residual_equations)

    def _terms(self, args, result):
        terms = getattr(result, "terms", None)
        if terms is not None and len(terms) > self.counts["max_terms"]:
            self.counts["max_terms"] = len(terms)

    def targets(self):
        return [
            ("megalie.analysis:analyze", "analysis.analyze", None),
            ("megalie.analysis:canonical_json", "analysis.canonical_json", None),
            ("megalie.algebra:validate", "analysis.validate", None),
            ("megalie.algebra:derived_series", "analysis.series", None),
            ("megalie.algebra:lower_central_series", "analysis.series", None),
            ("megalie.algebra:upper_central_series", "analysis.series", None),
            ("megalie.megaideals:closure", "analysis.closure", self._closure),
            ("megalie.megaideals:essential_filter", "analysis.essential", None),
            ("megalie.megaideals:verify_megaideal", "analysis.verify", None),
            ("megalie.algebra:transporter", "algebra.transporter", None),
            ("megalie.algebra:centralizer", "algebra.centralizer", None),
            ("megalie.algebra:normalizer", "algebra.normalizer", None),
            ("megalie.algebra:center", "algebra.center", None),
            ("megalie.algebra:radical", "algebra.radical", None),
            ("megalie.algebra:nilradical_approx", "algebra.nilradical", None),
            ("megalie.algebra:bracket_subspaces", "algebra.bracket_subspaces", None),
            ("megalie.algebra:derivations", "algebra.derivations", None),
            ("megalie.linalg:Matrix.rref_with_pivots", "linalg.rref", self._rref),
            ("megalie.linalg:Subspace.__post_init__", "linalg.subspace", None),
            ("megalie.linalg:Subspace.sum", "linalg.subspace_sum", None),
            ("megalie.linalg:Subspace.intersect", "linalg.subspace_intersect", None),
            ("megalie.automorphisms:adapted_basis", "automorphisms.adapted_basis", None),
            ("megalie.automorphisms:shape_from_flag", "automorphisms.shape", self._shape),
            ("megalie.automorphisms:structure_equations", "automorphisms.equations", None),
            ("megalie.automorphisms:triangular_solve", "automorphisms.elim", self._elim),
            ("megalie.automorphisms:enumerate_coordinate_megaideals", "automorphisms.enum", None),
            ("megalie.automorphisms:check_invariant", "automorphisms.check_invariant", None),
            ("megalie.automorphisms:inner_consistency", "automorphisms.inner", None),
            ("megalie.poly:Poly.__mul__", "poly.mul", self._terms),
            ("megalie.poly:Poly.__add__", "poly.add", self._terms),
            ("megalie.poly:Poly.exact_div", "poly.exact_div", self._terms),
            ("megalie.poly:Poly.leading_term", "poly.leading_term", None),
            ("megalie.poly:Poly.substitute", "poly.substitute", self._terms),
            ("megalie.vectorfield:lie_bracket", "vectorfield.bracket", None),
            ("megalie.vectorfield:pushforward", "vectorfield.pushforward", None),
            ("megalie.vectorfield:extract_structure", "vectorfield.extract", None),
            ("megalie.cli:main", "cli.main", None),
        ]

    def patch(self) -> None:
        for target, name, post in self.targets():
            self.recorder.patch(target, name, post)

    def unpatch(self) -> None:
        self.recorder.unpatch()

    def metrics(self, overhead_s: float, report_bytes: int) -> dict[str, float]:
        spans = self.recorder.summary()

        def calls(*names):
            return sum(spans.get(n, {}).get("calls", 0) for n in names)

        def self_s(*names):
            return sum(spans.get(n, {}).get("self_s", 0.0) for n in names)

        constructor_calls = self.recorder.count_children("analysis.closure", CONSTRUCTOR_SPANS)
        c = self.counts
        values = {
            "analysis.validate_s": self_s("analysis.validate"),
            "analysis.series_s": self_s("analysis.series"),
            "analysis.closure_s": self_s("analysis.closure"),
            "analysis.essential_s": self_s("analysis.essential"),
            "analysis.verify_s": self_s("analysis.verify"),
            "analysis.report_s": self_s("analysis.analyze", "analysis.canonical_json"),
            "megaideals.constructor_calls": constructor_calls,
            "megaideals.passes": c["passes"],
            "megaideals.yield": c["new_members"] / constructor_calls if constructor_calls else 0.0,
            "algebra.transporter_calls": calls("algebra.transporter"),
            "algebra.transporter_s": self_s("algebra.transporter"),
            "algebra.bracket_subspaces_calls": calls("algebra.bracket_subspaces"),
            "algebra.derivations_calls": calls("algebra.derivations"),
            "algebra.derivations_s": self_s("algebra.derivations"),
            "linalg.rref_calls": calls("linalg.rref"),
            "linalg.rref_s": self_s("linalg.rref"),
            "linalg.rref_cells": c["rref_cells"],
            "linalg.subspaces_built": calls("linalg.subspace"),
            "automorphisms.adapted_basis_s": self_s("automorphisms.adapted_basis"),
            "automorphisms.shape_s": self_s("automorphisms.shape"),
            "automorphisms.equations_s": self_s("automorphisms.equations"),
            "automorphisms.elim_s": self_s("automorphisms.elim"),
            "automorphisms.side_condition_terms": c["side_condition_terms"],
            "automorphisms.unknowns": c["unknowns"],
            "automorphisms.solved_unknowns": c["solved_unknowns"],
            "automorphisms.residual_equations": c["residual_equations"],
            "automorphisms.enum_s": self_s("automorphisms.enum", "automorphisms.check_invariant"),
            "automorphisms.inner_s": self_s("automorphisms.inner"),
            "automorphisms.check_invariant_calls": calls("automorphisms.check_invariant"),
            "poly.exact_div_calls": calls("poly.exact_div"),
            "poly.exact_div_s": self_s("poly.exact_div"),
            "poly.leading_term_calls": calls("poly.leading_term"),
            "poly.leading_term_s": self_s("poly.leading_term"),
            "poly.add_s": self_s("poly.add"),
            "poly.substitute_calls": calls("poly.substitute"),
            "poly.substitute_s": self_s("poly.substitute"),
            "poly.max_terms": c["max_terms"],
            "poly.mul_calls": calls("poly.mul"),
            "poly.mul_s": self_s("poly.mul"),
            "vectorfield.bracket_calls": calls("vectorfield.bracket"),
            "vectorfield.bracket_s": self_s("vectorfield.bracket"),
            "vectorfield.pushforward_calls": calls("vectorfield.pushforward"),
            "vectorfield.pushforward_s": self_s("vectorfield.pushforward"),
            "vectorfield.extract_s": self_s("vectorfield.extract"),
            "cli.main_s": self_s("cli.main"),
            "cli.report_bytes": report_bytes,
            "trace.overhead_s": overhead_s,
            "trace.absent_targets": len(self.recorder.absent),
        }
        units = {name: unit for name, unit, _ in METRICS}
        return {name: {"value": values[name], "unit": units[name]} for name, _, _ in METRICS}
