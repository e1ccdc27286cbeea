"""Exact structure analysis of finite-dimensional Lie algebras.

Given rational structure constants, the package computes megaideal
lattices (subspaces invariant under every automorphism), builds bases
adapted to the lattice, solves the quadratic automorphism equations to a
parametrized group where triangular elimination suffices, and enumerates
the invariant coordinate subspaces.  A polynomial vector-field front end
realizes the equivalence algebra of the nonlinear wave equation class
u_tt = f(x, u_x) u_xx + g(x, u_x), extracts structure constants from
closed spans, and verifies push-forward behavior under explicit
polynomial point maps.  Everything is exact rational arithmetic.
"""

__version__ = "0.1.0"

from .linalg import AmbientMismatch, Matrix, Subspace, rat
from .algebra import (
    FormatError,
    LieAlgebra,
    NotAnIdeal,
    NotNilpotent,
    SeriesReport,
    ValidationReport,
    algebra_from_brackets,
    algebra_from_dict,
    algebra_to_dict,
    bracket_subspaces,
    center,
    centralizer,
    change_basis,
    derivations,
    derived_series,
    lower_central_series,
    nilradical_approx,
    normalizer,
    radical,
    transporter,
    upper_central_series,
    validate,
)
from .megaideals import (
    MegaidealLattice,
    MegaidealVerdict,
    TRANSPORTER_COMPLETENESS_NOTE,
    closure,
    essential_filter,
    verify_megaideal,
)
from .automorphisms import (
    AdaptedBasis,
    AutParametrization,
    AutShape,
    PolySystem,
    ResidualSystem,
    adapted_basis,
    check_invariant,
    enumerate_coordinate_megaideals,
    inner_consistency,
    shape_from_flag,
    solve_in_adapted_basis,
    structure_equations,
    substitute_parameters,
    triangular_solve,
)
from .poly import ExpansionError, Poly, PolyError, parse_poly
from .vectorfield import (
    FAMILY_VARIABLES,
    LinearlyDependent,
    NotClosed,
    PointMap,
    PolyVectorField,
    extract_structure,
    lie_bracket,
    pushforward,
    realize_family,
    verify_homomorphism,
)
from .analysis import analyze, canonical_json
