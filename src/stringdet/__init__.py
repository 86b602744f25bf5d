"""Minimal right determiners of irreducible maps over tree string algebras.

Two independent halves: a combinatorial engine that classifies vertices and
evaluates the closed-form count, and a module-theoretic oracle that builds
the Auslander-Reiten quiver with exact rational arithmetic and recomputes
every determiner from first principles.  All values are immutable after
construction and every operation is pure, so the API is thread-safe.
"""

from .algebra import (Arrow, BoundQuiverAlgebra, Certificate, ParseError, Quiver,
                      RelationSet, parse_algebra, path_in_ideal, serialize, validate)
from .arquiver import ARQuiver, GuardExceeded, OracleError, ar_quiver
from .engine import (DeterminerReport, check_unique_sink_characterization,
                     determiner_report, dynkin_type, is_projective_determiner)
from .modules import (ModuleMap, Representation, cokernel, hom_space, injective,
                      kernel, projective, radical_summands, simple, socle,
                      string_module)
from .oracle import (OracleResult, almost_factors_through, brute_force_det,
                     is_right_determined, minimal_right_determiner)
from .strings import StringWalk, enumerate_strings
from .taxonomy import (VertexClass, VertexIdealStatus, classify_vertex,
                       fork_source_count, nonzero_ideal_count, vertex_ideal,
                       vertex_ideals)
from .treewalk import (NeighbourhoodSubquiver, TreeWalk, is_linear, neighbourhood,
                       restricted_ideal_nonzero, walk_between)

__version__ = "0.1.0"

__all__ = [
    "Arrow", "BoundQuiverAlgebra", "Certificate", "ParseError", "Quiver",
    "RelationSet", "parse_algebra", "path_in_ideal", "serialize", "validate",
    "TreeWalk", "NeighbourhoodSubquiver", "walk_between", "is_linear",
    "restricted_ideal_nonzero", "neighbourhood",
    "VertexClass", "VertexIdealStatus", "classify_vertex", "vertex_ideal",
    "vertex_ideals", "fork_source_count", "nonzero_ideal_count",
    "DeterminerReport", "determiner_report", "is_projective_determiner",
    "check_unique_sink_characterization", "dynkin_type",
    "StringWalk", "enumerate_strings",
    "Representation", "ModuleMap", "string_module", "simple", "projective",
    "injective", "radical_summands", "hom_space", "kernel", "cokernel", "socle",
    "ARQuiver", "ar_quiver", "GuardExceeded", "OracleError",
    "OracleResult", "brute_force_det", "minimal_right_determiner",
    "almost_factors_through", "is_right_determined",
    "__version__",
]
