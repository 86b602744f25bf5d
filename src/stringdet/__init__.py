"""Minimal right determiners of irreducible maps over tree string algebras.

Two independent halves: a combinatorial engine that classifies vertices and
evaluates the closed-form count, and a module-theoretic oracle that builds
the Auslander-Reiten quiver with exact rational arithmetic and recomputes
every determiner from first principles.  All values are immutable after
construction and every operation is pure, so the API is thread-safe.
"""

from .algebra import BoundQuiverAlgebra, ParseError, parse_algebra, validate
from .arquiver import GuardExceeded, OracleError, ar_quiver
from .engine import check_unique_sink_characterization, determiner_report, dynkin_type
from .oracle import brute_force_det
from .taxonomy import classify_vertex, vertex_ideals

__version__ = "0.1.0"

__all__ = [
    "BoundQuiverAlgebra", "ParseError", "parse_algebra", "validate",
    "classify_vertex", "vertex_ideals",
    "determiner_report", "check_unique_sink_characterization", "dynkin_type",
    "ar_quiver", "GuardExceeded", "OracleError", "brute_force_det",
    "__version__",
]
