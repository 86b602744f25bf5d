"""Combinatorial determiner engine.

Decides, per vertex, whether the indecomposable projective at that vertex is
the minimal right determiner of some irreducible monomorphism, assembles the
counting report 2n - p - q - 1, and provides the unique-sink and Dynkin-shape
checkers.  Entirely combinatorial: no modules are ever constructed here (the
module-level verification lives in the oracle package half).
"""

from __future__ import annotations

import json
from dataclasses import dataclass

from .algebra import BoundQuiverAlgebra
from .taxonomy import (IDEAL_BEARING, VertexClass, VertexIdealStatus,
                       classify_vertex, vertex_ideal, vertex_ideals)
from .treewalk import neighbourhood, restricted_ideal_nonzero


@dataclass(frozen=True)
class VertexDecision:
    vertex: int
    vertex_class: VertexClass
    ideal: VertexIdealStatus | None
    is_determiner: bool
    rule: str


@dataclass(frozen=True)
class DeterminerReport:
    n: int
    p: int
    q: int
    formula_value: int
    projective_determiners: tuple[int, ...]
    epi_determiner_count: int
    decisions: tuple[VertexDecision, ...]

    def to_dict(self) -> dict:
        return {
            "n": self.n,
            "p": self.p,
            "q": self.q,
            "formula_value": self.formula_value,
            "projective_determiners": list(self.projective_determiners),
            "epi_determiner_count": self.epi_determiner_count,
            "rationale": [
                {
                    "vertex": d.vertex,
                    "class": d.vertex_class.value,
                    "ideal": None if d.ideal is None else d.ideal.kind.value,
                    "witness": None if d.ideal is None else d.ideal.witness,
                    "is_determiner": d.is_determiner,
                    "rule": d.rule,
                }
                for d in self.decisions
            ],
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, indent=2) + "\n"

    def to_text(self) -> str:
        lines = [
            f"vertices (n):                 {self.n}",
            f"fork sources (p):             {self.p}",
            f"non-zero vertex ideals (q):   {self.q}",
            f"determiner count 2n-p-q-1:    {self.formula_value}",
            f"projective determiners:       "
            + "{" + ", ".join(f"P({v})" for v in self.projective_determiners) + "}",
            f"non-projective determiners:   {self.epi_determiner_count} "
            "(one per arrow of the quiver)",
            "",
            "per-vertex rationale:",
        ]
        for d in self.decisions:
            mark = "yes" if d.is_determiner else "no "
            ideal = f", ideal {d.ideal.kind.value}" if d.ideal is not None else ""
            wit = (f" (witness {d.ideal.witness})"
                   if d.ideal is not None and d.ideal.witness is not None else "")
            lines.append(f"  P({d.vertex}): {mark}  [{d.vertex_class.value}{ideal}{wit}; {d.rule}]")
        return "\n".join(lines) + "\n"


def _decide(v: int, cls: VertexClass, ideal: VertexIdealStatus | None) -> VertexDecision:
    if cls in (VertexClass.SOURCE_LEAF, VertexClass.FLOW_THROUGH, VertexClass.MEET_FLOW):
        return VertexDecision(v, cls, ideal, True, "single outgoing arrow: always a determiner")
    if cls is VertexClass.FORK_SOURCE:
        return VertexDecision(v, cls, ideal, False, "never a determiner")
    if ideal is None:
        raise ValueError(f"vertex {v} ({cls.value}) reached the ideal rule without "
                         "a vertex ideal")
    if ideal.is_zero:
        return VertexDecision(v, cls, ideal, True, "vertex ideal vanishes")
    return VertexDecision(v, cls, ideal, False, "vertex ideal is non-zero")


def is_projective_determiner(algebra: BoundQuiverAlgebra, v: int) -> VertexDecision:
    """Projective-determiner criterion for one vertex.

    Vertices with a single outgoing arrow always qualify; fork sources never
    do; every other class qualifies exactly when its vertex ideal vanishes.
    """
    cls = classify_vertex(algebra, v)
    return _decide(v, cls, vertex_ideal(algebra, v) if cls in IDEAL_BEARING else None)


def determiner_report(algebra: BoundQuiverAlgebra) -> DeterminerReport:
    """Full counting report for a valid algebra on at least two vertices."""
    if not algebra.is_valid:
        raise ValueError("algebra must be validated and valid")
    n = algebra.quiver.vertex_count()
    if n < 2:
        raise ValueError("the counting formula needs at least two vertices")
    ideals = vertex_ideals(algebra)
    decisions = tuple(_decide(v, classify_vertex(algebra, v), ideals.get(v))
                      for v in algebra.quiver.vertices)
    p = sum(1 for d in decisions if d.vertex_class is VertexClass.FORK_SOURCE)
    q = sum(1 for d in decisions if d.ideal is not None and d.ideal.is_nonzero)
    projective = tuple(d.vertex for d in decisions if d.is_determiner)
    return DeterminerReport(
        n=n, p=p, q=q,
        formula_value=2 * n - p - q - 1,
        projective_determiners=projective,
        epi_determiner_count=n - 1,
        decisions=decisions,
    )


# --------------------------------------------------------------------------
# unique-sink characterization

@dataclass(frozen=True)
class SinkOrientationCheck:
    vertex: int
    applicable: bool
    reason: str | None
    determiners_cover_all_but_sink: bool | None
    unique_sink: bool | None

    @property
    def sides_agree(self) -> bool | None:
        if not self.applicable:
            return None
        return self.determiners_cover_all_but_sink == self.unique_sink


def check_unique_sink_characterization(algebra: BoundQuiverAlgebra, j: int,
                                       report: DeterminerReport | None) -> SinkOrientationCheck:
    """Evaluate both sides of the equivalence 'the projective determiners are
    everything except P(j)' <-> 'j is the unique sink'.  Only applicable when
    the quiver has no crossing vertex and j is a sink (leaf or meet).  report
    is determiner_report(algebra), computed once by the caller."""
    if not algebra.is_valid:
        raise ValueError("algebra must be validated and valid")
    q = algebra.quiver
    if report is None or report.n != q.vertex_count():
        raise ValueError("the unique-sink check needs this algebra's determiner report")
    if not q.has_vertex(j):
        return SinkOrientationCheck(j, False, f"unknown vertex {j}", None, None)
    if any(classify_vertex(algebra, v) is VertexClass.CROSSING for v in q.vertices):
        return SinkOrientationCheck(j, False, "quiver has a crossing vertex", None, None)
    cls = classify_vertex(algebra, j)
    if cls not in (VertexClass.SINK_LEAF, VertexClass.MEET_SINK):
        return SinkOrientationCheck(j, False, f"vertex {j} is not a sink ({cls.value})",
                                    None, None)
    left = set(report.projective_determiners) == set(q.vertices) - {j}
    right = q.sinks() == (j,)
    return SinkOrientationCheck(j, True, None, left, right)


# --------------------------------------------------------------------------
# Dynkin shape tagging

@dataclass(frozen=True)
class DynkinReport:
    shape: str                      # "A", "D", "E6", "E7", "E8" or "other"
    n: int
    branch_vertex: int | None
    limb_lengths: tuple[int, ...]   # sorted, empty for shape A / other
    branch_ideal_nonzero: bool | None
    p: int | None
    q: int | None

    def to_dict(self) -> dict:
        return {
            "shape": self.shape,
            "n": self.n,
            "branch_vertex": self.branch_vertex,
            "limb_lengths": list(self.limb_lengths),
            "branch_ideal_nonzero": self.branch_ideal_nonzero,
            "p": self.p,
            "q": self.q,
        }

    def to_text(self) -> str:
        name = {"A": f"A{self.n}", "D": f"D{self.n}"}.get(self.shape, self.shape)
        lines = [f"underlying graph shape: {name}"]
        if self.branch_vertex is not None:
            lines.append(f"branch vertex: {self.branch_vertex}, "
                         f"limb lengths {list(self.limb_lengths)}")
            lines.append(f"relation inside the branch star: "
                         f"{'yes' if self.branch_ideal_nonzero else 'no'}")
        if self.p is not None:
            lines.append(f"p (interior fork sources): {self.p}")
            lines.append(f"q (non-zero vertex ideals): {self.q}")
        return "\n".join(lines) + "\n"


def _limb_lengths(algebra: BoundQuiverAlgebra, branch: int) -> list[int]:
    q = algebra.quiver
    lengths = []
    for first in q.neighbours(branch):
        length = 1
        prev, cur = branch, first
        while True:
            nxt = [w for w in q.neighbours(cur) if w != prev]
            if not nxt:
                break
            if len(nxt) > 1:  # second branching vertex: not a limb
                return []
            prev, cur = cur, nxt[0]
            length += 1
        lengths.append(length)
    return sorted(lengths)


def dynkin_type(algebra: BoundQuiverAlgebra,
                report: DeterminerReport | None) -> DynkinReport:
    """Detect whether the underlying tree is a path, a fork-ended path or one
    of the three exceptional shapes, and report the specialized counting
    parameters for those families.  report is determiner_report(algebra),
    computed once by the caller; p and q are taken from it, and stay None on
    fewer than two vertices, where no report exists."""
    if not algebra.is_valid:
        raise ValueError("algebra must be validated and valid")
    q = algebra.quiver
    n = q.vertex_count()
    degrees = {v: q.in_degree(v) + q.out_degree(v) for v in q.vertices}
    branches = [v for v, d in degrees.items() if d >= 3]

    p_val = q_val = None
    if n >= 2:
        if report is None or report.n != n:
            raise ValueError(f"dynkin_type needs the determiner report of this "
                             f"{n}-vertex algebra")
        p_val, q_val = report.p, report.q

    if not branches and max(degrees.values(), default=0) <= 2:
        return DynkinReport("A", n, None, (), None, p_val, q_val)
    if len(branches) != 1 or degrees[branches[0]] != 3:
        return DynkinReport("other", n, None, (), None, p_val, q_val)

    branch = branches[0]
    limbs = tuple(_limb_lengths(algebra, branch))
    if not limbs:
        return DynkinReport("other", n, None, (), None, p_val, q_val)
    ideal_flag = restricted_ideal_nonzero(algebra, neighbourhood(algebra, branch))
    if limbs[:2] == (1, 1):
        return DynkinReport("D", n, branch, limbs, ideal_flag, p_val, q_val)
    if limbs == (1, 2, 2):
        return DynkinReport("E6", n, branch, limbs, ideal_flag, p_val, q_val)
    if limbs == (1, 2, 3):
        return DynkinReport("E7", n, branch, limbs, ideal_flag, p_val, q_val)
    if limbs == (1, 2, 4):
        return DynkinReport("E8", n, branch, limbs, ideal_flag, p_val, q_val)
    return DynkinReport("other", n, None, (), None, p_val, q_val)
