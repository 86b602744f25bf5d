"""Combinatorial determiner engine.

Decides, per vertex, whether the indecomposable projective at that vertex is
the minimal right determiner of some irreducible monomorphism, assembles the
counting report 2n - p - q - 1, and provides the unique-sink and Dynkin-shape
checkers.  Entirely combinatorial: no modules are ever constructed here (the
module-level verification lives in the oracle package half).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

from .algebra import BoundQuiverAlgebra
from .taxonomy import VertexClass, VertexIdealStatus, _vertex_ideals, vertex_classes


class VertexDecision(NamedTuple):
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
            "rationale": [rationale_row(d) for d in self.decisions],
        }

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
        # _value_ is the member's value, read without Enum's Python-level
        # property
        for v, cls, ideal, is_determiner, rule in self.decisions:
            mark = "yes" if is_determiner else "no "
            if ideal is None:
                lines.append(f"  P({v}): {mark}  [{cls._value_}; {rule}]")
                continue
            wit = "" if ideal.witness is None else f" (witness {ideal.witness})"
            lines.append(f"  P({v}): {mark}  [{cls._value_}, ideal {ideal.kind._value_}{wit}; "
                         f"{rule}]")
        return "\n".join(lines) + "\n"


#: The rationale row's keys whose ints the CLI fills into a row template.
VERTEX_KEY, WITNESS_KEY = "vertex", "witness"


def rationale_row(d: VertexDecision) -> dict:
    """One row of the report's "rationale" list."""
    return {
        VERTEX_KEY: d.vertex,
        "class": d.vertex_class.value,
        "ideal": None if d.ideal is None else d.ideal.kind.value,
        WITNESS_KEY: None if d.ideal is None else d.ideal.witness,
        "is_determiner": d.is_determiner,
        "rule": d.rule,
    }


#: The criterion's verdicts, (is_determiner, rule), at the classes that do
#: not read their vertex ideal: vertices with a single outgoing arrow always
#: qualify, fork sources never do.
_SINGLE_OUT = (True, "single outgoing arrow: always a determiner")
_NEVER = (False, "never a determiner")


def _ideal_verdict(v: int, cls: VertexClass,
                   ideal: VertexIdealStatus | None) -> tuple[bool, str]:
    """(is_determiner, rule) at a vertex whose class has no fixed verdict: it
    qualifies exactly when its vertex ideal vanishes."""
    if ideal is None:
        raise ValueError(f"vertex {v} ({cls.value}) reached the ideal rule without "
                         "a vertex ideal")
    if ideal.is_zero:
        return True, "vertex ideal vanishes"
    return False, "vertex ideal is non-zero"


def determiner_report(algebra: BoundQuiverAlgebra) -> DeterminerReport:
    """Full counting report for a valid algebra on at least two vertices."""
    if not algebra.is_valid:
        raise ValueError("algebra must be validated and valid")
    n = algebra.quiver.vertex_count()
    if n < 2:
        raise ValueError("the counting formula needs at least two vertices")
    classes = vertex_classes(algebra)
    ideals = _vertex_ideals(algebra, classes)
    source_leaf, flow = VertexClass.SOURCE_LEAF, VertexClass.FLOW_THROUGH
    meet_flow, fork_source = VertexClass.MEET_FLOW, VertexClass.FORK_SOURCE
    get, new = ideals.get, tuple.__new__
    # the fixed verdicts inline, and only sinks, fork flows and crossings
    # read their vertex ideal; tuple.__new__ makes each row a VertexDecision
    # without a Python-level call
    decisions = tuple([new(VertexDecision, (v, cls, get(v), *(
        _SINGLE_OUT if cls is flow or cls is source_leaf or cls is meet_flow
        else _NEVER if cls is fork_source
        else _ideal_verdict(v, cls, get(v))))) for v, cls in classes.items()])
    p = list(classes.values()).count(fork_source)
    q = sum(1 for s in ideals.values() if s.is_nonzero)
    projective = tuple([v for v, _, _, is_determiner, _ in decisions if is_determiner])
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


def check_unique_sink_characterization(algebra: BoundQuiverAlgebra,
                                       j: int) -> SinkOrientationCheck:
    """Evaluate both sides of the equivalence 'the projective determiners are
    everything except P(j)' <-> 'j is the unique sink'.  Only applicable when
    the quiver has no crossing vertex and j is a sink (leaf or meet)."""
    if not algebra.is_valid:
        raise ValueError("algebra must be validated and valid")
    q = algebra.quiver
    if not q.has_vertex(j):
        return SinkOrientationCheck(j, False, f"unknown vertex {j}", None, None)
    classes = vertex_classes(algebra)
    if VertexClass.CROSSING in classes.values():
        return SinkOrientationCheck(j, False, "quiver has a crossing vertex", None, None)
    cls = classes[j]
    if cls not in (VertexClass.SINK_LEAF, VertexClass.MEET_SINK):
        return SinkOrientationCheck(j, False, f"vertex {j} is not a sink ({cls.value})",
                                    None, None)
    left = set(determiner_report(algebra).projective_determiners) == set(q.vertices) - {j}
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

    def to_dict(self) -> dict:
        return {
            "shape": self.shape,
            "n": self.n,
            "branch_vertex": self.branch_vertex,
            "limb_lengths": list(self.limb_lengths),
            "branch_ideal_nonzero": self.branch_ideal_nonzero,
        }

    def to_text(self) -> str:
        name = {"A": f"A{self.n}", "D": f"D{self.n}"}.get(self.shape, self.shape)
        lines = [f"underlying graph shape: {name}"]
        if self.branch_vertex is not None:
            lines.append(f"branch vertex: {self.branch_vertex}, "
                         f"limb lengths {list(self.limb_lengths)}")
            lines.append(f"relation inside the branch star: "
                         f"{'yes' if self.branch_ideal_nonzero else 'no'}")
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


def dynkin_type(algebra: BoundQuiverAlgebra) -> DynkinReport:
    """Detect whether the underlying tree is a path, a fork-ended path or one
    of the three exceptional shapes.

    branch_ideal_nonzero is True whenever a branch vertex is reported:
    validity forces it.  A degree-3 vertex has in/out degrees (2, 1) or
    (1, 2), and the string algebra conditions then kill a length-two path
    through it, a relation made of arrows at it."""
    if not algebra.is_valid:
        raise ValueError("algebra must be validated and valid")
    q = algebra.quiver
    n = q.vertex_count()
    ins_of, outs_of = q.incoming, q.outgoing
    branches = [v for v, outs in outs_of.items() if len(outs) + len(ins_of[v]) > 2]

    if not branches:
        return DynkinReport("A", n, None, (), None)
    branch = branches[0]
    if len(branches) != 1 or len(ins_of[branch]) + len(outs_of[branch]) != 3:
        return DynkinReport("other", n, None, (), None)

    limbs = tuple(_limb_lengths(algebra, branch))
    if not limbs:
        return DynkinReport("other", n, None, (), None)
    # on a tree the arrows among the branch vertex and its neighbours are the
    # arrows at the branch vertex
    star = {a.name for a in q.incoming[branch] + q.outgoing[branch]}
    ideal_flag = any(star.issuperset(gen) for gen in algebra.relations.generators)
    if limbs[:2] == (1, 1):
        return DynkinReport("D", n, branch, limbs, ideal_flag)
    if limbs == (1, 2, 2):
        return DynkinReport("E6", n, branch, limbs, ideal_flag)
    if limbs == (1, 2, 3):
        return DynkinReport("E7", n, branch, limbs, ideal_flag)
    if limbs == (1, 2, 4):
        return DynkinReport("E8", n, branch, limbs, ideal_flag)
    return DynkinReport("other", n, None, (), None)
