"""DOT exports: the quiver itself and the Auslander-Reiten quiver."""

from __future__ import annotations

from .algebra import BoundQuiverAlgebra
from .arquiver import ARQuiver


def quiver_dot(algebra: BoundQuiverAlgebra) -> str:
    lines = ["digraph quiver {", "  rankdir=LR;"]
    for v in algebra.quiver.vertices:
        lines.append(f'  v{v} [label="{v}" shape=circle];')
    for a in algebra.quiver.arrows:
        lines.append(f'  v{a.source} -> v{a.target} [label="{a.name}"];')
    for gen in algebra.relations.generators:
        lines.append(f'  // zero relation: {" ".join(gen)}')
    lines.append("}")
    return "\n".join(lines) + "\n"


def ar_quiver_dot(ar: ARQuiver) -> str:
    """Nodes labeled by dimension vector and walk; translate pairs share a
    rank so the meshes line up."""
    lines = ["digraph ar_quiver {", "  rankdir=LR;", '  node [shape=box fontsize=10];']
    verts = sorted(ar.algebra.quiver.vertices)
    for node in ar.nodes:
        dimvec = "".join(str(node.rep.dim(v)) for v in verts)
        label = f"{dimvec}\\n{node.label()}"
        lines.append(f'  n{node.index} [label="{label}"];')
    for arr in ar.arrows:
        lines.append(f"  n{arr.source} -> n{arr.target};")
    for right, left in sorted(ar.tau.items()):
        lines.append(f"  {{ rank=same; n{left}; n{right}; }}")
        lines.append(f'  n{right} -> n{left} [style=dashed constraint=false '
                     f'label="translate"];')
    lines.append("}")
    return "\n".join(lines) + "\n"
