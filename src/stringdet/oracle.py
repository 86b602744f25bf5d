"""Brute-force minimal right determiners, computed from first principles.

For every arrow f of the Auslander-Reiten quiver the minimal right determiner
is assembled along three mutually checking routes: the socle of the cokernel
(for monomorphisms), the set of projectives almost factoring through f, and
the inverse translate of the kernel (for epimorphisms).  The first and last
routes use exact kernels and cokernels; the almost-factoring route poses no
linear system, since every Hom between string modules over a tree is zero or
spanned by the identity on a support (ARQuiver.image).  Any disagreement
raises OracleError with a diagnostic; agreement with the combinatorial engine
is checked by the caller.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

from .algebra import BoundQuiverAlgebra
from .arquiver import ArArrow, ARQuiver, OracleError, ar_quiver
from .modules import ModuleMap, cokernel, is_epimorphism, is_monomorphism, kernel, socle


class MapKind(Enum):
    MONO = "mono"
    EPI = "epi"


@dataclass
class DeterminerEntry:
    arrow_index: int
    kind: MapKind
    determiner_node: int
    socle_vertex: int | None                   # mono route
    kernel_node: int | None                    # epi route
    almost_factoring: tuple[int, ...]          # projective vertices, checked route


@dataclass
class OracleResult:
    ar: ARQuiver
    entries: list[DeterminerEntry]
    determiner_nodes: frozenset[int]
    projective_vertices: frozenset[int]
    nonprojective_count: int

    @property
    def total(self) -> int:
        return len(self.determiner_nodes)


def almost_factors_through(ar: ARQuiver, v: int, f: ModuleMap) -> bool:
    """Does the projective P = P(v) almost factor through f: M -> N, that is,
    is there a map h: P -> N that does not factor through f although its
    restriction to rad P does?  M and N must be nodes of ar (ValueError
    otherwise).  Every Hom between nodes is zero or spanned by the identity on
    a support (ARQuiver.image), so the only candidate h is the identity on
    C = image(P, N); it factors through f exactly when some map P -> M
    composes with f to a non-zero map.  Hom(rad P, M) splits over the radical
    summands r, and h restricted to r, the identity on C & supp r, factors
    through f when it is zero or some map r -> M composes with f to a
    non-zero map."""
    m, n = ar.node_of(f.source), ar.node_of(f.target)
    p = ar._projective[v]
    c = ar.image(p, n)
    if not c:
        return False
    if not f.support.isdisjoint(ar.image(p, m)):
        return False
    return all(c.isdisjoint(ar.nodes[r].rep.support) or not f.support.isdisjoint(ar.image(r, m))
               for r in ar._radical[v])


def _arrow_text(ar: ARQuiver, arrow: ArArrow) -> str:
    return (f"arrow {arrow.index} ({ar.nodes[arrow.source].walk.render_text()} -> "
            f"{ar.nodes[arrow.target].walk.render_text()})")


def minimal_right_determiner(ar: ARQuiver, arrow: ArArrow) -> DeterminerEntry:
    """Minimal right determiner of one irreducible map, with the independent
    routes compared: the socle route (mono) or the inverse-translate route
    (epi) against the almost-factoring projectives, which are decided from
    supports once, before the branch, and only at the vertices of the target's
    support, where any other vertex gives False.  The cokernel of the map is
    built once: its socle is the mono route, and an epi must have a zero one."""
    f = arrow.map
    dim_s = f.source.total_dim
    dim_t = f.target.total_dim
    if dim_s == dim_t:
        raise OracleError(f"{_arrow_text(ar, arrow)} joins equal-dimension nodes")
    # a non-zero map P(v) -> N is the identity on a C containing v: any other
    # vertex of P(v) is reached from v by an arrow that would enter C
    almost = tuple(v for v in sorted(f.target.support) if almost_factors_through(ar, v, f))

    if dim_s < dim_t:
        if not is_monomorphism(f):
            raise OracleError(f"{_arrow_text(ar, arrow)} has smaller source but is not mono")
        cok, _ = cokernel(f)
        if cok.total_dim != dim_t - dim_s:
            raise OracleError(f"mono {_arrow_text(ar, arrow)} has a cokernel of dimension "
                              f"{cok.total_dim}, expected {dim_t - dim_s}")
        soc = socle(cok)
        if sum(soc.values()) != 1:
            raise OracleError(
                f"cokernel of mono {_arrow_text(ar, arrow)} has non-simple socle {dict(soc)}")
        (target_vertex,) = soc.keys()
        det = ar.projective_node(target_vertex)
        if almost != (target_vertex,):
            raise OracleError(
                f"mono {_arrow_text(ar, arrow)}: socle route gives P({target_vertex}) but "
                f"almost-factoring projectives are {almost}")
        return DeterminerEntry(arrow.index, MapKind.MONO, det, target_vertex, None, almost)

    if not is_epimorphism(f):
        raise OracleError(f"{_arrow_text(ar, arrow)} has larger source but is not epi")
    ker, _ = kernel(f)
    ker_node = ar.identify(ker)
    if ker_node is None:
        raise OracleError(f"kernel of epi {_arrow_text(ar, arrow)} is not indecomposable")
    if ker_node not in ar.tau_inv:
        raise OracleError(f"kernel of epi {_arrow_text(ar, arrow)} is injective; "
                          "no inverse translate")
    det = ar.tau_inv[ker_node]
    if ar.nodes[det].is_projective:
        raise OracleError(f"epi {_arrow_text(ar, arrow)} got a projective determiner")
    cok, _ = cokernel(f)
    if cok.total_dim:
        raise OracleError(f"epi {_arrow_text(ar, arrow)} has a non-zero cokernel "
                          f"of dimension {cok.total_dim}")
    if almost:
        raise OracleError(
            f"epi {_arrow_text(ar, arrow)}: projectives {almost} almost factor through it")
    return DeterminerEntry(arrow.index, MapKind.EPI, det, None, ker_node, almost)


def brute_force_det(algebra: BoundQuiverAlgebra,
                    max_nodes: int | None = None) -> OracleResult:
    """Determiners of every irreducible map, each cross-checked against the
    almost-factoring projectives, deduplicated by node."""
    ar = ar_quiver(algebra, max_nodes=max_nodes)
    entries = [minimal_right_determiner(ar, arrow) for arrow in ar.arrows]
    det_nodes = frozenset(e.determiner_node for e in entries)

    epi_dets = {e.determiner_node for e in entries if e.kind is MapKind.EPI}
    single_ends = [m.right for m in ar.meshes if len(m.middles) == 1]
    if epi_dets != set(single_ends):
        raise OracleError("epi determiners do not match the single-middle mesh ends")
    n = algebra.quiver.vertex_count()
    if len(epi_dets) != n - 1 or len(single_ends) != n - 1:
        raise OracleError(
            f"expected {n - 1} single-middle meshes, got {len(single_ends)}; "
            f"epi determiner count {len(epi_dets)}")

    projective_vertices = frozenset(
        ar.nodes[i].projective_vertex for i in det_nodes if ar.nodes[i].is_projective)
    nonproj = sum(1 for i in det_nodes if not ar.nodes[i].is_projective)
    return OracleResult(ar, entries, det_nodes, projective_vertices, nonproj)
