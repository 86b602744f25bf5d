"""The definitional right-determination test, the first-principles check
behind acceptance criterion 9 and the oracle's determiner tests.  It is
exact but quantifies over every indecomposable, so it serves small
instances only."""

from __future__ import annotations

from stringdet.arquiver import ARQuiver
from stringdet.linalg import Mat
from stringdet.modules import ModuleMap, compose

from helpers import SpanBuilder, nullspace, vec


def is_right_determined(ar: ARQuiver, f: ModuleMap, src_node: int, tgt_node: int,
                        det_node: int | None) -> bool:
    """Quantifier test straight from the definition: for every indecomposable
    X', every map X' -> target whose every precomposition with maps from the
    determiner factors through f must itself factor through f.  The test is
    exact; a None determiner means the zero module."""
    for node in ar.nodes:
        x = node.index
        hom_xn = ar.hom(x, tgt_node)
        if not hom_xn:
            continue
        veclen = len(vec(hom_xn[0]))

        factorable = SpanBuilder(veclen)
        for u in ar.hom(x, src_node):
            factorable.add(vec(compose(f, u)))

        if det_node is None:
            candidate_vecs = [vec(h) for h in hom_xn]
        else:
            phis = ar.hom(det_node, x)
            homs_det_tgt = ar.hom(det_node, tgt_node)
            if not phis or not homs_det_tgt:
                # no precompositions, or every composite lands in the zero
                # space: the hypothesis is vacuous
                candidate_vecs = [vec(h) for h in hom_xn]
            else:
                through = SpanBuilder(len(vec(homs_det_tgt[0])))
                for u in ar.hom(det_node, src_node):
                    through.add(vec(compose(f, u)))
                rows = []
                for h in hom_xn:
                    residuals = []
                    for phi in phis:
                        residuals.extend(through.reduce(vec(compose(h, phi))))
                    rows.append(residuals)
                cols = list(zip(*rows))
                sol = nullspace(Mat(cols, ncols=len(hom_xn)))
                candidate_vecs = []
                for lam in sol:
                    acc = [0] * veclen
                    for c, h in zip(lam, hom_xn):
                        if c:
                            acc = [x2 + c * y for x2, y in zip(acc, vec(h))]
                    candidate_vecs.append(tuple(acc))

        for candidate in candidate_vecs:
            if not factorable.contains(candidate):
                return False
    return True
