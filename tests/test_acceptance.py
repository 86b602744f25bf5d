"""Acceptance suite: one test per criterion, one PASS/FAIL line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines live.

The crossing-tree totals of criterion 4 (8, 31 and 99 at depths 1-3) are
pinned absolutely and each is backed by module-level evidence that does not
come from the vertex-ideal taxonomy: the brute-force oracle at every depth,
and at depth 3 also Auslander's formula C(f) = P(soc Cok f) applied to the
irreducible monos that make the six crossings 8, 11, 13, 14, 16 and 17
projective determiners.
"""

import random

import pytest

from stringdet import (brute_force_det, check_unique_sink_characterization,
                       classify_vertex, determiner_report)
from stringdet.families import (crossing6_algebra, crossing_tree_algebra, fan5_algebra,
                                linear_algebra, zigzag4_algebra)
from stringdet.linalg import Mat
from stringdet.modules import cokernel, is_monomorphism, module_map, projective, simple, socle
from stringdet.oracle import MapKind
from stringdet.taxonomy import VertexClass

from determination import is_right_determined
from helpers import radical_summands


def _verdict(label: str, ok: bool, detail: str = "") -> None:
    print(f"{'PASS' if ok else 'FAIL'} {label}" + (f" ({detail})" if detail else ""))
    assert ok, f"{label}: {detail}"


def _agree(rep, res) -> bool:
    return (res.total == rep.formula_value
            and set(res.projective_vertices) == set(rep.projective_determiners))


def _engine_oracle_agree(alg):
    rep = determiner_report(alg)
    res = brute_force_det(alg)
    return rep, res, _agree(rep, res)


@pytest.fixture(scope="module")
def crossing_tree2_oracle():
    """Full oracle run (cross-checks on) for the depth-2 crossing tree, shared
    by criteria 4b and 4c."""
    return brute_force_det(crossing_tree_algebra(2))


def test_criterion_1_crossing6():
    alg = crossing6_algebra()
    rep, res, agree = _engine_oracle_agree(alg)
    ok = (set(rep.projective_determiners) == {1, 2, 4, 5, 6}
          and (rep.n, rep.p, rep.q) == (6, 0, 1)
          and rep.formula_value == 10
          and agree)
    _verdict("criterion 1: six-vertex crossing example", ok,
             f"|Det|={rep.formula_value}, projective={rep.projective_determiners}")


def test_criterion_2_zigzag4():
    rep, res, agree = _engine_oracle_agree(zigzag4_algebra())
    ok = set(rep.projective_determiners) == {1, 2, 4} and rep.formula_value == 6 and agree
    _verdict("criterion 2: four-vertex zigzag", ok,
             f"|Det|={rep.formula_value}, projective={rep.projective_determiners}")


def test_criterion_3_fan5():
    rep_b, _, agree_b = _engine_oracle_agree(fan5_algebra("both"))
    rep_o, _, agree_o = _engine_oracle_agree(fan5_algebra("one"))
    ok = (set(rep_b.projective_determiners) == {1, 2, 3, 5} and agree_b
          and set(rep_o.projective_determiners) == {1, 2, 5} and agree_o)
    _verdict("criterion 3: five-vertex fan, both relation variants", ok)


def test_criterion_4_crossing_tree_level1():
    rep, res, agree = _engine_oracle_agree(crossing_tree_algebra(1))
    ok = (rep.formula_value == 8 and len(rep.projective_determiners) == 4
          and rep.epi_determiner_count == 4 and agree
          and res.nonprojective_count == 4 and len(res.projective_vertices) == 4)
    _verdict("criterion 4a: crossing tree depth 1 (8 = 4 + 4, oracle-confirmed)", ok)


def test_criterion_4_crossing_tree_level2_oracle_agreement(crossing_tree2_oracle):
    res = crossing_tree2_oracle
    rep = determiner_report(res.ar.algebra)
    ok = _agree(rep, res) and rep.epi_determiner_count == 16
    _verdict("criterion 4b: crossing tree depth 2, engine/oracle agreement", ok,
             f"both give {rep.formula_value}")


def test_criterion_4_crossing_tree_level2_pinned_total(crossing_tree2_oracle):
    # Every length-two path is a relation, so rad P(1) = S(4) + S(5) and the
    # irreducible inclusion S(5) -> P(1) has cokernel 1 -> 4 with socle S(4):
    # P(4) is its minimal right determiner, although 4 is a crossing fed by a
    # source leaf.  P(5) likewise.  Only the crossings 2 and 3, both of whose
    # in-neighbours are source leaves, are not projective determiners.
    res = crossing_tree2_oracle
    ar = res.ar
    alg = ar.algebra
    rep = determiner_report(alg)
    expected_projective = set(alg.quiver.vertices) - {2, 3}
    confirmed = {}
    for v in (4, 5):
        det = ar.projective_node(v)
        arrows = [ar.arrows[e.arrow_index] for e in res.entries
                  if e.determiner_node == det]
        confirmed[v] = bool(arrows) and all(
            is_right_determined(ar, a.map, a.source, a.target, det)
            and not is_right_determined(ar, a.map, a.source, a.target, None)
            for a in arrows)
    s5, p1 = ar.node_of(simple(alg, 5)), ar.projective_node(1)
    s5_into_p1 = [e.socle_vertex for e in res.entries
                  if (ar.arrows[e.arrow_index].source, ar.arrows[e.arrow_index].target)
                  == (s5, p1)]
    ok = (rep.formula_value == 31 and len(rep.projective_determiners) == 15
          and rep.epi_determiner_count == 16
          and res.total == 31 and res.nonprojective_count == 16
          and set(res.projective_vertices) == expected_projective
          and set(rep.projective_determiners) == expected_projective
          and s5_into_p1 == [4]
          and all(confirmed.values()))
    _verdict("criterion 4c: crossing tree depth 2, pinned total 31 = 15 + 16", ok,
             f"engine {rep.formula_value} = {len(rep.projective_determiners)} + "
             f"{rep.epi_determiner_count}, oracle {res.total}, projective determiners "
             f"{sorted(res.projective_vertices)}; P(4), P(5) right-determine their "
             f"maps: {confirmed}")


def test_criterion_4_crossing_tree_level3_pinned_total():
    # The full oracle (N = 171) must find the engine's total and projective
    # determiners.  Beside it, for each crossing w fed by a vertex u with two
    # outgoing arrows u -> w and u -> o, check by hand that
    # rad P(u) = S(w) + S(o), so S(o) -> P(u) is irreducible, and that its
    # cokernel u -> w has socle S(w): by Auslander's formula P(w) is the
    # minimal right determiner of that mono.
    alg = crossing_tree_algebra(3)
    q = alg.quiver
    rep = determiner_report(alg)
    res = brute_force_det(alg, max_nodes=200)
    witnessed = []
    for w in (8, 11, 13, 14, 16, 17):
        (u,) = [a.source for a in q.incoming[w] if len(q.outgoing[a.source]) == 2]
        (o,) = [a.target for a in q.outgoing[u] if a.target != w]
        rad = {r.support for r in radical_summands(alg, u)}
        f = module_map(simple(alg, o), projective(alg, u), {o: Mat([[1]])})
        cok, _ = cokernel(f)
        if (rad == {frozenset({w}), frozenset({o})} and is_monomorphism(f)
                and cok.support == {u, w} and socle(cok) == {w: 1}):
            witnessed.append(w)
    ok = (rep.formula_value == 99 and len(rep.projective_determiners) == 47
          and rep.epi_determiner_count == 52
          and len(res.ar.nodes) == 171 and res.total == 99
          and set(res.projective_vertices) == set(rep.projective_determiners)
          and witnessed == [8, 11, 13, 14, 16, 17]
          and set(witnessed) <= set(rep.projective_determiners))
    _verdict("criterion 4d: crossing tree depth 3, pinned total 99 = 47 + 52", ok,
             f"engine {rep.formula_value} = {len(rep.projective_determiners)} + "
             f"{rep.epi_determiner_count}, oracle {res.total} over "
             f"{len(res.ar.nodes)} indecomposables; P(w) determines an irreducible "
             f"mono S(o) -> P(u) for w in {witnessed}")


def test_criterion_5_single_sink_lines():
    ok = True
    detail = []
    for n in range(2, 9):
        alg = linear_algebra(n)
        rep = determiner_report(alg)
        good = rep.formula_value == 2 * n - 2
        if n <= 6:
            res = brute_force_det(alg)
            good = good and res.total == rep.formula_value and \
                set(res.projective_vertices) == set(rep.projective_determiners)
        ok = ok and good
        detail.append(f"n={n}:{rep.formula_value}")
    _verdict("criterion 5: single-sink lines, 2n-2 (oracle to n=6)", ok,
             " ".join(detail))


def test_criterion_6_sweep_equivalence(sweep_records):
    bad = [rec for rec in sweep_records
           if rec.oracle.total != rec.report.formula_value
           or set(rec.oracle.projective_vertices) != set(rec.report.projective_determiners)]
    _verdict("criterion 6: oracle equivalence sweep", not bad,
             f"{len(sweep_records)} algebras checked, {len(bad)} mismatches")


def test_criterion_7_structural_checks(sweep_records):
    ok = True
    for rec in sweep_records:
        ar = rec.oracle.ar
        n = rec.algebra.quiver.vertex_count()
        if sum(len(mesh.middles) == 1 for mesh in ar.meshes) != n - 1:
            ok = False
        for mesh in ar.meshes:
            left = ar.nodes[mesh.left].rep.total_dim
            right = ar.nodes[mesh.right].rep.total_dim
            if left + right != sum(ar.nodes[m].rep.total_dim for m in mesh.middles):
                ok = False
        for entry in rec.oracle.entries:
            if entry.kind is MapKind.MONO:
                # socle route and almost-factoring route were cross-checked
                # during the run; re-assert the recorded agreement
                if entry.almost_factoring != (entry.socle_vertex,):
                    ok = False
            else:
                if entry.almost_factoring != ():
                    ok = False
                if ar.tau.get(entry.determiner_node) != entry.kernel_node:
                    ok = False
    _verdict("criterion 7: structural oracle checks on every sweep instance", ok,
             f"{len(sweep_records)} instances")


def test_criterion_8_unique_sink_equivalence(sweep_records):
    checked = 0
    ok = True
    for rec in sweep_records:
        alg = rec.algebra
        classes = {v: classify_vertex(alg, v) for v in alg.quiver.vertices}
        if any(c is VertexClass.CROSSING for c in classes.values()):
            continue
        for v, c in classes.items():
            if c in (VertexClass.SINK_LEAF, VertexClass.MEET_SINK):
                out = check_unique_sink_characterization(alg, v)
                if not out.applicable or not out.sides_agree:
                    ok = False
                checked += 1
    _verdict("criterion 8: unique-sink characterization on sweep", ok and checked > 0,
             f"{checked} (algebra, sink) pairs")


def test_criterion_9_right_determination(sweep_records):
    rng = random.Random(987654321)
    algebras = 0
    maps_checked = 0
    ok = True
    for rec in sweep_records:
        ar = rec.oracle.ar
        if len(ar.nodes) > 8 or not ar.arrows:
            continue
        algebras += 1
        arrows = list(ar.arrows)
        chosen = arrows if len(arrows) <= 3 else rng.sample(arrows, 3)
        for arrow in chosen:
            entry = rec.oracle.entries[arrow.index]
            determined = is_right_determined(ar, arrow.map, arrow.source, arrow.target,
                                             entry.determiner_node)
            undetermined_without = not is_right_determined(
                ar, arrow.map, arrow.source, arrow.target, None)
            if not (determined and undetermined_without):
                ok = False
            maps_checked += 1
    _verdict("criterion 9: right-determination quantifier validation", ok and algebras > 0,
             f"{maps_checked} maps over {algebras} algebras")
