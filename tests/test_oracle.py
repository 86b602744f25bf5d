import random

import pytest
from hypothesis import given, settings, strategies as st

from stringdet import ar_quiver, brute_force_det, determiner_report, oracle, parse_algebra, validate
from stringdet.algebra import serialize
from stringdet.arquiver import OracleError
from stringdet.families import crossing6_algebra, crossing_tree_algebra, linear_algebra
from stringdet.linalg import Mat
from stringdet.modules import (cokernel, is_epimorphism, is_monomorphism, module_map,
                               projective, simple)
from stringdet.oracle import MapKind, almost_factors_through, minimal_right_determiner

from determination import is_right_determined
from helpers import (block_columns, direct_sum, identity_map, intertwining_rows, nullspace,
                     representation, row_major, zero_map)
from tree_algebras import random_tree_algebra


def test_almost_factors_identity():
    alg = linear_algebra(2)
    ar = ar_quiver(alg)
    p1 = next(nd for nd in ar.nodes if nd.projective_vertex == 1)
    ident = identity_map(p1.rep)
    for v in alg.quiver.vertices:
        assert not almost_factors_through(ar, v, ident)


def test_almost_factors_line2_inclusion():
    alg = linear_algebra(2)
    ar = ar_quiver(alg)
    incl = next(a.map for a in ar.arrows
                if ar.nodes[a.target].projective_vertex == 1)
    assert almost_factors_through(ar, 1, incl)
    assert not almost_factors_through(ar, 2, incl)


def test_almost_factors_zero_cokernel_on_support():
    # S(3) -> P(2) on 1 -> 2 -> 3 has cokernel S(2): P(2) almost factors
    # through it, while the only map P(3) = S(3) -> P(2) factors through it
    alg = linear_algebra(3)
    ar = ar_quiver(alg)
    incl = next(a.map for a in ar.arrows
                if ar.nodes[a.target].projective_vertex == 2)
    assert incl.source.support == {3}
    assert almost_factors_through(ar, 2, incl)
    assert not almost_factors_through(ar, 3, incl)


def test_almost_factors_rejects_maps_off_the_quiver():
    alg = linear_algebra(2)
    ar = ar_quiver(alg)
    # P(1) rebuilt outside the quiver is still the node P(1); S(1) + S(2),
    # with the same support, is not a node
    p1 = projective(alg, 1)
    assert almost_factors_through(ar, 2, identity_map(p1)) is False
    with pytest.raises(ValueError, match="not a node"):
        almost_factors_through(ar, 1, zero_map(direct_sum([simple(alg, 1), simple(alg, 2)]), p1))


def _joint_solve_almost_factors(ar, v, f, quotient):
    """Reference: the joint linear system the support rule replaced.  Solves
    for pairs (h: P(v) -> N, g: rad P(v) -> M) with h on the radical equal to
    f g, and asks whether some solution's h survives the projection quotient
    onto Cok f.  Every module and map is read densely through dim/map/block,
    at every vertex and arrow."""
    alg = ar.algebra
    vertices = alg.quiver.vertices
    proj = ar.nodes[ar.projective_node(v)].rep
    if not any(quotient.target.dim(u) for u in proj.support):
        return False
    support = [u for u in proj.support if u != v]
    rad = representation(alg, {u: 1 for u in support},
                         {a.name: proj.map(a.name) for a in alg.quiver.arrows
                          if v not in (a.source, a.target)})
    incl = module_map(rad, proj, {u: Mat([[1]]) for u in support})
    src, tgt = f.source, f.target
    h_at, g_start = block_columns({u: tgt.dim(u) for u in vertices},
                                  {u: proj.dim(u) for u in vertices}, 0)
    g_at, nvars = block_columns({u: src.dim(u) for u in vertices},
                                {u: rad.dim(u) for u in vertices}, g_start)
    rows = []
    for a in alg.quiver.arrows:
        s, e = a.source, a.target
        rows += intertwining_rows(h_at[e], proj.map(a.name), tgt.map(a.name), h_at[s], nvars)
        rows += intertwining_rows(g_at[e], rad.map(a.name), src.map(a.name), g_at[s], nvars)
    for u in h_at:
        rows += intertwining_rows(h_at[u], incl.block(u), f.block(u), g_at[u], nvars)
    for sol in nullspace(Mat(rows, ncols=nvars)):
        for u in h_at:
            h_block = row_major(sol, h_at[u], tgt.dim(u), proj.dim(u))
            if not (quotient.block(u) @ h_block).is_zero():
                return True
    return False


def test_support_rule_matches_joint_solve(sweep_records):
    # every AR arrow map and every node identity, at every vertex, of every
    # sweep algebra with n <= 4
    algebras = pairs = hits = 0
    for rec in sweep_records:
        alg = rec.algebra
        if alg.quiver.vertex_count() > 4:
            continue
        algebras += 1
        ar = rec.oracle.ar
        maps = [a.map for a in ar.arrows] + [identity_map(nd.rep) for nd in ar.nodes]
        for f in maps:
            quotient = cokernel(f)[1]
            for v in alg.quiver.vertices:
                got = almost_factors_through(ar, v, f)
                assert got == _joint_solve_almost_factors(ar, v, f, quotient)
                pairs += 1
                hits += got
    assert algebras == 332
    assert (pairs, hits) == (23462, 1538)


def test_almost_factoring_vanishes_off_the_target_support(sweep_records):
    # why minimal_right_determiner asks only the vertices of supp N: every
    # arrow of every sweep algebra with n <= 4, at every other vertex
    pairs = 0
    for rec in sweep_records:
        alg = rec.algebra
        if alg.quiver.vertex_count() > 4:
            continue
        ar = rec.oracle.ar
        for arrow in ar.arrows:
            for v in alg.quiver.vertices:
                if v not in arrow.map.target.support:
                    assert not almost_factors_through(ar, v, arrow.map)
                    pairs += 1
    assert pairs == 5972


def test_determiners_line2():
    alg = linear_algebra(2)
    ar = ar_quiver(alg)
    for arrow in ar.arrows:
        entry = minimal_right_determiner(ar, arrow)
        if entry.kind is MapKind.MONO:
            assert ar.nodes[entry.determiner_node].projective_vertex == 1
            assert entry.socle_vertex == 1
        else:
            det = ar.nodes[entry.determiner_node]
            assert det.walk.is_trivial and det.walk.start == 1  # simple at the source
            assert not det.is_projective


def test_brute_force_line2():
    res = brute_force_det(linear_algebra(2))
    assert res.total == 2
    assert res.projective_vertices == frozenset({1})
    assert res.nonprojective_count == 1


def test_brute_force_crossing_tree():
    res = brute_force_det(crossing_tree_algebra(1))
    assert res.total == 8
    assert len(res.projective_vertices) == 4
    assert res.nonprojective_count == 4


def test_brute_force_crossing6():
    res = brute_force_det(crossing6_algebra())
    assert res.projective_vertices == frozenset({1, 2, 4, 5, 6})
    assert res.nonprojective_count == 5
    assert res.total == 10


def test_mono_into_fork_never_determined_by_it():
    # arrows into a projective whose vertex has two outgoing arrows never
    # yield that projective as determiner
    alg = crossing_tree_algebra(1)
    ar = ar_quiver(alg)
    for arrow in ar.arrows:
        tgt = ar.nodes[arrow.target]
        if tgt.is_projective and len(alg.quiver.outgoing[tgt.projective_vertex]) == 2:
            entry = minimal_right_determiner(ar, arrow)
            assert entry.determiner_node != arrow.target


def test_oracle_matches_engine_on_examples():
    for alg in (linear_algebra(4), crossing6_algebra(), crossing_tree_algebra(1)):
        rep = determiner_report(alg)
        res = brute_force_det(alg)
        assert res.total == rep.formula_value
        assert set(res.projective_vertices) == set(rep.projective_determiners)


def test_right_determination_line2():
    alg = linear_algebra(2)
    ar = ar_quiver(alg)
    for arrow in ar.arrows:
        entry = minimal_right_determiner(ar, arrow)
        assert is_right_determined(ar, arrow.map, arrow.source, arrow.target,
                                   entry.determiner_node)
        assert not is_right_determined(ar, arrow.map, arrow.source, arrow.target, None)


def test_epi_kernels_match_translate():
    alg = crossing_tree_algebra(1)
    ar = ar_quiver(alg)
    res = brute_force_det(alg)
    for entry in res.entries:
        if entry.kind is MapKind.EPI:
            arrow = ar.arrows[entry.arrow_index]
            assert ar.tau[entry.determiner_node] == entry.kernel_node
            assert entry.determiner_node in {m.right for m in ar.meshes
                                             if len(m.middles) == 1}


def test_one_cokernel_per_arrow(monkeypatch):
    calls = []

    def counting(f):
        calls.append(f)
        return cokernel(f)

    monkeypatch.setattr(oracle, "cokernel", counting)
    res = brute_force_det(crossing6_algebra())
    assert len(calls) == len(res.ar.arrows)


def test_cokernel_checks_name_the_walks(monkeypatch):
    # a cokernel of the wrong size trips the named checks on both routes
    ar = ar_quiver(linear_algebra(2))
    mono = next(a for a in ar.arrows if a.map.source.total_dim < a.map.target.total_dim)
    epi = next(a for a in ar.arrows if a.map.source.total_dim > a.map.target.total_dim)
    monkeypatch.setattr(oracle, "cokernel", lambda f: cokernel(identity_map(f.target)))
    with pytest.raises(OracleError, match=r"mono arrow \d+ \(\(2\) -> a1\)"):
        minimal_right_determiner(ar, mono)
    monkeypatch.setattr(oracle, "cokernel", lambda f: cokernel(mono.map))
    with pytest.raises(OracleError, match=r"epi arrow \d+ \(a1 -> \(1\)\)"):
        minimal_right_determiner(ar, epi)


# --------------------------------------------------------------------------
# metamorphic: relabeling vertices and arrows

def _relabel(text, vertex_map, arrow_map):
    """The serialized document with every vertex id and arrow name replaced."""
    lines = []
    for line in text.splitlines():
        key, _, rest = line.partition(": ")
        if key == "vertices":
            rest = ", ".join(str(vertex_map[int(v)]) for v in rest.split(", "))
        elif key == "relation":
            rest = " ".join(arrow_map[a] for a in rest.split())
        else:  # arrow NAME: SOURCE -> TARGET
            source, target = rest.split(" -> ")
            key = "arrow " + arrow_map[key.split()[1]]
            rest = f"{vertex_map[int(source)]} -> {vertex_map[int(target)]}"
        lines.append(f"{key}: {rest}")
    return "\n".join(lines) + "\n"


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 10**9), n=st.integers(2, 7))
def test_relabeling_permutes_engine_and_oracle(seed, n):
    rng = random.Random(seed)
    alg = random_tree_algebra(rng, n)
    vertex_map = dict(zip(alg.quiver.vertices, rng.sample(range(1, 3 * n + 1), n)))
    names = [a.name for a in alg.quiver.arrows]
    arrow_map = dict(zip(names, rng.sample([f"x{k}" for k in range(len(names))], len(names))))
    copy = validate(parse_algebra(_relabel(serialize(alg), vertex_map, arrow_map)))
    assert copy.is_valid, copy.certificate

    # witnesses are the smallest qualifying fork vertex by id, so they are
    # not compared
    def decisions(report, rename):
        return {rename(d.vertex): (d.vertex_class, d.ideal and d.ideal.kind, d.is_determiner)
                for d in report.decisions}

    rep, moved = determiner_report(alg), determiner_report(copy)
    assert decisions(moved, lambda v: v) == decisions(rep, vertex_map.get)
    assert ((moved.n, moved.p, moved.q, moved.formula_value)
            == (rep.n, rep.p, rep.q, rep.formula_value))
    assert set(moved.projective_determiners) == {vertex_map[v]
                                                 for v in rep.projective_determiners}
    assert rep.formula_value == len(rep.projective_determiners) + rep.n - 1

    res, res_moved = brute_force_det(alg), brute_force_det(copy)
    assert res_moved.projective_vertices == {vertex_map[v] for v in res.projective_vertices}
    assert len(res_moved.ar.nodes) == len(res.ar.nodes)
    assert len(res_moved.ar.arrows) == len(res.ar.arrows)


def _opposite(text):
    """The serialized document with every arrow and every relation path
    reversed: the opposite algebra."""
    lines = []
    for line in text.splitlines():
        key, _, rest = line.partition(": ")
        if key == "relation":
            rest = " ".join(reversed(rest.split()))
        elif key != "vertices":  # arrow NAME: SOURCE -> TARGET
            source, target = rest.split(" -> ")
            rest = f"{target} -> {source}"
        lines.append(f"{key}: {rest}")
    return "\n".join(lines) + "\n"


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 10**9), n=st.integers(2, 8))
def test_opposite_algebra_keeps_the_ar_quiver_size(seed, n):
    # duality swaps projectives and injectives and reverses every
    # irreducible map, so the numbers of nodes and arrows are kept
    alg = random_tree_algebra(random.Random(seed), n)
    opp = validate(parse_algebra(_opposite(serialize(alg))))
    assert opp.is_valid, opp.certificate
    assert all(opp.quiver.arrow_map[a.name].source == a.target for a in alg.quiver.arrows)
    ar, ar_opp = ar_quiver(alg), ar_quiver(opp)
    assert ((opp.quiver.vertex_count(), len(ar_opp.nodes), len(ar_opp.arrows))
            == (n, len(ar.nodes), len(ar.arrows)))


def _assert_dual(ar):
    """The duality D = Hom_k(-, k) keeps supports, reverses irreducible maps,
    swaps tau with its inverse and P(v) with I(v), and turns monos into epis:
    compare ar with the AR quiver of the opposite algebra, built afresh, by
    the supports of the nodes."""
    opp = validate(parse_algebra(_opposite(serialize(ar.algebra))))
    ar_opp = ar_quiver(opp)
    sup = [nd.rep.support for nd in ar.nodes]
    sup_opp = [nd.rep.support for nd in ar_opp.nodes]
    assert len(sup_opp) == len(sup) and set(sup_opp) == set(sup)
    arrows = {(sup[a.source], sup[a.target]): a.map for a in ar.arrows}
    reversed_opp = {(sup_opp[a.target], sup_opp[a.source]): a.map for a in ar_opp.arrows}
    assert len(reversed_opp) == len(ar_opp.arrows) and reversed_opp.keys() == arrows.keys()
    assert ({sup_opp[x]: sup_opp[y] for x, y in ar_opp.tau.items()}
            == {sup[x]: sup[y] for x, y in ar.tau_inv.items()})
    vertices = ar.algebra.quiver.vertices
    projectives = {v: sup[ar.projective_node(v)] for v in vertices}
    injectives = {nd.injective_vertex: sup[nd.index] for nd in ar.nodes if nd.is_injective}
    assert {v: sup_opp[ar_opp.projective_node(v)] for v in vertices} == injectives
    assert {nd.injective_vertex: sup_opp[nd.index]
            for nd in ar_opp.nodes if nd.is_injective} == projectives
    monos = 0
    for key, f in arrows.items():
        assert is_monomorphism(f) == is_epimorphism(reversed_opp[key])
        monos += is_monomorphism(f)
    return monos


def test_opposite_algebra_has_the_dual_ar_quiver(sweep_records):
    """On every sweep algebra and crossing-tree levels 1-3."""
    monos = sum(_assert_dual(rec.oracle.ar) for rec in sweep_records)
    for levels in (1, 2, 3):
        monos += _assert_dual(ar_quiver(crossing_tree_algebra(levels)))
    assert monos == 3158


def test_opposite_algebra_has_the_dual_ar_quiver_on_random_trees():
    """On 40 seeded random trees with n = 6..20 (1768 nodes in all)."""
    monos = sum(_assert_dual(ar_quiver(random_tree_algebra(random.Random(seed), 6 + seed % 15)))
                for seed in range(40))
    assert monos == 1275
