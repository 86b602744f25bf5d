import random

import pytest
from hypothesis import given, settings, strategies as st

from stringdet import (classify_vertex, fork_source_count, nonzero_ideal_count, vertex_ideal,
                       vertex_ideals)
from stringdet.families import (crossing6_algebra, crossing_tree_algebra, fan5_algebra,
                                linear_algebra, random_tree_algebra, zigzag4_algebra)
from stringdet.taxonomy import IDEAL_BEARING, IdealKind, VertexClass


def test_classify_crossing6():
    alg = crossing6_algebra()
    assert classify_vertex(alg, 3) is VertexClass.CROSSING
    assert classify_vertex(alg, 4) is VertexClass.SINK_LEAF
    assert classify_vertex(alg, 1) is VertexClass.SOURCE_LEAF
    assert classify_vertex(alg, 5) is VertexClass.MEET_SINK


def test_classify_fan5():
    alg = fan5_algebra("both")
    assert classify_vertex(alg, 4) is VertexClass.FORK_SOURCE
    assert classify_vertex(alg, 3) is VertexClass.FORK_FLOW


def test_classify_line():
    alg = linear_algebra(2)
    assert classify_vertex(alg, 1) is VertexClass.SOURCE_LEAF
    assert classify_vertex(alg, 2) is VertexClass.SINK_LEAF
    mid = linear_algebra(3)
    assert classify_vertex(mid, 2) is VertexClass.FLOW_THROUGH


def test_classify_unknown_vertex():
    with pytest.raises(ValueError):
        classify_vertex(linear_algebra(2), 9)


def test_vertex_ideal_fan5_both():
    alg = fan5_algebra("both")
    status = vertex_ideal(alg, 3)
    assert status.kind is IdealKind.ZERO
    assert status.witness == 4


def test_vertex_ideal_fan5_one():
    alg = fan5_algebra("one")
    status = vertex_ideal(alg, 3)
    assert status.kind is IdealKind.NEIGHBOURHOOD_IDEAL
    assert status.is_nonzero


def test_vertex_ideal_unique_sink_line():
    alg = linear_algebra(3)
    status = vertex_ideal(alg, 3)
    assert status.kind is IdealKind.WHOLE_ALGEBRA
    assert status.is_nonzero


def test_vertex_ideal_crossing_tree_center():
    alg = crossing_tree_algebra(1)
    status = vertex_ideal(alg, 1)
    assert status.kind is IdealKind.NEIGHBOURHOOD_IDEAL


def test_vertex_ideal_rejects_sources():
    alg = fan5_algebra("both")
    with pytest.raises(ValueError):
        vertex_ideal(alg, 4)


def test_meet_flow_always_zero():
    # 1 -> 3 <- 2, 3 -> 4 with required relation
    from stringdet import parse_algebra, validate
    alg = validate(parse_algebra(
        "vertices: 4\narrow a: 1 -> 3\narrow b: 2 -> 3\narrow c: 3 -> 4\nrelation: a c\n"))
    assert alg.is_valid
    assert classify_vertex(alg, 3) is VertexClass.MEET_FLOW
    assert vertex_ideal(alg, 3).kind is IdealKind.ZERO


def test_count_p():
    assert fork_source_count(zigzag4_algebra()) == 1
    assert fork_source_count(crossing_tree_algebra(1)) == 0
    assert fork_source_count(linear_algebra(6)) == 0


def test_count_q():
    assert nonzero_ideal_count(crossing_tree_algebra(1)) == 1
    assert nonzero_ideal_count(zigzag4_algebra()) == 0
    assert nonzero_ideal_count(crossing6_algebra()) == 1


def test_count_q_crossing_tree_depth2():
    # the two outer crossings fed by the center (4 and 5) are witnessed by it
    # (single relation-free arrow in, relations on both forward paths), even
    # though their other in-neighbour is a source leaf; so only the crossings
    # 2 and 3, whose in-neighbours are both source leaves, carry a non-zero
    # ideal.  The brute-force oracle confirms the resulting determiner totals
    # (see acceptance criterion 4c).
    alg = crossing_tree_algebra(2)
    assert nonzero_ideal_count(alg) == 2
    nonzero = [v for v in alg.quiver.vertices
               if classify_vertex(alg, v) in IDEAL_BEARING
               and vertex_ideal(alg, v).is_nonzero]
    assert nonzero == [2, 3]
    assert all(classify_vertex(alg, v) is VertexClass.CROSSING for v in nonzero)
    assert all(classify_vertex(alg, a.source) is VertexClass.SOURCE_LEAF
               for v in nonzero for a in alg.quiver.in_arrows(v))
    for v in (4, 5):
        status = vertex_ideal(alg, v)
        assert status.kind is IdealKind.ZERO
        assert status.witness == 1


def test_path_algebra_two_sinks_all_zero():
    # 1 -> 2 <- 3 -> 4: sinks 2 and 4, no relations: both ideals vanish
    alg = zigzag4_algebra()
    for v in (2, 4):
        assert vertex_ideal(alg, v).kind is IdealKind.ZERO


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 10**9), n=st.integers(3, 8))
def test_relation_free_multi_sink_lines_have_zero_ideals(seed, n):
    rng = random.Random(seed)
    orientation = "".join(rng.choice("><") for _ in range(n - 1))
    alg = linear_algebra(n, orientation)
    assert alg.is_valid
    sinks = alg.quiver.sinks()
    if len(sinks) < 2:
        return
    for v in sinks:
        status = vertex_ideal(alg, v)
        assert status.kind is IdealKind.ZERO
        assert status.witness is not None  # an interior fork source certifies it


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 10**9), n=st.integers(2, 7))
def test_classification_total(seed, n):
    alg = random_tree_algebra(random.Random(seed), n)
    for v in alg.quiver.vertices:
        cls = classify_vertex(alg, v)
        assert isinstance(cls, VertexClass)


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 10**9), n=st.integers(2, 7))
def test_branching_neighbourhood_ideals_really_nonzero(seed, n):
    from stringdet import neighbourhood, restricted_ideal_nonzero
    alg = random_tree_algebra(random.Random(seed), n)
    for v in alg.quiver.vertices:
        cls = classify_vertex(alg, v)
        if cls in (VertexClass.FORK_FLOW, VertexClass.CROSSING):
            assert restricted_ideal_nonzero(alg, neighbourhood(alg, v))
            status = vertex_ideal(alg, v)
            if status.kind is IdealKind.NEIGHBOURHOOD_IDEAL:
                assert status.is_nonzero


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 10**9), n=st.integers(2, 7))
def test_q_counts_only_ideal_bearing(seed, n):
    alg = random_tree_algebra(random.Random(seed), n)
    q = nonzero_ideal_count(alg)
    manual = 0
    for v in alg.quiver.vertices:
        cls = classify_vertex(alg, v)
        if cls is VertexClass.MEET_FLOW:
            assert vertex_ideal(alg, v).kind is IdealKind.ZERO
        if cls in IDEAL_BEARING and vertex_ideal(alg, v).is_nonzero:
            manual += 1
    assert manual == q


# --------------------------------------------------------------------------
# the one-pass reach computation against the per-vertex scan it replaced

def _scan_witness(alg, i, blocked_targets=()):
    """Reference: the smallest vertex j with two outgoing arrows and a
    relation-free directed path to i, whose directed paths to each blocked
    target also hit a relation, found by walking from every candidate."""
    from stringdet.treewalk import is_linear, restricted_ideal_nonzero, walk_between
    q = alg.quiver
    for j in q.vertices:
        if q.out_degree(j) != 2:
            continue
        walk = walk_between(alg, j, i)
        if not is_linear(walk) or restricted_ideal_nonzero(alg, walk):
            continue
        if all(is_linear(w) and restricted_ideal_nonzero(alg, w)
               for w in (walk_between(alg, j, t) for t in blocked_targets)):
            return j
    return None


def _scan_ideal(alg, v):
    cls = classify_vertex(alg, v)
    if cls is VertexClass.MEET_FLOW:
        return IdealKind.ZERO, None
    if cls in (VertexClass.SINK_LEAF, VertexClass.MEET_SINK):
        w = _scan_witness(alg, v)
        if w is not None:
            return IdealKind.ZERO, w
        if alg.relations.is_empty:
            sinks = alg.quiver.sinks()
            return (IdealKind.WHOLE_ALGEBRA if sinks == (v,) else IdealKind.ZERO), None
        return IdealKind.DEFINING_IDEAL, None
    targets = tuple(a.target for a in alg.quiver.out_arrows(v))
    w = _scan_witness(alg, v, targets)
    return (IdealKind.ZERO, w) if w is not None else (IdealKind.NEIGHBOURHOOD_IDEAL, None)


def _assert_matches_scan(alg):
    statuses = vertex_ideals(alg)
    bearing = [v for v in alg.quiver.vertices if classify_vertex(alg, v) in IDEAL_BEARING]
    assert sorted(statuses) == bearing
    for v in bearing:
        assert (statuses[v].kind, statuses[v].witness) == _scan_ideal(alg, v), v


def test_reach_pass_matches_scan_exhaustive():
    from stringdet.families import iter_tree_algebras
    count = 0
    for n in range(2, 5):
        for alg in iter_tree_algebras(n):
            _assert_matches_scan(alg)
            count += 1
    assert count == 332


def test_reach_pass_matches_scan_crossing_trees():
    for levels in range(1, 5):
        _assert_matches_scan(crossing_tree_algebra(levels))


def grown_tree_algebra(rng, n):
    """A valid algebra on n vertices built directly, not by rejection: grow a
    tree through free in/out slots, shuffle the vertex ids, add one relation
    per branching condition, then random longer relations that keep the set
    an antichain.  random_tree_algebra rejection-samples, which is out of
    reach beyond n of about 20."""
    from stringdet import RelationSet
    from stringdet.families import _algebra
    ids = list(range(1, n + 1))
    rng.shuffle(ids)
    ins, outs = {ids[0]: []}, {ids[0]: []}
    arrows = []
    for k in range(1, n):
        v = rng.choice([u for u in ins if len(ins[u]) < 2 or len(outs[u]) < 2])
        new, name = ids[k], f"a{k}"
        ins[new], outs[new] = [], []
        into = len(outs[v]) == 2 or (len(ins[v]) < 2 and rng.random() < 0.5)
        src, tgt = (new, v) if into else (v, new)
        arrows.append((name, src, tgt))
        outs[src].append(name)
        ins[tgt].append(name)
    rels = set()
    for v in ins:
        if len(ins[v]) == 2:
            for g in outs[v]:
                rels.update((c, g) for c in ins[v] if rng.random() < 0.2 or c == ins[v][0])
        if len(outs[v]) == 2:
            for g in ins[v]:
                rels.update((g, b) for b in outs[v] if rng.random() < 0.2 or b == outs[v][0])
    target = {name: t for name, _, t in arrows}
    for _ in range(2 * n):
        path = [rng.choice(arrows)[0]]
        while len(path) < rng.randint(3, 8) and outs[target[path[-1]]]:
            path.append(rng.choice(outs[target[path[-1]]]))
        path = tuple(path)
        if (len(path) > 2 and not RelationSet(tuple(rels)).contains_path(path)
                and not any(RelationSet((path,)).contains_path(g) for g in rels)):
            rels.add(path)
    return _algebra(sorted(ids), arrows, sorted(rels))


def test_reach_pass_matches_scan_random():
    rng = random.Random(20261018)
    for _ in range(200):
        _assert_matches_scan(random_tree_algebra(rng, rng.randint(2, 16)))
    for _ in range(200):
        alg = grown_tree_algebra(rng, rng.randint(2, 40))
        assert alg.is_valid, alg.certificate
        _assert_matches_scan(alg)


def test_reach_pass_matches_scan_long_relations():
    # line 1 -> ... -> 6 with forks 1, 2, 3 and the fork flow 6 (-> 7, -> 8).
    # a1 a2 a3 a4 cuts the reach of a5 at vertex 2, and the relation toward 8
    # starts at 3: the witness for 6 is 2, not the fork 1 upstream of the cut
    from stringdet import parse_algebra, validate
    text = ("vertices: 11\n"
            + "".join(f"arrow a{k}: {k} -> {k + 1}\n" for k in range(1, 6))
            + "arrow c: 6 -> 7\narrow d: 6 -> 8\n"
            + "".join(f"arrow f{k}: {k} -> {k + 8}\n" for k in range(1, 4))
            + "relation: a5 c\nrelation: a3 a4 a5 d\nrelation: a1 a2 a3 a4\n"
            + "relation: a1 f2\nrelation: a2 f3\n")
    alg = validate(parse_algebra(text))
    assert alg.is_valid, alg.certificate
    _assert_matches_scan(alg)
    assert vertex_ideals(alg)[6] == vertex_ideal(alg, 6)
    assert vertex_ideal(alg, 6).witness == 2


def test_vertex_ideals_needs_valid_algebra():
    from stringdet import parse_algebra
    with pytest.raises(ValueError, match="valid"):
        vertex_ideals(parse_algebra("vertices: 2\narrow a: 1 -> 2\n"))


def _count_walks(monkeypatch):
    from stringdet import taxonomy, treewalk
    calls = []
    original = treewalk.walk_between

    def counted(*args):
        calls.append(args)
        return original(*args)

    for module in (treewalk, taxonomy):
        monkeypatch.setattr(module, "walk_between", counted)
    return calls


def test_report_makes_no_walks(monkeypatch):
    from stringdet import determiner_report
    calls = _count_walks(monkeypatch)
    report = determiner_report(crossing_tree_algebra(5))
    assert report.n == 485
    assert calls == []


def test_ideals_command_makes_no_walks(monkeypatch, tmp_path, capsys):
    from stringdet.cli import main
    from stringdet.families import generate_example
    path = tmp_path / "ct3.txt"
    path.write_text(generate_example("crossing-tree", levels=3))
    calls = _count_walks(monkeypatch)
    assert main(["ideals", str(path), "--format", "json"]) == 0
    assert '"vertex_ideals"' in capsys.readouterr().out
    assert calls == []
