import random

import pytest
from hypothesis import given, settings, strategies as st

from stringdet import classify_vertex, determiner_report, vertex_ideals
from stringdet.families import (crossing6_algebra, crossing_tree_algebra, fan5_algebra,
                                linear_algebra, zigzag4_algebra)
from stringdet import parse_algebra
from stringdet.taxonomy import IdealKind, VertexClass, vertex_classes

from tree_algebras import iter_tree_algebras, random_tree_algebra

#: Classes that carry a vertex ideal: the sinks and the branching classes.
IDEAL_BEARING = frozenset({
    VertexClass.SINK_LEAF, VertexClass.MEET_SINK, VertexClass.MEET_FLOW,
    VertexClass.FORK_FLOW, VertexClass.CROSSING,
})


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


def test_vertex_classes_match_classify_vertex(sweep_records):
    """The one-pass class map is classify_vertex at every vertex, in vertex
    order, on every sweep algebra and the named families."""
    algebras = [rec.algebra for rec in sweep_records] + [
        crossing6_algebra(), fan5_algebra("both"), fan5_algebra("one"), zigzag4_algebra(),
        crossing_tree_algebra(2), linear_algebra(7, "><<>>>")]
    for alg in algebras:
        classes = vertex_classes(alg)
        assert list(classes.items()) == [(v, classify_vertex(alg, v))
                                         for v in alg.quiver.vertices]


@pytest.mark.parametrize("doc,message", [
    ("vertices: 1\n",
     "vertex 1 is isolated; classification needs at least two vertices"),
    ("vertices: 1, 2, 3\narrow a: 1 -> 2\n",
     "vertex 3 is isolated; classification needs at least two vertices"),
    ("vertices: 5\narrow a: 1 -> 4\narrow b: 2 -> 4\narrow c: 3 -> 4\narrow d: 4 -> 5\n",
     "vertex 4 has degrees (3, 1), not a valid vertex shape")])
def test_vertex_classes_raise_what_classify_vertex_raises(doc, message):
    alg = parse_algebra(doc)
    with pytest.raises(ValueError) as first_bad:
        for v in alg.quiver.vertices:
            classify_vertex(alg, v)
    with pytest.raises(ValueError) as mapped:
        vertex_classes(alg)
    assert str(mapped.value) == str(first_bad.value) == message


def test_vertex_ideal_fan5_both():
    alg = fan5_algebra("both")
    status = vertex_ideals(alg)[3]
    assert status.kind is IdealKind.ZERO
    assert status.witness == 4


def test_vertex_ideal_fan5_one():
    alg = fan5_algebra("one")
    status = vertex_ideals(alg)[3]
    assert status.kind is IdealKind.NEIGHBOURHOOD_IDEAL
    assert status.is_nonzero


def test_vertex_ideal_unique_sink_line():
    alg = linear_algebra(3)
    status = vertex_ideals(alg)[3]
    assert status.kind is IdealKind.WHOLE_ALGEBRA
    assert status.is_nonzero


def test_vertex_ideal_crossing_tree_center():
    alg = crossing_tree_algebra(1)
    status = vertex_ideals(alg)[1]
    assert status.kind is IdealKind.NEIGHBOURHOOD_IDEAL


def test_vertex_ideal_rejects_sources():
    alg = fan5_algebra("both")
    assert 4 not in vertex_ideals(alg)  # a fork source carries no ideal


def test_meet_flow_always_zero():
    # 1 -> 3 <- 2, 3 -> 4 with required relation
    from stringdet import parse_algebra, validate
    alg = validate(parse_algebra(
        "vertices: 4\narrow a: 1 -> 3\narrow b: 2 -> 3\narrow c: 3 -> 4\nrelation: a c\n"))
    assert alg.is_valid
    assert classify_vertex(alg, 3) is VertexClass.MEET_FLOW
    assert vertex_ideals(alg)[3].kind is IdealKind.ZERO


def test_count_p():
    assert determiner_report(zigzag4_algebra()).p == 1
    assert determiner_report(crossing_tree_algebra(1)).p == 0
    assert determiner_report(linear_algebra(6)).p == 0


def test_count_q():
    assert determiner_report(crossing_tree_algebra(1)).q == 1
    assert determiner_report(zigzag4_algebra()).q == 0
    assert determiner_report(crossing6_algebra()).q == 1


def test_count_q_crossing_tree_depth2():
    # the two outer crossings fed by the center (4 and 5) are witnessed by it
    # (single relation-free arrow in, relations on both forward paths), even
    # though their other in-neighbour is a source leaf; so only the crossings
    # 2 and 3, whose in-neighbours are both source leaves, carry a non-zero
    # ideal.  The brute-force oracle confirms the resulting determiner totals
    # (see acceptance criterion 4c).
    alg = crossing_tree_algebra(2)
    assert determiner_report(alg).q == 2
    statuses = vertex_ideals(alg)
    nonzero = [v for v in alg.quiver.vertices if v in statuses and statuses[v].is_nonzero]
    assert nonzero == [2, 3]
    assert all(classify_vertex(alg, v) is VertexClass.CROSSING for v in nonzero)
    assert all(classify_vertex(alg, a.source) is VertexClass.SOURCE_LEAF
               for v in nonzero for a in alg.quiver.incoming[v])
    for v in (4, 5):
        status = statuses[v]
        assert status.kind is IdealKind.ZERO
        assert status.witness == 1


def test_path_algebra_two_sinks_all_zero():
    # 1 -> 2 <- 3 -> 4: sinks 2 and 4, no relations: both ideals vanish
    alg = zigzag4_algebra()
    statuses = vertex_ideals(alg)
    for v in (2, 4):
        assert statuses[v].kind is IdealKind.ZERO


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
    statuses = vertex_ideals(alg)
    for v in sinks:
        status = statuses[v]
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
    alg = random_tree_algebra(random.Random(seed), n)
    statuses = vertex_ideals(alg)
    for v in alg.quiver.vertices:
        cls = classify_vertex(alg, v)
        if cls in (VertexClass.FORK_FLOW, VertexClass.CROSSING):
            star = _induced_arrow_names(alg, alg.quiver.neighbours(v) + (v,))
            assert _relation_inside(alg, star)
            status = statuses[v]
            if status.kind is IdealKind.NEIGHBOURHOOD_IDEAL:
                assert status.is_nonzero


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 10**9), n=st.integers(2, 7))
def test_q_counts_only_ideal_bearing(seed, n):
    alg = random_tree_algebra(random.Random(seed), n)
    statuses = vertex_ideals(alg)
    manual = 0
    for v in alg.quiver.vertices:
        cls = classify_vertex(alg, v)
        if cls is VertexClass.MEET_FLOW:
            assert statuses[v].kind is IdealKind.ZERO
        if cls in IDEAL_BEARING and statuses[v].is_nonzero:
            manual += 1
    assert manual == determiner_report(alg).q


def _induced_arrow_names(alg, members):
    """Names of the arrows of the subquiver induced on members."""
    members = set(members)
    return {a.name for a in alg.quiver.arrows if a.source in members and a.target in members}


def _relation_inside(alg, names):
    """True iff some relation generator uses only the named arrows."""
    return any(all(a in names for a in gen) for gen in alg.relations.generators)


# --------------------------------------------------------------------------
# the one-pass reach computation against the per-vertex scan it replaced

def _scan_witness(alg, i, blocked_targets=()):
    """Reference: the smallest vertex j with two outgoing arrows and a
    relation-free directed path to i, whose directed paths to each blocked
    target also hit a relation, found by walking from every candidate."""
    from stringdet.treewalk import walk_between

    def directed(walk):
        return all(s.forward for s in walk.steps)

    def blocked(walk):
        return _relation_inside(alg, {s.arrow.name for s in walk.steps})

    q = alg.quiver
    for j in q.vertices:
        if len(q.outgoing[j]) != 2:
            continue
        walk = walk_between(alg, j, i)
        if not directed(walk) or blocked(walk):
            continue
        if all(directed(w) and blocked(w)
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
    targets = tuple(a.target for a in alg.quiver.outgoing[v])
    w = _scan_witness(alg, v, targets)
    return (IdealKind.ZERO, w) if w is not None else (IdealKind.NEIGHBOURHOOD_IDEAL, None)


def _assert_matches_scan(alg):
    statuses = vertex_ideals(alg)
    bearing = [v for v in alg.quiver.vertices if classify_vertex(alg, v) in IDEAL_BEARING]
    assert sorted(statuses) == bearing
    for v in bearing:
        assert (statuses[v].kind, statuses[v].witness) == _scan_ideal(alg, v), v


def test_reach_pass_matches_scan_exhaustive():
    count = 0
    for n in range(2, 5):
        for alg in iter_tree_algebras(n):
            _assert_matches_scan(alg)
            count += 1
    assert count == 332


def test_reach_pass_matches_scan_crossing_trees():
    for levels in range(1, 5):
        _assert_matches_scan(crossing_tree_algebra(levels))


def test_reach_pass_matches_scan_random():
    rng = random.Random(20261018)
    for _ in range(200):
        _assert_matches_scan(random_tree_algebra(rng, rng.randint(2, 16)))
    for _ in range(200):
        alg = random_tree_algebra(rng, rng.randint(2, 40))
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
    assert vertex_ideals(alg)[6].witness == 2


# Hand-built documents that pin the chain windows of the pass: where a
# generator restarts the window, which segment the next reach drops, and
# what an in-arrow at the end of its chain reads.

# the chain a1 ... a12 on 1 -> ... -> 13, cut by generators of length 3, 4, 5
# and 4 (the last ends with d out of the fork flow 13), with the fork
# vertices 3, 5, 8 and 11 hanging a sink off it, and the fork source 1
LONG_CHAIN = ("vertices: 20\n"
              + "".join(f"arrow a{k}: {k} -> {k + 1}\n" for k in range(1, 13))
              + "arrow f3: 3 -> 14\narrow f5: 5 -> 15\narrow f8: 8 -> 16\n"
              "arrow f11: 11 -> 17\narrow c: 13 -> 18\narrow d: 13 -> 19\narrow g: 1 -> 20\n"
              "relation: a2 f3\nrelation: a4 f5\nrelation: a7 f8\nrelation: a10 f11\n"
              "relation: a12 c\nrelation: a2 a3 a4\nrelation: a4 a5 a6 a7\n"
              "relation: a6 a7 a8 a9 a10\nrelation: a10 a11 a12 d\n")

# the chain p1 ... p4 ends at the fork flow 5 (relations toward both outs);
# the chains q1 x0 x and y0 y meet at the crossing 9 and both go on, x to c
# and y to d, each cut by a generator through the crossing
CHAIN_ENDS = ("vertices: 16\n"
              "arrow p1: 1 -> 2\narrow p2: 2 -> 3\narrow p3: 3 -> 4\narrow p4: 4 -> 5\n"
              "arrow s: 2 -> 6\narrow o: 1 -> 7\narrow q1: 5 -> 8\narrow q2: 5 -> 10\n"
              "arrow x0: 8 -> 11\narrow x: 11 -> 9\narrow y0: 12 -> 13\narrow y: 13 -> 9\n"
              "arrow t: 12 -> 14\narrow c: 9 -> 15\narrow d: 9 -> 16\n"
              "relation: p1 s\nrelation: p4 q1\nrelation: p4 q2\nrelation: p1 p2 p3\n"
              "relation: x d\nrelation: y c\nrelation: q1 x0 x c\nrelation: y0 y d\n")

# the crossing 7: its in-arrow b ends its chain, e goes on to d, and the
# generator j e d cuts e's chain through the crossing
CROSSING_ONE_GOES_ON = ("vertices: 13\n"
                        "arrow a: 1 -> 2\narrow b: 2 -> 7\narrow h: 2 -> 8\narrow i: 9 -> 10\n"
                        "arrow j: 10 -> 11\narrow e: 11 -> 7\narrow k: 10 -> 12\n"
                        "arrow c: 7 -> 3\narrow d: 7 -> 4\narrow m: 4 -> 5\narrow n: 5 -> 6\n"
                        "arrow r: 9 -> 13\n"
                        "relation: a h\nrelation: b c\nrelation: b d\nrelation: i k\n"
                        "relation: e c\nrelation: j e d\nrelation: d m n\n")

# the generator b2 b3 b4 d through the fork flow 5 starts at 8: the segment
# that the reach of d drops ends there, so of the fork vertices 9 and 7 (its
# second arrow's source) only 9 witnesses 5
FORK_PAST_CUT = ("vertices: 9\n"
                 "arrow b1: 9 -> 8\narrow b2: 8 -> 7\narrow b3: 7 -> 6\narrow b4: 6 -> 5\n"
                 "arrow c: 5 -> 1\narrow d: 5 -> 2\narrow s: 7 -> 3\narrow o: 9 -> 4\n"
                 "relation: b4 c\nrelation: b2 s\nrelation: b2 b3 b4 d\n")

# relation-free: the fork sources 2, 6 and 11 feed the sinks 1, 4, 9 and 12
FREE_LINE = ("vertices: 12\n"
             "arrow a1: 2 -> 1\narrow a2: 2 -> 3\narrow a3: 3 -> 4\narrow a4: 5 -> 4\n"
             "arrow a5: 6 -> 5\narrow a6: 6 -> 7\narrow a7: 7 -> 8\narrow a8: 8 -> 9\n"
             "arrow a9: 10 -> 9\narrow a10: 11 -> 10\narrow a11: 11 -> 12\n")


@pytest.mark.parametrize("doc,witnesses", [
    (LONG_CHAIN, {13: 8, 19: 11, 20: 1, 3: None, 11: None}),
    (CHAIN_ENDS, {5: 2, 9: 5, 15: 9, 2: None}),
    (CROSSING_ONE_GOES_ON, {7: 2, 3: 7, 6: None}),
    (FORK_PAST_CUT, {5: 9, 2: 5, 3: 7}),
    (FREE_LINE, {1: 2, 4: 2, 9: 6, 12: 11}),
], ids=["long-chain", "chain-ends", "crossing-one-goes-on", "fork-past-cut", "free-line"])
def test_chain_pass_matches_scan_hand_built(doc, witnesses):
    from stringdet import validate
    alg = validate(parse_algebra(doc))
    assert alg.is_valid, alg.certificate
    _assert_matches_scan(alg)
    statuses = vertex_ideals(alg)
    assert {v: statuses[v].witness for v in witnesses} == witnesses


def test_families_store_their_relations_reduced():
    # the chain pass reads a generator of length >= 3 as a run of one chain,
    # which a generator containing another need not be
    from stringdet.algebra import RelationReductionWarning
    with pytest.warns(RelationReductionWarning):
        alg = linear_algebra(6, relations=[("a1", "a2", "a3", "a4"), ("a2", "a3", "a4"),
                                           ("a1", "a2")])
    assert alg.relations.generators == (("a1", "a2"), ("a2", "a3", "a4"))
    _assert_matches_scan(alg)


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


def _count_classifications(monkeypatch):
    """Wrap vertex_classes in every stringdet module that binds it."""
    import sys
    import stringdet.cli  # noqa: F401  (bound before the wrapping)
    from stringdet import taxonomy
    calls = []
    original = taxonomy.vertex_classes

    def counted(*args):
        calls.append(args)
        return original(*args)

    wrapped = set()
    for name, module in list(sys.modules.items()):
        if (name.partition(".")[0] == "stringdet"
                and getattr(module, "vertex_classes", None) is original):
            monkeypatch.setattr(module, "vertex_classes", counted)
            wrapped.add(name)
    assert {"stringdet.taxonomy", "stringdet.engine", "stringdet.cli"} <= wrapped
    return calls


def test_report_classifies_each_vertex_once(monkeypatch):
    calls = _count_classifications(monkeypatch)
    for alg in (crossing_tree_algebra(3), linear_algebra(7, "><<>>>"), fan5_algebra("both"),
                zigzag4_algebra()):
        calls.clear()
        determiner_report(alg)
        assert len(calls) == 1


def test_ideals_command_classifies_each_vertex_once(monkeypatch, tmp_path, capsys):
    from stringdet.cli import main
    from stringdet.families import generate_example
    path = tmp_path / "ct3.txt"
    path.write_text(generate_example("crossing-tree", levels=3))
    calls = _count_classifications(monkeypatch)
    for fmt in ("text", "json"):
        calls.clear()
        assert main(["ideals", str(path), "--format", fmt]) == 0
        assert len(calls) == 1
    assert "vertex ideals:" in capsys.readouterr().out
