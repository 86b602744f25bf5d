from operator import attrgetter

import pytest
from hypothesis import given, settings, strategies as st

from stringdet import determiner_report, parse_algebra, validate
from stringdet.algebra import (Arrow, BoundQuiverAlgebra, ParseError, Quiver,
                              RelationReductionWarning, RelationSet, serialize)
from stringdet.families import crossing6_algebra, crossing_tree_algebra
import random

from helpers import by_end, path_in_ideal
from tree_algebras import iter_tree_candidates, random_tree_algebra


ZIGZAG = """\
# 1 -> 2 <- 3 -> 4
vertices: 4
arrow a1: 1 -> 2
arrow a2: 3 -> 2
arrow a3: 3 -> 4
"""

CROSSING6 = """\
vertices: 6
arrow a1: 1 -> 3
arrow a2: 2 -> 3
arrow a3: 3 -> 4
arrow a4: 3 -> 5
arrow a5: 6 -> 5
relation: a1 a3
relation: a2 a4
"""


def test_parse_zigzag():
    alg = parse_algebra(ZIGZAG)
    assert alg.quiver.vertices == (1, 2, 3, 4)
    assert len(alg.quiver.arrows) == 3
    assert alg.relations.generators == ()
    assert alg.certificate is None


def test_parse_crossing6():
    alg = parse_algebra(CROSSING6)
    assert len(alg.quiver.vertices) == 6
    assert len(alg.quiver.arrows) == 5
    assert alg.relations.generators == (("a1", "a3"), ("a2", "a4"))


def test_parse_empty_document():
    with pytest.raises(ParseError):
        parse_algebra("")
    with pytest.raises(ParseError):
        parse_algebra("# only a comment\n")


def test_parse_errors():
    with pytest.raises(ParseError, match="unknown vertex"):
        parse_algebra("vertices: 2\narrow a: 1 -> 5\n")
    with pytest.raises(ParseError, match="unknown arrow"):
        parse_algebra("vertices: 2\narrow a: 1 -> 2\nrelation: a b\n")
    with pytest.raises(ParseError, match="not composable"):
        parse_algebra("vertices: 3\narrow a: 1 -> 2\narrow b: 3 -> 2\nrelation: a b\n")
    with pytest.raises(ParseError, match="duplicate arrow"):
        parse_algebra("vertices: 2\narrow a: 1 -> 2\narrow a: 2 -> 1\n")
    with pytest.raises(ParseError, match="at least two"):
        parse_algebra("vertices: 2\narrow a: 1 -> 2\nrelation: a\n")


@pytest.mark.parametrize("doc,lineno", [
    ("vertices: 2, " + "7" * 4301 + "\n", 1),
    ("vertices: " + "1" * 4301 + "\n", 1),
    ("# ids\nvertices: 2\narrow a: 1 -> " + "0" * 4300 + "2\n", 3),
    ("vertices: 2\narrow a: " + "9" * 5000 + " -> 2  # far\n", 2)],
    ids=["vertex-list", "vertex-count", "arrow-target", "arrow-source"])
def test_parse_refuses_overlong_vertex_ids(doc, lineno):
    """An id or count longer than 4300 characters is a parse error naming its
    line, before int() could refuse it with Python's own message (3.11 and
    later) or accept it (3.10)."""
    longest = max(len(word) for word in doc.replace(",", " ").split())
    with pytest.raises(ParseError) as info:
        parse_algebra(doc)
    assert str(info.value) == (f"vertex id or count of {longest} characters is longer than "
                               f"the limit of 4300 (line {lineno})")
    assert info.value.line == lineno


@pytest.mark.parametrize("comment", ["# to the sink", "#3 -> 4", "# " + "9" * 5000])
def test_parse_drops_a_comment_after_an_arrow(comment):
    """A comment after an arrow is dropped, a long one too: only an id, not a
    line, is held to the length limit."""
    alg = parse_algebra(f"vertices: 2\narrow a: 1 -> 2  {comment}\n")
    assert alg.quiver.arrows == (Arrow("a", 1, 2),)


def test_parse_accepts_ids_at_the_length_limit():
    big = "1" + "0" * 4299
    alg = parse_algebra(f"vertices: 1, {big}\narrow a: {big} -> 0001\n")
    assert alg.quiver.vertices == (1, int(big))
    assert alg.quiver.arrows[0].source == int(big)


@pytest.mark.parametrize("doc,message", [
    ("vertices: \u00b2\n", "bad vertex count '\u00b2' (line 1)"),
    ("vertices: 1, \u00b2\n", "bad vertex id '\u00b2' (line 1)")],
    ids=["vertex-count", "vertex-list"])
def test_parse_refuses_digits_int_cannot_read(doc, message):
    """A superscript is a digit to str.isdigit but not to int()."""
    with pytest.raises(ParseError) as info:
        parse_algebra(doc)
    assert str(info.value) == message


def test_parse_explicit_vertex_ids():
    alg = parse_algebra("vertices: 2, 7, 9\narrow x: 7 -> 2\narrow y: 7 -> 9\n")
    assert alg.quiver.vertices == (2, 7, 9)


def test_relation_reduction_warns():
    doc = ("vertices: 4\narrow a: 1 -> 2\narrow b: 2 -> 3\narrow c: 3 -> 4\n"
           "relation: a b\nrelation: a b c\n")
    with pytest.warns(RelationReductionWarning):
        alg = parse_algebra(doc)
    assert alg.relations.generators == (("a", "b"),)


def test_validate_crossing6_valid():
    alg = validate(parse_algebra(CROSSING6))
    assert alg.is_valid


def test_validate_zigzag_valid():
    alg = validate(parse_algebra(ZIGZAG))
    assert alg.is_valid


def test_validate_triple_out_star():
    doc = ("vertices: 4\narrow a: 1 -> 2\narrow b: 1 -> 3\narrow c: 1 -> 4\n")
    alg = validate(parse_algebra(doc))
    assert not alg.is_valid
    assert any("out-degree 3" in v for v in alg.certificate.violations)


def test_validate_cycle():
    doc = ("vertices: 3\narrow a: 1 -> 2\narrow b: 2 -> 3\narrow c: 3 -> 1\n")
    alg = validate(parse_algebra(doc))
    assert not alg.is_valid
    assert any("tree" in v for v in alg.certificate.violations)


def test_validate_builds_no_parent_table():
    # connectivity is a count of the vertices reached; only the tree walks
    # read the (parent, arrow) table
    for doc in (ZIGZAG, CROSSING6):
        alg = validate(parse_algebra(doc))
        assert "rooted_parents" not in alg.quiver.__dict__


def test_validate_finds_a_cycle_beside_an_isolated_vertex():
    # n - 1 arrows, so the arrow count alone does not flag it
    doc = "vertices: 4\narrow a: 1 -> 2\narrow b: 2 -> 3\narrow c: 3 -> 1\n"
    alg = validate(parse_algebra(doc))
    assert alg.certificate.violations == ("underlying graph is not connected",)
    assert "rooted_parents" not in alg.quiver.__dict__


def test_validate_missing_branch_relation():
    # two in, one out, no relation: branching condition fails
    doc = ("vertices: 4\narrow a: 1 -> 3\narrow b: 2 -> 3\narrow c: 3 -> 4\n")
    alg = validate(parse_algebra(doc))
    assert not alg.is_valid
    assert any("needs a zero relation" in v for v in alg.certificate.violations)


@pytest.mark.parametrize("inner", [("a1", "a2"), ("a2", "a3")])
def test_validate_refuses_an_unreduced_hand_built_relation_set(inner):
    # a prefix or a suffix of a longer generator; parsing would drop the longer one
    quiver = Quiver((1, 2, 3, 4, 5),
                    tuple(Arrow(f"a{k}", k, k + 1) for k in range(1, 5)))
    alg = validate(BoundQuiverAlgebra(quiver, RelationSet((inner, ("a1", "a2", "a3")))))
    assert alg.certificate.violations == (f"relation a1 a2 a3 contains relation {' '.join(inner)}",)
    with pytest.raises(ValueError, match="must be validated and valid"):
        determiner_report(alg)


def test_validate_reports_no_containment_on_reduced_sets(sweep_records):
    assert all(alg.certificate.violations == ()
               for alg in [rec.algebra for rec in sweep_records] + [crossing_tree_algebra(3)])
    # parsing drops the longer generator before validation sees it
    with pytest.warns(RelationReductionWarning):
        alg = validate(parse_algebra("vertices: 4\narrow a: 1 -> 2\narrow b: 2 -> 3\n"
                                     "arrow c: 3 -> 4\nrelation: a b c\nrelation: b c\n"))
    assert alg.is_valid and alg.relations.generators == (("b", "c"),)


def _star(n: int) -> str:
    """The out-star 1 -> 2, ..., n - 1 with the tail n -> 1."""
    return (f"vertices: {n}\narrow t: {n} -> 1\n"
            + "".join(f"arrow a{k}: 1 -> {k}\n" for k in range(2, n)))


def _pair_messages(alg):
    """Reference: the branching-condition messages of a double loop over
    every pair of in- (out-) arrows at every vertex, whatever its degrees."""
    q, rels = alg.quiver, alg.relations
    messages = []
    for v in q.vertices:
        ins, outs = q.incoming[v], q.outgoing[v]
        for i in range(len(ins)):
            for j in range(i + 1, len(ins)):
                a, b = ins[i], ins[j]
                for g in outs:
                    if not (rels.contains_path((a.name, g.name))
                            or rels.contains_path((b.name, g.name))):
                        messages.append(f"vertex {v}: incoming pair ({a.name}, {b.name}) "
                                        f"with outgoing {g.name} needs a zero relation")
        for i in range(len(outs)):
            for j in range(i + 1, len(outs)):
                a, b = outs[i], outs[j]
                for g in ins:
                    if not (rels.contains_path((g.name, a.name))
                            or rels.contains_path((g.name, b.name))):
                        messages.append(f"vertex {v}: outgoing pair ({a.name}, {b.name}) "
                                        f"with incoming {g.name} needs a zero relation")
    return messages


def test_over_degree_vertex_gets_only_its_degree_message():
    alg = validate(parse_algebra(_star(1001)))
    assert alg.certificate.violations == ("vertex 1: out-degree 999 exceeds 2",)
    # in-degree 3 and two outs: 9 pair messages by the reference, none here
    doc = ("vertices: 6\narrow a: 1 -> 4\narrow b: 2 -> 4\narrow c: 3 -> 4\n"
           "arrow d: 4 -> 5\narrow e: 4 -> 6\n")
    alg = validate(parse_algebra(doc))
    assert len(_pair_messages(alg)) == 9
    assert alg.certificate.violations == ("vertex 4: in-degree 3 exceeds 2",)


def test_validation_tests_no_pair_at_an_over_degree_star(monkeypatch):
    calls = []
    original = RelationSet.contains_path

    def counted(self, path):
        calls.append(path)
        return original(self, path)

    monkeypatch.setattr(RelationSet, "contains_path", counted)
    validate(parse_algebra(CROSSING6))
    assert calls  # the counter sees the checks of a valid crossing
    calls.clear()
    alg = validate(parse_algebra(_star(2001)))
    assert calls == []
    assert alg.certificate.violations == ("vertex 1: out-degree 1999 exceeds 2",)


def test_pair_messages_unchanged_where_degrees_are_in_range(sweep_records):
    """Every sweep algebra, and every candidate on n <= 5 vertices, valid or
    not, keeps the reference's pair messages but at over-degree vertices."""
    algebras = [rec.algebra for rec in sweep_records]
    algebras += [alg for n in range(2, 6) for alg in iter_tree_candidates(n)]
    dropped = 0
    for alg in algebras:
        q = alg.quiver
        over = {f"vertex {v}" for v in q.vertices
                if len(q.incoming[v]) > 2 or len(q.outgoing[v]) > 2}
        reference = _pair_messages(alg)
        expected = [m for m in reference if m.partition(": ")[0] not in over]
        pairs = [m for m in validate(alg).certificate.violations
                 if m.endswith("needs a zero relation")]
        assert pairs == expected
        dropped += len(reference) - len(expected)
    assert dropped > 0  # some candidate has an over-degree vertex with pairs


def test_path_in_ideal():
    alg = validate(parse_algebra(CROSSING6))
    assert path_in_ideal(alg, ("a1", "a3"))
    assert not path_in_ideal(alg, ("a1",))
    with pytest.raises(ValueError):
        path_in_ideal(alg, ("a1", "a5"))


def test_path_in_ideal_longer_path():
    doc = ("vertices: 4\narrow a1: 1 -> 2\narrow a3: 2 -> 3\narrow a5: 3 -> 4\n"
           "relation: a1 a3\n")
    alg = validate(parse_algebra(doc))
    assert path_in_ideal(alg, ("a1", "a3", "a5"))
    assert not path_in_ideal(alg, ("a3", "a5"))


def test_serialize_round_trip():
    alg = validate(parse_algebra(CROSSING6))
    doc = serialize(alg)
    again = parse_algebra(doc)
    assert serialize(again) == doc
    assert again.quiver == alg.quiver
    assert again.relations == alg.relations


def test_degree_bound_for_valid():
    alg = crossing6_algebra()
    q = alg.quiver
    assert len(q.arrows) == len(q.vertices) - 1
    assert all(len(q.incoming[v]) + len(q.outgoing[v]) <= 4 for v in q.vertices)


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 10**9), n=st.integers(2, 6))
def test_round_trip_random(seed, n):
    alg = random_tree_algebra(random.Random(seed), n)
    doc = serialize(alg)
    parsed = parse_algebra(doc)
    assert serialize(parsed) == doc
    normalized = parse_algebra(serialize(parsed))
    assert normalized == parsed


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 10**9), n=st.integers(2, 6))
def test_ideal_membership_monotone(seed, n):
    alg = random_tree_algebra(random.Random(seed), n)
    for gen in alg.relations.generators:
        assert path_in_ideal(alg, gen)
        # extend the generator while staying composable: membership persists
        amap = alg.quiver.arrow_map
        last = amap[gen[-1]]
        for a in alg.quiver.outgoing[last.target]:
            assert path_in_ideal(alg, gen + (a.name,))


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 10**9), n=st.integers(2, 7))
def test_relation_free_valid_is_path_graph(seed, n):
    rng = random.Random(seed)
    for _ in range(20):
        alg = random_tree_algebra(rng, n)
        if alg.relations.is_empty:
            assert all(len(alg.quiver.neighbours(v)) <= 2 for v in alg.quiver.vertices)
            return


def _tables_match_reference(q: Quiver) -> None:
    for first in ("outgoing", "incoming"):  # either table may be asked for first
        fresh = Quiver(q.vertices, q.arrows)
        getattr(fresh, first)
        assert fresh.outgoing == by_end(q.vertices, q.arrows, attrgetter("source"))
        assert fresh.incoming == by_end(q.vertices, q.arrows, attrgetter("target"))


def test_degree_tables_match_the_reference_grouping(sweep_records):
    """The one-pass degree tables equal a grouping per end on every sweep
    algebra and on crossing-tree levels 1-5, whose crossing vertices share
    both ends."""
    for rec in sweep_records:
        _tables_match_reference(rec.algebra.quiver)
    for levels in range(1, 6):
        _tables_match_reference(crossing_tree_algebra(levels).quiver)


def test_degree_tables_keep_natural_name_order_at_shared_ends():
    q = parse_algebra("vertices: 3\narrow a10: 1 -> 2\narrow a2: 3 -> 2\n"
                      "arrow b10: 2 -> 1\narrow b9: 2 -> 3\n").quiver
    assert [a.name for a in q.incoming[2]] == ["a2", "a10"]
    assert [a.name for a in q.outgoing[2]] == ["b9", "b10"]
    _tables_match_reference(q)
