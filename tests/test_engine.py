import dataclasses
import random

import pytest
from hypothesis import given, settings, strategies as st

from stringdet import check_unique_sink_characterization, determiner_report, dynkin_type
from stringdet.families import (crossing6_algebra, crossing_tree_algebra, fan5_algebra,
                                fork_algebra, linear_algebra, zigzag4_algebra)
from stringdet.algebra import Arrow
from stringdet.engine import VertexDecision
from stringdet.taxonomy import IdealKind, VertexClass, VertexIdealStatus, classify_vertex

from tree_algebras import iter_tree_algebras, random_tree_algebra


def projective_set(alg):
    return set(determiner_report(alg).projective_determiners)


def test_crossing6_projectives():
    assert projective_set(crossing6_algebra()) == {1, 2, 4, 5, 6}


def test_zigzag4_projectives():
    assert projective_set(zigzag4_algebra()) == {1, 2, 4}


def test_fan5_projectives():
    assert projective_set(fan5_algebra("both")) == {1, 2, 3, 5}
    assert projective_set(fan5_algebra("one")) == {1, 2, 5}


def test_report_crossing_tree_level1():
    rep = determiner_report(crossing_tree_algebra(1))
    assert rep.formula_value == 8
    assert len(rep.projective_determiners) == 4
    assert rep.epi_determiner_count == 4
    assert (rep.n, rep.p, rep.q) == (5, 0, 1)


def test_report_unique_sink_lines():
    for n in range(2, 9):
        rep = determiner_report(linear_algebra(n))
        assert rep.formula_value == 2 * n - 2
        assert rep.q == 1 and rep.p == 0


def test_report_counts_consistent():
    for alg in (crossing6_algebra(), zigzag4_algebra(), fan5_algebra("both"),
                crossing_tree_algebra(1)):
        rep = determiner_report(alg)
        assert len(rep.projective_determiners) == rep.n - rep.p - rep.q
        assert rep.formula_value == (rep.n - 1) + len(rep.projective_determiners)


def test_report_serialization():
    rep = determiner_report(fan5_algebra("both"))
    d = rep.to_dict()
    assert d["projective_determiners"] == sorted(d["projective_determiners"])
    assert d["formula_value"] == 8
    text = rep.to_text()
    assert "P(3)" in text


def test_single_vertex_rejected():
    from stringdet import parse_algebra, validate
    alg = validate(parse_algebra("vertices: 1\n"))
    assert alg.is_valid
    with pytest.raises(ValueError):
        determiner_report(alg)


def test_unique_sink_check_line():
    alg = linear_algebra(5)
    out = check_unique_sink_characterization(alg, 5)
    assert out.applicable
    assert out.determiners_cover_all_but_sink is True
    assert out.unique_sink is True
    assert out.sides_agree


def test_unique_sink_check_zigzag():
    alg = zigzag4_algebra()
    out = check_unique_sink_characterization(alg, 4)
    assert out.applicable
    assert out.determiners_cover_all_but_sink is False
    assert out.unique_sink is False
    assert out.sides_agree


def test_unique_sink_check_not_applicable():
    alg = crossing6_algebra()
    out = check_unique_sink_characterization(alg, 4)
    assert not out.applicable
    assert "crossing" in out.reason


def test_unique_sink_check_wrong_vertex():
    alg = linear_algebra(4)
    out = check_unique_sink_characterization(alg, 1)
    assert not out.applicable


def test_dynkin_shapes():
    zigzag, fan5, tree = zigzag4_algebra(), fan5_algebra("both"), crossing_tree_algebra(1)
    assert dynkin_type(linear_algebra(1)).shape == "A"
    assert dynkin_type(zigzag).shape == "A"
    fan = dynkin_type(fan5)
    assert fan.shape == "D"
    assert fan.n == 5
    assert fan.limb_lengths == (1, 1, 2)
    assert fan.branch_ideal_nonzero
    assert dynkin_type(tree).shape == "other"


def test_dynkin_fork():
    alg = fork_algebra(6)
    rep = dynkin_type(alg)
    assert rep.shape == "D"
    assert rep.n == 6


def test_dynkin_exceptional():
    from stringdet import parse_algebra, validate
    base = ("vertices: 6\narrow a1: 1 -> 2\narrow a2: 2 -> 3\narrow a3: 3 -> 4\n"
            "arrow a4: 4 -> 5\narrow a5: 6 -> 3\nrelation: a2 a3\n")
    alg = validate(parse_algebra(base))
    assert alg.is_valid
    rep = dynkin_type(alg)
    assert rep.shape == "E6"
    assert rep.branch_ideal_nonzero


def test_branch_star_always_holds_a_relation():
    """On every valid algebra with n <= 5 whose tree has a vertex of degree
    3, dynkin_type reports that vertex, and a relation inside its star."""
    branched = 0
    for n in range(2, 6):
        for alg in iter_tree_algebras(n):
            q = alg.quiver
            if not any(len(q.incoming[v]) + len(q.outgoing[v]) == 3 for v in q.vertices):
                continue
            rep = dynkin_type(alg)
            assert rep.branch_vertex is not None
            assert rep.branch_ideal_nonzero is True
            branched += 1
    assert branched == 72 + 3720


def test_fork_source_never_determiner():
    alg = fan5_algebra("both")
    decision = next(d for d in determiner_report(alg).decisions if d.vertex == 4)
    assert not decision.is_determiner
    assert decision.vertex_class is VertexClass.FORK_SOURCE


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 10**9), n=st.integers(2, 7))
def test_partition_identity(seed, n):
    alg = random_tree_algebra(random.Random(seed), n)
    rep = determiner_report(alg)
    assert len(rep.projective_determiners) + rep.p + rep.q == rep.n
    assert rep.formula_value == 2 * rep.n - rep.p - rep.q - 1


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 10**9), n=st.integers(2, 7))
def test_out_degree_one_always_in(seed, n):
    alg = random_tree_algebra(random.Random(seed), n)
    rep = determiner_report(alg)
    dets = set(rep.projective_determiners)
    for v in alg.quiver.vertices:
        if len(alg.quiver.outgoing[v]) == 1:
            assert v in dets
        if classify_vertex(alg, v) is VertexClass.FORK_SOURCE:
            assert v not in dets


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 10**9), n=st.integers(2, 7))
def test_line_shape_parameters(seed, n):
    rng = random.Random(seed)
    orientation = "".join(rng.choice("><") for _ in range(n - 1))
    rels = []
    alg = linear_algebra(n, orientation, rels)
    if not alg.is_valid:
        return
    rep = determiner_report(alg)
    shape = dynkin_type(alg)
    assert shape.shape == "A"
    interior_sources = sum(
        1 for v in alg.quiver.vertices
        if not alg.quiver.incoming[v] and len(alg.quiver.neighbours(v)) == 2)
    assert rep.p == interior_sources


@pytest.mark.parametrize("make,field,value", [
    (lambda: Arrow("a1", 1, 2), "source", 3),
    (lambda: VertexIdealStatus(4, IdealKind.ZERO, witness=1), "witness", 2),
    (lambda: VertexDecision(4, VertexClass.SINK_LEAF, VertexIdealStatus(4, IdealKind.ZERO, 1),
                            True, "vertex ideal vanishes"), "is_determiner", False)],
    ids=["Arrow", "VertexIdealStatus", "VertexDecision"])
def test_records_are_immutable_values(make, field, value):
    """Per-vertex records refuse assignment to a field or a new attribute, and
    equal records are equal and hash alike."""
    record = make()
    with pytest.raises(AttributeError):
        setattr(record, field, value)
    # a frozen dataclass with slots raises TypeError, not AttributeError, for
    # a new name on Python 3.10-3.13
    with pytest.raises((AttributeError, TypeError)):
        record.extra = 1
    assert record == make() and hash(record) == hash(make())
    changed = (record._replace(**{field: value}) if hasattr(record, "_replace")
               else dataclasses.replace(record, **{field: value}))
    assert changed != record


def _json_values(value):
    """Every value inside a report dict, containers included."""
    yield value
    if isinstance(value, dict):
        for v in value.values():
            yield from _json_values(v)
    elif isinstance(value, (list, tuple)):
        for v in value:
            yield from _json_values(v)


@pytest.mark.parametrize("alg", [crossing6_algebra(), zigzag4_algebra(), fan5_algebra("both"),
                                 crossing_tree_algebra(2), linear_algebra(5)],
                         ids=["crossing6", "zigzag4", "fan5", "crossing-tree-2", "line-5"])
def test_report_dicts_hold_no_records(alg):
    """Arrow and VertexDecision are tuples, so json would write a stray one as
    a list: a report's dict must hold neither."""
    doc = {**determiner_report(alg).to_dict(), "dynkin": dynkin_type(alg).to_dict()}
    assert not [v for v in _json_values(doc) if isinstance(v, (Arrow, VertexDecision))]
