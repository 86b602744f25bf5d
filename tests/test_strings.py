import random

import pytest
from hypothesis import given, settings, strategies as st

from stringdet import ar_quiver, parse_algebra, strings
from stringdet.families import crossing_tree_algebra, fan5_algebra, linear_algebra
from stringdet.modules import injective, projective
from stringdet.strings import (InvalidStringError, Letter, StringWalk, _sorted_strings,
                               enumerate_strings, injective_support, make_string,
                               projective_support, radical_supports)
from stringdet.treewalk import walk_between

from helpers import path_in_ideal
from tree_algebras import random_tree_algebra


def brute_force_strings(alg):
    """Independent enumeration: grow letter sequences one letter at a time,
    checking only the local rules (composability, no immediate repeat of the
    same arrow, no same-direction run inside the ideal); canonicalize by
    comparing against the reversed rendering."""
    found = set()
    for v in alg.quiver.vertices:
        found.add(StringWalk((v,), ()))

    def endpoint(letter):
        a = alg.quiver.arrow_map[letter.arrow]
        return a.target if letter.direct else a.source

    def run_ok(letters):
        i = 0
        while i < len(letters):
            j = i
            while j + 1 < len(letters) and letters[j + 1].direct == letters[i].direct:
                j += 1
            chunk = [l.arrow for l in letters[i:j + 1]]
            if not letters[i].direct:
                chunk.reverse()
            if alg.relations.contains_path(tuple(chunk)):
                return False
            i = j + 1
        return True

    def grow(path, letters):
        if letters:
            walk = StringWalk(tuple(path), tuple(letters))
            inv = StringWalk(tuple(reversed(path)),
                             tuple(Letter(l.arrow, not l.direct) for l in reversed(letters)))
            found.add(min(walk, inv, key=lambda w: w.rendering()))
        at = path[-1]
        for a in alg.quiver.arrows:
            for direct in (True, False):
                nxt = Letter(a.name, direct)
                frm = a.source if direct else a.target
                if frm != at:
                    continue
                if letters and letters[-1].arrow == a.name:
                    continue
                cand = letters + [nxt]
                if run_ok(cand):
                    grow(path + [endpoint(nxt)], cand)

    for v in alg.quiver.vertices:
        grow([v], [])
    return found


def all_pairs_strings(alg):
    """Reference: the trivial strings, then every vertex pair a < b whose
    walk_between make_string accepts, sorted as enumerate_strings."""
    verts = alg.quiver.vertices
    found = [StringWalk((v,), ()) for v in verts]
    for i, a in enumerate(verts):
        for b in verts[i + 1:]:
            steps = walk_between(alg, a, b).steps
            try:
                found.append(make_string(alg, a, [Letter(s.arrow.name, s.forward)
                                                  for s in steps]))
            except InvalidStringError:
                pass
    return _sorted_strings(found)


def _counted_walks(monkeypatch):
    """The (a, b) of every strings.walk_between call from now on."""
    walks = []
    real = strings.walk_between

    def counting(algebra, a, b):
        walks.append((a, b))
        return real(algebra, a, b)

    monkeypatch.setattr(strings, "walk_between", counting)
    return walks


def test_enumeration_matches_all_pairs_on_sweep(sweep_records, monkeypatch):
    walks = _counted_walks(monkeypatch)
    total = 0
    for rec in sweep_records:
        walks.clear()
        found = enumerate_strings(rec.algebra)
        assert found == all_pairs_strings(rec.algebra)
        # one walk per non-trivial string, none for a pair that is not one
        assert len(walks) == len(found) - rec.algebra.quiver.vertex_count()
        total += len(found)
    assert total == 5335


@pytest.mark.parametrize("alg", [crossing_tree_algebra(1), crossing_tree_algebra(2),
                                 crossing_tree_algebra(3), crossing_tree_algebra(4),
                                 linear_algebra(30)])
def test_enumeration_matches_all_pairs(alg, monkeypatch):
    expected = all_pairs_strings(alg)

    def refuse(*args):
        raise AssertionError("the search tests each string against the relations alone")

    # no string the search reaches is checked against the relations a second time
    monkeypatch.setattr(strings, "make_string", refuse)
    assert enumerate_strings(alg) == expected


def test_enumeration_walks_only_the_pairs_that_are_strings(monkeypatch):
    alg = crossing_tree_algebra(3)
    walks = _counted_walks(monkeypatch)
    n, found = alg.quiver.vertex_count(), enumerate_strings(alg)
    assert (n, len(found)) == (53, 171)
    # 118 walks of the 1378 vertex pairs, each built into a string
    assert len(walks) == len(set(walks)) == len(found) - n == 118


def test_enumerate_line2():
    alg = linear_algebra(2)
    strings = enumerate_strings(alg)
    assert len(strings) == 3
    assert sum(1 for s in strings if s.is_trivial) == 2


def test_enumerate_line3_with_relation():
    alg = linear_algebra(3, relations=[("a1", "a2")])
    strings = enumerate_strings(alg)
    assert len(strings) == 5
    assert all(len(s) <= 1 for s in strings)


def test_enumerate_crossing_tree_short_strings():
    alg = crossing_tree_algebra(1)
    strings = enumerate_strings(alg)
    assert all(len(s) <= 2 for s in strings)
    assert len(strings) == len(brute_force_strings(alg))


def test_enumerate_matches_brute_force_fan5():
    for variant in ("both", "one"):
        alg = fan5_algebra(variant)
        assert set(enumerate_strings(alg)) == brute_force_strings(alg)


def test_make_string_rejects_backtrack():
    alg = linear_algebra(3)
    with pytest.raises(InvalidStringError):
        make_string(alg, 1, (Letter("a1", True), Letter("a1", False)))


def test_make_string_rejects_ideal_run():
    alg = linear_algebra(3, relations=[("a1", "a2")])
    with pytest.raises(InvalidStringError):
        make_string(alg, 1, (Letter("a1", True), Letter("a2", True)))


def test_make_string_canonical():
    alg = linear_algebra(2)
    fwd = make_string(alg, 1, (Letter("a1", True),))
    bwd = make_string(alg, 2, (Letter("a1", False),))
    assert fwd == bwd


def test_projective_walks():
    alg = fan5_algebra("both")
    assert projective_support(alg, 4) == {4, 3, 5}
    assert projective_support(alg, 1) == {1}  # sink: simple projective


def test_injective_walks():
    alg = linear_algebra(2)
    assert injective_support(alg, 1) == {1}
    assert injective_support(alg, 2) == projective_support(alg, 1)


def test_radical_walks():
    alg = fan5_algebra("both")
    assert radical_supports(alg, 4) == [{3}, {5}]
    assert radical_supports(alg, 1) == []


@pytest.mark.parametrize("arrows,build,v", [
    # vertex 2 has two outgoing arrows and no relation kills either
    # continuation of a, so the arm out of 1 is not a path
    ("arrow a: 1 -> 2\narrow b: 2 -> 3\narrow c: 2 -> 4\n", projective, 1),
    # vertex 2 has two incoming arrows and no relation kills either
    # continuation of a, so the arm into 3 is not a path
    ("arrow a: 2 -> 3\narrow b: 1 -> 2\narrow c: 4 -> 2\n", injective, 3),
], ids=["outgoing", "incoming"])
def test_arm_rejects_unbroken_branching(arrows, build, v):
    alg = parse_algebra("vertices: 4\n" + arrows)
    with pytest.raises(InvalidStringError):
        build(alg, v)


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 10**9), n=st.integers(2, 6))
def test_enumeration_matches_brute_force(seed, n):
    alg = random_tree_algebra(random.Random(seed), n)
    assert set(enumerate_strings(alg)) == brute_force_strings(alg)


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 10**9), n=st.integers(2, 6))
def test_distinguished_walks_are_strings(seed, n):
    alg = random_tree_algebra(random.Random(seed), n)
    supports = {frozenset(s.vertices) for s in enumerate_strings(alg)}
    for v in alg.quiver.vertices:
        assert projective_support(alg, v) in supports
        assert injective_support(alg, v) in supports
        for s in radical_supports(alg, v):
            assert s in supports


def _walked_path(alg, s):
    """The vertex path from s.start through s.letters, read off the arrows."""
    path = [s.start]
    for letter in s.letters:
        a = alg.quiver.arrow_map[letter.arrow]
        assert path[-1] == (a.source if letter.direct else a.target)
        path.append(a.target if letter.direct else a.source)
    return tuple(path)


def test_stored_path_is_the_walked_path_on_sweep(sweep_records):
    count = 0
    for rec in sweep_records:
        for s in enumerate_strings(rec.algebra):
            assert s.vertices == _walked_path(rec.algebra, s)
            assert len(set(s.vertices)) == len(s.letters) + 1
            count += 1
    assert count == 5335


def _reached(alg, path, tip, outgoing):
    """tip and the far end of every surviving extension of path beyond tip,
    where path is a surviving directed path ending (outgoing) or starting
    (incoming) at tip.  Paths grow one arrow at a time; a path in the ideal
    stays there when extended, so none is missed."""
    q = alg.quiver
    found = {tip}
    for a in (q.outgoing if outgoing else q.incoming)[tip]:
        longer = path + (a.name,) if outgoing else (a.name,) + path
        if not path_in_ideal(alg, longer):
            found |= _reached(alg, longer, a.target if outgoing else a.source, outgoing)
    return found


def _check_distinguished_supports(alg, ar):
    q = alg.quiver
    for v in q.vertices:
        by_first = [_reached(alg, (a.name,), a.target, True) for a in q.outgoing[v]]
        top = projective_support(alg, v)
        assert top == {v}.union(*by_first)
        assert injective_support(alg, v) == {v}.union(
            *(_reached(alg, (a.name,), a.source, False) for a in q.incoming[v]))
        # the radical summands partition top - {v}, one per first arrow
        assert radical_supports(alg, v) == by_first
        assert sum(map(len, by_first)) == len(top) - 1 and v not in set().union(*by_first)
        assert ar.nodes[ar.projective_node(v)].rep == projective(alg, v)


def test_distinguished_supports_from_first_principles_on_sweep(sweep_records):
    for rec in sweep_records:
        _check_distinguished_supports(rec.algebra, rec.oracle.ar)
    assert len(sweep_records) == 532


@pytest.mark.parametrize("levels", [1, 2, 3, 4])
def test_distinguished_supports_from_first_principles_on_crossing_tree(levels):
    alg = crossing_tree_algebra(levels)
    _check_distinguished_supports(alg, ar_quiver(alg))
