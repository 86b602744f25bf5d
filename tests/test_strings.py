import random

import pytest
from hypothesis import given, settings, strategies as st

from stringdet import parse_algebra
from stringdet.families import (crossing_tree_algebra, fan5_algebra, linear_algebra,
                                random_tree_algebra)
from stringdet.modules import projective
from stringdet.strings import (InvalidStringError, Letter, StringWalk, enumerate_strings,
                               injective_walk, make_string, projective_walk, radical_walks,
                               string_from_tree_walk, walk_vertices)


def brute_force_strings(alg):
    """Independent enumeration: grow letter sequences one letter at a time,
    checking only the local rules (composability, no immediate repeat of the
    same arrow, no same-direction run inside the ideal); canonicalize by
    comparing against the reversed rendering."""
    found = set()
    for v in alg.quiver.vertices:
        found.add(StringWalk(v, ()))

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

    def grow(start, letters):
        if letters:
            walk = StringWalk(start, tuple(letters))
            inv = StringWalk(endpoint(letters[-1]),
                             tuple(Letter(l.arrow, not l.direct) for l in reversed(letters)))
            found.add(min(walk, inv, key=lambda w: w.rendering()))
        at = endpoint(letters[-1]) if letters else start
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
                    grow(start, cand)

    for v in alg.quiver.vertices:
        grow(v, [])
    return found


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


def test_string_from_tree_walk_none_on_relation():
    from stringdet.treewalk import walk_between
    alg = linear_algebra(3, relations=[("a1", "a2")])
    assert string_from_tree_walk(alg, walk_between(alg, 1, 3)) is None


def test_projective_walks():
    alg = fan5_algebra("both")
    pw = projective_walk(alg, 4)
    assert set(walk_vertices(alg, pw)) == {4, 3, 5}
    assert projective_walk(alg, 1) == StringWalk(1, ())  # sink: simple projective


def test_injective_walks():
    alg = linear_algebra(2)
    assert injective_walk(alg, 1) == StringWalk(1, ())
    assert injective_walk(alg, 2) == projective_walk(alg, 1)


def test_radical_walks():
    alg = fan5_algebra("both")
    rads = radical_walks(alg, 4)
    assert [set(walk_vertices(alg, w)) for w in rads] == [{3}, {5}]
    assert radical_walks(alg, 1) == []


def test_grow_path_rejects_unbroken_branching():
    # vertex 2 has two outgoing arrows and no relation kills either
    # continuation of a, so the arm out of 1 is not a path
    alg = parse_algebra("vertices: 4\narrow a: 1 -> 2\narrow b: 2 -> 3\narrow c: 2 -> 4\n")
    with pytest.raises(InvalidStringError):
        projective(alg, 1)


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 10**9), n=st.integers(2, 6))
def test_enumeration_matches_brute_force(seed, n):
    alg = random_tree_algebra(random.Random(seed), n)
    assert set(enumerate_strings(alg)) == brute_force_strings(alg)


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 10**9), n=st.integers(2, 6))
def test_distinguished_walks_are_strings(seed, n):
    alg = random_tree_algebra(random.Random(seed), n)
    strings = set(enumerate_strings(alg))
    for v in alg.quiver.vertices:
        assert projective_walk(alg, v) in strings
        assert injective_walk(alg, v) in strings
        for w in radical_walks(alg, v):
            assert w in strings
