import random

import pytest
from hypothesis import given, settings, strategies as st

from stringdet.families import crossing6_algebra, fan5_algebra, zigzag4_algebra
from stringdet.treewalk import Step, TreeWalk, walk_between

from tree_algebras import random_tree_algebra


def step_names(walk):
    return [(s.arrow.name, s.forward) for s in walk.steps]


def is_linear(walk):
    """True iff every step follows its arrow: a directed path from start to
    end.  The empty walk is linear."""
    return all(s.forward for s in walk.steps)


def arrow_names(walk):
    return frozenset(s.arrow.name for s in walk.steps)


def restricted_ideal_nonzero(alg, names):
    """True iff some relation generator uses only the named arrows."""
    return any(all(a in names for a in gen) for gen in alg.relations.generators)


def reversed_walk(walk):
    steps = tuple(Step(s.arrow, not s.forward) for s in reversed(walk.steps))
    return TreeWalk(walk.end, walk.start, steps)


def test_walk_fan5_linear():
    alg = fan5_algebra("both")
    walk = walk_between(alg, 4, 1)
    assert step_names(walk) == [("a3", True), ("a1", True)]
    assert is_linear(walk)


def test_walk_empty():
    alg = fan5_algebra("both")
    walk = walk_between(alg, 3, 3)
    assert walk.steps == ()
    assert is_linear(walk)


def test_walk_zigzag_not_linear():
    alg = zigzag4_algebra()
    walk = walk_between(alg, 1, 4)
    assert step_names(walk) == [("a1", True), ("a2", False), ("a3", True)]
    assert not is_linear(walk)


def test_walk_unknown_vertex():
    alg = zigzag4_algebra()
    with pytest.raises(ValueError):
        walk_between(alg, 1, 9)


def test_restricted_ideal_on_walks():
    both = fan5_algebra("both")
    assert restricted_ideal_nonzero(both, arrow_names(walk_between(both, 4, 1)))
    one = fan5_algebra("one")
    assert not restricted_ideal_nonzero(one, arrow_names(walk_between(one, 4, 2)))
    assert not restricted_ideal_nonzero(both, arrow_names(walk_between(both, 3, 3)))


def test_restricted_ideal_monotone_crossing6():
    alg = crossing6_algebra()
    inner = arrow_names(walk_between(alg, 1, 4))   # contains the a1 a3 generator
    star = frozenset(a.name for a in alg.quiver.incoming[3] + alg.quiver.outgoing[3])
    assert star == frozenset({"a1", "a2", "a3", "a4"})
    assert restricted_ideal_nonzero(alg, inner)
    assert restricted_ideal_nonzero(alg, star)     # contains both generators
    assert inner <= star


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 10**9), n=st.integers(2, 7))
def test_walk_reversal(seed, n):
    alg = random_tree_algebra(random.Random(seed), n)
    verts = alg.quiver.vertices
    rng = random.Random(seed + 1)
    a, b = rng.choice(verts), rng.choice(verts)
    walk = walk_between(alg, a, b)
    back = walk_between(alg, b, a)
    assert reversed_walk(walk) == back
    assert walk.vertices() == tuple(reversed(back.vertices()))


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 10**9), n=st.integers(3, 7))
def test_linear_concatenation(seed, n):
    alg = random_tree_algebra(random.Random(seed), n)
    rng = random.Random(seed + 1)
    verts = alg.quiver.vertices
    a, b = rng.choice(verts), rng.choice(verts)
    walk = walk_between(alg, a, b)
    for mid in walk.vertices():
        first = walk_between(alg, a, mid)
        second = walk_between(alg, mid, b)
        if is_linear(first) and is_linear(second):
            assert is_linear(walk)
