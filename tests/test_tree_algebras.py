import random

import pytest

from stringdet.algebra import serialize

from tree_algebras import iter_tree_algebras, random_tree_algebra


def shape(alg):
    """The algebra up to arrow names: its arrows as (source, target) pairs
    and its relations as vertex sequences, which a tree determines."""
    amap = alg.quiver.arrow_map
    return (frozenset((a.source, a.target) for a in alg.quiver.arrows),
            frozenset(tuple(amap[name].source for name in gen) + (amap[gen[-1]].target,)
                      for gen in alg.relations.generators))


def test_iter_tree_algebras_counts():
    assert sum(1 for _ in iter_tree_algebras(2)) == 2
    assert sum(1 for _ in iter_tree_algebras(3)) == 18
    algs4 = list(iter_tree_algebras(4))
    assert len(algs4) == 312
    assert all(a.is_valid for a in algs4)


def test_random_tree_algebra_deterministic():
    a = random_tree_algebra(random.Random(7), 5)
    b = random_tree_algebra(random.Random(7), 5)
    assert serialize(a) == serialize(b)
    assert a.is_valid


def test_random_tree_algebra_draws_only_valid_algebras():
    rng = random.Random(20261019)
    for n in range(1, 41):
        for _ in range(5):
            alg = random_tree_algebra(rng, n)
            assert alg.is_valid, (n, alg.certificate)
            assert alg.quiver.vertices == tuple(range(1, n + 1))


@pytest.mark.parametrize("n,draws", [(2, 20), (3, 200), (4, 8000)])
def test_random_tree_algebra_reaches_every_algebra(n, draws):
    """Seed 1 reaches all 2, 18 and 312 labeled algebras within 2, 59 and
    5101 draws; every draw is one of them."""
    want = {shape(alg) for alg in iter_tree_algebras(n)}
    rng = random.Random(1)
    seen = set()
    for _ in range(draws):
        alg = random_tree_algebra(rng, n)
        assert alg.is_valid, alg.certificate
        seen.add(shape(alg))
        if seen == want:
            break
    assert seen == want, len(want - seen)
