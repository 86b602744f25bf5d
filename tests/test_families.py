import pytest

from stringdet import families, parse_algebra, validate
from stringdet.algebra import serialize
from stringdet.families import (crossing6_algebra, crossing_tree_algebra, fan5_algebra,
                                fork_algebra, generate_example, linear_algebra, zigzag4_algebra)


def test_fixed_examples_valid():
    for alg in (crossing6_algebra(), zigzag4_algebra(), fan5_algebra("both"),
                fan5_algebra("one"), linear_algebra(5), fork_algebra(5)):
        assert alg.is_valid


def test_crossing_tree_vertex_count():
    for levels in (0, 1, 2, 3):
        alg = crossing_tree_algebra(levels)
        assert alg.is_valid
        assert alg.quiver.vertex_count() == 2 * 3 ** levels - 1


def test_crossing_tree_all_length_two_relations():
    alg = crossing_tree_algebra(2)
    amap = alg.quiver.arrow_map
    expected = sorted(
        (a.name, b.name)
        for a in alg.quiver.arrows for b in alg.quiver.arrows
        if a.target == b.source)
    assert sorted(alg.relations.generators) == expected


def test_generated_documents_reparse():
    for name, params in [("crossing6", {}), ("zigzag4", {}),
                         ("fan5", {"variant": "one"}),
                         ("crossing-tree", {"levels": 2}),
                         ("line", {"n": 6}), ("fork", {"n": 5})]:
        doc = generate_example(name, **params)
        alg = validate(parse_algebra(doc))
        assert alg.is_valid, (name, alg.certificate)
        assert serialize(alg) == doc


def test_generate_example_unknown():
    with pytest.raises(ValueError):
        generate_example("nonesuch")


def test_line_orientation():
    alg = linear_algebra(4, "><>")
    arrows = {a.name: (a.source, a.target) for a in alg.quiver.arrows}
    assert arrows == {"a1": (1, 2), "a2": (3, 2), "a3": (3, 4)}
    assert alg.is_valid


def test_fork_auto_relations():
    alg = fork_algebra(5)
    assert alg.is_valid
    assert alg.relations.generators  # branch vertex forces a relation


def test_size_limit():
    """Examples beyond MAX_VERTICES are refused before anything is built; the
    crossing-tree depth is compared directly, never through 3**levels."""
    assert families.MAX_VERTICES == 10**6
    assert 2 * 3**11 - 1 <= families.MAX_VERTICES < 2 * 3**12 - 1
    for build in (lambda: linear_algebra(10**6 + 1), lambda: fork_algebra(10**30),
                  lambda: crossing_tree_algebra(12), lambda: crossing_tree_algebra(10**20)):
        with pytest.raises(ValueError, match="1000000"):
            build()
