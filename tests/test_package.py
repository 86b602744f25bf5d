import pytest

import stringdet
from stringdet import arquiver, engine, families, strings, taxonomy, treewalk

# per-vertex duplicates of vertex_ideals / determiner_report, and the
# neighbourhood layer that dynkin_type no longer needs
DELETED = [
    (taxonomy, "vertex_ideal"), (taxonomy, "fork_source_count"),
    (taxonomy, "nonzero_ideal_count"), (engine, "is_projective_determiner"),
    (treewalk, "neighbourhood"), (treewalk, "NeighbourhoodSubquiver"),
    (treewalk, "is_linear"), (treewalk, "restricted_ideal_nonzero"),
    (treewalk.TreeWalk, "reversed"), (treewalk.TreeWalk, "arrow_names"),
    (arquiver, "_check_radicals"),
    # distinguished modules are found by support, not built as glued walks
    (strings, "out_arms"), (strings, "in_arms"), (strings, "_join_at"),
    (strings, "projective_walk"), (strings, "injective_walk"), (strings, "radical_walks"),
    (arquiver.ARQuiver, "node_of_walk"),
    # the sweep's enumerator and sampler live in tests/tree_algebras.py
    (families, "iter_tree_algebras"), (families, "random_tree_algebra"),
]


@pytest.mark.parametrize("name", stringdet.__all__)
def test_all_names_resolve(name):
    assert getattr(stringdet, name) is not None


@pytest.mark.parametrize("owner,name", DELETED, ids=[name for _, name in DELETED])
def test_deleted_names_are_gone(owner, name):
    assert not hasattr(owner, name)
    assert not hasattr(stringdet, name)


def test_engine_needs_no_tree_walks():
    assert not [name for name, value in vars(engine).items()
                if getattr(value, "__module__", None) == treewalk.__name__]
