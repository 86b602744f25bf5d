import ast
import dataclasses
import inspect
from pathlib import Path

import pytest

import stringdet
from stringdet import (algebra, arquiver, engine, families, linalg, modules, oracle, strings,
                       taxonomy, treewalk)
from stringdet.algebra import ParseError

# per-vertex duplicates of vertex_ideals / determiner_report, and the
# neighbourhood layer that dynkin_type no longer needs
DELETED = [
    (taxonomy, "vertex_ideal"), (taxonomy, "fork_source_count"),
    (taxonomy, "nonzero_ideal_count"), (engine, "is_projective_determiner"),
    (treewalk, "neighbourhood"), (treewalk, "NeighbourhoodSubquiver"),
    (treewalk, "is_linear"), (treewalk, "restricted_ideal_nonzero"),
    (treewalk.TreeWalk, "reversed"), (treewalk.TreeWalk, "arrow_names"),
    (arquiver, "_check_radicals"),
    # Hom is read from the two walks afresh, with no pairwise memo
    (arquiver, "_shut"),
    # distinguished modules are found by support, not built as glued walks
    (strings, "out_arms"), (strings, "in_arms"), (strings, "_join_at"),
    (strings, "projective_walk"), (strings, "injective_walk"), (strings, "radical_walks"),
    (arquiver.ARQuiver, "node_of_walk"),
    # the sweep's enumerator and sampler live in tests/tree_algebras.py
    (families, "iter_tree_algebras"), (families, "random_tree_algebra"),
    # a mesh's shape is its list of middle terms; quotients are left kernels
    (arquiver, "MiddleKind"), (arquiver, "single_middle_count"),
    (linalg.Mat, "column"), (linalg.Mat, "columns"),
    # a string keeps its vertex path, built once by make_string
    (strings, "walk_vertices"), (strings, "_letter_endpoints"),
    # routines only the tests call live in tests/helpers.py
    (algebra, "path_in_ideal"), (modules, "zero_map"), (modules, "identity_map"),
    # End = k is decided by identify, and the epi route takes its own kernel
    (arquiver, "hom_dim"), (arquiver.ar_quiver(families.crossing6_algebra()), "_mesh_kernel"),
    # the search builds each string, and one loop walks an arm either way
    (strings, "string_from_tree_walk"), (strings, "_grow_path"), (strings, "_walked_strings"),
    (arquiver, "projective_support"),
    # general linear algebra lives in the tests, as the reference for the
    # scalar paths of thin modules: every module over a tree is thin, and a
    # two-epi mesh's sink kernel is read off the two maps' scalars
    # (the span's reduce and contains went with SpanBuilder)
    (linalg, "SpanBuilder"), (linalg, "reduce"), (linalg, "contains"), (linalg, "_eliminate"),
    (linalg, "_kernel"), (linalg, "_quotient"),
    (linalg, "nullspace"), (linalg, "kernel_inclusion"), (linalg, "quotient_projection"),
    (linalg, "_MEMO_SIZE"), (linalg, "_unit_rows"), (linalg, "Vector"),
    (linalg.Mat, "hstack"), (linalg.Mat, "transpose"), (linalg.Mat, "from_columns"),
    (linalg.Mat, "row_major"),
    (modules, "hom_space"), (modules, "hom_dim"), (modules, "_hom_system"),
    (modules, "intertwining_rows"), (modules, "block_columns"), (modules, "direct_sum"),
    (modules, "representation"), (modules.ModuleMap, "vec"), (arquiver, "_sink_kernel_map"),
    # nothing reads whether a whole map is zero: the oracle reads its support
    (modules.ModuleMap, "is_zero"),
]


def _ids(entries):
    """Each entry's name, qualified by its owner's last dotted name when an
    earlier entry has the name already."""
    ids = []
    for owner, name in entries:
        ids.append(name if name not in ids else f"{owner.__name__.rsplit('.', 1)[-1]}.{name}")
    return ids


@pytest.mark.parametrize("name", stringdet.__all__)
def test_all_names_resolve(name):
    assert getattr(stringdet, name) is not None


@pytest.mark.parametrize("owner,name", DELETED, ids=_ids(DELETED))
def test_deleted_names_are_gone(owner, name):
    assert not hasattr(owner, name)
    assert not hasattr(stringdet, name)


def test_oracle_reads_no_state_the_quiver_keeps_for_it():
    source = inspect.getsource(oracle)
    assert "_mesh_kernel" not in source and "hom_dim" not in source


def test_engine_needs_no_tree_walks():
    assert not [name for name, value in vars(engine).items()
                if getattr(value, "__module__", None) == treewalk.__name__]


def test_each_fact_has_one_owner():
    """p and q live in the counting report alone, and no parameter is left
    that no caller sets."""
    def params(fn):
        return list(inspect.signature(fn).parameters)

    assert params(engine.dynkin_type) == ["algebra"]
    assert params(engine.check_unique_sink_characterization) == ["algebra", "j"]
    assert not {"p", "q"} & {f.name for f in dataclasses.fields(engine.DynkinReport)}
    assert params(ParseError) == ["message", "line"]
    assert params(families.fork_algebra) == ["n", "orientation"]
    assert not hasattr(ParseError("bad", 3), "column")


def test_sources_parse_as_python_3_10():
    """Every source file keeps to Python 3.10 syntax, the oldest version the
    package supports: no except*, no PEP 695 generics."""
    root = Path(__file__).resolve().parent.parent
    paths = sorted(p for d in ("src", "tests", "bench") for p in (root / d).rglob("*.py"))
    assert len(paths) > 20
    for path in paths:
        ast.parse(path.read_text(encoding="utf-8"), str(path), feature_version=(3, 10))
