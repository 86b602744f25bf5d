import random
import re

import pytest
from hypothesis import given, settings, strategies as st

from stringdet import ar_quiver, arquiver, strings
from stringdet.arquiver import GuardExceeded, OracleError, _build_arrows, _build_meshes
from stringdet.cli import main
from stringdet.families import (crossing6_algebra, crossing_tree_algebra, fan5_algebra,
                                generate_example, linear_algebra)
from stringdet.linalg import Mat
from stringdet.modules import (Representation, compose, is_epimorphism, is_monomorphism,
                               string_module)
from stringdet.strings import enumerate_strings

from helpers import SpanBuilder, direct_sum, hom_dim, hom_space, representation, vec
from tree_algebras import random_tree_algebra


def test_line2_quiver():
    alg = linear_algebra(2)
    ar = ar_quiver(alg)
    assert len(ar.nodes) == 3
    assert len(ar.meshes) == 1
    mesh = ar.meshes[0]
    assert len(mesh.middles) == 1
    left, (mid,), right = mesh.left, mesh.middles, mesh.right
    assert ar.nodes[left].walk.is_trivial and ar.nodes[left].walk.start == 2
    assert ar.nodes[mid].projective_vertex == 1
    assert ar.nodes[right].walk.is_trivial and ar.nodes[right].walk.start == 1


def test_node_count_matches_strings():
    alg = crossing_tree_algebra(1)
    ar = ar_quiver(alg)
    assert len(ar.nodes) == len(enumerate_strings(alg))
    assert len(ar.nodes) == 11


def test_projective_and_injective_counts():
    for alg in (linear_algebra(4), fan5_algebra("both"), crossing_tree_algebra(1)):
        ar = ar_quiver(alg)
        n = alg.quiver.vertex_count()
        assert sum(1 for nd in ar.nodes if nd.is_projective) == n
        assert sum(1 for nd in ar.nodes if nd.is_injective) == n


def test_single_middle_count_is_n_minus_1():
    for alg in (linear_algebra(2), linear_algebra(5), fan5_algebra("one"),
                crossing_tree_algebra(1)):
        ar = ar_quiver(alg)
        assert sum(len(m.middles) == 1 for m in ar.meshes) == alg.quiver.vertex_count() - 1


def test_translate_bijection():
    alg = fan5_algebra("both")
    ar = ar_quiver(alg)
    non_proj = {nd.index for nd in ar.nodes if not nd.is_projective}
    non_inj = {nd.index for nd in ar.nodes if not nd.is_injective}
    assert set(ar.tau) == non_proj
    assert set(ar.tau.values()) == non_inj
    assert all(ar.tau_inv[left] == right for right, left in ar.tau.items())


def test_mesh_dimension_additivity():
    alg = crossing_tree_algebra(1)
    ar = ar_quiver(alg)
    for mesh in ar.meshes:
        left = ar.nodes[mesh.left].rep.total_dim
        right = ar.nodes[mesh.right].rep.total_dim
        mid = sum(ar.nodes[m].rep.total_dim for m in mesh.middles)
        assert left + right == mid
        assert len(mesh.middles) in (1, 2)


def test_arrows_strictly_mono_or_epi():
    alg = fan5_algebra("both")
    ar = ar_quiver(alg)
    assert ar.arrows
    for arrow in ar.arrows:
        s = ar.nodes[arrow.source].rep.total_dim
        t = ar.nodes[arrow.target].rep.total_dim
        assert s != t
        if s < t:
            assert is_monomorphism(arrow.map) and not is_epimorphism(arrow.map)
        else:
            assert is_epimorphism(arrow.map) and not is_monomorphism(arrow.map)


# irreducible maps as (source walk, target walk), sorted
CROSSING6_ARROWS = [
    ("(3)", "a1"), ("(3)", "a2"), ("(4)", "a3^- a4"), ("(5)", "a3^- a4"), ("(5)", "a5"),
    ("a1", "a1 a2^-"), ("a1 a2^-", "(1)"), ("a1 a2^-", "(2)"), ("a1 a4", "a1 a4 a5^-"),
    ("a1 a4 a5^-", "(6)"), ("a1 a4 a5^-", "a1"), ("a2", "a1 a2^-"), ("a2 a3", "a2"),
    ("a3", "(3)"), ("a3", "a2 a3"), ("a3^- a4", "a3^- a4 a5^-"), ("a3^- a4", "a4"),
    ("a3^- a4 a5^-", "a3"), ("a3^- a4 a5^-", "a4 a5^-"), ("a4", "a1 a4"),
    ("a4", "a4 a5^-"), ("a4 a5^-", "(3)"), ("a4 a5^-", "a1 a4 a5^-"),
    ("a5", "a3^- a4 a5^-"),
]
FAN5_BOTH_ARROWS = [
    ("(1)", "a1^- a2"), ("(2)", "a1^- a2"), ("(3)", "a3^- a4"), ("(5)", "a3^- a4"),
    ("a1", "(3)"), ("a1^- a2", "a1"), ("a1^- a2", "a2"), ("a2", "(3)"), ("a3", "(4)"),
    ("a3^- a4", "a3"), ("a3^- a4", "a4"), ("a4", "(4)"),
]


@pytest.mark.parametrize("alg, expected", [
    (crossing6_algebra(), CROSSING6_ARROWS),
    (fan5_algebra("both"), FAN5_BOTH_ARROWS),
])
def test_pinned_irreducible_maps(alg, expected):
    ar = ar_quiver(alg)
    walks = sorted((ar.nodes[a.source].walk.render_text(), ar.nodes[a.target].walk.render_text())
                   for a in ar.arrows)
    assert walks == expected


def test_guard():
    alg = crossing_tree_algebra(1)
    with pytest.raises(GuardExceeded):
        ar_quiver(alg, max_nodes=5)


@pytest.mark.parametrize("max_nodes", [10, 70])
def test_guard_stops_enumeration_early(monkeypatch, max_nodes):
    walks = []
    real = strings.walk_between

    def counting(algebra, a, b):
        walks.append((a, b))
        return real(algebra, a, b)

    monkeypatch.setattr(strings, "walk_between", counting)
    with pytest.raises(GuardExceeded, match=f"more than {max_nodes} indecomposables"):
        ar_quiver(linear_algebra(60), max_nodes=max_nodes)
    # the 60 trivial strings come first; every later string is one tree walk,
    # so at most max_nodes + 1 strings were built in all
    assert min(60, max_nodes + 1) + len(walks) == max_nodes + 1


def test_radical_check_names_the_projective():
    ar = ar_quiver(crossing6_algebra())
    proj = next(nd for nd in ar.nodes
                if nd.is_projective and any(a.target == nd.index for a in ar.arrows))
    ar.arrows.remove(next(a for a in ar.arrows if a.target == proj.index))
    with pytest.raises(OracleError, match="arrows into projective") as exc:
        _build_meshes(ar)
    assert proj.walk.render_text() in str(exc.value)


def test_missing_projective_names_the_vertex(monkeypatch, tmp_path, capsys):
    """A projective support that is not a node's is an OracleError naming the
    vertex and the sorted support, and `check` exits 3 on it."""
    alg = crossing6_algebra()
    everything = frozenset(alg.quiver.vertices)  # branches, so no string's support
    assert everything not in {nd.rep.support for nd in ar_quiver(alg).nodes}
    real = arquiver.radical_supports
    # P(v)'s support is v and its radical summands' supports
    monkeypatch.setattr(arquiver, "radical_supports",
                        lambda algebra, v: [everything] if v == 3 else real(algebra, v))
    with pytest.raises(OracleError) as exc:
        ar_quiver(alg)
    assert str(exc.value) == (f"support {sorted(everything)} of the projective at vertex 3 "
                              "is not a node")
    path = tmp_path / "crossing6.txt"
    path.write_text(generate_example("crossing6"))
    assert main(["check", str(path)]) == 3
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"oracle invariant breach: {exc.value}\n"


# --------------------------------------------------------------------------
# hooks and cohooks against the definition of an irreducible map

def _overlap_rule_arrows(ar):
    """Reference irreducible maps as (source, target, blocks), sorted by
    (target, source): a non-zero Hom(a, b) that no composite a -> c -> b
    reaches.  That composite is the identity on the overlap of the two
    images, so it is non-zero, and spans Hom(a, b), exactly when they
    overlap."""
    count = len(ar.nodes)
    maps_out = [[c for c in range(count) if c != a and ar.image(a, c)] for a in range(count)]
    arrows = []
    for b in range(count):
        for a in range(count):
            if a == b or not ar.image(a, b):
                continue
            if any(c != b and ar.image(a, c) & ar.image(c, b) for c in maps_out[a]):
                continue
            (h,) = ar.hom(a, b)
            arrows.append((a, b, h.blocks))
    return arrows


def _arrow_triples(ar):
    return [(arr.source, arr.target, arr.map.blocks) for arr in ar.arrows]


def test_hook_rule_matches_overlap_rule_on_sweep(sweep_records):
    arrows = 0
    for rec in sweep_records:
        ar = rec.oracle.ar
        assert _arrow_triples(ar) == _overlap_rule_arrows(ar)
        arrows += len(ar.arrows)
    assert (len(sweep_records), arrows) == (532, 6058)


@pytest.mark.parametrize("levels, count", [(2, 64), (3, 236)])
def test_hook_rule_matches_overlap_rule_on_crossing_tree(levels, count):
    ar = ar_quiver(crossing_tree_algebra(levels))
    assert _arrow_triples(ar) == _overlap_rule_arrows(ar)
    assert len(ar.arrows) == count


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 10**9), n=st.integers(2, 10))
def test_hook_rule_matches_overlap_rule_on_random_trees(seed, n):
    ar = ar_quiver(random_tree_algebra(random.Random(seed), n))
    assert _arrow_triples(ar) == _overlap_rule_arrows(ar)


@pytest.mark.parametrize("kind", ["hook", "cohook"])
def test_missing_target_names_the_source(kind):
    """Drop the support of a node reached by a hook (adding more than one
    vertex, so the walk still extends) or by cohooks only: rebuilding the
    arrows fails on the first source in node order, naming its walk."""
    ar = ar_quiver(crossing_tree_algebra(2))
    dim = [nd.rep.total_dim for nd in ar.nodes]
    sources = {}
    for arr in ar.arrows:
        sources.setdefault(arr.target, []).append(arr.source)
    target = next(t for t, srcs in sources.items()
                  if all(dim[s] != dim[t] - 1 for s in srcs)
                  and any(dim[s] < dim[t] for s in srcs) == (kind == "hook"))
    del ar._node_by_support[ar.nodes[target].rep.support]
    ar.arrows.clear()
    with pytest.raises(OracleError, match="no irreducible map out of") as exc:
        _build_arrows(ar)
    assert ar.nodes[min(sources[target])].walk.render_text() in str(exc.value)


# --------------------------------------------------------------------------
# the support rule against exact hom spaces on every sweep algebra with n <= 4

@pytest.fixture(scope="module")
def small_sweep_homs(sweep_records):
    """(AR quiver, exact hom_space bases of every ordered node pair) for each
    sweep algebra on at most four vertices."""
    out = []
    for rec in sweep_records:
        if rec.algebra.quiver.vertex_count() > 4:
            continue
        ar = rec.oracle.ar
        homs = {(a, b): hom_space(x.rep, y.rep)
                for a, x in enumerate(ar.nodes) for b, y in enumerate(ar.nodes)}
        out.append((ar, homs))
    return out


def _radical_square_arrows(ar, homs):
    """Reference irreducible maps: the basis maps of Hom(a, b) that extend the
    span of the composites a -> c -> b through third nodes."""
    arrows = []
    for b in range(len(ar.nodes)):
        for a in range(len(ar.nodes)):
            if a == b or not homs[a, b]:
                continue
            square = SpanBuilder(len(vec(homs[a, b][0])))
            for c in range(len(ar.nodes)):
                if c not in (a, b):
                    for f in homs[a, c]:
                        for g in homs[c, b]:
                            square.add(vec(compose(g, f)))
            arrows += [(a, b, h.blocks) for h in homs[a, b] if square.add(vec(h))]
    return arrows


def test_support_rule_hom_matches_hom_space(small_sweep_homs):
    assert len(small_sweep_homs) == 332
    pairs = 0
    for ar, homs in small_sweep_homs:
        for (a, b), basis in homs.items():
            assert [h.blocks for h in ar.hom(a, b)] == [h.blocks for h in basis]
            pairs += 1
    assert pairs == 24888


def test_hom_dim_counts_the_hom_space_basis(small_sweep_homs):
    """hom_dim is the same exact solve as hom_space, counted without building
    the basis maps, on every ordered node pair."""
    pairs = 0
    for ar, homs in small_sweep_homs:
        for (a, b), basis in homs.items():
            assert hom_dim(ar.nodes[a].rep, ar.nodes[b].rep) == len(basis)
            pairs += 1
    assert pairs == 24888


def test_end_check_names_the_node_with_a_large_endomorphism_ring(monkeypatch):
    """A node whose End is not k stops ar_quiver with an OracleError naming
    its walk, whichever node it is: the node's module is faulted, a zero
    scalar on one letter, or a doubled space on a one-vertex string."""
    alg = crossing6_algebra()
    nodes = ar_quiver(alg).nodes
    for victim in nodes:
        def faulted(algebra, support, victim=victim.rep.support):
            rep = string_module(algebra, support)
            if rep.support != victim:
                return rep
            if not rep.maps:
                return Representation(algebra, {v: 2 for v in rep.dims}, {})
            letter = min(rep.maps)
            return Representation(algebra, rep.dims, {**rep.maps, letter: Mat([[0]])})
        monkeypatch.setattr(arquiver, "string_module", faulted)
        with pytest.raises(OracleError) as exc:
            ar_quiver(alg)
        # the label is the node's walk and its P/I tags
        assert str(exc.value) == f"endomorphism ring of {victim.label()} is not trivial"
    monkeypatch.undo()
    assert len(ar_quiver(alg).nodes) == len(nodes)


def test_support_rule_arrows_match_radical_square(small_sweep_homs):
    arrows = 0
    for ar, homs in small_sweep_homs:
        got = [(arr.source, arr.target, arr.map.blocks) for arr in ar.arrows]
        assert got == _radical_square_arrows(ar, homs)
        arrows += len(got)
    assert arrows == 3076


# --------------------------------------------------------------------------
# Hom from supports against the scan of both walks' letters it replaced

def _letter_scan_image(ar, a, b):
    """Reference image(a, b): the overlap C of the supports, unless a letter
    of node a's walk enters C or a letter of node b's walk leaves C."""
    c = ar.nodes[a].rep.support & ar.nodes[b].rep.support
    arrows = ar.algebra.quiver.arrow_map
    enters = any(arrows[l.arrow].target in c and arrows[l.arrow].source not in c
                 for l in ar.nodes[a].walk.letters)
    leaves = any(arrows[l.arrow].source in c and arrows[l.arrow].target not in c
                 for l in ar.nodes[b].walk.letters)
    return frozenset() if enters or leaves else c


def _image_against_letter_scan(ar):
    """(ordered node pairs, pairs with a non-zero Hom), asserting image(a, b)
    equals the letter scan on every pair."""
    nonzero = 0
    for a in range(len(ar.nodes)):
        for b in range(len(ar.nodes)):
            assert ar.image(a, b) == _letter_scan_image(ar, a, b), (a, b)
            nonzero += bool(ar.image(a, b))
    return len(ar.nodes) ** 2, nonzero


def test_image_matches_letter_scan_on_sweep(sweep_records):
    counts = [_image_against_letter_scan(rec.oracle.ar) for rec in sweep_records]
    assert tuple(map(sum, zip(*counts))) == (56377, 18040)


@pytest.mark.parametrize("levels, counts", [(2, (2401, 343)), (3, (29241, 1836))])
def test_image_matches_letter_scan_on_crossing_tree(levels, counts):
    assert _image_against_letter_scan(ar_quiver(crossing_tree_algebra(levels))) == counts


@pytest.mark.parametrize("n, counts", [(12, (6084, 1365)), (16, (18496, 3876)),
                                       (20, (44100, 8855)), (24, (90000, 17550))])
def test_image_matches_letter_scan_on_mixed_lines(n, counts):
    # long walks of both orientations put C's ends in the middle of a walk
    rng = random.Random(n)
    orientation = "".join(rng.choice("<>") for _ in range(n - 1))
    assert _image_against_letter_scan(ar_quiver(linear_algebra(n, orientation))) == counts


def test_image_keeps_nothing_per_pair():
    ar = ar_quiver(crossing_tree_algebra(3))

    def sizes():
        return {name: len(value) for name, value in vars(ar).items()
                if isinstance(value, (dict, list))}

    before = sizes()
    nonzero = sum(bool(ar.image(a, b)) for a in range(len(ar.nodes))
                  for b in range(len(ar.nodes)))
    assert nonzero == 1836
    assert sizes() == before


def _carried_support_against_block_scan(ar):
    """Each arrow's map carries its support from ARQuiver.hom; it equals the
    scan of the map's non-zero blocks that ModuleMap.support would run."""
    for arrow in ar.arrows:
        f = arrow.map
        assert "support" in vars(f), arrow.index
        assert vars(f)["support"] == type(f).support.func(f) == ar.image(arrow.source,
                                                                         arrow.target)
    return len(ar.arrows)


def test_carried_support_matches_block_scan_on_sweep(sweep_records):
    assert sum(_carried_support_against_block_scan(rec.oracle.ar)
               for rec in sweep_records) == 6058


def test_carried_support_matches_block_scan_on_crossing_tree():
    assert _carried_support_against_block_scan(ar_quiver(crossing_tree_algebra(2))) == 64


def test_identify_rejects_decomposable():
    from stringdet.modules import simple
    alg = linear_algebra(2)
    ar = ar_quiver(alg)
    # S(1) + S(2) has the same dimension vector as the projective cover but
    # is not isomorphic to any node
    total = direct_sum([simple(alg, 1), simple(alg, 2)])
    assert ar.identify(total) is None


def test_identify_rescaled_projective():
    alg = linear_algebra(3)
    ar = ar_quiver(alg)
    p1 = ar.projective_node(1)
    copy = representation(alg, {1: 1, 2: 1, 3: 1}, {"a1": Mat([[3]]), "a2": Mat([[-2]])})
    assert ar.identify(copy) == p1


def test_identify_rejects_non_thin():
    from stringdet.modules import simple
    alg = linear_algebra(2)
    ar = ar_quiver(alg)
    total = direct_sum([simple(alg, 1), simple(alg, 1)])
    assert ar.identify(total) is None


def _line3_node(ar, support):
    return ar.nodes[ar._node_by_support[frozenset(support)]]


def test_sink_kernel_refuses_middles_neither_mono_nor_both_epi():
    # on 1 -> 2 -> 3, [2 3] -> [1 2] is the identity at 2 alone: neither mono
    # nor epi, so two copies of it cannot be the middle maps of a mesh
    ar = ar_quiver(linear_algebra(3))
    node = _line3_node(ar, (1, 2))
    f = ar.hom(_line3_node(ar, (2, 3)).index, node.index)[0]
    assert not is_monomorphism(f) and not is_epimorphism(f)
    with pytest.raises(OracleError, match=rf"^middle maps into node {re.escape(node.label())} "
                                          r"are neither one mono nor two epis$"):
        arquiver._sink_kernel(node, [f, f])


def test_sink_kernel_refuses_two_epis_that_overlap_off_the_node():
    # [1 2] and [1 2 3] both map onto S(1), and they overlap at 2 as well
    ar = ar_quiver(linear_algebra(3))
    node = _line3_node(ar, (1,))
    maps = [ar.hom(_line3_node(ar, s).index, node.index)[0] for s in ((1, 2), (1, 2, 3))]
    assert all(map(is_epimorphism, maps)) and not any(map(is_monomorphism, maps))
    with pytest.raises(OracleError, match=rf"^kernel of the sink map into node "
                                          rf"{re.escape(node.label())} is not indecomposable$"):
        arquiver._sink_kernel(node, maps)


def test_requires_valid_algebra():
    alg = linear_algebra(3)
    bare = alg.__class__(alg.quiver, alg.relations, None)
    with pytest.raises(ValueError):
        ar_quiver(bare)


@settings(max_examples=15, deadline=None)
@given(seed=st.integers(0, 10**9), n=st.integers(2, 5))
def test_random_instances_satisfy_contract(seed, n):
    alg = random_tree_algebra(random.Random(seed), n)
    ar = ar_quiver(alg)  # raises OracleError on any breach
    assert sum(len(m.middles) == 1 for m in ar.meshes) == n - 1
    for mesh in ar.meshes:
        left = ar.nodes[mesh.left].rep.total_dim
        right = ar.nodes[mesh.right].rep.total_dim
        assert left + right == sum(ar.nodes[m].rep.total_dim for m in mesh.middles)
