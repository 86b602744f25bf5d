import random
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from stringdet import (ar_quiver, cokernel, enumerate_strings, hom_space, injective, kernel,
                       projective, radical_summands, simple, socle, string_module)
from stringdet.families import (crossing6_algebra, fan5_algebra, linear_algebra,
                                random_tree_algebra)
from stringdet.linalg import (Mat, SpanBuilder, kernel_inclusion, nullspace,
                              quotient_projection)
from stringdet.modules import (ModuleMap, compose, identity_map, is_epimorphism,
                               is_monomorphism, module_map, zero_map)
from stringdet.strings import Letter, make_string, radical_walks, walk_vertices


def test_mat_basics():
    a = Mat([[1, 2], [3, 4]])
    b = Mat([[0, 1], [1, 0]])
    assert (a @ b).rows == ((Fraction(2), Fraction(1)), (Fraction(4), Fraction(3)))
    assert a.rank() == 2
    assert Mat([[1, 2], [2, 4]]).rank() == 1
    assert Mat.zeros(0, 3).shape == (0, 3)
    assert (Mat.zeros(2, 0) @ Mat.zeros(0, 3)).shape == (2, 3)


def test_nullspace_basis():
    m = Mat([[1, 2, 3], [2, 4, 6]])
    basis = nullspace(m)
    assert len(basis) == 2
    for v in basis:
        col = Mat.from_columns([v], nrows=3)
        assert (m @ col).is_zero()


_small_matrices = st.integers(1, 5).flatmap(lambda r: st.integers(0, 6).flatmap(
    lambda c: st.lists(st.lists(st.integers(-3, 3), min_size=c, max_size=c),
                       min_size=r, max_size=r).map(lambda rows: Mat(rows, ncols=c))))


@settings(max_examples=200, deadline=None)
@given(m=_small_matrices, data=st.data())
def test_echelon_properties(m, data):
    """nullspace, rank and the kernel retraction all read one echelon form."""
    basis = nullspace(m)
    for v in basis:
        assert (m @ Mat.from_columns([v], nrows=m.ncols)).is_zero()
    assert len(basis) + m.rank() == m.ncols
    # the reduced echelon form, hence the basis, depends on the row space only
    order = data.draw(st.permutations(range(m.nrows)))
    extra = data.draw(st.lists(st.integers(0, m.nrows - 1), max_size=3))
    reordered = Mat([m.rows[i] for i in list(order) + extra], ncols=m.ncols)
    assert nullspace(reordered) == basis
    inclusion, retraction = kernel_inclusion(m)
    assert inclusion.columns() == basis
    assert retraction @ inclusion == Mat.identity(len(basis))


def test_quotient_projection():
    proj, section = quotient_projection([(Fraction(1), Fraction(1), Fraction(0))], 3)
    assert proj.shape == (2, 3)
    assert (proj @ Mat.from_columns([(1, 1, 0)], nrows=3)).is_zero()
    assert proj.rank() == 2
    assert proj @ section == Mat.identity(2)


def test_span_builder():
    sb = SpanBuilder(3)
    assert sb.add((1, 0, 0))
    assert sb.add((1, 1, 0))
    assert not sb.add((2, 1, 0))
    assert sb.contains((0, 1, 0))
    assert not sb.contains((0, 0, 1))
    assert sb.dim == 2


def test_string_module_trivial():
    alg = linear_algebra(2)
    s = simple(alg, 1)
    assert s.dims == {1: 1, 2: 0}
    assert all(m.is_zero() for m in s.maps.values())


def test_string_module_arrow():
    alg = linear_algebra(2)
    m = string_module(alg, make_string(alg, 1, (Letter("a1", True),)))
    assert m.dims == {1: 1, 2: 1}
    assert m.maps["a1"] == Mat([[1]])
    assert m == projective(alg, 1)
    assert m == injective(alg, 2)


def test_string_module_fan5():
    alg = fan5_algebra("both")
    m = string_module(alg, make_string(alg, 4, (Letter("a3", True),)))
    assert m.dims[4] == 1 and m.dims[3] == 1 and m.dims[1] == 0


def test_projective_fan5():
    alg = fan5_algebra("both")
    p4 = projective(alg, 4)
    assert p4.dims == {1: 0, 2: 0, 3: 1, 4: 1, 5: 1}
    rads = radical_summands(alg, 4)
    assert [r.support() for r in rads] == [(3,), (5,)]
    assert radical_summands(alg, 1) == []


def test_radical_line():
    alg = linear_algebra(2)
    rads = radical_summands(alg, 1)
    assert len(rads) == 1
    assert rads[0] == simple(alg, 2)


def test_memoised_radical_inclusion_crossing6():
    alg = crossing6_algebra()
    ar = ar_quiver(alg)
    for v in alg.quiver.vertices:
        incl = ar.radical_inclusion(v)
        assert incl is ar.radical_inclusion(v)
        assert incl.target is ar.nodes[ar.projective_node(v)].rep
        expected = {u for w in radical_walks(alg, v) for u in walk_vertices(alg, w)}
        assert set(incl.source.support()) == expected
        assert is_monomorphism(incl)


def test_hom_dimensions():
    alg = linear_algebra(2)
    s1, s2 = simple(alg, 1), simple(alg, 2)
    assert len(hom_space(s1, s1)) == 1
    assert len(hom_space(s1, s2)) == 0
    assert len(hom_space(projective(alg, 1), s1)) == 1
    assert len(hom_space(s2, projective(alg, 1))) == 1


def test_kernel_cokernel_of_identity_and_zero():
    alg = linear_algebra(2)
    p = projective(alg, 1)
    ident = identity_map(p)
    k, _ = kernel(ident)
    c, _ = cokernel(ident)
    assert k.total_dim == 0 and c.total_dim == 0
    z = zero_map(p, simple(alg, 1))
    k, _ = kernel(z)
    c, _ = cokernel(z)
    assert k.dims == p.dims
    assert c.dims == simple(alg, 1).dims


def test_kernel_rejects_non_intertwining_map():
    # S(2) <- P(1) nonzero only at 2: the kernel at 1 is carried by the arrow
    # to a vector outside the kernel at 2
    alg = linear_algebra(2)
    p1, s2 = projective(alg, 1), simple(alg, 2)
    f = ModuleMap(p1, s2, {1: Mat.zeros(0, 1), 2: Mat([[1]])})
    with pytest.raises(ValueError, match="kernel maps are not well defined"):
        kernel(f)


def test_cokernel_of_inclusion():
    alg = linear_algebra(2)
    p1 = projective(alg, 1)
    s2 = simple(alg, 2)
    incl = module_map(s2, p1, {2: Mat([[1]])})
    assert is_monomorphism(incl)
    cok, proj = cokernel(incl)
    assert cok.dims == {1: 1, 2: 0}
    assert is_epimorphism(proj)
    assert socle(cok) == Counter({1: 1})


def test_socle():
    alg = fan5_algebra("both")
    assert socle(simple(alg, 3)) == Counter({3: 1})
    assert socle(projective(alg, 4)) == Counter({3: 1, 5: 1})
    line = linear_algebra(2)
    assert socle(projective(line, 1)) == Counter({2: 1})


def test_module_map_checks_intertwining():
    alg = linear_algebra(2)
    p = projective(alg, 1)
    s1 = simple(alg, 1)
    # projection onto the top is fine
    module_map(p, s1, {1: Mat([[1]])})
    # but a map the other way cannot hit the top
    with pytest.raises(ValueError):
        module_map(s1, p, {1: Mat([[1]])})


def test_compose_and_vec():
    alg = linear_algebra(2)
    p = projective(alg, 1)
    s1 = simple(alg, 1)
    top = module_map(p, s1, {1: Mat([[1]])})
    ident = identity_map(p)
    assert compose(top, ident).vec() == top.vec()
    assert len(top.vec()) == sum(s1.dims[v] * p.dims[v] for v in p.dims)


def test_representation_relation_check():
    alg = fan5_algebra("both")
    from stringdet.modules import representation
    with pytest.raises(ValueError):
        representation(alg, {1: 1, 3: 1, 4: 1},
                       {"a3": Mat([[1]]), "a1": Mat([[1]])})


def test_relation_check_skips_only_generators_leaving_the_support():
    # fan5 'both' kills a3 a1 and a3 a2; on the support {2, 3, 4} only a3 a2
    # lies inside it, and it is still checked
    alg = fan5_algebra("both")
    from stringdet.modules import representation
    with pytest.raises(ValueError, match="a3 a2"):
        representation(alg, {2: 1, 3: 1, 4: 1}, {"a3": Mat([[1]]), "a2": Mat([[1]])})
    rep = representation(alg, {3: 1, 4: 1}, {"a3": Mat([[1]])})
    assert rep.support() == (3, 4)


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 10**9), n=st.integers(2, 5))
def test_hom_from_projective_counts_dimension(seed, n):
    """dim Hom(P(i), M) equals the dimension of M at i, and dually
    dim Hom(M, I(i)) equals it too; pins down the module conventions."""
    alg = random_tree_algebra(random.Random(seed), n)
    rng = random.Random(seed + 1)
    walks = enumerate_strings(alg)
    sample = [walks[rng.randrange(len(walks))] for _ in range(3)]
    for i in alg.quiver.vertices:
        p = projective(alg, i)
        inj = injective(alg, i)
        for w in sample:
            m = string_module(alg, w)
            assert len(hom_space(p, m)) == m.dims[i]
            assert len(hom_space(m, inj)) == m.dims[i]
