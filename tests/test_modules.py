import random
from collections import Counter
from fractions import Fraction
from functools import reduce

import pytest
from hypothesis import given, settings, strategies as st

from stringdet import ar_quiver, oracle
from stringdet.families import (crossing6_algebra, crossing_tree_algebra, fan5_algebra,
                                linear_algebra)
from stringdet.linalg import Mat
from stringdet.modules import (ModuleMap, cokernel, compose, injective, is_epimorphism,
                               is_monomorphism, kernel, kernel_of_sum, module_map, projective,
                               simple, socle, string_module)
from stringdet.strings import enumerate_strings, radical_supports

import helpers
from helpers import (SpanBuilder, direct_sum, from_columns, general_cokernel, general_kernel,
                     general_socle, hom_dim, hom_space, hstack, identity_map, kernel_inclusion,
                     nullspace, quotient_projection, radical_summands, rank, representation,
                     row_major, transpose, vec, zero_map)
from tree_algebras import random_tree_algebra


def test_mat_basics():
    a = Mat([[1, 2], [3, 4]])
    b = Mat([[0, 1], [1, 0]])
    assert (a @ b).rows == ((Fraction(2), Fraction(1)), (Fraction(4), Fraction(3)))
    assert rank(a) == 2
    assert rank(Mat([[1, 2], [2, 4]])) == 1
    assert Mat.zeros(0, 3).shape == (0, 3)
    assert (Mat.zeros(2, 0) @ Mat.zeros(0, 3)).shape == (2, 3)


def test_empty_shapes_are_checked_first():
    for a, b in ((Mat.zeros(2, 0), Mat.zeros(1, 3)), (Mat.zeros(0, 2), Mat.zeros(3, 0)),
                 (Mat.zeros(0, 0), Mat([[1]])), (Mat([[1, 2]]), Mat.zeros(0, 4))):
        with pytest.raises(ValueError, match="shape mismatch"):
            a @ b


def test_empty_and_inner_zero_products_are_zero_matrices():
    full = Mat([[1, 2], [3, 4], [5, 6]])
    assert Mat.zeros(0, 3) @ full == Mat.zeros(0, 2)
    assert Mat([[1], [2]]) @ Mat.zeros(1, 0) == Mat.zeros(2, 0)
    inner = Mat.zeros(2, 0) @ Mat.zeros(0, 3)
    assert inner == Mat.zeros(2, 3) and inner.is_zero()
    # one shared instance per empty shape
    assert Mat.zeros(0, 3) is Mat.zeros(0, 3)
    assert Mat.zeros(0, 3).shape == (0, 3) and Mat.zeros(3, 0).shape == (3, 0)
    assert from_columns([], nrows=2) == Mat.zeros(2, 0)
    assert row_major((7, 8), 1, 0, 5) == Mat.zeros(0, 5)
    assert hstack(Mat.zeros(0, 2), Mat.zeros(0, 1)) == Mat.zeros(0, 3)
    assert hstack(Mat([[1], [2]]), Mat.zeros(2, 0)) == Mat([[1], [2]])


def test_rank_of_empty_shapes_is_zero():
    assert Mat.zeros(0, 3).rank() == 0
    assert Mat.zeros(3, 0).rank() == 0
    assert Mat.zeros(0, 0).rank() == 0


def test_nullspace_basis():
    m = Mat([[1, 2, 3], [2, 4, 6]])
    basis = nullspace(m)
    assert len(basis) == 2
    for v in basis:
        col = from_columns([v], nrows=3)
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
        assert (m @ from_columns([v], nrows=m.ncols)).is_zero()
    assert len(basis) + rank(m) == m.ncols
    # the reduced echelon form, hence the basis, depends on the row space only
    order = data.draw(st.permutations(range(m.nrows)))
    extra = data.draw(st.lists(st.integers(0, m.nrows - 1), max_size=3))
    reordered = Mat([m.rows[i] for i in list(order) + extra], ncols=m.ncols)
    assert nullspace(reordered) == basis
    inclusion, retraction = kernel_inclusion(m)
    assert list(transpose(inclusion).rows) == basis
    assert retraction @ inclusion == Mat.identity(len(basis))


# --------------------------------------------------------------------------
# the sparse echelon form against the dense one it replaced

class _DenseSpanBuilder:
    """Reference row space: dense rows in reduced echelon form."""

    def __init__(self, length):
        self.length = length
        self._rows = {}  # pivot column -> normalized dense row

    def reduce(self, vec):
        v = list(vec)
        for piv, row in self._rows.items():
            c = v[piv]
            if c != 0:
                v = [x - c * y for x, y in zip(v, row)]
        return v

    def add(self, vec):
        v = self.reduce(vec)
        piv = next((i for i, x in enumerate(v) if x != 0), None)
        if piv is None:
            return False
        if v[piv] != 1:
            inv = Fraction(1) / v[piv]
            v = [x * inv if x else x for x in v]
        for p, row in self._rows.items():
            if row[piv] != 0:
                c = row[piv]
                self._rows[p] = [x - c * y for x, y in zip(row, v)]
        self._rows[piv] = v
        return True

    def free_columns(self):
        return [c for c in range(self.length) if c not in self._rows]


def _dense_kernel(m):
    span = _DenseSpanBuilder(m.ncols)
    for row in m.rows:
        span.add(row)
    basis = []
    for c in span.free_columns():
        vec = [Fraction(0)] * m.ncols
        vec[c] = Fraction(1)
        for p, row in span._rows.items():
            vec[p] = -row[c]
        basis.append(tuple(vec))
    return basis, span.free_columns()


def _dense_quotient_projection(sub_basis, n):
    span = _DenseSpanBuilder(n)
    for v in sub_basis:
        span.add(v)
    free = span.free_columns()
    units = [[Fraction(int(i == c)) for i in range(n)] for c in range(n)]
    cols = [[span.reduce(unit)[c] for c in free] for unit in units]
    section = from_columns([units[c] for c in free], nrows=n)
    return from_columns(cols, nrows=len(free)), section


def _exact(values):
    return all(type(x) in (int, Fraction) for x in values)


def _entries(*mats):
    return [x for m in mats for row in m.rows for x in row]


_scalars = st.one_of(st.integers(-3, 3),
                     st.fractions(min_value=-3, max_value=3, max_denominator=4))
_exact_matrices = st.integers(1, 5).flatmap(lambda r: st.integers(1, 6).flatmap(
    lambda c: st.lists(st.lists(_scalars, min_size=c, max_size=c),
                       min_size=r, max_size=r).map(lambda rows: Mat(rows, ncols=c))))


@settings(max_examples=100, deadline=None)
@given(m=_exact_matrices, data=st.data())
def test_sparse_echelon_matches_dense_reference(m, data):
    sparse, dense = SpanBuilder(m.ncols), _DenseSpanBuilder(m.ncols)
    for row in m.rows:
        assert sparse.add(row) == dense.add(row)
    assert sorted(sparse._rows) == sorted(dense._rows)
    assert sparse.free_columns() == dense.free_columns()
    for piv, row in dense._rows.items():
        got = [sparse._rows[piv].get(c, 0) for c in range(m.ncols)]
        assert got == row and _exact(got)
    probe = data.draw(st.lists(_scalars, min_size=m.ncols, max_size=m.ncols))
    assert sparse.reduce(probe) == dense.reduce(probe) and _exact(sparse.reduce(probe))
    assert sparse.contains(probe) == (not any(dense.reduce(probe)))

    basis, free = _dense_kernel(m)
    assert nullspace(m) == basis
    assert all(_exact(v) for v in nullspace(m))
    inclusion, retraction = kernel_inclusion(m)
    assert inclusion == from_columns(basis, nrows=m.ncols)
    assert retraction == Mat([[int(i == c) for i in range(m.ncols)] for c in free],
                             ncols=m.ncols)
    proj, section = quotient_projection(m)
    assert (proj, section) == _dense_quotient_projection(transpose(m).rows, m.nrows)
    assert _exact(_entries(inclusion, retraction, proj, section))


def test_quotient_projection():
    proj, section = quotient_projection(Mat([[Fraction(1)], [Fraction(1)], [Fraction(0)]]))
    assert proj.shape == (2, 3)
    assert (proj @ from_columns([(1, 1, 0)], nrows=3)).is_zero()
    assert rank(proj) == 2
    assert proj @ section == Mat.identity(2)


def test_span_builder():
    sb = SpanBuilder(3)
    assert sb.add((1, 0, 0))
    assert sb.add((1, 1, 0))
    assert not sb.add((2, 1, 0))
    assert sb.contains((0, 1, 0))
    assert not sb.contains((0, 0, 1))
    assert sb.dim == 2
    # pivots are normalised exactly, whether or not the row needed rescaling
    sb = SpanBuilder(3)
    assert sb.add((0, 3, 2))
    assert sb.add((1, 0, 5))
    assert sb.reduce((0, 1, Fraction(2, 3))) == [0, 0, 0]
    assert nullspace(Mat([[0, 3, 2], [1, 0, 5]])) == [(-5, Fraction(-2, 3), 1)]


# --------------------------------------------------------------------------
# the value-keyed memo behind rank, nullspace, kernels and quotients

def _fresh(m):
    """Rank, nullspace, kernel inclusion and quotient projection of m from a
    new SpanBuilder each, never through the memo."""
    span = SpanBuilder(m.ncols)
    for row in m.rows:
        span.add(row)
    basis, inclusion, retraction = helpers._kernel.__wrapped__(m)
    return span.dim, list(basis), (inclusion, retraction), helpers._quotient.__wrapped__(m)


def _memoised(m):
    return rank(m), nullspace(m), kernel_inclusion(m), quotient_projection(m)


def _clear_memo():
    helpers._kernel.cache_clear()
    helpers._quotient.cache_clear()


_memo_matrices = st.integers(0, 4).flatmap(lambda r: st.integers(0, 4).flatmap(
    lambda c: st.lists(st.lists(_scalars, min_size=c, max_size=c),
                       min_size=r, max_size=r).map(lambda rows: Mat(rows, ncols=c))))


@settings(max_examples=150, deadline=None)
@given(m=_memo_matrices)
def test_memo_matches_fresh_and_dense_computations(m):
    for _ in range(2):  # a miss, then a hit
        got = _memoised(m)
        assert got == _fresh(m)
        basis, free = _dense_kernel(m)
        assert got[0] == m.ncols - len(free)
        assert got[1] == basis
        assert got[2][0] == from_columns(basis, nrows=m.ncols)
        assert got[3] == _dense_quotient_projection(transpose(m).rows, m.nrows)
        assert _exact(_entries(*got[2], *got[3])) and all(_exact(v) for v in got[1])


@settings(max_examples=60, deadline=None)
@given(m=_exact_matrices)
def test_int_and_fraction_entries_share_exact_results(m):
    """An int matrix and the equal Fraction matrix are one key: whichever
    comes first, both get equal, exact results."""
    as_fraction = Mat([[Fraction(x) for x in row] for row in m.rows], ncols=m.ncols)
    as_int = Mat([[int(x) if x == int(x) else x for x in row] for row in m.rows],
                 ncols=m.ncols)
    expected = _fresh(as_fraction)
    for first, second in ((as_int, as_fraction), (as_fraction, as_int)):
        _clear_memo()
        for key in (first, second):
            got = _memoised(key)
            assert got == expected
            assert _exact(_entries(*got[2], *got[3])) and all(_exact(v) for v in got[1])


def test_memo_hands_out_no_shared_mutable_value():
    m = Mat([[1, 2, 3], [2, 4, 6]])
    basis = nullspace(m)
    expected = list(basis)
    basis.append((0, 0, 0))
    basis[0] = (9, 9, 9)
    assert nullspace(m) == expected
    assert nullspace(m) is not nullspace(m)


def test_memo_is_bounded_and_stays_exact_past_its_bound():
    _clear_memo()
    first = [Mat([[i, 1], [0, i]]) for i in range(-3, 4)]
    seen = {m: _fresh(m) for m in first}
    for m in first:
        assert _memoised(m) == seen[m]
    for i in range(helpers._MEMO_SIZE + 50):
        _memoised(Mat([[i + 5, 1, 0]]))
    assert helpers._kernel.cache_info().currsize <= helpers._MEMO_SIZE
    assert helpers._quotient.cache_info().currsize <= helpers._MEMO_SIZE
    for m in first:
        assert _memoised(m) == seen[m]


# --------------------------------------------------------------------------
# rows built once, the shared [1] and the 1 x 1 paths

def _assert_as_checked(m):
    """m equals its rows rebuilt through the public, checked constructor, with
    the same shape and hash, and its rows are tuples of one width."""
    rebuilt = Mat([list(row) for row in m.rows], ncols=m.ncols)
    assert m == rebuilt and m.shape == rebuilt.shape == (len(m.rows), m.ncols)
    assert hash(m) == hash(rebuilt)
    assert type(m.rows) is tuple
    assert all(type(row) is tuple and len(row) == m.ncols for row in m.rows)


def _dense_product(a, b):
    return [[sum(a.rows[i][k] * b.rows[k][j] for k in range(a.ncols)) for j in range(b.ncols)]
            for i in range(a.nrows)]


@settings(max_examples=200, deadline=None)
@given(a=_memo_matrices, data=st.data())
def test_built_matrices_match_the_checked_constructor(a, data):
    """@, transpose, hstack, row_major, from_columns, zeros and identity build
    their rows unchecked; each result is what Mat(...) would build, on int
    and Fraction entries, 1 x 1 and empty shapes included."""
    c = data.draw(st.integers(0, 4))
    b = data.draw(st.lists(st.lists(_scalars, min_size=c, max_size=c),
                           min_size=a.ncols, max_size=a.ncols).map(lambda rows: Mat(rows, c)))
    product = a @ b
    _assert_as_checked(product)
    assert [list(row) for row in product.rows] == _dense_product(a, b)
    _assert_as_checked(transpose(a))
    assert transpose(transpose(a)) == a
    w = data.draw(st.integers(0, 4))
    right = data.draw(st.lists(st.lists(_scalars, min_size=w, max_size=w),
                               min_size=a.nrows, max_size=a.nrows).map(lambda rows: Mat(rows, w)))
    stacked = hstack(a, right)
    _assert_as_checked(stacked)
    assert stacked.rows == tuple(ra + rb for ra, rb in zip(a.rows, right.rows))
    values = _entries(a)
    start = data.draw(st.integers(0, 3))
    padded = tuple([0] * start + values)
    _assert_as_checked(row_major(padded, start, a.nrows, a.ncols))
    assert row_major(padded, start, a.nrows, a.ncols) == a
    _assert_as_checked(from_columns(transpose(a).rows, nrows=a.nrows))
    assert from_columns(transpose(a).rows, nrows=a.nrows) == a
    for m in (Mat.zeros(a.nrows, a.ncols), Mat.identity(a.nrows)):
        _assert_as_checked(m)
    assert Mat.identity(a.nrows) == Mat([[int(i == j) for j in range(a.nrows)]
                                          for i in range(a.nrows)], ncols=a.nrows)


@settings(max_examples=100, deadline=None)
@given(x=_scalars)
def test_one_by_one_rank_is_the_elimination_rank(x):
    m = Mat([[x]])
    assert m.rank() == 1 - len(nullspace(m)) == (1 if x else 0)
    assert (m @ Mat([[1]])) == m and (m @ Mat([[1]])).rows[0][0] == x


def test_checked_constructor_still_refuses_bad_rows():
    with pytest.raises(ValueError, match="ragged"):
        Mat([[1, 2], [3]])
    with pytest.raises(ValueError, match="ncols"):
        Mat([[1, 2]], ncols=3)
    with pytest.raises(ValueError, match="ncols"):
        Mat([])
    with pytest.raises(ValueError, match="too short"):
        row_major((1, 2, 3), 1, 2, 2)


def test_shared_one_is_immutable_and_kept_by_products():
    one = Mat.identity(1)
    assert one is Mat.identity(1) and one == Mat([[1]])
    assert Mat([[1]]) @ Mat([[1]]) is one
    assert Mat([[-1]]) @ Mat([[-1]]) is one
    # a Fraction product keeps its Fraction entry, equal to the shared [1]
    product = Mat([[Fraction(1, 2)]]) @ Mat([[2]])
    assert product == one and type(product.rows[0][0]) is Fraction
    with pytest.raises(AttributeError):
        one.rows = ((2,),)
    with pytest.raises(AttributeError):
        one.extra = 1
    assert one.rows == ((1,),)
    assert hash(Mat([[1]])) == hash(Mat([[Fraction(1)]])) == hash(one)


def test_thin_modules_share_the_one_block():
    alg = crossing6_algebra()
    for s in enumerate_strings(alg):
        rep = string_module(alg, s.vertices)
        assert all(m is Mat.identity(1) for m in rep.maps.values())


def test_string_module_trivial():
    alg = linear_algebra(2)
    s = simple(alg, 1)
    # only the support is stored; the accessors read zeros elsewhere
    assert s.dims == {1: 1} and s.maps == {}
    assert (s.dim(1), s.dim(2)) == (1, 0)
    assert s.map("a1") is Mat.zeros(0, 1)


def test_string_module_arrow():
    alg = linear_algebra(2)
    m = string_module(alg, (1, 2))
    assert m.dims == {1: 1, 2: 1}
    assert m.maps == {"a1": Mat([[1]])}
    assert m == projective(alg, 1)
    assert m == injective(alg, 2)


def test_string_module_fan5():
    alg = fan5_algebra("both")
    m = string_module(alg, (4, 3))
    assert m.dims == {4: 1, 3: 1} and m.dim(1) == 0


def test_projective_fan5():
    alg = fan5_algebra("both")
    p4 = projective(alg, 4)
    assert p4.dims == {3: 1, 4: 1, 5: 1}
    rads = radical_summands(alg, 4)
    assert [r.support for r in rads] == [{3}, {5}]
    assert radical_summands(alg, 1) == []


def test_radical_line():
    alg = linear_algebra(2)
    rads = radical_summands(alg, 1)
    assert len(rads) == 1
    assert rads[0] == simple(alg, 2)


def test_stored_radical_nodes_crossing6():
    alg = crossing6_algebra()
    ar = ar_quiver(alg)
    for v in alg.quiver.vertices:
        rads = ar.radical_nodes(v)
        assert rads is ar.radical_nodes(v)
        assert rads == tuple(sorted(ar.node_of(string_module(alg, s))
                                    for s in radical_supports(alg, v)))
        proj = ar.nodes[ar.projective_node(v)]
        assert proj.projective_vertex == v
        # the summands' supports partition P(v) minus its top
        covered = [u for r in rads for u in ar.nodes[r].rep.support]
        assert sorted(covered) == sorted(proj.rep.support - {v})


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
    f = ModuleMap(p1, s2, {2: Mat([[1]])})
    with pytest.raises(ValueError, match="kernel maps are not well defined"):
        kernel(f)


def test_cokernel_rejects_non_intertwining_map():
    # S(1) -> P(1) nonzero at 1: the cokernel is zero at 1, but the arrow
    # carries the target's vector at 1 to a non-zero class at 2
    alg = linear_algebra(2)
    s1, p1 = simple(alg, 1), projective(alg, 1)
    f = ModuleMap(s1, p1, {1: Mat([[1]])})
    with pytest.raises(ValueError, match="cokernel maps are not well defined"):
        cokernel(f)


def test_cokernel_of_inclusion():
    alg = linear_algebra(2)
    p1 = projective(alg, 1)
    s2 = simple(alg, 2)
    incl = module_map(s2, p1, {2: Mat([[1]])})
    assert is_monomorphism(incl)
    cok, proj = cokernel(incl)
    assert cok.dims == {1: 1}
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
    assert vec(compose(top, ident)) == vec(top)
    assert len(vec(top)) == sum(s1.dim(v) * p.dim(v) for v in alg.quiver.vertices)


def test_representation_relation_check():
    alg = fan5_algebra("both")
    with pytest.raises(ValueError):
        representation(alg, {1: 1, 3: 1, 4: 1},
                       {"a3": Mat([[1]]), "a1": Mat([[1]])})


def test_relation_check_skips_only_generators_leaving_the_support():
    # fan5 'both' kills a3 a1 and a3 a2; on the support {2, 3, 4} only a3 a2
    # lies inside it, and it is still checked
    alg = fan5_algebra("both")
    with pytest.raises(ValueError, match="a3 a2"):
        representation(alg, {2: 1, 3: 1, 4: 1}, {"a3": Mat([[1]]), "a2": Mat([[1]])})
    rep = representation(alg, {3: 1, 4: 1}, {"a3": Mat([[1]])})
    assert rep.support == {3, 4}


def test_unknown_vertices_and_arrows_are_refused():
    alg = linear_algebra(3)
    with pytest.raises(ValueError, match="unknown vertex 99"):
        representation(alg, {1: 1, 99: 5}, {"zz": Mat([[1]])})
    with pytest.raises(ValueError, match="unknown arrow zz"):
        representation(alg, {1: 1}, {"zz": Mat([[1]])})
    s = simple(alg, 1)
    with pytest.raises(ValueError, match="unknown vertex 42"):
        module_map(s, s, {42: Mat([[7]])})
    # a known vertex or arrow off the support is fine, given its empty shape
    assert representation(alg, {1: 1, 2: 0}, {"a2": Mat.zeros(0, 0)}) == s
    assert module_map(s, s, {3: Mat.zeros(0, 0)}) == zero_map(s, s)


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
            m = string_module(alg, w.vertices)
            assert len(hom_space(p, m)) == m.dim(i)
            assert len(hom_space(m, inj)) == m.dim(i)


# --------------------------------------------------------------------------
# support-local kernels, cokernels and intertwining checks against the
# whole-quiver loops, read densely through dim/map/block at every vertex and
# arrow (zeros included), with products summed entry by entry

def _dense(a, b):
    cols = list(zip(*b.rows)) if b.rows else [()] * b.ncols
    return Mat([[sum(x * y for x, y in zip(row, col)) for col in cols] for row in a.rows],
               ncols=b.ncols)


def _reference_kernel(f):
    quiver = f.source.algebra.quiver
    incl, retr, dims, maps = {}, {}, {}, {}
    for v in quiver.vertices:
        incl[v], retr[v] = kernel_inclusion(f.block(v))
        dims[v] = incl[v].ncols
    for a in quiver.arrows:
        carried = _dense(f.source.map(a.name), incl[a.source])
        induced = _dense(retr[a.target], carried)
        if _dense(incl[a.target], induced) != carried:
            raise ValueError("kernel maps are not well defined")
        maps[a.name] = induced
    return dims, maps, incl


def _reference_cokernel(f):
    quiver = f.target.algebra.quiver
    proj, sec, dims, maps = {}, {}, {}, {}
    for v in quiver.vertices:
        proj[v], sec[v] = quotient_projection(f.block(v))
        dims[v] = proj[v].nrows
    for a in quiver.arrows:
        carried = _dense(proj[a.target], f.target.map(a.name))
        induced = _dense(carried, sec[a.source])
        if _dense(induced, proj[a.source]) != carried:
            raise ValueError("cokernel maps are not well defined")
        maps[a.name] = induced
    return dims, maps, proj


def _reference_intertwines(source, target, blocks):
    def block(v):
        return blocks.get(v, Mat.zeros(target.dim(v), source.dim(v)))

    return all(_dense(block(a.target), source.map(a.name))
               == _dense(target.map(a.name), block(a.source))
               for a in source.algebra.quiver.arrows)


def _assert_support_only(g):
    """Neither module of g nor g itself stores an entry off its support."""
    for rep in (g.source, g.target):
        assert all(rep.dims.values())
        assert rep.maps.keys() == {a.name for a in rep.algebra.quiver.arrows
                                   if a.source in rep.dims and a.target in rep.dims}
    assert g.blocks.keys() == g.source.dims.keys() & g.target.dims.keys()


def _sweep_maps(ar):
    """Every irreducible map of ar, then every mesh's sink map, its blocks
    given at every vertex."""
    vertices = ar.algebra.quiver.vertices
    maps = [arr.map for arr in ar.arrows]
    for mesh in ar.meshes:
        comps = [ar.arrows[i] for i in mesh.arrow_indices]
        total = direct_sum([ar.nodes[c.source].rep for c in comps])
        blocks = {v: reduce(hstack, [c.map.block(v) for c in comps]) for v in vertices}
        maps.append(module_map(total, ar.nodes[mesh.right].rep, blocks))
    return maps


@pytest.fixture(scope="module")
def comparison_quivers(sweep_records):
    """The AR quiver of every sweep algebra and of crossing-tree level 2."""
    return ([rec.oracle.ar for rec in sweep_records]
            + [ar_quiver(crossing_tree_algebra(2))])


def test_support_local_kernels_and_cokernels_match_whole_quiver(comparison_quivers):
    """The thin kernel and cokernel on the irreducible maps, and the general
    ones of the tests' reference on the sink maps of two-middle meshes, whose
    direct sums are not thin."""
    assert len(comparison_quivers) == 533
    checked = 0
    for ar in comparison_quivers:
        quiver = ar.algebra.quiver
        for f in _sweep_maps(ar):
            ops = (kernel, cokernel) if _is_thin(f) else (general_kernel, general_cokernel)
            for op, reference in zip(ops, (_reference_kernel, _reference_cokernel)):
                rep, g = op(f)
                _assert_support_only(g)
                assert ({v: rep.dim(v) for v in quiver.vertices},
                        {a.name: rep.map(a.name) for a in quiver.arrows},
                        {v: g.block(v) for v in quiver.vertices}) == reference(f)
            checked += 1
    assert checked == 9183  # every irreducible map plus the sink maps


def test_support_local_intertwining_check_matches_whole_quiver(comparison_quivers):
    """Perturb one entry of one non-empty block of each irreducible map:
    module_map must refuse exactly the perturbations the whole-quiver loop
    refuses."""
    outcomes = Counter()
    for ar in comparison_quivers:
        for arr in ar.arrows:
            f = arr.map
            _assert_support_only(f)
            for v, b in f.blocks.items():
                blocks = dict(f.blocks)
                blocks[v] = Mat([[b.rows[0][0] + 1, *b.rows[0][1:]], *b.rows[1:]], ncols=b.ncols)
                expected = _reference_intertwines(f.source, f.target, blocks)
                try:
                    module_map(f.source, f.target, blocks)
                except ValueError:
                    outcomes["refused"] += 1
                    assert not expected
                else:
                    outcomes["accepted"] += 1
                    assert expected
    assert outcomes == {"refused": 5778, "accepted": 3580}


def test_pullback_translate_matches_the_direct_sum_kernel(comparison_quivers):
    """ar_quiver reads tau of a two-middle mesh with a mono middle arrow f2
    from ker(pi f1), pi the cokernel projection of f2; the kernel of the
    sink map [f1 f2] on the direct sum must be the same node."""
    split = Counter()
    for ar in comparison_quivers:
        for mesh in ar.meshes:
            comps = [ar.arrows[i].map for i in mesh.arrow_indices]
            if len(comps) == 1:
                split["single"] += 1
                continue
            split["mono" if any(map(is_monomorphism, comps)) else "two epis"] += 1
            total = direct_sum([f.source for f in comps])
            blocks = {v: reduce(hstack, [f.block(v) for f in comps])
                      for v in ar.algebra.quiver.vertices}
            g = module_map(total, ar.nodes[mesh.right].rep, blocks)
            assert all(rank(g.block(v)) == d for v, d in g.target.dims.items())
            ker, _ = general_kernel(g)
            assert ker.total_dim == total.total_dim - g.target.total_dim
            assert ar.identify(ker) == ar.tau[mesh.right]
    assert split == {"mono": 908, "two epis": 363, "single": 1790}


# --------------------------------------------------------------------------
# the scalar path for thin modules against the general echelon path

def _is_thin(f):
    return all(d == 1 for rep in (f.source, f.target) for d in rep.dims.values())


def _outcome(op, f):
    """What op makes of f: the module and the blocks of its map, or the
    message of the ValueError it raises."""
    try:
        rep, g = op(f)
    except ValueError as err:
        return str(err)
    return rep.dims, rep.maps, g.blocks


def _sink_kernel_map(ar, mesh):
    """The map whose kernel is that of the mesh's sink map: the arrow's own
    at one middle, pi f1 with pi the cokernel projection of a mono f2, or
    [f1 f2] on the direct sum of two epi middles, built by the reference."""
    comps = [ar.arrows[i].map for i in mesh.arrow_indices]
    if len(comps) == 1:
        return comps[0]
    mono = next((i for i in (1, 0) if is_monomorphism(comps[i])), None)
    if mono is not None:
        return compose(cokernel(comps[mono])[1], comps[1 - mono])
    return _sum_map(*comps)


def _sum_map(f1, f2):
    """[f1 f2] on the direct sum of the sources, built by the reference."""
    total = direct_sum([f1.source, f2.source])
    return ModuleMap(total, f1.target, {v: hstack(f1.block(v), f2.block(v))
                                        for v in total.dims if v in f1.target.dims})


def test_thin_kernels_and_cokernels_match_the_general_path(comparison_quivers):
    """Every arrow map and every sink-kernel map: on a thin one the same
    dims, maps and inclusion or projection blocks as the general path, the
    blocks being the shared 1 x 1 identity, and the socle of each non-zero
    result as the general path reads it.  The maps that are not thin, [f1 f2]
    on the direct sum of two epi middles, are refused by name."""
    kinds = Counter()
    for ar in comparison_quivers:
        maps = [arr.map for arr in ar.arrows]
        maps += [_sink_kernel_map(ar, mesh) for mesh in ar.meshes]
        for f in maps:
            thin = _is_thin(f)
            kinds["thin" if thin else "general"] += 1
            for op, reference in ((kernel, general_kernel), (cokernel, general_cokernel)):
                if not thin:
                    with pytest.raises(ValueError, match=f"^{op.__name__} takes maps between "
                                                         "thin modules only$"):
                        op(f)
                    continue
                rep, g = op(f)
                ref, ref_g = reference(f)
                assert (rep.dims, rep.maps, g.blocks) == (ref.dims, ref.maps, ref_g.blocks)
                assert all(b is Mat.identity(1) for b in g.blocks.values())
                if rep.dims:
                    _assert_socle_matches_the_general_path(rep)
    # the general maps are the two-epi meshes' sink maps on their direct sums
    assert kinds == {"thin": 8820, "general": 363}


def _assert_socle_matches_the_general_path(rep):
    """The thin socle of rep is the general one, and the socle of rep + rep,
    which is not thin where the supports overlap, comes from the
    stacked-rank path and is twice that of rep."""
    assert socle(rep) == general_socle(rep)
    doubled = general_socle(direct_sum([rep, rep]))
    assert doubled == socle(rep) + socle(rep)
    assert all(d == 2 for d in direct_sum([rep, rep]).dims.values())


SCALARS = (0, 1, -1, 2, Fraction(1, 2))


def _scaled_thin_module(alg, support, rng):
    """A thin module on a vertex interval of a line, each arrow inside it
    carrying a scalar drawn from SCALARS, zero included."""
    maps = {a.name: Mat([[rng.choice(SCALARS)]]) for a in alg.quiver.arrows
            if a.source in support and a.target in support}
    return representation(alg, dict.fromkeys(support, 1), maps)


def test_thin_paths_match_the_general_path_on_scaled_maps():
    """Random thin modules with arbitrary scalars and random blocks on the
    overlap, on relation-free lines of every orientation: the thin kernel and
    cokernel agree with the general path, raising the same ValueError where
    it raises, module_map refuses exactly what the whole-quiver intertwining
    loop refuses, and the thin socle agrees with the general one."""
    rng = random.Random(20261020)
    outcomes = Counter()
    for _ in range(1500):
        n = rng.randint(2, 5)
        alg = linear_algebra(n, "".join(rng.choice("<>") for _ in range(n - 1)))
        supports = []
        for _ in range(2):
            lo = rng.randint(1, n)
            supports.append(range(lo, rng.randint(lo, n) + 1))
        source, target = (_scaled_thin_module(alg, s, rng) for s in supports)
        blocks = {v: Mat([[rng.choice(SCALARS)]]) for v in source.dims if v in target.dims}
        f = ModuleMap(source, target, blocks)
        for op, reference in ((kernel, general_kernel), (cokernel, general_cokernel)):
            got = _outcome(op, f)
            assert got == _outcome(reference, f)
            outcomes[op.__name__, "raised" if isinstance(got, str) else "built"] += 1
        for rep in (source, target):
            _assert_socle_matches_the_general_path(rep)
        intertwines = _reference_intertwines(source, target, blocks)
        try:
            module_map(source, target, blocks)
        except ValueError as err:
            assert not intertwines and str(err).startswith("map does not intertwine along arrow a")
        else:
            assert intertwines
        outcomes["intertwines", intertwines] += 1
    assert outcomes == {("kernel", "built"): 1343, ("kernel", "raised"): 157,
                        ("cokernel", "built"): 1323, ("cokernel", "raised"): 177,
                        ("intertwines", True): 1104, ("intertwines", False): 396}


def test_thin_map_that_does_not_intertwine_raises_as_the_general_path_does():
    # 1 -> 2 with the identity, mapped to itself by 0 at 1 and 1 at 2: the
    # square along a1 fails, the kernel at 1 is not carried into the kernel,
    # and the image at 1 is not shut off from the cokernel at 2 when the
    # blocks are swapped
    alg = linear_algebra(2)
    m = string_module(alg, (1, 2))
    zero, one = Mat([[0]]), Mat.identity(1)
    with pytest.raises(ValueError, match="^map does not intertwine along arrow a1$"):
        module_map(m, m, {1: zero, 2: one})
    for op, reference, blocks, message in (
            (kernel, general_kernel, {1: zero, 2: one}, "kernel maps are not well defined"),
            (cokernel, general_cokernel, {1: one, 2: zero}, "cokernel maps are not well defined")):
        f = ModuleMap(m, m, blocks)
        for path in (op, reference):
            with pytest.raises(ValueError, match=f"^{message}$"):
                path(f)


def test_epi_route_takes_one_kernel_per_epi_arrow(monkeypatch):
    """The epi route takes the kernel of each epi arrow's own map, once; the
    quiver passes it none."""
    calls = []

    def counting(f):
        calls.append(f)
        return kernel(f)

    monkeypatch.setattr(oracle, "kernel", counting)
    res = oracle.brute_force_det(crossing6_algebra())
    epis = [res.ar.arrows[e.arrow_index].map for e in res.entries
            if e.kind is oracle.MapKind.EPI]
    assert len(calls) == len(epis) == 10
    assert all(c is f for c, f in zip(calls, epis))


def test_end_check_by_identify_matches_the_hom_solve(comparison_quivers):
    """identify(M) names a node exactly when End M = k: on every node the
    exact solve gives 1 and identify gives the node itself, and on thin
    modules over node supports, with seeded scalars from {0, +-1, 2, 1/2}
    on the arrows inside, identify finds a node exactly when the solve
    gives 1."""
    scalars = [Mat([[x]]) for x in (0, 1, -1, 2, Fraction(1, 2))]
    rng = random.Random(29)
    nodes = 0
    outcomes = Counter()
    for ar in comparison_quivers:
        outgoing = ar.algebra.quiver.outgoing
        for nd in ar.nodes:
            assert hom_dim(nd.rep, nd.rep) == 1
            assert ar.identify(nd.rep) == nd.index
            nodes += 1
            inside = [a.name for v in nd.rep.support for a in outgoing[v]
                      if a.target in nd.rep.support]
            rep = representation(ar.algebra, nd.rep.dims,
                                 {name: rng.choice(scalars) for name in inside})
            found = ar.identify(rep) is not None
            assert found == (hom_dim(rep, rep) == 1)
            outcomes[found] += 1
    assert nodes == sum(outcomes.values()) == 5384
    assert outcomes[True] and outcomes[False], outcomes



# --------------------------------------------------------------------------
# the two-epi sink kernel on scalars against the direct-sum reference

def _two_epi_pairs(ar):
    """(right end, f1, f2) for every mesh of ar with two epi middle maps."""
    for mesh in ar.meshes:
        comps = [ar.arrows[i].map for i in mesh.arrow_indices]
        if len(comps) == 2 and not any(map(is_monomorphism, comps)):
            yield mesh.right, comps[0], comps[1]


def _scaled(f, c):
    """c f, a thin map scaled block by block."""
    return ModuleMap(f.source, f.target, {v: Mat([[c * b.rows[0][0]]])
                                          for v, b in f.blocks.items()})


def _checked_kernel_of_sum(f1, f2):
    """kernel_of_sum(f1, f2) with its inclusion checked: each component
    intertwines, f1 i1 + f2 i2 = 0, and (i1, i2) is not zero at any vertex."""
    ker, i1, i2 = kernel_of_sum(f1, f2)
    for f, i in ((f1, i1), (f2, i2)):
        assert i.source is ker and module_map(ker, f.source, i.blocks) == i
    c1, c2 = compose(f1, i1), compose(f2, i2)
    for v in ker.dims:
        assert v not in f1.target.dims or c1.block(v).rows[0][0] + c2.block(v).rows[0][0] == 0
        assert any(v in i.blocks and i.blocks[v].rows[0][0] for i in (i1, i2))
    return ker


def _assert_sum_kernel_matches_the_direct_sum(ar, f1, f2):
    """kernel_of_sum(f1, f2) is the node, and has the dimension, of the
    general kernel of [f1 f2] on the direct sum M1 + M2."""
    g = _sum_map(f1, f2)
    ref, _ = general_kernel(g)
    got = _checked_kernel_of_sum(f1, f2)
    assert got.total_dim == ref.total_dim == g.source.total_dim - g.target.total_dim
    assert ar.identify(got) == ar.identify(ref) is not None
    return ar.identify(got)


def test_sum_kernel_matches_the_direct_sum_kernel(comparison_quivers):
    """Every two-epi mesh of the comparison quivers, crossing-tree level 3 and
    a zigzag line n = 30: the scalar kernel is the translate the general
    kernel names, and so it stays when f1 and f2 are each scaled by a seeded
    non-zero Fraction."""
    rng = random.Random(31)
    factors = [Fraction(p, q) for p in (-3, -2, -1, 1, 2, 5) for q in (1, 2, 3)]
    counts = Counter()
    quivers = [("comparison", ar) for ar in comparison_quivers]
    quivers += [("crossing-tree 3", ar_quiver(crossing_tree_algebra(3))),
                ("zigzag 30", ar_quiver(linear_algebra(30, ("><" * 15)[:29])))]
    for name, ar in quivers:
        for right, f1, f2 in _two_epi_pairs(ar):
            assert _assert_sum_kernel_matches_the_direct_sum(ar, f1, f2) == ar.tau[right]
            c1, c2 = rng.choice(factors), rng.choice(factors)
            scaled = _assert_sum_kernel_matches_the_direct_sum(ar, _scaled(f1, c1), _scaled(f2, c2))
            assert scaled == ar.tau[right]
            counts[name] += 1
    assert counts == {"comparison": 363, "crossing-tree 3": 23, "zigzag 30": 105}


def _outcome_of_sum(op, f1, f2):
    """The dims of the kernel of [f1 f2] and which of its arrows act by a
    non-zero scalar (a thin module over a tree up to isomorphism), or the
    message of the ValueError raised."""
    try:
        ker = op(f1, f2)
    except ValueError as err:
        return str(err)
    return ker.dims, {name: bool(m.rows[0][0]) for name, m in ker.maps.items()}


def _general_kernel_of_sum(f1, f2):
    return general_kernel(_sum_map(f1, f2))[0]


def test_sum_kernel_matches_the_general_path_on_scaled_maps():
    """Random thin modules with arbitrary scalars, zero included, and random
    blocks into one target, on relation-free lines of every orientation:
    where the general kernel of [f1 f2] is a line at every vertex, the scalar
    one is the same module up to isomorphism, or raises the same ValueError;
    where it has a plane, the scalar one refuses it by vertex."""
    rng = random.Random(20261021)
    outcomes = Counter()
    for _ in range(1500):
        n = rng.randint(2, 5)
        alg = linear_algebra(n, "".join(rng.choice("<>") for _ in range(n - 1)))
        supports = []
        for _ in range(3):
            lo = rng.randint(1, n)
            supports.append(range(lo, rng.randint(lo, n) + 1))
        m1, m2, target = (_scaled_thin_module(alg, s, rng) for s in supports)
        f1, f2 = (ModuleMap(m, target, {v: Mat([[rng.choice(SCALARS)]])
                                        for v in m.dims if v in target.dims})
                  for m in (m1, m2))
        planes = [v for v in m1.dims if v in m2.dims
                  and not (f1.block(v).rank() or f2.block(v).rank())]
        got = _outcome_of_sum(_checked_kernel_of_sum, f1, f2)
        ref = _outcome_of_sum(_general_kernel_of_sum, f1, f2)
        if planes:
            assert got == f"kernel_of_sum has a plane at vertex {min(planes)}, not a line"
            assert ref == "kernel maps are not well defined" or 2 in ref[0].values()
            outcomes["plane"] += 1
            continue
        assert got == ref
        outcomes["raised" if isinstance(got, str) else "built"] += 1
    assert outcomes == {"built": 820, "raised": 203, "plane": 477}


def test_thin_only_operations_refuse_a_module_that_is_not_thin():
    alg = linear_algebra(2)
    doubled = direct_sum([simple(alg, 1), simple(alg, 1)])
    f = identity_map(doubled)
    for op in (kernel, cokernel, is_monomorphism, is_epimorphism):
        with pytest.raises(ValueError, match=f"^{op.__name__} takes maps between thin "
                                             "modules only$"):
            op(f)
    with pytest.raises(ValueError, match="^socle takes thin modules only$"):
        socle(doubled)
    thin = identity_map(simple(alg, 1))
    into = module_map(doubled, simple(alg, 1), {1: Mat([[1, 0]])})
    with pytest.raises(ValueError, match="^kernel_of_sum takes maps between thin modules only$"):
        kernel_of_sum(into, thin)
    with pytest.raises(ValueError, match="^kernel_of_sum takes two maps into one target$"):
        kernel_of_sum(thin, identity_map(simple(alg, 2)))
    with pytest.raises(ValueError, match="^rank of a 2 x 2 matrix$"):
        Mat([[1, 0], [0, 1]]).rank()


def test_sum_kernel_refuses_a_plane_and_an_arrow_leaving_its_line():
    # 1 -> 2 -> 3: [1 2] and [1 2 3] onto S(1) overlap at 2 outside the
    # target, where both blocks are missing; onto P(2) = [2 3] by the
    # identity and by its negative, the line e1 + e2 at 2 and 3 is carried
    # along a2 by 1 and by -2, off the line
    alg = linear_algebra(3)
    s1, m12, m123 = (string_module(alg, s) for s in ((1,), (1, 2), (1, 2, 3)))
    one = Mat.identity(1)
    with pytest.raises(ValueError, match="^kernel_of_sum has a plane at vertex 2, not a line$"):
        kernel_of_sum(module_map(m12, s1, {1: one}), module_map(m123, s1, {1: one}))
    p2 = string_module(alg, (2, 3))
    twisted = representation(alg, {2: 1, 3: 1}, {"a2": Mat([[-2]])})
    f1 = module_map(p2, p2, {2: one, 3: one})
    f2 = ModuleMap(twisted, p2, {2: Mat([[-1]]), 3: Mat([[-1]])})
    with pytest.raises(ValueError, match="^kernel maps are not well defined$"):
        kernel_of_sum(f1, f2)
    with pytest.raises(ValueError, match="^kernel maps are not well defined$"):
        _general_kernel_of_sum(f1, f2)
