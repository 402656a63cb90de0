from math import comb

import pytest
from hypothesis import given, settings, strategies as st

from tannakit.exactlin import QQ, Field, Subspace, rank
from tannakit.quadalg import (
    NotFiniteTypeError,
    QuadraticAlgebra,
    as_regular_check,
    free_algebra,
    graded_dims,
    jordan_plane,
    koszul_dual,
    pairing_matrix,
    polynomial_ring,
    quantum_plane,
    relation_spaces,
)

from oracles import naive_graded_dim, naive_rank


CORPUS = {
    "kxy": polynomial_ring(),
    "qplane": quantum_plane(),
    "jordan": jordan_plane(),
    "kxyz": polynomial_ring(n=3),
}


def test_polynomial_ring_dims():
    a = CORPUS["kxy"]
    assert list(graded_dims(a, 5)) == [1, 2, 3, 4, 5, 6]


def test_kxyz_dims_are_binomials():
    a = CORPUS["kxyz"]
    assert list(graded_dims(a, 5)) == [1, 3, 6, 10, 15, 21]


def test_free_algebra_dims():
    a = free_algebra(n=2)
    assert list(graded_dims(a, 4)) == [1, 2, 4, 8, 16]


def test_graded_dims_match_naive_oracle():
    # independent elimination on raw shift rows
    for name, a in CORPUS.items():
        vectors = [
            [x for x in row] for row in a.relations.basis.entries
        ]
        for deg in range(4):
            assert graded_dims(a, deg)[deg] == naive_graded_dim(
                vectors, a.dim_v, deg
            ), name


def test_koszul_dual_of_kxy():
    dual = koszul_dual(CORPUS["kxy"])
    # dual of the symmetric algebra is the exterior algebra
    assert list(graded_dims(dual, 4)) == [1, 2, 1, 0, 0]


def test_double_dual_is_identity():
    for name, a in CORPUS.items():
        dd = koszul_dual(koszul_dual(a))
        assert dd.relations == a.relations, name


def test_relation_space_dims_equal_dual_graded_dims():
    for name, a in CORPUS.items():
        dual = koszul_dual(a)
        ddims = graded_dims(dual, 5)
        spaces = relation_spaces(a, 5)
        for l in range(1, 6):
            assert spaces[l - 1].dim == ddims[l], (name, l)


def test_as_regular_corpus():
    expected_d = {"kxy": 2, "qplane": 2, "jordan": 2, "kxyz": 3}
    for name, a in CORPUS.items():
        report = as_regular_check(a, 6)
        assert report.as_regular, name
        assert report.d == expected_d[name], name
        assert report.relation_dims[report.d - 1] == 1, name


def test_singular_pairing_rejected():
    # TV/(x (x) y): one relation, top dim 1, but the pairing degenerates
    a = QuadraticAlgebra.from_relation_vectors(QQ, 2, [[0, 1, 0, 0]])
    report = as_regular_check(a, 6)
    assert not report.as_regular
    assert not report.pairings_nondegenerate


def test_not_finite_type_detected():
    # TV/(x^2): R_l = span(x^l) never vanishes
    a = QuadraticAlgebra.from_relation_vectors(QQ, 2, [[1, 0, 0, 0]])
    with pytest.raises(NotFiniteTypeError):
        as_regular_check(a, 6)


def test_free_algebra_reported_irregular():
    report = as_regular_check(free_algebra(n=2), 6)
    assert report.d == 1
    assert not report.as_regular


def test_pairing_matrix_kxy():
    a = CORPUS["kxy"]
    spaces = relation_spaces(a, 3)
    c = pairing_matrix(a, spaces, 2, 1)
    # R_2 generator xy - yx in the V (x) V basis
    flat = [c.entries[i][j] for i in range(2) for j in range(2)]
    assert flat == [QQ.of(0), QQ.of(1), QQ.of(-1), QQ.of(0)]
    assert pairing_matrix(a, spaces, 2, 0).entries == [[QQ.of(1)]]


def test_hilbert_series_product_identity():
    # sum_k h_A(n-k) (-1)^k h_dual(k) == 0 for n >= 1
    for name, a in CORPUS.items():
        h = graded_dims(a, 6)
        hd = graded_dims(koszul_dual(a), 6)
        for n in range(1, 7):
            assert sum(h[n - k] * (-1) ** k * hd[k] for k in range(n + 1)) == 0, name


def test_kxyzw_graded_dims_and_regularity():
    # out of reach of elimination in the full tensor powers V^(x)k
    a = polynomial_ring(n=4)
    assert graded_dims(a, 7) == [comb(k + 3, 3) for k in range(8)]
    report = as_regular_check(a, 6)
    assert report.as_regular
    assert report.d == 4
    assert report.relation_dims == [4, 6, 4, 1, 0]


# Relation sets for the recursion tests: a non-Koszul algebra of finite type
# (relations zy, yx - z^2; the Hilbert series identity fails in degree 4), a
# non-Koszul one whose dual is not of finite type (x^2, yx - 2y^2), and
# random ones.  Relations over three generators have at most two terms
# (monomial or binomial) so that the oracle's dense elimination stays cheap.
NON_KOSZUL = [
    (3, [[0, 0, 0, 0, 0, 0, 0, 1, 0], [0, 0, 0, 1, 0, 0, 0, 0, -1]]),
    (3, [[1, 0, 0, 0, 0, 0, 0, 0, 0], [0, 0, 0, -1, 2, 0, 0, 0, 0]]),
]


def test_non_koszul_series_detected():
    n, vectors = NON_KOSZUL[0]
    report = as_regular_check(QuadraticAlgebra.from_relation_vectors(QQ, n, vectors), 6)
    assert report.graded_dims[:5] == [1, 3, 7, 15, 33]
    assert report.dual_graded_dims == [1, 3, 2, 0, 0, 0, 0]
    assert not report.koszul_series_consistent


@st.composite
def random_relations(draw):
    n = draw(st.sampled_from((2, 3)))
    term = st.tuples(st.integers(0, n * n - 1), st.sampled_from((1, -1, 2, -3)))
    rels = draw(st.lists(st.lists(term, min_size=1, max_size=4 if n == 2 else 2),
                         max_size=n * n))
    vectors = []
    for terms in rels:
        v = [0] * (n * n)
        for word, coef in terms:
            v[word] += coef
        vectors.append(v)
    return n, vectors


relation_sets = st.one_of(st.sampled_from(NON_KOSZUL), random_relations())

# Highest degree the dense oracle checks: 32 columns for n = 2, 81 for n = 3.
ORACLE_DEGREE = {2: 5, 3: 4}


def shifted_rows(vectors, n, i, j):
    """Spanning rows of V^i (x) R (x) V^j inside V^(i+2+j)."""
    rows = []
    for v in vectors:
        for left in range(n**i):
            for right in range(n**j):
                row = [0] * n ** (i + 2 + j)
                for mid, c in enumerate(v):
                    row[(left * n * n + mid) * n**j + right] = c
                rows.append(row)
    return rows


@settings(max_examples=20, deadline=None)
@given(relation_sets)
def test_recursions_match_oracle(example):
    n, vectors = example
    a = QuadraticAlgebra.from_relation_vectors(QQ, n, vectors)
    top = ORACLE_DEGREE[n]
    dims = graded_dims(a, top)
    assert dims == [naive_graded_dim(vectors, n, k) for k in range(top + 1)]
    perp = a.relations.annihilator().basis.entries
    for l, space in enumerate(relation_spaces(a, top), start=1):
        # dim R_l(A) = dim A^!_l, and A^! has the relations R-perp
        assert space.dim == naive_graded_dim(perp, n, l), l
        for i in range(l - 1):
            rows = shifted_rows(vectors, n, i, l - 2 - i)
            assert naive_rank(rows + space.basis.entries) == naive_rank(rows), (l, i)


@settings(max_examples=40, deadline=None)
@given(relation_sets)
def test_relation_spaces_match_dual_dims_mod_p(example):
    n, vectors = example
    a = QuadraticAlgebra.from_relation_vectors(Field(32003), n, vectors)
    dual_dims = graded_dims(koszul_dual(a), 5)
    assert [s.dim for s in relation_spaces(a, 5)] == dual_dims[1:]
