import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from tannakit.exactlin import (
    Field,
    MatrixExact,
    QQ,
    Subspace,
    intersect,
    is_prime,
    kernel,
    kron,
    rank,
    right_inverse,
    rref,
)

from oracles import naive_rank


def mat(rows, field=QQ):
    return MatrixExact(field, len(rows), len(rows[0]), rows)


def test_rref_simple():
    m = mat([[2, 4], [1, 2]])
    r, pivots, rk = rref(m)
    assert rk == 1 and pivots == [0]
    assert r.entries[0] == [QQ.of(1), QQ.of(2)]


def test_rank_matches_naive_oracle_random():
    rng = random.Random(7)
    for _ in range(30):
        rows = rng.randrange(1, 5)
        cols = rng.randrange(1, 5)
        entries = [
            [Fraction(rng.randrange(-3, 4), rng.randrange(1, 3)) for _ in range(cols)]
            for _ in range(rows)
        ]
        assert rank(mat(entries)) == naive_rank(entries)


def test_kernel_annihilates():
    m = mat([[1, 2, 3], [0, 1, 1]])
    k = kernel(m)
    assert k.dim == 1
    v = k.basis.entries[0]
    for row in m.entries:
        assert sum(a * b for a, b in zip(row, v)) == 0


def test_kron_index_convention():
    a = mat([[1, 2]])
    b = mat([[3], [5]])
    k = kron(a, b)
    # (i, j) -> i * rows(b) + j on rows, same on columns
    assert k.rows == 2 and k.cols == 2
    assert k.entries[0][0] == 3 and k.entries[0][1] == 6
    assert k.entries[1][0] == 5 and k.entries[1][1] == 10


def test_right_inverse():
    m = mat([[1, 2, 0], [0, 1, 1]])
    x = right_inverse(m)
    assert m * x == MatrixExact.identity(QQ, 2)


def test_right_inverse_rejects_rank_deficient():
    import pytest

    with pytest.raises(ValueError):
        right_inverse(mat([[1, 2], [2, 4]]))


def test_subspace_equality_is_span_equality():
    u = Subspace.from_rows(QQ, 3, [[1, 0, 1], [0, 1, 0]])
    v = Subspace.from_rows(QQ, 3, [[1, 1, 1], [2, 1, 2]])
    assert u == v
    assert u.contains([3, -1, 3])
    assert not u.contains([0, 0, 1])


def test_intersection_via_annihilators():
    u = Subspace.from_rows(QQ, 3, [[1, 0, 0], [0, 1, 0]])
    v = Subspace.from_rows(QQ, 3, [[0, 1, 0], [0, 0, 1]])
    w = intersect(u, v)
    assert w.dim == 1
    assert w.contains([0, 1, 0])


def test_annihilator_dims():
    u = Subspace.from_rows(QQ, 4, [[1, 1, 0, 0]])
    assert u.annihilator().dim == 3


def test_coordinates_roundtrip():
    u = Subspace.from_rows(QQ, 3, [[1, 0, 2], [0, 1, 1]])
    coords = u.coordinates([2, 3, 7])
    assert coords is not None
    recon = [QQ.zero()] * 3
    for c, row in zip(coords, u.basis.entries):
        recon = [r + c * x for r, x in zip(recon, row)]
    assert recon == [QQ.of(2), QQ.of(3), QQ.of(7)]
    assert u.coordinates([0, 0, 1]) is None


def test_prime_field_arithmetic():
    f5 = Field(5)
    m = MatrixExact(f5, 2, 2, [[1, 2], [3, 4]])
    assert rank(m) == 2
    inv = right_inverse(m)
    assert m * inv == MatrixExact.identity(f5, 2)
    assert f5.of("1/2") == f5.of(3)


def test_is_prime_matches_trial_division():
    def trial(n):
        return n > 1 and all(n % k for k in range(2, int(n**0.5) + 1))

    assert [n for n in range(3000) if is_prime(n)] == [
        n for n in range(3000) if trial(n)
    ]
    # strong pseudoprimes to the first 4 and the first 9 prime bases, and
    # primes near 2^61 and 2^64
    assert not is_prime(3215031751)
    assert not is_prime(3825123056546413051)
    assert is_prime(2**61 - 1) and is_prime(2**64 - 59)


# 2^89 - 1 is prime but beyond the range the test decides
@pytest.mark.parametrize("p", [0, 1, 4, 9, 561, 32003 * 32003, 2**89 - 1])
def test_field_rejects_non_prime_modulus(p):
    with pytest.raises(ValueError):
        Field(p)


def test_field_serialization():
    assert QQ.to_str(QQ.of("-3/7")) == "-3/7"
    assert Field(7).to_str(Field(7).of(9)) == "2"


small_mats = st.lists(
    st.lists(st.integers(-4, 4), min_size=2, max_size=2), min_size=2, max_size=2
)


@settings(max_examples=40, deadline=None)
@given(small_mats, small_mats)
def test_kron_rank_multiplicative(a_rows, b_rows):
    a, b = mat(a_rows), mat(b_rows)
    assert rank(kron(a, b)) == rank(a) * rank(b)


@settings(max_examples=40, deadline=None)
@given(small_mats)
def test_rref_idempotent(rows):
    m = mat(rows)
    r1, _, _ = rref(m)
    r2, _, _ = rref(r1)
    assert r1 == r2
