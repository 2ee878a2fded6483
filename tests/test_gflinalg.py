import random
from itertools import product

import pytest

from plclab.ffield import PrimeField
from plclab.protocol_core import Dataset
from plclab.gflinalg import (
    MatrixGF,
    VectorGF,
    nullspace_basis,
    rank,
    row_space_members,
    row_space_vector_with_support,
    support,
    vec_mat,
)

F3 = PrimeField(3)
F5 = PrimeField(5)


def test_vector_basics():
    v = VectorGF([1, 0, 2], F3)
    w = VectorGF([2, 2, 2], F3)
    assert v.scale(2).entries == (2, 0, 1)
    assert v == (1, 0, 2)
    assert support(v) == (1, 3)


def test_of_reduced_equals_checked_construction():
    v = VectorGF.of_reduced([1, 0, 2], F3)
    assert v == VectorGF([1, 0, 2], F3)
    assert hash(v) == hash(VectorGF([4, 3, -1], F3))
    assert type(v.entries) is tuple
    with pytest.raises(AttributeError):
        v.entries = (0, 0, 0)


def test_matrix_of_reduced_equals_checked_construction():
    m = MatrixGF.of_reduced([[1, 0, 2], [2, 2, 0]], F3)
    assert m == MatrixGF([[4, 3, -1], [2, 2, 0]], F3)
    assert hash(m) == hash(MatrixGF([[1, 0, 2], [2, 2, 0]], F3))
    assert (m.nrows, m.ncols, type(m.rows[0])) == (2, 3, tuple)
    assert (MatrixGF.of_reduced([], F3).nrows, MatrixGF.of_reduced([], F3).ncols) == (0, 0)
    with pytest.raises(AttributeError):
        m.rows = ()


def test_matrix_row_column_one_based():
    m = MatrixGF([[1, 2], [0, 1], [2, 2]], F3)
    assert m.row(1).entries == (1, 2)
    assert m.row(3).entries == (2, 2)
    assert m.transpose().rows == ((1, 0, 2), (2, 1, 2))


@pytest.mark.parametrize("i", [0, -1, 4])
def test_matrix_row_rejects_index_outside_one_to_nrows(i):
    m = MatrixGF([[1, 2], [0, 1], [2, 2]], F3)
    with pytest.raises(IndexError):
        m.row(i)
    with pytest.raises(IndexError):
        Dataset(m).stream(i)


def test_mat_vec_and_vec_mat():
    a = MatrixGF([[1, 2, 0], [0, 1, 1]], F3)
    u = VectorGF([2, 1], F3)
    assert vec_mat(u, a).entries == (2, (4 + 1) % 3, 1)


def test_rank_by_enumeration():
    """Rank equals the size of the span, counted by brute force."""
    rng = random.Random(9)
    for _ in range(30):
        rows = [[rng.randrange(3) for _ in range(3)] for _ in range(3)]
        m = MatrixGF(rows, F3)
        span = set()
        for coeffs in product(range(3), repeat=3):
            v = tuple(
                sum(coeffs[i] * rows[i][j] for i in range(3)) % 3 for j in range(3)
            )
            span.add(v)
        assert 3 ** rank(m) == len(span)


def test_nullspace_vectors_annihilate():
    rng = random.Random(5)
    for _ in range(25):
        m = MatrixGF([[rng.randrange(5) for _ in range(4)] for _ in range(2)], F5)
        basis = nullspace_basis(m)
        assert len(basis) == 4 - rank(m)
        for v in basis:
            for i in (1, 2):
                assert sum(a * b for a, b in zip(m.row(i), v)) % 5 == 0


def _oracle_support_search(g, target_support):
    """Reference implementation: scan every row-space member."""
    hits = []
    for v in row_space_members(g):
        if support(v) == target_support:
            lead = v.entries[target_support[0] - 1]
            scaled = v.scale(g.field.inv(lead))
            hits.append(scaled.entries)
    return min(hits) if hits else None


@pytest.mark.parametrize("q,j,k", [(2, 2, 4), (3, 2, 4), (3, 3, 5), (5, 2, 3)])
def test_support_vector_matches_oracle(q, j, k):
    field = PrimeField(q)
    rng = random.Random(q * 100 + j * 10 + k)
    tried = 0
    while tried < 25:
        rows = [[rng.randrange(q) for _ in range(k)] for _ in range(j)]
        g = MatrixGF(rows, field)
        if rank(g) != j:
            continue
        tried += 1
        for d in range(1, k + 1):
            for s in _all_supports(k, d):
                got = row_space_vector_with_support(g, s)
                expect = _oracle_support_search(g, s)
                if expect is None:
                    assert got is None
                else:
                    assert got is not None
                    u, c = got
                    assert u.entries == expect
                    assert vec_mat(c, g).entries == u.entries


def _all_supports(k, d):
    from itertools import combinations

    return combinations(range(1, k + 1), d)


def test_entries_accept_ints_and_own_field_elements_only():
    assert VectorGF([4, -1, 3], F5).entries == (4, 4, 3)
    assert MatrixGF([[7, 2]], F3).rows == ((1, 2),)
    with pytest.raises(TypeError):
        VectorGF([True, 1], F3)
    with pytest.raises(TypeError):
        MatrixGF([[1, 2.0]], F3)
