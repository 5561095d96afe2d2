import random

import pytest

from zerofiber.cyclotomic import Cyc, euler_phi
from oracles import identity, kernel_basis, mat_mul, quat_matrix_embed, quaternion_basis, rref
from zerofiber.linalg import CycMatrix, quat_row_key, quat_rref_key, rank
from zerofiber.quaternion import Quaternion


# -- oracles: the earlier implementations, kept as references -----------------

def subspace_intersection(a_rows: CycMatrix, b_rows: CycMatrix) -> list[tuple[Cyc, ...]]:
    """Intersection of two subspaces given by spanning row vectors.

    Computed via stacked kernels: x in span(A) & span(B) iff
    x = A^T u = B^T v, i.e. (u, v) in ker[A^T | -B^T].
    """
    if not a_rows or not b_rows:
        return []
    ncols = len(a_rows[0])
    stacked = tuple(
        tuple(a_rows[r][c] for r in range(len(a_rows)))
        + tuple(-b_rows[r][c] for r in range(len(b_rows)))
        for c in range(ncols)
    )
    combos = kernel_basis(stacked)
    na = len(a_rows)
    vecs = []
    for combo in combos:
        vec = [Cyc.zero(a_rows[0][0].m) for _ in range(ncols)]
        for r in range(na):
            if not combo[r].is_zero():
                for c in range(ncols):
                    vec[c] = vec[c] + combo[r] * a_rows[r][c]
        vecs.append(tuple(vec))
    # independent spanning set for the intersection
    if not vecs:
        return []
    red, pivots = rref(tuple(vecs))
    return [red[i] for i in range(len(pivots))]


def column_rref(qmat) -> list[list[Quaternion]]:
    """The nonzero rows of the reduced row echelon form of a quaternionic
    matrix, by column-by-column Gauss-Jordan elimination in the division
    ring, with left multiples of rows."""
    rows = [list(r) for r in qmat]
    nrows = len(rows)
    ncols = len(rows[0]) if nrows else 0
    r = 0
    for c in range(ncols):
        pivot = next((i for i in range(r, nrows) if not rows[i][c].is_zero()), None)
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        inv = rows[r][c].inverse()
        rows[r] = [inv * v for v in rows[r]]
        for i in range(nrows):
            if i != r and not rows[i][c].is_zero():
                f = rows[i][c]
                rows[i] = [vi - f * vr for vi, vr in zip(rows[i], rows[r])]
        r += 1
        if r == nrows:
            break
    return rows[:r]


def quat_rank_direct(qmat) -> int:
    """Row rank by Gaussian elimination in the division ring."""
    return len(column_rref(qmat))


def column_rref_key(rows) -> tuple:
    """quat_rref_key as a column-by-column pass over every row."""
    return tuple(sorted(quat_row_key(row) for row in column_rref(rows)))


def rand_cyc(rng: random.Random, m: int, spread: int = 3, den: int = 1) -> Cyc:
    return Cyc(m, tuple(rng.randint(-spread, spread) for _ in range(euler_phi(m))),
               rng.randint(1, den))


def rand_quat(rng: random.Random, m: int, zero_share: float = 0.0) -> Quaternion:
    if rng.random() < zero_share:
        return Quaternion.zero(m)
    return Quaternion(rand_cyc(rng, m, 2), rand_cyc(rng, m, 2))


def test_identity_full_rank():
    m = identity(4)
    assert rank(m) == 4
    assert kernel_basis(m) == []


def test_zero_matrix():
    z = Cyc.zero(1)
    m = tuple(tuple(z for _ in range(3)) for _ in range(3))
    assert rank(m) == 0
    assert len(kernel_basis(m)) == 3


def test_g_minus_one_for_order_three_diagonal():
    # g = diag(zeta_3, zeta_3^-1): g - 1 has rank 2, trivial kernel
    z = Cyc.zeta(3)
    zero, one = Cyc.zero(3), Cyc.one(3)
    g = ((z - one, zero), (zero, z.inverse() - one))
    assert rank(g) == 2
    assert kernel_basis(g) == []


def test_kernel_vectors_verified_by_multiplication():
    one = Cyc.one(1)
    two = Cyc.rational(2)
    m = ((one, two, one), (one, two, one))
    kb = kernel_basis(m)
    assert len(kb) == 2
    for v in kb:
        col = tuple((x,) for x in v)
        out = mat_mul(m, col)
        assert all(e.is_zero() for row in out for e in row)


def test_rank_nullity():
    rng = random.Random(3)
    for _ in range(50):
        rowsn = rng.randint(1, 4)
        colsn = rng.randint(1, 4)
        m = tuple(
            tuple(Cyc(4, (rng.randint(-2, 2), rng.randint(-2, 2)), 1) for _ in range(colsn))
            for _ in range(rowsn)
        )
        assert rank(m) + len(kernel_basis(m)) == colsn


def test_subspace_intersection():
    one, zero = Cyc.one(1), Cyc.zero(1)
    # span{e1, e2} and span{e2, e3} in Q^3 intersect in span{e2}
    a = ((one, zero, zero), (zero, one, zero))
    b = ((zero, one, zero), (zero, zero, one))
    inter = subspace_intersection(a, b)
    assert len(inter) == 1
    assert inter[0] == (zero, one, zero)


def test_quat_embedding_is_homomorphism():
    rng = random.Random(5)

    def rand_qmat(n):
        return tuple(
            tuple(
                Quaternion(
                    Cyc(4, (rng.randint(-2, 2), rng.randint(-2, 2)), 1),
                    Cyc(4, (rng.randint(-2, 2), rng.randint(-2, 2)), 1),
                )
                for _ in range(n)
            )
            for _ in range(n)
        )

    def qmat_mul(a, b):
        n = len(a)
        return tuple(
            tuple(
                sum((a[i][t] * b[t][j] for t in range(1, n)), a[i][0] * b[0][j])
                for j in range(n)
            )
            for i in range(n)
        )

    for _ in range(40):
        a, b = rand_qmat(2), rand_qmat(2)
        lhs = quat_matrix_embed(qmat_mul(a, b))
        rhs = mat_mul(quat_matrix_embed(a), quat_matrix_embed(b))
        assert lhs == rhs


def test_quat_rank_matches_direct_elimination():
    rng = random.Random(9)
    for _ in range(60):
        n = rng.randint(1, 3)
        qm = tuple(
            tuple(
                Quaternion(
                    Cyc(4, (rng.randint(-2, 2), rng.randint(-2, 2)), 1),
                    Cyc(4, (rng.randint(-2, 2), rng.randint(-2, 2)), 1),
                )
                for _ in range(n)
            )
            for _ in range(n)
        )
        assert rank(quat_matrix_embed(qm)) == 2 * quat_rank_direct(qm)


def test_quat_rref_key_detects_equal_row_spaces():
    one4 = Quaternion.one(4)
    i = quaternion_basis("i", 4)
    zero = Quaternion.zero(4)
    rows1 = ((one4, i), (zero, zero))
    rows2 = ((i, i * i),)  # i * (1, i)
    assert quat_rref_key(rows1) == quat_rref_key(rows2)
    rows3 = ((one4, zero),)
    assert quat_rref_key(rows1) != quat_rref_key(rows3)


def test_rref_shape():
    one = Cyc.one(1)
    two = Cyc.rational(2)
    m = ((two, two), (one, one))
    red, pivots = rref(m)
    assert pivots == [0]
    assert red[0] == (one, one)


def random_matrix(rng: random.Random, m: int, nrows: int, ncols: int, rank_at_most: int,
                  den: int = 1) -> CycMatrix:
    """Rows drawn as random combinations of rank_at_most random rows, so the
    rank is at most rank_at_most (and equal to it in the generic case)."""
    gens = [[rand_cyc(rng, m, 3, den) for _ in range(ncols)] for _ in range(rank_at_most)]
    zero = Cyc.zero(m)
    rows = []
    for _ in range(nrows):
        coefs = [rand_cyc(rng, m, 2, den) if rng.random() < 0.7 else zero for _ in gens]
        row = [zero] * ncols
        for a, g in zip(coefs, gens):
            row = [x + a * y for x, y in zip(row, g)]
        rows.append(tuple(row))
    return tuple(rows)


@pytest.mark.parametrize("m", [1, 3, 4, 5, 8, 12])
def test_division_free_rank_matches_rref(m, monkeypatch):
    rng = random.Random(100 + m)
    cases = []
    for _ in range(25):
        nrows, ncols = rng.randint(1, 5), rng.randint(1, 5)
        full = min(nrows, ncols)
        cases.append(random_matrix(rng, m, nrows, ncols, full, den=rng.choice((1, 3))))
        cases.append(random_matrix(rng, m, nrows, ncols, rng.randint(0, max(full - 1, 0))))
    expected = [len(rref(mat)[1]) for mat in cases]
    assert any(e == min(len(c), len(c[0])) for e, c in zip(expected, cases))
    assert any(e < min(len(c), len(c[0])) for e, c in zip(expected, cases))

    def no_inverse(self):
        raise AssertionError("rank took a Cyc inverse")

    monkeypatch.setattr(Cyc, "inverse", no_inverse)
    assert [rank(mat) for mat in cases] == expected


def test_quat_rref_key_matches_column_oracle_on_random_rows():
    rng = random.Random(29)
    for m in (4, 8, 12):
        for _ in range(60):
            ncols = rng.randint(1, 4)
            gens = [[rand_quat(rng, m, 0.3) for _ in range(ncols)]
                    for _ in range(rng.randint(1, ncols))]
            rows = []
            for _ in range(rng.randint(1, 6)):
                row = [Quaternion.zero(m)] * ncols
                for g in gens:
                    f = rand_quat(rng, m, 0.4)
                    row = [x + f * y for x, y in zip(row, g)]
                rows.append(tuple(row))
            rows = tuple(rows)
            key = quat_rref_key(rows)
            assert key == column_rref_key(rows)
            assert 2 * len(key) == 2 * quat_rank_direct(rows) == rank(quat_matrix_embed(rows))
