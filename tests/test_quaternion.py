import random
from fractions import Fraction

from oracles import hermitian_form, quat_from_matrix, quaternion_basis
from zerofiber.cyclotomic import Cyc
from zerofiber.quaternion import Quaternion

M = 4


def q_basis():
    return {n: quaternion_basis(n, M) for n in "1ijk"}


def test_basis_relations():
    b = q_basis()
    one, i, j, k = b["1"], b["i"], b["j"], b["k"]
    minus_one = -one
    assert i * i == minus_one
    assert j * j == minus_one
    assert k * k == minus_one
    assert i * j == k
    assert j * k == i
    assert k * i == j
    assert i * j * k == minus_one
    assert j * i == -k


def test_conj_and_norm():
    j = quaternion_basis("j", M)
    q = Quaternion.one(M) + j * 2
    assert q.conj() == Quaternion.one(M) - j * 2
    assert q.norm().as_rational() == 5


def test_norm_multiplicative():
    i, j = quaternion_basis("i", M), quaternion_basis("j", M)
    q1 = Quaternion.one(M) + i
    q2 = j
    norms = [q.norm().as_rational() for q in (q1 * q2, q1, q2)]
    assert norms[0] == norms[1] * norms[2] == 2


def test_conj_antiautomorphism_randomized():
    rng = random.Random(7)

    def rand_quat():
        return Quaternion(
            Cyc(M, (rng.randint(-4, 4), rng.randint(-4, 4)), rng.randint(1, 3)),
            Cyc(M, (rng.randint(-4, 4), rng.randint(-4, 4)), rng.randint(1, 3)),
        )

    for _ in range(100):
        a, b = rand_quat(), rand_quat()
        assert (a * b).conj() == b.conj() * a.conj()
        assert a.conj().conj() == a
        assert a.norm().as_rational() >= 0
        if not a.is_zero():
            assert a * a.inverse() == Quaternion.one(M)


def test_hermitian_form_basics():
    one, zero = Quaternion.one(M), Quaternion.zero(M)
    e1 = (one, zero)
    e2 = (zero, one)
    assert hermitian_form(e1, e1) == one
    assert hermitian_form(e1, e2) == zero
    i, j, k = (quaternion_basis(n, M) for n in "ijk")
    x = (j, zero)
    y = (i, zero)
    # conj(j) * i = -j*i = k
    assert hermitian_form(x, y) == k


def test_hermitian_symmetry_randomized():
    rng = random.Random(11)

    def rand_vec(n):
        return tuple(
            Quaternion(
                Cyc(M, (rng.randint(-3, 3), rng.randint(-3, 3)), 1),
                Cyc(M, (rng.randint(-3, 3), rng.randint(-3, 3)), 1),
            )
            for _ in range(n)
        )

    for _ in range(100):
        x, y = rand_vec(3), rand_vec(3)
        assert hermitian_form(y, x) == hermitian_form(x, y).conj()
        xx = hermitian_form(x, x)
        assert xx.z2.is_zero() and xx.z1.is_rational() and xx.z1.as_rational() >= 0


def test_split_form():
    one, zero = Quaternion.one(M), Quaternion.zero(M)
    j = quaternion_basis("j", M)
    e1 = (one, zero)
    q = hermitian_form(e1, e1)
    assert q.z1 == 1 and q.z2 == 0
    x, y = (one, zero), (j, zero)
    q = hermitian_form(x, y)
    assert q.z1 == 0 and q.z2 == 1
    # antisymmetry of the symplectic part
    assert hermitian_form(y, x).z2 == -1


def test_split_form_reassembles_and_paper_identity():
    rng = random.Random(13)

    def rand_vec(n):
        return tuple(
            Quaternion(
                Cyc(M, (rng.randint(-3, 3), rng.randint(-3, 3)), rng.randint(1, 2)),
                Cyc(M, (rng.randint(-3, 3), rng.randint(-3, 3)), rng.randint(1, 2)),
            )
            for _ in range(n)
        )

    j = quaternion_basis("j", M)
    for _ in range(100):
        x, y = rand_vec(2), rand_vec(2)
        # (x, y) = <x,y>' + j <x,y>, and <x,y>' = conj(<x, y*j>)
        yj = tuple(v * j for v in y)
        assert hermitian_form(x, y).z1 == hermitian_form(x, yj).z2.conj()


def test_quat_from_matrix():
    i = Cyc.zeta(4)
    w2 = (Cyc.zero(4), i, i, Cyc.zero(4))  # [[0, i], [i, 0]]
    q = quat_from_matrix(w2)
    assert q == -quaternion_basis("k", 4)


def test_symplectic_part_bilinear_alternating():
    rng = random.Random(17)

    def rand_vec(n):
        return tuple(
            Quaternion(Cyc(M, (rng.randint(-3, 3), rng.randint(-3, 3)), 1),
                       Cyc(M, (rng.randint(-3, 3), rng.randint(-3, 3)), 1))
            for _ in range(n)
        )

    for _ in range(60):
        x, y, z = rand_vec(2), rand_vec(2), rand_vec(2)
        sxy = hermitian_form(x, y).z2
        syx = hermitian_form(y, x).z2
        assert sxy == -syx
        assert hermitian_form(x, x).z2 == Cyc.zero(M)
        # additivity in each slot
        xz = tuple(a + b for a, b in zip(x, z))
        assert hermitian_form(xz, y).z2 == sxy + hermitian_form(z, y).z2


def test_inverse_with_non_rational_norm():
    m = 8
    q = Quaternion(Cyc.one(m) - Cyc.zeta(m), Cyc.zeta(m, 3))
    n = (q.conj() * q).z1  # 2 - sqrt 2 + 1: real, not rational
    assert not n.is_rational() and n.conj() == n
    qi = q.inverse()
    assert q * qi == Quaternion.one(m)
    assert qi * q == Quaternion.one(m)
