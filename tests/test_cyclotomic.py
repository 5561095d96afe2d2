import random
from fractions import Fraction

import pytest

from zerofiber.cyclotomic import (
    Cyc,
    ConductorError,
    cyclotomic_polynomial,
    euler_phi,
    sqrt5,
)


def test_euler_phi():
    assert [euler_phi(m) for m in range(1, 13)] == [1, 1, 2, 2, 4, 2, 6, 4, 6, 4, 10, 4]
    assert euler_phi(120) == 32


def test_cyclotomic_polynomials():
    assert cyclotomic_polynomial(1) == (-1, 1)
    assert cyclotomic_polynomial(2) == (1, 1)
    assert cyclotomic_polynomial(3) == (1, 1, 1)
    assert cyclotomic_polynomial(4) == (1, 0, 1)
    assert cyclotomic_polynomial(6) == (1, -1, 1)
    assert cyclotomic_polynomial(12) == (1, 0, -1, 0, 1)


def test_i_squared_is_minus_one():
    i = Cyc.zeta(4)
    assert i * i == -1


def test_root_sum_vanishes():
    z = Cyc.zeta(5)
    assert 1 + z + z**2 + z**3 + z**4 == 0


def test_inverse_of_one_minus_zeta3():
    # (1 - zeta_3)^(-1) = (2 + zeta_3)/3, frozen from multiplying out mod Phi_3:
    # (1 - z)(2 + z) = 2 - z - z^2 = 2 - (-1) = 3.
    z = Cyc.zeta(3)
    inv = (Cyc.one(3) - z).inverse()
    assert inv == (2 + z) / 3
    assert inv * (1 - z) == 1


def test_lift_conductor():
    assert Cyc.zeta(2).lift(4) == Cyc.zeta(4) ** 2
    assert Cyc.rational(7, 3).lift(12) == 7
    z3_up = Cyc.zeta(3).lift(12)
    assert z3_up == Cyc.zeta(12) ** 4
    # minimal polynomial x^2 + x + 1 still vanishes after the lift
    assert z3_up * z3_up + z3_up + 1 == 0


def test_lift_requires_divisibility():
    with pytest.raises(ConductorError):
        Cyc.zeta(4).lift(6)


def test_division_by_zero():
    with pytest.raises(ZeroDivisionError):
        Cyc.one(3) / Cyc.zero(3)


def test_mixed_conductor_promotion():
    assert Cyc.zeta(3) * Cyc.zeta(4) == Cyc.zeta(12) ** 7


def test_conjugation_is_involution_and_fixes_rationals():
    z = Cyc.zeta(7)
    v = 2 * z + 3 * z**2 - z**5
    assert v.conj().conj() == v
    assert Cyc.rational(Fraction(-3, 7), 5).conj() == Fraction(-3, 7)
    # z * conj(z) = 1 for roots of unity
    assert z * z.conj() == 1


def test_named_constants():
    assert sqrt5() ** 2 == 5


def test_rational_recognition_round_trip():
    v = Cyc.rational(Fraction(22, 7), 12)
    assert v.is_rational() and v.as_rational() == Fraction(22, 7)
    w = Cyc.zeta(8) + Cyc.zeta(8, 7)  # sqrt 2, not rational
    assert not w.is_rational()
    assert w * w == 2


def test_field_axioms_randomized():
    rng = random.Random(20240917)
    conductors = [1, 2, 3, 4, 5, 6, 8, 12]

    def rand_cyc(m):
        phi = euler_phi(m)
        num = tuple(rng.randint(-6, 6) for _ in range(phi))
        return Cyc(m, num, rng.randint(1, 5))

    for _ in range(120):
        m = rng.choice(conductors)
        a, b, c = rand_cyc(m), rand_cyc(m), rand_cyc(m)
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert a + b == b + a
        assert a * b == b * a
        if not a.is_zero():
            assert a * a.inverse() == 1
        # conjugation is a ring homomorphism
        assert (a * b).conj() == a.conj() * b.conj()
        assert (a + b).conj() == a.conj() + b.conj()


def test_powers():
    z = Cyc.zeta(12)
    assert z**12 == 1
    assert z**-1 == z**11
    assert (2 * z) ** 3 == 8 * z**3


def test_str_form():
    z = Cyc.zeta(8)
    assert str(Cyc.rational(Fraction(1, 2), 8) + 3 * z**2) == "1/2+3*z^2"
