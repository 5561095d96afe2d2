"""Property tests of Cyc against an independent sympy model of Q(zeta_m).

sympy represents a value as a polynomial in x over QQ reduced mod its own
cyclotomic polynomial Phi_m(x): products, sums and differences are reduced
polynomial arithmetic, the inverse is the inverse mod Phi_m, and the
automorphism zeta -> zeta^k and the lift to a multiple conductor are
substitutions of x^k and x^(m2/m) followed by reduction (the former with
exponents taken mod m, as x^m = 1 mod Phi_m).  Every result must
also be in canonical form: a positive denominator coprime to the numerator.
"""

import re
from fractions import Fraction
from functools import lru_cache
from math import gcd

import pytest
from hypothesis import assume, given, settings, strategies as st
from sympy import Poly, QQ, Rational, cyclotomic_poly, invert, symbols

from oracles import hermitian_sum
from zerofiber.characters import ClassFunction, hermitian_dot
from zerofiber.cyclotomic import SLOT_BITS, Cyc, euler_phi

X = symbols("x")
CONDUCTORS = range(1, 31)
PER_CONDUCTOR = settings(max_examples=8)


@lru_cache(maxsize=None)
def phi_poly(m: int) -> Poly:
    return Poly(cyclotomic_poly(m, X), X, domain=QQ)


def to_sympy(c: Cyc) -> Poly:
    return Poly.from_list([Rational(a, c.den) for a in reversed(c.num)], X, domain=QQ)


def matches(c: Cyc, p: Poly) -> bool:
    """c equals p mod Phi_m, and c is in canonical form."""
    assert c.den > 0 and gcd(c.den, *c.num) == 1, f"{c!r} is not in lowest terms"
    return to_sympy(c) == p.rem(phi_poly(c.m))


def substitute_power(c: Cyc, k: int) -> Poly:
    """c(x^k), with exponents taken mod m since x^m = 1 mod Phi_m."""
    terms = {}
    for i, a in enumerate(c.num):
        e = (i * k) % c.m
        terms[e] = terms.get(e, 0) + Rational(a, c.den)
    return Poly(sum(v * X**e for e, v in terms.items()), X, domain=QQ)


def cycs(m: int):
    """Values of Q(zeta_m), dense or mostly zero, with small denominators."""
    coeff = st.one_of(st.integers(-30, 30), st.sampled_from([0, 0, 0, 1, -1]))
    return st.builds(
        lambda num, den: Cyc(m, tuple(num), den),
        st.lists(coeff, min_size=euler_phi(m), max_size=euler_phi(m)),
        st.integers(1, 12),
    )


def pair_of(m: int):
    return st.tuples(cycs(m), cycs(m))


@pytest.mark.parametrize("m", CONDUCTORS)
@PER_CONDUCTOR
@given(data=st.data())
def test_ring_operations(m, data):
    a, b = data.draw(pair_of(m))
    pa, pb = to_sympy(a), to_sympy(b)
    assert matches(a * b, pa * pb)
    assert matches(a + b, pa + pb)
    assert matches(a - b, pa - pb)
    assert matches(-a, -pa)


@pytest.mark.parametrize("m", CONDUCTORS)
@PER_CONDUCTOR
@given(data=st.data())
def test_inverse(m, data):
    a = data.draw(cycs(m))
    assume(not a.is_zero())
    inv = invert(to_sympy(a), phi_poly(m))
    assert matches(a.inverse(), Poly(inv, X, domain=QQ))


@pytest.mark.parametrize("m", CONDUCTORS)
@PER_CONDUCTOR
@given(data=st.data())
def test_galois_and_conj(m, data):
    a = data.draw(cycs(m))
    units = [k for k in range(1, m + 1) if gcd(k, m) == 1]
    k = data.draw(st.sampled_from(units))
    assert matches(a.galois(k), substitute_power(a, k))
    assert matches(a.conj(), substitute_power(a, m - 1))


@pytest.mark.parametrize("m", CONDUCTORS)
@PER_CONDUCTOR
@given(data=st.data())
def test_lift(m, data):
    a = data.draw(cycs(m))
    t = data.draw(st.sampled_from([t for t in range(1, 5) if m * t <= 60]))
    lifted = a.lift(m * t)
    assert lifted.m == m * t
    assert matches(lifted, to_sympy(a).compose(Poly(X**t, X, domain=QQ)))


@pytest.mark.parametrize("m", CONDUCTORS)
@PER_CONDUCTOR
@given(data=st.data())
def test_hermitian_sum(m, data):
    """sum_k w_k x_k conj(y_k) by the packed kernel, with each y_k from a
    divisor conductor of m: in sympy, conj(y) = y(x^(d-1)) at y's conductor
    d, lifted by x^(m/d).  Denominators up to 12 make each operand clear a
    common denominator, and negative weights give negative slots."""
    divisors = [d for d in range(1, m + 1) if m % d == 0]
    terms = data.draw(st.lists(
        st.tuples(st.integers(-5, 5), cycs(m), st.sampled_from(divisors).flatmap(cycs)),
        max_size=4))
    expected = Poly(0, X, domain=QQ)
    for w, x, y in terms:
        conj_y = substitute_power(y, y.m - 1).compose(Poly(X ** (m // y.m), X, domain=QQ))
        expected += w * to_sympy(x) * conj_y
    total = hermitian_dot([t[0] for t in terms], ClassFunction(tuple(t[1] for t in terms)),
                          ClassFunction(tuple(t[2] for t in terms)))
    assert total.m == (m if terms else 1)
    assert matches(total, expected)


HALF = 1 << (SLOT_BITS - 1)


@pytest.mark.parametrize("weights,x,y", [
    ([1], Cyc(1, (HALF - 1,)), Cyc.one(1)),              # the largest slot, positive
    ([-1], Cyc(1, (HALF - 1,)), Cyc.one(1)),             # and negative
    ([1], Cyc(4, (0, 1)), Cyc(4, (0, HALF - 1))),        # the middle slot of three
    ([-1], Cyc(4, (1, 0)), Cyc(4, (0, HALF - 1))),       # the lowest slot, z^-1
    ([3, 2], Cyc(6, (7, -5), 4), Cyc(3, (-2, 9), 3)),    # two conductors, two denominators
])
def test_hermitian_dot_below_the_slot_bound_is_exact(weights, x, y):
    """At sum |w| |x|_1 |y|_1 < 2^(B-1) every digit decodes exactly, up to
    the extreme slot values +-(2^(B-1) - 1)."""
    xs, ys = (x,) * len(weights), (y,) * len(weights)
    assert hermitian_dot(weights, ClassFunction(xs), ClassFunction(ys)) == hermitian_sum(
        weights, xs, ys)


def test_hermitian_dot_at_the_slot_bound_raises():
    """At sum |w| |x|_1 |y|_1 = 2^(B-1) a slot can hold 2^(B-1), which would
    decode as -2^(B-1): the kernel refuses and names both operands instead
    of wrapping."""
    a, b = ClassFunction((Cyc(1, (HALF,)),)), ClassFunction((Cyc.one(1),))
    with pytest.raises(ValueError, match=rf"^Hermitian sum of {re.escape(str(a))} and "
                                         rf"{re.escape(str(b))} .*{SLOT_BITS}-bit slots$"):
        hermitian_dot([1], a, b)


@pytest.mark.parametrize("m", CONDUCTORS)
@PER_CONDUCTOR
@given(data=st.data())
def test_equality_with_an_int_agrees_with_fraction_equality(m, data):
    """Cyc.__eq__ compares a rational operand by its numerator and
    denominator.  An int, a bool and the equal Fraction give the same answer
    as the sympy model, on integer, rational non-integer and irrational
    values, against the value's own rational part and against other
    rationals."""
    k0 = data.draw(st.integers(-30, 30))
    d0 = data.draw(st.integers(2, 12))
    value = data.draw(st.sampled_from([
        Cyc.rational(k0, m),
        Cyc.rational(Fraction(k0, d0), m),
        data.draw(cycs(m)),
        Cyc(m, data.draw(cycs(m)).num, 1),
    ]))
    for k in (k0, value.num[0], data.draw(st.integers(-30, 30)), 0, 1):
        expected = to_sympy(value) == Poly(k, X, domain=QQ)
        assert (value == k) is (value == Fraction(k)) is (k == value) is expected
        if k in (0, 1):
            assert (value == bool(k)) is expected
    for q in (Fraction(k0, d0), Fraction(value.num[0], value.den),
              Fraction(data.draw(st.integers(-30, 30)), data.draw(st.integers(1, 12)))):
        expected = to_sympy(value) == Poly(Rational(q.numerator, q.denominator), X, domain=QQ)
        assert (value == q) is (q == value) is expected


@pytest.mark.parametrize("m", [1, 16, 20, 24, 28, 30])
@PER_CONDUCTOR
@given(data=st.data())
def test_integral_products_and_scalars(m, data):
    """Products of integral values take the path that skips dividing by the
    gcd; integer and rational scalars scale the numerators directly."""
    a, b = data.draw(pair_of(m))
    a, b = Cyc(m, a.num, 1), Cyc(m, b.num, 1)
    assert (a * b).den == 1
    assert matches(a * b, to_sympy(a) * to_sympy(b))
    c = data.draw(st.integers(-40, 40))
    for v in (a, Cyc(m, a.num, 9)):
        assert matches(v * c, to_sympy(v) * c)
        assert matches(c * v, to_sympy(v) * c)
        assert matches(v * Fraction(c, 6), to_sympy(v) * Rational(c, 6))


@pytest.mark.parametrize("m", CONDUCTORS)
def test_zero_normalises_to_denominator_one(m):
    phi = euler_phi(m)
    z = Cyc(m, (0,) * phi, 7)
    assert z.den == 1 and z.is_zero() and z == Cyc.zero(m)
    a = Cyc(m, (3,) + (0,) * (phi - 1), 5)
    assert (a - a).den == 1
    assert (a * 0).den == 1


def test_constructor_divides_by_the_common_gcd():
    assert Cyc(4, (4, 6), 10).num == (2, 3) and Cyc(4, (4, 6), 10).den == 5
    assert Cyc(4, (4, 6), -2).num == (-2, -3) and Cyc(4, (4, 6), -2).den == 1
    with pytest.raises(ValueError):
        Cyc(4, (1, 2, 3), 1)
    with pytest.raises(ZeroDivisionError):
        Cyc(4, (1, 2), 0)
