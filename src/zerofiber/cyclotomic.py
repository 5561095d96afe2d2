"""Exact arithmetic in cyclotomic fields Q(zeta_m).

A value is stored as an integer coefficient vector of length phi(m) over the
power basis 1, z, ..., z^(phi(m)-1) of Q(zeta_m), z = exp(2*pi*i/m), together
with a positive common denominator.  Reduction modulo the m-th cyclotomic
polynomial is canonical, so equality is componentwise.  No floating point.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm

# Largest conductor a computation context may request.  Promotions past this
# raise: it signals runaway lcm growth, not a legitimate computation.
CONDUCTOR_CAP = 10_000


class ConductorError(ValueError):
    pass


@lru_cache(maxsize=None)
def euler_phi(m: int) -> int:
    if m < 1:
        raise ValueError(f"conductor must be positive, got {m}")
    result, n, p = 1, m, 2
    while p * p <= n:
        if n % p == 0:
            k = 0
            while n % p == 0:
                n //= p
                k += 1
            result *= (p - 1) * p ** (k - 1)
        p += 1
    if n > 1:
        result *= n - 1
    return result


def _poly_divmod_int(num: list[int], den: list[int]) -> tuple[list[int], list[int]]:
    """Exact division of integer polynomials; den must be monic."""
    num = list(num)
    q = [0] * max(len(num) - len(den) + 1, 0)
    for i in range(len(num) - len(den), -1, -1):
        c = num[i + len(den) - 1]
        if c:
            q[i] = c
            for j, dj in enumerate(den):
                num[i + j] -= c * dj
    while num and num[-1] == 0:
        num.pop()
    return q, num


@lru_cache(maxsize=None)
def cyclotomic_polynomial(m: int) -> tuple[int, ...]:
    """Coefficients of Phi_m, low to high, monic of degree phi(m)."""
    poly = [-1] + [0] * (m - 1) + [1]  # x^m - 1
    for d in range(1, m):
        if m % d == 0:
            poly, rem = _poly_divmod_int(poly, list(cyclotomic_polynomial(d)))
            assert not rem
    return tuple(poly)


@lru_cache(maxsize=None)
def _power_rows(m: int) -> tuple[tuple[tuple[int, int], ...], ...]:
    """z^k reduced mod Phi_m as sparse rows of nonzero (t, c), for k = 0..2m-2.

    The one table behind the reduction in products, Galois images and lifts.
    """
    phi = euler_phi(m)
    mono = list(cyclotomic_polynomial(m))[:-1]
    rows: list[tuple[tuple[int, int], ...]] = []
    cur = [0] * phi
    cur[0] = 1
    for _ in range(2 * m - 1):
        rows.append(tuple((t, c) for t, c in enumerate(cur) if c))
        # multiply by z
        carry = cur[phi - 1]
        nxt = [0] + cur[: phi - 1]
        if carry:
            for t in range(phi):
                nxt[t] -= carry * mono[t]
        cur = nxt
    return tuple(rows)


# B, the slot width of the Kronecker substitution x = 2^B in
# ``kronecker_pack``: a packed Hermitian sum is exact while every digit
# stays below 2^(B-1) in absolute value.
SLOT_BITS = 64


def kronecker_pack(values, m: int) -> tuple[list[int], list[int], int, int]:
    """The packed forms of values lifted to Q(zeta_m): (left, right, den, norm).

    den is the lcm of the denominators, and A_k(z) = den * values[k] has
    integer coefficients a_0..a_(phi-1).  left[k] = A_k(2^B), and
    right[k] = sum_j a_j 2^(B (phi - 1 - j)) is A_k with its coefficients
    reversed, so that left[k] * right[k'] has at slot i - j + phi - 1 the
    coefficient of z^(i - j) in A_k(z) conj(A_k'(z)).  norm is the largest
    l1 norm sum_i |a_i| over the values, the bound ``kronecker_unpack``
    needs on the slots.
    """
    values = [v.lift(m) for v in values]
    den = lcm(*(v.den for v in values))
    left, right, norm = [], [], 0
    for v in values:
        scale = den // v.den
        a = b = 0
        for c in reversed(v.num):
            a = (a << SLOT_BITS) + c
        for c in v.num:
            b = (b << SLOT_BITS) + c
        left.append(a * scale)
        right.append(b * scale)
        norm = max(norm, scale * sum(map(abs, v.num)))
    return left, right, den, norm


def kronecker_unpack(total: int, m: int, den: int) -> "Cyc":
    """sum_t s_t z^(t - phi + 1) / den in Q(zeta_m), from the 2 phi - 1 signed
    base-2^B digits of total = sum_t s_t 2^(B t), each |s_t| < 2^(B-1).

    Digit t is ((total + 2^(B-1)) mod 2^B) - 2^(B-1), and total then drops
    it and shifts down one slot.  Each z^e, e = t - phi + 1 in
    (-phi, phi), is folded in as the row of z^(e mod m) in ``_power_rows``.
    """
    phi = euler_phi(m)
    rows = _power_rows(m)
    half, mask = 1 << (SLOT_BITS - 1), (1 << SLOT_BITS) - 1
    out = [0] * phi
    for e in range(1 - phi, phi):  # digit t holds the coefficient of z^e, e = t - phi + 1
        digit = ((total + half) & mask) - half
        total = (total - digit) >> SLOT_BITS
        if digit:
            for i, c in rows[e % m]:
                out[i] += digit * c
    return _reduced(m, out, den)


@lru_cache(maxsize=None)
def _units(m: int) -> tuple[int, ...]:
    """The k in 2..m-1 with gcd(k, m) = 1: the non-identity automorphisms."""
    return tuple(k for k in range(2, m) if gcd(k, m) == 1)


def _make(m: int, num: tuple[int, ...], den: int) -> "Cyc":
    """A Cyc from parts already in canonical form (gcd(den, *num) = 1, den > 0)."""
    c = object.__new__(Cyc)
    c.m = m
    c.num = num
    c.den = den
    return c


def _reduced(m: int, num: list[int], den: int) -> "Cyc":
    """A Cyc from integer parts with den > 0, divided by their common gcd.

    gcd(den, 0, ..., 0) = den, so zero comes out as 0/1.  With den = 1 (for
    instance a product of two integral values) there is nothing to divide.
    """
    if den != 1:
        g = gcd(den, *num)
        if g != 1:
            return _make(m, tuple([a // g for a in num]), den // g)
    return _make(m, tuple(num), den)


class Cyc:
    """An element of Q(zeta_m), canonically reduced mod Phi_m.

    Immutable and hashable.  Mixed-conductor arithmetic promotes both
    operands to the lcm conductor.  Note: hashing is consistent across
    conductors only for rational values; keep one conductor per container.
    """

    __slots__ = ("m", "num", "den")

    def __init__(self, m: int, num: tuple[int, ...], den: int = 1):
        phi = euler_phi(m)
        if len(num) != phi:
            raise ValueError(f"coefficient vector has length {len(num)}, expected phi({m})={phi}")
        if den == 0:
            raise ZeroDivisionError("Cyc with denominator 0")
        if den < 0:
            den, num = -den, [-a for a in num]
        g = gcd(den, *num)
        self.m = m
        self.num = tuple(a // g for a in num)
        self.den = den // g

    # -- constructors ------------------------------------------------------

    @staticmethod
    def zero(m: int = 1) -> "Cyc":
        return _make(m, (0,) * euler_phi(m), 1)

    @staticmethod
    def one(m: int = 1) -> "Cyc":
        v = [0] * euler_phi(m)
        v[0] = 1
        return _make(m, tuple(v), 1)

    @staticmethod
    def rational(q, m: int = 1) -> "Cyc":
        q = Fraction(q)
        v = [0] * euler_phi(m)
        v[0] = q.numerator
        return _make(m, tuple(v), q.denominator)

    @staticmethod
    def zeta(m: int, k: int = 1) -> "Cyc":
        """zeta_m^k."""
        v = [0] * euler_phi(m)
        for t, c in _power_rows(m)[k % m]:
            v[t] = c
        return _make(m, tuple(v), 1)

    # -- structure ---------------------------------------------------------

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        """Coefficient vector over the power basis, as Fractions."""
        return tuple(Fraction(a, self.den) for a in self.num)

    def is_zero(self) -> bool:
        return not any(self.num)

    def is_rational(self) -> bool:
        return not any(self.num[1:])

    def as_rational(self) -> Fraction:
        if not self.is_rational():
            raise ValueError(f"{self!r} is not rational")
        return Fraction(self.num[0], self.den)

    def lift(self, m2: int) -> "Cyc":
        """Image under zeta_m -> zeta_{m2}^{m2/m}.  Requires m | m2."""
        if m2 == self.m:
            return self
        if m2 % self.m != 0:
            raise ConductorError(f"cannot lift conductor {self.m} to {m2}")
        if m2 > CONDUCTOR_CAP:
            raise ConductorError(f"conductor {m2} exceeds cap {CONDUCTOR_CAP}")
        step = m2 // self.m
        rows = _power_rows(m2)
        out = [0] * euler_phi(m2)
        for i, a in enumerate(self.num):
            if a:
                for t, c in rows[i * step]:
                    out[t] += a * c
        return _reduced(m2, out, self.den)

    def galois(self, k: int) -> "Cyc":
        """Image under zeta_m -> zeta_m^k; requires gcd(k, m) = 1."""
        m = self.m
        k %= m
        if gcd(k, m) != 1:
            raise ValueError(f"zeta -> zeta^{k} is not an automorphism of Q(zeta_{m})")
        rows = _power_rows(m)
        out = [0] * len(self.num)
        for i, a in enumerate(self.num):
            if a:
                for t, c in rows[(i * k) % m]:
                    out[t] += a * c
        # sigma_k is a unimodular Z-linear map of Z[zeta_m], so it keeps the
        # content of the numerator and the image is already in lowest terms
        return _make(m, tuple(out), self.den)

    def conj(self) -> "Cyc":
        """Complex conjugation, zeta_m -> zeta_m^(m-1)."""
        if self.m <= 2:
            return self
        return self.galois(self.m - 1)

    # -- arithmetic --------------------------------------------------------

    def _pair(self, other) -> tuple["Cyc", "Cyc"]:
        if isinstance(other, (int, Fraction)):
            other = Cyc.rational(other, self.m)
        if not isinstance(other, Cyc):
            return NotImplemented, NotImplemented
        if self.m == other.m:
            return self, other
        m = self.m * other.m // gcd(self.m, other.m)
        if m > CONDUCTOR_CAP:
            raise ConductorError(f"conductor lcm {m} exceeds cap {CONDUCTOR_CAP}")
        return self.lift(m), other.lift(m)

    def __add__(self, other):
        if type(other) is Cyc and other.m == self.m:
            a, b = self, other
        else:
            a, b = self._pair(other)
            if a is NotImplemented:
                return NotImplemented
        if a.den == b.den:
            return _reduced(a.m, [x + y for x, y in zip(a.num, b.num)], a.den)
        ad, bd = a.den, b.den
        return _reduced(a.m, [x * bd + y * ad for x, y in zip(a.num, b.num)], ad * bd)

    __radd__ = __add__

    def __neg__(self):
        return _make(self.m, tuple([-a for a in self.num]), self.den)

    def __sub__(self, other):
        if type(other) is Cyc and other.m == self.m:
            a, b = self, other
        else:
            a, b = self._pair(other)
            if a is NotImplemented:
                return NotImplemented
        if a.den == b.den:
            return _reduced(a.m, [x - y for x, y in zip(a.num, b.num)], a.den)
        ad, bd = a.den, b.den
        return _reduced(a.m, [x * bd - y * ad for x, y in zip(a.num, b.num)], ad * bd)

    def __rsub__(self, other):
        return (-self) + other

    def _scale(self, p: int, q: int = 1) -> "Cyc":
        """self * p/q for integers p and q > 0."""
        return _reduced(self.m, [a * p for a in self.num], self.den * q)

    def __mul__(self, other):
        # same-conductor Cyc first, and Fraction (an ABC) last
        if type(other) is Cyc and other.m == self.m:
            a, b = self, other
        elif isinstance(other, int):
            return self._scale(other)
        elif isinstance(other, Cyc):
            a, b = self._pair(other)
        elif isinstance(other, Fraction):
            return self._scale(other.numerator, other.denominator)
        else:
            return NotImplemented
        an, bn = a.num, b.num
        phi = len(an)
        if phi == 1:
            return _reduced(a.m, [an[0] * bn[0]], a.den * b.den)
        conv = [0] * (2 * phi - 1)
        for i, ai in enumerate(an):
            if ai:
                for j, bj in enumerate(bn):
                    if bj:
                        conv[i + j] += ai * bj
        rows = _power_rows(a.m)
        out = conv[:phi]
        for k in range(phi, 2 * phi - 1):
            ck = conv[k]
            if ck:
                for t, c in rows[k]:
                    out[t] += ck * c
        return _reduced(a.m, out, a.den * b.den)

    __rmul__ = __mul__

    def inverse(self) -> "Cyc":
        """1/x = (prod_{sigma != 1} sigma(x)) / N(x).

        x times the product of its conjugates over the other automorphisms of
        Q(zeta_m) is the field norm N(x), a nonzero rational; so the inverse is
        that cofactor scaled by 1/N(x).  The result is checked by multiplying
        back.
        """
        if self.is_zero():
            raise ZeroDivisionError("division by zero in Q(zeta_m)")
        if self.is_rational():
            return Cyc.rational(Fraction(self.den, self.num[0]), self.m)
        cofactor = None
        for k in _units(self.m):
            image = self.galois(k)
            cofactor = image if cofactor is None else cofactor * image
        norm = self * cofactor
        if not norm.is_rational():
            raise ArithmeticError(f"norm of {self!r} is not rational (corrupt state)")
        # 1/N(x) = norm.den / norm.num[0]; _scale wants a positive denominator
        p, q = norm.den, norm.num[0]
        if q < 0:
            p, q = -p, -q
        result = cofactor._scale(p, q)
        check = result * self
        if not (check.is_rational() and check.as_rational() == 1):
            raise ArithmeticError("inverse verification failed")
        return result

    def __truediv__(self, other):
        if isinstance(other, (int, Fraction)):
            q = Fraction(other)
            if q == 0:
                raise ZeroDivisionError("division by zero")
            return self * (1 / q)
        if not isinstance(other, Cyc):
            return NotImplemented
        a, b = self._pair(other)
        return a * b.inverse()

    def __rtruediv__(self, other):
        return self.inverse() * other

    def __pow__(self, e: int):
        if e < 0:
            return self.inverse() ** (-e)
        result = Cyc.one(self.m)
        base = self
        while e:
            if e & 1:
                result = result * base
            base = base * base
            e >>= 1
        return result

    # -- comparisons / misc -------------------------------------------------

    def __eq__(self, other):
        if type(other) is Cyc and other.m == self.m:
            return self.num == other.num and self.den == other.den
        if isinstance(other, (int, Fraction)):
            # Both forms are in lowest terms with den > 0: compare the parts.
            num = self.num
            return (self.den == other.denominator and num[0] == other.numerator
                    and not any(num[1:]))
        if not isinstance(other, Cyc):
            return NotImplemented
        a, b = self._pair(other)
        return a.num == b.num and a.den == b.den

    def __hash__(self):
        if self.is_rational():
            return hash(Fraction(self.num[0], self.den))
        return hash((self.m, self.num, self.den))

    def __bool__(self):
        return not self.is_zero()

    def __str__(self):
        if self.is_rational():
            return str(self.as_rational())
        terms = []
        for i, c in enumerate(self.coeffs):
            if c == 0:
                continue
            if i == 0:
                terms.append(str(c))
            else:
                z = "z" if i == 1 else f"z^{i}"
                if c == 1:
                    terms.append(z)
                elif c == -1:
                    terms.append(f"-{z}")
                else:
                    terms.append(f"{c}*{z}")
        return "+".join(terms).replace("+-", "-")

    def __repr__(self):
        return f"Cyc({self.m}: {self})"


# The named algebraic constant the paper uses: sqrt5, realized as the Gauss
# sum in Q(zeta_5).

def sqrt5(m: int = 5) -> Cyc:
    z = Cyc.zeta(5)
    return (z - z ** 2 - z ** 3 + z ** 4).lift(m)
