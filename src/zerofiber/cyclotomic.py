"""Exact arithmetic in cyclotomic fields Q(zeta_m).

A value is stored as an integer coefficient vector of length phi(m) over the
power basis 1, z, ..., z^(phi(m)-1) of Q(zeta_m), z = exp(2*pi*i/m), together
with a positive common denominator.  Reduction modulo the m-th cyclotomic
polynomial is canonical, so equality is componentwise.  No floating point.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import gcd

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
def _power_rows(m: int) -> tuple[tuple[int, ...], ...]:
    """z^k reduced mod Phi_m as integer vectors, for k = 0..2m-2."""
    phi = euler_phi(m)
    mono = list(cyclotomic_polynomial(m))[:-1]
    rows: list[tuple[int, ...]] = []
    cur = [0] * phi
    cur[0] = 1
    for _ in range(2 * m - 1):
        rows.append(tuple(cur))
        # multiply by z
        carry = cur[phi - 1]
        nxt = [0] + cur[: phi - 1]
        if carry:
            for t in range(phi):
                nxt[t] -= carry * mono[t]
        cur = nxt
    return tuple(rows)


def _normalize(num: list[int], den: int) -> tuple[tuple[int, ...], int]:
    if den < 0:
        den = -den
        num = [-a for a in num]
    g = den
    for a in num:
        if a:
            g = gcd(g, a)
            if g == 1:
                break
    if g > 1:
        den //= g
        num = [a // g for a in num]
    if all(a == 0 for a in num):
        den = 1
    return tuple(num), den


class Cyc:
    """An element of Q(zeta_m), canonically reduced mod Phi_m.

    Immutable and hashable.  Mixed-conductor arithmetic promotes both
    operands to the lcm conductor.  Note: hashing is consistent across
    conductors only for rational values; keep one conductor per container.
    """

    __slots__ = ("m", "num", "den")

    def __init__(self, m: int, num: tuple[int, ...], den: int = 1, _normalized: bool = False):
        if _normalized:
            self.m = m
            self.num = num
            self.den = den
            return
        phi = euler_phi(m)
        if len(num) != phi:
            raise ValueError(f"coefficient vector has length {len(num)}, expected phi({m})={phi}")
        n, d = _normalize(list(num), den)
        self.m = m
        self.num = n
        self.den = d

    # -- constructors ------------------------------------------------------

    @staticmethod
    def zero(m: int = 1) -> "Cyc":
        return Cyc(m, (0,) * euler_phi(m), 1, _normalized=True)

    @staticmethod
    def one(m: int = 1) -> "Cyc":
        v = [0] * euler_phi(m)
        v[0] = 1
        return Cyc(m, tuple(v), 1, _normalized=True)

    @staticmethod
    def rational(q, m: int = 1) -> "Cyc":
        q = Fraction(q)
        v = [0] * euler_phi(m)
        v[0] = q.numerator
        return Cyc(m, tuple(v), q.denominator)

    @staticmethod
    def zeta(m: int, k: int = 1) -> "Cyc":
        """zeta_m^k."""
        k %= m
        row = _power_rows(m)[k]
        return Cyc(m, row, 1)

    # -- structure ---------------------------------------------------------

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        """Coefficient vector over the power basis, as Fractions."""
        return tuple(Fraction(a, self.den) for a in self.num)

    def is_zero(self) -> bool:
        return all(a == 0 for a in self.num)

    def is_rational(self) -> bool:
        return all(a == 0 for a in self.num[1:])

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
        phi2 = euler_phi(m2)
        rows = _power_rows(m2)
        out = [0] * phi2
        for i, a in enumerate(self.num):
            if a:
                row = rows[i * step]
                for t in range(phi2):
                    if row[t]:
                        out[t] += a * row[t]
        return Cyc(m2, tuple(out), self.den)

    def galois(self, k: int) -> "Cyc":
        """Image under zeta_m -> zeta_m^k; requires gcd(k, m) = 1."""
        k %= self.m
        if gcd(k, self.m) != 1:
            raise ValueError(f"zeta -> zeta^{k} is not an automorphism of Q(zeta_{self.m})")
        rows = _power_rows(self.m)
        phi = len(self.num)
        out = [0] * phi
        for i, a in enumerate(self.num):
            if a:
                row = rows[(i * k) % self.m]
                for t in range(phi):
                    if row[t]:
                        out[t] += a * row[t]
        return Cyc(self.m, tuple(out), self.den)

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
        a, b = self._pair(other)
        if a is NotImplemented:
            return NotImplemented
        if a.den == b.den:
            num = [x + y for x, y in zip(a.num, b.num)]
            return Cyc(a.m, tuple(num), a.den)
        num = [x * b.den + y * a.den for x, y in zip(a.num, b.num)]
        return Cyc(a.m, tuple(num), a.den * b.den)

    __radd__ = __add__

    def __neg__(self):
        return Cyc(self.m, tuple(-a for a in self.num), self.den, _normalized=True)

    def __sub__(self, other):
        a, b = self._pair(other)
        if a is NotImplemented:
            return NotImplemented
        if a.den == b.den:
            num = [x - y for x, y in zip(a.num, b.num)]
            return Cyc(a.m, tuple(num), a.den)
        num = [x * b.den - y * a.den for x, y in zip(a.num, b.num)]
        return Cyc(a.m, tuple(num), a.den * b.den)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            q = Fraction(other)
            return Cyc(self.m, tuple(a * q.numerator for a in self.num), self.den * q.denominator)
        if not isinstance(other, Cyc):
            return NotImplemented
        a, b = self._pair(other)
        phi = len(a.num)
        if phi == 1:
            return Cyc(a.m, (a.num[0] * b.num[0],), a.den * b.den)
        conv = [0] * (2 * phi - 1)
        bn = b.num
        for i, ai in enumerate(a.num):
            if ai:
                for j, bj in enumerate(bn):
                    if bj:
                        conv[i + j] += ai * bj
        rows = _power_rows(a.m)
        out = conv[:phi]
        for k in range(phi, 2 * phi - 1):
            ck = conv[k]
            if ck:
                row = rows[k]
                for t in range(phi):
                    if row[t]:
                        out[t] += ck * row[t]
        return Cyc(a.m, tuple(out), a.den * b.den)

    __rmul__ = __mul__

    def inverse(self) -> "Cyc":
        if self.is_zero():
            raise ZeroDivisionError("division by zero in Q(zeta_m)")
        if self.is_rational():
            q = 1 / self.as_rational()
            return Cyc.rational(q, self.m)
        # extended Euclid of the representative against Phi_m over Q
        phi_poly = [Fraction(c) for c in cyclotomic_polynomial(self.m)]
        a = [Fraction(x, self.den) for x in self.num]
        # invariant: s * self == r (mod Phi_m)
        r0, s0 = phi_poly, [Fraction(0)]
        r1, s1 = list(a), [Fraction(1)]

        def strip(p):
            while p and p[-1] == 0:
                p.pop()
            return p

        strip(r0), strip(r1)
        while True:
            if len(r1) == 1:
                inv_c = 1 / r1[0]
                s = [c * inv_c for c in s1]
                break
            q, r = _frac_poly_divmod(r0, r1)
            r0, r1 = r1, strip(r)
            s_new = _frac_poly_sub(s0, _frac_poly_mul(q, s1))
            s0, s1 = s1, strip(s_new) or [Fraction(0)]
            if not r1:
                raise ZeroDivisionError("element shares a factor with Phi_m (corrupt state)")
        phi = len(self.num)
        den = 1
        for c in s:
            den = den * c.denominator // gcd(den, c.denominator)
        vec = [0] * phi
        for i, c in enumerate(s[:phi]):
            vec[i] = c.numerator * (den // c.denominator)
        result = Cyc(self.m, tuple(vec), den)
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
        if isinstance(other, (int, Fraction)):
            return self.is_rational() and self.as_rational() == other
        if not isinstance(other, Cyc):
            return NotImplemented
        if self.m == other.m:
            return self.num == other.num and self.den == other.den
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


def _frac_poly_divmod(a: list[Fraction], b: list[Fraction]):
    a = list(a)
    q = [Fraction(0)] * max(len(a) - len(b) + 1, 0)
    inv_lead = 1 / b[-1]
    for i in range(len(a) - len(b), -1, -1):
        c = a[i + len(b) - 1] * inv_lead
        if c:
            q[i] = c
            for j, bj in enumerate(b):
                a[i + j] -= c * bj
    return q, a


def _frac_poly_mul(a: list[Fraction], b: list[Fraction]):
    out = [Fraction(0)] * (len(a) + len(b) - 1) if a and b else []
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                out[i + j] += ai * bj
    return out


def _frac_poly_sub(a: list[Fraction], b: list[Fraction]):
    n = max(len(a), len(b))
    a = a + [Fraction(0)] * (n - len(a))
    b = b + [Fraction(0)] * (n - len(b))
    return [x - y for x, y in zip(a, b)]


# Named algebraic constants, realized inside cyclotomic fields as the paper
# uses them: sqrt5 via the Gauss sum in Q(zeta_5), sqrt(-3) in Q(zeta_3).

def sqrt5(m: int = 5) -> Cyc:
    z = Cyc.zeta(5)
    return (z - z ** 2 - z ** 3 + z ** 4).lift(m) if m != 5 else z - z ** 2 - z ** 3 + z ** 4


def sqrt_minus3(m: int = 3) -> Cyc:
    v = Cyc.rational(1, 3) + Cyc.zeta(3) * 2
    return v.lift(m) if m != 3 else v


def imag_unit(m: int = 4) -> Cyc:
    if m % 4 != 0:
        raise ConductorError(f"i requires 4 | conductor, got {m}")
    return Cyc.zeta(m, m // 4)
