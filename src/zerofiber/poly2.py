"""Sparse exact polynomials in x, y under the lex order with x > y.

Coefficients are cyclotomic numbers (rational-only polynomials simply live
at conductor 1).  Monomials are exponent pairs (a, b); lex comparison is
plain tuple comparison, so x^a y^b > x^c y^d iff a > c or (a = c and b > d),
exactly the order used for all Groebner computations.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd

from .cyclotomic import Cyc

Monomial = tuple[int, int]


def mono_divides(m1: Monomial, m2: Monomial) -> bool:
    return m1[0] <= m2[0] and m1[1] <= m2[1]


def mono_div(m1: Monomial, m2: Monomial) -> Monomial:
    return (m1[0] - m2[0], m1[1] - m2[1])


def mono_lcm(m1: Monomial, m2: Monomial) -> Monomial:
    return (max(m1[0], m2[0]), max(m1[1], m2[1]))


class Poly2:
    """Immutable-by-convention sparse bivariate polynomial."""

    __slots__ = ("terms",)

    def __init__(self, terms: dict[Monomial, Cyc] | None = None, _clean: bool = False):
        if terms is None:
            self.terms = {}
        elif _clean:
            self.terms = terms
        else:
            self.terms = {m: c for m, c in terms.items() if not c.is_zero()}

    # -- constructors --------------------------------------------------------

    @staticmethod
    def zero() -> "Poly2":
        return Poly2({}, _clean=True)

    @staticmethod
    def constant(c) -> "Poly2":
        if isinstance(c, (int, Fraction)):
            c = Cyc.rational(c)
        return Poly2({(0, 0): c})

    @staticmethod
    def monomial(a: int, b: int, coeff=1) -> "Poly2":
        if isinstance(coeff, (int, Fraction)):
            coeff = Cyc.rational(coeff)
        return Poly2({(a, b): coeff})

    @staticmethod
    def x(e: int = 1) -> "Poly2":
        return Poly2.monomial(e, 0)

    @staticmethod
    def y(e: int = 1) -> "Poly2":
        return Poly2.monomial(0, e)

    # -- structure -----------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def degree(self) -> int:
        if not self.terms:
            return -1
        return max(a + b for a, b in self.terms)

    def lead_monomial(self) -> Monomial:
        return max(self.terms)

    def lead_coeff(self) -> Cyc:
        return self.terms[max(self.terms)]

    def coeff(self, a: int, b: int) -> Cyc:
        return self.terms.get((a, b), Cyc.zero(1))

    # -- arithmetic ----------------------------------------------------------

    def __add__(self, other: "Poly2") -> "Poly2":
        out = dict(self.terms)
        for m, c in other.terms.items():
            if m in out:
                s = out[m] + c
                if s.is_zero():
                    del out[m]
                else:
                    out[m] = s
            else:
                out[m] = c
        return Poly2(out, _clean=True)

    def __sub__(self, other: "Poly2") -> "Poly2":
        out = dict(self.terms)
        for m, c in other.terms.items():
            if m in out:
                s = out[m] - c
                if s.is_zero():
                    del out[m]
                else:
                    out[m] = s
            else:
                out[m] = -c
        return Poly2(out, _clean=True)

    def __neg__(self) -> "Poly2":
        return Poly2({m: -c for m, c in self.terms.items()}, _clean=True)

    def __mul__(self, other):
        if type(other) is not Poly2:
            if isinstance(other, (int, Fraction, Cyc)):
                return self.scale(other)
            return NotImplemented
        out: dict[Monomial, Cyc] = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                m = (m1[0] + m2[0], m1[1] + m2[1])
                p = c1 * c2
                if m in out:
                    s = out[m] + p
                    if s.is_zero():
                        del out[m]
                    else:
                        out[m] = s
                elif not p.is_zero():
                    out[m] = p
        return Poly2(out, _clean=True)

    __rmul__ = __mul__

    def scale(self, c) -> "Poly2":
        if isinstance(c, (int, Fraction)):
            if c == 0:
                return Poly2.zero()
            return Poly2({m: v * c for m, v in self.terms.items()}, _clean=True)
        if c.is_zero():
            return Poly2.zero()
        return Poly2({m: v * c for m, v in self.terms.items()})

    def mul_term(self, mono: Monomial, c: Cyc) -> "Poly2":
        da, db = mono
        return Poly2({(a + da, b + db): v * c for (a, b), v in self.terms.items()})

    def __pow__(self, e: int) -> "Poly2":
        result = Poly2.constant(1)
        base = self
        while e:
            if e & 1:
                result = result * base
            base = base * base
            e >>= 1
        return result

    # -- normal forms ---------------------------------------------------------

    def monic(self) -> "Poly2":
        if self.is_zero():
            return self
        lc = self.lead_coeff()
        if lc == 1:
            return self
        inv = lc.inverse()
        return Poly2({m: c * inv for m, c in self.terms.items()})

    def primitive(self) -> "Poly2":
        """Scale by a positive rational so integer content is 1 (rational
        coefficients), or make monic otherwise.  Same ideal member."""
        if self.is_zero():
            return self
        if all(c.is_rational() for c in self.terms.values()):
            num_gcd, den_lcm = 0, 1
            for c in self.terms.values():
                q = c.as_rational()
                num_gcd = gcd(num_gcd, q.numerator)
                den_lcm = den_lcm * q.denominator // gcd(den_lcm, q.denominator)
            factor = Fraction(den_lcm, num_gcd)
            if self.lead_coeff().as_rational() < 0:
                factor = -factor
            if factor == 1:
                return self
            return Poly2({m: c * factor for m, c in self.terms.items()})
        return self.monic()

    # -- comparisons / output --------------------------------------------------

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = Poly2.constant(other)
        if not isinstance(other, Poly2):
            return NotImplemented
        return self.terms == other.terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def __str__(self):
        if not self.terms:
            return "0"
        parts = []
        for (a, b) in sorted(self.terms, reverse=True):
            c = self.terms[(a, b)]
            mono = ""
            if a:
                mono += "x" if a == 1 else f"x^{a}"
            if b:
                mono += ("*" if mono else "") + ("y" if b == 1 else f"y^{b}")
            cs = str(c)
            if "+" in cs or ("-" in cs[1:]):
                cs = f"({cs})"
            if not mono:
                parts.append(cs)
            elif cs == "1":
                parts.append(mono)
            elif cs == "-1":
                parts.append(f"-{mono}")
            else:
                parts.append(f"{cs}*{mono}")
        s = "+".join(parts)
        return s.replace("+-", "-")

    def __repr__(self):
        return f"Poly2({self})"


def from_int_terms(terms: dict[Monomial, int]) -> Poly2:
    return Poly2({m: Cyc.rational(c) for m, c in terms.items() if c})


def linear_form_powers(gmat, max_a: int, max_b: int) -> tuple[list[Poly2], list[Poly2]]:
    """The powers (g.x)^i for i <= max_a and (g.y)^j for j <= max_b, where
    g = [[a, b], [c, d]] acts on linear forms by x -> d x - b y, y -> -c x + a y.
    All coefficients, the constant 1 included, live at the conductor of g."""
    a, b, c, d = gmat
    gx = Poly2({(1, 0): d, (0, 1): -b})
    gy = Poly2({(1, 0): -c, (0, 1): a})
    one = Poly2({(0, 0): Cyc.one(a.m)}, _clean=True)
    xp, yp = [one], [one]
    for _ in range(max_a):
        xp.append(xp[-1] * gx)
    for _ in range(max_b):
        yp.append(yp[-1] * gy)
    return xp, yp


def act(gmat, p: Poly2) -> Poly2:
    """Action of a unimodular 2x2 matrix g on polynomials: (g.f)(v) = f(g^-1 v).

    On linear forms this is x -> d x - b y, y -> -c x + a y for
    g = [[a, b], [c, d]] with det 1, which reproduces the defining rule
    w.x = zeta^-1 x, w.y = zeta y for w = diag(zeta, zeta^-1).
    """
    a, b, c, d = gmat
    det = a * d - b * c
    if det != 1:
        raise ValueError("action requires det(g) = 1")
    if p.is_zero():
        return p
    xp, yp = linear_form_powers(gmat, max(m[0] for m in p.terms), max(m[1] for m in p.terms))
    out = Poly2.zero()
    for (i, j), coeff in p.terms.items():
        out = out + (xp[i] * yp[j]).scale(coeff)
    return out
