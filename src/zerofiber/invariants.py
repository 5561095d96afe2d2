"""Fundamental invariants of the catalogue groups, the Reynolds operator,
Molien series, and zero-fiber degrees.

The invariant ring of a finite subgroup of SL_2 acting on C[x,y] is
generated by the classical fundamental invariants f1, f2, f3.  This is not
taken on trust: ``invariant_ideal_basis`` certifies it in every degree from
the Molien series (Stanley, Bull. AMS 1 (1979)), so the ideal the f_i
generate is the whole positive-degree invariant ideal, and the dimension of
its quotient is the degree of the zero fiber.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import combinations
from typing import NamedTuple, NoReturn

from .cyclotomic import Cyc
from .groebner import GroebnerBasis, buchberger
from .groups import FiniteGroup, GroupSpec, build_group, close_indices
from .poly2 import Poly2, act, from_int_terms, linear_form_powers


@lru_cache(maxsize=None)
def fundamental_invariants(spec: GroupSpec) -> tuple[Poly2, ...]:
    """The classical generator list; invariance under the group generators
    is asserted at construction (a failure is a transcription bug)."""
    fam, n = spec.family, spec.param
    if fam == "cyclic":
        polys = (Poly2.x(n), Poly2.x() * Poly2.y(), Poly2.y(n))
    elif fam == "bd":
        if n % 2 == 0:
            polys = (
                from_int_terms({(2, 2): 1}),
                from_int_terms({(2 * n, 0): 1, (n, n): -2, (0, 2 * n): 1}),
                from_int_terms({(2 * n + 1, 1): 1, (1, 2 * n + 1): -1}),
            )
        else:
            # g3 recomputed from phi2^2 phi3 = xy (x^n - y^n)^2; the printed
            # middle exponent is a misprint for n != 2
            polys = (
                from_int_terms({(2, 2): 1}),
                from_int_terms({(2 * n, 0): 1, (0, 2 * n): -1}),
                from_int_terms({(2 * n + 1, 1): 1, (n + 1, n + 1): -2, (1, 2 * n + 1): 1}),
            )
    elif fam == "bt":
        polys = (
            from_int_terms({(5, 1): 1, (1, 5): -1}),
            from_int_terms({(8, 0): 1, (4, 4): 14, (0, 8): 1}),
            from_int_terms({(12, 0): 1, (8, 4): -33, (4, 8): -33, (0, 12): 1}),
        )
    elif fam == "bo":
        polys = (
            from_int_terms({(10, 2): 1, (6, 6): -2, (2, 10): 1}),
            from_int_terms({(8, 0): 1, (4, 4): 14, (0, 8): 1}),
            from_int_terms({(17, 1): 1, (13, 5): -34, (5, 13): 34, (1, 17): -1}),
        )
    else:  # bi
        polys = (
            from_int_terms({(11, 1): 1, (6, 6): 11, (1, 11): -1}),
            from_int_terms({(20, 0): -1, (0, 20): -1, (15, 5): 228, (5, 15): -228,
                            (10, 10): -494}),
            from_int_terms({(30, 0): 1, (0, 30): 1, (25, 5): 522, (5, 25): -522,
                            (20, 10): -10005, (10, 20): -10005}),
        )
    group = build_group(spec)
    for f in polys:
        for gi in group.gen_indices:
            if act(group.elements[gi], f) != f:
                raise AssertionError(f"fundamental invariant of {spec} is not invariant")
    return polys


def reynolds_many(group: FiniteGroup, polys: list[Poly2]) -> list[Poly2]:
    """The Reynolds operator (1/|G|) sum_g g.p on every p in polys, in one sweep.

    When the first generator w1 is diagonal, averaging over the cyclic
    subgroup C = <w1> first keeps exactly the monomials x^a y^b with
    (b - a) % |C| == 0, and the rest of the average runs over one
    representative per coset gC.  The sweep visits each representative
    once, builds the powers of its two linear forms up to the largest
    exponent needed, and adds the image of every kept monomial to that
    monomial's running sum; each p is then a combination of those sums,
    scaled by 1/#representatives.  Without a diagonal w1 the same sweep
    runs over all of G with C = {1}.
    """
    w1 = group.gen_indices[0]
    g1 = group.elements[w1]
    csub = close_indices(group, [w1]) if g1[1].is_zero() and g1[2].is_zero() else (0,)
    ord_u = len(csub)
    sums = {m: Poly2.zero() for p in polys for m in p.terms if (m[1] - m[0]) % ord_u == 0}
    if not sums:
        return [Poly2.zero() for _ in polys]
    reps = []
    seen = set()
    for g in range(group.order):
        if g not in seen:
            reps.append(g)
            seen.update(group.mult[g][c] for c in csub)
    max_a = max(a for a, _ in sums)
    max_b = max(b for _, b in sums)
    for r in reps:
        xp, yp = linear_form_powers(group.elements[r], max_a, max_b)
        for (a, b), acc in sums.items():
            sums[a, b] = acc + xp[a] * yp[b]
    scale = Fraction(1, len(reps))
    out = []
    for p in polys:
        acc = Poly2.zero()
        for m, c in p.terms.items():
            if m in sums:
                acc = acc + sums[m].scale(c * scale)
        out.append(acc)
    return out


def reynolds(group: FiniteGroup, p: Poly2) -> Poly2:
    """(1/|G|) sum_g g.p: the coset sweep of reynolds_many on p alone."""
    return reynolds_many(group, [p])[0]


def molien_coeffs(group: FiniteGroup, D: int) -> list[int]:
    """Coefficients of (1/|G|) sum_g 1/det(1 - t g) up to degree D, via the
    per-class recursion a_k = tr(g) a_{k-1} - a_{k-2} (det g = 1) from
    a_{-1} = 0 and a_0 = 1."""
    zero = Cyc.zero(group.conductor)
    sums = [zero] * (D + 1)
    for cls in group.classes:
        tr, a = group.trace(cls[0]), [zero, Cyc.one(group.conductor)]
        for _ in range(D):
            a.append(tr * a[-1] - a[-2])
        sums = [acc + x * len(cls) for acc, x in zip(sums, a[1:])]
    out = [(acc * Fraction(1, group.order)).as_rational() for acc in sums]
    for d, q in enumerate(out):
        if q.denominator != 1 or q < 0:
            raise AssertionError(f"{group.spec}: Molien coefficient {q} in degree {d} "
                                 f"is not a non-negative integer")
    return [int(q) for q in out]


class MolienCertificate(NamedTuple):
    """What ``_molien_certificate`` proved: with (f_a, f_b) of degrees
    hsop_degrees and f_c the third invariant, the invariant ring is the free
    C[f_a, f_b]-module on 1, f_c, ..., f_c^(s-1), in degrees 0, d_c, ...,
    (s-1) d_c."""

    hsop_degrees: tuple[int, int]
    d_c: int
    s: int


def _molien_certificate(gens: list[Poly2], group: FiniteGroup) -> MolienCertificate:
    """Prove that the invariants gens = (f1, f2, f3) generate C[x,y]^G in every degree.

    The f_i are taken to be G-invariant; ``fundamental_invariants`` asserts
    that.  Each check raises an AssertionError naming the group and itself.

    - homogeneous: every f_i is homogeneous.
    - hsop: (f_a, f_b) is the first pair, in order of d_a d_b, whose Groebner
      basis is zero dimensional.  Then A = C[f_a, f_b] is a polynomial ring
      and C[x,y] is a free A-module; so is the invariant ring R, because the
      Reynolds operator is an A-linear retraction onto it.  The same
      retraction gives R ∩ (f_a, f_b) = A_+ R, so R / A_+ R embeds in
      C[x,y] / (f_a, f_b), whose top degree is D = d_a + d_b - 2.
    - Molien numerator: the Molien series of R times (1 - t^d_a)(1 - t^d_b)
      is the polynomial P(t) that counts a basis of R over A by degree, and
      deg P <= D, so the Molien coefficients up to D fix it.  P must be
      1 + t^d_c + ... + t^((s-1) d_c).
    - secondaries: f_c^k lies outside (f_a, f_b) for 0 < k < s.  Then f_c^k
      is nonzero in R / A_+ R, whose degrees are the multiples k d_c with
      k < s, each of dimension one; so deg f_c = d_c, and f_c^k spans degree
      k d_c.

    By graded Nakayama the powers f_c^k generate R over A, so
    R = C[f1, f2, f3], with no cap on the degree.
    """
    def fail(check: str, why: str) -> NoReturn:
        raise AssertionError(f"invariant certificate of {group.spec}: {check} check failed: {why}")

    degs = [f.degree() for f in gens]
    for f, d in zip(gens, degs):
        if any(a + b != d for a, b in f.terms):
            fail("homogeneous", f"generator {f} is not homogeneous")
    pairs = sorted(combinations(range(len(gens)), 2), key=lambda ij: degs[ij[0]] * degs[ij[1]])
    for a, b in pairs:
        hsop = buchberger([gens[a], gens[b]])
        if hsop.is_zero_dimensional:
            break
    else:
        fail("hsop", f"no pair of the generators of degrees {degs} has a finite quotient")
    (c,) = set(range(len(gens))) - {a, b}
    D = degs[a] + degs[b] - 2
    M = molien_coeffs(group, D)
    P = [M[k] - (M[k - degs[a]] if k >= degs[a] else 0) - (M[k - degs[b]] if k >= degs[b] else 0)
         for k in range(D + 1)]
    exps = [k for k, m in enumerate(P) if m]
    d_c = exps[1] if len(exps) > 1 else degs[c]
    if any(m not in (0, 1) for m in P) or exps != [k * d_c for k in range(len(exps))]:
        fail("Molien numerator",
             f"P(t) = {P} over the hsop of degrees {degs[a]}, {degs[b]} is not "
             f"1 + t^d + ... + t^((s-1)d)")
    s = len(exps)
    power = Poly2.constant(1)
    for k in range(1, s):
        power = power * gens[c]
        if hsop.reduce(power).is_zero():
            fail("secondary", f"f_c^{k} vanishes modulo the hsop, so the powers of f_c = "
                              f"generator {c + 1} cannot fill the degrees of P(t) = {P}")
    return MolienCertificate((degs[a], degs[b]), d_c, s)


@lru_cache(maxsize=None)
def invariant_ideal_basis(spec: GroupSpec) -> GroebnerBasis:
    """Reduced Groebner basis of the fundamental-invariant ideal.

    ``_molien_certificate`` first proves that the fundamental invariants
    generate the invariant ring in every degree, so this is the ideal of all
    positive-degree invariants."""
    gens = list(fundamental_invariants(spec))
    _molien_certificate(gens, build_group(spec))
    return buchberger(gens)


def zero_fiber_degree(spec: GroupSpec) -> int:
    """Dimension of C[x,y] / (positive-degree invariants): the number of
    standard monomials of the reduced Groebner basis."""
    gb = invariant_ideal_basis(spec)
    if not gb.is_zero_dimensional:
        raise AssertionError(f"invariant ideal of {spec} is not zero dimensional")
    return gb.quotient_dimension()
