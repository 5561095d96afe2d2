"""Fundamental invariants of the catalogue groups, the Reynolds operator,
exact invariant dimensions, Molien series, and zero-fiber degrees.

The invariant ring of a finite subgroup of SL_2 acting on C[x,y] is
generated by the classical fundamental invariants; the ideal they generate
is the positive-degree invariant ideal, and the dimension of its quotient
is the degree of the zero fiber.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache

from .cyclotomic import Cyc
from .groebner import GroebnerBasis, buchberger
from .groups import FiniteGroup, GroupSpec, build_group
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
    csub = {0}
    if g1[1].is_zero() and g1[2].is_zero():
        cur = w1
        while cur != 0:
            csub.add(cur)
            cur = group.mult[cur][w1]
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


def invariant_dim(group: FiniteGroup, d: int) -> int:
    """Dimension of degree-d invariants: exact rank of the Reynolds images
    of the degree-d monomial basis."""
    if d == 0:
        return 1
    images = reynolds_many(group, [Poly2.monomial(i, d - i) for i in range(d + 1)])
    rows = [tuple(r.coeff(a, d - a) for a in range(d + 1)) for r in images if not r.is_zero()]
    if not rows:
        return 0
    from .linalg import rank

    return rank(tuple(rows))


def molien_coeffs(group: FiniteGroup, D: int) -> list[int]:
    """Coefficients of (1/|G|) sum_g 1/det(1 - t g) up to degree D, via the
    per-class recursion a_k = tr(g) a_{k-1} - a_{k-2} (det g = 1)."""
    m = group.conductor
    per_class = []
    for cls in group.classes:
        tr = group.trace(cls[0])
        per_class.append((len(cls), tr))
    out = []
    prev2 = {i: Cyc.one(m) for i in range(len(per_class))}   # a_0
    prev1 = {i: per_class[i][1] for i in range(len(per_class))}  # a_1
    for d in range(D + 1):
        if d == 0:
            vals = prev2
        elif d == 1:
            vals = prev1
        else:
            vals = {}
            for i, (_, tr) in enumerate(per_class):
                vals[i] = tr * prev1[i] - prev2[i]
            prev2, prev1 = prev1, vals
        acc = Cyc.zero(m)
        for i, (size, _) in enumerate(per_class):
            acc = acc + vals[i] * size
        q = (acc * Fraction(1, group.order)).as_rational()
        if q.denominator != 1 or q < 0:
            raise AssertionError("Molien coefficient is not a non-negative integer")
        out.append(int(q))
    return out


@lru_cache(maxsize=None)
def invariant_ideal_basis(spec: GroupSpec) -> GroebnerBasis:
    """Reduced Groebner basis of the fundamental-invariant ideal, with a
    coverage check: every Reynolds average of a monomial of degree up to
    max deg(f_i) lies in the ideal."""
    gens = list(fundamental_invariants(spec))
    gb = buchberger(gens)
    group = build_group(spec)
    top = max(f.degree() for f in gens)
    monos = [Poly2.monomial(i, d - i) for d in range(1, top + 1) for i in range(d + 1)]
    for mono, r in zip(monos, reynolds_many(group, monos)):
        if not r.is_zero() and not gb.contains(r):
            raise AssertionError(
                f"invariant of degree {mono.degree()} outside the fundamental ideal for {spec}")
    return gb


def zero_fiber_degree(spec: GroupSpec) -> int:
    """Dimension of C[x,y] / (positive-degree invariants): the number of
    standard monomials of the reduced Groebner basis."""
    gb = invariant_ideal_basis(spec)
    if not gb.is_zero_dimensional:
        raise AssertionError(f"invariant ideal of {spec} is not zero dimensional")
    return gb.quotient_dimension()
