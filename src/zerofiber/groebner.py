"""Buchberger's algorithm under lex order with exact coefficients.

Produces the reduced (hence canonical) Groebner basis together with
cofactor certificates expressing every basis element as an explicit
combination of the original generators, so ideal-membership witnesses
come for free from the division algorithm.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass
from functools import cached_property

from .poly2 import Monomial, Poly2, mono_div, mono_divides, mono_lcm


def normal_form(p: Poly2, basis: list[Poly2], cofcs: list[list[Poly2]] | None = None,
                p_cof: list[Poly2] | None = None) -> tuple[Poly2, list[Poly2] | None]:
    """Full normal form of p against basis (every term reduced).

    If cofactor tracking is on, p_cof is p's certificate over the original
    generators and cofcs[i] is basis[i]'s; the returned certificate is the
    remainder's.

    A reduction never touches the remainder: max(work) strictly decreases,
    and each reduction adds only monomials below the current m, so every
    key of rem exceeds every monomial still in work.
    """
    track = cofcs is not None
    out_cof = list(p_cof) if track else None
    work = dict(p.terms)
    rem: dict[Monomial, object] = {}
    leads = [b.lead_monomial() for b in basis]
    lcs = [b.lead_coeff() for b in basis]
    while work:
        m = max(work)
        c = work.pop(m)
        for idx, lm in enumerate(leads):
            if mono_divides(lm, m):
                q = c if lcs[idx] == 1 else c * lcs[idx].inverse()
                shifted = basis[idx].mul_term(mono_div(m, lm), q)
                for mm, cc in shifted.terms.items():
                    if mm == m:
                        continue
                    if mm in work:
                        s = work[mm] - cc
                        if s.is_zero():
                            del work[mm]
                        else:
                            work[mm] = s
                    else:
                        work[mm] = -cc
                if track:
                    qp = Poly2({mono_div(m, lm): q})
                    out_cof[:] = [oc - qp * bc for oc, bc in zip(out_cof, cofcs[idx])]
                break
        else:
            rem[m] = c
    return Poly2(rem, _clean=True), out_cof


def s_poly_parts(f: Poly2, g: Poly2) -> tuple[Poly2, Poly2, Monomial, Monomial]:
    lf, lg = f.lead_monomial(), g.lead_monomial()
    lcm = mono_lcm(lf, lg)
    tf, tg = mono_div(lcm, lf), mono_div(lcm, lg)
    cf, cg = f.lead_coeff(), g.lead_coeff()
    # s = (1/cf) x^tf f - (1/cg) x^tg g
    return f.mul_term(tf, cf.inverse()), g.mul_term(tg, cg.inverse()), tf, tg


def staircase(leads: Sequence[Monomial]) -> tuple[Monomial, ...]:
    """The monomials that no lead monomial divides, column by column in x.

    In column a, x^a y^b is standard when b is below every lead y-exponent
    with x-exponent at most a.  The staircase is finite only when the leads
    contain a pure power of x and a pure power of y; otherwise this raises.
    """
    ax = min((a for a, b in leads if b == 0), default=None)
    if ax is None or not any(a == 0 for a, _ in leads):
        raise ValueError("quotient is infinite dimensional")
    return tuple((a, b) for a in range(ax)
                 for b in range(min(lb for la, lb in leads if la <= a)))


@dataclass(frozen=True)
class GroebnerBasis:
    """Reduced monic lex Groebner basis with membership certificates."""

    gens: tuple[Poly2, ...]
    polys: tuple[Poly2, ...]
    cofactors: tuple[tuple[Poly2, ...], ...]

    @property
    def lead_monomials(self) -> tuple[Monomial, ...]:
        return tuple(p.lead_monomial() for p in self.polys)

    @cached_property
    def is_zero_dimensional(self) -> bool:
        leads = self.lead_monomials
        return any(b == 0 for _, b in leads) and any(a == 0 for a, _ in leads)

    @cached_property
    def standard_monomials(self) -> tuple[Monomial, ...]:
        return staircase(self.lead_monomials)

    def quotient_dimension(self) -> int:
        return len(self.standard_monomials)

    def reduce(self, p: Poly2) -> Poly2:
        return normal_form(p, list(self.polys))[0]

    def membership_witness(self, p: Poly2) -> tuple[Poly2, list[Poly2]]:
        """Remainder and a certificate: p = sum cert_i * gens_i + remainder."""
        zero = [Poly2.zero() for _ in self.gens]
        rem, cof = normal_form(p, list(self.polys), [list(c) for c in self.cofactors],
                               list(zero))
        witness = [-c for c in cof]
        return rem, witness

    def verify(self) -> None:
        """Every S-polynomial reduces to zero; cofactors reproduce the basis."""
        basis = list(self.polys)
        for i in range(len(basis)):
            for j in range(i + 1, len(basis)):
                sf, sg, _, _ = s_poly_parts(basis[i], basis[j])
                rem, _ = normal_form(sf - sg, basis)
                if not rem.is_zero():
                    raise AssertionError(f"S-poly of basis {i},{j} does not reduce to 0")
        for p, cof in zip(self.polys, self.cofactors):
            acc = Poly2.zero()
            for c, g in zip(cof, self.gens):
                acc = acc + c * g
            if acc != p:
                raise AssertionError("cofactor certificate mismatch")


def buchberger(gens: list[Poly2]) -> GroebnerBasis:
    """Reduced lex Groebner basis with Gebauer-Moeller pair elimination."""
    gens = [g for g in gens if not g.is_zero()]
    if not gens:
        raise ValueError("no nonzero generators")
    orig = tuple(gens)
    basis: list[Poly2] = []
    cofs: list[list[Poly2]] = []
    pairs: set[tuple[int, int]] = set()

    def lcm_of(i: int, j: int) -> Monomial:
        return mono_lcm(basis[i].lead_monomial(), basis[j].lead_monomial())

    def add_poly(p: Poly2, cof: list[Poly2]) -> None:
        norm = p.primitive()
        if norm is not p:
            # primitive() scaled p by a constant; scale its certificate alike
            factor = norm.lead_coeff() * p.lead_coeff().inverse()
            cof = [c * factor for c in cof]
        t = len(basis)
        lm_t = norm.lead_monomial()
        lcms = [mono_lcm(b.lead_monomial(), lm_t) for b in basis]
        # the chain criterion (B) on the old pairs
        for i, j in list(pairs):
            lij = lcm_of(i, j)
            if mono_divides(lm_t, lij) and lcms[i] != lij and lcms[j] != lij:
                pairs.discard((i, j))
        # One Gebauer-Moeller pass over the new pairs (i, t): drop a pair when
        # another new pair's lcm properly divides its lcm (M), when an earlier
        # pair kept by M has the same lcm (F), or when the leads are coprime.
        seen: set[Monomial] = set()
        for i, li in enumerate(lcms):
            if li in seen or any(lj != li and mono_divides(lj, li) for lj in lcms):
                continue
            seen.add(li)
            lmi = basis[i].lead_monomial()
            if li != (lmi[0] + lm_t[0], lmi[1] + lm_t[1]):
                pairs.add((i, t))
        basis.append(norm)
        cofs.append(cof)

    for idx, g in enumerate(orig):
        cof = [Poly2.zero() for _ in orig]
        cof[idx] = Poly2.constant(1)
        rem, rcof = normal_form(g, basis, cofs, cof)
        if not rem.is_zero():
            add_poly(rem, rcof)

    while pairs:
        i, j = min(pairs, key=lambda ij: (sum(lcm_of(*ij)), lcm_of(*ij)))
        pairs.discard((i, j))
        sf, sg, tf, tg = s_poly_parts(basis[i], basis[j])
        s = sf - sg
        scof = [Poly2({tf: basis[i].lead_coeff().inverse()}) * ci
                - Poly2({tg: basis[j].lead_coeff().inverse()}) * cj
                for ci, cj in zip(cofs[i], cofs[j])]
        rem, rcof = normal_form(s, basis, cofs, scof)
        if not rem.is_zero():
            add_poly(rem, rcof)

    # minimalize: drop elements whose lead is divisible by another's lead
    order = sorted(range(len(basis)), key=lambda k: basis[k].lead_monomial())
    keep: list[int] = []
    for k in order:
        lmk = basis[k].lead_monomial()
        if not any(mono_divides(basis[t].lead_monomial(), lmk) for t in keep):
            keep.append(k)
    min_basis = [basis[k] for k in keep]
    min_cofs = [list(cofs[k]) for k in keep]

    # inter-reduce tails in one pass and make monic: no lead divides another,
    # so reduction keeps every lead, and a tail reduced against the other
    # leads stays reduced while the other tails change
    for k in range(len(min_basis)):
        others = min_basis[:k] + min_basis[k + 1:]
        ocofs = min_cofs[:k] + min_cofs[k + 1:]
        min_basis[k], min_cofs[k] = normal_form(min_basis[k], others, ocofs, min_cofs[k])
    final = []
    final_cofs = []
    for p, cof in zip(min_basis, min_cofs):
        lc = p.lead_coeff()
        if lc != 1:
            inv = lc.inverse()
            p = p.scale(inv)
            cof = [c * inv for c in cof]
        final.append(p)
        final_cofs.append(tuple(cof))
    order2 = sorted(range(len(final)), key=lambda k: final[k].lead_monomial(), reverse=True)
    return GroebnerBasis(
        gens=orig,
        polys=tuple(final[k] for k in order2),
        cofactors=tuple(final_cofs[k] for k in order2),
    )
