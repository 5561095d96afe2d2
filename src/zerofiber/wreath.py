"""W_n(Gamma, Delta) as monomial quaternionic matrices: reflection
enumeration, hyperplane arrangement, the N / N* / g / h / k report, and the
appendix integrality identities.

An element is (w, gammas): the matrix diag(gamma_1..gamma_n) P_w, sending
e_j to e_{w(j)} gamma_{w(j)}.  Membership requires gamma_1...gamma_n in
Delta.  The reflections are built from their two proven shapes (a
transposition whose two entries multiply to 1, or the identity permutation
with a single entry in Delta - {1}) in O(N), with no scan of W.  The proof
that each is a reflection is in the docstring of ``reflections``, and each
is also confirmed by the complex-codimension-2 kernel rank in the
2n-dimensional complex restriction.  r - 1 vanishes on every row and column
of a coordinate that r neither permutes nor scales, so that rank is taken on
the moved coordinates only: a 2 x 2 block for type b and 4 x 4 for type a.
The hyperplanes are built from the same shapes: the type-b reflections at
coordinate p share {x_p = 0}, and each type-a reflection has its own.  Both
counts are checked against their closed forms N and N*.  No quaternion is
formed on this path: ``alpha_of`` builds a hyperplane's normal only where the
appendix identities read it.  Whether W acts irreducibly on H^n is read off
(n, |Gamma|, |Delta|) by a proven closed form, with no elimination.  Tests
certify on small groups that the enumeration equals an element-by-element
scan of W, that the block rank equals the rank of the full 2n x 2n matrix,
that the hyperplanes equal a deduplication of every reflection's normal by
its exact key, and that the closed form equals a search for a W-stable
subspace of the arrangement.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property
from fractions import Fraction
from typing import Iterator, NamedTuple

from .cyclotomic import Cyc
from .groups import FiniteGroup, Subgroup
from .linalg import quat_rref_key, rank
from .quaternion import Quaternion, hermitian_form, quat_from_matrix

APPENDIX_N_CAP = 3
APPENDIX_GAMMA_CAP = 24


class MonomialElement(NamedTuple):
    perm: tuple[int, ...]    # perm[j] = image of j
    gammas: tuple[int, ...]  # Gamma element indices, gammas[i] sits in row i


@dataclass(frozen=True)
class WreathContext:
    group: FiniteGroup
    sub: Subgroup
    n: int

    @property
    def order(self) -> int:
        g, d, n = self.group.order, self.sub.order, self.n
        fact = 1
        for k in range(2, n + 1):
            fact *= k
        return g ** (n - 1) * d * fact

    def raw_elements(self) -> Iterator[tuple[tuple[int, ...], tuple[int, ...]]]:
        group, sub, n = self.group, self.sub, self.n
        perms = list(itertools.permutations(range(n)))
        mult, inv = group.mult, group.inv
        for head in itertools.product(range(group.order), repeat=n - 1):
            prod = 0
            for g in head:
                prod = mult[prod][g]
            ip = inv[prod]
            for d in sub.indices:
                gammas = head + (mult[ip][d],)
                for w in perms:
                    yield w, gammas

    def elements(self) -> Iterator[MonomialElement]:
        for w, gammas in self.raw_elements():
            yield MonomialElement(w, gammas)

    @cached_property
    def unit_quaternions(self) -> tuple[Quaternion, ...]:
        """The unit quaternion of each element of Gamma, by element index."""
        return tuple(quat_from_matrix(mat) for mat in self.group.elements)

    def complex_trace(self, el: MonomialElement) -> Cyc:
        """tr_C(el) on the 2n-dimensional complex restriction.  Only the
        diagonal blocks count, at the coordinates i with perm[i] = i, and
        each is the 2 x 2 matrix of gamma_i itself."""
        trace = self.group.trace
        return sum((trace(g) for i, (w, g) in enumerate(zip(el.perm, el.gammas)) if w == i),
                   Cyc.zero(self.group.conductor))

    def complex_codim_of_fix(self, el: MonomialElement) -> int:
        """rank over C of (r - 1) on the 2n-dimensional complex restriction.

        Only the coordinates that el moves (perm[i] != i, or gammas[i] not
        the identity) enter: on any other coordinate i, row i and column i of r - 1 are
        zero, so dropping them keeps the rank.  The moved coordinates are
        closed under perm.  On them, r is the block matrix whose block at
        (w(j), j) is the complex embedding of q(gamma_{w(j)}), which is the
        group element's own 2 x 2 matrix.
        """
        moved = [i for i in range(self.n) if el.perm[i] != i or el.gammas[i] != 0]
        pos = {i: 2 * k for k, i in enumerate(moved)}
        m = self.group.conductor
        zero, one = Cyc.zero(m), Cyc.one(m)
        size = 2 * len(moved)
        mat = [[zero] * size for _ in range(size)]
        for j in moved:
            i = el.perm[j]
            r, s = pos[i], pos[j]
            a, b, c, d = self.group.elements[el.gammas[i]]
            mat[r][s], mat[r][s + 1], mat[r + 1][s], mat[r + 1][s + 1] = a, b, c, d
        for k in range(size):
            mat[k][k] = mat[k][k] - one
        return rank(tuple(tuple(row) for row in mat))


class Reflection(NamedTuple):
    element: MonomialElement
    kind: str            # "a" or "b"
    p: int
    q: int               # q == p for kind "b"
    gamma: int           # Gamma index: row-p entry for kind "a", the entry for kind "b"


def reflections(ctx: WreathContext) -> list[Reflection]:
    """All elements with quaternionic fix-space codimension 1, built from
    their two shapes rather than found by a scan of W.

    Type b: the identity permutation with one coordinate delta in Delta - {1}.
    Type a: the transposition (p q), p < q, with gamma_p = gamma and
    gamma_q = gamma^{-1} for each gamma in Gamma.  r - 1 vanishes outside the
    coordinates r moves, and on them it has quaternionic rank 1:

    - type b: the block delta - 1 with delta in SU(2) - {1} has no
      eigenvalue 1 (det delta = 1 makes an eigenvalue 1 a double one, and a
      unitary matrix with the single eigenvalue 1 is 1), so it is invertible;
    - type a: the block [[-1, gamma], [gamma^{-1}, -1]] has second block row
      -gamma^{-1} times the first, which is nonzero.

    Each one is also confirmed at run time by the complex-codimension-2
    kernel rank of that block, and the count is checked against
    N = C(n, 2)|Gamma| + n(|Delta| - 1).
    """
    group, sub, n = ctx.group, ctx.sub, ctx.n
    ident = tuple(range(n))
    out: list[Reflection] = []
    for p in range(n):
        for d in sub.indices:
            if d != 0:
                gammas = (0,) * p + (d,) + (0,) * (n - 1 - p)
                out.append(Reflection(MonomialElement(ident, gammas), "b", p, p, d))
    for p, q in itertools.combinations(range(n), 2):
        w = ident[:p] + (q,) + ident[p + 1:q] + (p,) + ident[q + 1:]
        for g in range(group.order):
            gammas = [0] * n
            gammas[p], gammas[q] = g, group.inv[g]
            out.append(Reflection(MonomialElement(w, tuple(gammas)), "a", p, q, g))
    for r in out:
        if ctx.complex_codim_of_fix(r.element) != 2:
            raise AssertionError(f"candidate {r} fails the kernel confirmation")
    expected = n * (n - 1) // 2 * group.order + n * (sub.order - 1)
    if len(out) != expected:
        raise AssertionError(
            f"enumerated {len(out)} reflections, formula gives {expected}")
    return out


@dataclass(frozen=True)
class Hyperplane:
    reflection_ids: tuple[int, ...]  # indices into the reflection list

    @property
    def stabilizer_order(self) -> int:
        return 1 + len(self.reflection_ids)


def alpha_of(ctx: WreathContext, r: Reflection) -> tuple[Quaternion, ...]:
    """The normal of the hyperplane that r fixes, with its first nonzero
    coordinate 1: e_p for type b, and e_p - e_q gamma^{-1} for type a, whose
    hyperplane is x_p = gamma x_q."""
    m = ctx.group.conductor
    alpha = [Quaternion.zero(m)] * ctx.n
    alpha[r.p] = Quaternion.one(m)
    if r.kind == "a":
        alpha[r.q] = -ctx.unit_quaternions[r.gamma].conj()  # -gamma^{-1} for unit gamma
    return tuple(alpha)


def hyperplanes(ctx: WreathContext, refl: list[Reflection]) -> list[Hyperplane]:
    """The fix hyperplanes of the reflections, built from their shapes.

    The type-b reflections at coordinate p all fix {x_p = 0} and share one
    hyperplane; there is one for every p when Delta != 1.  A type-a
    reflection fixes {x_p = gamma x_q}, which is no coordinate hyperplane and
    determines p, q and gamma, so each has its own.  The count is checked
    against N* = C(n, 2)|Gamma| + n[Delta != 1].
    """
    coordinate: dict[int, list[int]] = {}
    single: list[Hyperplane] = []
    for i, r in enumerate(refl):
        if r.kind == "b":
            coordinate.setdefault(r.p, []).append(i)
        else:
            single.append(Hyperplane((i,)))
    out = [Hyperplane(tuple(ids)) for ids in coordinate.values()] + single
    n = ctx.n
    expected = n * (n - 1) // 2 * ctx.group.order + (n if ctx.sub.order > 1 else 0)
    if len(out) != expected:
        raise AssertionError(
            f"built {len(out)} hyperplanes, formula gives {expected}")
    return out


@dataclass(frozen=True)
class NumerologyReport:
    gamma: str
    delta: str
    n: int
    N: int
    Nstar: int
    count_a: int
    count_b: int
    g: Fraction
    h: Fraction
    k: Fraction
    irreducible: bool

    @property
    def integral(self) -> dict[str, bool]:
        return {
            "g": self.g.denominator == 1,
            "h": self.h.denominator == 1,
            "k": self.k.denominator == 1,
        }


def module_is_irreducible(ctx: WreathContext) -> bool:
    """H^n is an irreducible H-linear W-module exactly when n = 1, or when
    |Gamma| > 1 and (n, |Gamma|, |Delta|) != (2, 2, 1).

    W acts on column vectors from the left and H on them from the right.
    n = 1: H has no proper nonzero H-subspaces.  Otherwise let D be the
    diagonal part of W; it acts on each line e_i H through gamma_i.  A D-map
    e_i H -> e_j H is e_i x -> e_j q x for some q in H with q d_i = d_j q for
    every d = (d_1, ..., d_n) in D.

    - n >= 3, Gamma != 1: for gamma != 1 and k not in {i, j}, d = (gamma at i,
      gamma^-1 at k) lies in D and gives q gamma = q, so q = 0.
    - n = 2, Delta != 1: d = (delta, 1) with delta != 1 gives the same.

    In both cases the lines are pairwise non-isomorphic simple D-modules.  By
    Maschke's theorem a W-stable subspace V is a sum of simple D-modules, and
    each, isomorphic to some e_i H, projects to zero on every other line, so
    V is a sum of lines.  The permutation matrices (all gamma_i = 1) lie in W
    and move any line to any other, so V = 0 or V = H^n.

    - n = 2, Delta = 1: the swap moves e_1 H to e_2 H, so a stable line is a
      graph {(x, q x)}.  Stability under d = (gamma, gamma^-1) asks
      q gamma = gamma^-1 q, and under the swap q^2 = 1.  Since
      (a + v)^2 = a^2 - |v|^2 + 2av for real a and pure imaginary v,
      q^2 = 1 forces q = +-1, so gamma = gamma^-1 for all gamma.
      If |Gamma| >= 3 that fails, as +-1 are the only elements of order at
      most 2 in SU(2).  If Gamma = {+-1}, q = 1 works: {(x, x)} is stable.
    - Gamma = 1, n >= 2: W = S_n fixes (1, ..., 1).
    """
    n, gamma_order, delta_order = ctx.n, ctx.group.order, ctx.sub.order
    return n == 1 or (gamma_order > 1 and (n, gamma_order, delta_order) != (2, 2, 1))


def numerology(ctx: WreathContext) -> NumerologyReport:
    refl = reflections(ctx)
    return numerology_report(ctx, refl, hyperplanes(ctx, refl))


def numerology_report(ctx: WreathContext, refl: list[Reflection],
                      planes: list[Hyperplane]) -> NumerologyReport:
    """The report from the reflections and the hyperplanes, after the
    closed-form checks on g and g + k = 2h, with irreducibility from its
    closed form."""
    n = ctx.n
    N, Nstar = len(refl), len(planes)
    g = Fraction(2 * N, n)
    h = Fraction(N + Nstar, n)
    k = Fraction(2 * Nstar, n)
    closed_form = (n - 1) * ctx.group.order + 2 * (ctx.sub.order - 1)
    if g != closed_form:
        raise AssertionError(f"g = 2N/n = {g} but the closed form gives {closed_form}")
    if g + k != 2 * h:
        raise AssertionError("g + k != 2h")
    count_a = sum(1 for r in refl if r.kind == "a")
    count_b = N - count_a
    return NumerologyReport(
        gamma=str(ctx.group.spec) if ctx.group.spec else "custom",
        delta=ctx.sub.name,
        n=n,
        N=N,
        Nstar=Nstar,
        count_a=count_a,
        count_b=count_b,
        g=g,
        h=h,
        k=k,
        irreducible=module_is_irreducible(ctx),
    )


@dataclass(frozen=True)
class AppendixReport:
    numerology: NumerologyReport
    # each verdict is pass, skipped(cap) or, for (ii)-(iv) on a reducible
    # module, fail(reducible); any other failure raises
    trace_identity: str
    f_operator: str
    pairing_sum: str
    k_identity: str
    irreducibility_warning: bool


def appendix_checks(ctx: WreathContext, enforce_caps: bool = True) -> AppendixReport:
    """The four appendix identities, exact.  (ii)-(iv) are O(N*^2) exact
    subspace computations and are capped by default.  They assume that W
    acts irreducibly: on a reducible module a failed identity is reported
    as fail(reducible), while on an irreducible one it raises."""
    refl = reflections(ctx)
    planes = hyperplanes(ctx, refl)
    report = numerology_report(ctx, refl, planes)
    n, m = ctx.n, ctx.group.conductor
    N, Nstar, k = report.N, report.Nstar, report.k

    def verdict(failure: str) -> str:
        if not failure:
            return "pass"
        if not report.irreducible:
            return "fail(reducible)"
        raise AssertionError(failure)

    # (i) sum over reflections of tr_C(1 - r) equals 2(N + N*)
    acc_tr = sum((ctx.complex_trace(r.element) for r in refl), Cyc.zero(m))
    total = 2 * n * N - acc_tr.as_rational()
    if total != 2 * (N + Nstar):
        raise AssertionError(f"trace identity fails: {total} != {2 * (N + Nstar)}")
    trace_verdict = "pass"

    capped = enforce_caps and (
        n > APPENDIX_N_CAP or ctx.group.order > APPENDIX_GAMMA_CAP)
    if capped:
        return AppendixReport(report, trace_verdict, "skipped(cap)", "skipped(cap)",
                              "skipped(cap)", not report.irreducible)

    alphas = [alpha_of(ctx, refl[h.reflection_ids[0]]) for h in planes]
    norms = [hermitian_form(a, a).z1.as_rational() for a in alphas]

    # (ii) f(v) = sum_H alpha_H (alpha_H, v) / (alpha_H, alpha_H) = (k/2) v
    zero_q = Quaternion.zero(m)
    half_k = Quaternion(Cyc.rational(k / 2, m), Cyc.zero(m))
    failure = ""
    for i in range(n):
        acc = [zero_q] * n
        for alpha, nrm in zip(alphas, norms):
            # (alpha_H, e_i) = conj(alpha_H[i])
            coef = alpha[i].conj()
            scale = Fraction(1, 1) / nrm
            for p in range(n):
                acc[p] = acc[p] + (alpha[p] * coef) * scale
        if any(acc[p] != (half_k if p == i else zero_q) for p in range(n)):
            failure = "f-operator identity fails"
            break
    f_verdict = verdict(failure)

    # (iii) 2 sum_K |(alpha_K, alpha_H)|^2 / ((alpha_K,alpha_K)(alpha_H,alpha_H)) = k;
    # the term is symmetric in H and K, so each unordered pair is paired once
    sums = [Cyc.zero(m)] * Nstar
    for a, b in itertools.combinations_with_replacement(range(Nstar), 2):
        # |(alpha_K, alpha_H)|^2 is real but not always rational
        val = hermitian_form(alphas[a], alphas[b]).norm() / (norms[a] * norms[b])
        sums[a] = sums[a] + val
        if a != b:
            sums[b] = sums[b] + val
    failure = next((f"pairing sum fails for a hyperplane: {2 * s} != {k}"
                    for s in sums if 2 * s != k), "")
    pairing_verdict = verdict(failure)

    # (iv) |A^H| = N* + 1 - k for every H; the key of H cap K is computed
    # once per unordered pair and counted for both H and K
    rows = [tuple(q.conj() for q in alpha) for alpha in alphas]
    keys: list[set[tuple]] = [set() for _ in alphas]
    for a, b in itertools.combinations(range(Nstar), 2):
        key = quat_rref_key((rows[a], rows[b]))
        keys[a].add(key)
        keys[b].add(key)
    failure = next((f"|A^H| = {len(ks)} != N* + 1 - k = {Nstar + 1 - k}"
                    for ks in keys if len(ks) != Nstar + 1 - k), "")
    k_verdict = verdict(failure)

    return AppendixReport(report, trace_verdict, f_verdict, pairing_verdict, k_verdict,
                          not report.irreducible)
