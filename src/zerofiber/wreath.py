"""W_n(Gamma, Delta) as monomial quaternionic matrices: reflection
enumeration, hyperplane arrangement, the N / N* / g / h / k report, and the
appendix integrality identities.

An element is (w, gammas): the matrix diag(gamma_1..gamma_n) P_w, sending
e_j to e_{w(j)} gamma_{w(j)}.  Membership requires gamma_1...gamma_n in
Delta.  A reflection is held as its shape (kind, p, q, gamma), one of two:
a transposition (p q) with entries gamma and gamma^{-1} (type a), or the
identity permutation with a single entry delta in Delta - {1} at p (type
b).  The reflections are built from these shapes in O(N), with no scan of
W.  The proof that each is a reflection is in the docstring of
``reflections``, and each is also confirmed by the complex-codimension-2
kernel rank of r - 1 on 2 x 2 blocks: rank(delta - 1) = 2 on its own block
for type b, and 2 + rank(gamma gamma^{-1} - 1) = 2 for type a, whose block
depends only on gamma, so it is confirmed once per gamma and shared by the
C(n, 2) pairs (p, q).
A hyperplane is the tuple of the ids of its reflections in the reflection
list, built from the same shapes: the type-b reflections at coordinate p
share {x_p = 0}, and each type-a reflection has its own.  Both counts are
checked against their closed forms N and N*.  The appendix identities are
read off the same shapes, with no quaternion formed: (ii) and (iii) off the
operator f = sum_H alpha_H (alpha_H, .) / (alpha_H, alpha_H), held as its
diagonal and its sums of group matrices, (iii) as the Rayleigh quotient of
f at each normal, and (iv) off integer keys of flats.  Whether W
acts irreducibly on H^n is read off (n, |Gamma|, |Delta|) by a proven
closed form.  Tests certify on small groups that the enumeration equals a
scan of W, that the block rank equals the full 2n x 2n rank, that the
hyperplanes equal a deduplication of every reflection's normal by its
exact key, that the closed form equals a search for a W-stable subspace,
and that the appendix verdicts equal those of the quaternionic computation.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, NamedTuple

from .cyclotomic import Cyc
from .groups import FiniteGroup, Subgroup, mat_mul2


@dataclass(frozen=True)
class WreathContext:
    group: FiniteGroup
    sub: Subgroup
    n: int

    def __post_init__(self):
        if self.n < 1:
            raise ValueError(f"{self.where}: n must be at least 1, got {self.n}")
        if self.sub.group is not self.group:
            raise ValueError(f"{self.where}: subgroup {self.sub.name!r} of {self.sub.group.spec} "
                             f"is not a subgroup of {self.group.spec}")
        indices, mult = set(self.sub.indices), self.group.mult
        if 0 not in indices or not all(indices.issuperset(map(mult[a].__getitem__, indices))
                                       for a in indices):
            raise ValueError(f"{self.where}: {self.sub.indices} does not hold the identity "
                             f"or is not closed under multiplication")

    @property
    def where(self) -> str:
        """The input, as errors name it."""
        return f"Gamma {self.group.spec}, Delta {self.sub.name!r}, n = {self.n}"

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


class Reflection(NamedTuple):
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
    kernel rank of r - 1, on the 2 x 2 blocks of the coordinates it moves.
    Type b: rank(delta - 1) = 2, once per reflection.  Type a: adding gamma
    times block row q to block row p leaves gamma gamma^{-1} - 1 at (p, p)
    and 0 at (p, q), beside the invertible -1 at (q, q), so the rank is
    2 + rank(gamma gamma^{-1} - 1) = 2.  That block depends only on gamma,
    not on (p, q), so its rank is computed once per gamma in Gamma (when
    n >= 2) and shared by the C(n, 2) pairs.  The rank is read off the
    group's matrices themselves, not off the proof above: a matrix outside
    SU(2) such as [[1, 1], [0, 1]] as delta gives rank 1, and a wrong inverse
    in ``group.inv`` makes gamma gamma^{-1} - 1 nonzero; both fail, on the
    first failing reflection in list order.  The count is checked against
    N = C(n, 2)|Gamma| + n(|Delta| - 1).
    """
    group, sub, n = ctx.group, ctx.sub, ctx.n
    elements, inv = group.elements, group.inv
    one = Cyc.one(group.conductor)
    out = [Reflection("b", p, p, d) for p in range(n) for d in sub.indices if d != 0]
    out += [Reflection("a", p, q, g)
            for p, q in itertools.combinations(range(n), 2) for g in range(group.order)]
    a_rank = [_rank_minus_one(mat_mul2(elements[g], elements[inv[g]]), one)
              for g in range(group.order)] if n >= 2 else []
    for r in out:
        rank = _rank_minus_one(elements[r.gamma], one) if r.kind == "b" else 2 + a_rank[r.gamma]
        if rank != 2:
            raise AssertionError(f"{ctx.where}: candidate {r} fails the kernel confirmation")
    expected = n * (n - 1) // 2 * group.order + n * (sub.order - 1)
    if len(out) != expected:
        raise AssertionError(
            f"{ctx.where}: enumerated {len(out)} reflections, formula gives {expected}")
    return out


def _rank_minus_one(mat: tuple[Cyc, ...], one: Cyc) -> int:
    """rank of the 2 x 2 matrix mat - 1: 0 when it is zero, 2 when its
    determinant is not, and 1 otherwise."""
    a, b, c, d = mat
    a, d = a - one, d - one
    return 0 if not (a or b or c or d) else 2 if a * d - b * c else 1


def hyperplanes(ctx: WreathContext, refl: list[Reflection]) -> list[tuple[int, ...]]:
    """The fix hyperplanes of the reflections, built from their shapes, each
    as the ids of its reflections in ``refl``.

    The type-b reflections at coordinate p all fix {x_p = 0} and share one
    hyperplane; there is one for every p when Delta != 1.  A type-a
    reflection fixes {x_p = gamma x_q}, which is no coordinate hyperplane and
    determines p, q and gamma, so each has its own.  The count is checked
    against N* = C(n, 2)|Gamma| + n[Delta != 1].
    """
    coordinate: dict[int, list[int]] = {}
    single: list[tuple[int, ...]] = []
    for i, r in enumerate(refl):
        if r.kind == "b":
            coordinate.setdefault(r.p, []).append(i)
        else:
            single.append((i,))
    out = [tuple(ids) for ids in coordinate.values()] + single
    n = ctx.n
    expected = n * (n - 1) // 2 * ctx.group.order + (n if ctx.sub.order > 1 else 0)
    if len(out) != expected:
        raise AssertionError(
            f"{ctx.where}: built {len(out)} hyperplanes, formula gives {expected}")
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
                      planes: list[tuple[int, ...]]) -> NumerologyReport:
    """The report from the reflections and the hyperplanes, after the
    closed-form check on g, with irreducibility from its closed form.
    g + k = 2h holds by algebra, as g, h and k are read off the same N and
    N*."""
    n = ctx.n
    N, Nstar = len(refl), len(planes)
    g = Fraction(2 * N, n)
    h = Fraction(N + Nstar, n)
    k = Fraction(2 * Nstar, n)
    closed_form = (n - 1) * ctx.group.order + 2 * (ctx.sub.order - 1)
    if g != closed_form:
        raise AssertionError(
            f"{ctx.where}: g = 2N/n = {g} but the closed form gives {closed_form}")
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
    # each verdict is pass or, for (ii)-(iv) on a reducible module,
    # fail(reducible); any other failure raises
    trace_identity: str
    f_operator: str
    pairing_sum: str
    k_identity: str


def appendix_report(ctx: WreathContext, refl: list[Reflection],
                    planes: list[tuple[int, ...]], report: NumerologyReport) -> AppendixReport:
    """The appendix identities (i)-(iv), read off the shapes of the
    hyperplanes with no quaternion formed.  They assume that W acts
    irreducibly: on a reducible module a failed identity is reported as
    fail(reducible), while on an irreducible one it raises.

    For the form (x, y) = sum_s conj(x_s) y_s, a type-b hyperplane {x_p = 0}
    has normal e_p of norm 1, and a type-a one (p, q, gamma), p < q, is
    {x_p = gamma x_q}, with normal e_p - e_q gamma^-1 of norm 2.  A unit
    quaternion u is read as its 2 x 2 group matrix, which is additive and
    multiplicative, with trace 2 Re u.

    (i) sum_r tr_C(1 - r) = 2(N + N*), with tr_C(r) read off the shape:
    2(n - 1) + tr delta for type b and 2(n - 2) for type a.

    (ii) f = sum_H alpha_H (alpha_H, .) / (alpha_H, alpha_H) = (k/2) 1, on
    its entries from ``_f_operator``.

    (iii) 2 sum_K t(H, K) = k for every H, with
    t(H, K) = |(alpha_K, alpha_H)|^2 / ((alpha_K, alpha_K)(alpha_H, alpha_H)).
    The sum is the Rayleigh quotient (alpha_H, f alpha_H) / (alpha_H, alpha_H)
    of f at alpha_H, as (alpha_H, f alpha_H) = sum_K |(alpha_K, alpha_H)|^2 /
    (alpha_K, alpha_K); see ``_rayleigh_quotients``.

    (iv) |A^H| = N* + 1 - k for every H, where A^H holds the distinct flats
    H cap K, K != H, each keyed by integers (``_meet_key``):
    - {x_p = x_q = 0}: from two type-b hyperplanes, a type-b one at p or q
      with (p, q, gamma), or (p, q, gamma) with (p, q, delta), as
      (gamma - delta) x_q = 0 and a nonzero quaternion is invertible;
    - {x_r = 0, x_p = gamma x_q}, r not in {p, q};
    - two type-a equations on disjoint pairs;
    - a linked triple u < v < w: type-a equations on two pairs that share
      one coordinate give x_u = a x_w and x_v = b x_w, with a and b composed
      through group.mult and group.inv, and the flat determines (a, b).
    Flats of different kinds differ in the coordinates they set to zero or
    tie together, so two pairs share a key exactly when they share a flat.
    """
    group, n = ctx.group, ctx.n
    N, Nstar, k = report.N, report.Nstar, report.k
    shapes = [refl[ids[0]] for ids in planes]

    def verdict(failure: str) -> str:
        if not failure:
            return "pass"
        if not report.irreducible:
            return "fail(reducible)"
        raise AssertionError(failure)

    # (i)
    traces = sum((group.trace(r.gamma) for r in refl if r.kind == "b"), Cyc.zero(group.conductor))
    total = (2 * n * N - 2 * (n - 1) * report.count_b - 2 * (n - 2) * report.count_a
             - traces.as_rational())
    if total != 2 * (N + Nstar):
        raise AssertionError(f"trace identity fails: {total} != {2 * (N + Nstar)}")

    # (ii)
    f = _f_operator(group, n, shapes)
    diagonal, sums = f
    failure = ""
    if any(x != k / 2 for x in diagonal):
        failure = "f-operator identity fails on the diagonal"
    elif any(not x.is_zero() for mat in sums.values() for x in mat):
        failure = "f-operator identity fails off the diagonal"
    f_verdict = verdict(failure)

    # (iii)
    failure = next((f"pairing sum fails for a hyperplane: {2 * t} != {k}"
                    for t in _rayleigh_quotients(group, shapes, f) if 2 * t != k), "")
    pairing_verdict = verdict(failure)

    # (iv): the key of H cap K is computed once per unordered pair
    meets: list[set[tuple[int, ...]]] = [set() for _ in shapes]
    for a, b in itertools.combinations(range(Nstar), 2):
        key = _meet_key(group, shapes[a], shapes[b])
        meets[a].add(key)
        meets[b].add(key)
    failure = next((f"|A^H| = {len(ks)} != N* + 1 - k = {Nstar + 1 - k}"
                    for ks in meets if len(ks) != Nstar + 1 - k), "")
    k_verdict = verdict(failure)

    return AppendixReport(report, "pass", f_verdict, pairing_verdict, k_verdict)


def _f_operator(group: FiniteGroup, n: int, shapes: list[Reflection]) -> tuple:
    """The entries of f = sum_H alpha_H (alpha_H, .) / (alpha_H, alpha_H) over
    the hyperplanes of the shapes: its diagonal, and S_pq per pair p < q that
    carries a type-a hyperplane.

    e_p adds 1 at (p, p); (p, q, gamma) adds 1/2 at (p, p) and (q, q), -gamma/2
    at (p, q) and -gamma^-1/2 at (q, p).  So f_ii = #type-b at i + #type-a
    through i / 2, and f_pq = -S_pq / 2 = -f_qp^*, with S_pq the sum of the
    group matrices gamma over the type-a hyperplanes on {p, q}.
    """
    diagonal = [Fraction(0)] * n
    sums: dict[tuple[int, int], tuple[Cyc, ...]] = {}
    for s in shapes:
        if s.kind == "b":
            diagonal[s.p] += 1
            continue
        diagonal[s.p] += Fraction(1, 2)
        diagonal[s.q] += Fraction(1, 2)
        pair, mat = (s.p, s.q), group.elements[s.gamma]
        sums[pair] = tuple(x + y for x, y in zip(sums[pair], mat)) if pair in sums else mat
    return diagonal, sums


def _rayleigh_quotients(group: FiniteGroup, shapes: list[Reflection], f: tuple) -> list:
    """(alpha_H, f alpha_H) / (alpha_H, alpha_H) for each hyperplane H of the
    shapes, from the entries of f (``_f_operator``): f_pp for e_p, and
    (f_pp + f_qq + Re(S_pq gamma^-1)) / 2 = (f_pp + f_qq) / 2 + tr(S_pq gamma^-1) / 4
    for e_p - e_q gamma^-1, of norm 2, as a quaternion's matrix has trace 2 Re.
    """
    diagonal, sums = f
    # tr(S_pq gamma^-1) = sum_ij (S_pq)_ij conj(gamma_ij), as gamma^-1 = gamma^*
    return [diagonal[s.p] if s.kind == "b" else
            (diagonal[s.p] + diagonal[s.q]) / 2
            + sum(x * y.conj() for x, y in zip(sums[s.p, s.q], group.elements[s.gamma])) / 4
            for s in shapes]


def _meet_key(group: FiniteGroup, h: Reflection, k: Reflection) -> tuple[int, ...]:
    """An integer key of the flat H cap K of two distinct hyperplanes, each
    given by the shape of one of its reflections; the kinds of flat are
    listed in ``appendix_report``."""
    if h.kind == "b" and k.kind == "b":
        return (0, min(h.p, k.p), max(h.p, k.p))
    if k.kind == "b":
        h, k = k, h
    if h.kind == "b":
        return (0, k.p, k.q) if h.p in (k.p, k.q) else (1, h.p, k.p, k.q, k.gamma)
    if (h.p, h.q) == (k.p, k.q):
        return (0, h.p, h.q)
    if not {h.p, h.q} & {k.p, k.q}:
        eqs = sorted([(h.p, h.q, h.gamma), (k.p, k.q, k.gamma)])
        return (2, *eqs[0], *eqs[1])
    coef = {max(h.q, k.q): 0}  # x_i = coef[i] x_w, as group elements
    while len(coef) < 3:
        for e in (h, k):
            if e.q in coef and e.p not in coef:
                coef[e.p] = group.mult[e.gamma][coef[e.q]]             # x_p = gamma x_q
            elif e.p in coef and e.q not in coef:
                coef[e.q] = group.mult[group.inv[e.gamma]][coef[e.p]]  # x_q = gamma^-1 x_p
    u, v, w = sorted(coef)
    return (3, u, v, w, coef[u], coef[v])
