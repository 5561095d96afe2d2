"""Reference implementations that the tests compare the package against.

``rref`` and ``kernel_basis`` are the Gauss-Jordan elimination with exact
division that the division-free ``linalg.rank`` replaced; ``mat_mul`` and
``identity`` build dense matrices; ``quaternion_matrix`` and
``quat_matrix_embed`` build the dense quaternionic and complex matrices of a
monomial element; ``structural_fix_codim`` reads the quaternionic
codimension of an element's fixed space off its cycle structure, the
criterion that the kernel rank certifies.  ``MonomialElement`` is a general
element of W, ``element_of`` builds one from a reflection's shape, and
``complex_codim_of_fix`` is the cycle-holonomy rule for the kernel rank of
any element, which the check of each reflection on its own 2 x 2 block in
``wreath.reflections`` replaced.  ``key_bucketed_hyperplanes`` is
the deduplication of the reflections' normals by exact row key that the
construction of ``wreath.hyperplanes`` by shape replaced.
``stability_search_is_irreducible`` is the search for a W-stable hyperplane
or total intersection of the arrangement that the closed form of
``wreath.module_is_irreducible`` replaced; ``row_times`` moves its equation
rows by monomial shape.  ``quaternionic_appendix_identities`` is the exact
quaternionic computation of the appendix identities (ii)-(iv) that reading
them off the hyperplanes' shapes in ``wreath.appendix_report`` replaced,
with ``quaternionic_pairing_sums`` for (iii).  It and the other
quaternionic oracles use ``quaternion_basis``,
``quat_from_matrix``, ``hermitian_form``, ``unit_quaternions`` and
``alpha_of``, the normal of a reflection's hyperplane;
``monomial_elements`` lists every element of W.

``bd_table``, ``bt_table``, ``bo_table`` and ``bi_table`` are the
closed-form and stored character tables that the McKay sieve replaced;
``element_order`` and ``power`` read what they need off the multiplication
table.  ``pairwise_maximal`` is the O(c^2) maximality filter over the
admissible roots that the highest roots theta_j of ``mckay._l_data``
replaced, and ``maximal_admissible_alpha`` picks alpha among the roots it
keeps.  ``columns_are_orthogonal`` is the column
half of the table check, which row orthonormality of a square table implies.
``hermitian_sum`` is the term-by-term Hermitian sum over coefficient pairs
that the packed dot product of ``characters.hermitian_dot`` replaced.
``brute_force_gram`` is every inner product of a left and a right list,
where ``characters.gram_entries`` computes the entries i <= j and takes
those between linear rows from the first row.

``sigma_c`` is the minimal set of the roots that pair to zero with c, found
by ``all_roots_with_pairing_zero``: the re-check that the integer bound in
``mckay.generic_on_hyperplane`` replaced.  ``alpha_string_positive_roots``
grows the positive roots by the length of each alpha-string, where
``mckay.root_context`` adds alpha_i exactly when (alpha, alpha_i) = -1;
``pairing`` is the symmetrized Cartan pairing from the adjacency, where
``root_context`` carries each root's pairing vector along its orbit;
``prime_retry_generic_on_hyperplane`` is the search over ten primes and
quadratic candidates that the explicit construction of
``mckay.generic_on_hyperplane`` replaced.

``generated_subgroup`` closes seeds under products and inverses;
``commutator_subgroup_by_sweep`` closes all |G|^2 commutators, the sweep
that the normal closure of the generators' commutators in
``groups.commutator_subgroup`` replaced; ``classes_by_full_orbits``
conjugates each class representative by every element, where ``close`` now
conjugates by the generators only; ``verify_subgroup_by_sweep`` checks
normality over all of G x Delta and the abelian quotient against the whole
commutator subgroup, where ``groups._verify_subgroup`` checks both on the
generators; ``coset_table_linear_characters`` builds the quotient by the
commutator subgroup as a coset table and extends its characters one cyclic
factor at a time, the algorithm that reading the linear characters off
their generator exponents replaced.

``reynolds_coverage_basis`` is the Reynolds coverage check that the Molien
certificate of ``invariants.invariant_ideal_basis`` replaced, and
``invariant_dim`` the rank of the Reynolds images of a degree's monomials,
the reference for the Molien series.  ``invariant_dim`` calls
``invariants.reynolds_many`` through the module, so that a test that
replaces it there counts the call.
"""

from __future__ import annotations

import itertools
from collections.abc import Iterator
from fractions import Fraction
from math import gcd, lcm
from operator import mul
from typing import NamedTuple

from zerofiber import invariants, linalg
from zerofiber.characters import (ClassFunction, inner_product, linear_characters,
                                  trivial_character)
from zerofiber.cyclotomic import (CONDUCTOR_CAP, ConductorError, Cyc, _power_rows, _reduced,
                                  euler_phi)
from zerofiber.groebner import GroebnerBasis, buchberger
from zerofiber.groups import FiniteGroup, GroupSpec, build_group, mat_mul2
from zerofiber.invariants import fundamental_invariants, reynolds_many
from zerofiber.linalg import CycMatrix, quat_row_key, quat_rref_key
from zerofiber.mckay import McKayGraph, RootContext, Vector, _idot, dot
from zerofiber.poly2 import Poly2
from zerofiber.quaternion import Quaternion
from zerofiber.wreath import Reflection, WreathContext, hyperplanes, numerology_report, reflections


def mat_mul(a: CycMatrix, b: CycMatrix) -> CycMatrix:
    n, k, m = len(a), len(b), len(b[0])
    out = []
    for i in range(n):
        row = []
        ai = a[i]
        for j in range(m):
            acc = ai[0] * b[0][j]
            for t in range(1, k):
                acc = acc + ai[t] * b[t][j]
            row.append(acc)
        out.append(tuple(row))
    return tuple(out)


def identity(n: int, m: int = 1) -> CycMatrix:
    one, zero = Cyc.one(m), Cyc.zero(m)
    return tuple(tuple(one if i == j else zero for j in range(n)) for i in range(n))


def rref(mat: CycMatrix) -> tuple[CycMatrix, list[int]]:
    """Reduced row echelon form and pivot column indices."""
    rows = [list(r) for r in mat]
    nrows = len(rows)
    ncols = len(rows[0]) if nrows else 0
    pivots: list[int] = []
    r = 0
    for c in range(ncols):
        pivot = next((i for i in range(r, nrows) if not rows[i][c].is_zero()), None)
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        inv = rows[r][c].inverse()
        rows[r] = [v * inv for v in rows[r]]
        for i in range(nrows):
            if i != r and not rows[i][c].is_zero():
                f = rows[i][c]
                rows[i] = [vi - f * vr for vi, vr in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return tuple(tuple(r_) for r_ in rows), pivots


def kernel_basis(mat: CycMatrix) -> list[tuple[Cyc, ...]]:
    """Basis of the right kernel {x : mat @ x = 0}."""
    if not mat:
        return []
    ncols = len(mat[0])
    m = mat[0][0].m
    red, pivots = rref(mat)
    free = [c for c in range(ncols) if c not in pivots]
    basis = []
    for fc in free:
        vec = [Cyc.zero(m) for _ in range(ncols)]
        vec[fc] = Cyc.one(m)
        for r, pc in enumerate(pivots):
            vec[pc] = -red[r][fc]
        basis.append(tuple(vec))
    return basis


# -- quaternions and the wreath group ------------------------------------------

def quaternion_basis(name: str, m: int = 4) -> Quaternion:
    """One of 1, i, j, k at a conductor divisible by 4 (for i and k)."""
    if name == "1":
        return Quaternion.one(m)
    if name == "i":
        return Quaternion(Cyc.zeta(m, m // 4), Cyc.zero(m))
    if name == "j":
        return Quaternion(Cyc.zero(m), Cyc.one(m))
    if name == "k":
        # k = ij = j * (-i)
        return Quaternion(Cyc.zero(m), -Cyc.zeta(m, m // 4))
    raise ValueError(f"unknown basis quaternion {name!r}")


def quat_from_matrix(mat: tuple[Cyc, Cyc, Cyc, Cyc]) -> Quaternion:
    """Convert an SU(2)-form matrix [[a, b], [c, d]] (b = -conj c, d = conj a)."""
    a, b, c, d = mat
    if d != a.conj() or b != -c.conj():
        raise ValueError("matrix is not in SU(2) normal form")
    return Quaternion(a, c)


def hermitian_form(x: tuple[Quaternion, ...], y: tuple[Quaternion, ...]) -> Quaternion:
    """(x, y) = sum_p conj(x_p) y_p, H-valued."""
    if len(x) != len(y):
        raise ValueError("length mismatch")
    m = x[0].z1.m if x else 1
    acc = Quaternion.zero(m)
    for xp, yp in zip(x, y):
        acc = acc + xp.conj() * yp
    return acc


# id(group) -> (group, its unit quaternions); holding the group keeps its id unique
_UNIT_QUATERNIONS: dict[int, tuple[FiniteGroup, tuple[Quaternion, ...]]] = {}


def unit_quaternions(group: FiniteGroup) -> tuple[Quaternion, ...]:
    """The unit quaternion of each element of Gamma, by element index."""
    hit = _UNIT_QUATERNIONS.get(id(group))
    if hit is None:
        hit = _UNIT_QUATERNIONS[id(group)] = (
            group, tuple(quat_from_matrix(mat) for mat in group.elements))
    return hit[1]


class MonomialElement(NamedTuple):
    perm: tuple[int, ...]    # perm[j] = image of j
    gammas: tuple[int, ...]  # Gamma element indices, gammas[i] sits in row i


def element_of(ctx: WreathContext, r: Reflection) -> MonomialElement:
    """The element of a reflection's shape: the identity permutation with
    delta at p (type b), or the transposition (p q) with gamma at p and
    gamma^{-1} at q (type a)."""
    perm, gammas = list(range(ctx.n)), [0] * ctx.n
    gammas[r.p] = r.gamma
    if r.kind == "a":
        perm[r.p], perm[r.q] = r.q, r.p
        gammas[r.q] = ctx.group.inv[r.gamma]
    return MonomialElement(tuple(perm), tuple(gammas))


def complex_codim_of_fix(ctx: WreathContext, el: MonomialElement) -> int:
    """rank over C of (r - 1) on the 2n-dimensional complex restriction,
    as the sum over the cycles of el.perm of 2(l - 1) + rank(P - 1), where
    l is the cycle's length and P its holonomy.

    r sends block j to block w(j) through gamma_{w(j)}, the group
    element's own 2 x 2 matrix, so r - 1 is block diagonal over the cycles
    of w.  On a cycle j_0 -> j_1 -> ... -> j_{l-1} -> j_0, with
    j_{k+1} = w(j_k), it is block cyclic-bidiagonal: -1 at (j_k, j_k) and
    gamma_{j_{k+1}} at (j_{k+1}, j_k).  Block elimination clears block row
    j_0: add gamma_{j_0} times block row j_{l-1}, then the product so far
    times block row j_{l-2}, and so on down to j_1.  That leaves P - 1 at
    (j_0, j_0) and zeros elsewhere in the row, with the holonomy
    P = gamma_{j_0} gamma_{j_{l-1}} ... gamma_{j_1}, while rows j_1 ..
    j_{l-1} keep l - 1 invertible -1 pivots.  A 2 x 2 matrix has rank 0
    when it is zero, 2 when its determinant is not, and 1 otherwise.  A
    coordinate that w fixes with gamma = 1 has P - 1 = 0 and is skipped.
    """
    elements, perm, gammas = ctx.group.elements, el.perm, el.gammas
    one = Cyc.one(ctx.group.conductor)
    seen = [False] * ctx.n
    total = 0
    for start in range(ctx.n):
        if seen[start] or (perm[start] == start and gammas[start] == 0):
            continue
        seen[start] = True
        j = perm[start]
        hol, length = elements[gammas[j]], 1
        while j != start:  # hol = gamma_{perm[j]} hol along the cycle
            seen[j] = True
            j = perm[j]
            hol = mat_mul2(elements[gammas[j]], hol)
            length += 1
        a, b, c, d = hol
        a, d = a - one, d - one
        total += 2 * (length - 1) + (0 if not (a or b or c or d) else 2 if a * d - b * c else 1)
    return total


def monomial_elements(ctx: WreathContext) -> Iterator[MonomialElement]:
    """Every element of W, in the order of ``WreathContext.raw_elements``."""
    for w, gammas in ctx.raw_elements():
        yield MonomialElement(w, gammas)


def alpha_of(ctx: WreathContext, r: Reflection) -> tuple[Quaternion, ...]:
    """The normal of the hyperplane that r fixes, with its first nonzero
    coordinate 1: e_p for type b, and e_p - e_q gamma^{-1} for type a, whose
    hyperplane is x_p = gamma x_q."""
    m = ctx.group.conductor
    alpha = [Quaternion.zero(m)] * ctx.n
    alpha[r.p] = Quaternion.one(m)
    if r.kind == "a":
        # -gamma^{-1} for unit gamma
        alpha[r.q] = -unit_quaternions(ctx.group)[r.gamma].conj()
    return tuple(alpha)


def quaternionic_pairing_sums(alphas: list[tuple[Quaternion, ...]]) -> list[Cyc]:
    """sum_K |(alpha_K, alpha_H)|^2 / ((alpha_K, alpha_K)(alpha_H, alpha_H))
    over the given normals, for each H.  The term is symmetric in H and K,
    so each unordered pair is paired once."""
    norms = [hermitian_form(a, a).z1.as_rational() for a in alphas]
    sums = [0] * len(alphas)
    for a, b in itertools.combinations_with_replacement(range(len(alphas)), 2):
        # |(alpha_K, alpha_H)|^2 is real but not always rational
        val = hermitian_form(alphas[a], alphas[b]).norm() / (norms[a] * norms[b])
        sums[a] = sums[a] + val
        if a != b:
            sums[b] = sums[b] + val
    return sums


def quaternionic_appendix_identities(ctx: WreathContext) -> tuple[bool, bool, bool]:
    """Whether the appendix identities (ii), (iii) and (iv) hold, by exact
    quaternionic computation on the hyperplanes' normals: the O(N*^2)
    computation that reading them off the shapes in
    ``wreath.appendix_report`` replaced.  (iv) calls
    ``linalg.quat_rref_key`` through the module, so that a test that
    replaces it there counts the calls."""
    refl = reflections(ctx)
    planes = hyperplanes(ctx, refl)
    n, m, nstar = ctx.n, ctx.group.conductor, len(planes)
    k = numerology_report(ctx, refl, planes).k
    alphas = [alpha_of(ctx, refl[ids[0]]) for ids in planes]
    norms = [hermitian_form(a, a).z1.as_rational() for a in alphas]

    # (ii) f(v) = sum_H alpha_H (alpha_H, v) / (alpha_H, alpha_H) = (k/2) v
    zero_q = Quaternion.zero(m)
    half_k = Quaternion(Cyc.rational(k / 2, m), Cyc.zero(m))
    f_holds = True
    for i in range(n):
        acc = [zero_q] * n
        for alpha, nrm in zip(alphas, norms):
            # (alpha_H, e_i) = conj(alpha_H[i])
            coef = alpha[i].conj()
            for p in range(n):
                acc[p] = acc[p] + (alpha[p] * coef) * (1 / nrm)
        if any(acc[p] != (half_k if p == i else zero_q) for p in range(n)):
            f_holds = False
            break

    # (iii) 2 sum_K |(alpha_K, alpha_H)|^2 / ((alpha_K,alpha_K)(alpha_H,alpha_H)) = k
    pairing_holds = all(2 * s == k for s in quaternionic_pairing_sums(alphas))

    # (iv) |A^H| = N* + 1 - k for every H, with H cap K keyed by the RREF of
    # the two equation rows
    rows = [tuple(q.conj() for q in alpha) for alpha in alphas]
    keys: list[set[tuple]] = [set() for _ in alphas]
    for a, b in itertools.combinations(range(nstar), 2):
        key = linalg.quat_rref_key((rows[a], rows[b]))
        keys[a].add(key)
        keys[b].add(key)
    k_holds = all(len(ks) == nstar + 1 - k for ks in keys)
    return f_holds, pairing_holds, k_holds


def structural_fix_codim(ctx: WreathContext, el: MonomialElement) -> int:
    """Quaternionic codimension of fix(el) from the cycle structure:
    each cycle contributes length - (1 if its gamma-product is 1)."""
    group, n = ctx.group, ctx.n
    seen = [False] * n
    codim = 0
    for start in range(n):
        if seen[start]:
            continue
        cycle = [start]
        seen[start] = True
        cur = el.perm[start]
        while cur != start:
            seen[cur] = True
            cycle.append(cur)
            cur = el.perm[cur]
        prod = 0
        for p in cycle:
            prod = group.mult[el.gammas[p]][prod]
        codim += len(cycle) - (1 if prod == 0 else 0)
    return codim


def key_bucketed_hyperplanes(ctx: WreathContext, refl: list[Reflection]
                             ) -> dict[tuple, tuple[tuple[Quaternion, ...], list[int]]]:
    """The fix hyperplanes found by forming the normal of every reflection
    and deduplicating the normals by their exact row key: each key maps to
    its normal and to the ids of the reflections that fix the hyperplane."""
    buckets: dict[tuple, tuple[tuple[Quaternion, ...], list[int]]] = {}
    for i, r in enumerate(refl):
        alpha = alpha_of(ctx, r)
        buckets.setdefault(quat_row_key(alpha), (alpha, []))[1].append(i)
    return buckets


def quaternion_matrix(ctx: WreathContext, el: MonomialElement) -> tuple[tuple[Quaternion, ...], ...]:
    """The n x n quaternion matrix of a monomial element."""
    n = ctx.n
    zero = Quaternion.zero(ctx.group.conductor)
    quats = unit_quaternions(ctx.group)
    rows = []
    for i in range(n):
        row = [zero] * n
        # column j maps to row w(j); row i is hit by column w^{-1}(i)
        row[el.perm.index(i)] = quats[el.gammas[i]]
        rows.append(tuple(row))
    return tuple(rows)


def quat_matrix_embed(qmat: tuple[tuple[Quaternion, ...], ...]) -> CycMatrix:
    """Complex 2n x 2n block embedding; each q -> [[z1, -conj z2], [z2, conj z1]].

    A ring homomorphism: embed(AB) = embed(A) embed(B), and the complex rank
    of the image is twice the quaternionic rank.
    """
    rows: list[tuple[Cyc, ...]] = []
    for qrow in qmat:
        top: list[Cyc] = []
        bot: list[Cyc] = []
        for q in qrow:
            top.extend((q.z1, -q.z2.conj()))
            bot.extend((q.z2, q.z1.conj()))
        rows.append(tuple(top))
        rows.append(tuple(bot))
    return tuple(rows)


def row_times(ctx: WreathContext, row: tuple[Quaternion, ...],
              el: MonomialElement) -> tuple[Quaternion, ...]:
    """row times the quaternion matrix of el, from the monomial shape:
    column j of that matrix has the single entry q(gamma_{w(j)}), in
    row w(j)."""
    quats = unit_quaternions(ctx.group)
    out = []
    for j in range(ctx.n):
        i = el.perm[j]
        x, g = row[i], el.gammas[i]
        out.append(x if g == 0 or x.is_zero() else x * quats[g])
    return tuple(out)


def stability_search_is_irreducible(ctx: WreathContext,
                                    normals: list[tuple[Quaternion, ...]]) -> bool:
    """No hyperplane and no total intersection of the arrangement with these
    normals is stable under generators of W (n = 1 is always irreducible).
    This looks for a stable subspace among those two kinds only, so it is not
    a complete test in general."""
    n = ctx.n
    if n == 1:
        return True
    group = ctx.group

    gens: list[MonomialElement] = []
    ident = tuple(range(n))
    swap01 = tuple([1, 0] + list(range(2, n)))
    cycle = tuple(list(range(1, n)) + [0])
    trivial_gammas = (0,) * n
    gens.append(MonomialElement(swap01, trivial_gammas))
    if n > 2:
        gens.append(MonomialElement(cycle, trivial_gammas))
    for g in group.gen_indices:
        gam = list(trivial_gammas)
        gam[0] = g
        gam[1] = group.inv[g]
        gens.append(MonomialElement(ident, tuple(gam)))
    for d in ctx.sub.indices:
        if d == 0:
            continue
        gam = list(trivial_gammas)
        gam[0] = d
        gens.append(MonomialElement(ident, tuple(gam)))

    def inverse(el: MonomialElement) -> MonomialElement:
        winv = tuple(el.perm.index(j) for j in range(n))
        gam = tuple(group.inv[el.gammas[el.perm[k]]] for k in range(n))
        return MonomialElement(winv, gam)

    # the equation rows of g.V are those of V times the matrix of g^{-1}
    inverses = [inverse(el) for el in gens]

    def stable(rows: tuple[tuple[Quaternion, ...], ...]) -> bool:
        base = quat_rref_key(rows)
        for el in inverses:
            if quat_rref_key(tuple(row_times(ctx, row, el) for row in rows)) != base:
                return False
        return True

    # the equation of H is sum_p conj(alpha_p) x_p = 0
    total = tuple(tuple(q if q.is_zero() else q.conj() for q in alpha) for alpha in normals)
    for row in total:
        if stable((row,)):
            return False
    if normals:
        depth = len(quat_rref_key(total))
        if 0 < depth < n and stable(total):
            return False
    return True


# -- subgroups, classes and linear characters ----------------------------------------

def generated_subgroup(group: FiniteGroup, seeds) -> tuple[int, ...]:
    """The closure of {1} and the seeds under products with the seeds and
    under inverses, level by level."""
    have = {0} | set(seeds)
    frontier = list(have)
    while frontier:
        nxt = []
        for a in frontier:
            for p in [group.mult[a][s] for s in seeds] + [group.inv[a]]:
                if p not in have:
                    have.add(p)
                    nxt.append(p)
        frontier = nxt
    return tuple(sorted(have))


def commutator_subgroup_by_sweep(group: FiniteGroup) -> tuple[int, ...]:
    """The subgroup generated by all |G|^2 commutators a b a^-1 b^-1."""
    n, mult, inv = group.order, group.mult, group.inv
    return generated_subgroup(
        group, {mult[mult[a][b]][inv[mult[b][a]]] for a in range(n) for b in range(n)})


def classes_by_full_orbits(group: FiniteGroup) -> tuple[list[tuple[int, ...]], list[int]]:
    """The classes in order of their least element, each the set of g h g^-1
    over all g, and the class of each element."""
    n = group.order
    class_of = [-1] * n
    classes: list[tuple[int, ...]] = []
    for h in range(n):
        if class_of[h] < 0:
            cls = tuple(sorted({group.conjugate(g, h) for g in range(n)}))
            for e in cls:
                class_of[e] = len(classes)
            classes.append(cls)
    return classes, class_of


def verify_subgroup_by_sweep(group: FiniteGroup, name: str, indices: tuple[int, ...],
                             comm: tuple[int, ...]) -> tuple[int, ...]:
    """The indices, once g h g^-1 lies in them for every g in G and h in
    them, and the commutator subgroup ``comm`` lies in them; else the
    ValueError that ``groups.resolve_subgroup`` raises."""
    iset = frozenset(indices)
    if not all(group.conjugate(g, h) in iset for g in range(group.order) for h in indices):
        raise ValueError(f"subgroup {name!r} of {group.spec} is not normal")
    if not set(comm) <= iset:
        raise ValueError(f"quotient by subgroup {name!r} of {group.spec} is not abelian")
    return indices


def abelian_hom_exponents(mult: list[list[int]], exponent: int) -> list[dict[int, int]]:
    """All homomorphisms of an abelian group (given by its table) into the
    roots of unity, as exponent dictionaries element -> e with value
    zeta_exponent^e.  Cyclic extension one generator at a time."""
    n = len(mult)
    homs: list[dict[int, int]] = [{0: 0}]
    while len(homs[0]) < n:
        a = next(x for x in range(n) if x not in homs[0])
        # t = minimal power of a landing in the current subgroup
        t, cur = 1, a
        while cur not in homs[0]:
            cur = mult[cur][a]
            t += 1
        target = cur  # a^t
        powers = [0]
        for _ in range(t - 1):
            powers.append(mult[powers[-1]][a])
        new_homs = []
        for chi in homs:
            e = chi[target]
            assert e % t == 0, "abelian character extension: t does not divide e"
            for s in range(t):
                x = (e // t + s * (exponent // t)) % exponent
                ext = dict(chi)
                # the cosets subgroup * a^j
                for base in chi:
                    for j, pw in enumerate(powers):
                        ext[mult[base][pw]] = (chi[base] + j * x) % exponent
                new_homs.append(ext)
        homs = new_homs
    return homs


def coset_table_linear_characters(group: FiniteGroup) -> list[ClassFunction]:
    """All degree-1 characters, trivial first and then by value key, through
    the coset table of G / [G, G] and its exponent."""
    comm = commutator_subgroup_by_sweep(group)
    coset_of = [-1] * group.order
    reps: list[int] = []
    for g in range(group.order):
        if coset_of[g] < 0:
            for h in comm:
                coset_of[group.mult[g][h]] = len(reps)
            reps.append(g)
    k = len(reps)
    qmult = [[coset_of[group.mult[reps[i]][reps[j]]] for j in range(k)] for i in range(k)]
    exponent = 1
    for i in range(k):
        o, cur = 1, i
        while cur != 0:
            cur = qmult[cur][i]
            o += 1
        exponent = exponent * o // gcd(exponent, o)
    m = group.conductor * exponent // gcd(group.conductor, exponent)
    out = [ClassFunction(tuple(Cyc.zeta(m, (m // exponent) * chi[coset_of[c[0]]])
                               for c in group.classes))
           for chi in abelian_hom_exponents(qmult, exponent)]
    out.sort(key=lambda cf: tuple((v.m, v.num, v.den) for v in cf.values))
    triv = trivial_character(group)
    out.remove(next(cf for cf in out if cf.values == triv.values))
    return [triv] + out


# -- character tables ------------------------------------------------------------

def power(group: FiniteGroup, idx: int, e: int) -> int:
    """The index of g^e for e >= 0, by repeated multiplication."""
    acc = 0
    for _ in range(e):
        acc = group.mult[acc][idx]
    return acc


def element_order(group: FiniteGroup, idx: int) -> int:
    o, cur = 1, idx
    while cur != 0:
        cur = group.mult[cur][idx]
        o += 1
    return o


def bd_table(group: FiniteGroup) -> list[ClassFunction]:
    """The four linear characters, then for k = 1..n-1 the 2-dimensional
    character with value tr(g^k) on the diagonal classes and 0 elsewhere."""
    chars = linear_characters(group)
    m = group.conductor
    for k in range(1, group.spec.param):
        vals = []
        for cls in group.classes:
            rep = group.elements[cls[0]]
            if rep[1].is_zero() and rep[2].is_zero():
                vals.append(group.trace(power(group, cls[0], k)))
            else:
                vals.append(Cyc.zero(m))
        chars.append(ClassFunction(tuple(vals)))
    return chars


def _labelled_table(group: FiniteGroup, labels: dict[str, int], order: tuple[str, ...],
                    rows: list[list[Cyc]]) -> list[ClassFunction]:
    perm = [labels[lab] for lab in order]
    out = []
    for row in rows:
        vals = [None] * len(group.classes)
        for pos, cid in enumerate(perm):
            vals[cid] = row[pos]
        out.append(ClassFunction(tuple(vals)))
    return out


def _unique_class(group: FiniteGroup, pred) -> int:
    matches = [cid for cid, cls in enumerate(group.classes)
               if pred(element_order(group, cls[0]), len(cls), group.trace(cls[0]))]
    assert len(matches) == 1, matches
    return matches[0]


def bt_table(group: FiniteGroup) -> list[ClassFunction]:
    """The stored E6 table; 3b is the inverse class of 3a, and 6a, 6b are
    -1 times 3a, 3b."""
    m = group.conductor
    w = Cyc.zeta(m, m // 3)
    w2 = w * w
    labels = {"1a": _unique_class(group, lambda o, s, t: o == 1),
              "2a": _unique_class(group, lambda o, s, t: o == 2),
              "4a": _unique_class(group, lambda o, s, t: o == 4)}
    threes = sorted(cid for cid, cls in enumerate(group.classes)
                    if element_order(group, cls[0]) == 3)
    assert len(threes) == 2
    labels["3a"] = threes[0]
    labels["3b"] = group.class_of[group.inv[group.classes[threes[0]][0]]]
    assert labels["3b"] == threes[1]
    minus_one = group.classes[labels["2a"]][0]
    labels["6a"] = group.class_of[group.mult[minus_one][group.classes[threes[0]][0]]]
    labels["6b"] = group.class_of[group.mult[minus_one][group.classes[threes[1]][0]]]
    assert labels["6a"] != labels["6b"]

    def c(v):
        return Cyc.rational(v, m)

    rows = [
        [c(1), c(1), c(1), c(1), c(1), c(1), c(1)],
        [c(1), c(1), c(1), w, w2, w, w2],
        [c(1), c(1), c(1), w2, w, w2, w],
        [c(2), c(-2), c(0), c(-1), c(-1), c(1), c(1)],
        [c(2), c(-2), c(0), -w, -w2, w, w2],
        [c(2), c(-2), c(0), -w2, -w, w2, w],
        [c(3), c(3), c(-1), c(0), c(0), c(0), c(0)],
    ]
    return _labelled_table(group, labels, ("1a", "2a", "4a", "3a", "3b", "6a", "6b"), rows)


def bo_table(group: FiniteGroup) -> list[ClassFunction]:
    """The stored E7 table; the order-8 classes are told apart by the sign
    of their trace +-sqrt 2, the order-4 classes by their size."""
    m = group.conductor
    s2 = Cyc.zeta(m, m // 8) + Cyc.zeta(m, m - m // 8)  # sqrt 2
    preds = {
        "1a": lambda o, s, t: o == 1,
        "2a": lambda o, s, t: o == 2,
        "8a": lambda o, s, t: o == 8 and t == s2,
        "8b": lambda o, s, t: o == 8 and t == -s2,
        "4a": lambda o, s, t: o == 4 and s == 6,
        "4b": lambda o, s, t: o == 4 and s == 12,
        "3a": lambda o, s, t: o == 3,
        "6a": lambda o, s, t: o == 6,
    }
    labels = {lab: _unique_class(group, pred) for lab, pred in preds.items()}

    def c(v):
        return Cyc.rational(v, m)

    rows = [
        [c(1), c(1), c(1), c(1), c(1), c(1), c(1), c(1)],
        [c(1), c(1), c(-1), c(-1), c(1), c(-1), c(1), c(1)],
        [c(2), c(-2), s2, -s2, c(0), c(0), c(-1), c(1)],
        [c(2), c(-2), -s2, s2, c(0), c(0), c(-1), c(1)],
        [c(2), c(2), c(0), c(0), c(2), c(0), c(-1), c(-1)],
        [c(3), c(3), c(1), c(1), c(-1), c(-1), c(0), c(0)],
        [c(3), c(3), c(-1), c(-1), c(-1), c(1), c(0), c(0)],
        [c(4), c(-4), c(0), c(0), c(0), c(0), c(1), c(-1)],
    ]
    return _labelled_table(group, labels, tuple(preds), rows)


def bi_table(group: FiniteGroup) -> list[ClassFunction]:
    """The stored E8 table.  Its entries are small integer combinations of
    tau = (1 + sqrt 5)/2 and its conjugate; the classes of order 5 and of
    order 10 are told apart by their trace."""
    m = group.conductor
    z5 = Cyc.zeta(m, m // 5)
    tau = -(z5 ** 2 + z5 ** 3)        # (1+sqrt5)/2
    taub = -(z5 + z5 ** 4)            # (1-sqrt5)/2
    preds = {
        "1a": lambda o, s, t: o == 1,
        "2a": lambda o, s, t: o == 2,
        "4a": lambda o, s, t: o == 4,
        "3a": lambda o, s, t: o == 3,
        "6a": lambda o, s, t: o == 6,
        "5a": lambda o, s, t: o == 5 and t == -taub,
        "5b": lambda o, s, t: o == 5 and t == -tau,
        "10a": lambda o, s, t: o == 10 and t == tau,
        "10b": lambda o, s, t: o == 10 and t == taub,
    }
    labels = {lab: _unique_class(group, pred) for lab, pred in preds.items()}

    def c(v):
        return Cyc.rational(v, m)

    rows = [
        [c(1), c(1), c(1), c(1), c(1), c(1), c(1), c(1), c(1)],
        [c(2), c(-2), c(0), c(-1), c(1), -taub, -tau, tau, taub],
        [c(2), c(-2), c(0), c(-1), c(1), -tau, -taub, taub, tau],
        [c(3), c(3), c(-1), c(0), c(0), taub, tau, tau, taub],
        [c(3), c(3), c(-1), c(0), c(0), tau, taub, taub, tau],
        [c(4), c(-4), c(0), c(1), c(-1), c(-1), c(-1), c(1), c(1)],
        [c(4), c(4), c(0), c(1), c(1), c(-1), c(-1), c(-1), c(-1)],
        [c(5), c(5), c(1), c(-1), c(-1), c(0), c(0), c(0), c(0)],
        [c(6), c(-6), c(0), c(0), c(0), c(1), c(1), c(-1), c(-1)],
    ]
    return _labelled_table(group, labels, tuple(preds), rows)


# -- roots and the generic parameter ------------------------------------------------

def alpha_string_positive_roots(graph: McKayGraph) -> tuple[tuple[int, ...], ...]:
    """The finite positive roots by alpha-strings: alpha + alpha_i is a root
    exactly when the string p = max{k : alpha - k alpha_i is a root} has
    p - (alpha, alpha_i) >= 1, grown from the simple roots one height at a
    time."""
    n = graph.size
    finite = range(1, n)
    cartan = graph.affine_cartan
    roots = {tuple(int(j == i) for j in range(n)) for i in finite}
    frontier = set(roots)
    while frontier:
        nxt = set()
        for alpha in frontier:
            for i in finite:
                p = 0
                lower = list(alpha)
                while True:
                    lower[i] -= 1
                    if tuple(lower) in roots:
                        p += 1
                    else:
                        break
                if p - sum(map(mul, cartan[i], alpha)) >= 1:
                    up = alpha[:i] + (alpha[i] + 1,) + alpha[i + 1:]
                    if up not in roots:
                        roots.add(up)
                        nxt.add(up)
        frontier = nxt
    return tuple(sorted(roots))


def pairing(graph: McKayGraph, alpha: Vector, beta: Vector) -> int:
    """Symmetrized Cartan pairing (alpha, beta) = 2 alpha.beta - alpha^T A beta
    in the simply-laced lattice, A the McKay adjacency."""
    cross = sum(a * sum(map(mul, row, beta)) for a, row in zip(alpha, graph.adjacency) if a)
    return 2 * sum(map(mul, alpha, beta)) - cross


def cleared(c: tuple[Fraction, ...]) -> tuple[Vector, int]:
    """(C, L) with L the lcm of c's denominators and C = L*c integral."""
    lcd = lcm(*(ci.denominator for ci in c))
    return tuple(ci.numerator * (lcd // ci.denominator) for ci in c), lcd


def all_roots_with_pairing_zero(ctx: RootContext, c: tuple[Fraction, ...]) -> list[Vector]:
    """All positive real roots n*delta + beta with (n delta + beta) . c = 0.

    Requires c . delta != 0 so the search is finite.  With C = L*c integral,
    the real root n delta + s beta (beta a finite positive root, s = +-1) pairs
    to zero with c exactly when n = -s (C.beta) / (C.delta); it is positive
    when n > 0, or n = 0 and s = +1.  Solving for n gives every solution of
    the scan over n <= max|c.beta| / |c.delta| + 1, since that bound holds
    for each of them.
    """
    big_c, _ = cleared(c)
    delta = ctx.delta
    cd = _idot(big_c, delta)
    if cd == 0:
        raise ValueError("c . delta = 0 gives an infinite root search")
    out = []
    for beta in ctx.positive_roots:
        cb = _idot(big_c, beta)
        for s in (1, -1):
            nn, r = divmod(-s * cb, cd)
            if r == 0 and (nn > 0 or (nn == 0 and s == 1)):
                out.append(tuple(nn * d + s * b for d, b in zip(delta, beta)))
    return sorted(set(out))


def sigma_c(ctx: RootContext, c: tuple[Fraction, ...]) -> tuple[Vector, ...]:
    """Minimal positive elements of R_c under the coefficientwise order."""
    rc = all_roots_with_pairing_zero(ctx, c)
    minimal = []
    for a in rc:
        if not any(b != a and all(x <= y for x, y in zip(b, a)) for b in rc):
            minimal.append(a)
    return tuple(sorted(minimal))


def prime_retry_generic_on_hyperplane(ctx: RootContext, alpha) -> tuple[Fraction, ...]:
    """A c with c.alpha = 0, c.delta = 1 and c.beta not an integer for every
    finite positive beta != alpha, by trying quadratic candidates over ten
    primes; raises ``RuntimeError`` when all ten fail."""
    n = ctx.graph.size
    delta = ctx.delta
    primes = [10007, 10009, 10037, 10039, 10061, 10067, 10069, 10079, 10091, 10093]
    for attempt, p in enumerate(primes):
        # each retry changes the quadratic base, since a new prime alone only
        # rescales the candidate
        cand = [Fraction(k * k + 1 + attempt * k * (k + 3), p) for k in range(n)]
        support = [i for i in range(n) if alpha[i]]
        i1 = support[attempt % len(support)]
        cand[i1] = -sum(cand[i] * alpha[i] for i in range(n) if i != i1) / alpha[i1]
        cand[0] = (1 - sum(cand[i] * delta[i] for i in range(1, n))) / delta[0]
        c = tuple(cand)
        if dot(c, alpha) != 0 or dot(c, delta) != 1:
            continue
        if all(beta == alpha or dot(c, beta).denominator != 1 for beta in ctx.positive_roots):
            return c
    raise RuntimeError("generic parameter search failed after bounded retries")


# -- character tables -------------------------------------------------------------

def hermitian_sum(weights, xs, ys) -> Cyc:
    """sum_k w_k * x_k * conj(y_k) for integers w_k and Cyc values x_k, y_k.

    conj(z^j) = z^(m-j), so a_i z^i * conj(b_j z^j) = a_i b_j z^((i-j) mod m):
    each term adds w*a_i*b_j into slot (i - j) mod m of one integer vector,
    a value of Z[z]/(z^m - 1).  That vector is reduced mod Phi_m and divided
    by its content once, at the end, so no Cyc is built per term.  The terms
    share one running common denominator; the vector is rescaled only when a
    term's denominator does not divide it.  Operands of other conductors are
    lifted to the lcm conductor first.
    """
    terms = list(zip(weights, xs, ys))
    m = lcm(*{v.m for _, x, y in terms for v in (x, y)})
    if m > CONDUCTOR_CAP:
        raise ConductorError(f"conductor lcm {m} exceeds cap {CONDUCTOR_CAP}")
    # slot (i - j) mod m is kept as acc[i - j + m] and folded in at the end:
    # acc[k] + acc[k + m], since z^m = 1
    acc = [0] * (2 * m)
    den = 1
    for w, x, y in terms:
        x, y = x.lift(m), y.lift(m)
        d = x.den * y.den
        if den % d:
            scale = d // gcd(den, d)
            acc = [v * scale for v in acc]
            den *= scale
        w *= den // d
        conj_y = [(m - j, b) for j, b in enumerate(y.num) if b]
        for i, a in enumerate(x.num):
            if a:
                wa = w * a
                for shift, b in conj_y:
                    acc[i + shift] += wa * b
    phi = euler_phi(m)
    out = [acc[k] + acc[k + m] for k in range(phi)]
    rows = _power_rows(m)
    for k in range(phi, m):
        ck = acc[k] + acc[k + m]
        if ck:
            for t, c in rows[k]:
                out[t] += ck * c
    return _reduced(m, out, den)


def columns_are_orthogonal(group: FiniteGroup, chars) -> bool:
    """Column orthogonality: sum_chi chi(C) conj(chi(C')) is |G| / |C| when
    C = C' and 0 otherwise, for every pair of classes."""
    k = len(chars)
    for c1 in range(k):
        col1 = [chi.values[c1] for chi in chars]
        for c2 in range(c1, k):
            acc = hermitian_sum([1] * k, col1, [chi.values[c2] for chi in chars])
            expected = Fraction(group.order, len(group.classes[c1])) if c1 == c2 else 0
            if not (acc.is_rational() and acc.as_rational() == expected):
                return False
    return True


def brute_force_gram(group: FiniteGroup, left, right) -> tuple[tuple[Fraction, ...], ...]:
    """The matrix of inner products <a, b> for a in left and b in right."""
    return tuple(tuple(inner_product(group, a, b) for b in right) for a in left)


# -- admissible roots --------------------------------------------------------------

def pairwise_maximal(candidates) -> list[tuple[int, ...]]:
    """The coefficientwise-maximal vectors, by comparing every pair."""
    return [a for a in candidates
            if not any(b != a and all(x <= y for x, y in zip(a, b)) for b in candidates)]


def maximal_admissible_alpha(ctx: RootContext, js: set[int], dist: list[int]) -> Vector:
    """alpha by brute force: of the coefficientwise-maximal roots among those
    with sum_{j in J} k_j = 1, the one whose vertex j of J is farthest from
    vertex 0, the lexicographically largest on a tie."""
    candidates = [a for a in ctx.positive_roots if sum(a[j] for j in js) == 1]
    return max((dist[next(j for j in js if a[j])], a) for a in pairwise_maximal(candidates))[1]


# -- invariant ideals --------------------------------------------------------------

def reynolds_coverage_basis(spec: GroupSpec) -> GroebnerBasis:
    """Reduced Groebner basis of the fundamental-invariant ideal, with the
    Reynolds coverage check: every Reynolds average of a monomial of degree
    up to max deg(f_i) lies in the ideal."""
    gens = list(fundamental_invariants(spec))
    gb = buchberger(gens)
    group = build_group(spec)
    top = max(f.degree() for f in gens)
    monos = [Poly2.monomial(i, d - i) for d in range(1, top + 1) for i in range(d + 1)]
    for mono, r in zip(monos, reynolds_many(group, monos)):
        if not gb.reduce(r).is_zero():
            raise AssertionError(
                f"invariant of degree {mono.degree()} outside the fundamental ideal for {spec}")
    return gb


def invariant_dim(group: FiniteGroup, d: int) -> int:
    """Dimension of degree-d invariants: exact rank of the Reynolds images
    of the degree-d monomial basis."""
    if d == 0:
        return 1
    images = invariants.reynolds_many(group, [Poly2.monomial(i, d - i) for i in range(d + 1)])
    rows = [tuple(r.coeff(a, d - a) for a in range(d + 1)) for r in images if not r.is_zero()]
    if not rows:
        return 0
    return linalg.rank(tuple(rows))
