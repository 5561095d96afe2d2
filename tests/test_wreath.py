import dataclasses
import itertools
import random
import re
import sys
from fractions import Fraction

import pytest

from oracles import (MonomialElement, alpha_of, complex_codim_of_fix, element_of, identity,
                     invariant_dim, key_bucketed_hyperplanes, mat_mul, monomial_elements,
                     quat_matrix_embed, quaternion_matrix, quaternionic_appendix_identities,
                     quaternionic_pairing_sums, row_times, rref, stability_search_is_irreducible,
                     structural_fix_codim)
from test_linalg import column_rref_key, rand_quat
from zerofiber import linalg, wreath
from zerofiber.cyclotomic import Cyc
from zerofiber.groups import GroupSpec, Subgroup, build_group, resolve_subgroup
from zerofiber.linalg import quat_row_key
from zerofiber.quaternion import Quaternion
from zerofiber.wreath import (
    Reflection,
    WreathContext,
    appendix_checks,
    hyperplanes,
    module_is_irreducible,
    numerology,
    reflections,
)

CATALOGUE = (
    [f"cyclic:{l}" for l in range(1, 13)]
    + [f"bd:{n}" for n in range(1, 9)]
    + ["bt", "bo", "bi"]
)
SCAN_ORDER_CAP = 100_000
# the quaternionic appendix oracle in the catalogue sweep: about 3 s for the
# 110 cases with |W| <= 500
APPENDIX_SWEEP_ORDER_CAP = 500


def ctx_of(gamma: str, delta: str, n: int) -> WreathContext:
    g = build_group(GroupSpec.parse(gamma))
    return WreathContext(g, resolve_subgroup(g, delta), n)


def deltas_of(gamma: str) -> tuple[str, ...]:
    return ("whole", "comm", "cyc2") if gamma.startswith("bd:") else ("whole", "comm")


def scan_reflections(ctx: WreathContext) -> list[Reflection]:
    """Every element of W with the structural reflection criterion: the
    brute-force scan that the enumeration by shape replaced, kept as its
    oracle."""
    group, n = ctx.group, ctx.n
    mult = group.mult
    ident_perm = tuple(range(n))
    out: list[Reflection] = []
    for w, gammas in ctx.raw_elements():
        if w == ident_perm:
            nontrivial = [i for i, g in enumerate(gammas) if g != 0]
            if len(nontrivial) == 1:
                p = nontrivial[0]
                out.append(Reflection("b", p, p, gammas[p]))
            continue
        moved = [i for i in range(n) if w[i] != i]
        if len(moved) != 2:
            continue
        p, q = moved
        if any(gammas[i] != 0 for i in range(n) if i not in (p, q)):
            continue
        if mult[gammas[p]][gammas[q]] != 0:
            continue
        out.append(Reflection("a", p, q, gammas[p]))
    return out


def bucketed_normals(ctx: WreathContext) -> list:
    """The hyperplane normals of the key-bucketing oracle, which does not
    use ``hyperplanes``."""
    return [alpha for alpha, _ in key_bucketed_hyperplanes(ctx, reflections(ctx)).values()]


def dense_codim_of_fix(ctx: WreathContext, el: MonomialElement) -> int:
    """rank of r - 1 on the full 2n-dimensional complex restriction: the
    dense computation that the cycle rule of ``oracles.complex_codim_of_fix``
    and the block check of ``reflections`` replaced."""
    emb = quat_matrix_embed(quaternion_matrix(ctx, el))
    one = Cyc.one(ctx.group.conductor)
    shifted = tuple(tuple(v - one if i == j else v for j, v in enumerate(row))
                    for i, row in enumerate(emb))
    return len(rref(shifted)[1])


@pytest.mark.parametrize(
    "gamma,delta", [(g, d) for g in CATALOGUE for d in deltas_of(g)])
def test_enumerated_reflections_equal_the_scan(gamma, delta):
    g = build_group(GroupSpec.parse(gamma))
    sub = resolve_subgroup(g, delta)
    for n in (1, 2, 3, 4):
        ctx = WreathContext(g, sub, n)
        if n >= 3 and ctx.order > SCAN_ORDER_CAP:
            continue
        assert sorted(reflections(ctx)) == sorted(scan_reflections(ctx)), (gamma, delta, n)


@pytest.mark.parametrize(
    "gamma,delta,n",
    [("cyclic:3", "whole", 4), ("cyclic:3", "comm", 4), ("bd:2", "whole", 4),
     ("bd:2", "cyc2", 4), ("bt", "whole", 4), ("bt", "comm", 4), ("bi", "whole", 3)],
)
def test_numerology_beyond_the_scan(gamma, delta, n):
    """n = 4, and bi whole 3, whose |W| = 10,368,000 was too large to scan."""
    c = ctx_of(gamma, delta, n)
    G, D = c.group.order, c.sub.order
    rep = numerology(c)
    assert rep.N == (n * (n - 1) // 2) * G + n * (D - 1)
    assert rep.count_a == (n * (n - 1) // 2) * G and rep.count_b == n * (D - 1)
    # one hyperplane x_p = gamma x_q per type-a reflection, plus the n
    # coordinate hyperplanes when Delta is nontrivial
    assert rep.Nstar == (n * (n - 1) // 2) * G + (n if D > 1 else 0)
    assert rep.g == (n - 1) * G + 2 * (D - 1)
    assert rep.irreducible


def test_appendix_enumerates_reflections_once(monkeypatch):
    calls = []
    original = wreath.reflections

    def counted(ctx, *args, **kwargs):
        calls.append(ctx)
        return original(ctx, *args, **kwargs)

    monkeypatch.setattr(wreath, "reflections", counted)
    for gamma, delta, n in [("cyclic:3", "whole", 2), ("bi", "whole", 2)]:
        calls.clear()
        appendix_checks(ctx_of(gamma, delta, n))
        assert len(calls) == 1


def test_complex_trace_matches_the_dense_trace():
    """tr_C(r) read off the shape, as identity (i) of ``appendix_report``
    reads it, 2(n - 1) + tr delta for type b and 2(n - 2) for type a, equals
    the trace of the dense 2n x 2n complex matrix of every reflection."""
    for gamma, delta, n in [("bd:3", "whole", 2), ("bt", "comm", 2), ("cyclic:5", "whole", 3),
                            ("bd:2", "cyc2", 4)]:
        c = ctx_of(gamma, delta, n)
        for r in reflections(c):
            emb = quat_matrix_embed(quaternion_matrix(c, element_of(c, r)))
            dense = sum((emb[i][i] for i in range(2 * n)), Cyc.zero(c.group.conductor))
            shape = 2 * (n - 1) + c.group.trace(r.gamma) if r.kind == "b" else 2 * (n - 2)
            assert dense == shape, r


def test_wreath_orders():
    assert ctx_of("cyclic:2", "whole", 2).order == 8
    assert ctx_of("bd:2", "cyc2", 2).order == 64
    # W_1(Gamma, Delta) = Delta
    c = ctx_of("bd:3", "comm", 1)
    assert c.order == 3
    assert sorted(e.gammas[0] for e in monomial_elements(c)) == sorted(c.sub.indices)


def test_iterator_counts_match_formula():
    for gamma, delta, n in [
        ("cyclic:3", "whole", 2),
        ("cyclic:2", "whole", 3),
        ("bd:2", "comm", 2),
        ("bd:2", "cyc2", 2),
    ]:
        c = ctx_of(gamma, delta, n)
        elems = list(c.raw_elements())
        assert len(elems) == c.order
        assert len(set(elems)) == c.order


def test_structural_codim_equals_kernel_codim_bruteforce():
    # the structural criterion is exactly half the complex codimension, and
    # the oracle's cycle rule equals the dense rank, element by element, on
    # groups small enough to brute force (|W| <= 1152)
    for gamma, delta, n in [("cyclic:2", "whole", 2), ("cyclic:3", "whole", 2),
                            ("bd:1", "whole", 2), ("cyclic:2", "whole", 3),
                            ("cyclic:3", "whole", 3), ("bd:2", "cyc2", 2),
                            ("bt", "comm", 2), ("cyclic:5", "whole", 3), ("bt", "whole", 2)]:
        c = ctx_of(gamma, delta, n)
        for el in monomial_elements(c):
            assert (2 * structural_fix_codim(c, el) == complex_codim_of_fix(c, el)
                    == dense_codim_of_fix(c, el))


def random_element(ctx: WreathContext, rng: random.Random,
                   perm: tuple[int, ...] | None = None) -> MonomialElement:
    """A seeded random element of W, with a random permutation unless one is
    given: n - 1 entries at random, and the last one completing a random
    product in Delta."""
    group, n = ctx.group, ctx.n
    head = [rng.randrange(group.order) for _ in range(n - 1)]
    prod = 0
    for g in head:
        prod = group.mult[prod][g]
    last = group.mult[group.inv[prod]][rng.choice(ctx.sub.indices)]
    return MonomialElement(perm or tuple(rng.sample(range(n), n)), tuple(head) + (last,))


@pytest.mark.parametrize("gamma,delta,n", [("bo", "whole", 3), ("bi", "comm", 3),
                                           ("bt", "whole", 4)])
def test_cycle_rule_equals_the_dense_rank_beyond_enumeration(gamma, delta, n):
    """The oracle's cycle rule on seeded random elements of groups too big to
    list, and on 3-cycles whose holonomy gamma_0 gamma_2 gamma_1 is 1 while
    gamma_1 gamma_2 gamma_0 need not be, so that the order of the product
    matters."""
    c = ctx_of(gamma, delta, n)
    rng = random.Random(83)
    mult, inv = c.group.mult, c.group.inv
    cycle = (1, 2, 0) + tuple(range(3, n))  # 0 -> 1 -> 2 -> 0
    elements = [random_element(c, rng) for _ in range(30)]
    elements += [random_element(c, rng, cycle) for _ in range(10)]
    for el in elements:
        assert (complex_codim_of_fix(c, el) == dense_codim_of_fix(c, el)
                == 2 * structural_fix_codim(c, el)), el
    for _ in range(10):
        g1, g2 = rng.randrange(c.group.order), rng.randrange(c.group.order)
        el = MonomialElement(cycle, (inv[mult[g2][g1]], g1, g2) + (0,) * (n - 3))
        assert complex_codim_of_fix(c, el) == dense_codim_of_fix(c, el) == 4, el


def block_codim_of_fix(ctx: WreathContext, el: MonomialElement) -> int:
    """rank of r - 1 from the dense 2n x 2n matrix with the group's 2 x 2
    matrix gamma_{w(j)} at block (w(j), j), whatever those matrices are."""
    m, size = ctx.group.conductor, 2 * ctx.n
    mat = [[Cyc.zero(m)] * size for _ in range(size)]
    for j, i in enumerate(el.perm):
        block = ctx.group.elements[el.gammas[i]]
        for a, b in itertools.product(range(2), repeat=2):
            mat[2 * i + a][2 * j + b] = block[2 * a + b]
    for k in range(size):
        mat[k][k] = mat[k][k] - Cyc.one(m)
    return len(rref(tuple(map(tuple, mat)))[1])


def test_a_corrupt_element_fails_the_kernel_confirmation():
    """Replace one element's matrix by [[1, 1], [0, 1]], which is in no SU(2):
    every cycle whose holonomy is that matrix has rank(P - 1) = 1, the
    oracle's cycle rule still equals the dense rank, and ``reflections``
    raises, as the type-b shape with delta = [[1, 1], [0, 1]] has block
    rank 1."""
    group = build_group(GroupSpec.parse("bd:3"))
    m, k = group.conductor, 5
    one, zero = Cyc.one(m), Cyc.zero(m)
    elements = list(group.elements)
    elements[k] = (one, one, zero, one)
    corrupt = dataclasses.replace(group, elements=elements)
    c = WreathContext(corrupt, Subgroup(corrupt, "whole", tuple(range(group.order))), 3)
    for perm, length in [((0, 1, 2), 1), ((1, 0, 2), 2), ((1, 2, 0), 3)]:
        el = MonomialElement(perm, (k, 0, 0))
        assert complex_codim_of_fix(c, el) == 2 * (length - 1) + 1 == block_codim_of_fix(c, el)
    with pytest.raises(AssertionError, match="kernel confirmation"):
        reflections(c)
    # the uncorrupted group passes, and the dense oracle agrees with the rule
    honest = ctx_of("bd:3", "whole", 3)
    assert len(reflections(honest)) == 3 * group.order + 3 * (group.order - 1)
    for el in [random_element(honest, random.Random(5)) for _ in range(5)]:
        assert complex_codim_of_fix(honest, el) == block_codim_of_fix(honest, el)


def test_a_corrupt_inverse_fails_the_kernel_confirmation_of_type_a():
    """A wrong inv entry leaves every element's matrix in SU(2), so every
    type-b block passes, while the type-a shape (p q, gamma, gamma^{-1}) with
    that gamma has gamma gamma^{-1} != 1: its dense rank is 4, and
    ``reflections`` raises on it.  With n = 1 there is no type a, and the
    corrupt group passes."""
    group = build_group(GroupSpec.parse("bd:3"))
    k = 5
    inv = list(group.inv)
    inv[k] = group.mult[inv[k]][inv[k]]  # gamma^{-2} is not gamma^{-1}, as gamma^2 != 1
    assert inv[k] != group.inv[k]
    corrupt = dataclasses.replace(group, inv=inv)
    whole = Subgroup(corrupt, "whole", tuple(range(group.order)))
    c = WreathContext(corrupt, whole, 2)
    bad = Reflection("a", 0, 1, k)
    el = element_of(c, bad)
    assert complex_codim_of_fix(c, el) == dense_codim_of_fix(c, el) == 4
    with pytest.raises(AssertionError, match=rf"candidate {re.escape(repr(bad))} fails the "
                                             r"kernel confirmation"):
        reflections(c)
    assert len(reflections(WreathContext(corrupt, whole, 1))) == group.order - 1


def test_row_times_equals_the_dense_product():
    rng = random.Random(71)
    for gamma, delta, n in [("bd:3", "whole", 3), ("bt", "comm", 2), ("cyclic:5", "whole", 4)]:
        c = ctx_of(gamma, delta, n)
        m = c.group.conductor
        elements = list(monomial_elements(c))
        for _ in range(60):
            el = rng.choice(elements)
            row = tuple(rand_quat(rng, m, 0.3) for _ in range(n))
            mat = quaternion_matrix(c, el)
            dense = tuple(sum((row[p] * mat[p][j] for p in range(n)), Quaternion.zero(m))
                          for j in range(n))
            assert row_times(c, row, el) == dense


@pytest.mark.parametrize(
    "gamma,delta,n,expected_N",
    [
        ("cyclic:2", "whole", 2, 4),       # 1*2 + 2*1
        ("bd:2", "cyc2", 2, 14),           # 8 + 2*3
        ("cyclic:5", "whole", 1, 4),       # n=1: |Delta|-1
        ("bt", "comm", 2, 38),             # 24 + 2*7
        ("cyclic:3", "whole", 3, 15),      # 3*3 + 3*2
    ],
)
def test_reflection_counts(gamma, delta, n, expected_N):
    c = ctx_of(gamma, delta, n)
    assert len(reflections(c)) == expected_N


def test_reflection_types_match_shape():
    c = ctx_of("bd:2", "whole", 2)
    for r in reflections(c):
        el = element_of(c, r)
        if r.kind == "b":
            assert el.perm == (0, 1)
            assert sum(1 for g in el.gammas if g != 0) == 1
        else:
            assert el.perm == (1, 0)
            assert c.group.mult[el.gammas[0]][el.gammas[1]] == 0


def test_hyperplane_counts():
    # n=1: single zero hyperplane
    c = ctx_of("cyclic:4", "whole", 1)
    refl = reflections(c)
    assert len(hyperplanes(c, refl)) == 1

    c = ctx_of("cyclic:2", "whole", 2)
    assert len(hyperplanes(c, reflections(c))) == 4  # 1*2 + 2

    c = ctx_of("bd:2", "whole", 2)
    assert len(hyperplanes(c, reflections(c))) == 10  # C(2,2)*8 + 2


def test_hyperplane_dedup_order_invariant():
    """Shuffled reflections are grouped into the same hyperplanes."""
    for gamma, delta, n in [("cyclic:3", "whole", 2), ("bd:2", "cyc2", 3)]:
        c = ctx_of(gamma, delta, n)
        refl = reflections(c)

        def partition(rs):
            return {frozenset(rs[i] for i in h.reflection_ids) for h in hyperplanes(c, rs)}

        base = partition(refl)
        rng = random.Random(42)
        for _ in range(100):
            shuffled = refl[:]
            rng.shuffle(shuffled)
            assert partition(shuffled) == base


def test_hyperplane_count_is_checked_against_its_formula():
    c = ctx_of("bd:2", "whole", 2)
    refl = reflections(c)
    with pytest.raises(AssertionError, match="built 9 hyperplanes, formula gives 10"):
        hyperplanes(c, refl[:-1])


def test_stabilizer_orders():
    c = ctx_of("bd:2", "cyc2", 2)
    refl = reflections(c)
    planes = hyperplanes(c, refl)
    for h in planes:
        kinds = {refl[i].kind for i in h.reflection_ids}
        if kinds == {"a"}:
            assert 1 + len(h.reflection_ids) == 2
        else:
            assert 1 + len(h.reflection_ids) == c.sub.order


def test_numerology_n1():
    for ell in (2, 3, 5):
        c = ctx_of(f"cyclic:{ell}", "whole", 1)
        rep = numerology(c)
        assert rep.N == ell - 1 and rep.Nstar == 1
        assert rep.g == 2 * ell - 2 and rep.h == ell and rep.k == 2
        assert rep.integral == {"g": True, "h": True, "k": True}


def test_numerology_examples():
    rep = numerology(ctx_of("bd:2", "whole", 2))
    assert rep.g == 8 + 2 * 7 == 22

    rep = numerology(ctx_of("bt", "comm", 2))
    assert rep.g == 24 + 2 * 7 == 38
    assert rep.integral["g"] and rep.integral["h"] and rep.integral["k"]


def test_g_h_k_relation_and_order_two_equality():
    # g = h = k iff every reflection has order 2
    c = ctx_of("cyclic:2", "whole", 2)
    rep = numerology(c)
    assert rep.g + rep.k == 2 * rep.h
    orders = set()
    for r in reflections(c):
        el = element_of(c, r)
        # order of the monomial element: brute force via matrix powers
        codim = structural_fix_codim(c, el)
        assert codim == 1
        emb = quat_matrix_embed(quaternion_matrix(c, el))
        acc = emb
        o = 1
        ident = identity(4, c.group.conductor)
        while acc != ident:
            acc = mat_mul(acc, emb)
            o += 1
        orders.add(o)
    if orders == {2}:
        assert rep.g == rep.h == rep.k
    else:
        assert rep.g > rep.h > rep.k


def test_reducible_flagged_for_symmetric_group():
    # W_2(1,1) = S_2 acts reducibly on H^2
    c = ctx_of("cyclic:1", "whole", 2)
    rep = numerology(c)
    assert not rep.irreducible
    # nontrivial Gamma gives an irreducible module
    assert numerology(ctx_of("cyclic:2", "whole", 2)).irreducible


def test_appendix_n1():
    for ell in (2, 3, 4):
        c = ctx_of(f"cyclic:{ell}", "whole", 1)
        rep = appendix_checks(c)
        assert rep.trace_identity == "pass"
        assert rep.f_operator == "pass"
        assert rep.pairing_sum == "pass"
        assert rep.k_identity == "pass"


def test_appendix_cyclic2_n2():
    rep = appendix_checks(ctx_of("cyclic:2", "whole", 2))
    assert rep.numerology.k == 4
    assert rep.trace_identity == rep.f_operator == rep.pairing_sum == rep.k_identity == "pass"


def test_appendix_bd_and_bt():
    for gamma, delta, n in [("bd:2", "cyc2", 2), ("bd:2", "comm", 2), ("bt", "comm", 2)]:
        rep = appendix_checks(ctx_of(gamma, delta, n))
        assert rep.k_identity == "pass"


def test_appendix_bi_whole_2_passes():
    """|Gamma| = 120: 7,200 pairs of hyperplanes for (iv)."""
    rep = appendix_checks(ctx_of("bi", "whole", 2))
    assert rep.numerology.Nstar == 122 and rep.numerology.k == 122
    assert rep.trace_identity == rep.f_operator == rep.pairing_sum == rep.k_identity == "pass"


@pytest.mark.parametrize("gamma", ["cyclic:5", "bd:4"])
def test_numerology_non_rational_pivot_norms(gamma):
    """The elimination of the stability-search oracle meets quaternions
    whose norm is real but not rational (2 - sqrt 2 for bd:4)."""
    c = ctx_of(gamma, "whole", 3)
    rep = numerology(c)
    G, D, n = c.group.order, c.sub.order, 3
    assert rep.N == (n * (n - 1) // 2) * G + n * (D - 1)
    assert rep.g == (n - 1) * G + 2 * (D - 1)
    assert rep.irreducible
    assert stability_search_is_irreducible(c, bucketed_normals(c))


def test_appendix_non_rational_pairings():
    """The traces tr(delta gamma^-1) of bd:4 include +-sqrt 2."""
    rep = appendix_checks(ctx_of("bd:4", "whole", 2))
    assert rep.trace_identity == rep.f_operator == rep.pairing_sum == rep.k_identity == "pass"


def reducible_in_catalogue(gamma: str, delta: str, n: int) -> bool:
    return (gamma == "cyclic:1" and n >= 2) or (gamma, delta, n) == ("cyclic:2", "comm", 2)


@pytest.mark.parametrize(
    "gamma,delta", [(g, d) for g in CATALOGUE for d in deltas_of(g)])
def test_numerology_catalogue_sweep(gamma, delta):
    """numerology on every catalogue (Gamma, Delta) at n = 1-3, with the
    dense kernel rank of every reflection, the hyperplanes against the
    key-bucketing oracle, the column-by-column RREF key of the arrangement
    and of random subsets of it, and the appendix verdicts, which equal the
    quaternionic oracle's where |W| <= APPENDIX_SWEEP_ORDER_CAP."""
    g = build_group(GroupSpec.parse(gamma))
    sub = resolve_subgroup(g, delta)
    G, D = g.order, sub.order
    rng = random.Random(f"{gamma} {delta}")
    for n in (1, 2, 3):
        c = WreathContext(g, sub, n)
        rep = numerology(c)
        pairs = n * (n - 1) // 2
        assert (rep.count_a, rep.count_b) == (pairs * G, n * (D - 1))
        assert rep.N == rep.count_a + rep.count_b
        assert rep.Nstar == pairs * G + (n if D > 1 else 0)
        assert rep.g == (n - 1) * G + 2 * (D - 1)
        assert rep.h == Fraction(rep.N + rep.Nstar, n) and rep.g + rep.k == 2 * rep.h
        assert rep.irreducible == (not reducible_in_catalogue(gamma, delta, n))

        refl = reflections(c)
        assert all(dense_codim_of_fix(c, element_of(c, r)) == 2 for r in refl)
        planes = hyperplanes(c, refl)
        buckets = key_bucketed_hyperplanes(c, refl)
        assert ({frozenset(h.reflection_ids) for h in planes}
                == {frozenset(ids) for _, ids in buckets.values()})
        normals = [alpha_of(c, refl[h.reflection_ids[0]]) for h in planes]
        assert {quat_row_key(alpha) for alpha in normals} == set(buckets)
        eqs = [tuple(q.conj() for q in alpha) for alpha in normals]
        subsets = [tuple(eqs)] + [tuple(rng.sample(eqs, rng.randint(1, min(len(eqs), n + 2))))
                                  for _ in range(10 if eqs else 0)]
        for rows in subsets:
            assert linalg.quat_rref_key(rows) == column_rref_key(rows)

        app = appendix_checks(c)
        # W_2(Z/2, 1) is reducible, yet its identities hold
        v = "fail(reducible)" if gamma == "cyclic:1" and n >= 2 else "pass"
        verdicts = (app.f_operator, app.pairing_sum, app.k_identity)
        assert (app.trace_identity, *verdicts) == ("pass", v, v, v)
        if c.order <= APPENDIX_SWEEP_ORDER_CAP:
            assert quaternionic_appendix_identities(c) == tuple(x == "pass" for x in verdicts)


@pytest.mark.parametrize("gamma,delta,n", [("cyclic:1", "whole", 2), ("cyclic:1", "comm", 2),
                                           ("cyclic:1", "whole", 3), ("cyclic:1", "comm", 3)])
def test_appendix_on_a_reducible_module_reports_instead_of_raising(gamma, delta, n):
    rep = appendix_checks(ctx_of(gamma, delta, n))
    assert not rep.numerology.irreducible and rep.irreducibility_warning
    assert rep.trace_identity == "pass"
    assert rep.f_operator == rep.pairing_sum == rep.k_identity == "fail(reducible)"


def test_appendix_raises_when_an_irreducible_module_fails(monkeypatch):
    # claim irreducibility for W_2(1, 1) = S_2, whose identities (ii)-(iv) fail
    monkeypatch.setattr(wreath, "module_is_irreducible", lambda ctx: True)
    with pytest.raises(AssertionError, match="f-operator"):
        appendix_checks(ctx_of("cyclic:1", "whole", 2))


def resolvable_subgroups(gamma: str) -> list:
    """Every Delta of Gamma that resolves as whole, comm, cyc2 or gens:a, once
    per distinct subgroup."""
    g = build_group(GroupSpec.parse(gamma))
    found = {}
    for spec in ("whole", "comm", "cyc2", *(f"gens:{a}" for a in range(g.order))):
        try:
            sub = resolve_subgroup(g, spec)
        except ValueError:
            continue
        found.setdefault(frozenset(sub.indices), sub)
    return list(found.values())


@pytest.mark.parametrize(
    "gamma,ranks",
    [pytest.param(g, (1, 2, 3), id=f"{g}-n1-3") for g in CATALOGUE]
    + [pytest.param(f"cyclic:{l}", (4, 5), id=f"cyclic:{l}-n4-5") for l in (1, 2, 3)])
def test_closed_form_irreducibility_equals_the_stability_search(gamma, ranks):
    """198 triples at n = 1-3 over the catalogue, all three reducible ones
    among them, and the smallest cyclic groups at n = 4, 5."""
    for sub in resolvable_subgroups(gamma):
        for n in ranks:
            c = WreathContext(sub.group, sub, n)
            assert module_is_irreducible(c) == stability_search_is_irreducible(
                c, bucketed_normals(c)), (gamma, sub.name, n)


def test_numerology_path_makes_no_quaternionic_elimination(monkeypatch):
    """numerology and appendix_checks on every catalogue (Gamma, Delta, n <= 3)
    make no quaternionic elimination, no exact rank and form no quaternion;
    each counter does see its oracle's: the quaternionic appendix identities
    and the Reynolds rank of ``oracles.invariant_dim``."""
    eliminations, quaternions, ranks = [], [], []
    real_key, real_init, real_rank = linalg.quat_rref_key, Quaternion.__init__, linalg.rank

    def counted_key(rows):
        eliminations.append(len(rows))
        return real_key(rows)

    def counted_init(self, z1, z2):
        quaternions.append(1)
        real_init(self, z1, z2)

    def counted_rank(mat):
        ranks.append(len(mat))
        return real_rank(mat)

    monkeypatch.setattr(linalg, "quat_rref_key", counted_key)
    monkeypatch.setattr(Quaternion, "__init__", counted_init)
    # also in any module that imported rank by name
    for module in [m for name, m in sys.modules.items() if name.startswith("zerofiber")]:
        if getattr(module, "rank", None) is real_rank:
            monkeypatch.setattr(module, "rank", counted_rank)
    for gamma in CATALOGUE:
        g = build_group(GroupSpec.parse(gamma))
        for delta in deltas_of(gamma):
            sub = resolve_subgroup(g, delta)
            for n in (1, 2, 3):
                c = WreathContext(g, sub, n)
                numerology(c)
                appendix_checks(c)
    assert (eliminations, quaternions, ranks) == ([], [], [])
    quaternionic_appendix_identities(ctx_of("cyclic:2", "whole", 2))
    assert eliminations and quaternions
    invariant_dim(build_group(GroupSpec.parse("cyclic:3")), 3)
    assert ranks


def meet_partition(pairs, key_of) -> set[frozenset]:
    """The pairs grouped by the key of their meet."""
    groups: dict = {}
    for pair in pairs:
        groups.setdefault(key_of(pair), set()).add(pair)
    return {frozenset(v) for v in groups.values()}


@pytest.mark.parametrize("gamma,delta,n", [
    ("cyclic:2", "whole", 4), ("cyclic:3", "comm", 4), ("cyclic:1", "whole", 4),
    ("bd:2", "cyc2", 3), ("bt", "whole", 2), ("cyclic:4", "whole", 3)])
def test_meet_keys_group_pairs_as_the_quaternionic_row_space_does(gamma, delta, n):
    """Two pairs of hyperplanes share an integer meet key exactly when their
    two equation rows span the same quaternionic row space; n = 4 has type-a
    hyperplanes on disjoint pairs."""
    c = ctx_of(gamma, delta, n)
    refl = reflections(c)
    planes = hyperplanes(c, refl)
    shapes = [refl[h.reflection_ids[0]] for h in planes]
    rows = [tuple(q.conj() for q in alpha_of(c, r)) for r in shapes]
    pairs = list(itertools.combinations(range(len(planes)), 2))
    by_shape = meet_partition(pairs, lambda p: wreath._meet_key(c.group, shapes[p[0]],
                                                                shapes[p[1]]))
    by_rows = meet_partition(pairs, lambda p: linalg.quat_rref_key((rows[p[0]], rows[p[1]])))
    assert by_shape == by_rows


@pytest.mark.parametrize("gamma,delta,n", [
    ("cyclic:2", "whole", 4), ("cyclic:2", "comm", 4), ("cyclic:3", "whole", 4),
    ("bd:1", "whole", 4), ("cyclic:1", "whole", 4), ("cyclic:2", "whole", 5)])
def test_appendix_beyond_rank_three_equals_the_oracle(gamma, delta, n):
    c = ctx_of(gamma, delta, n)
    app = appendix_checks(c)
    verdicts = (app.f_operator, app.pairing_sum, app.k_identity)
    assert quaternionic_appendix_identities(c) == tuple(x == "pass" for x in verdicts)
    assert verdicts == (("pass",) * 3 if c.group.order > 1 else ("fail(reducible)",) * 3)


@pytest.mark.parametrize("gamma,delta,n", [("bt", "whole", 2), ("bd:4", "cyc2", 3),
                                           ("bo", "comm", 2), ("cyclic:5", "whole", 3)])
def test_pairing_sums_on_subsets_equal_the_quaternionic_sums(gamma, delta, n):
    """On random subsets of the hyperplanes every term of (iii) counts: the
    group-matrix sums S_pq are neither 0 nor scalar, and the traces include
    irrational ones (bd:4, bo, cyclic:5)."""
    c = ctx_of(gamma, delta, n)
    refl = reflections(c)
    shapes = [refl[h.reflection_ids[0]] for h in hyperplanes(c, refl)]
    rng = random.Random(f"{gamma} {delta} {n}")
    for _ in range(5):
        subset = rng.sample(shapes, rng.randint(1, min(len(shapes), 30)))
        tallies = wreath._tallies(c.group, n, subset)
        assert (wreath._pairing_sums(c.group, subset, tallies)
                == quaternionic_pairing_sums([alpha_of(c, r) for r in subset]))


def test_a_subgroup_of_another_group_is_rejected():
    bo = build_group(GroupSpec.parse("bo"))
    bt = build_group(GroupSpec.parse("bt"))
    with pytest.raises(ValueError, match=r"Gamma bo, Delta 'comm', n = 2: subgroup 'comm' "
                                         r"of bt is not a subgroup of bo"):
        WreathContext(bo, resolve_subgroup(bt, "comm"), 2)


@pytest.mark.parametrize("n", [0, -1])
def test_a_rank_below_one_is_rejected(n):
    g = build_group(GroupSpec.parse("bt"))
    with pytest.raises(ValueError, match=rf"Gamma bt, Delta 'whole', n = {n}: "
                                         rf"n must be at least 1, got {n}"):
        WreathContext(g, resolve_subgroup(g, "whole"), n)
