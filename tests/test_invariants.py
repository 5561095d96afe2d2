from fractions import Fraction

import pytest

from oracles import invariant_dim, reynolds_coverage_basis
from zerofiber import invariants
from zerofiber.groups import GroupSpec, build_group, builtin_generators, close
from zerofiber.invariants import (
    MolienCertificate,
    _molien_certificate,
    fundamental_invariants,
    invariant_ideal_basis,
    molien_coeffs,
    reynolds,
    reynolds_many,
    zero_fiber_degree,
)
from zerofiber.ledger import verify_identity_ledger
from zerofiber.poly2 import Poly2, act, from_int_terms


def S(t):
    return GroupSpec.parse(t)


def test_cyclic3_invariants():
    f = fundamental_invariants(S("cyclic:3"))
    assert f == (Poly2.x(3), Poly2.x() * Poly2.y(), Poly2.y(3))


def invariant_degrees(spec):
    return tuple(f.degree() for f in fundamental_invariants(spec))


def test_invariant_degrees():
    assert invariant_degrees(S("cyclic:5")) == (5, 2, 5)
    assert sorted(invariant_degrees(S("bd:2"))) == [4, 4, 6]
    assert sorted(invariant_degrees(S("bd:3"))) == [4, 6, 8]
    assert sorted(invariant_degrees(S("bt"))) == [6, 8, 12]
    assert sorted(invariant_degrees(S("bo"))) == [8, 12, 18]
    assert sorted(invariant_degrees(S("bi"))) == [12, 20, 30]


def test_bo_f2_and_bi_f1_as_printed():
    bo = fundamental_invariants(S("bo"))
    assert bo[1] == from_int_terms({(8, 0): 1, (4, 4): 14, (0, 8): 1})
    bi = fundamental_invariants(S("bi"))
    assert bi[0] == from_int_terms({(11, 1): 1, (6, 6): 11, (1, 11): -1})


def test_reynolds_fixes_invariants():
    g2 = build_group(S("cyclic:2"))
    assert reynolds(g2, Poly2.x(2)) == Poly2.x(2)
    for spec in ["bd:2", "bt"]:
        g = build_group(S(spec))
        for f in fundamental_invariants(S(spec)):
            assert reynolds(g, f) == f


def test_reynolds_kills_linear_forms():
    for spec in ["cyclic:2", "cyclic:5", "bd:2", "bt", "bo", "bi"]:
        g = build_group(S(spec))
        assert reynolds(g, Poly2.x()).is_zero()
        assert reynolds(g, Poly2.y()).is_zero()


def test_invariant_dim_cyclic3():
    g = build_group(S("cyclic:3"))
    assert invariant_dim(g, 2) == 1  # spanned by xy
    assert invariant_dim(g, 1) == 0
    assert invariant_dim(g, 3) == 2  # x^3, y^3


def test_molien_cyclic2():
    g = build_group(S("cyclic:2"))
    assert molien_coeffs(g, 5) == [1, 0, 3, 0, 5, 0]


def test_molien_bt_first_degrees():
    g = build_group(S("bt"))
    coeffs = molien_coeffs(g, 12)
    assert coeffs[0] == 1
    assert all(coeffs[d] == 0 for d in (1, 2, 3, 4, 5, 7, 9, 10, 11))
    assert coeffs[6] == 1 and coeffs[8] == 1 and coeffs[12] == 2


def test_molien_matches_reynolds_dims_small():
    for spec in ["cyclic:2", "cyclic:3", "bd:2"]:
        g = build_group(S(spec))
        coeffs = molien_coeffs(g, 10)
        for d in range(11):
            assert coeffs[d] == invariant_dim(g, d), (spec, d)


@pytest.mark.parametrize(
    "spec,degree",
    [
        ("cyclic:1", 1),
        ("cyclic:2", 3),
        ("cyclic:5", 9),
        ("bd:2", 15),
        ("bd:3", 23),
        ("bt", 47),
        ("bo", 95),
        ("bi", 239),
    ],
)
def test_zero_fiber_degrees(spec, degree):
    assert zero_fiber_degree(S(spec)) == degree


def test_initial_ideal_fixtures():
    assert set(invariant_ideal_basis(S("bt")).lead_monomials) == {
        (5, 1), (8, 0), (4, 5), (1, 9), (0, 12)}
    assert set(invariant_ideal_basis(S("bo")).lead_monomials) == {
        (8, 0), (6, 6), (4, 10), (2, 14), (1, 17), (0, 18)}
    assert set(invariant_ideal_basis(S("bi")).lead_monomials) == {
        (11, 1), (20, 0), (10, 11), (6, 16), (5, 21), (1, 26), (0, 30)}


def test_cyclic_standard_monomials_match_span():
    gb = invariant_ideal_basis(S("cyclic:4"))
    sm = set(gb.standard_monomials)
    expected = {(a, 0) for a in range(4)} | {(0, b) for b in range(1, 4)}
    assert sm == expected


@pytest.mark.parametrize("spec,reverse", [("cyclic:3", False), ("bd:2", False), ("bt", False),
                                          ("bt", True)])
def test_reynolds_equals_full_group_average(spec, reverse):
    """The coset sweep against (1/|G|) sum_g g.p, for every monomial of
    degree <= 8, batched and one at a time.  Reversed, bt's first generator
    is not diagonal and the sweep runs over all of G."""
    gens = builtin_generators(S(spec))
    g = close(gens[::-1] if reverse else gens)
    monos = [Poly2.monomial(i, d - i) for d in range(9) for i in range(d + 1)]
    batched = reynolds_many(g, monos)
    for p, r in zip(monos, batched):
        acc = Poly2.zero()
        for el in g.elements:
            acc = acc + act(el, p)
        expected = acc.scale(Fraction(1, g.order))
        assert r == expected, (spec, p)
        assert reynolds(g, p) == expected, (spec, p)


def test_reynolds_many_linear_in_each_input():
    g = build_group(S("bd:2"))
    p = from_int_terms({(4, 0): 3, (2, 2): -1, (1, 3): 2, (0, 1): 5})
    q = from_int_terms({(3, 1): 1, (0, 4): 7})
    rp, rq, rpq, rz = reynolds_many(g, [p, q, p + q, Poly2.zero()])
    assert rpq == rp + rq
    assert rz.is_zero()


# Reduced lex bases of the fundamental-invariant ideals, as the exact
# products of the full-table closure and the per-monomial Reynolds check
# gave them.
RECORDED_BASES = {
    "cyclic:1": ["x", "y"],
    "cyclic:2": ["x^2", "x*y", "y^2"],
    "cyclic:3": ["x^3", "x*y", "y^3"],
    "cyclic:4": ["x^4", "x*y", "y^4"],
    "cyclic:5": ["x^5", "x*y", "y^5"],
    "cyclic:6": ["x^6", "x*y", "y^6"],
    "cyclic:7": ["x^7", "x*y", "y^7"],
    "cyclic:8": ["x^8", "x*y", "y^8"],
    "cyclic:9": ["x^9", "x*y", "y^9"],
    "cyclic:10": ["x^10", "x*y", "y^10"],
    "cyclic:11": ["x^11", "x*y", "y^11"],
    "cyclic:12": ["x^12", "x*y", "y^12"],
    "bd:1": ["x^2-y^2", "x*y^3", "y^4"],
    "bd:2": ["x^4+y^4", "x^2*y^2", "x*y^5", "y^6"],
    "bd:3": ["x^6-y^6", "x^2*y^2", "x*y^7", "y^8"],
    "bd:4": ["x^8+y^8", "x^2*y^2", "x*y^9", "y^10"],
    "bd:5": ["x^10-y^10", "x^2*y^2", "x*y^11", "y^12"],
    "bd:6": ["x^12+y^12", "x^2*y^2", "x*y^13", "y^14"],
    "bd:7": ["x^14-y^14", "x^2*y^2", "x*y^15", "y^16"],
    "bd:8": ["x^16+y^16", "x^2*y^2", "x*y^17", "y^18"],
    "bt": ["x^8+14*x^4*y^4+y^8", "x^5*y-x*y^5", "x^4*y^5+1/15*y^9", "x*y^9", "y^12"],
    "bo": ["x^8+14*x^4*y^4+y^8", "x^6*y^6", "x^4*y^10+1/14*y^14", "x^2*y^14", "x*y^17",
           "y^18"],
    "bi": ["x^20+3002*x^10*y^10+y^20", "x^11*y+11*x^6*y^6-x*y^11",
           "x^10*y^11-1/284*x^5*y^16+1/3124*y^21", "x^6*y^16-1/11*x*y^21",
           "x^5*y^21+1/273*y^26", "x*y^26", "y^30"],
}


@pytest.mark.parametrize("spec", sorted(RECORDED_BASES))
def test_ideal_basis_matches_recorded(spec):
    gb = invariant_ideal_basis(S(spec))
    assert [str(p) for p in gb.polys] == RECORDED_BASES[spec]
    assert zero_fiber_degree(S(spec)) == 2 * build_group(S(spec)).order - 1


@pytest.mark.parametrize("spec", sorted(RECORDED_BASES))
def test_certificate_path_matches_the_reynolds_oracle(spec):
    """The Molien-certified basis is the one the Reynolds coverage check
    accepts, with the same cofactors."""
    gb, oracle = invariant_ideal_basis(S(spec)), reynolds_coverage_basis(S(spec))
    assert gb.polys == oracle.polys
    assert gb.cofactors == oracle.cofactors


def expected_certificate(spec):
    """hsop degrees, d_c and s: C[x,y]^G is free over C[f_a, f_b] on 1, f_c, ..., f_c^(s-1)."""
    fam, n = spec.family, spec.param
    if fam == "cyclic":
        return MolienCertificate((n, n), 2, n)
    if fam == "bd":
        return MolienCertificate((4, 2 * n), 2 * n + 2, 2)
    return {"bt": MolienCertificate((6, 8), 12, 2), "bo": MolienCertificate((12, 8), 18, 2),
            "bi": MolienCertificate((12, 20), 30, 2)}[fam]


@pytest.mark.parametrize("spec", [f"cyclic:{l}" for l in range(1, 31)]
                         + [f"bd:{n}" for n in range(1, 16)] + ["bt", "bo", "bi"])
def test_certificate_sweep_past_the_catalogue(spec):
    group = build_group(S(spec))
    cert = _molien_certificate(list(fundamental_invariants(S(spec))), group)
    assert cert == expected_certificate(S(spec))
    assert zero_fiber_degree(S(spec)) == 2 * group.order - 1


def _wrong_lists():
    X, Y, xy = Poly2.x, Poly2.y, Poly2.x() * Poly2.y()
    fa, fb, fc = fundamental_invariants(S("bt"))
    yield "bt", [fa, fb, fc + fa * fb], "homogeneous"
    yield "cyclic:4", [X(4), xy, X(4) * Y(4)], "hsop"
    # (x^4, y^8) is the hsop; over it P(t) = (1 + t^2 + t^4 + t^6)(1 + t^4)
    yield "cyclic:4", [X(4), xy, Y(8)], "Molien numerator"
    # f1^2 and f2^2 leave out the secondaries of degree 6 and 8
    yield "bt", [fa * fa, fb * fb, fc], "Molien numerator"
    for spec in ("bd:3", "bt", "bo", "bi"):
        f1, f2, f3 = fundamental_invariants(S(spec))
        yield spec, [f1, f2, f3 * f3], "secondary"
    yield "cyclic:4", [X(4), X(2) * Y(2), Y(4)], "secondary"


@pytest.mark.parametrize("spec,gens,check", list(_wrong_lists()))
def test_each_certificate_check_can_fail(spec, gens, check):
    with pytest.raises(AssertionError) as exc:
        _molien_certificate(gens, build_group(S(spec)))
    assert f"invariant certificate of {spec}: {check} check failed" in str(exc.value)


def test_zero_fiber_path_makes_no_reynolds_sweep(monkeypatch):
    calls = []
    real = invariants.reynolds_many

    def counted(group, polys):
        calls.append(len(polys))
        return real(group, polys)

    monkeypatch.setattr(invariants, "reynolds_many", counted)
    fundamental_invariants.cache_clear()
    invariant_ideal_basis.cache_clear()
    for spec in sorted(RECORDED_BASES):
        zero_fiber_degree(S(spec))
        verify_identity_ledger(S(spec))
    assert calls == []
    # the counter does see a sweep
    invariant_dim(build_group(S("bt")), 6)
    assert calls == [7]
