"""Audit of the displayed zero-fiber identities, group by group.

Every displayed identity is re-expanded exactly.  Status "verified" means
the identity holds literally as printed; "corrected" means the print is off
(a coefficient, subscript or exponent slip) but the intended membership or
value is confirmed exactly, with the recomputed right-hand side and, for
membership claims, a division-algorithm witness over the fundamental
invariants attached; "failed" would mean the membership itself is false and
is treated as a bug by the callers.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .groebner import GroebnerBasis, normal_form, staircase
from .groups import GroupSpec
from .invariants import fundamental_invariants, invariant_ideal_basis
from .poly2 import Poly2, from_int_terms

X, Y = Poly2.x, Poly2.y


@dataclass(frozen=True)
class IdentityLedgerEntry:
    name: str
    status: str                      # verified | corrected | failed
    claim: str
    recomputed: str | None = None    # exact right-hand side when corrected
    witness: tuple[Poly2, ...] = ()  # cofactors over f1, f2, f3 for membership claims
    note: str = ""


def _membership_entry(name: str, claim: str, target: Poly2, gb: GroebnerBasis,
                      printed_ok: bool, recomputed: str | None = None,
                      note: str = "") -> IdentityLedgerEntry:
    rem, wit = gb.membership_witness(target)
    if not rem.is_zero():
        return IdentityLedgerEntry(name, "failed", claim, recomputed, (), note)
    witness = tuple(wit)
    if printed_ok:
        return IdentityLedgerEntry(name, "verified", claim, None, witness, note)
    return IdentityLedgerEntry(name, "corrected", claim, recomputed, witness, note)


def _value_entry(name: str, claim: str, computed: Poly2, printed: Poly2,
                 note: str = "") -> IdentityLedgerEntry:
    if computed == printed:
        return IdentityLedgerEntry(name, "verified", claim, note=note)
    return IdentityLedgerEntry(name, "corrected", claim, recomputed=str(computed), note=note)


def _span_entry(name: str, spec: GroupSpec, claimed_dim: int,
                claimed_leads: list[tuple[int, int]]) -> IdentityLedgerEntry:
    gb = invariant_ideal_basis(spec)
    actual = gb.quotient_dimension()
    stair = len(staircase(claimed_leads))
    claim = f"the displayed spanning set has size {claimed_dim} = 2|Gamma|-1"
    if stair == claimed_dim == actual:
        return IdentityLedgerEntry(name, "verified", claim)
    return IdentityLedgerEntry(
        name, "corrected", claim,
        recomputed=f"staircase {stair}, quotient dimension {actual}")


def _leads_entry(name: str, spec: GroupSpec,
                 printed: set[tuple[int, int]]) -> IdentityLedgerEntry:
    gb = invariant_ideal_basis(spec)
    actual = set(gb.lead_monomials)
    claim = f"initial terms of the displayed set generate in(I): {sorted(printed)}"
    if printed == actual:
        return IdentityLedgerEntry(name, "verified", claim)
    return IdentityLedgerEntry(name, "corrected", claim, recomputed=str(sorted(actual)))


def _audit_cyclic(spec: GroupSpec) -> list[IdentityLedgerEntry]:
    ell = spec.param
    leads = [(ell, 0), (1, 1), (0, ell)]
    if ell == 1:
        leads = [(1, 0), (1, 1), (0, 1)]
    return [_span_entry("cyclic:span", spec, 2 * ell - 1, leads)]


def _audit_bd_even(spec: GroupSpec) -> list[IdentityLedgerEntry]:
    n = spec.param
    f1, f2, f3 = fundamental_invariants(spec)
    gb = invariant_ideal_basis(spec)
    out = []
    target = Y(2 * n + 2)
    combo = Y(2) * f2 - (X(2 * n - 2) - 2 * X(n - 2) * Y(n)) * f1
    out.append(_membership_entry(
        "bd-even:y^(2n+2)", "y^(2n+2) = y^2 f2 - (x^(2n-2) - 2x^(n-2)y^n) f1",
        target, gb, printed_ok=combo == target))
    target = X() * Y(2 * n + 1)
    combo = (X() * Y() * f2 - f3 + 2 * X(n - 1) * Y(n - 1) * f1).scale(Fraction(1, 2))
    out.append(_membership_entry(
        "bd-even:xy^(2n+1)", "xy^(2n+1) = (1/2)(xy f2 - f3 + 2x^(n-1)y^(n-1) f1)",
        target, gb, printed_ok=combo == target))
    out.append(_span_entry("bd-even:span", spec, 8 * n - 1,
                           [(2, 2), (2 * n, 0), (0, 2 * n + 2), (1, 2 * n + 1)]))
    return out


def _audit_bd_odd(spec: GroupSpec) -> list[IdentityLedgerEntry]:
    n = spec.param
    g1, g2, g3 = fundamental_invariants(spec)
    gb = invariant_ideal_basis(spec)
    out = []
    printed_g3 = from_int_terms({(2 * n + 1, 1): 1, (n + 1, 3): -2, (1, 2 * n + 1): 1})
    out.append(_value_entry(
        "bd-odd:g3-display", "g3 = phi2^2 phi3 printed as xy(x^(2n) - 2x^n y^2 + y^(2n))",
        g3, printed_g3,
        note="middle exponent should be y^n; recomputed from phi2^2 phi3"))
    target = Y(2 * n + 2)
    combo = X(2 * n - 2) * g1 - Y(2) * g2
    out.append(_membership_entry(
        "bd-odd:y^(2n+2)", "y^(2n+2) = x^(2n-2) g1 - y^2 g2",
        target, gb, printed_ok=combo == target))
    target = X() * Y(2 * n + 1)
    printed_combo = (g3 - 2 * X(n - 1) * Y(n - 1) * g1 - X() * Y() * g2).scale(Fraction(1, 2))
    out.append(_membership_entry(
        "bd-odd:xy^(2n+1)", "xy^(2n+1) = (1/2)(g3 - 2x^(n-1)y^(n-1) g1 - xy g2)",
        target, gb, printed_ok=printed_combo == target,
        note="sign of the middle term; (1/2)(g3 + 2x^(n-1)y^(n-1) g1 - xy g2) is exact"))
    out.append(_span_entry("bd-odd:span", spec, 8 * n - 1,
                           [(2, 2), (2 * n, 0), (0, 2 * n + 2), (1, 2 * n + 1)]))
    return out


def _audit_bt(spec: GroupSpec) -> list[IdentityLedgerEntry]:
    f1, f2, f3 = fundamental_invariants(spec)
    gb = invariant_ideal_basis(spec)
    out = []
    g1 = Y() * f2 - X(3) * f1
    out.append(_value_entry("bt:g1", "g1 = y f2 - x^3 f1 = 15x^4y^5 + y^9",
                            g1, from_int_terms({(4, 5): 15, (0, 9): 1})))
    g2 = X() * g1 - 15 * Y(4) * f1
    out.append(_value_entry("bt:g2", "g2 = x g1 - 15 y^4 f1 = xy^9",
                            g2, from_int_terms({(1, 9): 1}),
                            note="exact expansion is 16xy^9"))
    out.append(_membership_entry("bt:g2-membership", "xy^9 lies in I",
                                 from_int_terms({(1, 9): 1}), gb, printed_ok=True))
    h = f3 + (47 * Y(4) - X(4)) * f2
    out.append(_value_entry("bt:h", "h = f3 + (47y^4 - x^4) f2 = 624x^4y^8 + 48y^12",
                            h, from_int_terms({(4, 8): 624, (0, 12): 48})))
    g3 = 5 * h - 208 * Y(3) * g1
    out.append(_value_entry("bt:g3", "g3 = 5h - 208y^3 g1 = 32y^12",
                            g3, from_int_terms({(0, 12): 32})))
    out.append(_leads_entry("bt:S-leads", spec,
                            {(5, 1), (8, 0), (4, 5), (1, 9), (0, 12)}))
    return out


def _audit_bo(spec: GroupSpec) -> list[IdentityLedgerEntry]:
    f1, f2, f3 = fundamental_invariants(spec)
    gb = invariant_ideal_basis(spec)
    out = []
    g1 = (X(2) * Y(2) * f2 - f1).scale(Fraction(1, 16))
    out.append(_value_entry("bo:g1", "g1 = (1/16)(x^2y^2 f2 - f1) = x^6y^6",
                            g1, from_int_terms({(6, 6): 1})))
    g2 = Y(6) * f2 - X(2) * g1
    printed_g2_value = from_int_terms({(4, 10): 14, (0, 14): 1})
    # printed combination references g2 itself; with its printed value it fails
    printed_self = Y(6) * f2 - X(2) * printed_g2_value
    out.append(_membership_entry(
        "bo:g2", "g2 = y^6 f2 - x^2 g_2[sic] = 14x^4y^10 + y^14",
        printed_g2_value, gb, printed_ok=printed_self == printed_g2_value,
        recomputed=str(g2),
        note="the subtrahend must be g1; y^6 f2 - x^2 g1 equals the printed value"))
    g3 = X(2) * Y(6) * f2 - (X(4) + 14 * Y(4)) * g1
    printed_g3_value = from_int_terms({(2, 14): 1})
    printed_combo = X(2) * Y(6) * f2 - (X(4) + 14 * Y(4)) * g2
    out.append(_membership_entry(
        "bo:g3", "g3 = x^2y^6 f2 - (x^4 + 14y^4) g_2[sic] = x^2y^14",
        printed_g3_value, gb, printed_ok=printed_combo == printed_g3_value,
        recomputed=str(g3),
        note="with g1 the combination equals x^2y^14 exactly"))
    # mod x^6y^6 steps towards y^18
    mod_target = from_int_terms({(4, 14): 14, (0, 18): 1})
    diff = Y(10) * f2 - mod_target
    mod_ok = all(a >= 6 and b >= 6 for a, b in diff.terms)
    printed_display = Y(10) * from_int_terms({(8, 0): 1, (4, 0): 14, (0, 8): 1}) - mod_target
    printed_ok = all(a >= 6 and b >= 6 for a, b in printed_display.terms)
    out.append(IdentityLedgerEntry(
        "bo:g4-step", "corrected" if (mod_ok and not printed_ok) else
        ("verified" if printed_ok else "failed"),
        "y^10 (x^8 + 14x^4[sic] + y^8) = 14x^4y^14 + y^18 modulo g1 = x^6y^6",
        recomputed="holds with f2 = x^8 + 14x^4y^4 + y^8" if not printed_ok else None,
        note="the display drops a y^4 from f2"))
    step2 = mod_target - 14 * X(2) * Y(4) * f1 - Y(18)
    step2_ok = all(a >= 6 and b >= 6 for a, b in step2.terms)
    out.append(_membership_entry(
        "bo:g4", "14x^4y^14 + y^18 - 14x^2y^4 f1 = y^18 modulo x^6y^6, so y^18 lies in I",
        Y(18), gb, printed_ok=step2_ok))
    g5 = (7 * X(9) * Y() - 336 * X(5) * Y(5) + 41 * X() * Y(9)) * f2 \
        + 4656 * X(3) * Y(3) * g1 - 7 * f3
    printed_combo5 = (7 * X(9) * Y() - 336 * X(5) * Y(5) + 41 * X() * Y(9)) * f2 \
        + 4656 * X(3) * Y(3) * g2 - 7 * f3
    printed_value5 = from_int_terms({(1, 17): 48})
    out.append(_membership_entry(
        "bo:g5", "g5 = (7x^9y - 336x^5y^5 + 41xy^9) f2 + 4656x^3y^3 g_2[sic] - 7 f3 = 48xy^17",
        printed_value5, gb, printed_ok=printed_combo5 == printed_value5,
        recomputed=str(g5),
        note="with g1 the combination equals 48xy^17 exactly"))
    out.append(_leads_entry("bo:S-leads", spec,
                            {(8, 0), (6, 6), (4, 10), (2, 14), (1, 17), (0, 18)}))
    return out


def _audit_bi(spec: GroupSpec) -> list[IdentityLedgerEntry]:
    f1, f2, f3 = fundamental_invariants(spec)
    gb = invariant_ideal_basis(spec)
    out = []
    g1 = (X(9) - 239 * X(4) * Y(5)) * f1 + Y() * f2
    out.append(_value_entry(
        "bi:g1", "g1 = (x^9 - 239x^4y^5) f1 + y f2 = -3124x^10y^11 + 11x^5y^16 - y^21",
        g1, from_int_terms({(10, 11): -3124, (5, 16): 11, (0, 21): -1})))
    g2 = (X(10) - 239 * X(5) * Y(5) + 3124 * Y(10)) * f1 + X() * Y() * f2
    out.append(_value_entry(
        "bi:g2", "g2 = (x^10 - 239x^5y^5 + 3124y^10) f1 + xy f2 = 34375x^6y^16 - 3125xy^21",
        g2, from_int_terms({(6, 16): 34375, (1, 21): -3125})))
    g3 = (Fraction(3124 ** 2) * (Y(6) * f2 + X(9) * Y(5) * f1)
          + (Fraction(3124 * 239) * X(5) - Fraction(1543751) * Y(5)) * g1).scale(
        Fraction(1, 140))
    printed_g3 = from_int_terms({(5, 21): -16020500, (0, 26): -58683})
    note3 = ("printed value is not proportional to the exact expansion "
             "(-64081875/4 x^5y^21 - 1643125/28 y^26) and is not in I")
    out.append(_value_entry(
        "bi:g3",
        "g3 = (1/140)(3124^2(y^6 f2 + x^9y^5 f1) + (3124*239 x^5 - 1543751 y^5) g1) "
        "= -16020500x^5y^21 - 58683y^26",
        g3, printed_g3, note=note3))
    g4_combo = (Fraction(16020500) * Y(5) * g2 + Fraction(34375) * X() * g3).scale(
        Fraction(-1, 52081300000))
    printed_g4 = from_int_terms({(1, 26): 1})
    out.append(_membership_entry(
        "bi:g4", "g4 = (-1/52081300000)(16020500y^5 g2 + 34375x g3) = xy^26",
        printed_g4, gb, printed_ok=g4_combo == printed_g4,
        recomputed=str(g4_combo),
        note="xy^26 does lie in I; the printed combination does not reach it exactly"))
    h1 = f3 + X(10) * f2 - (750 * X(14) * Y(4) - 18749 * X(9) * Y(9)) * f1
    out.append(_value_entry(
        "bi:h1", "h1 = f3 + x^10 f2 - (750x^14y^4 - 18749x^9y^9) f1 "
        "= 206761x^15y^15 - 28755x^10y^20 - 522x^5y^25 + y^30",
        h1, from_int_terms({(15, 15): 206761, (10, 20): -28755, (5, 25): -522, (0, 30): 1})))
    h2 = 3124 * h1 + 206761 * X(5) * Y(4) * g1
    out.append(_value_entry(
        "bi:h2", "h2 = 3124 h1 + 206761x^5y^4 g1 "
        "= -87556200x^10y^20 - 1837490x^5y^25 + 3124y^30",
        h2, from_int_terms({(10, 20): -87556200, (5, 25): -1837490, (0, 30): 3124}),
        note="exact coefficients are -87556249 and -1837489"))
    # modulo g2 and g3, h2 is a nonzero multiple of y^30
    rem, _ = normal_form(h2, [g2.monic(), g3.monic()])
    mult_ok = (not rem.is_zero()) and set(rem.terms) == {(0, 30)}
    out.append(_membership_entry(
        "bi:g5", "modulo g2 and g3, h2 is a nonzero multiple of g5 = y^30, so y^30 lies in I",
        Y(30), gb, printed_ok=mult_ok))
    out.append(_leads_entry("bi:S-leads", spec,
                            {(11, 1), (20, 0), (10, 11), (6, 16), (5, 21), (1, 26), (0, 30)}))
    return out


def verify_identity_ledger(spec: GroupSpec) -> list[IdentityLedgerEntry]:
    """All displayed identities for the given group, with exact statuses."""
    fam = spec.family
    if fam == "cyclic":
        return _audit_cyclic(spec)
    if fam == "bd":
        return _audit_bd_even(spec) if spec.param % 2 == 0 else _audit_bd_odd(spec)
    if fam == "bt":
        return _audit_bt(spec)
    if fam == "bo":
        return _audit_bo(spec)
    return _audit_bi(spec)
