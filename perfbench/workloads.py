"""The benchmark's three workloads: their cases, how one case runs, and the
checks on its answer.

A case calls only the public API of ``zerofiber``, always through module
attributes (``groups.build_group(...)``), so that a traced run can rebind
those attributes.  Its answer is plain JSON data.  Closed forms from the
paper are checked here; every other value is compared with
``expected.json``, which ``make_expected.py`` writes.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from fractions import Fraction
from math import comb
from pathlib import Path

from zerofiber import characters, groups, invariants, ledger, mckay, wreath

WORKLOADS = ("zero_fiber", "numerology", "mckay")
EXPECTED_PATH = Path(__file__).with_name("expected.json")

# The six per-spec caches; a pass clears them all, so it pays for group
# closure and tables as a fresh process would.  Bound at import, before a
# traced run rebinds the module attributes.
SPEC_CACHES = (
    groups.build_group,
    characters.character_table,
    mckay.mckay_graph,
    mckay.root_context,
    invariants.fundamental_invariants,
    invariants.invariant_ideal_basis,
)

CATALOGUE = (
    [f"cyclic:{l}" for l in range(1, 13)]
    + [f"bd:{n}" for n in range(1, 9)]
    + ["bt", "bo", "bi"]
)
MCKAY_SPECS = (
    [f"cyclic:{l}" for l in (4, 8, 12, 20, 30)]
    + [f"bd:{n}" for n in (2, 3, 4, 6, 8, 10, 12)]
    + ["bt", "bo", "bi"]
)
EXCEPTIONAL_ORDER = {"bt": 24, "bo": 48, "bi": 120}
EXCEPTIONAL_COMM_ORDER = {"bt": 8, "bo": 24, "bi": 120}
EXCEPTIONAL_TYPE = {"bt": ("E6(1)", 36), "bo": ("E7(1)", 63), "bi": ("E8(1)", 120)}


@dataclass(frozen=True)
class Case:
    id: str
    gamma: str
    delta: str | None = None
    n: int | None = None


def _family(gamma: str) -> tuple[str, int]:
    fam, _, param = gamma.partition(":")
    return fam, int(param or 0)


def _deltas(gamma: str) -> tuple[str, ...]:
    return ("whole", "comm", "cyc2") if gamma.startswith("bd:") else ("whole", "comm")


def make_cases(workload: str) -> list[Case]:
    """All cases of a workload, in catalogue order."""
    if workload == "zero_fiber":
        return [Case(g, g) for g in CATALOGUE]
    if workload == "numerology":
        # bi at n = 3 has |W| = 10,368,000 elements to scan: left out for
        # run length, not correctness (see NOTES.md).
        return [Case(f"{g}/{d}/n={n}", g, d, n)
                for g in CATALOGUE for d in _deltas(g) for n in (1, 2, 3)
                if not (g == "bi" and n == 3)]
    if workload == "mckay":
        return [Case(f"{g}/{d}", g, d) for g in MCKAY_SPECS for d in _deltas(g)]
    raise ValueError(f"unknown workload {workload!r}")


def pass_order(cases: list[Case], workload: str, seed: int, pass_no: int) -> list[Case]:
    """The cases of one pass, shuffled by the seed and the pass number."""
    order = list(cases)
    random.Random(f"{workload}:{seed}:{pass_no}").shuffle(order)
    return order


def load_expected(workload: str) -> dict:
    with EXPECTED_PATH.open() as fh:
        return json.load(fh)[workload]


def clear_spec_caches() -> None:
    for fn in SPEC_CACHES:
        fn.cache_clear()


def builds_this_pass() -> int:
    """Groups closed since the caches were last cleared."""
    return SPEC_CACHES[0].cache_info().misses


# -- closed forms ---------------------------------------------------------------

def gamma_order(gamma: str) -> int:
    fam, p = _family(gamma)
    return {"cyclic": p, "bd": 4 * p}.get(fam) or EXCEPTIONAL_ORDER[fam]


def delta_order(gamma: str, delta: str) -> int:
    fam, p = _family(gamma)
    if delta == "whole":
        return gamma_order(gamma)
    if delta == "cyc2":
        return 2 * p
    # commutator subgroups: trivial, cyclic of order n in BD_4n, Q8, BT, BI
    return {"cyclic": 1, "bd": p}.get(fam) or EXCEPTIONAL_COMM_ORDER[fam]


def affine_type(gamma: str) -> tuple[str, int]:
    """McKay type and the number of positive roots of its finite part."""
    fam, p = _family(gamma)
    if fam == "cyclic":
        return f"A{p - 1}(1)", p * (p - 1) // 2
    if fam == "bd":
        return f"D{p + 2}(1)", (p + 2) * (p + 1)
    return EXCEPTIONAL_TYPE[fam]


# -- running a case ---------------------------------------------------------------

def run_case(workload: str, case: Case) -> dict:
    spec = groups.GroupSpec.parse(case.gamma)
    group = groups.build_group(spec)
    if workload == "zero_fiber":
        degree = invariants.zero_fiber_degree(spec)
        entries = ledger.verify_identity_ledger(spec)
        return {"order": group.order, "degree": degree,
                "ledger": {e.name: e.status for e in entries}}
    sub = groups.resolve_subgroup(group, case.delta)
    if workload == "numerology":
        r = wreath.numerology(wreath.WreathContext(group, sub, case.n))
        return {"order": group.order, "delta_order": sub.order, "N": r.N, "Nstar": r.Nstar,
                "count_a": r.count_a, "count_b": r.count_b,
                "g": str(r.g), "h": str(r.h), "k": str(r.k), "irreducible": r.irreducible}
    table = characters.character_table(spec)
    graph = mckay.mckay_graph(spec)
    ctx = mckay.root_context(spec)
    ch, dims, bound = [], [], []
    for n in (1, 2, 3):
        vec, dim = mckay.character_of_L(spec, sub, n)
        ok, vertex = mckay.dimension_bound_check(spec, sub, n)
        ch.append(list(vec))
        dims.append(dim)
        bound.append([ok, vertex])
    alpha = mckay.admissible_alpha(spec, sub)
    c = mckay.generic_on_hyperplane(ctx, alpha)
    return {"order": group.order, "delta_order": sub.order, "classes": len(table),
            "type": graph.affine_type, "delta": list(graph.dims),
            "positive_roots": len(ctx.positive_roots), "ch_L": ch, "dim_L": dims,
            "bound": bound, "alpha": list(alpha),
            "c_dot_alpha": str(mckay.dot(c, alpha)), "c_dot_delta": str(mckay.dot(c, ctx.delta))}


# -- checks -----------------------------------------------------------------------

def check(workload: str, case: Case, ans: dict, expected: dict) -> list[str]:
    """Everything wrong with one answer; empty when it is correct."""
    bad = []

    def want(name, got, value):
        if got != value:
            bad.append(f"{name} = {got!r}, expected {value!r}")

    order = gamma_order(case.gamma)
    want("|Gamma|", ans["order"], order)
    exp = expected.get(case.id, {})
    if workload == "zero_fiber":
        want("zero-fibre degree", ans["degree"], 2 * order - 1)
        failed = sorted(k for k, v in ans["ledger"].items() if v == "failed")
        want("failed ledger entries", failed, [])
        want("ledger statuses", ans["ledger"], exp.get("ledger"))
        return bad
    d = delta_order(case.gamma, case.delta)
    want("|Delta|", ans["delta_order"], d)
    if workload == "numerology":
        n = case.n
        want("N", ans["N"], comb(n, 2) * order + n * (d - 1))
        want("reflections of type a", ans["count_a"], comb(n, 2) * order)
        want("reflections of type b", ans["count_b"], n * (d - 1))
        g, h, k = (Fraction(ans[x]) for x in ("g", "h", "k"))
        want("g", g, (n - 1) * order + 2 * (d - 1))
        want("g + k - 2h", g + k - 2 * h, 0)
        want("h", h, Fraction(ans["N"] + ans["Nstar"], n))
        want("k", k, Fraction(2 * ans["Nstar"], n))
        want("N*", ans["Nstar"], exp.get("Nstar"))
        if exp.get("irreducible") is not None:
            want("irreducible", ans["irreducible"], exp["irreducible"])
        return bad
    kind, roots = affine_type(case.gamma)
    want("affine type", ans["type"], kind)
    want("positive roots", ans["positive_roots"], roots)
    want("sum of squared dims", sum(x * x for x in ans["delta"]), order)
    want("characters", ans["classes"], len(ans["delta"]))
    want("dim L", ans["dim_L"], [(n - 1) * order + 2 * d - 1 for n in (1, 2, 3)])
    want("dimension bound ok", [ok for ok, _ in ans["bound"]], [True] * 3)
    want("c . alpha", ans["c_dot_alpha"], "0")
    want("c . delta", ans["c_dot_delta"], "1")
    for key in ("ch_L", "bound", "alpha"):
        want(key, ans[key], exp.get(key))
    return bad
