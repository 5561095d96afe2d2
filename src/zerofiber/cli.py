"""The ``zerofiber`` command.

    zerofiber report GAMMA DELTA N

prints the N / N* / g / h / k report of W_N(GAMMA, DELTA) as one JSON
object, with the wall seconds of each stage: building the reflections from
their shapes, each confirmed by the kernel rank of r - 1 on its own 2 x 2
block, building the hyperplanes from their shapes, and the closed forms for
g and for irreducibility (the stage keyed ``irreducibility``).  GAMMA is a
group spec such as ``bt`` or ``cyclic:4``; DELTA is ``whole``, ``comm``,
``cyc2`` or ``gens:`` with comma-separated element indices, as
``resolve_subgroup`` reads it.

    zerofiber appendix GAMMA DELTA N

adds to that report the verdict of each appendix identity, ``pass`` or
``fail(reducible)``, and the seconds of the stage ``identities``.

    zerofiber ledger GAMMA

prints the zero fibre of C^2 / GAMMA as one JSON object: its degree, the
status of every displayed identity, the Molien certificate of the invariant
ring, the verdict of ``GroebnerBasis.verify`` on the reduced basis, and the
wall seconds of each stage.  It exits with 1 when the verification or a
ledger entry fails.

    zerofiber tables GAMMA [--dot]

prints the character table of GAMMA (one row of class values per
irreducible character, in the order of the McKay vertices, each value a
polynomial in z = exp(2 pi i / m) for the conductor m), the class sizes,
its McKay graph with the affine type, and the wall seconds of each stage.
With ``--dot`` it prints the McKay graph as Graphviz DOT text instead.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from collections.abc import Callable

from .characters import character_table
from .groups import GroupSpec, build_group, resolve_subgroup
from .invariants import (_molien_certificate, fundamental_invariants, invariant_ideal_basis,
                         zero_fiber_degree)
from .ledger import verify_identity_ledger
from .mckay import dot_export, mckay_graph
from .wreath import WreathContext, appendix_report, hyperplanes, numerology_report, reflections


def _stage_timer() -> tuple[dict[str, float], Callable]:
    """A dict of stage wall seconds and the function that runs and times a stage."""
    seconds = {}

    def stage(name, fn, *args):
        start = time.perf_counter()
        result = fn(*args)
        seconds[name] = round(time.perf_counter() - start, 6)
        return result

    return seconds, stage


def report(ctx: WreathContext, appendix: bool = False) -> dict:
    """The numerology report of ctx as a JSON-ready dict, with stage times,
    and with the appendix verdicts if asked."""
    seconds, stage = _stage_timer()
    refl = stage("reflections", reflections, ctx)
    planes = stage("hyperplanes", hyperplanes, ctx, refl)
    # O(N): the closed-form checks and irreducibility from (n, |Gamma|, |Delta|)
    rep = stage("irreducibility", numerology_report, ctx, refl, planes)
    out = {
        "gamma": rep.gamma, "delta": rep.delta, "n": rep.n,
        "N": rep.N, "Nstar": rep.Nstar, "count_a": rep.count_a, "count_b": rep.count_b,
        "g": str(rep.g), "h": str(rep.h), "k": str(rep.k),
        "integral": rep.integral, "irreducible": rep.irreducible,
    }
    if appendix:
        app = stage("identities", appendix_report, ctx, refl, planes, rep)
        out["verdicts"] = {name: getattr(app, name) for name in
                           ("trace_identity", "f_operator", "pairing_sum", "k_identity")}
    return {**out, "stage_seconds": seconds}


def _verdict(gb) -> str:
    try:
        gb.verify()
    except AssertionError as exc:
        return f"fail: {exc}"
    return "pass"


def ledger_report(spec: GroupSpec) -> dict:
    """The zero fibre of spec, its ledger and its certificates as a JSON-ready
    dict, with stage times.  The certificate stage runs the check that
    ``invariant_ideal_basis`` makes, so that its result can be shown; the
    basis stage then makes it again, before Buchberger's algorithm."""
    seconds, stage = _stage_timer()
    group = stage("closure", build_group, spec)
    gens = stage("invariants", fundamental_invariants, spec)
    cert = stage("certificate", _molien_certificate, list(gens), group)
    gb = stage("basis", invariant_ideal_basis, spec)
    degree = stage("zero_fiber", zero_fiber_degree, spec)
    entries = stage("ledger", verify_identity_ledger, spec)
    verdict = stage("verify", _verdict, gb)
    return {
        "gamma": str(spec), "order": group.order, "zero_fiber_degree": degree,
        "ledger": {e.name: e.status for e in entries},
        "certificate": {"hsop_degrees": list(cert.hsop_degrees), "d_c": cert.d_c, "s": cert.s},
        "verify": verdict,
        "stage_seconds": seconds,
    }


def tables_report(spec: GroupSpec) -> dict:
    """The character table and McKay graph of spec as a JSON-ready dict,
    with stage times."""
    seconds, stage = _stage_timer()
    group = stage("closure", build_group, spec)
    chars = stage("table", character_table, spec)
    graph = stage("mckay_graph", mckay_graph, spec)
    return {
        "gamma": str(spec), "order": group.order, "conductor": group.conductor,
        "class_sizes": [len(c) for c in group.classes],
        "characters": [[str(v) for v in chi.values] for chi in chars],
        "mckay": {"affine_type": graph.affine_type, "dims": list(graph.dims),
                  "adjacency": [list(row) for row in graph.adjacency],
                  "linear_vertices": list(graph.linear_vertices)},
        "stage_seconds": seconds,
    }


def _parse_spec(ap: argparse.ArgumentParser, command: str, text: str) -> GroupSpec:
    try:
        return GroupSpec.parse(text)
    except ValueError as exc:
        ap.error(f"{command} {text}: {exc}")


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(
        prog="zerofiber",
        description="Exact numerology of quaternionic wreath groups and zero fibres of C^2/Gamma.")
    sub = ap.add_subparsers(dest="command", required=True)
    for name, text in (("report", "numerology report"),
                       ("appendix", "numerology report and appendix verdicts")):
        rp = sub.add_parser(name, help=f"{text} of W_n(Gamma, Delta) as JSON")
        rp.add_argument("gamma", help="group spec, e.g. bt, bd:3, cyclic:4")
        rp.add_argument("delta", help="normal subgroup: whole, comm, cyc2 or generator indices")
        rp.add_argument("n", type=int, help="rank n >= 1")
    lp = sub.add_parser("ledger", help="zero fibre, identity ledger and certificates as JSON")
    lp.add_argument("gamma", help="group spec, e.g. bt, bd:3, cyclic:4")
    tp = sub.add_parser("tables", help="character table and McKay graph as JSON")
    tp.add_argument("gamma", help="group spec, e.g. bt, bd:3, cyclic:4")
    tp.add_argument("--dot", action="store_true", help="print the McKay graph as Graphviz DOT")
    args = ap.parse_args(argv)
    if args.command == "tables":
        spec = _parse_spec(ap, "tables", args.gamma)
        if args.dot:
            sys.stdout.write(dot_export(spec))
        else:
            json.dump(tables_report(spec), sys.stdout)
            sys.stdout.write("\n")
        return 0
    if args.command == "ledger":
        out = ledger_report(_parse_spec(ap, "ledger", args.gamma))
        json.dump(out, sys.stdout)
        sys.stdout.write("\n")
        failed = out["verify"] != "pass" or "failed" in out["ledger"].values()
        return 1 if failed else 0
    try:
        group = build_group(GroupSpec.parse(args.gamma))
        ctx = WreathContext(group, resolve_subgroup(group, args.delta), args.n)
    except ValueError as exc:
        ap.error(f"{args.command} {args.gamma} {args.delta} {args.n}: {exc}")
    json.dump(report(ctx, args.command == "appendix"), sys.stdout)
    sys.stdout.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
