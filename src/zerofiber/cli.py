"""The ``zerofiber`` command.

    zerofiber report GAMMA DELTA N

prints the N / N* / g / h / k report of W_N(GAMMA, DELTA) as one JSON
object, with the wall seconds of each stage: enumerating the reflections,
confirming them by their kernel rank, deduplicating the hyperplanes and
testing irreducibility.  GAMMA is a group spec such as ``bt`` or
``cyclic:4``; DELTA is ``whole``, ``comm``, ``cyc2`` or a list of generator
indices, as ``resolve_subgroup`` reads it.
"""

from __future__ import annotations

import argparse
import json
import sys
import time

from .groups import GroupSpec, build_group, resolve_subgroup
from .wreath import (WreathContext, confirm_reflections, hyperplanes, numerology_report,
                     reflections)


def report(ctx: WreathContext) -> dict:
    """The numerology report of ctx as a JSON-ready dict, with stage times."""
    seconds = {}

    def stage(name, fn, *args):
        start = time.perf_counter()
        result = fn(*args)
        seconds[name] = round(time.perf_counter() - start, 6)
        return result

    refl = stage("reflections", reflections, ctx, False)
    stage("confirmation", confirm_reflections, ctx, refl)
    planes = stage("hyperplanes", hyperplanes, ctx, refl)
    # the closed-form checks that come with the irreducibility test are O(N)
    rep = stage("irreducibility", numerology_report, ctx, refl, planes)
    return {
        "gamma": rep.gamma, "delta": rep.delta, "n": rep.n,
        "N": rep.N, "Nstar": rep.Nstar, "count_a": rep.count_a, "count_b": rep.count_b,
        "g": str(rep.g), "h": str(rep.h), "k": str(rep.k),
        "integral": rep.integral, "irreducible": rep.irreducible,
        "stage_seconds": seconds,
    }


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(
        prog="zerofiber", description="Exact numerology of quaternionic wreath groups.")
    sub = ap.add_subparsers(dest="command", required=True)
    rp = sub.add_parser("report", help="numerology report of W_n(Gamma, Delta) as JSON")
    rp.add_argument("gamma", help="group spec, e.g. bt, bd:3, cyclic:4")
    rp.add_argument("delta", help="normal subgroup: whole, comm, cyc2 or generator indices")
    rp.add_argument("n", type=int, help="rank n >= 1")
    args = ap.parse_args(argv)
    if args.n < 1:
        ap.error(f"n must be at least 1, got {args.n}")
    try:
        group = build_group(GroupSpec.parse(args.gamma))
        ctx = WreathContext(group, resolve_subgroup(group, args.delta), args.n)
    except ValueError as exc:
        ap.error(f"report {args.gamma} {args.delta} {args.n}: {exc}")
    json.dump(report(ctx), sys.stdout)
    sys.stdout.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
