"""Write perfbench/expected.json from the current code.

    python3 perfbench/make_expected.py

Runs every case of every workload once, in catalogue order, and keeps the
values that the closed forms in workloads.check do not pin down: ledger
statuses, N* and irreducibility, ch(L), the dimension-bound vertex and the
admissible root.  A case that raises is recorded as a known failure; for a
numerology case N* is then taken from ``reflections`` and ``hyperplanes``
alone and irreducibility is left unknown.  Regenerate only when a change is
meant to alter answers, and review the diff.
"""

from __future__ import annotations

import json
import sys

import run


def main() -> int:
    run.import_package()
    import workloads
    from zerofiber import groups, wreath

    keep = {"zero_fiber": ("ledger",), "numerology": ("Nstar", "irreducible"),
            "mckay": ("ch_L", "bound", "alpha")}
    out = {}
    for workload in workloads.WORKLOADS:
        workloads.clear_spec_caches()
        table = out[workload] = {}
        for case in workloads.make_cases(workload):
            try:
                ans = workloads.run_case(workload, case)
            except Exception as exc:
                entry = {"known_failure": f"{type(exc).__name__}: {exc}"}
                if workload == "numerology":
                    group = groups.build_group(groups.GroupSpec.parse(case.gamma))
                    ctx = wreath.WreathContext(group, groups.resolve_subgroup(group, case.delta),
                                               case.n)
                    entry["Nstar"] = len(wreath.hyperplanes(ctx, wreath.reflections(ctx)))
                    entry["irreducible"] = None
                table[case.id] = entry
                print(f"{workload} {case.id}: {entry['known_failure']}", file=sys.stderr)
                continue
            table[case.id] = {k: ans[k] for k in keep[workload]}
    with workloads.EXPECTED_PATH.open("w") as fh:
        json.dump(out, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
