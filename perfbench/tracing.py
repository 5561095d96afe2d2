"""Outside-in tracing of ``zerofiber`` for the benchmark's traced runs.

``Tracer.installed()`` rebinds public functions and operators to timing
wrappers: a function is rebound in every ``zerofiber`` module that imports
it (``invariants.buchberger``, ``wreath.quat_rref_key``, ...), an operator on
its class.  Each wrapped call records a span (name, start, end, parent span,
case id) in flat arrays; ``TracedPass`` turns one pass's spans into self
time per module and into the per-layer metrics.  Nothing inside the package
is changed, so time in unwrapped helpers (``Cyc.__add__``, ``Poly2.__add__``,
...) counts as self time of the wrapped caller.
"""

from __future__ import annotations

import itertools
import time
from array import array
from collections import Counter
from contextlib import contextmanager
from operator import itemgetter
from pathlib import Path

from zerofiber import (characters, cyclotomic, groebner, groups, invariants, ledger, linalg,
                       mckay, poly2, quaternion, wreath)

MODULES = (cyclotomic, groups, characters, mckay, poly2, invariants, groebner, quaternion,
           linalg, wreath, ledger)
LAYERS = tuple(m.__name__.rsplit(".", 1)[1] for m in MODULES)

# (owner, attribute): the owner is the defining module, or the class of an operator.
SPANNED = (
    (cyclotomic.Cyc, "__mul__"), (cyclotomic.Cyc, "inverse"),
    (groups, "build_group"), (groups, "mat_mul2"), (groups, "resolve_subgroup"),
    (characters, "character_table"), (characters, "validate_table"),
    (characters, "inner_product"),
    (mckay, "mckay_graph"), (mckay, "root_context"), (mckay, "character_of_L"),
    (mckay, "dimension_bound_check"), (mckay, "admissible_alpha"),
    (mckay, "generic_on_hyperplane"),
    (poly2.Poly2, "__mul__"), (poly2, "act"),
    (invariants, "fundamental_invariants"), (invariants, "invariant_ideal_basis"),
    (invariants, "zero_fiber_degree"), (invariants, "reynolds"),
    (groebner, "buchberger"), (groebner, "normal_form"), (groebner, "s_poly_parts"),
    (quaternion.Quaternion, "__mul__"), (quaternion.Quaternion, "inverse"),
    (linalg, "rank"), (linalg, "quat_rref_key"),
    (wreath, "reflections"), (wreath, "hyperplanes"), (wreath, "module_is_irreducible"),
    (wreath, "numerology"),
    (ledger, "verify_identity_ledger"),
)

# metric -> (span name, what to take): "calls", inclusive seconds "s", or
# "calls_from:<layer>", the calls whose parent span belongs to that layer.
SPAN_METRICS = {
    "cyclotomic.mul_calls": ("cyclotomic.Cyc.__mul__", "calls"),
    "cyclotomic.mul_s": ("cyclotomic.Cyc.__mul__", "s"),
    "cyclotomic.inverse_calls": ("cyclotomic.Cyc.inverse", "calls"),
    "groups.mat_mul2_calls": ("groups.mat_mul2", "calls"),
    "groups.build_group_s": ("groups.build_group", "s"),
    "characters.character_table_s": ("characters.character_table", "s"),
    "characters.validate_table_s": ("characters.validate_table", "s"),
    "mckay.mckay_graph_s": ("mckay.mckay_graph", "s"),
    "mckay.root_context_s": ("mckay.root_context", "s"),
    "mckay.inner_product_calls": ("characters.inner_product", "calls_from:mckay"),
    "mckay.sigma_c_s": ("mckay.generic_on_hyperplane", "s"),
    "poly2.mul_calls": ("poly2.Poly2.__mul__", "calls"),
    "poly2.act_s": ("poly2.act", "s"),
    "invariants.reynolds_calls": ("invariants.reynolds", "calls"),
    "invariants.reynolds_s": ("invariants.reynolds", "s"),
    "invariants.fundamental_invariants_s": ("invariants.fundamental_invariants", "s"),
    "invariants.ideal_basis_s": ("invariants.invariant_ideal_basis", "s"),
    "groebner.buchberger_s": ("groebner.buchberger", "s"),
    "groebner.spairs": ("groebner.s_poly_parts", "calls_from:groebner"),
    "groebner.normal_form_calls": ("groebner.normal_form", "calls"),
    "quaternion.mul_calls": ("quaternion.Quaternion.__mul__", "calls"),
    "quaternion.inverse_calls": ("quaternion.Quaternion.inverse", "calls"),
    "linalg.rank_calls": ("linalg.rank", "calls"),
    "linalg.rank_s": ("linalg.rank", "s"),
    "linalg.quat_rref_key_calls": ("linalg.quat_rref_key", "calls"),
    "linalg.quat_rref_key_s": ("linalg.quat_rref_key", "s"),
    "wreath.reflections_s": ("wreath.reflections", "s"),
    "wreath.hyperplanes_s": ("wreath.hyperplanes", "s"),
    "wreath.irreducible_s": ("wreath.module_is_irreducible", "s"),
    "ledger.verify_s": ("ledger.verify_identity_ledger", "s"),
}
# Counters the wrappers keep besides spans.
TALLY_METRICS = ("wreath.elements_scanned", "ledger.entries_verified",
                 "ledger.entries_corrected", "ledger.entries_failed")


def metric_units() -> dict[str, str]:
    """Every per-layer metric a traced run reports, with its unit."""
    units = {}
    for name, (_, what) in SPAN_METRICS.items():
        units[name] = "s" if what == "s" else "count"
    units.update({name: "count" for name in TALLY_METRICS})
    units["wreath.reflection_yield"] = "ratio"
    units.update({f"{layer}.errors": "count" for layer in LAYERS})
    units.update({f"{layer}.self_s": "s" for layer in LAYERS + ("bench",)})
    units["bench.pass_s"] = "s"
    return units


class Tracer:
    """Spans and counters of the current traced pass, in flat arrays."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.name_of = array("H")
        self.parent = array("l")
        self.case = array("l")
        self.start = array("d")
        self.end = array("d")
        self.stack = [-1]
        self.case_id = -1
        self.tally: Counter = Counter()
        self.errors: Counter = Counter()
        self.scan_counters: list = []   # one itertools.count per raw_elements call

    def reset(self) -> None:
        for col in (self.name_of, self.parent, self.case, self.start, self.end):
            del col[:]
        del self.stack[1:]
        self.case_id = -1
        self.tally.clear()
        self.errors.clear()
        self.scan_counters.clear()

    def _name_id(self, name: str) -> int:
        if name not in self.names:
            self.names.append(name)
        return self.names.index(name)

    def _wrap(self, fn, name: str, on_result=None):
        sid = self._name_id(name)
        layer = name.split(".", 1)[0]
        perf = time.perf_counter
        stack, end = self.stack, self.end
        push_name, push_parent = self.name_of.append, self.parent.append
        push_case, push_start, push_end = self.case.append, self.start.append, self.end.append
        tracer = self

        def wrapper(*args, **kwargs):
            idx = len(end)
            push_name(sid)
            push_parent(stack[-1])
            push_case(tracer.case_id)
            push_end(0.0)
            stack.append(idx)
            push_start(perf())
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                # count each exception once, at the innermost wrapper it leaves
                if not getattr(exc, "_perfbench_counted", False):
                    exc._perfbench_counted = True
                    tracer.errors[layer] += 1
                raise
            finally:
                end[idx] = perf()
                stack.pop()
            if on_result is not None:
                on_result(result)
            return result

        return wrapper

    @contextmanager
    def span(self, name: str, case_id: int = -1):
        """A span of the benchmark's own code (a pass or a case)."""
        self.case_id = case_id
        idx = len(self.end)
        self.name_of.append(self._name_id(name))
        self.parent.append(self.stack[-1])
        self.case.append(case_id)
        self.end.append(0.0)
        self.stack.append(idx)
        self.start.append(time.perf_counter())
        try:
            yield
        finally:
            self.end[idx] = time.perf_counter()
            self.stack.pop()
            self.case_id = -1

    def _on_result(self, name: str):
        if name == "wreath.reflections":
            return lambda refl: self.tally.update({"wreath.reflections_found": len(refl)})
        if name == "ledger.verify_identity_ledger":
            return lambda entries: self.tally.update(f"ledger.entries_{e.status}" for e in entries)
        return None

    @contextmanager
    def installed(self):
        """Rebind every spanned name for the duration of the block."""
        undo = []
        try:
            for owner, attr in SPANNED:
                orig = getattr(owner, attr)
                if isinstance(owner, type):
                    name = f"{owner.__module__.rsplit('.', 1)[1]}.{owner.__name__}.{attr}"
                    targets = [owner]  # also catches aliases such as __rmul__ = __mul__
                else:
                    name = f"{owner.__name__.rsplit('.', 1)[1]}.{attr}"
                    targets = MODULES
                wrapper = self._wrap(orig, name, self._on_result(name))
                for target in targets:
                    for key, value in list(vars(target).items()):
                        if value is orig:
                            setattr(target, key, wrapper)
                            undo.append((target, key, orig))
            orig_raw = wreath.WreathContext.raw_elements
            counters = self.scan_counters

            def raw_elements(ctx):
                # zip takes the element first, so each counter ends at the
                # number of elements handed out; all of it runs in C
                counter = itertools.count()
                counters.append(counter)
                return map(itemgetter(0), zip(orig_raw(ctx), counter))

            wreath.WreathContext.raw_elements = raw_elements
            undo.append((wreath.WreathContext, "raw_elements", orig_raw))
            yield self
        finally:
            for target, key, orig in reversed(undo):
                setattr(target, key, orig)


class TracedPass:
    """One traced pass: its spans, self times and per-layer metrics."""

    def __init__(self, tracer: Tracer) -> None:
        self.names = list(tracer.names)
        self.name_of = array("H", tracer.name_of)
        self.parent = array("l", tracer.parent)
        self.case = array("l", tracer.case)
        self.start = array("d", tracer.start)
        self.end = array("d", tracer.end)
        self.tally = Counter(tracer.tally)
        self.tally["wreath.elements_scanned"] = sum(next(c) for c in tracer.scan_counters)
        self.errors = Counter(tracer.errors)
        n = len(self.end)
        dur = [e - s for s, e in zip(self.start, self.end)]
        covered = [0.0] * n
        for i, p in enumerate(self.parent):
            if p >= 0:
                covered[p] += dur[i]
        self.self_s = [d - c for d, c in zip(dur, covered)]
        self.dur = dur

    def metrics(self) -> dict[str, float]:
        layer_of = [name.split(".", 1)[0] for name in self.names]
        calls: Counter = Counter()
        inclusive: Counter = Counter()
        calls_from: Counter = Counter()
        self_by_layer: Counter = Counter()
        for i, sid in enumerate(self.name_of):
            calls[sid] += 1
            inclusive[sid] += self.dur[i]
            self_by_layer[layer_of[sid]] += self.self_s[i]
            p = self.parent[i]
            calls_from[sid, layer_of[self.name_of[p]] if p >= 0 else "bench"] += 1
        sid_of = {name: i for i, name in enumerate(self.names)}
        out: dict[str, float] = {}
        for metric, (span, what) in SPAN_METRICS.items():
            sid = sid_of.get(span, -1)
            if what == "calls":
                out[metric] = calls[sid]
            elif what == "s":
                out[metric] = inclusive[sid]
            else:
                out[metric] = calls_from[sid, what.split(":", 1)[1]]
        for name in TALLY_METRICS:
            out[name] = self.tally[name]
        scanned = self.tally["wreath.elements_scanned"]
        out["wreath.reflection_yield"] = (
            self.tally["wreath.reflections_found"] / scanned if scanned else 0.0)
        for layer in LAYERS:
            out[f"{layer}.errors"] = self.errors[layer]
        for layer in LAYERS + ("bench",):
            out[f"{layer}.self_s"] = self_by_layer[layer]
        out["bench.pass_s"] = inclusive[sid_of["bench.pass"]]
        return out

    def write_spans(self, path: Path, case_ids: list[str]) -> None:
        """One line per span, times in seconds from the start of the pass."""
        t0 = min(self.start, default=0.0)
        with path.open("w") as fh:
            fh.write("id\tparent\tcase\tname\tstart_s\tend_s\tself_s\n")
            for i, sid in enumerate(self.name_of):
                c = self.case[i]
                fh.write(f"{i}\t{self.parent[i]}\t{case_ids[c] if c >= 0 else '-'}\t"
                         f"{self.names[sid]}\t{self.start[i] - t0:.7f}\t"
                         f"{self.end[i] - t0:.7f}\t{self.self_s[i]:.7f}\n")
