"""End-to-end benchmark of zerofiber on three catalogue workloads.

Run from the root of a checkout:

    python3 perfbench/run.py --workload numerology --seed 1 --seconds 40 --trace 0

One process, one thread, one client: the cases of a workload run back to
back (a closed loop).  A pass runs every case once, in an order shuffled by
the seed and the pass number, after clearing the six per-spec caches.
Passes repeat while another one as slow as the slowest so far would still
end within ``--seconds``.  Every answer is checked (see workloads.py).  The
last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``:

* ``--trace 0``: ``results_per_s`` (correct results per second of pass
  time, median over passes), ``setup_s`` (process start to the first case,
  median over fresh processes started before each pass) and ``peak_rss_mb``.
  Both times are wall times rescaled to the host's reference speed, which a
  fixed computation timed alongside them measures (see speed.py); the raw
  wall times are printed on the lines above the result.
* ``--trace 1``: untraced and traced passes alternate; the per-layer metrics
  come from the traced ones (see tracing.py).  Spans of the last traced pass
  go to ``perfbench/out/<workload>.spans.tsv`` and a summary with the trace
  overhead to ``perfbench/out/<workload>.trace.json``.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import subprocess
import sys
import time
import traceback
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path

import speed

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"
SETUP_PROBES_PER_PASS = 3


@dataclass
class PassResult:
    wall_s: float                                         # without speed samples
    ref_s: float = 0.0                                    # wall_s at reference speed
    traced: object = None                                 # tracing.TracedPass
    answers: dict = field(default_factory=dict)           # case id -> answer
    failures: dict = field(default_factory=dict)          # case id -> (type, origin, message)
    wrong: dict = field(default_factory=dict)             # case id -> problems
    case_ids: list = field(default_factory=list)          # the pass's order
    builds: int = 0

    @property
    def correct_results(self) -> int:
        return len(self.answers) - len(self.wrong)


def parse_args(argv):
    ap = argparse.ArgumentParser(description="zerofiber end-to-end benchmark")
    ap.add_argument("--workload", required=True, choices=("zero_fiber", "numerology", "mckay"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return ap.parse_args(argv)


def import_package():
    """Import zerofiber from this checkout's sources, never from elsewhere."""
    pkg = SRC / "zerofiber"
    if not (pkg / "__init__.py").is_file():
        sys.exit(f"perfbench: no zerofiber sources at {pkg}; run from a checkout of the repository")
    sys.path.insert(0, str(SRC))
    import zerofiber

    if Path(zerofiber.__file__).resolve().parent != pkg:
        sys.exit(f"perfbench: imported zerofiber from {zerofiber.__file__}, not from {pkg}")
    return pkg


def measure_setup(args) -> tuple[list[float], list[float]]:
    """Process start to the first case, in fresh processes: interpreter start,
    the zerofiber import, case generation and the expectation file.  The
    probes run before every untraced pass, so that they sample the machine
    over the whole run, as the passes do.  Returns the wall times and the
    same times at reference speed, each rescaled by a bare interpreter start
    timed just before its probe."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", "0", "--setup-probe"]
    times, rescaled = [], []
    for _ in range(SETUP_PROBES_PER_PASS):
        start_s = speed.time_interpreter_start()
        t0 = time.perf_counter()
        with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True) as proc:
            line = proc.stdout.readline()
            t1 = time.perf_counter()
            proc.stdout.read()
            code = proc.wait(timeout=120)
        if line.strip() != "ready" or code != 0:
            sys.exit(f"perfbench: set-up probe failed (exit {code}, said {line!r})")
        times.append(t1 - t0)
        rescaled.append((t1 - t0) * speed.START_NOMINAL_S / start_s)
    return times, rescaled


def failure_origin(exc: BaseException, pkg: Path) -> str:
    """module.function of the innermost zerofiber frame the exception passed."""
    frames = [f for f in traceback.extract_tb(exc.__traceback__) if Path(f.filename).parent == pkg]
    return f"{Path(frames[-1].filename).stem}.{frames[-1].name}" if frames else "perfbench"


def run_pass(workloads, workload, order, expected, pkg, tracer=None) -> PassResult:
    """One pass over ``order``.  An untraced pass samples the host's speed
    as it runs; a traced one does not, so that no sample lands in a span."""
    workloads.clear_spec_caches()
    res = PassResult(0.0, case_ids=[c.id for c in order])
    sampler = None if tracer else speed.Sampler()
    t0 = time.perf_counter()
    with tracer.span("bench.pass") if tracer else sampler:
        for i, case in enumerate(order):
            with tracer.span("bench.case", i) if tracer else nullcontext():
                try:
                    ans = workloads.run_case(workload, case)
                except Exception as exc:
                    first = str(exc).splitlines()[0] if str(exc) else ""
                    res.failures[case.id] = (type(exc).__name__, failure_origin(exc, pkg), first)
                    continue
                res.answers[case.id] = ans
                problems = workloads.check(workload, case, ans, expected)
                if problems:
                    res.wrong[case.id] = problems
    res.wall_s = time.perf_counter() - t0
    if sampler:
        res.wall_s -= sampler.spent_s
        res.ref_s = sampler.rescale(res.wall_s)
    res.builds = workloads.builds_this_pass()
    return res


def summarize_failures(passes, expected) -> list[str]:
    lines = []
    kinds: dict[tuple[str, str], int] = {}
    for cid, (etype, origin, _) in passes[0].failures.items():
        kinds[etype, origin] = kinds.get((etype, origin), 0) + 1
    known = sum(1 for cid in passes[0].failures if expected.get(cid, {}).get("known_failure"))
    lines.append(f"failures per pass: {len(passes[0].failures)} "
                 f"({known} known in expected.json, {len(passes[0].failures) - known} new)")
    for (etype, origin), count in sorted(kinds.items()):
        lines.append(f"  {count} x {etype} from {origin}")
    for cid, (etype, origin, msg) in sorted(passes[0].failures.items()):
        lines.append(f"  {cid}: {etype} in {origin}: {msg}")
    return lines


def consistency_problems(passes, n_gammas) -> list[str]:
    """Every pass, whatever its order, gives the same answers and failures
    and closes each group exactly once."""
    bad = []
    first = passes[0]
    for k, p in enumerate(passes):
        if p.builds != n_gammas:
            bad.append(f"pass {k} closed {p.builds} groups for {n_gammas} specs")
        if p.answers != first.answers or p.failures.keys() != first.failures.keys():
            bad.append(f"pass {k} answers differ from pass 0")
        for cid, problems in sorted(p.wrong.items()):
            bad.append(f"pass {k} {cid}: " + "; ".join(problems))
    return bad


def trace_report(args, passes, tracing):
    traced = [p for p in passes if p.traced is not None]
    plain = [p for p in passes if p.traced is None]
    per_pass = [p.traced.metrics() for p in traced]
    units = tracing.metric_units()
    metrics, unsteady = {}, []
    for name, unit in units.items():
        values = [m[name] for m in per_pass]
        if unit == "count" and len(set(values)) > 1:
            unsteady.append(name)
        value = values[0] if unit == "count" else statistics.median(values)
        metrics[name] = {"value": value, "unit": unit}
    t_plain = statistics.median(p.wall_s for p in plain)
    t_traced = statistics.median(p.wall_s for p in traced)
    overhead = t_traced / t_plain - 1
    layer_self = {k[:-len(".self_s")]: v["value"] for k, v in metrics.items() if k.endswith(".self_s")}
    pass_s = metrics["bench.pass_s"]["value"]
    OUT.mkdir(exist_ok=True)
    traced[-1].traced.write_spans(OUT / f"{args.workload}.spans.tsv", traced[-1].case_ids)
    with (OUT / f"{args.workload}.trace.json").open("w") as fh:
        json.dump({"workload": args.workload, "seed": args.seed,
                   "untraced_pass_s": [p.wall_s for p in plain],
                   "traced_pass_s": [p.wall_s for p in traced],
                   "trace_overhead": overhead, "self_s": layer_self,
                   "counts_not_repeating": unsteady, "metrics": metrics}, fh, indent=1)
    lines = [f"trace overhead: traced pass {t_traced:.3f} s vs untraced {t_plain:.3f} s "
             f"({overhead:+.1%}; {len(traced)} traced, {len(plain)} untraced passes)",
             f"self time by module covers {sum(layer_self.values()):.3f} s of the "
             f"{pass_s:.3f} s traced pass: " + ", ".join(
                 f"{k} {v:.3f}" for k, v in sorted(layer_self.items(), key=lambda kv: -kv[1]))]
    if unsteady:
        lines.append("counts that differ between traced passes: " + ", ".join(unsteady))
    return metrics, lines


def main(argv=None) -> int:
    args = parse_args(argv)
    pkg = import_package()
    import workloads

    cases = workloads.make_cases(args.workload)
    expected = workloads.load_expected(args.workload)
    if args.setup_probe:
        workloads.pass_order(cases, args.workload, args.seed, 0)
        print("ready", flush=True)
        return 0

    setup: list[float] = []
    setup_ref: list[float] = []
    tracer = tracing = None
    if args.trace:
        import tracing

        tracer = tracing.Tracer()
    passes: list[PassResult] = []
    t_start = time.perf_counter()
    while True:
        order = workloads.pass_order(cases, args.workload, args.seed, len(passes))
        if args.trace and len(passes) % 2 == 1:
            tracer.reset()
            with tracer.installed():
                res = run_pass(workloads, args.workload, order, expected, pkg, tracer)
            res.traced = tracing.TracedPass(tracer)
        else:
            if not args.trace:
                times, rescaled = measure_setup(args)
                setup += times
                setup_ref += rescaled
            res = run_pass(workloads, args.workload, order, expected, pkg)
        passes.append(res)
        elapsed = time.perf_counter() - t_start
        owes_traced = args.trace and not any(p.traced for p in passes)
        if elapsed + max(p.wall_s for p in passes) > args.seconds and not owes_traced:
            break

    n_gammas = len({c.gamma for c in cases})
    problems = consistency_problems(passes, n_gammas)
    print(f"{args.workload} seed={args.seed}: {len(passes)} passes of {len(cases)} cases; "
          f"pass wall s: " + " ".join(f"{p.wall_s:.3f}{'(traced)' if p.traced else ''}"
                                      for p in passes))
    print(f"correct results per pass: {passes[0].correct_results}/{len(cases)}"
          + "; set-up wall s: " * bool(setup) + " ".join(f"{t:.4f}" for t in setup))
    if not args.trace:
        print("at reference speed: pass s " + " ".join(f"{p.ref_s:.3f}" for p in passes)
              + "; set-up s " + " ".join(f"{t:.4f}" for t in setup_ref))
    for line in summarize_failures(passes, expected) + problems:
        print(line)

    if args.trace:
        metrics, lines = trace_report(args, passes, tracing)
        for line in lines:
            print(line)
    else:
        print("results per wall second: "
              + " ".join(f"{p.correct_results / p.wall_s:.4f}" for p in passes)
              + f"; median set-up wall s {statistics.median(setup):.4f}")
        rates = [p.correct_results / p.ref_s for p in passes]
        metrics = {
            "results_per_s": {"value": statistics.median(rates), "unit": "1/s"},
            "setup_s": {"value": statistics.median(setup_ref), "unit": "s"},
            "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                            "unit": "MB"},
        }
    attempted = len(cases) * len(passes)
    failed = sum(len(p.failures) + len(p.wrong) for p in passes)
    print(json.dumps({"correct": not problems, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
