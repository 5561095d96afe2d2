"""What the benchmark under ``perfbench/`` needs of the package.

The benchmark's modules are loaded from their files and never changed.  A
traced run rebinds every ``(owner, attribute)`` in ``tracing.SPANNED`` and
patches ``WreathContext.raw_elements``, and every pass clears the caches in
``workloads.SPEC_CACHES``; a name removed from the package would break the
run with an ``AttributeError`` before any case ran.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

from zerofiber import wreath

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def load(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up there
    spec.loader.exec_module(module)
    return module


tracing = load("tracing")
workloads = load("workloads")


def test_every_spanned_name_resolves():
    for owner, attr in tracing.SPANNED:
        assert callable(getattr(owner, attr, None)), (owner, attr)
    assert callable(wreath.WreathContext.raw_elements)


def test_every_spec_cache_can_be_cleared():
    for fn in workloads.SPEC_CACHES:
        assert callable(getattr(fn, "cache_clear", None)), fn


@pytest.mark.parametrize("workload,case_id", [("zero_fiber", "cyclic:3"),
                                              ("numerology", "bd:2/cyc2/n=2"),
                                              ("mckay", "bd:3/comm")])
def test_one_case_per_workload_passes_its_checks(workload, case_id):
    case = next(c for c in workloads.make_cases(workload) if c.id == case_id)
    ans = workloads.run_case(workload, case)
    assert workloads.check(workload, case, ans, workloads.load_expected(workload)) == []


def test_a_traced_mckay_case_counts_its_inner_products():
    """The tracer installs and restores every wrapper, and the McKay matrix's
    inner products are counted under the mckay layer."""
    tracer = tracing.Tracer()
    case = next(c for c in workloads.make_cases("mckay") if c.id == "bt/comm")
    before = [getattr(owner, attr) for owner, attr in tracing.SPANNED]
    workloads.clear_spec_caches()
    with tracer.installed(), tracer.span("bench.pass"), tracer.span("bench.case", 0):
        ans = workloads.run_case("mckay", case)
    assert workloads.check("mckay", case, ans, workloads.load_expected("mckay")) == []
    metrics = tracing.TracedPass(tracer).metrics()
    # 7 x 7 entries of the bt McKay matrix
    assert metrics["mckay.inner_product_calls"] == 49
    assert [getattr(owner, attr) for owner, attr in tracing.SPANNED] == before
