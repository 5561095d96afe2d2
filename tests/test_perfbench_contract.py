"""What the benchmark under ``perfbench/`` needs of the package.

The benchmark's modules are loaded from their files and never changed.  A
traced run rebinds every ``(owner, attribute)`` in ``tracing.SPANNED`` and
patches ``WreathContext.raw_elements``, and every pass clears the caches in
``workloads.SPEC_CACHES``; a name removed from the package would break the
run with an ``AttributeError`` before any case ran.
"""

import importlib.util
import inspect
import pkgutil
import sys
from pathlib import Path

import pytest

import zerofiber
from zerofiber import groups, wreath
from zerofiber.groups import GroupSpec

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


def test_every_group_spec_cache_is_cleared_each_pass():
    """An lru_cache keyed by a GroupSpec that the benchmark does not clear
    would let every pass after the first skip its work."""
    found = set()
    for info in pkgutil.iter_modules(zerofiber.__path__):
        module = importlib.import_module(f"zerofiber.{info.name}")
        for fn in vars(module).values():
            if hasattr(fn, "cache_clear") and fn.__module__ == module.__name__:
                params = inspect.signature(fn.__wrapped__, eval_str=True).parameters
                if next(iter(params.values())).annotation is GroupSpec:
                    found.add(fn)
    assert groups.build_group in found
    missing = found - set(workloads.SPEC_CACHES)
    assert not missing, sorted(fn.__qualname__ for fn in missing)


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
    # the 7 * 8 / 2 = 28 entries m_ij, i <= j, of the symmetric bt McKay
    # matrix, less the 3 that gram_entries takes from row 0: bt has 3 linear
    # rows 0, 1, 2, so (1, 1), (1, 2) and (2, 2) are m_0t with
    # chi_t = conj(chi_i) chi_j
    assert metrics["mckay.inner_product_calls"] == 25
    assert [getattr(owner, attr) for owner, attr in tracing.SPANNED] == before
