from itertools import combinations

import pytest

from oracles import (commutator_subgroup_by_sweep, element_order, generated_subgroup,
                     verify_subgroup_by_sweep)
from zerofiber.cyclotomic import Cyc
from zerofiber.groups import (
    GroupSpec,
    build_group,
    builtin_generators,
    close,
    commutator_subgroup,
    mat_det2,
    mat_identity2,
    mat_mul2,
    resolve_subgroup,
)


def test_spec_parse_roundtrip():
    for text in ["cyclic:5", "bd:3", "bt", "bo", "bi"]:
        assert str(GroupSpec.parse(text)) == text
    with pytest.raises(ValueError):
        GroupSpec.parse("nope")


@pytest.mark.parametrize("text", ["bd:x", "cyclic:", "cyclic:2.5"])
def test_a_non_integer_parameter_is_rejected_naming_the_spec(text):
    with pytest.raises(ValueError, match=f"group spec '{text}': .* integer parameter"):
        GroupSpec.parse(text)


def test_cyclic_generator_is_papers_matrix():
    gens = builtin_generators(GroupSpec("cyclic", 3))
    (g,) = gens
    z = Cyc.zeta(3)
    assert g == (z, Cyc.zero(3), Cyc.zero(3), z ** 2)


def test_bd2_generators():
    g1, g2 = builtin_generators(GroupSpec("bd", 2))
    i = Cyc.zeta(4)
    zero = Cyc.zero(4)
    assert g1 == (i, zero, zero, -i)
    assert g2 == (zero, i, i, zero)


def test_bt_has_three_generators_incl_w3():
    gens = builtin_generators(GroupSpec("bt"))
    assert len(gens) == 3
    w3 = gens[2]
    i = Cyc.zeta(24, 6)
    half = Cyc.rational(1, 24) / 2
    s = (Cyc.one(24) + i) * half
    assert w3 == (s, s * i, s, -s * i)
    assert mat_det2(w3) == 1


@pytest.mark.parametrize(
    "spec,order",
    [
        ("cyclic:1", 1),
        ("cyclic:5", 5),
        ("bd:1", 4),
        ("bd:2", 8),
        ("bd:3", 12),
        ("bt", 24),
        ("bo", 48),
        ("bi", 120),
    ],
)
def test_closure_orders(spec, order):
    g = build_group(GroupSpec.parse(spec))
    assert g.order == order
    # all elements have det 1 and finite order dividing |G|
    for idx in range(g.order):
        assert order % element_order(g, idx) == 0
    assert mat_det2(g.elements[order - 1]) == 1


def test_class_sizes_sum():
    for spec in ["cyclic:4", "bd:2", "bd:3", "bt", "bo", "bi"]:
        g = build_group(GroupSpec.parse(spec))
        assert sum(len(c) for c in g.classes) == g.order
        assert g.classes[0] == (0,)


def test_class_counts():
    assert len(build_group(GroupSpec.parse("bd:2")).classes) == 5
    assert len(build_group(GroupSpec.parse("bt")).classes) == 7
    assert len(build_group(GroupSpec.parse("bo")).classes) == 8
    assert len(build_group(GroupSpec.parse("bi")).classes) == 9


def test_defining_trace_real_on_classes():
    for spec in ["bd:3", "bt", "bo", "bi"]:
        g = build_group(GroupSpec.parse(spec))
        for cls in g.classes:
            tr = g.trace(cls[0])
            assert tr.conj() == tr
            # constant on the class
            assert all(g.trace(i) == tr for i in cls)


def test_commutator_subgroups():
    bt = build_group(GroupSpec.parse("bt"))
    comm = resolve_subgroup(bt, "comm")
    assert comm.order == 8 and comm.index == 3

    for n in (2, 3, 4):
        bd = build_group(GroupSpec.parse(f"bd:{n}"))
        comm = resolve_subgroup(bd, "comm")
        assert comm.order == n and comm.index == 4

    bi = build_group(GroupSpec.parse("bi"))
    assert len(commutator_subgroup(bi)) == 120  # perfect


def test_commutator_times_abelianization():
    for spec in ["cyclic:6", "bd:2", "bd:3", "bt", "bo", "bi"]:
        g = build_group(GroupSpec.parse(spec))
        comm = commutator_subgroup(g)
        ab = g.order // len(comm)
        assert len(comm) * ab == g.order


def test_whole_and_cyc2():
    bd = build_group(GroupSpec.parse("bd:3"))
    whole = resolve_subgroup(bd, "whole")
    assert whole.index == 1
    cyc2 = resolve_subgroup(bd, "cyc2")
    assert cyc2.order == 6 and cyc2.index == 2
    with pytest.raises(ValueError):
        resolve_subgroup(build_group(GroupSpec.parse("bt")), "cyc2")


def test_explicit_gens_subgroup():
    bd = build_group(GroupSpec.parse("bd:2"))
    minus_one = next(i for i in range(8) if element_order(bd, i) == 2)
    sub = resolve_subgroup(bd, f"gens:{minus_one}")
    assert sub.order == 2


def test_a_non_integer_generator_index_is_rejected_naming_the_spec():
    bt = build_group(GroupSpec.parse("bt"))
    with pytest.raises(ValueError, match="subgroup spec 'gens:1,x' of bt: generator indices"):
        resolve_subgroup(bt, "gens:1,x")


@pytest.mark.parametrize("spec,message", [
    ("gens:-1", r"subgroup spec 'gens:-1' of bt: generator indices \[-1\] outside the range "
                r"\[0, 24\)"),
    ("gens:3,24,30", r"subgroup spec 'gens:3,24,30' of bt: generator indices \[24, 30\] "
                     r"outside the range \[0, 24\)"),
    ("cyc2", r"subgroup spec 'cyc2' of bt: cyc2 is the index-2 cyclic subgroup of a binary "
             r"dihedral group"),
    ("foo", r"cannot parse subgroup spec 'foo' of bt"),
])
def test_an_unresolvable_subgroup_spec_is_rejected_naming_the_spec_and_group(spec, message):
    bt = build_group(GroupSpec.parse("bt"))
    with pytest.raises(ValueError, match=f"^{message}$"):
        resolve_subgroup(bt, spec)


def test_nonnormal_subgroup_rejected():
    bt = build_group(GroupSpec.parse("bt"))
    # an order-4 cyclic subgroup of 2T is not normal
    idx = next(i for i in range(24) if element_order(bt, i) == 4)
    with pytest.raises(ValueError, match="subgroup 'gens:.*' of bt is not normal"):
        resolve_subgroup(bt, f"gens:{idx}")


def test_non_abelian_quotient_rejected():
    bt = build_group(GroupSpec.parse("bt"))
    # {+1, -1} is normal in 2T, with quotient the non-abelian A4
    minus_one = next(i for i in range(24) if element_order(bt, i) == 2)
    with pytest.raises(ValueError, match="quotient by subgroup 'gens:.*' of bt is not abelian"):
        resolve_subgroup(bt, f"gens:{minus_one}")


def test_comm_computes_the_commutator_subgroup_once(monkeypatch):
    from zerofiber import groups

    calls = []
    real = groups.commutator_subgroup

    def counted(group):
        calls.append(group.spec)
        return real(group)

    bo = build_group(GroupSpec.parse("bo"))
    bd3 = build_group(GroupSpec.parse("bd:3"))
    comm = real(bo)
    monkeypatch.setattr(groups, "commutator_subgroup", counted)
    # a gens: spec and cyc2 are checked on the generators, with no commutator subgroup
    assert resolve_subgroup(bo, "gens:" + ",".join(map(str, comm))).indices == comm
    assert calls == []
    assert resolve_subgroup(bd3, "cyc2").order == 6
    assert calls == []
    assert resolve_subgroup(bo, "comm").order == 24
    assert calls == [bo.spec]


def resolution(resolve, *args):
    try:
        return resolve(*args)
    except ValueError as exc:
        return str(exc)


@pytest.mark.parametrize("spec,width", [("bd:3", 2), ("bt", 2), ("bo", 2), ("bi", 1)])
def test_subgroup_checks_on_the_generators_equal_the_sweep(spec, width):
    """Every gens:i (and gens:i,j for width 2) resolves to the subgroup that
    the checks over all elements accept, or raises the same error."""
    group = build_group(GroupSpec.parse(spec))
    comm = commutator_subgroup_by_sweep(group)
    rejections = set()
    for r in range(1, width + 1):
        for seeds in combinations(range(group.order), r):
            text = "gens:" + ",".join(map(str, seeds))
            want = resolution(verify_subgroup_by_sweep, group, text,
                              generated_subgroup(group, seeds), comm)
            got = resolution(lambda: resolve_subgroup(group, text).indices)
            assert got == want, text
            if isinstance(want, str):
                rejections.add(want.split(" is not ")[1])
    assert rejections == {"normal", "abelian"}


def test_mult_table_consistency():
    g = build_group(GroupSpec.parse("bd:2"))
    for a in range(g.order):
        assert g.mult[a][g.inv[a]] == 0
        assert g.mult[0][a] == a
        assert g.mult[a][0] == a


def test_closure_cap():
    from zerofiber.groups import ClosureCapError

    gens = builtin_generators(GroupSpec("bi"))
    with pytest.raises(ClosureCapError):
        close(gens, cap=50)


ORACLE_SPECS = [f"cyclic:{l}" for l in range(1, 13)] + [f"bd:{n}" for n in range(1, 9)] + [
    "bt", "bo"]


@pytest.mark.parametrize("spec", ORACLE_SPECS)
def test_close_matches_brute_force(spec):
    """close fills mult by lookups along BFS parents; the oracle is the
    level-by-level BFS plus one exact product per table entry."""
    gens = builtin_generators(GroupSpec.parse(spec))
    ident = mat_identity2(gens[0][0].m)
    elements, index, frontier = [ident], {ident: 0}, [ident]
    while frontier:
        new_frontier = []
        for el in frontier:
            for g in gens:
                prod = mat_mul2(el, g)
                if prod not in index:
                    index[prod] = len(elements)
                    elements.append(prod)
                    new_frontier.append(prod)
        frontier = new_frontier
    group = close(gens)
    assert group.elements == elements
    assert group.gen_indices == [index[g] for g in gens]
    assert group.mult == [[index[mat_mul2(a, b)] for b in elements] for a in elements]
    assert all(group.mult[a][group.inv[a]] == 0 for a in range(group.order))


@pytest.mark.parametrize("text", ["cyclic:10001", "bd:5001"])
def test_conductor_past_the_cap_is_rejected_at_parse(text, monkeypatch):
    from zerofiber import cyclotomic

    def no_rows(m):
        raise AssertionError("an oversized spec reached the cyclotomic tables")

    monkeypatch.setattr(cyclotomic, "_power_rows", no_rows)
    with pytest.raises(ValueError, match=text):
        GroupSpec.parse(text)
