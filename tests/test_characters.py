from fractions import Fraction
from math import gcd

import pytest

from oracles import (bd_table, bi_table, bo_table, bt_table, brute_force_gram,
                     classes_by_full_orbits, columns_are_orthogonal, commutator_subgroup_by_sweep,
                     coset_table_linear_characters, power)
from zerofiber import characters
from zerofiber.cyclotomic import Cyc
from zerofiber.characters import (
    ClassFunction,
    character_table,
    defining_character,
    gram_entries,
    inner_product,
    kernel_contains,
    linear_characters,
    validate_table,
)
from zerofiber.groups import GroupSpec, build_group, commutator_subgroup, resolve_subgroup

ALL_SPECS = ["cyclic:1", "cyclic:2", "cyclic:3", "cyclic:4", "cyclic:6",
             "bd:1", "bd:2", "bd:3", "bd:4", "bt", "bo", "bi"]


@pytest.mark.parametrize("spec", ALL_SPECS)
def test_tables_validate(spec):
    # character_table checks row orthonormality and the degree sum on
    # construction; mckay_graph certifies McKay integrality
    chars = character_table(GroupSpec.parse(spec))
    g = build_group(GroupSpec.parse(spec))
    assert len(chars) == len(g.classes)
    assert chars[0].degree == 1


def test_cyclic4_characters():
    g = build_group(GroupSpec.parse("cyclic:4"))
    chars = character_table(GroupSpec.parse("cyclic:4"))
    assert len(chars) == 4
    assert all(c.degree == 1 for c in chars)
    w = g.gen_indices[0]
    vals = sorted(str(c.values[g.class_of[w]]) for c in chars)
    i = Cyc.zeta(4)
    assert vals == sorted(str(v) for v in [Cyc.one(4), i, -Cyc.one(4), -i])


def test_bd2_degrees():
    chars = character_table(GroupSpec.parse("bd:2"))
    degs = sorted(int(c.degree.as_rational()) for c in chars)
    assert degs == [1, 1, 1, 1, 2]


def test_bi_degrees_match_e8_delta():
    chars = character_table(GroupSpec.parse("bi"))
    degs = sorted(int(c.degree.as_rational()) for c in chars)
    assert degs == [1, 2, 2, 3, 3, 4, 4, 5, 6]


def test_bo_degrees():
    chars = character_table(GroupSpec.parse("bo"))
    degs = sorted(int(c.degree.as_rational()) for c in chars)
    assert degs == [1, 1, 2, 2, 2, 3, 3, 4]


def test_linear_character_counts():
    assert len(linear_characters(build_group(GroupSpec.parse("bi")))) == 1
    assert len(linear_characters(build_group(GroupSpec.parse("bt")))) == 3
    assert len(linear_characters(build_group(GroupSpec.parse("bo")))) == 2
    for ell in (2, 3, 5):
        assert len(linear_characters(build_group(GroupSpec.parse(f"cyclic:{ell}")))) == ell
    for n in (2, 3):
        assert len(linear_characters(build_group(GroupSpec.parse(f"bd:{n}")))) == 4


def test_defining_character_real_and_degree_two():
    for spec in ALL_SPECS:
        g = build_group(GroupSpec.parse(spec))
        chi = defining_character(g)
        assert chi.degree == 2
        assert chi.conj().values == chi.values


def test_kernel_contains():
    g = build_group(GroupSpec.parse("bt"))
    comm = resolve_subgroup(g, "comm")
    lins = linear_characters(g)
    # every linear character kills the commutator subgroup
    assert all(kernel_contains(g, chi, comm) for chi in lins)
    # only the trivial one kills the whole group
    whole = resolve_subgroup(g, "whole")
    assert sum(kernel_contains(g, chi, whole) for chi in lins) == 1


def test_restriction_distinguishes():
    g = build_group(GroupSpec.parse("bd:2"))
    cyc2 = resolve_subgroup(g, "cyc2")
    lins = linear_characters(g)
    trivial_on = [chi for chi in lins if kernel_contains(g, chi, cyc2)]
    assert len(trivial_on) == 2  # index-2 subgroup


def test_inner_products_are_exact_rationals():
    g = build_group(GroupSpec.parse("bo"))
    chars = character_table(GroupSpec.parse("bo"))
    for a in chars:
        for b in chars:
            ip = inner_product(g, a, b)
            assert isinstance(ip, Fraction)
            assert ip == (1 if a.values == b.values else 0)


def test_sym2_of_defining_is_the_three_dim_for_bt():
    # frozen cross-check of the stored 3-dim row: Sym^2 chi_V values
    g = build_group(GroupSpec.parse("bt"))
    chi_v = defining_character(g)
    vals = []
    for cls in g.classes:
        rep = cls[0]
        sq = power(g, rep, 2)
        v = (chi_v.values[g.class_of[rep]] ** 2 + chi_v.values[g.class_of[sq]]) * Fraction(1, 2)
        vals.append(v)
    chars = character_table(GroupSpec.parse("bt"))
    assert any(tuple(vals) == c.values for c in chars)


# -- differential oracle for the fused inner product ---------------------------

CATALOGUE = ([f"cyclic:{ell}" for ell in range(1, 13)] + [f"bd:{n}" for n in range(1, 9)]
             + ["bt", "bo", "bi"])


def inner_product_oracle(group, a, b):
    """The term-by-term Cyc loop: sum over classes of a * conj(b) * |class|."""
    acc = Cyc.zero(group.conductor)
    for cls, va, vb in zip(group.classes, a.values, b.values):
        acc = acc + va * vb.conj() * len(cls)
    return (acc * Fraction(1, group.order)).as_rational()


def outcome(f, *args):
    try:
        return f(*args)
    except ValueError as e:
        return type(e)


def assert_same_inner_products(group, funcs):
    for a in funcs:
        for b in funcs:
            want = outcome(inner_product_oracle, group, a, b)
            assert outcome(inner_product, group, a, b) == want


@pytest.mark.parametrize("spec", CATALOGUE)
def test_inner_product_matches_cyc_loop(spec):
    """Every pair from the table, plus chi_V and chi * chi_V."""
    group = build_group(GroupSpec.parse(spec))
    chars = character_table(GroupSpec.parse(spec))
    chi_v = defining_character(group)
    assert_same_inner_products(group, list(chars) + [chi_v] + [chi * chi_v for chi in chars[:3]])


@pytest.mark.parametrize("spec", ["cyclic:3", "cyclic:8", "bd:3", "bt", "bo", "bi"])
def test_inner_product_matches_cyc_loop_off_characters(spec):
    """Class functions with a different denominator on each class, and
    combinations that are not characters (their products can be irrational,
    and then both sides must raise)."""
    group = build_group(GroupSpec.parse(spec))
    chars = character_table(GroupSpec.parse(spec))
    k = len(chars)
    funcs = [
        ClassFunction(tuple(v * Fraction(1, c + 1) for c, v in enumerate(chars[-1].values))),
        ClassFunction(tuple(v * Fraction(c + 2, 3) for c, v in enumerate(chars[k // 2].values))),
        chars[1] + chars[-1].scale(3) - chars[0],
        ClassFunction(tuple(Cyc.zeta(group.conductor, c) for c in range(k))),
    ]
    assert_same_inner_products(group, funcs + [chars[0], chars[-1]])


def test_inner_product_matches_cyc_loop_on_raw_abelian_group():
    from zerofiber.groups import builtin_generators, close

    g = close(builtin_generators(GroupSpec("cyclic", 7)))
    g.spec = None
    chars = linear_characters(g)
    assert len(chars) == 7
    scaled = ClassFunction(tuple(v * Fraction(1, c + 1) for c, v in enumerate(chars[2].values)))
    assert_same_inner_products(g, list(chars) + [scaled])


# -- the McKay sieve as the table constructor ------------------------------------

def value_keys(chars):
    """Each row's exact values, (m, num, den) per class."""
    return {tuple((v.m, v.num, v.den) for v in chi.values) for chi in chars}


@pytest.mark.parametrize("spec", [f"bd:{n}" for n in range(1, 13)] + ["bt", "bo", "bi"])
def test_sieve_table_equals_the_closed_forms(spec):
    """The sieve-built table is, value for value, the bd closed form or the
    stored bt / bo / bi table on the same classes."""
    group = build_group(GroupSpec.parse(spec))
    oracle = {"bt": bt_table, "bo": bo_table, "bi": bi_table}.get(spec, bd_table)(group)
    chars = character_table(GroupSpec.parse(spec))
    assert len(chars) == len(oracle) == len(group.classes)
    assert value_keys(chars) == value_keys(oracle)


FULL_CATALOGUE = ([f"cyclic:{ell}" for ell in range(1, 31)] + [f"bd:{n}" for n in range(1, 16)]
                  + ["bt", "bo", "bi"])


@pytest.mark.parametrize("spec", FULL_CATALOGUE)
def test_galois_conjugation_permutes_the_rows(spec):
    """For every unit k of the conductor, zeta -> zeta^k maps the table onto
    itself."""
    chars = character_table(GroupSpec.parse(spec))
    m = build_group(GroupSpec.parse(spec)).conductor
    rows = value_keys(chars)
    assert len(rows) == len(chars)
    for k in (k for k in range(1, m + 1) if gcd(k, m) == 1):
        images = [ClassFunction(tuple(v.galois(k) for v in chi.values)) for chi in chars]
        assert value_keys(images) == rows


@pytest.mark.parametrize("spec", FULL_CATALOGUE)
def test_columns_are_orthogonal(spec):
    """The column relation that validate_table no longer checks holds on
    every table, as row orthonormality of a square table implies."""
    group = build_group(GroupSpec.parse(spec))
    assert columns_are_orthogonal(group, character_table(GroupSpec.parse(spec)))


@pytest.mark.parametrize("spec", ["bd:3", "bt", "bi"])
def test_a_table_with_a_broken_column_is_rejected(spec):
    """Positive control: the sign of one nonzero entry of the last row
    flipped breaks the column relation, and the row check rejects the table
    too."""
    group = build_group(GroupSpec.parse(spec))
    table = list(character_table(GroupSpec.parse(spec)))
    last = list(table[-1].values)
    k = next(k for k in range(1, len(last)) if not last[k].is_zero())
    last[k] = -last[k]
    table[-1] = ClassFunction(tuple(last))
    assert not columns_are_orthogonal(group, table)
    with pytest.raises(AssertionError, match="inner product"):
        validate_table(group, table)


def row_keys(chars):
    """Each row's exact values, (m, num, den) per class, in row order."""
    return [characters._key(chi) for chi in chars]


@pytest.mark.parametrize("spec", FULL_CATALOGUE)
def test_group_layer_equals_the_sweep_oracles(spec, monkeypatch):
    """Classes, the commutator subgroup and the linear characters are exactly
    what the sweeps over all elements and the coset-table extension give,
    and the table is what the sieve builds from those linear characters."""
    group = build_group(GroupSpec.parse(spec))
    assert (group.classes, group.class_of) == classes_by_full_orbits(group)
    assert commutator_subgroup(group) == commutator_subgroup_by_sweep(group)
    oracle = coset_table_linear_characters(group)
    assert row_keys(linear_characters(group)) == row_keys(oracle)
    table = character_table(GroupSpec.parse(spec))
    monkeypatch.setattr(characters, "linear_characters", lambda g: list(oracle))
    assert row_keys(table) == row_keys(characters._sorted_rows(group,
                                                               characters._mckay_sieve(group)))


def test_a_wrong_commutator_subgroup_fails_the_count(monkeypatch):
    # with [G, G] taken as 1 the count asks for 24 homomorphisms bt -> Z/24,
    # but only the 3 through bt / [bt, bt] = Z/3 exist
    monkeypatch.setattr(characters, "commutator_subgroup", lambda g: (0,))
    with pytest.raises(AssertionError,
                       match=r"^bt: 3 linear characters found, \|G : G'\| = 24 expected$"):
        linear_characters(build_group(GroupSpec.parse("bt")))


def test_sieve_raises_on_a_non_integral_multiplicity(monkeypatch):
    # chi_V + lambda/2 has multiplicity 1/2 at the linear character lambda,
    # which the sieve meets on its first decomposition
    group = build_group(GroupSpec.parse("bd:2"))
    lam = linear_characters(group)[1]
    chi = defining_character(group) + ClassFunction(tuple(v * Fraction(1, 2) for v in lam.values))
    monkeypatch.setattr(characters, "defining_character", lambda g: chi)
    with pytest.raises(AssertionError, match="non-integral multiplicity 1/2"):
        characters._mckay_sieve(group)


def test_sieve_reports_its_stall(monkeypatch):
    # with chi_V trivial no product chi * chi_V leaves a new constituent, so
    # the sieve stops at the three linear characters of bt
    group = build_group(GroupSpec.parse("bt"))
    monkeypatch.setattr(characters, "defining_character", characters.trivial_character)
    with pytest.raises(AssertionError, match="stalled on bt: 3 of 7 characters"):
        characters._mckay_sieve(group)


def test_sieve_rejects_a_value_off_the_conductor(monkeypatch):
    group = build_group(GroupSpec.parse("bt"))
    chi = ClassFunction(tuple(v.lift(48) for v in defining_character(group).values))
    monkeypatch.setattr(characters, "defining_character", lambda g: chi)
    with pytest.raises(AssertionError, match="off conductor 24"):
        characters._mckay_sieve(group)


def test_one_construction_per_table(monkeypatch):
    """character_table runs the sieve exactly once for every family, bi
    included."""
    calls = []
    sieve = characters._mckay_sieve

    def counted(group):
        calls.append(group.spec)
        return sieve(group)

    monkeypatch.setattr(characters, "_mckay_sieve", counted)
    character_table.cache_clear()
    specs = [GroupSpec.parse(s) for s in ("cyclic:6", "bd:1", "bd:3", "bt", "bo", "bi")]
    for spec in specs:
        character_table(spec)
        character_table(spec)
    assert calls == specs


# -- the linear block of the Gram matrix ----------------------------------------

@pytest.mark.parametrize("spec", FULL_CATALOGUE)
def test_the_gram_matrix_equals_the_brute_force_one(spec):
    """The orthonormality Gram that validate_table checks is, entry for
    entry, the k x k matrix of inner products, and every linear pair
    1 <= i <= j is taken from row 0."""
    group = build_group(GroupSpec.parse(spec))
    chars = character_table(GroupSpec.parse(spec))
    k = len(chars)
    gram = [[None] * k for _ in range(k)]
    taken = 0
    for i, j, value, source in gram_entries(chars, lambda i, j: inner_product(group, chars[i],
                                                                              chars[j])):
        gram[i][j] = gram[j][i] = value
        taken += source != "computed"
    assert tuple(map(tuple, gram)) == brute_force_gram(group, chars, chars)
    linear = sum(chi.degree == 1 for chi in chars)
    assert taken == linear * (linear - 1) // 2


def corrupted(chars, row, values):
    return chars[:row] + [ClassFunction(tuple(values))] + chars[row + 1:]


def rational_class(chi):
    """The first class after the identity where chi takes a rational value."""
    return next(c for c in range(1, len(chi.values)) if chi.values[c].is_rational())


@pytest.mark.parametrize("spec", ["cyclic:4", "bd:3", "bt"])
@pytest.mark.parametrize("factor", [2, -1])
def test_a_corrupted_linear_row_is_rejected(spec, factor):
    """One rational value of a linear row doubled (factor 2: no root of
    unity, so the row has no exponent vector and its entries are computed)
    or negated (factor -1: another root of unity, so the row keeps an
    exponent vector but is no homomorphism).  Either way <1, lambda> =
    (factor - 1) |c| conj(lambda(c)) / |G| != 0 on row 0."""
    group, chars = build_group(GroupSpec.parse(spec)), list(character_table(GroupSpec.parse(spec)))
    values = list(chars[1].values)
    c = rational_class(chars[1])
    values[c] = values[c] * factor
    table = corrupted(chars, 1, values)
    assert (table[1].exponents is None) == (factor == 2)
    with pytest.raises(AssertionError,
                       match=rf"^{spec}: rows 0,1 have inner product -?\d+/\d+ \(computed\)$"):
        validate_table(group, table)


@pytest.mark.parametrize("spec", ["cyclic:4", "bd:3", "bt"])
def test_a_duplicated_linear_row_is_rejected(spec):
    """conj(lambda_1) lambda_1 is the trivial row, so the entry (1, 2) of a
    table whose row 2 repeats row 1 is taken from <1, 1> = 1."""
    group, chars = build_group(GroupSpec.parse(spec)), list(character_table(GroupSpec.parse(spec)))
    table = corrupted(chars, 2, chars[1].values)
    with pytest.raises(AssertionError,
                       match=rf"^{spec}: rows 1,2 have inner product 1 \(taken from \(0, 0\)\)$"):
        validate_table(group, table)
