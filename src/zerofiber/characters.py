"""Exact character tables for the catalogue groups.

Every table is built by the McKay sieve: the linear characters (read off
their exponents on the generators) and chi_V, then the new
constituents of chi * chi_V with their linear twists and Galois conjugates
until every class has its character.  Each table is certified on
construction by row orthonormality and the degree sum; the integrality of
its McKay multiplicities is certified by ``mckay_graph``.  Column
orthogonality needs no check of its own: row orthonormality of a square
table is M M* = I for M_{chi, C} = chi(C) sqrt(|C| / |G|), and a square
matrix with a right inverse has it as its left inverse, so M* M = I, which
is the column relation.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import product
from math import gcd, lcm

from .cyclotomic import Cyc, hermitian_sum
from .groups import FiniteGroup, GroupSpec, Subgroup, build_group, commutator_subgroup


@dataclass(frozen=True)
class ClassFunction:
    """Values per conjugacy class, in the group's class order."""

    values: tuple[Cyc, ...]

    @property
    def degree(self) -> Cyc:
        return self.values[0]

    def __mul__(self, other: "ClassFunction") -> "ClassFunction":
        return ClassFunction(tuple(a * b for a, b in zip(self.values, other.values)))

    def __add__(self, other: "ClassFunction") -> "ClassFunction":
        return ClassFunction(tuple(a + b for a, b in zip(self.values, other.values)))

    def __sub__(self, other: "ClassFunction") -> "ClassFunction":
        return ClassFunction(tuple(a - b for a, b in zip(self.values, other.values)))

    def conj(self) -> "ClassFunction":
        return ClassFunction(tuple(v.conj() for v in self.values))

    def scale(self, k: int) -> "ClassFunction":
        return ClassFunction(tuple(v * k for v in self.values))

    def is_zero(self) -> bool:
        return all(v.is_zero() for v in self.values)


def _key(chi: ClassFunction) -> tuple:
    """The exact values as plain integers, (m, num, den) per class."""
    return tuple((v.m, v.num, v.den) for v in chi.values)


def inner_product(group: FiniteGroup, a: ClassFunction, b: ClassFunction) -> Fraction:
    """(1/|G|) sum_g a(g) conj(b(g)); exact, and rational for our uses.

    One fused sum over the classes, weighted by class size: each value
    a_i z^i times conj(b_j z^j) lands in slot (i - j) mod m of a single
    integer vector (see ``hermitian_sum``).  Raises ``ValueError`` when the
    result is not rational.
    """
    acc = hermitian_sum(map(len, group.classes), a.values, b.values)
    return acc.as_rational() / group.order


def defining_character(group: FiniteGroup) -> ClassFunction:
    return ClassFunction(tuple(group.trace(c[0]) for c in group.classes))


def trivial_character(group: FiniteGroup) -> ClassFunction:
    one = Cyc.one(group.conductor)
    return ClassFunction(tuple(one for _ in group.classes))


# -- linear characters from generator exponents --------------------------------

def _extend(group: FiniteGroup, v: tuple[int, ...], e: int) -> list[int] | None:
    """The homomorphism h: G -> Z/e with h(g_k) = v_k, or None if there is
    none.  close numbered the elements in BFS order, so each x > 0 is first
    reached as elements[p] g_k with p < x, and h(x) = h(p) + v_k; every later
    edge x -> x g_k must agree.  If all do, h(x y) = h(x) + h(y) by induction
    on a word for y in the generators."""
    h = [0] + [None] * (group.order - 1)
    for p in range(group.order):
        for k, g in enumerate(group.gen_indices):
            x, value = group.mult[p][g], (h[p] + v[k]) % e
            if h[x] is None:
                h[x] = value
            elif h[x] != value:
                return None
    return h


def linear_characters(group: FiniteGroup) -> list[ClassFunction]:
    """All degree-1 characters, trivial first, as the homomorphisms
    h: G -> Z/e with e = |G : G'| (value zeta_e^h), one per exponent vector
    (h(g_k))_k that extends.

    A linear character factors through the abelian group G/G' of order e,
    whose exponent divides e, so there are exactly e of them and each takes
    e-th roots of unity as values.  Any other count raises AssertionError.
    """
    e = group.order // len(commutator_subgroup(group))
    homs = [h for v in product(range(e), repeat=len(group.gen_indices))
            if (h := _extend(group, v, e)) is not None]
    if len(homs) != e:
        raise AssertionError(
            f"{group.spec}: {len(homs)} linear characters found, |G : G'| = {e} expected")
    m = lcm(group.conductor, e)
    chars = [ClassFunction(tuple(Cyc.zeta(m, h[c[0]] * m // e) for c in group.classes))
             for h in homs]
    return chars[:1] + sorted(chars[1:], key=_key)  # v = 0 is the trivial character


def kernel_contains(group: FiniteGroup, chi: ClassFunction, sub: Subgroup) -> bool:
    """chi = 1 on sub, checked once per class that meets sub: chi is a
    class function, so its values there are its values on sub."""
    return all(chi.values[c] == 1 for c in {group.class_of[h] for h in sub.indices})


# -- full tables ---------------------------------------------------------------

def validate_table(group: FiniteGroup, chars: list[ClassFunction]) -> None:
    """A square table with orthonormal rows and degree sum |G|; the columns
    are then orthogonal too (see the module docstring)."""
    k = len(group.classes)
    if len(chars) != k:
        raise AssertionError(f"{len(chars)} characters for {k} classes")
    for i in range(k):
        for j in range(i, k):
            ip = inner_product(group, chars[i], chars[j])
            if ip != (1 if i == j else 0):
                raise AssertionError(f"rows {i},{j} have inner product {ip}")
    total = sum(chi.degree.as_rational() ** 2 for chi in chars)
    if total != group.order:
        raise AssertionError(f"sum of squared degrees {total} != |G| = {group.order}")


def _mckay_sieve(group: FiniteGroup) -> list[ClassFunction]:
    """The irreducible characters from the linear ones and chi_V: decompose
    chi * chi_V for each known chi, strip its known constituents, and keep a
    remainder of norm 1 together with its linear twists and its images
    sigma_k o chi under every unit k of the conductor (zeta -> zeta^k).

    The Galois closure is sound: sigma_k o chi is the character of the
    representation with sigma_k applied to its entries, and
    <sigma chi, sigma chi> = sigma <chi, chi> = 1, so it is irreducible.  On
    E8, where 6 * chi_V = 5 + 4' + 3' does not split, the conjugates 2' and
    3' of 2 = chi_V and 3 supply the missing rows.

    Raises ``AssertionError`` on a multiplicity that is not a non-negative
    integer, on a value at another conductor, and when no product chi * chi_V
    leaves a new irreducible before every class has its character.
    """
    m = group.conductor
    units = [k for k in range(1, m + 1) if gcd(k, m) == 1]
    known: list[ClassFunction] = list(linear_characters(group))
    seen = {_key(chi) for chi in known}
    chi_v = defining_character(group)

    def push(chi):
        if any(v.m != m for v in chi.values):
            raise AssertionError(f"McKay sieve met a value off conductor {m} on {group.spec}")
        for k in units:
            image = chi if k == 1 else ClassFunction(tuple(v.galois(k) for v in chi.values))
            key = _key(image)
            if key not in seen:
                seen.add(key)
                known.append(image)

    if inner_product(group, chi_v, chi_v) == 1:
        push(chi_v)
    target = len(group.classes)
    while len(known) < target:
        for chi in list(known):
            rem = chi * chi_v
            for psi in known:
                mult = inner_product(group, rem, psi)
                if mult.denominator != 1 or mult < 0:
                    raise AssertionError(f"McKay sieve met the non-integral multiplicity {mult}")
                if mult:
                    rem = rem - psi.scale(int(mult))
            if rem.is_zero():
                continue
            if inner_product(group, rem, rem) == 1:
                push(rem)
                for lin in known[:]:
                    if lin.degree == 1:
                        push(rem * lin)
                break
        else:
            raise AssertionError(
                f"McKay sieve stalled on {group.spec}: {len(known)} of {target} characters")
    return known


@lru_cache(maxsize=None)
def character_table(spec: GroupSpec) -> tuple[ClassFunction, ...]:
    group = build_group(spec)
    chars = _sorted_rows(group, _mckay_sieve(group))
    validate_table(group, chars)
    return tuple(chars)


def _sorted_rows(group: FiniteGroup, chars: list[ClassFunction]) -> list[ClassFunction]:
    """Deterministic row order: trivial first, then by (degree, value key)."""
    triv = trivial_character(group)

    rest = [c for c in chars if c.values != triv.values]
    rest.sort(key=lambda cf: (cf.degree.as_rational(), _key(cf)))
    return [triv] + rest

