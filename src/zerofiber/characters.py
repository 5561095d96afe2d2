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

Inner products go through packed forms (Kronecker substitution).  A class
function a keeps, from its first inner product on, one integer per class
for each side of a pair: with den_a the common denominator of its values
and A_c(z) = den_a * a(c) over the power basis of Q(zeta_m), the left form
is A_c(2^B) and the right form is A_c with its phi(m) coefficients
reversed, at the same base.  For a pair (a, b) the sum over the classes of
|c| times a's left form times b's right form is one C-level big-integer
dot product, whose 2 phi - 1 signed base-2^B digits are the coefficients
of z^(1 - phi) .. z^(phi - 1) in sum_c |c| A_c(z) conj(B_c(z)).  A digit
is exact while its absolute value stays below 2^(B-1), which
|G| norm_a norm_b < 2^(B-1) guarantees (norm_a: the largest l1 norm of an
A_c); a pair outside that bound raises ``ValueError``.  The forms live on
the functions, so those of a table live and die with the
``character_table`` cache.

The block of a Gram matrix between linear rows is read off its first row.
Let lambda_i and lambda_j take only m-th roots of unity, lambda(c) =
zeta_m^(e(c)), and let lambda_t be the row with exponent vector e_j - e_i
(mod m).  As conj(zeta^a) = zeta^(-a), lambda_t = conj(lambda_i) lambda_j
pointwise, so lambda_i(c) conj(lambda_j(c)) = conj(lambda_t(c)) and, for
any class function f,

    <lambda_i f, lambda_j> = (1/|G|) sum_c |c| f(c) lambda_i(c) conj(lambda_j(c))
                           = (1/|G|) sum_c |c| f(c) conj(lambda_t(c)) = <f, lambda_t>.

With f = 1 this is <lambda_i, lambda_j> = <1, lambda_t>, the entry (0, t)
of the Gram matrix when row 0 is the trivial character, and with f = chi_V
it is the McKay entry m_0t.  The identity is pointwise: it needs the values
to be roots of unity and lambda_t among the rows, not that any row is a
homomorphism, so a taken entry equals the one computed directly on every
input, a corrupted table among them.  ``gram_entries`` takes the entries of
the block this way and computes every other one.
"""

from __future__ import annotations

from collections.abc import Callable, Iterator
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from itertools import product
from math import gcd, lcm
from operator import mul

from .cyclotomic import SLOT_BITS, Cyc, kronecker_pack, kronecker_unpack
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

    @cached_property
    def packed(self) -> tuple[int, list[int], list[int], int, int]:
        """(m, left, right, den, norm): ``kronecker_pack`` of the values at
        their lcm conductor m, computed on first use and kept with the
        function."""
        m = lcm(*(v.m for v in self.values))
        return (m, *kronecker_pack(self.values, m))

    @cached_property
    def exponents(self) -> tuple[int, tuple[int, ...]] | None:
        """(m, e) with every value zeta_m^(e_c) at the one conductor m of the
        values, each matched exactly (denominator 1) against the coefficient
        tuples of the m-th roots of unity; None if a value is not one."""
        m = self.values[0].m
        roots = _root_exponents(m)
        e = []
        for v in self.values:
            t = roots.get(v.num) if v.m == m and v.den == 1 else None
            if t is None:
                return None
            e.append(t)
        return m, tuple(e)


@lru_cache(maxsize=None)
def _root_exponents(m: int) -> dict[tuple[int, ...], int]:
    """t for the coefficient tuple of zeta_m^t, t = 0..m-1."""
    return {Cyc.zeta(m, t).num: t for t in range(m)}


def _key(chi: ClassFunction) -> tuple:
    """The exact values as plain integers, (m, num, den) per class."""
    return tuple((v.m, v.num, v.den) for v in chi.values)


def _packed_at(f: ClassFunction, m: int) -> tuple[int, list[int], list[int], int, int]:
    """f's packed form at conductor m, a multiple of its own: the stored one,
    or one packed for this pair alone."""
    return f.packed if f.packed[0] == m else (m, *kronecker_pack(f.values, m))


def hermitian_dot(weights: list[int], a: ClassFunction, b: ClassFunction) -> Cyc:
    """sum_k w_k a_k conj(b_k) for integer weights, as one dot product of the
    packed forms: sum_k w_k left_a[k] right_b[k] = sum_t s_t 2^(B t), where
    s_t is the coefficient of z^(t - phi + 1) (see ``kronecker_pack``), then
    decoded by ``kronecker_unpack`` over the denominator den_a den_b.  Two
    conductors are lifted to their lcm first.

    Every |s_t| <= sum_k |w_k| |a_k|_1 |b_k|_1 <= (sum |w|) norm_a norm_b, so
    the digits are exact below 2^(B-1); at or above it this raises
    ``ValueError`` and names both operands.
    """
    m = lcm(a.packed[0], b.packed[0])
    _, left, _, den_a, norm_a = _packed_at(a, m)
    _, _, right, den_b, norm_b = _packed_at(b, m)
    if sum(map(abs, weights)) * norm_a * norm_b >= 1 << (SLOT_BITS - 1):
        raise ValueError(f"Hermitian sum of {a} and {b} with weights {weights} may overflow "
                         f"its {SLOT_BITS}-bit slots")
    return kronecker_unpack(sum(map(mul, map(mul, weights, left), right)), m, den_a * den_b)


def inner_product(group: FiniteGroup, a: ClassFunction, b: ClassFunction) -> Fraction:
    """(1/|G|) sum_g a(g) conj(b(g)); exact, and rational for our uses.

    One ``hermitian_dot`` over the classes, weighted by class size: a
    C-level sum of k big-integer products of the packed forms, which each
    function computes once, then 2 phi - 1 signed base-2^B digits decoded and
    folded mod Phi_m.  Raises ``ValueError`` when the result is not
    rational, and when |G| norm_a norm_b reaches 2^(B-1), the digit bound.
    """
    acc = hermitian_dot([len(c) for c in group.classes], a, b)
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

def _linear_block(chars: list[ClassFunction]) -> dict[tuple[int, int], int]:
    """t for each pair 1 <= i <= j of rows with exponent vectors at one
    conductor m such that row t has the exponent vector e_j - e_i (mod m):
    entry (i, j) of a Gram matrix over chars is then its entry (0, t) (see
    the module docstring).  Empty unless row 0 has exponent vector 0."""
    first = chars[0].exponents
    if first is None or any(first[1]):
        return {}
    index = {chi.exponents: t for t, chi in enumerate(chars) if chi.exponents}
    linear = [(i, chi.exponents) for i, chi in enumerate(chars) if i and chi.exponents]
    block = {}
    for a, (i, (m, e_i)) in enumerate(linear):
        for j, (m_j, e_j) in linear[a:]:
            if m_j == m:
                t = index.get((m, tuple([(y - x) % m for x, y in zip(e_i, e_j)])))
                if t is not None:
                    block[i, j] = t
    return block


def gram_entries(chars: list[ClassFunction], entry: Callable[[int, int], Fraction]
                 ) -> Iterator[tuple[int, int, Fraction, str]]:
    """(i, j, value, source) for the entries i <= j of a Gram matrix over
    chars, row by row, with entry(i, j) its value.  Where row 0 is trivial
    and rows i >= 1 and j are linear with conj(chi_i) chi_j = chi_t a row,
    the value is the entry (0, t) already computed, and source says so
    (proof in the module docstring); every other entry is entry(i, j),
    "computed"."""
    block = _linear_block(chars)
    first = []
    for i in range(len(chars)):
        for j in range(i, len(chars)):
            t = block.get((i, j))
            if t is None:
                value = entry(i, j)
                if not i:
                    first.append(value)
                yield i, j, value, "computed"
            else:
                yield i, j, first[t], f"taken from (0, {t})"


def validate_table(group: FiniteGroup, chars: list[ClassFunction]) -> None:
    """A square table with orthonormal rows and degree sum |G|; the columns
    are then orthogonal too (see the module docstring).

    The inner products between linear rows i >= 1 and j are taken from the
    first row by ``gram_entries``: <lambda_i, lambda_j> = <1, lambda_t> for
    lambda_t = conj(lambda_i) lambda_j, which holds pointwise whenever the
    values are roots of unity, homomorphism or not.  So each taken entry is
    the value a direct inner product gives, and a table passes exactly when
    its full Gram matrix is the identity.  A duplicated linear row has
    t = 0 and fails on <1, 1> = 1.
    """
    k = len(group.classes)
    if len(chars) != k:
        raise AssertionError(f"{len(chars)} characters for {k} classes")
    entries = gram_entries(chars, lambda i, j: inner_product(group, chars[i], chars[j]))
    for i, j, ip, source in entries:
        if ip != (1 if i == j else 0):
            raise AssertionError(
                f"{group.spec}: rows {i},{j} have inner product {ip} ({source})")
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
    3' of 2 = chi_V and 3 supply the missing rows.  A character with only
    rational values is its own image under every sigma_k, so it is pushed
    alone.

    A chi whose chi * chi_V strips to zero is a sum of known characters, and
    every character found later is orthogonal to each of them, so it would
    strip to zero again: such a chi is not decomposed twice.

    Raises ``AssertionError`` on a multiplicity that is not a non-negative
    integer, on a value at another conductor, and when no product chi * chi_V
    leaves a new irreducible before every class has its character.
    """
    m = group.conductor
    units = [k for k in range(1, m + 1) if gcd(k, m) == 1]
    known: list[ClassFunction] = list(linear_characters(group))
    seen = {_key(chi) for chi in known}
    chi_v = defining_character(group)
    split: set[int] = set()  # indices i in known with known[i] * chi_V a sum of known

    def push(chi):
        if any(v.m != m for v in chi.values):
            raise AssertionError(f"McKay sieve met a value off conductor {m} on {group.spec}")
        rational = all(v.is_rational() for v in chi.values)
        for k in ([1] if rational else units):
            image = chi if k == 1 else ClassFunction(tuple(v.galois(k) for v in chi.values))
            key = _key(image)
            if key not in seen:
                seen.add(key)
                known.append(image)

    if inner_product(group, chi_v, chi_v) == 1:
        push(chi_v)
    target = len(group.classes)
    while len(known) < target:
        for i, chi in enumerate(list(known)):
            if i in split:
                continue
            rem = chi * chi_v
            for psi in known:
                mult = inner_product(group, rem, psi)
                if mult.denominator != 1 or mult < 0:
                    raise AssertionError(f"McKay sieve met the non-integral multiplicity {mult}")
                if mult:
                    rem = rem - psi.scale(int(mult))
            if rem.is_zero():
                split.add(i)
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

