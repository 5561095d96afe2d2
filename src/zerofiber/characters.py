"""Exact character tables for the catalogue groups.

Abelian tables come from the cyclic-extension algorithm on the group itself;
binary dihedral tables from the classical closed forms (trace of g^k on the
diagonal classes) plus the four linear characters; the three binary platonic
groups ship as stored exact tables over Q(zeta_24) / Q(zeta_5), matched to
the enumerated conjugacy classes by (element order, class size, defining
trace) and certified at load by orthogonality, degree sums and the McKay
integrality sieve.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import gcd

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


def inner_product(group: FiniteGroup, a: ClassFunction, b: ClassFunction) -> Fraction:
    """(1/|G|) sum_g a(g) conj(b(g)); exact, and rational for our uses.

    One fused sum over the classes, weighted by class size: each value
    a_i z^i times conj(b_j z^j) lands in slot (i - j) mod m of a single
    integer vector (see ``hermitian_sum``).  Raises ``ValueError`` when the
    result is not rational.
    """
    acc = hermitian_sum(map(len, group.classes), a.values, b.values)
    return acc.as_rational() / group.order


def value_at_element(group: FiniteGroup, chi: ClassFunction, idx: int) -> Cyc:
    return chi.values[group.class_of[idx]]


def defining_character(group: FiniteGroup) -> ClassFunction:
    return ClassFunction(tuple(group.trace(c[0]) for c in group.classes))


def trivial_character(group: FiniteGroup) -> ClassFunction:
    one = Cyc.one(group.conductor)
    return ClassFunction(tuple(one for _ in group.classes))


# -- linear characters via the abelianization ---------------------------------

def _abelian_hom_exponents(mult: list[list[int]], exponent: int) -> list[dict[int, int]]:
    """All homomorphisms of an abelian group (given by its table) into the
    roots of unity, as exponent dictionaries element -> e with value
    zeta_exponent^e.  Cyclic extension one generator at a time."""
    n = len(mult)
    homs: list[dict[int, int]] = [{0: 0}]
    covered = [0]
    while len(covered) < n:
        a = next(x for x in range(n) if x not in homs[0])
        # t = minimal power of a landing in the current subgroup
        t, cur = 1, a
        while cur not in homs[0]:
            cur = mult[cur][a]
            t += 1
        target = cur  # a^t
        new_homs = []
        for chi in homs:
            e = chi[target]
            if e % t != 0:
                raise AssertionError("abelian character extension: t does not divide e")
            x0 = e // t
            step = exponent // t
            for s in range(t):
                x = (x0 + s * step) % exponent
                ext = dict(chi)
                # enumerate cosets subgroup * a^j
                powers = [0]
                cur2 = a
                for _ in range(t - 1):
                    powers.append(cur2)
                    cur2 = mult[cur2][a]
                for base in list(chi):
                    for j, pw in enumerate(powers):
                        el = mult[base][pw]
                        ext[el] = (chi[base] + j * x) % exponent
                new_homs.append(ext)
        homs = new_homs
        covered = list(homs[0])
    return homs


def linear_characters(group: FiniteGroup) -> list[ClassFunction]:
    """All degree-1 characters, via the quotient by the commutator subgroup."""
    comm = commutator_subgroup(group)
    cset = frozenset(comm)
    # coset space
    coset_of = [-1] * group.order
    reps: list[int] = []
    for g in range(group.order):
        if coset_of[g] >= 0:
            continue
        cid = len(reps)
        reps.append(g)
        for h in comm:
            coset_of[group.mult[g][h]] = cid
    k = len(reps)
    qmult = [[coset_of[group.mult[reps[i]][reps[j]]] for j in range(k)] for i in range(k)]
    # exponent of the quotient
    exponent = 1
    for i in range(k):
        o, cur = 1, i
        while cur != 0:
            cur = qmult[cur][i]
            o += 1
        exponent = exponent * o // gcd(exponent, o)
    m = group.conductor * exponent // gcd(group.conductor, exponent)
    homs = _abelian_hom_exponents(qmult, exponent)
    out = []
    for chi in homs:
        vals = tuple(
            Cyc.zeta(m, (m // exponent) * chi[coset_of[c[0]]]) if exponent > 1 else Cyc.one(m)
            for c in group.classes
        )
        out.append(ClassFunction(vals))
    out.sort(key=lambda cf: tuple((v.m, v.num, v.den) for v in cf.values))
    # trivial first
    triv = trivial_character(group)
    out.remove(next(cf for cf in out if cf.values == triv.values))
    return [triv] + out


def kernel_contains(group: FiniteGroup, chi: ClassFunction, sub: Subgroup) -> bool:
    return all(value_at_element(group, chi, h) == 1 for h in sub.indices)


# -- full tables ---------------------------------------------------------------

def _abelian_table(group: FiniteGroup) -> list[ClassFunction]:
    chars = linear_characters(group)
    if len(chars) != len(group.classes):
        raise AssertionError("abelian group must have |G| linear characters")
    return chars


def _bd_table(group: FiniteGroup) -> list[ClassFunction]:
    n = group.spec.param
    chars = linear_characters(group)
    m = group.conductor
    for k in range(1, n):
        vals = []
        for cls in group.classes:
            rep = group.elements[cls[0]]
            if rep[1].is_zero() and rep[2].is_zero():
                gk = group.power(cls[0], k)
                vals.append(group.trace(gk))
            else:
                vals.append(Cyc.zero(m))
        chars.append(ClassFunction(tuple(vals)))
    return chars


# Stored exceptional tables.  Row entries are small integer combinations of
# named irrationalities; columns use canonical class labels resolved against
# the enumerated classes.

_BT_LABELS = ("1a", "2a", "4a", "3a", "3b", "6a", "6b")
_BO_LABELS = ("1a", "2a", "8a", "8b", "4a", "4b", "3a", "6a")
_BI_LABELS = ("1a", "2a", "4a", "3a", "6a", "5a", "5b", "10a", "10b")


def _bt_rows(m: int) -> list[list[Cyc]]:
    one = Cyc.one(m)
    w = Cyc.zeta(m, m // 3)
    w2 = w * w
    r = Cyc.rational

    def c(v):
        return r(v, m)

    return [
        [c(1), c(1), c(1), c(1), c(1), c(1), c(1)],
        [c(1), c(1), c(1), w, w2, w, w2],
        [c(1), c(1), c(1), w2, w, w2, w],
        [c(2), c(-2), c(0), c(-1), c(-1), c(1), c(1)],
        [c(2), c(-2), c(0), -w, -w2, w, w2],
        [c(2), c(-2), c(0), -w2, -w, w2, w],
        [c(3), c(3), c(-1), c(0), c(0), c(0), c(0)],
    ]


def _bo_rows(m: int) -> list[list[Cyc]]:
    s = Cyc.zeta(m, m // 8) + Cyc.zeta(m, m - m // 8)  # sqrt 2

    def c(v):
        return Cyc.rational(v, m)

    return [
        [c(1), c(1), c(1), c(1), c(1), c(1), c(1), c(1)],
        [c(1), c(1), c(-1), c(-1), c(1), c(-1), c(1), c(1)],
        [c(2), c(-2), s, -s, c(0), c(0), c(-1), c(1)],
        [c(2), c(-2), -s, s, c(0), c(0), c(-1), c(1)],
        [c(2), c(2), c(0), c(0), c(2), c(0), c(-1), c(-1)],
        [c(3), c(3), c(1), c(1), c(-1), c(-1), c(0), c(0)],
        [c(3), c(3), c(-1), c(-1), c(-1), c(1), c(0), c(0)],
        [c(4), c(-4), c(0), c(0), c(0), c(0), c(1), c(-1)],
    ]


def _bi_rows(m: int) -> list[list[Cyc]]:
    z5 = Cyc.zeta(m, m // 5)
    tau = -(z5 ** 2 + z5 ** 3)        # (1+sqrt5)/2
    taub = -(z5 + z5 ** 4)            # (1-sqrt5)/2

    def c(v):
        return Cyc.rational(v, m)

    return [
        [c(1), c(1), c(1), c(1), c(1), c(1), c(1), c(1), c(1)],
        [c(2), c(-2), c(0), c(-1), c(1), -taub, -tau, tau, taub],
        [c(2), c(-2), c(0), c(-1), c(1), -tau, -taub, taub, tau],
        [c(3), c(3), c(-1), c(0), c(0), taub, tau, tau, taub],
        [c(3), c(3), c(-1), c(0), c(0), tau, taub, taub, tau],
        [c(4), c(-4), c(0), c(1), c(-1), c(-1), c(-1), c(1), c(1)],
        [c(4), c(4), c(0), c(1), c(1), c(-1), c(-1), c(-1), c(-1)],
        [c(5), c(5), c(1), c(-1), c(-1), c(0), c(0), c(0), c(0)],
        [c(6), c(-6), c(0), c(0), c(0), c(1), c(1), c(-1), c(-1)],
    ]


def _class_labels(group: FiniteGroup) -> dict[str, int]:
    """Canonical class labels from (order, size, trace), with the bt 3a/3b
    pair resolved by enumeration order (3b is 3a's inverse class)."""
    fam = group.spec.family
    info = []
    for cid, cls in enumerate(group.classes):
        rep = cls[0]
        info.append((group.element_order[rep], len(cls), group.trace(rep), cid))
    labels: dict[str, int] = {}

    def unique(pred, label):
        matches = [cid for (o, s, t, cid) in info if pred(o, s, t)]
        if len(matches) != 1:
            raise AssertionError(f"class label {label} matched {len(matches)} classes")
        labels[label] = matches[0]

    unique(lambda o, s, t: o == 1, "1a")
    unique(lambda o, s, t: o == 2, "2a")
    if fam == "bt":
        unique(lambda o, s, t: o == 4, "4a")
        threes = sorted(cid for (o, s, t, cid) in info if o == 3)
        if len(threes) != 2:
            raise AssertionError("bt must have two order-3 classes")
        labels["3a"] = threes[0]
        inv_rep = group.inv[group.classes[threes[0]][0]]
        labels["3b"] = group.class_of[inv_rep]
        if labels["3b"] != threes[1]:
            raise AssertionError("bt order-3 classes are not swapped by inversion")
        minus_one = group.classes[labels["2a"]][0]
        labels["6a"] = group.class_of[group.mult[minus_one][group.classes[threes[0]][0]]]
        labels["6b"] = group.class_of[group.mult[minus_one][group.classes[threes[1]][0]]]
        if labels["6a"] == labels["6b"]:
            raise AssertionError("bt order-6 classes collapsed")
    elif fam == "bo":
        sqrt2 = Cyc.zeta(group.conductor, 3) + Cyc.zeta(group.conductor, 21)
        unique(lambda o, s, t: o == 8 and t == sqrt2, "8a")
        unique(lambda o, s, t: o == 8 and t == -sqrt2, "8b")
        unique(lambda o, s, t: o == 4 and s == 6, "4a")
        unique(lambda o, s, t: o == 4 and s == 12, "4b")
        unique(lambda o, s, t: o == 3, "3a")
        unique(lambda o, s, t: o == 6, "6a")
    elif fam == "bi":
        z5 = Cyc.zeta(group.conductor, group.conductor // 5)
        tau = -(z5 ** 2 + z5 ** 3)
        taub = -(z5 + z5 ** 4)
        unique(lambda o, s, t: o == 4, "4a")
        unique(lambda o, s, t: o == 3, "3a")
        unique(lambda o, s, t: o == 6, "6a")
        unique(lambda o, s, t: o == 5 and t == -taub, "5a")
        unique(lambda o, s, t: o == 5 and t == -tau, "5b")
        unique(lambda o, s, t: o == 10 and t == tau, "10a")
        unique(lambda o, s, t: o == 10 and t == taub, "10b")
    return labels


def _stored_table(group: FiniteGroup) -> list[ClassFunction]:
    fam = group.spec.family
    rows, order = {
        "bt": (_bt_rows, _BT_LABELS),
        "bo": (_bo_rows, _BO_LABELS),
        "bi": (_bi_rows, _BI_LABELS),
    }[fam]
    labels = _class_labels(group)
    perm = [labels[lab] for lab in order]
    out = []
    for row in rows(group.conductor):
        vals = [None] * len(group.classes)
        for pos, cid in enumerate(perm):
            vals[cid] = row[pos]
        out.append(ClassFunction(tuple(vals)))
    return out


def validate_table(group: FiniteGroup, chars: list[ClassFunction]) -> None:
    k = len(group.classes)
    if len(chars) != k:
        raise AssertionError(f"{len(chars)} characters for {k} classes")
    # row orthonormality
    for i in range(k):
        for j in range(i, k):
            ip = inner_product(group, chars[i], chars[j])
            if ip != (1 if i == j else 0):
                raise AssertionError(f"rows {i},{j} have inner product {ip}")
    # column orthogonality
    ones = [1] * k
    for c1 in range(k):
        col1 = [chi.values[c1] for chi in chars]
        for c2 in range(c1, k):
            acc = hermitian_sum(ones, col1, [chi.values[c2] for chi in chars])
            expected = Fraction(group.order, len(group.classes[c1])) if c1 == c2 else 0
            if not (acc.is_rational() and acc.as_rational() == expected):
                raise AssertionError(f"columns {c1},{c2} fail orthogonality")
    # degree sum
    total = sum(chi.degree.as_rational() ** 2 for chi in chars)
    if total != group.order:
        raise AssertionError(f"sum of squared degrees {total} != |G| = {group.order}")
    # integrality of tensor decomposition against the defining character
    mckay_multiplicities(group, chars)


def mckay_multiplicities(group: FiniteGroup,
                         chars: Sequence[ClassFunction]) -> tuple[tuple[int, ...], ...]:
    """The matrix m_ij = <chi_i * chi_V, chi_j> of McKay multiplicities.

    Raises ``AssertionError`` on an entry that is negative or not an integer.
    """
    chi_v = defining_character(group)
    rows = []
    for chi in chars:
        prod = chi * chi_v
        row = []
        for psi in chars:
            mult = inner_product(group, prod, psi)
            if mult.denominator != 1 or mult < 0:
                raise AssertionError("non-integral McKay multiplicity")
            row.append(int(mult))
        rows.append(tuple(row))
    return tuple(rows)


def _mckay_sieve(group: FiniteGroup) -> list[ClassFunction] | None:
    """Independent table construction: decompose chi * chi_V, strip known
    constituents, close under linear twists.  Returns None if it stalls
    (type E8), else the full set of irreducibles."""
    known: list[ClassFunction] = list(linear_characters(group))
    chi_v = defining_character(group)

    def push(chi):
        if all(chi.values != k.values for k in known):
            known.append(chi)

    if inner_product(group, chi_v, chi_v) == 1:
        push(chi_v)
    target = len(group.classes)
    progress = True
    while len(known) < target and progress:
        progress = False
        for chi in list(known):
            rem = chi * chi_v
            for psi in known:
                m = inner_product(group, rem, psi)
                if m:
                    rem = rem - psi.scale(int(m))
            if rem.is_zero():
                continue
            if inner_product(group, rem, rem) == 1:
                push(rem)
                for lin in known[:]:
                    if lin.degree == 1:
                        push(rem * lin)
                progress = True
                break
    return known if len(known) == target else None


@lru_cache(maxsize=None)
def character_table(spec: GroupSpec) -> tuple[ClassFunction, ...]:
    group = build_group(spec)
    if spec.family == "cyclic":
        chars = _abelian_table(group)
    elif spec.family == "bd":
        if spec.param == 1:
            chars = _abelian_table(group)  # bd(1) is cyclic of order 4
        else:
            chars = _bd_table(group)
    else:
        chars = _stored_table(group)
    chars = _sorted_rows(group, chars)
    validate_table(group, chars)
    if spec.family != "bi":
        sieve = _mckay_sieve(group)
        if sieve is None:
            raise AssertionError(f"McKay sieve unexpectedly stalled for {spec}")
        if {c.values for c in sieve} != {c.values for c in chars}:
            raise AssertionError(f"McKay sieve disagrees with table for {spec}")
    return tuple(chars)


def _sorted_rows(group: FiniteGroup, chars: list[ClassFunction]) -> list[ClassFunction]:
    """Deterministic row order: trivial first, then by (degree, value key)."""
    triv = trivial_character(group)

    def key(cf: ClassFunction):
        return (
            cf.degree.as_rational(),
            tuple((v.m, v.num, v.den) for v in cf.values),
        )

    rest = [c for c in chars if c.values != triv.values]
    rest.sort(key=key)
    return [triv] + rest

