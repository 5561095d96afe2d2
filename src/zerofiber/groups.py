"""The finite subgroups of H^x as exact 2x2 matrix groups over cyclotomics.

Catalogue: cyclic(l), binary dihedral bd(n) of order 4n, and the binary
tetrahedral / octahedral / icosahedral groups, each built by breadth-first
closure from the paper's generator matrices.  ``orbit`` is the package's one
closure routine: a breadth-first search under a step function that gives
each element's depth.  Here it closes element indices under list moves (the
conjugacy classes, the subgroup generated by some elements and the
commutator subgroup); ``mckay`` closes the positive roots under simple root
steps and measures McKay distances with it.  Subgroup resolution (whole /
commutator / index-2 cyclic / explicit generators) checks normality and the
abelian quotient on the generators of the group alone.
"""

from __future__ import annotations

from collections.abc import Callable, Iterable
from dataclasses import dataclass, field
from functools import lru_cache
from math import gcd
from typing import TypeVar

from .cyclotomic import CONDUCTOR_CAP, ConductorError, Cyc, sqrt5

Mat2 = tuple[Cyc, Cyc, Cyc, Cyc]
T = TypeVar("T")

CLOSURE_CAP = 1000


def mat_mul2(a: Mat2, b: Mat2) -> Mat2:
    return (
        a[0] * b[0] + a[1] * b[2],
        a[0] * b[1] + a[1] * b[3],
        a[2] * b[0] + a[3] * b[2],
        a[2] * b[1] + a[3] * b[3],
    )


def mat_det2(a: Mat2) -> Cyc:
    return a[0] * a[3] - a[1] * a[2]


def mat_identity2(m: int) -> Mat2:
    one, zero = Cyc.one(m), Cyc.zero(m)
    return (one, zero, zero, one)


@dataclass(frozen=True)
class GroupSpec:
    family: str  # cyclic | bd | bt | bo | bi
    param: int = 0

    def __post_init__(self):
        if self.family == "cyclic":
            if self.param < 1:
                raise ValueError("cyclic(l) needs l >= 1")
        elif self.family == "bd":
            if self.param < 1:
                raise ValueError("bd(n) needs n >= 1")
        elif self.family not in ("bt", "bo", "bi"):
            raise ValueError(f"unknown group family {self.family!r}")
        if self.conductor > CONDUCTOR_CAP:
            raise ConductorError(
                f"{self} needs conductor {self.conductor}, above the cap {CONDUCTOR_CAP}")

    @staticmethod
    def parse(text: str) -> "GroupSpec":
        text = text.strip().lower()
        if text in ("bt", "bo", "bi"):
            return GroupSpec(text)
        for prefix in ("cyclic", "bd"):
            if text.startswith(prefix + ":"):
                try:
                    param = int(text.split(":", 1)[1])
                except ValueError:
                    raise ValueError(
                        f"group spec {text!r}: {prefix} needs an integer parameter") from None
                return GroupSpec(prefix, param)
        raise ValueError(f"cannot parse group spec {text!r}")

    def __str__(self):
        if self.family in ("cyclic", "bd"):
            return f"{self.family}:{self.param}"
        return self.family

    @property
    def conductor(self) -> int:
        if self.family == "cyclic":
            return self.param
        if self.family == "bd":
            n2 = 2 * self.param
            return n2 * 4 // gcd(n2, 4)
        if self.family in ("bt", "bo"):
            return 24
        return 20  # bi

    @property
    def expected_order(self) -> int:
        return {
            "cyclic": self.param,
            "bd": 4 * self.param,
            "bt": 24,
            "bo": 48,
            "bi": 120,
        }[self.family]


def builtin_generators(spec: GroupSpec) -> list[Mat2]:
    """Generator matrices exactly as printed in the source construction."""
    m = spec.conductor
    zero = Cyc.zero(m)
    if spec.family == "cyclic":
        z = Cyc.zeta(m) if m > 1 else Cyc.one(1)
        return [(z, zero, zero, z ** (m - 1) if m > 1 else Cyc.one(1))]
    i = Cyc.zeta(m, m // 4)
    w2 = (zero, i, i, zero)
    if spec.family == "bd":
        z = Cyc.zeta(m, m // (2 * spec.param))
        return [(z, zero, zero, z.inverse()), w2]
    if spec.family in ("bt", "bo"):
        # w3 = 1/(1-i) [[1, i], [1, -i]]; 1/(1-i) = (1+i)/2
        s = (Cyc.one(m) + i) * Cyc.rational(1, m) / 2
        w3 = (s, s * i, s, -s * i)
        if spec.family == "bt":
            w1 = (i, zero, zero, -i)
        else:
            e8 = Cyc.zeta(m, m // 8)
            w1 = (e8, zero, zero, e8.inverse())
        return [w1, w2, w3]
    # Binary icosahedral at conductor 20.  Klein's matrix (the diagonal
    # carries -(zeta - zeta^4)) is the realization that fixes the classical
    # invariants xy(x^10+11x^5y^5-y^10) etc.; together with w1 it closes to
    # order 120.  The [[0,i],[i,0]] generator is not an element of this
    # realization and is omitted.
    z10 = Cyc.zeta(m, m // 10)
    w1 = (z10, zero, zero, z10.inverse())
    z5 = Cyc.zeta(m, m // 5)
    r5 = sqrt5(m)
    inv_r5 = r5 / 5  # 1/sqrt5 = sqrt5/5
    w3 = (
        -inv_r5 * (z5 - z5 ** 4),
        inv_r5 * (z5 ** 2 - z5 ** 3),
        inv_r5 * (z5 ** 2 - z5 ** 3),
        inv_r5 * (z5 - z5 ** 4),
    )
    return [w1, w3]


class ClosureCapError(RuntimeError):
    pass


@dataclass
class FiniteGroup:
    """A closed matrix group with multiplication/inverse tables and classes."""

    conductor: int
    elements: list[Mat2]
    gen_indices: list[int]
    spec: GroupSpec | None = None
    mult: list[list[int]] = field(default_factory=list)
    inv: list[int] = field(default_factory=list)
    classes: list[tuple[int, ...]] = field(default_factory=list)
    class_of: list[int] = field(default_factory=list)

    @property
    def order(self) -> int:
        return len(self.elements)

    def trace(self, idx: int) -> Cyc:
        g = self.elements[idx]
        return g[0] + g[3]

    def conjugate(self, g: int, h: int) -> int:
        """g h g^{-1}."""
        return self.mult[self.mult[g][h]][self.inv[g]]

    def commutator(self, a: int, b: int) -> int:
        """a b a^{-1} b^{-1}, as (a b)(b a)^{-1}."""
        return self.mult[self.mult[a][b]][self.inv[self.mult[b][a]]]

    def right_map(self, s: int) -> list[int]:
        """x -> x s, as a list over the elements."""
        return [row[s] for row in self.mult]

    def conjugation_map(self, g: int) -> list[int]:
        """h -> g h g^{-1}, as a list over the elements."""
        return [self.conjugate(g, h) for h in range(self.order)]


def orbit(start: Iterable[T], step: Callable[[T], Iterable[T]]) -> dict[T, int]:
    """Every element reachable from ``start`` by repeated steps, mapped to its
    breadth-first depth: 0 on ``start``, and otherwise the fewest steps that
    reach it.  ``step(x)`` gives the elements one move away from x.

    The queue is read in the order it is filled, so the depths are those of
    a breadth-first search.  In a finite group the maps x -> x s and
    x -> g x g^{-1} have finite order, so closing under them also closes
    under their inverses: the orbit of 1 under right multiplication by some
    elements is the subgroup they generate, and the orbit of h under
    conjugation by generators of G is the class of h.
    """
    depth = dict.fromkeys(start, 0)
    queue = list(depth)
    for x in queue:  # the loop also reads what it appends
        d = depth[x] + 1
        for y in step(x):
            if y not in depth:
                depth[y] = d
                queue.append(y)
    return depth


def close(generators: list[Mat2], cap: int = CLOSURE_CAP,
          spec: GroupSpec | None = None) -> FiniteGroup:
    """Breadth-first closure with exact dedup; builds all tables.

    The BFS multiplies each element x by each generator g_k once and keeps
    the index of x g_k as right[k][x]; each new element b remembers its BFS
    parent (p, k), b = elements[p] g_k.  By associativity
    a b = (a elements[p]) g_k, so mult[a][b] = right[k][mult[a][p]] fills
    every row in BFS order by lookups alone: the closure costs |G| |gens|
    exact matrix products, not |G|^2.
    """
    if not generators:
        raise ValueError("no generators")
    m = generators[0][0].m
    for g in generators:
        if mat_det2(g) != 1:
            raise ValueError("generator determinant is not 1")
        if g[3] != g[0].conj() or g[1] != -g[2].conj():
            raise ValueError("generator is not in SU(2) normal form")
    ident = mat_identity2(m)
    elements: list[Mat2] = [ident]
    index: dict[Mat2, int] = {ident: 0}
    right: list[list[int]] = [[] for _ in generators]
    parent: list[tuple[int, int]] = [(0, 0)]  # the identity's entry is never read
    x = 0
    while x < len(elements):  # FIFO over the element list: the BFS order
        el = elements[x]
        for k, g in enumerate(generators):
            prod = mat_mul2(el, g)
            j = index.get(prod)
            if j is None:
                if len(elements) >= cap:
                    raise ClosureCapError(
                        f"closure exceeded cap {cap}; wrong generators or conductor?")
                j = len(elements)
                index[prod] = j
                elements.append(prod)
                parent.append((x, k))
            right[k].append(j)
        x += 1

    n = len(elements)
    steps = [(p, right[k]) for p, k in parent[1:]]
    mult = []
    for a in range(n):
        row = [a]
        for p, r in steps:
            row.append(r[row[p]])
        mult.append(row)
    inv = [row.index(0) for row in mult]

    group = FiniteGroup(
        conductor=m,
        elements=elements,
        gen_indices=[index[g] for g in generators],
        spec=spec,
        mult=mult,
        inv=inv,
    )

    conj = [group.conjugation_map(g) for g in group.gen_indices]
    class_of = [-1] * n
    classes: list[tuple[int, ...]] = []
    for h in range(n):
        if class_of[h] >= 0:
            continue
        cls = tuple(sorted(orbit((h,), lambda x: [c[x] for c in conj])))
        cid = len(classes)
        for e in cls:
            class_of[e] = cid
        classes.append(cls)
    group.classes = classes
    group.class_of = class_of
    assert classes[0] == (0,), "identity class must be the singleton {1}"
    assert sum(len(c) for c in classes) == n
    return group


@lru_cache(maxsize=None)
def build_group(spec: GroupSpec) -> FiniteGroup:
    group = close(builtin_generators(spec), cap=max(CLOSURE_CAP, spec.expected_order + 1),
                  spec=spec)
    if group.order != spec.expected_order:
        raise AssertionError(
            f"{spec} closed to {group.order} elements, expected {spec.expected_order}")
    return group


# -- subgroups ---------------------------------------------------------------

@dataclass(frozen=True)
class Subgroup:
    group: FiniteGroup
    name: str
    indices: tuple[int, ...]  # sorted element indices

    @property
    def order(self) -> int:
        return len(self.indices)


def close_indices(group: FiniteGroup, seeds: Iterable[int]) -> tuple[int, ...]:
    """The subgroup generated by ``seeds``: the orbit of 1 under right
    multiplication by them (see ``orbit``)."""
    moves = [group.right_map(s) for s in seeds]
    return tuple(sorted(orbit((0,), lambda x: [r[x] for r in moves])))


def commutator_subgroup(group: FiniteGroup) -> tuple[int, ...]:
    """[G, G] as the normal closure N of the commutators c = [g_i, g_j] of
    the generators.

    N lies in [G, G], a normal subgroup that holds every c.  In G/N the
    images of the generators commute, so G/N is abelian and [G, G] lies in
    N.  N is the orbit S of 1 under x -> x c and conjugation by the
    generators: S lies in N, is closed under conjugation by all of G, and
    for x in S, x (g c g^{-1}) = g ((g^{-1} x g) c) g^{-1} is in S, so S is
    closed under right multiplication by the conjugates of the c, which
    generate N.
    """
    gens = group.gen_indices
    comms = {group.commutator(a, b) for a in gens for b in gens}
    moves = [group.right_map(c) for c in comms] + [group.conjugation_map(g) for g in gens]
    return tuple(sorted(orbit((0,), lambda x: [r[x] for r in moves])))


def _verify_subgroup(group: FiniteGroup, name: str, indices: tuple[int, ...]) -> Subgroup:
    """The subgroup, once it is checked normal with abelian quotient on the
    generators g_k of G alone.

    Normal: each h -> g_k h g_k^{-1} maps the subgroup into itself, hence
    onto it, and every element of G is a product of the g_k.  Abelian
    quotient: then [g_i, g_j] in the subgroup for all i, j says that the
    images of the g_k, which generate the quotient, commute.
    """
    iset = frozenset(indices)
    gens = group.gen_indices
    if not all(group.conjugate(g, h) in iset for g in gens for h in indices):
        raise ValueError(f"subgroup {name!r} of {group.spec} is not normal")
    if not all(group.commutator(a, b) in iset for a in gens for b in gens):
        raise ValueError(f"quotient by subgroup {name!r} of {group.spec} is not abelian")
    return Subgroup(group, name, indices)


def resolve_subgroup(group: FiniteGroup, spec: str) -> Subgroup:
    """Resolve 'whole' | 'comm' | 'cyc2' | 'gens:i,j,...' to a verified subgroup.
    A spec that cannot be resolved raises a ValueError naming it and the group."""
    spec = spec.strip().lower()
    where = f"subgroup spec {spec!r} of {group.spec}"
    if spec == "whole":
        return Subgroup(group, "whole", tuple(range(group.order)))
    if spec == "comm":
        return _verify_subgroup(group, "comm", commutator_subgroup(group))
    if spec == "cyc2":
        if group.spec is None or group.spec.family != "bd":
            raise ValueError(
                f"{where}: cyc2 is the index-2 cyclic subgroup of a binary dihedral group")
        return _verify_subgroup(group, "cyc2", close_indices(group, group.gen_indices[:1]))
    if spec.startswith("gens:"):
        try:
            seeds = {int(t) for t in spec[5:].split(",") if t}
        except ValueError:
            raise ValueError(f"{where}: generator indices must be integers") from None
        bad = sorted(s for s in seeds if not 0 <= s < group.order)
        if bad:
            raise ValueError(
                f"{where}: generator indices {bad} outside the range [0, {group.order})")
        return _verify_subgroup(group, spec, close_indices(group, seeds))
    raise ValueError(f"cannot parse {where}")
