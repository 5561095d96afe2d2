"""McKay graphs, affine ADE identification, and root-lattice combinatorics.

Vertex set I = irreducible characters (vertex 0 = trivial); edges from
tensoring with the defining 2-dimensional representation.  The finite root
system lives on I minus vertex 0; delta is the dimension vector, phi the
highest root, and the real affine roots are n*delta + beta.

The L-module of (Gamma, Delta) is read from one derivation, ``_l_data``:
the Gamma/Delta vertices and alpha, the highest root theta_j of the
component of the farthest Gamma/Delta vertex j once vertex 0 and the other
such vertices are removed (phi when Delta = Gamma).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cache, cached_property, lru_cache
from itertools import compress, repeat
from operator import add, eq, le, mul

from .characters import (ClassFunction, character_table, defining_character, gram_entries,
                         inner_product, kernel_contains)
from .groups import FiniteGroup, GroupSpec, Subgroup, build_group, orbit

Vector = tuple[int, ...]


@dataclass(frozen=True)
class McKayGraph:
    spec: GroupSpec
    adjacency: tuple[tuple[int, ...], ...]  # m_ij multiplicities
    dims: Vector                            # n_i, also delta
    affine_type: str                        # e.g. "A3(1)", "D4(1)", "E8(1)"
    linear_vertices: tuple[int, ...]

    @property
    def size(self) -> int:
        return len(self.dims)

    @cached_property
    def affine_cartan(self) -> tuple[tuple[int, ...], ...]:
        """2 - m_ii on the diagonal and -m_ij off it, built once per graph.
        Row i is the pairing vector ((alpha_i, alpha_j))_j of the simple root
        alpha_i, so alpha -> alpha + alpha_i adds row i to alpha's."""
        n = self.size
        return tuple(
            tuple((2 if i == j else 0) - self.adjacency[i][j] for j in range(n))
            for i in range(n)
        )

    def distance_from_zero(self) -> list[int]:
        """Graph distance of each vertex from vertex 0, -1 where unreached:
        the depths of the orbit of 0 under adjacency."""
        depth = orbit((0,), lambda v: [w for w, m in enumerate(self.adjacency[v]) if m])
        return [depth.get(v, -1) for v in range(self.size)]


def _identify_affine_type(adj, dims) -> str:
    """Classify the graph and check vertex 0 sits at an extending vertex
    (delta coefficient 1), as the root-system construction requires."""
    n = len(dims)
    if dims[0] != 1:
        raise AssertionError("trivial character must have delta coefficient 1")
    degrees = [sum(row) for row in adj]
    if n == 1:
        return "A0(1)"
    if all(d == 1 for d in dims):
        # cycle (A_{n-1}); n = 2 is the double edge
        if n == 2:
            if adj[0][1] != 2:
                raise AssertionError("two-vertex McKay graph must have a double edge")
            return "A1(1)"
        if any(d != 2 for d in degrees) or any(m > 1 for row in adj for m in row):
            raise AssertionError("dims all 1 but not a simple cycle")
        return f"A{n - 1}(1)"
    if sorted(dims) == sorted([1, 1, 1, 2, 2, 2, 3]) and n == 7:
        return "E6(1)"
    if sorted(dims) == sorted([1, 1, 2, 2, 2, 3, 3, 4]) and n == 8:
        return "E7(1)"
    if sorted(dims) == sorted([1, 2, 2, 3, 3, 4, 4, 5, 6]) and n == 9:
        return "E8(1)"
    # affine D: four dim-1 corners, the rest dim 2
    ones = [i for i, d in enumerate(dims) if d == 1]
    twos = [i for i, d in enumerate(dims) if d == 2]
    if len(ones) == 4 and len(ones) + len(twos) == n:
        return f"D{n - 1}(1)"
    raise AssertionError("graph is not an affine ADE diagram")


def mckay_multiplicities(group: FiniteGroup,
                         chars: tuple[ClassFunction, ...]) -> tuple[tuple[int, ...], ...]:
    """The matrix m_ij = <chi_i * chi_V, chi_j> of McKay multiplicities,
    symmetric by proof, so only the entries i <= j are computed.

    chi_V is real, as the trace of an SU(2) matrix is a + conj(a).  Then
    m_ji = (1/|G|) sum_g chi_j(g) chi_V(g) conj(chi_i(g)) is the complex
    conjugate of m_ij, which equals m_ij once m_ij is certified a
    non-negative integer.  The reality of chi_V is checked on its k class
    values.  Raises ``AssertionError`` when chi_V is not real and on an entry
    that is negative or not an integer.

    The entries between linear rows i >= 1 and j are taken from row 0 by
    ``gram_entries``: for lambda_t = conj(lambda_i) lambda_j pointwise,
    m_ij = <lambda_i chi_V, lambda_j> = <chi_V, lambda_t> = m_0t, since
    lambda_i(c) conj(lambda_j(c)) = conj(lambda_t(c)) when the values are
    roots of unity (proof in the ``characters`` module docstring).  The
    product chi_i * chi_V is formed only for a row with an entry computed.
    """
    chi_v = defining_character(group)
    if chi_v.conj() != chi_v:
        raise AssertionError(f"defining character of {group.spec} is not real")
    k = len(chars)
    rows = [[0] * k for _ in range(k)]
    twist = cache(lambda i: chars[i] * chi_v)
    entries = gram_entries(chars, lambda i, j: inner_product(group, twist(i), chars[j]))
    for i, j, mult, source in entries:
        if mult.denominator != 1 or mult < 0:
            raise AssertionError(f"non-integral McKay multiplicity {mult} at entry ({i}, {j}) "
                                 f"of {group.spec} ({source})")
        rows[i][j] = rows[j][i] = int(mult)
    return tuple(map(tuple, rows))


@lru_cache(maxsize=None)
def mckay_graph(spec: GroupSpec) -> McKayGraph:
    """The McKay graph of a catalogue group.  Its multiplicities are the
    only McKay matrix of the spec, certified here and not when the table is
    built: ``mckay_multiplicities`` checks each entry a non-negative integer,
    and the matrix is symmetric because chi_V is real, so that
    m_ji = conj(m_ij) = m_ij (proof there).  The degree sum |G| is left to
    ``validate_table``, which ``character_table`` runs on the same table."""
    group = build_group(spec)
    chars = character_table(spec)
    n = len(chars)
    adj = mckay_multiplicities(group, chars)
    dims = tuple(int(c.degree.as_rational()) for c in chars)
    # delta spans the kernel of the affine Cartan matrix
    for i in range(n):
        s = 2 * dims[i] - sum(adj[i][j] * dims[j] for j in range(n))
        if s != 0:
            raise AssertionError("dims vector is not in the affine Cartan kernel")
    linear = tuple(i for i, d in enumerate(dims) if d == 1)
    graph = McKayGraph(spec, adj, dims, _identify_affine_type(adj, dims), linear)
    if -1 in graph.distance_from_zero():
        raise AssertionError("McKay graph is not connected")
    return graph


@dataclass(frozen=True)
class RootContext:
    graph: McKayGraph
    positive_roots: tuple[Vector, ...]          # over the full index set I (0 at vertex 0)
    phi: Vector                                 # highest root = delta - alpha_0

    @property
    def delta(self) -> Vector:
        return self.graph.dims


@lru_cache(maxsize=None)
def root_context(spec: GroupSpec) -> RootContext:
    """The finite positive roots, as the ``orbit`` of the simple roots under
    alpha -> s_i alpha = alpha + alpha_i whenever (alpha, alpha_i) = -1; the
    depth of a root there is its height - 1.

    Each step stays among the positive roots, since s_i permutes them apart
    from alpha_i.  Every positive beta of height > 1 is reached: from
    2 = (beta, beta) = sum k_i (beta, alpha_i) with k_i >= 0, some i in its
    support has (beta, alpha_i) > 0, so (beta, alpha_i) = 1 in a simply-laced
    system, and beta - alpha_i = s_i beta is a positive root one step below
    with (beta - alpha_i, alpha_i) = -1 (Humphreys, Lie algebras, 10.2).

    Each root carries its pairing vector ((alpha, alpha_j))_j through the
    orbit: a step by alpha_i adds row i of the Cartan matrix.  So every
    (alpha, alpha_i) is read, not summed, and (alpha, alpha) = sum_i k_i
    (alpha, alpha_i) = 2 is checked in O(r).  A vector is dropped once its
    root is expanded: the orbit expands the roots by height, so a step never
    reaches an expanded root, and only the frontier's vectors are held.
    """
    graph = mckay_graph(spec)
    if graph.affine_type == "A0(1)":
        raise ValueError("cyclic(1) gives the degenerate A0 diagram; no finite root system")
    n = graph.size
    finite = tuple(range(1, n))
    cartan = graph.affine_cartan
    simple = [tuple(int(j == i) for j in range(n)) for i in finite]
    pairs = dict(zip(simple, cartan[1:]))

    def up(alpha: Vector) -> list[Vector]:  # the s_i alpha with (alpha, alpha_i) = -1
        pair = pairs.pop(alpha)
        if _idot(alpha, pair) != 2:
            raise AssertionError("finite positive root with (alpha, alpha) != 2")
        out = []
        for i in finite:
            if pair[i] == -1:
                beta = alpha[:i] + (alpha[i] + 1,) + alpha[i + 1:]
                if beta not in pairs:  # a list: freed short tuples stay on CPython's free lists
                    pairs[beta] = list(map(add, pair, cartan[i]))
                out.append(beta)
        return out

    positive = tuple(sorted(orbit(simple, up)))
    phi = tuple(d - (1 if i == 0 else 0) for i, d in enumerate(graph.dims))
    if phi not in positive or not all(all(map(le, beta, phi)) for beta in positive):
        raise AssertionError("phi = delta - alpha_0 is not the highest root: some positive "
                             "root is not below it coefficientwise")
    return RootContext(graph, positive, phi)


def vector_dim(graph: McKayGraph, v: Vector) -> int:
    return sum(a * d for a, d in zip(v, graph.dims))


def dot(c: tuple[Fraction, ...], v: Vector) -> Fraction:
    return sum((ci * vi for ci, vi in zip(c, v)), Fraction(0))


def _idot(u: Vector, v: Vector) -> int:
    return sum(map(mul, u, v))


def generic_on_hyperplane(ctx: RootContext, alpha: Vector) -> tuple[Fraction, ...]:
    """A rational c with c.alpha = 0, c.delta = 1 and 0 < |c.beta| < 1 for
    every finite positive root beta != alpha; then Sigma_c = {alpha}.

    With the Euclidean dot, t = 2(alpha.alpha + alpha.phi) max(phi) + 1 and
    u_i = t^i over the r vertices, c' = ((alpha.alpha) u - (u.alpha) alpha)
    / ((alpha.alpha) t^r) is orthogonal to alpha, and c_0 = 1 - sum_{i>0}
    c'_i delta_i makes c.delta = 1, as delta_0 = 1.  A finite beta has
    beta_0 = 0, so (alpha.alpha) t^r c.beta = sum_{i>0} w_i t^i with the
    integers w = (alpha.alpha) beta - (alpha.beta) alpha.  As
    0 <= beta <= phi coefficientwise, -(alpha.phi) alpha_i <= w_i <=
    (alpha.alpha) phi_i, so |w_i| <= (alpha.alpha + alpha.phi) max(phi) =
    (t - 1)/2.  So the sum is 0 only when every digit w_i is, that is when
    beta is a multiple of alpha; and |sum w_i t^i| <= t (t^(r-1) - 1)/2 <
    t^r.  So the real root m delta + s beta has c-pairing m + s c.beta = 0
    only for beta = alpha, m = 0 and s = 1, and R_c = {alpha}.

    The hypotheses are checked, with no product of the large numerators of
    c: beta >= 0 by construction and beta <= phi by ``root_context`` for
    every positive root; here c.alpha = 0 and c.delta = 1 on den * c, and
    w != 0 for every beta != alpha, as |w|^2 = (alpha.alpha)((alpha.alpha)
    (beta.beta) - (alpha.beta)^2), computed only where the coordinate sum of
    w cancels.
    """
    if alpha not in ctx.positive_roots:
        raise ValueError("alpha must be a finite positive root")
    r = ctx.graph.size
    aa = _idot(alpha, alpha)
    t = 2 * (aa + _idot(alpha, ctx.phi)) * max(ctx.phi) + 1
    u = [t ** i for i in range(r)]
    ua = _idot(u, alpha)
    den = aa * t ** r
    num = [aa * ui - ua * ai for ui, ai in zip(u, alpha)]  # den * c
    num[0] = den - _idot(num[1:], ctx.delta[1:])
    others = [beta for beta in ctx.positive_roots if beta != alpha]
    ab = [0] * len(others)  # alpha.beta for every other root, one coordinate at a time
    for a, col in zip(alpha, zip(*others)):
        if a:
            ab = list(map(add, ab, map(mul, repeat(a), col)))
    sa = sum(alpha)  # w = 0 needs sum(w) = aa sum(beta) - (alpha.beta) sum(alpha) = 0
    cancel = map(eq, map(mul, repeat(aa), map(sum, others)), map(mul, repeat(sa), ab))
    if (_idot(num, alpha) != 0 or _idot(num, ctx.delta) != den
            or any(s * s == aa * _idot(beta, beta)
                   for beta, s in compress(zip(others, ab), cancel))):
        raise AssertionError("constructed c fails the bound 0 < |c.beta| < 1, so Sigma_c "
                             "= {alpha} is not certified")
    return tuple(Fraction(x, den) for x in num)


def _require_subgroup_of(spec: GroupSpec, sub: Subgroup) -> None:
    if sub.group.spec != spec:
        raise ValueError(f"subgroup {sub.name!r} of {sub.group.spec} is not a subgroup of {spec}")


def _linear_trivial_on(spec: GroupSpec, sub: Subgroup) -> tuple[int, ...]:
    """Vertices whose character is linear with sub in its kernel (the
    characters of Gamma/Delta), in vertex order: vertex 0 first."""
    return tuple(i for i, chi in enumerate(character_table(spec))
                 if chi.degree == 1 and kernel_contains(sub.group, chi, sub))


def _l_data(spec: GroupSpec, sub: Subgroup) -> tuple[RootContext, tuple[int, ...], Vector]:
    """The root context, the Gamma/Delta vertices (vertex 0 first) and alpha.

    Delta = Gamma: only the trivial character is trivial on Gamma, so the
    vertices are (0,), with no kernel check, and alpha = phi.  Proper Delta:
    alpha is a maximal admissible root, with k_j = 1 at exactly one j of the
    nontrivial Gamma/Delta vertices J.  Each j is linear, so phi_j = 1 bounds
    k_j: admissible at j means j is the one vertex of J in the support.  A
    support is connected, so the roots admissible at j are the roots of C_j,
    the component of j without 0 and J - {j}.  Its highest root theta_j has
    full support, so it is admissible and above every other root at j, while
    a root at j' != j has k_j = 0.  The maximal admissible roots are thus
    the theta_j, one per j as alpha_j is admissible.  In an irreducible root
    system the highest root is the one root of greatest height (Humphreys,
    10.4), so theta_j is the positive root of greatest height with k_j >= 1
    and k_i = 0 for i in J - {j}, read off the root list.  alpha is the
    theta_j farthest from vertex 0, the lexicographically largest on a tie,
    and sum_{i != 0} k_i n_i = 2|Delta| - 1 is verified, never assumed.
    """
    ctx = root_context(spec)
    if sub.order == sub.group.order:
        return ctx, (0,), ctx.phi
    vertices = _linear_trivial_on(spec, sub)
    js = set(vertices) - {0}
    if not js:
        raise ValueError("no nontrivial linear character of Gamma/Delta")
    dist = ctx.graph.distance_from_zero()
    in_js = [v in js for v in range(ctx.graph.size)]
    theta: dict[int, Vector] = {}
    for beta in ctx.positive_roots:
        if sum(compress(beta, in_js)) == 1:  # one j in J has k_j = 1, as phi_j = 1
            j = next(v for v in js if beta[v])
            theta[j] = max(theta.get(j, beta), beta, key=sum)
    _, alpha = max((dist[j], theta[j]) for j in js)
    total = sum(alpha[i] * ctx.graph.dims[i] for i in range(1, ctx.graph.size))
    if total != 2 * sub.order - 1:
        raise AssertionError(
            f"maximal admissible root violates sum k_i n_i = 2|Delta|-1: "
            f"{alpha} gives {total}, expected {2 * sub.order - 1}")
    return ctx, vertices, alpha


def admissible_alpha(spec: GroupSpec, sub: Subgroup) -> Vector:
    """The finite positive root used for ch(L) (see ``_l_data``); phi when
    Delta = Gamma.  A subgroup of another group raises ``ValueError``."""
    _require_subgroup_of(spec, sub)
    return _l_data(spec, sub)[2]


def _character(spec: GroupSpec, sub: Subgroup, n: int) -> tuple[Vector, int, tuple[int, ...]]:
    """ch(L), its dimension and the Gamma/Delta vertices, from one ``_l_data``."""
    _require_subgroup_of(spec, sub)
    if n < 1:
        raise ValueError("n must be >= 1")
    ctx, vertices, alpha = _l_data(spec, sub)
    ch = tuple((n - 1 + (sub.order == sub.group.order)) * d + a for d, a in zip(ctx.delta, alpha))
    dim = vector_dim(ctx.graph, ch)
    g = (n - 1) * sub.group.order + 2 * (sub.order - 1)
    if dim != g + 1:
        raise AssertionError(f"dim(L) = {dim} but g + 1 = {g + 1}")
    return ch, dim, vertices


def character_of_L(spec: GroupSpec, sub: Subgroup, n: int) -> tuple[Vector, int]:
    """ch(L) = (n - 1 + [Delta = Gamma]) delta + alpha and its dimension;
    dim = g + 1 is verified against the closed form for g.  A subgroup of
    another group raises ``ValueError``."""
    return _character(spec, sub, n)[:2]


def dimension_bound_check(spec: GroupSpec, sub: Subgroup, n: int) -> tuple[bool, int]:
    """dim L^chi <= n for all chi in (Gamma/Delta)^vee with equality exactly
    once; returns (ok, vertex achieving equality).  A subgroup of another
    group raises ``ValueError``."""
    ch, _, verts = _character(spec, sub, n)
    eq = [v for v in verts if ch[v] == n]
    le = all(ch[v] <= n for v in verts)
    return (le and len(eq) == 1, eq[0] if len(eq) == 1 else -1)


def dot_export(spec: GroupSpec, sub: Subgroup | None = None) -> str:
    """Graphviz DOT text for the McKay graph, with delta labels, and given
    Delta its Gamma/Delta vertices and, for proper Delta, alpha labels.
    Delta = Gamma needs no root data, so cyclic:1 exports too."""
    trivial_on, alpha = (), None
    if sub is not None:
        _require_subgroup_of(spec, sub)
        if sub.order == sub.group.order:
            trivial_on = (0,)
        else:
            _, trivial_on, alpha = _l_data(spec, sub)
    graph = mckay_graph(spec)
    lines = ["graph mckay {"]
    lines.append(f'  label="{spec} : {graph.affine_type}";')
    for v in range(graph.size):
        tags = [f"dim={graph.dims[v]}"]
        if v in graph.linear_vertices:
            tags.append("linear")
        if v in trivial_on:
            tags.append("trivial-on-delta")
        label = f"{v} ({', '.join(tags)})\\ndelta={graph.dims[v]}"
        if alpha is not None:
            label += f" alpha={alpha[v]}"
        lines.append(f'  v{v} [label="{label}"];')
    for i in range(graph.size):
        for j in range(i, graph.size):
            for _ in range(graph.adjacency[i][j] if i != j else graph.adjacency[i][j] // 2):
                lines.append(f"  v{i} -- v{j};")
    lines.append("}")
    return "\n".join(lines) + "\n"
