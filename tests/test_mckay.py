import dataclasses
import random
from collections import deque
from fractions import Fraction

import pytest

from oracles import (all_roots_with_pairing_zero, alpha_string_positive_roots, brute_force_gram,
                     cleared, maximal_admissible_alpha, pairing, pairwise_maximal, power,
                     prime_retry_generic_on_hyperplane, sigma_c)
from zerofiber import characters, mckay
from zerofiber.characters import ClassFunction, character_table, defining_character
from zerofiber.cyclotomic import Cyc
from zerofiber.groups import GroupSpec, build_group, orbit, resolve_subgroup
from zerofiber.mckay import (
    admissible_alpha,
    character_of_L,
    dimension_bound_check,
    dot,
    dot_export,
    generic_on_hyperplane,
    mckay_graph,
    root_context,
    vector_dim,
)


def S(text):
    return GroupSpec.parse(text)


@pytest.mark.parametrize(
    "spec,affine_type",
    [
        ("cyclic:1", "A0(1)"),
        ("cyclic:2", "A1(1)"),
        ("cyclic:3", "A2(1)"),
        ("cyclic:6", "A5(1)"),
        ("bd:2", "D4(1)"),
        ("bd:3", "D5(1)"),
        ("bd:5", "D7(1)"),
        ("bt", "E6(1)"),
        ("bo", "E7(1)"),
        ("bi", "E8(1)"),
    ],
)
def test_affine_types(spec, affine_type):
    assert mckay_graph(S(spec)).affine_type == affine_type


def test_bt_delta_labels():
    g = mckay_graph(S("bt"))
    assert sorted(g.dims) == [1, 1, 1, 2, 2, 2, 3]
    assert g.dims[0] == 1
    assert sum(d * d for d in g.dims) == 24


def test_delta_spans_cartan_kernel():
    # (2 Id - M) delta = 0 is asserted at construction; spot-check here
    for spec in ["cyclic:4", "bd:3", "bo", "bi"]:
        g = mckay_graph(S(spec))
        cartan = g.affine_cartan
        n = g.size
        for i in range(n):
            assert sum(cartan[i][j] * g.dims[j] for j in range(n)) == 0


@pytest.mark.parametrize(
    "spec,count",
    [
        ("cyclic:2", 1),   # A1
        ("cyclic:3", 3),   # A2
        ("cyclic:6", 15),  # A5
        ("bd:2", 12),      # D4
        ("bd:3", 20),      # D5
        ("bt", 36),        # E6
        ("bo", 63),        # E7
        ("bi", 120),       # E8
    ],
)
def test_finite_positive_root_counts(spec, count):
    assert len(root_context(S(spec)).positive_roots) == count


def test_phi_is_delta_minus_alpha0():
    for spec in ["cyclic:4", "bd:2", "bt", "bo", "bi"]:
        ctx = root_context(S(spec))
        expected = tuple(
            d - (1 if i == 0 else 0) for i, d in enumerate(ctx.graph.dims)
        )
        assert ctx.phi == expected
        assert ctx.phi in ctx.positive_roots


def test_cyclic1_rejected():
    with pytest.raises(ValueError):
        root_context(S("cyclic:1"))


def test_root_normalization():
    ctx = root_context(S("bt"))
    for alpha in ctx.positive_roots:
        assert pairing(ctx.graph, alpha, alpha) == 2


def test_dimension_functional():
    ctx = root_context(S("bd:2"))
    g = ctx.graph
    assert vector_dim(g, g.dims) == 8                # dim(delta) = |Gamma|
    assert vector_dim(g, ctx.phi) == 7               # dim(phi) = |Gamma| - 1


def test_sigma_c_empty_for_generic_c():
    ctx = root_context(S("cyclic:3"))
    # c positive on all simple roots and c.delta = 1 with irrational-free
    # denominators dodging all integer pairings except none
    c = (Fraction(1, 7), Fraction(2, 7), Fraction(4, 7))
    assert dot(c, ctx.delta) == 1
    assert sigma_c(ctx, c) == ()


def test_sigma_c_rejects_degenerate_c():
    ctx = root_context(S("cyclic:3"))
    with pytest.raises(ValueError):
        sigma_c(ctx, (Fraction(0), Fraction(0), Fraction(0)))


def test_generic_on_hyperplane_simple_root():
    ctx = root_context(S("cyclic:3"))
    alpha = next(r for r in ctx.positive_roots if sum(r) == 1)
    c = generic_on_hyperplane(ctx, alpha)
    assert dot(c, alpha) == 0
    assert dot(c, ctx.delta) == 1
    assert sigma_c(ctx, c) == (alpha,)


def test_generic_on_hyperplane_where_the_first_prime_candidate_failed():
    # on this root of A29(1) the first candidate of the prime search made
    # another root's pairing an integer, and the search had to retry; the
    # construction and the search give the same Sigma_c
    ctx = root_context(S("cyclic:30"))
    alpha = (0, 1, 1, 1, 1, 0, 0, 1, 1, 1, 1, 1, 1, 0, 0, 0, 1, 1, 1, 1, 1, 0, 0, 0, 0, 1, 1, 0,
             0, 0)
    assert alpha in ctx.positive_roots
    c = generic_on_hyperplane(ctx, alpha)
    assert dot(c, alpha) == 0
    assert dot(c, ctx.delta) == 1
    assert sigma_c(ctx, c) == (alpha,)
    assert sigma_c(ctx, prime_retry_generic_on_hyperplane(ctx, alpha)) == (alpha,)


def test_delta_plus_phi_for_cyclic2():
    ctx = root_context(S("cyclic:2"))
    alpha = ctx.phi
    c = generic_on_hyperplane(ctx, alpha)
    assert sigma_c(ctx, c) == (alpha,)
    # the module with character delta + phi has dimension 2|Gamma| - 1 = 3
    dp = tuple(d + p for d, p in zip(ctx.delta, ctx.phi))
    assert vector_dim(ctx.graph, dp) == 3


def test_generic_on_hyperplane_phi_e6():
    ctx = root_context(S("bt"))
    c = generic_on_hyperplane(ctx, ctx.phi)
    assert sigma_c(ctx, c) == (ctx.phi,)


def test_admissible_alpha_bt_commutator():
    spec = S("bt")
    g = build_group(spec)
    comm = resolve_subgroup(g, "comm")
    alpha = admissible_alpha(spec, comm)
    graph = mckay_graph(spec)
    # the paper's E6 diagram: center 2, one full arm (2,1), vertex-0 arm
    # (1,0), third arm (1,0); expressed structurally:
    assert alpha[0] == 0
    assert sum(alpha[i] * graph.dims[i] for i in range(graph.size)) == 15  # 2|Delta|-1
    # exactly one linear vertex carries coefficient 1
    lin = [v for v in graph.linear_vertices if v != 0]
    assert sorted(alpha[v] for v in lin) == [0, 1]
    # the coefficient-1 linear vertex is at maximal distance from vertex 0
    dist = graph.distance_from_zero()
    special = next(v for v in lin if alpha[v] == 1)
    assert dist[special] == max(dist)
    # coefficient multiset matches the paper diagram (1,2,2,1,0;1,0)
    assert sorted(alpha) == [0, 0, 1, 1, 1, 2, 2]


@pytest.mark.parametrize("n", [2, 3, 4])
def test_admissible_alpha_bd_commutator(n):
    spec = S(f"bd:{n}")
    g = build_group(spec)
    comm = resolve_subgroup(g, "comm")
    alpha = admissible_alpha(spec, comm)
    graph = mckay_graph(spec)
    # paper's D diagram: one far corner 1, all middles 1, rest 0
    ssum = sum(alpha[i] * graph.dims[i] for i in range(graph.size))
    assert ssum == 2 * n - 1
    assert sorted(alpha) == [0, 0, 0] + [1] * n
    dist = graph.distance_from_zero()
    lin = [v for v in graph.linear_vertices if v != 0]
    special = next(v for v in lin if alpha[v] == 1)
    assert dist[special] == max(dist)


def test_admissible_alpha_index_two_is_phi():
    spec = S("bd:2")
    g = build_group(spec)
    cyc2 = resolve_subgroup(g, "cyc2")
    assert admissible_alpha(spec, cyc2) == root_context(spec).phi


def test_character_of_L_examples():
    # Gamma = Delta = cyclic(2), n = 1: ch = delta + phi, dim 3
    spec = S("cyclic:2")
    g = build_group(spec)
    whole = resolve_subgroup(g, "whole")
    ch, dim = character_of_L(spec, whole, 1)
    ctx = root_context(spec)
    assert ch == tuple(d + p for d, p in zip(ctx.delta, ctx.phi))
    assert dim == 3

    # bd(2), Delta = cyc2, n = 2: dim 15 = g + 1 with g = 14
    spec = S("bd:2")
    g = build_group(spec)
    cyc2 = resolve_subgroup(g, "cyc2")
    _, dim = character_of_L(spec, cyc2, 2)
    assert dim == 15

    # Gamma = Delta = bt, n = 2: dim = 71
    spec = S("bt")
    g = build_group(spec)
    whole = resolve_subgroup(g, "whole")
    _, dim = character_of_L(spec, whole, 2)
    assert dim == 71


def test_dimension_bound():
    for spec_text, delta in [("bt", "comm"), ("bd:2", "comm"), ("bd:3", "cyc2"),
                             ("cyclic:4", "whole")]:
        spec = S(spec_text)
        g = build_group(spec)
        sub = resolve_subgroup(g, delta)
        for n in (1, 2, 3):
            ok, vertex = dimension_bound_check(spec, sub, n)
            assert ok, (spec_text, delta, n)
            assert vertex >= 0


def test_dot_export_contains_labels():
    spec = S("bt")
    g = build_group(spec)
    comm = resolve_subgroup(g, "comm")
    text = dot_export(spec, comm)
    assert "graph mckay {" in text
    assert "E6(1)" in text
    assert "alpha=" in text
    assert "trivial-on-delta" in text


# -- differential oracle for the integer root search --------------------------

def scan_roots_with_pairing_zero(ctx, c):
    """The n-bounded Fraction scan: every n delta + beta with beta a finite
    root and 0 <= n <= max|c.beta| / |c.delta| + 1, negative beta only for
    n >= 1."""
    delta = ctx.delta
    cd = dot(c, delta)
    finite_roots = list(ctx.positive_roots) + [tuple(-x for x in r) for r in ctx.positive_roots]
    bound = max((abs(dot(c, beta)) for beta in finite_roots), default=Fraction(0))
    nmax = int(bound / abs(cd)) + 1
    out = []
    for nn in range(nmax + 1):
        for beta in finite_roots:
            if nn == 0 and min(beta) < 0:
                continue
            root = tuple(nn * d + b for d, b in zip(delta, beta))
            if dot(c, root) == 0:
                out.append(root)
    return sorted(set(out))


@pytest.mark.parametrize("spec", ["cyclic:3", "cyclic:7", "cyclic:12", "bd:2", "bd:5",
                                  "bt", "bo", "bi"])
def test_roots_with_pairing_zero_match_the_scan(spec):
    """Random rational c with small denominators, so that many roots pair to
    zero (including n = 0 and negative finite roots), and the certified c."""
    ctx = root_context(S(spec))
    rng = random.Random(spec)
    size = ctx.graph.size
    hits = 0
    for _ in range(16):
        c = tuple(Fraction(rng.randint(-4, 4), rng.randint(1, 4)) for _ in range(size))
        if dot(c, ctx.delta) == 0:
            continue
        found = all_roots_with_pairing_zero(ctx, c)
        assert found == scan_roots_with_pairing_zero(ctx, c)
        hits += len(found)
    assert hits > 0
    c = generic_on_hyperplane(ctx, ctx.phi)
    assert all_roots_with_pairing_zero(ctx, c) == scan_roots_with_pairing_zero(ctx, c)


@pytest.mark.parametrize("spec", ["cyclic:30", "bd:12", "bt", "bo", "bi"])
def test_generic_on_hyperplane_certifies_every_root(spec):
    """On every finite positive root (435 for A29(1)), the c that
    generic_on_hyperplane certifies by its integer bound has Sigma_c = {alpha}
    by the root search, and the bound holds: 0 < |c.beta| < 1 for every other
    finite positive root beta, read off the integral L*c with L the lcm of
    c's denominators."""
    ctx = root_context(S(spec))
    for alpha in ctx.positive_roots:
        c = generic_on_hyperplane(ctx, alpha)
        assert dot(c, alpha) == 0
        assert dot(c, ctx.delta) == 1
        assert sigma_c(ctx, c) == (alpha,)
        big_c, lcd = cleared(c)
        assert all(0 < abs(mckay._idot(big_c, beta)) < lcd
                   for beta in ctx.positive_roots if beta != alpha)


def test_generic_on_hyperplane_rejects_a_c_outside_the_bound():
    """The integer certificate raises when another vector of the root list
    pairs to an integer with c: here 2 alpha, appended to the list, pairs
    to 0."""
    ctx = root_context(S("cyclic:3"))
    alpha = ctx.phi
    doubled = tuple(2 * a for a in alpha)
    broken = dataclasses.replace(ctx, positive_roots=ctx.positive_roots + (doubled,))
    with pytest.raises(AssertionError, match="Sigma_c"):
        generic_on_hyperplane(broken, alpha)


ROOT_SPECS = [f"cyclic:{ell}" for ell in range(2, 31)] + [f"bd:{n}" for n in range(1, 16)] + [
    "bt", "bo", "bi"]


MCKAY_SPECS = ["cyclic:1"] + ROOT_SPECS


@pytest.mark.parametrize("spec", ROOT_SPECS)
def test_positive_roots_equal_the_alpha_string_oracle(spec):
    ctx = root_context(S(spec))
    assert ctx.positive_roots == alpha_string_positive_roots(ctx.graph)


@pytest.mark.parametrize("spec", ROOT_SPECS)
def test_each_positive_root_has_orbit_depth_its_height_minus_one(spec):
    """The simple-root steps of root_context, taken with the pairing of the
    context, reach every positive root at depth height - 1 and nothing else."""
    ctx = root_context(S(spec))
    simple = [tuple(int(j == i) for j in range(ctx.graph.size)) for i in range(1, ctx.graph.size)]

    def up(alpha):
        return [tuple(map(sum, zip(alpha, e))) for e in simple
                if pairing(ctx.graph, alpha, e) == -1]

    depth = orbit(simple, up)
    assert sorted(depth) == list(ctx.positive_roots)
    assert all(d == sum(alpha) - 1 for alpha, d in depth.items())


def bfs_distances(adjacency):
    """Graph distances from vertex 0 by a plain queue, -1 where unreached."""
    dist = {0: 0}
    queue = deque([0])
    while queue:
        v = queue.popleft()
        for w, m in enumerate(adjacency[v]):
            if m and w not in dist:
                dist[w] = dist[v] + 1
                queue.append(w)
    return [dist.get(v, -1) for v in range(len(adjacency))]


@pytest.mark.parametrize("spec", MCKAY_SPECS)
def test_distance_from_zero_equals_a_plain_bfs(spec):
    graph = mckay_graph(S(spec))
    assert graph.distance_from_zero() == bfs_distances(graph.adjacency)


def test_distance_from_zero_marks_unreached_vertices():
    """Two components, 0 - 1 and 2 - 3: the second is unreached."""
    graph = dataclasses.replace(mckay_graph(S("cyclic:4")),
                                adjacency=((0, 1, 0, 0), (1, 0, 0, 0), (0, 0, 0, 1), (0, 0, 1, 0)))
    assert graph.distance_from_zero() == bfs_distances(graph.adjacency) == [0, 1, -1, -1]


@pytest.mark.parametrize("spec", MCKAY_SPECS)
def test_mckay_multiplicities_equal_the_full_matrix(spec):
    """Computing m_ij for i <= j, taking the linear block from row 0, and
    mirroring gives every entry of the k x k matrix of inner products."""
    group, chars = build_group(S(spec)), character_table(S(spec))
    chi_v = defining_character(group)
    full = brute_force_gram(group, [chi * chi_v for chi in chars], chars)
    assert mckay.mckay_multiplicities(group, chars) == full


def test_a_non_real_defining_character_is_rejected(monkeypatch):
    """The mirrored entries rest on chi_V being real; a chi_V with a value
    zeta_3 raises before any entry is computed."""
    spec = S("cyclic:3")
    real = defining_character(build_group(spec))
    twisted = ClassFunction(real.values[:-1] + (Cyc.zeta(3),))
    monkeypatch.setattr(mckay, "defining_character", lambda group: twisted)
    mckay_graph.cache_clear()
    with pytest.raises(AssertionError, match="defining character of cyclic:3 is not real"):
        mckay_graph(spec)


@pytest.mark.parametrize("gamma,other,delta", [("bt", "bo", "comm"), ("bd:2", "bd:3", "comm")])
def test_a_subgroup_of_another_group_is_rejected(gamma, other, delta):
    spec = S(gamma)
    sub = resolve_subgroup(build_group(S(other)), delta)
    message = f"subgroup '{delta}' of {other} is not a subgroup of {gamma}"
    for call in (lambda: admissible_alpha(spec, sub), lambda: character_of_L(spec, sub, 1),
                 lambda: dimension_bound_check(spec, sub, 1), lambda: dot_export(spec, sub)):
        with pytest.raises(ValueError, match=f"^{message}$"):
            call()


# -- the McKay matrix and its certificates ---------------------------------------

def test_mckay_graph_certifies_integrality(monkeypatch):
    """Tables carry no McKay check of their own: a table with a halved row
    reaches mckay_graph, which rejects it."""
    spec = S("bd:3")
    table = character_table(spec)
    bad = table[:-1] + (ClassFunction(tuple(v * Fraction(1, 2) for v in table[-1].values)),)
    monkeypatch.setattr(mckay, "character_table", lambda sp: bad)
    mckay_graph.cache_clear()
    with pytest.raises(AssertionError, match=r"^non-integral McKay multiplicity 1/2 at entry "
                                             r"\(0, 5\) of bd:3 \(computed\)$"):
        mckay_graph(spec)


def test_mckay_matrix_is_computed_once_per_spec(monkeypatch):
    """Every reader of a table in one (Gamma, Delta) case shares the one
    McKay matrix that mckay_graph computes; characters computes none."""
    assert not hasattr(characters, "mckay_multiplicities")
    calls = []
    original = mckay.mckay_multiplicities

    def counted(group, chars):
        calls.append(group.spec)
        return original(group, chars)

    monkeypatch.setattr(mckay, "mckay_multiplicities", counted)
    for fn in (character_table, mckay_graph, root_context):
        fn.cache_clear()
    for text, delta in [("bt", "comm"), ("bd:4", "cyc2"), ("cyclic:6", "comm")]:
        spec = S(text)
        sub = resolve_subgroup(build_group(spec), delta)
        calls.clear()
        character_table(spec)
        for n in (1, 2, 3):
            character_of_L(spec, sub, n)
            dimension_bound_check(spec, sub, n)
        ctx = root_context(spec)
        generic_on_hyperplane(ctx, admissible_alpha(spec, sub))
        dot_export(spec, sub)
        assert calls == [spec]


def proper_subgroups(text):
    """The proper subgroups the catalogue tests use: comm and cyc2, and for
    cyclic groups every proper subgroup, by a generator power."""
    group = build_group(S(text))
    names = ["comm"] + (["cyc2"] if text.startswith("bd:") else [])
    if text.startswith("cyclic:"):
        ell = group.order
        names += [f"gens:{power(group, group.gen_indices[0], d)}"
                  for d in range(2, ell) if ell % d == 0]
    subs = {}
    for name in names:
        sub = resolve_subgroup(group, name)
        if sub.order < group.order:
            subs.setdefault(sub.indices, sub)
    return list(subs.values())


MAXIMALITY_PAIRS = [(text, sub) for text in ([f"cyclic:{ell}" for ell in range(2, 31)]
                                             + [f"bd:{n}" for n in range(1, 16)]
                                             + ["bt", "bo", "bi"])
                    for sub in proper_subgroups(text)]


def test_highest_roots_are_the_pairwise_maximal_candidates():
    """On every proper (Gamma, Delta) of cyclic:2-30, bd:1-15, bt, bo and
    bi (comm, cyc2 and every proper subgroup of a cyclic group), the highest
    admissible candidate theta_j at each vertex j of Gamma/Delta dominates
    every candidate at j, so the theta_j are exactly the candidates that no
    candidate dominates, as ``mckay._l_data`` proves; and admissible_alpha,
    read off the root list, equals the brute-force pick among them."""
    assert len(MAXIMALITY_PAIRS) > 100
    for text, sub in MAXIMALITY_PAIRS:
        spec = S(text)
        ctx = root_context(spec)
        js = {v for v in mckay._linear_trivial_on(spec, sub) if v}
        candidates = {a for a in ctx.positive_roots
                      if [a[v] for v in js].count(1) == 1 and all(a[v] in (0, 1) for v in js)}
        highest = {}
        for j in js:
            at_j = [a for a in candidates if a[j] == 1]
            highest[j] = max(at_j, key=lambda a: (sum(a), a))
            assert all(all(x <= y for x, y in zip(a, highest[j])) for a in at_j), (text, j)
        assert sorted(highest.values()) == sorted(pairwise_maximal(candidates)), (text, sub.name)
        oracle = maximal_admissible_alpha(ctx, js, ctx.graph.distance_from_zero())
        assert admissible_alpha(spec, sub) == oracle, (text, sub.name)


CYCLIC1_WHOLE_DOT = ('graph mckay {\n  label="cyclic:1 : A0(1)";\n'
                     '  v0 [label="0 (dim=1, linear, trivial-on-delta)\\ndelta=1"];\n'
                     '  v0 -- v0;\n}\n')


@pytest.mark.parametrize("spec", MCKAY_SPECS)
def test_dot_export_of_the_whole_group_tags_vertex_zero_alone(spec):
    """Delta = Gamma tags only vertex 0 and labels no alpha, with no root
    data: cyclic:1, whose root_context raises, exports as well."""
    sub = resolve_subgroup(build_group(S(spec)), "whole")
    plain = dot_export(S(spec))
    tagged = plain.replace('v0 [label="0 (dim=1, linear)', 'v0 [label="0 (dim=1, linear, '
                           'trivial-on-delta)', 1)
    assert tagged != plain
    assert dot_export(S(spec), sub) == tagged
    if spec == "cyclic:1":
        assert tagged == CYCLIC1_WHOLE_DOT


@pytest.mark.parametrize("text,delta", [("bt", "comm"), ("bd:4", "cyc2"), ("cyclic:6", "comm"),
                                        ("bi", "whole"), ("cyclic:5", "whole")])
def test_each_public_call_derives_the_quotient_vertices_at_most_once(monkeypatch, text, delta):
    """A proper Delta makes one kernel check of the linear characters per
    public call, and Delta = Gamma makes none."""
    calls = []
    original = mckay._linear_trivial_on

    def counted(spec, sub):
        calls.append(spec)
        return original(spec, sub)

    monkeypatch.setattr(mckay, "_linear_trivial_on", counted)
    spec = S(text)
    sub = resolve_subgroup(build_group(spec), delta)
    proper = sub.order < sub.group.order
    for call in (lambda: admissible_alpha(spec, sub), lambda: character_of_L(spec, sub, 2),
                 lambda: dimension_bound_check(spec, sub, 2), lambda: dot_export(spec, sub)):
        calls.clear()
        call()
        assert calls == ([spec] if proper else [])
