"""The packed character inner products, the McKay sieve around them, and
the root bound that the Sigma_c certificate rests on.

The digests pin, on every group the McKay tests use, the exact character
table, McKay multiplicities and McKay graph that the term-by-term Hermitian
sum (``oracles.hermitian_sum``) gave before the packed kernel replaced it:
each is the first 16 hex digits of the SHA-256 of the repr of
(row keys, multiplicity matrix, (adjacency, dims, affine type, linear
vertices)).
"""

import dataclasses
import hashlib

import pytest

from zerofiber import characters, mckay
from zerofiber.characters import ClassFunction, character_table, inner_product, validate_table
from zerofiber.cyclotomic import Cyc
from zerofiber.groups import GroupSpec, build_group

# the groups of the benchmark's mckay workload
BENCH_MCKAY_SPECS = ([f"cyclic:{ell}" for ell in (4, 8, 12, 20, 30)]
                     + [f"bd:{n}" for n in (2, 3, 4, 6, 8, 10, 12)] + ["bt", "bo", "bi"])

DIGESTS = {
    "cyclic:1": "1f3ae230a42579ee",
    "cyclic:2": "7556845557b5b6e5",
    "cyclic:3": "870bdb98983705c0",
    "cyclic:4": "3f3b3b90dad67861",
    "cyclic:5": "cb93398672e90885",
    "cyclic:6": "833759f5308a28da",
    "cyclic:7": "e520f522ba9d3620",
    "cyclic:8": "88b1266b77e691e8",
    "cyclic:9": "2721168616eb371e",
    "cyclic:10": "db6c94ad8d182973",
    "cyclic:11": "8b315c848cb32a94",
    "cyclic:12": "79305f67cd962ba9",
    "cyclic:13": "3e3431a6ae7d73a7",
    "cyclic:14": "047f3fae73cf8093",
    "cyclic:15": "f50035c26651cd04",
    "cyclic:16": "faf94b0be34e9c60",
    "cyclic:17": "76b28eecaf3d3b98",
    "cyclic:18": "6eafb63feb98cf88",
    "cyclic:19": "b703c13dac88e4ad",
    "cyclic:20": "107f730b6f8682a3",
    "cyclic:21": "f531a33b132d7d8f",
    "cyclic:22": "de8552d6bbdf384b",
    "cyclic:23": "06aaf4cf7454360c",
    "cyclic:24": "1c03b7421ee1efb9",
    "cyclic:25": "3f3399d01c5a0153",
    "cyclic:26": "bbeee3942cc52d5c",
    "cyclic:27": "4060fb2355be9909",
    "cyclic:28": "19917d120cbbb7a8",
    "cyclic:29": "68515b3dbf71e4dd",
    "cyclic:30": "c41443f704924eea",
    "bd:1": "b1a55d381c6960e0",
    "bd:2": "397c137577a7bc30",
    "bd:3": "23da9074cc8ac1a3",
    "bd:4": "6bef8252e705d83b",
    "bd:5": "31011c31d7fb893a",
    "bd:6": "1165c881d61ecfad",
    "bd:7": "d01abffa1c042a89",
    "bd:8": "7d538068f811de05",
    "bd:9": "34dcd6048668112a",
    "bd:10": "a44a8e1288dd8b84",
    "bd:11": "dc4d93a5ce1d9193",
    "bd:12": "79b0cb4e9e0ef1d8",
    "bd:13": "c3b3f898e8dbe381",
    "bd:14": "e4bddf0c7e9e4f87",
    "bd:15": "bf59c96bf0f71499",
    "bt": "3d9069708f4e8dfa",
    "bo": "797aebf8a2088234",
    "bi": "7250ec0a12f59062",
}


def digest(spec):
    group, chars = build_group(spec), character_table(spec)
    graph = mckay.mckay_graph(spec)
    data = ([characters._key(chi) for chi in chars], mckay.mckay_multiplicities(group, chars),
            (graph.adjacency, graph.dims, graph.affine_type, graph.linear_vertices))
    return hashlib.sha256(repr(data).encode()).hexdigest()[:16]


@pytest.mark.parametrize("text", list(DIGESTS))
def test_tables_and_mckay_graphs_equal_the_term_by_term_ones(text):
    assert digest(GroupSpec.parse(text)) == DIGESTS[text]


def count_calls(monkeypatch, owner, name):
    calls = []
    original = getattr(owner, name)

    def counted(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(owner, name, counted)
    return calls


def test_the_sieve_decomposes_a_split_product_once(monkeypatch):
    """A chi whose chi * chi_V strips to zero is not decomposed again: 614
    inner products over the benchmark's groups, where decomposing every
    known chi after each new character made 1,032."""
    calls = count_calls(monkeypatch, characters, "inner_product")
    for text in BENCH_MCKAY_SPECS:
        characters._mckay_sieve(build_group(GroupSpec.parse(text)))
    assert len(calls) == 614


def test_a_rational_character_is_pushed_without_galois_images(monkeypatch):
    """Every character of bd:2 (the quaternion group) is rational, so the
    sieve takes no Galois image; bt has irrational characters and takes
    some."""
    calls = count_calls(monkeypatch, Cyc, "galois")
    characters._mckay_sieve(build_group(GroupSpec.parse("bd:2")))
    assert calls == []
    characters._mckay_sieve(build_group(GroupSpec.parse("bt")))
    assert calls


@pytest.mark.parametrize("text", ["cyclic:30", "bd:5", "bi"])
def test_each_function_is_packed_once(monkeypatch, text):
    """validate_table makes up to k(k + 1)/2 inner products but packs each
    of its k fresh rows once, and keeps the form with the row; row 0 meets
    every row, so each is packed even where the linear block is taken."""
    group = build_group(GroupSpec.parse(text))
    rows = [ClassFunction(chi.values) for chi in character_table(GroupSpec.parse(text))]
    calls = count_calls(monkeypatch, characters, "kronecker_pack")
    validate_table(group, rows)
    assert len(calls) == len(rows)
    assert all("packed" in vars(chi) for chi in rows)


def test_a_function_at_another_conductor_is_lifted_for_the_pair():
    """The pair is packed at the lcm conductor; the stored form of the
    function at the smaller conductor stays at its own."""
    spec = GroupSpec.parse("bt")
    group, chi = build_group(spec), character_table(spec)[-1]
    lifted = ClassFunction(tuple(v.lift(48) for v in chi.values))
    assert inner_product(group, lifted, chi) == inner_product(group, chi, lifted) == 1
    assert chi.packed[0] == 24 and lifted.packed[0] == 48


def test_a_phi_that_does_not_dominate_every_root_is_rejected(monkeypatch):
    """generic_on_hyperplane bounds |w_i| by beta <= phi, which root_context
    checks: with delta corrupted to (1, 1, 1, 0) on the A3 of cyclic:4,
    phi = alpha_1 + alpha_2 is a root, but alpha_3 is not below it."""
    spec = GroupSpec.parse("cyclic:4")
    broken = dataclasses.replace(mckay.mckay_graph(spec), dims=(1, 1, 1, 0))
    monkeypatch.setattr(mckay, "mckay_graph", lambda sp: broken)
    mckay.root_context.cache_clear()
    with pytest.raises(AssertionError, match="not below it coefficientwise"):
        mckay.root_context(spec)
