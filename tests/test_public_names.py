"""No public helper that nothing calls.

Every public function, class, method and property of ``zerofiber`` must be
named somewhere in ``src/zerofiber`` or ``perfbench/*.py`` outside its own
definition: as a name, an attribute, an import or a string equal to it (the
benchmark's tracer looks functions up by name).  Docstrings and comments do
not count.  ``ALLOWED`` names each exception and what it serves.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted((ROOT / "src" / "zerofiber").glob("*.py")) + sorted(
    (ROOT / "perfbench").glob("*.py"))

ALLOWED = {
    "contains": "reference code in tests/oracles.py",
    "appendix_checks": "the tested entry point of the appendix identities",
}


def public_definitions(tree):
    """(name, first line, last line) of each public top-level function and
    class, and of each public method and property of a public class."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
            yield node.name, node.lineno, node.end_lineno
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"):
                        yield item.name, item.lineno, item.end_lineno


def named(tree):
    """(name, line) of every name, attribute, import and identifier string."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id, node.lineno
        elif isinstance(node, ast.Attribute):
            yield node.attr, node.lineno
        elif isinstance(node, ast.alias):
            yield node.name, node.lineno
        elif isinstance(node, ast.Constant) and isinstance(node.value, str) \
                and node.value.isidentifier():
            yield node.value, node.lineno


def test_every_public_name_has_a_caller():
    trees = {path: ast.parse(path.read_text()) for path in SOURCES}
    uses = {path: list(named(tree)) for path, tree in trees.items()}
    uncalled = []
    for path, tree in trees.items():
        if path.parent.name != "zerofiber":
            continue
        for name, first, last in public_definitions(tree):
            if any(n == name and not (where == path and first <= line <= last)
                   for where, found in uses.items() for n, line in found):
                continue
            if name not in ALLOWED:
                uncalled.append(f"{path.stem}.{name}")
    assert uncalled == []


def test_every_allowed_name_is_still_defined():
    defined = {name for path in SOURCES if path.parent.name == "zerofiber"
               for name, _, _ in public_definitions(ast.parse(path.read_text()))}
    assert set(ALLOWED) <= defined
