"""No hook that nothing uses: every function and class of the package is
named somewhere outside its own definition, in the package, the suite
drivers or the benchmark harness, and every name a module of the package
imports is used in that module."""

import ast
import collections
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _docstrings(tree):
    """The docstring nodes of a module and of its functions and classes."""
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            body = node.body
            if body and isinstance(body[0], ast.Expr) and isinstance(body[0].value, ast.Constant):
                yield body[0].value


def _uses(tree):
    """(name, line) of every name, attribute, imported name and string part
    (dotted strings count by each part), docstrings left out."""
    docs = {id(d) for d in _docstrings(tree)}
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id, node.lineno
        elif isinstance(node, ast.Attribute):
            yield node.attr, node.lineno
        elif isinstance(node, ast.alias):
            yield node.name.split(".")[-1], node.lineno
        elif isinstance(node, ast.Constant) and isinstance(node.value, str) and id(node) not in docs:
            for part in node.value.split("."):
                yield part, node.lineno


def test_every_definition_in_src_is_used_outside_itself():
    files = [
        *sorted((ROOT / "src" / "confmetric").glob("*.py")),
        *sorted((ROOT / "scripts").glob("*.py")),
        *sorted((ROOT / "perfbench").glob("*.py")),
    ]
    trees = {path: ast.parse(path.read_text(), str(path)) for path in files}
    uses = collections.defaultdict(list)
    for path, tree in trees.items():
        for name, line in _uses(tree):
            uses[name].append((path, line))
    unused = []
    for path, tree in trees.items():
        if path.parent.name != "confmetric":
            continue
        for node in ast.walk(tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                continue
            name = node.name
            if name.startswith("__") and name.endswith("__"):
                continue
            span = range(node.lineno, node.end_lineno + 1)
            if all(p == path and line in span for p, line in uses[name]):
                unused.append(f"{path.name}:{node.lineno} {name}")
    assert unused == []


def _dotted(node):
    """``a.b.c`` for a chain of attributes on a name, else None."""
    parts = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    return ".".join([node.id, *reversed(parts)]) if isinstance(node, ast.Name) else None


def test_every_name_a_module_imports_is_used_in_it():
    stale = []
    for path in sorted((ROOT / "src" / "confmetric").glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        # Every name read, and every dotted prefix of an attribute chain,
        # so that ``import a.b`` counts only where ``a.b`` is reached.
        used = set()
        for node in ast.walk(tree):
            chain = _dotted(node) if isinstance(node, ast.Attribute) else None
            while chain:
                used.add(chain)
                chain = chain.rpartition(".")[0]
            if isinstance(node, ast.Name):
                used.add(node.id)
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    name = alias.asname or alias.name
                    if name not in used:
                        stale.append(f"{path.name}:{node.lineno} {name}")
    assert stale == []
