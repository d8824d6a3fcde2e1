"""betheq exports only what the program runs: every name in a module's
__all__ is used by another betheq module, by its own module outside its
definition, or by the benchmark (perfbench/).  Reference code that only
the tests call lives in tests/oracles.py."""

import ast
import importlib
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "betheq"
PERFBENCH = ROOT / "perfbench"


def _references(tree, skip=None):
    """Identifiers the tree loads, reads as an attribute or imports,
    leaving out the definition (def or class) named skip."""
    out = set()
    stack = [tree]
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and node.name == skip:
            continue
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
        elif isinstance(node, ast.alias):
            out.add(node.name.rpartition(".")[2])
        stack.extend(ast.iter_child_nodes(node))
    return out


def _exported(tree):
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                getattr(t, "id", None) == "__all__" for t in node.targets):
            return [elt.value for elt in node.value.elts]
    return []


def test_every_export_has_a_program_or_benchmark_caller(monkeypatch):
    trees = {path.stem: ast.parse(path.read_text()) for path in SRC.glob("*.py")}
    init = trees.pop("__init__")
    owner = {name: module for module, tree in trees.items() for name in _exported(tree)}
    # a name __init__ re-exports belongs to the module it imports it from
    owner.update({alias.name: node.module for node in init.body
                  if isinstance(node, ast.ImportFrom) for alias in node.names
                  if alias.name in _exported(init) and alias.name not in owner})
    monkeypatch.syspath_prepend(str(PERFBENCH))
    spans = importlib.import_module("spans")
    bench = {attr for _, attr in [*spans.SPANNED, *spans.COUNTED]}
    for path in PERFBENCH.glob("*.py"):
        bench |= _references(ast.parse(path.read_text()))
    refs = {module: _references(tree) for module, tree in trees.items()}
    unused = sorted(
        name for name, module in owner.items()
        if name not in bench
        and not any(name in r for m, r in refs.items() if m != module)
        and name not in _references(trees[module], skip=name))
    assert unused == [], f"exported but only tests use them: {unused}"
    assert set(_exported(init)) <= set(owner)
