"""betheq carries only what the program runs: the package exports nothing
itself; every name in a module's __all__ is used by another betheq
module, by its own module outside its definition, or by the benchmark
(perfbench/); every public method or property of a betheq class is read
in betheq outside its own definition or by the benchmark; the exact
layer imports neither mpmath nor numpy; no module uses numpy.random;
only the exact layer reads a rational's numerator or denominator; and
only cli formats output.
Reference code that only the tests call lives in tests/oracles.py."""

import ast
import importlib
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "betheq"
PERFBENCH = ROOT / "perfbench"

# the modules that hold the exact arithmetic, pure Python
EXACT_LAYER = ("exact", "detlab", "symfunc", "asmcounts", "qfunctions")


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


def _modules():
    trees = {path.stem: ast.parse(path.read_text()) for path in SRC.glob("*.py")}
    del trees["__init__"]
    return trees


def _bench_references(monkeypatch):
    """Every name the benchmark reads: its spanned and counted attributes
    and the references of each perfbench module."""
    monkeypatch.syspath_prepend(str(PERFBENCH))
    spans = importlib.import_module("spans")
    bench = {attr for _, attr in [*spans.SPANNED, *spans.COUNTED]}
    for path in PERFBENCH.glob("*.py"):
        bench |= _references(ast.parse(path.read_text()))
    return bench


def test_every_export_has_a_program_or_benchmark_caller(monkeypatch):
    trees = _modules()
    owner = {name: module for module, tree in trees.items() for name in _exported(tree)}
    bench = _bench_references(monkeypatch)
    refs = {module: _references(tree) for module, tree in trees.items()}
    unused = sorted(
        name for name, module in owner.items()
        if name not in bench
        and not any(name in r for m, r in refs.items() if m != module)
        and name not in _references(trees[module], skip=name))
    assert unused == [], f"exported but only tests use them: {unused}"


def test_every_public_method_has_a_program_or_benchmark_reader(monkeypatch):
    """A public method or property (a def in a class body whose name does
    not start with _) must be read somewhere in betheq outside its own
    definition, or anywhere in perfbench/.

    The rule matches names only: any read of the name counts, whichever
    class it belongs to, so Cyclo.conjugate once hid behind the
    Partition.conjugate that schur_nk calls.  Dunders are out of scope."""
    trees = _modules()
    bench = _bench_references(monkeypatch)
    unread = sorted(
        f"{module}.{cls.name}.{item.name}"
        for module, tree in trees.items()
        for cls in ast.walk(tree) if isinstance(cls, ast.ClassDef)
        for item in cls.body
        if isinstance(item, ast.FunctionDef) and not item.name.startswith("_")
        and item.name not in bench
        and not any(item.name in _references(t, skip=item.name) for t in trees.values()))
    assert unread == [], f"methods only tests read: {unread}"


def _imports(tree):
    """Every module the tree imports, at any depth; a relative import as
    ".module"."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            if not node.level:
                yield node.module
            elif node.module:
                yield "." + node.module
            else:
                yield from ("." + alias.name for alias in node.names)


def test_exact_layer_imports_no_mpmath_or_numpy():
    # a relative import must stay in the layer, so the rule holds for
    # everything the layer loads
    trees = _modules()
    leaks = sorted(
        f"{module} imports {name}"
        for module in EXACT_LAYER for name in _imports(trees[module])
        if name.partition(".")[0] in ("mpmath", "numpy")
        or (name.startswith(".") and name[1:] not in EXACT_LAYER))
    assert leaks == [], f"the exact layer reaches floating point: {leaks}"


def test_no_module_uses_numpy_random():
    # ed draws its start vector from random.Random, whose sequence Python
    # keeps across releases (NumPy's Generator streams may change), and
    # importing numpy.random costs about 6 MB and 15 ms
    def uses(node):
        if isinstance(node, ast.Attribute):
            return (node.attr == "random" and isinstance(node.value, ast.Name)
                    and node.value.id in ("np", "numpy"))
        if isinstance(node, ast.Import):
            return any(alias.name.startswith("numpy.random") for alias in node.names)
        if isinstance(node, ast.ImportFrom) and not node.level:
            return node.module.startswith("numpy.random") or (
                node.module == "numpy" and any(alias.name == "random" for alias in node.names))
        return False

    trees = _modules()
    found = sorted(f"{module} at line {node.lineno}"
                   for module, tree in trees.items() for node in ast.walk(tree) if uses(node))
    assert found == [], f"numpy.random used: {found}"


def test_only_the_exact_layer_reads_rationals_apart():
    # Q_n reaches the numeric layer as the int polynomial D Q_n that
    # qfunctions builds; no module outside the exact layer rebuilds it (or
    # anything else) from numerators and denominators
    trees = _modules()
    reads = sorted(
        f"{module} reads .{node.attr} at line {node.lineno}"
        for module, tree in trees.items() if module not in EXACT_LAYER
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and node.attr in ("numerator", "denominator"))
    assert reads == [], f"rationals taken apart outside the exact layer: {reads}"


def test_only_cli_formats_output():
    # cli turns every value into output; the other modules hand it plain
    # data, so none of them serializes or defines to_json
    trees = _modules()
    owners = sorted(
        {f"{module} imports {name}" for module, tree in trees.items() if module != "cli"
         for name in _imports(tree) if name.partition(".")[0] in ("json", "csv")}
        | {f"{module}.{node.name} defines to_json" for module, tree in trees.items()
           for node in ast.walk(tree) if isinstance(node, ast.ClassDef)
           for item in node.body
           if isinstance(item, ast.FunctionDef) and item.name == "to_json"})
    assert owners == [], f"output formatted outside cli: {owners}"


def test_package_exports_nothing():
    # every caller imports a submodule (from betheq import bethe, cli, ...)
    init = ast.parse((SRC / "__init__.py").read_text())
    assert _exported(init) == []
    assert not [node for node in init.body if isinstance(node, (ast.Import, ast.ImportFrom))]
