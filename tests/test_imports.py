"""Every name a module of the package imports is used there, every
top-level name and method it defines is used somewhere, and no file outside
abgrp.py touches IntegerMatrix's private storage.

Checked on the syntax tree with the standard library alone: an imported
name must appear as a name in the module body or be listed in ``__all__``;
a top-level definition, or a method ``Class.method`` of a top-level class,
must be loaded by name in the package, the benchmark, the demos or the
scripts, unless it is listed in ``TEST_ONLY``.  A method counts as loaded
when its name is read as an attribute anywhere, of whatever object: the
check cannot tell two methods of one name apart, so it finds the methods
whose name nothing outside the tests reads.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "bredon"

# (module, name) imported on purpose without a use
ALLOWED = {
    # the benchmark tracer rebinds chaincx.cohomology_at as an alias of abgrp's
    ("chaincx.py", "cohomology_at"),
}

def unused_imports(tree: ast.Module) -> set:
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported |= {a.asname or a.name.partition(".")[0] for a in node.names}
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported |= {a.asname or a.name for a in node.names if a.name != "*"}
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            used |= set(ast.literal_eval(node.value))
    return imported - used


def test_no_unused_imports():
    found = set()
    for path in sorted(PACKAGE.rglob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        found |= {(path.relative_to(PACKAGE).as_posix(), name) for name in unused_imports(tree)}
    assert found <= ALLOWED, sorted(found - ALLOWED)


def top_level_names(tree: ast.Module) -> set:
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                elts = target.elts if isinstance(target, ast.Tuple) else [target]
                names |= {t.id for t in elts if isinstance(t, ast.Name)}
    return {n for n in names if not (n.startswith("__") and n.endswith("__"))}


def definitions(tree: ast.Module) -> set:
    """The top-level names, and each method of a top-level class as
    ``Class.method``; dunder methods are left out, the language calls them."""
    names = top_level_names(tree)
    for node in tree.body:
        if isinstance(node, ast.ClassDef):
            names |= {f"{node.name}.{m.name}" for m in node.body
                      if isinstance(m, (ast.FunctionDef, ast.AsyncFunctionDef))
                      and not (m.name.startswith("__") and m.name.endswith("__"))}
    return names


def loaded_names(tree: ast.Module) -> set:
    loads = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            loads.add(node.id)
        elif isinstance(node, ast.Attribute):
            loads.add(node.attr)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            loads |= {part for a in node.names for part in a.name.split(".")}
    return loads


def span_bindings(tree: ast.Module) -> set:
    """The names in the benchmark's SPAN_GROUPS bindings, read without importing it."""
    for node in tree.body:
        if isinstance(node, ast.AnnAssign) and getattr(node.target, "id", None) == "SPAN_GROUPS":
            groups = ast.literal_eval(node.value)
            return {part for _, bindings in groups.values()
                    for binding in bindings for part in binding.split(".")}
    raise AssertionError("bench/spans.py has no SPAN_GROUPS table")


def unloaded_definitions(*folders) -> set:
    """(module, name) of each definition of the package (a top-level name or
    ``Class.method``) that no file under folders loads by name, nor the
    benchmark's SPAN_GROUPS."""
    loads = span_bindings(ast.parse((ROOT / "bench" / "spans.py").read_text()))
    for folder in folders:
        for path in sorted((ROOT / folder).rglob("*.py")):
            loads |= loaded_names(ast.parse(path.read_text(), str(path)))
    found = set()
    for path in sorted(PACKAGE.rglob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        module = path.relative_to(PACKAGE).as_posix()
        found |= {(module, name) for name in definitions(tree)
                  if name.rpartition(".")[2] not in loads}
    return found


def test_no_dead_definitions():
    found = unloaded_definitions("src", "tests", "bench", "demos")
    assert not found, sorted(found)


# definitions that only the tests load, each kept for its reason
TEST_ONLY = {
    ("chaincx.py", "tensor"): "the acceptance tests check the tensor product formula with it",
    ("chaincx.py", "two_term_complex"): "the Z --n--> Z builder of the module's doctests",
    ("chaincx.py", "euler_characteristic"): "an invariant the tests compare with cohomology",
    ("formal.py", "SEEDS"): "the seed labels a derivation trail may cite besides AXIOMS",
    ("abgrp.py", "IntegerMatrix.diagonal"): "the Smith-form tests and the module doctest "
                                            "read D's diagonal without the private rows",
}


def test_no_definitions_only_tests_load():
    # a definition that only tests reach is dead weight in the package: delete
    # it, move it into tests/ if it is a test oracle, or list it above
    found = unloaded_definitions("src", "bench", "demos", "scripts")
    assert found - set(TEST_ONLY) == set(), sorted(found - set(TEST_ONLY))
    assert set(TEST_ONLY) - found == set(), "stale entries: " + str(sorted(set(TEST_ONLY) - found))


def matrix_private_names() -> set:
    """IntegerMatrix's private slots and private methods, read from abgrp.py."""
    tree = ast.parse((PACKAGE / "abgrp.py").read_text())
    cls = next(node for node in tree.body
               if isinstance(node, ast.ClassDef) and node.name == "IntegerMatrix")
    names = set()
    for node in cls.body:
        if isinstance(node, ast.FunctionDef):
            names.add(node.name)
        elif isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__slots__" for t in node.targets):
            names |= set(ast.literal_eval(node.value))
    return {n for n in names if n.startswith("_") and not n.endswith("__")}


def test_matrix_layout_stays_in_abgrp():
    # the sparse row layout is abgrp's own: every other module reads entries
    # through the public accessors, so the storage can change in one place
    private = matrix_private_names()
    assert "_rows" in private
    found = []
    for folder in ("src", "tests", "bench", "demos"):
        for path in sorted((ROOT / folder).rglob("*.py")):
            if path == PACKAGE / "abgrp.py":
                continue
            for node in ast.walk(ast.parse(path.read_text(), str(path))):
                if isinstance(node, ast.Attribute) and node.attr in private:
                    found.append(f"{path.relative_to(ROOT)}:{node.lineno} .{node.attr}")
    assert not found, found
