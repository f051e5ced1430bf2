"""Every name a module of the package imports is used there, every
top-level name that is not a function is read outside the tests, and no
file outside abgrp.py touches IntegerMatrix's private storage.

Checked on the syntax tree with the standard library alone.  An imported
name must appear as a name in the module body or be listed in ``__all__``.
A top-level class or assigned name of the package must be loaded by name in
the package, the benchmark, the demos or the scripts, unless it is listed
in ``TESTS_READ``.  Functions and methods are not checked here: the
reachability trace of ``scripts/reach.py`` (``tests/test_reach.py``)
demands that some entry point calls each one.  This guard keeps what a
trace cannot see, names that are never called.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "bredon"

# (module, name) imported on purpose without a use
ALLOWED = {
    # the benchmark tracer rebinds chaincx.cohomology_at as an alias of abgrp's
    ("chaincx.py", "cohomology_at"),
    # and tables.checks.derive_weight1, which the suites reach through DERIVED_WEIGHTS
    ("tables/checks.py", "derive_weight1"),
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
    """The top-level classes and assigned names, dunders left out."""
    names = set()
    for node in tree.body:
        if isinstance(node, ast.ClassDef):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                elts = target.elts if isinstance(target, ast.Tuple) else [target]
                names |= {t.id for t in elts if isinstance(t, ast.Name)}
    return {n for n in names if not (n.startswith("__") and n.endswith("__"))}


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


def unloaded_names(*folders) -> set:
    """(module, name) of each top-level class or assigned name of the package
    that no file under folders loads by name."""
    loads = set()
    for folder in folders:
        for path in sorted((ROOT / folder).rglob("*.py")):
            loads |= loaded_names(ast.parse(path.read_text(), str(path)))
    found = set()
    for path in sorted(PACKAGE.rglob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        module = path.relative_to(PACKAGE).as_posix()
        found |= {(module, name) for name in top_level_names(tree) if name not in loads}
    return found


# names that only the tests read, each kept for its reason
TESTS_READ = {
    ("formal.py", "SEEDS"): "the seed labels a derivation trail may cite besides AXIOMS",
}


def test_no_names_only_tests_read():
    # a class or value that only tests read is dead weight in the package:
    # delete it, move it into tests/ if it is a test oracle, or list it above
    found = unloaded_names("src", "bench", "demos", "scripts")
    assert found - set(TESTS_READ) == set(), sorted(found - set(TESTS_READ))
    assert set(TESTS_READ) - found == set(), "stale entries: " + str(sorted(set(TESTS_READ) - found))


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
