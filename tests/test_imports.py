"""Every name a module of the package imports is used there.

Checked on the syntax tree with the standard library alone: an imported
name must appear as a name in the module body or be listed in ``__all__``.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "bredon"

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
