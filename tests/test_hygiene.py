"""Source hygiene: no unused imports and no unreferenced private helpers
in the library modules (stdlib ``ast`` only)."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "whlaurent"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")


def _tree(path):
    return ast.parse(path.read_text(), filename=str(path))


def _used_names(tree):
    """Every bare name in a module, the roots of attribute chains
    (``np`` in ``np.linalg.det``) and annotations included."""
    return {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}


def _references(tree):
    """Bare names and attribute names in a module; a ``def`` or ``class``
    statement's own name is neither."""
    out = _used_names(tree)
    out |= {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)}
    return out


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_import_is_used(path):
    tree = _tree(path)
    used = _used_names(tree)
    imported = []
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            imported += [(a.asname or a.name).split(".")[0] for a in node.names]
    assert sorted(set(imported) - used) == []


def test_every_private_definition_is_referenced():
    trees = {p.name: _tree(p) for p in SRC.glob("*.py")}
    refs = set().union(*(_references(t) for t in trees.values()))
    private = [(name, node.name) for name, tree in trees.items() for node in tree.body
               if isinstance(node, (ast.FunctionDef, ast.ClassDef))
               and node.name.startswith("_") and not node.name.startswith("__")]
    assert [p for p in private if p[1] not in refs] == []
