"""No dead names in the package.

Every module-level function, class and assignment in ``src/benfordkit``,
and every method, property and class constant in a module-level class, is
named somewhere else: in code under ``src/``, ``demos/`` or ``perfbench/``
(a read, an attribute, an imported name, or a string that is the name or
a part of a dotted one, as in ``__init__``'s export table and the probe's
patch list), or as a word of ``README.md``. Names that only tests read
are dead. Dunder names are exempt. And every name a package module
imports is read in the scope that imports it.
"""

import ast
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "benfordkit"
MODULES = sorted(PACKAGE.glob("*.py"))


def _tree(path: Path) -> ast.Module:
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def _references(tree: ast.AST) -> set[str]:
    """Every name a module's code reads or imports, or a string of it spells."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            names.update(part for part in node.value.split(".") if part.isidentifier())
    return names


def _definitions(body: list[ast.stmt]) -> set[str]:
    """The names a module or class body binds by def, class or assignment."""
    names = set()
    for node in body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                names.update(n.id for n in ast.walk(target) if isinstance(n, ast.Name))
    return {name for name in names if not (name.startswith("__") and name.endswith("__"))}


def _named_outside_tests() -> set[str]:
    sources = [*MODULES, *(ROOT / "demos").glob("*.py"), *(ROOT / "perfbench").glob("*.py")]
    names = set().union(*(_references(_tree(path)) for path in sources))
    return names | set(re.findall(r"\w+", (ROOT / "README.md").read_text(encoding="utf-8")))


def test_every_module_level_name_is_named_outside_tests():
    named = _named_outside_tests()
    dead = [f"{path.stem}.{name}" for path in MODULES
            for name in sorted(_definitions(_tree(path).body) - named)]
    assert dead == []


def test_every_class_body_name_is_named_outside_tests():
    named = _named_outside_tests()
    dead = [f"{path.stem}.{node.name}.{name}" for path in MODULES
            for node in _tree(path).body if isinstance(node, ast.ClassDef)
            for name in sorted(_definitions(node.body) - named)]
    assert dead == []


def _scopes(tree: ast.Module):
    """Each module or function with the imports made directly in its body."""
    for scope in ast.walk(tree):
        if isinstance(scope, (ast.Module, ast.FunctionDef, ast.AsyncFunctionDef)):
            direct, stack = [], list(scope.body)
            while stack:
                node = stack.pop()
                if isinstance(node, (ast.Import, ast.ImportFrom)):
                    direct.append(node)
                elif not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                           ast.ClassDef, ast.Lambda)):
                    stack.extend(ast.iter_child_nodes(node))
            yield scope, direct


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.stem)
def test_every_imported_name_is_read(path):
    unread = []
    for scope, imports in _scopes(_tree(path)):
        read = {node.id for node in ast.walk(scope)
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
        for node in imports:
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            for alias in node.names:
                bound = alias.asname or alias.name.split(".")[0]
                if bound not in read:
                    unread.append(f"line {node.lineno}: {bound}")
    assert unread == []
