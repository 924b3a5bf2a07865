"""Every private module-level name in the package is used somewhere in the package.

A name that starts with ``_`` (dunder names aside) and is bound at module
level by a ``def``, a ``class`` or an assignment must be read by some other
top-level statement of a package module: a ``Name`` load, or the attribute
of an ``Attribute`` such as ``module._helper``.  References from inside the
name's own definition, a recursive call say, do not count, so a helper left
behind when its last caller goes fails here.
"""

import ast
from pathlib import Path

import pytest

import aapt

PACKAGE = Path(aapt.__file__).resolve().parent
MODULES = sorted(PACKAGE.glob("*.py"))


def _bound_names(stmt: ast.stmt) -> set[str]:
    if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return {stmt.name}
    targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target] if isinstance(stmt, ast.AnnAssign) else []
    return {node.id for target in targets for node in ast.walk(target) if isinstance(node, ast.Name)}


def _read_names(stmt: ast.stmt) -> set[str]:
    names = set()
    for node in ast.walk(stmt):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
    return names


def _is_private(name: str) -> bool:
    return name.startswith("_") and not (name.startswith("__") and name.endswith("__"))


def _statements() -> list[tuple[Path, ast.stmt, set[str]]]:
    return [
        (path, stmt, _read_names(stmt))
        for path in MODULES
        for stmt in ast.parse(path.read_text(encoding="utf-8")).body
    ]


def test_every_module_is_checked():
    assert {p.stem for p in MODULES} >= {"channels", "cli", "duality", "linalg", "sensitivity", "witness"}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_private_name_is_used(path):
    statements = _statements()
    orphans = [
        f"{name} (line {stmt.lineno})"
        for own_path, stmt, _ in statements
        if own_path == path
        for name in sorted(filter(_is_private, _bound_names(stmt)))
        if not any(other is not stmt and name in reads for _, other, reads in statements)
    ]
    assert not orphans, f"{path.name} defines private names nothing in the package reads: {orphans}"
