"""No test-only code in the package: every module-level function, class and
constant of ``src/exactcomb`` is read by the package or by the benchmark.

Oracles that only tests use live in the test files."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
# the package root only re-exports, and its one definition is __version__
PACKAGE = sorted(p for p in (ROOT / "src" / "exactcomb").glob("*.py") if p.name != "__init__.py")
PLACES = PACKAGE + sorted((ROOT / "perfbench").glob("*.py"))


def _definitions(stmt):
    if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return [stmt.name]
    if isinstance(stmt, ast.Assign):
        return [t.id for t in stmt.targets if isinstance(t, ast.Name)]
    if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name):
        return [stmt.target.id]
    return []


def _reads(stmt):
    for node in ast.walk(stmt):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            yield node.id
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            yield node.attr


def test_every_package_definition_is_read_outside_the_tests():
    defined = []  # (name, "module:line" of its definition)
    read = {}  # name -> "module:line" of each top-level statement reading it
    for path in PLACES:
        for stmt in ast.parse(path.read_text(encoding="utf-8")).body:
            where = f"{path.relative_to(ROOT)}:{stmt.lineno}"
            if path in PACKAGE:
                defined += [(name, where) for name in _definitions(stmt)]
            for name in _reads(stmt):
                read.setdefault(name, set()).add(where)
    unread = sorted(f"{name} ({where})" for name, where in defined
                    if not read.get(name, set()) - {where})
    assert not unread, "read by no package or benchmark code: " + ", ".join(unread)
