"""No test-only code in the package: every module-level function, class and
constant of ``src/exactcomb``, and every non-dunder method and class
attribute of its classes, is read by the package or by the benchmark.
No module of the package keeps a store of results for the life of the
process.

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


def _is_dunder(name):
    return name.startswith("__") and name.endswith("__")


def _loads(stmt):
    """(name, is_attribute) for every name and attribute the statement reads."""
    for node in ast.walk(stmt):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            yield node.id, False
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            yield node.attr, True


def _unread(defined, read):
    return sorted(f"{label} ({where})" for label, name, where in defined
                  if not read.get(name, set()) - {where})


def test_every_package_definition_is_read_outside_the_tests():
    defined = []  # (label, name, "module:line" of its definition)
    members = []  # the same for class members, located at their own statement
    read = {}  # name -> "module:line" of each top-level statement reading it
    attrs = {}  # attribute -> "module:line" of each top-level or class-body statement reading it
    for path in PLACES:
        for stmt in ast.parse(path.read_text(encoding="utf-8")).body:
            where = f"{path.relative_to(ROOT)}:{stmt.lineno}"
            if path in PACKAGE:
                defined += [(name, name, where) for name in _definitions(stmt)]
            for name, _ in _loads(stmt):
                read.setdefault(name, set()).add(where)
            # a member read only inside its own definition is unread
            for unit in stmt.body if isinstance(stmt, ast.ClassDef) else [stmt]:
                unit_at = f"{path.relative_to(ROOT)}:{unit.lineno}"
                if path in PACKAGE and unit is not stmt:
                    members += [(f"{stmt.name}.{name}", name, unit_at)
                                for name in _definitions(unit) if not _is_dunder(name)]
                for name, is_attribute in _loads(unit):
                    if is_attribute:
                        attrs.setdefault(name, set()).add(unit_at)
    unread = _unread(defined, read)
    assert not unread, "read by no package or benchmark code: " + ", ".join(unread)
    unread = _unread(members, attrs)
    assert not unread, "read as an attribute by no package or benchmark code: " + ", ".join(unread)


def _is_empty_container(node):
    if isinstance(node, ast.Dict):
        return not node.keys
    if isinstance(node, ast.List):
        return not node.elts
    return (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
            and node.func.id in ("dict", "list", "set") and not node.args and not node.keywords)


def test_no_module_level_result_store():
    # a module-level name bound to an empty dict, list or set can only be
    # filled as a side channel that lives as long as the process; searches
    # return their results to the caller instead
    stores = []
    for path in sorted((ROOT / "src" / "exactcomb").glob("*.py")):
        for stmt in ast.parse(path.read_text(encoding="utf-8")).body:
            if isinstance(stmt, (ast.Assign, ast.AnnAssign)) and stmt.value is not None \
                    and _is_empty_container(stmt.value):
                stores += [f"{path.stem}.{name}" for name in _definitions(stmt)]
    assert not stores, "module-level stores: " + ", ".join(stores)
