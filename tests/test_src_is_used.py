"""No test-only code in the package: every module-level function, class and
constant of ``src/exactcomb``, and every non-dunder method and class
attribute of its classes, is read by the package or by the benchmark.
Every import of a package module is read by that module.  Results kept
for the life of the process live only in a pinned set of cached functions,
never in a module-level container.

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


def _is_cache(decorator):
    """Whether the decorator is functools' cache or lru_cache, called or not."""
    if isinstance(decorator, ast.Call):
        decorator = decorator.func
    name = decorator.attr if isinstance(decorator, ast.Attribute) else getattr(decorator, "id", "")
    return name in ("cache", "lru_cache")


def test_process_lifetime_caches_are_pinned():
    # Each criterion fills the caches it reads in whichever process runs it:
    # lattice_sweep serves criteria 1-3, _parking_sweep criteria 6, 7 and 9,
    # _tree_packed criteria 7 and 8, tree_poly_at_minus_one and _simsun_rec
    # criterion 8.  A new one is a new store that lives as long as the process.
    cached = set()
    for path in PACKAGE:
        for stmt in ast.parse(path.read_text(encoding="utf-8")).body:
            if isinstance(stmt, ast.FunctionDef) and any(map(_is_cache, stmt.decorator_list)):
                cached.add(f"{path.stem}.{stmt.name}")
    assert cached == {"acceptance.lattice_sweep", "genfun._tree_packed",
                      "genfun.tree_poly_at_minus_one", "genfun._parking_sweep",
                      "genfun._simsun_rec"}


def _imported_names(tree):
    """(name bound by an import, line) for every import of the module."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from ((alias.asname or alias.name.split(".")[0], node.lineno)
                        for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            yield from ((alias.asname or alias.name, node.lineno) for alias in node.names)


def test_every_package_import_is_read():
    unused = []
    for path in PACKAGE:
        tree = ast.parse(path.read_text(encoding="utf-8"))
        read = {name for name, is_attribute in _loads(tree) if not is_attribute}
        unused += [f"{name} ({path.relative_to(ROOT)}:{line})"
                   for name, line in _imported_names(tree) if name not in read]
    assert not unused, "imported and never read: " + ", ".join(unused)
