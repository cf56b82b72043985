"""Every public library name is reached by a command, a criterion or the benchmark.

A name in a module's ``__all__`` counts as reached when the AST of some
library module uses it (a ``Name`` or ``Attribute`` node outside the
name's own top-level definition), or when a perfbench script or the
acceptance criteria use it.  A name that only unit tests reach belongs
in the tests as an oracle or helper, or nowhere.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
LIBRARY = sorted((ROOT / "src" / "subtiling").glob("*.py"))
READERS = sorted((ROOT / "perfbench").glob("*.py")) + [ROOT / "tests" / "test_acceptance.py"]


def _parse(path: Path) -> ast.Module:
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def _used(node: ast.AST) -> set[str]:
    return {n.id if isinstance(n, ast.Name) else n.attr
            for n in ast.walk(node) if isinstance(n, (ast.Name, ast.Attribute))}


def _defined(stmt: ast.stmt) -> set[str]:
    if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
        return {stmt.name}
    if isinstance(stmt, ast.Assign):
        return {t.id for t in stmt.targets if isinstance(t, ast.Name)}
    return set()


def _public_names(tree: ast.Module) -> list[str]:
    for stmt in tree.body:
        if isinstance(stmt, ast.Assign) and "__all__" in _defined(stmt):
            return [ast.literal_eval(e) for e in stmt.value.elts]
    return []


def test_every_public_name_is_reached_outside_the_unit_tests():
    trees = {path.name: _parse(path) for path in LIBRARY}
    # (names a top-level statement defines, names it uses)
    statements = [(_defined(stmt), _used(stmt)) for tree in trees.values() for stmt in tree.body]
    outside = set().union(*(_used(_parse(path)) for path in READERS))
    unreached = [f"{module}:{name}" for module, tree in trees.items()
                 for name in _public_names(tree)
                 if name not in outside
                 and not any(name in used and name not in defined
                             for defined, used in statements)]
    assert not unreached, ("public names that no library module, perfbench script "
                           f"or acceptance criterion uses: {unreached}")
