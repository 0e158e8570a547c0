"""The package holds no code that only tests call."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
DEFINITIONS = (ast.FunctionDef, ast.ClassDef)


def referenced_names(node: ast.AST) -> set[str]:
    """Names used under ``node`` as a name, an attribute or an import alias."""
    names = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            names.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            names.add(sub.attr)
        elif isinstance(sub, ast.alias):
            names.add(sub.name.rpartition(".")[2])
    return names


def test_every_package_definition_has_a_caller():
    # __init__ only re-exports, so its imports do not make a name used
    package = [p for p in (ROOT / "src" / "sparsa").glob("*.py") if p.name != "__init__.py"]
    callers = package + list((ROOT / "perfbench").glob("*.py"))
    defined, used = set(), set()
    for path in callers:
        for stmt in ast.parse(path.read_text(), filename=str(path)).body:
            names = referenced_names(stmt)
            if path in package and isinstance(stmt, DEFINITIONS):
                defined.add(stmt.name)
                # a reference inside its own definition is not a caller
                names.discard(stmt.name)
            used |= names
    unused = sorted(defined - used)
    assert not unused, f"defined in src/sparsa but used only by tests: {unused}"
