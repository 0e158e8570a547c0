"""The package holds no code that only tests call."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
DEFINITIONS = (ast.FunctionDef, ast.ClassDef)
# __init__ only re-exports, so its imports do not make a name used
PACKAGE = [p for p in (ROOT / "src" / "sparsa").glob("*.py") if p.name != "__init__.py"]
CALLERS = PACKAGE + list((ROOT / "perfbench").glob("*.py"))


def referenced_names(node: ast.AST) -> set[str]:
    """Names used under ``node`` as a name, an attribute or an import alias.

    A reference inside a definition to that definition's own name is not a
    caller, so it is left out.
    """
    names = set()
    if isinstance(node, ast.Name):
        names.add(node.id)
    elif isinstance(node, ast.Attribute):
        names.add(node.attr)
    elif isinstance(node, ast.alias):
        names.add(node.name.rpartition(".")[2])
    for child in ast.iter_child_nodes(node):
        names |= referenced_names(child)
    if isinstance(node, DEFINITIONS):
        names.discard(node.name)
    return names


def parsed_callers():
    return [(path, ast.parse(path.read_text(), filename=str(path))) for path in CALLERS]


def test_every_package_definition_has_a_caller():
    defined, used = set(), set()
    for path, tree in parsed_callers():
        used |= referenced_names(tree)
        if path in PACKAGE:
            defined |= {stmt.name for stmt in tree.body if isinstance(stmt, DEFINITIONS)}
    unused = sorted(defined - used)
    assert not unused, f"defined in src/sparsa but used only by tests: {unused}"


def test_every_package_method_has_a_caller():
    # a dunder is called by the language, not by name
    methods, used = set(), set()
    for path, tree in parsed_callers():
        used |= referenced_names(tree)
        if path in PACKAGE:
            methods |= {
                (cls.name, stmt.name)
                for cls in ast.walk(tree) if isinstance(cls, ast.ClassDef)
                for stmt in cls.body
                if isinstance(stmt, ast.FunctionDef) and not stmt.name.startswith("__")
            }
    unused = sorted(f"{cls}.{name}" for cls, name in methods if name not in used)
    assert not unused, f"methods in src/sparsa that only tests call: {unused}"
