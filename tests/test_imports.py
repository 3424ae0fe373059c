"""No module of the package imports a name it does not use.

Read with the standard library's ast: a name bound by an import, at module
level or inside a function, must be read somewhere in the same module.
The package's __init__ re-exports its names, and compiler re-exports
float_op_err as part of its public surface; both are allowed.
"""
import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "approxc"
RE_EXPORTS = {("compiler", "float_op_err")}


def _unused_imports(tree: ast.Module):
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                bound.setdefault(name, node.lineno)
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return sorted((line, name) for name, line in bound.items()
                  if name not in used)


def test_no_module_imports_an_unused_name():
    unused = []
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "__init__.py":
            continue
        for line, name in _unused_imports(ast.parse(path.read_text())):
            if (path.stem, name) not in RE_EXPORTS:
                unused.append(f"{path.name}:{line}: {name}")
    assert unused == []


def test_the_check_sees_an_unused_import():
    tree = ast.parse("import os\nfrom typing import List, Tuple\n"
                     "def f(x: Tuple) -> None:\n    from json import dumps\n")
    assert _unused_imports(tree) == [(1, "os"), (2, "List"), (4, "dumps")]
