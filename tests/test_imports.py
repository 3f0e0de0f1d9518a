"""Import hygiene: no module in src/, demos/ or tests/ imports a name it
never uses, and no function in src/ imports anything.

Names imported into a package's __init__.py are its public re-exports and
are exempt.  A name counts as used when it appears as a bare name anywhere
in the module, including as the base of an attribute access.  Imports
belong at module top, where a reader sees every dependency at once.
"""

import ast
import pathlib

ROOT = pathlib.Path(__file__).resolve().parent.parent


def _unused_imports(path: pathlib.Path) -> list[str]:
    tree = ast.parse(path.read_text(), filename=str(path))
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{path.relative_to(ROOT)}:{line}: {name}" for name, line in imported.items() if name not in used]


def _function_imports(path: pathlib.Path) -> list[str]:
    tree = ast.parse(path.read_text(), filename=str(path))
    return [
        f"{path.relative_to(ROOT)}:{node.lineno}: in {func.name}"
        for func in ast.walk(tree)
        if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef))
        for node in ast.walk(func)
        if isinstance(node, (ast.Import, ast.ImportFrom))
    ]


def _sources(*tops: str) -> list[pathlib.Path]:
    paths = [p for top in tops for p in sorted((ROOT / top).rglob("*.py"))]
    assert paths
    return paths


def test_no_unused_imports():
    paths = [p for p in _sources("src", "demos", "tests") if p.name != "__init__.py"]
    unused = [entry for p in paths for entry in _unused_imports(p)]
    assert not unused, "unused imports:\n" + "\n".join(unused)


def test_no_function_level_imports_in_src():
    nested = [entry for p in _sources("src") for entry in _function_imports(p)]
    assert not nested, "imports inside functions:\n" + "\n".join(nested)
