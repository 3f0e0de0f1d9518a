"""Import hygiene: no module in src/, demos/ or tests/ imports a name it
never uses, no function in src/ imports anything, every module-level
_private name defined in src/ is read somewhere in src/, and every public
function or class defined in src/ (bar the CLI) is read somewhere in src/,
demos/, tests/ or bench/.  Every parameter with a default, in every
function or method defined in src/, is passed by some call in those four
trees.  One convention is checked the same way: no function in src/
defaults `reps` to None.  And one layering: no simulation module imports
the verdict layer, `primcoal.oracles`, so the oracles stay independent of
what they judge.

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


def _private_definitions(path: pathlib.Path) -> dict[str, int]:
    """Module-level _private (not dunder) functions, classes and constants."""
    names = {}
    for node in ast.parse(path.read_text(), filename=str(path)).body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            targets = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            nodes = node.targets if isinstance(node, ast.Assign) else [node.target]
            targets = [t.id for t in nodes if isinstance(t, ast.Name)]
        else:
            continue
        names.update((t, node.lineno) for t in targets if t.startswith("_") and not t.startswith("__"))
    return names


def test_private_module_names_are_referenced():
    # a _private helper nothing in src/ reads is left over from a refactor
    paths = _sources("src")
    read = set()
    for p in paths:
        for node in ast.walk(ast.parse(p.read_text(), filename=str(p))):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
    unread = [
        f"{p.relative_to(ROOT)}:{line}: {name}"
        for p in paths
        for name, line in _private_definitions(p).items()
        if name not in read
    ]
    assert not unread, "private names never referenced in src/:\n" + "\n".join(unread)


def _reads(path: pathlib.Path) -> set[str]:
    """Names a file reads: loaded names, attributes, names imported (outside a
    package's re-exports) and the dotted parts of string constants such as
    the benchmark tracer's targets."""
    read = set()
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            read.add(node.id)
        elif isinstance(node, ast.Attribute):
            read.add(node.attr)
        elif isinstance(node, ast.ImportFrom) and path.name != "__init__.py":
            read.update(alias.name for alias in node.names)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            parts = node.value.split(".")
            if all(part.isidentifier() for part in parts):
                read.update(parts)
    return read


def test_public_module_names_are_read():
    # a public function or class that nothing reads -- not the package, its
    # demos, its tests or the benchmark -- is dead code with a public name
    read = set().union(*(_reads(p) for p in _sources("src", "demos", "tests", "bench")))
    unread = [
        f"{p.relative_to(ROOT)}:{node.lineno}: {node.name}"
        for p in _sources("src")
        if p.name not in ("__init__.py", "cli.py")
        for node in ast.parse(p.read_text(), filename=str(p)).body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        and not node.name.startswith("_")
        and node.name not in read
    ]
    assert not unread, "public names never read:\n" + "\n".join(unread)


def _reps_defaulting_to_none(path: pathlib.Path) -> list[str]:
    found = []
    for func in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        args = func.args
        positional = args.posonlyargs + args.args
        defaults = list(zip(positional[len(positional) - len(args.defaults):], args.defaults))
        defaults += zip(args.kwonlyargs, args.kw_defaults)
        found += [
            f"{path.relative_to(ROOT)}:{func.lineno}: {func.name}"
            for arg, default in defaults
            if arg.arg == "reps" and isinstance(default, ast.Constant) and default.value is None
        ]
    return found


def test_no_reps_default_of_none_in_src():
    # a single run is the batch of one: every sampler takes reps: int = 1
    # and returns its one batched schema, never a second one-run shape
    found = [entry for p in _sources("src") for entry in _reps_defaulting_to_none(p)]
    assert not found, "reps defaulting to None:\n" + "\n".join(found)


def _defaulted_parameters(path: pathlib.Path) -> list[tuple[str, int, str, object]]:
    """(function name, its line, parameter, its position in a call or None)
    for each parameter with a default.  A method's positions skip its first
    parameter, and `__init__` goes by its class's name, which its calls use."""
    tree = ast.parse(path.read_text(), filename=str(path))
    owner = {f: cls for cls in ast.walk(tree) if isinstance(cls, ast.ClassDef) for f in cls.body}
    found = []
    for func in ast.walk(tree):
        if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        cls = owner.get(func)
        static = any(isinstance(d, ast.Name) and d.id == "staticmethod" for d in func.decorator_list)
        skip = 1 if cls and not static else 0
        name = cls.name if cls and func.name == "__init__" else func.name
        args = func.args
        positional = args.posonlyargs + args.args
        first = len(positional) - len(args.defaults)
        found += [(name, func.lineno, arg.arg, k - skip) for k, arg in enumerate(positional) if k >= first]
        found += [(name, func.lineno, arg.arg, None) for arg, d in zip(args.kwonlyargs, args.kw_defaults) if d is not None]
    return found


def _passed(paths) -> set[tuple[str, object]]:
    """(callee name, keyword or position) for every argument of every call;
    a *args or **kwargs splat passes every position or keyword ("*", "**")."""
    passed = set()
    for path in paths:
        for call in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if not isinstance(call, ast.Call):
                continue
            func = call.func
            name = func.id if isinstance(func, ast.Name) else func.attr if isinstance(func, ast.Attribute) else None
            for k, arg in enumerate(call.args):
                passed.add((name, "*" if isinstance(arg, ast.Starred) else k))
            passed.update((name, kw.arg or "**") for kw in call.keywords)
    return passed


def test_defaulted_parameters_are_passed():
    # a default that no call overrides is a constant dressed as an option
    passed = _passed(_sources("src", "demos", "tests", "bench"))
    dead = [
        f"{p.relative_to(ROOT)}:{line}: {name}({param})"
        for p in _sources("src")
        for name, line, param, pos in _defaulted_parameters(p)
        if not {(name, param), (name, "**"), (name, pos), (name, "*")} & passed
    ]
    assert not dead, "parameters no call passes:\n" + "\n".join(dead)


def _imported_modules(path: pathlib.Path) -> set[str]:
    """The modules a file of the package imports from, relative ones named
    in full (`from .oracles import x` and `from . import oracles` both give
    primcoal.oracles)."""
    found = set()
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Import):
            found.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            base = "primcoal" if node.level else ""
            if node.module is None:
                found.update(f"{base}.{alias.name}" for alias in node.names)
            else:
                found.add(f"{base}.{node.module}" if base else node.module)
    return found


def test_simulation_layer_does_not_import_the_verdict_layer():
    # the samplers and encodings are what the verdicts judge: an oracle or
    # a test statistic imported into them would no longer be independent
    simulation = ("graphs", "walks", "states", "additive", "multiplicative", "limits")
    found = [
        f"src/primcoal/{name}.py"
        for name in simulation
        if "primcoal.oracles" in _imported_modules(ROOT / "src" / "primcoal" / f"{name}.py")
    ]
    assert not found, "simulation modules importing primcoal.oracles:\n" + "\n".join(found)
