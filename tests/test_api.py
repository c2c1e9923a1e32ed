import ast
from pathlib import Path

import pytest

import sudap

README_API = [
    "CurveRecorder",
    "DykstraConfig",
    "EndmemberMatrix",
    "ImageCube",
    "SudapError",
    "relative_error_db",
    "solve_oracle_activeset",
    "solve_sudap",
]


def test_package_root_exports_the_documented_api():
    assert sorted(sudap.__all__) == README_API
    for name in sudap.__all__:
        assert getattr(sudap, name) is not None


PACKAGE = Path(sudap.__file__).parent
# What each module of the data layer may import from the package.
DATA_LAYER = {
    "errors": set(),
    "model": {"errors"},
    "simdata": {"errors", "model"},
    "io": {"errors", "model", "simdata"},
}


def _package_modules(node) -> set:
    """The sudap modules that one import statement names."""
    if isinstance(node, ast.Import):
        full = [alias.name for alias in node.names]
    elif node.module and (node.level or node.module.startswith("sudap.")):
        full = [("sudap." if node.level else "") + node.module]
    else:  # from . import io, from sudap import io, or another package
        root = "sudap" if node.level else node.module
        full = [f"{root}.{alias.name}" for alias in node.names]
    return {name.partition(".")[2] or name for name in full
            if name.partition(".")[0] == "sudap"}


def _imports(tree) -> list:
    return [node for node in ast.walk(tree)
            if isinstance(node, (ast.Import, ast.ImportFrom))]


def test_no_function_imports_from_the_package():
    for path in sorted(PACKAGE.glob("*.py")):
        for func in ast.walk(ast.parse(path.read_text())):
            if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
                for node in _imports(func):
                    assert not _package_modules(node), (
                        f"{path.name}:{node.lineno}")


@pytest.mark.parametrize("name", sorted(DATA_LAYER))
def test_the_data_layer_imports_nothing_of_the_solver(name):
    tree = ast.parse((PACKAGE / f"{name}.py").read_text())
    imported = set().union(*map(_package_modules, _imports(tree)))
    assert imported <= DATA_LAYER[name]


def _named(path: Path) -> set:
    """Every identifier a module names: variables, attributes, imports,
    and whole strings (perfbench's tracer names its targets in strings)."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.add(node.name.rpartition(".")[2])
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            names.add(node.value)
    return names


def test_every_public_name_has_a_caller():
    # A caller is code of the package (a definition does not name
    # itself), the benchmark harness or the package root's __all__; a
    # public name that only tests reach is dead code.
    harness = (PACKAGE.parents[1] / "perfbench").glob("*.py")
    modules = sorted(PACKAGE.glob("*.py"))
    callers = set(sudap.__all__).union(*map(_named, [*modules, *harness]))
    unused = [
        f"{path.name}: {node.name}"
        for path in modules
        for node in ast.parse(path.read_text()).body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
        and not node.name.startswith("_") and node.name not in callers
    ]
    assert not unused
