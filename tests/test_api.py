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
