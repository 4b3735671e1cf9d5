"""The package imports only the standard library and itself.

``pyproject.toml`` promises ``dependencies = []``, and exact arithmetic
rules out fixed-width integer libraries such as numpy.
"""

import ast
import pathlib
import sys

PACKAGE = pathlib.Path(__file__).resolve().parents[1] / "src" / "ssetkit"


def _imported_modules(path: pathlib.Path):
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module


def test_package_imports_only_stdlib_and_itself():
    sources = sorted(PACKAGE.glob("*.py"))
    assert sources
    foreign = [
        f"{path.name}: {name}"
        for path in sources
        for name in _imported_modules(path)
        if name.partition(".")[0] not in sys.stdlib_module_names | {"ssetkit"}
    ]
    assert foreign == []
