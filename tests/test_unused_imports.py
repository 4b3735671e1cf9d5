"""Every imported name is used by the module that imports it.

The package modules and the test modules are parsed with ``ast``; a name
bound by ``import`` or ``from ... import`` must appear somewhere else in
the module, as a name or as the root of an attribute chain.  The package's
``__init__.py`` imports names to re-export them, and ``from __future__
import annotations`` binds nothing, so both are exempt.
"""

import ast
import pathlib

ROOT = pathlib.Path(__file__).resolve().parents[1]


def _unused_imports(path: pathlib.Path) -> list[str]:
    tree = ast.parse(path.read_text(), str(path))
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.partition(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [
        f"{path.relative_to(ROOT)}:{line}: {name}"
        for name, line in sorted(imported.items(), key=lambda item: item[1])
        if name not in used
    ]


def test_no_module_imports_a_name_it_never_uses():
    sources = [
        path
        for pattern in ("src/ssetkit/*.py", "tests/*.py")
        for path in sorted(ROOT.glob(pattern))
        if path.name != "__init__.py"
    ]
    assert len(sources) > 20
    assert [line for path in sources for line in _unused_imports(path)] == []
