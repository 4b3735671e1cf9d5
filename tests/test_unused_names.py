"""Every module-level name of the package is read somewhere.

The package modules, the test modules and the benchmark harness are parsed
with ``ast``.  A function, class or constant defined at the top level of a
package module must be read by some module outside its own definition: as a
name, as an attribute, or as a string naming it (the benchmark tracer finds
what it wraps by name).  Listing a name in ``__all__`` or re-exporting it
from the package's ``__init__.py`` is not a read, and what ``__init__.py``
defines itself (``__version__``) is exempt.
"""

import ast
import pathlib

ROOT = pathlib.Path(__file__).resolve().parents[1]


def _defined(node) -> list[str]:
    """The names a top-level statement defines."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return [node.name]
    if isinstance(node, ast.Assign):
        targets = node.targets
    else:
        targets = [getattr(node, "target", None)]
    return [t.id for t in targets if isinstance(t, ast.Name)]


def _reads(node) -> set[str]:
    """The names a statement reads: names, attributes and string constants."""
    out = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name) and not isinstance(sub.ctx, ast.Store):
            out.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            out.add(sub.attr)
        elif isinstance(sub, ast.Constant) and isinstance(sub.value, str):
            out.add(sub.value)
    return out


def _unused_names() -> list[str]:
    sources = [
        path
        for pattern in ("src/ssetkit/*.py", "tests/**/*.py", "perfbench/**/*.py")
        for path in sorted(ROOT.glob(pattern))
    ]
    assert len(sources) > 30
    read: set[str] = set()
    defined: list[tuple[str, str]] = []
    for path in sources:
        tree = ast.parse(path.read_text(), str(path))
        package = path.parent == ROOT / "src" / "ssetkit"
        for node in tree.body:
            names = _defined(node)
            if "__all__" in names or (package and path.name == "__init__.py"):
                continue
            # A definition's reads of its own name do not count.
            read |= _reads(node) - set(names)
            if package:
                where = path.relative_to(ROOT)
                defined += [(f"{where}: {name}", name) for name in names]
    return [where for where, name in defined if name not in read]


def test_every_module_level_name_of_the_package_is_read():
    assert _unused_names() == []


def _unread_private_fields() -> list[str]:
    """The annotated fields of package classes whose names start with ``_``
    and that no package module reads."""
    read: set[str] = set()
    fields: list[tuple[str, str]] = []
    for path in sorted((ROOT / "src" / "ssetkit").glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        read |= _reads(tree)
        fields += [
            (f"{path.relative_to(ROOT)}: {cls.name}.{node.target.id}", node.target.id)
            for cls in ast.walk(tree)
            if isinstance(cls, ast.ClassDef)
            for node in cls.body
            if isinstance(node, ast.AnnAssign) and node.target.id.startswith("_")
        ]
    return [where for where, name in fields if name not in read]


def test_every_private_field_of_a_package_class_is_read():
    assert _unread_private_fields() == []
