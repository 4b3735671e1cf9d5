"""Every module-level name of the package is read somewhere.

The package modules, the test modules and the benchmark harness are parsed
with ``ast``.  A function, class or constant defined at the top level of a
package module must be read by some module outside its own definition: as a
name, as an attribute, or as a string naming it (the benchmark tracer finds
what it wraps by name).  Listing a name in ``__all__`` or re-exporting it
from the package's ``__init__.py`` is not a read, and what ``__init__.py``
defines itself (``__version__``) is exempt.  A private member of a package
class (an annotated field, a method or a ``__slots__`` entry whose name
starts with ``_``, dunder methods aside) must be read by a package module.
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


def _read_by(sub) -> str | None:
    """The name one node reads, if any: a name, an attribute or a string
    constant."""
    if isinstance(sub, ast.Name) and not isinstance(sub.ctx, ast.Store):
        return sub.id
    if isinstance(sub, ast.Attribute):
        return sub.attr
    if isinstance(sub, ast.Constant) and isinstance(sub.value, str):
        return sub.value
    return None


def _reads(node) -> set[str]:
    """The names a statement reads: names, attributes and string constants."""
    return {name for sub in ast.walk(node) if (name := _read_by(sub)) is not None}


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


def _slot_entries(cls: ast.ClassDef) -> list[ast.Constant]:
    """The string entries of the ``__slots__`` of a class."""
    return [
        entry
        for node in cls.body
        if isinstance(node, ast.Assign)
        and any(isinstance(t, ast.Name) and t.id == "__slots__" for t in node.targets)
        for entry in ast.walk(node.value)
        if isinstance(entry, ast.Constant) and isinstance(entry.value, str)
    ]


def _private_members(cls: ast.ClassDef) -> list[str]:
    """The annotated fields, methods and ``__slots__`` entries of a class
    whose names start with ``_``, dunder methods aside."""
    names = [
        node.target.id
        for node in cls.body
        if isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name)
    ]
    names += [node.name for node in cls.body if isinstance(node, ast.FunctionDef)]
    names += [entry.value for entry in _slot_entries(cls)]
    return [n for n in names if n.startswith("_") and not n.endswith("__")]


def _unread_private_members() -> list[str]:
    """The private members of package classes that no package module reads.
    The strings of ``__slots__`` would read their own entries, so they are
    left out of the reads."""
    read: set[str] = set()
    members: list[tuple[str, str]] = []
    for path in sorted((ROOT / "src" / "ssetkit").glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        classes = [cls for cls in ast.walk(tree) if isinstance(cls, ast.ClassDef)]
        own = {id(entry) for cls in classes for entry in _slot_entries(cls)}
        read |= {
            name
            for sub in ast.walk(tree)
            if id(sub) not in own and (name := _read_by(sub)) is not None
        }
        members += [
            (f"{path.relative_to(ROOT)}: {cls.name}.{name}", name)
            for cls in classes
            for name in _private_members(cls)
        ]
    return [where for where, name in members if name not in read]


def test_every_private_field_of_a_package_class_is_read():
    assert _unread_private_members() == []
