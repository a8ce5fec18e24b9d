"""Every function, class and method of the package is read by the package.

An API that only the tests call belongs in the tests, and one that nothing
calls goes.  A definition counts as read when some module of the package
names it (as a name or as an attribute), or when `__init__.py` imports it
for export.  A module-level function or class must also be read through its
own module: named there, imported from it by another module, or read as
`module.name`, so a method of the same name elsewhere does not count for it.
Dunder methods are called by Python itself and are not scanned.
"""

import ast
from pathlib import Path

import cayley_immanants

PACKAGE = Path(cayley_immanants.__file__).resolve().parent


def _definitions(tree: ast.AST):
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            if not (node.name.startswith("__") and node.name.endswith("__")):
                yield node.lineno, node.name


def _references(tree: ast.AST, exports: bool):
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif exports and isinstance(node, ast.ImportFrom):
            yield from (alias.name for alias in node.names)


def _module_references(name: str, tree: ast.AST):
    """(file, name) of each definition read through its module by one source."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield name, node.id
        elif isinstance(node, ast.ImportFrom) and node.module:
            module = node.module.rpartition(".")[2] + ".py"
            yield from ((module, alias.name) for alias in node.names)
        elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
            yield node.value.id + ".py", node.attr


def unused_definitions(sources: dict[str, str]) -> list[str]:
    """`file:line name` of each definition that no source reads."""
    trees = {name: ast.parse(text) for name, text in sources.items()}
    read = {
        ref
        for name, tree in trees.items()
        for ref in _references(tree, exports=name == "__init__.py")
    }
    read_by_module = {ref for name, tree in trees.items() for ref in _module_references(name, tree)}
    top_level = {
        (name, node.lineno)
        for name, tree in trees.items()
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
    }
    return [
        f"{name}:{lineno} {defined}"
        for name, tree in sorted(trees.items())
        for lineno, defined in _definitions(tree)
        if defined not in read
        or ((name, lineno) in top_level and (name, defined) not in read_by_module)
    ]


def test_package_defines_nothing_it_does_not_read():
    sources = {path.name: path.read_text() for path in sorted(PACKAGE.glob("*.py"))}
    assert unused_definitions(sources) == []


def test_scan_flags_unread_definitions_and_counts_exports():
    # the function `shadowed` is read only as a method of the same name, so it
    # is unread; `via_module` is read as `b.via_module`
    sources = {
        "__init__.py": "from .a import exported\n",
        "a.py": (
            "from . import b\n"
            "from .b import imported_only\n"
            "def exported(): pass\n"
            "def called(): pass\n"
            "def unread(): pass\n"
            "class C:\n"
            "    def __repr__(self): return ''\n"
            "    def method(self): return called()\n"
            "    def unread_method(self): pass\n"
            "    def shadowed(self): return b.via_module()\n"
            "C().method()\n"
            "C().shadowed()\n"
        ),
        "b.py": "def imported_only(): pass\ndef shadowed(): pass\ndef via_module(): pass\n",
    }
    assert unused_definitions(sources) == [
        "a.py:5 unread",
        "a.py:9 unread_method",
        "b.py:1 imported_only",
        "b.py:2 shadowed",
    ]
