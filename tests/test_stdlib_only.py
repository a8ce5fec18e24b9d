"""The package imports nothing outside the standard library.

`cayley-imm` runs on a bare Python install.  A third-party import has to
change this check, on the record.
"""

import ast
import sys
from pathlib import Path

import cayley_immanants

PACKAGE = Path(cayley_immanants.__file__).resolve().parent


def _non_stdlib_imports(tree: ast.AST):
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names = [node.module]
        else:
            continue
        for name in names:
            if name.split(".")[0] not in sys.stdlib_module_names:
                yield node.lineno, name


def test_package_imports_only_the_standard_library():
    found = [
        f"{path.name}:{lineno} {name}"
        for path in sorted(PACKAGE.glob("*.py"))
        for lineno, name in _non_stdlib_imports(ast.parse(path.read_text()))
    ]
    assert found == []


def test_scan_flags_third_party_and_passes_relative_imports():
    source = (
        "import numpy\n"
        "from hypothesis import given\n"
        "import os.path, math\n"
        "from . import groups\n"
        "from .supports import hall_support\n"
        "from __future__ import annotations\n"
    )
    assert list(_non_stdlib_imports(ast.parse(source))) == [
        (1, "numpy"),
        (2, "hypothesis"),
    ]
