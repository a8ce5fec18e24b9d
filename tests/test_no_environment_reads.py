"""No module of the package may read the environment.

What `cayley-imm` computes is fixed by its arguments alone.  A knob read
from the environment has to change this check, on the record.
"""

import ast
from pathlib import Path

import cayley_immanants

PACKAGE = Path(cayley_immanants.__file__).resolve().parent
ENV_NAMES = {"environ", "getenv", "putenv"}


def _env_reads(tree: ast.AST):
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Attribute)
            and node.attr in ENV_NAMES
            and isinstance(node.value, ast.Name)
            and node.value.id == "os"
        ):
            yield node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module == "os":
            if any(alias.name in ENV_NAMES for alias in node.names):
                yield node.lineno


def test_package_reads_no_environment():
    found = [
        f"{path.name}:{lineno}"
        for path in sorted(PACKAGE.glob("*.py"))
        for lineno in _env_reads(ast.parse(path.read_text()))
    ]
    assert found == []


def test_scan_sees_each_form_of_read():
    source = (
        "import os\n"
        "a = os.environ.get('X')\n"
        "b = os.getenv('X')\n"
        "os.putenv('X', '1')\n"
        "from os import environ\n"
    )
    assert sorted(_env_reads(ast.parse(source))) == [2, 3, 4, 5]
