"""No correctness check may live in an `assert`: `python -O` strips them."""

import ast
from pathlib import Path

import cayley_immanants

PACKAGE = Path(cayley_immanants.__file__).resolve().parent


def test_package_has_no_assert_statements():
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(PACKAGE.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Assert)
    ]
    assert found == []
