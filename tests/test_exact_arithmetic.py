"""The exact layers never reach for floating point.

Every immanant, support count and identity check is integer or `Fraction`
arithmetic.  A float literal, the name `float` or a `math` function that
returns a float would let an inexact value pass for an exact one, so this
scan rejects them in the modules that compute.  The `math` functions kept
are the integer ones.
"""

import ast
from pathlib import Path

import cayley_immanants

PACKAGE = Path(cayley_immanants.__file__).resolve().parent
EXACT_MODULES = ("groups", "characters", "polynomials", "supports", "immanants", "minors")
INTEGER_MATH = frozenset({"comb", "factorial", "gcd", "lcm", "isqrt", "prod"})


def _inexact(tree: ast.AST):
    math_names = {
        alias.asname or alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.Import)
        for alias in node.names
        if alias.name == "math"
    }
    for node in ast.walk(tree):
        if isinstance(node, ast.Constant) and isinstance(node.value, (float, complex)):
            yield node.lineno, repr(node.value)
        elif isinstance(node, ast.Name) and node.id == "float":
            yield node.lineno, "float"
        elif (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id in math_names
            and node.attr not in INTEGER_MATH
        ):
            yield node.lineno, f"math.{node.attr}"
        elif isinstance(node, ast.ImportFrom) and node.module == "math" and node.level == 0:
            for alias in node.names:
                if alias.name not in INTEGER_MATH:
                    yield node.lineno, f"math.{alias.name}"


def test_exact_modules_use_no_floating_point():
    found = [
        f"{name}.py:{lineno} {what}"
        for name in EXACT_MODULES
        for lineno, what in _inexact(ast.parse((PACKAGE / f"{name}.py").read_text()))
    ]
    assert found == []


def test_scan_flags_floats_and_passes_integer_math():
    source = (
        "import math\n"
        "import math as m\n"
        "from math import comb, log\n"
        "x = 0.5 + 1e3\n"
        "y = float(x)\n"
        "z = math.sqrt(2) + m.pi\n"
        "w = math.comb(5, 2) * m.factorial(3) * math.isqrt(10) * comb(4, 2)\n"
        "v = 2j\n"
        "s = 'a float, 0.5, in a string'\n"
    )
    assert sorted(_inexact(ast.parse(source))) == [
        (3, "math.log"),
        (4, "0.5"),
        (4, "1000.0"),
        (5, "float"),
        (6, "math.pi"),
        (6, "math.sqrt"),
        (8, "2j"),
    ]
