"""A CLI call runs only the layers its command uses.

The package registers every module with a lazy loader, and a module's code
runs when one of its attributes is first read.  Each check starts a fresh
interpreter, since this test process has loaded every layer already.  A
module has run when its namespace holds `__builtins__`, which executing its
code adds; the namespace is read without the attribute access that would
load it.
"""

import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import cayley_immanants

SRC = Path(cayley_immanants.__file__).resolve().parents[1]
LAYERS = ["characters", "cli", "errors", "groups", "immanants", "minors", "polynomials",
          "supports", "verify"]

CHILD = """
import contextlib, json, os, sys
import cayley_immanants.cli
argv = json.loads(sys.argv[1])
code = None
if argv:
    with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink):
        code = cayley_immanants.cli.main(argv)
package = {name.partition(".")[2]: module for name, module in sys.modules.items()
           if name.startswith("cayley_immanants.")}
print(json.dumps({
    "code": code,
    "registered": sorted(package),
    "executed": sorted(name for name, module in package.items()
                       if "__builtins__" in object.__getattribute__(module, "__dict__")),
    "dataclasses": "dataclasses" in sys.modules,
}))
"""


def _start(*argv: str) -> dict:
    env = dict(os.environ, PYTHONPATH=str(SRC))
    out = subprocess.run([sys.executable, "-c", CHILD, json.dumps(argv)], env=env, check=True,
                         capture_output=True, text=True).stdout
    return json.loads(out)


@pytest.mark.parametrize("argv", [
    ("support", "--group", "c2"),
    ("padic", "--group", "c9", "--all"),
], ids=" ".join)
def test_support_and_padic_run_four_modules_and_no_dataclasses(argv):
    seen = _start(*argv)
    assert seen["code"] == 0
    assert seen["executed"] == ["cli", "errors", "groups", "supports"]
    assert seen["dataclasses"] is False


def test_imm_runs_neither_verify_nor_minors():
    seen = _start("imm", "--group", "c4", "--partition", "2,1,1")
    assert seen["code"] == 0
    assert "immanants" in seen["executed"]
    assert {"verify", "minors"}.isdisjoint(seen["executed"])


def test_importing_the_cli_registers_every_layer():
    assert _start()["registered"] == LAYERS


EXPORTS = {
    "characters": ["Partition"],
    "errors": ["EnvelopeError"],
    "groups": ["GroupSpec", "parse_group"],
    "immanants": ["determinant", "immanant", "permanent", "twin_difference"],
    "polynomials": ["GroupPolynomial"],
    "supports": ["count_D", "count_I_nearhook", "count_P", "det_coeff", "hall_support",
                 "padic_profile"],
    "verify": ["VerifyReport", "run_minor_checks", "run_suite"],
}


@pytest.mark.parametrize("module, name", [
    (module, name) for module, names in EXPORTS.items() for name in names
])
def test_every_public_name_is_its_module_attribute(module, name):
    defined = getattr(importlib.import_module(f"cayley_immanants.{module}"), name)
    assert getattr(cayley_immanants, name) is defined


def test_star_import_gives_every_public_name():
    assert sorted(cayley_immanants.__all__) == sorted(
        name for names in EXPORTS.values() for name in names)


def test_an_unknown_name_is_an_attribute_error():
    with pytest.raises(AttributeError, match="no attribute 'bogus'"):
        cayley_immanants.bogus  # noqa: B018
