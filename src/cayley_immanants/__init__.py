"""Exact immanants of Cayley-table matrices of finite abelian groups.

Every module of the package is registered here with a lazy loader: it is in
sys.modules from the start, and it is compiled and run when one of its
attributes is first read.  A CLI call therefore runs only the layers its
command reads (`support` and `padic` run cli, errors, groups and supports).
The public names are read from their modules on first use by `__getattr__`.
"""

import importlib.util
import sys

__version__ = "0.1.0"

# public name -> the module that defines it
_EXPORTS = {
    "Partition": "characters",
    "EnvelopeError": "errors",
    "GroupSpec": "groups",
    "parse_group": "groups",
    "determinant": "immanants",
    "immanant": "immanants",
    "permanent": "immanants",
    "twin_difference": "immanants",
    "GroupPolynomial": "polynomials",
    "count_D": "supports",
    "count_I_nearhook": "supports",
    "count_P": "supports",
    "det_coeff": "supports",
    "hall_support": "supports",
    "padic_profile": "supports",
    "VerifyReport": "verify",
    "run_minor_checks": "verify",
    "run_suite": "verify",
}
__all__ = list(_EXPORTS)

for _name in ("errors", "groups", "characters", "polynomials", "supports", "immanants",
              "minors", "verify", "cli"):
    _spec = importlib.util.find_spec(f"{__name__}.{_name}")
    _spec.loader = importlib.util.LazyLoader(_spec.loader)
    _module = sys.modules[_spec.name] = globals()[_name] = importlib.util.module_from_spec(_spec)
    _spec.loader.exec_module(_module)
del _name, _spec, _module


def __getattr__(name: str):
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(globals()[_EXPORTS[name]], name)

