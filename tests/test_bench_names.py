"""The benchmark tracer wraps package functions by name: every name must exist.

`perfbench/inproc.py` is imported read-only here; a change that renames or
deletes a traced function fails this test instead of crashing a traced run.
"""

import importlib.util
import sys
from pathlib import Path

from cayley_immanants import supports, verify

INPROC = Path(__file__).resolve().parent.parent / "perfbench" / "inproc.py"


def _load_inproc():
    saved = list(sys.path)  # the module puts perfbench/ and src/ on the path
    try:
        spec = importlib.util.spec_from_file_location("perfbench_inproc", INPROC)
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
    finally:
        sys.path[:] = saved
    return module


TRACED = _load_inproc().TRACED


def test_every_traced_attribute_exists():
    missing = [
        f"{mod_name}.{attr}"
        for mod_name, table in TRACED.items()
        for attr in table
        if not hasattr(importlib.import_module(f"cayley_immanants.{mod_name}"), attr)
    ]
    assert missing == []


def test_traced_suites_are_the_registered_suites():
    registered = list(verify._SUITE_FUNCS.values())
    suites = [attr for attr in TRACED["verify"] if attr.startswith("suite_")]
    assert suites
    for attr in suites:
        assert getattr(verify, attr) in registered, attr


def test_the_memo_metrics_read_a_cache():
    assert hasattr(supports._anchored_block_sum, "cache_info")
