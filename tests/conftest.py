"""Fixtures shared by the test modules."""

import pytest


@pytest.fixture
def hall_support_calls(monkeypatch):
    """The groups of every call of `supports.hall_support`, wherever the package holds it.

    The commands stream the Hall walk, so a test asserts that the list stays
    empty: a route that listed the whole support would show here.
    """
    from cayley_immanants import cli, immanants, supports, verify

    real = supports.hall_support
    calls = []

    def spy(spec):
        calls.append(spec.name)
        return real(spec)

    for module in (cli, immanants, supports, verify):
        if getattr(module, "hall_support", None) is real:
            monkeypatch.setattr(module, "hall_support", spy)
    return calls
