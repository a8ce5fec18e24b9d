"""Exceptions shared by the layers.

This module imports nothing from the package, so every layer can import it
without a cycle, and the CLI can catch each of them without loading the
layer that raises it.
"""


class EnvelopeError(ValueError):
    """A request above a documented enumeration envelope (CLI exit 3)."""


class IdentityCheckError(AssertionError):
    """An exact identity that a theorem guarantees failed to hold."""

    def __init__(self, equation: str, lhs, rhs):
        super().__init__(f"{equation}: {lhs} != {rhs}")
        self.equation = equation
        self.lhs = lhs
        self.rhs = rhs
