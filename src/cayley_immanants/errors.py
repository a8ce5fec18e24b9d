"""Exceptions shared by the layers.

This module imports nothing from the package, so every layer can import it
without a cycle.
"""


class EnvelopeError(ValueError):
    """A request above a documented enumeration envelope (CLI exit 3)."""
