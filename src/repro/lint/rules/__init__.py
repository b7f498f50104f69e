"""Rule plugins. Importing this package registers every rule."""

from . import det, sim  # noqa: F401  (registers rules)

__all__ = ["det", "sim"]
