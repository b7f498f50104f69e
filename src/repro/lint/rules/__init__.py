"""Rule plugins. Importing this package registers every rule.

Third-party/experiment rules can self-register by importing
:func:`repro.lint.core.register` and decorating a :class:`Rule`
subclass before the runner calls :func:`repro.lint.core.all_rules`.
"""

from . import det, proto, sim  # noqa: F401  (registers rules)

__all__ = ["det", "proto", "sim"]
