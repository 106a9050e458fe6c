"""String-keyed backend registry shared by every pluggable subsystem.

``repro.solvers`` and ``repro.neighbors`` each keep one
:class:`Registry` of their backends and export its bound methods as
``register_backend`` / ``unregister_backend`` / ``get_backend`` /
``available_backends``.  Call sites name a backend by its ``name`` key;
adding one is a single ``register_backend`` call.
"""

from __future__ import annotations

from typing import Dict, Generic, Tuple, TypeVar

from repro.utils.errors import ValidationError

T = TypeVar("T")


class Registry(Generic[T]):
    """Named backends of one kind (``kind`` words the error messages)."""

    def __init__(self, kind: str) -> None:
        self.kind = kind
        self._entries: Dict[str, T] = {}

    def register(self, backend: T) -> T:
        """Register ``backend`` under its ``name`` key.

        Raises :class:`ValidationError` for an empty name or a name that
        is already taken (unregister the old backend first to swap in,
        say, an instrumented one).
        """
        name = getattr(backend, "name", "")
        if not name or not isinstance(name, str):
            raise ValidationError(
                f"{self.kind} must define a non-empty string name, "
                f"got {name!r}"
            )
        if name in self._entries:
            raise ValidationError(
                f"{self.kind} {name!r} is already registered"
            )
        self._entries[name] = backend
        return backend

    def unregister(self, name: str) -> None:
        """Remove a backend (no-op if absent); used by tests and plugins."""
        self._entries.pop(name, None)

    def get(self, name: str) -> T:
        """Look up a backend by key; unknown keys list what is available."""
        try:
            return self._entries[name]
        except KeyError:
            raise ValidationError(
                f"unknown {self.kind} {name!r}; "
                f"available: {', '.join(self.available())}"
            ) from None

    def available(self) -> Tuple[str, ...]:
        """Sorted registry keys."""
        return tuple(sorted(self._entries))
