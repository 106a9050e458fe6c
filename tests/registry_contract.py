"""The backend-registry contract every pluggable subsystem honors.

``repro.solvers`` and ``repro.neighbors`` each export the bound methods
of one shared :class:`~repro.utils.registry.Registry`.  Each package's
test module subclasses :class:`RegistryContract` with its ``package``,
so this one test body runs against both, next to the package's own
built-ins assertion.
"""

from __future__ import annotations

import pytest

from repro.utils.errors import ValidationError


class _Plugin:
    """A stand-in backend: the registry only reads ``name``."""

    def __init__(self, name) -> None:
        self.name = name


class RegistryContract:
    #: the subsystem package under test (set by each subclass).
    package = None

    def test_register_get_unregister(self):
        plugin = _Plugin("contract-plugin")
        assert self.package.register_backend(plugin) is plugin
        try:
            assert self.package.get_backend("contract-plugin") is plugin
            assert "contract-plugin" in self.package.available_backends()
        finally:
            self.package.unregister_backend("contract-plugin")
        assert "contract-plugin" not in self.package.available_backends()
        self.package.unregister_backend("contract-plugin")  # absent: no-op

    def test_duplicate_registration_rejected(self):
        name = self.package.available_backends()[0]
        builtin = self.package.get_backend(name)
        with pytest.raises(ValidationError, match="already registered"):
            self.package.register_backend(_Plugin(name))
        assert self.package.get_backend(name) is builtin

    def test_nameless_backend_rejected(self):
        for name in ("", None):
            with pytest.raises(ValidationError, match="name"):
                self.package.register_backend(_Plugin(name))

    def test_unknown_backend_lists_available(self):
        with pytest.raises(ValidationError) as excinfo:
            self.package.get_backend("no-such-backend")
        message = str(excinfo.value)
        assert "no-such-backend" in message
        for name in self.package.available_backends():
            assert name in message
