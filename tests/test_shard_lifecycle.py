"""Regression tests: ShardContext teardown safety + front-door validation.

The teardown half pins the double-close / ``__del__`` contract: closing
twice (or letting the GC close an already-closed context) is a no-op,
and a context that is still open when the interpreter exits is torn
down silently — no ``Exception ignored in:`` noise on stderr, exit 0.

The validation half pins the construction-time rejection of malformed
deadlines, retry counts, and ``host:port`` strings (for the shard
context and the serve daemon's bind alike) — a typo fails as one clear
:class:`ValidationError`, not a deep socket traceback under traffic.
"""

from __future__ import annotations

import subprocess
import sys

import pytest

from repro.serve.config import ServeConfig
from repro.serve.protocol import parse_address
from repro.shard import ShardContext
from repro.utils.errors import ValidationError


class TestTeardown:
    def test_close_is_idempotent(self):
        shard = ShardContext(workers=2, min_items=0, min_bytes=0)
        shard.run(_double, [1, 2, 3])
        shard.close()
        shard.close()
        shard.close()

    def test_del_after_close_is_silent(self):
        shard = ShardContext(workers=2)
        shard.close()
        shard.__del__()  # the GC path on an already-closed context
        shard.__del__()

    def test_del_without_close_closes(self):
        shard = ShardContext(workers=2, min_items=0, min_bytes=0)
        shard.run(_double, [1, 2, 3])
        shard.__del__()
        assert shard._closed

    def test_interpreter_exit_with_open_context_is_clean(self):
        # A live pool abandoned at interpreter exit (the daemon-owned
        # context case) must not print "Exception ignored in" garbage
        # or hang; the subprocess must exit 0 with empty stderr.
        script = (
            "import sys; sys.path.insert(0, 'src')\n"
            "from repro.shard import ShardContext\n"
            "from tests.test_shard_lifecycle import _double\n"
            "shard = ShardContext(workers=2, min_items=0, min_bytes=0)\n"
            "print(shard.run(_double, [1, 2, 3]))\n"
            "# no close(): teardown happens via GC at finalization\n"
        )
        result = subprocess.run(
            [sys.executable, "-c", script],
            capture_output=True, text=True, timeout=120,
            cwd=_repo_root(),
        )
        assert result.returncode == 0, result.stderr
        assert "[2, 4, 6]" in result.stdout
        assert "Exception ignored" not in result.stderr
        assert "Traceback" not in result.stderr


class TestValidation:
    @pytest.mark.parametrize("timeout", [0, -1, -0.5])
    def test_nonpositive_timeout_rejected(self, timeout):
        with pytest.raises(ValidationError, match="deadline"):
            ShardContext(workers=2, timeout=timeout)

    def test_negative_retries_rejected(self):
        with pytest.raises(ValidationError):
            ShardContext(workers=2, retries=-1)

    def test_negative_workers_rejected(self):
        with pytest.raises(ValidationError):
            ShardContext(workers=-1)

    @pytest.mark.parametrize("address", [
        "nonsense", ":8000", "host:", "host:abc", "host:-1",
        "host:65536", "host:99999",
    ])
    def test_parse_address_rejects_malformed(self, address):
        with pytest.raises(ValidationError) as excinfo:
            parse_address(address)
        assert address.partition(":")[0][:4] in str(excinfo.value) or (
            repr(address) in str(excinfo.value)
        )

    def test_parse_address_port_zero_gated(self):
        with pytest.raises(ValidationError):
            parse_address("host:0")
        assert parse_address("host:0", allow_port_zero=True) == ("host", 0)

    def test_parse_address_accepts_valid(self):
        assert parse_address("127.0.0.1:8000") == ("127.0.0.1", 8000)
        assert parse_address("[::1]:443") == ("[::1]", 443)

    def test_parse_address_names_the_caller(self):
        with pytest.raises(ValidationError, match="serve bind"):
            parse_address("oops", what="serve bind")

    @pytest.mark.parametrize("kwargs", [
        {"bind": "nonsense"},
        {"queue_depth": 0},
        {"max_inflight_mb": 0},
        {"workers": 0},
        {"batch_limit": 0},
        {"tenant_rate": -1.0},
        {"tenant_weights": {"a": 0.0}},
        {"default_deadline": 0},
        {"drain_grace": -1.0},
        {"max_dataset_mb": 0},
    ])
    def test_serve_config_rejects_malformed(self, kwargs):
        with pytest.raises(ValidationError):
            ServeConfig(**kwargs)


def _double(item, common):
    return item * 2


def _repo_root() -> str:
    import os

    return os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
