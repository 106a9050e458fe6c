"""Tests for the distributed ``remote`` shard backend (DESIGN.md §11).

Covers the wire protocol (framing, integrity, corruption detection),
spawned-fleet lifecycle (registration, self-recycling restart
transparency, respawn-on-death), dispatch correctness vs the serial
reference, and the acceptance scenario: every remote worker killed
mid-run degrades down the ladder and the run still completes with
correct results.
"""

from __future__ import annotations

import socket
import warnings

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.shard import (
    FaultPlan,
    ShardContext,
    ShardDegradation,
    ShardError,
    WorkerFleet,
)
from repro.shard.remote import (
    DIGEST_SIZE,
    MAGIC,
    FrameCorrupted,
    FrameError,
    parse_address,
    recv_frame,
    send_frame,
)
from repro.utils.errors import ValidationError


def _square(item, common):
    return item * item + (common or {}).get("offset", 0)


def _boom(item, common):
    raise ValueError("task bug in the worker")


def _remote(**overrides) -> ShardContext:
    params = dict(
        workers=2, backend="remote", min_items=0, min_bytes=0,
        timeout=30.0,
    )
    params.update(overrides)
    return ShardContext(**params)


# --------------------------------------------------------------------- #
# Wire protocol
# --------------------------------------------------------------------- #


class TestWireProtocol:
    def _pair(self):
        a, b = socket.socketpair()
        a.settimeout(5.0)
        b.settimeout(5.0)
        return a, b

    def test_roundtrip(self):
        a, b = self._pair()
        try:
            payload = {"op": "run", "items": list(range(100))}
            send_frame(a, payload)
            assert recv_frame(b) == payload
        finally:
            a.close()
            b.close()

    def test_corrupted_frame_is_detected(self):
        a, b = self._pair()
        try:
            send_frame(a, {"ok": True, "results": [1, 2, 3]}, corrupt=True)
            with pytest.raises(FrameCorrupted):
                recv_frame(b)
        finally:
            a.close()
            b.close()

    def test_wrong_authkey_fails_integrity(self):
        a, b = self._pair()
        try:
            send_frame(a, {"op": "ping"}, authkey=b"key-one")
            with pytest.raises(FrameCorrupted):
                recv_frame(b, authkey=b"key-two")
        finally:
            a.close()
            b.close()

    def test_bad_magic_rejected(self):
        a, b = self._pair()
        try:
            a.sendall(b"XXXX" + b"\x00" * 24)
            with pytest.raises(FrameError, match="magic"):
                recv_frame(b)
        finally:
            a.close()
            b.close()

    @settings(max_examples=50, deadline=None)
    @given(
        message=st.recursive(
            st.none() | st.booleans() | st.integers() | st.text(max_size=12),
            lambda inner: st.lists(inner, max_size=4)
            | st.dictionaries(st.text(max_size=6), inner, max_size=4),
            max_leaves=12,
        ),
        cut=st.floats(min_value=0.0, max_value=1.0, exclude_max=True),
        magic=st.binary(min_size=4, max_size=4).filter(
            lambda value: value != MAGIC
        ),
        flip=st.tuples(
            st.floats(min_value=0.0, max_value=1.0, exclude_max=True),
            st.integers(min_value=1, max_value=255),
        ),
        short=st.integers(min_value=1, max_value=64),
    )
    def test_fuzzed_frames_raise_typed_errors(
        self, message, cut, magic, flip, short
    ):
        """Truncated, bad-magic, corrupted and oversized frames each
        raise their own typed error; an oversized header is refused
        before any body byte is read."""

        class Capture:
            data = b""

            def sendall(self, data):
                self.data += data

        capture = Capture()
        send_frame(capture, message)
        frame = capture.data
        header, body = frame[: 12 + DIGEST_SIZE], frame[12 + DIGEST_SIZE :]

        def received(data, close=False, **kwargs):
            a, b = self._pair()
            try:
                a.sendall(data)
                if close:
                    a.shutdown(socket.SHUT_WR)
                try:
                    return recv_frame(b, **kwargs), b""
                except Exception as error:
                    b.setblocking(False)
                    try:
                        left = b.recv(len(data) + 1)
                    except BlockingIOError:
                        left = b""
                    return error, left
            finally:
                a.close()
                b.close()

        value, _ = received(frame, max_bytes=len(body))
        assert value == message

        error, _ = received(frame[: int(cut * len(frame))], close=True)
        assert isinstance(error, ConnectionError)

        error, _ = received(magic + frame[4:])
        assert type(error) is FrameError and "magic" in str(error)

        damaged = bytearray(frame)
        damaged[len(header) + int(flip[0] * len(body))] ^= flip[1]
        error, _ = received(bytes(damaged))
        assert isinstance(error, FrameCorrupted)

        limit = max(len(body) - short, 0)
        error, left = received(frame, max_bytes=limit)
        assert type(error) is FrameError and "limit" in str(error)
        assert left == body  # not one body byte was consumed

    def test_parse_address(self):
        assert parse_address("10.0.0.5:9100") == ("10.0.0.5", 9100)
        with pytest.raises(ValidationError, match="host:port"):
            parse_address("9100")
        with pytest.raises(ValidationError, match="port"):
            parse_address("host:abc")


class TestFleetValidation:
    def test_needs_addresses_or_spawn(self):
        with pytest.raises(ValidationError, match="addresses or a spawn"):
            WorkerFleet()

    def test_bad_external_address_fails_fast(self):
        fleet = WorkerFleet(addresses=["nonsense"])
        with pytest.raises(ValidationError, match="host:port"):
            fleet.ensure()


# --------------------------------------------------------------------- #
# Spawned-fleet dispatch (one shared fleet per class: spawn is ~1s/worker)
# --------------------------------------------------------------------- #


@pytest.fixture(scope="module")
def remote_ctx():
    with _remote(workers=2) as ctx:
        yield ctx


class TestRemoteDispatch:
    def test_results_match_serial_reference(self, remote_ctx):
        items = list(range(17))
        expected = [_square(item, {"offset": 3}) for item in items]
        assert remote_ctx.run(
            _square, items, common={"offset": 3}
        ) == expected

    def test_workers_register_with_pids(self, remote_ctx):
        fleet = remote_ctx.remote_fleet()
        fleet.ensure()
        ids = fleet.worker_ids()
        assert len(ids) == 2
        for worker_id in ids:
            client = fleet.client(worker_id)
            client.connect()
            assert isinstance(client.pid, int)
            assert client.ping()

    def test_payloads_travel_inline_not_shm(self, remote_ctx):
        import numpy as np

        spec = remote_ctx.share(np.ones((4, 4)))
        assert spec.array is not None
        assert spec.shm_name is None
        assert remote_ctx.stats.segments == 0

    def test_task_bug_propagates_with_original_text(self, remote_ctx):
        with pytest.raises(ShardError, match="task bug in the worker"):
            remote_ctx.run(_boom, [1, 2, 3, 4])
        # The fleet survives a task bug: workers were healthy.
        assert remote_ctx.run(_square, [5]) == [25]


class TestRestartTransparency:
    def test_max_tasks_recycles_workers_transparently(self):
        # workers=2 keeps the context active (dispatching); the fleet
        # itself is a single worker so every shard lands on it.
        with _remote(
            workers=2, remote_workers=1, remote_max_tasks=3
        ) as ctx:
            fleet = ctx.remote_fleet()
            fleet.ensure()
            first_id = fleet.worker_ids()[0]
            client = fleet.client(first_id)
            client.connect()
            first_pid = client.pid
            # Three dispatches x 2 tasks: the worker crosses max_tasks
            # on the second and self-recycles; the third must land on
            # its transparent replacement with correct results.
            for round_index in range(3):
                items = [round_index * 10, round_index * 10 + 1]
                assert ctx.run(_square, items) == [
                    item * item for item in items
                ]
            fleet.ensure()
            ids = fleet.worker_ids()
            assert len(ids) == 1
            replacement = fleet.client(ids[0])
            replacement.connect()
            assert replacement.pid != first_pid
            assert ctx.stats.failures == 0
            assert ctx.stats.degradations == 0


class TestKilledFleet:
    def test_killing_all_workers_mid_run_lands_on_serial(self):
        # Acceptance scenario: after a healthy remote dispatch, every
        # worker is killed with respawn disabled.  The next dispatch
        # must walk the whole ladder — remote exhausted (dead fleet),
        # process rung faulted by the then-armed plan — and complete on
        # serial with correct results and loud warnings.
        with _remote(
            workers=2,
            remote_respawn=False,
            retries=0,
            timeout=10.0,
            quarantine_cooldown=600.0,
        ) as ctx:
            items = list(range(6))
            assert ctx.run(_square, items) == [i * i for i in items]
            ctx.remote_fleet().kill_all()
            # Arm faults for the process rung only now, so the healthy
            # dispatch above ran clean: items reach the process rung
            # with one failed attempt behind them (< 2), crash there,
            # and run clean on serial (attempt 2).
            ctx.director.fault_plan = FaultPlan(
                seed=0, crash_rate=1.0, max_faulted_attempts=2
            )
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                result = ctx.run(_square, items)
            assert result == [i * i for i in items]
            messages = [
                str(w.message) for w in caught
                if w.category is ShardDegradation
            ]
            assert len(messages) == 2
            assert "degrading to 'process'" in messages[0]
            assert "degrading to 'serial'" in messages[1]
            assert ctx.director.effective_backend("remote") == "serial"
            assert ctx.stats.degradations == 2
            assert ctx.stats.failures == 0  # the run completed

    def test_dead_spawned_worker_is_respawned(self):
        with _remote(workers=2, remote_workers=1) as ctx:
            assert ctx.run(_square, [1, 2]) == [1, 4]
            fleet = ctx.remote_fleet()
            old_id = fleet.worker_ids()[0]
            fleet.kill_all()
            # The next dispatch sees the dead socket, marks the worker
            # dead, and the retry runs on a freshly spawned worker.
            assert ctx.run(_square, [3, 4]) == [9, 16]
            assert ctx.stats.degradations == 0
            new_ids = fleet.worker_ids()
            assert len(new_ids) == 1
            assert new_ids != [old_id] or fleet.client(
                new_ids[0]
            ).ping()
