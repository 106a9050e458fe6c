"""Tests for the serve tier's frame protocol (DESIGN.md §13).

Framing, integrity and corruption detection of :func:`send_frame` /
:func:`recv_frame`, a hypothesis fuzz of truncated, bad-magic,
corrupted and oversized frames, and ``host:port`` parsing.
"""

from __future__ import annotations

import socket

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.serve.protocol import (
    DIGEST_SIZE,
    MAGIC,
    FrameCorrupted,
    FrameError,
    parse_address,
    recv_frame,
    send_frame,
)
from repro.utils.errors import ValidationError


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
