"""Remote shard worker host: ``python -m repro.shard.worker --bind H:P``.

One worker = one process serving shard requests over the framed TCP
protocol of :mod:`repro.shard.remote`, one connection at a time (the
parent keeps a persistent connection per worker; concurrency comes from
running many workers, matching the one-process-one-task model of the
pool backend).  On startup the worker binds — port ``0`` asks the kernel
for a free port — and announces ``SHARD-WORKER-READY host port pid`` on
stdout, which is the spawn handshake :func:`repro.shard.remote.
spawn_worker` blocks on.

Operations: ``hello`` / ``ping`` (registration + heartbeat, reply
carries pid and the task counter), ``run`` (execute a shard via the same
:func:`~repro.shard.base.run_shard_items` every other backend uses),
``shutdown``.

Fault semantics (the worker-side half of :mod:`repro.shard.faults` —
these make injected faults *real* at the transport layer, so the parent
exercises its genuine recovery paths): ``crash`` -> ``os._exit(1)``
mid-request (the parent sees a dead socket), ``drop`` -> the reply is
swallowed (the parent's deadline fires), ``corrupt`` -> the reply frame
is sent with a deliberately damaged body (the parent's integrity check
catches it).  ``hang`` / ``slow`` simply sleep inside the task.

``--max-tasks N`` makes the worker self-recycle: after ``N`` tasks it
flags ``recycling`` on its final (successful) reply and exits cleanly —
the fleet replaces it transparently.
"""

from __future__ import annotations

import argparse
import os
import pickle
import socket
import sys
from typing import Optional

from repro.shard.base import run_shard_items
from repro.shard.faults import FaultInjected
from repro.shard.remote import (
    DEFAULT_AUTHKEY,
    FrameError,
    recv_frame,
    resolve_authkey,
    send_frame,
)
from repro.utils.errors import ReproError, ShardError


class _Recycle(Exception):
    """Internal: unwind the serve loops for a clean self-recycle exit."""


def _reply_error(conn: socket.socket, authkey: bytes,
                 error: BaseException) -> None:
    """Report a task exception; fall back to repr if it won't pickle."""
    try:
        payload = pickle.dumps(error, protocol=pickle.HIGHEST_PROTOCOL)
        send_frame(conn, {"ok": False, "error": payload}, authkey)
    except Exception:
        send_frame(
            conn,
            {"ok": False, "error": None, "repr": repr(error)},
            authkey,
        )


def _serve_connection(
    conn: socket.socket,
    authkey: bytes,
    max_tasks: int,
    state: dict,
) -> None:
    while True:
        try:
            message = recv_frame(conn, authkey)
        except (ConnectionError, OSError):
            return  # parent went away; await the next connection
        except FrameError:
            return  # stranger or damaged request: drop the connection
        except Exception as error:
            # The frame was authentic but its body would not unpickle
            # (e.g. the task's module is not importable here).  Report
            # instead of dying: this is a caller problem, not ours.
            _reply_error(conn, authkey, ShardError(
                f"worker could not decode request: "
                f"{type(error).__name__}: {error}"
            ))
            continue
        if not isinstance(message, dict):
            return
        op = message.get("op")
        if op in ("hello", "ping"):
            send_frame(conn, {
                "ok": True,
                "pid": os.getpid(),
                "tasks_done": state["tasks_done"],
            }, authkey)
        elif op == "run":
            corrupt_reply = False
            try:
                results = run_shard_items(
                    message["func"], message["items"],
                    message.get("common"),
                )
            except FaultInjected as fault:
                if fault.kind == "crash":
                    os._exit(1)
                if fault.kind == "drop":
                    # Swallow the reply: the parent's deadline fires.
                    continue
                # "corrupt": the task computed, then flagged in-flight
                # damage — send real results in a frame whose integrity
                # check must fail on the parent.
                corrupt_reply = True
                results = []
            except BaseException as error:
                _reply_error(conn, authkey, error)
                continue
            state["tasks_done"] += len(message["items"])
            recycling = bool(
                max_tasks and state["tasks_done"] >= max_tasks
            )
            send_frame(conn, {
                "ok": True,
                "results": results,
                "tasks_done": state["tasks_done"],
                "recycling": recycling,
            }, authkey, corrupt=corrupt_reply)
            if recycling:
                raise _Recycle
        elif op == "shutdown":
            send_frame(conn, {"ok": True}, authkey)
            raise SystemExit(0)
        else:
            send_frame(
                conn, {"ok": False, "repr": f"unknown op {op!r}"}, authkey
            )


def serve(bind: str, max_tasks: int = 0,
          authkey: bytes = DEFAULT_AUTHKEY) -> None:
    from repro.shard.remote import parse_address

    host, port = parse_address(
        bind, allow_port_zero=True, what="worker bind"
    )
    listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
    listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
    listener.bind((host, port))
    listener.listen(4)
    actual_host, actual_port = listener.getsockname()[:2]
    print(f"SHARD-WORKER-READY {actual_host} {actual_port} {os.getpid()}",
          flush=True)
    state = {"tasks_done": 0}
    try:
        while True:
            conn, _addr = listener.accept()
            conn.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            try:
                _serve_connection(conn, authkey, max_tasks, state)
            except _Recycle:
                return  # clean self-recycle: the fleet respawns us
            except Exception:
                pass  # per-connection failure: drop it, keep serving
            finally:
                try:
                    conn.close()
                except Exception:
                    pass
    finally:
        listener.close()


def main(argv: Optional[list] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.shard.worker",
        description="Remote shard worker host (framed TCP, stdlib only).",
    )
    parser.add_argument(
        "--bind", required=True, metavar="HOST:PORT",
        help="address to listen on; port 0 picks a free port",
    )
    parser.add_argument(
        "--max-tasks", type=int, default=0, metavar="N",
        help="self-recycle after N tasks (0 = never)",
    )
    parser.add_argument(
        "--authkey", default=None,
        help="shared frame-integrity key (default: REPRO_SHARD_AUTHKEY "
             "env var, else the built-in development key)",
    )
    args = parser.parse_args(argv)
    try:
        serve(
            args.bind,
            max_tasks=args.max_tasks,
            authkey=resolve_authkey(args.authkey),
        )
    except ReproError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    except OSError as error:
        print(f"error: cannot bind {args.bind}: {error}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
