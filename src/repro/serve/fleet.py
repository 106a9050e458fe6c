"""Fleet management: spawn, watch, and respawn local serving daemons.

:class:`FleetManager` owns the serving *daemon* subprocesses of one
routing front tier — started lazily through
:func:`~repro.serve.daemon.spawn_daemon`'s ready-line handshake,
health-visible, respawned on death (at a **new** port; the companion
:class:`~repro.serve.router.Router` is handed the membership change and
its consistent-hash ring keeps every other daemon's cache placement
untouched).  Benchmarks and the chaos gate use it to stand up a
three-daemon fleet in a few lines and to SIGKILL members mid-traffic.

:func:`spawn_router` completes the picture: a router subprocess wired
to a fleet, with the same ready-line handshake the daemons use.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

from repro.serve.daemon import SpawnedProcess, spawn_daemon, spawn_server
from repro.utils.errors import ServeError, ValidationError


class FleetManager:
    """Owns ``size`` local daemon subprocesses (spawn / respawn / kill).

    Parameters
    ----------
    size:
        Number of daemons to keep running.
    argv_extra:
        Extra ``python -m repro.serve`` arguments applied to every
        daemon (queue depth, workers, deadlines, ...).
    respawn:
        Replace dead daemons on :meth:`ensure` (a respawned daemon
        binds a fresh port — callers watching :meth:`addresses` see the
        membership change and update their ring).
    capture_stderr:
        Capture daemon stderr (tests asserting on drain logs).
    """

    def __init__(
        self,
        size: int,
        argv_extra: Optional[Sequence[str]] = None,
        respawn: bool = True,
        capture_stderr: bool = False,
    ) -> None:
        if size < 1:
            raise ValidationError(
                f"a FleetManager needs size >= 1, got {size}"
            )
        self.size = int(size)
        self.argv_extra = list(argv_extra or [])
        self.respawn = bool(respawn)
        self.capture_stderr = bool(capture_stderr)
        self._daemons: List[SpawnedProcess] = []
        self._started = False

    # ------------------------------------------------------------------ #

    def ensure(self) -> None:
        """Bring the fleet up (idempotent); respawn dead members."""
        if not self._started:
            for _ in range(self.size):
                self._spawn_one()
            self._started = True
        elif self.respawn:
            for daemon in list(self._daemons):
                if not daemon.alive():
                    self._forget(daemon)
                    self._spawn_one()

    def _spawn_one(self) -> None:
        self._daemons.append(spawn_daemon(
            argv_extra=self.argv_extra,
            capture_stderr=self.capture_stderr,
        ))

    def _forget(self, daemon: SpawnedProcess) -> None:
        daemon.kill()
        self._daemons.remove(daemon)

    # ------------------------------------------------------------------ #

    def addresses(self) -> List[str]:
        """Current member addresses (ring node set), spawn order."""
        return [daemon.address for daemon in self._daemons]

    def daemon(self, address: str) -> SpawnedProcess:
        for daemon in self._daemons:
            if daemon.address == address:
                return daemon
        raise ValidationError(f"no fleet member at {address!r}")

    def alive(self) -> List[str]:
        return [
            daemon.address for daemon in self._daemons if daemon.alive()
        ]

    def kill_one(self, address: str) -> None:
        """SIGKILL one member without respawning it (chaos injection);
        the member stays listed (dead) until :meth:`ensure` runs with
        ``respawn`` on."""
        daemon = self.daemon(address)
        if daemon.alive():
            try:
                daemon.process.kill()
            except OSError:
                pass
        daemon.wait(timeout=5)

    def terminate_one(self, address: str) -> None:
        """SIGTERM one member (graceful drain; it announces draining
        through its health endpoint until in-flight work finishes)."""
        self.daemon(address).terminate()

    def kill_all(self) -> None:
        for daemon in list(self._daemons):
            self._forget(daemon)
        self._started = False

    def close(self) -> None:
        self.kill_all()

    def __enter__(self) -> "FleetManager":
        self.ensure()
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


def spawn_router(
    daemons: Sequence[str],
    argv_extra: Optional[Sequence[str]] = None,
    bind_host: str = "127.0.0.1",
    capture_stderr: bool = False,
) -> SpawnedProcess:
    """Start ``python -m repro.serve.router`` over ``daemons``; returns
    once it prints its ``REPRO-ROUTER-READY host port pid`` line."""
    return spawn_server(
        "repro.serve.router",
        [
            "--bind", f"{bind_host}:0", "--daemons", ",".join(daemons),
            *(argv_extra or []),
        ],
        "REPRO-ROUTER-READY",
        ServeError,
        capture_stderr=capture_stderr,
    )
