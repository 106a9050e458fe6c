"""Integration tests of the serving daemon (DESIGN.md §13).

Live daemons on loopback sockets: determinism (served results are
bit-identical to direct in-process computation, batched or not),
admission control under synthetic overload, deadline behaviour, tenant
quotas, connection-abandonment hygiene, and the graceful-lifecycle
contracts (SIGTERM drain + exit 0, busy-port double start, draining
refusals).  The ``worker_gate`` test hook freezes the executor threads
so queue states are constructed deterministically, not by racing.
"""

from __future__ import annotations

import dataclasses
import socket
import subprocess
import sys
import threading
import time

import numpy as np
import pytest

from repro.core.integration import INTEGRATION_METHODS
from repro.core.objective import SpectralObjective
from repro.core.pipeline import cluster_mvag, embed_mvag
from repro.core.sgla import SGLAConfig, prepare_laplacians
from repro.datasets.profiles import load_profile_mvag
from repro.serve import (
    DeadlineExceeded,
    ServeClient,
    ServeConfig,
    ServeDaemon,
    ServerDraining,
    ServerOverloaded,
    TenantQuotaExceeded,
)
from repro.serve.daemon import spawn_daemon
from repro.serve.fleet import FleetManager
from repro.serve.jobs import (
    CONFIG_KEYS,
    DatasetCache,
    cache_summary,
    job_config,
    payload_nbytes,
    run_cluster,
    run_embed,
    run_objective_group,
)
from repro.serve.protocol import send_frame
from repro.serve.ring import HashRing, route_key
from repro.serve.router import Router, RouterConfig
from repro.shard import ShardContext
from repro.solvers import SolverContext
from repro.utils.errors import ValidationError

PROFILE = "rm_small"
R = 11  # view count of rm_small


def simplex_weights(seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    raw = rng.random(R) + 0.05
    return raw / raw.sum()


@pytest.fixture()
def daemon():
    with ServeDaemon(ServeConfig(bind="127.0.0.1:0", workers=2)) as live:
        yield live


@pytest.fixture()
def client(daemon):
    with ServeClient(daemon.address) as live:
        yield live


def wait_for(predicate, timeout=5.0, interval=0.01) -> bool:
    limit = time.monotonic() + timeout
    while time.monotonic() < limit:
        if predicate():
            return True
        time.sleep(interval)
    return predicate()


# ---------------------------------------------------------------------- #
# Determinism: served == direct, batched == sequential
# ---------------------------------------------------------------------- #

class TestBitIdentity:
    def test_cluster_matches_direct_pipeline(self, client):
        reply = client.submit({"kind": "cluster", "profile": PROFILE})
        mvag = load_profile_mvag(PROFILE, seed=0)
        direct = cluster_mvag(mvag, config=SGLAConfig(), seed=0)
        np.testing.assert_array_equal(
            reply["result"]["labels"], direct.labels
        )
        assert reply["result"]["objective_value"] == (
            direct.integration.objective_value
        )

    def test_objective_matches_direct_cold_evaluation(self, client):
        weights = simplex_weights(1)
        reply = client.submit({
            "kind": "objective", "profile": PROFILE, "weights": weights,
        })
        mvag = load_profile_mvag(PROFILE, seed=0)
        laplacians, k = prepare_laplacians(mvag, None, SGLAConfig())
        objective = SpectralObjective(
            laplacians, k=k, cache=False,
            solver=SolverContext(warm_start=False),
        )
        assert reply["result"]["value"] == objective(weights)

    def test_batched_equals_sequential_bitwise(self):
        # The result cache would (correctly) answer the repeat phase
        # from memory; disable it so the batch path actually executes.
        config = ServeConfig(
            bind="127.0.0.1:0", workers=2, result_cache=False
        )
        with ServeDaemon(config) as daemon:
            self._check_batched_equals_sequential(daemon)

    def _check_batched_equals_sequential(self, daemon):
        # Sequential: one at a time (workers live, nothing to coalesce).
        points = [simplex_weights(seed) for seed in range(4)]
        with ServeClient(daemon.address) as client:
            sequential = [
                client.submit({
                    "kind": "objective", "profile": PROFILE, "weights": w,
                })["result"]["value"]
                for w in points
            ]
        # Batched: freeze the executors, stack all four compatible
        # requests, release — they run as one evaluate_batch group.
        assert daemon.hold_workers()
        replies = [None] * len(points)

        def submit(index: int) -> None:
            with ServeClient(daemon.address, tenant=f"t{index}") as c:
                replies[index] = c.submit({
                    "kind": "objective", "profile": PROFILE,
                    "weights": points[index],
                })

        threads = [
            threading.Thread(target=submit, args=(i,))
            for i in range(len(points))
        ]
        for thread in threads:
            thread.start()
        assert wait_for(lambda: daemon.queue.depth == len(points))
        daemon.worker_gate.set()
        for thread in threads:
            thread.join(timeout=30)
        assert max(reply["batched"] for reply in replies) > 1
        batched = [reply["result"]["value"] for reply in replies]
        assert batched == sequential  # bitwise, not approx

    def test_incompatible_objectives_not_batched(self, daemon):
        assert daemon.hold_workers()
        replies = {}

        def submit(gamma: float) -> None:
            with ServeClient(daemon.address) as c:
                replies[gamma] = c.submit({
                    "kind": "objective", "profile": PROFILE,
                    "weights": simplex_weights(0), "gamma": gamma,
                })

        threads = [
            threading.Thread(target=submit, args=(gamma,))
            for gamma in (0.25, 0.75)
        ]
        for thread in threads:
            thread.start()
        assert wait_for(lambda: daemon.queue.depth == 2)
        daemon.worker_gate.set()
        for thread in threads:
            thread.join(timeout=30)
        assert all(reply["batched"] == 1 for reply in replies.values())
        # Different gamma, genuinely different values.
        assert (
            replies[0.25]["result"]["value"]
            != replies[0.75]["result"]["value"]
        )


# ---------------------------------------------------------------------- #
# One prepared-dataset path: replies equal integrating the MVAG itself
# ---------------------------------------------------------------------- #

def _direct(pipeline, job, **params):
    """``pipeline`` on the job's freshly generated MVAG, called the way
    the runners called it when each request integrated the MVAG."""
    seed = job.get("seed", 0)
    return pipeline(
        load_profile_mvag(job["profile"], seed=seed),
        k=job.get("k"),
        method=job.get("method", "sgla+"),
        config=job_config(job),
        seed=seed,
        shard=None,
        **params,
    )


def _assert_same(served: dict, expected: dict) -> None:
    assert set(served) == set(expected) | {"elapsed_seconds"}
    for name, value in expected.items():
        if isinstance(value, np.ndarray):
            assert served[name].dtype == value.dtype, name
            np.testing.assert_array_equal(served[name], value)
        else:
            assert served[name] == value, name


class TestPreparedDatasetReplies:
    @pytest.mark.parametrize("overrides", [
        {}, {"knn_k": 7}, {"coarsen_levels": 1},
    ])
    @pytest.mark.parametrize("method", INTEGRATION_METHODS)
    def test_cluster_equals_mvag_pipeline(self, method, overrides):
        job = {
            "kind": "cluster", "profile": PROFILE, "method": method,
            "config": overrides,
        }
        direct = _direct(cluster_mvag, job, assign="discretize")
        _assert_same(run_cluster(job, DatasetCache(), None), {
            "labels": direct.labels,
            "weights": direct.integration.weights,
            "method": direct.integration.method,
            "objective_value": direct.integration.objective_value,
        })

    @pytest.mark.parametrize("method", INTEGRATION_METHODS)
    def test_embed_equals_mvag_pipeline(self, method):
        job = {
            "kind": "embed", "profile": PROFILE, "method": method,
            "k": 3, "dim": 16,
        }
        direct = _direct(embed_mvag, job, dim=16, backend="auto")
        _assert_same(run_embed(job, DatasetCache(), None), {
            "embedding": direct.embedding,
            "backend": direct.backend,
            "weights": direct.integration.weights,
            "objective_value": direct.integration.objective_value,
        })

    def test_laplacian_list_needs_k_and_refuses_graph_agg(self):
        laplacians, _ = DatasetCache().laplacians(PROFILE, 0, SGLAConfig())
        with pytest.raises(ValidationError, match="k must be given"):
            cluster_mvag(laplacians)
        with pytest.raises(ValidationError, match="graph-agg"):
            cluster_mvag(laplacians, k=2, method="graph-agg")


# ---------------------------------------------------------------------- #
# Malformed job fields: a validation reply, nothing admitted
# ---------------------------------------------------------------------- #

UNIFORM = np.full(R, 1.0 / R)

MALFORMED_JOBS = [
    {"kind": "cluster", "profile": PROFILE, "config": ["t_max"]},
    {"kind": "cluster", "profile": PROFILE, "config": "t_max=3"},
    {"kind": "embed", "profile": PROFILE, "config": ["t_max"]},
    {"kind": "objective", "profile": PROFILE, "weights": UNIFORM,
     "config": "t_max=3"},
    {"kind": "cluster", "profile": [PROFILE]},
    {"kind": "objective", "profile": PROFILE, "weights": "abc"},
    {"kind": "objective", "profile": PROFILE, "weights": UNIFORM,
     "gamma": "x"},
    {"kind": "cluster", "profile": PROFILE, "k": "3"},
    {"kind": "cluster", "profile": PROFILE, "seed": [1]},
    {"kind": "embed", "profile": PROFILE, "seed": None},
    {"kind": "objective", "profile": PROFILE, "weights": UNIFORM, "k": "3"},
    {"kind": "embed", "profile": PROFILE, "backend": "bogus"},
    {"kind": "embed", "profile": PROFILE, "backend": ["netmf"]},
    {"kind": "embed", "profile": PROFILE, "dim": 0},
    {"kind": "embed", "profile": PROFILE, "dim": "64"},
]


class TestJobFieldValidation:
    def test_malformed_fields_are_refused_before_admission(self, client):
        for job in MALFORMED_JOBS:
            with pytest.raises(ValidationError):
                client.submit(job)
        totals = client.health()["stats"]["totals"]
        assert (totals["admitted"], totals["failed"]) == (0, 0)
        reply = client.submit({"kind": "cluster", "profile": PROFILE})
        assert reply["ok"]
        assert client.health()["stats"]["totals"]["completed"] == 1

    def test_router_passes_validation_back_without_failover(self, daemon):
        config = RouterConfig(daemons=(daemon.address,), replication=1)
        with Router(config) as router:
            with pytest.raises(ValidationError, match="config"):
                router.submit(MALFORMED_JOBS[0])
            assert router.stats.snapshot()["failovers"] == 0


# ---------------------------------------------------------------------- #
# Overload, deadlines, quotas
# ---------------------------------------------------------------------- #

class TestOverload:
    def test_queue_full_sheds_fast_with_structured_error(self):
        config = ServeConfig(bind="127.0.0.1:0", workers=1, queue_depth=2)
        with ServeDaemon(config) as daemon:
            assert daemon.hold_workers()  # nothing dequeues
            fillers = [ServeClient(daemon.address) for _ in range(2)]
            threads = []
            try:
                for filler in fillers:
                    thread = threading.Thread(
                        target=lambda c=filler: c.submit({
                            "kind": "cluster", "profile": PROFILE,
                        }),
                        daemon=True,
                    )
                    thread.start()
                    threads.append(thread)
                assert wait_for(lambda: daemon.queue.depth == 2)
                with ServeClient(daemon.address) as extra:
                    started = time.monotonic()
                    with pytest.raises(ServerOverloaded) as excinfo:
                        extra.submit({
                            "kind": "cluster", "profile": PROFILE,
                        })
                    elapsed = time.monotonic() - started
                assert elapsed < 1.0  # shed, not queued-then-timed-out
                assert excinfo.value.fields["capacity"] == 2
            finally:
                daemon.worker_gate.set()
                for thread in threads:
                    thread.join(timeout=30)
                for filler in fillers:
                    filler.close()

    def test_health_answers_inline_under_overload(self):
        config = ServeConfig(bind="127.0.0.1:0", workers=1, queue_depth=1)
        with ServeDaemon(config) as daemon:
            assert daemon.hold_workers()
            filler = ServeClient(daemon.address)
            thread = threading.Thread(
                target=lambda: filler.submit({
                    "kind": "cluster", "profile": PROFILE,
                }),
                daemon=True,
            )
            thread.start()
            try:
                assert wait_for(lambda: daemon.queue.depth == 1)
                with ServeClient(daemon.address) as monitor:
                    health = monitor.health(timeout=2.0)
                assert health["queue_depth"] == 1
                assert health["stats"]["totals"]["admitted"] == 1
            finally:
                daemon.worker_gate.set()
                thread.join(timeout=30)
                filler.close()

    def test_deadline_expires_while_queued(self):
        config = ServeConfig(bind="127.0.0.1:0", workers=1)
        with ServeDaemon(config) as daemon:
            assert daemon.hold_workers()
            with ServeClient(daemon.address) as client:
                started = time.monotonic()
                with pytest.raises(DeadlineExceeded) as excinfo:
                    client.submit(
                        {"kind": "cluster", "profile": PROFILE},
                        deadline=0.3,
                    )
                elapsed = time.monotonic() - started
            # Replied at the deadline (plus a wait slice), not a hang.
            assert 0.2 < elapsed < 2.0
            assert excinfo.value.fields["stage"] == "queued"
            assert daemon.stats.total("deadline_expired") == 1
            daemon.worker_gate.set()

    def test_default_deadline_applied_when_request_has_none(self):
        config = ServeConfig(
            bind="127.0.0.1:0", workers=1, default_deadline=0.3
        )
        with ServeDaemon(config) as daemon:
            assert daemon.hold_workers()
            with ServeClient(daemon.address, timeout=10.0) as client:
                with pytest.raises(DeadlineExceeded):
                    client.submit({"kind": "cluster", "profile": PROFILE})
            daemon.worker_gate.set()

    def test_tenant_quota_sheds_noisy_tenant_only(self):
        config = ServeConfig(
            bind="127.0.0.1:0", workers=2,
            tenant_rate=0.001, tenant_burst=2.0,
        )
        with ServeDaemon(config) as daemon:
            with ServeClient(daemon.address, tenant="noisy") as noisy:
                noisy.submit({"kind": "cluster", "profile": PROFILE})
                noisy.submit({"kind": "cluster", "profile": PROFILE})
                with pytest.raises(TenantQuotaExceeded):
                    noisy.submit({"kind": "cluster", "profile": PROFILE})
            with ServeClient(daemon.address, tenant="quiet") as quiet:
                reply = quiet.submit({
                    "kind": "cluster", "profile": PROFILE,
                })
            assert reply["ok"]
            snap = daemon.stats.snapshot()
            assert snap["tenants"]["noisy"]["rejected_quota"] == 1
            assert snap["tenants"]["quiet"]["rejected_quota"] == 0


# ---------------------------------------------------------------------- #
# Connection hygiene
# ---------------------------------------------------------------------- #

class TestAbandonment:
    def test_hundred_abandoned_requests_leak_nothing(self):
        config = ServeConfig(
            bind="127.0.0.1:0", workers=1, queue_depth=256
        )
        with ServeDaemon(config) as daemon:
            assert daemon.hold_workers()  # requests stay queued
            host, port = daemon.address.rsplit(":", 1)
            for index in range(100):
                sock = socket.create_connection((host, int(port)), 5.0)
                send_frame(sock, {
                    "op": "submit", "tenant": f"t{index % 7}",
                    "deadline": None,
                    "job": {"kind": "cluster", "profile": PROFILE},
                })
                sock.close()  # abandon without reading the reply
            # Every request is cancelled and every slot and byte comes
            # back.  Wait for all three together: depth and bytes are
            # already zero before the daemon has read a single frame.
            assert wait_for(
                lambda: daemon.stats.total("cancelled") == 100
                and daemon.queue.depth == 0
                and daemon.queue.inflight_bytes == 0,
                timeout=20.0,
            ), (
                daemon.stats.total("cancelled"),
                daemon.queue.depth,
                daemon.queue.inflight_bytes,
            )
            daemon.worker_gate.set()
            # The daemon still serves after the churn.
            with ServeClient(daemon.address) as client:
                assert client.submit(
                    {"kind": "cluster", "profile": PROFILE}
                )["ok"]

    def test_bad_frames_drop_only_their_connection(
        self, daemon, monkeypatch
    ):
        # Bad magic and a header declaring 2^40 body bytes each close
        # their own connection at once: no body is buffered, no
        # exception escapes the connection thread, and the daemon
        # keeps answering.
        import struct

        from repro.serve.protocol import DIGEST_SIZE, MAGIC

        escaped = []
        monkeypatch.setattr(threading, "excepthook", escaped.append)
        host, port = daemon.address.rsplit(":", 1)
        for frame in (
            b"XXXX" + b"\x00" * (8 + DIGEST_SIZE),
            MAGIC + struct.pack(">Q", 2**40) + b"\x00" * DIGEST_SIZE,
        ):
            with socket.create_connection((host, int(port)), 5.0) as sock:
                sock.sendall(frame)
                assert sock.recv(1) == b""  # the daemon hung up
        with ServeClient(daemon.address) as client:
            assert client.ping()
        assert escaped == []

    def test_malformed_request_gets_structured_error(self, client):
        from repro.serve.protocol import reply_to_error

        reply = client.request({"op": "nonsense"})
        assert reply["ok"] is False
        assert isinstance(reply_to_error(reply), ValidationError)
        with pytest.raises(ValidationError):
            client.submit({"kind": "alchemy", "profile": PROFILE})


class TestJobConfig:
    def test_override_keys_are_config_fields(self):
        """An allowed override that SGLAConfig does not know would reach
        the client as an internal error instead of a validation reply."""
        fields = {field.name for field in dataclasses.fields(SGLAConfig)}
        assert set(CONFIG_KEYS) <= fields

    def test_unknown_override_is_a_validation_error(self):
        for key in ("n_samples", "no_such_knob"):
            with pytest.raises(ValidationError, match=key):
                job_config({"config": {key: 1}})
        assert job_config({"config": {"t_max": 7}}).t_max == 7

    def test_unknown_eigen_backend_fails_before_caching(self):
        """An eigen backend the registry does not know is refused while
        the job's config is built, before any dataset is loaded or
        cached."""
        cache = DatasetCache()
        for name in ("lobpcg", "batch", "nope"):
            job = {
                "kind": "objective",
                "profile": PROFILE,
                "weights": [0.5, 0.5],
                "config": {"eigen_backend": name},
            }
            with pytest.raises(ValidationError, match="lanczos"):
                run_objective_group([job], cache, None)
        snapshot = cache.snapshot()
        assert snapshot["misses"] == 0
        assert snapshot["entries"] == 0


# ---------------------------------------------------------------------- #
# Lifecycle
# ---------------------------------------------------------------------- #

class TestLifecycle:
    def test_draining_daemon_refuses_new_work(self, daemon):
        with ServeClient(daemon.address) as client:
            client.drain()
            with pytest.raises(ServerDraining):
                client.submit({"kind": "cluster", "profile": PROFILE})

    def test_sigterm_drains_and_exits_zero(self):
        spawned = spawn_daemon(["--workers", "2"], capture_stderr=True)
        outcomes = []

        def pound(index: int) -> None:
            try:
                with ServeClient(spawned.address, tenant=f"t{index}") as c:
                    for _ in range(3):
                        reply = c.submit({
                            "kind": "objective", "profile": PROFILE,
                            "weights": simplex_weights(index),
                        })
                        outcomes.append(("ok", reply["result"]["value"]))
            except (ServerDraining, ConnectionError, OSError) as error:
                outcomes.append(("refused", type(error).__name__))

        try:
            threads = [
                threading.Thread(target=pound, args=(i,)) for i in range(4)
            ]
            for thread in threads:
                thread.start()
            time.sleep(0.2)  # let traffic get in flight
            spawned.terminate()  # SIGTERM mid-stream
            for thread in threads:
                thread.join(timeout=30)
            code = spawned.wait(timeout=30)
            stderr = spawned.process.stderr.read()
        finally:
            spawned.kill()
        assert code == 0, stderr
        # Every request either completed (drained) or was cleanly
        # refused — no hangs, no dirty deaths.
        assert outcomes
        assert any(kind == "ok" for kind, _ in outcomes)
        assert "serve:" in stderr  # final stats line on stderr

    def test_double_start_on_busy_port_fails_cleanly(self, daemon):
        result = subprocess.run(
            [sys.executable, "-m", "repro.serve",
             "--bind", daemon.address],
            capture_output=True, text=True, timeout=60,
        )
        assert result.returncode == 2
        assert result.stderr.startswith("error:")
        assert "Traceback" not in result.stderr

    def test_malformed_bind_fails_cleanly(self):
        result = subprocess.run(
            [sys.executable, "-m", "repro.serve", "--bind", "nonsense"],
            capture_output=True, text=True, timeout=60,
        )
        assert result.returncode == 2
        assert result.stderr.startswith("error:")
        assert "Traceback" not in result.stderr

    def test_failing_shard_factory_fails_start(self):
        # Executor shard contexts are built before anything listens, so
        # a bad shard setting cannot leave a daemon that answers ping
        # while its executors are dead.
        daemon = ServeDaemon(
            ServeConfig(bind="127.0.0.1:0", workers=2),
            shard_factory=lambda: ShardContext(workers=-1),
        )
        try:
            with pytest.raises(ValidationError, match="workers"):
                daemon.start()
            assert daemon.address is None  # never bound
            assert not daemon._workers
        finally:
            daemon.stop(drain=False)

    @pytest.mark.parametrize("flags", [
        ["--shard-workers", "-1"],
        ["--shard-workers", "2", "--faults", "{bad"],
    ])
    def test_bad_shard_flags_fail_before_ready(self, flags):
        result = subprocess.run(
            [sys.executable, "-m", "repro.serve",
             "--bind", "127.0.0.1:0", *flags],
            capture_output=True, text=True, timeout=60,
        )
        assert result.returncode == 2
        assert "REPRO-SERVE-READY" not in result.stdout
        lines = result.stderr.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error:"), (
            result.stderr
        )

    def test_shard_backend_flag_removed(self):
        result = subprocess.run(
            [sys.executable, "-m", "repro.serve",
             "--bind", "127.0.0.1:0", "--shard-backend", "process"],
            capture_output=True, text=True, timeout=60,
        )
        assert result.returncode == 2
        assert "unrecognized arguments: --shard-backend" in result.stderr

    @pytest.mark.parametrize(
        "flag", ["--shard-min-items", "--shard-min-bytes"]
    )
    def test_shard_threshold_flags_removed(self, flag):
        # The serial-fallback thresholds are ShardContext parameters.
        result = subprocess.run(
            [sys.executable, "-m", "repro.serve",
             "--bind", "127.0.0.1:0", flag, "0"],
            capture_output=True, text=True, timeout=60,
        )
        assert result.returncode == 2
        assert f"unrecognized arguments: {flag}" in result.stderr

    def test_max_datasets_flag_removed(self):
        # The dataset cache is bounded by --max-dataset-mb alone.
        result = subprocess.run(
            [sys.executable, "-m", "repro.serve",
             "--bind", "127.0.0.1:0", "--max-datasets", "8"],
            capture_output=True, text=True, timeout=60,
        )
        assert result.returncode == 2
        assert "unrecognized arguments: --max-datasets" in result.stderr


# ---------------------------------------------------------------------- #
# CLI: serve-stats renders from the health endpoint
# ---------------------------------------------------------------------- #

class TestServeStatsCLI:
    def test_stats_line_from_live_daemon(self, daemon):
        with ServeClient(daemon.address, tenant="cli-test") as client:
            client.submit({
                "kind": "objective", "profile": PROFILE,
                "weights": simplex_weights(0),
            })
        result = subprocess.run(
            [sys.executable, "-m", "repro.cli", "serve-stats",
             daemon.address, "--tenants"],
            capture_output=True, text=True, timeout=60,
        )
        assert result.returncode == 0, result.stderr
        assert result.stdout.startswith("serve: ")
        assert "1 completed" in result.stdout
        assert "queue: " in result.stdout
        assert "tenant cli-test:" in result.stdout

    def test_unreachable_daemon_fails_cleanly(self):
        # A port nothing listens on: reserve one, close it, query it.
        probe = socket.socket()
        probe.bind(("127.0.0.1", 0))
        port = probe.getsockname()[1]
        probe.close()
        result = subprocess.run(
            [sys.executable, "-m", "repro.cli", "serve-stats",
             f"127.0.0.1:{port}", "--timeout", "5"],
            capture_output=True, text=True, timeout=60,
        )
        assert result.returncode == 2
        assert result.stderr.startswith("error:")
        assert "Traceback" not in result.stderr


# ---------------------------------------------------------------------- #
# Dataset cache: byte-budgeted LRU (DESIGN.md §14)
# ---------------------------------------------------------------------- #

class TestDatasetCacheBudget:
    def test_payload_nbytes_walks_arrays_and_sparse(self):
        dense = np.zeros((100, 100))
        other = np.ones((50, 50))
        assert payload_nbytes(dense) == dense.nbytes
        assert payload_nbytes([dense, other]) == (
            dense.nbytes + other.nbytes
        )
        # the same object reached twice is accounted once, not twice
        assert payload_nbytes([dense, dense]) == dense.nbytes
        assert payload_nbytes({"a": dense}) == dense.nbytes
        assert payload_nbytes(b"12345") == 5
        assert payload_nbytes("not counted") == 0
        import scipy.sparse as sp

        csr = sp.random(50, 50, density=0.1, format="csr")
        expected = csr.data.nbytes + csr.indices.nbytes + csr.indptr.nbytes
        assert payload_nbytes(csr) == expected
        # cycles terminate
        loop = {"self": None}
        loop["self"] = loop
        assert payload_nbytes(loop) == 0

    def test_byte_budget_evicts_lru(self):
        config = SGLAConfig()
        probe = DatasetCache()
        probe.laplacians(PROFILE, 0, config)
        one_dataset = probe.snapshot()["bytes"]
        assert one_dataset > 0
        cache = DatasetCache(max_bytes=int(one_dataset * 1.5))
        cache.laplacians(PROFILE, 0, config)
        cache.laplacians(PROFILE, 1, config)  # over budget: seed 0 evicted
        snap = cache.snapshot()
        assert snap["evictions"] == 1
        assert snap["entries"] == 1
        assert snap["bytes"] <= snap["max_bytes"]
        cache.laplacians(PROFILE, 1, config)  # survivor still resident
        assert cache.snapshot()["hits"] == 1

    def test_single_over_budget_entry_caches_alone(self):
        config = SGLAConfig()
        cache = DatasetCache(max_bytes=1)
        cache.laplacians(PROFILE, 0, config)  # never evicts the entry served
        snap = cache.snapshot()
        assert snap["entries"] == 1
        assert snap["evictions"] == 0
        cache.laplacians(PROFILE, 1, config)  # next insert displaces it
        snap = cache.snapshot()
        assert snap["entries"] == 1
        assert snap["evictions"] == 1

    def test_hit_restamps_recency(self):
        config = SGLAConfig()
        probe = DatasetCache()
        probe.laplacians(PROFILE, 0, config)
        one_dataset = probe.snapshot()["bytes"]
        cache = DatasetCache(max_bytes=int(one_dataset * 2.5))
        cache.laplacians(PROFILE, 0, config)
        cache.laplacians(PROFILE, 1, config)
        cache.laplacians(PROFILE, 0, config)  # refresh: seed 1 is the LRU
        cache.laplacians(PROFILE, 2, config)  # evicts seed 1, not seed 0
        assert cache.snapshot()["evictions"] == 1
        hits_before = cache.snapshot()["hits"]
        cache.laplacians(PROFILE, 0, config)
        assert cache.snapshot()["hits"] == hits_before + 1

    def test_laplacian_counters_not_double_counted(self):
        # One outcome per lookup: an objective job and then a cluster
        # job on one dataset read the same entry, so they record one
        # miss and then one hit, whatever else their configs override.
        cache = DatasetCache()
        run_objective_group([{
            "kind": "objective", "profile": PROFILE,
            "weights": simplex_weights(0), "config": {"t_max": 7},
        }], cache, None)
        snap = cache.snapshot()
        assert (snap["hits"], snap["misses"]) == (0, 1)
        run_cluster({"kind": "cluster", "profile": PROFILE}, cache, None)
        snap = cache.snapshot()
        assert (snap["hits"], snap["misses"], snap["entries"]) == (1, 1, 1)

    def test_knn_settings_key_the_entry(self):
        cache = DatasetCache()
        cache.laplacians(PROFILE, 0, SGLAConfig())
        cache.laplacians(PROFILE, 0, SGLAConfig(knn_k=7))
        cache.laplacians(PROFILE, 0, SGLAConfig(t_max=7, gamma=0.3))
        snap = cache.snapshot()
        assert (snap["hits"], snap["misses"], snap["entries"]) == (1, 2, 2)

    def test_health_and_cli_surface_cache_counters(self, daemon):
        with ServeClient(daemon.address) as client:
            # Distinct weight vectors: different result-cache keys (so
            # both execute), same Laplacian key (so the second is a
            # dataset-cache hit).
            for seed in range(2):
                client.submit({
                    "kind": "objective", "profile": PROFILE,
                    "weights": simplex_weights(seed),
                })
            cache = client.health()["cache"]
        assert cache["misses"] >= 1
        assert cache["hits"] >= 1
        assert cache["entries"] >= 1
        assert cache["bytes"] > 0
        assert "cache" in cache_summary(cache)
        result = subprocess.run(
            [sys.executable, "-m", "repro.cli", "serve-stats",
             daemon.address],
            capture_output=True, text=True, timeout=60,
        )
        assert result.returncode == 0, result.stderr
        assert "cache" in result.stdout
        assert "evictions" in result.stdout


# ---------------------------------------------------------------------- #
# Dataset cache: per-key build latches (no lock held across builds)
# ---------------------------------------------------------------------- #

class TestDatasetCacheConcurrency:
    @staticmethod
    def stub_build(monkeypatch, load):
        """Route the cache's builds through ``load(profile, seed)``: its
        return value stands in for the MVAG, prepared as-is with 3
        classes."""
        monkeypatch.setattr("repro.serve.jobs.load_profile_mvag", load)
        monkeypatch.setattr(
            "repro.serve.jobs.prepare_laplacians",
            lambda mvag, k, config, shard=None: (mvag, 3),
        )

    def test_cold_build_does_not_block_unrelated_hits(self, monkeypatch):
        # Regression: the cache lock was held across an entire profile
        # build, so a cold load on one key blocked *hits* on already-
        # cached keys for the build's full duration.  With per-key
        # latches, only same-key requests wait.
        started = threading.Event()
        release = threading.Event()

        def slow_load(profile, seed=0):
            if seed == 99:
                started.set()
                assert release.wait(30), "builder was never released"
            return [np.zeros(8)]

        self.stub_build(monkeypatch, slow_load)
        config = SGLAConfig()
        cache = DatasetCache()
        cache.laplacians(PROFILE, 0, config)  # warm one key

        builder = threading.Thread(
            target=cache.laplacians, args=(PROFILE, 99, config)
        )
        builder.start()
        try:
            assert started.wait(10)
            assert cache.snapshot()["building"] == 1
            # A hit on the warm key must complete while the build is
            # still in flight.
            got = {}
            reader = threading.Thread(
                target=lambda: got.setdefault(
                    "value", cache.laplacians(PROFILE, 0, config)
                )
            )
            reader.start()
            reader.join(timeout=5)
            assert not reader.is_alive(), (
                "hit on an unrelated key blocked behind a cold build"
            )
            assert got["value"] is not None
        finally:
            release.set()
            builder.join(timeout=30)
        assert cache.snapshot()["building"] == 0

    def test_same_key_concurrent_requests_build_once(self, monkeypatch):
        calls = []
        gate = threading.Event()

        def counted_load(profile, seed=0):
            calls.append((profile, seed))
            assert gate.wait(30)
            return [np.zeros(8)]

        self.stub_build(monkeypatch, counted_load)
        config = SGLAConfig()
        cache = DatasetCache()
        values = [None] * 4

        def fetch(index):
            values[index] = cache.laplacians("fake", 7, config)

        threads = [
            threading.Thread(target=fetch, args=(i,)) for i in range(4)
        ]
        for thread in threads:
            thread.start()
        assert wait_for(lambda: len(calls) >= 1)
        time.sleep(0.05)  # give the other three time to reach the latch
        gate.set()
        for thread in threads:
            thread.join(timeout=30)
        assert calls == [("fake", 7)]  # exactly one build
        assert all(value is values[0] for value in values)
        snap = cache.snapshot()
        # One miss (the owner); the three waiters found the value after
        # the latch and count as hits.
        assert snap["misses"] == 1
        assert snap["hits"] == 3

    def test_failed_build_releases_the_latch(self, monkeypatch):
        attempts = []

        def flaky_load(profile, seed=0):
            attempts.append(seed)
            if len(attempts) == 1:
                raise RuntimeError("dataset store hiccup")
            return [np.zeros(8)]

        self.stub_build(monkeypatch, flaky_load)
        config = SGLAConfig()
        cache = DatasetCache()
        with pytest.raises(RuntimeError):
            cache.laplacians("fake", 1, config)
        assert cache.snapshot()["building"] == 0  # latch cleaned up
        assert cache.laplacians("fake", 1, config) is not None  # retry
        assert len(attempts) == 2


# ---------------------------------------------------------------------- #
# Drain under live router traffic (the front-tier contract)
# ---------------------------------------------------------------------- #

class TestDrainUnderRouterTraffic:
    def test_sigterm_drain_while_router_sending(self):
        job = {
            "kind": "objective", "profile": PROFILE, "k": 2,
            "weights": np.full(R, 1.0 / R),
        }
        with FleetManager(3, argv_extra=["--workers", "1"]) as fleet:
            addrs = fleet.addresses()
            primary = HashRing(addrs).lookup(route_key(job))[0]
            config = RouterConfig(
                daemons=tuple(addrs), replication=2, health_interval=0.1
            )
            with Router(config) as router:
                first = router.submit(dict(job))
                assert first["routed_to"] == primary
                expected = first["result"]["value"]
                stop = threading.Event()
                replies, errors = [], []

                def pound():
                    while not stop.is_set():
                        try:
                            replies.append(router.submit(dict(job)))
                        except Exception as error:  # noqa: BLE001
                            errors.append(error)

                threads = [
                    threading.Thread(target=pound) for _ in range(2)
                ]
                for thread in threads:
                    thread.start()
                try:
                    time.sleep(0.3)  # traffic in flight at the primary
                    fleet.terminate_one(primary)  # SIGTERM: drain
                    # the health flag takes it out of rotation
                    assert wait_for(
                        lambda: router.health[primary].draining
                        or not router.health[primary].alive,
                        timeout=10.0,
                    )
                    # the daemon finishes in-flight work and exits clean
                    assert fleet.daemon(primary).wait(timeout=30) == 0
                    time.sleep(0.3)  # traffic continues on survivors
                finally:
                    stop.set()
                    for thread in threads:
                        thread.join(timeout=30)
                # zero lost: every admitted request completed, and
                # completed bit-identically
                assert not errors, errors[:3]
                assert replies
                assert all(
                    r["result"]["value"] == expected for r in replies
                )
                # traffic really did move off the drained daemon
                tail = [r["routed_to"] for r in replies[-5:]]
                assert primary not in tail
