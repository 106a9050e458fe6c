"""Benchmark child process: runs one workload, prints one JSON line.

``run.py`` starts this file with the BLAS thread count pinned and the
program's ``src`` on ``PYTHONPATH``.  In-process workloads print
``READY`` once their inputs exist, so the parent can time set-up
(``--setup-only`` stops there: the parent's set-up probes).  Every
workload then runs its jobs for the measured window, checks the
outputs, and prints a JSON object with every metric it measured as the
last line of its standard output.
"""

from __future__ import annotations

import argparse
import ctypes
import itertools
import json
import resource
import statistics
import sys
import threading
import time
import traceback
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from checks import (  # noqa: E402
    check_embedding,
    check_labels,
    check_request_counts,
    check_weights,
    identical,
    percentile,
)
from tracer import LAYER_TIMES, Tracer  # noqa: E402

#: in-process inputs: a dataset recipe (``n=None`` keeps the profile's
#: own node count) and how many seeded datasets one run cycles through.
IN_PROCESS = {
    "cluster-sgla": {
        "full": {"profile": "mag_phy_small", "n": 700, "datasets": 48},
        "smoke": {"profile": "dblp_small", "n": None, "datasets": 2},
    },
    "embed-sgla-plus": {
        "full": {"profile": "amazon_photos", "n": 1500, "datasets": 8},
        "smoke": {"profile": "amazon_photos_small", "n": None, "datasets": 2},
    },
}
EMBED_DIM = 64

#: serve-routed: fleet set-ups per run (the median is ``setup_s``) and
#: client threads.  Each thread replays blocks of :data:`BLOCK` requests
#: in seeded order; every block holds the same mix, so the composition
#: of a run does not depend on its seed or on where the window ends.
#: One share comes from measured traffic: in a 300-request sizing mix of
#: these job kinds, 115 requests (38%) were result-cache hits.  No
#: traffic record gives the others; they are synthetic, for the reasons
#: noted beside them.
SERVE_SETUPS = {"full": 4, "smoke": 2}
SERVE_CLIENTS = 2
BLOCK = (
    ("repeat", 10),  # 10/26 = 38%: exact repeats, the sizing mix's hits
    ("objective:dblp_small", 8),  # cheapest kind, batched: most new work
    ("objective:mag_eng_small", 2),  # n=1200: the iterative Lanczos path
    ("cluster", 4),  # sgla+/sgla over three profiles, random gamma
    ("embed", 1),  # the costliest kind per request
    ("fresh", 1),  # a never-seen dataset seed: builds and evictions
)
#: dataset seeds shared by a run's requests (fresh ones come on top):
#: several, so that the run's quality means do not hinge on one graph.
DATA_SEEDS = 6
KINDS = ("objective", "cluster", "embed")
CLUSTER_PROFILES = ("dblp_small", "yelp_small", "amazon_photos_small")
CLUSTER_METHODS = ("sgla+", "sgla")
EMBED_PROFILE = "amazon_photos_small"
REPLAY_FROM = 30  # replay candidates: each thread's first requests
REPLAY_SAMPLE = 5

#: exact per-job counters of the traced in-process layer table.
COUNTERS = (
    "neighbors.builds",
    "neighbors.candidate_fraction",
    "fastpath.combines",
    "solvers.solves",
    "solvers.matvecs",
    "solvers.matvecs_per_solve",
    "solvers.warm_fraction",
    "solvers.saved",
    "core.objective_evals",
)

#: serve-tier layer metrics; a workload that never enters the serving
#: tier reports them as 0.
SERVE_LAYER = (
    "serve.queue_wait_p50_ms",
    "serve.queue_wait_p90_ms",
    "serve.result_hit_ratio",
    "serve.dataset_hit_ratio",
    "serve.dataset_evictions",
    "serve.batch_mean",
    "serve.objective_p50_ms",
    "serve.cluster_p50_ms",
    "serve.embed_p50_ms",
    "serve.integration_p50_ms",
    "serve.shed",
    "serve.deadline_exceeded",
    "router.dispatch_p50_ms",
    "router.hop_p50_ms",
    "router.failovers",
    "client.retries",
)


def median(values) -> float:
    values = list(values)
    return float(statistics.median(values)) if values else 0.0


def mean(values) -> float:
    values = list(values)
    return float(statistics.fmean(values)) if values else 0.0


# ---------------------------------------------------------------------- #
# Run envelope: library versions and the BLAS actually loaded
# ---------------------------------------------------------------------- #


def blas_report() -> list:
    """OpenBLAS builds mapped into this process, with their thread counts."""
    import scipy.linalg  # noqa: F401  (maps scipy's own BLAS)

    found = []
    with open("/proc/self/maps") as maps:
        paths = sorted({
            line.split()[-1] for line in maps
            if "openblas" in line.lower() and ".so" in line
        })
    for path in paths:
        library = ctypes.CDLL(path)
        entry = {"library": Path(path).name}
        for suffix in ("64_", ""):
            threads = getattr(library, f"scipy_openblas_get_num_threads{suffix}", None)
            config = getattr(library, f"scipy_openblas_get_config{suffix}", None)
            if threads is not None and config is not None:
                threads.restype = ctypes.c_int
                config.restype = ctypes.c_char_p
                entry["threads"] = threads()
                entry["config"] = config().decode()
                break
        found.append(entry)
    return found


def versions() -> dict:
    import platform

    import scipy

    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas_report(),
    }


# ---------------------------------------------------------------------- #
# In-process workloads: cluster-sgla, embed-sgla-plus
# ---------------------------------------------------------------------- #


def make_mvag(profile: str, n, seed: int):
    """A profile's MVAG, optionally regenerated at ``n`` nodes."""
    from repro.datasets.generator import generate_mvag
    from repro.datasets.profiles import dataset_profile, load_profile_mvag

    if n is None:
        return load_profile_mvag(profile, seed=seed)
    recipe = dataset_profile(profile)
    return generate_mvag(
        n_nodes=n,
        n_clusters=recipe.k,
        graph_view_strengths=recipe.graph_views,
        attribute_view_dims=recipe.attribute_views,
        balance=recipe.balance,
        seed=seed,
        name=f"{profile}@{n}",
    )


def run_pipeline(workload: str, mvag) -> dict:
    """One job, called the way the CLI calls the pipeline."""
    from repro.core.pipeline import cluster_mvag, embed_mvag
    from repro.core.sgla import SGLAConfig
    from repro.neighbors import NeighborStats

    config = SGLAConfig()
    if workload == "cluster-sgla":
        output = cluster_mvag(
            mvag, method="sgla", config=config,
            solver=config.make_solver(), neighbor_stats=NeighborStats(),
        )
        return {"labels": output.labels, "weights": output.integration.weights}
    output = embed_mvag(
        mvag, dim=EMBED_DIM, method="sgla+", config=config,
        backend="sketchne", solver=config.make_solver(),
        neighbor_stats=NeighborStats(),
    )
    return {"embedding": output.embedding, "weights": output.integration.weights}


def output_problems(workload: str, mvag, output: dict) -> list:
    problems = check_weights(output["weights"], mvag.n_views)
    if workload == "cluster-sgla":
        return problems + check_labels(output["labels"], mvag.n_nodes, mvag.n_classes)
    return problems + check_embedding(output["embedding"], mvag.n_nodes, EMBED_DIM)


def quality(workload: str, recipe: dict, datasets: list, outputs: dict) -> dict:
    """NMI and macro-F1 of each dataset's first output (untimed)."""
    from repro.cluster.kmeans import kmeans
    from repro.datasets.profiles import dataset_profile
    from repro.evaluation.classification import evaluate_embedding
    from repro.evaluation.clustering_metrics import (
        macro_f1,
        normalized_mutual_information,
    )

    nmis, f1s = [], []
    for index, output in sorted(outputs.items()):
        mvag = datasets[index]
        if workload == "cluster-sgla":
            predicted = output["labels"]
            f1s.append(macro_f1(mvag.labels, predicted))
        else:
            embedding = output["embedding"]
            predicted = kmeans(embedding, mvag.n_classes, seed=0).labels
            f1s.append(evaluate_embedding(
                embedding, mvag.labels,
                train_fraction=dataset_profile(recipe["profile"]).train_fraction,
                seed=0,
            )["macro_f1"])
        nmis.append(normalized_mutual_information(mvag.labels, predicted))
    return {"nmi": nmis, "macro_f1": f1s}


def in_process(args, size: str) -> dict:
    recipe = IN_PROCESS[args.workload][size]
    seeds = [args.seed * 100 + j for j in range(recipe["datasets"])]
    datasets, generate_s = [], []
    for seed in seeds:
        started = time.perf_counter()
        datasets.append(make_mvag(recipe["profile"], recipe["n"], seed))
        generate_s.append(time.perf_counter() - started)
    print("READY", flush=True)
    if args.setup_only:
        return {}

    # Untraced: job i runs dataset i mod m, at least one full cycle plus
    # a repeat.  Traced: jobs alternate untraced/traced on each dataset,
    # so the pair gives the tracing overhead and a bit-identity check.
    tracer = Tracer() if args.trace else None
    count = len(datasets)
    min_jobs = 2 if args.trace else count + 1
    walls = {False: [], True: []}
    outputs: dict = {}
    attempted = failed = 0
    problems: list = []
    started = time.perf_counter()
    job = 0
    while job < min_jobs or time.perf_counter() - started < args.seconds:
        index = (job // 2 if args.trace else job) % count
        traced = bool(args.trace and job % 2)
        mvag = datasets[index]
        attempted += 1
        begin = time.perf_counter()
        try:
            if traced:
                output = tracer.run_job(job, run_pipeline, args.workload, mvag)
            else:
                output = run_pipeline(args.workload, mvag)
        except Exception as error:
            failed += 1
            problems.append(f"job {job}: {type(error).__name__}: {error}")
            traceback.print_exc()
            job += 1
            continue
        wall = time.perf_counter() - begin
        found = output_problems(args.workload, mvag, output)
        if index in outputs and not identical(outputs[index], output):
            found.append(f"job {job}: dataset {index} output differs from its first run")
        if found:
            failed += 1
            problems.extend(found)
        else:
            walls[traced].append(wall)
            outputs.setdefault(index, output)
        job += 1
    window = time.perf_counter() - started

    result = {
        "attempted": attempted,
        "failed": failed,
        "problems": problems,
        "samples": {
            "generate_s": generate_s,
            "job_s": walls[False],
            "traced_job_s": walls[True],
        },
        "inputs": {"recipe": recipe, "dataset_seeds": seeds},
    }
    walls_ok = walls[False]
    metrics = {
        "job_s": median(walls_ok),
        "qps": (len(walls_ok) + len(walls[True])) / window,
        "latency_p50_ms": median(walls_ok) * 1e3,
        "latency_p90_ms": percentile(walls_ok, 90) * 1e3,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "success_rate": 1.0 - failed / attempted,
    }
    scores = quality(args.workload, recipe, datasets, outputs)
    result["samples"].update(scores)
    metrics.update({name: median(values) for name, values in scores.items()})
    if tracer is not None:
        layer, tables = layer_metrics(tracer, walls)
        layer["datasets.generate_s"] = mean(generate_s)
        metrics.update(layer)
        metrics.update(dict.fromkeys(SERVE_LAYER, 0.0))
        result["layer_tables"] = tables
        result["problems"].extend(additivity_problems(tables))
        tracer.dump(Path(args.out) / "spans.json")
    result["metrics"] = metrics
    return result


def layer_metrics(tracer: Tracer, walls: dict):
    """Mean per-layer self times over the traced jobs, the exact
    counters of the first traced job, and the tracing overhead."""
    tables = [table for _, table in sorted(tracer.job_tables().items())]
    layer = {name: mean(table[name] for table in tables) for name in LAYER_TIMES}
    if tables:
        layer.update({name: tables[0][name] for name in COUNTERS})
    else:
        layer.update(dict.fromkeys(COUNTERS, 0.0))
    untraced = median(walls[False])
    layer["trace.overhead_pct"] = (
        (median(walls[True]) / untraced - 1.0) * 100.0 if untraced else 0.0
    )
    return layer, tables


def additivity_problems(tables: list) -> list:
    """Self times plus the unattributed time must equal each job's wall."""
    problems = []
    for table in tables:
        total = sum(table[name] for name in LAYER_TIMES)
        if abs(total - table["wall_s"]) > 1e-6 * max(1.0, table["wall_s"]):
            problems.append(
                f"layer self times sum to {total}, job wall is {table['wall_s']}"
            )
    return problems


def print_layer_table(workload: str, metrics: dict, tables: list) -> None:
    """The trace report: mean self time per traced job, its share of the
    job wall, the exact counters, and the tracing overhead."""
    wall = mean(table["wall_s"] for table in tables)
    print(f"trace report: {workload}, {len(tables)} traced job(s), "
          f"mean job wall {wall:.4f}s")
    print(f"  {'layer':<28}{'self_s':>12}{'share':>9}")
    for name in LAYER_TIMES:
        own = mean(table[name] for table in tables)
        share = own / wall * 100.0 if wall else 0.0
        print(f"  {name:<28}{own:>12.4f}{share:>8.1f}%")
    print(f"  {'trace.overhead_pct':<28}{metrics['trace.overhead_pct']:>12.2f}")
    print(f"  datasets.generate_s, per generation: "
          f"{metrics['datasets.generate_s']:.4f}")
    print("  counters (first traced job): " + ", ".join(
        f"{name}={metrics[name]:g}" for name in COUNTERS
    ))


# ---------------------------------------------------------------------- #
# serve-routed: closed loop through spawn_router -> one spawn_daemon
# ---------------------------------------------------------------------- #


def request_stream(seed: int, thread: int):
    """This thread's endless, seeded request sequence: ``(job, repeat)``."""
    from repro.datasets.profiles import dataset_profile

    rng = np.random.default_rng([seed, thread])
    base = seed * 1000
    fresh = itertools.count(base + 100 + 400 * thread)
    history: list = []
    pairs = itertools.cycle(
        [(p, m) for p in CLUSTER_PROFILES for m in CLUSTER_METHODS]
    )

    def objective(profile, data_seed):
        weights = rng.dirichlet(np.ones(dataset_profile(profile).r))
        return {"kind": "objective", "profile": profile, "seed": data_seed,
                "weights": weights.tolist()}

    def integration(kind, profile, method, data_seed):
        return {"kind": kind, "profile": profile, "seed": data_seed,
                "method": method,
                "config": {"gamma": round(float(rng.uniform(0.2, 1.0)), 3)}}

    while True:
        slots = [name for name, count in BLOCK for _ in range(count)]
        order = rng.permutation(len(slots))
        # Repeats need history: the first block puts them last.
        if not history:
            order = sorted(order, key=lambda i: slots[i] == "repeat")
        for slot in (slots[i] for i in order):
            data_seed = base + int(rng.integers(DATA_SEEDS))
            if slot == "repeat":
                yield history[int(rng.integers(len(history)))], True
                continue
            if slot.startswith("objective:"):
                job = objective(slot.split(":")[1], data_seed)
            elif slot == "cluster":
                job = integration("cluster", *next(pairs), data_seed)
            elif slot == "embed":
                job = integration("embed", EMBED_PROFILE, "sgla+", data_seed)
            elif rng.random() < 0.5:
                job = objective("dblp_small", next(fresh))
            else:
                job = integration("cluster", "dblp_small", "sgla+", next(fresh))
            history.append(job)
            yield job, False


def start_fleet():
    """One daemon at its default config behind one router; returns once
    the router's health op answers with the daemon alive."""
    from repro.serve import ServeClient, spawn_daemon, spawn_router

    daemon = spawn_daemon()
    try:
        router = spawn_router([daemon.address])
    except BaseException:
        daemon.kill()
        raise
    deadline = time.monotonic() + 60.0
    with ServeClient(router.address, timeout=10.0) as client:
        while True:
            try:
                health = client.health()
                if health["daemons"][daemon.address]["alive"]:
                    return daemon, router
            except (OSError, KeyError):
                pass
            if time.monotonic() > deadline:
                stop_fleet((daemon, router))
                raise RuntimeError("router never reported the daemon alive")
            time.sleep(0.02)


def stop_fleet(fleet) -> None:
    """SIGTERM (graceful drain) each process, wait, kill as a fallback."""
    for process in reversed(fleet):
        process.terminate()
        if process.wait(timeout=30.0) is None:
            print(f"{process.address} did not drain; killing it",
                  file=sys.stderr, flush=True)
        process.kill()


def drive(address: str, seed: int, thread: int, stop_at: float, records: list) -> None:
    """Closed loop: the next request leaves when the previous reply is in."""
    from repro.serve import ServeClient

    client = ServeClient(address, tenant=f"client-{thread}", timeout=120.0)
    try:
        drive_loop(client, seed, thread, stop_at, records)
    except Exception:  # a crashed driver must fail the run, not vanish
        records.append({"thread": thread, "crash": traceback.format_exc()})
    finally:
        records.append({"thread": thread, "retries": client.retried})
        client.close()


def drive_loop(client, seed: int, thread: int, stop_at: float, records: list) -> None:
    for position, (job, repeat) in enumerate(request_stream(seed, thread)):
        if time.perf_counter() >= stop_at:
            break
        begin = time.perf_counter()
        try:
            reply = client.submit(job)
            error = None
        except Exception as caught:  # counted, never silent
            reply, error = None, f"{type(caught).__name__}: {caught}"
        records.append({
            "thread": thread, "position": position, "job": job,
            "repeat": repeat, "latency": time.perf_counter() - begin,
            "reply": reply, "error": error,
        })


def replay(records: list, seed: int, tracer) -> tuple:
    """Re-run a seeded sample of replies in-process; bit-identity check.

    Candidates are the new (non-repeat) requests among each thread's
    first :data:`REPLAY_FROM`, which every full-size run completes, so
    the sample depends on the seed only.  Jobs go through the very
    functions the daemon runs, each on a fresh dataset cache.
    """
    from repro.serve.jobs import DatasetCache, run_cluster, run_embed, run_objective_group

    runners = {
        "objective": lambda job: run_objective_group([job], DatasetCache(), None)[0],
        "cluster": lambda job: run_cluster(job, DatasetCache(), None),
        "embed": lambda job: run_embed(job, DatasetCache(), None),
    }
    candidates = sorted(
        (
            record for record in records
            if "job" in record and not record["repeat"]
            and record["position"] < REPLAY_FROM and record["error"] is None
        ),
        key=lambda record: (record["thread"], record["position"]),
    )
    # One request of each kind first, then a seeded fill-up.
    rng = np.random.default_rng([seed, 7])
    shuffled = rng.permutation(len(candidates)).tolist()
    chosen = []
    for kind in KINDS:
        chosen += [i for i in shuffled if candidates[i]["job"]["kind"] == kind][:1]
    chosen += [i for i in shuffled if i not in chosen]
    chosen = sorted(chosen[:REPLAY_SAMPLE])
    problems, walls = [], {False: [], True: []}
    for number in chosen:
        record = candidates[number]
        job = record["job"]
        runner = runners[job["kind"]]
        passes = [False, True] if tracer is not None else [False]
        for traced in passes:
            begin = time.perf_counter()
            if traced:
                result = tracer.run_job(number, runner, job)
            else:
                result = runner(job)
            walls[traced].append(time.perf_counter() - begin)
            if not identical(result, record["reply"]["result"]):
                problems.append(
                    f"reply of thread {record['thread']} request "
                    f"{record['position']} ({job['kind']}) differs from "
                    f"its in-process replay"
                )
    return problems, walls, len(chosen)


def serve_quality(records: list) -> dict:
    """NMI of each distinct cluster reply and macro-F1 of each distinct
    embed reply against the planted classes (untimed)."""
    from repro.datasets.profiles import dataset_profile, load_profile_mvag
    from repro.evaluation.classification import evaluate_embedding
    from repro.evaluation.clustering_metrics import normalized_mutual_information

    labels: dict = {}

    def planted(job):
        key = (job["profile"], job["seed"])
        if key not in labels:
            labels[key] = load_profile_mvag(job["profile"], seed=job["seed"]).labels
        return labels[key]

    nmis, f1s, seen = [], [], set()
    for record in records:
        job = record.get("job")
        if job is None or record["error"] is not None or job["kind"] == "objective":
            continue
        key = json.dumps(job, sort_keys=True)
        if key in seen:
            continue
        seen.add(key)
        result = record["reply"]["result"]
        if job["kind"] == "cluster":
            nmis.append(normalized_mutual_information(planted(job), result["labels"]))
        else:
            f1s.append(evaluate_embedding(
                result["embedding"], planted(job),
                train_fraction=dataset_profile(job["profile"]).train_fraction,
                seed=0,
            )["macro_f1"])
    return {"nmi": nmis, "macro_f1": f1s}


def reply_problems(record: dict) -> list:
    """Shape checks on one served reply."""
    from repro.datasets.profiles import dataset_profile

    job, result = record["job"], record["reply"]["result"]
    profile = dataset_profile(job["profile"])
    if job["kind"] == "objective":
        values = np.asarray(result["eigenvalues"])
        if not (np.all(np.isfinite(values)) and np.isfinite(result["value"])):
            return ["objective reply is not finite"]
        return []
    problems = check_weights(result["weights"], profile.r)
    if job["kind"] == "cluster":
        return problems + check_labels(result["labels"], profile.n, profile.k)
    return problems + check_embedding(
        result["embedding"], profile.n, job.get("dim", EMBED_DIM)
    )


def serve_routed(args, size: str) -> dict:
    from repro.serve import ServeClient

    setups, fleet = [], None
    try:
        for attempt in range(SERVE_SETUPS[size]):
            begin = time.perf_counter()
            pair = start_fleet()
            setups.append(time.perf_counter() - begin)
            if attempt + 1 < SERVE_SETUPS[size]:
                stop_fleet(pair)
            else:
                fleet = pair
        daemon, router = fleet

        records: list = []
        started = time.perf_counter()
        threads = [
            threading.Thread(
                target=drive,
                args=(router.address, args.seed, thread,
                      started + args.seconds, records),
            )
            for thread in range(SERVE_CLIENTS)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        window = time.perf_counter() - started

        with ServeClient(router.address, timeout=30.0) as client:
            route = client.health()["route_stats"]
        with ServeClient(daemon.address, timeout=30.0) as client:
            health = client.health()
    finally:
        if fleet is not None:
            stop_fleet(fleet)

    retries = sum(record.get("retries", 0) for record in records)
    requests = [record for record in records if "job" in record]
    ok = [record for record in requests if record["error"] is None]
    problems = [
        f"thread {record['thread']} request {record['position']}: {record['error']}"
        for record in requests if record["error"] is not None
    ]
    failed = len(requests) - len(ok)
    problems.extend(
        f"client thread {record['thread']} crashed:\n{record['crash']}"
        for record in records if "crash" in record
    )
    for record in ok:
        found = reply_problems(record)
        if found:
            failed += 1
            problems.extend(found)
    totals = health["stats"]["totals"]
    problems.extend(check_request_counts(len(requests), route, totals))

    tracer = Tracer() if args.trace else None
    replayed, replay_walls, sampled = replay(ok, args.seed, tracer)
    problems.extend(replayed)
    failed += len(replayed)

    latencies = [record["latency"] for record in ok]
    by_kind = {
        kind: [r["latency"] for r in ok if r["job"]["kind"] == kind]
        for kind in KINDS
    }
    replies = [record["reply"] for record in ok]
    computed = [reply for reply in replies if not reply.get("cached")]
    cache, results = health["cache"], health["results"]
    client_p50_ms = median(latencies) * 1e3
    metrics = {
        "job_s": median(latencies),
        "qps": len(ok) / window,
        "latency_p50_ms": client_p50_ms,
        "latency_p90_ms": percentile(latencies, 90) * 1e3,
        "peak_rss_mb": float(cache["peak_rss_mb"]),
        "success_rate": 1.0 - failed / max(1, len(requests)),
        "serve.queue_wait_p50_ms": percentile(
            (reply["queue_wait"] for reply in replies), 50) * 1e3,
        "serve.queue_wait_p90_ms": percentile(
            (reply["queue_wait"] for reply in replies), 90) * 1e3,
        "serve.result_hit_ratio": results["hits"] / max(1, results["hits"] + results["misses"]),
        "serve.dataset_hit_ratio": cache["hits"] / max(1, cache["hits"] + cache["misses"]),
        "serve.dataset_evictions": cache["evictions"],
        "serve.batch_mean": mean(reply["batched"] for reply in computed),
        "serve.objective_p50_ms": median(by_kind["objective"]) * 1e3,
        "serve.cluster_p50_ms": median(by_kind["cluster"]) * 1e3,
        "serve.embed_p50_ms": median(by_kind["embed"]) * 1e3,
        "serve.integration_p50_ms": median(
            reply["result"]["elapsed_seconds"] for reply in computed
            if "elapsed_seconds" in reply["result"]
        ) * 1e3,
        "serve.shed": totals["rejected_overload"] + totals["rejected_quota"]
        + totals["rejected_draining"],
        "serve.deadline_exceeded": totals["deadline_expired"],
        "router.dispatch_p50_ms": route["dispatch_p50_ms"],
        "router.hop_p50_ms": client_p50_ms - route["dispatch_p50_ms"],
        "router.failovers": route["failovers"],
        "client.retries": retries,
    }
    # Means, not medians: the replies mix profiles of different quality
    # in fixed shares, and a median would jump between them.
    scores = serve_quality(ok)
    metrics.update({name: mean(values) for name, values in scores.items()})
    hits = len(replies) - len(computed)
    print(f"serve-routed: {len(requests)} requests, {hits} result-cache hits "
          f"({hits / max(1, len(replies)):.1%}), {metrics['qps']:.2f} qps, "
          f"latency p50 {client_p50_ms:.1f} ms, "
          f"p90 {metrics['latency_p90_ms']:.1f} ms", flush=True)
    result = {
        "attempted": len(requests),
        "failed": failed,
        "problems": problems,
        "samples": {
            "setup_s": setups,
            "latency_s": latencies,
            "replay_s": replay_walls[False],
            "traced_replay_s": replay_walls[True],
            **scores,
        },
        "inputs": {"replayed": sampled, "requests": len(requests),
                   "result_hits": hits},
        "serve": {"route_stats": route, "daemon": health},
    }
    metrics["setup_s"] = median(setups)
    if tracer is not None:
        layer, tables = layer_metrics(tracer, replay_walls)
        generations = [
            end - start for name, start, end, _, _ in tracer.spans
            if name == "datasets.generate"
        ]
        layer["datasets.generate_s"] = mean(generations)
        metrics.update(layer)
        result["layer_tables"] = tables
        result["problems"].extend(additivity_problems(tables))
        tracer.dump(Path(args.out) / "spans.json")
    result["metrics"] = metrics
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(IN_PROCESS) + ["serve-routed"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--out", default=str(HERE / "out"))
    args = parser.parse_args(argv)
    size = "smoke" if args.smoke else "full"
    if args.workload == "serve-routed":
        result = serve_routed(args, size)
    else:
        result = in_process(args, size)
    if args.setup_only:
        return 0
    if args.trace:
        print_layer_table(args.workload, result["metrics"], result["layer_tables"])
    result["versions"] = versions()
    print(json.dumps(result, default=float))
    return 0


if __name__ == "__main__":
    sys.exit(main())
