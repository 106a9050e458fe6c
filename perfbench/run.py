"""The repository's benchmark: one workload, one seed, one JSON line.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload cluster-sgla --seed 0 --seconds 20 --trace 0

Each run starts the workload in its own child process (``worker.py``)
with the BLAS thread count pinned to :data:`BLAS_THREADS`, measures for
``--seconds``, checks the outputs, writes the full result — run
envelope, raw samples, every metric — under ``perfbench/out/``, and
prints one JSON object as the last line of standard output::

    {"correct": true, "attempted": 9, "failed": 0, "metrics": {...}}

With ``--trace 0`` the metrics are the ``end_to_end`` metrics of
``BENCHMARK.json``; with ``--trace 1`` they are its ``per_layer``
metrics, from a separate traced run.  ``--program DIR`` benchmarks the
source tree of another checkout with this benchmark's code (the paired
comparison in ``compare.py`` uses it); ``--smoke`` swaps in the
seconds-long inputs of ``selftest.py``.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

#: BLAS threads of every child, the same on both sides of a comparison
#: (one thread is also the faster and steadier setting on two cores).
BLAS_THREADS = 1

#: set-up probes before the measured child (in-process workloads); the
#: measured child's own set-up is one more sample.
SETUP_PROBES = 2

#: a run that has not finished by then is killed and reports nothing.
CHILD_LIMIT_S = 170.0


def fail(message: str) -> int:
    print(f"perfbench: {message}", file=sys.stderr, flush=True)
    return 2


def child_env(program: Path) -> dict:
    env = dict(os.environ)
    threads = str(BLAS_THREADS)
    env.update({
        "OPENBLAS_NUM_THREADS": threads,
        "OMP_NUM_THREADS": threads,
        "MKL_NUM_THREADS": threads,
        "PYTHONHASHSEED": "0",
        "PYTHONPATH": str(program / "src"),
    })
    return env


def git_state(program: Path) -> dict:
    """Commit and dirty flag of the benchmarked tree (None outside git)."""
    def git(*argv):
        return subprocess.run(
            ["git", "-C", str(program), *argv],
            capture_output=True, text=True, timeout=30,
        )
    try:
        head = git("rev-parse", "HEAD")
        status = git("status", "--porcelain", "--untracked-files=no")
    except (OSError, subprocess.TimeoutExpired):
        return {"sha": None, "dirty": None}
    if head.returncode != 0:
        return {"sha": None, "dirty": None}
    return {"sha": head.stdout.strip(), "dirty": bool(status.stdout.strip())}


def worker_argv(args, *extra) -> list:
    argv = [
        sys.executable, str(HERE / "worker.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
        "--out", str(args.out_dir),
    ]
    if args.smoke:
        argv.append("--smoke")
    return argv + list(extra)


def run_child(argv: list, env: dict, relay: bool):
    """Run one child; returns (seconds to its READY line, stdout lines,
    exit code).

    The child leads its own process group, which also holds the daemon
    and router a serve-routed child spawns: at :data:`CHILD_LIMIT_S`, or
    if anything is left running when the child exits, the whole group
    is killed.
    """
    begin = time.perf_counter()
    child = subprocess.Popen(
        argv, stdout=subprocess.PIPE, text=True, env=env, cwd=str(ROOT),
        start_new_session=True,
    )

    def kill_group():
        try:
            os.killpg(child.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass

    watchdog = threading.Timer(CHILD_LIMIT_S, kill_group)
    watchdog.start()
    ready, lines = None, []
    try:
        for line in child.stdout:
            if ready is None and line.strip() == "READY":
                ready = time.perf_counter() - begin
                continue
            lines.append(line.rstrip("\n"))
        code = child.wait()
    finally:
        watchdog.cancel()
        kill_group()
        child.wait()
        child.stdout.close()
    if relay:  # everything but the child's own result line
        for line in lines[:-1]:
            print(line, flush=True)
    return ready, lines, code


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--program", default=None,
                        help="checkout whose src/ is benchmarked "
                             "(default: this one)")
    parser.add_argument("--smoke", action="store_true",
                        help="seconds-long self-test inputs")
    parser.add_argument("--quiet", action="store_true",
                        help="print only the result line")
    args = parser.parse_args(argv)

    program = Path(args.program).resolve() if args.program else ROOT
    if not (program / "src" / "repro" / "__init__.py").is_file():
        return fail(f"no program source under {program / 'src'}")
    try:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    except (OSError, ValueError) as error:
        return fail(f"cannot read BENCHMARK.json: {error}")
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        return fail(f"unknown workload {args.workload!r}")
    args.out_dir = HERE / "out" / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    args.out_dir.mkdir(parents=True, exist_ok=True)

    env = child_env(program)
    load_before = os.getloadavg()
    setups = []
    if args.workload != "serve-routed":
        for _ in range(SETUP_PROBES):
            ready, _, code = run_child(
                worker_argv(args, "--setup-only"), env, relay=False
            )
            if code != 0 or ready is None:
                return fail(f"set-up probe exited with code {code}")
            setups.append(ready)
    ready, lines, code = run_child(worker_argv(args), env, relay=not args.quiet)
    if code != 0 or not lines:
        return fail(f"workload child exited with code {code}")
    try:
        result = json.loads(lines[-1])
    except ValueError:
        return fail("workload child printed no result")
    load_after = os.getloadavg()

    measured = result["metrics"]
    if args.workload != "serve-routed":
        setups.append(ready)
        measured["setup_s"] = statistics.median(setups)
    else:
        setups = result["samples"]["setup_s"]
    wanted = spec["per_layer" if args.trace else "end_to_end"]
    metrics = {
        entry["name"]: {"value": measured[entry["name"]], "unit": entry["unit"]}
        for entry in wanted
    }
    correct = not result["problems"]
    envelope = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "smoke": args.smoke,
        "program": str(program),
        "git": git_state(program),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "loadavg_before": load_before,
        "loadavg_after": load_after,
        "blas_threads_requested": BLAS_THREADS,
        "versions": result["versions"],
        "inputs": result["inputs"],
        "samples": dict(result["samples"], setup_s=setups),
        "problems": result["problems"],
        "all_metrics": measured,
        "layer_tables": result.get("layer_tables"),
        "serve": result.get("serve"),
    }
    (args.out_dir / "result.json").write_text(json.dumps(envelope, indent=1))
    for problem in result["problems"]:
        print(f"check failed: {problem}", file=sys.stderr)
    if not args.quiet:
        print(f"result envelope: {args.out_dir / 'result.json'}")
    print(json.dumps({
        "correct": correct,
        "attempted": int(result["attempted"]),
        "failed": int(result["failed"]),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
