"""Self-tests of the benchmark at smoke size (seconds per workload).

Usage, from the root of a checkout::

    python3 perfbench/selftest.py

1. ``BENCHMARK.json`` is within the format limits the benchmark must meet.
2. Each workload, untraced and traced, exits 0 and prints exactly the
   four result keys, ``correct`` true, and every metric of
   ``BENCHMARK.json`` with its unit.
3. Each output check fails on a corrupted label vector and on a
   corrupted reply.
4. Without the program's source, the benchmark exits non-zero and
   prints no result.

Exits non-zero on the first failure.
"""

from __future__ import annotations

import json
import re
import subprocess
import sys
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from checks import (  # noqa: E402
    check_embedding,
    check_labels,
    check_request_counts,
    check_weights,
    identical,
)

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def expect(condition: bool, message: str) -> None:
    if not condition:
        raise SystemExit(f"selftest FAILED: {message}")


def test_spec(spec: dict) -> None:
    expect(set(spec) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}, "BENCHMARK.json keys")
    expect(1 <= spec["run_seconds"] <= 60, "run_seconds range")
    expect(2 <= len(spec["workloads"]) <= 8, "workload count")
    names = []
    for workload in spec["workloads"]:
        expect(set(workload) == {"name", "why"}, f"workload keys {workload}")
        expect(len(workload["why"]) <= 200 and "\n" not in workload["why"],
               f"why of {workload['name']}")
        names.append(workload["name"])
    for entry in spec["end_to_end"]:
        expect(set(entry) == {"name", "unit", "better", "bound"}, f"keys {entry}")
        expect(0 < entry["bound"] <= 0.25, f"bound of {entry['name']}")
    for entry in spec["per_layer"]:
        expect(set(entry) == {"name", "unit", "better"}, f"keys {entry}")
    for entry in spec["end_to_end"] + spec["per_layer"]:
        expect(bool(UNIT.match(entry["unit"])), f"unit of {entry['name']}")
        expect(entry["better"] in ("lower", "higher"), f"better of {entry['name']}")
        names.append(entry["name"])
    expect(all(NAME.match(name) for name in names), "name format")
    expect(len(names) == len(set(names)), "names are unique")
    setup = [e for e in spec["end_to_end"] if e["name"] == "setup_s"]
    expect(setup and setup[0]["unit"] == "s" and setup[0]["better"] == "lower",
           "setup_s metric")
    expect(setup[0]["bound"] == max(e["bound"] for e in spec["end_to_end"]),
           "setup_s has the largest bound")


def run(*argv) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(HERE / "run.py"), *argv],
        capture_output=True, text=True, cwd=str(ROOT), timeout=180,
    )


def test_workloads(spec: dict) -> None:
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            done = run("--workload", workload, "--seed", "0", "--seconds", "2",
                       "--trace", str(trace), "--smoke", "--quiet")
            label = f"{workload} --trace {trace}"
            expect(done.returncode == 0, f"{label} exited {done.returncode}:\n"
                   f"{done.stderr[-2000:]}")
            result = json.loads(done.stdout.strip().splitlines()[-1])
            expect(set(result) == {"correct", "attempted", "failed", "metrics"},
                   f"{label} result keys")
            expect(result["correct"], f"{label} failed its checks:\n{done.stderr}")
            expect(result["attempted"] >= 1, f"{label} attempted nothing")
            wanted = spec["per_layer" if trace else "end_to_end"]
            expect(
                {e["name"]: e["unit"] for e in wanted}
                == {k: v["unit"] for k, v in result["metrics"].items()},
                f"{label} metric names or units",
            )
            expect(all(isinstance(v["value"], (int, float))
                       for v in result["metrics"].values()),
                   f"{label} metric values are numbers")
            print(f"ok  {label}: {result['attempted']} operations")


def test_checks() -> None:
    labels = np.array([0, 1, 2, 1, 0], dtype=np.int64)
    expect(check_labels(labels, 5, 3) == [], "clean labels pass")
    corrupted = labels.copy()
    corrupted[2] = 7
    expect(check_labels(corrupted, 5, 3), "out-of-range label is caught")
    expect(check_labels(labels[:4], 5, 3), "short label vector is caught")
    expect(check_labels(labels.astype(float), 5, 3), "float labels are caught")
    weights = np.array([0.5, 0.25, 0.25])
    expect(check_weights(weights, 3) == [], "clean weights pass")
    expect(check_weights([0.5, 0.5, 0.5], 3), "weights off the simplex are caught")
    expect(check_weights([np.nan, 0.5, 0.5], 3), "NaN weights are caught")
    embedding = np.ones((5, 4))
    expect(check_embedding(embedding, 5, 4) == [], "clean embedding passes")
    embedding[1, 2] = np.inf
    expect(check_embedding(embedding, 5, 4), "infinite embedding is caught")

    reply = {"labels": labels, "weights": weights, "method": "sgla",
             "objective_value": 0.25, "elapsed_seconds": 1.0}
    same = dict(reply, labels=labels.copy(), elapsed_seconds=2.0)
    expect(identical(reply, same), "identical replies match")
    expect(not identical(reply, dict(reply, labels=corrupted)),
           "a corrupted label in a reply is caught")
    nudged = dict(reply, objective_value=np.nextafter(0.25, 1.0))
    expect(not identical(reply, nudged), "a one-ulp change in a reply is caught")
    expect(not identical(reply, dict(reply, weights=weights[:2])),
           "a truncated array in a reply is caught")

    route = {"requests": 10, "completed": 10}
    totals = {"requests": 10, "completed": 10, "result_hits": 4}
    expect(check_request_counts(10, route, totals) == [], "matching counts pass")
    expect(check_request_counts(11, route, totals), "a lost request is caught")
    expect(check_request_counts(10, route, dict(totals, result_hits=11)),
           "impossible hit counts are caught")
    print("ok  output checks fail on corrupted labels and replies")


def test_without_program() -> None:
    empty = HERE / "out" / "no-program"
    empty.mkdir(parents=True, exist_ok=True)
    done = run("--workload", "cluster-sgla", "--seed", "0", "--seconds", "1",
               "--trace", "0", "--program", str(empty))
    expect(done.returncode != 0, "runs without the program's source")
    expect(not done.stdout.strip(), "prints a result without the program")
    print("ok  no program source: exit code", done.returncode)


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    test_spec(spec)
    print("ok  BENCHMARK.json format")
    test_checks()
    test_without_program()
    test_workloads(spec)
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
