"""Paired comparison of two checkouts under this benchmark.

Usage, from the root of the checkout that holds this benchmark::

    python3 perfbench/compare.py --base ../parent --change . \\
        --workload cluster-sgla --seed 11

Both sides run untraced with this benchmark's code and its
``run_seconds`` (``run.py --program``), alternately on one seed, for
:data:`PAIRS` pairs: pair ``i`` runs the base first when ``i`` is even
and the change first when it is odd.  For every end-to-end metric the
table shows each side's median and quartiles, the share of pairs the
change won (ties count for neither), and a verdict under the rule of
the choosing-metrics guide (section 8):

* ``improved`` — the change won at least 9 of 10 pairs and the medians
  differ by more than the distance between the base's quartiles;
* ``unresolved`` — the base's own spread is wider than the metric's
  bound, and not every change run beats every base run;
* ``worse`` — the change's median is worse than the base's by more
  than the bound;
* ``within bound`` — otherwise.

Raw values of every run are written to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

#: pairs per comparison, the number the verdict rule is stated for.
PAIRS = 10


def run_once(side: Path, workload: str, seed: int, seconds) -> dict:
    argv = [
        sys.executable, str(HERE / "run.py"), "--workload", workload,
        "--seed", str(seed), "--seconds", str(seconds), "--trace", "0",
        "--program", str(side), "--quiet",
    ]
    done = subprocess.run(argv, capture_output=True, text=True, cwd=str(ROOT))
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise SystemExit(
            f"run on {side} failed ({done.returncode}):\n{done.stderr[-2000:]}"
        )
    result = json.loads(lines[-1])
    if not result["correct"]:
        print(f"warning: outputs of {side} failed their checks", file=sys.stderr)
    return {name: entry["value"] for name, entry in result["metrics"].items()}


def quartiles(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, q3


def verdict(base, change, better: str, bound: float) -> tuple:
    """(share of pairs won by the change, verdict) for one metric."""
    def beats(x, y):
        return x > y if better == "higher" else x < y

    pairs = list(zip(base, change))
    share = sum(beats(c, b) for b, c in pairs) / len(pairs)
    med_b, med_c = statistics.median(base), statistics.median(change)
    q1, q3 = quartiles(base)
    if share >= 0.9 and beats(med_c, med_b) and abs(med_c - med_b) > q3 - q1:
        return share, "improved"
    scale = abs(med_b) or 1.0
    worse_by = (med_b - med_c if better == "higher" else med_c - med_b) / scale
    all_better = all(beats(c, b) for c in change for b in base)
    if (q3 - q1) / scale > bound and not all_better:
        return share, "unresolved"
    if worse_by > bound:
        return share, "worse"
    return share, "within bound"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", required=True, help="parent checkout")
    parser.add_argument("--change", required=True, help="changed checkout")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]
    sides = {"base": Path(args.base).resolve(), "change": Path(args.change).resolve()}

    runs = {"base": [], "change": []}
    for pair in range(PAIRS):
        order = ("base", "change") if pair % 2 == 0 else ("change", "base")
        for name in order:
            runs[name].append(run_once(sides[name], args.workload, args.seed, seconds))
        print(f"pair {pair + 1}/{PAIRS} done ({order[0]} first)", flush=True)

    out = HERE / "out" / f"compare-{args.workload}-seed{args.seed}.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps({"sides": {k: str(v) for k, v in sides.items()},
                               "runs": runs}, indent=1))

    print(f"{args.workload}, seed {args.seed}, {PAIRS} pairs "
          f"({seconds:g}s runs); raw values: {out}")
    print(f"{'metric':<30}{'base median [q1, q3]':>34}"
          f"{'change median [q1, q3]':>34}{'won':>6}  verdict")
    for entry in spec["end_to_end"]:
        name = entry["name"]
        base = [run[name] for run in runs["base"]]
        change = [run[name] for run in runs["change"]]
        share, outcome = verdict(base, change, entry["better"], entry["bound"])
        cells = []
        for values in (base, change):
            q1, q3 = quartiles(values)
            cells.append(f"{statistics.median(values):.5g} [{q1:.5g}, {q3:.5g}]")
        print(f"{name:<30}{cells[0]:>34}{cells[1]:>34}{share:>6.0%}  {outcome}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
