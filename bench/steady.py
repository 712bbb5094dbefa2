"""Steadiness of the end-to-end metrics across seeds.

    python3 bench/steady.py                       # every workload, 10 seeds each
    python3 bench/steady.py --workloads verify --first-seed 11
    python3 bench/steady.py --against bench/out/steady-<stamp>.json

Runs ``bench/run.py --trace 0`` for RUNS seeds per workload, each for the
``run_seconds`` of BENCHMARK.json, one run after another, and prints for
each metric the median, the quartiles
(``statistics.quantiles(values, n=4)``) and the spread, i.e. the distance
between the quartiles as a share of the median, next to the metric's
bound in BENCHMARK.json.  ``--against`` also prints how far each median
moved from an earlier set, as a share of the earlier median, worse
direction positive.  The set is saved to ``bench/out/steady-<stamp>.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

from workloads import NAMES

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUNS = 10


def run_once(workload: str, seed: int, seconds: int) -> dict:
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload, "--seed",
         str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=180)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"{workload} seed {seed}: exit status {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main(argv: list[str] | None = None) -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workloads", default=",".join(NAMES))
    p.add_argument("--first-seed", type=int, default=1)
    p.add_argument("--against", metavar="FILE")
    args = p.parse_args(argv)
    seconds = spec["run_seconds"]

    metrics = {m["name"]: m for m in spec["end_to_end"]}
    earlier = None
    if args.against:
        with open(args.against) as fh:
            earlier = json.load(fh)["values"]
    values: dict[str, dict[str, list[float]]] = {}
    shares: dict[str, list[str]] = {}
    for w in args.workloads.split(","):
        values[w] = {m: [] for m in metrics}
        shares[w] = []
        for seed in range(args.first_seed, args.first_seed + RUNS):
            t = time.monotonic()
            res = run_once(w, seed, seconds)
            if not res["correct"]:
                raise SystemExit(f"{w} seed {seed}: outputs failed their checks")
            for m in metrics:
                values[w][m].append(res["metrics"][m]["value"])
            shares[w].append(f"{res['failed']}/{res['attempted']}")
            print(f"{w} seed {seed}: {time.monotonic() - t:.1f} s, failed {shares[w][-1]}",
                  file=sys.stderr, flush=True)
        print(f"\n{w}  ({RUNS} runs of {seconds} s, failed/attempted "
              f"{' '.join(shares[w])})")
        print(f"  {'metric':<12} {'median':>10} {'q1':>10} {'q3':>10} {'spread':>7} "
              f"{'bound':>6}" + ("  moved" if earlier else ""))
        for m, spec_m in metrics.items():
            vals = values[w][m]
            med = statistics.median(vals)
            q1, _, q3 = statistics.quantiles(vals, n=4)
            line = (f"  {m:<12} {med:>10.5g} {q1:>10.5g} {q3:>10.5g} {(q3 - q1) / med:>7.3f} "
                    f"{spec_m['bound']:>6}")
            if earlier and w in earlier:
                before = statistics.median(earlier[w][m])
                moved = (med - before) / before
                if spec_m["better"] == "higher":
                    moved = -moved
                line += f"  {moved:+.3f}"
            print(line)

    out = os.path.join(HERE, "out")
    os.makedirs(out, exist_ok=True)
    path = os.path.join(out, time.strftime("steady-%Y%m%d-%H%M%S.json"))
    with open(path, "w") as fh:
        json.dump({"runs": RUNS, "seconds": seconds, "first_seed": args.first_seed,
                   "values": values, "failed": shares}, fh, indent=1)
    print(f"\nsaved {os.path.relpath(path, ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
