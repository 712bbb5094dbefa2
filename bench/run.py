"""Benchmark entry point: one workload, its metrics, and whether its outputs were correct.

    python3 bench/run.py --workload member-R --seed 1 --seconds 25 --trace 0

Runs from the root of a source checkout and imports ratrel from ``src/``.
Each workload runs in fresh processes of its own, one after another,
single-threaded:

* ``--trace 0``: CHUNKS timed processes in a row, each setting up and
  then running whole rounds of operations for ``--seconds / CHUNKS``.
  Before each of them, SETUP_ONLY processes only set up.  Prints the
  end-to-end metrics: ``op_s.p50`` and ``ops_per_s`` over all
  operations, ``peak_rss_mb`` (the largest of the timed processes) and
  ``setup_s`` (median over all the process starts of the run).  Every
  time is scaled to one host speed: it is multiplied by REF_LOOP_S over
  the time of the worker's reference loop measured next to it (see
  ``worker.reference_loop``).
* ``--trace 1``: TRACE_PAIRS pairs of an untraced and a traced timed
  process, each for ``--seconds / (2 * TRACE_PAIRS)``, alternating.
  Prints the per-layer metrics pooled over the traced processes, and the
  scaled op-time overhead of the traced side against the untraced side,
  both pooled, so that both sides see the same host speed phases.  The
  spans go to ``bench/out/trace-<workload>-<seed>-r<first round>.json``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; a copy goes to
``bench/out/result-<workload>-<seed>-trace<k>.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

from tracing import UNITS, combine
from workloads import NAMES

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

OUT = os.path.join(HERE, "out")
CHUNKS = 5
SETUP_ONLY = 3
TRACE_PAIRS = 3
# the reference loop's time on the host that scaled times refer to: about
# its median on a 2-core x86 container with Python 3.11
REF_LOOP_S = 0.008
CHILD_GRACE_S = 120


def spawn(workload: str, seed: int, seconds: float, trace: int, first_round: int = 0,
          setup_only: bool = False) -> dict:
    argv = [sys.executable, os.path.join(HERE, "worker.py"), "--workload", workload,
            "--seed", str(seed), "--seconds", repr(seconds), "--trace", str(trace),
            "--first-round", str(first_round)] + (["--setup-only"] if setup_only else [])
    t0 = time.monotonic()
    proc = subprocess.run(argv + ["--t0", repr(t0)], cwd=ROOT, capture_output=True,
                          text=True, timeout=seconds + CHILD_GRACE_S)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"worker for {workload} exited with status {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def scaled_times(run: dict) -> list[float]:
    """The run's op times at the host speed where the reference loop takes REF_LOOP_S."""
    return [t * REF_LOOP_S / ref for t, ref in zip(run["times"], run["ref_s"])]


def scaled_setup(run: dict) -> float:
    return run["setup_s"] * REF_LOOP_S / run["setup_ref_s"]


def end_to_end(workload: str, seed: int, seconds: float) -> tuple[dict, list[dict]]:
    """CHUNKS timed processes in a row, each for seconds / CHUNKS, continuing the rounds.

    Every process start, timed or set-up only, is one set-up sample, so
    set-up is sampled across the whole run rather than in one burst.
    """
    chunks = []
    setups = []
    for _ in range(CHUNKS):
        setups += [scaled_setup(spawn(workload, seed, 0, 0, setup_only=True))
                   for _ in range(SETUP_ONLY)]
        chunks.append(spawn(workload, seed, seconds / CHUNKS, 0,
                            sum(c["rounds"] for c in chunks)))
    setups += [scaled_setup(c) for c in chunks]
    times = [t for c in chunks for t in scaled_times(c)]
    if not times:
        raise SystemExit(f"{workload}: no operation completed: {chunks[0]['failures'][:3]}")
    metrics = {
        "op_s.p50": (statistics.median(times), "s"),
        "ops_per_s": (len(times) / sum(times), "1/s"),
        "peak_rss_mb": (max(c["peak_rss_mb"] for c in chunks), "MB"),
        "setup_s": (statistics.median(setups), "s"),
    }
    return metrics, chunks


def per_layer(workload: str, seed: int, seconds: float) -> tuple[dict, list[dict]]:
    """TRACE_PAIRS untraced/traced pairs; each pair starts at the same round."""
    plain, traced = [], []
    first_round = 0
    for _ in range(TRACE_PAIRS):
        plain.append(spawn(workload, seed, seconds / (2 * TRACE_PAIRS), 0, first_round))
        traced.append(spawn(workload, seed, seconds / (2 * TRACE_PAIRS), 1, first_round))
        first_round += plain[-1]["rounds"]
    plain_times = [t for run in plain for t in scaled_times(run)]
    traced_times = [t for run in traced for t in scaled_times(run)]
    if not plain_times or not traced_times:
        raise SystemExit(f"{workload}: no operation completed")
    layers = combine([run["per_layer"] for run in traced])
    metrics = {k: (v, UNITS[k]) for k, v in layers.items()}
    overhead = statistics.fmean(traced_times) / statistics.fmean(plain_times) - 1
    metrics["trace.op_overhead_pct"] = (100 * overhead, "%")
    return metrics, plain + traced


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=NAMES)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "ratrel", "__init__.py")):
        print(f"no ratrel sources under {os.path.join(ROOT, 'src')}; "
              "run from the root of a source checkout", file=sys.stderr)
        return 2

    os.makedirs(OUT, exist_ok=True)
    measure = per_layer if args.trace else end_to_end
    metrics, runs = measure(args.workload, args.seed, args.seconds)
    for kind in ("failures", "problems"):
        for msg in [m for run in runs for m in run[kind]][:10]:
            sys.stderr.write(f"{kind}: {msg}\n")
    timed = runs if args.trace == 0 else runs[TRACE_PAIRS:]
    result = {
        "correct": not any(run["problems"] for run in runs),
        "attempted": sum(run["attempted"] for run in timed),
        "failed": sum(len(run["failures"]) for run in timed),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    with open(os.path.join(OUT, f"result-{args.workload}-{args.seed}-trace{args.trace}.json"),
              "w") as fh:
        json.dump(result, fh, indent=1)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
