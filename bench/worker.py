"""One workload in one fresh process: set-up, timed rounds, checks.

Started by run.py, never by hand.  ``--t0`` is the parent's
``time.monotonic()`` just before it started this process, so the set-up
time covers interpreter start, the import of ratrel, building the
reference automata, generating the inputs and writing the grid files.
The process then runs whole rounds from ``--first-round`` on until
``--seconds`` have passed, and prints one JSON object as its last line.
With ``--setup-only`` it stops after set-up and reports only its time.
Next to set-up and before each operation it times ``reference_loop``, so
that run.py can scale every time to one host speed.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import sys
import time
from time import perf_counter

import checks
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def automaton_facts(aut) -> dict:
    return {
        "known": {tuple(t) for t in aut.transitions},
        "initial": aut.initial,
        "accepting": set(aut.accepting),
    }


def reference_loop() -> float:
    """Time a fixed piece of interpreter work: build and probe small dicts with tuple keys.

    The host's speed drifts by up to 1.8x over seconds to minutes (see
    README.md).  Timed right next to an operation, this loop slows with it,
    so the ratio of the two holds still while the host drifts.  It holds
    about 0.1 MB at a time; even so it adds about 0.2 MB to the peak RSS of
    ``verify``, whose operations allocate little.
    """
    t = perf_counter()
    for rep in range(24):
        d = {}
        for i in range(1000):
            d[(i, i & 7)] = i
        s = 0
        for i in range(1000):
            s += d[(i, i & 7)]
        seen = set()
        for k in d:
            seen.add(k[0] ^ rep)
    return perf_counter() - t


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--first-round", type=int, default=0)
    p.add_argument("--t0", type=float, required=True)
    p.add_argument("--setup-only", action="store_true")
    args = p.parse_args(argv)

    sys.path.insert(0, os.path.join(ROOT, "src"))
    import ratrel
    from ratrel import cli, constructions, grid

    if not os.path.abspath(ratrel.__file__).startswith(os.path.join(ROOT, "src") + os.sep):
        print(f"ratrel was imported from {ratrel.__file__}, not from this checkout", file=sys.stderr)
        return 2

    tracer = None
    if args.trace:
        from tracing import Tracer

        tracer = Tracer()
        tracer.install(ratrel)

    name = args.workload
    # set-up: the reference automata, then the seeded inputs and grid files
    r_facts = automaton_facts(constructions.r_automaton())
    t_facts = automaton_facts(constructions.automaton_T())
    for j in range(1, 6):
        constructions.c_automaton(j)
    out_dir = os.path.join(HERE, "out")
    workdir = os.path.join(out_dir, "work", f"{name}-{args.seed}")
    wl = workloads.build(name, args.seed, ROOT, workdir)
    gc.collect()
    setup_s = time.monotonic() - args.t0
    setup_ref_s = sorted(reference_loop() for _ in range(3))[1]  # median; no statistics import, it weighs 0.6 MB
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s, "setup_ref_s": setup_ref_s}))
        return 0

    times: list[float] = []
    ref_s: list[float] = []
    attempted = 0
    failures: list[str] = []
    problems: list[str] = []
    start = perf_counter()
    r = args.first_round
    while True:
        for op in wl.round(r):
            attempted += 1
            ref = reference_loop()
            if tracer:
                tracer.op = attempted
            t = perf_counter()
            try:
                result = workloads.execute(name, op, cli, constructions, grid)
            except Exception as exc:  # an operation that raises is a failed operation
                failures.append(f"{op.slot}: {type(exc).__name__}: {exc}")
                continue
            finally:
                dt = perf_counter() - t
                if tracer:
                    tracer.op = -1
            if result["code"] not in (0, 1, 3):
                failures.append(f"{op.slot}: exit status {result['code']}")
                continue
            times.append(dt)
            ref_s.append(ref)
            problems += check(name, op, result, r_facts, t_facts, constructions, grid)
            gc.collect()
        r += 1
        if perf_counter() - start >= args.seconds:
            break

    doc = {
        "setup_s": setup_s,
        "setup_ref_s": setup_ref_s,
        "rounds": r - args.first_round,
        "times": times,
        "ref_s": ref_s,
        "attempted": attempted,
        "failures": failures,
        "problems": problems,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    if tracer:
        os.makedirs(out_dir, exist_ok=True)
        tracer.dump(os.path.join(out_dir, f"trace-{name}-{args.seed}-r{args.first_round}.json"))
        doc["per_layer"] = tracer.summary(len(times))
    print(json.dumps(doc))
    return 0


def check(name, op, result, r_facts, t_facts, constructions, grid) -> list[str]:
    """Independent check of one operation's output (outside the timed interval)."""
    if name == "member-R":
        return checks.check_member_r(result, op.args, r_facts)
    if name == "member-reject":
        return checks.check_member_reject(result, op.args, op.slot)
    if name == "grid-evidence":
        problems = checks.check_grid_evidence(result, op.args, workloads.SEARCH_BUDGET)
        if checks.grid_in_p(op.args["grid"]):
            x = grid.grid_from_json(json.dumps(op.args["grid"]))
            run = constructions.schema_to_run(constructions.build_run_schema(x),
                                              workloads.R1_BLOCKS)
            problems += checks.check_schema_run([list(t) for t in run.transitions],
                                                t_facts, op.args["grid"])
        return problems
    return checks.check_verify(result)


if __name__ == "__main__":
    sys.exit(main())
