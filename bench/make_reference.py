"""Write bench/reference_reject.json: the member-reject pool and its reference verdicts.

    python3 bench/make_reference.py

Run from the root of a source checkout; it needs ``tests/oracles.py``.
The timed runs only read the file.  Verdicts for T, C3 and C4 come from
``tests.oracles.naive_accepts_pair``.  That oracle computes a
reachability set per accepting configuration, so on C1, whose accepting
states are reachable from every configuration, one pair at period 100
ran for more than 100 s and kept growing in memory; the C1 verdicts come
from the exact characterisation of C1 instead (finitely many As on some
tape), stated in checks.reject_reason.
"""

from __future__ import annotations

import json
import os
import resource
import sys
import time

import checks
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
ORACLE_OPERANDS = ("T", "C3", "C4")
MEMORY_CAP = 2 << 30


def main() -> int:
    sys.path[:0] = [os.path.join(ROOT, "src"), ROOT]
    from ratrel.constructions import automaton_T, c_automaton
    from ratrel.words import LassoWord
    from tests.oracles import naive_accepts_pair

    resource.setrlimit(resource.RLIMIT_AS, (MEMORY_CAP, MEMORY_CAP))
    automata = {"T": automaton_T(), "C3": c_automaton(3), "C4": c_automaton(4)}
    doc = {"pool_seed": workloads.REJECT_POOL_SEED, "periods": workloads.REJECT_PERIOD,
           "operands": {}}
    for op, pairs in workloads.reject_pool().items():
        entries = []
        for w1, w2 in pairs:
            t = time.perf_counter()
            if op in ORACLE_OPERANDS:
                accepted = naive_accepts_pair(automata[op], LassoWord.parse(w1),
                                              LassoWord.parse(w2))
                source = "naive_accepts_pair"
            else:
                accepted = checks.reject_reason(op, w1, w2) is None
                source = "characterisation"
            entries.append({"w1": w1, "w2": w2,
                            "verdict": "accepted" if accepted else "rejected",
                            "reference": source})
            print(f"{op} {entries[-1]['verdict']} ({source}, {time.perf_counter() - t:.1f} s)",
                  flush=True)
        doc["operands"][op] = entries
    with open(os.path.join(HERE, "reference_reject.json"), "w") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
