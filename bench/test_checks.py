"""Each benchmark checker accepts a real output and rejects a tampered one.

    python3 -m pytest bench/test_checks.py
"""

from __future__ import annotations

import copy
import json
import os
import random
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [HERE, os.path.join(os.path.dirname(HERE), "src")]

import checks  # noqa: E402
import workloads  # noqa: E402
from ratrel import cli, constructions  # noqa: E402
from ratrel.grid import grid_from_json  # noqa: E402
from worker import automaton_facts  # noqa: E402

R = automaton_facts(constructions.r_automaton())
T = automaton_facts(constructions.automaton_T())


def member(aut: str, w1: str, w2: str) -> dict:
    code, out = workloads.run_cli(cli, ["member", "--aut", aut, "--pair", w1, w2, "--json"])
    return {"code": code, "out": out}


def tampered(result: dict, edit) -> dict:
    doc = json.loads(result["out"])
    edit(doc)
    return {**result, "out": json.dumps(doc)}


def test_member_r_certificate():
    w1, w2 = workloads.member_r_pair(random.Random(0), conforming=True)
    w1, w2 = w1[:20], w2[:20]  # same opening, shorter period
    args = {"w1": w1, "w2": w2}
    good = member("R", w1, w2)
    assert checks.check_member_r(good, args, R) == []

    cycle = json.loads(good["out"])["certificate"]["cycle"]
    if len(cycle) > 1:
        swapped = tampered(good, lambda d: d["certificate"]["cycle"].reverse())
        assert checks.check_member_r(swapped, args, R)

    def relabel(d):
        t = next(t for t in d["certificate"]["cycle"] if t[1])
        t[1] = {"0": "1", "1": "0", "A": "0"}[t[1][0]] + t[1][1:]

    assert checks.check_member_r(tampered(good, relabel), args, R)
    assert checks.check_member_r(tampered(good, lambda d: d.update(verdict="rejected")), args, R)
    assert checks.check_member_r({**good, "code": 1}, args, R)


def test_member_r_rejects_a_short_cycle():
    # a cycle that never consumes on tape 2 is not a fair run
    w1, w2 = "|0", "|0"
    good = member("R", w1, w2)
    args = {"w1": w1, "w2": w2}
    assert checks.check_member_r(good, args, R) == []
    one_tape = tampered(good, lambda d: d["certificate"].update(
        cycle=[t for t in d["certificate"]["cycle"] if not t[2]]))
    assert checks.check_member_r(one_tape, args, R)


def test_member_reject_against_reference_and_property():
    pairs = {"T": ("|A0A", "|A1A"), "C1": ("|A0", "|A1"), "C3": ("|A0", "|A0"),
             "C4": ("A|0A", "A|0A")}
    for op, (w1, w2) in pairs.items():
        args = {"w1": w1, "w2": w2, "verdict": "rejected"}
        good = member(op, w1, w2)
        assert checks.check_member_reject(good, args, op) == [], op
        flipped = tampered(good, lambda d: d.update(verdict="accepted"))
        assert checks.check_member_reject({**flipped, "code": 0}, args, op), op
        # a reference that disagrees with a property-forced rejection is caught too
        wrong_ref = {**args, "verdict": "accepted"}
        assert checks.check_member_reject({**flipped, "code": 0}, wrong_ref, op), op


def test_search_and_r1():
    doc = workloads.grid_doc(random.Random(1), in_p=True)
    path = os.path.join(HERE, "out", "test-grid.json")
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w") as fh:
        json.dump(doc, fh)
    budget = 500
    code, out = workloads.run_cli(
        cli, ["search", "--aut", "R", "--grid", path, "--budget", str(budget), "--json"])
    good = {"code": code, "out": out, "in_r1": True}
    assert checks.check_grid_evidence(good, {"grid": doc}, budget) == []
    short = tampered(good, lambda d: d["stats"].update(expansions=budget - 1))
    assert checks.check_grid_evidence(short, {"grid": doc}, budget)
    assert checks.check_grid_evidence({**good, "in_r1": False}, {"grid": doc}, budget)
    not_p = copy.deepcopy(doc)
    not_p["default"] = "|01"
    assert checks.check_grid_evidence(good, {"grid": not_p}, budget)


def test_schema_run():
    doc = workloads.grid_doc(random.Random(2), in_p=True)
    x = grid_from_json(json.dumps(doc))
    run = constructions.schema_to_run(constructions.build_run_schema(x), 30)
    transitions = [list(t) for t in run.transitions]
    assert checks.check_schema_run(transitions, T, doc) == []
    i = next(i for i, t in enumerate(transitions) if t[0] == "q2" and t[1] in "01" and t[1])
    bad = copy.deepcopy(transitions)
    bad[i][1] = "1" if bad[i][1] == "0" else "0"
    assert checks.check_schema_run(bad, T, doc)
    assert checks.check_schema_run(transitions[:1] + transitions[2:], T, doc)
    # a run through a transition the automaton lacks
    fewer = {**T, "known": T["known"] - {tuple(transitions[3])}}
    assert checks.check_schema_run(transitions, fewer, doc)


def test_verify_tail():
    code, out = workloads.run_cli(cli, ["verify", "--seed", "0", "--trials", "3"])
    good = {"code": code, "out": out}
    assert checks.check_verify(good) == []
    lines = out.strip().splitlines()
    total = len(lines) - 1
    assert checks.check_verify({"code": 0, "out": "\n".join(
        lines[:-1] + [f"{total - 1}/{total} checks passed"])})
    assert checks.check_verify({"code": 0, "out": "\n".join(lines[1:])})
    assert checks.check_verify({**good, "code": 1})
