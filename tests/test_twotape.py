import collections
import dataclasses
import gc
import itertools
import json
import math
import pickle
import random
import re
import sys
import tracemalloc
import weakref
from pathlib import Path

import pytest

from ratrel import cli, twotape, verify
from ratrel.buchi import BuchiAutomaton, buchi_accepts_lasso, ones_automaton
from ratrel.constructions import (
    alpha,
    automaton_T,
    build_run_schema,
    c_automaton,
    c_condition_holds,
    r2_automaton,
    r_automaton,
    schema_to_run,
)
from ratrel.grid import GridWord, encode_h
from ratrel.twotape import (
    _advance,
    _liveness,
    _run_length,
    AlphabetMismatch,
    InvalidAutomaton,
    RunPrefix,
    TwoTapeAutomaton,
    TwoTapeTransition,
    Verdict,
    accepts_lasso_pair,
    bounded_run_search,
    epsilon_normalize,
    from_json,
    run_prefix_valid,
    to_dot,
    to_json,
    union,
    validate,
)
from ratrel.verify import (
    nested_dfs_accepts_pair,
    random_grid,
    random_lasso,
    random_two_tape,
)
from ratrel.words import BINARY, GAMMA, Alphabet, LassoWord

from oracles import reference_bounded_search, reference_run_prefix_valid, reference_search_stats
from util import accepted, all_binary_lassos, grid, lasso, random_gamma_lasso

T = TwoTapeTransition


# -- validate ---------------------------------------------------------------


def test_validate_reference_automaton():
    validate(automaton_T())  # raises nothing
    assert automaton_T().accepting == frozenset({"q4"})


def test_validate_rejects_bad_initial():
    bad = TwoTapeAutomaton(("a",), BINARY, BINARY, (), "ghost", frozenset())
    with pytest.raises(InvalidAutomaton) as err:
        validate(bad)
    assert any("initial" in v for v in err.value.violations)


def test_validate_rejects_foreign_letter():
    bad = TwoTapeAutomaton(
        ("a",), BINARY, BINARY, (T("a", "0X", "", "a"),), "a", frozenset()
    )
    with pytest.raises(InvalidAutomaton):
        validate(bad)


# -- union ------------------------------------------------------------------


def reachable_after_initial(aut) -> set:
    """States of aut reachable from the targets of its initial transitions,
    found by a walk of its own over ``transitions_from``."""
    seen, todo = set(), [t.dst for t in aut.transitions_from(aut.initial)]
    while todo:
        q = todo.pop()
        if q not in seen:
            seen.add(q)
            todo += [t.dst for t in aut.transitions_from(q)]
    return seen


def r_operands() -> dict:
    """R's operands, keyed by the prefix their states carry in R."""
    return {"T": automaton_T(), **{f"C{j}": c_automaton(j) for j in range(1, 6)}}


def test_union_state_count_law():
    # u0 plus exactly the operand states that u0's copied rows lead to
    rng = random.Random(31)
    for _ in range(20):
        a = random_two_tape(rng)
        b = random_two_tape(rng)
        expected = {"u0"} | {f"{n}.{q}" for n, x in (("L", a), ("R", b))
                             for q in reachable_after_initial(x)}
        assert set(union({"L": a, "R": b}).states) == expected


def test_union_idempotent_on_verdicts():
    rng = random.Random(37)
    for _ in range(50):
        a = random_two_tape(rng)
        u = union({"L": a, "R": a})
        w1 = random_lasso(rng, "01", 2, 2)
        w2 = random_lasso(rng, "01", 2, 2)
        assert accepted(u, w1, w2) == accepted(a, w1, w2)


def test_union_contains_second_operand():
    rng = random.Random(41)
    hits = 0
    while hits < 50:
        a = random_two_tape(rng)
        b = random_two_tape(rng)
        w1 = random_lasso(rng, "01", 2, 2)
        w2 = random_lasso(rng, "01", 2, 2)
        if not accepted(b, w1, w2):
            continue
        hits += 1
        assert accepted(union({"L": a, "R": b}), w1, w2)


def test_union_soundness_completeness():
    rng = random.Random(43)
    for _ in range(200):
        a = random_two_tape(rng)
        b = random_two_tape(rng)
        w1 = random_lasso(rng, "01", 2, 2)
        w2 = random_lasso(rng, "01", 2, 2)
        assert accepted(union({"L": a, "R": b}), w1, w2) == (
            accepted(a, w1, w2) or accepted(b, w1, w2))


def test_union_of_three_operands():
    # R and R2 are flat unions of more than two operands
    rng = random.Random(47)
    for _ in range(150):
        operands = {name: random_two_tape(rng) for name in ("a", "b", "c")}
        w1 = random_lasso(rng, "01", 2, 2)
        w2 = random_lasso(rng, "01", 2, 2)
        assert accepted(union(operands), w1, w2) == any(
            accepted(x, w1, w2) for x in operands.values())


def test_union_alphabet_mismatch():
    a = random_two_tape(random.Random(1))
    b = TwoTapeAutomaton(("x",), GAMMA, GAMMA, (), "x", frozenset())
    with pytest.raises(AlphabetMismatch):
        union({"L": a, "R": b})


# -- epsilon normalization ---------------------------------------------------


def test_normalize_removes_silent_transitions():
    plain = epsilon_normalize(automaton_T())
    assert all(t.read1 or t.read2 for t in plain.transitions)


def test_normalize_preserves_reference_verdicts():
    plain = epsilon_normalize(automaton_T())
    rng = random.Random(47)
    for _ in range(100):
        w1 = random_gamma_lasso(rng)
        w2 = random_gamma_lasso(rng)
        assert accepted(plain, w1, w2) == accepted(automaton_T(), w1, w2)
    assert accepted(plain, lasso("A|0A"), lasso("A|0A"))


def test_normalize_keeps_normal_automaton_unchanged():
    aut = TwoTapeAutomaton(
        ("a", "b"), BINARY, BINARY, (T("a", "0", "", "b"), T("b", "", "1", "a")),
        "a", frozenset({"b"}),
    )
    assert epsilon_normalize(aut) is aut


def test_normalize_preserves_mid_segment_accepting_visits():
    # the only accepting state sits inside a silent segment
    aut = TwoTapeAutomaton(
        ("a", "mid", "b"),
        BINARY,
        BINARY,
        (T("a", "", "", "mid"), T("mid", "", "", "b"), T("b", "0", "0", "a")),
        "a",
        frozenset({"mid"}),
    )
    plain = epsilon_normalize(aut)
    assert all(t.read1 or t.read2 for t in plain.transitions)
    w = LassoWord("", "0")
    assert accepted(aut, w, w) and accepted(plain, w, w)


def test_normalize_random_equivalence():
    # half the labels silent, so accepting silent cycles, some with no
    # consuming way out, are common; every automaton folds
    rng = random.Random(53)
    silent_loops = 0
    for _ in range(200):
        aut = random_two_tape(rng, max_states=3, labels=("", "", "0", "1"))
        silent_loops += any(t.src == t.dst and not t.read1 + t.read2 and t.src in aut.accepting
                            for t in aut.transitions)
        plain = epsilon_normalize(aut)
        assert all(t.read1 or t.read2 for t in plain.transitions)
        w1 = random_lasso(rng, "01", 2, 2)
        w2 = random_lasso(rng, "01", 2, 2)
        expected = accepted(aut, w1, w2)
        assert accepted(plain, w1, w2) == expected == nested_dfs_accepts_pair(plain, w1, w2)
    assert silent_loops > 20


def test_normalize_rejects_degenerate_cycle():
    # accepting silent cycles that cannot consume: a run through them reads
    # neither word to the end, so no pair is accepted, before or after folding
    loop = TwoTapeAutomaton(("a",), BINARY, BINARY, (T("a", "", "", "a"),), "a", frozenset({"a"}))
    cycles = [f"c{i}" for i in range(8)]
    eight = TwoTapeAutomaton(
        ("i", *cycles), BINARY, BINARY,
        tuple(T("i", "", "", c) for c in cycles) + tuple(T(c, "", "", c) for c in cycles),
        "i", frozenset(cycles),
    )
    words = all_binary_lassos(1, 2)
    for aut in (loop, eight):
        plain = epsilon_normalize(aut)
        assert not plain.transitions
        for w1, w2 in itertools.product(words, repeat=2):
            for a in (aut, plain):
                assert accepts_lasso_pair(a, w1, w2).verdict is Verdict.REJECTED
                assert not nested_dfs_accepts_pair(a, w1, w2)


# -- run prefixes -------------------------------------------------------------


def test_run_prefix_example():
    run = RunPrefix((T("q0", "A", "A", "q1"),))
    report = run_prefix_valid(automaton_T(), run, alpha(), alpha())
    assert report.ok
    assert report.consumed == (1, 1)
    assert report.accepting_visits == 0


def test_run_prefix_broken_chaining():
    run = RunPrefix((T("q0", "A", "A", "q1"), T("q2", "0", "0", "q2")))
    report = run_prefix_valid(automaton_T(), run, alpha(), alpha())
    assert report.problems == (
        "transition TwoTapeTransition(src='q2', read1='0', read2='0', dst='q2') does not start at 'q1'",
    )


def test_run_prefix_tape_mismatch():
    run = RunPrefix((T("q0", "0", "", "q0"),))  # alpha starts with A, not 0
    report = run_prefix_valid(automaton_T(), run, alpha(), alpha())
    assert report.problems == ("tape-1 labels do not match the first word",)


def test_run_prefix_unknown_transition():
    run = RunPrefix((T("q0", "A", "", "q1"),))
    report = run_prefix_valid(automaton_T(), run, alpha(), alpha())
    assert report.problems == ("run uses transitions not present in the automaton",)


def corruptions(rng: random.Random, aut: TwoTapeAutomaton, run: RunPrefix) -> list[RunPrefix]:
    """run, which is not empty, with one transition dropped, duplicated,
    swapped with the next, replaced by a transition of states or labels aut
    may not have, or relabelled on one tape, twice each at a random place;
    a swap needs a next transition."""
    ts = list(run.transitions)
    states, labels = list(aut.states) + ["x"], ["", "0", "1", "A", "00"]
    out = []
    for _ in range(2):
        i = rng.randrange(len(ts))
        t = ts[i]
        foreign = T(rng.choice(states), rng.choice(labels), rng.choice(labels), rng.choice(states))
        tape = rng.choice(("read1", "read2"))
        out += [ts[:i] + ts[i + 1:], ts[:i + 1] + ts[i:], ts[:i] + [foreign] + ts[i + 1:],
                ts[:i] + [t._replace(**{tape: rng.choice(labels)})] + ts[i + 1:]]
        if i + 1 < len(ts):
            out.append(ts[:i] + [ts[i + 1], t] + ts[i + 2:])
    return [RunPrefix(tuple(c)) for c in out]


def test_run_prefix_replay_matches_the_reference_on_corrupted_runs():
    # sources: schema runs of random in-P grids against their coded words
    # and alpha, and certificates of accepted random pairs unrolled
    rng = random.Random(3333)
    sources = []
    for _ in range(60):
        schema = build_run_schema(random_grid(rng, ensure_in_p=True))
        sources.append((automaton_T(), schema_to_run(schema, rng.randint(0, 12)), schema.coded, alpha()))
    while len(sources) < 120:
        aut = random_two_tape(rng)
        w1, w2 = random_lasso(rng, "01", 2, 2), random_lasso(rng, "01", 2, 2)
        out = accepts_lasso_pair(aut, w1, w2)
        if out.verdict is Verdict.ACCEPTED:
            cert = out.certificate
            run = RunPrefix(cert.stem.transitions + cert.cycle.transitions * rng.randint(1, 3))
            sources.append((aut, run, w1, w2))
    cases = []
    for aut, run, w1, w2 in sources:
        elsewhere = [t for t in aut.transitions if t.src != aut.initial]
        runs = [run, RunPrefix(()), *corruptions(rng, aut, run)]
        if elsewhere:  # a first transition from a state other than the initial one
            runs.append(RunPrefix((rng.choice(elsewhere),) + run.transitions[1:]))
        cases += [(aut, r, w1, w2) for r in runs]
    assert len(cases) >= 1000
    problems = collections.Counter()
    for aut, run, w1, w2 in cases:
        report = run_prefix_valid(aut, run, w1, w2)
        assert report == reference_run_prefix_valid(aut, run, w1, w2), (aut, run, w1, w2)
        problems.update(p.split(" ")[0] for p in report.problems)
    # every problem shows up, the chain breaking at a named transition included
    assert min(problems[k] for k in ("run", "transition", "tape-1", "tape-2")) >= 50, problems


# -- lasso pair decision -------------------------------------------------------


def test_reference_pair_examples():
    assert accepted(automaton_T(), lasso("A|0A"), lasso("A|0A"))
    out = accepts_lasso_pair(automaton_T(), lasso("|0"), lasso("|0"))
    assert out.verdict is Verdict.REJECTED


def test_universal_single_state():
    aut = TwoTapeAutomaton(
        ("q",),
        GAMMA,
        GAMMA,
        tuple(T("q", a, "", "q") for a in "01A") + tuple(T("q", "", a, "q") for a in "01A"),
        "q",
        frozenset({"q"}),
    )
    rng = random.Random(59)
    for _ in range(30):
        assert accepted(aut, random_gamma_lasso(rng), random_gamma_lasso(rng))


def assert_fair_certificate(aut, out, w1, w2):
    cert = out.certificate
    assert cert.cycle.consumed1() and cert.cycle.consumed2()
    assert any(t.dst in aut.accepting for t in cert.cycle.transitions)
    for unroll in (1, 3):
        replay = RunPrefix(cert.stem.transitions + cert.cycle.transitions * unroll)
        assert run_prefix_valid(aut, replay, w1, w2).ok


def test_certificate_structure_and_replay():
    rng = random.Random(61)
    found = 0
    while found < 40:
        aut = random_two_tape(rng)
        w1 = random_lasso(rng, "01", 2, 2)
        w2 = random_lasso(rng, "01", 2, 2)
        out = accepts_lasso_pair(aut, w1, w2)
        if out.verdict is not Verdict.ACCEPTED:
            continue
        found += 1
        assert_fair_certificate(aut, out, w1, w2)


def test_decision_agrees_with_naive_oracle_random():
    rng = random.Random(67)
    for _ in range(150):
        aut = random_two_tape(rng)
        w1 = random_lasso(rng, "01", 2, 2)
        w2 = random_lasso(rng, "01", 2, 2)
        expected = nested_dfs_accepts_pair(aut, w1, w2)
        assert accepted(aut, w1, w2) == expected


def test_decision_exhaustive_small_lassos():
    # silent transitions and multi-letter labels, on every small lasso pair
    rng = random.Random(229)
    words = all_binary_lassos(1, 2)
    accepted_total = 0
    for _ in range(30):
        aut = random_two_tape(rng, max_transitions=10, labels=("", "0", "1", "01", "10"))
        for w1 in words:
            for w2 in words:
                out = accepts_lasso_pair(aut, w1, w2)
                verdict = out.verdict is Verdict.ACCEPTED
                expected = nested_dfs_accepts_pair(aut, w1, w2)
                assert verdict == expected, (aut, w1, w2)
                if verdict:
                    accepted_total += 1
                    assert_fair_certificate(aut, out, w1, w2)
    assert accepted_total > 500


def test_decision_invariant_under_redescription():
    rng = random.Random(71)
    for _ in range(60):
        aut = random_two_tape(rng)
        w1 = random_lasso(rng, "01", 2, 2)
        w2 = random_lasso(rng, "01", 2, 2)
        verdict = accepted(aut, w1, w2)
        w1b = LassoWord(w1.prefix + w1.period, w1.period)
        w2b = LassoWord(w2.prefix, w2.period * 3)
        assert accepted(aut, w1b, w2b) == verdict


def test_silent_self_loops_do_not_accept():
    # an accepting silent loop with a non-accepting consuming loop elsewhere
    aut = TwoTapeAutomaton(
        ("a", "b"),
        BINARY,
        BINARY,
        (T("a", "", "", "a"), T("a", "0", "0", "b"), T("b", "0", "0", "b")),
        "a",
        frozenset({"a"}),
    )
    w = LassoWord("", "0")
    assert not accepted(aut, w, w)


def test_one_tape_only_progress_does_not_accept():
    aut = TwoTapeAutomaton(
        ("a",), BINARY, BINARY, (T("a", "0", "", "a"),), "a", frozenset({"a"})
    )
    w = LassoWord("", "0")
    assert not accepted(aut, w, w)


def test_multi_letter_labels():
    aut = TwoTapeAutomaton(
        ("a", "b"),
        BINARY,
        BINARY,
        (T("a", "01", "0", "b"), T("b", "", "1", "a")),
        "a",
        frozenset({"b"}),
    )
    assert accepted(aut, LassoWord("", "01"), LassoWord("", "01"))
    assert not accepted(aut, LassoWord("", "0"), LassoWord("", "01"))
    assert nested_dfs_accepts_pair(aut, LassoWord("", "01"), LassoWord("", "01"))
    out = accepts_lasso_pair(aut, LassoWord("", "01"), LassoWord("", "01"))
    replay = RunPrefix(out.certificate.stem.transitions + out.certificate.cycle.transitions * 3)
    assert run_prefix_valid(aut, replay, LassoWord("", "01"), LassoWord("", "01")).ok


def test_multi_letter_labels_cross_period_boundary():
    # the three-letter label is read across the prefix/period seam:
    # "1" + (101)^w is the same word as (110)^w
    aut = TwoTapeAutomaton(
        ("a",), BINARY, BINARY, (T("a", "110", "0", "a"),), "a", frozenset({"a"})
    )
    zeros = LassoWord("", "0")
    assert accepted(aut, LassoWord("1", "101"), zeros)
    assert not accepted(aut, LassoWord("1", "10"), zeros)  # second chunk reads 101
    for w1 in (LassoWord("1", "101"), LassoWord("1", "10"), LassoWord("11", "011")):
        assert accepted(aut, w1, zeros) == nested_dfs_accepts_pair(aut, w1, zeros)


# -- shortcuts ahead of the product search ---------------------------------------


def final_states(aut, w1, w2) -> set:
    """Names of the states that are final for the periods of w1 and w2:
    accepting, with a self-loop for every letter of both periods.  Where
    the pair is not rejected at once, the liveness analysis finds them too."""
    final = {q for q in aut.accepting
             if all(T(q, a, "", q) in aut.transitions for a in w1.period)
             and all(T(q, "", b, q) in aut.transitions for b in w2.period)}
    analysis = _liveness(aut._compiled, w1.normal(), w2.normal())
    if analysis is not None:
        ids = state_ids(aut)
        assert analysis[0] == {ids[q] for q in final}
    return final


def state_ids(aut) -> dict:
    """State name -> id in the compiled form, for every transition target."""
    return {row[4].dst: row[2] for rs in aut._compiled.rows for row in rs}


def kept_rows(aut, w1, w2, q: int) -> list:
    """The rows of state id q in search order that the search can take for
    w1 and w2: labels over the words' letters, into live states."""
    _, rows, live = _liveness(aut._compiled, w1.normal(), w2.normal())
    letters1, letters2 = set(w1.prefix + w1.period), set(w2.prefix + w2.period)
    return [row for row in rows[q] if live[row[2]]
            and set(row[4].read1) <= letters1 and set(row[4].read2) <= letters2]


def plant_terminal(rng, aut, drop_one: bool = False):
    """aut with one random state made accepting and looping on every single
    letter of each tape, or on all but one of those letters."""
    q = rng.choice(aut.states)
    loops = [T(q, a, "", q) for a in "01"] + [T(q, "", b, q) for b in "01"]
    if drop_one:
        loops.pop(rng.randrange(len(loops)))
    return TwoTapeAutomaton(
        aut.states, aut.sigma1, aut.sigma2, aut.transitions + tuple(loops),
        aut.initial, aut.accepting | {q},
    )


def ends_on_terminal_loops(out) -> bool:
    """The cycle loops on one state, and the stem ends on its loops too."""
    stem, cycle = out.certificate.stem.transitions, out.certificate.cycle.transitions
    q = cycle[0].src
    return all(t.src == t.dst == q for t in cycle + stem[-1:]) and bool(stem)


def test_planted_terminal_sweep_matches_nested_dfs():
    rng = random.Random(233)
    accepted_total = in_prefix = 0
    for i in range(700):
        aut = random_two_tape(rng, max_states=4, labels=("", "0", "1", "01"))
        aut = plant_terminal(rng, aut, drop_one=i % 5 == 0)
        w1 = random_lasso(rng, "01", 4, 3)
        w2 = random_lasso(rng, "01", 4, 3)
        out = accepts_lasso_pair(aut, w1, w2)
        expected = nested_dfs_accepts_pair(aut, w1, w2)
        assert (out.verdict is Verdict.ACCEPTED) == expected, (aut, w1, w2)
        if expected:
            accepted_total += 1
            assert_fair_certificate(aut, out, w1, w2)
            in_prefix += ends_on_terminal_loops(out)
    assert accepted_total > 200 and in_prefix > 20


def test_terminal_state_reached_inside_prefixes():
    # C3 reaches hot, a final state, after one tape-2 letter.  The turn
    # reads the rest of each prefix and nothing of a period one tape is
    # already in; the cycle then goes once round both periods.  Each of
    # hot's loops is written as its tape-1 label / its tape-2 label.
    cases = [
        # all of "A01" still ahead on tape 1, "0" on tape 2
        ("A01|0", "10|A", "A/ 0/ 1/ /0", "0/ /A"),
        # tape 1 in its prefix, tape 2 at the start of its period
        ("A01|0", "1|A", "A/ 0/ 1/", "0/ /A"),
        ("0A|1", "1|0A", "0/ A/", "1/ /0 /A"),
        # tape 1 at the start of its period, tape 2 in its prefix
        ("|A0", "10A|0", "/0 /A", "A/ 0/ /0"),
    ]
    for w1, w2, stem, cycle in cases:
        out = accepts_lasso_pair(c_automaton(3), lasso(w1), lasso(w2))
        assert out.verdict is Verdict.ACCEPTED
        loops = [T("hot", *label.split("/"), "hot") for label in (stem + " " + cycle).split()]
        k = len(stem.split())
        assert out.certificate.stem.transitions == (T("scan", "", "1", "hot"), *loops[:k]), w1
        assert out.certificate.cycle.transitions == tuple(loops[k:]), w1
        assert_fair_certificate(c_automaton(3), out, lasso(w1), lasso(w2))


def test_initial_terminal_state_accepts_at_once():
    loops = tuple(T("q", a, "", "q") for a in "01") + tuple(T("q", "", b, "q") for b in "01")
    aut = TwoTapeAutomaton(("q",), BINARY, BINARY, loops, "q", frozenset({"q"}))
    w1, w2 = LassoWord("011", "10"), LassoWord("", "0")
    out = accepts_lasso_pair(aut, w1, w2)
    assert out.certificate.stem.consumed1() == "011"
    assert out.certificate.cycle.consumed1() == "10"
    assert out.certificate.cycle.consumed2() == "0"
    assert_fair_certificate(aut, out, w1, w2)


def test_final_state_with_an_interior_exit_turns_at_once():
    # q is final but not corner-only: its exit reads 0 on both tapes, which
    # its loops read too.  It turns once round both periods where it
    # starts, so the cost stays linear in the period.
    loops = (T("q", "0", "", "q"), T("q", "1", "", "q"), T("q", "", "0", "q"), T("q", "", "1", "q"))
    aut = TwoTapeAutomaton(
        ("q", "r"), BINARY, BINARY, loops + (T("q", "0", "0", "r"),), "q", frozenset({"q"})
    )
    for n in (40, 160, 640):
        w = LassoWord("", "0" * (n - 1) + "1")
        out = accepts_lasso_pair(aut, w, w)
        assert out.verdict is Verdict.ACCEPTED
        assert out.certificate.stem.transitions == ()
        assert out.certificate.cycle.transitions == (
            (loops[0],) * (n - 1) + (loops[1],) + (loops[2],) * (n - 1) + (loops[3],)
        )
        assert_fair_certificate(aut, out, w, w)
        if n <= 160:
            assert nested_dfs_accepts_pair(aut, w, w)


def test_complement_pieces_accept_through_their_terminal_state():
    cases = {
        2: (lasso("0|A"), lasso("A0A|00A")),
        3: (lasso("|A0"), lasso("0|1")),
        4: (lasso("A0A|0A"), lasso("A0A|00A")),
        5: (lasso("A0A|0A"), lasso("A0A|000A")),
    }
    sinks = {2: "sink", 3: "hot", 4: "tail", 5: "tail"}
    for j, (w1, w2) in cases.items():
        aut = c_automaton(j)
        assert final_states(aut, w1, w2) == {sinks[j]}
        out = accepts_lasso_pair(aut, w1, w2)
        assert out.verdict is Verdict.ACCEPTED, j
        assert {(t.src, t.dst) for t in out.certificate.cycle.transitions} == {(sinks[j],) * 2}
        assert_fair_certificate(aut, out, w1, w2)
    # no accepting state loops on single letters
    assert not any(acc for _, _, acc, _ in loop_summary(automaton_T()).values())


def test_c1_accepts_through_the_drop_state_of_the_finite_tape():
    # drop1 loops on 0 and 1 of tape 1 and on every letter of tape 2, so it
    # is final exactly when period 1 has no A; drop2 likewise for tape 2
    c1 = c_automaton(1)
    assert final_states(c1, lasso("A|01"), lasso("A|10")) == {"drop1", "drop2"}
    assert final_states(c1, lasso("A|01"), lasso("|A0")) == {"drop1"}
    assert final_states(c1, lasso("|A0"), lasso("A1|0")) == {"drop2"}
    assert final_states(c1, lasso("|A0"), lasso("|A1")) == set()
    w1, w2 = lasso("A0A00A000A1|10"), lasso("A0A00A000A|0A00")
    for aut in (c1, r_automaton()):
        out = accepts_lasso_pair(aut, w1, w2)
        assert out.verdict is Verdict.ACCEPTED
        assert {t.src for t in out.certificate.cycle.transitions} <= {"drop1", "C1.drop1"}
        assert_fair_certificate(aut, out, w1, w2)
    # the FOUND pair of period 640, decided by the loops of drop1
    rng = random.Random(257)
    w1 = LassoWord("AA", "".join(rng.choice("01") for _ in range(640)))
    w2 = LassoWord("", "".join(rng.choice("000000000A") for _ in range(641)))
    out = accepts_lasso_pair(c1, w1, w2)
    assert out.verdict is Verdict.ACCEPTED
    assert_fair_certificate(c1, out, w1, w2)


def test_search_order_leads_to_the_final_states_of_the_pair():
    r = r_automaton()
    initial = r._compiled.initial

    def targets(w1: str, w2: str, kept: bool) -> list[str]:
        """Target states of R's initial rows in search order, or of those
        the search can take, without the union prefixes."""
        w1, w2 = lasso(w1), lasso(w2)
        rows = kept_rows(r, w1, w2, initial) if kept else _liveness(
            r._compiled, w1.normal(), w2.normal())[1][initial]
        return [row[4].dst.split(".")[-1] for row in rows]

    # As in both periods: no state of C1 or T is final, so both wait behind
    # the sinks of C2 and C3, in the order of their prefixed names
    order = targets("A0|0A", "A|0A", kept=False)
    assert order.index("sink") < order.index("hot") < order.index("pick") < order.index("q0")
    # the search takes none of C1, which is not live, nor hot, as tape 2 has no 1
    kept = targets("A0|0A", "A|0A", kept=True)
    assert "q0" in kept and "sink" in kept and not {"hot", "scan", "pick"} & set(kept)
    # no A in period 1: drop1 is final, so C1 comes before T
    for kept in (False, True):
        order = targets("A0|01", "A|0A", kept)
        assert order.index("drop1") < order.index("pick") < order.index("q0")


def test_states_missing_a_loop_letter_are_final_only_without_it():
    # q loops on 0 and 1 of tape 2 but only on 0 of tape 1
    aut = TwoTapeAutomaton(
        ("p", "q"), BINARY, BINARY,
        (T("p", "1", "", "q"), T("q", "0", "", "q"), T("q", "", "0", "q"), T("q", "", "1", "q")),
        "p", frozenset({"q"}),
    )
    assert final_states(aut, LassoWord("1", "0"), LassoWord("", "01")) == {"q"}
    assert final_states(aut, LassoWord("1", "01"), LassoWord("", "01")) == set()
    assert accepted(aut, LassoWord("10", "0"), LassoWord("", "01"))
    assert not accepted(aut, LassoWord("1", "01"), LassoWord("", "01"))
    assert not accepted(aut, LassoWord("11", "0"), LassoWord("", "0"))  # a 1 left in the prefix
    rng = random.Random(239)
    for _ in range(40):
        aut = plant_terminal(rng, random_two_tape(rng, labels=("0", "1")), drop_one=True)
        w1 = random_lasso(rng, "01", 2, 2)
        w2 = random_lasso(rng, "01", 2, 2)
        assert accepted(aut, w1, w2) == nested_dfs_accepts_pair(aut, w1, w2)
    # the one-tape embedding reads (ch, "0") on every edge, never a single-tape loop
    universal = BuchiAutomaton(
        ("s",), BINARY, (("s", "0", "s"), ("s", "1", "s")), "s", frozenset({"s"})
    )
    assert not loop_summary(universal._embedded)
    out = accepts_lasso_pair(universal._embedded, LassoWord("1", "01"), LassoWord("", "0"))
    assert_fair_certificate(universal._embedded, out, LassoWord("1", "01"), LassoWord("", "0"))


def skips_a_reachable_row(aut, w1, w2) -> bool:
    """Whether a row that fits the words leads out of the live states from
    a state reachable along fitting rows into live states."""
    initial, rows = aut._compiled.initial, aut._compiled.rows
    live = _liveness(aut._compiled, w1, w2)[2]
    seen, todo = {initial}, [initial]
    while todo:
        for row in kept_rows(aut, w1, w2, todo.pop()):
            if row[2] not in seen:
                seen.add(row[2])
                todo.append(row[2])
    letters1, letters2 = set(w1.prefix + w1.period), set(w2.prefix + w2.period)
    return any(not live[row[2]] for q in seen for row in rows[q]
               if set(row[4].read1) <= letters1 and set(row[4].read2) <= letters2)


def test_coverage_test_never_rejects_an_accepted_pair():
    # rejecting at once is sound, and so is skipping every row into a state
    # that is not live: where a reachable row is skipped the verdict agrees
    # with the nested DFS, and no certificate enters a state that is not live
    rng = random.Random(241)
    cut = pruned = pruned_accepted = 0
    for i in range(1200):
        aut = random_two_tape(rng, max_states=4, labels=("", "0", "1", "01"))
        if i % 3 == 0:
            aut = plant_terminal(rng, aut)
        w1 = random_lasso(rng, "01", 3, 3).normal()
        w2 = random_lasso(rng, "01", 3, 3).normal()
        analysis = _liveness(aut._compiled, w1, w2)
        if analysis is None:
            cut += 1
            assert not nested_dfs_accepts_pair(aut, w1, w2), (aut, w1, w2)
        elif skips_a_reachable_row(aut, w1, w2):
            pruned += 1
            out = accepts_lasso_pair(aut, w1, w2)
            expected = nested_dfs_accepts_pair(aut, w1, w2)
            assert (out.verdict is Verdict.ACCEPTED) == expected, (aut, w1, w2)
            if expected:
                pruned_accepted += 1
                assert_fair_certificate(aut, out, w1, w2)
                ids, live = state_ids(aut), analysis[2]
                run = out.certificate.stem.transitions + out.certificate.cycle.transitions
                assert all(live[ids[t.dst]] for t in run), (aut, w1, w2)
    assert cut > 500 and pruned > 50 and pruned_accepted > 20, (cut, pruned, pruned_accepted)


def test_coverage_test_rejects_before_the_product():
    rejected = [
        (automaton_T(), lasso("01|A0A00"), lasso("A|0A01")),  # T reads only 0 and A on tape 2
        (c_automaton(1), lasso("|A0A1"), lasso("0|1A")),  # As on both periods
        (c_automaton(3), lasso("1|A01"), lasso("A|0A")),  # no 1 on tape 2
    ]
    for aut, w1, w2 in rejected:
        assert _liveness(aut._compiled, w1.normal(), w2.normal()) is None
        assert not accepted(aut, w1, w2)
        assert not nested_dfs_accepts_pair(aut, w1, w2)
    # equal words pass the test for C4, and the search rejects them
    w = lasso("A0|A01A0")
    assert _liveness(c_automaton(4)._compiled, w.normal(), w.normal()) is not None
    assert not accepted(c_automaton(4), w, w)
    assert not nested_dfs_accepts_pair(c_automaton(4), w, w)


def test_coverage_memo_keys_on_prefix_letters():
    # hot covers the periods' letters but is reached only by reading a 1,
    # which these words have in a prefix at most
    def gated():
        return TwoTapeAutomaton(
            ("s", "hot"), BINARY, BINARY,
            (T("s", "1", "", "hot"), T("s", "", "1", "hot"), T("hot", "0", "0", "hot")),
            "s", frozenset({"hot"}),
        )

    pairs = [(lasso("1|0"), lasso("|0"), True), (lasso("|0"), lasso("1|0"), True),
             (lasso("|0"), lasso("|0"), False)]
    for order in itertools.permutations(pairs):
        aut = gated()  # one instance, so one memo, per order
        for w1, w2, expected in order:
            assert accepted(aut, w1, w2) == expected == nested_dfs_accepts_pair(aut, w1, w2)


def test_coverage_memo_across_prefix_letters_matches_nested_dfs():
    rng = random.Random(263)
    prefixes = ["", "0", "1", "01", "10", "11"]
    for i in range(300):
        aut = random_two_tape(rng, max_states=4, labels=("", "0", "1", "01"))
        if i % 3 == 0:
            aut = plant_terminal(rng, aut)
        period1, period2 = random_lasso(rng, "01", 0, 2).period, rng.choice(["0", "00", "01"])
        for _ in range(6):  # same period letters, prefix letters vary
            w1 = LassoWord(rng.choice(prefixes), period1)
            w2 = LassoWord(rng.choice(prefixes), period2)
            assert accepted(aut, w1, w2) == nested_dfs_accepts_pair(aut, w1, w2), (aut, w1, w2)


def test_shortcuts_against_nested_dfs_on_reference_automata():
    rng = random.Random(251)

    def word(n: int, k: int, fill: str = "01") -> str:
        places = set(rng.sample(range(n), k))
        return "".join("A" if i in places else rng.choice(fill) for i in range(n))

    pairs = [
        (r_automaton(), LassoWord("A0A", word(47, 6)), LassoWord("A1A", word(50, 7))),
        (r_automaton(), LassoWord("0", word(44, 6)), LassoWord("A1A01A", word(45, 7))),
        (r_automaton(), LassoWord("AAA", "0" * 40 + "A"), LassoWord("A", "0" * 41 + "A")),
        (automaton_T(), LassoWord("01", word(52, 5)), LassoWord("10", "1" + word(55, 6, "0"))),
        (automaton_T(), LassoWord("A0A", word(48, 5)), LassoWord("A0A", word(49, 5, "0"))),
        (c_automaton(1), LassoWord("", word(60, 9)), LassoWord("", word(58, 8))),
        (c_automaton(1), LassoWord("AA", word(50, 0)), LassoWord("", word(53, 8))),
    ]
    verdicts = []
    for aut, w1, w2 in pairs:
        out = accepts_lasso_pair(aut, w1, w2)
        verdicts.append(out.verdict is Verdict.ACCEPTED)
        assert verdicts[-1] == nested_dfs_accepts_pair(aut, w1, w2), (w1, w2)
        if verdicts[-1]:
            assert_fair_certificate(aut, out, w1, w2)
    assert verdicts == [True, True, True, False, False, False, True]


def test_nested_dfs_matches_stored_reference_verdicts():
    # the C1 verdicts come from C1's characterisation, not from any oracle,
    # so this checks the oracle against an independent source at periods 81-158
    path = Path(__file__).resolve().parent.parent / "bench" / "reference_reject.json"
    operands = json.loads(path.read_text())["operands"]
    automata = {"T": automaton_T(), "C1": c_automaton(1), "C3": c_automaton(3), "C4": c_automaton(4)}
    assert operands.keys() == automata.keys()
    for op, entries in operands.items():
        for entry in entries[:2]:
            w1, w2 = lasso(entry["w1"]), lasso(entry["w2"])
            stored = entry["verdict"] == "accepted"
            assert nested_dfs_accepts_pair(automata[op], w1, w2) == stored, (op, entry)
            assert accepted(automata[op], w1, w2) == stored, (op, entry)


def test_r_at_period_640_accepts_with_certificate():
    w1 = LassoWord("AAA", "0" * 640 + "A")
    w2 = LassoWord("A", "0" * 641 + "A")
    out = accepts_lasso_pair(r_automaton(), w1, w2)
    assert out.verdict is Verdict.ACCEPTED
    assert_fair_certificate(r_automaton(), out, w1, w2)


def test_ladder_pair_accepts_without_entering_c3():
    # C4 accepts: the compared second blocks differ in length.  C3's scan
    # loops on both tapes and leaves for hot only on a 1 of tape 2, which
    # these words lack, so its rectangle, quadratic in n, is not live
    n = 400
    w1 = LassoWord("A0A00A", "0" * n + "A" + "0" * (n + 1) + "A")
    w2 = LassoWord("A0A00A", "0" * (n - 1) + "A" + "0" * n + "A")
    for aut in (r_automaton(), r2_automaton()):
        out = accepts_lasso_pair(aut, w1, w2)
        assert out.verdict is Verdict.ACCEPTED
        assert_fair_certificate(aut, out, w1, w2)
    r = r_automaton()
    kept = [row[4].dst for row in kept_rows(r, w1, w2, r._compiled.initial)]
    assert kept and not any(q.startswith("C3.") for q in kept)  # no state of C3


def test_accepting_cycle_stays_in_one_operand_that_accepts_alone(monkeypatch):
    # a cycle of R lies in one operand, as nothing enters u0; that operand
    # alone accepts the pair, and a complement piece's condition holds
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parent.parent / "bench"))
    from workloads import build

    pairs = [(lasso(op.args["w1"]), lasso(op.args["w2"]))
             for seed in (1, 2, 3)
             for ops in build("member-R", seed, None, None).ops.values() for op in ops]
    rng = random.Random(337)
    pairs += [(random_gamma_lasso(rng), random_gamma_lasso(rng)) for _ in range(300)]

    def blocks(zeros_or_ones):  # a conforming opening, then blocks of 0 to 3 letters
        return lasso("A0A00A|" + "".join(
            rng.choice(zeros_or_ones) * rng.randint(0, 3) + "A" for _ in range(rng.randint(1, 3))))

    # As in every period, a conforming opening and no 1 on tape 2 rule out
    # C1, C2 and C3, so C4 or C5 accepts
    pairs += [(blocks("01"), blocks("0")) for _ in range(150)]
    operands, seen = r_operands(), set()
    for w1, w2 in pairs:
        out = accepts_lasso_pair(r_automaton(), w1, w2)
        if out.verdict is not Verdict.ACCEPTED:
            continue
        cycle = out.certificate.cycle.transitions
        (name,) = {q.split(".")[0] for t in cycle for q in (t.src, t.dst)}
        seen.add(name)
        assert accepted(operands[name], w1, w2), (name, w1, w2)
        assert name == "T" or c_condition_holds(int(name[1:]), w1, w2), (name, w1, w2)
    # every piece closes some cycle; on lassos the search never ends in T first
    assert seen == {"C1", "C2", "C3", "C4", "C5"}


# -- rectangle jumps -----------------------------------------------------------


def loop_summary(aut) -> dict:
    """The compiled loop summary: state id -> (tape-1 loops, tape-2 loops,
    ACC if accepting else 0, corner-only)."""
    return aut._compiled.loops


def loop_summary_by_name(aut) -> dict:
    """The loop summary recomputed by state name from ``aut.transitions``:
    name -> (tape-1 loop letters, tape-2 loop letters, accepting,
    corner-only), for the states that loop on single letters of either
    tape.  One rule makes a state corner-only: on each tape where it has
    loop letters, every other transition leaving it reads a first letter
    there, and that letter is not one of them."""
    out = {}
    for q in aut.states:
        loops = {t for t in aut.transitions if t.src == t.dst == q and len(t.read1 + t.read2) == 1}
        l1 = {t.read1 for t in loops if t.read1}
        l2 = {t.read2 for t in loops if t.read2}
        if l1 or l2:
            exits = [t for t in aut.transitions if t.src == q and t not in loops]
            corner = all(t[tape][:1] not in letters | {""}
                         for tape, letters in ((1, l1), (2, l2)) if letters for t in exits)
            out[q] = l1, l2, q in aut.accepting, corner
    return out


def loop_state(loops1: dict, loops2: dict) -> str:
    """The name of the state of a compiled loop summary entry, from its
    first loop on either tape."""
    return next(iter({**loops1, **loops2}.values())).src


def test_compiled_loop_summary_matches_one_recomputed_by_name():
    rng = random.Random(293)
    automata = [automaton_T(), *map(c_automaton, range(1, 6)), r2_automaton(), r_automaton()]
    for i in range(500):
        aut = random_two_tape(rng, max_states=4, labels=("", "0", "1", "A", "0A"))
        for _ in range(rng.randint(1, 3)):
            aut, _ = plant_corner(rng, aut, interior=rng.random() < 0.4, one_sided=0.3)
        automata.append(aut)
    corners = interior = segments = 0
    for aut in automata:
        got = {}
        for loops1, loops2, acc, corner in loop_summary(aut).values():
            q = loop_state(loops1, loops2)
            assert all(t == T(q, a, "", q) for a, t in loops1.items())
            assert all(t == T(q, "", b, q) for b, t in loops2.items())
            got[q] = set(loops1), set(loops2), bool(acc), corner
        assert got == loop_summary_by_name(aut), aut
        corners += sum(c for *_, c in got.values())
        interior += sum(not c for *_, c in got.values())
        # corner-only states that loop on one tape only
        segments += sum(c and not (l1 and l2) for l1, l2, _, c in got.values())
        # the compiled reverse edges list each row once, under its target
        rows, back = aut._compiled.rows, aut._compiled.back
        assert sorted((d, src) for d, srcs in back.items() for src in srcs) == sorted(
            (row[2], src) for src, rs in enumerate(rows) for row in rs)
    assert corners > 400 and interior > 250 and segments > 150, (corners, interior, segments)
    for i in range(400):
        aut = random_two_tape(rng, max_states=4, labels=("", "0", "1", "A", "0A"))
        aut, _ = plant_lockstep(rng, aut, firing=i % 3 == 0)
        if i % 2:
            aut, _ = plant_corner(rng, aut, interior=False)
        automata.append(aut)
    lockstep = held_back = 0
    for aut in automata:
        got = {}
        for l1, l2, pairs, acc in aut._compiled.lockstep.values():
            q = next(iter(pairs.values())).src
            assert pairs == {(a, b): T(q, a, b, q) for a in l1 for b in l2}
            got[q] = set(l1), set(l2), bool(acc)
        by_name = lockstep_by_name(aut)
        assert got == {q: v[:3] for q, v in by_name.items() if v[3]}, aut
        lockstep += len(got)
        held_back += len(by_name) - len(got)
    assert lockstep > 250 and held_back > 100, (lockstep, held_back)


def corner_states(aut) -> set:
    """Names of the corner-only states of aut."""
    return {loop_state(loops1, loops2)
            for loops1, loops2, _, corner in loop_summary(aut).values() if corner}


def test_corner_only_states_of_reference_automata():
    assert corner_states(automaton_T()) == {"q0"}
    assert corner_states(c_automaton(1)) == {"drop1", "drop2"}
    assert corner_states(c_automaton(2)) == {"sink"}
    assert corner_states(c_automaton(3)) == {"hot"}
    # more1, more2, skip, lag2 and lead1b loop on one tape only, and every
    # exit of theirs reads an A there: their rectangles are segments
    assert corner_states(c_automaton(4)) == {"blocks", "more1", "more2", "tail"}
    assert corner_states(c_automaton(5)) == {"blocks", "skip", "lag2", "lead1b", "tail"}
    r = r_automaton()
    assert corner_states(r) == set(r.states) & {
        f"{name}.{q}" for name, aut in r_operands().items() for q in corner_states(aut)}
    # pick and scan have exits that read on one tape only, and T's q1 loops
    # on tape 1 only but leaves it silently, at every letter
    for aut, name in ((c_automaton(1), "pick"), (c_automaton(3), "scan"), (automaton_T(), "q1")):
        assert name in loop_summary_by_name(aut) and name not in corner_states(aut)


def run_lengths(w: LassoWord, letters: str) -> list:
    """``_run_length`` at every position of the normal form of w, for the
    positions of its text whose letters are outside letters and the start
    from which w reads on letters forever (None where its period leaves
    them)."""
    w = w.normal()
    text = w.prefix + w.period
    stops = [p for p, ch in enumerate(text) if ch not in letters]
    start = len(w.prefix.rstrip(letters)) if set(w.period) <= set(letters) else None
    return [_run_length(stops, len(text), len(w.prefix), p, start) for p in range(len(text))]


def test_next_outside_wraps_in_the_period():
    w = LassoWord("0A", "0010")  # normal form: positions 0-1 prefix, 2-5 period
    assert run_lengths(w, "0") == [1, 0, 2, 1, 0, 3]
    assert run_lengths(w, "0A") == [4, 3, 2, 1, 0, 3]
    assert run_lengths(LassoWord("1", "0"), "0") == [0, math.inf]
    # the period never leaves the letters, and the prefix does at A only
    assert run_lengths(LassoWord("A1", "0"), "01") == [0, math.inf, math.inf]
    # the endless run starts inside the prefix, after its last outside letter
    assert LassoWord("A1A10", "0").normal() == LassoWord("A1A1", "0")
    assert run_lengths(LassoWord("A1A10", "0"), "01") == [0, 1, 0, math.inf, math.inf]
    # against the letters read one by one, up to the end of the second period
    rng = random.Random(23)
    for _ in range(300):
        w = random_lasso(rng, "01A", 4, 6).normal()
        letters = "".join(sorted(rng.sample("01A", rng.randint(1, 2))))
        n = len(w.prefix) + len(w.period)
        read = w.prefix_of(n + len(w.period))
        want = [next((k for k in range(n + len(w.period) - p) if read[p + k] not in letters),
                     math.inf) for p in range(n)]
        assert run_lengths(w, letters) == want, (w, letters)
    # the position that many letters on
    assert [_advance(5, k, 6, 2) for k in (0, 1, 2, 3, 4, 401)] == [5, 2, 3, 4, 5, 2]
    assert _advance(0, 3, 6, 2) == 3


def plant_corner(rng, aut, interior: bool, one_sided: float = 0.0):
    """aut over GAMMA with one random state q made corner-only: its
    transitions replaced by loops on letters L1 of tape 1 and L2 of tape 2,
    one of them empty with chance one_sided, and by exits whose labels
    start outside L1 and L2, or read anything on a tape where q has no
    loops; with interior, one more exit that breaks the rule on a tape
    where q loops, its label there empty or starting inside the loop
    letters, so that q is not corner-only."""
    q = rng.choice(aut.states)
    l1, l2 = (rng.sample("01A", rng.choice((1, 2, 2))) for _ in range(2))
    if one_sided and rng.random() < one_sided:  # a segment, not a rectangle
        l1, l2 = rng.choice(((l1, []), ([], l2)))
    out1, out2 = ("".join(a for a in "01A" if a not in ls) for ls in (l1, l2))

    def label(first: str) -> str:
        return rng.choice(first) + rng.choice(("", "", "", "0", "A"))

    def exit_label(ls: list, out: str) -> str:
        return label(out) if ls else rng.choice(("", label("01A")))

    rows = [T(q, a, "", q) for a in l1] + [T(q, "", b, q) for b in l2]
    if out1 and out2:
        for _ in range(rng.randint(1, 3)):
            read1, read2, dst = exit_label(l1, out1), exit_label(l2, out2), rng.choice(aut.states)
            if dst == q and len(read1 + read2) == 1:  # never a loop
                read1, read2 = read1 and read1 + "0", read2 and read2 + "0"
            rows.append(T(q, read1, read2, dst))
    if interior:
        others = [s for s in aut.states if s != q] or [q]
        one_tape = (label("01A") + ("0" if others == [q] else ""), "")  # never a loop
        breaks = [(one_tape, l2), (one_tape[::-1], l1),
                  ((label(l1 or "0"), label("01A")), l1), ((label("01A"), label(l2 or "0")), l2)]
        inside = rng.choice([row for row, ls in breaks if ls])
        rows.append(T(q, *inside, rng.choice(others)))
    accepting = aut.accepting | {q} if rng.random() < 0.5 else aut.accepting - {q}
    transitions = tuple(t for t in aut.transitions if t.src != q) + tuple(rows)
    return TwoTapeAutomaton(aut.states, GAMMA, GAMMA, transitions, aut.initial, accepting), q


def test_planted_corner_sweep_matches_nested_dfs():
    # a tenth of the planted states get an interior exit; jumping them too
    # gives wrong verdicts here
    rng = random.Random(271)
    accepted_total = through_corner = 0
    for i in range(2500):
        aut = random_two_tape(rng, max_states=3, labels=("", "0", "1", "A"))
        for _ in range(rng.randint(0, 2)):  # more planted states, unless overwritten
            aut, _ = plant_corner(rng, aut, interior=False)
        aut, q = plant_corner(rng, aut, interior=i % 10 == 0)
        assert (q in corner_states(aut)) == (i % 10 != 0), aut
        w1, w2 = random_gamma_lasso(rng, 3, 4), random_gamma_lasso(rng, 3, 4)
        out = accepts_lasso_pair(aut, w1, w2)
        expected = nested_dfs_accepts_pair(aut, w1, w2)
        assert (out.verdict is Verdict.ACCEPTED) == expected, (aut, w1, w2)
        if expected:
            accepted_total += 1
            assert_fair_certificate(aut, out, w1, w2)
            run = out.certificate.stem.transitions + out.certificate.cycle.transitions
            through_corner += any(t.src == q != t.dst for t in run)
    assert accepted_total > 150 and through_corner > 25, (accepted_total, through_corner)


def words_of_a_run(rng, aut, steps: int):
    """A word pair that aut accepts, read off a random walk from its
    initial state: the labels of the walk up to the last visit of a state
    and of the cycle back to it, once the cycle reads on both tapes and
    enters an accepting state; None where no walk of that many steps
    closes such a cycle."""
    here, walk, seen = aut.initial, [], {aut.initial: 0}
    for _ in range(steps):
        if not aut.transitions_from(here):
            return None
        walk.append(rng.choice(aut.transitions_from(here)))
        here = walk[-1].dst
        if here in seen:
            stem, cycle = walk[:seen[here]], walk[seen[here]:]
            reads = ["".join(t[tape] for t in part) for tape in (1, 2) for part in (stem, cycle)]
            if reads[1] and reads[3] and any(t.dst in aut.accepting for t in cycle):
                return LassoWord(*reads[:2]), LassoWord(*reads[2:])
        seen[here] = len(walk)
    return None


def test_planted_one_sided_sweep_matches_nested_dfs():
    # Every planted state loops on one tape only; a tenth get an exit that
    # breaks the rule on that tape, and jumping them too gives wrong
    # verdicts here.  Words read off a run are accepted, and one letter
    # changed in them gives near misses, which random words rarely give.
    rng = random.Random(331)
    accepted_total = through_segment = near_misses = 0
    for i in range(3000):
        aut = random_two_tape(rng, max_states=3, labels=("", "0", "1", "A"))
        for _ in range(rng.randint(0, 2)):  # more planted states, unless overwritten
            aut, _ = plant_corner(rng, aut, interior=False, one_sided=1.0)
        aut, q = plant_corner(rng, aut, interior=i % 10 == 0, one_sided=1.0)
        l1, l2, _, corner = loop_summary_by_name(aut)[q]
        assert not (l1 and l2) and (q in corner_states(aut)) == corner == (i % 10 != 0), aut
        words = words_of_a_run(rng, aut, 30)
        changed = words is not None and i % 3 == 0
        if changed:
            texts = [words[0].prefix, words[0].period, words[1].prefix, words[1].period]
            k = rng.choice([k for k, text in enumerate(texts) if text])
            j = rng.randrange(len(texts[k]))
            texts[k] = texts[k][:j] + rng.choice("01A".replace(texts[k][j], "")) + texts[k][j + 1:]
            words = LassoWord(*texts[:2]), LassoWord(*texts[2:])
        w1, w2 = words or (random_gamma_lasso(rng, 3, 4), random_gamma_lasso(rng, 3, 4))
        out = accepts_lasso_pair(aut, w1, w2)
        expected = nested_dfs_accepts_pair(aut, w1, w2)
        assert (out.verdict is Verdict.ACCEPTED) == expected, (aut, w1, w2)
        near_misses += changed and not expected
        if expected:
            accepted_total += 1
            assert_fair_certificate(aut, out, w1, w2)
            # q is corner-only, so its loops in the certificate come from jumps
            run = out.certificate.stem.transitions + out.certificate.cycle.transitions
            through_segment += corner and any(
                t.src == t.dst == q and len(t.read1 + t.read2) == 1 for t in run)
    assert accepted_total > 800 and through_segment > 350 and near_misses > 250, (
        accepted_total, through_segment, near_misses)


def test_jumps_accept_block_comparisons_with_certificates():
    # C4: the compared second blocks differ in length; T: (w, 0^n A) with a
    # period of n + 1 letters and one A, accepted through q4 without a final state
    for n in (20, 45, 160):
        c4_pair = (LassoWord("A", "A" + "0" * n + "A" + "0" * (n - 1)),
                   LassoWord("A", "A" + "0" * (n - 1) + "A" + "0" * n))
        t_pair = (LassoWord("A0", "0" * (n // 2) + "A" + "1" * (n - n // 2)),
                  LassoWord("", "0" * n + "A"))
        for aut, (w1, w2) in ((c_automaton(4), c4_pair), (automaton_T(), t_pair)):
            assert nested_dfs_accepts_pair(aut, w1, w2), (n, w1, w2)
            out = accepts_lasso_pair(aut, w1, w2)
            assert out.verdict is Verdict.ACCEPTED, (n, w1, w2)
            assert_fair_certificate(aut, out, w1, w2)


def test_block_comparison_pieces_against_nested_dfs_up_to_period_160():
    rng = random.Random(277)

    def word(n: int, k: int, fill: str = "01") -> str:
        places = set(rng.sample(range(n), k))
        return "".join("A" if i in places else rng.choice(fill) for i in range(n))

    verdicts = []
    for n in (20, 60, 160):
        same = LassoWord("A" + word(3, 0), "A" + word(n - 1, 0))
        pairs = [
            (c_automaton(4), same, same),
            (c_automaton(4), LassoWord("A0", word(n, 3)), LassoWord("A0", word(n, 3))),
            (c_automaton(5), LassoWord("A", word(n, 2)), LassoWord("A", word(n + 1, 2))),
            (c_automaton(5), same, same),
            (automaton_T(), LassoWord("0", word(n + 1, 1)), LassoWord("", "0" * n + "A")),
            (automaton_T(), LassoWord("0", word(n, 1)), LassoWord("", "0" * n + "A")),
        ]
        for aut, w1, w2 in pairs:
            out = accepts_lasso_pair(aut, w1, w2)
            verdicts.append(out.verdict is Verdict.ACCEPTED)
            assert verdicts[-1] == nested_dfs_accepts_pair(aut, w1, w2), (n, w1, w2)
            if verdicts[-1]:
                assert_fair_certificate(aut, out, w1, w2)
    assert 6 <= sum(verdicts) <= len(verdicts) - 6


# -- lockstep jumps ------------------------------------------------------------


def first_reads_by_walk(aut, state: str, tape: int) -> set:
    """The letters that the first read of the given tape (1 or 2) can be on
    a path from state: a walk along the transitions whose label on that
    tape is empty, collecting the first letters of the non-empty ones."""
    seen, todo, letters = {state}, [state], set()
    while todo:
        for t in aut.transitions_from(todo.pop()):
            if t[tape]:
                letters.add(t[tape][0])
            elif t.dst not in seen:
                seen.add(t.dst)
                todo.append(t.dst)
    return letters


def lockstep_by_name(aut) -> dict:
    """The lockstep candidates recomputed by state name from the
    transitions: name -> (tape-1 letters L1, tape-2 letters L2, accepting,
    lockstep), for the states with a self-loop (a, b) for every a in L1
    and b in L2; lockstep when each of the state's other transitions has
    a first tape-1 read outside L1 or a first tape-2 read outside L2."""
    out = {}
    for q in aut.states:
        pairs = {(t.read1, t.read2) for t in aut.transitions_from(q)
                 if t.dst == q and len(t.read1) == len(t.read2) == 1}
        l1, l2 = {a for a, _ in pairs}, {b for _, b in pairs}
        if not pairs or pairs != set(itertools.product(l1, l2)):
            continue

        def first(t, tape):
            return {t[tape][0]} if t[tape] else first_reads_by_walk(aut, t.dst, tape)

        others = [t for t in aut.transitions_from(q) if t.dst != q or (t.read1, t.read2) not in pairs]
        inert = all(not first(t, 1) & l1 or not first(t, 2) & l2 for t in others)
        out[q] = l1, l2, q in aut.accepting, inert
    return out


def lockstep_states(aut) -> set:
    """Names of the lockstep states of aut."""
    return {next(iter(pairs.values())).src for _, _, pairs, _ in aut._compiled.lockstep.values()}


def test_lockstep_states_of_reference_automata():
    assert lockstep_states(automaton_T()) == {"q2", "q3"}
    assert lockstep_states(c_automaton(4)) == lockstep_states(c_automaton(5)) == {"cmp"}
    assert not any(lockstep_states(c_automaton(j)) for j in (1, 2, 3))
    r = r_automaton()
    assert lockstep_states(r) == set(r.states) & {
        f"{name}.{q}" for name, aut in r_operands().items() for q in lockstep_states(aut)}
    # q3's exits wait for an A on tape 2, through q4 or q5
    assert first_reads_by_walk(automaton_T(), "q4", 2) == first_reads_by_walk(
        automaton_T(), "q5", 2) == {"A"}
    # q1 and skip loop on one tape only: a run on their loops can leave at every letter
    for aut, name in ((automaton_T(), "q1"), (c_automaton(5), "skip")):
        assert name not in lockstep_states(aut) and name not in lockstep_by_name(aut)


def plant_lockstep(rng, aut, firing: bool):
    """aut over GAMMA with one random state q given a self-loop (a, b) for
    every a in L1 and b in L2 in place of its transitions, and random
    exits, none of them one more such loop, kept where inert by
    first_reads_by_walk; with firing, one more exit whose first reads are
    in L1 and L2, so that q is not lockstep.  Dropping exits of q, or
    adding that one, gives the walk no new letter for the kept exits, so
    they stay inert."""
    q = rng.choice(aut.states)
    l1, l2 = (rng.sample("01A", rng.choice((1, 2, 2))) for _ in range(2))
    labels = ("", "", "0", "1", "A", "0A", "A1")
    loops = tuple(T(q, a, b, q) for a in l1 for b in l2)
    exits = dict.fromkeys(T(q, rng.choice(labels), rng.choice(labels), rng.choice(aut.states))
                          for _ in range(rng.randint(1, 4)))
    rest = tuple(t for t in aut.transitions if t.src != q) + loops
    draft = TwoTapeAutomaton(aut.states, GAMMA, GAMMA, rest + tuple(exits), aut.initial,
                             aut.accepting)

    def misses(t, tape, letters) -> bool:
        first = {t[tape][0]} if t[tape] else first_reads_by_walk(draft, t.dst, tape)
        return not first & set(letters)

    kept = tuple(t for t in exits if (misses(t, 1, l1) or misses(t, 2, l2))
                 and not (t.dst == q and len(t.read1) == len(t.read2) == 1))
    if firing:
        a, b = rng.choice(l1), rng.choice(l2)
        kept += (rng.choice([T(q, a + "0", b, rng.choice(aut.states)), T(q, a, "", q),
                             T(q, "", b, q), T(q, "", "", q)]),)
    accepting = aut.accepting | {q} if rng.random() < 0.5 else aut.accepting - {q}
    return TwoTapeAutomaton(aut.states, GAMMA, GAMMA, rest + kept, aut.initial, accepting), q


def test_planted_lockstep_sweep_matches_nested_dfs():
    # a tenth of the planted states get an exit that fires inside the run;
    # jumping them too gives wrong verdicts here
    rng = random.Random(313)
    accepted_total = through_lockstep = 0
    for i in range(4000):
        aut = random_two_tape(rng, max_states=3, labels=("", "0", "1", "A"))
        aut, q = plant_lockstep(rng, aut, firing=i % 10 == 0)
        assert (q in lockstep_states(aut)) == (i % 10 != 0), aut
        l1, l2, _, _ = lockstep_by_name(aut)[q]
        # words weighted towards q's loop letters, so that its runs are long
        w1, w2 = (random_lasso(rng, "".join(sorted(ls)) * 3 + "01A", 3, 5) for ls in (l1, l2))
        out = accepts_lasso_pair(aut, w1, w2)
        expected = nested_dfs_accepts_pair(aut, w1, w2)
        assert (out.verdict is Verdict.ACCEPTED) == expected, (aut, w1, w2)
        if expected:
            accepted_total += 1
            assert_fair_certificate(aut, out, w1, w2)
            # some period leaves the loop letters, so q's pair loops in the
            # certificate come from lockstep jumps, not from stepping
            run = out.certificate.stem.transitions + out.certificate.cycle.transitions
            leaves = set(w1.period) - l1 or set(w2.period) - l2
            through_lockstep += i % 10 != 0 and bool(leaves) and any(
                t.src == t.dst == q and len(t.read1) == len(t.read2) == 1 for t in run)
    assert accepted_total > 300 and through_lockstep > 40, (accepted_total, through_lockstep)


def test_lockstep_jumps_wrap_in_both_periods_at_period_400():
    # q compares {0,1} against {0,1}; an A on tape 1 leads through r (with
    # an A on tape 2 too) or s (without) back to q.  Each jump crosses up
    # to a period of 400-405 letters and wraps on one tape or both, or on
    # a tape that never leaves q's letters, many times round its period.
    aut = TwoTapeAutomaton(
        ("q", "r", "s"), GAMMA, GAMMA,
        tuple(T("q", a, b, "q") for a in "01" for b in "01")
        + (T("q", "A", "A", "r"), T("q", "A", "", "s"), T("r", "", "", "q"), T("s", "", "", "q")),
        "q", frozenset({"r", "s"}),
    )
    assert lockstep_states(aut) == {"q"}
    rng = random.Random(5)

    def word(n: int, k: int) -> str:
        places = set(rng.sample(range(n), k))
        return "".join("A" if i in places else rng.choice("01") for i in range(n))

    block = "0" * 399 + "A"
    pairs = [
        ("|" + block, "|0110100"),  # tape 2 never leaves: 57 turns of it per jump
        ("|" + block, "|" + "1" * 399 + "A" + block),  # the As meet every block
        ("|" + block, "|" + "1" * 400 + "A"),  # they drift apart
        ("|" + word(401, 0), "|" + "0" * 402 + "A"),  # tape 1 never leaves
    ]
    for _ in range(4):
        pairs.append((word(3, 1) + "|" + word(rng.randint(400, 405), rng.randint(1, 3)),
                      word(2, 0) + "|" + word(rng.randint(400, 405), rng.randint(0, 2))))
    verdicts = []
    for text1, text2 in pairs:
        w1, w2 = lasso(text1), lasso(text2)
        out = accepts_lasso_pair(aut, w1, w2)
        verdicts.append(out.verdict is Verdict.ACCEPTED)
        assert verdicts[-1] == nested_dfs_accepts_pair(aut, w1, w2), (w1, w2)
        if verdicts[-1]:
            assert_fair_certificate(aut, out, w1, w2)
    assert verdicts == [True, True, False, False, True, False, True, False]


def test_on_demand_reads_at_long_periods_match_nested_dfs(monkeypatch):
    # Periods of 400-470 letters, read by labels of up to two letters that
    # cross the end of a period, and by planted corner-only or lockstep
    # states whose runs wrap in it.  One state copies tape 1 onto tape 2,
    # letter by letter or two at a time, and tape 2 is tape 1, a rotation
    # of it or another word, so that the search goes round the periods.
    reads = {"label across the wrap": 0, "run end past the last stop": 0}
    twotape_read, twotape_run_length = twotape._read, twotape._run_length

    def read(text, lp, label, p):
        reads["label across the wrap"] += p + len(label) > len(text)
        return twotape_read(text, lp, label, p)

    def run_length(stops, n, lp, p, start):
        reads["run end past the last stop"] += (start is None or p < start) and p > stops[-1]
        return twotape_run_length(stops, n, lp, p, start)

    monkeypatch.setattr(twotape, "_read", read)
    monkeypatch.setattr(twotape, "_run_length", run_length)
    rng = random.Random(51)
    labels = ("", "0", "1", "A", "0A", "A1", "01", "10", "00")
    verdicts = []
    for i in range(60):
        aut = random_two_tape(rng, max_states=3, labels=labels)
        aut = TwoTapeAutomaton(aut.states, GAMMA, GAMMA, aut.transitions, aut.initial,
                               aut.accepting)
        aut, _ = plant_corner(rng, aut, False) if i % 2 else plant_lockstep(rng, aut, False)
        q = rng.choice(aut.states)
        copy = [T(q, a, a, q) for a in "01A"] + [T(q, x, x, q) for x in rng.sample(labels[4:], 2)]
        aut = TwoTapeAutomaton(aut.states, GAMMA, GAMMA, aut.transitions + tuple(copy),
                               aut.initial, aut.accepting | {q} if rng.random() < 0.7
                               else aut.accepting)
        n = rng.randint(400, 440)
        mix = rng.choice(("01A", "001A", "0111A", "000001A"))
        period = "".join(rng.choice(mix) for _ in range(n)) + rng.choice("01") * rng.randint(5, 30)
        prefix = "".join(rng.choice("01A") for _ in range(rng.randint(0, 3)))
        w1 = LassoWord(prefix, period)
        r = rng.randrange(n)
        other = "".join(rng.choice(mix) for _ in range(rng.randint(400, 440)))
        w2 = rng.choice([w1, LassoWord(prefix[:1], period[r:] + period[:r]), LassoWord("", other)])
        out = accepts_lasso_pair(aut, w1, w2)
        verdicts.append(out.verdict is Verdict.ACCEPTED)
        assert verdicts[-1] == nested_dfs_accepts_pair(aut, w1, w2), (aut, w1, w2)
        if verdicts[-1]:
            assert_fair_certificate(aut, out, w1, w2)
    assert sum(verdicts) >= 12 and min(reads.values()) >= 20, (sum(verdicts), reads)


def test_run_ends_pass_each_letter_a_few_times_on_a_block_mismatch(monkeypatch):
    # T on (A|0^n A, A|0^(n+1) A): its lockstep states jump from every
    # position of the compared blocks, so a run-end lookup that scans from
    # the jump's position passes about n^2 letters in all.  Counted here
    # through ``re.finditer``, which lists the letters outside a set of
    # loop letters: each call passes the whole text.
    passed = [0]
    finditer = re.finditer

    def counted(pattern, text, *args):
        passed[0] += len(text)
        return finditer(pattern, text, *args)

    monkeypatch.setattr(re, "finditer", counted)
    n = 1600
    w1, w2 = LassoWord("A", "0" * n + "A"), LassoWord("A", "0" * (n + 1) + "A")
    assert accepts_lasso_pair(automaton_T(), w1, w2).verdict is Verdict.REJECTED
    assert 0 < passed[0] <= 4 * len(w1.letters() + w2.letters()), passed[0]


def test_one_sided_states_read_labels_a_fixed_number_of_times(monkeypatch):
    # C5 on equal words, A|0^n A 0^(n/2) A on both tapes: skip, lag2 and
    # lead1b loop on one tape only, so stepping them reads a label at
    # every letter of a block, while their segment jumps read the same
    # labels at every n.
    reads = [0]
    twotape_read = twotape._read

    def read(text, lp, label, p):
        reads[0] += 1
        return twotape_read(text, lp, label, p)

    monkeypatch.setattr(twotape, "_read", read)
    counts = []
    for n in (1600, 6400):
        reads[0] = 0
        w = LassoWord("A", "0" * n + "A" + "0" * (n // 2) + "A")
        out = accepts_lasso_pair(c_automaton(5), w, w)
        assert out.verdict is Verdict.ACCEPTED
        counts.append(reads[0])
    assert counts[1] <= counts[0] < 100, counts


def test_lockstep_jumps_read_no_labels_along_their_diagonal(monkeypatch):
    # T on (A|0^n A, A|0^(n+1) A): q1 guesses at every tape-1 position, and
    # each guess starts a lockstep run of q2 that jumps to its end.  A jump
    # that jumps is the only successor, so the configurations it leaves
    # read no labels of q2's rows: about four reads per position in all.
    reads = [0]
    twotape_read = twotape._read

    def read(text, lp, label, p):
        reads[0] += 1
        return twotape_read(text, lp, label, p)

    monkeypatch.setattr(twotape, "_read", read)
    for n in (1600, 6400):
        reads[0] = 0
        w1, w2 = LassoWord("A", "0" * n + "A"), LassoWord("A", "0" * (n + 1) + "A")
        assert accepts_lasso_pair(automaton_T(), w1, w2).verdict is Verdict.REJECTED
        assert reads[0] <= 4 * n + 10, (n, reads[0])


SILENT_WAYS = {
    # three steps silent on both tapes, then the first reads
    "chain": (T("q", "", "", "s1"), T("s1", "", "", "s2"), T("s2", "", "", "s3")),
    # a cycle silent on both tapes
    "cycle": (T("q", "", "", "s1"), T("s1", "", "", "s3"), T("s3", "", "", "s1")),
    # a cycle silent on tape 2 only, which reads 0 and 1 on tape 1
    "tape-2 cycle": (T("q", "", "", "s1"), T("s1", "0", "", "s3"), T("s3", "1", "", "s1")),
}


@pytest.mark.parametrize("read2, inert", [("A", True), ("0", False)])
@pytest.mark.parametrize("way", SILENT_WAYS)
def test_lockstep_guard_follows_silent_chains_and_cycles(way, read2, inert):
    # q compares {0,1} against {0}; its one exit reaches the first reads,
    # (0, read2) into the final state f, only through rows silent on a tape:
    # an A on tape 2 leaves q's letters, so q stays lockstep, while 0 on
    # both tapes fires inside its run and keeps it out
    loops = tuple(T("f", a, "", "f") for a in "01A") + tuple(T("f", "", b, "f") for b in "01A")
    aut = TwoTapeAutomaton(
        ("q", "s1", "s2", "s3", "f"), GAMMA, GAMMA,
        (T("q", "0", "0", "q"), T("q", "1", "0", "q"), *SILENT_WAYS[way],
         T("s3", "0", read2, "f"), *loops),
        "q", frozenset({"f"}),
    )
    assert lockstep_by_name(aut)["q"] == ({"0", "1"}, {"0"}, False, inert)
    assert lockstep_states(aut) == ({"q"} if inert else set())
    rng = random.Random(37)
    texts = [("|0", "000A|0"), ("|01", "|0"), ("0|1", "0A|0"), ("|10", "00|0A")]
    pairs = [(lasso(a), lasso(b)) for a, b in texts]
    pairs += [(random_lasso(rng, "0001A", 3, 4), random_lasso(rng, "000A", 3, 4)) for _ in range(30)]
    verdicts = []
    for w1, w2 in pairs:
        out = accepts_lasso_pair(aut, w1, w2)
        verdicts.append(out.verdict is Verdict.ACCEPTED)
        assert verdicts[-1] == nested_dfs_accepts_pair(aut, w1, w2), (w1, w2)
        if verdicts[-1]:
            assert_fair_certificate(aut, out, w1, w2)
    assert 3 <= sum(verdicts) <= len(verdicts) - 3, verdicts


# -- certificates built on first read -----------------------------------------


@pytest.fixture
def builds(monkeypatch):
    """Each certificate build, as the name of the function whose read of
    ``.certificate`` started it."""
    made = []
    build = twotape._certificate

    def counted(*args):
        made.append(sys._getframe(2).f_code.co_name)  # past _BuiltOnRead.__get__
        return build(*args)

    monkeypatch.setattr(twotape, "_certificate", counted)
    return made


def test_verdict_only_callers_build_no_certificate(builds, monkeypatch):
    rng = random.Random(41)
    words = [random_lasso(rng, "01", 3, 3) for _ in range(200)]
    verdicts = [buchi_accepts_lasso(ones_automaton(), w) for w in words]
    assert 50 < sum(verdicts) < 150 and builds == []
    # the suite builds exactly the certificates certificate-replay reads
    decide, read = verify.accepts_lasso_pair, []

    def decided(*args):
        out = decide(*args)
        if sys._getframe(1).f_code.co_name == "check_certificates":
            read.append(out.verdict is Verdict.ACCEPTED)
        return out

    monkeypatch.setattr(verify, "accepts_lasso_pair", decided)
    assert all(r.passed for r in verify.run_all(seed=0, trials=66))
    assert sum(read) > 0 and builds == ["check_certificates"] * sum(read)


def test_certificate_is_built_once_on_first_read(builds):
    w1, w2 = lasso("A0|1A"), lasso("0|A01")
    out = accepts_lasso_pair(r_automaton(), w1, w2)
    assert out.verdict is Verdict.ACCEPTED and builds == []
    cert = out.certificate
    assert out.certificate is cert and len(builds) == 1
    assert_fair_certificate(r_automaton(), out, w1, w2)


def test_member_json_builds_one_certificate(builds, capsys):
    assert cli.main(["member", "--aut", "R", "--pair", "A0|1A", "0|A01", "--json"]) == 0
    assert "certificate" in json.loads(capsys.readouterr().out)
    assert builds == ["cmd_member"]


def test_unread_certificate_holds_the_search_until_read_or_dropped():
    # with the collector off only reference counts free the search state,
    # so a reference cycle through its closures would keep it alive here
    w1, w2 = lasso("A0|1A"), lasso("0|A01")
    gc.disable()
    try:
        out = accepts_lasso_pair(r_automaton(), w1, w2)
        search = weakref.ref(vars(out)["certificate"].args[0])  # the successor function
        assert search() is not None
        cert = out.certificate
        assert search() is None and vars(out)["certificate"] is cert
        out = accepts_lasso_pair(r_automaton(), w1, w2)
        search = weakref.ref(vars(out)["certificate"].args[0])
        del out
        assert search() is None
    finally:
        gc.enable()


def test_outcomes_keep_their_value_semantics():
    n = 45
    pairs = [
        (r_automaton(), lasso("A0|1A"), lasso("0|A01")),
        (automaton_T(), LassoWord("A0", "0" * 22 + "A" + "1" * 23), LassoWord("", "0" * n + "A")),
        (c_automaton(4), LassoWord("A", "A" + "0" * n + "A" + "0" * (n - 1)),
         LassoWord("A", "A" + "0" * (n - 1) + "A" + "0" * n)),
    ]
    rng = random.Random(67)
    while len(pairs) < 503:
        aut = random_two_tape(rng)
        w1, w2 = random_lasso(rng, "01", 2, 2), random_lasso(rng, "01", 2, 2)
        if accepted(aut, w1, w2):
            pairs.append((aut, w1, w2))
    for aut, w1, w2 in pairs:
        first, second, third, fourth = (accepts_lasso_pair(aut, w1, w2) for _ in range(4))
        assert first.verdict is Verdict.ACCEPTED
        # hash, ==, repr and pickling each build an unread certificate
        assert hash(first) == hash(second) and first == second == third
        assert repr(third) == repr(first)
        assert pickle.loads(pickle.dumps(fourth)) == first
        assert f"stem={first.certificate.stem!r}, cycle={first.certificate.cycle!r}" in repr(first)
        assert dataclasses.replace(third, stats=None) == first
    rejected = accepts_lasso_pair(c_automaton(4), *[LassoWord("A", "A01")] * 2)
    assert rejected.verdict is Verdict.REJECTED and rejected.certificate is None
    assert rejected == dataclasses.replace(rejected) and "certificate=None" in repr(rejected)
    searched = bounded_run_search(automaton_T(), encode_h(GridWord.zero()), alpha(), 100)
    assert searched.verdict is Verdict.INCONCLUSIVE and searched.certificate is None


# -- bounded search ------------------------------------------------------------


def stats_tuple(out) -> tuple:
    s = out.stats
    return (s.expansions, s.fair_visits, s.deepest, s.frontier, s.exhausted)


def test_bounded_search_reference_pair():
    out = bounded_run_search(automaton_T(), encode_h(GridWord.zero()), alpha(), 10**5)
    assert out.verdict is Verdict.INCONCLUSIVE
    assert stats_tuple(out) == (100000, 443, 99112, 447, False)


@pytest.mark.parametrize(
    "columns, budget, expected",
    [
        ({1: "11|0", 3: "1|0"}, 10**5, (100000, 443, 99110, 459, False)),
        ({}, 24000, (24000, 215, 23566, 231, False)),
        ({1: "11|0", 3: "|1"}, 24000, (24000, 215, 23566, 231, False)),  # outside P
    ],
)
def test_bounded_search_exact_stats_on_r(columns, budget, expected):
    # exact figures pin the heap order: a change of tie-breaks moves them
    x = GridWord(lasso("|0"), {m: lasso(c) for m, c in columns.items()})
    out = bounded_run_search(r_automaton(), encode_h(x), alpha(), budget)
    assert out.verdict is Verdict.INCONCLUSIVE
    assert stats_tuple(out) == expected


def plant_pair_loops(rng: random.Random, aut: TwoTapeAutomaton) -> TwoTapeAutomaton:
    """aut with a pair loop (a, b) for every a in L1 and b in L2, two random
    sets of letters, on a random state, made accepting half the time."""
    q = rng.choice(aut.states)
    l1, l2 = (rng.sample("01A", rng.randint(1, 2)) for _ in range(2))
    loops = tuple(T(q, a, b, q) for a in l1 for b in l2)
    accepting = aut.accepting | {q} if rng.random() < 0.5 else aut.accepting - {q}
    return dataclasses.replace(aut, transitions=aut.transitions + loops, accepting=accepting)


def has_diagonal_state(aut: TwoTapeAutomaton) -> bool:
    """Whether a lockstep state's other rows each start outside its loop
    letters on some tape, so that the search crosses its runs in batches."""
    return any(
        all(t.read1[:1] and t.read1[0] not in l1 or t.read2[:1] and t.read2[0] not in l2
            for t in aut.transitions_from(aut.states[q]) if t not in pairs.values())
        for q, (l1, l2, pairs, _) in aut._compiled.lockstep.items()
    )


def test_bounded_search_matches_letter_by_letter_reference():
    rng = random.Random(707)
    labels = ("", "", "0", "0", "1", "1", "A", "01", "10", "11", "0A")  # repeats weigh the draw
    cases = []
    for i in range(1200):
        aut = random_two_tape(rng, max_states=3, max_transitions=16, labels=labels)
        aut = dataclasses.replace(aut, sigma1=GAMMA, sigma2=GAMMA)
        if i % 3 == 1:
            aut = plant_pair_loops(rng, aut)
        if i % 4:
            letters = "01A" if i % 3 == 0 else "01"
            w1, w2 = random_lasso(rng, letters), random_lasso(rng, letters)
        else:
            w1, w2 = encode_h(random_grid(rng)), alpha()
        cases.append((aut, w1, w2))
    for i in range(40):
        cases.append((r_automaton() if i % 2 else automaton_T(), encode_h(random_grid(rng)), alpha()))
    assert sum(has_diagonal_state(aut) for aut, _, _ in cases) >= 150
    for i, (aut, w1, w2) in enumerate(cases):
        budget = 1 if i % 10 == 0 else rng.randint(1, 400)
        out = bounded_run_search(aut, w1, w2, budget)
        assert out == reference_bounded_search(aut, w1, w2, budget), (aut, w1, w2, budget)


def small_automaton(transitions, accepting=(), sigma=BINARY) -> TwoTapeAutomaton:
    """An automaton over sigma on both tapes with initial state s."""
    states = sorted({"s"} | {q for t in transitions for q in (t[0], t[3])})
    return TwoTapeAutomaton(
        tuple(states), sigma, sigma, tuple(T(*t) for t in transitions), "s", frozenset(accepting)
    )


@pytest.mark.parametrize(
    "transitions, accepting, budget, expected",
    [
        # Two rows of one expansion that reach one configuration carry one
        # label, so a held child cannot go stale while held.  Here b's child
        # (p, 2, 1) is held, a queued lesser entry (c, 1, 1) displaces it into
        # the heap, and c, accepting, reaches (p, 2, 1) with a fair visit.
        pytest.param(
            [("s", "0", "0", "b"), ("s", "0", "0", "c"), ("b", "0", "", "p"), ("c", "0", "", "p")],
            {"c"}, 100, (4, 1, 1, 0, True), id="held-child-goes-stale",
        ),
        # the last expansion's one child is held, and it has no children
        pytest.param([("s", "0", "0", "e")], (), 100, (2, 0, 1, 0, True), id="exhausted-after-held"),
        # the budget ends the search with the last child held
        pytest.param([("s", "0", "0", "s")], (), 5, (5, 0, 5, 1, False), id="budget-with-held"),
    ],
)
def test_bounded_search_held_child(transitions, accepting, budget, expected):
    aut = small_automaton(transitions, accepting)
    w = LassoWord("", "0")
    out = bounded_run_search(aut, w, w, budget)
    assert stats_tuple(out) == expected
    assert out == reference_bounded_search(aut, w, w, budget)


def test_bounded_search_long_chains_match_reference():
    # almost every expansion of T and R on coded grids has one child that
    # beats the whole queue, so these runs are long chains of held children
    rng = random.Random(909)
    for i in range(12):
        aut = r_automaton() if i % 2 else automaton_T()
        w1, budget = encode_h(random_grid(rng)), rng.randint(2000, 5000)
        out = bounded_run_search(aut, w1, alpha(), budget)
        assert out == reference_bounded_search(aut, w1, alpha(), budget), (aut, w1, budget)


def test_bounded_search_run_meets_a_configuration_reached_first():
    # s reaches (q, 2, 2) directly before q's run from (q, 1, 1) gets there
    # with the same label: that run stops at (q, 2, 2) with no child
    aut = small_automaton([("s", "0", "0", "q"), ("s", "00", "00", "q"), ("q", "0", "0", "q")],
                          sigma=GAMMA)
    w = lasso("00000|A")
    out = bounded_run_search(aut, w, w, 100)
    assert stats_tuple(out) == (6, 0, 5, 0, True)
    assert out == reference_bounded_search(aut, w, w, 100)


@pytest.mark.parametrize("accepting", [(), ("q",)], ids=["plain", "accepting"])
def test_bounded_search_budgets_around_a_run_end(accepting):
    # q copies 0 against 0 or 1 in lockstep, five letters from (q, 1, 1),
    # and leaves on 1/1 at the run end; an accepting q counts a fair visit
    # on entry and at every step of its run
    aut = small_automaton([("s", "A", "A", "q"), ("q", "0", "0", "q"), ("q", "0", "1", "q"),
                           ("q", "1", "1", "e"), ("e", "1", "1", "e")], accepting, GAMMA)
    w1, w2 = lasso("A00000|1"), lasso("A01001|1")
    for budget in range(1, 10):
        out = bounded_run_search(aut, w1, w2, budget)
        assert out == reference_bounded_search(aut, w1, w2, budget), budget
    if accepting:  # the budget ends inside the run, then past its end
        assert stats_tuple(bounded_run_search(aut, w1, w2, 4)) == (4, 4, 4, 1, False)
        assert stats_tuple(bounded_run_search(aut, w1, w2, 7)) == (7, 6, 7, 1, False)


# s enters q at (1, 1) with no fair visit, and q copies 0 against 0 up to
# (20, 20), where both words read A (the first run); a detour through r and
# the accepting p reaches q at (4, 4) later, with a fair visit, and the run
# from there beats the first run's interior, which keeps its configurations
# before (4, 4), as x finds at (3, 3) with an equal label after that, and,
# where the budget ends the later run, after it
LATER_RUN_CROSSES = ([("s", "0", "0", "q"), ("s", "", "0", "r"), ("r", "000", "00", "p"),
                      ("r", "00", "0", "x"), ("x", "0", "0", "q"), ("p", "0", "0", "q"),
                      ("q", "0", "0", "q"), ("q", "A", "A", "e")], ("p",))
# p reaches q at (4, 4) with a fair visit, and that run is crossed before
# s's entry at (1, 1), which is shallower: the run from (1, 1) stops at
# (4, 4), which carries a better label
RUN_STOPS_AT_BETTER = ([("s", "0", "0", "q"), ("s", "000", "000", "p"), ("p", "0", "0", "q"),
                        ("q", "0", "0", "q"), ("q", "A", "A", "e")], ("p",))
# s enters q at (1, 1), (2, 2) and (4, 4) with equal labels, the deepest
# first: each later run stops, with no child, where the one before began
RUN_STOPS_AT_EQUAL = ([("s", "0", "0", "q"), ("s", "00", "00", "q"), ("s", "0000", "0000", "q"),
                       ("q", "0", "0", "q"), ("q", "A", "A", "e")], ())
# q is accepting, so labels slope along its runs: the run from (2, 2) counts
# a fair visit a step; a, b and c reach q at (4, 4) with as many visits but
# the last counted at (4, 3), an earlier anchor, which beats the first run
# there, while the run from (4, 4), counting again at every step, only
# equals it at (5, 5) and stops inside it
SLOPED_RUN_STOPS_INSIDE = ([("s", "00", "00", "q"), ("s", "0", "0", "a"), ("a", "0", "0", "b"),
                            ("b", "00", "0", "c"), ("c", "", "0", "q"), ("q", "0", "0", "q"),
                            ("q", "A", "A", "e")], ("q", "a", "b", "c"))
# the initial state is the lockstep one, with an exit that comes back
INITIAL_DIAGONAL = ([("s", "0", "0", "s"), ("s", "A", "", "r"), ("r", "", "A", "s"),
                     ("r", "00", "A0", "s")], ("s",))


@pytest.mark.parametrize("transitions, accepting", [
    LATER_RUN_CROSSES, RUN_STOPS_AT_BETTER, RUN_STOPS_AT_EQUAL, SLOPED_RUN_STOPS_INSIDE,
    INITIAL_DIAGONAL, (INITIAL_DIAGONAL[0], ()),
], ids=["later-run-crosses", "stops-at-better", "stops-at-equal", "sloped-stops-inside",
        "initial-diagonal-accepting", "initial-diagonal"])
def test_bounded_search_overlapping_runs_of_one_lane(transitions, accepting):
    aut = small_automaton(transitions, accepting, GAMMA)
    assert has_diagonal_state(aut)
    w = lasso("0" * 20 + "A|0000A")
    for budget in range(1, 60):
        out = bounded_run_search(aut, w, w, budget)
        assert out == reference_bounded_search(aut, w, w, budget), budget


# q copies 0 against 0 in lockstep from (1, 1), and leaves on 1/1 into e
RUN_TO_E = [("s", "A", "A", "q"), ("q", "0", "0", "q"), ("q", "1", "1", "e"), ("e", "1", "1", "e")]


def stats_at_every_budget(aut, w1, w2, last: int) -> None:
    want = reference_search_stats(aut, w1, w2, last)
    for budget in range(1, last + 1):
        out = bounded_run_search(aut, w1, w2, budget)
        assert out.stats == want[min(budget, len(want)) - 1], (aut, w1, w2, budget)


@pytest.mark.parametrize("accepting", [(), ("q",)], ids=["plain", "accepting"])
def test_bounded_search_every_way_a_diagonal_run_stops(accepting, monkeypatch):
    reads = []
    reader = twotape._text_reader
    monkeypatch.setattr(twotape, "_text_reader",
                        lambda w: lambda n, read=reader(w): reads.append(n) or read(n))
    aut = small_automaton(RUN_TO_E, accepting, GAMMA)
    assert has_diagonal_state(aut)
    visits = 6 if accepting else 0  # an accepting q counts one on entry and one a step
    # a letter outside q's loop letters, on both tapes or on tape 1 only:
    # the run's last configuration (6, 6) is expanded in the run's step
    for w2 in (lasso("A00000|1"), lasso("A000000|1")):
        stats_at_every_budget(aut, lasso("A00000|1"), w2, 12)
        # the budget ends at that configuration, which stays on the frontier
        out = bounded_run_search(aut, lasso("A00000|1"), w2, 6)
        assert stats_tuple(out) == (6, visits, 6, 1, False)
    # the texts, read 4 letters at first, end inside the run: each is read
    # again and the run goes on
    w = lasso("A" + "0" * 40 + "|1")
    stats_at_every_budget(aut, w, w, 50)
    reads.clear()
    bounded_run_search(aut, w, w, 50)
    assert reads[:2] == [2, 2] and len(reads) > 4, reads
    # an earlier equal or better label: each later run stops inside the
    # one before, in a plain lane and in a sloped one
    transitions, accepting = SLOPED_RUN_STOPS_INSIDE if accepting else RUN_STOPS_AT_EQUAL
    stats_at_every_budget(small_automaton(transitions, accepting, GAMMA),
                          lasso("0" * 20 + "A|0000A"), lasso("0" * 20 + "A|0000A"), 60)


@pytest.mark.parametrize("x", [GridWord.zero(), grid(c2="011|0", c5="1|0"), grid(c1="11|0", c3="|1")],
                         ids=["zero", "in-P", "outside-P"])
def test_bounded_search_t_and_r_at_every_budget(x):
    for aut in (automaton_T(), r_automaton()):
        stats_at_every_budget(aut, encode_h(x), alpha(), 1500)


def overlapping_runs(rng: random.Random) -> TwoTapeAutomaton:
    """An automaton whose lockstep state q (pair loops over L1 x L2, each of
    0 or 01, accepting half the time) is entered from s, a, b and e by rows
    labelled "", 0, 00 or 000 on each tape, and left on an A: on words of
    mostly 0, its runs meet in one lane from entries of unequal labels."""
    entry = ("", "0", "00", "000")
    l1, l2 = rng.choice(("0", "01")), rng.choice(("0", "01"))
    rows = [T("q", x, y, "q") for x in l1 for y in l2]
    rows += [T("q", *rng.choice((("A", ""), ("", "A"), ("A", "A"))), "e")]
    for src in ("s", "a", "b", "e"):
        for _ in range(rng.randint(1, 3)):
            rows.append(T(src, rng.choice(entry), rng.choice(entry), rng.choice("qqqab")))
    accepting = frozenset(q for q in "sabeq" if rng.random() < 0.5)
    return TwoTapeAutomaton(tuple("sabeq"), GAMMA, GAMMA, tuple(rows), "s", accepting)


def test_bounded_search_overlapping_runs_match_reference():
    rng = random.Random(3232)

    def mostly_zero() -> LassoWord:
        return random_lasso(rng, "000000001A", max_prefix=30, max_period=6)

    for _ in range(2000):
        aut = overlapping_runs(rng)
        assert has_diagonal_state(aut)
        w1 = mostly_zero()
        w2 = w1 if rng.random() < 0.5 else mostly_zero()
        budget = rng.randint(1, 300)
        out = bounded_run_search(aut, w1, w2, budget)
        assert out == reference_bounded_search(aut, w1, w2, budget), (aut, w1, w2, budget)


def test_bounded_search_memory_stays_flat_in_the_budget():
    # T's diagonal runs are kept as one segment each: a million expansions
    # on R hold about 6 MB, mostly the texts of the letters read
    tracemalloc.start()
    try:
        bounded_run_search(r_automaton(), encode_h(GridWord.zero()), alpha(), 10**6)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20, peak


def test_bounded_search_accepting_lockstep_state_on_coded_grids():
    # q compares block n of both words letter against letter, with a fair
    # visit per pair, and crosses the separators through r
    aut = small_automaton([("s", "A", "A", "q"), *[("q", a, b, "q") for a in "01" for b in "01"],
                           ("q", "A", "", "r"), ("r", "", "A", "q")], ("q",), GAMMA)
    for columns in ({}, {2: "1|0"}, {1: "|1"}):
        x = GridWord(lasso("|0"), {m: lasso(c) for m, c in columns.items()})
        for budget in (1, 2, 3, 50, 2000):
            out = bounded_run_search(aut, encode_h(x), alpha(), budget)
            assert out == reference_bounded_search(aut, encode_h(x), alpha(), budget), budget
            assert out.stats.fair_visits == out.stats.deepest


def test_bounded_search_reads_only_as_far_as_the_runs_reach():
    # a graph exhausted after a few expansions, with two diagonal runs: a
    # huge budget must not make the search read ahead of them
    aut = small_automaton([("s", "A", "A", "q"), ("q", "0", "0", "q"), ("q", "A", "A", "r"),
                           ("r", "0", "0", "r")], sigma=GAMMA)
    w1, w2 = encode_h(GridWord.zero()), alpha()
    out = bounded_run_search(aut, w1, w2, 10**12)
    assert out == reference_bounded_search(aut, encode_h(GridWord.zero()), alpha(), 10**12)
    assert out.stats.exhausted and out.stats.expansions < 10
    assert len(w1._text_cache[0]) < 100 and len(w2._text_cache[0]) < 100


@pytest.mark.parametrize("sigma1, sigma2, columns, letter", [
    ("01", "01A", {}, "A"),  # the separator of the coded grid
    ("0A", "01A", {3: "01|0"}, "1"),  # a letter of one column
    ("01A", "01", {}, "A"),  # the separator of alpha
])
def test_bounded_search_alphabet_mismatch(sigma1, sigma2, columns, letter):
    # as accepts_lasso_pair, the search refuses words its alphabets miss a letter of
    aut = TwoTapeAutomaton(("q",), Alphabet.of(sigma1), Alphabet.of(sigma2),
                           (T("q", "0", "0", "q"),), "q", frozenset({"q"}))
    x = GridWord(lasso("|0"), {m: lasso(c) for m, c in columns.items()})
    with pytest.raises(AlphabetMismatch, match=f"uses letter {letter!r} not in alphabet"):
        bounded_run_search(aut, encode_h(x), alpha(), 100)


def test_bounded_search_no_transitions():
    aut = TwoTapeAutomaton(("s",), GAMMA, GAMMA, (), "s", frozenset())
    out = bounded_run_search(aut, encode_h(GridWord.zero()), alpha(), 100)
    assert out.verdict is Verdict.INCONCLUSIVE
    assert out.stats.fair_visits == 0
    assert out.stats.exhausted


def test_bounded_search_budget_monotone():
    w1 = encode_h(GridWord.zero())
    small = bounded_run_search(automaton_T(), w1, alpha(), 2000)
    large = bounded_run_search(automaton_T(), w1, alpha(), 4000)
    assert large.stats.fair_visits >= small.stats.fair_visits


def test_bounded_search_gathers_evidence_and_lasso_pairs_are_decided():
    w = lasso("A|0A")
    out = bounded_run_search(automaton_T(), w, w, 1000)
    assert out.verdict is Verdict.INCONCLUSIVE and out.certificate is None
    assert out.stats.expansions == 1000 and out.stats.fair_visits > 0
    out = accepts_lasso_pair(automaton_T(), w, w)
    assert out.verdict is Verdict.ACCEPTED
    assert_fair_certificate(automaton_T(), out, w, w)


# -- serialization -------------------------------------------------------------


def test_json_round_trip():
    aut = automaton_T()
    back = from_json(to_json(aut))
    assert back.states == aut.states
    assert back.transitions == aut.transitions
    assert back.initial == aut.initial
    assert back.accepting == aut.accepting


def test_from_json_rejects_unknown_fields():
    doc = json.loads(to_json(automaton_T()))
    with pytest.raises(InvalidAutomaton) as err:
        from_json(json.dumps({**doc, "accepting": [], "acepting": ["q4"], "Initial": "q1"}))
    assert err.value.violations == ["unknown field 'acepting'", "unknown field 'Initial'"]


def test_dot_export_shape():
    dot = to_dot(automaton_T())
    assert dot.startswith("digraph")
    assert '"q4" [shape=doublecircle];' in dot
    assert '"q0" [shape=circle];' in dot
    assert "ε / A" in dot
