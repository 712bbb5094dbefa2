"""Acceptance suite: one test per criterion, each printing a pass line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines; every tolerance and trial count is pinned here.
"""

import itertools
import random
import time

from ratrel.buchi import buchi_accepts_lasso, ones_automaton
from ratrel.constructions import (
    alpha,
    automaton_T,
    build_decompositions,
    build_run_schema,
    c_condition_holds,
    grid_pair,
    r2_automaton,
    r_automaton,
    schema_to_run,
)
from ratrel.grid import GridWord, encode_h, grid_distance_exponent, in_P
from ratrel.twotape import (
    TwoTapeAutomaton,
    TwoTapeTransition,
    Verdict,
    bounded_run_search,
    run_prefix_valid,
)
from ratrel.verify import nested_dfs_accepts_pair, random_grid, random_two_tape
from ratrel.words import BINARY, LassoWord

from util import accepted, all_binary_lassos, random_gamma_lasso

T = TwoTapeTransition


def report(num: int, detail: str) -> None:
    print(f"criterion {num:2d} PASS  {detail}")


def test_criterion_1_coding_identity():
    n = 10**5
    start = time.monotonic()
    coded = encode_h(GridWord.zero()).prefix_of(n)
    fixed = alpha().prefix_of(n)
    elapsed = time.monotonic() - start
    assert coded == fixed
    assert elapsed < 1.0
    report(1, f"coded zero grid equals the fixed word on {n} letters in {elapsed:.3f}s")


def test_criterion_2_automaton_fidelity():
    aut = automaton_T()
    assert len(aut.states) == 6
    assert aut.initial == "q0"
    assert aut.accepting == frozenset({"q4"})
    expected = {
        T("q0", "0", "", "q0"),
        T("q0", "1", "", "q0"),
        T("q0", "", "0", "q0"),
        T("q0", "", "1", "q0"),
        T("q0", "A", "A", "q0"),
        T("q0", "A", "A", "q1"),
        T("q1", "0", "", "q1"),
        T("q1", "1", "", "q1"),
        T("q1", "", "", "q2"),
        T("q2", "0", "0", "q2"),
        T("q2", "1", "0", "q2"),
        T("q2", "A", "", "q3"),
        T("q3", "0", "0", "q3"),
        T("q3", "1", "0", "q3"),
        T("q3", "", "", "q4"),
        T("q3", "0", "", "q5"),
        T("q3", "1", "", "q5"),
        T("q4", "", "A", "q2"),
        T("q5", "", "A", "q2"),
    }
    assert len(expected) == 19
    assert set(aut.transitions) == expected
    report(2, "6 states, initial q0, accepting {q4}, the 19 ground transitions verbatim")


def _single_state_family():
    labels = [
        ("0", ""), ("1", ""), ("", "0"), ("", "1"),
        ("0", "0"), ("0", "1"), ("1", "0"), ("1", "1"), ("", ""),
    ]
    for bits in range(2**9):
        trans = tuple(
            T("s", a, b, "s") for i, (a, b) in enumerate(labels) if bits >> i & 1
        )
        for acc in (frozenset(), frozenset({"s"})):
            yield TwoTapeAutomaton(("s",), BINARY, BINARY, trans, "s", acc)


def _two_state_family():
    labels = [None, ("0", ""), ("", "0"), ("0", "0"), ("", ""), ("1", "0")]
    slots = [("s0", "s0"), ("s0", "s1"), ("s1", "s0"), ("s1", "s1")]
    for combo in itertools.product(range(len(labels)), repeat=4):
        trans = tuple(
            T(src, labels[i][0], labels[i][1], dst)
            for (src, dst), i in zip(slots, combo)
            if labels[i] is not None
        )
        for acc in (frozenset(), frozenset({"s0"}), frozenset({"s1"}), frozenset({"s0", "s1"})):
            yield TwoTapeAutomaton(("s0", "s1"), BINARY, BINARY, trans, "s0", acc)


def test_criterion_3_lasso_decision_soundness():
    start = time.monotonic()
    checks = 0

    single_pairs = [
        (LassoWord.parse(a), LassoWord.parse(b))
        for a in ("|0", "|1", "0|1")
        for b in ("|0", "|1", "0|1")
    ]
    for aut in _single_state_family():
        for w1, w2 in single_pairs:
            assert accepted(aut, w1, w2) == nested_dfs_accepts_pair(aut, w1, w2)
            checks += 1

    double_pairs = [
        (LassoWord("", "0"), LassoWord("", "0")),
        (LassoWord("", "01"), LassoWord("", "0")),
        (LassoWord("0", "1"), LassoWord("", "10")),
        (LassoWord("", "1"), LassoWord("", "01")),
    ]
    for aut in _two_state_family():
        for w1, w2 in double_pairs:
            assert accepted(aut, w1, w2) == nested_dfs_accepts_pair(aut, w1, w2)
            checks += 1

    rng = random.Random(2024)
    for _ in range(100):
        aut = random_two_tape(rng, max_states=5, max_transitions=14)
        w1 = LassoWord(
            "".join(rng.choice("01") for _ in range(rng.randint(0, 3))),
            "".join(rng.choice("01") for _ in range(rng.randint(1, 3))),
        )
        w2 = LassoWord(
            "".join(rng.choice("01") for _ in range(rng.randint(0, 3))),
            "".join(rng.choice("01") for _ in range(rng.randint(1, 3))),
        )
        assert accepted(aut, w1, w2) == nested_dfs_accepts_pair(aut, w1, w2)
        checks += 1

    elapsed = time.monotonic() - start
    assert elapsed < 300
    report(3, f"{checks} decision/oracle comparisons, zero disagreements, {elapsed:.1f}s")


def test_criterion_4_positive_direction():
    rng = random.Random(41)
    for _ in range(200):
        x = random_grid(rng, ensure_in_p=True)
        schema = build_run_schema(x)
        run = schema_to_run(schema, 100)
        rep = run_prefix_valid(automaton_T(), run, encode_h(x), alpha())
        assert rep.ok
        assert rep.accepting_visits == schema.growth_steps(100)
    report(4, "200 random column-finite grids: 100-block schema replays, visits = growth steps")


def test_criterion_5_negative_direction():
    rng = random.Random(43)
    for _ in range(50):
        period = "".join(rng.choice("01") for _ in range(rng.randint(1, 4)))
        if "1" not in period:
            period = period[:-1] + "1"
        prefix = "".join(rng.choice("01") for _ in range(rng.randint(0, 3)))
        x = GridWord(
            LassoWord("", "0"),
            {1: LassoWord(prefix, period), 2: LassoWord(prefix, "0")},
        )
        assert "1" in x.column(1).normal().period
        found = build_decompositions(x, depth=30, k_max=4)
        assert len(found) > 0
        assert all(b.growth_steps == 0 for b in found)
    report(5, "50 grids with period 1s in column 1: zero growth steps on every ledger branch")


def test_criterion_6_section_law():
    rng = random.Random(47)
    start = time.monotonic()
    r = r_automaton()
    for _ in range(500):
        sigma = random_gamma_lasso(rng)
        u = random_gamma_lasso(rng)  # a lasso never equals the fixed word
        assert accepted(r, sigma, u)
    elapsed = time.monotonic() - start
    assert elapsed < 120
    report(6, f"500 random lasso pairs all accepted by the full relation in {elapsed:.1f}s")


def test_criterion_7_complement_structure():
    rng = random.Random(53)
    for _ in range(20):
        pair = grid_pair(random_grid(rng))
        for j in range(1, 6):
            assert not c_condition_holds(j, *pair)
    r2 = r2_automaton()
    for _ in range(200):
        w1 = random_gamma_lasso(rng)
        w2 = random_gamma_lasso(rng)
        structural = any(c_condition_holds(j, w1, w2) for j in range(1, 6))
        assert accepted(r2, w1, w2) == structural
    report(7, "complement pieces reject all 20 coded pairs; automaton = disjunction on 200 pairs")


def test_criterion_8_ones_baseline():
    aut = ones_automaton()
    comp = ones_automaton(complement=True)
    words = all_binary_lassos(max_prefix=3, max_period=3)
    assert len(words) == 210
    for w in words:
        expected = "1" in w.normal().period
        assert buchi_accepts_lasso(aut, w) == expected
        assert buchi_accepts_lasso(comp, w) == (not expected)
    report(8, "210 lassos: membership matches the period-contains-1 predicate exactly")


def test_criterion_9_continuity_and_injectivity():
    rng = random.Random(59)
    agree_checked = 0
    separate_checked = 0
    while agree_checked < 100 or separate_checked < 100:
        x = random_grid(rng)
        y = random_grid(rng)
        p = grid_distance_exponent(x, y)
        if p is None:
            continue
        agree = (p - 1) * p // 2
        if agree_checked < 100:
            assert encode_h(x).prefix_of(agree) == encode_h(y).prefix_of(agree)
            agree_checked += 1
        if separate_checked < 100:
            reach = p * (p + 1) // 2
            assert encode_h(x).prefix_of(reach) != encode_h(y).prefix_of(reach)
            separate_checked += 1
    report(9, "100 pairs agree through the last whole antidiagonal; 100 split by the next one")


def test_criterion_10_fair_evidence_search():
    rng = random.Random(61)
    r = r_automaton()
    worst = 0.0
    for _ in range(10):
        x = random_grid(rng, ensure_in_p=True)
        assert in_P(x)
        start = time.monotonic()
        out = bounded_run_search(r, encode_h(x), alpha(), 10**5)
        elapsed = time.monotonic() - start
        worst = max(worst, elapsed)
        assert out.verdict is Verdict.INCONCLUSIVE
        assert out.stats.fair_visits >= 20
        assert elapsed < 60
    report(10, f"10 coded pairs: >= 20 fair accepting visits each, worst instance {worst:.2f}s")
