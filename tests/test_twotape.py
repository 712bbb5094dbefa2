import random

import pytest

from ratrel.constructions import alpha, automaton_T
from ratrel.grid import GridWord, encode_h
from ratrel.twotape import (
    AlphabetMismatch,
    DegenerateAutomaton,
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
from ratrel.verify import closure_accepts_pair, random_lasso, random_two_tape
from ratrel.words import BINARY, GAMMA, LassoWord

from util import all_binary_lassos, random_gamma_lasso

T = TwoTapeTransition


def lasso(text: str) -> LassoWord:
    return LassoWord.parse(text, GAMMA)


def accepted(aut, w1, w2) -> bool:
    return accepts_lasso_pair(aut, w1, w2).verdict is Verdict.ACCEPTED


# -- validate ---------------------------------------------------------------


def test_validate_reference_automaton():
    diag = validate(automaton_T())
    assert diag.state_count == 6
    assert diag.unreachable == frozenset()
    assert diag.cannot_reach_accepting == frozenset()
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


def test_validate_reports_unreachable_and_dead_states():
    aut = TwoTapeAutomaton(
        ("a", "b", "dead", "island"),
        BINARY,
        BINARY,
        (T("a", "0", "0", "b"), T("b", "0", "0", "a"), T("a", "1", "", "dead")),
        "a",
        frozenset({"b"}),
    )
    diag = validate(aut)
    assert diag.unreachable == frozenset({"island"})
    assert diag.cannot_reach_accepting == frozenset({"dead", "island"})


# -- union ------------------------------------------------------------------


def test_union_state_count_law():
    rng = random.Random(31)
    for _ in range(20):
        a = random_two_tape(rng)
        b = random_two_tape(rng)
        assert len(union(a, b).states) == len(a.states) + len(b.states) + 1


def test_union_idempotent_on_verdicts():
    rng = random.Random(37)
    for _ in range(50):
        a = random_two_tape(rng)
        u = union(a, a)
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
        assert accepted(union(a, b), w1, w2)


def test_union_soundness_completeness():
    rng = random.Random(43)
    for _ in range(200):
        a = random_two_tape(rng)
        b = random_two_tape(rng)
        w1 = random_lasso(rng, "01", 2, 2)
        w2 = random_lasso(rng, "01", 2, 2)
        assert accepted(union(a, b), w1, w2) == (accepted(a, w1, w2) or accepted(b, w1, w2))


def test_union_alphabet_mismatch():
    a = random_two_tape(random.Random(1))
    b = TwoTapeAutomaton(("x",), GAMMA, GAMMA, (), "x", frozenset())
    with pytest.raises(AlphabetMismatch):
        union(a, b)


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
    rng = random.Random(53)
    checked = 0
    while checked < 80:
        aut = random_two_tape(rng, max_states=3)
        try:
            plain = epsilon_normalize(aut)
        except DegenerateAutomaton:
            continue
        checked += 1
        w1 = random_lasso(rng, "01", 2, 2)
        w2 = random_lasso(rng, "01", 2, 2)
        assert accepted(plain, w1, w2) == accepted(aut, w1, w2)


def test_normalize_rejects_degenerate_cycle():
    aut = TwoTapeAutomaton(
        ("a",), BINARY, BINARY, (T("a", "", "", "a"),), "a", frozenset({"a"})
    )
    with pytest.raises(DegenerateAutomaton):
        epsilon_normalize(aut)


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
    assert not report.ok and not report.chaining_ok


def test_run_prefix_tape_mismatch():
    run = RunPrefix((T("q0", "0", "", "q0"),))  # alpha starts with A, not 0
    report = run_prefix_valid(automaton_T(), run, alpha(), alpha())
    assert not report.ok and not report.tape1_ok and report.chaining_ok


def test_run_prefix_unknown_transition():
    run = RunPrefix((T("q0", "A", "", "q1"),))
    report = run_prefix_valid(automaton_T(), run, alpha(), alpha())
    assert not report.transitions_ok


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
        assert accepted(aut, w1, w2) == closure_accepts_pair(aut, w1, w2)


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
                assert verdict == closure_accepts_pair(aut, w1, w2), (aut, w1, w2)
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
    assert closure_accepts_pair(aut, LassoWord("", "01"), LassoWord("", "01"))
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
        assert accepted(aut, w1, zeros) == closure_accepts_pair(aut, w1, zeros)


# -- bounded search ------------------------------------------------------------


def test_bounded_search_reference_pair():
    out = bounded_run_search(automaton_T(), encode_h(GridWord.zero()), alpha(), 10**5)
    assert out.verdict is Verdict.INCONCLUSIVE
    assert out.stats.fair_visits >= 20


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


def test_bounded_search_accepts_lasso_pairs_with_certificate():
    out = bounded_run_search(automaton_T(), lasso("A|0A"), lasso("A|0A"), 1000)
    assert out.verdict is Verdict.ACCEPTED
    assert out.certificate is not None
    out = bounded_run_search(automaton_T(), lasso("|0"), lasso("|0"), 1000)
    assert out.verdict is Verdict.INCONCLUSIVE  # never claims rejection


# -- serialization -------------------------------------------------------------


def test_json_round_trip():
    aut = automaton_T()
    back = from_json(to_json(aut))
    assert back.states == aut.states
    assert back.transitions == aut.transitions
    assert back.initial == aut.initial
    assert back.accepting == aut.accepting


def test_dot_export_shape():
    dot = to_dot(automaton_T())
    assert dot.startswith("digraph")
    assert '"q4" [shape=doublecircle];' in dot
    assert '"q0" [shape=circle];' in dot
    assert "ε / A" in dot
