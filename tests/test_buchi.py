import random

import pytest

from ratrel.buchi import BuchiAutomaton, buchi_accepts_lasso, ones_automaton
from ratrel.verify import random_lasso
from ratrel.words import Alphabet, BINARY, LassoWord, lasso_equal

from oracles import naive_buchi_accepts
from util import all_binary_lassos


def lasso(text: str) -> LassoWord:
    return LassoWord.parse(text, BINARY)


def test_construction_invariants():
    with pytest.raises(ValueError):
        BuchiAutomaton(("a",), BINARY, (), "b", frozenset())
    with pytest.raises(ValueError):
        BuchiAutomaton(("a",), BINARY, (("a", "X", "a"),), "a", frozenset())
    with pytest.raises(ValueError):
        BuchiAutomaton(("a",), BINARY, (), "a", frozenset({"ghost"}))
    for label in ("", "01"):  # a label is exactly one letter
        with pytest.raises(ValueError, match="not one letter"):
            BuchiAutomaton(("a",), BINARY, (("a", label, "a"),), "a", frozenset())


def test_ones_automaton_examples():
    aut = ones_automaton()
    assert buchi_accepts_lasso(aut, lasso("|1"))
    assert not buchi_accepts_lasso(aut, lasso("111|0"))


def test_ones_automaton_is_built_once_per_machine():
    # every spelling the package and the CLI use shares one object, and
    # with it the compiled two-tape form
    ones = ones_automaton()
    assert ones_automaton(False) is ones and ones_automaton(complement=False) is ones
    comp = ones_automaton(True)
    assert ones_automaton(complement=True) is comp and comp is not ones
    assert comp._embedded._compiled is ones_automaton(True)._embedded._compiled


def test_complement_agreement():
    aut = ones_automaton()
    comp = ones_automaton(complement=True)
    rng = random.Random(2)
    for _ in range(100):
        w = random_lasso(rng)
        # ground truth by scanning the normalized period for a 1
        expected = "1" in w.normal().period
        assert buchi_accepts_lasso(aut, w) == expected
        assert buchi_accepts_lasso(comp, w) == (not expected)


def test_single_state_universal_and_empty():
    universal = BuchiAutomaton(
        ("q",), BINARY, (("q", "0", "q"), ("q", "1", "q")), "q", frozenset({"q"})
    )
    empty = BuchiAutomaton(
        ("q",), BINARY, (("q", "0", "q"), ("q", "1", "q")), "q", frozenset()
    )
    rng = random.Random(4)
    # the 3,000-letter period runs deeper than the default recursion limit
    long_period = LassoWord("", "0" * 2999 + "1")
    for w in [random_lasso(rng) for _ in range(40)] + [long_period]:
        assert buchi_accepts_lasso(universal, w)
        assert not buchi_accepts_lasso(empty, w)
    assert buchi_accepts_lasso(ones_automaton(), long_period)


def random_buchi(rng: random.Random) -> BuchiAutomaton:
    n = rng.randint(1, 3)
    states = tuple(f"q{i}" for i in range(n))
    transitions = set()
    for _ in range(rng.randint(1, 2 * n + 2)):
        transitions.add((rng.choice(states), rng.choice("01"), rng.choice(states)))
    accepting = frozenset(s for s in states if rng.random() < 0.5)
    return BuchiAutomaton(states, BINARY, tuple(transitions), states[0], accepting)


def test_agreement_with_naive_oracle():
    rng = random.Random(8)
    words = all_binary_lassos(2, 2)
    for _ in range(100):
        aut = random_buchi(rng)
        for w in words:
            assert buchi_accepts_lasso(aut, w) == naive_buchi_accepts(aut, w), (aut, w)


def test_invariance_under_redescription():
    aut = ones_automaton()
    rng = random.Random(13)
    for _ in range(60):
        w = random_lasso(rng)
        shifted = LassoWord(w.prefix + w.period, w.period)
        doubled = LassoWord(w.prefix, w.period * 2)
        assert lasso_equal(w, shifted) and lasso_equal(w, doubled)
        verdict = buchi_accepts_lasso(aut, w)
        assert buchi_accepts_lasso(aut, shifted) == verdict
        assert buchi_accepts_lasso(aut, doubled) == verdict


def test_exhaustive_characterization_small_lassos():
    aut = ones_automaton()
    comp = ones_automaton(complement=True)
    words = all_binary_lassos(max_prefix=3, max_period=3)
    assert len(words) == 15 * 14
    for w in words:
        expected = "1" in w.normal().period
        assert buchi_accepts_lasso(aut, w) == expected
        assert buchi_accepts_lasso(comp, w) == (not expected)


def test_alphabet_without_zero():
    # tape 2 of the embedding reads "0" whatever the one-tape alphabet is
    ab = Alphabet.of("ab")
    infinitely_many_b = BuchiAutomaton(
        ("p", "q"),
        ab,
        (("p", "a", "p"), ("p", "b", "q"), ("q", "a", "p"), ("q", "b", "q")),
        "p",
        frozenset({"q"}),
    )
    for text, expected in (("|b", True), ("bbb|a", False), ("a|ab", True), ("|a", False)):
        w = LassoWord.parse(text, ab)
        assert buchi_accepts_lasso(infinitely_many_b, w) == expected
        assert naive_buchi_accepts(infinitely_many_b, w) == expected

