"""One-tape Buchi automata and lasso membership.

Covers exactly what the reference constructions need: letter-labelled
transitions, the two fixed machines for "infinitely many 1s" and its
complement, and a sound and complete membership decision for ultimately
periodic words.  The decision has no machinery of its own: a one-tape
automaton is embedded as a two-tape one that reads ``0`` on tape 2 with
every letter, and is decided against ``0^ω`` by ``accepts_lasso_pair``.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cached_property, lru_cache

from .twotape import TwoTapeAutomaton, Verdict, _dot, accepts_lasso_pair, validate
from .words import Alphabet, BINARY, LassoWord


@dataclass(frozen=True)
class BuchiAutomaton:
    states: tuple[str, ...]
    alphabet: Alphabet
    transitions: tuple[tuple[str, str, str], ...]  # (source, letter, target)
    initial: str
    accepting: frozenset[str]

    def __post_init__(self):
        # the two-tape checks accept any word over the alphabet as a label
        for src, ch, dst in self.transitions:
            if len(ch) != 1:
                raise ValueError(f"transition label is not one letter: {(src, ch, dst)}")
        validate(self._embedded)

    @cached_property
    def _embedded(self) -> TwoTapeAutomaton:
        """The two-tape automaton that reads ``0`` on tape 2 with every letter."""
        return TwoTapeAutomaton(
            states=self.states,
            sigma1=self.alphabet,
            sigma2=Alphabet.of("0"),
            transitions=tuple((src, ch, "0", dst) for src, ch, dst in self.transitions),
            initial=self.initial,
            accepting=self.accepting,
        )


def ones_automaton(complement: bool = False) -> BuchiAutomaton:
    """Buchi automaton over {0,1} for words with infinitely many 1s.

    With ``complement=True``, the machine instead recognizes words with
    finitely many 1s, by nondeterministically guessing a position after
    the last 1 and then insisting on 0s forever.  Each machine is built
    once, whichever way the flag is spelled, so its validation, two-tape
    embedding and compiled form are shared by every caller.
    """
    return _ones_automaton(bool(complement))


@lru_cache(maxsize=None)
def _ones_automaton(complement: bool) -> BuchiAutomaton:
    if not complement:
        return BuchiAutomaton(
            states=("seen0", "seen1"),
            alphabet=BINARY,
            transitions=(
                ("seen0", "0", "seen0"),
                ("seen0", "1", "seen1"),
                ("seen1", "0", "seen0"),
                ("seen1", "1", "seen1"),
            ),
            initial="seen0",
            accepting=frozenset({"seen1"}),
        )
    return BuchiAutomaton(
        states=("guess", "final"),
        alphabet=BINARY,
        transitions=(
            ("guess", "0", "guess"),
            ("guess", "1", "guess"),
            ("guess", "0", "final"),
            ("final", "0", "final"),
        ),
        initial="guess",
        accepting=frozenset({"final"}),
    )


def buchi_accepts_lasso(aut: BuchiAutomaton, w: LassoWord) -> bool:
    """Membership of an ultimately periodic word; sound and complete.

    Decided by the two-tape core: each transition ``(src, ch, dst)``
    becomes ``(src, ch, "0", dst)`` and the word is paired with ``0^ω``
    on tape 2.  Every edge then consumes on both tapes, so the core's
    fair cycle (one that enters an accepting state and consumes on
    both tapes) is exactly a Büchi-accepting cycle.
    """
    aut.alphabet.check_word(w.prefix + w.period, "lasso")
    return accepts_lasso_pair(aut._embedded, w, LassoWord("", "0")).verdict is Verdict.ACCEPTED


def to_json(aut: BuchiAutomaton) -> str:
    doc = {
        "states": list(aut.states),
        "alphabet": str(aut.alphabet),
        "transitions": [list(t) for t in sorted(aut.transitions)],
        "initial": aut.initial,
        "accepting": sorted(aut.accepting),
    }
    return json.dumps(doc, indent=2)


def to_dot(aut: BuchiAutomaton) -> str:
    edges = [(src, dst, ch) for src, ch, dst in sorted(aut.transitions)]
    return _dot("buchi", aut.states, aut.accepting, aut.initial, edges)
